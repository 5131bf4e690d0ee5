//! Property-based tests for the Ristretto simulator: balancing invariants
//! and cycle-level tile behaviour.

use atomstream::atom::AtomBits;
use atomstream::compress::{compress_activations, compress_weights};
use atomstream::cycles::ideal_steps;
use atomstream::flatten::{FlatActivation, FlatWeight};
use proptest::prelude::*;
use qnn::rng::SeededRng;
use ristretto_sim::balance::{balance, BalanceStrategy, ChannelWorkload};
use ristretto_sim::config::RistrettoConfig;
use ristretto_sim::tile::TileSim;

fn workloads(n: usize, seed: u64) -> Vec<ChannelWorkload> {
    let mut rng = SeededRng::new(seed);
    (0..n)
        .map(|channel| ChannelWorkload {
            channel,
            act_atoms: 1 + rng.below(2000) as u64,
            weight_atoms: 1 + rng.below(800) as u64,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn balancing_is_a_partition(
        n_channels in 1usize..200,
        tiles in 1usize..=64,
        seed in 0u64..10_000,
    ) {
        let w = workloads(n_channels, seed);
        for strategy in [BalanceStrategy::None, BalanceStrategy::WeightOnly, BalanceStrategy::WeightActivation] {
            let a = balance(&w, tiles, 16, strategy);
            prop_assert_eq!(a.groups.len(), tiles);
            let mut all: Vec<usize> = a.groups.iter().flatten().copied().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..n_channels).collect::<Vec<_>>());
            // Total work is strategy-invariant.
            let expected: u64 = w.iter().map(|c| c.cycles(16)).sum();
            prop_assert_eq!(a.total_cycles(), expected);
            prop_assert!(a.utilization() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn wa_never_loses_to_cyclic(
        n_channels in 2usize..150,
        tiles in 2usize..=32,
        seed in 0u64..10_000,
    ) {
        let w = workloads(n_channels, seed);
        let none = balance(&w, tiles, 16, BalanceStrategy::None);
        let wa = balance(&w, tiles, 16, BalanceStrategy::WeightActivation);
        prop_assert!(wa.makespan() <= none.makespan());
        // LPT is within 4/3 of optimal; the optimum is at least both the
        // mean load and the largest indivisible channel.
        let mean = wa.total_cycles().div_ceil(tiles as u64);
        let biggest = w.iter().map(|c| c.cycles(16)).max().unwrap_or(0);
        let lower = mean.max(biggest).max(1);
        prop_assert!(
            wa.makespan() * 3 <= lower * 4 + 3,
            "makespan {} vs lower bound {lower}",
            wa.makespan()
        );
    }

    #[test]
    fn tile_sim_counters_are_exact(
        seed in 0u64..10_000,
        n_acts in 1usize..40,
        n_weights in 1usize..60,
        mults in 1usize..=32,
    ) {
        let mut rng = SeededRng::new(seed);
        let fa: Vec<FlatActivation> = (0..n_acts)
            .map(|i| FlatActivation {
                value: 1 + rng.below(255) as i32,
                x: (i % 8) as u16,
                y: (i / 8) as u16,
            })
            .collect();
        let fw: Vec<FlatWeight> = (0..n_weights)
            .map(|i| {
                let m = 1 + rng.below(127) as i32;
                FlatWeight {
                    value: if rng.bernoulli(0.5) { -m } else { m },
                    x: rng.below(3) as u16,
                    y: rng.below(3) as u16,
                    out_ch: (i % 37) as u16,
                }
            })
            .collect();
        let acts = compress_activations(&fa, 8, AtomBits::B2).unwrap();
        let weights = compress_weights(&fw, 8, AtomBits::B2).unwrap();
        let cfg = RistrettoConfig { multipliers: mults, ..RistrettoConfig::paper_default() };
        let sim = TileSim::try_new(&cfg).unwrap();
        let r = sim.run(&weights, &acts);
        // Counters are exact regardless of scheduling.
        prop_assert_eq!(r.atom_mults, acts.len() as u64 * weights.len() as u64);
        prop_assert_eq!(r.deliveries, acts.value_count() as u64 * weights.len() as u64);
        // Cycles bounded below by Eq 3 and above by Eq 3 + residue + stalls.
        let ideal = ideal_steps(acts.len() as u64, weights.len() as u64, mults as u64);
        prop_assert!(r.ideal_cycles() >= ideal);
        prop_assert!(r.ideal_cycles() <= ideal + mults as u64);
        prop_assert_eq!(r.cycles, r.ideal_cycles() + r.stall_cycles);
    }

    #[test]
    fn utilization_perfect_when_uniform(
        tiles in 1usize..=16,
        per_tile in 1usize..=8,
    ) {
        // Identical channels spread perfectly.
        let n = tiles * per_tile;
        let w: Vec<ChannelWorkload> = (0..n)
            .map(|channel| ChannelWorkload { channel, act_atoms: 100, weight_atoms: 64 })
            .collect();
        let a = balance(&w, tiles, 16, BalanceStrategy::WeightActivation);
        prop_assert!((a.utilization() - 1.0).abs() < 1e-9);
    }
}
