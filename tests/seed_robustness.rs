//! Seed robustness: the evaluation's qualitative conclusions must hold for
//! *any* workload seed, not just the harness default — guarding the
//! reproduction against seed cherry-picking.

use ristretto::baselines::prelude::*;
use ristretto::qnn::models::NetworkId;
use ristretto::qnn::quant::BitWidth;
use ristretto::qnn::workload::{NetworkStats, PrecisionPolicy};
use ristretto::ristretto_sim::analytic::RistrettoSim;
use ristretto::ristretto_sim::config::RistrettoConfig;

const SEEDS: [u64; 3] = [1, 777, 424242];

#[test]
fn ristretto_beats_bitfusion_for_every_seed() {
    let sim = RistrettoSim::try_new(RistrettoConfig::paper_default()).unwrap();
    let bf = BitFusion::paper_default();
    for seed in SEEDS {
        for bits in [BitWidth::W8, BitWidth::W2] {
            let net = NetworkStats::generate(
                NetworkId::GoogLeNet,
                PrecisionPolicy::Uniform(bits),
                2,
                seed,
            );
            let r = sim.simulate_network(&net);
            let b = bf.simulate_network(&net);
            assert!(
                r.total_cycles() * 2 < b.total_cycles(),
                "seed {seed} {bits}: {} vs {}",
                r.total_cycles(),
                b.total_cycles()
            );
            assert!(
                r.total_energy().total_pj() < b.total_energy().total_pj(),
                "seed {seed} {bits}: energy"
            );
        }
    }
}

#[test]
fn sparten_gap_grows_at_low_precision_for_every_seed() {
    let sim = RistrettoSim::try_new(RistrettoConfig::half_width()).unwrap();
    let sp = SparTen::paper_default();
    for seed in SEEDS {
        let speedup = |bits| {
            let net = NetworkStats::generate(
                NetworkId::ResNet18,
                PrecisionPolicy::Uniform(bits),
                2,
                seed,
            );
            sp.simulate_network(&net).total_cycles() as f64
                / sim.simulate_network(&net).total_cycles() as f64
        };
        let s2 = speedup(BitWidth::W2);
        let s8 = speedup(BitWidth::W8);
        assert!(s2 > s8, "seed {seed}: 2b {s2} vs 8b {s8}");
        assert!(s2 > 2.0, "seed {seed}: 2b speedup {s2}");
    }
}

#[test]
fn sparsity_trend_of_fig1_for_every_seed() {
    use ristretto::qnn::sparsity::value_density;
    use ristretto::qnn::workload::{WeightProfile, WorkloadGen};
    for seed in SEEDS {
        let mut gen = WorkloadGen::new(seed);
        let mut prev = -1.0;
        for bits in [BitWidth::W8, BitWidth::W6, BitWidth::W4, BitWidth::W2] {
            let w = gen.weight_values(30_000, &WeightProfile::unpruned(bits));
            let sparsity = 1.0 - value_density(&w);
            assert!(
                sparsity > prev - 0.02,
                "seed {seed} {bits}: {sparsity} after {prev}"
            );
            prev = sparsity;
        }
    }
}

#[test]
fn balancing_verdict_for_every_seed() {
    use ristretto::ristretto_sim::balance::BalanceStrategy;
    for seed in SEEDS {
        let net = NetworkStats::generate(
            NetworkId::ResNet18,
            PrecisionPolicy::Uniform(BitWidth::W4),
            2,
            seed,
        );
        let cycles = |strategy| {
            let cfg = RistrettoConfig::paper_default().with_balancing(strategy);
            RistrettoSim::try_new(cfg)
                .unwrap()
                .simulate_network(&net)
                .total_cycles()
        };
        let none = cycles(BalanceStrategy::None);
        let wa = cycles(BalanceStrategy::WeightActivation);
        assert!(wa < none, "seed {seed}: w/a {wa} vs none {none}");
    }
}
