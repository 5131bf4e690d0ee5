//! Ablation studies for the design choices DESIGN.md calls out (beyond the
//! paper's own Fig 18/19 ablations):
//!
//! * feature-map tile size — trades per-tile pipeline-drain overhead
//!   (Eq 4's ε is paid once per channel-tile intersection) against COO
//!   coordinate metadata and accumulate-buffer reach;
//! * Atomulator FIFO depth — how much backpressure the crossbar absorbs
//!   (cycle-level, naive vs shuffled weight streams);
//! * balancing strategy across the whole DNN benchmark (Fig 18 generalized
//!   from one layer to networks).

use crate::cache::StatsCache;
use crate::{benchmark_networks, table, SEED};
use atomstream::atom::AtomBits;
use atomstream::compress::{compress_activations, compress_weights, compress_weights_naive};
use atomstream::conv_csc::{conv2d_csc_streams_with, CscConfig, WeightStreamSet};
use atomstream::flatten::{FlatActivation, FlatWeight};
use atomstream::kernel::CscScratch;
use qnn::quant::BitWidth;
use qnn::workload::{
    ActivationProfile, PrecisionPolicy, SyntheticLayer, WeightProfile, WorkloadGen,
};
use rayon::prelude::*;
use ristretto_sim::analytic::RistrettoSim;
use ristretto_sim::balance::BalanceStrategy;
use ristretto_sim::config::RistrettoConfig;
use ristretto_sim::tile::TileSim;
use serde::{Deserialize, Serialize};

/// Tile-size ablation row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileSizeRow {
    /// Square tile extent.
    pub tile: usize,
    /// Intersection steps for the probe layer.
    pub steps: u64,
    /// Compressed activation bits (value + per-tile coordinate metadata).
    pub compressed_bits: u64,
}

/// FIFO-depth ablation row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FifoRow {
    /// FIFO depth.
    pub depth: usize,
    /// Stall cycles with the §IV-C2 shuffled weight stream.
    pub stalls_shuffled: u64,
    /// Stall cycles with a naive (value-order) weight stream.
    pub stalls_naive: u64,
}

/// Balancing ablation row (whole networks).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BalanceRow {
    /// Network name.
    pub network: String,
    /// Cycles with no balancing.
    pub cycles_none: u64,
    /// Cycles with weight-only balancing.
    pub cycles_w: u64,
    /// Cycles with w/a balancing.
    pub cycles_wa: u64,
}

/// Sweeps the feature-map tile extent on a probe layer.
pub fn run_tile_size(quick: bool) -> Vec<TileSizeRow> {
    let mut gen = WorkloadGen::new(SEED ^ 0x711e);
    let layer = qnn::layers::ConvLayer::conv(
        "probe",
        8,
        16,
        3,
        1,
        1,
        if quick { 16 } else { 32 },
        if quick { 16 } else { 32 },
    )
    .expect("valid probe layer");
    let s = SyntheticLayer::try_generate(
        &layer,
        &WeightProfile::benchmark(BitWidth::W8),
        &ActivationProfile::new(BitWidth::W8),
        &mut gen,
    )
    .expect("probe layer is small");
    // The static weight streams are tile-size independent: compile them
    // once and sweep only the activation-side tiling.
    let weights = WeightStreamSet::compile(&s.kernels, BitWidth::W8, AtomBits::B2)
        .expect("probe weights compile");
    [2usize, 4, 8, 16]
        .into_iter()
        .map(|tile| {
            let cfg = CscConfig {
                tile_h: tile,
                tile_w: tile,
                ..CscConfig::default()
            };
            let out = conv2d_csc_streams_with(
                &s.fmap,
                &weights,
                layer.geometry(),
                BitWidth::W8,
                &cfg,
                &CscScratch::new(),
            )
            .expect("probe conv");
            // Coordinate metadata: 2·log2(tile) bits per non-zero value.
            let coord_bits = 2 * (tile as u64).ilog2() as u64;
            let compressed_bits = out.stats.act_values * (8 + coord_bits);
            TileSizeRow {
                tile,
                steps: out.stats.intersect.steps,
                compressed_bits,
            }
        })
        .collect()
}

/// Sweeps the Atomulator FIFO depth at high output-channel contention.
pub fn run_fifo_depth(quick: bool) -> Vec<FifoRow> {
    let n_acts = if quick { 48 } else { 192 };
    let n_weights = if quick { 64 } else { 256 };
    let mut gen = WorkloadGen::new(SEED ^ 0xf1f0);
    let a_vals = gen.values_with_density(n_acts, BitWidth::W8, 0.9, false);
    let w_vals = gen.values_with_density(n_weights, BitWidth::W8, 0.9, true);
    let fa: Vec<FlatActivation> = a_vals
        .iter()
        .enumerate()
        .filter(|(_, &v)| v != 0)
        .map(|(i, &value)| FlatActivation {
            value,
            x: (i % 16) as u16,
            y: (i / 16) as u16,
        })
        .collect();
    // Only 3 output channels: heavy bank contention.
    let fw: Vec<FlatWeight> = w_vals
        .iter()
        .enumerate()
        .filter(|(_, &v)| v != 0)
        .map(|(i, &value)| FlatWeight {
            value,
            x: (i % 3) as u16,
            y: (i / 3 % 3) as u16,
            out_ch: (i % 3) as u16,
        })
        .collect();
    let acts = compress_activations(&fa, 8, AtomBits::B2).expect("8-bit values");
    let shuffled = compress_weights(&fw, 8, AtomBits::B2).expect("8-bit values");
    let naive = compress_weights_naive(&fw, 8, AtomBits::B2).expect("8-bit values");
    [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|depth| {
            let cfg = RistrettoConfig {
                multipliers: 16,
                fifo_depth: depth,
                ..RistrettoConfig::paper_default()
            };
            let sim = TileSim::try_new(&cfg).expect("FIFO sweep configuration");
            FifoRow {
                depth,
                stalls_shuffled: sim.run(&shuffled, &acts).stall_cycles,
                stalls_naive: sim.run(&naive, &acts).stall_cycles,
            }
        })
        .collect()
}

/// Compares balancing strategies across whole networks at 4-bit.
pub fn run_balance_networks(quick: bool, cache: &mut StatsCache) -> Vec<BalanceRow> {
    let policy = PrecisionPolicy::Uniform(BitWidth::W4);
    let nets = benchmark_networks(quick);
    // Prefill the per-network workloads, then evaluate the three balancing
    // strategies for each network in parallel (order-preserving collect).
    cache.prefill(
        &nets.iter().map(|&n| (n, policy, 2)).collect::<Vec<_>>(),
        SEED,
    );
    let cache = &*cache;
    nets.par_iter()
        .map(|&net| {
            let stats = cache.peek(net, policy, 2);
            let cycles = |strategy| {
                let cfg = RistrettoConfig::paper_default().with_balancing(strategy);
                RistrettoSim::try_new(cfg)
                    .expect("balancing configuration")
                    .simulate_network(stats)
                    .total_cycles()
            };
            BalanceRow {
                network: net.name().to_string(),
                cycles_none: cycles(BalanceStrategy::None),
                cycles_w: cycles(BalanceStrategy::WeightOnly),
                cycles_wa: cycles(BalanceStrategy::WeightActivation),
            }
        })
        .collect()
}

/// Renders all three ablations.
pub fn render(tiles: &[TileSizeRow], fifos: &[FifoRow], balances: &[BalanceRow]) -> String {
    let mut t = vec![vec![
        "tile".to_string(),
        "intersection steps".to_string(),
        "compressed act bits".to_string(),
    ]];
    for r in tiles {
        t.push(vec![
            format!("{0}x{0}", r.tile),
            r.steps.to_string(),
            r.compressed_bits.to_string(),
        ]);
    }
    let mut s = table::render("Ablation: feature-map tile size (probe layer)", &t);

    let mut t = vec![vec![
        "FIFO depth".to_string(),
        "stalls (shuffled stream)".to_string(),
        "stalls (naive stream)".to_string(),
    ]];
    for r in fifos {
        t.push(vec![
            r.depth.to_string(),
            r.stalls_shuffled.to_string(),
            r.stalls_naive.to_string(),
        ]);
    }
    s.push_str(&table::render(
        "Ablation: Atomulator FIFO depth under contention",
        &t,
    ));

    let mut t = vec![vec![
        "network".to_string(),
        "no balancing".to_string(),
        "w balancing".to_string(),
        "w/a balancing".to_string(),
        "w/a gain".to_string(),
    ]];
    for r in balances {
        t.push(vec![
            r.network.clone(),
            r.cycles_none.to_string(),
            r.cycles_w.to_string(),
            r.cycles_wa.to_string(),
            table::speedup(r.cycles_none as f64 / r.cycles_wa.max(1) as f64),
        ]);
    }
    s.push_str(&table::render(
        "Ablation: balancing strategies across networks (4-bit)",
        &t,
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_size_trades_drain_overhead_for_metadata() {
        let rows = run_tile_size(true);
        assert_eq!(rows.len(), 4);
        // Smaller tiles pay the Eq 4 pipeline-drain ε once per
        // (channel, tile) intersection, so steps shrink monotonically as
        // tiles grow; coordinate metadata grows instead.
        for pair in rows.windows(2) {
            assert!(pair[1].steps <= pair[0].steps, "{pair:?}");
            assert!(
                pair[1].compressed_bits >= pair[0].compressed_bits,
                "{pair:?}"
            );
        }
        // The drain overhead stays bounded (< 2x between extremes).
        let min = rows.iter().map(|r| r.steps).min().unwrap();
        let max = rows.iter().map(|r| r.steps).max().unwrap();
        assert!(max < min * 2, "steps {min}..{max}");
    }

    #[test]
    fn deeper_fifos_monotonically_reduce_stalls() {
        let rows = run_fifo_depth(true);
        for pair in rows.windows(2) {
            assert!(pair[1].stalls_shuffled <= pair[0].stalls_shuffled);
            assert!(pair[1].stalls_naive <= pair[0].stalls_naive);
        }
        // Shuffling never stalls more than the naive order.
        for r in &rows {
            assert!(r.stalls_shuffled <= r.stalls_naive, "{r:?}");
        }
    }

    #[test]
    fn wa_balancing_wins_network_wide() {
        let mut cache = StatsCache::new();
        let rows = run_balance_networks(true, &mut cache);
        for r in &rows {
            assert!(r.cycles_wa <= r.cycles_none, "{}", r.network);
            assert!(r.cycles_wa <= r.cycles_w, "{}", r.network);
        }
    }
}
