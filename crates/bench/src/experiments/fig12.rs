//! Figures 12 & 13: Ristretto vs Bit Fusion — area-normalized performance
//! and energy on the DNN benchmark at 8/4/2-bit and mixed 2/4-bit.
//!
//! Paper anchors: average speedups 8.2× / 7.47× / 7.13× / 6.73× at
//! 8b/4b/2b/mixed; Ristretto-ns (sparsity disabled) ≈ Bit Fusion; energy
//! 41.84% / 32.29% / 33.33% / 26.16% of Bit Fusion.

use crate::cache::StatsCache;
use crate::{area_norm_speedup, benchmark_networks, benchmark_policies, table, SEED};
use baselines::bitfusion::BitFusion;
use baselines::report::Backend;
use rayon::prelude::*;
use ristretto_sim::analytic::RistrettoSim;
use ristretto_sim::config::RistrettoConfig;
use serde::{Deserialize, Serialize};

/// One (network, precision) comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Network name.
    pub network: String,
    /// Precision label.
    pub precision: String,
    /// Area-normalized speedup of Ristretto over Bit Fusion.
    pub speedup: f64,
    /// Area-normalized speedup of Ristretto-ns over Bit Fusion.
    pub speedup_ns: f64,
    /// Raw cycle-count speedup of Ristretto-ns over Bit Fusion (the paper
    /// reports Ristretto-ns ≈ Bit Fusion; at matched multiplier counts the
    /// raw ratio is the cleaner check of that claim).
    pub raw_speedup_ns: f64,
    /// Ristretto energy relative to Bit Fusion (1.0 = equal).
    pub energy_ratio: f64,
}

/// Runs the comparison. Both machines hold 1024 2-bit multipliers and the
/// same buffer capacities (§V-B).
pub fn run(quick: bool, cache: &mut StatsCache) -> Vec<Row> {
    let r_cfg = RistrettoConfig::paper_default();
    let sim = RistrettoSim::try_new(r_cfg).expect("paper-default configuration");
    let sim_ns = RistrettoSim::try_new(r_cfg.non_sparse()).expect("non-sparse configuration");
    let r_area = Backend::area_mm2(&sim);
    let bf = BitFusion::paper_default();
    let bf_area = bf.area_mm2();

    // Every (network, precision) cell is independent: prefill the workload
    // cache, then fan the cells out. Cells collect back in input order, so
    // the rows match the nested sequential loops exactly.
    let items: Vec<_> = benchmark_networks(quick)
        .iter()
        .flat_map(|&net| benchmark_policies().into_iter().map(move |p| (net, p)))
        .collect();
    cache.prefill(
        &items
            .iter()
            .map(|&(net, p)| (net, p, 2))
            .collect::<Vec<_>>(),
        SEED,
    );
    let cache = &*cache;
    items
        .into_par_iter()
        .map(|(net, policy)| {
            let stats = cache.peek(net, policy, 2);
            let r = sim.simulate_network(stats);
            let rns = sim_ns.simulate_network(stats);
            let b = bf.simulate_network(stats);
            Row {
                network: net.name().to_string(),
                precision: policy.label(),
                speedup: area_norm_speedup(r.total_cycles(), r_area, b.total_cycles(), bf_area),
                speedup_ns: area_norm_speedup(
                    rns.total_cycles(),
                    r_area,
                    b.total_cycles(),
                    bf_area,
                ),
                raw_speedup_ns: b.total_cycles() as f64 / rns.total_cycles() as f64,
                energy_ratio: r.total_energy().relative_to(&b.total_energy()),
            }
        })
        .collect()
}

/// Mean over networks at one precision: `(speedup, speedup_ns, energy)`.
pub fn averages(rows: &[Row], precision: &str) -> (f64, f64, f64) {
    let sel: Vec<&Row> = rows.iter().filter(|r| r.precision == precision).collect();
    let n = sel.len().max(1) as f64;
    (
        sel.iter().map(|r| r.speedup).sum::<f64>() / n,
        sel.iter().map(|r| r.speedup_ns).sum::<f64>() / n,
        sel.iter().map(|r| r.energy_ratio).sum::<f64>() / n,
    )
}

/// Renders Fig 12 + Fig 13.
pub fn render(rows: &[Row]) -> String {
    let mut t = vec![vec![
        "network".to_string(),
        "precision".to_string(),
        "Ristretto speedup".to_string(),
        "Ristretto-ns speedup".to_string(),
        "Ristretto-ns raw".to_string(),
        "energy vs BF".to_string(),
    ]];
    for r in rows {
        t.push(vec![
            r.network.clone(),
            r.precision.clone(),
            table::speedup(r.speedup),
            table::speedup(r.speedup_ns),
            table::speedup(r.raw_speedup_ns),
            table::pct(r.energy_ratio),
        ]);
    }
    let mut s = table::render(
        "Fig 12/13: Ristretto vs Bit Fusion (area-normalized perf; energy ratio)",
        &t,
    );
    for (label, paper_perf, paper_energy) in [
        ("8b", 8.2, 0.4184),
        ("4b", 7.47, 0.3229),
        ("2b", 7.13, 0.3333),
        ("mixed 2/4b", 6.73, 0.2616),
    ] {
        let (sp, ns, e) = averages(rows, label);
        let raw_ns: f64 = {
            let sel: Vec<&Row> = rows.iter().filter(|r| r.precision == label).collect();
            sel.iter().map(|r| r.raw_speedup_ns).sum::<f64>() / sel.len().max(1) as f64
        };
        s.push_str(&format!(
            "{label}: avg speedup {} (paper {paper_perf}x), ns {} / raw {} (paper ~1x), energy {} (paper {})\n",
            table::speedup(sp),
            table::speedup(ns),
            table::speedup(raw_ns),
            table::pct(e),
            table::pct(paper_energy),
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ristretto_wins_and_ns_matches_bitfusion() {
        let mut cache = StatsCache::new();
        let rows = run(true, &mut cache);
        for r in &rows {
            assert!(
                r.speedup > 1.5,
                "{} {} speedup {}",
                r.network,
                r.precision,
                r.speedup
            );
            assert!(
                r.energy_ratio < 0.9,
                "{} {} energy {}",
                r.network,
                r.precision,
                r.energy_ratio
            );
            // Ristretto-ns should be within ~3x of Bit Fusion either way
            // (the paper shows them nearly equal).
            // The paper reports Ristretto-ns ≈ Bit Fusion; in raw cycles at
            // matched multiplier counts we land near parity.
            assert!(
                (0.5..2.5).contains(&r.raw_speedup_ns),
                "{} {} ns raw speedup {}",
                r.network,
                r.precision,
                r.raw_speedup_ns
            );
        }
    }

    #[test]
    fn render_includes_paper_anchors() {
        let mut cache = StatsCache::new();
        let rows = run(true, &mut cache);
        let s = render(&rows);
        assert!(s.contains("paper 8.2x"));
        assert!(s.contains("energy"));
    }
}
