//! Figures 14 & 16: Ristretto vs Laconic — performance and energy at equal
//! compute area and buffer capacity (§V-C).
//!
//! Paper anchors: average speedups 3.58× / 4.18× / 6.12× / 5.69× at
//! 8b/4b/2b/mixed (growing as precision narrows), and much lower buffer/
//! DRAM energy because Laconic moves dense tensors.

use crate::cache::StatsCache;
use crate::{area_norm_speedup, benchmark_networks, benchmark_policies, table, SEED};
use baselines::laconic::Laconic;
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
    /// Area-normalized speedup of Ristretto over Laconic.
    pub speedup: f64,
    /// Ristretto energy relative to Laconic.
    pub energy_ratio: f64,
}

/// Runs the comparison: Ristretto with 32 tiles × 16 multipliers vs a 6×8
/// Laconic mesh, same buffers.
pub fn run(quick: bool, cache: &mut StatsCache) -> Vec<Row> {
    let r_cfg = RistrettoConfig::half_width();
    let sim = RistrettoSim::try_new(r_cfg).expect("half-width configuration");
    let r_area = Backend::area_mm2(&sim);
    let lac = Laconic::paper_default();
    let lac_area = lac.area_mm2();

    // Independent (network, precision) cells: prefill, then fan out (see
    // fig12 for the pattern); order-preserving collect keeps rows identical
    // to the sequential loops.
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
            let l = lac.simulate_network(stats);
            Row {
                network: net.name().to_string(),
                precision: policy.label(),
                speedup: area_norm_speedup(r.total_cycles(), r_area, l.total_cycles(), lac_area),
                energy_ratio: r.total_energy().relative_to(&l.total_energy()),
            }
        })
        .collect()
}

/// Mean speedup and energy ratio at one precision.
pub fn averages(rows: &[Row], precision: &str) -> (f64, f64) {
    let sel: Vec<&Row> = rows.iter().filter(|r| r.precision == precision).collect();
    let n = sel.len().max(1) as f64;
    (
        sel.iter().map(|r| r.speedup).sum::<f64>() / n,
        sel.iter().map(|r| r.energy_ratio).sum::<f64>() / n,
    )
}

/// Renders Fig 14 + Fig 16.
pub fn render(rows: &[Row]) -> String {
    let mut t = vec![vec![
        "network".to_string(),
        "precision".to_string(),
        "speedup".to_string(),
        "energy vs Laconic".to_string(),
    ]];
    for r in rows {
        t.push(vec![
            r.network.clone(),
            r.precision.clone(),
            table::speedup(r.speedup),
            table::pct(r.energy_ratio),
        ]);
    }
    let mut s = table::render(
        "Fig 14/16: Ristretto vs Laconic (area-normalized perf; energy ratio)",
        &t,
    );
    for (label, paper) in [
        ("8b", 3.58),
        ("4b", 4.18),
        ("2b", 6.12),
        ("mixed 2/4b", 5.69),
    ] {
        let (sp, e) = averages(rows, label);
        s.push_str(&format!(
            "{label}: avg speedup {} (paper {paper}x), energy {}\n",
            table::speedup(sp),
            table::pct(e)
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ristretto_beats_laconic_more_at_low_precision() {
        let mut cache = StatsCache::new();
        let rows = run(true, &mut cache);
        for r in &rows {
            assert!(
                r.speedup > 1.0,
                "{} {} speedup {}",
                r.network,
                r.precision,
                r.speedup
            );
            assert!(
                r.energy_ratio < 1.0,
                "{} {} energy {}",
                r.network,
                r.precision,
                r.energy_ratio
            );
        }
        // Paper: the speedup grows as the bit-width narrows.
        let (s8, _) = averages(&rows, "8b");
        let (s2, _) = averages(&rows, "2b");
        assert!(s2 > s8, "2b speedup {s2} should exceed 8b {s8}");
    }
}
