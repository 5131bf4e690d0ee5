//! Figure 17: Ristretto vs SparTen and SparTen-mp — area-normalized
//! performance at equal peak BitOps/cycle and equal buffers (§V-D).
//!
//! Paper anchors (speedup over SparTen): 8.54× / 7.70× / 3.01× / 8.25× at
//! 2b/4b/8b/mixed — largest at low precision, where SparTen's fixed 8-bit
//! one-pair-per-cycle dataflow cannot speed up; SparTen-mp sits between
//! but pays a large area premium for its 16 parallel inner-joins.

use crate::cache::StatsCache;
use crate::{area_norm_speedup, benchmark_networks, benchmark_policies, table, SEED};
use baselines::report::Backend;
use baselines::sparten::SparTen;
use baselines::sparten_mp::SparTenMp;
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
    /// Area-normalized speedup of Ristretto over SparTen.
    pub speedup_vs_sparten: f64,
    /// Area-normalized speedup of SparTen-mp over SparTen.
    pub sparten_mp_vs_sparten: f64,
    /// Area-normalized speedup of Ristretto over SparTen-mp.
    pub speedup_vs_sparten_mp: f64,
}

/// Runs the three-way comparison.
pub fn run(quick: bool, cache: &mut StatsCache) -> Vec<Row> {
    let r_cfg = RistrettoConfig::half_width();
    let sim = RistrettoSim::try_new(r_cfg).expect("half-width configuration");
    let r_area = Backend::area_mm2(&sim);
    let sp = SparTen::paper_default();
    let sp_area = sp.area_mm2();
    let mp = SparTenMp::paper_default();
    let mp_area = mp.area_mm2();

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
            let s = sp.simulate_network(stats);
            let m = mp.simulate_network(stats);
            let r_vs_s = area_norm_speedup(r.total_cycles(), r_area, s.total_cycles(), sp_area);
            let m_vs_s = area_norm_speedup(m.total_cycles(), mp_area, s.total_cycles(), sp_area);
            Row {
                network: net.name().to_string(),
                precision: policy.label(),
                speedup_vs_sparten: r_vs_s,
                sparten_mp_vs_sparten: m_vs_s,
                speedup_vs_sparten_mp: r_vs_s / m_vs_s,
            }
        })
        .collect()
}

/// Mean speedups at one precision: `(ristretto, sparten_mp)` over SparTen.
pub fn averages(rows: &[Row], precision: &str) -> (f64, f64) {
    let sel: Vec<&Row> = rows.iter().filter(|r| r.precision == precision).collect();
    let n = sel.len().max(1) as f64;
    (
        sel.iter().map(|r| r.speedup_vs_sparten).sum::<f64>() / n,
        sel.iter().map(|r| r.sparten_mp_vs_sparten).sum::<f64>() / n,
    )
}

/// Renders Fig 17.
pub fn render(rows: &[Row]) -> String {
    let mut t = vec![vec![
        "network".to_string(),
        "precision".to_string(),
        "Ristretto/SparTen".to_string(),
        "SparTen-mp/SparTen".to_string(),
        "Ristretto/SparTen-mp".to_string(),
    ]];
    for r in rows {
        t.push(vec![
            r.network.clone(),
            r.precision.clone(),
            table::speedup(r.speedup_vs_sparten),
            table::speedup(r.sparten_mp_vs_sparten),
            table::speedup(r.speedup_vs_sparten_mp),
        ]);
    }
    let mut s = table::render(
        "Fig 17: Ristretto vs SparTen / SparTen-mp (area-normalized)",
        &t,
    );
    for (label, paper) in [
        ("2b", 8.54),
        ("4b", 7.70),
        ("8b", 3.01),
        ("mixed 2/4b", 8.25),
    ] {
        let (r, m) = averages(rows, label);
        s.push_str(&format!(
            "{label}: Ristretto {} (paper {paper}x), SparTen-mp {}\n",
            table::speedup(r),
            table::speedup(m)
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ristretto_wins_most_at_low_precision() {
        let mut cache = StatsCache::new();
        let rows = run(true, &mut cache);
        for r in &rows {
            assert!(
                r.speedup_vs_sparten > 1.0,
                "{} {} vs SparTen {}",
                r.network,
                r.precision,
                r.speedup_vs_sparten
            );
            assert!(
                r.speedup_vs_sparten_mp > 1.0,
                "{} {} vs SparTen-mp {}",
                r.network,
                r.precision,
                r.speedup_vs_sparten_mp
            );
        }
        let (r2, _) = averages(&rows, "2b");
        let (r8, _) = averages(&rows, "8b");
        assert!(r2 > r8, "2b speedup {r2} should exceed 8b {r8}");
    }
}
