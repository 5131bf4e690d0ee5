//! §II-B2 quantified: "inefficiency of direct combination".
//!
//! The paper argues (with Figures 2 and 3 as block diagrams) that bolting
//! mixed precision onto a sparse accelerator (SparTen→SparTen-mp) or
//! sparsity onto a precision-scalable one (Laconic→Laconic+SNAP) is
//! inferior to the unified condensed-streaming design. This experiment
//! turns the argument into numbers: area-normalized performance of each
//! base design, its naive combination, and Ristretto, plus the Table I
//! taxonomy members SCNN and SNAP for reference.

use crate::cache::StatsCache;
use crate::{area_norm_speedup, benchmark_networks, table, SEED};
use baselines::prelude::*;
use qnn::quant::BitWidth;
use qnn::workload::PrecisionPolicy;
use rayon::prelude::*;
use ristretto_sim::analytic::RistrettoSim;
use ristretto_sim::config::RistrettoConfig;
use serde::{Deserialize, Serialize};

/// One accelerator's aggregate standing on the benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Accelerator name.
    pub accelerator: String,
    /// Total cycles over the benchmark subset (4-bit models).
    pub cycles: u64,
    /// Accelerator area (mm²).
    pub area_mm2: f64,
    /// Area-normalized speedup over SparTen (the sparse base design).
    pub speedup_vs_sparten: f64,
}

/// Runs the seven-way comparison at 4-bit (the precision where the
/// combinations should shine if the separate-design methodology worked).
pub fn run(quick: bool, cache: &mut StatsCache) -> Vec<Row> {
    let policy = PrecisionPolicy::Uniform(BitWidth::W4);
    let nets: Vec<_> = benchmark_networks(quick).to_vec();

    let r_sim =
        RistrettoSim::try_new(RistrettoConfig::half_width()).expect("half-width configuration");

    // Prefill the shared workloads once, then evaluate the seven machines
    // in parallel (each sums over the networks sequentially). The machines
    // are heterogeneous types, unified behind the workspace-wide `Backend`
    // trait; collect preserves the fixed accelerator order.
    cache.prefill(
        &nets.iter().map(|&n| (n, policy, 2)).collect::<Vec<_>>(),
        SEED,
    );
    let cache = &*cache;

    let sparten = SparTen::paper_default();
    let mp = SparTenMp::paper_default();
    let lac = Laconic::paper_default();
    let ls = LaconicSnap::paper_default();
    let scnn = Scnn::paper_default();
    let snap = Snap::paper_default();
    let machines: Vec<&dyn Backend> = vec![&sparten, &mp, &lac, &ls, &scnn, &snap, &r_sim];
    let rows: Vec<(String, u64, f64)> = machines
        .par_iter()
        .map(|m| {
            let cycles = nets
                .iter()
                .map(|&n| m.simulate_network(cache.peek(n, policy, 2)).total_cycles())
                .sum();
            (m.name().to_string(), cycles, m.area_mm2())
        })
        .collect();

    let (base_cycles, base_area) = (rows[0].1, rows[0].2);
    rows.into_iter()
        .map(|(accelerator, cycles, area_mm2)| Row {
            accelerator,
            cycles,
            area_mm2,
            speedup_vs_sparten: area_norm_speedup(cycles, area_mm2, base_cycles, base_area),
        })
        .collect()
}

/// Renders the comparison.
pub fn render(rows: &[Row]) -> String {
    let mut t = vec![vec![
        "accelerator".to_string(),
        "cycles (4b benchmark)".to_string(),
        "area mm2".to_string(),
        "perf/area vs SparTen".to_string(),
    ]];
    for r in rows {
        t.push(vec![
            r.accelerator.clone(),
            r.cycles.to_string(),
            format!("{:.3}", r.area_mm2),
            table::speedup(r.speedup_vs_sparten),
        ]);
    }
    table::render(
        "Motivation (§II-B2): base designs, naive combinations, and the unified design (4-bit)",
        &t,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by<'a>(rows: &'a [Row], name: &str) -> &'a Row {
        rows.iter().find(|r| r.accelerator == name).unwrap()
    }

    #[test]
    fn unified_design_beats_both_naive_combinations() {
        let mut cache = StatsCache::new();
        let rows = run(true, &mut cache);
        let ristretto = by(&rows, "Ristretto").speedup_vs_sparten;
        let mp = by(&rows, "SparTen-mp").speedup_vs_sparten;
        let ls = by(&rows, "Laconic+SNAP").speedup_vs_sparten;
        assert!(ristretto > mp, "Ristretto {ristretto} vs SparTen-mp {mp}");
        assert!(ristretto > ls, "Ristretto {ristretto} vs Laconic+SNAP {ls}");
        // And the combinations do not dominate their own base designs by
        // the margin the unified design achieves.
        let sparten = by(&rows, "SparTen").speedup_vs_sparten;
        assert!(ristretto > 2.0 * sparten, "unified win should be decisive");
    }

    #[test]
    fn combination_gains_are_marginal_or_negative_in_perf_per_area() {
        let mut cache = StatsCache::new();
        let rows = run(true, &mut cache);
        let lac = by(&rows, "Laconic").speedup_vs_sparten;
        let ls = by(&rows, "Laconic+SNAP").speedup_vs_sparten;
        // Laconic+SNAP's compression doesn't buy area-normalized cycles.
        assert!(ls < lac * 1.5, "Laconic+SNAP {ls} vs Laconic {lac}");
    }
}
