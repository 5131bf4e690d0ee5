//! Figure 15: Ristretto performance vs atom-level sparsity, measured on
//! randomly generated tensors with one compute tile (cycle-level).
//!
//! Sweeps the atom density of both operands and reports the tile speedup
//! relative to fully-dense atoms — the paper shows performance rising
//! steadily as atom sparsity grows, the behaviour Laconic cannot achieve
//! at the value level (Fig 4).

use crate::{table, SEED};
use atomstream::atom::AtomBits;
use atomstream::compress::{compress_activations, compress_weights};
use atomstream::flatten::{FlatActivation, FlatWeight};
use qnn::quant::BitWidth;
use qnn::workload::WorkloadGen;
use rayon::prelude::*;
use ristretto_sim::config::RistrettoConfig;
use ristretto_sim::tile::TileSim;
use serde::{Deserialize, Serialize};

/// One sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Atom sparsity of both operands (1 − atom density).
    pub atom_sparsity: f64,
    /// Cycle-level tile cycles at this sparsity.
    pub cycles: u64,
    /// Speedup relative to the dense-atom run.
    pub speedup: f64,
}

/// Runs the sweep on one compute tile (16 2-bit multipliers, as in the
/// SparTen-comparison configuration).
pub fn run(quick: bool) -> Vec<Row> {
    let n_acts = if quick { 128 } else { 512 };
    let n_weights = if quick { 64 } else { 256 };
    let cfg = RistrettoConfig::half_width();
    let sim = TileSim::try_new(&cfg).expect("half-width configuration");
    // Each sweep point owns a generator seeded by its step, so the cycle
    // counts are independent; only the speedup normalization references the
    // dense (step 0) point, which we apply after the parallel sweep.
    let cycles_per_step: Vec<u64> = (0u64..=7)
        .into_par_iter()
        .map(|step| {
            let sparsity = step as f64 * 0.1;
            let density = 1.0 - sparsity;
            let mut gen = WorkloadGen::new(SEED ^ 0xf15 ^ step);
            let a_vals = gen.values_with_atom_density(n_acts, BitWidth::W8, 2, density, false);
            let w_vals = gen.values_with_atom_density(n_weights, BitWidth::W8, 2, density, true);
            let fa: Vec<FlatActivation> = a_vals
                .iter()
                .enumerate()
                .map(|(i, &value)| FlatActivation {
                    value,
                    x: (i % 32) as u16,
                    y: (i / 32) as u16,
                })
                .collect();
            let fw: Vec<FlatWeight> = w_vals
                .iter()
                .enumerate()
                .map(|(i, &value)| FlatWeight {
                    value,
                    x: (i % 3) as u16,
                    y: (i / 3 % 3) as u16,
                    out_ch: (i % 16) as u16,
                })
                .collect();
            let acts = compress_activations(&fa, 8, AtomBits::B2).expect("8-bit values");
            let weights = compress_weights(&fw, 8, AtomBits::B2).expect("8-bit values");
            sim.run(&weights, &acts).cycles
        })
        .collect();
    let dense_cycles = cycles_per_step[0];
    cycles_per_step
        .into_iter()
        .enumerate()
        .map(|(step, cycles)| Row {
            atom_sparsity: step as f64 * 0.1,
            cycles,
            speedup: dense_cycles as f64 / cycles.max(1) as f64,
        })
        .collect()
}

/// Renders the result table.
pub fn render(rows: &[Row]) -> String {
    let mut t = vec![vec![
        "atom sparsity".to_string(),
        "tile cycles".to_string(),
        "speedup vs dense atoms".to_string(),
    ]];
    for r in rows {
        t.push(vec![
            table::pct(r.atom_sparsity),
            r.cycles.to_string(),
            table::speedup(r.speedup),
        ]);
    }
    table::render(
        "Fig 15: Ristretto tile performance vs atom sparsity (cycle-level)",
        &t,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_rises_with_atom_sparsity() {
        let rows = run(true);
        assert_eq!(rows.len(), 8);
        assert!((rows[0].speedup - 1.0).abs() < 1e-9);
        // Monotone within noise; end point clearly faster.
        assert!(
            rows.last().unwrap().speedup > 2.0,
            "{:?}",
            rows.last().unwrap()
        );
        for pair in rows.windows(2) {
            assert!(
                pair[1].speedup > pair[0].speedup * 0.9,
                "speedup regressed: {pair:?}"
            );
        }
    }
}
