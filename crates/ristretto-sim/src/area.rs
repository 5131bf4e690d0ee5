//! Area (and compute-unit power) assembly — the paper's Table VI.
//!
//! Builds the accelerator's area breakdown from the `hwmodel` component
//! library given a [`RistrettoConfig`]. The paper reports for the default
//! configuration (32 tiles × 32 2-bit multipliers, 64/192/96 KiB buffers):
//!
//! | block | mm² |
//! |---|---|
//! | Atomizer (×32) | 0.001 |
//! | Atomputer (×32) | 0.070 |
//! | Atomulator (×32) | 0.128 |
//! | Accu buffer (×32) | 0.496 |
//! | Input / weight / output buffers | 0.118 / 0.302 / 0.154 |
//! | Post-processing unit | 0.023 |
//! | Others | 0.004 |
//! | **Total** | **1.296** |
//!
//! The calibration test pins each block to within a modest tolerance of
//! those values.

use crate::config::RistrettoConfig;
use hwmodel::{ComponentLib, SramMacro, TechNode};
use serde::{Deserialize, Serialize};

/// Fixed post-processing-unit area (compression counters + Atomizer-like
/// scan logic), from Table VI.
const PPU_AREA: f64 = 0.023;
/// Miscellaneous control ("Others" in Table VI).
const OTHERS_AREA: f64 = 0.004;
/// Per-tile control overhead inside the Atomputer (dispatcher, sequencing).
const ATOMPUTER_CTRL_AREA: f64 = 2.0e-4;

/// Table VI-style area breakdown (all values mm², totals across the core).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaBreakdown {
    /// All tiles' Atomizers.
    pub atomizer: f64,
    /// All tiles' Atomputers (multipliers, shifters, accumulators, weight
    /// registers, dispatch).
    pub atomputer: f64,
    /// All tiles' Atomulators (address generators, crossbar, FIFOs).
    pub atomulator: f64,
    /// All tiles' accumulate buffers (register files + aggregation shifters).
    pub accu_buffer: f64,
    /// Input data buffer.
    pub input_buffer: f64,
    /// Weight data buffer.
    pub weight_buffer: f64,
    /// Output data buffer.
    pub output_buffer: f64,
    /// Post-processing unit.
    pub ppu: f64,
    /// Miscellaneous control.
    pub others: f64,
}

impl AreaBreakdown {
    /// Assembles the breakdown for a configuration.
    pub fn from_config(cfg: &RistrettoConfig, lib: &ComponentLib) -> Self {
        let n = cfg.multipliers as f64;
        let g = cfg.atom_bits.bits();
        // Activations are at most 8-bit; their shift options under this
        // granularity (Table IV).
        let act_shift_options = cfg.atom_bits.slots(8);
        // Product width: 2g product bits plus the maximum activation shift.
        let prod_width = (2 * g + (act_shift_options - 1) * g).min(24);
        // Per-multiplier accumulator holds one weight-atom × activation
        // partial: product width plus log2(slots) growth.
        let acc_width = (prod_width + 2).min(cfg.acc_bits);

        let per_mult = lib.multiplier_area(g)
            + lib.shifter_area(prod_width, act_shift_options)
            + lib.accumulator_area(acc_width)
            // Ping-pong weight atom registers + metadata (sign, shift, last).
            + lib.accumulator_area(16);
        let atomputer_tile = n * per_mult + ATOMPUTER_CTRL_AREA;

        let fifo_width = cfg.acc_bits + 9; // payload + bank address
        let atomulator_tile = n * lib.addr_gen_area
            + lib.crossbar_area(cfg.multipliers, cfg.acc_bits)
            + n * lib.fifo_area(cfg.fifo_depth, fifo_width);

        // Accumulate buffer: N banks × entries × acc_bits, double-buffered,
        // as a register file; plus one aggregation shifter per bank.
        let accu_bits = cfg.multipliers * cfg.accu_entries_per_bank * cfg.acc_bits as usize * 2;
        let accu_tile = SramMacro::regfile((accu_bits / 8).max(1), cfg.acc_bits as u32).area_mm2()
            + n * lib.shifter_area(cfg.acc_bits, act_shift_options);

        let tiles = cfg.tiles as f64;
        Self {
            atomizer: tiles * lib.atomizer_area,
            atomputer: tiles * atomputer_tile,
            atomulator: tiles * atomulator_tile,
            accu_buffer: tiles * accu_tile,
            input_buffer: SramMacro::new(cfg.input_buf_kb << 10, 128).area_mm2(),
            weight_buffer: SramMacro::new(cfg.weight_buf_kb << 10, 128).area_mm2(),
            output_buffer: SramMacro::new(cfg.output_buf_kb << 10, 128).area_mm2(),
            ppu: PPU_AREA,
            others: OTHERS_AREA,
        }
    }

    /// Total core area (mm²).
    pub fn total(&self) -> f64 {
        self.atomizer
            + self.atomputer
            + self.atomulator
            + self.accu_buffer
            + self.input_buffer
            + self.weight_buffer
            + self.output_buffer
            + self.ppu
            + self.others
    }

    /// Compute-unit area only (tiles, excluding the shared data buffers) —
    /// the quantity of the Fig 19a granularity ablation.
    pub fn compute_units(&self) -> f64 {
        self.atomizer + self.atomputer + self.atomulator + self.accu_buffer
    }
}

/// Peak compute-unit power (mW) at full activity — the Fig 19a metric.
/// Dynamic power of every multiplier/shifter/accumulator/address-generator
/// firing each cycle plus leakage on the compute-unit area.
pub fn compute_unit_power_mw(cfg: &RistrettoConfig, lib: &ComponentLib, tech: TechNode) -> f64 {
    let g = cfg.atom_bits.bits();
    let act_shift_options = cfg.atom_bits.slots(8);
    let prod_width = (2 * g + (act_shift_options - 1) * g).min(24);
    let acc_width = (prod_width + 2).min(cfg.acc_bits);
    let per_mult_pj = lib.multiplier_energy(g)
        + lib.shifter_energy(prod_width, act_shift_options)
        + lib.accumulator_energy(acc_width);
    let per_delivery_pj = lib.addr_gen_energy
        + lib.crossbar_energy(cfg.multipliers, cfg.acc_bits)
        + lib.fifo_energy(cfg.acc_bits)
        + lib.accumulator_energy(cfg.acc_bits);
    // At peak, every multiplier fires per cycle; deliveries occur roughly
    // once per slots(a) cycles per multiplier.
    let deliveries_per_cycle = cfg.multipliers as f64 / act_shift_options as f64;
    let dynamic_pj_per_cycle = cfg.multipliers as f64 * per_mult_pj
        + deliveries_per_cycle * per_delivery_pj
        + lib.atomizer_energy;
    let dynamic_mw = tech.power_mw(dynamic_pj_per_cycle) * cfg.tiles as f64;
    let area = AreaBreakdown::from_config(cfg, lib).compute_units();
    dynamic_mw + lib.leakage_mw_per_mm2 * area
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_breakdown() -> AreaBreakdown {
        AreaBreakdown::from_config(&RistrettoConfig::paper_default(), &ComponentLib::n28())
    }

    #[track_caller]
    fn assert_close(actual: f64, expected: f64, tol: f64, what: &str) {
        let rel = (actual - expected).abs() / expected;
        assert!(
            rel <= tol,
            "{what}: measured {actual:.4} vs Table VI {expected:.4} ({:.0}% off)",
            rel * 100.0
        );
    }

    #[test]
    fn table6_calibration() {
        let a = paper_breakdown();
        assert_close(a.atomizer, 0.001, 0.10, "atomizer");
        assert_close(a.atomputer, 0.070, 0.35, "atomputer");
        assert_close(a.atomulator, 0.128, 0.35, "atomulator");
        assert_close(a.accu_buffer, 0.496, 0.35, "accu buffer");
        assert_close(a.input_buffer, 0.118, 0.20, "input buffer");
        assert_close(a.weight_buffer, 0.302, 0.20, "weight buffer");
        assert_close(a.output_buffer, 0.154, 0.20, "output buffer");
        assert_close(a.total(), 1.296, 0.25, "total");
    }

    #[test]
    fn fig19a_granularity_area_ordering() {
        let lib = ComponentLib::n28();
        let a1 = AreaBreakdown::from_config(&RistrettoConfig::try_granularity(1).unwrap(), &lib)
            .compute_units();
        let a2 = AreaBreakdown::from_config(&RistrettoConfig::try_granularity(2).unwrap(), &lib)
            .compute_units();
        let a3 = AreaBreakdown::from_config(&RistrettoConfig::try_granularity(3).unwrap(), &lib)
            .compute_units();
        // Paper: the 1-bit variant costs ~3.34x the 2-bit one; 3-bit is cheapest.
        let r12 = a1 / a2;
        assert!((2.0..5.5).contains(&r12), "1b/2b area ratio {r12}");
        assert!(a3 < a2, "3-bit atoms should be the smallest ({a3} vs {a2})");
    }

    #[test]
    fn fig19a_granularity_power_ordering() {
        let lib = ComponentLib::n28();
        let tech = TechNode::N28;
        let p1 = compute_unit_power_mw(&RistrettoConfig::try_granularity(1).unwrap(), &lib, tech);
        let p2 = compute_unit_power_mw(&RistrettoConfig::try_granularity(2).unwrap(), &lib, tech);
        let p3 = compute_unit_power_mw(&RistrettoConfig::try_granularity(3).unwrap(), &lib, tech);
        let r12 = p1 / p2;
        assert!((2.0..5.5).contains(&r12), "1b/2b power ratio {r12}");
        assert!(p3 < p2, "3-bit power should be lowest ({p3} vs {p2})");
    }

    #[test]
    fn area_scales_with_tiles() {
        let lib = ComponentLib::n28();
        let one = AreaBreakdown::from_config(&RistrettoConfig::paper_default().with_tiles(1), &lib);
        let two = AreaBreakdown::from_config(&RistrettoConfig::paper_default().with_tiles(2), &lib);
        assert!((two.atomputer / one.atomputer - 2.0).abs() < 1e-9);
        // Shared buffers do not scale with tiles.
        assert_eq!(one.input_buffer, two.input_buffer);
    }
}
