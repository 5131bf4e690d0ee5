//! Shared report types and the workspace-wide backend interface.

use hwmodel::EnergyBreakdown;
use qnn::workload::{LayerStats, NetworkStats};
use serde::{Deserialize, Serialize};

/// Result of simulating one layer on a baseline accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineLayerReport {
    /// Layer name.
    pub name: String,
    /// Inference cycles.
    pub cycles: u64,
    /// Effectual scalar multiplications (or term-pair operations for
    /// bit-serial machines) performed.
    pub effectual_ops: u64,
    /// Off-chip traffic in bits.
    pub dram_bits: u64,
    /// Priced energy breakdown.
    pub energy: EnergyBreakdown,
}

/// Result of simulating a network on a baseline accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineNetworkReport {
    /// Accelerator name.
    pub accelerator: String,
    /// Network name.
    pub network: String,
    /// Precision label.
    pub precision: String,
    /// Per-layer reports.
    pub layers: Vec<BaselineLayerReport>,
}

impl BaselineNetworkReport {
    /// Total cycles across layers.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Total energy across layers.
    pub fn total_energy(&self) -> EnergyBreakdown {
        self.layers
            .iter()
            .fold(EnergyBreakdown::default(), |acc, l| acc + l.energy)
    }
}

/// Workspace-wide simulation backend interface.
///
/// Every machine that can price a layer from its statistics — the six
/// baseline accelerators as well as the analytic Ristretto model — exposes
/// this interface, so experiments and examples can sweep heterogeneous
/// machine sets as `&dyn Backend`.
pub trait Backend: Sync {
    /// Human-readable backend name.
    fn name(&self) -> &'static str;

    /// Total accelerator area in mm² (used for area normalization).
    fn area_mm2(&self) -> f64;

    /// Simulates one layer from its statistics.
    fn simulate_layer(&self, stats: &LayerStats) -> BaselineLayerReport;

    /// Simulates a whole network, one layer after another on the calling
    /// thread. Callers that want parallelism fan out over networks or
    /// backends, as the `bench` harness does.
    fn simulate_network(&self, net: &NetworkStats) -> BaselineNetworkReport {
        BaselineNetworkReport {
            accelerator: self.name().to_string(),
            network: net.id.name().to_string(),
            precision: net.policy.label(),
            layers: net.layers.iter().map(|l| self.simulate_layer(l)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_report_totals() {
        let mk = |cycles, pj| BaselineLayerReport {
            name: "l".into(),
            cycles,
            effectual_ops: 1,
            dram_bits: 0,
            energy: EnergyBreakdown {
                compute_pj: pj,
                ..Default::default()
            },
        };
        let r = BaselineNetworkReport {
            accelerator: "a".into(),
            network: "n".into(),
            precision: "8b".into(),
            layers: vec![mk(5, 1.0), mk(7, 2.0)],
        };
        assert_eq!(r.total_cycles(), 12);
        assert!((r.total_energy().compute_pj - 3.0).abs() < 1e-12);
    }
}
