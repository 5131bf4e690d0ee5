//! [`Backend`] implementation for the analytic Ristretto model.
//!
//! The workspace-wide [`Backend`] trait (defined next to the six baseline
//! machines in [`baselines::report`]) lets experiments sweep heterogeneous
//! machine sets as `&dyn Backend`. [`RistrettoSim`], the analytic Eq 3–5
//! model the paper's figures are built from, plugs into it here.

use crate::analytic::RistrettoSim;
use crate::area::AreaBreakdown;
use baselines::report::{Backend, BaselineLayerReport, BaselineNetworkReport};
use hwmodel::ComponentLib;
use qnn::workload::{LayerStats, NetworkStats};

impl Backend for RistrettoSim {
    fn name(&self) -> &'static str {
        if self.config().sparse {
            "Ristretto"
        } else {
            "Ristretto-ns"
        }
    }

    fn area_mm2(&self) -> f64 {
        AreaBreakdown::from_config(self.config(), &ComponentLib::n28()).total()
    }

    fn simulate_layer(&self, stats: &LayerStats) -> BaselineLayerReport {
        let r = RistrettoSim::simulate_layer(self, stats, false);
        BaselineLayerReport {
            name: r.name,
            cycles: r.cycles,
            effectual_ops: r.atom_mults,
            dram_bits: r.dram_bits,
            energy: r.energy,
        }
    }

    /// Overrides the default so the paper's first-layer rule (§IV-E: the
    /// input layer is never balanced) survives the trait boundary — the
    /// cycle totals stay byte-identical to the inherent
    /// [`RistrettoSim::simulate_network`].
    fn simulate_network(&self, net: &NetworkStats) -> BaselineNetworkReport {
        let r = RistrettoSim::simulate_network(self, net);
        BaselineNetworkReport {
            accelerator: Backend::name(self).to_string(),
            network: r.network,
            precision: r.precision,
            layers: r
                .layers
                .into_iter()
                .map(|l| BaselineLayerReport {
                    name: l.name,
                    cycles: l.cycles,
                    effectual_ops: l.atom_mults,
                    dram_bits: l.dram_bits,
                    energy: l.energy,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RistrettoConfig;
    use qnn::models::NetworkId;
    use qnn::quant::BitWidth;
    use qnn::workload::PrecisionPolicy;

    fn stats() -> NetworkStats {
        NetworkStats::generate(
            NetworkId::AlexNet,
            PrecisionPolicy::Uniform(BitWidth::W4),
            2,
            11,
        )
    }

    #[test]
    fn analytic_backend_matches_inherent_model() {
        let sim = RistrettoSim::try_new(RistrettoConfig::paper_default()).unwrap();
        let net = stats();
        let inherent = RistrettoSim::simulate_network(&sim, &net);
        let via_trait = Backend::simulate_network(&sim, &net);
        assert_eq!(via_trait.accelerator, "Ristretto");
        assert_eq!(via_trait.total_cycles(), inherent.total_cycles());
        assert_eq!(via_trait.layers.len(), inherent.layers.len());
        for (b, l) in via_trait.layers.iter().zip(&inherent.layers) {
            assert_eq!(b.cycles, l.cycles);
            assert_eq!(b.effectual_ops, l.atom_mults);
            assert_eq!(b.dram_bits, l.dram_bits);
        }
    }

    #[test]
    fn non_sparse_variant_renames_itself() {
        let ns = RistrettoSim::try_new(RistrettoConfig::paper_default().non_sparse()).unwrap();
        assert_eq!(Backend::name(&ns), "Ristretto-ns");
    }
}
