//! Analytic (Eq 3–5) layer- and network-level Ristretto model.
//!
//! Consumes the per-channel statistics of [`qnn::workload::LayerStats`] —
//! exactly the quantities the real machine knows before computation starts
//! (§IV-E) — and produces cycles, utilization and a priced energy
//! breakdown. Cross-validated against the cycle-level [`crate::tile`]
//! simulator by the integration tests.

use crate::balance::{balance, BalanceStrategy, ChannelWorkload};
use crate::config::{ConfigError, RistrettoConfig};
use crate::energy::{RistrettoEnergyModel, COO_META_BITS};
use crate::report::{LayerReport, NetworkReport};
use hwmodel::{ComponentLib, EnergyCounter, TechNode};
use qnn::workload::{LayerStats, NetworkStats};

/// A configured Ristretto simulator.
#[derive(Debug, Clone)]
pub struct RistrettoSim {
    cfg: RistrettoConfig,
    energy: RistrettoEnergyModel,
}

impl RistrettoSim {
    /// Builds a simulator with the default 28nm component library.
    ///
    /// # Errors
    /// Returns the [`ConfigError`] describing the inconsistency.
    pub fn try_new(cfg: RistrettoConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let energy = RistrettoEnergyModel::new(&cfg, &ComponentLib::n28(), TechNode::N28);
        Ok(Self { cfg, energy })
    }

    /// The configuration in use.
    pub fn config(&self) -> &RistrettoConfig {
        &self.cfg
    }

    /// Simulates one layer. `input_layer` disables load balancing, as the
    /// paper does for the network's first layer (§IV-E).
    ///
    /// # Panics
    /// Panics if `stats` were generated at a different atom granularity
    /// than the configuration computes at.
    pub fn simulate_layer(&self, stats: &LayerStats, input_layer: bool) -> LayerReport {
        assert_eq!(
            stats.atom_bits,
            self.cfg.atom_bits.bits(),
            "LayerStats atom granularity must match the configuration"
        );
        let layer = &stats.layer;
        let n = self.cfg.multipliers as u64;
        let slots_a = self.cfg.atom_bits.slots(stats.a_bits.bits()) as u64;
        let slots_w = self.cfg.atom_bits.slots(stats.w_bits.bits()) as u64;
        let acts_per_ch = (layer.in_h * layer.in_w) as u64;
        let weights_per_ch = (layer.out_channels * layer.kernel * layer.kernel) as u64;

        // Stride-s layers are mapped as s² stride-1 phase sub-convolutions
        // (the standard decomposition: the input splits into s² interleaved
        // submaps, each convolved with its kernel phase). Each channel's
        // static stream splits into `phases` disjoint pieces, so the
        // effective weight-stream length per activation pass shrinks by s².
        // The *functional* CSC model instead implements the paper's §IV-C3
        // compromise (stride-1 coordinates, ineffectual outputs discarded);
        // see DESIGN.md.
        let phases = (layer.stride * layer.stride) as u64;

        // Per-channel workloads: measured non-zero atoms when sparse,
        // dense atom counts for the Ristretto-ns variant.
        // Output channels process in groups of N (one accumulate-buffer
        // bank per channel, §IV-C4), so a channel's static stream splits
        // into `out_groups` sub-streams and each pays its own ⌈·/N⌉
        // rounding — short per-group streams idle multipliers. Modelled by
        // rounding the scheduled stream length up to a multiple of
        // `out_groups · N`.
        let out_groups = (layer.out_channels as u64).div_ceil(n);
        let round_to_groups = |s: u64| -> u64 {
            if s == 0 {
                0
            } else {
                out_groups * n * s.div_ceil(out_groups * n)
            }
        };
        // `real_s[i]`: actual non-zero weight atoms per activation pass
        // (drives multiplication/delivery counts); the scheduled stream
        // length additionally carries the group rounding.
        let mut real_s = Vec::with_capacity(layer.in_channels);
        let workloads: Vec<ChannelWorkload> = (0..layer.in_channels)
            .map(|i| {
                let (t, s) = if self.cfg.sparse {
                    (
                        stats.act_atoms_per_channel[i],
                        stats.weight_atoms_per_channel[i],
                    )
                } else {
                    (acts_per_ch * slots_a, weights_per_ch * slots_w)
                };
                let s_phase = s.div_ceil(phases);
                real_s.push(s_phase);
                ChannelWorkload {
                    channel: i,
                    act_atoms: t,
                    weight_atoms: round_to_groups(s_phase),
                }
            })
            .collect();

        // Layers with fewer input channels than tiles (e.g. the 3-channel
        // stem) split each channel's feature-map tiles *spatially* across
        // several compute tiles — the kernels are shared, so only the
        // activation stream divides. This keeps the array busy without any
        // statistics-driven balancing. The split view feeds scheduling only;
        // event counts use the unsplit workloads.
        let balance_view: Vec<ChannelWorkload> = if workloads.len() < self.cfg.tiles {
            let shares = (self.cfg.tiles / workloads.len().max(1)).max(1);
            workloads
                .iter()
                .flat_map(|w| {
                    (0..shares).map(move |s| ChannelWorkload {
                        channel: w.channel * shares + s,
                        act_atoms: w.act_atoms / shares as u64,
                        weight_atoms: w.weight_atoms,
                    })
                })
                .collect()
        } else {
            workloads.clone()
        };

        let strategy = if input_layer {
            BalanceStrategy::None
        } else {
            self.cfg.balancing
        };
        let assignment = balance(&balance_view, self.cfg.tiles, n, strategy);
        let cycles = assignment.makespan();
        let utilization = assignment.utilization();

        // Event counts.
        let values_per_ch = |i: usize| -> u64 {
            if self.cfg.sparse {
                stats.act_values_per_channel[i]
            } else {
                acts_per_ch
            }
        };
        let mut atom_mults = 0u64;
        let mut deliveries = 0u64;
        let mut atomizer_cycles = 0u64;
        let mut input_bits = 0u64;
        let mut weight_bits = 0u64;
        let n_tiles =
            (layer.in_h.div_ceil(self.cfg.tile_h) * layer.in_w.div_ceil(self.cfg.tile_w)) as u64;
        let a_bits = stats.a_bits.bits() as u64;
        let g = self.cfg.atom_bits.bits() as u64;
        for w in &workloads {
            let s = real_s[w.channel];
            let passes = w.weight_atoms.div_ceil(n).max(1);
            atom_mults += w.act_atoms * s;
            deliveries += values_per_ch(w.channel) * s;
            atomizer_cycles += w.act_atoms * passes;
            input_bits += values_per_ch(w.channel) * (a_bits + COO_META_BITS) * passes;
            // Static weights re-stream once per feature-map tile.
            weight_bits += s * (g + 6) * n_tiles;
        }

        let out_values = layer.output_count() as u64;
        let aggregations = out_values * slots_w;
        // Output sparsity proxy: the activation density of this layer.
        let out_nnz = (out_values as f64 * stats.activation.value_density) as u64;
        let output_bits = out_nnz * (a_bits + COO_META_BITS);

        // Off-chip format is the per-value block COO-2D of Fig 8 (value +
        // in-tile coordinate); the per-atom shift/last metadata is derived
        // on chip. Re-fetch follows the loop-tiling model — compression
        // shrinking tensors below the buffer capacities removes re-fetch
        // entirely, which is where the Fig 13/16 energy gap comes from.
        let w_bits_val = stats.w_bits.bits() as u64;
        let (fmap_dram, weight_dram) = if self.cfg.sparse {
            (
                stats.activation.nonzero_values as u64 * (a_bits + COO_META_BITS),
                stats.weight.nonzero_values as u64
                    * (w_bits_val + crate::energy::kernel_meta_bits(layer.kernel)),
            )
        } else {
            (
                stats.activation.len as u64 * a_bits,
                stats.weight.len as u64 * w_bits_val,
            )
        };
        let (act_fetch_bits, weight_dram_bits) = hwmodel::dram::tiled_traffic_split(
            fmap_dram,
            weight_dram,
            (self.cfg.input_buf_kb as u64) << 13,
            (self.cfg.weight_buf_kb as u64) << 13,
        );
        // Output writeback is activation traffic too.
        let act_dram_bits = act_fetch_bits
            + if self.cfg.sparse {
                output_bits
            } else {
                out_values * a_bits
            };
        let dram_bits = act_dram_bits + weight_dram_bits;
        let buffer_bits = input_bits + weight_bits + output_bits;

        let mut counter = EnergyCounter::new();
        self.energy.price_layer(
            &mut counter,
            atom_mults,
            deliveries,
            aggregations,
            atomizer_cycles,
            input_bits,
            weight_bits,
            output_bits,
            dram_bits,
            cycles,
        );

        obs::record(obs::Event::AnalyticLayers, 1);
        obs::record(obs::Event::AnalyticCycles, cycles);
        obs::record(obs::Event::AnalyticAtomMults, atom_mults);
        obs::record(obs::Event::AnalyticDeliveries, deliveries);
        obs::record(obs::Event::AnalyticDramBits, dram_bits);
        obs::record(obs::Event::AnalyticBufferBits, buffer_bits);

        LayerReport {
            name: layer.name.clone(),
            cycles,
            utilization,
            atom_mults,
            deliveries,
            dram_bits,
            act_dram_bits,
            weight_dram_bits,
            buffer_bits,
            energy: counter.breakdown(),
        }
    }

    /// Simulates a whole network (layers sequentially; the first layer is
    /// never balanced).
    pub fn simulate_network(&self, net: &NetworkStats) -> NetworkReport {
        let layers = (0..net.layers.len())
            .map(|i| self.simulate_layer(&net.layers[i], i == 0))
            .collect();
        NetworkReport {
            network: net.id.name().to_string(),
            precision: net.policy.label(),
            layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnn::layers::ConvLayer;
    use qnn::models::NetworkId;
    use qnn::quant::BitWidth;
    use qnn::rng::SeededRng;
    use qnn::workload::{ActivationProfile, PrecisionPolicy, WeightProfile};

    fn simulate_layer(cfg: &RistrettoConfig, stats: &LayerStats, input_layer: bool) -> LayerReport {
        RistrettoSim::try_new(*cfg)
            .unwrap()
            .simulate_layer(stats, input_layer)
    }

    fn simulate_network(cfg: &RistrettoConfig, net: &NetworkStats) -> NetworkReport {
        RistrettoSim::try_new(*cfg).unwrap().simulate_network(net)
    }

    fn small_stats(bits: BitWidth) -> LayerStats {
        let layer = ConvLayer::conv("t", 8, 16, 3, 1, 1, 16, 16).unwrap();
        let mut rng = SeededRng::new(42);
        LayerStats::generate(
            &layer,
            &WeightProfile::benchmark(bits),
            &ActivationProfile::new(bits),
            2,
            &mut rng,
        )
    }

    #[test]
    fn sparse_beats_non_sparse() {
        let stats = small_stats(BitWidth::W8);
        let sparse = simulate_layer(&RistrettoConfig::paper_default(), &stats, false);
        let dense = simulate_layer(
            &RistrettoConfig::paper_default().non_sparse(),
            &stats,
            false,
        );
        assert!(
            sparse.cycles < dense.cycles,
            "{} vs {}",
            sparse.cycles,
            dense.cycles
        );
        assert!(sparse.energy.total_pj() < dense.energy.total_pj());
        assert!(sparse.atom_mults < dense.atom_mults);
    }

    #[test]
    fn lower_precision_is_faster() {
        let c = RistrettoConfig::paper_default();
        let c8 = simulate_layer(&c, &small_stats(BitWidth::W8), false).cycles;
        let c4 = simulate_layer(&c, &small_stats(BitWidth::W4), false).cycles;
        let c2 = simulate_layer(&c, &small_stats(BitWidth::W2), false).cycles;
        assert!(c8 > c4, "8b {c8} vs 4b {c4}");
        assert!(c4 > c2, "4b {c4} vs 2b {c2}");
    }

    #[test]
    fn balancing_improves_or_matches_makespan() {
        let stats = small_stats(BitWidth::W4);
        let base = RistrettoConfig::paper_default();
        let balanced = simulate_layer(&base, &stats, false);
        let unbalanced = simulate_layer(&base.with_balancing(BalanceStrategy::None), &stats, false);
        assert!(balanced.cycles <= unbalanced.cycles);
        assert!(balanced.utilization >= unbalanced.utilization - 1e-12);
    }

    #[test]
    fn input_layer_is_never_balanced() {
        let stats = small_stats(BitWidth::W4);
        let cfg = RistrettoConfig::paper_default();
        let as_input = simulate_layer(&cfg, &stats, true);
        let no_balance = simulate_layer(&cfg.with_balancing(BalanceStrategy::None), &stats, false);
        assert_eq!(as_input.cycles, no_balance.cycles);
    }

    #[test]
    fn network_simulation_produces_all_layers() {
        let net = NetworkStats::generate(
            NetworkId::AlexNet,
            PrecisionPolicy::Uniform(BitWidth::W4),
            2,
            1,
        );
        let report = simulate_network(&RistrettoConfig::paper_default(), &net);
        assert_eq!(report.layers.len(), net.layers.len());
        assert!(report.total_cycles() > 0);
        assert!(report.total_energy().total_pj() > 0.0);
        // AlexNet's conv1 has only 3 input channels (unbalanced input
        // layer), so mean utilization is dominated by it; mid layers
        // should balance well.
        assert!(report.mean_utilization() > 0.05);
        let conv3 = report.layers.iter().find(|l| l.name == "conv3").unwrap();
        assert!(
            conv3.utilization > 0.5,
            "conv3 utilization {}",
            conv3.utilization
        );
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn granularity_mismatch_is_rejected() {
        let stats = small_stats(BitWidth::W4); // generated at 2-bit atoms
        let _ = simulate_layer(&RistrettoConfig::try_granularity(3).unwrap(), &stats, false);
    }

    #[test]
    fn dram_split_sums_and_activations_dominate_broadcast_share() {
        for cfg in [
            RistrettoConfig::paper_default(),
            RistrettoConfig::paper_default().non_sparse(),
        ] {
            let r = simulate_layer(&cfg, &small_stats(BitWidth::W8), false);
            assert_eq!(r.act_dram_bits + r.weight_dram_bits, r.dram_bits);
            assert!(r.act_dram_bits > 0 && r.weight_dram_bits > 0);
        }
    }

    #[test]
    fn more_multipliers_reduce_cycles() {
        let stats = small_stats(BitWidth::W8);
        let wide = simulate_layer(&RistrettoConfig::paper_default(), &stats, false);
        let narrow = simulate_layer(&RistrettoConfig::half_width(), &stats, false);
        assert!(wide.cycles <= narrow.cycles);
    }
}
