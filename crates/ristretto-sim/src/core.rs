//! Multi-tile core: cycle-level execution of one layer across all compute
//! tiles.
//!
//! Distributes input channels to tiles with the configured balancer (the
//! §IV-E flow: statistics → groups → per-tile streams), runs every tile's
//! cycle-level simulation, and reports the makespan. Cross-validates the
//! analytic Eq 5 model on real (materialized) layers — the integration
//! tests assert the two agree within the ε/stall terms the closed form
//! drops.

use crate::balance::{balance, ChannelWorkload};
use crate::config::{ConfigError, RistrettoConfig};
use crate::fault::{FaultDetected, FaultInjector, FaultSite, FaultStats, FaultStructure};
use crate::tile::{TileReport, TileSim};
use atomstream::compress::compress_activations;
use atomstream::conv_csc::WeightStreamSet;
use atomstream::error::AtomError;
use atomstream::flatten::flatten_tile;
use atomstream::stream::{ActivationStream, WeightStream};
use qnn::error::QnnError;
use qnn::tensor::{Tensor3, Tensor4};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error from a cycle-level core run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Stream construction or geometry error.
    Atom(AtomError),
    /// A fault escaped the retry budget with recovery disabled.
    Fault(FaultDetected),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Atom(e) => e.fmt(f),
            CoreError::Fault(e) => e.fmt(f),
        }
    }
}

impl Error for CoreError {}

impl From<AtomError> for CoreError {
    fn from(e: AtomError) -> Self {
        CoreError::Atom(e)
    }
}

impl From<FaultDetected> for CoreError {
    fn from(e: FaultDetected) -> Self {
        CoreError::Fault(e)
    }
}

/// Result of a cycle-level core run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreReport {
    /// Layer latency: the slowest tile.
    pub makespan: u64,
    /// Per-tile cycle counts.
    pub tile_cycles: Vec<u64>,
    /// Per-tile reports (stalls, multiplications, deliveries).
    pub tiles: Vec<TileReport>,
    /// Channel groups the balancer produced.
    pub groups: Vec<Vec<usize>>,
}

impl CoreReport {
    /// Total effectual atom multiplications across tiles.
    pub fn atom_mults(&self) -> u64 {
        self.tiles.iter().map(|t| t.atom_mults).sum()
    }

    /// Total stall cycles (FIFO backpressure) across tiles.
    pub fn stall_cycles(&self) -> u64 {
        self.tiles.iter().map(|t| t.stall_cycles).sum()
    }

    /// Total crossbar bank collisions across tiles.
    pub fn crossbar_conflicts(&self) -> u64 {
        self.tiles.iter().map(|t| t.crossbar_conflicts).sum()
    }

    /// Compute utilization: mean tile work over makespan.
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 || self.tile_cycles.is_empty() {
            return 1.0;
        }
        self.tile_cycles.iter().sum::<u64>() as f64
            / (self.makespan as f64 * self.tile_cycles.len() as f64)
    }
}

/// A cycle-level multi-tile core simulator.
#[derive(Debug, Clone)]
pub struct CoreSim {
    cfg: RistrettoConfig,
    tile: TileSim,
}

impl CoreSim {
    /// Builds a core simulator, rejecting inconsistent configurations.
    ///
    /// ```
    /// use ristretto_sim::config::{ConfigError, RistrettoConfig};
    /// use ristretto_sim::core::CoreSim;
    ///
    /// assert!(CoreSim::try_new(RistrettoConfig::paper_default()).is_ok());
    /// assert_eq!(
    ///     CoreSim::try_new(RistrettoConfig::paper_default().with_tiles(0)).unwrap_err(),
    ///     ConfigError::ZeroTiles
    /// );
    /// ```
    ///
    /// # Errors
    /// Returns the [`ConfigError`] describing the inconsistency.
    pub fn try_new(cfg: RistrettoConfig) -> Result<Self, ConfigError> {
        Ok(Self {
            tile: TileSim::try_new(&cfg)?,
            cfg,
        })
    }

    /// Builds the per-tile activation streams of every input channel (the
    /// Atomizer's per-input work).
    ///
    /// # Errors
    /// Propagates atomization errors.
    fn activation_streams(
        &self,
        fmap: &Tensor3,
        a_bits: u8,
    ) -> Result<Vec<Vec<ActivationStream>>, AtomError> {
        let (c, h, w) = fmap.shape();
        (0..c)
            .map(|ci| {
                let mut tiles = Vec::new();
                for y0 in (0..h).step_by(self.cfg.tile_h) {
                    for x0 in (0..w).step_by(self.cfg.tile_w) {
                        let af = flatten_tile(fmap, ci, y0, x0, self.cfg.tile_h, self.cfg.tile_w);
                        if af.is_empty() {
                            continue;
                        }
                        tiles.push(compress_activations(&af, a_bits, self.cfg.atom_bits)?);
                    }
                }
                Ok(tiles)
            })
            .collect()
    }

    /// Runs one layer cycle-level across all tiles.
    ///
    /// Compiles the static weight side inline; equivalent to
    /// [`WeightStreamSet::compile`] followed by a fault-free
    /// [`CoreSim::run_layer_streams`], which amortizes that work across
    /// inputs.
    ///
    /// # Errors
    /// Propagates atomization errors from stream construction as
    /// [`CoreError::Atom`].
    pub fn run_layer(
        &self,
        fmap: &Tensor3,
        kernels: &Tensor4,
        a_bits: u8,
        w_bits: u8,
    ) -> Result<CoreReport, CoreError> {
        let w_bits = qnn::quant::BitWidth::new(w_bits).map_err(AtomError::from)?;
        let weights = WeightStreamSet::compile(kernels, w_bits, self.cfg.atom_bits)?;
        Ok(self.run_layer_streams(&weights, fmap, a_bits, None)?.0)
    }

    /// Runs one layer cycle-level against precompiled weight streams (the
    /// run phase of the compile/run split).
    ///
    /// Balancing happens here, not at compile time: the §IV-E balancer
    /// weighs *measured* per-input activation atom counts against the
    /// static weight atom counts, so groups legitimately differ per input.
    ///
    /// `faults` is `Some((injector, layer))` under a fault campaign, where
    /// `layer` is the global layer index of the injection sites. Atomulator
    /// FIFO faults are then injected per the campaign, the
    /// enqueue-accounting digests and the Eq 3 lower bound act as online
    /// monitors, and detected tiles re-execute within the retry budget
    /// (faults re-roll per attempt). Exhausting the budget falls back to a
    /// clean re-run when recovery is on, and raises [`CoreError::Fault`]
    /// otherwise. With `None`, every tile runs [`TileSim::run`] once and
    /// the returned [`FaultStats`] are all zero.
    ///
    /// Byte-deterministic for a given campaign seed: every injection
    /// decision is a pure hash of its site, and groups run in group order.
    ///
    /// # Errors
    /// Propagates atomization errors, a channel-count mismatch between the
    /// feature map and the compiled streams, and a granularity mismatch
    /// against the core configuration; an uncontained fault surfaces as
    /// [`CoreError::Fault`] when recovery is disabled.
    pub fn run_layer_streams(
        &self,
        weights: &WeightStreamSet,
        fmap: &Tensor3,
        a_bits: u8,
        faults: Option<(&FaultInjector, usize)>,
    ) -> Result<(CoreReport, FaultStats), CoreError> {
        let _span = obs::span("core.run_layer");
        let (c, _, _) = fmap.shape();
        if c != weights.in_channels() {
            return Err(CoreError::Atom(
                QnnError::ChannelMismatch {
                    fmap: c,
                    kernel: weights.in_channels(),
                }
                .into(),
            ));
        }
        if weights.atom_bits() != self.cfg.atom_bits {
            return Err(CoreError::Atom(AtomError::GranularityMismatch {
                compiled: weights.atom_bits().bits(),
                requested: self.cfg.atom_bits.bits(),
            }));
        }
        let act_streams = self.activation_streams(fmap, a_bits)?;
        // Balance on the measured per-channel statistics, as the hardware
        // would (§IV-E).
        let workloads: Vec<ChannelWorkload> = act_streams
            .iter()
            .enumerate()
            .map(|(i, tiles)| ChannelWorkload {
                channel: i,
                act_atoms: tiles.iter().map(|t| t.len() as u64).sum(),
                weight_atoms: weights.atoms(i),
            })
            .collect();
        let assignment = balance(
            &workloads,
            self.cfg.tiles,
            self.cfg.multipliers as u64,
            self.cfg.balancing,
        );

        let tile_sim = &self.tile;
        // One simulated tile per group, in group order.
        let mut stats = FaultStats::default();
        let tiles: Vec<TileReport> = assignment
            .groups
            .iter()
            .map(|group| {
                let mut agg = TileReport::default();
                for &ci in group {
                    // Always-on weight-path integrity monitor: the compiled
                    // checksum register must match the stream about to enter
                    // the Atomputer.
                    weights.verify_channel(ci)?;
                    let ws = weights.stream(ci);
                    for (tidx, acts) in act_streams[ci].iter().enumerate() {
                        let r = match faults {
                            None => {
                                let r = tile_sim.run(ws, acts);
                                debug_assert!(
                                    r.ideal_cycles()
                                        >= tile_sim.ideal(acts.len() as u64, ws.len() as u64),
                                    "Eq 3 lower bound violated: a tile cannot beat its ideal step count"
                                );
                                r
                            }
                            Some((injector, layer)) => {
                                let site = FaultSite {
                                    layer,
                                    channel: ci,
                                    tile: tidx,
                                    attempt: 0,
                                    item: 0,
                                };
                                run_tile_with_retries(
                                    tile_sim, ws, acts, injector, site, &mut stats,
                                )?
                            }
                        };
                        agg.cycles += r.cycles;
                        agg.stall_cycles += r.stall_cycles;
                        agg.atom_mults += r.atom_mults;
                        agg.deliveries += r.deliveries;
                        agg.crossbar_conflicts += r.crossbar_conflicts;
                        agg.max_queue = agg.max_queue.max(r.max_queue);
                    }
                }
                Ok(agg)
            })
            .collect::<Result<_, CoreError>>()?;
        let tile_cycles: Vec<u64> = tiles.iter().map(|t| t.cycles).collect();
        Ok((
            CoreReport {
                makespan: tile_cycles.iter().copied().max().unwrap_or(0),
                tile_cycles,
                tiles,
                groups: assignment.groups,
            },
            stats,
        ))
    }

    /// The configuration this core was built with.
    pub fn config(&self) -> &RistrettoConfig {
        &self.cfg
    }
}

/// Runs one tile under a fault campaign, re-executing it within the
/// retry budget while a FIFO monitor fires.
///
/// # Errors
/// Returns [`CoreError::Fault`] when the budget runs out with recovery
/// disabled.
fn run_tile_with_retries(
    tile_sim: &TileSim,
    ws: &WeightStream,
    acts: &ActivationStream,
    injector: &FaultInjector,
    mut site: FaultSite,
    stats: &mut FaultStats,
) -> Result<TileReport, CoreError> {
    let ideal = tile_sim.ideal(acts.len() as u64, ws.len() as u64);
    loop {
        let (r, check) = tile_sim.run_faulty(ws, acts, injector, site);
        stats.record_injected(FaultStructure::Fifo, check.injected);
        // Two FIFO monitors: the enqueue-accounting digests, and the Eq 3
        // lower bound (a dropped delivery can only shorten the run).
        let detected = injector.detect() && (check.detected() || r.ideal_cycles() < ideal);
        if !detected {
            if site.attempt > 0 {
                stats.record_recovered_tile();
            }
            return Ok(r);
        }
        stats.record_detected(FaultStructure::Fifo, check.injected);
        stats.record_wasted(r.atom_mults, r.deliveries);
        if site.attempt >= injector.max_attempts() {
            if injector.recover() {
                // Budget exhausted: tile-level clean re-execution (the dense
                // fallback of the functional path has no cycle analogue).
                stats.record_recovered_tile();
                return Ok(tile_sim.run(ws, acts));
            }
            return Err(CoreError::Fault(FaultDetected {
                structure: FaultStructure::Fifo,
                layer: site.layer,
                channel: site.channel,
                tile: site.tile,
                attempts: site.attempt + 1,
            }));
        }
        stats.record_retry();
        site.attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::BalanceStrategy;
    use qnn::quant::BitWidth;
    use qnn::workload::{ActivationProfile, SyntheticLayer, WeightProfile, WorkloadGen};

    fn materialized(seed: u64) -> SyntheticLayer {
        let layer = qnn::layers::ConvLayer::conv("core", 12, 8, 3, 1, 1, 12, 12).unwrap();
        let mut gen = WorkloadGen::new(seed);
        SyntheticLayer::try_generate(
            &layer,
            &WeightProfile::benchmark(BitWidth::W4),
            &ActivationProfile::new(BitWidth::W8),
            &mut gen,
        )
        .unwrap()
    }

    fn small_cfg(strategy: BalanceStrategy) -> RistrettoConfig {
        RistrettoConfig {
            tiles: 4,
            multipliers: 8,
            tile_h: 6,
            tile_w: 6,
            balancing: strategy,
            ..RistrettoConfig::paper_default()
        }
    }

    #[test]
    fn core_counters_match_functional_csc() {
        let s = materialized(5);
        let core = CoreSim::try_new(small_cfg(BalanceStrategy::WeightActivation)).unwrap();
        let report = core.run_layer(&s.fmap, &s.kernels, 8, 4).unwrap();
        let cfg = atomstream::conv_csc::CscConfig {
            multipliers: 8,
            tile_h: 6,
            tile_w: 6,
            ..atomstream::conv_csc::CscConfig::default()
        };
        let csc = atomstream::conv_csc::conv2d_csc(
            &s.fmap,
            &s.kernels,
            s.layer.geometry(),
            BitWidth::W8,
            BitWidth::W4,
            &cfg,
        )
        .unwrap();
        assert_eq!(report.atom_mults(), csc.stats.intersect.atom_mults);
    }

    #[test]
    fn balanced_core_beats_or_matches_cyclic() {
        let s = materialized(9);
        let wa = CoreSim::try_new(small_cfg(BalanceStrategy::WeightActivation))
            .unwrap()
            .run_layer(&s.fmap, &s.kernels, 8, 4)
            .unwrap();
        let none = CoreSim::try_new(small_cfg(BalanceStrategy::None))
            .unwrap()
            .run_layer(&s.fmap, &s.kernels, 8, 4)
            .unwrap();
        assert!(
            wa.makespan <= none.makespan,
            "{} vs {}",
            wa.makespan,
            none.makespan
        );
        assert!(wa.utilization() >= 0.5);
        assert_eq!(wa.atom_mults(), none.atom_mults());
    }

    #[test]
    fn faulty_run_with_recovery_matches_clean_report() {
        use crate::fault::{FaultConfig, FaultInjector, FaultStructure};
        let s = materialized(21);
        let core = CoreSim::try_new(small_cfg(BalanceStrategy::WeightActivation)).unwrap();
        let weights = WeightStreamSet::compile(
            &s.kernels,
            qnn::quant::BitWidth::W4,
            core.config().atom_bits,
        )
        .unwrap();
        let (clean, _) = core.run_layer_streams(&weights, &s.fmap, 8, None).unwrap();
        let cfg_f = FaultConfig::quiescent(3).with_rate(FaultStructure::Fifo, 5_000);
        let injector = FaultInjector::new(cfg_f);
        let (faulty, stats) = core
            .run_layer_streams(&weights, &s.fmap, 8, Some((&injector, 0)))
            .unwrap();
        assert!(stats.injected(FaultStructure::Fifo) > 0);
        assert_eq!(
            stats.detected(FaultStructure::Fifo),
            stats.injected(FaultStructure::Fifo),
            "every FIFO drop/duplicate must trip the enqueue digests"
        );
        assert!(stats.recovered_tiles > 0);
        // Recovery restores the clean cycle-level report exactly.
        assert_eq!(faulty, clean);
        // Determinism across repeated runs.
        let (again, stats2) = core
            .run_layer_streams(&weights, &s.fmap, 8, Some((&injector, 0)))
            .unwrap();
        assert_eq!(faulty, again);
        assert_eq!(stats, stats2);
    }

    #[test]
    fn unrecovered_fault_is_a_typed_error() {
        use crate::fault::{FaultConfig, FaultInjector, FaultStructure};
        let s = materialized(23);
        let core = CoreSim::try_new(small_cfg(BalanceStrategy::WeightActivation)).unwrap();
        let weights = WeightStreamSet::compile(
            &s.kernels,
            qnn::quant::BitWidth::W4,
            core.config().atom_bits,
        )
        .unwrap();
        let cfg_f = FaultConfig::quiescent(5)
            .with_rate(FaultStructure::Fifo, 50_000)
            .with_recover(false);
        let injector = FaultInjector::new(cfg_f);
        let err = core
            .run_layer_streams(&weights, &s.fmap, 8, Some((&injector, 4)))
            .unwrap_err();
        match err {
            CoreError::Fault(f) => {
                assert_eq!(f.structure, FaultStructure::Fifo);
                assert_eq!(f.layer, 4);
                assert_eq!(f.attempts, 1);
            }
            other => panic!("expected a fault error, got {other}"),
        }
    }

    #[test]
    fn quiescent_faulty_run_matches_clean_run() {
        use crate::fault::{FaultConfig, FaultInjector};
        let s = materialized(25);
        let core = CoreSim::try_new(small_cfg(BalanceStrategy::WeightActivation)).unwrap();
        let weights = WeightStreamSet::compile(
            &s.kernels,
            qnn::quant::BitWidth::W4,
            core.config().atom_bits,
        )
        .unwrap();
        let (clean, _) = core.run_layer_streams(&weights, &s.fmap, 8, None).unwrap();
        let injector = FaultInjector::new(FaultConfig::quiescent(1));
        let (faulty, stats) = core
            .run_layer_streams(&weights, &s.fmap, 8, Some((&injector, 0)))
            .unwrap();
        assert_eq!(faulty, clean);
        assert_eq!(stats, crate::fault::FaultStats::default());
    }

    #[test]
    fn groups_partition_all_channels() {
        let s = materialized(11);
        let core = CoreSim::try_new(small_cfg(BalanceStrategy::WeightActivation)).unwrap();
        let report = core.run_layer(&s.fmap, &s.kernels, 8, 4).unwrap();
        let mut all: Vec<usize> = report.groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<_>>());
        assert_eq!(report.tile_cycles.len(), 4);
    }
}
