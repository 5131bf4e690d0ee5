//! Compile-once/run-many inference engine.
//!
//! Ristretto's weight side is *static*: the CSC flow intersects a static
//! weight atom stream with a sliding activation stream (§III, Fig 5), so
//! everything derived from the trained network — flattened kernels,
//! compressed + shuffled weight atom streams, per-channel weight atom
//! statistics, the weight-only balancer grouping and the weight-buffer
//! layout — can be produced once and shared. [`compile`] builds those
//! artifacts into a [`CompiledNetwork`] held behind an [`Arc`];
//! [`Session`]s then perform only per-input work (activation tiling and
//! compression, stream intersection, PPU, pooling), amortizing the compile
//! cost across a batch.

use crate::config::{ConfigError, RistrettoConfig};
use crate::core::{CoreError, CoreReport, CoreSim};
use crate::fault::{
    plane_digest, FaultConfig, FaultDetected, FaultInjector, FaultSite, FaultStats, FaultStructure,
};
use crate::pipeline::{LayerTrace, PipelineLayer};
use crate::ppu::{PostProcessor, PpuOutput};
use crate::weightbuf::WeightBufferImage;
use atomstream::compress::compress_activations;
use atomstream::conv_csc::{conv2d_csc_streams_with, CscConfig, CscStats, WeightStreamSet};
use atomstream::error::AtomError;
use atomstream::flatten::flatten_tile;
use atomstream::intersect::{
    act_value_sum, intersect, weight_term_sum, FullConvAcc, IntersectConfig,
};
use atomstream::kernel::CscScratch;
use atomstream::stream::{ActivationStream, WeightStream};
use qnn::conv::{conv2d, ConvGeometry};
use qnn::error::QnnError;
use qnn::mini::MiniNetwork;
use qnn::pool::{pool2d, PoolKind};
use qnn::quant::BitWidth;
use qnn::tensor::{AccTensor3, Tensor3, Tensor4};
use qnn::workload::{WeightProfile, WorkloadGen};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Errors from the compile/run engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The architecture configuration is inconsistent.
    Config(ConfigError),
    /// Stream construction or geometry failed.
    Atom(AtomError),
    /// A fault escaped its tile's retry budget with recovery disabled.
    Fault(FaultDetected),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Config(e) => write!(f, "configuration error: {e}"),
            EngineError::Atom(e) => write!(f, "stream error: {e}"),
            EngineError::Fault(e) => e.fmt(f),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Config(e) => Some(e),
            EngineError::Atom(e) => Some(e),
            EngineError::Fault(e) => Some(e),
        }
    }
}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

impl From<AtomError> for EngineError {
    fn from(e: AtomError) -> Self {
        EngineError::Atom(e)
    }
}

impl From<QnnError> for EngineError {
    fn from(e: QnnError) -> Self {
        EngineError::Atom(AtomError::Qnn(e))
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::Atom(a) => EngineError::Atom(a),
            CoreError::Fault(f) => EngineError::Fault(f),
        }
    }
}

impl From<FaultDetected> for EngineError {
    fn from(e: FaultDetected) -> Self {
        EngineError::Fault(e)
    }
}

/// A trained network as the engine sees it: named layer plan plus the
/// declared input shape.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// Network name for reporting.
    pub name: String,
    /// Input shape `(channels, height, width)`.
    pub input: (usize, usize, usize),
    /// The layer plan in execution order.
    pub layers: Vec<PipelineLayer>,
}

impl NetworkModel {
    /// Builds a model from an explicit layer plan.
    pub fn new(
        name: impl Into<String>,
        input: (usize, usize, usize),
        layers: Vec<PipelineLayer>,
    ) -> Self {
        Self {
            name: name.into(),
            input,
            layers,
        }
    }

    /// Builds a model from a miniature benchmark network, materializing
    /// 4-bit benchmark-sparsity weights with the given generator.
    ///
    /// # Errors
    /// Propagates geometry errors from weight materialization.
    pub fn from_mini(
        mini: &MiniNetwork,
        gen: &mut WorkloadGen,
        wp: &WeightProfile,
    ) -> Result<Self, QnnError> {
        let layers = mini
            .stages
            .iter()
            .map(|stage| {
                let l = &stage.layer;
                Ok(PipelineLayer {
                    name: l.name.clone(),
                    kernels: gen.weights(l.out_channels, l.in_channels, l.kernel, l.kernel, wp)?,
                    geom: l.geometry(),
                    w_bits: wp.bits,
                    a_bits: BitWidth::W8,
                    requant_shift: 5,
                    out_bits: 8,
                    pool: stage.pool,
                })
            })
            .collect::<Result<_, QnnError>>()?;
        Ok(Self {
            name: mini.id.name().to_string(),
            input: mini.input,
            layers,
        })
    }

    /// Runs the dense reference path: every layer through
    /// [`qnn::conv::conv2d`], requantize + ReLU and optional pooling. The
    /// compiled [`Session::run`] output must match it byte-for-byte.
    ///
    /// # Errors
    /// Propagates geometry errors.
    pub fn run_dense_reference(&self, input: &Tensor3) -> Result<Tensor3, QnnError> {
        let mut act = input.clone();
        for layer in &self.layers {
            let acc = conv2d(&act, &layer.kernels, layer.geom)?;
            let requant = acc.requantize_relu(layer.requant_shift, layer.out_bits);
            act = match layer.pool {
                Some((kind, window, stride, padding)) => {
                    pool2d(&requant, kind, window, stride, padding)?
                }
                None => requant,
            };
        }
        Ok(act)
    }
}

/// One layer's static artifacts: everything derivable from the trained
/// weights alone.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledLayer {
    pub(crate) name: String,
    pub(crate) weights: WeightStreamSet,
    /// Dense kernels retained for the fault-recovery fallback: a layer
    /// whose sparse path keeps faulting re-executes on the bit-exact dense
    /// reference convolution.
    pub(crate) kernels: Tensor4,
    pub(crate) geom: ConvGeometry,
    pub(crate) a_bits: BitWidth,
    pub(crate) requant_shift: u32,
    pub(crate) out_bits: u8,
    pub(crate) pool: Option<(PoolKind, usize, usize, usize)>,
    pub(crate) weight_atoms_per_channel: Vec<u64>,
    pub(crate) weight_buffer_bits: Option<usize>,
    pub(crate) static_groups: Vec<Vec<usize>>,
}

impl CompiledLayer {
    /// Compiles one pipeline layer's static side under a core
    /// configuration.
    pub(crate) fn compile(layer: &PipelineLayer, cfg: &RistrettoConfig) -> Result<Self, AtomError> {
        let weights = WeightStreamSet::compile(&layer.kernels, layer.w_bits, cfg.atom_bits)?;
        let weight_atoms_per_channel: Vec<u64> = (0..weights.in_channels())
            .map(|c| weights.atoms(c))
            .collect();
        // SRAM layout of the compressed weights; `None` when the layer
        // exceeds the weight buffer's header limits (it would stream from
        // DRAM instead of residing on-chip).
        let weight_buffer_bits =
            WeightBufferImage::encode(&layer.kernels, layer.w_bits.bits(), cfg.atom_bits)
                .ok()
                .map(|img| img.storage_bits());
        // The weight-side half of the §IV-E balancer is input-independent,
        // so its grouping is a compile-time artifact. The joint w/a
        // grouping still happens per input (it needs measured activation
        // atom counts).
        let workloads: Vec<crate::balance::ChannelWorkload> = weight_atoms_per_channel
            .iter()
            .enumerate()
            .map(|(channel, &weight_atoms)| crate::balance::ChannelWorkload {
                channel,
                act_atoms: 1,
                weight_atoms,
            })
            .collect();
        let static_groups = crate::balance::balance(
            &workloads,
            cfg.tiles,
            cfg.multipliers as u64,
            crate::balance::BalanceStrategy::WeightOnly,
        )
        .groups;
        Ok(Self {
            name: layer.name.clone(),
            weights,
            kernels: layer.kernels.clone(),
            geom: layer.geom,
            a_bits: layer.a_bits,
            requant_shift: layer.requant_shift,
            out_bits: layer.out_bits,
            pool: layer.pool,
            weight_atoms_per_channel,
            weight_buffer_bits,
            static_groups,
        })
    }

    /// Runs this layer's per-input work: activation compression, stream
    /// intersection, PPU and optional pooling. The scratch arena supplies
    /// the layer accumulator and per-channel weight plans; a persistent
    /// arena (one per layer inside a [`Session`]) makes the steady state
    /// allocation-free, while a transient `&CscScratch::new()` allocates
    /// one accumulator per call.
    pub(crate) fn execute(
        &self,
        csc: &CscConfig,
        act: &Tensor3,
        scratch: &CscScratch,
    ) -> Result<(Tensor3, LayerTrace), AtomError> {
        let out =
            conv2d_csc_streams_with(act, &self.weights, self.geom, self.a_bits, csc, scratch)?;
        self.post_process(csc, &out.output, out.stats)
    }

    /// The PPU + pooling tail shared by the clean and fault-aware paths.
    fn post_process(
        &self,
        csc: &CscConfig,
        conv_out: &AccTensor3,
        stats: CscStats,
    ) -> Result<(Tensor3, LayerTrace), AtomError> {
        let ppu = PostProcessor {
            requant_shift: self.requant_shift,
            out_bits: self.out_bits,
            atom_bits: csc.atom_bits,
            tile_h: csc.tile_h,
            tile_w: csc.tile_w,
        };
        let PpuOutput {
            activations,
            values_per_channel,
            atoms_per_channel,
            ..
        } = ppu.try_process(conv_out)?;
        let next = match self.pool {
            Some((kind, window, stride, padding)) => {
                pool2d(&activations, kind, window, stride, padding)?
            }
            None => activations,
        };
        Ok((
            next,
            LayerTrace {
                name: self.name.clone(),
                stats,
                out_values_per_channel: values_per_channel,
                out_atoms_per_channel: atoms_per_channel,
            },
        ))
    }

    /// Fault-aware variant of [`CompiledLayer::execute`]: faults are
    /// injected into the weight-buffer records, both atom streams and the
    /// accumulate-buffer words of every tile attempt per the campaign,
    /// the online monitors (stream checksums, the Eq 4/5 conservation law
    /// and the accumulate-plane digest) gate each tile, detected tiles
    /// re-execute within the retry budget (faults re-roll per attempt),
    /// and a tile that exhausts its budget triggers the dense-reference
    /// fallback for the whole layer when recovery is on — keeping the
    /// layer output byte-identical to a fault-free run.
    ///
    /// Byte-deterministic: injection decisions are pure site hashes, and
    /// channels run in channel order into one layer accumulator.
    pub(crate) fn execute_with_faults(
        &self,
        csc: &CscConfig,
        act: &Tensor3,
        injector: &FaultInjector,
        layer_idx: usize,
        acc_bits: u8,
    ) -> Result<(Tensor3, LayerTrace, FaultStats), EngineError> {
        let (c, h, w) = act.shape();
        let (o, i, k) = (
            self.weights.out_channels(),
            self.weights.in_channels(),
            self.weights.kernel(),
        );
        if c != i {
            return Err(QnnError::ChannelMismatch { fmap: c, kernel: i }.into());
        }
        if csc.atom_bits != self.weights.atom_bits() {
            return Err(AtomError::GranularityMismatch {
                compiled: self.weights.atom_bits().bits(),
                requested: csc.atom_bits.bits(),
            }
            .into());
        }
        let out_h = self.geom.out_extent(h, k)?;
        let out_w = self.geom.out_extent(w, k)?;
        if csc.tile_h == 0 || csc.tile_w == 0 {
            return Err(QnnError::EmptyDimension("tile extent").into());
        }
        let icfg = IntersectConfig {
            multipliers: csc.multipliers,
        };
        let tiles_x = w.div_ceil(csc.tile_w);
        let max_attempts = injector.max_attempts();

        // Channels run in order into one layer accumulator, allocated where
        // the first channel with weights needs it. A tile that exhausts its
        // retries ends its channel; later channels still run, so the
        // campaign's counters do not depend on where it failed. A failed
        // layer's accumulator is never read.
        let mut acc: Option<FullConvAcc> = None;
        let mut stats = CscStats::default();
        let mut faults = FaultStats::default();
        let mut failure: Option<FaultDetected> = None;
        'channels: for ci in 0..c {
            // The stored stream's always-on integrity monitor; the injected
            // copies below model in-flight corruption.
            self.weights.verify_channel(ci)?;
            let w_stream = self.weights.stream(ci);
            stats.weight_atoms += w_stream.len() as u64;
            if w_stream.is_empty() {
                continue;
            }
            let acc = match acc {
                Some(ref mut acc) => acc,
                None => acc.insert(FullConvAcc::new(o, h, w, k)?),
            };
            for y0 in (0..h).step_by(csc.tile_h) {
                for x0 in (0..w).step_by(csc.tile_w) {
                    let a_flat = flatten_tile(act, ci, y0, x0, csc.tile_h, csc.tile_w);
                    if a_flat.is_empty() {
                        continue;
                    }
                    let a_clean = compress_activations(&a_flat, self.a_bits.bits(), csc.atom_bits)?;
                    stats.act_values += a_clean.value_count() as u64;
                    stats.act_atoms += a_clean.len() as u64;
                    stats.tiles_processed += 1;
                    // Logical tile-grid index: stable across attempt
                    // numbers.
                    let tile_idx = (y0 / csc.tile_h) * tiles_x + x0 / csc.tile_w;
                    let mut attempt = 0u32;
                    let committed = loop {
                        let base = FaultSite {
                            layer: layer_idx,
                            channel: ci,
                            tile: tile_idx,
                            attempt,
                            item: 0,
                        };
                        // Weight side: one packed-record flip per hit in
                        // the buffer read (WeightBuffer) or on the wire
                        // into the Atomputer (WeightStream); both
                        // manifest as value-bit flips on the entry.
                        let mut w_entries = w_stream.entries().to_vec();
                        let (mut wb_cnt, mut ws_cnt) = (0u64, 0u64);
                        for (idx, e) in w_entries.iter_mut().enumerate() {
                            let site = FaultSite { item: idx, ..base };
                            if let Some(ent) = injector.decide(FaultStructure::WeightBuffer, site) {
                                FaultInjector::corrupt_weight_entry(e, ent);
                                wb_cnt += 1;
                            }
                            if let Some(ent) = injector.decide(FaultStructure::WeightStream, site) {
                                FaultInjector::corrupt_weight_entry(e, ent);
                                ws_cnt += 1;
                            }
                        }
                        faults.record_injected(FaultStructure::WeightBuffer, wb_cnt);
                        faults.record_injected(FaultStructure::WeightStream, ws_cnt);
                        let w_faulty = WeightStream::from_entries(w_entries);
                        // Activation side: magnitude-bit flips in the
                        // Atomizer's output stream.
                        let mut a_entries = a_clean.entries().to_vec();
                        let mut as_cnt = 0u64;
                        for (idx, e) in a_entries.iter_mut().enumerate() {
                            let site = FaultSite { item: idx, ..base };
                            if let Some(ent) =
                                injector.decide(FaultStructure::ActivationStream, site)
                            {
                                FaultInjector::corrupt_act_entry(e, ent);
                                as_cnt += 1;
                            }
                        }
                        faults.record_injected(FaultStructure::ActivationStream, as_cnt);
                        let a_faulty = ActivationStream::from_entries(a_entries);
                        // Pre-intersect monitors: re-hash both streams
                        // against their reference digests before any
                        // multiply happens.
                        if injector.detect() {
                            let mut tripped = None;
                            if w_faulty.checksum() != self.weights.checksum(ci) {
                                faults.record_detected(FaultStructure::WeightBuffer, wb_cnt);
                                faults.record_detected(FaultStructure::WeightStream, ws_cnt);
                                tripped = Some(if wb_cnt > 0 {
                                    FaultStructure::WeightBuffer
                                } else {
                                    FaultStructure::WeightStream
                                });
                            }
                            if a_faulty.checksum() != a_clean.checksum() {
                                faults.record_detected(FaultStructure::ActivationStream, as_cnt);
                                tripped.get_or_insert(FaultStructure::ActivationStream);
                            }
                            if let Some(structure) = tripped {
                                if attempt >= max_attempts {
                                    break Err(FaultDetected {
                                        structure,
                                        layer: layer_idx,
                                        channel: ci,
                                        tile: tile_idx,
                                        attempts: attempt + 1,
                                    });
                                }
                                faults.record_retry();
                                attempt += 1;
                                continue;
                            }
                        }
                        // Intersect into a scratch plane so a rejected
                        // attempt never touches the committed
                        // accumulator.
                        let mut scratch = FullConvAcc::new(o, h, w, k)?;
                        let istats = intersect(&w_faulty, &a_faulty, icfg, &mut scratch, y0, x0)?;
                        let reference_digest = plane_digest(scratch.cells());
                        let expected_sum = weight_term_sum(&w_faulty) * act_value_sum(&a_faulty);
                        // Accumulate-buffer faults: word flips over the
                        // plane this tile pass wrote.
                        let mut acc_cnt = 0u64;
                        for (idx, word) in scratch.cells_mut().iter_mut().enumerate() {
                            let site = FaultSite { item: idx, ..base };
                            if let Some(ent) = injector.decide(FaultStructure::AccumBuffer, site) {
                                FaultInjector::corrupt_accum_word(word, acc_bits, ent);
                                acc_cnt += 1;
                            }
                        }
                        faults.record_injected(FaultStructure::AccumBuffer, acc_cnt);
                        // Post-intersect monitors: the Eq 4/5
                        // conservation law (plane total = weight-term
                        // sum × activation-value sum) plus the
                        // incremental plane digest for the rare
                        // cancelling pair.
                        if injector.detect()
                            && (scratch.total_sum() != expected_sum
                                || plane_digest(scratch.cells()) != reference_digest)
                        {
                            faults.record_detected(FaultStructure::AccumBuffer, acc_cnt);
                            faults.record_wasted(istats.atom_mults, istats.deliveries);
                            if attempt >= max_attempts {
                                break Err(FaultDetected {
                                    structure: FaultStructure::AccumBuffer,
                                    layer: layer_idx,
                                    channel: ci,
                                    tile: tile_idx,
                                    attempts: attempt + 1,
                                });
                            }
                            faults.record_retry();
                            attempt += 1;
                            continue;
                        }
                        break Ok((scratch, istats));
                    };
                    match committed {
                        Ok((scratch, istats)) => {
                            if attempt > 0 {
                                faults.record_recovered_tile();
                            }
                            acc.merge(&scratch);
                            stats.intersect.merge(&istats);
                        }
                        Err(fault) => {
                            failure.get_or_insert(fault);
                            continue 'channels;
                        }
                    }
                }
            }
        }
        let acc = match acc {
            Some(acc) => acc,
            None => FullConvAcc::new(o, h, w, k)?,
        };
        let conv_out = match failure {
            None => acc.extract(self.geom, out_h, out_w)?,
            Some(fault) => {
                if !injector.recover() {
                    return Err(EngineError::Fault(fault));
                }
                // A tile exhausted its retry budget: replay the whole
                // layer on the dense reference convolution, which is
                // bit-exact against the sparse path.
                faults.record_layer_fallback();
                conv2d(act, &self.kernels, self.geom)?
            }
        };
        let (next, trace) = self.post_process(csc, &conv_out, stats)?;
        Ok((next, trace, faults))
    }

    /// Layer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dense kernels retained for the fault-recovery fallback path.
    pub fn kernels(&self) -> &Tensor4 {
        &self.kernels
    }

    /// The compiled static weight streams.
    pub fn weights(&self) -> &WeightStreamSet {
        &self.weights
    }

    /// Static weight atoms per input channel (the balancer's `S_i`).
    pub fn weight_atoms_per_channel(&self) -> &[u64] {
        &self.weight_atoms_per_channel
    }

    /// Total static weight atoms in the layer.
    pub fn weight_atoms(&self) -> u64 {
        self.weight_atoms_per_channel.iter().sum()
    }

    /// Compressed weight-buffer footprint in bits, or `None` when the
    /// layer exceeds the on-chip buffer's addressing limits.
    pub fn weight_buffer_bits(&self) -> Option<usize> {
        self.weight_buffer_bits
    }

    /// The weight-only balancer grouping (the input-independent half of
    /// §IV-E, precomputed at compile time).
    pub fn static_groups(&self) -> &[Vec<usize>] {
        &self.static_groups
    }

    /// Static weight atoms per *output* channel — the workload metric the
    /// fleet's output-channel shard planner balances on.
    pub fn weight_atoms_per_out_channel(&self) -> Vec<u64> {
        let mut atoms = vec![0u64; self.weights.out_channels()];
        for stream in self.weights.streams() {
            for e in stream.entries() {
                atoms[e.out_ch as usize] += 1;
            }
        }
        atoms
    }
}

/// A network compiled into per-layer static artifacts, shared by sessions
/// behind an [`Arc`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledNetwork {
    pub(crate) name: String,
    pub(crate) input: (usize, usize, usize),
    pub(crate) cfg: RistrettoConfig,
    pub(crate) csc: CscConfig,
    pub(crate) layers: Vec<CompiledLayer>,
}

impl CompiledNetwork {
    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared input shape `(channels, height, width)`.
    pub fn input(&self) -> (usize, usize, usize) {
        self.input
    }

    /// The architecture configuration the network was compiled for.
    pub fn config(&self) -> &RistrettoConfig {
        &self.cfg
    }

    /// The CSC configuration derived from the architecture.
    pub fn csc_config(&self) -> &CscConfig {
        &self.csc
    }

    /// Per-layer compiled artifacts, in execution order.
    pub fn layers(&self) -> &[CompiledLayer] {
        &self.layers
    }

    /// Total static weight atoms across all layers.
    pub fn weight_atoms(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_atoms()).sum()
    }
}

/// Compiles a network's static artifacts once, for any number of sessions.
///
/// ```
/// use qnn::mini::MiniNetwork;
/// use qnn::models::NetworkId;
/// use qnn::quant::BitWidth;
/// use qnn::workload::{ActivationProfile, WeightProfile, WorkloadGen};
/// use ristretto_sim::config::RistrettoConfig;
/// use ristretto_sim::engine::{compile, NetworkModel, Session};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mini = MiniNetwork::try_new(NetworkId::ResNet18)?;
/// let mut gen = WorkloadGen::new(7);
/// let wp = WeightProfile::benchmark(BitWidth::W4);
/// let model = NetworkModel::from_mini(&mini, &mut gen, &wp)?;
///
/// // Compile once; the Arc'd artifacts are shared by every session.
/// let compiled = compile(&model, &RistrettoConfig::paper_default())?;
/// let session = Session::new(compiled.clone());
///
/// let (c, h, w) = compiled.input();
/// let input = gen.activations(c, h, w, &ActivationProfile::new(BitWidth::W8))?;
/// let run = session.run(&input)?;
/// assert_eq!(run.traces.len(), compiled.layers().len());
/// # Ok(())
/// # }
/// ```
///
/// # Errors
/// Returns [`EngineError::Config`] for inconsistent architecture
/// configurations and [`EngineError::Atom`] when weight streams cannot be
/// built (non-square kernels, overwide values).
pub fn compile(
    model: &NetworkModel,
    cfg: &RistrettoConfig,
) -> Result<Arc<CompiledNetwork>, EngineError> {
    let _span = obs::span("engine.compile");
    cfg.validate()?;
    let csc = CscConfig {
        atom_bits: cfg.atom_bits,
        multipliers: cfg.multipliers,
        tile_h: cfg.tile_h,
        tile_w: cfg.tile_w,
    };
    let layers = model
        .layers
        .iter()
        .map(|l| CompiledLayer::compile(l, cfg))
        .collect::<Result<Vec<_>, AtomError>>()?;
    obs::record(obs::Event::EngineCompileNetworks, 1);
    obs::record(obs::Event::EngineCompileLayers, layers.len() as u64);
    obs::record(
        obs::Event::EngineCompileWeightAtoms,
        layers.iter().map(|l| l.weight_atoms()).sum(),
    );
    Ok(Arc::new(CompiledNetwork {
        name: model.name.clone(),
        input: model.input,
        cfg: *cfg,
        csc,
        layers,
    }))
}

/// Result of one functional inference through a [`Session`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRun {
    /// Final activation tensor.
    pub output: Tensor3,
    /// Per-layer execution traces.
    pub traces: Vec<LayerTrace>,
    /// Fault-campaign counters; all-zero when no campaign is configured.
    pub faults: FaultStats,
}

/// Result of one cycle-level inference through a [`Session`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCycleRun {
    /// Functional result (used to advance activations between layers).
    pub functional: SessionRun,
    /// Per-layer cycle-level core reports (byte-identical to
    /// [`CoreSim::run_layer`] on the same tensors).
    pub core_reports: Vec<CoreReport>,
}

/// A per-client handle over a shared [`CompiledNetwork`]: only per-input
/// work happens here.
///
/// Each session also owns one [`CscScratch`] arena per layer, so the
/// layer accumulator, weight plans and stream buffers of `run` are
/// recycled across inputs — after the first inference, the steady state
/// performs zero accumulator-plane heap allocations (observable through
/// [`Session::scratch_plane_allocations`]).
///
/// A run executes on the calling thread, layer by layer and channel by
/// channel. Clones of a session share its arenas, so concurrent runs
/// through clones take turns per layer; open one session per thread to
/// run inputs in parallel.
#[derive(Debug, Clone)]
pub struct Session {
    net: Arc<CompiledNetwork>,
    scratch: Arc<Vec<CscScratch>>,
}

impl Session {
    /// Opens a session over compiled artifacts (cheap — the artifacts are
    /// shared, not copied; the per-layer scratch arenas start empty and
    /// fill lazily on the first run).
    pub fn new(net: Arc<CompiledNetwork>) -> Self {
        obs::record(obs::Event::EngineSessions, 1);
        let scratch = Arc::new((0..net.layers.len()).map(|_| CscScratch::new()).collect());
        Self { net, scratch }
    }

    /// The compiled network this session serves.
    pub fn network(&self) -> &CompiledNetwork {
        &self.net
    }

    /// Total accumulator-plane allocations performed by this session's
    /// scratch arenas since creation. In steady state (after the first
    /// input at a given layer geometry) consecutive [`Session::run`] calls
    /// leave this counter unchanged — the zero-allocation invariant the
    /// arena exists to provide.
    pub fn scratch_plane_allocations(&self) -> u64 {
        self.scratch.iter().map(|s| s.plane_allocations()).sum()
    }

    /// Runs one functional inference: activation compression,
    /// intersection, PPU and pooling per layer, against the shared static
    /// weight streams.
    ///
    /// ```
    /// use qnn::mini::MiniNetwork;
    /// use qnn::models::NetworkId;
    /// use qnn::quant::BitWidth;
    /// use qnn::workload::{ActivationProfile, WeightProfile, WorkloadGen};
    /// use ristretto_sim::config::RistrettoConfig;
    /// use ristretto_sim::engine::{compile, NetworkModel, Session};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mini = MiniNetwork::try_new(NetworkId::Vgg16)?;
    /// let mut gen = WorkloadGen::new(3);
    /// let model =
    ///     NetworkModel::from_mini(&mini, &mut gen, &WeightProfile::benchmark(BitWidth::W4))?;
    /// let compiled = compile(&model, &RistrettoConfig::paper_default())?;
    /// let session = Session::new(compiled);
    ///
    /// // One compile, many inputs: per-image cost excludes weight work.
    /// for seed in 0..3u64 {
    ///     let mut igen = WorkloadGen::new(100 + seed);
    ///     let (c, h, w) = session.network().input();
    ///     let input = igen.activations(c, h, w, &ActivationProfile::new(BitWidth::W8))?;
    ///     let run = session.run(&input)?;
    ///     assert!(run.traces.iter().all(|t| t.stats.weight_atoms > 0));
    /// }
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    /// Propagates activation-side atomization and geometry errors, and —
    /// when a fault campaign with recovery disabled is configured — an
    /// uncontained fault as [`EngineError::Fault`].
    pub fn run(&self, input: &Tensor3) -> Result<SessionRun, EngineError> {
        let _span = obs::span("engine.run");
        let mut act = input.clone();
        let mut traces = Vec::with_capacity(self.net.layers.len());
        let mut faults = FaultStats::default();
        for li in 0..self.net.layers.len() {
            let (next, trace, layer_faults) = self.run_layer(li, &act)?;
            faults.merge(&layer_faults);
            act = next;
            traces.push(trace);
        }
        Ok(SessionRun {
            output: act,
            traces,
            faults,
        })
    }

    /// Runs exactly one layer (by global index) of the compiled network on
    /// `act` — the one per-layer executor. [`Session::run`] and
    /// [`Session::run_cycle_level`] step through it, and the fleet driver
    /// steps through [`Session::run_layer_with`], pricing its shards and
    /// exchanging activations between layers. Fault-injection sites depend
    /// only on the global layer index and the activation geometry, so a
    /// campaign is a property of the layer, not of the caller.
    ///
    /// # Panics
    /// Panics if `li` is out of range.
    ///
    /// # Errors
    /// Same surface as [`Session::run`].
    pub fn run_layer(
        &self,
        li: usize,
        act: &Tensor3,
    ) -> Result<(Tensor3, LayerTrace, FaultStats), EngineError> {
        self.run_layer_with(li, act, self.net.cfg.faults)
    }

    /// [`Session::run_layer`] under an explicit fault campaign instead of
    /// the compiled one — the serving circuit breaker uses this to re-run
    /// degraded batches with [`FaultConfig::forced_recovery`] without
    /// recompiling the network. Passing `self.net.cfg.faults` reproduces
    /// [`Session::run_layer`] exactly.
    ///
    /// # Panics
    /// Panics if `li` is out of range.
    ///
    /// # Errors
    /// Same surface as [`Session::run`].
    pub fn run_layer_with(
        &self,
        li: usize,
        act: &Tensor3,
        campaign: Option<FaultConfig>,
    ) -> Result<(Tensor3, LayerTrace, FaultStats), EngineError> {
        assert!(li < self.net.layers.len(), "layer index out of range");
        let layer = &self.net.layers[li];
        let mut faults = FaultStats::default();
        let (next, trace) = match campaign.map(FaultInjector::new) {
            None => layer.execute(&self.net.csc, act, &self.scratch[li])?,
            Some(inj) => {
                let (next, trace, layer_faults) = layer.execute_with_faults(
                    &self.net.csc,
                    act,
                    &inj,
                    li,
                    self.net.cfg.acc_bits,
                )?;
                faults.merge(&layer_faults);
                (next, trace)
            }
        };
        obs::record(obs::Event::EngineRunLayers, 1);
        obs::record(obs::Event::EngineRunActAtoms, trace.stats.act_atoms);
        Ok((next, trace, faults))
    }

    /// Runs one cycle-level inference: every layer additionally goes
    /// through the multi-tile core simulator against the compiled weight
    /// streams, with per-input w/a balancing (§IV-E).
    ///
    /// # Errors
    /// Propagates atomization and geometry errors, and — when a fault
    /// campaign with recovery disabled is configured — an uncontained
    /// fault as [`EngineError::Fault`].
    pub fn run_cycle_level(&self, input: &Tensor3) -> Result<SessionCycleRun, EngineError> {
        let _span = obs::span("engine.run_cycle_level");
        let core = CoreSim::try_new(self.net.cfg)?;
        let injector = self.net.cfg.faults.map(FaultInjector::new);
        let mut act = input.clone();
        let mut traces = Vec::with_capacity(self.net.layers.len());
        let mut core_reports = Vec::with_capacity(self.net.layers.len());
        let mut faults = FaultStats::default();
        for (li, layer) in self.net.layers.iter().enumerate() {
            let (report, core_faults) = core.run_layer_streams(
                &layer.weights,
                &act,
                layer.a_bits.bits(),
                injector.as_ref().map(|inj| (inj, li)),
            )?;
            faults.merge(&core_faults);
            core_reports.push(report);
            let (next, trace, layer_faults) = self.run_layer(li, &act)?;
            faults.merge(&layer_faults);
            act = next;
            traces.push(trace);
        }
        Ok(SessionCycleRun {
            functional: SessionRun {
                output: act,
                traces,
                faults,
            },
            core_reports,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnn::models::NetworkId;
    use qnn::workload::ActivationProfile;

    fn model_and_input(seed: u64) -> (NetworkModel, Tensor3) {
        let mini = MiniNetwork::try_new(NetworkId::GoogLeNet).unwrap();
        let mut gen = WorkloadGen::new(seed);
        let wp = WeightProfile::benchmark(BitWidth::W4);
        let model = NetworkModel::from_mini(&mini, &mut gen, &wp).unwrap();
        let (c, h, w) = model.input;
        let input = gen
            .activations(c, h, w, &ActivationProfile::new(BitWidth::W8))
            .unwrap();
        (model, input)
    }

    #[test]
    fn compile_produces_static_artifacts() {
        let (model, _) = model_and_input(5);
        let cfg = RistrettoConfig::paper_default();
        let compiled = compile(&model, &cfg).unwrap();
        assert_eq!(compiled.layers().len(), model.layers.len());
        assert!(compiled.weight_atoms() > 0);
        for (cl, pl) in compiled.layers().iter().zip(&model.layers) {
            assert_eq!(cl.name(), pl.name);
            assert_eq!(
                cl.weight_atoms(),
                cl.weights().total_atoms(),
                "per-channel stats must sum to the stream total"
            );
            assert!(cl.weight_buffer_bits().unwrap() > 0);
            let grouped: usize = cl.static_groups().iter().map(Vec::len).sum();
            assert_eq!(grouped, cl.weights().in_channels());
        }
    }

    #[test]
    fn sessions_share_compiled_artifacts() {
        let (model, input) = model_and_input(8);
        let compiled = compile(&model, &RistrettoConfig::paper_default()).unwrap();
        let a = Session::new(compiled.clone());
        let b = Session::new(compiled.clone());
        assert_eq!(Arc::strong_count(&compiled), 3);
        let ra = a.run(&input).unwrap();
        let rb = b.run(&input).unwrap();
        assert_eq!(ra, rb);
    }

    fn three_layer_model(seed: u64) -> (NetworkModel, Tensor3) {
        let mut gen = WorkloadGen::new(seed);
        let input = gen
            .activations(3, 16, 16, &ActivationProfile::new(BitWidth::W8))
            .unwrap();
        let wp = WeightProfile::benchmark(BitWidth::W4);
        let layers = vec![
            PipelineLayer {
                name: "conv1".into(),
                kernels: gen.weights(8, 3, 3, 3, &wp).unwrap(),
                geom: ConvGeometry::unit_stride(1),
                w_bits: BitWidth::W4,
                a_bits: BitWidth::W8,
                requant_shift: 4,
                out_bits: 8,
                pool: Some((PoolKind::Max, 2, 2, 0)),
            },
            PipelineLayer {
                name: "conv2".into(),
                kernels: gen.weights(12, 8, 3, 3, &wp).unwrap(),
                geom: ConvGeometry::unit_stride(1),
                w_bits: BitWidth::W4,
                a_bits: BitWidth::W8,
                requant_shift: 5,
                out_bits: 8,
                pool: None,
            },
            PipelineLayer {
                name: "conv3".into(),
                kernels: gen.weights(4, 12, 1, 1, &wp).unwrap(),
                geom: ConvGeometry::default(),
                w_bits: BitWidth::W4,
                a_bits: BitWidth::W8,
                requant_shift: 3,
                out_bits: 8,
                pool: None,
            },
        ];
        (NetworkModel::new("three-layer", (3, 16, 16), layers), input)
    }

    #[test]
    fn csc_pipeline_matches_dense_reference_end_to_end() {
        for seed in [1u64, 2, 3] {
            let (model, input) = three_layer_model(seed);
            let compiled = compile(&model, &RistrettoConfig::paper_default()).unwrap();
            let run = Session::new(compiled).run(&input).unwrap();
            let dense_out = model.run_dense_reference(&input).unwrap();
            assert_eq!(run.output, dense_out, "seed {seed}");
            assert_eq!(run.traces.len(), 3);
            assert!(run.traces.iter().all(|t| t.stats.intersect.atom_mults > 0));
        }
    }

    #[test]
    fn ppu_statistics_describe_next_layer_input() {
        let (model, input) = three_layer_model(7);
        let compiled = compile(&model, &RistrettoConfig::paper_default()).unwrap();
        let traces = Session::new(compiled).run(&input).unwrap().traces;
        // conv2's input is conv1's pooled output; without pooling the PPU
        // counts would match the next layer's measured input exactly. For
        // conv3 (no pool on conv2) they must match.
        let conv2_trace = &traces[1];
        assert_eq!(conv2_trace.out_values_per_channel.len(), 12);
        let conv2_out = conv2_trace.out_values_per_channel.iter().sum::<u64>();
        // conv3 streams at most that many values; channels whose pruned
        // kernels are entirely zero are skipped outright.
        let conv3_acts = traces[2].stats.act_values;
        assert!(conv3_acts <= conv2_out, "{conv3_acts} > {conv2_out}");
        assert!(
            conv3_acts as f64 >= conv2_out as f64 * 0.7,
            "{conv3_acts} vs {conv2_out}"
        );
    }

    #[test]
    fn deeper_pipeline_stays_exact() {
        // Five chained 1x1/3x3 layers at mixed precisions.
        let mut gen = WorkloadGen::new(99);
        let input = gen
            .activations(4, 10, 10, &ActivationProfile::new(BitWidth::W4))
            .unwrap();
        let mut layers = Vec::new();
        let mut in_c = 4;
        for (i, (&k, &bits)) in [1usize, 3, 1, 3, 1]
            .iter()
            .zip(&[
                BitWidth::W2,
                BitWidth::W4,
                BitWidth::W8,
                BitWidth::W2,
                BitWidth::W4,
            ])
            .enumerate()
        {
            let out_c = 4 + i;
            layers.push(PipelineLayer {
                name: format!("l{i}"),
                kernels: gen
                    .weights(out_c, in_c, k, k, &WeightProfile::benchmark(bits))
                    .unwrap(),
                geom: ConvGeometry::unit_stride(k / 2),
                w_bits: bits,
                a_bits: BitWidth::W8,
                requant_shift: 3,
                out_bits: 8,
                pool: None,
            });
            in_c = out_c;
        }
        // First layer consumes 4-bit input; widths still declared W8-safe.
        let model = NetworkModel::new("deeper", (4, 10, 10), layers);
        let cfg = RistrettoConfig {
            tile_h: 4,
            tile_w: 4,
            ..RistrettoConfig::paper_default()
        };
        let a = Session::new(compile(&model, &cfg).unwrap())
            .run(&input)
            .unwrap();
        let b = model.run_dense_reference(&input).unwrap();
        assert_eq!(a.output, b);
    }

    #[test]
    fn fault_recovery_preserves_outputs_byte_for_byte() {
        use crate::fault::FaultConfig;
        let (model, input) = model_and_input(31);
        let clean_cfg = RistrettoConfig::paper_default();
        let clean = Session::new(compile(&model, &clean_cfg).unwrap())
            .run(&input)
            .unwrap();
        assert_eq!(clean.faults, FaultStats::default());

        let faulty_cfg = clean_cfg.with_faults(Some(FaultConfig::uniform(97, 200)));
        let faulty = Session::new(compile(&model, &faulty_cfg).unwrap())
            .run(&input)
            .unwrap();
        assert!(faulty.faults.injected_total() > 0, "campaign must fire");
        assert_eq!(
            faulty.faults.detected_total(),
            faulty.faults.injected_total(),
            "every injected fault must be caught by a monitor"
        );
        assert!(faulty.faults.recovered_tiles > 0 || faulty.faults.layer_fallbacks > 0);
        // Recovery keeps the network output and every per-layer trace
        // byte-identical to the fault-free run.
        assert_eq!(faulty.output, clean.output);

        // Determinism: the same seed reproduces the same campaign exactly.
        let again = Session::new(compile(&model, &faulty_cfg).unwrap())
            .run(&input)
            .unwrap();
        assert_eq!(faulty.output, again.output);
        assert_eq!(faulty.faults, again.faults);
    }

    #[test]
    fn quiescent_campaign_is_byte_identical_to_no_campaign() {
        use crate::fault::FaultConfig;
        let (model, input) = model_and_input(37);
        let off = Session::new(compile(&model, &RistrettoConfig::paper_default()).unwrap())
            .run(&input)
            .unwrap();
        let quiet_cfg =
            RistrettoConfig::paper_default().with_faults(Some(FaultConfig::quiescent(5)));
        let quiet = Session::new(compile(&model, &quiet_cfg).unwrap())
            .run(&input)
            .unwrap();
        assert_eq!(off, quiet);
    }

    #[test]
    fn unrecovered_fault_surfaces_as_typed_error() {
        use crate::fault::FaultConfig;
        let (model, input) = model_and_input(41);
        let cfg = RistrettoConfig::paper_default()
            .with_faults(Some(FaultConfig::uniform(11, 20_000).with_recover(false)));
        let err = Session::new(compile(&model, &cfg).unwrap())
            .run(&input)
            .unwrap_err();
        match err {
            EngineError::Fault(f) => {
                assert!(f.attempts >= 1);
                assert!(f.to_string().contains("fault detected"));
            }
            other => panic!("expected a fault error, got {other}"),
        }
    }

    #[test]
    fn mismatched_input_geometry_is_a_typed_error() {
        let (model, _) = model_and_input(43);
        let compiled = compile(&model, &RistrettoConfig::paper_default()).unwrap();
        let session = Session::new(compiled);
        let (c, h, w) = session.network().input();
        // Wrong channel count: typed error, not a panic.
        let bad = Tensor3::zeros(c + 1, h, w).unwrap();
        match session.run(&bad).unwrap_err() {
            EngineError::Atom(AtomError::Qnn(QnnError::ChannelMismatch { fmap, kernel })) => {
                assert_eq!(fmap, c + 1);
                assert_eq!(kernel, c);
            }
            other => panic!("expected a channel mismatch, got {other}"),
        }
        // Input too small for the kernel: also a typed error.
        let tiny = Tensor3::zeros(c, 1, 1).unwrap();
        assert!(matches!(
            session.run(&tiny).unwrap_err(),
            EngineError::Atom(_)
        ));
    }

    #[test]
    fn cycle_level_run_with_faults_recovers_reports() {
        use crate::fault::FaultConfig;
        let (model, input) = model_and_input(47);
        let clean = Session::new(compile(&model, &RistrettoConfig::paper_default()).unwrap())
            .run_cycle_level(&input)
            .unwrap();
        let cfg = RistrettoConfig::paper_default().with_faults(Some(FaultConfig::uniform(7, 200)));
        let faulty = Session::new(compile(&model, &cfg).unwrap())
            .run_cycle_level(&input)
            .unwrap();
        assert_eq!(faulty.functional.output, clean.functional.output);
        assert_eq!(faulty.core_reports, clean.core_reports);
        assert!(faulty.functional.faults.injected_total() > 0);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let (model, _) = model_and_input(2);
        let bad = RistrettoConfig::paper_default().with_tiles(0);
        assert_eq!(
            compile(&model, &bad).unwrap_err(),
            EngineError::Config(ConfigError::ZeroTiles)
        );
    }
}
