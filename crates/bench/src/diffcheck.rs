//! Differential correctness harness across the four execution paths.
//!
//! The paper's central claim is that sparsity-condensed stream flow is an
//! *exact* re-ordering of the dense convolution (Fig 5/6): atomized
//! multiplication and dual-sided compression lose nothing. This module
//! turns that claim into a randomized oracle. Each seeded case draws a
//! (layer, config) pair from the adversarial corners of the space — empty
//! channels, all-dense and all-zero tiles, maximal magnitudes, every atom
//! granularity, 2–16-bit operands, stride/padding combinations — and
//! checks five oracle families:
//!
//! 1. **Cross-path equality** — dense reference [`qnn::conv::conv2d`],
//!    functional [`conv2d_csc`], precompiled `Session::run`, the
//!    cycle-level `CoreSim::run_layer_streams`, *and both stream kernels*
//!    (the planned scratch-arena kernel [`conv2d_csc_streams_with`] and
//!    the value-major [`conv2d_csc_streams_reference`] twin) agree
//!    byte-for-byte — outputs and stats — at 1 and 4 worker threads.
//! 2. **Lossless round-trips** — COO/CSR/bitmap compression and the atom
//!    stream compress→recompose path are exact at every granularity.
//! 3. **Cycle-model invariants** — measured intersect steps equal an
//!    independent re-tiling's `Σ ideal_steps(t, S, N)` exactly and stay
//!    within the Eq 3–5 bounds (`ideal ≤ measured`, `ε < N`), the
//!    balancer's makespan dominates every group, and every observability
//!    counter is non-negative and monotone across the run.
//! 4. **Artifact round-trips** — the compiled network serializes to the
//!    versioned artifact format, deserializes field-for-field equal,
//!    re-encodes byte-identically, and a session over the *decoded*
//!    network reproduces the in-memory session's output and stats
//!    byte-for-byte; a deterministically chosen one-bit corruption of the
//!    artifact must be rejected by the loader.
//! 5. **Fleet equivalence** — a 1-core [`ristretto_sim::fleet::Fleet`]
//!    under both the batch and the output-channel strategy reproduces the
//!    single-core `Session::run` output byte-for-byte (again at 1 and 4
//!    worker threads), with zero inter-core link traffic.
//!
//! Failing cases run through a greedy shrinker that minimizes channels,
//! extents and values while the divergence persists, then serialize to a
//! JSON repro. The `repro diffcheck` subcommand drives the loop; CI runs a
//! fixed-seed budget.

use std::collections::BTreeMap;

use atomstream::atom::AtomBits;
use atomstream::compress::{compress_activations, compress_weights, compress_weights_naive};
use atomstream::conv_csc::{
    conv2d_csc, conv2d_csc_streams_reference, conv2d_csc_streams_with, CscConfig, CscOutput,
    WeightStreamSet,
};
use atomstream::cycles::{ideal_steps, intersect_epsilon, tile_cycles};
use atomstream::decompose::{atomize_signed, atomize_unsigned, recompose};
use atomstream::flatten::{flatten_kernel_channel, flatten_tile};
use atomstream::kernel::CscScratch;
use qnn::conv::{conv2d, ConvGeometry};
use qnn::formats::bitmap::BitmapVec;
use qnn::formats::coo::{BlockCoo2d, CooFeatureMap};
use qnn::formats::csr::CsrMatrix;
use qnn::quant::BitWidth;
use qnn::rng::SeededRng;
use qnn::tensor::{Tensor3, Tensor4};
use qnn::workload::WorkloadGen;
use ristretto_sim::artifact;
use ristretto_sim::balance::{balance, BalanceStrategy, ChannelWorkload};
use ristretto_sim::config::{FleetConfig, RistrettoConfig};
use ristretto_sim::core::{CoreReport, CoreSim};
use ristretto_sim::engine::{compile, NetworkModel, Session};
use ristretto_sim::fleet::{Fleet, ShardStrategy};
use ristretto_sim::pipeline::PipelineLayer;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One randomized differential-test case: a full layer plus the
/// architecture configuration it runs under. Serializable so failing cases
/// dump to JSON repros.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffCase {
    /// Sequential case index under its seed.
    pub index: u64,
    /// The seed the case was drawn from.
    pub seed: u64,
    /// Activation bit-width (2–16).
    pub a_bits: u8,
    /// Weight bit-width (2–16).
    pub w_bits: u8,
    /// Atom granularity in bits.
    pub atom_bits: u8,
    /// Multipliers per compute tile (`N`).
    pub multipliers: usize,
    /// Compute tile count.
    pub tiles: usize,
    /// Feature-map tile height.
    pub tile_h: usize,
    /// Feature-map tile width.
    pub tile_w: usize,
    /// Convolution stride.
    pub stride: usize,
    /// Symmetric zero padding.
    pub padding: usize,
    /// PPU requantization shift.
    pub requant_shift: u32,
    /// PPU output bit-width.
    pub out_bits: u8,
    /// Input feature map.
    pub fmap: Tensor3,
    /// Kernels.
    pub kernels: Tensor4,
}

impl DiffCase {
    /// The case's convolution geometry.
    pub fn geom(&self) -> ConvGeometry {
        ConvGeometry {
            stride: self.stride,
            padding: self.padding,
        }
    }

    /// The case's atom granularity as a typed value.
    pub fn granularity(&self) -> AtomBits {
        AtomBits::new(self.atom_bits).expect("generator draws valid granularities")
    }

    /// The case's CSC configuration.
    pub fn csc_config(&self) -> CscConfig {
        CscConfig {
            atom_bits: self.granularity(),
            multipliers: self.multipliers,
            tile_h: self.tile_h,
            tile_w: self.tile_w,
        }
    }

    /// The case's full architecture configuration (paper defaults with the
    /// case's overrides).
    pub fn ristretto_config(&self) -> RistrettoConfig {
        RistrettoConfig {
            tiles: self.tiles,
            multipliers: self.multipliers,
            atom_bits: self.granularity(),
            tile_h: self.tile_h,
            tile_w: self.tile_w,
            ..RistrettoConfig::paper_default()
        }
    }

    fn a_width(&self) -> BitWidth {
        BitWidth::new(self.a_bits).expect("generator draws valid widths")
    }

    fn w_width(&self) -> BitWidth {
        BitWidth::new(self.w_bits).expect("generator draws valid widths")
    }
}

const BIT_WIDTHS: [u8; 7] = [2, 3, 4, 6, 8, 12, 16];
const GRANULARITIES: [u8; 5] = [1, 2, 3, 4, 8];
const MULTIPLIERS: [usize; 4] = [1, 2, 4, 8];

/// Draws case `index` of the given seed. Deterministic: the same
/// `(seed, index)` pair always yields the same case.
pub fn generate_case(seed: u64, index: u64) -> DiffCase {
    let mut rng = SeededRng::new(seed).fork(index);
    let a_bits = BIT_WIDTHS[rng.below(BIT_WIDTHS.len())];
    let w_bits = BIT_WIDTHS[rng.below(BIT_WIDTHS.len())];
    let atom_bits = GRANULARITIES[rng.below(GRANULARITIES.len())];
    let multipliers = MULTIPLIERS[rng.below(MULTIPLIERS.len())];
    let tiles = [1, 2, 4][rng.below(3)];
    let tile_h = [1, 2, 3, 8][rng.below(4)];
    let tile_w = [1, 2, 4, 8][rng.below(4)];
    let stride = 1 + rng.below(2);
    let padding = rng.below(3);
    let in_c = 1 + rng.below(4);
    let out_c = 1 + rng.below(4);
    let h = 1 + rng.below(8);
    let w = 1 + rng.below(8);
    // The padded input must contain the kernel: k ≤ min(h, w) + 2·padding.
    // Extents beyond 3 exercise full-conv planes much larger than the
    // input tile and kernel-sized per-atom displacements.
    let kernel = [1, 2, 3, 5, 7][rng.below(5)].min(h.min(w) + 2 * padding);
    let requant_shift = rng.below(8) as u32;
    let out_bits = [2, 4, 8][rng.below(3)];
    let mut gen = WorkloadGen::new(rng.next_u64());
    let fmap = gen
        .adversarial_activations(in_c, h, w, BitWidth::new(a_bits).expect("valid"))
        .expect("valid fmap shape");
    let kernels = gen
        .adversarial_weights(
            out_c,
            in_c,
            kernel,
            kernel,
            BitWidth::new(w_bits).expect("valid"),
        )
        .expect("valid kernel shape");
    DiffCase {
        index,
        seed,
        a_bits,
        w_bits,
        atom_bits,
        multipliers,
        tiles,
        tile_h,
        tile_w,
        stride,
        padding,
        requant_shift,
        out_bits,
        fmap,
        kernels,
    }
}

/// Everything one serial evaluation of a case produces; `PartialEq` so the
/// 1-thread and 4-thread evaluations can be compared wholesale.
#[derive(Debug, Clone, PartialEq)]
struct PathOutputs {
    dense: qnn::tensor::AccTensor3,
    csc: CscOutput,
    streams: CscOutput,
    /// The value-major reference kernel's result: the oracle the planned
    /// scratch-arena kernel must match byte-for-byte.
    reference: CscOutput,
    session_out: Tensor3,
    session_stats: atomstream::conv_csc::CscStats,
    core: CoreReport,
    /// 1-core fleet outputs and link traffic per strategy (batch, then
    /// output-channel): the family-5 oracle inputs.
    fleet: Vec<(Tensor3, u64)>,
}

/// The single-layer network model a case compiles into (shared by the
/// session path of family 1 and the artifact round-trip of family 4).
fn case_model(case: &DiffCase) -> NetworkModel {
    NetworkModel::new(
        "diffcheck",
        case.fmap.shape(),
        vec![PipelineLayer {
            name: "l0".to_string(),
            kernels: case.kernels.clone(),
            geom: case.geom(),
            w_bits: case.w_width(),
            a_bits: case.a_width(),
            requant_shift: case.requant_shift,
            out_bits: case.out_bits,
            pool: None,
        }],
    )
}

fn run_paths(case: &DiffCase) -> Result<PathOutputs, String> {
    let geom = case.geom();
    let cfg = case.csc_config();
    let dense = conv2d(&case.fmap, &case.kernels, geom).map_err(|e| format!("dense: {e}"))?;
    let csc = conv2d_csc(
        &case.fmap,
        &case.kernels,
        geom,
        case.a_width(),
        case.w_width(),
        &cfg,
    )
    .map_err(|e| format!("csc: {e}"))?;
    let weights = WeightStreamSet::compile(&case.kernels, case.w_width(), cfg.atom_bits)
        .map_err(|e| format!("compile weights: {e}"))?;
    let streams = conv2d_csc_streams_with(
        &case.fmap,
        &weights,
        geom,
        case.a_width(),
        &cfg,
        &CscScratch::new(),
    )
    .map_err(|e| format!("streams: {e}"))?;
    let reference = conv2d_csc_streams_reference(&case.fmap, &weights, geom, case.a_width(), &cfg)
        .map_err(|e| format!("reference streams: {e}"))?;

    let model = case_model(case);
    let net = compile(&model, &case.ristretto_config()).map_err(|e| format!("compile: {e}"))?;
    let session = Session::new(net.clone());
    let run = session
        .run(&case.fmap)
        .map_err(|e| format!("session run: {e}"))?;
    let session_stats = run.traces[0].stats;

    // Family-5 inputs: the same network behind a 1-core fleet, under both
    // strategies.
    let mut fleet = Vec::new();
    for strategy in [ShardStrategy::Batch, ShardStrategy::OutputChannel] {
        let f = Fleet::try_new(net.clone(), FleetConfig::new(1, strategy))
            .map_err(|e| format!("fleet({strategy}): {e}"))?;
        let fr = f
            .run(std::slice::from_ref(&case.fmap))
            .map_err(|e| format!("fleet({strategy}) run: {e}"))?;
        let out = fr
            .outputs
            .into_iter()
            .next()
            .ok_or_else(|| format!("fleet({strategy}) produced no output"))?;
        fleet.push((out, fr.report.link_bits));
    }

    let core = CoreSim::try_new(case.ristretto_config())
        .map_err(|e| format!("core config: {e}"))?
        .run_layer_streams(&weights, &case.fmap, case.a_bits, None)
        .map_err(|e| format!("core run: {e}"))?
        .0;

    Ok(PathOutputs {
        dense,
        csc,
        streams,
        reference,
        session_out: run.output,
        session_stats,
        core,
        fleet,
    })
}

/// Oracle family 1: byte-identical outputs across all four paths, checked
/// on outputs already produced by [`run_paths`].
fn check_outputs(case: &DiffCase, p: &PathOutputs) -> Result<(), String> {
    if p.csc.output != p.dense {
        return Err(format!(
            "csc output diverges from dense reference: {:?} vs {:?}",
            p.csc.output.as_slice(),
            p.dense.as_slice()
        ));
    }
    if p.streams != p.csc {
        return Err("precompiled-stream CSC diverges from direct CSC".to_string());
    }
    // Dual-kernel oracle: the planned scratch-arena kernel and the
    // value-major reference kernel are two independent implementations of
    // the same intersection; they must agree on every byte — accumulator
    // output and all statistics.
    if p.reference != p.streams {
        return Err(format!(
            "planned kernel diverges from reference kernel: stats {:?} vs {:?}",
            p.streams.stats, p.reference.stats
        ));
    }
    if p.session_stats != p.csc.stats {
        return Err(format!(
            "session trace stats diverge from functional CSC: {:?} vs {:?}",
            p.session_stats, p.csc.stats
        ));
    }

    // Independent PPU reference: truncating (toward-zero) division then
    // clamp into the unsigned output range — recomputed from the dense
    // output without touching the PostProcessor code under test.
    let max = (1i128 << case.out_bits.min(32)) - 1;
    let div = 1i128 << case.requant_shift.min(63);
    for ((c, y, x, got), &acc) in p.session_out.iter_indexed().zip(p.dense.as_slice().iter()) {
        let expect = ((acc as i128) / div).clamp(0, max) as i32;
        if got != expect {
            return Err(format!(
                "session output ({c},{y},{x}) = {got}, independent requant of {acc} gives {expect}"
            ));
        }
    }

    // Cycle-level core agrees on the effectual work counters.
    if p.core.atom_mults() != p.csc.stats.intersect.atom_mults {
        return Err(format!(
            "core atom_mults {} != functional {}",
            p.core.atom_mults(),
            p.csc.stats.intersect.atom_mults
        ));
    }
    let core_deliveries: u64 = p.core.tiles.iter().map(|t| t.deliveries).sum();
    if core_deliveries != p.csc.stats.intersect.deliveries {
        return Err(format!(
            "core deliveries {} != functional {}",
            core_deliveries, p.csc.stats.intersect.deliveries
        ));
    }
    Ok(())
}

/// Oracle family 2: lossless round-trips for every compression format and
/// the atom stream at every granularity.
fn check_roundtrips(case: &DiffCase) -> Result<(), String> {
    let (c, h, w) = case.fmap.shape();
    let coo = CooFeatureMap::from_tensor(&case.fmap, case.tile_h, case.tile_w)
        .map_err(|e| format!("coo build: {e}"))?;
    if coo.to_tensor(h, w) != case.fmap {
        return Err("COO feature-map round-trip diverges".to_string());
    }
    for ci in 0..c {
        let plane = case.fmap.channel(ci);
        let csr = CsrMatrix::from_dense(plane, h, w).map_err(|e| format!("csr build: {e}"))?;
        if csr.to_dense() != plane {
            return Err(format!("CSR round-trip diverges on channel {ci}"));
        }
        let bm = BitmapVec::from_dense(plane);
        if bm.to_dense() != plane {
            return Err(format!("bitmap round-trip diverges on channel {ci}"));
        }
        for y0 in (0..h).step_by(case.tile_h) {
            for x0 in (0..w).step_by(case.tile_w) {
                let coo =
                    BlockCoo2d::from_fmap_tile(&case.fmap, ci, y0, x0, case.tile_h, case.tile_w);
                if coo.to_dense() != case.fmap.tile(ci, y0, x0, case.tile_h, case.tile_w) {
                    return Err(format!(
                        "block COO round-trip diverges at channel {ci} tile ({y0},{x0})"
                    ));
                }
            }
        }
    }

    // Atomize → recompose is exact at every granularity, for both the
    // unsigned activation and signed weight atomizers.
    for g in 1..=8u8 {
        let gran = AtomBits::new(g).expect("1..=8 is valid");
        for &v in case.fmap.as_slice() {
            let atoms = atomize_unsigned(v, case.a_bits, gran)
                .map_err(|e| format!("atomize_unsigned({v}, {}, {g}): {e}", case.a_bits))?;
            if recompose(&atoms) != v as i64 {
                return Err(format!("unsigned atom round-trip of {v} at {g}-bit atoms"));
            }
        }
        for &v in case.kernels.as_slice() {
            let atoms = atomize_signed(v, case.w_bits, gran)
                .map_err(|e| format!("atomize_signed({v}, {}, {g}): {e}", case.w_bits))?;
            if recompose(&atoms) != v as i64 {
                return Err(format!("signed atom round-trip of {v} at {g}-bit atoms"));
            }
        }
    }

    // Compressed streams reconstruct every value: per-coordinate atom-term
    // sums equal the original tile/kernel values (shuffled or not).
    let gran = case.granularity();
    for ci in 0..c {
        for y0 in (0..h).step_by(case.tile_h) {
            for x0 in (0..w).step_by(case.tile_w) {
                let flat = flatten_tile(&case.fmap, ci, y0, x0, case.tile_h, case.tile_w);
                let stream = compress_activations(&flat, case.a_bits, gran)
                    .map_err(|e| format!("compress_activations: {e}"))?;
                let mut sums: BTreeMap<(u16, u16), i64> = BTreeMap::new();
                for e in stream.entries() {
                    *sums.entry((e.y, e.x)).or_default() += e.atom.term();
                }
                for f in &flat {
                    if sums.get(&(f.y, f.x)).copied().unwrap_or(0) != f.value as i64 {
                        return Err(format!(
                            "activation stream loses value {} at channel {ci} tile ({y0},{x0})",
                            f.value
                        ));
                    }
                }
            }
        }
    }
    let (o, i, kh, kw) = case.kernels.shape();
    for ci in 0..i {
        let flat = flatten_kernel_channel(&case.kernels, ci)
            .map_err(|e| format!("flatten kernels: {e}"))?;
        for (label, stream) in [
            (
                "shuffled",
                compress_weights(&flat, case.w_bits, gran)
                    .map_err(|e| format!("compress_weights: {e}"))?,
            ),
            (
                "naive",
                compress_weights_naive(&flat, case.w_bits, gran)
                    .map_err(|e| format!("compress_weights_naive: {e}"))?,
            ),
        ] {
            let mut sums: BTreeMap<(u16, u16, u16), i64> = BTreeMap::new();
            for e in stream.entries() {
                *sums.entry((e.out_ch, e.y, e.x)).or_default() += e.atom.term();
            }
            for oc in 0..o {
                for ky in 0..kh {
                    for kx in 0..kw {
                        let v = case.kernels.get(oc, ci, ky, kx) as i64;
                        let got = sums
                            .get(&(oc as u16, ky as u16, kx as u16))
                            .copied()
                            .unwrap_or(0);
                        if got != v {
                            return Err(format!(
                                "{label} weight stream loses kernel ({oc},{ci},{ky},{kx}): \
                                 {got} != {v}"
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Oracle family 3: the cycle model respects the paper's Eq 3–5 bounds and
/// the balancer/core invariants.
fn check_cycle_model(case: &DiffCase, p: &PathOutputs) -> Result<(), String> {
    let (c, h, w) = case.fmap.shape();
    let n = case.multipliers as u64;
    let gran = case.granularity();
    let weights = WeightStreamSet::compile(&case.kernels, case.w_width(), gran)
        .map_err(|e| format!("compile weights: {e}"))?;

    // Recompute per-(channel, tile) activation atom counts the way the CSC
    // path tiles them, then pin the measured steps two ways: exactly, as
    // Σ ideal_steps(t, S, N) over the occupied tiles of channels with a
    // non-empty weight stream (an independent re-derivation of what the
    // kernel's scheduler must report), and by the Eq 3 bounds
    // Σ t·⌈S/N⌉ ≤ steps ≤ Σ (t·⌈S/N⌉ + (N−1)).
    let mut exact = 0u64;
    let mut lower = 0u64;
    let mut upper = 0u64;
    let mut act_atoms_per_channel = vec![0u64; c];
    for (ci, channel_atoms) in act_atoms_per_channel.iter_mut().enumerate() {
        let s = weights.atoms(ci);
        for y0 in (0..h).step_by(case.tile_h) {
            for x0 in (0..w).step_by(case.tile_w) {
                let flat = flatten_tile(&case.fmap, ci, y0, x0, case.tile_h, case.tile_w);
                if flat.is_empty() {
                    continue;
                }
                let stream = compress_activations(&flat, case.a_bits, gran)
                    .map_err(|e| format!("compress_activations: {e}"))?;
                *channel_atoms += stream.len() as u64;
                if s == 0 {
                    continue;
                }
                let t = stream.len() as u64;
                exact += ideal_steps(t, s, n);
                lower += tile_cycles(t, s, n);
                upper += tile_cycles(t, s, n) + (n - 1);
                debug_assert!(ideal_steps(t, s, n) <= tile_cycles(t, s, n) + (n - 1));
            }
        }
        if intersect_epsilon(s, n) >= n {
            return Err(format!("ε({s}, {n}) = {} ≥ N", intersect_epsilon(s, n)));
        }
    }
    let measured = p.csc.stats.intersect.steps;
    if measured != exact {
        return Err(format!(
            "measured intersect steps {measured} != independent Eq 3 re-derivation {exact}"
        ));
    }
    if measured < lower || measured > upper {
        return Err(format!(
            "measured intersect steps {measured} outside Eq 3 bounds [{lower}, {upper}]"
        ));
    }

    // Balancer invariants, for every strategy, on the measured workloads.
    let workloads: Vec<ChannelWorkload> = (0..c)
        .map(|ci| ChannelWorkload {
            channel: ci,
            act_atoms: act_atoms_per_channel[ci],
            weight_atoms: weights.atoms(ci),
        })
        .collect();
    for strategy in [
        BalanceStrategy::None,
        BalanceStrategy::WeightOnly,
        BalanceStrategy::WeightActivation,
    ] {
        let a = balance(&workloads, case.tiles, n, strategy);
        let mut seen: Vec<usize> = a.groups.iter().flatten().copied().collect();
        seen.sort_unstable();
        if seen != (0..c).collect::<Vec<_>>() {
            return Err(format!(
                "{strategy:?}: groups do not partition the channels"
            ));
        }
        let max_tile = a.tile_cycles.iter().copied().max().unwrap_or(0);
        if a.makespan() != max_tile {
            return Err(format!(
                "{strategy:?}: makespan {} != max tile cycles {max_tile}",
                a.makespan()
            ));
        }
        let largest = workloads.iter().map(|wl| wl.cycles(n)).max().unwrap_or(0);
        if a.makespan() < largest {
            return Err(format!(
                "{strategy:?}: makespan {} below largest single channel {largest}",
                a.makespan()
            ));
        }
        let total: u64 = workloads.iter().map(|wl| wl.cycles(n)).sum();
        if a.total_cycles() != total {
            return Err(format!(
                "{strategy:?}: total cycles {} != Σ channel cycles {total}",
                a.total_cycles()
            ));
        }
        if a.utilization() > 1.0 + 1e-9 {
            return Err(format!("{strategy:?}: utilization {} > 1", a.utilization()));
        }
    }

    // Core-report invariants: makespan dominates, per-tile accounting adds
    // up, groups partition the channels.
    let max_tile = p.core.tile_cycles.iter().copied().max().unwrap_or(0);
    if p.core.makespan != max_tile {
        return Err(format!(
            "core makespan {} != max tile cycles {max_tile}",
            p.core.makespan
        ));
    }
    if p.core.tile_cycles.len() != p.core.tiles.len() {
        return Err("core tile_cycles length differs from tile reports".to_string());
    }
    for (i, (cyc, tile)) in p.core.tile_cycles.iter().zip(&p.core.tiles).enumerate() {
        if *cyc != tile.cycles {
            return Err(format!(
                "core tile {i}: cycles {} != report {}",
                cyc, tile.cycles
            ));
        }
        if tile.stall_cycles > tile.cycles {
            return Err(format!(
                "core tile {i}: stalls {} exceed cycles {}",
                tile.stall_cycles, tile.cycles
            ));
        }
    }
    let mut seen: Vec<usize> = p.core.groups.iter().flatten().copied().collect();
    seen.sort_unstable();
    if seen != (0..c).collect::<Vec<_>>() {
        return Err("core groups do not partition the channels".to_string());
    }
    Ok(())
}

/// Oracle family 5: a 1-core fleet is the single-core engine path — same
/// bytes under both sharding strategies, and no inter-core traffic.
fn check_fleet(p: &PathOutputs) -> Result<(), String> {
    for ((out, link_bits), strategy) in p.fleet.iter().zip(["batch", "output-channel"]) {
        if *out != p.session_out {
            return Err(format!(
                "1-core fleet ({strategy}) output diverges from single-core session"
            ));
        }
        if *link_bits != 0 {
            return Err(format!(
                "1-core fleet ({strategy}) moved {link_bits} bits over the NoC"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Family 4: artifact round-trips.
// ---------------------------------------------------------------------------

fn check_artifact(case: &DiffCase, p: &PathOutputs) -> Result<(), String> {
    let model = case_model(case);
    let net = compile(&model, &case.ristretto_config()).map_err(|e| format!("compile: {e}"))?;
    let bytes = artifact::encode(&net);
    let decoded = artifact::decode(&bytes).map_err(|e| format!("artifact decode: {e}"))?;
    if decoded != *net {
        return Err("decoded artifact differs from the in-memory compile".to_string());
    }
    if artifact::encode(&decoded) != bytes {
        return Err("re-encoding the decoded artifact is not byte-identical".to_string());
    }
    let run = Session::new(Arc::new(decoded))
        .run(&case.fmap)
        .map_err(|e| format!("session over decoded artifact: {e}"))?;
    if run.output != p.session_out {
        return Err("session over decoded artifact diverges from in-memory output".to_string());
    }
    if run.traces[0].stats != p.session_stats {
        return Err("session over decoded artifact diverges from in-memory stats".to_string());
    }

    // One deterministically chosen bit flip per case must never survive the
    // loader (header corruption trips the magic/version checks; everything
    // else trips a section checksum or a structural validator).
    let pos = (case.index as usize).wrapping_mul(7919).wrapping_add(13) % bytes.len();
    let mut dirty = bytes;
    dirty[pos] ^= 1 << (case.index % 8);
    if artifact::decode(&dirty).is_ok() {
        return Err(format!(
            "corrupted artifact (bit flip at byte {pos}) decoded cleanly"
        ));
    }
    Ok(())
}

/// Checks every oracle family on one case. `Err` carries a human-readable
/// description of the first divergence found.
///
/// # Errors
/// Returns the first divergence (or path error) as a description string.
pub fn check_case(case: &DiffCase) -> Result<(), String> {
    let before = obs::snapshot();

    // Family 1 runs everything at 1 and 4 worker threads; the two
    // evaluations must agree wholesale before either is checked further.
    let pool1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| format!("pool(1): {e}"))?;
    let p1 = pool1.install(|| run_paths(case))?;
    let pool4 = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .map_err(|e| format!("pool(4): {e}"))?;
    let p4 = pool4.install(|| run_paths(case))?;
    if p1 != p4 {
        return Err("1-thread and 4-thread evaluations diverge".to_string());
    }
    check_outputs(case, &p1)?;
    check_roundtrips(case)?;
    check_cycle_model(case, &p1)?;
    check_artifact(case, &p1)?;
    check_fleet(&p1)?;

    // Observability counters only ever accumulate: non-negative by type,
    // and monotone across the whole case (sums and high-water marks both).
    let after = obs::snapshot();
    for ev in obs::Event::ALL {
        if after.get(ev) < before.get(ev) {
            return Err(format!("obs counter {} decreased", ev.name()));
        }
    }
    Ok(())
}

fn tensor3_without_channel(t: &Tensor3, drop: usize) -> Option<Tensor3> {
    let (c, h, w) = t.shape();
    if c <= 1 {
        return None;
    }
    let mut data = Vec::with_capacity((c - 1) * h * w);
    for ci in (0..c).filter(|&ci| ci != drop) {
        data.extend_from_slice(t.channel(ci));
    }
    Tensor3::from_vec(c - 1, h, w, data).ok()
}

fn tensor3_cropped(t: &Tensor3, nh: usize, nw: usize) -> Option<Tensor3> {
    let (c, h, w) = t.shape();
    if nh == 0 || nw == 0 || (nh == h && nw == w) || nh > h || nw > w {
        return None;
    }
    Tensor3::from_fn(c, nh, nw, |ci, y, x| t.get(ci, y, x)).ok()
}

fn tensor4_without_in_channel(k: &Tensor4, drop: usize) -> Option<Tensor4> {
    let (o, i, kh, kw) = k.shape();
    if i <= 1 {
        return None;
    }
    Tensor4::from_fn(o, i - 1, kh, kw, |oc, ic, ky, kx| {
        let src = if ic < drop { ic } else { ic + 1 };
        k.get(oc, src, ky, kx)
    })
    .ok()
}

fn tensor4_without_out_channel(k: &Tensor4, drop: usize) -> Option<Tensor4> {
    let (o, i, kh, kw) = k.shape();
    if o <= 1 {
        return None;
    }
    Tensor4::from_fn(o - 1, i, kh, kw, |oc, ic, ky, kx| {
        let src = if oc < drop { oc } else { oc + 1 };
        k.get(src, ic, ky, kx)
    })
    .ok()
}

fn tensor4_cropped_kernel(k: &Tensor4, nk: usize) -> Option<Tensor4> {
    let (o, i, kh, kw) = k.shape();
    if nk == 0 || nk >= kh.min(kw) {
        return None;
    }
    Tensor4::from_fn(o, i, nk, nk, |oc, ic, ky, kx| k.get(oc, ic, ky, kx)).ok()
}

/// A case stays geometrically valid only while the padded input contains
/// the kernel.
fn geometry_valid(case: &DiffCase) -> bool {
    let (_, h, w) = case.fmap.shape();
    let (_, _, kh, _) = case.kernels.shape();
    kh <= h.min(w) + 2 * case.padding
}

/// Single-step reductions of a case, coarse to fine. Candidates that break
/// the kernel-fits-input constraint are filtered out.
fn reductions(case: &DiffCase) -> Vec<DiffCase> {
    let (c, h, w) = case.fmap.shape();
    let (o, _, kh, _) = case.kernels.shape();
    let mut out = Vec::new();
    // Drop whole channels first — the coarsest reductions.
    for ci in 0..c {
        if let (Some(fmap), Some(kernels)) = (
            tensor3_without_channel(&case.fmap, ci),
            tensor4_without_in_channel(&case.kernels, ci),
        ) {
            out.push(DiffCase {
                fmap,
                kernels,
                ..case.clone()
            });
        }
    }
    for oc in 0..o {
        if let Some(kernels) = tensor4_without_out_channel(&case.kernels, oc) {
            out.push(DiffCase {
                kernels,
                ..case.clone()
            });
        }
    }
    // Crop spatial extents: halve, then shave one row/column.
    for (nh, nw) in [
        (h / 2, w),
        (h, w / 2),
        (h.saturating_sub(1), w),
        (h, w.saturating_sub(1)),
    ] {
        if let Some(fmap) = tensor3_cropped(&case.fmap, nh, nw) {
            out.push(DiffCase {
                fmap,
                ..case.clone()
            });
        }
    }
    // Simplify geometry and configuration.
    if case.stride > 1 {
        out.push(DiffCase {
            stride: 1,
            ..case.clone()
        });
    }
    if case.padding > 0 {
        out.push(DiffCase {
            padding: 0,
            ..case.clone()
        });
    }
    if kh > 1 {
        if let Some(kernels) = tensor4_cropped_kernel(&case.kernels, kh - 1) {
            out.push(DiffCase {
                kernels,
                ..case.clone()
            });
        }
    }
    for (field, value) in [
        ("multipliers", 1usize),
        ("tiles", 1),
        ("tile_h", 1),
        ("tile_w", 1),
    ] {
        let mut cand = case.clone();
        let slot = match field {
            "multipliers" => &mut cand.multipliers,
            "tiles" => &mut cand.tiles,
            "tile_h" => &mut cand.tile_h,
            _ => &mut cand.tile_w,
        };
        if *slot != value {
            *slot = value;
            out.push(cand);
        }
    }
    if case.requant_shift != 0 {
        out.push(DiffCase {
            requant_shift: 0,
            ..case.clone()
        });
    }
    // Zero individual non-zero values (finest reductions, capped).
    let mut zeroed = 0;
    for (ci, y, x, v) in case.fmap.iter_indexed() {
        if v == 0 || zeroed >= 24 {
            continue;
        }
        zeroed += 1;
        let mut data: Vec<i32> = case.fmap.as_slice().to_vec();
        data[(ci * h + y) * w + x] = 0;
        if let Ok(fmap) = Tensor3::from_vec(c, h, w, data) {
            out.push(DiffCase {
                fmap,
                ..case.clone()
            });
        }
    }
    let mut zeroed = 0;
    let (_, i, _, kw) = case.kernels.shape();
    for (oc, ic, ky, kx, v) in case.kernels.iter_indexed() {
        if v == 0 || zeroed >= 24 {
            continue;
        }
        zeroed += 1;
        let mut data: Vec<i32> = case.kernels.as_slice().to_vec();
        data[(((oc * i) + ic) * kh + ky) * kw + kx] = 0;
        if let Ok(kernels) = Tensor4::from_vec(o, i, kh, kw, data) {
            out.push(DiffCase {
                kernels,
                ..case.clone()
            });
        }
    }
    out.retain(geometry_valid);
    out
}

/// Greedily minimizes a failing case under an arbitrary failure predicate,
/// within a bounded predicate-evaluation budget. Returns the smallest case
/// found that still fails.
pub fn shrink_with(case: &DiffCase, fails: &dyn Fn(&DiffCase) -> bool) -> DiffCase {
    let mut current = case.clone();
    let mut budget = 400usize;
    'outer: loop {
        for cand in reductions(&current) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if fails(&cand) {
                current = cand;
                continue 'outer;
            }
        }
        break;
    }
    current
}

/// Minimizes a case that fails [`check_case`].
pub fn shrink(case: &DiffCase) -> DiffCase {
    shrink_with(case, &|c| check_case(c).is_err())
}

/// One divergence found by a run: the original case, the failure text, and
/// (when shrinking was requested) the minimized case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Divergence {
    /// Case index under the run's seed.
    pub index: u64,
    /// Human-readable description of the first failing oracle.
    pub failure: String,
    /// The case as drawn.
    pub case: DiffCase,
    /// The minimized case, when shrinking ran.
    pub shrunk: Option<DiffCase>,
}

/// Result of a differential run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffOutcome {
    /// Number of cases drawn.
    pub cases: u64,
    /// Seed the cases were drawn from.
    pub seed: u64,
    /// Divergences found (empty on a clean run).
    pub divergences: Vec<Divergence>,
}

/// Checks one case end to end, shrinking on failure when requested.
/// Returns `None` when the case passes every oracle.
pub fn check_one(seed: u64, index: u64, shrink_failures: bool) -> Option<Divergence> {
    let case = generate_case(seed, index);
    match check_case(&case) {
        Ok(()) => None,
        Err(failure) => {
            let shrunk = shrink_failures.then(|| shrink(&case));
            Some(Divergence {
                index,
                failure,
                case,
                shrunk,
            })
        }
    }
}

/// Runs `cases` seeded cases and collects every divergence.
pub fn run(cases: u64, seed: u64, shrink_failures: bool) -> DiffOutcome {
    let divergences = (0..cases)
        .filter_map(|index| check_one(seed, index, shrink_failures))
        .collect();
    DiffOutcome {
        cases,
        seed,
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        assert_eq!(generate_case(1, 3), generate_case(1, 3));
        assert_ne!(generate_case(1, 3), generate_case(1, 4));
    }

    #[test]
    fn generated_cases_are_geometrically_valid() {
        for index in 0..64 {
            let case = generate_case(9, index);
            assert!(geometry_valid(&case), "case {index}");
            let geom = case.geom();
            let (_, h, w) = case.fmap.shape();
            let (_, _, k, _) = case.kernels.shape();
            assert!(geom.out_extent(h, k).is_ok() && geom.out_extent(w, k).is_ok());
        }
    }

    #[test]
    fn shrinker_minimizes_under_synthetic_predicate() {
        // Predicate: fails while the fmap still holds a specific value.
        let case = generate_case(5, 0);
        let target = case
            .fmap
            .as_slice()
            .iter()
            .copied()
            .find(|&v| v != 0)
            .unwrap_or(0);
        if target == 0 {
            return; // all-zero draw: nothing to shrink against
        }
        let fails = |c: &DiffCase| c.fmap.as_slice().contains(&target);
        let small = shrink_with(&case, &fails);
        assert!(fails(&small), "shrunk case must still fail");
        assert!(
            small.fmap.len() <= case.fmap.len() && small.kernels.len() <= case.kernels.len(),
            "shrinking must not grow the case"
        );
        let nz_small = small.fmap.count_nonzero() + small.kernels.count_nonzero();
        let nz_orig = case.fmap.count_nonzero() + case.kernels.count_nonzero();
        assert!(nz_small <= nz_orig);
    }

    #[test]
    fn quick_budget_has_zero_divergences() {
        let outcome = run(40, 1, false);
        assert_eq!(outcome.cases, 40);
        assert!(
            outcome.divergences.is_empty(),
            "divergences: {:#?}",
            outcome
                .divergences
                .iter()
                .map(|d| (&d.failure, d.index))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn divergences_serialize_to_json() {
        let case = generate_case(2, 0);
        let d = Divergence {
            index: 0,
            failure: "synthetic".to_string(),
            case: case.clone(),
            shrunk: Some(case),
        };
        let json = serde_json::to_string(&d).unwrap();
        let back: Divergence = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
