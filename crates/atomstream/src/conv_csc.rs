//! Full mixed-precision sparse convolution via condensed streaming
//! computation — the end-to-end pipeline of Fig 6, bit-exact against the
//! dense reference convolution of [`qnn::conv::conv2d`].
//!
//! Per input channel the kernels' channel slice is flattened and compressed
//! once (offline in hardware); the feature map channel is tiled, each tile
//! flattened + compressed (the Atomizer's job) and intersected against the
//! static weight stream; output coordinates follow Eq 1/2, and the strided
//! output is extracted from full-convolution space at the end.

use crate::atom::AtomBits;
use crate::compress::{compress_activations, compress_weights};
use crate::error::AtomError;
use crate::flatten::{flatten_kernel_channel, flatten_tile, flatten_tile_into};
use crate::intersect::{intersect, FullConvAcc, IntersectConfig, IntersectStats};
use crate::kernel::{intersect_planned, Arena, CscScratch, PlanSlot};
use crate::stream::WeightStream;
use qnn::conv::ConvGeometry;
use qnn::error::QnnError;
use qnn::quant::BitWidth;
use qnn::tensor::{AccTensor3, Tensor3, Tensor4};
use serde::{Deserialize, Serialize};

/// Configuration of a CSC convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CscConfig {
    /// Atom granularity (2-bit is the paper's default).
    pub atom_bits: AtomBits,
    /// Atom multipliers per compute tile (`N`, the static stream length).
    pub multipliers: usize,
    /// Feature-map tile height.
    pub tile_h: usize,
    /// Feature-map tile width.
    pub tile_w: usize,
}

impl Default for CscConfig {
    /// The paper's default: 2-bit atoms, 32 multipliers, 8×8 tiles.
    fn default() -> Self {
        Self {
            atom_bits: AtomBits::B2,
            multipliers: 32,
            tile_h: 8,
            tile_w: 8,
        }
    }
}

/// Aggregate work counters for a whole CSC convolution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CscStats {
    /// Intersection counters summed over all channels and tiles.
    pub intersect: IntersectStats,
    /// Non-zero activation values streamed.
    pub act_values: u64,
    /// Non-zero activation atoms streamed (`T` summed over channels).
    pub act_atoms: u64,
    /// Non-zero weight atoms held static (`S` summed over channels).
    pub weight_atoms: u64,
    /// Number of `(channel, tile)` intersections executed.
    pub tiles_processed: u64,
}

impl CscStats {
    /// Accumulates another convolution's counters into this one.
    pub fn merge(&mut self, other: &CscStats) {
        self.intersect.merge(&other.intersect);
        self.act_values += other.act_values;
        self.act_atoms += other.act_atoms;
        self.weight_atoms += other.weight_atoms;
        self.tiles_processed += other.tiles_processed;
    }
}

/// Result of a CSC convolution: the output accumulator plus work counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CscOutput {
    /// Convolution output, identical to the dense reference.
    pub output: AccTensor3,
    /// Work counters.
    pub stats: CscStats,
}

/// A layer's static weight side, compiled once and shared across inputs.
///
/// The paper's weight stream is *static* (§III, Fig 5): kernels are
/// flattened and compressed offline, then intersected against each input's
/// sliding activation stream. This type captures exactly that offline
/// artifact — one shuffled [`WeightStream`] per input channel — so repeated
/// inference amortizes the flatten + compress + shuffle work.
///
/// ```
/// use atomstream::atom::AtomBits;
/// use atomstream::conv_csc::WeightStreamSet;
/// use qnn::quant::BitWidth;
/// use qnn::tensor::Tensor4;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let k = Tensor4::from_vec(1, 1, 2, 2, vec![1, -2, 0, 3])?;
/// let set = WeightStreamSet::compile(&k, BitWidth::W4, AtomBits::B2)?;
/// assert_eq!(set.in_channels(), 1);
/// assert!(set.total_atoms() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightStreamSet {
    streams: Vec<WeightStream>,
    /// Per-channel FNV-1a digests recorded at compile time; the online
    /// detection layer re-hashes each stream before intersection and
    /// rejects any channel whose bits changed since compilation.
    checksums: Vec<u64>,
    out_channels: usize,
    in_channels: usize,
    kernel: usize,
    w_bits: BitWidth,
    atom_bits: AtomBits,
}

impl WeightStreamSet {
    /// Flattens and compresses every input channel's kernel slices into
    /// static shuffled weight streams (the compile phase).
    ///
    /// # Errors
    /// Rejects non-square kernels ([`AtomError::TileShapeMismatch`]) and
    /// weights that do not fit the declared `w_bits`.
    pub fn compile(
        kernels: &Tensor4,
        w_bits: BitWidth,
        atom_bits: AtomBits,
    ) -> Result<Self, AtomError> {
        let (o, i, kh, kw) = kernels.shape();
        if kh != kw {
            return Err(AtomError::TileShapeMismatch {
                expected: (kh, kh),
                actual: (kh, kw),
            });
        }
        let streams: Vec<WeightStream> = (0..i)
            .map(|ci| {
                let w_flat = flatten_kernel_channel(kernels, ci)?;
                compress_weights(&w_flat, w_bits.bits(), atom_bits)
            })
            .collect::<Result<_, _>>()?;
        let checksums = streams.iter().map(WeightStream::checksum).collect();
        Ok(Self {
            streams,
            checksums,
            out_channels: o,
            in_channels: i,
            kernel: kh,
            w_bits,
            atom_bits,
        })
    }

    /// Reassembles a compiled set from externally stored parts (the
    /// artifact deserialization path).
    ///
    /// The recorded per-channel digests are re-verified against the
    /// reconstructed streams before the set is accepted, so a persisted
    /// artifact whose stream bytes drifted from its recorded checksums is
    /// rejected with the same typed error the online integrity monitor
    /// raises. Every entry's output channel is checked against
    /// `out_channels`, so a consistent but out-of-range stream is rejected
    /// here rather than when a kernel addresses its accumulator.
    ///
    /// # Errors
    /// Returns [`AtomError::StreamChecksumMismatch`] naming the first
    /// channel whose recomputed digest disagrees with the recorded one,
    /// and [`AtomError::WeightOutChannelOutOfRange`] naming the first entry
    /// that addresses an output channel `≥ out_channels`.
    ///
    /// # Panics
    /// Panics if `checksums` and `streams` differ in length; callers
    /// reconstruct both from the same channel count.
    pub fn from_parts(
        streams: Vec<WeightStream>,
        checksums: Vec<u64>,
        out_channels: usize,
        kernel: usize,
        w_bits: BitWidth,
        atom_bits: AtomBits,
    ) -> Result<Self, AtomError> {
        assert_eq!(
            streams.len(),
            checksums.len(),
            "one recorded checksum per stream"
        );
        let in_channels = streams.len();
        let set = Self {
            streams,
            checksums,
            out_channels,
            in_channels,
            kernel,
            w_bits,
            atom_bits,
        };
        for (channel, stream) in set.streams.iter().enumerate() {
            set.verify_channel(channel)?;
            for (index, e) in stream.entries().iter().enumerate() {
                if e.out_ch as usize >= out_channels {
                    return Err(AtomError::WeightOutChannelOutOfRange {
                        channel,
                        index,
                        out_ch: e.out_ch,
                        out_channels,
                    });
                }
            }
        }
        Ok(set)
    }

    /// The per-input-channel static streams, in channel order.
    pub fn streams(&self) -> &[WeightStream] {
        &self.streams
    }

    /// The static stream for one input channel.
    pub fn stream(&self, channel: usize) -> &WeightStream {
        &self.streams[channel]
    }

    /// Output channels covered by each stream.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Number of input channels (= number of streams).
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Square kernel extent.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Declared weight bit-width the streams were compiled with.
    pub fn w_bits(&self) -> BitWidth {
        self.w_bits
    }

    /// Atom granularity the streams were compiled with.
    pub fn atom_bits(&self) -> AtomBits {
        self.atom_bits
    }

    /// Total non-zero weight atoms across all channels (`S` summed).
    pub fn total_atoms(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }

    /// Non-zero weight atoms in one channel's stream.
    pub fn atoms(&self, channel: usize) -> u64 {
        self.streams[channel].len() as u64
    }

    /// The compile-time FNV-1a digest for one channel's stream.
    ///
    /// # Panics
    /// Panics if `channel` is out of range.
    pub fn checksum(&self, channel: usize) -> u64 {
        self.checksums[channel]
    }

    /// Re-hashes one channel's stream and compares it against the digest
    /// recorded at compile time — the always-on integrity monitor the run
    /// paths invoke before intersecting a channel.
    ///
    /// # Errors
    /// Returns [`AtomError::StreamChecksumMismatch`] naming the channel and
    /// both digests when the stream's bits changed since compilation.
    ///
    /// # Panics
    /// Panics if `channel` is out of range.
    pub fn verify_channel(&self, channel: usize) -> Result<(), AtomError> {
        let actual = self.streams[channel].checksum();
        let expected = self.checksums[channel];
        if actual != expected {
            return Err(AtomError::StreamChecksumMismatch {
                channel,
                expected,
                actual,
            });
        }
        Ok(())
    }
}

/// Runs a sparse mixed-precision convolution through the CSC pipeline.
///
/// `a_bits`/`w_bits` declare the quantized widths of activations and
/// weights; the result is bit-exact with [`qnn::conv::conv2d`] on the same
/// inputs for every combination of widths, granularity, stride and padding.
///
/// ```
/// use atomstream::conv_csc::{conv2d_csc, CscConfig};
/// use qnn::conv::{conv2d, ConvGeometry};
/// use qnn::quant::BitWidth;
/// use qnn::tensor::{Tensor3, Tensor4};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fmap = Tensor3::from_vec(1, 3, 3, vec![1, 0, 2, 0, 3, 0, 4, 0, 5])?;
/// let k = Tensor4::from_vec(1, 1, 2, 2, vec![1, -2, 0, 3])?;
/// let geom = ConvGeometry::default();
/// let csc = conv2d_csc(&fmap, &k, geom, BitWidth::W4, BitWidth::W4, &CscConfig::default())?;
/// assert_eq!(csc.output, conv2d(&fmap, &k, geom)?);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
/// Returns geometry errors from the `qnn` substrate (channel mismatch,
/// kernel larger than padded input) and atomization errors when values do
/// not fit the declared widths.
pub fn conv2d_csc(
    fmap: &Tensor3,
    kernels: &Tensor4,
    geom: ConvGeometry,
    a_bits: BitWidth,
    w_bits: BitWidth,
    cfg: &CscConfig,
) -> Result<CscOutput, AtomError> {
    let weights = WeightStreamSet::compile(kernels, w_bits, cfg.atom_bits)?;
    conv2d_csc_streams_with(fmap, &weights, geom, a_bits, cfg, &CscScratch::new())
}

/// Validated run-phase dimensions shared by every kernel variant:
/// `(c, h, w, o, k, out_h, out_w)`.
type RunDims = (usize, usize, usize, usize, usize, usize, usize);

/// Validates the run-phase inputs shared by every kernel variant and
/// returns `(c, h, w, o, k, out_h, out_w)`.
fn validate_run(
    fmap: &Tensor3,
    weights: &WeightStreamSet,
    geom: ConvGeometry,
    cfg: &CscConfig,
) -> Result<RunDims, AtomError> {
    let (c, h, w) = fmap.shape();
    let (o, i, k) = (
        weights.out_channels(),
        weights.in_channels(),
        weights.kernel(),
    );
    if c != i {
        return Err(QnnError::ChannelMismatch { fmap: c, kernel: i }.into());
    }
    if cfg.atom_bits != weights.atom_bits() {
        return Err(AtomError::GranularityMismatch {
            compiled: weights.atom_bits().bits(),
            requested: cfg.atom_bits.bits(),
        });
    }
    let out_h = geom.out_extent(h, k)?;
    let out_w = geom.out_extent(w, k)?;
    if cfg.tile_h == 0 || cfg.tile_w == 0 {
        return Err(QnnError::EmptyDimension("tile extent").into());
    }
    Ok((c, h, w, o, k, out_h, out_w))
}

/// Runs the per-input half of a CSC convolution against precompiled weight
/// streams (the run phase of the compile/run split) with an explicit,
/// reusable [`CscScratch`] arena.
///
/// Only activation-side work happens here — tiling, flattening, zero-atom
/// squeezing and the stream intersections. [`conv2d_csc`] is exactly
/// [`WeightStreamSet::compile`] followed by this function on a fresh
/// arena, so both paths produce byte-identical outputs and [`CscStats`].
///
/// Input channels run on the calling thread, in channel order, each
/// intersecting straight into the arena's one accumulator; the first
/// failing channel ends the call with its error. Retaining the arena
/// across calls (one arena per layer, as the inference engine's `Session`
/// does) amortizes weight-plan compilation and makes steady-state
/// inference allocate zero accumulator planes per input; see
/// [`CscScratch`]. Results — output, [`CscStats`] and recorded
/// observability events — are byte-identical to
/// [`conv2d_csc_streams_reference`] on every input it accepts, with any
/// arena state.
///
/// ```
/// use atomstream::conv_csc::{conv2d_csc, conv2d_csc_streams_with, CscConfig, WeightStreamSet};
/// use atomstream::kernel::CscScratch;
/// use qnn::conv::ConvGeometry;
/// use qnn::quant::BitWidth;
/// use qnn::tensor::{Tensor3, Tensor4};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fmap = Tensor3::from_vec(1, 3, 3, vec![1, 0, 2, 0, 3, 0, 4, 0, 5])?;
/// let k = Tensor4::from_vec(1, 1, 2, 2, vec![1, -2, 0, 3])?;
/// let (geom, cfg) = (ConvGeometry::default(), CscConfig::default());
/// let weights = WeightStreamSet::compile(&k, BitWidth::W4, cfg.atom_bits)?;
/// let scratch = CscScratch::new();
/// let run = conv2d_csc_streams_with(&fmap, &weights, geom, BitWidth::W4, &cfg, &scratch)?;
/// let direct = conv2d_csc(&fmap, &k, geom, BitWidth::W4, BitWidth::W4, &cfg)?;
/// assert_eq!(run, direct);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
/// Returns [`AtomError::GranularityMismatch`] when `cfg.atom_bits` differs
/// from the granularity the streams were compiled with, plus the geometry
/// and atomization errors of [`conv2d_csc`].
pub fn conv2d_csc_streams_with(
    fmap: &Tensor3,
    weights: &WeightStreamSet,
    geom: ConvGeometry,
    a_bits: BitWidth,
    cfg: &CscConfig,
    scratch: &CscScratch,
) -> Result<CscOutput, AtomError> {
    let _span = obs::span("csc.conv2d");
    let (c, h, w, o, k, out_h, out_w) = validate_run(fmap, weights, geom, cfg)?;
    let icfg = IntersectConfig {
        multipliers: cfg.multipliers,
    };

    // One lock for the whole convolution: every input channel adds into
    // the arena's one accumulator, in channel order (§IV-C2).
    let mut arena = scratch.lock();
    let Arena { plans, work } = &mut *arena;
    plans.resize_with(plans.len().max(c), PlanSlot::default);
    let mut stats = CscStats::default();
    let mut taken = false;
    for (ci, plan_slot) in plans[..c].iter_mut().enumerate() {
        // Online integrity monitor: reject a weight stream whose bits
        // changed since compilation before it can pollute the accumulate
        // buffer.
        weights.verify_channel(ci)?;
        // The static stream was compiled offline; only its size is
        // accounted here so stats match the compile-inline path.
        let w_stream = weights.stream(ci);
        stats.weight_atoms += w_stream.len() as u64;
        if w_stream.is_empty() {
            continue;
        }
        // The first channel with weights takes the accumulator; later
        // channels add into it.
        let slot = match work {
            Some(slot) if taken => slot,
            _ => {
                taken = true;
                scratch.checkout(work, o, h, w, k)?
            }
        };

        // Pre-intersection filter, activation side: one pass over the
        // channel plane yields the per-tile occupancy bitmap. An entirely
        // zero channel contributes nothing.
        slot.occ
            .scan(fmap.channel(ci), h, w, cfg.tile_h, cfg.tile_w);
        if slot.occ.total() == 0 {
            continue;
        }

        // Static side: the channel's weight stream compiled into (or
        // fetched from) the plan cache, keyed by its checksum so the
        // verified bits and the executed plan can never diverge.
        let (fh, fw) = slot.acc.plane_shape();
        let plan = plan_slot.prepare(w_stream, weights.checksum(ci), k, o, fh, fw)?;
        plan.planes_into(&mut slot.dirty);

        // Online phase: walk only the occupied tiles; the Atomizer
        // squeezes zero atoms out of each tile's non-zero activations on
        // the fly, into reused scratch buffers.
        for (ty, y0) in (0..h).step_by(cfg.tile_h).enumerate() {
            for (tx, x0) in (0..w).step_by(cfg.tile_w).enumerate() {
                if !slot.occ.occupied(ty, tx) {
                    continue;
                }
                flatten_tile_into(fmap, ci, y0, x0, cfg.tile_h, cfg.tile_w, &mut slot.flat);
                let a_stream = compress_activations(&slot.flat, a_bits.bits(), cfg.atom_bits)?;
                stats.act_values += a_stream.value_count() as u64;
                stats.act_atoms += a_stream.len() as u64;
                stats.tiles_processed += 1;
                let s = intersect_planned(
                    plan,
                    &a_stream,
                    icfg,
                    &mut slot.acc,
                    y0,
                    x0,
                    &mut slot.folded,
                );
                stats.intersect.merge(&s);
            }
        }
    }

    let output = match work {
        Some(slot) if taken => slot.acc.extract(geom, out_h, out_w)?,
        _ => AccTensor3::zeros(o, out_h, out_w)?,
    };
    Ok(CscOutput { output, stats })
}

/// The reference run phase: the straight-line value-major kernel
/// ([`intersect`]) with a fresh accumulator per channel and no
/// pre-intersection filtering.
///
/// Kept verbatim as the differential oracle's "before" side: the
/// production path ([`conv2d_csc_streams_with`]) must be byte-identical to
/// this function — output, stats and recorded observability events — on
/// every input it accepts, which `repro diffcheck` and the determinism
/// suites verify.
/// It is also the baseline the `BENCH_*.json` trajectory measures speedups
/// against.
///
/// # Errors
/// Exactly the error surface of [`conv2d_csc_streams_with`].
pub fn conv2d_csc_streams_reference(
    fmap: &Tensor3,
    weights: &WeightStreamSet,
    geom: ConvGeometry,
    a_bits: BitWidth,
    cfg: &CscConfig,
) -> Result<CscOutput, AtomError> {
    let _span = obs::span("csc.conv2d");
    let (c, h, w, o, k, out_h, out_w) = validate_run(fmap, weights, geom, cfg)?;
    let icfg = IntersectConfig {
        multipliers: cfg.multipliers,
    };

    // A fresh accumulator per channel, merged in channel order: the
    // original kernel structure.
    let per_channel: Vec<(Option<FullConvAcc>, CscStats)> = (0..c)
        .map(|ci| {
            let mut stats = CscStats::default();
            weights.verify_channel(ci)?;
            let w_stream = weights.stream(ci);
            stats.weight_atoms += w_stream.len() as u64;
            if w_stream.is_empty() {
                return Ok((None, stats));
            }

            let mut acc = FullConvAcc::new(o, h, w, k)?;
            for y0 in (0..h).step_by(cfg.tile_h) {
                for x0 in (0..w).step_by(cfg.tile_w) {
                    let a_flat = flatten_tile(fmap, ci, y0, x0, cfg.tile_h, cfg.tile_w);
                    if a_flat.is_empty() {
                        continue;
                    }
                    let a_stream = compress_activations(&a_flat, a_bits.bits(), cfg.atom_bits)?;
                    stats.act_values += a_stream.value_count() as u64;
                    stats.act_atoms += a_stream.len() as u64;
                    stats.tiles_processed += 1;
                    let s = intersect(w_stream, &a_stream, icfg, &mut acc, y0, x0)?;
                    stats.intersect.merge(&s);
                }
            }
            Ok((Some(acc), stats))
        })
        .collect::<Result<_, AtomError>>()?;

    let mut acc = FullConvAcc::new(o, h, w, k)?;
    let mut stats = CscStats::default();
    for (channel_acc, channel_stats) in per_channel {
        if let Some(channel_acc) = channel_acc {
            acc.merge(&channel_acc);
        }
        stats.merge(&channel_stats);
    }

    let output = acc.extract(geom, out_h, out_w)?;
    Ok(CscOutput { output, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qnn::conv::conv2d;

    fn check_against_dense(
        fmap: &Tensor3,
        kernels: &Tensor4,
        geom: ConvGeometry,
        a_bits: BitWidth,
        w_bits: BitWidth,
        cfg: &CscConfig,
    ) -> CscStats {
        let dense = conv2d(fmap, kernels, geom).expect("dense conv");
        let csc = conv2d_csc(fmap, kernels, geom, a_bits, w_bits, cfg).expect("csc conv");
        assert_eq!(csc.output, dense);
        csc.stats
    }

    #[test]
    fn fig6_style_example() {
        // 8-bit 2x2 feature map tile convolved with two 4-bit 2x2 kernels.
        let fmap = Tensor3::from_vec(1, 2, 2, vec![29, 0, 13, 200]).unwrap();
        let kernels = Tensor4::from_vec(2, 1, 2, 2, vec![5, 0, -3, 1, 0, 7, -7, 2]).unwrap();
        let geom = ConvGeometry::unit_stride(1);
        let stats = check_against_dense(
            &fmap,
            &kernels,
            geom,
            BitWidth::W8,
            BitWidth::W4,
            &CscConfig::default(),
        );
        assert!(stats.act_atoms > 0 && stats.weight_atoms > 0);
        // Zero value at (1,0) contributes no atoms: 29 (3 atoms) + 13 (2) +
        // 200 = 0b11001000 (2 atoms) = 7.
        assert_eq!(stats.act_atoms, 7);
    }

    #[test]
    fn multi_channel_strided_padded() {
        let fmap = Tensor3::from_fn(3, 6, 5, |c, y, x| {
            if (c + 2 * y + x) % 3 == 0 {
                ((c * 31 + y * 7 + x * 13) % 255) as i32
            } else {
                0
            }
        })
        .unwrap();
        let kernels = Tensor4::from_fn(4, 3, 3, 3, |o, i, ky, kx| {
            let v = (o * 17 + i * 5 + ky * 3 + kx) as i32 % 15 - 7;
            if v % 4 == 0 {
                0
            } else {
                v
            }
        })
        .unwrap();
        for stride in [1usize, 2] {
            for pad in [0usize, 1, 2] {
                let geom = ConvGeometry::new(stride, pad).unwrap();
                check_against_dense(
                    &fmap,
                    &kernels,
                    geom,
                    BitWidth::W8,
                    BitWidth::W4,
                    &CscConfig {
                        tile_h: 3,
                        tile_w: 2,
                        ..CscConfig::default()
                    },
                );
            }
        }
    }

    #[test]
    fn all_granularities_and_widths() {
        let fmap = Tensor3::from_vec(
            2,
            3,
            3,
            vec![
                3, 0, 1, 0, 2, 0, 1, 0, 3, //
                0, 1, 0, 2, 0, 3, 0, 1, 0,
            ],
        )
        .unwrap();
        let kernels = Tensor4::from_vec(
            2,
            2,
            2,
            2,
            vec![1, -1, 0, 1, -1, 0, 1, 0, 0, 1, -1, 1, 1, 0, 0, -1],
        )
        .unwrap();
        for gran in [AtomBits::B1, AtomBits::B2, AtomBits::B3] {
            for (ab, wb) in [
                (BitWidth::W2, BitWidth::W2),
                (BitWidth::W4, BitWidth::W2),
                (BitWidth::W8, BitWidth::W8),
            ] {
                let cfg = CscConfig {
                    atom_bits: gran,
                    multipliers: 4,
                    tile_h: 2,
                    tile_w: 2,
                };
                check_against_dense(&fmap, &kernels, ConvGeometry::default(), ab, wb, &cfg);
            }
        }
    }

    #[test]
    fn tile_shape_never_changes_result() {
        let fmap = Tensor3::from_fn(2, 7, 9, |c, y, x| ((c + y * x) % 5) as i32).unwrap();
        let kernels = Tensor4::from_fn(3, 2, 3, 3, |o, i, ky, kx| {
            ((o + i + ky + kx) % 7) as i32 - 3
        })
        .unwrap();
        let geom = ConvGeometry::unit_stride(1);
        let reference = conv2d(&fmap, &kernels, geom).unwrap();
        for (th, tw) in [(1, 1), (2, 3), (7, 9), (4, 4), (16, 16)] {
            let cfg = CscConfig {
                tile_h: th,
                tile_w: tw,
                ..CscConfig::default()
            };
            let out = conv2d_csc(&fmap, &kernels, geom, BitWidth::W4, BitWidth::W4, &cfg)
                .unwrap()
                .output;
            assert_eq!(out, reference, "tile {th}x{tw}");
        }
    }

    #[test]
    fn stats_step_count_obeys_eq3_per_tile() {
        // Single channel, one tile covering everything: steps should equal
        // ideal_steps(t, S, N).
        let fmap = Tensor3::from_vec(1, 2, 2, vec![3, 1, 0, 2]).unwrap();
        let kernels = Tensor4::from_vec(1, 1, 2, 2, vec![1, 2, 3, 0]).unwrap();
        let cfg = CscConfig {
            multipliers: 2,
            tile_h: 2,
            tile_w: 2,
            ..CscConfig::default()
        };
        let csc = conv2d_csc(
            &fmap,
            &kernels,
            ConvGeometry::unit_stride(1),
            BitWidth::W2,
            BitWidth::W2,
            &cfg,
        )
        .unwrap();
        let t = csc.stats.act_atoms;
        let s = csc.stats.weight_atoms;
        assert_eq!(
            csc.stats.intersect.steps,
            crate::cycles::ideal_steps(t, s, 2)
        );
    }

    #[test]
    fn precompiled_streams_match_direct_path() {
        let fmap = Tensor3::from_fn(2, 5, 5, |c, y, x| ((c + y * 2 + x) % 4) as i32).unwrap();
        let kernels = Tensor4::from_fn(3, 2, 3, 3, |o, i, ky, kx| {
            ((o + i + ky + kx) % 5) as i32 - 2
        })
        .unwrap();
        let geom = ConvGeometry::unit_stride(1);
        let cfg = CscConfig {
            tile_h: 3,
            tile_w: 3,
            ..CscConfig::default()
        };
        let weights = WeightStreamSet::compile(&kernels, BitWidth::W4, cfg.atom_bits).unwrap();
        assert_eq!(weights.in_channels(), 2);
        assert_eq!(weights.out_channels(), 3);
        assert_eq!(weights.kernel(), 3);
        assert_eq!(weights.w_bits(), BitWidth::W4);
        let direct = conv2d_csc(&fmap, &kernels, geom, BitWidth::W8, BitWidth::W4, &cfg).unwrap();
        let via_streams = conv2d_csc_streams_with(
            &fmap,
            &weights,
            geom,
            BitWidth::W8,
            &cfg,
            &CscScratch::new(),
        )
        .unwrap();
        assert_eq!(via_streams, direct);
        assert_eq!(weights.total_atoms(), direct.stats.weight_atoms);
        assert_eq!(
            weights.atoms(0) + weights.atoms(1),
            direct.stats.weight_atoms
        );
    }

    #[test]
    fn compile_records_verifiable_checksums() {
        let kernels = Tensor4::from_fn(2, 3, 3, 3, |o, i, ky, kx| {
            ((o * 7 + i * 3 + ky + kx) % 5) as i32 - 2
        })
        .unwrap();
        let weights = WeightStreamSet::compile(&kernels, BitWidth::W4, AtomBits::B2).unwrap();
        for ci in 0..3 {
            assert_eq!(weights.checksum(ci), weights.stream(ci).checksum());
            weights.verify_channel(ci).unwrap();
        }
    }

    #[test]
    fn corrupted_stream_fails_verification_and_run() {
        let fmap = Tensor3::from_fn(2, 4, 4, |c, y, x| ((c + y + x) % 3) as i32).unwrap();
        let kernels = Tensor4::from_fn(2, 2, 2, 2, |o, i, ky, kx| {
            ((o + i + ky + kx) % 3) as i32 - 1
        })
        .unwrap();
        let mut weights = WeightStreamSet::compile(&kernels, BitWidth::W4, AtomBits::B2).unwrap();
        // Corrupt one entry's magnitude in channel 1, exactly as the fault
        // injector's weight-stream model does.
        let mut entries = weights.streams[1].entries().to_vec();
        entries[0].atom.mag ^= 1;
        weights.streams[1] = WeightStream::from_entries(entries);
        assert!(weights.verify_channel(0).is_ok());
        let err = weights.verify_channel(1).unwrap_err();
        assert!(matches!(
            err,
            AtomError::StreamChecksumMismatch { channel: 1, .. }
        ));
        let run = conv2d_csc_streams_with(
            &fmap,
            &weights,
            ConvGeometry::default(),
            BitWidth::W4,
            &CscConfig::default(),
            &CscScratch::new(),
        );
        assert!(matches!(
            run,
            Err(AtomError::StreamChecksumMismatch { channel: 1, .. })
        ));
    }

    #[test]
    fn failed_convolution_leaves_the_arena_clean() {
        let kernels = Tensor4::from_fn(3, 2, 2, 2, |o, i, y, x| ((o + i + y + x) % 5) as i32 - 2);
        let weights =
            WeightStreamSet::compile(&kernels.unwrap(), BitWidth::W4, AtomBits::B2).unwrap();
        let (geom, cfg) = (ConvGeometry::default(), CscConfig::default());
        let run = |fmap: &Tensor3, scratch: &CscScratch| {
            conv2d_csc_streams_with(fmap, &weights, geom, BitWidth::W4, &cfg, scratch)
        };
        // Channel 0 fits 4 bits and writes planes; channel 1 holds a value
        // too wide for 4 bits, so the call fails after channel 0 ran.
        let bad = Tensor3::from_fn(2, 4, 4, |c, y, x| [(y + x) as i32 % 3, 99][c]).unwrap();
        let scratch = CscScratch::new();
        let err = run(&bad, &scratch).unwrap_err();
        assert_eq!(err, AtomError::ValueTooWide { value: 99, bits: 4 });
        assert!(!scratch.lock().work.as_ref().unwrap().dirty.is_empty());
        // The next convolution zeroes what the failed one wrote.
        let good = Tensor3::from_fn(2, 4, 4, |c, y, x| ((c + y * x) % 4) as i32).unwrap();
        let reused = run(&good, &scratch).unwrap();
        assert_eq!(reused, run(&good, &CscScratch::new()).unwrap());
        assert_eq!(scratch.plane_allocations(), 1);
    }

    #[test]
    fn granularity_mismatch_is_rejected() {
        let fmap = Tensor3::from_vec(1, 2, 2, vec![1, 0, 2, 3]).unwrap();
        let kernels = Tensor4::from_vec(1, 1, 2, 2, vec![1, -1, 0, 2]).unwrap();
        let weights = WeightStreamSet::compile(&kernels, BitWidth::W4, AtomBits::B1).unwrap();
        let cfg = CscConfig::default(); // B2 atoms
        assert!(matches!(
            conv2d_csc_streams_with(
                &fmap,
                &weights,
                ConvGeometry::default(),
                BitWidth::W4,
                &cfg,
                &CscScratch::new()
            ),
            Err(AtomError::GranularityMismatch {
                compiled: 1,
                requested: 2
            })
        ));
    }

    #[test]
    fn rejects_non_square_kernels_and_channel_mismatch() {
        let fmap = Tensor3::zeros(2, 4, 4).unwrap();
        let bad_k = Tensor4::zeros(1, 2, 2, 3).unwrap();
        assert!(matches!(
            conv2d_csc(
                &fmap,
                &bad_k,
                ConvGeometry::default(),
                BitWidth::W4,
                BitWidth::W4,
                &CscConfig::default()
            ),
            Err(AtomError::TileShapeMismatch { .. })
        ));
        let mismatch = Tensor4::zeros(1, 3, 2, 2).unwrap();
        assert!(conv2d_csc(
            &fmap,
            &mismatch,
            ConvGeometry::default(),
            BitWidth::W4,
            BitWidth::W4,
            &CscConfig::default()
        )
        .is_err());
    }

    /// Activation magnitudes biased hard toward the unsigned 16-bit
    /// maximum, the operands that stress the accumulation shifts most.
    fn extreme_act() -> impl Strategy<Value = i32> {
        prop_oneof![
            3 => Just(0xFFFFi32),
            1 => Just(0i32),
            1 => 0i32..=0xFFFF,
        ]
    }

    /// Weight magnitudes biased toward ±(2^16 − 1), the widest operands the
    /// spatial extension accepts.
    fn extreme_weight() -> impl Strategy<Value = i32> {
        prop_oneof![
            2 => Just(0xFFFFi32),
            2 => Just(-0xFFFFi32),
            1 => Just(0i32),
            1 => -0xFFFFi32..=0xFFFF,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Maximal-magnitude 16-bit operands through the §IV-D spatial
        /// extension (16-bit atoms shifted over `{0, 2, …, 14}`). Every
        /// partial sum runs through the guarded shifts (`shl_guarded`), so
        /// a silent i64 overflow would abort the debug build rather than
        /// corrupt the comparison against the dense reference.
        #[test]
        fn maximal_magnitude_16bit_matches_dense(
            acts in proptest::collection::vec(extreme_act(), 2 * 4 * 4),
            wts in proptest::collection::vec(extreme_weight(), 2 * 2 * 3 * 3),
        ) {
            let fmap = Tensor3::from_vec(2, 4, 4, acts).unwrap();
            let kernels = Tensor4::from_vec(2, 2, 3, 3, wts).unwrap();
            let geom = ConvGeometry::unit_stride(1);
            let dense = conv2d(&fmap, &kernels, geom).unwrap();
            let spatial = conv2d_csc(
                &fmap,
                &kernels,
                geom,
                BitWidth::W16,
                BitWidth::W16,
                &CscConfig::default(),
            )
            .unwrap();
            prop_assert_eq!(&spatial.output, &dense);
        }
    }
}
