//! The production intersection kernel: a scratch-arena, plan-compiled,
//! occupancy-filtered rewrite of [`crate::intersect::intersect`] that is
//! byte-identical to it on every input.
//!
//! Three structural levels separate this kernel from the reference:
//!
//! 1. **Zero-alloc scratch arena** ([`CscScratch`]) — one [`FullConvAcc`]
//!    per layer, which every input channel adds into in channel order,
//!    plus the folded-value and flattened-tile vecs, reused across
//!    convolutions. The next convolution to take the accumulator performs
//!    a *dirty-region reset* (only the output-channel planes the weight
//!    plans actually wrote are zeroed), so steady-state inference
//!    allocates no accumulator planes per input.
//! 2. **Bitmap / inner-join pre-intersection filter** — a one-pass
//!    `TileOccupancy` scan of the channel plane produces a per-tile
//!    occupancy bitmap; empty tiles (and entirely zero channels) are
//!    skipped before any flatten/compress/multiply work, in the spirit of
//!    SCNN/SparTen's index intersection. On the static side,
//!    `WeightPlan` regroups the weight stream per output channel, so the
//!    planes a channel can touch are known up front (the dirty list) and
//!    consecutive atoms write the same accumulator region.
//! 3. **Branch-free inner loop** (`intersect_planned`) — the sign is
//!    hoisted into a signed coefficient `±(mag << shift)` at plan-compile
//!    time, each atom's plane base index is precomputed once per bind, and
//!    the per-`add` assert plus 3-term index recomputation of the
//!    reference are replaced by one slice-bounds check per atom over a
//!    flat `i64` lane.
//!
//! # Byte-identity argument
//!
//! The rewrite is exact, not approximate, because every transformation is
//! an identity over `i64` arithmetic:
//!
//! - *Coefficient hoisting*: the reference delivers
//!   `±((mag · vsum) << shift)`; the plan delivers
//!   `(±(mag << shift)) · vsum`. These are equal as `i64` operations
//!   (two's-complement multiplication and shift commute this way
//!   bit-exactly, including on wrap), and both sides guard the shift with
//!   the same `shl_guarded` debug assertion.
//! - *Atom regrouping*: per-cell accumulation order changes, but `i64`
//!   addition is commutative and associative (mod 2⁶⁴), so every
//!   accumulator word ends identical.
//! - *Value folding*: both kernels fold a value's atoms in stream order
//!   with the same `shl_guarded` adds, producing the same `vsum`.
//! - *Skipping*: a tile is skipped iff its occupancy count is zero iff its
//!   flattened stream is empty — exactly the tiles the reference skips.
//!   An all-zero channel contributes an all-zero accumulator in the
//!   reference, which is the identity under plane merge, and nothing here.
//! - *One accumulator*: the reference merges per-channel accumulators in
//!   channel order; here every channel adds straight into one. Both sum
//!   the same `i64` products into the same cells.
//!
//! The dual-kernel differential oracle in `bench`'s `diffcheck` plus the
//! determinism suites enforce this equivalence on every run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::error::AtomError;
use crate::intersect::{
    shl_guarded, validate_weight_coords, FullConvAcc, IntersectConfig, IntersectStats,
};
use crate::stream::{ActivationStream, WeightStream};
use qnn::error::QnnError;

/// A weight stream compiled into the fast kernel's execution form: atoms
/// regrouped per output channel, signs and shifts folded into signed
/// coefficients, and Eq 1 kernel offsets inverted once.
#[derive(Debug, Clone, Default)]
pub(crate) struct WeightPlan {
    k: usize,
    out_c: usize,
    /// `±(mag << shift)` per atom, in out-channel-grouped order.
    coef: Vec<i64>,
    /// Per-atom `(out_ch, k−1−y, k−1−x)`, kept to rebind `base` when the
    /// plane shape changes.
    addr: Vec<(u16, u32, u32)>,
    /// Contiguous `(out_ch, start, end)` runs into `coef`/`addr`/`base`.
    groups: Vec<(u16, u32, u32)>,
    /// Per-atom plane base index `(oc·fh + ky_inv)·fw + kx_inv` for the
    /// currently bound plane shape.
    base: Vec<usize>,
    /// Plane shape `(fh, fw)` the `base` indices were computed for.
    bound: Option<(usize, usize)>,
}

impl WeightPlan {
    /// Compiles `stream` for kernel extent `k` and `out_c` output channels.
    ///
    /// Atoms are regrouped by output channel with a stable counting sort;
    /// within a channel the original stream order is preserved. Weight
    /// coordinates are validated against `k` here, once per compile,
    /// instead of wrapping deep inside the accumulation loop.
    ///
    /// # Errors
    /// Returns [`AtomError::WeightCoordOutOfKernel`] naming the offending
    /// atom when a kernel coordinate lies outside extent `k`.
    ///
    /// # Panics
    /// Panics if an entry's output channel is `≥ out_c` (the same "address
    /// out of bounds" contract as [`FullConvAcc::add`]).
    fn compile(stream: &WeightStream, k: usize, out_c: usize) -> Result<Self, AtomError> {
        validate_weight_coords(stream, k)?;
        let entries = stream.entries();
        let mut counts = vec![0u32; out_c];
        for e in entries {
            assert!((e.out_ch as usize) < out_c, "address out of bounds");
            counts[e.out_ch as usize] += 1;
        }
        // Prefix sums give each channel's run start; a second pass scatters
        // the atoms stably into grouped order.
        let mut starts = vec![0u32; out_c];
        let mut acc = 0u32;
        for (oc, &n) in counts.iter().enumerate() {
            starts[oc] = acc;
            acc += n;
        }
        let mut coef = vec![0i64; entries.len()];
        let mut addr = vec![(0u16, 0u32, 0u32); entries.len()];
        let mut cursor = starts.clone();
        for e in entries {
            let slot = cursor[e.out_ch as usize] as usize;
            cursor[e.out_ch as usize] += 1;
            let magnitude = shl_guarded(e.atom.mag as i64, e.atom.shift as u32);
            coef[slot] = if e.atom.negative {
                -magnitude
            } else {
                magnitude
            };
            addr[slot] = (
                e.out_ch,
                (k - 1 - e.y as usize) as u32,
                (k - 1 - e.x as usize) as u32,
            );
        }
        let groups = counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(oc, &n)| (oc as u16, starts[oc], starts[oc] + n))
            .collect();
        Ok(Self {
            k,
            out_c,
            coef,
            addr,
            groups,
            base: Vec::new(),
            bound: None,
        })
    }

    /// Number of atoms in the plan (= the compiled stream's length).
    fn atoms(&self) -> usize {
        self.coef.len()
    }

    /// Precomputes each atom's plane base index for plane shape
    /// `(fh, fw)`. Idempotent per shape; a plan serving one layer binds
    /// once and never again.
    fn bind(&mut self, fh: usize, fw: usize) {
        if self.bound == Some((fh, fw)) {
            return;
        }
        self.base.clear();
        self.base
            .extend(self.addr.iter().map(|&(oc, ky_inv, kx_inv)| {
                (oc as usize * fh + ky_inv as usize) * fw + kx_inv as usize
            }));
        self.bound = Some((fh, fw));
    }

    /// Appends the output-channel planes this plan writes (its dirty list)
    /// in ascending channel order.
    pub(crate) fn planes_into(&self, dirty: &mut Vec<u16>) {
        dirty.extend(self.groups.iter().map(|&(oc, _, _)| oc));
    }
}

/// The `(out_ch, atom_count)` run table the branch-free plan kernel would
/// build for one stream — the persisted "plan geometry" of the artifact
/// format.
///
/// The run table is a pure function of the stream, so artifacts store it
/// only as a cross-check: the loader recomputes it with this function and
/// rejects any artifact whose recorded geometry disagrees (a mismatch
/// means the streams and the plan section drifted apart).
///
/// # Errors
/// Propagates the plan compiler's coordinate validation
/// ([`AtomError::WeightCoordOutOfKernel`]).
pub fn plan_group_geometry(
    stream: &WeightStream,
    k: usize,
    out_c: usize,
) -> Result<Vec<(u16, u32)>, AtomError> {
    let plan = WeightPlan::compile(stream, k, out_c)?;
    Ok(plan.groups.iter().map(|&(oc, s, e)| (oc, e - s)).collect())
}

/// A cached, lazily compiled [`WeightPlan`] for one input channel, keyed by
/// the stream's compile-time checksum so a swapped stream recompiles
/// instead of executing a stale plan.
#[derive(Debug, Default)]
pub(crate) struct PlanSlot {
    /// `(stream checksum, k, out_c)` the held plan was compiled for.
    key: Option<(u64, usize, usize)>,
    plan: WeightPlan,
}

impl PlanSlot {
    /// Returns the plan for `stream`, compiling or rebinding as needed.
    ///
    /// # Errors
    /// Propagates [`WeightPlan::compile`] errors.
    pub(crate) fn prepare(
        &mut self,
        stream: &WeightStream,
        checksum: u64,
        k: usize,
        out_c: usize,
        fh: usize,
        fw: usize,
    ) -> Result<&WeightPlan, AtomError> {
        let key = (checksum, k, out_c);
        if self.key != Some(key) {
            self.plan = WeightPlan::compile(stream, k, out_c)?;
            self.key = Some(key);
        }
        self.plan.bind(fh, fw);
        Ok(&self.plan)
    }
}

/// Per-tile activation occupancy of one channel plane: a packed bitmap
/// (one bit per tile) plus non-zero counts, produced by a single pass over
/// the plane. The pre-intersection filter consults it to skip empty tiles
/// — and entirely empty channels — before any flatten or compress work.
#[derive(Debug, Clone, Default)]
pub(crate) struct TileOccupancy {
    tiles_x: usize,
    counts: Vec<u32>,
    bits: Vec<u64>,
    total: u64,
}

impl TileOccupancy {
    /// Scans channel `plane` (row-major `h × w`) under `(tile_h, tile_w)`
    /// tiling, reusing this struct's buffers.
    pub(crate) fn scan(&mut self, plane: &[i32], h: usize, w: usize, tile_h: usize, tile_w: usize) {
        debug_assert_eq!(plane.len(), h * w);
        let tiles_y = h.div_ceil(tile_h);
        let tiles_x = w.div_ceil(tile_w);
        self.tiles_x = tiles_x;
        self.counts.clear();
        self.counts.resize(tiles_y * tiles_x, 0);
        self.bits.clear();
        self.bits.resize((tiles_y * tiles_x).div_ceil(64), 0);
        self.total = 0;
        for y in 0..h {
            let row = &plane[y * w..(y + 1) * w];
            let ty = y / tile_h;
            for (tx, chunk) in row.chunks(tile_w).enumerate() {
                let nz = chunk.iter().filter(|&&v| v != 0).count() as u32;
                if nz > 0 {
                    let ti = ty * tiles_x + tx;
                    self.counts[ti] += nz;
                    self.bits[ti / 64] |= 1 << (ti % 64);
                    self.total += nz as u64;
                }
            }
        }
    }

    /// Whether tile `(ty, tx)` holds at least one non-zero activation.
    pub(crate) fn occupied(&self, ty: usize, tx: usize) -> bool {
        let ti = ty * self.tiles_x + tx;
        self.bits[ti / 64] >> (ti % 64) & 1 != 0
    }

    /// Total non-zero activations in the plane (zero ⇒ the whole channel
    /// can be skipped).
    pub(crate) fn total(&self) -> u64 {
        self.total
    }
}

/// One tile's activation values folded for the inner loop: per value the
/// pre-shifted atom sum (`Σ mag << shift`, the decoupled shift of §IV-C2)
/// and its flat in-plane offset `y·fw + x`, as two parallel arrays the
/// multiply loop streams through.
#[derive(Debug, Clone, Default)]
pub(crate) struct FoldedValues {
    voff: Vec<usize>,
    vsum: Vec<i64>,
    /// `max(voff) + 1` — the lane length every atom's adds stay within.
    span: usize,
}

impl FoldedValues {
    /// Folds `acts` (value coordinates relative to a tile whose plane rows
    /// are `fw` wide), reusing this struct's buffers.
    fn fold(&mut self, acts: &ActivationStream, fw: usize) {
        self.voff.clear();
        self.vsum.clear();
        self.span = 0;
        let mut vsum: i64 = 0;
        for a in acts.entries() {
            vsum += shl_guarded(a.atom.mag as i64, a.atom.shift as u32);
            if a.atom.last {
                let off = a.y as usize * fw + a.x as usize;
                self.voff.push(off);
                self.vsum.push(vsum);
                self.span = self.span.max(off + 1);
                vsum = 0;
            }
        }
        debug_assert_eq!(vsum, 0, "activation stream must end on a last flag");
    }

    /// Number of folded values.
    fn len(&self) -> usize {
        self.voff.len()
    }
}

/// Intersects a compiled weight plan with a sliding activation stream —
/// the fast twin of [`crate::intersect::intersect`], byte-identical to it
/// on the same inputs (see the module docs for the identity argument).
///
/// The loop is atom-major over the plan's out-channel-grouped order: per
/// atom one flat `i64` lane of the accumulator is sliced once, then every
/// folded value delivers `coef · vsum` at its offset. No sign branch, no
/// per-add assert, no index recomputation.
///
/// # Panics
/// Panics if a generated address falls outside `acc` (one slice-bounds
/// check per atom) — which cannot happen when `acc` was sized for the
/// enclosing feature map and the plan's kernel, the same contract as the
/// reference kernel.
pub(crate) fn intersect_planned(
    plan: &WeightPlan,
    acts: &ActivationStream,
    cfg: IntersectConfig,
    acc: &mut FullConvAcc,
    origin_y: usize,
    origin_x: usize,
    folded: &mut FoldedValues,
) -> IntersectStats {
    assert!(cfg.multipliers > 0, "need at least one multiplier");
    debug_assert_eq!(acc.kernel(), plan.k, "plan/accumulator kernel mismatch");
    debug_assert_eq!(acc.out_channels(), plan.out_c);
    let s_total = plan.atoms() as u64;
    let t_total = acts.len() as u64;
    if s_total == 0 || t_total == 0 {
        return IntersectStats::default();
    }
    let (fh, fw) = acc.plane_shape();
    debug_assert_eq!(
        plan.bound,
        Some((fh, fw)),
        "plan bound to a different plane shape"
    );
    let _ = fh;
    folded.fold(acts, fw);
    let origin_off = origin_y * fw + origin_x;
    let data = acc.cells_mut();
    for (&rel, &coef) in plan.base.iter().zip(&plan.coef) {
        let start = rel + origin_off;
        let lane = &mut data[start..start + folded.span];
        for (&off, &vs) in folded.voff.iter().zip(&folded.vsum) {
            lane[off] += coef * vs;
        }
    }
    let stats = IntersectStats::schedule(
        t_total,
        s_total,
        folded.len() as u64,
        cfg.multipliers as u64,
    );
    stats.record_obs(folded.len() as u64);
    stats
}

/// The working state one convolution takes from its arena: the layer's
/// accumulator, the planes written into it, and the flatten, fold and
/// occupancy buffers.
#[derive(Debug)]
pub(crate) struct WorkSlot {
    /// The layer's full-convolution accumulator; every input channel adds
    /// into it (all-zero at checkout).
    pub(crate) acc: FullConvAcc,
    /// Output-channel planes written since checkout (possibly with
    /// duplicates; sorted and deduplicated at the next checkout).
    pub(crate) dirty: Vec<u16>,
    /// Reusable flatten buffer for one tile's non-zero values.
    pub(crate) flat: Vec<crate::flatten::FlatActivation>,
    /// Reusable folded-value arrays for the inner loop.
    pub(crate) folded: FoldedValues,
    /// Reusable per-channel tile occupancy.
    pub(crate) occ: TileOccupancy,
}

/// What a [`CscScratch`] holds behind its one lock.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    /// Compiled weight plans, one per input channel.
    pub(crate) plans: Vec<PlanSlot>,
    /// The last convolution's working state; `None` until one takes it.
    pub(crate) work: Option<WorkSlot>,
}

/// The reusable scratch arena threaded through
/// [`crate::conv_csc::conv2d_csc_streams_with`]: compiled weight plans
/// (one per input channel) plus one accumulator that every input channel
/// adds into, in channel order — the accumulate buffer of §IV-C2.
///
/// A `CscScratch` retained across [`conv2d_csc_streams_with`] calls (as
/// the inference engine's `Session` does, one arena per layer) makes
/// steady-state inference allocate **zero** accumulator planes per input:
/// after the first convolution every checkout reuses the one accumulator,
/// observable via [`CscScratch::plane_allocations`]. A fresh arena per
/// call allocates one accumulator per call.
///
/// The accumulator is all-zero whenever a convolution takes it: checkout
/// zeroes exactly the planes the previous convolution dirtied — O(planes
/// written), not O(planes) — so a convolution that returned early with an
/// error leaves nothing behind. A convolution holds the lock from start to
/// finish, so concurrent calls on one arena take turns.
///
/// [`conv2d_csc_streams_with`]: crate::conv_csc::conv2d_csc_streams_with
#[derive(Debug, Default)]
pub struct CscScratch {
    arena: Mutex<Arena>,
    plane_allocs: AtomicU64,
}

impl CscScratch {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of `FullConvAcc` plane allocations this arena has performed
    /// since creation: one for the first convolution, plus one per change
    /// of layer shape. In steady state this stays constant across further
    /// inputs — the zero-alloc property the engine's scratch-reuse test
    /// pins.
    pub fn plane_allocations(&self) -> u64 {
        self.plane_allocs.load(Ordering::Relaxed)
    }

    /// Locks the arena for one convolution.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Arena> {
        self.arena
            .lock()
            .expect("scratch arena poisoned by a panicked convolution")
    }

    /// Readies `work` for a convolution of this shape and returns it:
    /// the held accumulator with the planes its last convolution dirtied
    /// zeroed when the shape matches, a newly allocated one otherwise.
    ///
    /// # Errors
    /// Propagates [`FullConvAcc::new`] geometry errors.
    pub(crate) fn checkout<'a>(
        &self,
        work: &'a mut Option<WorkSlot>,
        out_c: usize,
        in_h: usize,
        in_w: usize,
        k: usize,
    ) -> Result<&'a mut WorkSlot, QnnError> {
        // An overflowing shape matches no held accumulator and reaches
        // `FullConvAcc::new`, which rejects it.
        let plane = in_h
            .checked_add(k.wrapping_sub(1))
            .zip(in_w.checked_add(k.wrapping_sub(1)));
        let held = work.take().filter(|slot| {
            slot.acc.out_channels() == out_c
                && Some(slot.acc.plane_shape()) == plane
                && slot.acc.kernel() == k
        });
        let mut slot = match held {
            Some(slot) => slot,
            None => {
                let acc = FullConvAcc::new(out_c, in_h, in_w, k)?;
                self.plane_allocs.fetch_add(1, Ordering::Relaxed);
                WorkSlot {
                    acc,
                    dirty: Vec::new(),
                    flat: Vec::new(),
                    folded: FoldedValues::default(),
                    occ: TileOccupancy::default(),
                }
            }
        };
        slot.dirty.sort_unstable();
        slot.dirty.dedup();
        slot.acc.zero_planes(&slot.dirty);
        slot.dirty.clear();
        debug_assert!(slot.acc.is_all_zero(), "dirty-region reset incomplete");
        Ok(work.insert(slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomBits;
    use crate::compress::{compress_activations, compress_weights};
    use crate::flatten::{FlatActivation, FlatWeight};
    use crate::intersect::intersect;

    fn acts(values: &[(i32, u16, u16)], bits: u8) -> ActivationStream {
        let flat: Vec<FlatActivation> = values
            .iter()
            .map(|&(value, x, y)| FlatActivation { value, x, y })
            .collect();
        compress_activations(&flat, bits, AtomBits::B2).unwrap()
    }

    fn weights(values: &[(i32, u16, u16, u16)], bits: u8) -> WeightStream {
        let flat: Vec<FlatWeight> = values
            .iter()
            .map(|&(value, x, y, out_ch)| FlatWeight {
                value,
                x,
                y,
                out_ch,
            })
            .collect();
        compress_weights(&flat, bits, AtomBits::B2).unwrap()
    }

    /// Runs both kernels on the same inputs and asserts byte-identical
    /// accumulators and stats.
    #[allow(clippy::too_many_arguments)]
    fn check_twin(
        w: &WeightStream,
        a: &ActivationStream,
        cfg: IntersectConfig,
        out_c: usize,
        h: usize,
        wdt: usize,
        k: usize,
        origin: (usize, usize),
    ) {
        let mut reference = FullConvAcc::new(out_c, h, wdt, k).unwrap();
        let expected = intersect(w, a, cfg, &mut reference, origin.0, origin.1).unwrap();
        let mut fast = FullConvAcc::new(out_c, h, wdt, k).unwrap();
        let plan = {
            let mut p = WeightPlan::compile(w, k, out_c).unwrap();
            let (fh, fw) = fast.plane_shape();
            p.bind(fh, fw);
            p
        };
        let mut folded = FoldedValues::default();
        let got = intersect_planned(&plan, a, cfg, &mut fast, origin.0, origin.1, &mut folded);
        assert_eq!(fast, reference);
        assert_eq!(got, expected);
    }

    #[test]
    fn twin_kernels_agree_on_mixed_signs_and_channels() {
        let w = weights(
            &[
                (5, 0, 0, 0),
                (-3, 1, 0, 2),
                (7, 1, 1, 0),
                (-11, 0, 1, 1),
                (2, 0, 0, 2),
            ],
            8,
        );
        let a = acts(&[(29, 0, 0), (13, 1, 0), (200, 0, 1), (6, 1, 1)], 8);
        check_twin(&w, &a, IntersectConfig::default(), 3, 2, 2, 2, (0, 0));
        check_twin(
            &w,
            &a,
            IntersectConfig { multipliers: 1 },
            3,
            4,
            5,
            2,
            (2, 3),
        );
    }

    #[test]
    fn twin_kernels_agree_on_empty_streams() {
        let w = weights(&[(3, 0, 0, 0)], 4);
        let a = acts(&[], 4);
        check_twin(&w, &a, IntersectConfig::default(), 1, 2, 2, 1, (0, 0));
        let w = weights(&[], 4);
        let a = acts(&[(3, 0, 0)], 4);
        check_twin(&w, &a, IntersectConfig::default(), 1, 2, 2, 1, (0, 0));
    }

    #[test]
    fn plan_compile_rejects_out_of_kernel_coords() {
        let w = weights(&[(1, 0, 0, 0), (2, 2, 1, 0)], 4);
        let err = WeightPlan::compile(&w, 2, 1).unwrap_err();
        assert!(matches!(
            err,
            AtomError::WeightCoordOutOfKernel { x: 2, y: 1, .. }
        ));
    }

    #[test]
    fn plan_groups_cover_exactly_the_touched_planes() {
        let w = weights(&[(5, 0, 0, 3), (-3, 1, 0, 1), (2, 1, 1, 3)], 4);
        let plan = WeightPlan::compile(&w, 2, 5).unwrap();
        let mut dirty = Vec::new();
        plan.planes_into(&mut dirty);
        assert_eq!(dirty, vec![1, 3]);
        // Grouped order preserves within-channel stream order and covers
        // every atom exactly once.
        assert_eq!(plan.atoms(), w.len());
        let total: u32 = plan.groups.iter().map(|&(_, s, e)| e - s).sum();
        assert_eq!(total as usize, w.len());
    }

    #[test]
    fn occupancy_scan_matches_flatten_emptiness() {
        use qnn::tensor::Tensor3;
        let fmap = Tensor3::from_fn(
            1,
            7,
            9,
            |_, y, x| {
                if (y * x) % 4 == 1 {
                    (y + x) as i32
                } else {
                    0
                }
            },
        )
        .unwrap();
        let (th, tw) = (3, 2);
        let (_, h, w) = fmap.shape();
        let mut occ = TileOccupancy::default();
        occ.scan(fmap.channel(0), h, w, th, tw);
        let mut total = 0u64;
        for (ty, y0) in (0..h).step_by(th).enumerate() {
            for (tx, x0) in (0..w).step_by(tw).enumerate() {
                let flat = crate::flatten::flatten_tile(&fmap, 0, y0, x0, th, tw);
                assert_eq!(
                    occ.occupied(ty, tx),
                    !flat.is_empty(),
                    "tile ({ty},{tx}) occupancy disagrees with flatten"
                );
                total += flat.len() as u64;
            }
        }
        assert_eq!(occ.total(), total);
    }

    #[test]
    fn scratch_pool_reuses_planes_and_keeps_them_zero() {
        let scratch = CscScratch::new();
        let mut arena = scratch.lock();
        let slot = scratch.checkout(&mut arena.work, 2, 3, 3, 2).unwrap();
        assert_eq!(scratch.plane_allocations(), 1);
        assert!(slot.acc.is_all_zero());
        // Dirty a plane; the next checkout of the same shape reuses the
        // accumulator and zeroes exactly what was dirtied.
        slot.acc.add(1, 0, 0, 42);
        slot.dirty.push(1);
        slot.dirty.push(1);
        let slot = scratch.checkout(&mut arena.work, 2, 3, 3, 2).unwrap();
        assert!(slot.acc.is_all_zero());
        assert!(slot.dirty.is_empty());
        assert_eq!(scratch.plane_allocations(), 1);
        // A different shape allocates a second accumulator.
        let other = scratch.checkout(&mut arena.work, 1, 2, 2, 1).unwrap();
        assert_eq!(other.acc.out_channels(), 1);
        assert_eq!(scratch.plane_allocations(), 2);
    }

    #[test]
    fn scratch_checkout_propagates_geometry_errors() {
        let scratch = CscScratch::new();
        let mut arena = scratch.lock();
        assert!(matches!(
            scratch
                .checkout(&mut arena.work, 1, usize::MAX, 1, 2)
                .unwrap_err(),
            QnnError::ExtentOverflow { .. }
        ));
        assert!(matches!(
            scratch.checkout(&mut arena.work, 0, 1, 1, 1).unwrap_err(),
            QnnError::EmptyDimension(_)
        ));
    }

    #[test]
    fn plan_slot_recompiles_on_checksum_change() {
        let w1 = weights(&[(5, 0, 0, 0)], 4);
        let w2 = weights(&[(-3, 1, 1, 1)], 4);
        let mut slot = PlanSlot::default();
        let p1_atoms = slot
            .prepare(&w1, w1.checksum(), 2, 2, 3, 3)
            .unwrap()
            .atoms();
        assert_eq!(p1_atoms, w1.len());
        // Same checksum: cached (no recompile), rebind is idempotent.
        slot.prepare(&w1, w1.checksum(), 2, 2, 3, 3).unwrap();
        // New checksum: recompiled for the new stream.
        let p2_atoms = slot
            .prepare(&w2, w2.checksum(), 2, 2, 3, 3)
            .unwrap()
            .atoms();
        assert_eq!(p2_atoms, w2.len());
    }
}
