//! Intersection: 1-D convolution between condensed atom streams
//! (phase 3 of the condensed streaming computation, paper §III-B / Fig 6).
//!
//! The weight stream is held *static* (split into segments of `N`, the
//! number of atom multipliers); the activation stream slides through each
//! segment one atom per step. Every activation atom therefore meets every
//! weight atom. Per product only the **activation** shift is applied (the
//! decoupled shift of §IV-C2); per-value partial sums are delivered on the
//! activation's last-atom flag, and the **weight** shift plus sign are
//! applied once at accumulate-buffer aggregation.
//!
//! Output coordinates follow the paper's Eq 1/2: with kernel size `k`,
//! `x_out = k − 1 − x_w + x_in` in full-convolution space of width
//! `W_in + k − 1`; strided/padded outputs are extracted afterwards
//! ([`FullConvAcc::extract`]), matching §IV-C3's handling of non-unit
//! strides in the accumulate buffer.

use crate::error::AtomError;
use crate::stream::{ActivationStream, WeightStream};
use qnn::conv::ConvGeometry;
use qnn::error::QnnError;
use qnn::tensor::AccTensor3;
use serde::{Deserialize, Serialize};

/// Configuration of the intersection engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntersectConfig {
    /// Number of atom multipliers `N` — the static stream segment length.
    pub multipliers: usize,
}

impl Default for IntersectConfig {
    /// The paper's default compute tile: 32 2-bit multipliers.
    fn default() -> Self {
        Self { multipliers: 32 }
    }
}

/// Work counters produced by one intersection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntersectStats {
    /// Pipeline steps (cycles of the Atomputer's systolic chain),
    /// matching the paper's Eq 3: `t·⌈S/N⌉ + ε`.
    pub steps: u64,
    /// Effectual atom multiplications (`t · S`).
    pub atom_mults: u64,
    /// Accumulator deliveries to the accumulate buffer
    /// (`S · value_count(activations)`).
    pub deliveries: u64,
    /// Static-stream segments processed (`⌈S/N⌉`).
    pub segments: u64,
}

impl IntersectStats {
    /// Derives the hardware-schedule counters for one intersection from the
    /// stream lengths alone: `t_atoms` sliding activation atoms against
    /// `s_atoms` static weight atoms condensing `value_count` activation
    /// values, on `multipliers` atom multipliers.
    ///
    /// All products saturate at `u64::MAX` instead of wrapping — the same
    /// treatment [`crate::cycles::ideal_steps`] and
    /// [`crate::cycles::tile_cycles`] received for adversarial atom counts —
    /// and `steps` *is* `ideal_steps` (Eq 3), so the live counters and the
    /// closed-form cycle model can never disagree. Both intersection
    /// kernels route their stats through this one constructor.
    ///
    /// # Panics
    /// Panics if `multipliers` is zero.
    pub fn schedule(t_atoms: u64, s_atoms: u64, value_count: u64, multipliers: u64) -> Self {
        assert!(multipliers > 0, "need at least one multiplier");
        if t_atoms == 0 || s_atoms == 0 {
            return Self::default();
        }
        Self {
            steps: crate::cycles::ideal_steps(t_atoms, s_atoms, multipliers),
            atom_mults: t_atoms.saturating_mul(s_atoms),
            deliveries: s_atoms.saturating_mul(value_count),
            segments: s_atoms.div_ceil(multipliers),
        }
    }

    /// Accumulates another intersection's counters into this one,
    /// saturating at `u64::MAX` (a whole-network sum of per-tile counters
    /// must stay a valid lower bound, not wrap to a small number).
    pub fn merge(&mut self, other: &IntersectStats) {
        self.steps = self.steps.saturating_add(other.steps);
        self.atom_mults = self.atom_mults.saturating_add(other.atom_mults);
        self.deliveries = self.deliveries.saturating_add(other.deliveries);
        self.segments = self.segments.saturating_add(other.segments);
    }

    /// Emits this intersection's counters to the observability layer — one
    /// bulk record per intersection, never per inner-loop iteration. Shared
    /// by both kernels so the recorded event totals are kernel-independent.
    pub(crate) fn record_obs(&self, value_runs: u64) {
        obs::record(obs::Event::IntersectCalls, 1);
        obs::record(obs::Event::IntersectSteps, self.steps);
        obs::record(obs::Event::IntersectSegments, self.segments);
        obs::record(obs::Event::IntersectAtomMults, self.atom_mults);
        obs::record(obs::Event::IntersectDeliveries, self.deliveries);
        obs::record(obs::Event::IntersectValueRuns, value_runs);
    }
}

/// Accumulator in full-convolution coordinate space: per output channel a
/// `(H_in + k − 1) × (W_in + k − 1)` plane of `i64` partial sums.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FullConvAcc {
    out_c: usize,
    k: usize,
    fh: usize,
    fw: usize,
    data: Vec<i64>,
}

impl FullConvAcc {
    /// Creates a zeroed accumulator for an `in_h × in_w` input convolved
    /// with `out_c` kernels of extent `k`.
    ///
    /// # Errors
    /// Returns [`QnnError::EmptyDimension`] for zero extents and
    /// [`QnnError::ExtentOverflow`] when the full-convolution plane extents
    /// (`in + k − 1`) or the total cell count (`out_c · fh · fw`) do not fit
    /// a machine word — degenerate adversarial geometry must surface as a
    /// typed error, not a debug panic or a wrapped (tiny) allocation.
    pub fn new(out_c: usize, in_h: usize, in_w: usize, k: usize) -> Result<Self, QnnError> {
        if out_c == 0 {
            return Err(QnnError::EmptyDimension("out_c"));
        }
        if in_h == 0 || in_w == 0 {
            return Err(QnnError::EmptyDimension("in extent"));
        }
        if k == 0 {
            return Err(QnnError::EmptyDimension("k"));
        }
        let fh = in_h.checked_add(k - 1).ok_or(QnnError::ExtentOverflow {
            what: "full-conv plane height",
        })?;
        let fw = in_w.checked_add(k - 1).ok_or(QnnError::ExtentOverflow {
            what: "full-conv plane width",
        })?;
        let cells = out_c
            .checked_mul(fh)
            .and_then(|c| c.checked_mul(fw))
            .ok_or(QnnError::ExtentOverflow {
                what: "full-conv plane cells",
            })?;
        Ok(Self {
            out_c,
            k,
            fh,
            fw,
            data: vec![0; cells],
        })
    }

    /// Full-convolution plane shape `(fh, fw)`.
    pub fn plane_shape(&self) -> (usize, usize) {
        (self.fh, self.fw)
    }

    /// Kernel extent this accumulator was built for.
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// Number of output-channel planes.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Adds `v` at full-conv coordinates `(out_ch, fy, fx)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds (the hardware's `comp`
    /// validator guarantees in-bounds addresses; the functional model treats
    /// a violation as a bug).
    #[inline]
    pub fn add(&mut self, out_ch: usize, fy: usize, fx: usize, v: i64) {
        assert!(
            out_ch < self.out_c && fy < self.fh && fx < self.fw,
            "address out of bounds"
        );
        self.data[(out_ch * self.fh + fy) * self.fw + fx] += v;
    }

    /// Reads the accumulated value at `(out_ch, fy, fx)`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    pub fn get(&self, out_ch: usize, fy: usize, fx: usize) -> i64 {
        assert!(
            out_ch < self.out_c && fy < self.fh && fx < self.fw,
            "address out of bounds"
        );
        self.data[(out_ch * self.fh + fy) * self.fw + fx]
    }

    /// The raw accumulator words in `(out_ch, fy, fx)` row-major order —
    /// the accumulate-buffer contents a fault injector perturbs.
    pub fn cells(&self) -> &[i64] {
        &self.data
    }

    /// Mutable view of the raw accumulator words (fault-injection surface).
    pub fn cells_mut(&mut self) -> &mut [i64] {
        &mut self.data
    }

    /// Sum of every accumulator word in `i128` (never overflows: the sum of
    /// `|data| ≤ out_c·fh·fw` words each bounded by `i64` fits `i128` with
    /// headroom). This is the conserved quantity the accumulate-buffer
    /// integrity monitor checks: after intersecting streams with weight
    /// term sum `W` and activation value sum `A`, the plane total must
    /// equal `W · A`.
    pub fn total_sum(&self) -> i128 {
        self.data.iter().map(|&v| v as i128).sum()
    }

    /// Adds another accumulator plane-wise (`self += other`). Used to merge
    /// partial accumulators (the reference kernel's per-channel planes, a
    /// fault-checked tile pass): i64 addition commutes, so any merge order
    /// reproduces the sequential result bit-exactly.
    ///
    /// # Panics
    /// Panics if the two accumulators were built for different shapes.
    pub fn merge(&mut self, other: &FullConvAcc) {
        assert!(
            self.out_c == other.out_c && self.fh == other.fh && self.fw == other.fw,
            "accumulator shape mismatch"
        );
        for (dst, src) in self.data.iter_mut().zip(&other.data) {
            *dst += src;
        }
    }

    /// Zeroes the listed output-channel planes — the dirty-region reset a
    /// scratch arena performs before reusing an accumulator, proportional
    /// to the planes actually written instead of the whole allocation.
    ///
    /// # Panics
    /// Panics if a plane index is out of range.
    pub fn zero_planes(&mut self, planes: &[u16]) {
        let plane = self.fh * self.fw;
        for &p in planes {
            let p = p as usize;
            assert!(p < self.out_c, "plane index out of bounds");
            self.data[p * plane..(p + 1) * plane].fill(0);
        }
    }

    /// Whether every accumulator word is zero (the invariant a scratch
    /// arena restores at every checkout).
    pub fn is_all_zero(&self) -> bool {
        self.data.iter().all(|&v| v == 0)
    }

    /// Extracts the strided, padded convolution output:
    /// `out[oy][ox] = fc[oy·s + k−1−p][ox·s + k−1−p]` (paper §IV-C3 — the
    /// stride access is realized at the accumulate buffer). Full-conv
    /// positions that fall outside the plane contribute zero (they depend
    /// only on padding zeros).
    ///
    /// # Errors
    /// Propagates geometry validation errors.
    pub fn extract(
        &self,
        geom: ConvGeometry,
        out_h: usize,
        out_w: usize,
    ) -> Result<AccTensor3, QnnError> {
        let mut out = AccTensor3::zeros(self.out_c, out_h, out_w)?;
        let base = self.k as isize - 1 - geom.padding as isize;
        for oc in 0..self.out_c {
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let fy = base + (oy * geom.stride) as isize;
                    let fx = base + (ox * geom.stride) as isize;
                    if fy >= 0 && fx >= 0 && (fy as usize) < self.fh && (fx as usize) < self.fw {
                        out.set(oc, oy, ox, self.get(oc, fy as usize, fx as usize));
                    }
                }
            }
        }
        Ok(out)
    }
}

/// One condensed activation value: the pre-shifted sum of its atoms
/// (`Σ mag << shift`, i.e. the value's magnitude) plus its tile coordinate.
struct ValueRun {
    vsum: i64,
    y: u16,
    x: u16,
}

/// Left-shifts with an overflow guard: in debug builds, verifies the shift
/// is in range and loses no significant bits (a silent wrap here would
/// corrupt results on wide-precision extensions, e.g. 16-bit operands
/// whose aligned partial sums approach the top of `i64`). Plain `<<` does
/// not trap on value overflow even with debug assertions on, unlike `+`
/// and `*`, so the guard must be explicit.
#[inline]
pub(crate) fn shl_guarded(v: i64, shift: u32) -> i64 {
    debug_assert!(shift < i64::BITS, "shift {shift} out of range for i64");
    let r = v << shift;
    debug_assert_eq!(
        r >> shift,
        v,
        "i64 overflow in shifted accumulation ({v} << {shift})"
    );
    r
}

/// Signed sum of a weight stream's aligned atom terms,
/// `Σ ±(mag << shift)`, in `i128`. Together with [`act_value_sum`] this
/// gives the conservation law of one intersection: the total added to the
/// accumulator plane equals `weight_term_sum · act_value_sum`, because each
/// weight atom delivers `±(mag << shift) · vsum` once per activation value.
pub fn weight_term_sum(weights: &WeightStream) -> i128 {
    weights
        .entries()
        .iter()
        .map(|e| {
            let term = (e.atom.mag as i128) << e.atom.shift;
            if e.atom.negative {
                -term
            } else {
                term
            }
        })
        .sum()
}

/// Sum of an activation stream's decoded values, `Σ (mag << shift)`, in
/// `i128` — the activation side of the intersection conservation law.
pub fn act_value_sum(acts: &ActivationStream) -> i128 {
    acts.entries()
        .iter()
        .map(|e| (e.atom.mag as i128) << e.atom.shift)
        .sum()
}

/// Intersects a static weight stream with a sliding activation stream,
/// accumulating partial products into `acc` at tile origin
/// `(origin_y, origin_x)` (both in *input* coordinates).
///
/// Returns the work counters; `acc` is updated in place. The computation is
/// exact for any atom order in either stream.
///
/// The loop is activation-value–major: each activation value's atoms are
/// folded once into a pre-shifted sum (`Σ mag_a << shift_a`), then every
/// weight atom delivers `±(mag_w · vsum) << shift_w` per value. This is
/// bit-identical to the hardware's segment-major schedule — per weight atom
/// the delivered quantity `Σ (mag_w·mag_a) << shift_a` factors as
/// `mag_w · Σ mag_a << shift_a` by distributivity (exact in `i64`), and
/// deliveries land in the same stream order — but rescans the activation
/// stream once per weight atom *value count* instead of once per atom. The
/// hardware-schedule counters (`steps`, `atom_mults`, `segments`) follow
/// arithmetically from the stream lengths and are unchanged.
///
/// # Errors
/// Returns [`AtomError::WeightCoordOutOfKernel`] when a weight entry's
/// kernel coordinate lies outside `acc.kernel()` — the Eq 1 address
/// `k − 1 − x_w` would underflow, so the mismatch is rejected up front,
/// naming the offending atom, instead of surfacing as a misleading
/// "address out of bounds" panic deep in the accumulation loop.
///
/// # Panics
/// Panics if a generated address falls outside `acc` — which cannot happen
/// when `acc` was sized for the enclosing feature map and kernel.
pub fn intersect(
    weights: &WeightStream,
    acts: &ActivationStream,
    cfg: IntersectConfig,
    acc: &mut FullConvAcc,
    origin_y: usize,
    origin_x: usize,
) -> Result<IntersectStats, AtomError> {
    assert!(cfg.multipliers > 0, "need at least one multiplier");
    let k = acc.kernel();
    validate_weight_coords(weights, k)?;
    let s_total = weights.len() as u64;
    let t_total = acts.len() as u64;
    if s_total == 0 || t_total == 0 {
        return Ok(IntersectStats::default());
    }

    // Fold each activation value's atoms into one pre-shifted sum (the
    // decoupled shift of §IV-C2: only the activation shift is applied per
    // atom; the weight shift and sign are applied once at delivery).
    let mut values = Vec::with_capacity(acts.value_count());
    let mut vsum: i64 = 0;
    for a in acts.entries() {
        vsum += shl_guarded(a.atom.mag as i64, a.atom.shift as u32);
        if a.atom.last {
            values.push(ValueRun {
                vsum,
                y: a.y,
                x: a.x,
            });
            vsum = 0;
        }
    }
    debug_assert_eq!(vsum, 0, "activation stream must end on a last flag");

    for w in weights.entries() {
        // Eq 1 coordinates, full-convolution space; hoisted per weight atom.
        let base_y = origin_y + (k - 1 - w.y as usize);
        let base_x = origin_x + (k - 1 - w.x as usize);
        let mag = w.atom.mag as i64;
        let shift = w.atom.shift as u32;
        let out_ch = w.out_ch as usize;
        if w.atom.negative {
            for v in &values {
                let aligned = shl_guarded(mag * v.vsum, shift);
                acc.add(
                    out_ch,
                    base_y + v.y as usize,
                    base_x + v.x as usize,
                    -aligned,
                );
            }
        } else {
            for v in &values {
                let aligned = shl_guarded(mag * v.vsum, shift);
                acc.add(
                    out_ch,
                    base_y + v.y as usize,
                    base_x + v.x as usize,
                    aligned,
                );
            }
        }
    }

    // Hardware-schedule counters, derived arithmetically: every activation
    // atom meets every weight atom (t·S multiplications), each weight atom
    // delivers once per activation value, and the static stream splits into
    // ⌈S/N⌉ segments. Steps per the paper's Eq 3/4: the ping-pong weight
    // registers overlap segment drain with the next segment's fill, so only
    // the final segment's drain is exposed.
    let stats = IntersectStats::schedule(
        t_total,
        s_total,
        values.len() as u64,
        cfg.multipliers as u64,
    );
    // Observability: one bulk record per intersection, not per inner-loop
    // iteration — the hot loops above stay untouched.
    stats.record_obs(values.len() as u64);
    Ok(stats)
}

/// Rejects any weight entry whose kernel coordinate lies outside extent `k`
/// before the intersection loop can compute a wrapped Eq 1 address.
pub(crate) fn validate_weight_coords(weights: &WeightStream, k: usize) -> Result<(), AtomError> {
    for (index, w) in weights.entries().iter().enumerate() {
        if w.y as usize >= k || w.x as usize >= k {
            return Err(AtomError::WeightCoordOutOfKernel {
                index,
                x: w.x,
                y: w.y,
                kernel: k,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomBits;
    use crate::compress::{compress_activations, compress_weights};
    use crate::flatten::{FlatActivation, FlatWeight};

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

    #[test]
    fn single_pair_reproduces_fig5() {
        // One activation 13 at (0,0), one weight -11 at kernel (0,0), k=1.
        let a = acts(&[(13, 0, 0)], 4);
        let w = weights(&[(-11, 0, 0, 0)], 8);
        let mut acc = FullConvAcc::new(1, 1, 1, 1).unwrap();
        let stats = intersect(&w, &a, IntersectConfig::default(), &mut acc, 0, 0).unwrap();
        assert_eq!(acc.get(0, 0, 0), -143);
        assert_eq!(stats.atom_mults, 4); // 2 act atoms x 2 weight atoms
        assert_eq!(stats.deliveries, 2); // one per weight atom
    }

    #[test]
    fn empty_streams_do_no_work() {
        let a = acts(&[], 4);
        let w = weights(&[(3, 0, 0, 0)], 4);
        let mut acc = FullConvAcc::new(1, 1, 1, 1).unwrap();
        assert_eq!(
            intersect(&w, &a, IntersectConfig::default(), &mut acc, 0, 0).unwrap(),
            IntersectStats::default()
        );
        let a = acts(&[(3, 0, 0)], 4);
        let w = weights(&[], 4);
        assert_eq!(
            intersect(&w, &a, IntersectConfig::default(), &mut acc, 0, 0).unwrap(),
            IntersectStats::default()
        );
        assert_eq!(acc.get(0, 0, 0), 0);
    }

    #[test]
    fn eq1_coordinates_full_convolution() {
        // 2x2 input, single weight at kernel (1,1) of a 2x2 kernel:
        // fc[y][x] += w * in[y_in][x_in] at fy = (k-1-1) + y_in = y_in.
        let a = acts(&[(1, 0, 0), (2, 1, 0), (3, 0, 1), (1, 1, 1)], 4);
        let w = weights(&[(1, 1, 1, 0)], 4);
        let mut acc = FullConvAcc::new(1, 2, 2, 2).unwrap();
        intersect(&w, &a, IntersectConfig::default(), &mut acc, 0, 0).unwrap();
        assert_eq!(acc.get(0, 0, 0), 1);
        assert_eq!(acc.get(0, 0, 1), 2);
        assert_eq!(acc.get(0, 1, 0), 3);
        assert_eq!(acc.get(0, 1, 1), 1);
        // Weight at kernel (0,0) lands at fy = y_in + 1 instead.
        let w2 = weights(&[(1, 0, 0, 0)], 4);
        let mut acc2 = FullConvAcc::new(1, 2, 2, 2).unwrap();
        intersect(&w2, &a, IntersectConfig::default(), &mut acc2, 0, 0).unwrap();
        assert_eq!(acc2.get(0, 1, 1), 1);
        assert_eq!(acc2.get(0, 2, 2), 1);
    }

    #[test]
    fn step_count_matches_eq3() {
        // 5 activation values of 1 atom each, 7 weight atoms, N = 3.
        let a = acts(&[(1, 0, 0), (2, 1, 0), (1, 2, 0), (2, 3, 0), (1, 4, 0)], 2);
        assert_eq!(a.len(), 5);
        let w = weights(
            &[
                (1, 0, 0, 0),
                (2, 1, 0, 0),
                (1, 2, 0, 1),
                (2, 0, 1, 1),
                (1, 1, 1, 2),
                (2, 2, 1, 2),
                (1, 0, 2, 3),
            ],
            2,
        );
        assert_eq!(w.len(), 7);
        let mut acc = FullConvAcc::new(4, 3, 5, 3).unwrap();
        let stats = intersect(&w, &a, IntersectConfig { multipliers: 3 }, &mut acc, 0, 0).unwrap();
        // ceil(7/3) = 3 segments; eps = mod(7,3)-1 = 0... mod=1 -> eps=0.
        assert_eq!(stats.segments, 3);
        assert_eq!(stats.steps, (5 * 3));
        assert_eq!(stats.atom_mults, 35);
    }

    #[test]
    fn extract_applies_stride_and_padding() {
        let mut acc = FullConvAcc::new(1, 3, 3, 2).unwrap();
        // Fill fc plane (4x4) with distinct values.
        for fy in 0..4 {
            for fx in 0..4 {
                acc.add(0, fy, fx, (fy * 10 + fx) as i64);
            }
        }
        // stride 1, pad 0: out[oy][ox] = fc[oy+1][ox+1].
        let out = acc.extract(ConvGeometry::default(), 2, 2).unwrap();
        assert_eq!(out.get(0, 0, 0), 11);
        assert_eq!(out.get(0, 1, 1), 22);
        // stride 2, pad 0: out[0][0] = fc[1][1], out[0][1] = fc[1][3].
        let g2 = ConvGeometry::new(2, 0).unwrap();
        let out2 = acc.extract(g2, 1, 2).unwrap();
        assert_eq!(out2.get(0, 0, 1), 13);
        // pad 1: out[0][0] = fc[0][0].
        let gp = ConvGeometry::unit_stride(1);
        let outp = acc.extract(gp, 4, 4).unwrap();
        assert_eq!(outp.get(0, 0, 0), 0);
        assert_eq!(outp.get(0, 1, 1), 11);
    }

    #[test]
    fn merge_reproduces_single_accumulator() {
        let a1 = acts(&[(9, 0, 0)], 4);
        let a2 = acts(&[(6, 1, 1)], 4);
        let w = weights(&[(7, 0, 0, 0), (-5, 1, 1, 1)], 4);
        let cfg = IntersectConfig::default();
        // Sequential: both intersections into one accumulator.
        let mut whole = FullConvAcc::new(2, 2, 2, 2).unwrap();
        intersect(&w, &a1, cfg, &mut whole, 0, 0).unwrap();
        intersect(&w, &a2, cfg, &mut whole, 0, 0).unwrap();
        // Split: one accumulator each, merged afterwards.
        let mut p1 = FullConvAcc::new(2, 2, 2, 2).unwrap();
        let mut p2 = FullConvAcc::new(2, 2, 2, 2).unwrap();
        intersect(&w, &a1, cfg, &mut p1, 0, 0).unwrap();
        intersect(&w, &a2, cfg, &mut p2, 0, 0).unwrap();
        p1.merge(&p2);
        assert_eq!(p1, whole);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn merge_rejects_shape_mismatch() {
        let mut a = FullConvAcc::new(1, 2, 2, 2).unwrap();
        let b = FullConvAcc::new(1, 3, 3, 2).unwrap();
        a.merge(&b);
    }

    #[test]
    fn plane_total_obeys_conservation_law() {
        let a = acts(&[(9, 0, 0), (6, 1, 1), (13, 0, 1)], 4);
        let w = weights(&[(7, 0, 0, 0), (-5, 1, 1, 1), (3, 0, 1, 2)], 4);
        let mut acc = FullConvAcc::new(3, 2, 2, 2).unwrap();
        intersect(&w, &a, IntersectConfig::default(), &mut acc, 0, 0).unwrap();
        assert_eq!(acc.total_sum(), weight_term_sum(&w) * act_value_sum(&a));
        assert_eq!(weight_term_sum(&w), 7 - 5 + 3);
        assert_eq!(act_value_sum(&a), 9 + 6 + 13);
        // A single flipped bit in any accumulator word breaks the law.
        acc.cells_mut()[5] ^= 1 << 3;
        assert_ne!(acc.total_sum(), weight_term_sum(&w) * act_value_sum(&a));
        assert_eq!(acc.cells().len(), 3 * 3 * 3);
    }

    #[test]
    fn segment_count_independent_of_result() {
        let a = acts(&[(9, 0, 0), (6, 1, 1)], 4);
        let w = weights(&[(7, 0, 0, 0), (-5, 1, 1, 1), (3, 0, 1, 2)], 4);
        let mut acc_wide = FullConvAcc::new(3, 2, 2, 2).unwrap();
        let mut acc_narrow = FullConvAcc::new(3, 2, 2, 2).unwrap();
        let s1 = intersect(
            &w,
            &a,
            IntersectConfig { multipliers: 64 },
            &mut acc_wide,
            0,
            0,
        )
        .unwrap();
        let s2 = intersect(
            &w,
            &a,
            IntersectConfig { multipliers: 1 },
            &mut acc_narrow,
            0,
            0,
        )
        .unwrap();
        assert_eq!(acc_wide, acc_narrow);
        assert!(s2.steps > s1.steps);
        assert_eq!(s1.atom_mults, s2.atom_mults);
    }

    #[test]
    fn rejects_weight_coord_outside_kernel_extent() {
        use crate::atom::Atom;
        use crate::stream::WeightEntry;
        // A stream compiled for a 3x3 kernel run against a k=2 accumulator:
        // Eq 1's `k - 1 - y` would underflow for the entry at (2, 2).
        let entries = vec![
            WeightEntry {
                atom: Atom {
                    mag: 1,
                    shift: 0,
                    negative: false,
                    last: true,
                },
                x: 0,
                y: 0,
                out_ch: 0,
            },
            WeightEntry {
                atom: Atom {
                    mag: 2,
                    shift: 0,
                    negative: false,
                    last: true,
                },
                x: 2,
                y: 2,
                out_ch: 0,
            },
        ];
        let w = WeightStream::from_entries(entries);
        let a = acts(&[(3, 0, 0)], 4);
        let mut acc = FullConvAcc::new(1, 2, 2, 2).unwrap();
        let err = intersect(&w, &a, IntersectConfig::default(), &mut acc, 0, 0).unwrap_err();
        assert_eq!(
            err,
            AtomError::WeightCoordOutOfKernel {
                index: 1,
                x: 2,
                y: 2,
                kernel: 2,
            }
        );
        // Nothing may have been accumulated before the rejection.
        assert!(acc.is_all_zero());
    }

    #[test]
    fn new_rejects_overflowing_extents_with_typed_error() {
        // in + k - 1 overflows usize.
        assert_eq!(
            FullConvAcc::new(1, usize::MAX, 1, 2).unwrap_err(),
            QnnError::ExtentOverflow {
                what: "full-conv plane height"
            }
        );
        assert_eq!(
            FullConvAcc::new(1, 1, usize::MAX, 2).unwrap_err(),
            QnnError::ExtentOverflow {
                what: "full-conv plane width"
            }
        );
        // Extents fit but the cell product overflows.
        assert_eq!(
            FullConvAcc::new(usize::MAX, 2, 2, 2).unwrap_err(),
            QnnError::ExtentOverflow {
                what: "full-conv plane cells"
            }
        );
    }

    #[test]
    fn schedule_saturates_instead_of_wrapping() {
        // Adversarial atom counts whose products overflow u64: every counter
        // must clamp to u64::MAX, exactly like cycles::ideal_steps.
        let s = IntersectStats::schedule(u64::MAX, u64::MAX, u64::MAX, 32);
        assert_eq!(s.steps, u64::MAX);
        assert_eq!(s.atom_mults, u64::MAX);
        assert_eq!(s.deliveries, u64::MAX);
        assert_eq!(s.segments, u64::MAX.div_ceil(32));
        // Representable boundary: exact, no saturation.
        let exact = IntersectStats::schedule(5, 7, 3, 3);
        assert_eq!(exact.steps, crate::cycles::ideal_steps(5, 7, 3));
        assert_eq!(exact.atom_mults, 35);
        assert_eq!(exact.deliveries, 21);
        assert_eq!(exact.segments, 3);
        // Empty streams do no work.
        assert_eq!(
            IntersectStats::schedule(0, 7, 3, 3),
            IntersectStats::default()
        );
    }

    #[test]
    fn stats_merge_saturates() {
        let mut a = IntersectStats {
            steps: u64::MAX - 1,
            atom_mults: u64::MAX,
            deliveries: 1,
            segments: 0,
        };
        a.merge(&IntersectStats {
            steps: 5,
            atom_mults: 5,
            deliveries: 5,
            segments: 5,
        });
        assert_eq!(a.steps, u64::MAX);
        assert_eq!(a.atom_mults, u64::MAX);
        assert_eq!(a.deliveries, 6);
        assert_eq!(a.segments, 5);
    }

    #[test]
    #[should_panic(expected = "plane index out of bounds")]
    fn zero_planes_validates_indices() {
        let mut a = FullConvAcc::new(2, 2, 2, 2).unwrap();
        a.zero_planes(&[2]);
    }
}
