//! Synthetic workload generation.
//!
//! The paper evaluates on ImageNet-trained models quantized to 2/4/8-bit
//! (plus EdMIPS mixed 2/4-bit) and pruned. We do not have those checkpoints;
//! instead this module generates *seeded synthetic tensors* whose value
//! distributions reproduce the statistics every experiment actually
//! consumes:
//!
//! * weights: Laplacian (peaked at zero), clipped and uniformly quantized
//!   with the bit-dependent clip of [`crate::quant::weight_clip_multiplier`],
//!   then magnitude-pruned to the benchmark's pruning target;
//! * activations: ReLU-censored Gaussians whose pre-activation mean shifts
//!   with the bit-width ([`crate::quant::retrain_sparsity_shift`]), modelling
//!   the sparser activations of retrained low-bit networks (paper Fig 1).
//!
//! Small layers can be materialized as full tensors (for the cycle-accurate
//! simulators and correctness tests); large network sweeps use
//! [`LayerStats`], which samples per input channel and scales, so simulating
//! ResNet-50 never allocates a 100M-element tensor.

use crate::error::QnnError;
use crate::layers::ConvLayer;
use crate::models::{Network, NetworkId};
use crate::prune::magnitude_prune;
use crate::quant::{
    activation_clip_multiplier, retrain_sparsity_shift, weight_clip_multiplier, BitWidth, Quantizer,
};
use crate::rng::SeededRng;
use crate::sparsity::{nonzero_atoms, SparsityStats};
use crate::tensor::{Tensor3, Tensor4};
use serde::{Deserialize, Serialize};

/// Cap on the number of values sampled per input channel when estimating
/// layer statistics.
const CHANNEL_SAMPLE_CAP: usize = 768;
/// Cap on the representative value sample stored in [`LayerStats`].
const STATS_SAMPLE_CAP: usize = 8192;

/// Distribution parameters for synthetic *weights*.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightProfile {
    /// Quantization bit-width.
    pub bits: BitWidth,
    /// Extra magnitude-pruning target applied after quantization
    /// (fraction of zeros; quantization-induced zeros count toward it).
    pub prune_sparsity: f64,
    /// Multiplicative jitter on the clip range (per-network flavour).
    pub clip_scale: f64,
}

impl WeightProfile {
    /// Unpruned profile at the given bit-width (used by the Fig 1 study).
    pub fn unpruned(bits: BitWidth) -> Self {
        Self {
            bits,
            prune_sparsity: 0.0,
            clip_scale: 1.0,
        }
    }

    /// The DNN-benchmark profile: quantized plus moderately pruned
    /// ("without hurting accuracy", §V-A2).
    pub fn benchmark(bits: BitWidth) -> Self {
        Self {
            bits,
            prune_sparsity: 0.45,
            clip_scale: 1.0,
        }
    }

    /// Returns a copy with a different pruning target.
    pub fn with_prune(mut self, sparsity: f64) -> Self {
        self.prune_sparsity = sparsity;
        self
    }
}

/// Distribution parameters for synthetic *activations*.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActivationProfile {
    /// Quantization bit-width.
    pub bits: BitWidth,
    /// Pre-activation mean shift in σ units; larger → sparser after ReLU.
    /// Networks differ here (AlexNet's ReLU sparsity ≈ 0.5σ shift, deeper
    /// nets higher).
    pub relu_shift: f64,
}

impl ActivationProfile {
    /// Profile with the network-neutral base shift.
    pub fn new(bits: BitWidth) -> Self {
        Self {
            bits,
            relu_shift: 0.0,
        }
    }

    /// Returns a copy with the given ReLU shift.
    pub fn with_shift(mut self, shift: f64) -> Self {
        self.relu_shift = shift;
        self
    }

    /// Effective shift including the bit-dependent retraining term.
    pub fn effective_shift(&self) -> f64 {
        self.relu_shift + retrain_sparsity_shift(self.bits) as f64
    }
}

/// Per-network distribution flavour: `(relu_shift, weight_clip_scale,
/// weight_prune)` — chosen so the six networks spread around the paper's
/// Figure 1 averages rather than collapsing onto one curve.
pub fn network_flavor(id: NetworkId) -> (f64, f64, f64) {
    // Pruning targets follow the magnitude-pruning literature: AlexNet and
    // VGG prune the hardest without accuracy loss, compact nets less so.
    match id {
        NetworkId::AlexNet => (0.05, 1.10, 0.65),
        NetworkId::Vgg16 => (0.20, 1.00, 0.70),
        NetworkId::GoogLeNet => (-0.05, 0.95, 0.55),
        NetworkId::InceptionV2 => (0.00, 0.90, 0.55),
        NetworkId::ResNet18 => (0.10, 1.05, 0.60),
        NetworkId::ResNet50 => (0.15, 1.00, 0.60),
    }
}

/// Seeded generator for synthetic quantized tensors and layer statistics.
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    rng: SeededRng,
}

impl WorkloadGen {
    /// Creates a generator from a seed; identical seeds reproduce identical
    /// workloads.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SeededRng::new(seed),
        }
    }

    /// Direct access to the underlying random source.
    pub fn rng_mut(&mut self) -> &mut SeededRng {
        &mut self.rng
    }

    /// Samples one quantized weight value.
    fn sample_weight(rng: &mut SeededRng, q: &Quantizer) -> i32 {
        // Laplace with unit std-dev (scale 1/√2).
        q.quantize(rng.laplace(std::f64::consts::FRAC_1_SQRT_2) as f32)
    }

    /// Samples one quantized post-ReLU activation value.
    fn sample_activation(rng: &mut SeededRng, q: &Quantizer, shift: f64) -> i32 {
        let pre = rng.normal() - shift;
        if pre <= 0.0 {
            0
        } else {
            q.quantize(pre as f32)
        }
    }

    fn weight_quantizer(profile: &WeightProfile) -> Quantizer {
        let clip = weight_clip_multiplier(profile.bits) * profile.clip_scale as f32;
        Quantizer::symmetric(profile.bits.bits(), clip.max(1e-3))
    }

    fn activation_quantizer(profile: &ActivationProfile) -> Quantizer {
        let clip = activation_clip_multiplier(profile.bits);
        Quantizer::unsigned(profile.bits.bits(), clip)
    }

    /// Generates a flat vector of `n` quantized weights.
    pub fn weight_values(&mut self, n: usize, profile: &WeightProfile) -> Vec<i32> {
        let q = Self::weight_quantizer(profile);
        let mut v: Vec<i32> = (0..n)
            .map(|_| Self::sample_weight(&mut self.rng, &q))
            .collect();
        if profile.prune_sparsity > 0.0 {
            magnitude_prune(&mut v, profile.prune_sparsity);
        }
        v
    }

    /// Generates a flat vector of `n` quantized activations.
    pub fn activation_values(&mut self, n: usize, profile: &ActivationProfile) -> Vec<i32> {
        let q = Self::activation_quantizer(profile);
        let shift = profile.effective_shift();
        (0..n)
            .map(|_| Self::sample_activation(&mut self.rng, &q, shift))
            .collect()
    }

    /// Generates a full kernel tensor.
    ///
    /// # Errors
    /// Propagates shape validation from [`Tensor4::from_vec`].
    pub fn weights(
        &mut self,
        o: usize,
        i: usize,
        kh: usize,
        kw: usize,
        profile: &WeightProfile,
    ) -> Result<Tensor4, crate::error::QnnError> {
        let data = self.weight_values(o * i * kh * kw, profile);
        Tensor4::from_vec(o, i, kh, kw, data)
    }

    /// Generates a full activation tensor.
    ///
    /// # Errors
    /// Propagates shape validation from [`Tensor3::from_vec`].
    pub fn activations(
        &mut self,
        c: usize,
        h: usize,
        w: usize,
        profile: &ActivationProfile,
    ) -> Result<Tensor3, crate::error::QnnError> {
        let data = self.activation_values(c * h * w, profile);
        Tensor3::from_vec(c, h, w, data)
    }

    /// Generates `n` values with an *exact* number of non-zeros
    /// (`round(n · density)`), uniformly placed; magnitudes are uniform over
    /// the representable range. Used for the controlled-sparsity studies
    /// (paper Fig 4 and Fig 15).
    pub fn values_with_density(
        &mut self,
        n: usize,
        bits: BitWidth,
        density: f64,
        signed: bool,
    ) -> Vec<i32> {
        assert!((0.0..=1.0).contains(&density), "density outside [0,1]");
        let nnz = ((n as f64 * density).round() as usize).min(n);
        let mut out = vec![0i32; n];
        let max = if signed {
            bits.signed_max()
        } else {
            bits.unsigned_max()
        };
        for idx in self.rng.sample_indices(n, nnz) {
            let mag = 1 + self.rng.below(max as usize) as i32;
            out[idx] = if signed && self.rng.bernoulli(0.5) {
                -mag
            } else {
                mag
            };
        }
        out
    }

    /// Generates `n` non-zero values whose *atom density* (fraction of
    /// non-zero `atom_bits` atoms among ⌈bits/atom_bits⌉ slots) matches the
    /// target in expectation. Used by the Fig 15 atom-sparsity sweep.
    pub fn values_with_atom_density(
        &mut self,
        n: usize,
        bits: BitWidth,
        atom_bits: u8,
        atom_density: f64,
        signed: bool,
    ) -> Vec<i32> {
        assert!(
            (0.0..=1.0).contains(&atom_density),
            "atom density outside [0,1]"
        );
        let slots = bits.bits().div_ceil(atom_bits) as usize;
        let atom_max = (1u32 << atom_bits) - 1;
        // Values must be non-zero, so an all-zero draw gets one forced atom;
        // that inflates the measured density by (1-p)^S / S. Solve for the
        // per-slot probability p whose *effective* density hits the target.
        let target = atom_density.max(1.0 / slots as f64);
        let effective = |p: f64| p + (1.0 - p).powi(slots as i32) / slots as f64;
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if effective(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let p = 0.5 * (lo + hi);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut mag = 0u32;
            for s in 0..slots {
                if self.rng.bernoulli(p) {
                    let a = 1 + self.rng.below(atom_max as usize) as u32;
                    mag |= a << (s as u32 * atom_bits as u32);
                }
            }
            if mag == 0 {
                // Values must be non-zero: force one atom.
                let s = self.rng.below(slots);
                mag =
                    (1 + self.rng.below(atom_max as usize) as u32) << (s as u32 * atom_bits as u32);
            }
            // Clamp to the representable range.
            let cap = if signed {
                bits.signed_max() as u32
            } else {
                bits.unsigned_max() as u32
            };
            let mag = mag.min(cap).max(1) as i32;
            out.push(if signed && self.rng.bernoulli(0.5) {
                -mag
            } else {
                mag
            });
        }
        out
    }

    /// Draws one channel's worth of adversarial values: a per-channel
    /// pattern chosen from all-zero, dense-maximal, dense-random, sparse,
    /// very-sparse-extreme, and single-hot-spot — the corner distributions
    /// a differential harness needs (empty streams, all-dense tiles,
    /// maximal magnitudes, and a lone value that leaves every other tile
    /// unoccupied).
    fn adversarial_plane(&mut self, n: usize, max_mag: i32, signed: bool) -> Vec<i32> {
        debug_assert!(max_mag >= 1);
        let value = |rng: &mut SeededRng, mag: i32| {
            if signed && rng.bernoulli(0.5) {
                -mag
            } else {
                mag
            }
        };
        match self.rng.below(6) {
            // Empty channel: exercises empty-stream handling end to end.
            0 => vec![0; n],
            // All-dense at the maximal magnitude: worst-case atom counts.
            1 => (0..n).map(|_| value(&mut self.rng, max_mag)).collect(),
            // Dense random.
            2 => (0..n)
                .map(|_| {
                    let mag = 1 + self.rng.below(max_mag as usize) as i32;
                    value(&mut self.rng, mag)
                })
                .collect(),
            // Moderately sparse random.
            3 => (0..n)
                .map(|_| {
                    if self.rng.bernoulli(0.6) {
                        0
                    } else {
                        let mag = 1 + self.rng.below(max_mag as usize) as i32;
                        value(&mut self.rng, mag)
                    }
                })
                .collect(),
            // Very sparse, extreme magnitudes only (1 or max).
            4 => (0..n)
                .map(|_| {
                    if self.rng.bernoulli(0.9) {
                        0
                    } else {
                        let mag = if self.rng.bernoulli(0.5) { 1 } else { max_mag };
                        value(&mut self.rng, mag)
                    }
                })
                .collect(),
            // Single hot spot: one maximal value in an otherwise empty
            // plane, so a tiled consumer sees exactly one occupied tile
            // among arbitrarily many empty ones.
            _ => {
                let mut plane = vec![0; n];
                let slot = self.rng.below(n.max(1));
                if let Some(cell) = plane.get_mut(slot) {
                    *cell = value(&mut self.rng, max_mag);
                }
                plane
            }
        }
    }

    /// Generates an adversarial activation tensor for differential testing:
    /// each channel independently draws one of the corner patterns
    /// (all-zero, dense-maximal, dense-random, sparse, very-sparse with
    /// maximal magnitudes). Values are unsigned and bounded by
    /// `bits.unsigned_max()` (the full atomizable range).
    ///
    /// # Errors
    /// Propagates shape validation from [`Tensor3::from_vec`].
    pub fn adversarial_activations(
        &mut self,
        c: usize,
        h: usize,
        w: usize,
        bits: BitWidth,
    ) -> Result<Tensor3, QnnError> {
        let mut data = Vec::with_capacity(c * h * w);
        for _ in 0..c {
            data.extend(self.adversarial_plane(h * w, bits.unsigned_max(), false));
        }
        Tensor3::from_vec(c, h, w, data)
    }

    /// Generates an adversarial kernel tensor for differential testing.
    /// Patterns are drawn per **input** channel (across all kernels), so
    /// whole weight streams come out empty; weights are signed with
    /// magnitudes up to `bits.unsigned_max()` — the full range the signed
    /// atomizer accepts, beyond the symmetric-quantizer maximum.
    ///
    /// # Errors
    /// Propagates shape validation from [`Tensor4::from_vec`].
    pub fn adversarial_weights(
        &mut self,
        o: usize,
        i: usize,
        kh: usize,
        kw: usize,
        bits: BitWidth,
    ) -> Result<Tensor4, QnnError> {
        let mut data = vec![0i32; o * i * kh * kw];
        let per_kernel = kh * kw;
        for ic in 0..i {
            let plane = self.adversarial_plane(o * per_kernel, bits.unsigned_max(), true);
            for oc in 0..o {
                let dst = ((oc * i) + ic) * per_kernel;
                let src = oc * per_kernel;
                data[dst..dst + per_kernel].copy_from_slice(&plane[src..src + per_kernel]);
            }
        }
        Tensor4::from_vec(o, i, kh, kw, data)
    }
}

/// Per-layer statistics: everything the analytic accelerator models need,
/// produced by per-channel sampling without materializing huge tensors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerStats {
    /// The layer geometry.
    pub layer: ConvLayer,
    /// Weight bit-width.
    pub w_bits: BitWidth,
    /// Activation bit-width.
    pub a_bits: BitWidth,
    /// Atom granularity the atom counts below were computed at.
    pub atom_bits: u8,
    /// Whole-layer weight sparsity statistics (scaled to full size).
    pub weight: SparsityStats,
    /// Whole-layer activation sparsity statistics (scaled to full size).
    pub activation: SparsityStats,
    /// Non-zero activation atoms per input channel (the balancer's `T_i`).
    pub act_atoms_per_channel: Vec<u64>,
    /// Non-zero weight atoms per input channel across all kernels (`S_i`).
    pub weight_atoms_per_channel: Vec<u64>,
    /// Non-zero activation *values* per input channel.
    pub act_values_per_channel: Vec<u64>,
    /// Non-zero weight *values* per input channel across all kernels.
    pub weight_values_per_channel: Vec<u64>,
    /// Representative sample of raw weight values (including zeros).
    pub weight_sample: Vec<i32>,
    /// Representative sample of raw activation values (including zeros).
    pub activation_sample: Vec<i32>,
}

impl LayerStats {
    /// Estimates statistics for `layer` by sampling each input channel
    /// (up to a cap) and scaling to the true element counts.
    pub fn generate(
        layer: &ConvLayer,
        wp: &WeightProfile,
        ap: &ActivationProfile,
        atom_bits: u8,
        rng: &mut SeededRng,
    ) -> Self {
        let in_c = layer.in_channels;
        let acts_per_ch = layer.in_h * layer.in_w;
        let weights_per_ch = layer.out_channels * layer.kernel * layer.kernel;

        let wq = WorkloadGen::weight_quantizer(wp);
        let aq = WorkloadGen::activation_quantizer(ap);
        let shift = ap.effective_shift();

        let mut act_atoms = Vec::with_capacity(in_c);
        let mut w_atoms = Vec::with_capacity(in_c);
        let mut act_vals = Vec::with_capacity(in_c);
        let mut w_vals = Vec::with_capacity(in_c);
        let mut w_sample = Vec::new();
        let mut a_sample = Vec::new();
        let (mut a_nnz, mut a_atom_total) = (0u64, 0u64);
        let (mut w_nnz, mut w_atom_total) = (0u64, 0u64);

        // Per-channel sparsity jitter (channels of real networks differ).
        for _ in 0..in_c {
            let ch_shift = shift + 0.25 * rng.normal();

            // Activations for this channel.
            let n_s = acts_per_ch.min(CHANNEL_SAMPLE_CAP);
            let scale = acts_per_ch as f64 / n_s as f64;
            let (mut nnz, mut atoms) = (0u64, 0u64);
            for _ in 0..n_s {
                let v = WorkloadGen::sample_activation(rng, &aq, ch_shift);
                if a_sample.len() < STATS_SAMPLE_CAP {
                    a_sample.push(v);
                }
                if v != 0 {
                    nnz += 1;
                    atoms += nonzero_atoms(v, atom_bits) as u64;
                }
            }
            let (nnz, atoms) = ((nnz as f64 * scale) as u64, (atoms as f64 * scale) as u64);
            act_vals.push(nnz);
            act_atoms.push(atoms);
            a_nnz += nnz;
            a_atom_total += atoms;

            // Weights feeding this channel (slice of all kernels).
            let n_s = weights_per_ch.min(CHANNEL_SAMPLE_CAP);
            let scale = weights_per_ch as f64 / n_s as f64;
            let mut vals: Vec<i32> = (0..n_s)
                .map(|_| WorkloadGen::sample_weight(rng, &wq))
                .collect();
            if wp.prune_sparsity > 0.0 {
                magnitude_prune(&mut vals, wp.prune_sparsity);
            }
            let (mut nnz, mut atoms) = (0u64, 0u64);
            for &v in &vals {
                if w_sample.len() < STATS_SAMPLE_CAP {
                    w_sample.push(v);
                }
                if v != 0 {
                    nnz += 1;
                    atoms += nonzero_atoms(v, atom_bits) as u64;
                }
            }
            let (nnz, atoms) = ((nnz as f64 * scale) as u64, (atoms as f64 * scale) as u64);
            w_vals.push(nnz);
            w_atoms.push(atoms);
            w_nnz += nnz;
            w_atom_total += atoms;
        }

        let a_total = layer.activation_count();
        let w_total = layer.weight_count();
        let a_slots = ap.bits.bits().div_ceil(atom_bits) as f64;
        let w_slots = wp.bits.bits().div_ceil(atom_bits) as f64;

        let activation = SparsityStats {
            len: a_total,
            nonzero_values: a_nnz as usize,
            nonzero_atoms: a_atom_total,
            value_density: a_nnz as f64 / a_total as f64,
            atom_density: if a_nnz == 0 {
                0.0
            } else {
                a_atom_total as f64 / (a_nnz as f64 * a_slots)
            },
        };
        let weight = SparsityStats {
            len: w_total,
            nonzero_values: w_nnz as usize,
            nonzero_atoms: w_atom_total,
            value_density: w_nnz as f64 / w_total as f64,
            atom_density: if w_nnz == 0 {
                0.0
            } else {
                w_atom_total as f64 / (w_nnz as f64 * w_slots)
            },
        };

        Self {
            layer: layer.clone(),
            w_bits: wp.bits,
            a_bits: ap.bits,
            atom_bits,
            weight,
            activation,
            act_atoms_per_channel: act_atoms,
            weight_atoms_per_channel: w_atoms,
            act_values_per_channel: act_vals,
            weight_values_per_channel: w_vals,
            weight_sample: w_sample,
            activation_sample: a_sample,
        }
    }

    /// Computes *exact* statistics from materialized tensors (no
    /// sampling) — what the hardware's post-processing unit measures on
    /// real data, and the bridge between the functional pipeline and the
    /// analytic simulators.
    ///
    /// # Panics
    /// Panics if tensor shapes disagree with the layer geometry.
    pub fn measure(
        layer: &ConvLayer,
        fmap: &Tensor3,
        kernels: &Tensor4,
        a_bits: BitWidth,
        w_bits: BitWidth,
        atom_bits: u8,
    ) -> Self {
        assert_eq!(
            fmap.shape(),
            (layer.in_channels, layer.in_h, layer.in_w),
            "fmap shape"
        );
        assert_eq!(
            kernels.shape(),
            (
                layer.out_channels,
                layer.in_channels,
                layer.kernel,
                layer.kernel
            ),
            "kernel shape"
        );
        let mut act_atoms = Vec::with_capacity(layer.in_channels);
        let mut w_atoms = Vec::with_capacity(layer.in_channels);
        let mut act_vals = Vec::with_capacity(layer.in_channels);
        let mut w_vals = Vec::with_capacity(layer.in_channels);
        let mut w_sample = Vec::new();
        let mut a_sample = Vec::new();
        for ci in 0..layer.in_channels {
            let plane = fmap.channel(ci);
            let (mut nnz, mut atoms) = (0u64, 0u64);
            for &v in plane {
                if a_sample.len() < STATS_SAMPLE_CAP {
                    a_sample.push(v);
                }
                if v != 0 {
                    nnz += 1;
                    atoms += nonzero_atoms(v, atom_bits) as u64;
                }
            }
            act_vals.push(nnz);
            act_atoms.push(atoms);

            let (mut nnz, mut atoms) = (0u64, 0u64);
            for oc in 0..layer.out_channels {
                for &v in kernels.kernel_slice(oc, ci) {
                    if w_sample.len() < STATS_SAMPLE_CAP {
                        w_sample.push(v);
                    }
                    if v != 0 {
                        nnz += 1;
                        atoms += nonzero_atoms(v, atom_bits) as u64;
                    }
                }
            }
            w_vals.push(nnz);
            w_atoms.push(atoms);
        }
        let activation = SparsityStats::from_tensor3(fmap, a_bits.bits(), atom_bits);
        let weight = SparsityStats::from_tensor4(kernels, w_bits.bits(), atom_bits);
        Self {
            layer: layer.clone(),
            w_bits,
            a_bits,
            atom_bits,
            weight,
            activation,
            act_atoms_per_channel: act_atoms,
            weight_atoms_per_channel: w_atoms,
            act_values_per_channel: act_vals,
            weight_values_per_channel: w_vals,
            weight_sample: w_sample,
            activation_sample: a_sample,
        }
    }

    /// Total non-zero activation atoms (the balancer's `T`).
    pub fn total_act_atoms(&self) -> u64 {
        self.act_atoms_per_channel.iter().sum()
    }

    /// Total non-zero weight atoms (`S` summed over channels).
    pub fn total_weight_atoms(&self) -> u64 {
        self.weight_atoms_per_channel.iter().sum()
    }

    /// Dense number of atom-level multiplications for this layer:
    /// `MACs · slots_w · slots_a` at this granularity.
    pub fn dense_atom_ops(&self) -> u64 {
        let wa = self.w_bits.bits().div_ceil(self.atom_bits) as u64;
        let aa = self.a_bits.bits().div_ceil(self.atom_bits) as u64;
        self.layer.macs() * wa * aa
    }
}

/// Precision policy for a network run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrecisionPolicy {
    /// Same bit-width for all layers, weights and activations.
    Uniform(BitWidth),
    /// EdMIPS-style mixed precision: each layer independently draws weight
    /// and activation bit-widths from {2, 4} (paper §V-A2).
    Mixed24,
}

impl PrecisionPolicy {
    /// Label used in reports ("8b", "4b", "2b", "mixed 2/4b").
    pub fn label(&self) -> String {
        match self {
            PrecisionPolicy::Uniform(b) => b.to_string(),
            PrecisionPolicy::Mixed24 => "mixed 2/4b".to_string(),
        }
    }
}

/// Statistics for a whole network at a precision policy — the input every
/// accelerator model's network-level run consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Which network.
    pub id: NetworkId,
    /// Policy that produced the per-layer bit-widths.
    pub policy: PrecisionPolicy,
    /// Per-layer statistics, in execution order.
    pub layers: Vec<LayerStats>,
}

impl NetworkStats {
    /// Generates statistics for network `id` under `policy` at the given
    /// atom granularity, deterministically from `seed`.
    pub fn generate(id: NetworkId, policy: PrecisionPolicy, atom_bits: u8, seed: u64) -> Self {
        let net = Network::new(id);
        let (shift, clip, prune) = network_flavor(id);
        let mut rng = SeededRng::new(seed ^ (id as u64) << 32);
        let mut layers = Vec::with_capacity(net.layers().len());
        for layer in net.layers() {
            let (wb, ab) = match policy {
                PrecisionPolicy::Uniform(b) => (b, b),
                PrecisionPolicy::Mixed24 => {
                    let wb = if rng.bernoulli(0.5) {
                        BitWidth::W2
                    } else {
                        BitWidth::W4
                    };
                    let ab = if rng.bernoulli(0.5) {
                        BitWidth::W2
                    } else {
                        BitWidth::W4
                    };
                    (wb, ab)
                }
            };
            // Fully connected layers tolerate far harder magnitude pruning
            // than convolutions (Deep Compression reaches ~90% on FC vs
            // ~65% on conv without accuracy loss).
            let layer_prune = if layer.kind == crate::layers::LayerKind::FullyConnected {
                prune.max(0.90)
            } else {
                prune
            };
            let wp = WeightProfile {
                bits: wb,
                prune_sparsity: layer_prune,
                clip_scale: clip,
            };
            let ap = ActivationProfile {
                bits: ab,
                relu_shift: shift,
            };
            let mut lrng = rng.fork(layers.len() as u64);
            layers.push(LayerStats::generate(layer, &wp, &ap, atom_bits, &mut lrng));
        }
        Self { id, policy, layers }
    }

    /// Total dense MACs across all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.layer.macs()).sum()
    }
}

/// A fully materialized small layer (tensors + geometry) for the
/// cycle-accurate simulators and correctness tests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyntheticLayer {
    /// Geometry.
    pub layer: ConvLayer,
    /// Input feature map.
    pub fmap: Tensor3,
    /// Kernels.
    pub kernels: Tensor4,
}

impl SyntheticLayer {
    /// Materializes tensors for a (small) layer; use [`LayerStats`] for
    /// large layers.
    ///
    /// # Errors
    /// Returns [`QnnError::LayerTooLarge`] beyond 64M elements, and
    /// propagates tensor-construction errors.
    pub fn try_generate(
        layer: &ConvLayer,
        wp: &WeightProfile,
        ap: &ActivationProfile,
        gen: &mut WorkloadGen,
    ) -> Result<Self, QnnError> {
        let elems = layer.weight_count() + layer.activation_count();
        if elems > 64 << 20 {
            return Err(QnnError::LayerTooLarge { elements: elems });
        }
        let fmap = gen.activations(layer.in_channels, layer.in_h, layer.in_w, ap)?;
        let kernels = gen.weights(
            layer.out_channels,
            layer.in_channels,
            layer.kernel,
            layer.kernel,
            wp,
        )?;
        Ok(Self {
            layer: layer.clone(),
            fmap,
            kernels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_sparsity_grows_as_bits_shrink() {
        let mut gen = WorkloadGen::new(11);
        let mut prev = 0.0;
        for bits in [BitWidth::W8, BitWidth::W6, BitWidth::W4, BitWidth::W2] {
            let v = gen.weight_values(40_000, &WeightProfile::unpruned(bits));
            let stats = SparsityStats::from_values(&v, bits.bits(), 2);
            let sparsity = stats.value_sparsity();
            assert!(sparsity >= prev, "{bits}: {sparsity} < {prev}");
            prev = sparsity;
        }
    }

    #[test]
    fn two_bit_sparsity_near_paper_averages() {
        let mut gen = WorkloadGen::new(5);
        let w = gen.weight_values(60_000, &WeightProfile::unpruned(BitWidth::W2));
        let ws = 1.0 - crate::sparsity::value_density(&w);
        assert!(
            (0.38..0.60).contains(&ws),
            "2b weight sparsity {ws} (paper avg 0.4743)"
        );

        let a = gen.activation_values(60_000, &ActivationProfile::new(BitWidth::W2));
        let asp = 1.0 - crate::sparsity::value_density(&a);
        assert!(
            (0.66..0.85).contains(&asp),
            "2b activation sparsity {asp} (paper avg 0.7525)"
        );
    }

    #[test]
    fn activations_are_unsigned_and_in_range() {
        let mut gen = WorkloadGen::new(3);
        let a = gen.activation_values(10_000, &ActivationProfile::new(BitWidth::W4));
        assert!(a.iter().all(|&v| (0..=15).contains(&v)));
    }

    #[test]
    fn weights_fit_signed_range() {
        let mut gen = WorkloadGen::new(3);
        let w = gen.weight_values(10_000, &WeightProfile::unpruned(BitWidth::W4));
        assert!(w.iter().all(|&v| (-7..=7).contains(&v)));
    }

    #[test]
    fn values_with_density_exact() {
        let mut gen = WorkloadGen::new(9);
        let v = gen.values_with_density(1000, BitWidth::W8, 0.3, true);
        assert_eq!(v.iter().filter(|&&x| x != 0).count(), 300);
        assert!(v.iter().all(|&x| x.abs() <= 127));
    }

    #[test]
    fn values_with_atom_density_hits_target() {
        let mut gen = WorkloadGen::new(2);
        for target in [0.3, 0.6, 0.9] {
            let v = gen.values_with_atom_density(20_000, BitWidth::W8, 2, target, false);
            assert!(v.iter().all(|&x| x > 0));
            let stats = SparsityStats::from_values(&v, 8, 2);
            assert!(
                (stats.atom_density - target).abs() < 0.05,
                "target {target}, measured {}",
                stats.atom_density
            );
        }
    }

    #[test]
    fn layer_stats_are_consistent() {
        let layer = ConvLayer::conv("t", 16, 32, 3, 1, 1, 14, 14).unwrap();
        let mut rng = SeededRng::new(1);
        let s = LayerStats::generate(
            &layer,
            &WeightProfile::benchmark(BitWidth::W4),
            &ActivationProfile::new(BitWidth::W4),
            2,
            &mut rng,
        );
        assert_eq!(s.act_atoms_per_channel.len(), 16);
        assert_eq!(s.weight_atoms_per_channel.len(), 16);
        assert_eq!(s.total_act_atoms(), s.activation.nonzero_atoms);
        assert_eq!(s.total_weight_atoms(), s.weight.nonzero_atoms);
        assert!(s.weight.value_density > 0.0 && s.weight.value_density < 1.0);
        // Pruned to 45%: density should be at most ~0.55.
        assert!(s.weight.value_density <= 0.60, "{}", s.weight.value_density);
        assert!(!s.weight_sample.is_empty() && !s.activation_sample.is_empty());
    }

    #[test]
    fn network_stats_generate_all_layers_deterministically() {
        let a = NetworkStats::generate(
            NetworkId::AlexNet,
            PrecisionPolicy::Uniform(BitWidth::W4),
            2,
            7,
        );
        let b = NetworkStats::generate(
            NetworkId::AlexNet,
            PrecisionPolicy::Uniform(BitWidth::W4),
            2,
            7,
        );
        assert_eq!(a, b);
        assert_eq!(
            a.layers.len(),
            Network::new(NetworkId::AlexNet).layers().len()
        );
    }

    #[test]
    fn mixed_policy_uses_both_widths() {
        let s = NetworkStats::generate(NetworkId::ResNet50, PrecisionPolicy::Mixed24, 2, 3);
        let widths: std::collections::HashSet<u8> = s
            .layers
            .iter()
            .flat_map(|l| [l.w_bits.bits(), l.a_bits.bits()])
            .collect();
        assert!(widths.contains(&2) && widths.contains(&4));
        assert_eq!(PrecisionPolicy::Mixed24.label(), "mixed 2/4b");
    }

    #[test]
    fn measured_stats_are_exact() {
        let layer = ConvLayer::conv("t", 4, 8, 3, 1, 1, 10, 10).unwrap();
        let mut gen = WorkloadGen::new(17);
        let s = SyntheticLayer::try_generate(
            &layer,
            &WeightProfile::benchmark(BitWidth::W4),
            &ActivationProfile::new(BitWidth::W8),
            &mut gen,
        )
        .unwrap();
        let m = LayerStats::measure(&layer, &s.fmap, &s.kernels, BitWidth::W8, BitWidth::W4, 2);
        // Per-channel sums equal whole-tensor statistics exactly.
        assert_eq!(m.total_act_atoms(), m.activation.nonzero_atoms);
        assert_eq!(m.total_weight_atoms(), m.weight.nonzero_atoms);
        assert_eq!(
            m.act_values_per_channel.iter().sum::<u64>() as usize,
            s.fmap.count_nonzero()
        );
        assert_eq!(
            m.weight_values_per_channel.iter().sum::<u64>() as usize,
            s.kernels.count_nonzero()
        );
    }

    #[test]
    fn adversarial_activations_stay_in_unsigned_range() {
        let mut gen = WorkloadGen::new(21);
        for bits in [BitWidth::W2, BitWidth::W8, BitWidth::W16] {
            let t = gen.adversarial_activations(6, 5, 5, bits).unwrap();
            let max = bits.unsigned_max();
            assert!(t.as_slice().iter().all(|&v| (0..=max).contains(&v)));
        }
    }

    #[test]
    fn adversarial_weights_cover_corners() {
        // Over enough channels the generator must produce at least one
        // empty input-channel plane, one maximal-magnitude value, and one
        // negative value — the corners the differential harness relies on.
        let mut gen = WorkloadGen::new(1);
        let bits = BitWidth::W4;
        let k = gen.adversarial_weights(3, 40, 3, 3, bits).unwrap();
        let max = bits.unsigned_max();
        assert!(k.as_slice().iter().all(|&v| v.abs() <= max));
        let empty_plane =
            (0..40).any(|ic| (0..3).all(|oc| k.kernel_slice(oc, ic).iter().all(|&v| v == 0)));
        assert!(empty_plane, "no empty input-channel plane in 40 draws");
        assert!(k.as_slice().iter().any(|&v| v.abs() == max));
        assert!(k.as_slice().iter().any(|&v| v < 0));
    }

    #[test]
    fn adversarial_planes_include_single_hot_spots() {
        // Over enough channels the hot-spot pattern must appear: a plane
        // with exactly one non-zero cell at the maximal magnitude.
        let mut gen = WorkloadGen::new(13);
        let bits = BitWidth::W4;
        let t = gen.adversarial_activations(48, 5, 5, bits).unwrap();
        let max = bits.unsigned_max();
        let hot = (0..48).any(|c| {
            let plane = t.channel(c);
            plane.iter().filter(|&&v| v != 0).count() == 1 && plane.contains(&max)
        });
        assert!(hot, "no single-hot-spot plane in 48 draws");
    }

    #[test]
    fn adversarial_generation_is_deterministic() {
        let mut a = WorkloadGen::new(77);
        let mut b = WorkloadGen::new(77);
        assert_eq!(
            a.adversarial_activations(4, 6, 6, BitWidth::W8).unwrap(),
            b.adversarial_activations(4, 6, 6, BitWidth::W8).unwrap()
        );
        assert_eq!(
            a.adversarial_weights(4, 4, 3, 3, BitWidth::W8).unwrap(),
            b.adversarial_weights(4, 4, 3, 3, BitWidth::W8).unwrap()
        );
    }

    #[test]
    fn synthetic_layer_materializes() {
        let layer = ConvLayer::conv("t", 4, 8, 3, 1, 1, 10, 10).unwrap();
        let mut gen = WorkloadGen::new(4);
        let s = SyntheticLayer::try_generate(
            &layer,
            &WeightProfile::benchmark(BitWidth::W8),
            &ActivationProfile::new(BitWidth::W8),
            &mut gen,
        )
        .unwrap();
        assert_eq!(s.fmap.shape(), (4, 10, 10));
        assert_eq!(s.kernels.shape(), (8, 4, 3, 3));
    }
}
