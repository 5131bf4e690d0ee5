//! Uniform quantization, as used for the paper's Figure 1 sparsity study and
//! the DNN benchmark models.
//!
//! Weights are quantized with a *symmetric signed* quantizer (range
//! `[-(2^{b-1}-1), 2^{b-1}-1]`), activations with an *unsigned* quantizer
//! (range `[0, 2^b - 1]`) because ReLU precedes quantization (§III-A of the
//! paper). Both clip at a configurable range and round to nearest.

use crate::error::QnnError;
use serde::{Deserialize, Serialize};

/// A supported quantization bit-width (1..=16).
///
/// The paper evaluates 2/4/8-bit models plus EdMIPS-style mixed 2/4-bit
/// models; Figure 1 additionally includes 6-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BitWidth(u8);

impl BitWidth {
    /// 2-bit quantization.
    pub const W2: BitWidth = BitWidth(2);
    /// 4-bit quantization.
    pub const W4: BitWidth = BitWidth(4);
    /// 6-bit quantization.
    pub const W6: BitWidth = BitWidth(6);
    /// 8-bit quantization.
    pub const W8: BitWidth = BitWidth(8);
    /// 16-bit quantization (supported via spatial extension / temporal
    /// decomposition, §IV-D).
    pub const W16: BitWidth = BitWidth(16);

    /// Creates a bit-width, validating the supported range.
    ///
    /// # Errors
    /// Returns [`QnnError::UnsupportedBitWidth`] outside `1..=16`.
    pub fn new(bits: u8) -> Result<Self, QnnError> {
        if (1..=16).contains(&bits) {
            Ok(BitWidth(bits))
        } else {
            Err(QnnError::UnsupportedBitWidth(bits))
        }
    }

    /// The raw number of bits.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Largest representable magnitude for a symmetric signed value:
    /// `2^{b-1} - 1`.
    pub fn signed_max(self) -> i32 {
        if self.0 == 1 {
            1
        } else {
            (1i32 << (self.0 - 1)) - 1
        }
    }

    /// Largest representable unsigned value: `2^b - 1`.
    pub fn unsigned_max(self) -> i32 {
        ((1i64 << self.0) - 1) as i32
    }

    /// Checks that a signed value fits this width.
    ///
    /// # Errors
    /// Returns [`QnnError::ValueOutOfRange`] when `|v|` exceeds
    /// [`Self::signed_max`].
    pub fn check_signed(self, v: i32) -> Result<(), QnnError> {
        if v.abs() > self.signed_max() {
            Err(QnnError::ValueOutOfRange {
                value: v as i64,
                bits: self.0,
            })
        } else {
            Ok(())
        }
    }

    /// Checks that an unsigned value fits this width.
    ///
    /// # Errors
    /// Returns [`QnnError::ValueOutOfRange`] when `v` is negative or exceeds
    /// [`Self::unsigned_max`].
    pub fn check_unsigned(self, v: i32) -> Result<(), QnnError> {
        if v < 0 || v > self.unsigned_max() {
            Err(QnnError::ValueOutOfRange {
                value: v as i64,
                bits: self.0,
            })
        } else {
            Ok(())
        }
    }
}

impl std::fmt::Display for BitWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}b", self.0)
    }
}

impl TryFrom<u8> for BitWidth {
    type Error = QnnError;

    fn try_from(bits: u8) -> Result<Self, Self::Error> {
        BitWidth::new(bits)
    }
}

/// Whether a quantizer produces signed (symmetric) or unsigned values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Signedness {
    /// Symmetric signed range `[-(2^{b-1}-1), 2^{b-1}-1]` (weights).
    Signed,
    /// Unsigned range `[0, 2^b - 1]` (post-ReLU activations).
    Unsigned,
}

/// A uniform quantizer: `q = clamp(round(x / step))` with a fixed step size
/// derived from the clip range.
///
/// ```
/// use qnn::quant::Quantizer;
/// let q = Quantizer::symmetric(4, 1.0); // clip at ±1.0, 4-bit signed
/// assert_eq!(q.quantize(1.0), 7);
/// assert_eq!(q.quantize(-2.0), -7); // clipped
/// assert_eq!(q.quantize(0.01), 0);  // rounds into the zero bin
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quantizer {
    bits: BitWidth,
    signedness: Signedness,
    step: f32,
}

impl Quantizer {
    /// Symmetric signed quantizer clipping at `±clip`.
    ///
    /// # Panics
    /// Panics if `bits` is outside `1..=16` or `clip` is not positive.
    pub fn symmetric(bits: u8, clip: f32) -> Self {
        let bits = BitWidth::new(bits).expect("bit-width in 1..=16");
        assert!(clip > 0.0, "clip range must be positive");
        Self {
            bits,
            signedness: Signedness::Signed,
            step: clip / bits.signed_max() as f32,
        }
    }

    /// Unsigned quantizer clipping at `[0, clip]`.
    ///
    /// # Panics
    /// Panics if `bits` is outside `1..=16` or `clip` is not positive.
    pub fn unsigned(bits: u8, clip: f32) -> Self {
        let bits = BitWidth::new(bits).expect("bit-width in 1..=16");
        assert!(clip > 0.0, "clip range must be positive");
        Self {
            bits,
            signedness: Signedness::Unsigned,
            step: clip / bits.unsigned_max() as f32,
        }
    }

    /// The quantization step size (scale).
    pub fn step(&self) -> f32 {
        self.step
    }

    /// The configured bit-width.
    pub fn bits(&self) -> BitWidth {
        self.bits
    }

    /// Whether this quantizer is signed.
    pub fn signedness(&self) -> Signedness {
        self.signedness
    }

    /// Quantizes a single value to the integer grid.
    pub fn quantize(&self, x: f32) -> i32 {
        let q = (x / self.step).round() as i64;
        let q = match self.signedness {
            Signedness::Signed => {
                let m = self.bits.signed_max() as i64;
                q.clamp(-m, m)
            }
            Signedness::Unsigned => q.clamp(0, self.bits.unsigned_max() as i64),
        };
        q as i32
    }

    /// Maps a quantized integer back to the real line.
    pub fn dequantize(&self, q: i32) -> f32 {
        q as f32 * self.step
    }
}

/// Clip-range multiplier (in units of the tensor's standard deviation) used
/// by the synthetic model calibration for *weights* at a given bit-width.
///
/// Learned clipping in low-bit quantization shrinks the clip range as the
/// bit-width decreases; these multipliers reproduce the unpruned weight
/// sparsity trend of the paper's Figure 1 (≈2% at 8-bit rising to ≈47% at
/// 2-bit for Laplacian-distributed weights).
pub fn weight_clip_multiplier(bits: BitWidth) -> f32 {
    match bits.bits() {
        0..=2 => 1.0,
        3..=4 => 2.0,
        5..=6 => 3.0,
        _ => 4.0,
    }
}

/// Clip-range multiplier for *activations* (in units of the pre-activation
/// standard deviation).
pub fn activation_clip_multiplier(bits: BitWidth) -> f32 {
    match bits.bits() {
        0..=2 => 1.5,
        3..=4 => 2.5,
        5..=6 => 3.5,
        _ => 4.0,
    }
}

/// Extra shift of the pre-activation mean (in σ units) applied when a model
/// is *retrained* at a low bit-width.
///
/// Low-bit retraining empirically yields sparser activations (paper Fig 1:
/// activation sparsity grows from ~50% at 8-bit to 75.25% average at 2-bit).
/// Quantization alone cannot reproduce that growth — the retrained network's
/// activation distribution itself shifts — so the synthetic workload
/// generator shifts the pre-activation mean by this amount. Documented as a
/// substitution in DESIGN.md §2.
pub fn retrain_sparsity_shift(bits: BitWidth) -> f32 {
    match bits.bits() {
        0..=2 => 0.62,
        3..=4 => 0.30,
        5..=6 => 0.12,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwidth_ranges() {
        assert_eq!(BitWidth::W2.signed_max(), 1);
        assert_eq!(BitWidth::W4.signed_max(), 7);
        assert_eq!(BitWidth::W8.signed_max(), 127);
        assert_eq!(BitWidth::W2.unsigned_max(), 3);
        assert_eq!(BitWidth::W8.unsigned_max(), 255);
        assert_eq!(BitWidth::W16.unsigned_max(), 65535);
        assert!(BitWidth::new(0).is_err());
        assert!(BitWidth::new(17).is_err());
    }

    #[test]
    fn bitwidth_checks() {
        assert!(BitWidth::W4.check_signed(7).is_ok());
        assert!(BitWidth::W4.check_signed(-7).is_ok());
        assert!(BitWidth::W4.check_signed(8).is_err());
        assert!(BitWidth::W4.check_unsigned(15).is_ok());
        assert!(BitWidth::W4.check_unsigned(16).is_err());
        assert!(BitWidth::W4.check_unsigned(-1).is_err());
    }

    #[test]
    fn symmetric_quantizer_clips_and_rounds() {
        let q = Quantizer::symmetric(8, 2.0);
        assert_eq!(q.quantize(2.0), 127);
        assert_eq!(q.quantize(-5.0), -127);
        assert_eq!(q.quantize(0.0), 0);
        // step = 2/127; a value of half a step rounds away from zero.
        assert_eq!(q.quantize(2.0 / 127.0 * 0.51), 1);
        assert_eq!(q.quantize(2.0 / 127.0 * 0.49), 0);
    }

    #[test]
    fn unsigned_quantizer_clamps_negatives() {
        let q = Quantizer::unsigned(4, 1.5);
        assert_eq!(q.quantize(-0.3), 0);
        assert_eq!(q.quantize(1.5), 15);
        assert_eq!(q.quantize(10.0), 15);
    }

    #[test]
    fn dequantize_inverts_on_grid() {
        let q = Quantizer::symmetric(6, 1.0);
        for v in -31..=31 {
            assert_eq!(q.quantize(q.dequantize(v)), v);
        }
    }

    #[test]
    fn clip_multipliers_monotone_in_bits() {
        let widths = [BitWidth::W2, BitWidth::W4, BitWidth::W6, BitWidth::W8];
        for pair in widths.windows(2) {
            assert!(weight_clip_multiplier(pair[0]) <= weight_clip_multiplier(pair[1]));
            assert!(activation_clip_multiplier(pair[0]) <= activation_clip_multiplier(pair[1]));
            assert!(retrain_sparsity_shift(pair[0]) >= retrain_sparsity_shift(pair[1]));
        }
    }

    #[test]
    fn display_format() {
        assert_eq!(BitWidth::W4.to_string(), "4b");
    }
}
