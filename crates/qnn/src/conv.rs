//! Dense reference convolution.
//!
//! This is the ground truth against which the condensed streaming
//! computation (`atomstream` crate) and every accelerator model are
//! validated. It is a direct (non-im2col) implementation with explicit
//! zero padding and arbitrary stride, accumulating in `i64`.

use crate::error::QnnError;
use crate::tensor::{AccTensor3, Tensor3, Tensor4};
use serde::{Deserialize, Serialize};

/// Convolution geometry: kernel size is carried by the weight tensor; this
/// struct holds stride and padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvGeometry {
    /// Vertical and horizontal stride (≥ 1).
    pub stride: usize,
    /// Symmetric zero padding applied on all four sides.
    pub padding: usize,
}

impl ConvGeometry {
    /// Stride-1 geometry with `padding` zeros on each side.
    pub fn unit_stride(padding: usize) -> Self {
        Self { stride: 1, padding }
    }

    /// Geometry with the given stride and padding.
    ///
    /// # Errors
    /// Returns [`QnnError::ZeroStride`] if `stride == 0`.
    pub fn new(stride: usize, padding: usize) -> Result<Self, QnnError> {
        if stride == 0 {
            return Err(QnnError::ZeroStride);
        }
        Ok(Self { stride, padding })
    }

    /// Output spatial extent for an input of extent `n` and kernel extent `k`.
    ///
    /// # Errors
    /// Returns [`QnnError::KernelTooLarge`] if the padded input is smaller
    /// than the kernel.
    pub fn out_extent(&self, n: usize, k: usize) -> Result<usize, QnnError> {
        let padded = n + 2 * self.padding;
        if padded < k {
            return Err(QnnError::KernelTooLarge {
                kernel: k,
                input: padded,
            });
        }
        Ok((padded - k) / self.stride + 1)
    }
}

impl Default for ConvGeometry {
    fn default() -> Self {
        Self {
            stride: 1,
            padding: 0,
        }
    }
}

/// Computes a dense 2-D convolution (really cross-correlation, the CNN
/// convention) of a quantized feature map with a set of kernels.
///
/// The output has shape `(kernels.out_channels(), H_out, W_out)` and `i64`
/// elements.
///
/// ```
/// use qnn::conv::{conv2d, ConvGeometry};
/// use qnn::tensor::{Tensor3, Tensor4};
///
/// let fmap = Tensor3::from_vec(1, 2, 2, vec![1, 2, 3, 4]).unwrap();
/// let k = Tensor4::from_vec(1, 1, 2, 2, vec![1, 0, 0, 1]).unwrap();
/// let out = conv2d(&fmap, &k, ConvGeometry::default()).unwrap();
/// assert_eq!(out.get(0, 0, 0), 1 + 4);
/// ```
///
/// # Errors
/// Returns [`QnnError::ChannelMismatch`] when the kernel's input-channel
/// count differs from the feature map's channel count, and
/// [`QnnError::KernelTooLarge`] when the padded input is smaller than the
/// kernel.
pub fn conv2d(
    fmap: &Tensor3,
    kernels: &Tensor4,
    geom: ConvGeometry,
) -> Result<AccTensor3, QnnError> {
    let (c, h, w) = fmap.shape();
    let (o, i, kh, kw) = kernels.shape();
    if c != i {
        return Err(QnnError::ChannelMismatch { fmap: c, kernel: i });
    }
    let h_out = geom.out_extent(h, kh)?;
    let w_out = geom.out_extent(w, kw)?;
    let mut out = AccTensor3::zeros(o, h_out, w_out)?;
    let pad = geom.padding as isize;
    for oc in 0..o {
        for oy in 0..h_out {
            for ox in 0..w_out {
                let mut acc: i64 = 0;
                let base_y = (oy * geom.stride) as isize - pad;
                let base_x = (ox * geom.stride) as isize - pad;
                for ic in 0..c {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let a = fmap.get_padded(ic, base_y + ky as isize, base_x + kx as isize);
                            if a == 0 {
                                continue;
                            }
                            let wv = kernels.get(oc, ic, ky, kx);
                            acc += a as i64 * wv as i64;
                        }
                    }
                }
                out.set(oc, oy, ox, acc);
            }
        }
    }
    Ok(out)
}

/// Applies ReLU in place to an integer activation tensor.
pub fn relu(t: &mut Tensor3) {
    for v in t.as_mut_slice() {
        if *v < 0 {
            *v = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmap_1ch(h: usize, w: usize, vals: Vec<i32>) -> Tensor3 {
        Tensor3::from_vec(1, h, w, vals).unwrap()
    }

    #[test]
    fn identity_kernel_copies_input() {
        let f = fmap_1ch(3, 3, (1..=9).collect());
        let k = Tensor4::from_vec(1, 1, 1, 1, vec![1]).unwrap();
        let out = conv2d(&f, &k, ConvGeometry::default()).unwrap();
        for (c, y, x, v) in f.iter_indexed() {
            assert_eq!(out.get(c, y, x), v as i64);
        }
    }

    #[test]
    fn known_3x3_convolution() {
        // 3x3 input, 2x2 kernel, stride 1, no padding -> 2x2 output.
        let f = fmap_1ch(3, 3, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let k = Tensor4::from_vec(1, 1, 2, 2, vec![1, -1, 2, -2]).unwrap();
        let out = conv2d(&f, &k, ConvGeometry::default()).unwrap();
        // (0,0): 1*1 + 2*-1 + 4*2 + 5*-2 = 1 - 2 + 8 - 10 = -3
        assert_eq!(out.get(0, 0, 0), -3);
        // (1,1): 5*1 + 6*-1 + 8*2 + 9*-2 = 5 - 6 + 16 - 18 = -3
        assert_eq!(out.get(0, 1, 1), -3);
    }

    #[test]
    fn padding_grows_output() {
        let f = fmap_1ch(2, 2, vec![1, 2, 3, 4]);
        let k = Tensor4::from_vec(1, 1, 3, 3, vec![0, 0, 0, 0, 1, 0, 0, 0, 0]).unwrap();
        let out = conv2d(&f, &k, ConvGeometry::unit_stride(1)).unwrap();
        assert_eq!(out.shape(), (1, 2, 2));
        assert_eq!(out.get(0, 0, 0), 1);
        assert_eq!(out.get(0, 1, 1), 4);
    }

    #[test]
    fn stride_two_subsamples() {
        let f = fmap_1ch(4, 4, (1..=16).collect());
        let k = Tensor4::from_vec(1, 1, 1, 1, vec![1]).unwrap();
        let g = ConvGeometry::new(2, 0).unwrap();
        let out = conv2d(&f, &k, g).unwrap();
        assert_eq!(out.shape(), (1, 2, 2));
        assert_eq!(out.get(0, 0, 0), 1);
        assert_eq!(out.get(0, 0, 1), 3);
        assert_eq!(out.get(0, 1, 0), 9);
        assert_eq!(out.get(0, 1, 1), 11);
    }

    #[test]
    fn multi_channel_sums_over_channels() {
        let f = Tensor3::from_vec(2, 1, 1, vec![3, 5]).unwrap();
        let k = Tensor4::from_vec(1, 2, 1, 1, vec![2, 7]).unwrap();
        let out = conv2d(&f, &k, ConvGeometry::default()).unwrap();
        assert_eq!(out.get(0, 0, 0), 3 * 2 + 5 * 7);
    }

    #[test]
    fn multiple_kernels_produce_independent_outputs() {
        let f = fmap_1ch(2, 2, vec![1, 1, 1, 1]);
        let k = Tensor4::from_vec(2, 1, 2, 2, vec![1, 1, 1, 1, -1, -1, -1, -1]).unwrap();
        let out = conv2d(&f, &k, ConvGeometry::default()).unwrap();
        assert_eq!(out.get(0, 0, 0), 4);
        assert_eq!(out.get(1, 0, 0), -4);
    }

    #[test]
    fn channel_mismatch_rejected() {
        let f = fmap_1ch(2, 2, vec![0; 4]);
        let k = Tensor4::zeros(1, 3, 1, 1).unwrap();
        assert_eq!(
            conv2d(&f, &k, ConvGeometry::default()).unwrap_err(),
            QnnError::ChannelMismatch { fmap: 1, kernel: 3 }
        );
    }

    #[test]
    fn kernel_too_large_rejected() {
        let f = fmap_1ch(2, 2, vec![0; 4]);
        let k = Tensor4::zeros(1, 1, 5, 5).unwrap();
        assert!(matches!(
            conv2d(&f, &k, ConvGeometry::default()),
            Err(QnnError::KernelTooLarge {
                kernel: 5,
                input: 2
            })
        ));
    }

    #[test]
    fn relu_zeros_negatives_only() {
        let mut t = fmap_1ch(1, 4, vec![-3, 0, 2, -1]);
        relu(&mut t);
        assert_eq!(t.as_slice(), &[0, 0, 2, 0]);
    }
}
