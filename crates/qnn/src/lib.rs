//! # qnn — quantized CNN substrate
//!
//! This crate provides everything the Ristretto reproduction needs from the
//! "algorithm side" of the paper:
//!
//! * integer [`tensor::Tensor3`]/[`tensor::Tensor4`] containers for
//!   quantized activations and weights,
//! * the uniform quantizer used in the paper's Figure 1 study ([`quant`]),
//! * two independent reference convolutions that serve as ground truth for
//!   the condensed-streaming computation ([`conv`], [`im2col`]) plus
//!   pooling ([`pool`]),
//! * sparse compression formats: bitmap (SparTen), block COO-2D (Ristretto)
//!   and CSR ([`formats`]),
//! * value- and atom-level sparsity statistics ([`sparsity`]),
//! * magnitude pruning ([`prune`]),
//! * the six-network DNN benchmark layer tables ([`models`]) and their
//!   functional miniatures ([`mini`]), and
//! * seeded synthetic workload generation standing in for ImageNet-trained
//!   models ([`workload`]).
//!
//! ## Example
//!
//! ```
//! use qnn::prelude::*;
//!
//! // Quantize a float kernel to 4 bits and convolve with a random
//! // quantized feature map.
//! let q = Quantizer::symmetric(4, 1.0);
//! let w: Vec<i32> = [0.9f32, -0.4, 0.05, 0.7].iter().map(|&x| q.quantize(x)).collect();
//! let kernel = Tensor4::from_vec(1, 1, 2, 2, w).unwrap();
//! let fmap = Tensor3::from_vec(1, 3, 3, vec![1, 0, 2, 0, 3, 0, 4, 0, 5]).unwrap();
//! let out = conv2d(&fmap, &kernel, ConvGeometry::default()).unwrap();
//! assert_eq!(out.shape(), (1, 2, 2));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod conv;
pub mod error;
pub mod formats;
pub mod im2col;
pub mod layers;
pub mod mini;
pub mod models;
pub mod pool;
pub mod prune;
pub mod quant;
pub mod rng;
pub mod sparsity;
pub mod tensor;
pub mod workload;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::conv::{conv2d, relu, ConvGeometry};
    pub use crate::error::QnnError;
    pub use crate::formats::{bitmap::BitmapVec, coo::BlockCoo2d, csr::CsrMatrix};
    pub use crate::im2col::conv2d_im2col;
    pub use crate::layers::{ConvLayer, LayerKind};
    pub use crate::models::{Network, NetworkId};
    pub use crate::pool::{global_average_pool, pool2d, PoolKind};
    pub use crate::prune::magnitude_prune;
    pub use crate::quant::{BitWidth, Quantizer};
    pub use crate::sparsity::{atom_density, value_density, SparsityStats};
    pub use crate::tensor::{Tensor3, Tensor4};
    pub use crate::workload::{ActivationProfile, SyntheticLayer, WeightProfile, WorkloadGen};
}
