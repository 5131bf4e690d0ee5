//! Layer plan and per-layer trace types of a CSC inference.
//!
//! A [`PipelineLayer`] is one stage of the §IV workflow: a convolution
//! plus its PPU post-processing (ReLU, requantize, compress, count
//! statistics) and optional pooling. The compile-once engine
//! ([`crate::engine`]) runs a [`crate::engine::NetworkModel`] built from
//! these layers and returns one [`LayerTrace`] per layer, carrying exactly
//! the statistics the hardware's balancer would see.

use atomstream::conv_csc::CscStats;
use qnn::conv::ConvGeometry;
use qnn::pool::PoolKind;
use qnn::quant::BitWidth;
use qnn::tensor::Tensor4;
use serde::{Deserialize, Serialize};

/// One pipeline stage: a convolution plus its post-processing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineLayer {
    /// Layer name for reporting.
    pub name: String,
    /// The (quantized) kernels.
    pub kernels: Tensor4,
    /// Stride/padding.
    pub geom: ConvGeometry,
    /// Weight bit-width.
    pub w_bits: BitWidth,
    /// Input activation bit-width.
    pub a_bits: BitWidth,
    /// Requantization shift applied by the PPU.
    pub requant_shift: u32,
    /// Output activation bit-width after the PPU.
    pub out_bits: u8,
    /// Optional pooling after the PPU: `(kind, window, stride, padding)`.
    pub pool: Option<(PoolKind, usize, usize, usize)>,
}

/// Per-layer execution record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerTrace {
    /// Layer name.
    pub name: String,
    /// CSC work counters.
    pub stats: CscStats,
    /// Output non-zero values per channel (PPU statistic).
    pub out_values_per_channel: Vec<u64>,
    /// Output non-zero atoms per channel (PPU statistic — next layer's
    /// balancing input).
    pub out_atoms_per_channel: Vec<u64>,
}
