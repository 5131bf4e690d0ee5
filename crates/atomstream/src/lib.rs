//! # atomstream — condensed streaming computation (CSC)
//!
//! The core algorithmic contribution of *Ristretto: An Atomized Processing
//! Architecture for Sparsity-Condensed Stream Flow in CNN* (MICRO 2022).
//!
//! The key idea: both high-level sparse convolution and low-level
//! mixed-precision integer multiplication are outer products between compact
//! streams of non-zero elements. An `m`-bit integer is a stream of
//! ⌈m/N⌉ N-bit *atoms*; multiplying two integers is a 1-D convolution of
//! their atom streams (paper Fig 5). A sparse convolution multiplies every
//! non-zero weight with every non-zero activation of a channel. Because
//! data reuse exists at both levels, the two merge into one dataflow:
//!
//! 1. **Flattening** ([`flatten`]) — feature-map tiles and kernels become
//!    compact 1-D value streams carrying coordinate metadata;
//! 2. **Compression** ([`compress`], [`decompose`]) — zero values *and*
//!    zero atoms are squeezed out, leaving atom streams with shift offsets,
//!    sign bits and last-atom flags;
//! 3. **Intersection** ([`intersect`]) — a 1-D convolution between the
//!    static weight atom stream and the sliding activation atom stream,
//!    with per-product alignment and metadata-directed accumulation.
//!
//! [`conv_csc`] assembles the full pipeline into a drop-in sparse
//! mixed-precision convolution that matches `qnn`'s dense reference
//! bit-exactly, and [`cycles`] provides the closed-form step count
//! (paper Eq 3–5) that drives Ristretto's load balancer.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod atom;
pub mod compress;
pub mod conv_csc;
pub mod cycles;
pub mod decompose;
pub mod error;
pub mod flatten;
pub mod intersect;
pub mod kernel;
pub mod stream;
pub mod wire;

/// Glob import of the commonly used items.
pub mod prelude {
    pub use crate::atom::{shift_range, Atom, AtomBits};
    pub use crate::compress::{compress_activations, compress_weights};
    pub use crate::conv_csc::{
        conv2d_csc, conv2d_csc_streams_reference, conv2d_csc_streams_with, CscConfig, CscOutput,
        CscStats, WeightStreamSet,
    };
    pub use crate::cycles::{ideal_steps, intersect_epsilon, tile_cycles};
    pub use crate::decompose::{atomize_signed, atomize_unsigned, recompose};
    pub use crate::error::AtomError;
    pub use crate::flatten::{flatten_kernel_channel, flatten_tile, flatten_tile_into};
    pub use crate::intersect::{intersect, FullConvAcc, IntersectConfig, IntersectStats};
    pub use crate::kernel::{plan_group_geometry, CscScratch};
    pub use crate::stream::{ActivationStream, WeightStream};
    pub use crate::wire::{fnv1a_bytes, WireError, WireReader, WireWriter};
}
