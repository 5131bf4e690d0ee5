//! Error type for the `atomstream` crate.

use std::error::Error;
use std::fmt;

/// Errors produced by atomization and stream construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtomError {
    /// Atom granularity outside the supported `1..=8` range.
    BadGranularity(u8),
    /// A value does not fit the declared bit-width.
    ValueTooWide {
        /// Offending value.
        value: i64,
        /// Declared value bit-width.
        bits: u8,
    },
    /// A negative value was given to an unsigned atomizer.
    NegativeUnsigned(i64),
    /// Stream construction saw inconsistent tile shapes.
    TileShapeMismatch {
        /// Expected shape.
        expected: (usize, usize),
        /// Provided shape.
        actual: (usize, usize),
    },
    /// A precompiled weight stream was executed under a different atom
    /// granularity than it was compiled with.
    GranularityMismatch {
        /// Granularity the stream was compiled with (bits).
        compiled: u8,
        /// Granularity requested at run time (bits).
        requested: u8,
    },
    /// A weight-buffer image field does not fit its packed bit allocation
    /// (e.g. an atom shift beyond 4 bits or a kernel coordinate beyond 4
    /// bits); packing would silently truncate high bits.
    PackFieldOverflow {
        /// Name of the packed field that overflowed.
        field: &'static str,
        /// Value that was asked to be packed.
        value: u32,
        /// Largest value the field's bit allocation can hold.
        max: u32,
    },
    /// A stream's online FNV-1a checksum no longer matches the digest
    /// recorded at compile time — the stream's bits were corrupted between
    /// compilation and intersection.
    StreamChecksumMismatch {
        /// Input channel whose stream failed verification.
        channel: usize,
        /// Digest recorded at compile time.
        expected: u64,
        /// Digest observed online.
        actual: u64,
    },
    /// A weight stream carries a kernel coordinate outside the accumulator's
    /// kernel extent: the Eq 1 address `k − 1 − x_w` would underflow. Caught
    /// up front, before the intersection loop can compute a wrapped address.
    WeightCoordOutOfKernel {
        /// Index of the offending entry in the stream.
        index: usize,
        /// The entry's kernel column.
        x: u16,
        /// The entry's kernel row.
        y: u16,
        /// Kernel extent the accumulator was built for.
        kernel: usize,
    },
    /// A weight stream entry addresses an output channel the stream set
    /// does not have (the accumulator plane it would write does not
    /// exist).
    WeightOutChannelOutOfRange {
        /// Input channel whose stream holds the entry.
        channel: usize,
        /// Index of the offending entry in that stream.
        index: usize,
        /// The entry's output channel.
        out_ch: u16,
        /// Output channels the stream set covers.
        out_channels: usize,
    },
    /// An error bubbled up from the `qnn` substrate.
    Qnn(qnn::error::QnnError),
}

impl fmt::Display for AtomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtomError::BadGranularity(b) => write!(f, "atom granularity {b} outside 1..=8"),
            AtomError::ValueTooWide { value, bits } => {
                write!(
                    f,
                    "value {value} does not fit declared width of {bits} bits"
                )
            }
            AtomError::NegativeUnsigned(v) => {
                write!(f, "negative value {v} given to unsigned atomizer")
            }
            AtomError::TileShapeMismatch { expected, actual } => {
                write!(
                    f,
                    "tile shape {actual:?} does not match expected {expected:?}"
                )
            }
            AtomError::GranularityMismatch {
                compiled,
                requested,
            } => {
                write!(
                    f,
                    "stream compiled at {compiled}-bit atoms run at {requested}-bit atoms"
                )
            }
            AtomError::PackFieldOverflow { field, value, max } => {
                write!(
                    f,
                    "weight-buffer field `{field}` value {value} exceeds packed maximum {max}"
                )
            }
            AtomError::StreamChecksumMismatch {
                channel,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "stream checksum mismatch on channel {channel}: \
                     compiled {expected:#018x}, observed {actual:#018x}"
                )
            }
            AtomError::WeightCoordOutOfKernel {
                index,
                x,
                y,
                kernel,
            } => {
                write!(
                    f,
                    "weight atom {index} at kernel coordinate ({y}, {x}) exceeds \
                     kernel extent {kernel}"
                )
            }
            AtomError::WeightOutChannelOutOfRange {
                channel,
                index,
                out_ch,
                out_channels,
            } => {
                write!(
                    f,
                    "weight atom {index} of channel {channel} addresses output channel \
                     {out_ch}, but the layer has {out_channels}"
                )
            }
            AtomError::Qnn(e) => write!(f, "substrate error: {e}"),
        }
    }
}

impl Error for AtomError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AtomError::Qnn(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<qnn::error::QnnError> for AtomError {
    fn from(e: qnn::error::QnnError) -> Self {
        AtomError::Qnn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_concise() {
        assert!(AtomError::BadGranularity(9).to_string().contains('9'));
        let e: AtomError = qnn::error::QnnError::ZeroStride.into();
        assert!(e.to_string().contains("stride"));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn pack_field_overflow_names_the_field() {
        let e = AtomError::PackFieldOverflow {
            field: "shift",
            value: 19,
            max: 15,
        };
        let s = e.to_string();
        assert!(
            s.contains("shift") && s.contains("19") && s.contains("15"),
            "{s}"
        );
    }

    #[test]
    fn checksum_mismatch_names_channel_and_digests() {
        let e = AtomError::StreamChecksumMismatch {
            channel: 3,
            expected: 0xdead,
            actual: 0xbeef,
        };
        let s = e.to_string();
        assert!(
            s.contains('3') && s.contains("dead") && s.contains("beef"),
            "{s}"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AtomError>();
    }

    #[test]
    fn weight_coord_error_names_atom_and_extent() {
        let e = AtomError::WeightCoordOutOfKernel {
            index: 4,
            x: 7,
            y: 2,
            kernel: 3,
        };
        let s = e.to_string();
        assert!(
            s.contains('4') && s.contains('7') && s.contains('2') && s.contains('3'),
            "{s}"
        );
    }
}
