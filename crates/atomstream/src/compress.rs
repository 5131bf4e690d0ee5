//! Compression: value streams → condensed atom streams
//! (phase 2 of the condensed streaming computation, paper §III-B / Fig 6).
//!
//! Squeezes zero atoms out of the flattened non-zero values, generating per
//! atom: shift offset, sign bit and last-atom flag. After this phase both
//! value-level and bit-level sparsity have been fully exploited.

use crate::atom::AtomBits;
use crate::decompose::{atomize_signed, atomize_unsigned};
use crate::error::AtomError;
use crate::flatten::{FlatActivation, FlatWeight};
use crate::stream::{ActEntry, ActivationStream, WeightEntry, WeightStream};

/// Compresses flattened activations into a condensed atom stream.
///
/// # Errors
/// Propagates [`AtomError::ValueTooWide`] / [`AtomError::NegativeUnsigned`]
/// for values that do not fit `a_bits` as unsigned integers.
pub fn compress_activations(
    flat: &[FlatActivation],
    a_bits: u8,
    atom_bits: AtomBits,
) -> Result<ActivationStream, AtomError> {
    let mut entries = Vec::new();
    for f in flat {
        for atom in atomize_unsigned(f.value, a_bits, atom_bits)? {
            entries.push(ActEntry {
                atom,
                x: f.x,
                y: f.y,
            });
        }
    }
    // Squeeze statistics: every value occupies `slots` atom positions in
    // the dense layout; whatever compression did not emit was a zero atom.
    let slots_total = flat.len() as u64 * atom_bits.slots(a_bits) as u64;
    obs::record(obs::Event::CompressActValues, flat.len() as u64);
    obs::record(obs::Event::CompressActAtoms, entries.len() as u64);
    obs::record(
        obs::Event::CompressActZeroAtomsSqueezed,
        slots_total.saturating_sub(entries.len() as u64),
    );
    Ok(ActivationStream::from_entries(entries))
}

/// Compresses flattened weights into a condensed atom stream in the
/// *shuffled* order of §IV-C2 (slice-grouped, channel-first).
///
/// # Errors
/// Propagates [`AtomError::ValueTooWide`] for weights that exceed `w_bits`.
pub fn compress_weights(
    flat: &[FlatWeight],
    w_bits: u8,
    atom_bits: AtomBits,
) -> Result<WeightStream, AtomError> {
    Ok(WeightStream::shuffled(weight_entries(
        flat, w_bits, atom_bits,
    )?))
}

/// Compresses flattened weights *without* the stream shuffle (naive value
/// order) — used to verify that atom order never changes results.
///
/// # Errors
/// Propagates [`AtomError::ValueTooWide`] for weights that exceed `w_bits`.
pub fn compress_weights_naive(
    flat: &[FlatWeight],
    w_bits: u8,
    atom_bits: AtomBits,
) -> Result<WeightStream, AtomError> {
    Ok(WeightStream::from_entries(weight_entries(
        flat, w_bits, atom_bits,
    )?))
}

fn weight_entries(
    flat: &[FlatWeight],
    w_bits: u8,
    atom_bits: AtomBits,
) -> Result<Vec<WeightEntry>, AtomError> {
    let mut entries = Vec::new();
    for f in flat {
        for atom in atomize_signed(f.value, w_bits, atom_bits)? {
            entries.push(WeightEntry {
                atom,
                x: f.x,
                y: f.y,
                out_ch: f.out_ch,
            });
        }
    }
    let slots_total = flat.len() as u64 * atom_bits.slots(w_bits) as u64;
    obs::record(obs::Event::CompressWeightValues, flat.len() as u64);
    obs::record(obs::Event::CompressWeightAtoms, entries.len() as u64);
    obs::record(
        obs::Event::CompressWeightZeroAtomsSqueezed,
        slots_total.saturating_sub(entries.len() as u64),
    );
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_compression_counts_atoms() {
        let flat = vec![
            FlatActivation {
                value: 29,
                x: 0,
                y: 0,
            }, // 3 atoms
            FlatActivation {
                value: 65,
                x: 1,
                y: 0,
            }, // 2 atoms (shifts 0, 6)
        ];
        let s = compress_activations(&flat, 8, AtomBits::B2).unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(s.value_count(), 2);
        // Coordinates latch across all atoms of a value.
        assert!(s.entries()[..3].iter().all(|e| e.x == 0));
        assert!(s.entries()[3..].iter().all(|e| e.x == 1));

        // §III-B constant input bandwidth: at 2-bit atoms, one 8-bit value,
        // two 4-bit values and four 2-bit values all fill the same four
        // atom slots, whatever the quantized width.
        for (a_bits, value, count) in [(8, 0xFF, 1), (4, 0xF, 2), (2, 0x3, 4)] {
            let flat: Vec<FlatActivation> = (0..count)
                .map(|x| FlatActivation { value, x, y: 0 })
                .collect();
            let s = compress_activations(&flat, a_bits, AtomBits::B2).unwrap();
            assert_eq!(s.len(), 4, "{count} x {a_bits}-bit {value:#x}");
        }
    }

    #[test]
    fn weight_compression_shuffles_by_slice() {
        let flat = vec![
            FlatWeight {
                value: 5,
                x: 0,
                y: 0,
                out_ch: 1,
            }, // atoms at shifts 0, 2
            FlatWeight {
                value: -4,
                x: 1,
                y: 0,
                out_ch: 0,
            }, // atom at shift 2
        ];
        let s = compress_weights(&flat, 4, AtomBits::B2).unwrap();
        let shifts: Vec<u8> = s.entries().iter().map(|e| e.atom.shift).collect();
        assert_eq!(shifts, vec![0, 2, 2]);
        let naive = compress_weights_naive(&flat, 4, AtomBits::B2).unwrap();
        let naive_shifts: Vec<u8> = naive.entries().iter().map(|e| e.atom.shift).collect();
        assert_eq!(naive_shifts, vec![0, 2, 2]);
        // Same multiset of entries either way.
        let mut a = s.entries().to_vec();
        let mut b = naive.entries().to_vec();
        let key = |e: &WeightEntry| (e.atom.shift, e.atom.mag, e.x, e.y, e.out_ch);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_streams() {
        assert!(compress_activations(&[], 8, AtomBits::B2)
            .unwrap()
            .is_empty());
        assert!(compress_weights(&[], 8, AtomBits::B2).unwrap().is_empty());
    }
}
