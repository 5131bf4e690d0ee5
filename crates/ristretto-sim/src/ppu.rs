//! The post-processing unit (PPU).
//!
//! When a group of output feature maps lands in the output buffer, the PPU
//! (a) applies ReLU and requantization, (b) squeezes zero values out into
//! the block COO-2D format for the next layer or DRAM, and (c) counts each
//! output channel's non-zero atoms with an Atomizer-like scanner — the
//! statistic the w/a load balancer needs for the *next* layer (§IV-E).

use atomstream::atom::AtomBits;
use qnn::formats::coo::CooFeatureMap;
use qnn::sparsity::nonzero_atoms;
use qnn::tensor::{AccTensor3, Tensor3};
use serde::{Deserialize, Serialize};

/// PPU configuration: the requantization applied between layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PostProcessor {
    /// Right-shift applied to accumulator values (the layer's output
    /// scale).
    pub requant_shift: u32,
    /// Output activation bit-width.
    pub out_bits: u8,
    /// Atom granularity used for the balancing statistics.
    pub atom_bits: AtomBits,
    /// Tile extents used for the COO-2D compression.
    pub tile_h: usize,
    /// Tile width.
    pub tile_w: usize,
}

/// Per-channel statistics the PPU hands to the balancer, plus the
/// compressed output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PpuOutput {
    /// The requantized activation tensor (next layer's input).
    pub activations: Tensor3,
    /// Compressed form (what actually moves to DRAM / the input buffer).
    pub compressed: CooFeatureMap,
    /// Non-zero values per output channel.
    pub values_per_channel: Vec<u64>,
    /// Non-zero atoms per output channel (the balancer's `T_i` for the
    /// next layer).
    pub atoms_per_channel: Vec<u64>,
}

impl PpuOutput {
    /// Total non-zero values.
    pub fn total_values(&self) -> u64 {
        self.values_per_channel.iter().sum()
    }

    /// Total non-zero atoms.
    pub fn total_atoms(&self) -> u64 {
        self.atoms_per_channel.iter().sum()
    }
}

impl PostProcessor {
    /// A PPU for 8-bit outputs with the default tiling.
    pub fn new(requant_shift: u32, out_bits: u8) -> Self {
        Self {
            requant_shift,
            out_bits,
            atom_bits: AtomBits::B2,
            tile_h: 8,
            tile_w: 8,
        }
    }

    /// Processes one layer's accumulated outputs.
    ///
    /// # Errors
    /// Returns an error when the configured COO-2D tile extents are zero.
    pub fn try_process(&self, acc: &AccTensor3) -> Result<PpuOutput, qnn::error::QnnError> {
        let activations = acc.requantize_relu(self.requant_shift, self.out_bits);
        let (c, _, _) = activations.shape();
        let mut values_per_channel = vec![0u64; c];
        let mut atoms_per_channel = vec![0u64; c];
        for ci in 0..c {
            for &v in activations.channel(ci) {
                if v != 0 {
                    values_per_channel[ci] += 1;
                    atoms_per_channel[ci] += nonzero_atoms(v, self.atom_bits.bits()) as u64;
                }
            }
        }
        let compressed = CooFeatureMap::from_tensor(&activations, self.tile_h, self.tile_w)?;
        Ok(PpuOutput {
            activations,
            compressed,
            values_per_channel,
            atoms_per_channel,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc_from(vals: &[i64], c: usize, h: usize, w: usize) -> AccTensor3 {
        let mut a = AccTensor3::zeros(c, h, w).unwrap();
        for (i, &v) in vals.iter().enumerate() {
            let x = i % w;
            let y = (i / w) % h;
            let ci = i / (w * h);
            a.set(ci, y, x, v);
        }
        a
    }

    #[test]
    fn relu_requant_and_counts() {
        // Channel 0: [-4, 8, 64, 0]; shift 2, 4-bit out -> [0, 2, 15(sat), 0].
        let acc = acc_from(&[-4, 8, 64, 0, 4, 4, 4, 4], 2, 2, 2);
        let ppu = PostProcessor {
            requant_shift: 2,
            out_bits: 4,
            ..PostProcessor::new(2, 4)
        };
        let out = ppu.try_process(&acc).unwrap();
        assert_eq!(out.activations.channel(0), &[0, 2, 15, 0]);
        assert_eq!(out.activations.channel(1), &[1, 1, 1, 1]);
        assert_eq!(out.values_per_channel, vec![2, 4]);
        // atoms: 2 -> 1 atom, 15 -> 2 atoms; 1 -> 1 atom each.
        assert_eq!(out.atoms_per_channel, vec![3, 4]);
        assert_eq!(out.total_values(), 6);
        assert_eq!(out.total_atoms(), 7);
    }

    #[test]
    fn negative_accumulators_round_toward_zero_then_relu_to_zero() {
        // The requantization shift divides rounding toward zero (same
        // convention as pool2d Average); combined with ReLU every negative
        // accumulator lands exactly at 0, never at a wrapped or −∞-rounded
        // value. -7 >> 1 would be -4 under arithmetic shift; the PPU
        // computes trunc(-7 / 2) = -3, and ReLU clamps both to 0.
        let acc = acc_from(&[-7, -1, -1024, i64::MIN, 6, 0, 9, 64], 2, 2, 2);
        let ppu = PostProcessor {
            requant_shift: 1,
            out_bits: 4,
            ..PostProcessor::new(1, 4)
        };
        let out = ppu.try_process(&acc).unwrap();
        assert_eq!(out.activations.channel(0), &[0, 0, 0, 0]);
        assert_eq!(out.activations.channel(1), &[3, 0, 4, 15]);
        assert_eq!(out.values_per_channel, vec![0, 3]);
    }

    #[test]
    fn compressed_roundtrips() {
        let acc = acc_from(&[0, 12, 0, 300, 0, 0, 5, 0], 2, 2, 2);
        let ppu = PostProcessor::new(0, 8);
        let out = ppu.try_process(&acc).unwrap();
        assert_eq!(out.compressed.to_tensor(2, 2), out.activations);
        assert_eq!(out.compressed.count_nonzero() as u64, out.total_values());
    }

    #[test]
    fn counts_match_sparsity_module() {
        use qnn::sparsity::SparsityStats;
        let acc = acc_from(
            &(0..64)
                .map(|i| (i * 7 % 300) as i64 - 50)
                .collect::<Vec<_>>(),
            4,
            4,
            4,
        );
        let ppu = PostProcessor::new(1, 8);
        let out = ppu.try_process(&acc).unwrap();
        let stats = SparsityStats::from_tensor3(&out.activations, 8, 2);
        assert_eq!(out.total_atoms(), stats.nonzero_atoms);
        assert_eq!(out.total_values() as usize, stats.nonzero_values);
    }
}
