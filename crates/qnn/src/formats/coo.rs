//! Ristretto's block COO-2D compression format (paper §IV-B, Fig 8).
//!
//! Feature maps are partitioned into spatial tiles; each non-zero activation
//! is stored as a value plus a `(x, y)` coordinate *relative to the tile
//! origin*, in zigzag (row-major) flattening order. Kernels use the same
//! layout per `(output, input)` channel slice. This removes all on- and
//! off-chip movement of zero values.

use crate::error::QnnError;
use crate::tensor::Tensor3;
use serde::{Deserialize, Serialize};

/// One compressed entry: a non-zero value with its in-tile coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CooEntry {
    /// Non-zero value.
    pub value: i32,
    /// Column offset from the tile origin.
    pub x: u16,
    /// Row offset from the tile origin.
    pub y: u16,
}

/// A block COO-2D compressed spatial tile of one channel.
///
/// ```
/// use qnn::formats::coo::BlockCoo2d;
/// let tile = BlockCoo2d::from_dense(&[0, 7, 0, 9], 2, 2).unwrap();
/// assert_eq!(tile.entries().len(), 2);
/// assert_eq!(tile.entries()[0].value, 7);
/// assert_eq!((tile.entries()[1].x, tile.entries()[1].y), (1, 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockCoo2d {
    th: usize,
    tw: usize,
    entries: Vec<CooEntry>,
}

impl BlockCoo2d {
    /// Compresses a dense row-major tile of shape `(th, tw)`.
    ///
    /// # Errors
    /// Returns [`QnnError::ShapeMismatch`] if `dense.len() != th * tw`, and
    /// [`QnnError::EmptyDimension`] for zero extents.
    pub fn from_dense(dense: &[i32], th: usize, tw: usize) -> Result<Self, QnnError> {
        if th == 0 {
            return Err(QnnError::EmptyDimension("th"));
        }
        if tw == 0 {
            return Err(QnnError::EmptyDimension("tw"));
        }
        if dense.len() != th * tw {
            return Err(QnnError::ShapeMismatch {
                expected: th * tw,
                actual: dense.len(),
            });
        }
        let mut entries = Vec::new();
        // Zigzag (row-major) flattening order, matching Fig 6.
        for y in 0..th {
            for x in 0..tw {
                let v = dense[y * tw + x];
                if v != 0 {
                    entries.push(CooEntry {
                        value: v,
                        x: x as u16,
                        y: y as u16,
                    });
                }
            }
        }
        Ok(Self { th, tw, entries })
    }

    /// Compresses one spatial tile of a channel of a feature map, clamping
    /// at the tensor boundary.
    ///
    /// # Panics
    /// Panics if `c` is out of bounds of `fmap`.
    pub fn from_fmap_tile(
        fmap: &Tensor3,
        c: usize,
        y0: usize,
        x0: usize,
        th: usize,
        tw: usize,
    ) -> Self {
        let dense = fmap.tile(c, y0, x0, th, tw);
        Self::from_dense(&dense, th, tw).expect("tile() returns th*tw elements")
    }

    /// The compressed entries, in zigzag order.
    pub fn entries(&self) -> &[CooEntry] {
        &self.entries
    }

    /// Number of non-zero values in the tile.
    pub fn count_nonzero(&self) -> usize {
        self.entries.len()
    }

    /// Decompresses back into a dense row-major tile.
    pub fn to_dense(&self) -> Vec<i32> {
        let mut out = vec![0; self.th * self.tw];
        for e in &self.entries {
            out[e.y as usize * self.tw + e.x as usize] = e.value;
        }
        out
    }

    /// Compressed size in bits: each entry carries `value_bits` for the
    /// value plus coordinate metadata (⌈log2 tw⌉ + ⌈log2 th⌉ bits).
    pub fn storage_bits(&self, value_bits: u8) -> usize {
        let coord_bits = bits_for(self.tw) + bits_for(self.th);
        self.entries.len() * (value_bits as usize + coord_bits)
    }
}

fn bits_for(extent: usize) -> usize {
    if extent <= 1 {
        1
    } else {
        (usize::BITS - (extent - 1).leading_zeros()) as usize
    }
}

/// A whole feature map compressed tile-by-tile in block COO-2D: the unit that
/// Ristretto's input buffer banks store contiguously per compute tile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CooFeatureMap {
    channels: usize,
    tiles_y: usize,
    tiles_x: usize,
    tile_h: usize,
    tile_w: usize,
    tiles: Vec<BlockCoo2d>,
}

impl CooFeatureMap {
    /// Compresses an entire feature map with `(tile_h, tile_w)` tiling.
    ///
    /// # Errors
    /// Returns [`QnnError::EmptyDimension`] for zero tile extents.
    pub fn from_tensor(fmap: &Tensor3, tile_h: usize, tile_w: usize) -> Result<Self, QnnError> {
        if tile_h == 0 {
            return Err(QnnError::EmptyDimension("tile_h"));
        }
        if tile_w == 0 {
            return Err(QnnError::EmptyDimension("tile_w"));
        }
        let (c, h, w) = fmap.shape();
        let tiles_y = h.div_ceil(tile_h);
        let tiles_x = w.div_ceil(tile_w);
        let mut tiles = Vec::with_capacity(c * tiles_y * tiles_x);
        for ci in 0..c {
            for ty in 0..tiles_y {
                for tx in 0..tiles_x {
                    tiles.push(BlockCoo2d::from_fmap_tile(
                        fmap,
                        ci,
                        ty * tile_h,
                        tx * tile_w,
                        tile_h,
                        tile_w,
                    ));
                }
            }
        }
        Ok(Self {
            channels: c,
            tiles_y,
            tiles_x,
            tile_h,
            tile_w,
            tiles,
        })
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Tile grid shape `(tiles_y, tiles_x)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.tiles_y, self.tiles_x)
    }

    /// The tile at channel `c`, grid position `(ty, tx)`.
    ///
    /// # Panics
    /// Panics when indices are out of range.
    pub fn tile(&self, c: usize, ty: usize, tx: usize) -> &BlockCoo2d {
        assert!(c < self.channels && ty < self.tiles_y && tx < self.tiles_x);
        &self.tiles[(c * self.tiles_y + ty) * self.tiles_x + tx]
    }

    /// Iterates over `(channel, ty, tx, tile)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize, &BlockCoo2d)> + '_ {
        self.tiles.iter().enumerate().map(move |(i, t)| {
            let tx = i % self.tiles_x;
            let ty = (i / self.tiles_x) % self.tiles_y;
            let c = i / (self.tiles_x * self.tiles_y);
            (c, ty, tx, t)
        })
    }

    /// Total number of non-zero values across all tiles.
    pub fn count_nonzero(&self) -> usize {
        self.tiles.iter().map(BlockCoo2d::count_nonzero).sum()
    }

    /// Reconstructs the dense feature map (tile padding is discarded).
    ///
    /// # Panics
    /// Panics only if internal invariants are violated.
    pub fn to_tensor(&self, h: usize, w: usize) -> Tensor3 {
        let mut out = Tensor3::zeros(self.channels, h, w).expect("non-empty reconstruction");
        for (c, ty, tx, tile) in self.iter() {
            for e in tile.entries() {
                let y = ty * self.tile_h + e.y as usize;
                let x = tx * self.tile_w + e.x as usize;
                if y < h && x < w {
                    out.set(c, y, x, e.value);
                }
            }
        }
        out
    }

    /// Total compressed size in bits.
    pub fn storage_bits(&self, value_bits: u8) -> usize {
        self.tiles.iter().map(|t| t.storage_bits(value_bits)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor3;

    #[test]
    fn tile_roundtrip() {
        let dense = vec![0, 1, 0, 0, 2, 0, 3, 0, 0];
        let c = BlockCoo2d::from_dense(&dense, 3, 3).unwrap();
        assert_eq!(c.count_nonzero(), 3);
        assert_eq!(c.to_dense(), dense);
    }

    #[test]
    fn entries_in_zigzag_order() {
        let dense = vec![0, 0, 5, 0, 6, 0, 7, 0, 0];
        let c = BlockCoo2d::from_dense(&dense, 3, 3).unwrap();
        let vals: Vec<i32> = c.entries().iter().map(|e| e.value).collect();
        assert_eq!(vals, vec![5, 6, 7]);
        assert_eq!((c.entries()[0].x, c.entries()[0].y), (2, 0));
    }

    #[test]
    fn fmap_roundtrip_with_ragged_tiles() {
        let fmap = Tensor3::from_fn(2, 5, 7, |c, y, x| {
            if (c + y + x) % 3 == 0 {
                (c + y + x) as i32 + 1
            } else {
                0
            }
        })
        .unwrap();
        let coo = CooFeatureMap::from_tensor(&fmap, 2, 2).unwrap();
        assert_eq!(coo.grid(), (3, 4));
        assert_eq!(coo.to_tensor(5, 7), fmap);
        assert_eq!(coo.count_nonzero(), fmap.count_nonzero());
    }

    #[test]
    fn storage_bits_counts_metadata() {
        let c = BlockCoo2d::from_dense(&[1, 0, 0, 2], 2, 2).unwrap();
        // 2 entries * (8 value bits + 1 + 1 coordinate bits)
        assert_eq!(c.storage_bits(8), 2 * 10);
    }

    #[test]
    fn bits_for_extents() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(16), 4);
        assert_eq!(bits_for(17), 5);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(BlockCoo2d::from_dense(&[1], 0, 1).is_err());
        assert!(BlockCoo2d::from_dense(&[1, 2, 3], 2, 2).is_err());
    }
}
