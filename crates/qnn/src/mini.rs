//! Miniature functional variants of the six benchmark networks.
//!
//! The full layer tables in [`crate::models`] drive the analytic
//! simulators; these scaled-down variants (≤32 channels, ≤32×32 inputs)
//! keep each network's characteristic *shape* — AlexNet's big strided stem
//! and 5×5 layer, VGG's uniform 3×3 stacks, the inception reduce→expand
//! branches (linearized), ResNet's strided 3×3 pairs and 1×1 bottlenecks —
//! at a size the functional CSC pipeline can execute end-to-end in tests
//! and examples.

use crate::error::QnnError;
use crate::layers::ConvLayer;
use crate::models::NetworkId;
use crate::pool::PoolKind;
use serde::{Deserialize, Serialize};

/// One stage of a miniature network: a convolution plus optional pooling.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MiniStage {
    /// Convolution geometry.
    pub layer: ConvLayer,
    /// Optional pooling after the convolution:
    /// `(kind, window, stride, padding)`.
    pub pool: Option<(PoolKind, usize, usize, usize)>,
}

/// A miniature network: input shape plus stages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MiniNetwork {
    /// Which benchmark network this miniaturizes.
    pub id: NetworkId,
    /// Input shape `(channels, height, width)`.
    pub input: (usize, usize, usize),
    /// The stages in execution order.
    pub stages: Vec<MiniStage>,
}

impl MiniNetwork {
    /// Builds the miniature variant of `id`.
    ///
    /// # Errors
    /// Propagates layer-geometry errors from the built-in tables, which
    /// are valid by construction and never actually fail.
    pub fn try_new(id: NetworkId) -> Result<Self, QnnError> {
        build(id)
    }

    /// Checks that consecutive stages' shapes chain (conv + pool output of
    /// stage *i* equals the input of stage *i+1*).
    pub fn validate_chaining(&self) -> Result<(), String> {
        let (mut c, mut h, mut w) = self.input;
        for (i, stage) in self.stages.iter().enumerate() {
            let l = &stage.layer;
            if (l.in_channels, l.in_h, l.in_w) != (c, h, w) {
                return Err(format!(
                    "stage {i} ({}) expects {}x{}x{} but receives {c}x{h}x{w}",
                    l.name, l.in_channels, l.in_h, l.in_w
                ));
            }
            c = l.out_channels;
            h = l.out_h();
            w = l.out_w();
            if let Some((_, win, stride, pad)) = stage.pool {
                let g = crate::conv::ConvGeometry {
                    stride,
                    padding: pad,
                };
                h = g
                    .out_extent(h, win)
                    .map_err(|e| format!("stage {i} pool: {e}"))?;
                w = g
                    .out_extent(w, win)
                    .map_err(|e| format!("stage {i} pool: {e}"))?;
            }
        }
        Ok(())
    }
}

type Stages = Result<Vec<MiniStage>, QnnError>;

fn conv(stage: ConvLayer) -> MiniStage {
    MiniStage {
        layer: stage,
        pool: None,
    }
}

fn conv_pool(stage: ConvLayer, kind: PoolKind, win: usize, stride: usize) -> MiniStage {
    MiniStage {
        layer: stage,
        pool: Some((kind, win, stride, 0)),
    }
}

fn build(id: NetworkId) -> Result<MiniNetwork, QnnError> {
    let (input, stages): ((usize, usize, usize), Stages) = match id {
        NetworkId::AlexNet => ((3, 31, 31), {
            Ok(vec![
                // Strided big-kernel stem, overlapping pool.
                conv_pool(
                    ConvLayer::conv("m_conv1", 3, 8, 5, 2, 0, 31, 31)?,
                    PoolKind::Max,
                    3,
                    2,
                ),
                conv(ConvLayer::conv("m_conv2", 8, 12, 5, 1, 2, 6, 6)?),
                conv(ConvLayer::conv("m_conv3", 12, 12, 3, 1, 1, 6, 6)?),
                conv_pool(
                    ConvLayer::conv("m_conv5", 12, 8, 3, 1, 1, 6, 6)?,
                    PoolKind::Max,
                    2,
                    2,
                ),
                conv(ConvLayer::conv("m_fc", 8, 10, 3, 1, 0, 3, 3)?),
            ])
        }),
        NetworkId::Vgg16 => ((3, 16, 16), {
            Ok(vec![
                conv(ConvLayer::conv("m_conv1_1", 3, 8, 3, 1, 1, 16, 16)?),
                conv_pool(
                    ConvLayer::conv("m_conv1_2", 8, 8, 3, 1, 1, 16, 16)?,
                    PoolKind::Max,
                    2,
                    2,
                ),
                conv(ConvLayer::conv("m_conv2_1", 8, 16, 3, 1, 1, 8, 8)?),
                conv_pool(
                    ConvLayer::conv("m_conv2_2", 16, 16, 3, 1, 1, 8, 8)?,
                    PoolKind::Max,
                    2,
                    2,
                ),
                conv(ConvLayer::conv("m_conv3_1", 16, 16, 3, 1, 1, 4, 4)?),
                conv(ConvLayer::conv("m_fc", 16, 10, 4, 1, 0, 4, 4)?),
            ])
        }),
        NetworkId::GoogLeNet => ((3, 16, 16), {
            Ok(vec![
                conv_pool(
                    ConvLayer::conv("m_stem", 3, 8, 5, 1, 2, 16, 16)?,
                    PoolKind::Max,
                    2,
                    2,
                ),
                // Inception branches linearized: 1x1 reduce, 3x3 expand,
                // 5x5 branch, pool projection.
                conv(ConvLayer::conv("m_inc_red", 8, 4, 1, 1, 0, 8, 8)?),
                conv(ConvLayer::conv("m_inc_3x3", 4, 12, 3, 1, 1, 8, 8)?),
                conv(ConvLayer::conv("m_inc_5x5", 12, 8, 5, 1, 2, 8, 8)?),
                conv_pool(
                    ConvLayer::conv("m_inc_proj", 8, 16, 1, 1, 0, 8, 8)?,
                    PoolKind::Average,
                    2,
                    2,
                ),
                conv(ConvLayer::conv("m_fc", 16, 10, 4, 1, 0, 4, 4)?),
            ])
        }),
        NetworkId::InceptionV2 => ((3, 16, 16), {
            Ok(vec![
                conv_pool(
                    ConvLayer::conv("m_stem", 3, 8, 5, 1, 2, 16, 16)?,
                    PoolKind::Max,
                    2,
                    2,
                ),
                // Double-3x3 factorized branch.
                conv(ConvLayer::conv("m_d3x3_red", 8, 6, 1, 1, 0, 8, 8)?),
                conv(ConvLayer::conv("m_d3x3_a", 6, 8, 3, 1, 1, 8, 8)?),
                conv(ConvLayer::conv("m_d3x3_b", 8, 12, 3, 2, 1, 8, 8)?),
                conv(ConvLayer::conv("m_fc", 12, 10, 4, 1, 0, 4, 4)?),
            ])
        }),
        NetworkId::ResNet18 => ((3, 16, 16), {
            Ok(vec![
                conv_pool(
                    ConvLayer::conv("m_conv1", 3, 8, 7, 1, 3, 16, 16)?,
                    PoolKind::Max,
                    2,
                    2,
                ),
                conv(ConvLayer::conv("m_conv2_1", 8, 8, 3, 1, 1, 8, 8)?),
                conv(ConvLayer::conv("m_conv2_2", 8, 8, 3, 1, 1, 8, 8)?),
                // Strided downsample pair.
                conv(ConvLayer::conv("m_conv3_1", 8, 16, 3, 2, 1, 8, 8)?),
                conv(ConvLayer::conv("m_conv3_2", 16, 16, 3, 1, 1, 4, 4)?),
                conv(ConvLayer::conv("m_fc", 16, 10, 4, 1, 0, 4, 4)?),
            ])
        }),
        NetworkId::ResNet50 => ((3, 16, 16), {
            Ok(vec![
                conv_pool(
                    ConvLayer::conv("m_conv1", 3, 8, 7, 1, 3, 16, 16)?,
                    PoolKind::Max,
                    2,
                    2,
                ),
                // Bottleneck: 1x1 reduce, 3x3, 1x1 expand.
                conv(ConvLayer::conv("m_b1_a", 8, 4, 1, 1, 0, 8, 8)?),
                conv(ConvLayer::conv("m_b1_b", 4, 4, 3, 1, 1, 8, 8)?),
                conv(ConvLayer::conv("m_b1_c", 4, 16, 1, 1, 0, 8, 8)?),
                // Strided bottleneck.
                conv(ConvLayer::conv("m_b2_a", 16, 8, 1, 1, 0, 8, 8)?),
                conv(ConvLayer::conv("m_b2_b", 8, 8, 3, 2, 1, 8, 8)?),
                conv(ConvLayer::conv("m_b2_c", 8, 24, 1, 1, 0, 4, 4)?),
                conv(ConvLayer::conv("m_fc", 24, 10, 4, 1, 0, 4, 4)?),
            ])
        }),
    };
    Ok(MiniNetwork {
        id,
        input,
        stages: stages?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_minis_build_and_chain() {
        for id in NetworkId::ALL {
            let m = MiniNetwork::try_new(id).unwrap();
            assert!(!m.stages.is_empty(), "{id}");
            m.validate_chaining()
                .unwrap_or_else(|e| panic!("{id}: {e}"));
            // Every mini ends in a 10-way classifier stage.
            assert_eq!(m.stages.last().unwrap().layer.out_channels, 10, "{id}");
        }
    }

    #[test]
    fn minis_preserve_signature_features() {
        let alex = MiniNetwork::try_new(NetworkId::AlexNet).unwrap();
        assert!(
            alex.stages[0].layer.stride > 1,
            "AlexNet keeps its strided stem"
        );
        assert!(alex.stages.iter().any(|s| s.layer.kernel == 5));

        let vgg = MiniNetwork::try_new(NetworkId::Vgg16).unwrap();
        assert!(
            vgg.stages[..5].iter().all(|s| s.layer.kernel == 3),
            "VGG is all 3x3"
        );

        let r50 = MiniNetwork::try_new(NetworkId::ResNet50).unwrap();
        assert!(
            r50.stages.iter().filter(|s| s.layer.kernel == 1).count() >= 4,
            "ResNet-50 keeps its 1x1 bottlenecks"
        );
    }
}
