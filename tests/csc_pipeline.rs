//! End-to-end condensed-streaming-computation pipeline tests (Fig 6):
//! synthetic quantized layers convolved via CSC must match the dense
//! reference bit-exactly, including across a two-layer chain with
//! requantization between layers.

use ristretto::atomstream::atom::AtomBits;
use ristretto::atomstream::conv_csc::{conv2d_csc, CscConfig};
use ristretto::qnn::conv::{conv2d, ConvGeometry};
use ristretto::qnn::layers::ConvLayer;
use ristretto::qnn::quant::BitWidth;
use ristretto::qnn::workload::{ActivationProfile, SyntheticLayer, WeightProfile, WorkloadGen};

fn check_layer(layer: &ConvLayer, a_bits: BitWidth, w_bits: BitWidth, seed: u64) {
    let mut gen = WorkloadGen::new(seed);
    let s = SyntheticLayer::try_generate(
        layer,
        &WeightProfile::benchmark(w_bits),
        &ActivationProfile::new(a_bits),
        &mut gen,
    )
    .unwrap();
    let geom = layer.geometry();
    let dense = conv2d(&s.fmap, &s.kernels, geom).expect("dense conv");
    for (th, tw) in [(4, 4), (8, 8)] {
        let cfg = CscConfig {
            tile_h: th,
            tile_w: tw,
            ..CscConfig::default()
        };
        let csc = conv2d_csc(&s.fmap, &s.kernels, geom, a_bits, w_bits, &cfg).expect("csc conv");
        assert_eq!(csc.output, dense, "{} tile {th}x{tw}", layer.name);
    }
}

#[test]
fn csc_matches_dense_on_realistic_geometries() {
    // Miniature versions of real layer shapes: 3x3 s1 p1, 1x1, 5x5 p2,
    // 7x7 s2 p3, 3x3 s2 (ResNet downsample).
    let layers = [
        ConvLayer::conv("vgg_like", 8, 16, 3, 1, 1, 14, 14).unwrap(),
        ConvLayer::conv("pointwise", 12, 24, 1, 1, 0, 10, 10).unwrap(),
        ConvLayer::conv("alex_like", 4, 8, 5, 1, 2, 13, 13).unwrap(),
        ConvLayer::conv("stem", 3, 8, 7, 2, 3, 21, 21).unwrap(),
        ConvLayer::conv("downsample", 8, 16, 3, 2, 1, 12, 12).unwrap(),
    ];
    for (i, layer) in layers.iter().enumerate() {
        check_layer(layer, BitWidth::W8, BitWidth::W4, 100 + i as u64);
    }
}

#[test]
fn csc_matches_dense_across_precisions() {
    let layer = ConvLayer::conv("mix", 6, 12, 3, 1, 1, 12, 12).unwrap();
    for (ai, &a_bits) in [BitWidth::W2, BitWidth::W4, BitWidth::W8]
        .iter()
        .enumerate()
    {
        for (wi, &w_bits) in [BitWidth::W2, BitWidth::W4, BitWidth::W8]
            .iter()
            .enumerate()
        {
            check_layer(&layer, a_bits, w_bits, (ai * 3 + wi) as u64);
        }
    }
}

#[test]
fn two_layer_chain_with_requantization() {
    let mut gen = WorkloadGen::new(55);
    let l1 = ConvLayer::conv("l1", 4, 8, 3, 1, 1, 12, 12).unwrap();
    let s1 = SyntheticLayer::try_generate(
        &l1,
        &WeightProfile::benchmark(BitWidth::W4),
        &ActivationProfile::new(BitWidth::W8),
        &mut gen,
    )
    .unwrap();
    let w2 = gen
        .weights(6, 8, 3, 3, &WeightProfile::benchmark(BitWidth::W4))
        .expect("kernel generation");

    let geom = ConvGeometry::unit_stride(1);
    let cfg = CscConfig::default();

    // Layer 1 on both paths.
    let csc1 = conv2d_csc(
        &s1.fmap,
        &s1.kernels,
        geom,
        BitWidth::W8,
        BitWidth::W4,
        &cfg,
    )
    .unwrap();
    let dense1 = conv2d(&s1.fmap, &s1.kernels, geom).unwrap();
    assert_eq!(csc1.output, dense1);

    // Post-processing: ReLU + requantize to 8-bit (the PPU's job), then
    // layer 2.
    let act2 = csc1.output.requantize_relu(4, 8);
    assert!(act2.as_slice().iter().all(|&v| (0..=255).contains(&v)));
    let csc2 = conv2d_csc(&act2, &w2, geom, BitWidth::W8, BitWidth::W4, &cfg).unwrap();
    let dense2 = conv2d(&act2, &w2, geom).unwrap();
    assert_eq!(csc2.output, dense2);
}

#[test]
fn atom_granularities_agree_with_each_other() {
    let layer = ConvLayer::conv("gran", 5, 10, 3, 1, 1, 9, 9).unwrap();
    let mut gen = WorkloadGen::new(77);
    let s = SyntheticLayer::try_generate(
        &layer,
        &WeightProfile::benchmark(BitWidth::W8),
        &ActivationProfile::new(BitWidth::W8),
        &mut gen,
    )
    .unwrap();
    let geom = layer.geometry();
    let reference = conv2d(&s.fmap, &s.kernels, geom).unwrap();
    for gran in [AtomBits::B1, AtomBits::B2, AtomBits::B3, AtomBits::B4] {
        let cfg = CscConfig {
            atom_bits: gran,
            ..CscConfig::default()
        };
        let out = conv2d_csc(&s.fmap, &s.kernels, geom, BitWidth::W8, BitWidth::W8, &cfg)
            .unwrap()
            .output;
        assert_eq!(out, reference, "granularity {gran}");
    }
}

#[test]
fn sparser_inputs_do_strictly_less_work() {
    let layer = ConvLayer::conv("sparsity", 6, 12, 3, 1, 1, 12, 12).unwrap();
    let mut gen = WorkloadGen::new(3);
    let dense_s = SyntheticLayer::try_generate(
        &layer,
        &WeightProfile::benchmark(BitWidth::W8).with_prune(0.1),
        &ActivationProfile::new(BitWidth::W8),
        &mut gen,
    )
    .unwrap();
    let sparse_s = SyntheticLayer::try_generate(
        &layer,
        &WeightProfile::benchmark(BitWidth::W8).with_prune(0.8),
        &ActivationProfile::new(BitWidth::W8),
        &mut gen,
    )
    .unwrap();
    let cfg = CscConfig::default();
    let geom = layer.geometry();
    let a = conv2d_csc(
        &dense_s.fmap,
        &dense_s.kernels,
        geom,
        BitWidth::W8,
        BitWidth::W8,
        &cfg,
    )
    .unwrap();
    let b = conv2d_csc(
        &sparse_s.fmap,
        &sparse_s.kernels,
        geom,
        BitWidth::W8,
        BitWidth::W8,
        &cfg,
    )
    .unwrap();
    assert!(
        b.stats.intersect.atom_mults < a.stats.intersect.atom_mults,
        "{} vs {}",
        b.stats.intersect.atom_mults,
        a.stats.intersect.atom_mults
    );
    assert!(b.stats.intersect.steps < a.stats.intersect.steps);
}
