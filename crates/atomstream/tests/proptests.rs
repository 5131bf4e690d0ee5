//! Property-based tests for the condensed streaming computation.
//!
//! These encode the invariants of DESIGN.md §6: CSC ≡ dense convolution for
//! arbitrary shapes/widths/sparsity, decomposition round-trips, atom-order
//! invariance, and the Eq 3 step count.

use atomstream::atom::AtomBits;
use atomstream::compress::{compress_activations, compress_weights, compress_weights_naive};
use atomstream::conv_csc::{conv2d_csc, CscConfig};
use atomstream::cycles::ideal_steps;
use atomstream::decompose::{atomize_signed, atomize_unsigned, multiply_via_atoms, recompose};
use atomstream::flatten::{FlatActivation, FlatWeight};
use atomstream::intersect::{intersect, FullConvAcc, IntersectConfig};
use proptest::prelude::*;
use qnn::conv::{conv2d, ConvGeometry};
use qnn::quant::BitWidth;
use qnn::tensor::{Tensor3, Tensor4};

fn atom_bits() -> impl Strategy<Value = AtomBits> {
    (1u8..=4).prop_map(|b| AtomBits::new(b).unwrap())
}

fn bitwidth() -> impl Strategy<Value = BitWidth> {
    prop_oneof![
        Just(BitWidth::W2),
        Just(BitWidth::W4),
        Just(BitWidth::W6),
        Just(BitWidth::W8)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn signed_decompose_roundtrips(v in -127i32..=127, gran in atom_bits()) {
        let atoms = atomize_signed(v, 8, gran).unwrap();
        prop_assert_eq!(recompose(&atoms), v as i64);
        prop_assert!(atoms.iter().all(|a| a.mag > 0));
        prop_assert!(atoms.iter().all(|a| a.mag as u16 <= gran.max_magnitude()));
        prop_assert_eq!(atoms.iter().filter(|a| a.last).count(), usize::from(v != 0));
    }

    #[test]
    fn unsigned_decompose_roundtrips(v in 0i32..=255, gran in atom_bits()) {
        let atoms = atomize_unsigned(v, 8, gran).unwrap();
        prop_assert_eq!(recompose(&atoms), v as i64);
        prop_assert!(atoms.iter().all(|a| !a.negative));
    }

    #[test]
    fn atom_multiplication_is_exact(a in 0i32..=255, w in -127i32..=127, gran in atom_bits()) {
        prop_assert_eq!(multiply_via_atoms(a, w, 8, 8, gran).unwrap(), (a as i64) * (w as i64));
    }

    #[test]
    fn csc_matches_dense_reference(
        seed in 0u64..10_000,
        c in 1usize..=3,
        o in 1usize..=4,
        k in 1usize..=3,
        h in 3usize..=7,
        w in 3usize..=7,
        stride in 1usize..=2,
        pad in 0usize..=2,
        gran in atom_bits(),
        a_bits in bitwidth(),
        w_bits in bitwidth(),
        mults in 1usize..=8,
        density_pct in 10u32..=90,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        prop_assume!(pad < k || pad == 0);
        let mut rng = qnn::rng::SeededRng::new(seed);
        let a_max = a_bits.unsigned_max();
        let w_max = w_bits.signed_max();
        let density = density_pct as f64 / 100.0;
        let fmap = Tensor3::from_fn(c, h, w, |_, _, _| {
            if rng.bernoulli(density) { rng.below(a_max as usize + 1) as i32 } else { 0 }
        }).unwrap();
        let kernels = Tensor4::from_fn(o, c, k, k, |_, _, _, _| {
            if rng.bernoulli(density) {
                let m = rng.below(w_max as usize + 1) as i32;
                if rng.bernoulli(0.5) { -m } else { m }
            } else { 0 }
        }).unwrap();
        let geom = ConvGeometry::new(stride, pad).unwrap();
        let dense = conv2d(&fmap, &kernels, geom).unwrap();
        let cfg = CscConfig { atom_bits: gran, multipliers: mults, tile_h: 1 + seed as usize % 4, tile_w: 2 + seed as usize % 3 };
        let csc = conv2d_csc(&fmap, &kernels, geom, a_bits, w_bits, &cfg).unwrap();
        prop_assert_eq!(csc.output, dense);
    }

    #[test]
    fn weight_atom_order_is_irrelevant(
        seed in 0u64..10_000,
        n in 1usize..=12,
        mults in 1usize..=6,
    ) {
        // Random flat weights within a 3x3 kernel, 2 output channels.
        let mut rng = qnn::rng::SeededRng::new(seed);
        let mut flat_w = Vec::new();
        for _ in 0..n {
            let v = rng.below(15) as i32 - 7;
            if v != 0 {
                flat_w.push(FlatWeight {
                    value: v,
                    x: rng.below(3) as u16,
                    y: rng.below(3) as u16,
                    out_ch: rng.below(2) as u16,
                });
            }
        }
        let mut flat_a = Vec::new();
        for yy in 0..3u16 {
            for xx in 0..3u16 {
                if rng.bernoulli(0.6) {
                    flat_a.push(FlatActivation { value: rng.below(16) as i32, x: xx, y: yy });
                }
            }
        }
        let flat_a: Vec<_> = flat_a.into_iter().filter(|f| f.value != 0).collect();
        let acts = compress_activations(&flat_a, 4, AtomBits::B2).unwrap();
        let shuffled = compress_weights(&flat_w, 4, AtomBits::B2).unwrap();
        let naive = compress_weights_naive(&flat_w, 4, AtomBits::B2).unwrap();
        let cfg = IntersectConfig { multipliers: mults };
        let mut acc_a = FullConvAcc::new(2, 3, 3, 3).unwrap();
        let mut acc_b = FullConvAcc::new(2, 3, 3, 3).unwrap();
        let sa = intersect(&shuffled, &acts, cfg, &mut acc_a, 0, 0).unwrap();
        let sb = intersect(&naive, &acts, cfg, &mut acc_b, 0, 0).unwrap();
        prop_assert_eq!(acc_a, acc_b);
        prop_assert_eq!(sa.steps, sb.steps);
        prop_assert_eq!(sa.atom_mults, sb.atom_mults);
    }

    #[test]
    fn intersection_steps_obey_eq3(
        t in 1u64..200,
        s in 1u64..200,
        n in 1u64..=64,
    ) {
        // Build t activation atoms (single-atom values) and s weight atoms.
        let flat_a: Vec<FlatActivation> =
            (0..t).map(|i| FlatActivation { value: 1, x: (i % 8) as u16, y: (i / 8) as u16 }).collect();
        let acts = compress_activations(&flat_a, 2, AtomBits::B2).unwrap();
        prop_assume!(acts.len() as u64 == t);
        let flat_w: Vec<FlatWeight> =
            (0..s).map(|i| FlatWeight { value: 1, x: 0, y: 0, out_ch: (i % 1024) as u16 }).collect();
        let weights = compress_weights(&flat_w, 2, AtomBits::B2).unwrap();
        let mut acc = FullConvAcc::new(1024, 25, 8, 1).unwrap();
        let stats = intersect(&weights, &acts, IntersectConfig { multipliers: n as usize }, &mut acc, 0, 0).unwrap();
        prop_assert_eq!(stats.steps, ideal_steps(t, s, n));
        prop_assert_eq!(stats.atom_mults, t * s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sixteen_bit_paths_agree_with_dense(
        seed in 0u64..10_000,
        h in 2usize..=4,
        w in 2usize..=4,
        k in 1usize..=2,
    ) {
        prop_assume!(h >= k && w >= k);
        let mut rng = qnn::rng::SeededRng::new(seed);
        let fmap = Tensor3::from_fn(1, h, w, |_, _, _| {
            if rng.bernoulli(0.7) { rng.below(65536) as i32 } else { 0 }
        }).unwrap();
        let kernels = Tensor4::from_fn(2, 1, k, k, |_, _, _, _| {
            rng.below(131071) as i32 - 65535
        }).unwrap();
        let geom = ConvGeometry::default();
        let dense = conv2d(&fmap, &kernels, geom).unwrap();
        let cfg = CscConfig::default();
        // Spatial extension (§IV-D): direct 16-bit CSC.
        let spatial = conv2d_csc(&fmap, &kernels, geom, BitWidth::W16, BitWidth::W16, &cfg).unwrap();
        prop_assert_eq!(&spatial.output, &dense);
    }
}
