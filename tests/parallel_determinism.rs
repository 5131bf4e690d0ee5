//! Determinism regression tests for the parallel execution layer: the
//! functional CSC convolution and the cycle-level core simulator must
//! produce results equal to the serial baseline at every thread count.
//!
//! The parallel fan-outs merge per-channel `FullConvAcc` planes by `i64`
//! addition (commutative) and collect per-tile reports in group order, so
//! equality here is exact — not approximate.

use atomstream::conv_csc::{
    conv2d_csc, conv2d_csc_streams_reference, conv2d_csc_streams_with, CscConfig, CscOutput,
    WeightStreamSet,
};
use atomstream::kernel::CscScratch;
use qnn::quant::BitWidth;
use qnn::workload::{ActivationProfile, SyntheticLayer, WeightProfile, WorkloadGen};
use rayon::ThreadPoolBuilder;
use ristretto_sim::balance::BalanceStrategy;
use ristretto_sim::config::RistrettoConfig;
use ristretto_sim::core::{CoreReport, CoreSim};

fn materialized(seed: u64) -> SyntheticLayer {
    let layer = qnn::layers::ConvLayer::conv("det", 12, 8, 3, 1, 1, 14, 14).unwrap();
    let mut gen = WorkloadGen::new(seed);
    SyntheticLayer::try_generate(
        &layer,
        &WeightProfile::benchmark(BitWidth::W4),
        &ActivationProfile::new(BitWidth::W8),
        &mut gen,
    )
    .unwrap()
}

/// Runs `f` under an explicit worker-thread count.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("build thread pool")
        .install(f)
}

#[test]
fn conv2d_csc_is_thread_count_invariant() {
    let s = materialized(41);
    let cfg = CscConfig::default();
    let run = || -> CscOutput {
        conv2d_csc(
            &s.fmap,
            &s.kernels,
            s.layer.geometry(),
            BitWidth::W8,
            BitWidth::W4,
            &cfg,
        )
        .unwrap()
    };
    let serial = with_threads(1, run);
    for threads in [2, 4, 8] {
        let parallel = with_threads(threads, run);
        assert_eq!(
            serial.output, parallel.output,
            "output differs at {threads} threads"
        );
        assert_eq!(
            serial.stats, parallel.stats,
            "stats differ at {threads} threads"
        );
    }
}

#[test]
fn core_sim_is_thread_count_invariant() {
    let s = materialized(43);
    let core = CoreSim::try_new(RistrettoConfig {
        tiles: 4,
        multipliers: 8,
        tile_h: 7,
        tile_w: 7,
        balancing: BalanceStrategy::WeightActivation,
        ..RistrettoConfig::paper_default()
    })
    .unwrap();
    let run = || -> CoreReport { core.run_layer(&s.fmap, &s.kernels, 8, 4).unwrap() };
    let serial = with_threads(1, run);
    for threads in [2, 4, 8] {
        let parallel = with_threads(threads, run);
        assert_eq!(serial, parallel, "core report differs at {threads} threads");
    }
}

#[test]
fn planned_and_reference_kernels_agree_at_every_thread_count() {
    // Dual-kernel oracle: the planned scratch-arena kernel
    // `conv2d_csc_streams_with` and the value-major reference kernel are
    // independent implementations of the same intersection; outputs and
    // stats must be byte-identical to each other — and to the serial
    // baseline — at every thread count.
    let s = materialized(47);
    let cfg = CscConfig::default();
    let geom = s.layer.geometry();
    let weights = WeightStreamSet::compile(&s.kernels, BitWidth::W4, cfg.atom_bits).unwrap();
    let baseline = with_threads(1, || {
        conv2d_csc_streams_reference(&s.fmap, &weights, geom, BitWidth::W8, &cfg).unwrap()
    });
    for threads in [1, 2, 4, 8] {
        let planned = with_threads(threads, || {
            conv2d_csc_streams_with(
                &s.fmap,
                &weights,
                geom,
                BitWidth::W8,
                &cfg,
                &CscScratch::new(),
            )
            .unwrap()
        });
        let reference = with_threads(threads, || {
            conv2d_csc_streams_reference(&s.fmap, &weights, geom, BitWidth::W8, &cfg).unwrap()
        });
        assert_eq!(
            planned.output, baseline.output,
            "planned kernel output differs at {threads} threads"
        );
        assert_eq!(
            planned.stats, baseline.stats,
            "planned kernel stats differ at {threads} threads"
        );
        assert_eq!(
            reference, baseline,
            "reference kernel differs from itself at {threads} threads"
        );
    }
}
