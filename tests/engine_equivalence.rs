//! Compile-once/run-many equivalence: precompiling the static weight
//! artifacts and running against the compiled streams must be
//! byte-identical to the direct (compile-inline) paths for the functional
//! CSC convolution and the cycle-level core, and a compiled session must
//! reproduce the dense reference on every mini network — at one worker
//! thread and at many.

use atomstream::conv_csc::{conv2d_csc, conv2d_csc_streams_with, CscConfig, WeightStreamSet};
use atomstream::kernel::CscScratch;
use qnn::mini::MiniNetwork;
use qnn::models::NetworkId;
use qnn::quant::BitWidth;
use qnn::workload::{ActivationProfile, SyntheticLayer, WeightProfile, WorkloadGen};
use rayon::ThreadPoolBuilder;
use ristretto_sim::config::RistrettoConfig;
use ristretto_sim::core::CoreSim;
use ristretto_sim::engine::{compile, NetworkModel, Session};

fn materialized(seed: u64) -> SyntheticLayer {
    let layer = qnn::layers::ConvLayer::conv("eq", 10, 12, 3, 1, 1, 13, 13).unwrap();
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
fn precompiled_streams_match_direct_csc() {
    let s = materialized(101);
    let cfg = CscConfig::default();
    for threads in [1, 4] {
        with_threads(threads, || {
            let direct = conv2d_csc(
                &s.fmap,
                &s.kernels,
                s.layer.geometry(),
                BitWidth::W8,
                BitWidth::W4,
                &cfg,
            )
            .unwrap();
            let weights =
                WeightStreamSet::compile(&s.kernels, BitWidth::W4, cfg.atom_bits).unwrap();
            let streamed = conv2d_csc_streams_with(
                &s.fmap,
                &weights,
                s.layer.geometry(),
                BitWidth::W8,
                &cfg,
                &CscScratch::new(),
            )
            .unwrap();
            assert_eq!(
                direct.output, streamed.output,
                "output differs at {threads} threads"
            );
            assert_eq!(
                direct.stats, streamed.stats,
                "CscStats differ at {threads} threads"
            );
        });
    }
}

#[test]
fn precompiled_streams_match_direct_core_report() {
    let s = materialized(103);
    let cfg = RistrettoConfig::paper_default();
    let core = CoreSim::try_new(cfg).unwrap();
    for threads in [1, 4] {
        with_threads(threads, || {
            let direct = core.run_layer(&s.fmap, &s.kernels, 8, 4).unwrap();
            let weights =
                WeightStreamSet::compile(&s.kernels, BitWidth::W4, cfg.atom_bits).unwrap();
            let (streamed, _) = core.run_layer_streams(&weights, &s.fmap, 8, None).unwrap();
            assert_eq!(direct, streamed, "CoreReport differs at {threads} threads");
        });
    }
}

#[test]
fn compiled_session_matches_dense_reference() {
    let cfg = RistrettoConfig::paper_default();
    for id in NetworkId::ALL {
        let mini = MiniNetwork::try_new(id).unwrap();
        for (w_bits, a_bits) in [
            (BitWidth::W4, BitWidth::W8),
            (BitWidth::W2, BitWidth::W2),
            (BitWidth::W2, BitWidth::W4),
        ] {
            let mut gen = WorkloadGen::new(107 + id as u64);
            let (c, h, w) = mini.input;
            let input = gen
                .activations(c, h, w, &ActivationProfile::new(a_bits))
                .unwrap();
            let mut model =
                NetworkModel::from_mini(&mini, &mut gen, &WeightProfile::benchmark(w_bits))
                    .unwrap();
            for layer in &mut model.layers {
                layer.a_bits = a_bits;
                layer.out_bits = a_bits.bits();
            }
            let dense = model.run_dense_reference(&input).unwrap();
            let compiled = compile(&model, &cfg).unwrap();
            for threads in [1, 4] {
                let run = with_threads(threads, || {
                    Session::new(compiled.clone()).run(&input).unwrap()
                });
                assert_eq!(
                    run.output, dense,
                    "{id} at {w_bits}/{a_bits} differs at {threads} threads"
                );
                assert_eq!(run.traces.len(), model.layers.len());
            }
        }
    }
}

#[test]
fn session_scratch_reuse_is_byte_identical_across_inputs() {
    // A warm session recycles its per-layer scratch arenas (accumulator
    // planes, weight plans) across inputs; every run must stay
    // byte-identical to a cold session evaluating the same input — at one
    // worker thread and at many.
    let mini = MiniNetwork::try_new(NetworkId::GoogLeNet).unwrap();
    let mut gen = WorkloadGen::new(211);
    let model =
        NetworkModel::from_mini(&mini, &mut gen, &WeightProfile::benchmark(BitWidth::W4)).unwrap();
    let compiled = compile(&model, &RistrettoConfig::paper_default()).unwrap();
    let (c, h, w) = compiled.input();
    let inputs: Vec<_> = (0..3u64)
        .map(|i| {
            let mut igen = WorkloadGen::new(900 + i);
            igen.activations(c, h, w, &ActivationProfile::new(BitWidth::W8))
                .unwrap()
        })
        .collect();
    for threads in [1, 4] {
        with_threads(threads, || {
            let warm = Session::new(compiled.clone());
            for input in &inputs {
                let reused = warm.run(input).unwrap();
                let cold = Session::new(compiled.clone()).run(input).unwrap();
                assert_eq!(
                    reused.output, cold.output,
                    "warm scratch changed the output at {threads} threads"
                );
                assert_eq!(
                    reused.traces, cold.traces,
                    "warm scratch changed the traces at {threads} threads"
                );
            }
        });
    }
}

#[test]
fn session_steady_state_allocates_no_accumulator_planes() {
    // The zero-allocation invariant of the scratch arena: the first input
    // allocates at most one accumulator per layer, and further
    // `Session::run` calls perform no accumulator-plane heap allocations at
    // all — at any worker-thread count.
    let mini = MiniNetwork::try_new(NetworkId::ResNet18).unwrap();
    let mut gen = WorkloadGen::new(223);
    let model =
        NetworkModel::from_mini(&mini, &mut gen, &WeightProfile::benchmark(BitWidth::W4)).unwrap();
    let compiled = compile(&model, &RistrettoConfig::paper_default()).unwrap();
    let (c, h, w) = compiled.input();
    for threads in [1, 4] {
        with_threads(threads, || {
            let session = Session::new(compiled.clone());
            assert_eq!(session.scratch_plane_allocations(), 0);
            let mut igen = WorkloadGen::new(501);
            let first = igen
                .activations(c, h, w, &ActivationProfile::new(BitWidth::W8))
                .unwrap();
            session.run(&first).unwrap();
            let after_first = session.scratch_plane_allocations();
            assert!(after_first > 0, "first run must populate the arenas");
            let layers = compiled.layers().len() as u64;
            assert!(
                after_first <= layers,
                "{after_first} accumulators for {layers} layers"
            );
            for seed in 0..4u64 {
                let mut igen = WorkloadGen::new(600 + seed);
                let input = igen
                    .activations(c, h, w, &ActivationProfile::new(BitWidth::W8))
                    .unwrap();
                session.run(&input).unwrap();
                assert_eq!(
                    session.scratch_plane_allocations(),
                    after_first,
                    "steady-state run allocated accumulator planes"
                );
            }
            // A clone shares the same arenas: no fresh planes.
            let clone = session.clone();
            session.run(&first).unwrap();
            assert_eq!(clone.scratch_plane_allocations(), after_first);
        });
    }
}
