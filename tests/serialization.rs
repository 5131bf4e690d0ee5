//! Serde round-trips: every report and workload type the harness persists
//! (`repro --json`) must survive JSON serialization unchanged, so saved
//! experiment results can be reloaded and compared across runs.

use ristretto::baselines::prelude::*;
use ristretto::qnn::models::NetworkId;
use ristretto::qnn::quant::BitWidth;
use ristretto::qnn::workload::{NetworkStats, PrecisionPolicy};
use ristretto::ristretto_sim::analytic::RistrettoSim;
use ristretto::ristretto_sim::config::RistrettoConfig;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

/// For float-bearing types, JSON equality after one round-trip is the
/// stable property (f64 text rendering can normalize e.g. `1e300` forms):
/// serialize → deserialize → serialize must be a fixed point.
fn json_fixed_point<T>(value: &T)
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let once = serde_json::to_string(value).expect("serialize");
    let back: T = serde_json::from_str(&once).expect("deserialize");
    let twice = serde_json::to_string(&back).expect("re-serialize");
    assert_eq!(once, twice, "JSON round-trip must be a fixed point");
}

fn small_net() -> NetworkStats {
    NetworkStats::generate(
        NetworkId::AlexNet,
        PrecisionPolicy::Uniform(BitWidth::W4),
        2,
        5,
    )
}

#[test]
fn network_stats_roundtrip() {
    let stats = small_net();
    json_fixed_point(&stats);
    let back = roundtrip(&stats);
    // Integer-valued fields are exact.
    assert_eq!(back.id, stats.id);
    assert_eq!(back.layers.len(), stats.layers.len());
    for (a, b) in back.layers.iter().zip(&stats.layers) {
        assert_eq!(a.act_atoms_per_channel, b.act_atoms_per_channel);
        assert_eq!(a.weight_sample, b.weight_sample);
    }
}

#[test]
fn ristretto_report_roundtrip() {
    let report = RistrettoSim::try_new(RistrettoConfig::paper_default())
        .unwrap()
        .simulate_network(&small_net());
    json_fixed_point(&report);
    let back = roundtrip(&report);
    assert_eq!(back.total_cycles(), report.total_cycles());
    for (a, b) in back.layers.iter().zip(&report.layers) {
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.atom_mults, b.atom_mults);
        assert_eq!(a.dram_bits, b.dram_bits);
    }
}

#[test]
fn baseline_reports_roundtrip() {
    let net = small_net();
    for report in [
        BitFusion::paper_default().simulate_network(&net),
        SparTen::paper_default().simulate_network(&net),
    ] {
        json_fixed_point(&report);
        let back = roundtrip(&report);
        assert_eq!(back.total_cycles(), report.total_cycles());
        assert_eq!(back.accelerator, report.accelerator);
    }
}

#[test]
fn configs_roundtrip() {
    let cfg = RistrettoConfig::paper_default();
    assert_eq!(roundtrip(&cfg), cfg);
    let bf = BitFusion::paper_default();
    assert_eq!(roundtrip(&bf), bf);
    let lac = Laconic::paper_default();
    assert_eq!(roundtrip(&lac), lac);
}

#[test]
fn tensors_roundtrip() {
    use ristretto::qnn::tensor::{Tensor3, Tensor4};
    let t = Tensor3::from_vec(2, 3, 4, (0..24).collect()).unwrap();
    assert_eq!(roundtrip(&t), t);
    let k = Tensor4::from_vec(2, 2, 2, 2, (0..16).map(|v| v - 8).collect()).unwrap();
    assert_eq!(roundtrip(&k), k);
}

#[test]
fn streams_roundtrip() {
    use ristretto::atomstream::atom::AtomBits;
    use ristretto::atomstream::compress::compress_activations;
    use ristretto::atomstream::flatten::FlatActivation;
    let flat = vec![
        FlatActivation {
            value: 29,
            x: 1,
            y: 2,
        },
        FlatActivation {
            value: 200,
            x: 3,
            y: 0,
        },
    ];
    let stream = compress_activations(&flat, 8, AtomBits::B2).unwrap();
    assert_eq!(roundtrip(&stream), stream);
}

#[test]
fn weight_streams_wire_roundtrip_at_every_granularity_and_width() {
    // The binary artifact layer must round-trip compiled weight streams
    // for the full cross product the compiler accepts: every atom
    // granularity (1–8 bits) times every operand width (2–16 bits).
    use ristretto::atomstream::atom::AtomBits;
    use ristretto::atomstream::conv_csc::WeightStreamSet;
    use ristretto::atomstream::wire::{read_weight_stream_set, write_weight_stream_set};
    use ristretto::atomstream::wire::{WireReader, WireWriter};
    use ristretto::qnn::tensor::Tensor4;

    let kernels = Tensor4::from_vec(
        2,
        2,
        3,
        3,
        (0..36).map(|i| [0, 1, 0, -1][i as usize % 4]).collect(),
    )
    .unwrap();
    for gran in 1u8..=8 {
        for bits in 2u8..=16 {
            let atom_bits = AtomBits::new(gran).unwrap();
            let w_bits = ristretto::qnn::quant::BitWidth::new(bits).unwrap();
            let set = WeightStreamSet::compile(&kernels, w_bits, atom_bits).unwrap();

            let mut w = WireWriter::new();
            write_weight_stream_set(&mut w, &set);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes, "weights");
            let back = read_weight_stream_set(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back, set, "gran {gran}, width {bits}");

            // Determinism: re-encoding the decoded set is byte-identical
            // (the content-addressed cache depends on this).
            let mut w2 = WireWriter::new();
            write_weight_stream_set(&mut w2, &back);
            assert_eq!(w2.into_bytes(), bytes, "gran {gran}, width {bits}");
        }
    }
}

#[test]
fn cache_hit_sessions_allocate_no_accumulator_planes_in_steady_state() {
    // A session over a cache-hit (deserialized) network must keep the
    // scratch-arena guarantee of a freshly compiled one: after the first
    // input sizes the pools, further runs allocate zero accumulator
    // planes.
    use ristretto::qnn::mini::MiniNetwork;
    use ristretto::qnn::models::NetworkId;
    use ristretto::qnn::workload::{ActivationProfile, WeightProfile, WorkloadGen};
    use ristretto::ristretto_sim::engine::{NetworkModel, Session};
    use ristretto::ristretto_sim::modelcache::ModelCache;

    let mini = MiniNetwork::try_new(NetworkId::AlexNet).unwrap();
    let mut gen = WorkloadGen::new(1203);
    let model =
        NetworkModel::from_mini(&mini, &mut gen, &WeightProfile::benchmark(BitWidth::W4)).unwrap();
    let cfg = RistrettoConfig::paper_default();

    let dir = std::env::temp_dir().join(format!(
        "ristretto_serialization_cache_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ModelCache::new(&dir);
    cache.compile_cached(&model, &cfg).unwrap(); // populate
    let hit = cache.compile_cached(&model, &cfg).unwrap(); // load from disk
    let _ = std::fs::remove_dir_all(&dir);

    let session = Session::new(hit.clone());
    assert_eq!(session.scratch_plane_allocations(), 0);
    let (c, h, w) = hit.input();
    let mut igen = WorkloadGen::new(77);
    let first = igen
        .activations(c, h, w, &ActivationProfile::new(BitWidth::W8))
        .unwrap();
    session.run(&first).unwrap();
    let after_first = session.scratch_plane_allocations();
    assert!(after_first > 0, "first run must populate the pools");
    for seed in 0..3u64 {
        let mut igen = WorkloadGen::new(80 + seed);
        let input = igen
            .activations(c, h, w, &ActivationProfile::new(BitWidth::W8))
            .unwrap();
        session.run(&input).unwrap();
        assert_eq!(
            session.scratch_plane_allocations(),
            after_first,
            "steady-state cache-hit run allocated accumulator planes"
        );
    }
}
