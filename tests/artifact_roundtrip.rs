//! Adversarial coverage of the versioned artifact format: every
//! single-bit corruption and every truncation of an encoded
//! `CompiledNetwork` must be rejected by the loader with a typed error,
//! and the on-disk model cache must degrade to a recompile — with
//! byte-identical results — whenever its artifact is damaged.

use atomstream::error::AtomError;
use atomstream::stream::WeightStream;
use atomstream::wire::{fnv1a_bytes, WireError};
use qnn::conv::ConvGeometry;
use qnn::mini::MiniNetwork;
use qnn::models::NetworkId;
use qnn::quant::BitWidth;
use qnn::tensor::{Tensor3, Tensor4};
use qnn::workload::{WeightProfile, WorkloadGen};
use ristretto_sim::artifact;
use ristretto_sim::config::RistrettoConfig;
use ristretto_sim::engine::{compile, NetworkModel, Session};
use ristretto_sim::modelcache::{CacheError, CacheKey, ModelCache};
use ristretto_sim::pipeline::PipelineLayer;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

fn tiny_network() -> (NetworkModel, RistrettoConfig) {
    let kernels = Tensor4::from_vec(
        2,
        1,
        3,
        3,
        vec![
            1, 0, -2, 0, 3, 0, -1, 0, 2, // oc 0
            0, 2, 0, -3, 0, 1, 0, -1, 0, // oc 1
        ],
    )
    .unwrap();
    let layer = PipelineLayer {
        name: "l0".to_string(),
        kernels,
        geom: ConvGeometry::unit_stride(1),
        w_bits: BitWidth::W4,
        a_bits: BitWidth::W4,
        requant_shift: 2,
        out_bits: 4,
        pool: None,
    };
    let model = NetworkModel::new("tiny", (1, 6, 6), vec![layer]);
    (model, RistrettoConfig::paper_default())
}

fn tiny_input() -> Tensor3 {
    Tensor3::from_vec(1, 6, 6, (0..36).map(|v| v % 5).collect()).unwrap()
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ristretto_artifact_rt_{tag}_{}",
        std::process::id()
    ))
}

#[test]
fn every_single_bit_corruption_is_rejected() {
    // Flip one bit in every byte of the artifact (rotating which bit by
    // position, so all eight lanes are exercised across the file) and
    // require a decode error each time: the magic/version checks cover the
    // prefix, per-section checksums cover every payload byte, and the
    // framing validators cover lengths, names and the checksums
    // themselves.
    let (model, cfg) = tiny_network();
    let net = compile(&model, &cfg).unwrap();
    let bytes = artifact::encode(&net);
    let mut sections = BTreeSet::new();
    for pos in 0..bytes.len() {
        let mut dirty = bytes.clone();
        dirty[pos] ^= 1 << (pos % 8);
        let err =
            artifact::decode(&dirty).expect_err(&format!("bit flip at byte {pos} decoded cleanly"));
        if let Some(section) = err.section() {
            sections.insert(section.to_string());
        }
    }
    // The errors name the damaged region: all four section kinds of the
    // layout must appear across the sweep.
    for expected in ["header", "layer0.streams", "layer0.balancer", "layer0.plan"] {
        assert!(
            sections.iter().any(|s| s.contains(expected)),
            "no corruption error ever named `{expected}` (saw {sections:?})"
        );
    }
}

#[test]
fn every_truncation_is_rejected() {
    let (model, cfg) = tiny_network();
    let net = compile(&model, &cfg).unwrap();
    let bytes = artifact::encode(&net);
    for len in 0..bytes.len() {
        assert!(
            artifact::decode(&bytes[..len]).is_err(),
            "truncation to {len} of {} bytes decoded cleanly",
            bytes.len()
        );
    }
}

#[test]
fn out_of_range_output_channel_with_consistent_checksums_is_rejected() {
    // Every checksum of this crafted artifact is consistent, but its first
    // weight entry addresses an output channel the layer does not have:
    // decode must fail with a typed error, not panic in the plan compiler.
    let mini = MiniNetwork::try_new(NetworkId::GoogLeNet).unwrap();
    let wp = WeightProfile::benchmark(BitWidth::W4);
    let model = NetworkModel::from_mini(&mini, &mut WorkloadGen::new(5), &wp).unwrap();
    let net = compile(&model, &RistrettoConfig::paper_default()).unwrap();
    let weights = net.layers()[0].weights();
    let out_ch = weights.out_channels() as u16;
    let mut entries = weights.stream(0).entries().to_vec();
    entries[0].out_ch = out_ch;
    let stream_sum = WeightStream::from_entries(entries.clone()).checksum();

    // The `layer0.streams` payload opens with out_channels, in_channels and
    // kernel (u64 each) and w_bits and atom_bits (u8); then channel 0's
    // entry count (u64), its 9-byte entries (out_ch in the last two bytes)
    // and its checksum. The section's FNV-1a digest follows the payload.
    let mut bytes = artifact::encode(&net);
    let name = b"layer0.streams";
    let len_at = bytes.windows(name.len()).position(|w| w == name).unwrap() + name.len();
    let len = u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap()) as usize;
    let payload = len_at + 8;
    let (entry, sum) = (payload + 34, payload + 34 + 9 * entries.len());
    bytes[entry + 7..entry + 9].copy_from_slice(&out_ch.to_le_bytes());
    bytes[sum..sum + 8].copy_from_slice(&stream_sum.to_le_bytes());
    let section_sum = fnv1a_bytes(&bytes[payload..payload + len]);
    bytes[payload + len..payload + len + 8].copy_from_slice(&section_sum.to_le_bytes());

    let detail = AtomError::WeightOutChannelOutOfRange {
        channel: 0,
        index: 0,
        out_ch,
        out_channels: out_ch as usize,
    }
    .to_string();
    assert_eq!(
        artifact::decode(&bytes).unwrap_err(),
        WireError::Invalid {
            section: "layer0.streams".to_string(),
            detail
        }
    );
}

#[test]
fn cache_load_names_the_file_on_version_skew() {
    let (model, cfg) = tiny_network();
    let net = compile(&model, &cfg).unwrap();
    let dir = tmp_dir("skew");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ModelCache::new(&dir);
    let key = CacheKey::derive(&model, &cfg);
    cache.store(&net, key).unwrap();

    let path = dir.join(key.file_name());
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8] = bytes[8].wrapping_add(1); // format version, little-endian LSB
    std::fs::write(&path, &bytes).unwrap();

    match cache.load(&path) {
        Err(CacheError::Artifact {
            path: p,
            source: WireError::VersionSkew { found, supported },
        }) => {
            assert_eq!(p, path);
            assert_eq!(found, supported + 1);
        }
        other => panic!("expected a version-skew artifact error, got {other:?}"),
    }
    // `verify` reports the same rejection without panicking on the rest.
    let results = cache.verify().unwrap();
    assert_eq!(results.len(), 1);
    assert!(results[0].1.is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_load_rejects_a_misnamed_artifact() {
    let (model, cfg) = tiny_network();
    let net = compile(&model, &cfg).unwrap();
    let dir = tmp_dir("misnamed");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ModelCache::new(&dir);
    let key = CacheKey::derive(&model, &cfg);
    cache.store(&net, key).unwrap();

    // A valid artifact under the wrong content address must be refused:
    // the loader recomputes both hash halves from the decoded contents.
    let wrong = dir.join(format!("{:016x}-{:016x}.rma", 0u64, 1u64));
    std::fs::rename(dir.join(key.file_name()), &wrong).unwrap();
    assert!(matches!(
        cache.load(&wrong),
        Err(CacheError::Mismatch { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cache_entries_fall_back_to_recompile_with_identical_results() {
    let (model, cfg) = tiny_network();
    let dir = tmp_dir("fallback");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ModelCache::new(&dir);
    let input = tiny_input();

    let cold = cache.compile_cached(&model, &cfg).unwrap();
    let baseline = Session::new(Arc::clone(&cold)).run(&input).unwrap();

    // Damage every section in turn; each damaged artifact must be
    // silently replaced by a recompile whose session output is
    // byte-identical, and the rewritten artifact must verify clean again.
    let path = dir.join(CacheKey::derive(&model, &cfg).file_name());
    let pristine = std::fs::read(&path).unwrap();
    let probes = [9usize, 40, pristine.len() / 2, pristine.len() - 9];
    for (i, &pos) in probes.iter().enumerate() {
        let mut dirty = pristine.clone();
        dirty[pos] ^= 1 << (i % 8);
        std::fs::write(&path, &dirty).unwrap();

        let recompiled = cache.compile_cached(&model, &cfg).unwrap();
        assert_eq!(*recompiled, *cold, "recompile diverged (probe {i})");
        let rerun = Session::new(recompiled).run(&input).unwrap();
        assert_eq!(rerun.output, baseline.output, "output diverged (probe {i})");

        let results = cache.verify().unwrap();
        assert!(
            results.iter().all(|(_, v)| v.is_ok()),
            "rewritten artifact failed verify (probe {i})"
        );
        assert_eq!(std::fs::read(&path).unwrap(), pristine, "probe {i}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
