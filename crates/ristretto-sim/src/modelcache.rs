//! Content-addressed on-disk cache of compiled networks.
//!
//! The cache directory holds one artifact per `(network, config)` pair,
//! named `{model_hash:016x}-{config_hash:016x}.rma` where both halves are
//! FNV-1a 64 hashes over canonical wire encodings of the model (name,
//! input shape, every layer field including kernel values) and the full
//! [`RistrettoConfig`]. Content addressing makes invalidation automatic:
//! touch a weight, a geometry field, or any config knob and the key
//! changes, so the stale artifact is simply never looked up again.
//!
//! [`ModelCache::compile_cached`] is the drop-in replacement for
//! [`compile`]: on a hit it loads and fully verifies the artifact
//! (section checksums, stream checksums, cross-section consistency, and a
//! final comparison against the requested model and config); any
//! verification failure — corruption, version skew, hash collision — is
//! counted under `engine.cache.rejected` and silently falls back to a
//! fresh compile whose artifact atomically replaces the bad one. A
//! cache-hit session is therefore byte-identical to an in-memory-compile
//! session or it does not load at all.

use crate::artifact;
use crate::config::RistrettoConfig;
use crate::engine::{compile, CompiledNetwork, EngineError, NetworkModel};
use crate::pipeline::PipelineLayer;
use atomstream::wire::{fnv1a_bytes, WireError};
use std::fmt;
use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Artifact file extension (Ristretto Model Artifact).
pub const ARTIFACT_EXT: &str = "rma";

/// The two content hashes a cache entry is addressed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKey {
    /// FNV-1a 64 over the canonical model bytes.
    pub model_hash: u64,
    /// FNV-1a 64 over the canonical config bytes.
    pub config_hash: u64,
}

impl CacheKey {
    /// Derives the key for a `(model, config)` pair.
    #[must_use]
    pub fn derive(model: &NetworkModel, cfg: &RistrettoConfig) -> Self {
        Self {
            model_hash: fnv1a_bytes(&artifact::model_cache_bytes(model)),
            config_hash: fnv1a_bytes(&artifact::config_cache_bytes(cfg)),
        }
    }

    /// The artifact file name this key addresses.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!(
            "{:016x}-{:016x}.{ARTIFACT_EXT}",
            self.model_hash, self.config_hash
        )
    }
}

/// Typed failures of the strict cache operations (`load`, `store`,
/// `verify`, `stats`, `clear`). `compile_cached` never surfaces these —
/// it counts them and recompiles.
#[derive(Debug)]
pub enum CacheError {
    /// A filesystem operation failed.
    Io {
        /// File or directory the operation targeted.
        path: PathBuf,
        /// Operation name (`read`, `write`, `rename`, ...).
        op: &'static str,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// The artifact's bytes failed decode-time verification.
    Artifact {
        /// The damaged artifact file.
        path: PathBuf,
        /// The wire-level error, naming the damaged section.
        source: WireError,
    },
    /// The artifact decoded cleanly but does not belong under its name or
    /// key (content-address mismatch, or a different model/config than
    /// requested).
    Mismatch {
        /// The misfiled artifact.
        path: PathBuf,
        /// What disagreed.
        detail: String,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io { path, op, message } => {
                write!(f, "{op} {}: {message}", path.display())
            }
            CacheError::Artifact { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            CacheError::Mismatch { path, detail } => {
                write!(f, "{}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Artifact { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Aggregate numbers for `repro cache stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Number of artifact files in the cache directory.
    pub entries: usize,
    /// Total artifact bytes on disk.
    pub bytes: u64,
}

/// A content-addressed artifact directory.
#[derive(Debug, Clone)]
pub struct ModelCache {
    dir: PathBuf,
}

impl ModelCache {
    /// Wraps a cache directory (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Compile-through-cache: load and verify the artifact for
    /// `(model, cfg)` if present, otherwise (or on any verification
    /// failure) compile in memory and persist the artifact atomically.
    ///
    /// Outcomes are counted under the `engine.cache.*` observability
    /// events: `hits`, `misses` (no artifact), `rejected` (artifact
    /// present but refused), `writes`/`store_fail`, and byte totals.
    /// Store failures are deliberately non-fatal — the compiled network
    /// is always returned.
    ///
    /// # Errors
    /// Only compile errors ([`EngineError`]) propagate; cache trouble
    /// degrades to a recompile.
    pub fn compile_cached(
        &self,
        model: &NetworkModel,
        cfg: &RistrettoConfig,
    ) -> Result<Arc<CompiledNetwork>, EngineError> {
        let key = CacheKey::derive(model, cfg);
        let path = self.dir.join(key.file_name());
        match fs::read(&path) {
            Ok(bytes) => {
                obs::record(obs::Event::EngineCacheBytesRead, bytes.len() as u64);
                match artifact::decode(&bytes) {
                    Ok(net) if decoded_matches(&net, model, cfg) => {
                        obs::record(obs::Event::EngineCacheHits, 1);
                        return Ok(Arc::new(net));
                    }
                    // Decoded into a *different* model or config: a hash
                    // collision or a misfiled artifact. Same treatment as
                    // corruption — reject and recompile.
                    Ok(_) | Err(_) => obs::record(obs::Event::EngineCacheRejected, 1),
                }
            }
            Err(e) if e.kind() == ErrorKind::NotFound => {
                obs::record(obs::Event::EngineCacheMisses, 1);
            }
            Err(_) => obs::record(obs::Event::EngineCacheRejected, 1),
        }
        let net = compile(model, cfg)?;
        match self.store(&net, key) {
            Ok(bytes) => {
                obs::record(obs::Event::EngineCacheWrites, 1);
                obs::record(obs::Event::EngineCacheBytesWritten, bytes);
            }
            Err(_) => obs::record(obs::Event::EngineCacheStoreFail, 1),
        }
        Ok(net)
    }

    /// Strictly loads and verifies one artifact file, including its
    /// content address: both halves of the key are recomputed from the
    /// decoded contents and compared against the file name.
    ///
    /// # Errors
    /// [`CacheError::Io`] on read failure, [`CacheError::Artifact`] on
    /// decode/verification failure, [`CacheError::Mismatch`] when the
    /// contents do not hash to the file's name.
    pub fn load(&self, path: &Path) -> Result<CompiledNetwork, CacheError> {
        let bytes = fs::read(path).map_err(|e| CacheError::Io {
            path: path.to_path_buf(),
            op: "read",
            message: e.to_string(),
        })?;
        let net = artifact::decode(&bytes).map_err(|source| CacheError::Artifact {
            path: path.to_path_buf(),
            source,
        })?;
        let expected = CacheKey::derive(&reconstruct_model(&net), &net.cfg).file_name();
        let actual = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if expected != actual {
            return Err(CacheError::Mismatch {
                path: path.to_path_buf(),
                detail: format!("contents hash to `{expected}` but the file is named `{actual}`"),
            });
        }
        Ok(net)
    }

    /// Atomically persists an artifact under its content address
    /// (write to a temp file in the same directory, then rename).
    ///
    /// Returns the artifact size in bytes.
    ///
    /// # Errors
    /// [`CacheError::Io`] on any filesystem failure.
    pub fn store(&self, net: &CompiledNetwork, key: CacheKey) -> Result<u64, CacheError> {
        fs::create_dir_all(&self.dir).map_err(|e| CacheError::Io {
            path: self.dir.clone(),
            op: "create_dir_all",
            message: e.to_string(),
        })?;
        let bytes = artifact::encode(net);
        let final_path = self.dir.join(key.file_name());
        let tmp_path = self
            .dir
            .join(format!(".{}.tmp.{}", key.file_name(), std::process::id()));
        fs::write(&tmp_path, &bytes).map_err(|e| CacheError::Io {
            path: tmp_path.clone(),
            op: "write",
            message: e.to_string(),
        })?;
        fs::rename(&tmp_path, &final_path).map_err(|e| {
            let _ = fs::remove_file(&tmp_path);
            CacheError::Io {
                path: final_path.clone(),
                op: "rename",
                message: e.to_string(),
            }
        })?;
        Ok(bytes.len() as u64)
    }

    /// Flips one byte in the middle of the on-disk artifact for `key`
    /// (chaos harness hook: the next [`ModelCache::compile_cached`] must
    /// reject it and take the recompile path). Returns whether an
    /// artifact existed to corrupt.
    ///
    /// # Errors
    /// [`CacheError::Io`] on read or write failure.
    pub fn corrupt_artifact(&self, key: &CacheKey) -> Result<bool, CacheError> {
        let path = self.dir.join(key.file_name());
        let mut bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(false),
            Err(e) => {
                return Err(CacheError::Io {
                    path,
                    op: "read",
                    message: e.to_string(),
                })
            }
        };
        if bytes.is_empty() {
            return Ok(false);
        }
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).map_err(|e| CacheError::Io {
            path,
            op: "write",
            message: e.to_string(),
        })?;
        Ok(true)
    }

    /// Paths of every artifact file currently in the cache, sorted.
    ///
    /// # Errors
    /// [`CacheError::Io`] if the directory exists but cannot be listed.
    pub fn entries(&self) -> Result<Vec<PathBuf>, CacheError> {
        let dir = match fs::read_dir(&self.dir) {
            Ok(dir) => dir,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => {
                return Err(CacheError::Io {
                    path: self.dir.clone(),
                    op: "read_dir",
                    message: e.to_string(),
                })
            }
        };
        let mut paths: Vec<PathBuf> = dir
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == ARTIFACT_EXT))
            .collect();
        paths.sort();
        Ok(paths)
    }

    /// Entry count and byte total for `repro cache stats`.
    ///
    /// # Errors
    /// [`CacheError::Io`] on directory or metadata failure.
    pub fn stats(&self) -> Result<CacheStats, CacheError> {
        let mut stats = CacheStats::default();
        for path in self.entries()? {
            let meta = fs::metadata(&path).map_err(|e| CacheError::Io {
                path: path.clone(),
                op: "metadata",
                message: e.to_string(),
            })?;
            stats.entries += 1;
            stats.bytes += meta.len();
        }
        Ok(stats)
    }

    /// Deletes every artifact file; returns how many were removed.
    ///
    /// # Errors
    /// [`CacheError::Io`] on the first failed removal.
    pub fn clear(&self) -> Result<usize, CacheError> {
        let mut removed = 0;
        for path in self.entries()? {
            fs::remove_file(&path).map_err(|e| CacheError::Io {
                path: path.clone(),
                op: "remove_file",
                message: e.to_string(),
            })?;
            removed += 1;
        }
        Ok(removed)
    }

    /// Strictly verifies every artifact in the cache (`repro cache
    /// verify`): full decode plus content-address check per file.
    ///
    /// # Errors
    /// [`CacheError::Io`] if the directory cannot be listed; per-file
    /// failures are returned in the result list, not as an early error.
    #[allow(clippy::type_complexity)]
    pub fn verify(&self) -> Result<Vec<(PathBuf, Result<(), CacheError>)>, CacheError> {
        Ok(self
            .entries()?
            .into_iter()
            .map(|path| {
                let outcome = self.load(&path).map(|_| ());
                (path, outcome)
            })
            .collect())
    }
}

/// Rebuilds the uncompiled model a compiled network came from — the
/// artifact retains every model field (weight bit-width lives in the
/// stream set), which is what lets `verify` recompute the model half of
/// the content address without the original model at hand.
fn reconstruct_model(net: &CompiledNetwork) -> NetworkModel {
    let layers = net
        .layers
        .iter()
        .map(|l| PipelineLayer {
            name: l.name.clone(),
            kernels: l.kernels.clone(),
            geom: l.geom,
            w_bits: l.weights.w_bits(),
            a_bits: l.a_bits,
            requant_shift: l.requant_shift,
            out_bits: l.out_bits,
            pool: l.pool,
        })
        .collect();
    NetworkModel::new(net.name.clone(), net.input, layers)
}

/// A decoded artifact must be exactly the network the caller asked for.
fn decoded_matches(net: &CompiledNetwork, model: &NetworkModel, cfg: &RistrettoConfig) -> bool {
    net.cfg == *cfg && reconstruct_model(net) == *model
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::FORMAT_VERSION;
    use qnn::conv::ConvGeometry;
    use qnn::quant::BitWidth;
    use qnn::tensor::{Tensor3, Tensor4};

    fn tiny_model() -> (NetworkModel, RistrettoConfig) {
        let kernels = Tensor4::from_vec(
            2,
            1,
            3,
            3,
            vec![1, 0, -2, 0, 3, 0, -1, 0, 2, 0, 2, 0, -3, 0, 1, 0, -1, 0],
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

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ristretto_modelcache_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn miss_then_hit_round_trips_and_counts() {
        let (model, cfg) = tiny_model();
        let dir = tmp_dir("hit");
        let cache = ModelCache::new(&dir);

        obs::enable(true);
        let before = obs::snapshot();
        let cold = cache.compile_cached(&model, &cfg).unwrap();
        let warm = cache.compile_cached(&model, &cfg).unwrap();
        let after = obs::snapshot();
        assert_eq!(*cold, *warm);

        let delta = |e: obs::Event| after.get(e) - before.get(e);
        assert_eq!(delta(obs::Event::EngineCacheMisses), 1);
        assert_eq!(delta(obs::Event::EngineCacheHits), 1);
        assert_eq!(delta(obs::Event::EngineCacheWrites), 1);
        assert_eq!(delta(obs::Event::EngineCacheRejected), 0);
        assert!(delta(obs::Event::EngineCacheBytesWritten) > 0);
        assert!(delta(obs::Event::EngineCacheBytesRead) > 0);

        // A hit must be byte-identical to an in-memory compile.
        let fresh = compile(&model, &cfg).unwrap();
        assert_eq!(*fresh, *warm);

        let stats = cache.stats().unwrap();
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
        assert_eq!(cache.clear().unwrap(), 1);
        assert_eq!(cache.stats().unwrap().entries, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_artifact_is_rejected_and_results_stay_identical() {
        let (model, cfg) = tiny_model();
        let dir = tmp_dir("corrupt");
        let cache = ModelCache::new(&dir);
        let baseline = cache.compile_cached(&model, &cfg).unwrap();
        let path = dir.join(CacheKey::derive(&model, &cfg).file_name());

        // Flip one payload bit on disk.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            cache.load(&path),
            Err(CacheError::Artifact { .. })
        ));

        obs::enable(true);
        let before = obs::snapshot();
        let recovered = cache.compile_cached(&model, &cfg).unwrap();
        let after = obs::snapshot();
        assert_eq!(
            after.get(obs::Event::EngineCacheRejected)
                - before.get(obs::Event::EngineCacheRejected),
            1
        );
        // Fallback recompile is byte-identical, and the bad artifact was
        // atomically replaced by a good one.
        assert_eq!(*baseline, *recovered);
        cache.load(&path).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifact_helper_forces_the_recompile_path() {
        let (model, cfg) = tiny_model();
        let dir = tmp_dir("chaos_corrupt");
        let cache = ModelCache::new(&dir);
        let key = CacheKey::derive(&model, &cfg);
        // Nothing on disk yet: nothing to corrupt.
        assert!(!cache.corrupt_artifact(&key).unwrap());
        let baseline = cache.compile_cached(&model, &cfg).unwrap();
        assert!(cache.corrupt_artifact(&key).unwrap());
        let path = dir.join(key.file_name());
        assert!(cache.load(&path).is_err(), "corruption must be detectable");
        // The next cached compile rejects the artifact and recompiles to
        // byte-identical output.
        let recovered = cache.compile_cached(&model, &cfg).unwrap();
        assert_eq!(*baseline, *recovered);
        cache.load(&path).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skew_is_rejected_with_a_typed_error() {
        let (model, cfg) = tiny_model();
        let dir = tmp_dir("skew");
        let cache = ModelCache::new(&dir);
        cache.compile_cached(&model, &cfg).unwrap();
        let path = dir.join(CacheKey::derive(&model, &cfg).file_name());
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = FORMAT_VERSION as u8 + 9;
        fs::write(&path, &bytes).unwrap();
        match cache.load(&path) {
            Err(CacheError::Artifact {
                source: WireError::VersionSkew { found, supported },
                ..
            }) => {
                assert_eq!(found, u32::from(FORMAT_VERSION as u8 + 9));
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected version skew, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn misnamed_artifact_fails_the_content_address_check() {
        let (model, cfg) = tiny_model();
        let dir = tmp_dir("misfile");
        let cache = ModelCache::new(&dir);
        cache.compile_cached(&model, &cfg).unwrap();
        let good = dir.join(CacheKey::derive(&model, &cfg).file_name());
        let bad = dir.join(format!("{:016x}-{:016x}.rma", 0u64, 0u64));
        fs::copy(&good, &bad).unwrap();
        assert!(matches!(cache.load(&bad), Err(CacheError::Mismatch { .. })));
        let report = cache.verify().unwrap();
        assert_eq!(report.len(), 2);
        let failures = report.iter().filter(|(_, r)| r.is_err()).count();
        assert_eq!(failures, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_cache_dir_still_serves_compiles_and_counts_store_fail() {
        let (model, cfg) = tiny_model();
        // A *file* where the cache directory should be: `create_dir_all`
        // fails portably, no permission tricks needed.
        let dir = tmp_dir("unwritable");
        fs::write(&dir, b"not a directory").unwrap();
        let cache = ModelCache::new(&dir);

        obs::enable(true);
        let before = obs::snapshot();
        let served = cache.compile_cached(&model, &cfg).unwrap();
        let after = obs::snapshot();
        let delta = |e: obs::Event| after.get(e) - before.get(e);

        // The compile is served correctly (byte-identical to in-memory)...
        let fresh = compile(&model, &cfg).unwrap();
        assert_eq!(*fresh, *served);
        // ...the failure is counted, not swallowed...
        assert_eq!(delta(obs::Event::EngineCacheStoreFail), 1);
        assert_eq!(delta(obs::Event::EngineCacheWrites), 0);
        // ...and the strict API names the path and operation.
        let key = CacheKey::derive(&model, &cfg);
        match cache.store(&fresh, key) {
            Err(CacheError::Io { path, op, .. }) => {
                assert_eq!(path, dir);
                assert_eq!(op, "create_dir_all");
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        let _ = fs::remove_file(&dir);
    }

    #[test]
    fn cache_hit_run_is_byte_identical_across_thread_counts() {
        let (model, cfg) = tiny_model();
        let dir = tmp_dir("threads");
        let cache = ModelCache::new(&dir);
        let cold = cache.compile_cached(&model, &cfg).unwrap();
        let warm = cache.compile_cached(&model, &cfg).unwrap();

        let input = Tensor3::from_vec(1, 6, 6, (0..36).map(|v| v % 5).collect()).unwrap();
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (a, b) = pool.install(|| {
                let a = crate::engine::Session::new(cold.clone())
                    .run(&input)
                    .unwrap();
                let b = crate::engine::Session::new(warm.clone())
                    .run(&input)
                    .unwrap();
                (a, b)
            });
            assert_eq!(a, b, "thread count {threads}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
