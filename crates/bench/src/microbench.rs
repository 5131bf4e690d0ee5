//! Self-timed micro-benchmarks of the CSC hot path (`repro bench`).
//!
//! The Criterion benches under `benches/` remain the statistically rigorous
//! harness for local work; this module exists so a benchmark trajectory can
//! be *recorded* — `repro bench --json` emits a small, schema-stable JSON
//! report (`ristretto-bench/v3`) suitable for checking in next to the code
//! it measures (see `BENCH_8.json`). Timing is deliberately simple and
//! self-contained: per benchmark, one warm-up call, an iteration count
//! calibrated so a sample lasts at least a millisecond, then a fixed number
//! of samples reduced to median/min/mean nanoseconds per iteration. Median
//! is the headline number — it is robust against scheduler noise on small
//! shared containers.
//!
//! Four suites run:
//!
//! * **micro** — the kernel-level workload mirrored from
//!   `benches/csc_kernels.rs` (a 16→32-channel 3×3 layer at 28×28, seed 7):
//!   the dense reference convolution, the full CSC convolution, and the
//!   precompiled stream intersection under the value-major reference
//!   kernel, the planned kernel with a cold scratch arena, and the planned
//!   kernel in its steady state (persistent arena, the `Session::run`
//!   regime).
//! * **batch** — the compile-once/run-many engine path per quick-suite
//!   network: compile wall time once, then per-image wall time over a
//!   served batch.
//! * **cache** — the cold-start story per quick-suite network: median
//!   in-memory compile wall time versus median verified artifact load
//!   (`ModelCache::load`, including every checksum and cross-section
//!   check), plus the artifact size on disk.
//! * **fleet** — the sharded fleet simulator's wall time per
//!   (strategy, cores) point on the first quick-suite network: the
//!   `repro scaling` hot path, gated so sharded execution cannot silently
//!   regress to a recompile-per-run or quadratic-assembly regime.

use crate::{benchmark_networks, table, SEED};
use atomstream::conv_csc::{
    conv2d_csc, conv2d_csc_streams_reference, conv2d_csc_streams_with, CscConfig, WeightStreamSet,
};
use atomstream::kernel::CscScratch;
use qnn::conv::{conv2d, ConvGeometry};
use qnn::mini::MiniNetwork;
use qnn::quant::BitWidth;
use qnn::workload::{ActivationProfile, SyntheticLayer, WeightProfile, WorkloadGen};
use ristretto_sim::config::{FleetConfig, RistrettoConfig};
use ristretto_sim::engine::{compile, NetworkModel, Session};
use ristretto_sim::fleet::{Fleet, ShardStrategy};
use ristretto_sim::modelcache::{CacheKey, ModelCache};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Schema tag stamped into every report; bump on breaking shape changes.
/// v2 added the `cache` suite (cold compile vs. cache-hit load); v3 added
/// the `fleet` suite (sharded fleet run wall times).
pub const SCHEMA: &str = "ristretto-bench/v3";

/// One micro-benchmark's timing summary (nanoseconds per iteration).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MicroRow {
    /// Benchmark name.
    pub name: String,
    /// Iterations folded into each timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples taken.
    pub samples: u64,
    /// Median nanoseconds per iteration — the headline number.
    pub median_ns: u64,
    /// Fastest observed nanoseconds per iteration.
    pub min_ns: u64,
    /// Mean nanoseconds per iteration.
    pub mean_ns: u64,
}

/// One network's compile-once/run-many timing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchRow {
    /// Network name.
    pub network: String,
    /// Images served through one session.
    pub images: usize,
    /// One-time compile wall time, milliseconds.
    pub compile_ms: f64,
    /// Steady per-image wall time, milliseconds (compile excluded).
    pub per_image_ms: f64,
}

/// One network's cold-start accounting: in-memory compile versus a
/// verified load of its persisted artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheRow {
    /// Network name.
    pub network: String,
    /// Median in-memory compile wall time, milliseconds.
    pub compile_ms: f64,
    /// Median verified artifact load wall time, milliseconds (full
    /// checksum + cross-section + content-address verification).
    pub load_ms: f64,
    /// Artifact size on disk, bytes.
    pub artifact_bytes: u64,
}

/// One fleet-scaling wall-time measurement: a full [`Fleet::run`] pass
/// (one input per core for batch sharding, one input total for
/// output-channel sharding) on the first quick-suite network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetRow {
    /// Sharding strategy label (`batch`, `output-channel`).
    pub strategy: String,
    /// Fleet core count.
    pub cores: usize,
    /// Median wall time of one fleet pass, milliseconds.
    pub run_ms: f64,
}

/// The full `repro bench` report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// Whether quick mode trimmed sample counts and the network list.
    pub quick: bool,
    /// Kernel-level micro-benchmarks.
    pub micro: Vec<MicroRow>,
    /// Engine compile-once/run-many timings.
    pub batch: Vec<BatchRow>,
    /// Cold compile vs. cache-hit load timings.
    pub cache: Vec<CacheRow>,
    /// Sharded fleet pass timings.
    pub fleet: Vec<FleetRow>,
}

/// Times `f`, returning per-iteration statistics. One warm-up call, then
/// the iteration count doubles until a sample crosses `min_sample`, then
/// `samples` timed samples.
fn time_fn<F: FnMut()>(name: &str, quick: bool, mut f: F) -> MicroRow {
    let min_sample = Duration::from_millis(if quick { 1 } else { 5 });
    let samples = if quick { 5u64 } else { 15 };
    f(); // warm-up: touch caches, fault pages, trigger lazy init
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t0.elapsed() >= min_sample || iters >= 1 << 20 {
            break;
        }
        iters *= 2;
    }
    let mut per_iter_ns: Vec<u64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            (t0.elapsed().as_nanos() / u128::from(iters)) as u64
        })
        .collect();
    per_iter_ns.sort_unstable();
    let median_ns = per_iter_ns[per_iter_ns.len() / 2];
    let min_ns = per_iter_ns[0];
    let mean_ns = per_iter_ns.iter().sum::<u64>() / samples;
    MicroRow {
        name: name.to_string(),
        iters_per_sample: iters,
        samples,
        median_ns,
        min_ns,
        mean_ns,
    }
}

/// The kernel-level workload, mirrored from `benches/csc_kernels.rs` so the
/// recorded trajectory and the Criterion numbers describe the same layer.
fn kernel_workload() -> SyntheticLayer {
    let layer = qnn::layers::ConvLayer::conv("bench", 16, 32, 3, 1, 1, 28, 28)
        .expect("benchmark layer shape is valid");
    let mut gen = WorkloadGen::new(7);
    SyntheticLayer::try_generate(
        &layer,
        &WeightProfile::benchmark(BitWidth::W8),
        &ActivationProfile::new(BitWidth::W8),
        &mut gen,
    )
    .expect("benchmark layer is small")
}

/// Runs the micro suite.
fn run_micro(quick: bool) -> Vec<MicroRow> {
    let w = kernel_workload();
    let geom = ConvGeometry::unit_stride(1);
    let cfg = CscConfig::default();
    let weights = WeightStreamSet::compile(&w.kernels, BitWidth::W8, cfg.atom_bits)
        .expect("benchmark kernels compile");

    let mut rows = Vec::new();
    rows.push(time_fn("dense_reference_conv", quick, || {
        std::hint::black_box(conv2d(&w.fmap, &w.kernels, geom).expect("dense conv"));
    }));
    rows.push(time_fn("csc_sparse_conv", quick, || {
        std::hint::black_box(
            conv2d_csc(&w.fmap, &w.kernels, geom, BitWidth::W8, BitWidth::W8, &cfg)
                .expect("csc conv"),
        );
    }));
    rows.push(time_fn("csc_streams_reference", quick, || {
        std::hint::black_box(
            conv2d_csc_streams_reference(&w.fmap, &weights, geom, BitWidth::W8, &cfg)
                .expect("reference streams"),
        );
    }));
    rows.push(time_fn("csc_streams_cold", quick, || {
        let scratch = CscScratch::new();
        std::hint::black_box(
            conv2d_csc_streams_with(&w.fmap, &weights, geom, BitWidth::W8, &cfg, &scratch)
                .expect("cold streams"),
        );
    }));
    let scratch = CscScratch::new();
    rows.push(time_fn("csc_streams_steady", quick, || {
        std::hint::black_box(
            conv2d_csc_streams_with(&w.fmap, &weights, geom, BitWidth::W8, &cfg, &scratch)
                .expect("steady streams"),
        );
    }));
    rows
}

/// Runs the batch suite: per network, timed compile plus a served batch
/// through one session (its persistent scratch arenas warm after the first
/// image).
fn run_batch(quick: bool) -> Vec<BatchRow> {
    let images = if quick { 2 } else { 4 };
    let cfg = RistrettoConfig::paper_default();
    let mut rows = Vec::new();
    for (idx, &net) in benchmark_networks(quick).iter().enumerate() {
        let mini = MiniNetwork::try_new(net).expect("builtin mini network");
        let mut gen = WorkloadGen::new(SEED ^ ((idx as u64 + 1) << 8));
        let model =
            NetworkModel::from_mini(&mini, &mut gen, &WeightProfile::benchmark(BitWidth::W4))
                .expect("mini network materializes");
        let t0 = Instant::now();
        let compiled = compile(&model, &cfg).expect("mini network compiles");
        let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
        let session = Session::new(compiled.clone());
        let (c, h, w) = compiled.input();
        let inputs: Vec<_> = (0..images)
            .map(|image| {
                let mut igen =
                    WorkloadGen::new(SEED ^ ((idx as u64 + 1) << 8) ^ (image as u64 + 1));
                igen.activations(c, h, w, &ActivationProfile::new(BitWidth::W8))
                    .expect("input materializes")
            })
            .collect();
        let t1 = Instant::now();
        for input in &inputs {
            std::hint::black_box(session.run(input).expect("session inference"));
        }
        let per_image_ms = t1.elapsed().as_secs_f64() * 1e3 / images as f64;
        rows.push(BatchRow {
            network: net.name().to_string(),
            images,
            compile_ms,
            per_image_ms,
        });
    }
    rows
}

/// Runs the cache suite: per network, median in-memory compile wall time
/// versus median verified artifact load from a scratch cache directory
/// (removed afterwards — the suite measures the mechanism, it does not
/// leave state behind).
fn run_cache(quick: bool) -> Vec<CacheRow> {
    let samples = if quick { 5 } else { 9 };
    let dir = std::env::temp_dir().join(format!("ristretto_bench_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ModelCache::new(&dir);
    let cfg = RistrettoConfig::paper_default();
    let median_ms = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.total_cmp(b));
        xs[xs.len() / 2]
    };
    let mut rows = Vec::new();
    for (idx, &net) in benchmark_networks(quick).iter().enumerate() {
        let mini = MiniNetwork::try_new(net).expect("builtin mini network");
        let mut gen = WorkloadGen::new(SEED ^ ((idx as u64 + 1) << 8));
        let model =
            NetworkModel::from_mini(&mini, &mut gen, &WeightProfile::benchmark(BitWidth::W4))
                .expect("mini network materializes");

        let compile_samples: Vec<f64> = (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(compile(&model, &cfg).expect("mini network compiles"));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();

        // Populate the cache (one store), then time verified loads.
        std::hint::black_box(
            cache
                .compile_cached(&model, &cfg)
                .expect("mini network compiles"),
        );
        let path = dir.join(CacheKey::derive(&model, &cfg).file_name());
        let artifact_bytes = std::fs::metadata(&path).expect("artifact on disk").len();
        let load_samples: Vec<f64> = (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(cache.load(&path).expect("artifact verifies"));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();

        rows.push(CacheRow {
            network: net.name().to_string(),
            compile_ms: median_ms(compile_samples),
            load_ms: median_ms(load_samples),
            artifact_bytes,
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    rows
}

/// Runs the fleet suite: median wall time of one sharded fleet pass per
/// (strategy, cores) point on the first quick-suite network. Batch points
/// serve one input per core; output-channel points serve one input total.
fn run_fleet(quick: bool) -> Vec<FleetRow> {
    let samples = if quick { 3 } else { 7 };
    let mini = MiniNetwork::try_new(benchmark_networks(true)[0]).expect("builtin mini network");
    let mut gen = WorkloadGen::new(SEED ^ (1 << 8));
    let model = NetworkModel::from_mini(&mini, &mut gen, &WeightProfile::benchmark(BitWidth::W4))
        .expect("mini network materializes");
    let compiled =
        compile(&model, &RistrettoConfig::paper_default()).expect("mini network compiles");
    let (c, h, w) = compiled.input();
    let median_ms = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.total_cmp(b));
        xs[xs.len() / 2]
    };
    let mut rows = Vec::new();
    for (strategy, cores) in [
        (ShardStrategy::Batch, 4),
        (ShardStrategy::OutputChannel, 1),
        (ShardStrategy::OutputChannel, 4),
    ] {
        let fleet = Fleet::try_new(compiled.clone(), FleetConfig::new(cores, strategy))
            .expect("benchmark fleet configuration is valid");
        let images = if strategy == ShardStrategy::Batch {
            cores
        } else {
            1
        };
        let inputs: Vec<_> = (0..images)
            .map(|image| {
                let mut igen = WorkloadGen::new(SEED ^ (1 << 8) ^ (image as u64 + 1));
                igen.activations(c, h, w, &ActivationProfile::new(BitWidth::W8))
                    .expect("input materializes")
            })
            .collect();
        std::hint::black_box(fleet.run(&inputs).expect("fleet warm-up"));
        let sample_ms: Vec<f64> = (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(fleet.run(&inputs).expect("fleet pass"));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        rows.push(FleetRow {
            strategy: strategy.to_string(),
            cores,
            run_ms: median_ms(sample_ms),
        });
    }
    rows
}

/// Runs all four suites and assembles the report.
pub fn run(quick: bool) -> BenchReport {
    BenchReport {
        schema: SCHEMA.to_string(),
        quick,
        micro: run_micro(quick),
        batch: run_batch(quick),
        cache: run_cache(quick),
        fleet: run_fleet(quick),
    }
}

/// Renders the report as text tables (wall times vary run to run, so this
/// output — unlike the experiment tables — is *not* expected to be
/// byte-stable across machines).
pub fn render(report: &BenchReport) -> String {
    let mut t = vec![vec![
        "benchmark".to_string(),
        "median ns/iter".to_string(),
        "min ns/iter".to_string(),
        "mean ns/iter".to_string(),
        "iters/sample".to_string(),
    ]];
    for r in &report.micro {
        t.push(vec![
            r.name.clone(),
            r.median_ns.to_string(),
            r.min_ns.to_string(),
            r.mean_ns.to_string(),
            r.iters_per_sample.to_string(),
        ]);
    }
    let mut out = table::render("CSC kernel micro-benchmarks (self-timed)", &t);
    let mut t = vec![vec![
        "network".to_string(),
        "images".to_string(),
        "compile ms (once)".to_string(),
        "per-image ms".to_string(),
    ]];
    for r in &report.batch {
        t.push(vec![
            r.network.clone(),
            r.images.to_string(),
            format!("{:.2}", r.compile_ms),
            format!("{:.2}", r.per_image_ms),
        ]);
    }
    out.push('\n');
    out.push_str(&table::render(
        "Engine compile-once/run-many (self-timed)",
        &t,
    ));
    let mut t = vec![vec![
        "network".to_string(),
        "compile ms (median)".to_string(),
        "cache-hit load ms (median)".to_string(),
        "artifact bytes".to_string(),
    ]];
    for r in &report.cache {
        t.push(vec![
            r.network.clone(),
            format!("{:.2}", r.compile_ms),
            format!("{:.2}", r.load_ms),
            r.artifact_bytes.to_string(),
        ]);
    }
    out.push('\n');
    out.push_str(&table::render(
        "Model cache: cold compile vs. verified artifact load (self-timed)",
        &t,
    ));
    let mut t = vec![vec![
        "strategy".to_string(),
        "cores".to_string(),
        "run ms (median)".to_string(),
    ]];
    for r in &report.fleet {
        t.push(vec![
            r.strategy.clone(),
            r.cores.to_string(),
            format!("{:.2}", r.run_ms),
        ]);
    }
    out.push('\n');
    out.push_str(&table::render("Fleet pass wall time (self-timed)", &t));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_has_schema_and_all_rows() {
        let report = run(true);
        assert_eq!(report.schema, SCHEMA);
        assert!(report.quick);
        let names: Vec<&str> = report.micro.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "dense_reference_conv",
                "csc_sparse_conv",
                "csc_streams_reference",
                "csc_streams_cold",
                "csc_streams_steady",
            ]
        );
        assert!(report.micro.iter().all(|r| r.median_ns > 0
            && r.min_ns <= r.median_ns
            && r.iters_per_sample >= 1
            && r.samples >= 5));
        assert_eq!(report.batch.len(), 3);
        assert!(report
            .batch
            .iter()
            .all(|b| b.per_image_ms > 0.0 && b.compile_ms > 0.0 && b.images == 2));
        assert_eq!(report.fleet.len(), 3);
        assert!(report.fleet.iter().all(|f| f.run_ms > 0.0 && f.cores >= 1));
        assert_eq!(report.cache.len(), 3);
        for c in &report.cache {
            assert!(c.compile_ms > 0.0 && c.load_ms > 0.0 && c.artifact_bytes > 0);
            // The whole point of the artifact cache: a verified load is
            // strictly faster than recompiling from the dense kernels.
            assert!(
                c.load_ms < c.compile_ms,
                "{}: load {:.3}ms vs compile {:.3}ms",
                c.network,
                c.load_ms,
                c.compile_ms
            );
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = BenchReport {
            schema: SCHEMA.to_string(),
            quick: true,
            micro: vec![MicroRow {
                name: "x".to_string(),
                iters_per_sample: 4,
                samples: 5,
                median_ns: 10,
                min_ns: 9,
                mean_ns: 11,
            }],
            batch: vec![BatchRow {
                network: "AlexNet".to_string(),
                images: 2,
                compile_ms: 1.5,
                per_image_ms: 2.5,
            }],
            cache: vec![CacheRow {
                network: "AlexNet".to_string(),
                compile_ms: 1.5,
                load_ms: 0.3,
                artifact_bytes: 4096,
            }],
            fleet: vec![FleetRow {
                strategy: "output-channel".to_string(),
                cores: 4,
                run_ms: 3.5,
            }],
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(json.contains("ristretto-bench/v3"));
    }

    #[test]
    fn render_names_every_benchmark() {
        let report = BenchReport {
            schema: SCHEMA.to_string(),
            quick: true,
            micro: vec![MicroRow {
                name: "dense_reference_conv".to_string(),
                iters_per_sample: 1,
                samples: 5,
                median_ns: 1,
                min_ns: 1,
                mean_ns: 1,
            }],
            batch: vec![BatchRow {
                network: "AlexNet".to_string(),
                images: 2,
                compile_ms: 1.0,
                per_image_ms: 1.0,
            }],
            cache: vec![CacheRow {
                network: "GoogLeNet".to_string(),
                compile_ms: 1.0,
                load_ms: 0.2,
                artifact_bytes: 1024,
            }],
            fleet: vec![FleetRow {
                strategy: "batch".to_string(),
                cores: 4,
                run_ms: 2.0,
            }],
        };
        let s = render(&report);
        assert!(s.contains("dense_reference_conv") && s.contains("AlexNet"));
        assert!(s.contains("GoogLeNet") && s.contains("cache-hit load"));
        assert!(s.contains("Fleet pass wall time") && s.contains("batch"));
    }
}
