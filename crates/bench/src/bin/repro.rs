//! `repro` — regenerates every table and figure of the Ristretto paper.
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [--quick] [--json <path>] [--metrics <path>]
//!                    [--threads <n>] [--trace] [--batch <n>]
//! repro stats-check --golden <path> [--metrics <path>] [--update]
//!                    [--threads <n>]
//! experiments: fig1 fig4 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19
//!              table6 motivation scaling ablations batch all
//! ```
//!
//! `fig13` and `fig16` are energy companions produced by the same runners
//! as `fig12` / `fig14`. `scaling` runs the sharded fleet simulator's
//! strong/weak-scaling curves across core counts (see `DESIGN.md` §11).
//! `--quick` trims the benchmark to three networks and coarser sweeps.
//! With `--json`, the structured rows are also written to the given path.
//!
//! `--metrics` additionally enables the observability counters and writes
//! their snapshot (sorted, schema-stable JSON; see `OBSERVABILITY.md`) to
//! the given path. `--trace` prints wall-clock span timings to stderr.
//!
//! `stats-check` runs the quick suite with counters enabled and diffs the
//! snapshot against a checked-in golden file, exiting non-zero on drift —
//! the CI stats-regression gate. `--update` rewrites the golden from the
//! live run instead (preserving its tolerance section).
//!
//! `diffcheck` draws `--cases` seeded random (layer, config) cases and runs
//! the differential oracle of `bench::diffcheck` on each — cross-path
//! output equality at 1 and 4 threads, lossless compression round-trips,
//! cycle-model invariants, artifact round-trips, and 1-core-fleet ≡
//! single-core-session equivalence. Any divergence fails the run; `--shrink`
//! additionally minimizes each failing case, and every divergence is
//! dumped as a JSON repro under `--repro-dir` (default
//! `diffcheck_repros/`).
//!
//! `--threads <n>` caps the worker threads of the parallel execution layer
//! (default: all hardware threads; `--threads 1` forces the serial path).
//! Every parallel fan-out in the harness collects results in deterministic
//! input order, so stdout, the `--json` file and the `--metrics` file are
//! byte-identical at any thread count. Per-experiment wall times go to
//! stderr only, keeping stdout reproducible.
//!
//! `--batch <n>` sets the images served per compiled network by the
//! `batch` experiment (default 1; implies `batch` when no experiment is
//! named) — per-image wall time falls as the batch grows because the
//! engine compiles each network's static weight artifacts once.
//!
//! `--model-cache <dir>` routes compilation of the `batch` experiment
//! (and `repro all`) through the on-disk model cache: the first run
//! against a directory compiles and persists versioned, checksummed
//! artifacts; later runs load and verify them. Tables and JSON stay
//! byte-identical either way. `cache stats|clear|verify` inspect, empty,
//! or integrity-check such a directory.
//!
//! `artifact save` compiles the benchmark networks and persists their
//! artifacts into `--model-cache`; `artifact check` (typically a separate
//! process, as in CI) strict-loads each one back, re-encodes it, and
//! proves the decoded network runs byte-identically to a fresh in-memory
//! compile at 1 and 4 worker threads.
//!
//! `perf-check` measures the self-timed bench suite and gates a small set
//! of key medians (CSC sparse conv, steady-state streams, per-network
//! cache-hit load) against a checked-in `BENCH_*.json` baseline with a
//! generous `--tolerance` ratio — the CI perf-regression gate.
//!
//! `chaos` runs the deterministic fault-injection campaign of
//! `bench::chaos`: `--campaign <n>` seeded cases, each probing every
//! injectable structure with detection/recovery on (result must match the
//! fault-free baseline) and with monitors off (classifying masked vs
//! silent corruption). Exits non-zero if any detection-on run silently
//! diverged. `--seed <s>` re-rolls the campaign.
//!
//! `--timeout-secs <n>` arms an opt-in watchdog: if any single experiment
//! (or chaos/diffcheck case) runs longer than `n` seconds, the process
//! aborts with a diagnostic naming the hung step and its elapsed time.

use bench::cache::StatsCache;
use bench::experiments::{
    ablations, engine_batch, fig01, fig04, fig12, fig14, fig15, fig17, fig18, fig19, motivation,
    scaling, table6,
};
use bench::stats_gate;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: repro <fig1|fig4|fig12|fig13|fig14|fig15|fig16|fig17|fig18|fig19|table6|motivation|scaling|ablations|batch|all> [--quick] [--json <path>] [--metrics <path>] [--threads <n>] [--trace] [--batch <n>] [--model-cache <dir>] [--timeout-secs <n>]
       repro stats-check --golden <path> [--metrics <path>] [--update] [--threads <n>]
       repro diffcheck [--cases <n>] [--seed <s>] [--shrink] [--repro-dir <path>]
       repro chaos [--campaign <n>] [--seed <s>] [--json <path>]
       repro bench [--quick] [--json <path>] [--threads <n>]
       repro cache <stats|clear|verify> --model-cache <dir>
       repro artifact <save|check> --model-cache <dir> [--quick]
       repro perf-check --baseline <path> [--tolerance <x>] [--quick] [--json <path>]
       repro serve [--clients <n>] [--requests <n>] [--lambda <r>] [--mix <spec>]
                   [--max-batch <n>] [--max-wait <t>] [--queue-cap <n>]
                   [--fleet-cores <n>] [--deadline <t>] [--slo-class <spec>]
                   [--brownout <permille>] [--retry-budget <n>]
                   [--chaos] [--model-cache <dir>] [--seed <s>] [--quick]
                   [--json <path>] [--metrics <path>] [--threads <n>]";

/// Upper bound on `serve --clients` and `--max-batch`. The server keeps one
/// batch-histogram bucket per batch size and the load generator one state
/// per client, so an unbounded count aborts on capacity overflow.
const MAX_SERVE_COUNT: usize = 1 << 16;

/// Canonical experiment order of `repro all`.
const ALL: [&str; 13] = [
    "fig1",
    "fig4",
    "table6",
    "fig12",
    "fig14",
    "fig15",
    "fig17",
    "fig18",
    "fig19",
    "motivation",
    "scaling",
    "ablations",
    "batch",
];

/// Parsed command line.
struct Cli {
    which: String,
    /// Second positional of the two-word subcommands (`cache <sub>`,
    /// `artifact <sub>`).
    sub: Option<String>,
    quick: bool,
    json_path: Option<String>,
    metrics_path: Option<String>,
    golden_path: Option<String>,
    update_golden: bool,
    trace: bool,
    threads: Option<usize>,
    batch: usize,
    model_cache: Option<String>,
    baseline: Option<String>,
    tolerance: f64,
    cases: u64,
    diff_seed: u64,
    shrink: bool,
    repro_dir: Option<String>,
    campaign: u64,
    timeout_secs: Option<u64>,
    /// `repro serve` parameters (the `--seed` flag is shared with
    /// diffcheck/chaos; serve defaults to the suite seed when unset).
    serve: bench::serve_cli::ServeArgs,
}

/// Parses arguments; option values (`--json`, `--metrics`, `--golden`,
/// `--threads`) are consumed and can never be mistaken for the experiment
/// name.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut quick = false;
    let mut json_path = None;
    let mut metrics_path = None;
    let mut golden_path = None;
    let mut update_golden = false;
    let mut trace = false;
    let mut threads = None;
    let mut batch = None;
    let mut cases = None;
    let mut diff_seed = None;
    let mut shrink = false;
    let mut repro_dir = None;
    let mut campaign = None;
    let mut timeout_secs = None;
    let mut model_cache = None;
    let mut baseline = None;
    let mut tolerance = None;
    let mut clients = None;
    let mut requests = None;
    let mut lambda = None;
    let mut mix = None;
    let mut max_batch = None;
    let mut max_wait = None;
    let mut queue_cap = None;
    let mut fleet_cores = None;
    let mut deadline = None;
    let mut slo_class = None;
    let mut brownout = None;
    let mut retry_budget = None;
    let mut chaos_load = false;
    let mut positionals: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--update" => update_golden = true,
            "--trace" => trace = true,
            "--json" => {
                json_path = Some(
                    it.next()
                        .ok_or_else(|| "--json requires a path".to_string())?
                        .clone(),
                );
            }
            "--metrics" => {
                metrics_path = Some(
                    it.next()
                        .ok_or_else(|| "--metrics requires a path".to_string())?
                        .clone(),
                );
            }
            "--golden" => {
                golden_path = Some(
                    it.next()
                        .ok_or_else(|| "--golden requires a path".to_string())?
                        .clone(),
                );
            }
            "--threads" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--threads requires a count".to_string())?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("invalid thread count `{v}`"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                threads = Some(n);
            }
            "--batch" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--batch requires a count".to_string())?;
                let n: usize = v.parse().map_err(|_| format!("invalid batch size `{v}`"))?;
                if n == 0 {
                    return Err("--batch must be at least 1".to_string());
                }
                batch = Some(n);
            }
            "--shrink" => shrink = true,
            "--cases" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--cases requires a count".to_string())?;
                let n: u64 = v.parse().map_err(|_| format!("invalid case count `{v}`"))?;
                cases = Some(n);
            }
            "--seed" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--seed requires a value".to_string())?;
                let n: u64 = v.parse().map_err(|_| format!("invalid seed `{v}`"))?;
                diff_seed = Some(n);
            }
            "--repro-dir" => {
                repro_dir = Some(
                    it.next()
                        .ok_or_else(|| "--repro-dir requires a path".to_string())?
                        .clone(),
                );
            }
            "--campaign" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--campaign requires a count".to_string())?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("invalid campaign size `{v}`"))?;
                if n == 0 {
                    return Err("--campaign must be at least 1".to_string());
                }
                campaign = Some(n);
            }
            "--timeout-secs" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--timeout-secs requires a count".to_string())?;
                let n: u64 = v.parse().map_err(|_| format!("invalid timeout `{v}`"))?;
                if n == 0 {
                    return Err("--timeout-secs must be at least 1".to_string());
                }
                timeout_secs = Some(n);
            }
            "--model-cache" => {
                model_cache = Some(
                    it.next()
                        .ok_or_else(|| "--model-cache requires a directory".to_string())?
                        .clone(),
                );
            }
            "--clients" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--clients requires a count".to_string())?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("invalid client count `{v}`"))?;
                if n == 0 {
                    return Err("--clients must be at least 1".to_string());
                }
                if n > MAX_SERVE_COUNT {
                    return Err(format!(
                        "--clients must be at most {MAX_SERVE_COUNT} (got {n})"
                    ));
                }
                clients = Some(n);
            }
            "--requests" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--requests requires a count".to_string())?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("invalid request count `{v}`"))?;
                requests = Some(n);
            }
            "--lambda" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--lambda requires a rate".to_string())?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("invalid arrival rate `{v}`"))?;
                if n == 0 {
                    return Err("--lambda must be at least 1 request per megatick".to_string());
                }
                lambda = Some(n);
            }
            "--mix" => {
                mix = Some(
                    it.next()
                        .ok_or_else(|| {
                            "--mix requires a spec like `AlexNet=3,GoogLeNet=1`".to_string()
                        })?
                        .clone(),
                );
            }
            "--max-batch" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--max-batch requires a count".to_string())?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("invalid batch bound `{v}`"))?;
                if n == 0 {
                    return Err("--max-batch must be at least 1".to_string());
                }
                if n > MAX_SERVE_COUNT {
                    return Err(format!(
                        "--max-batch must be at most {MAX_SERVE_COUNT} (got {n})"
                    ));
                }
                max_batch = Some(n);
            }
            "--max-wait" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--max-wait requires a tick count".to_string())?;
                let n: u64 = v.parse().map_err(|_| format!("invalid wait bound `{v}`"))?;
                max_wait = Some(n);
            }
            "--queue-cap" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--queue-cap requires a count".to_string())?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("invalid queue capacity `{v}`"))?;
                if n == 0 {
                    return Err("--queue-cap must be at least 1".to_string());
                }
                queue_cap = Some(n);
            }
            "--fleet-cores" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--fleet-cores requires a count".to_string())?;
                let n: usize = v.parse().map_err(|_| format!("invalid core count `{v}`"))?;
                if n == 0 {
                    return Err("--fleet-cores must be at least 1".to_string());
                }
                fleet_cores = Some(n);
            }
            "--deadline" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--deadline requires a tick count".to_string())?;
                let n: u64 = v.parse().map_err(|_| format!("invalid deadline `{v}`"))?;
                if n == 0 {
                    return Err("--deadline must be at least 1 microtick".to_string());
                }
                deadline = Some(n);
            }
            "--slo-class" => {
                let v = it.next().ok_or_else(|| {
                    "--slo-class requires a spec like `interactive,batch,best-effort`".to_string()
                })?;
                slo_class = Some(bench::serve_cli::parse_classes(v)?);
            }
            "--brownout" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--brownout requires a permille value".to_string())?;
                let n: u16 = v
                    .parse()
                    .map_err(|_| format!("invalid brownout permille `{v}`"))?;
                if n == 0 || n > 1000 {
                    return Err(format!(
                        "--brownout must be within 1..=1000 permille (got {n})"
                    ));
                }
                brownout = Some(n);
            }
            "--retry-budget" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--retry-budget requires a count".to_string())?;
                let n: u32 = v
                    .parse()
                    .map_err(|_| format!("invalid retry budget `{v}`"))?;
                if n > 16 {
                    return Err(format!(
                        "--retry-budget must be at most 16 retries per request (got {n})"
                    ));
                }
                retry_budget = Some(n);
            }
            "--chaos" => chaos_load = true,
            "--baseline" => {
                baseline = Some(
                    it.next()
                        .ok_or_else(|| "--baseline requires a path".to_string())?
                        .clone(),
                );
            }
            "--tolerance" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--tolerance requires a ratio".to_string())?;
                let x: f64 = v.parse().map_err(|_| format!("invalid tolerance `{v}`"))?;
                // NaN must fail too, so compare in the rejecting direction.
                if x < 1.0 || x.is_nan() {
                    return Err("--tolerance must be at least 1.0".to_string());
                }
                tolerance = Some(x);
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`"));
            }
            other => positionals.push(other.to_string()),
        }
    }
    // `repro --batch 8` alone means "run the batch experiment".
    let (which, sub) = match positionals.len() {
        0 if batch.is_some() => ("batch".to_string(), None),
        0 => return Err("no experiment given".to_string()),
        1 => (positionals.remove(0), None),
        2 if positionals[0] == "cache" || positionals[0] == "artifact" => {
            let sub = positionals.pop();
            (positionals.remove(0), sub)
        }
        _ => return Err("more than one experiment given".to_string()),
    };
    match which.as_str() {
        "cache" => match sub.as_deref() {
            Some("stats" | "clear" | "verify") => {}
            Some(s) => return Err(format!("unknown cache subcommand `{s}`")),
            None => return Err("cache requires a subcommand: stats, clear or verify".to_string()),
        },
        "artifact" => match sub.as_deref() {
            Some("save" | "check") => {}
            Some(s) => return Err(format!("unknown artifact subcommand `{s}`")),
            None => return Err("artifact requires a subcommand: save or check".to_string()),
        },
        _ => {}
    }
    if (which == "cache" || which == "artifact") && model_cache.is_none() {
        return Err(format!("{which} requires --model-cache <dir>"));
    }
    if model_cache.is_some()
        && !matches!(
            which.as_str(),
            "batch" | "all" | "cache" | "artifact" | "serve"
        )
    {
        return Err(
            "--model-cache only applies to `batch`, `all`, `cache`, `artifact` or `serve`"
                .to_string(),
        );
    }
    if which == "perf-check" && baseline.is_none() {
        return Err("perf-check requires --baseline <path>".to_string());
    }
    if baseline.is_some() && which != "perf-check" {
        return Err("--baseline only applies to `perf-check`".to_string());
    }
    if tolerance.is_some() && which != "perf-check" {
        return Err("--tolerance only applies to `perf-check`".to_string());
    }
    if golden_path.is_some() && which != "stats-check" {
        return Err("--golden only applies to `stats-check`".to_string());
    }
    if update_golden && which != "stats-check" {
        return Err("--update only applies to `stats-check`".to_string());
    }
    if which == "stats-check" && golden_path.is_none() {
        return Err("stats-check requires --golden <path>".to_string());
    }
    if batch.is_some() && which != "batch" && which != "all" {
        return Err("--batch only applies to `batch` or `all`".to_string());
    }
    if which != "diffcheck" {
        if cases.is_some() {
            return Err("--cases only applies to `diffcheck`".to_string());
        }
        if shrink {
            return Err("--shrink only applies to `diffcheck`".to_string());
        }
        if repro_dir.is_some() {
            return Err("--repro-dir only applies to `diffcheck`".to_string());
        }
    }
    if diff_seed.is_some() && !matches!(which.as_str(), "diffcheck" | "chaos" | "serve") {
        return Err("--seed only applies to `diffcheck`, `chaos` or `serve`".to_string());
    }
    if campaign.is_some() && which != "chaos" {
        return Err("--campaign only applies to `chaos`".to_string());
    }
    if which != "serve" {
        let serve_only: [(&str, bool); 13] = [
            ("--clients", clients.is_some()),
            ("--requests", requests.is_some()),
            ("--lambda", lambda.is_some()),
            ("--mix", mix.is_some()),
            ("--max-batch", max_batch.is_some()),
            ("--max-wait", max_wait.is_some()),
            ("--queue-cap", queue_cap.is_some()),
            ("--fleet-cores", fleet_cores.is_some()),
            ("--deadline", deadline.is_some()),
            ("--slo-class", slo_class.is_some()),
            ("--brownout", brownout.is_some()),
            ("--retry-budget", retry_budget.is_some()),
            ("--chaos", chaos_load),
        ];
        if let Some((flag, _)) = serve_only.iter().find(|(_, set)| *set) {
            return Err(format!("{flag} only applies to `serve`"));
        }
    }
    let serve_defaults = bench::serve_cli::ServeArgs::default();
    let serve = bench::serve_cli::ServeArgs {
        seed: diff_seed.unwrap_or(serve_defaults.seed),
        clients: clients.unwrap_or(serve_defaults.clients),
        requests: requests.unwrap_or(serve_defaults.requests),
        lambda: lambda.unwrap_or(serve_defaults.lambda),
        mix,
        max_batch: max_batch.unwrap_or(serve_defaults.max_batch),
        max_wait: max_wait.unwrap_or(serve_defaults.max_wait),
        queue_cap: queue_cap.unwrap_or(serve_defaults.queue_cap),
        fleet_cores: fleet_cores.unwrap_or(serve_defaults.fleet_cores),
        deadline,
        slo_classes: slo_class,
        brownout: brownout.unwrap_or(serve_defaults.brownout),
        retry_budget: retry_budget.unwrap_or(serve_defaults.retry_budget),
        chaos: chaos_load,
        model_cache: (which == "serve")
            .then(|| model_cache.clone().map(std::path::PathBuf::from))
            .flatten(),
        quick,
    };
    // Cross-flag conflicts (e.g. --brownout without a best-effort tenant)
    // fail at parse time with the flag named, not mid-run.
    if which == "serve" {
        bench::serve_cli::validate(&serve)?;
    }
    Ok(Cli {
        which,
        sub,
        quick,
        json_path,
        metrics_path,
        golden_path,
        update_golden,
        trace,
        threads,
        batch: batch.unwrap_or(1),
        model_cache,
        baseline,
        tolerance: tolerance.unwrap_or(bench::perf_gate::DEFAULT_TOLERANCE),
        cases: cases.unwrap_or(500),
        diff_seed: diff_seed.unwrap_or(1),
        shrink,
        repro_dir,
        campaign: campaign.unwrap_or(25),
        timeout_secs,
        serve,
    })
}

/// An opt-in hang detector (`--timeout-secs`): a polling thread that
/// aborts the whole process when the currently-registered step has been
/// running longer than the budget, printing a diagnostic that names it.
/// Abort (rather than unwinding) is deliberate — the hung step is by
/// definition not going to return and cannot be cancelled cooperatively.
struct Watchdog {
    current: Arc<Mutex<Option<(String, Instant)>>>,
}

impl Watchdog {
    fn arm(timeout: Duration) -> Self {
        let current: Arc<Mutex<Option<(String, Instant)>>> = Arc::new(Mutex::new(None));
        let watched = Arc::clone(&current);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(50));
            let hung = {
                let guard = watched.lock().unwrap_or_else(|e| e.into_inner());
                guard.as_ref().and_then(|(name, since)| {
                    (since.elapsed() > timeout).then(|| (name.clone(), since.elapsed()))
                })
            };
            if let Some((name, elapsed)) = hung {
                eprintln!(
                    "[watchdog] step `{name}` exceeded --timeout-secs {} (running {:.1}s); aborting",
                    timeout.as_secs(),
                    elapsed.as_secs_f64()
                );
                std::process::exit(124);
            }
        });
        Self { current }
    }

    /// Registers `name` as the step under watch; its clock starts now.
    fn enter(&self, name: &str) {
        let mut guard = self.current.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some((name.to_string(), Instant::now()));
    }

    /// Clears the watch (between steps nothing can hang).
    fn clear(&self) {
        let mut guard = self.current.lock().unwrap_or_else(|e| e.into_inner());
        *guard = None;
    }
}

/// Registers `name` on the watchdog if one is armed.
fn watch(wd: &Option<Watchdog>, name: &str) {
    if let Some(wd) = wd {
        wd.enter(name);
    }
}

/// Serializes experiment rows, naming the experiment on failure instead of
/// panicking (part of the no-unwrap policy of the CLI surface).
fn rows_json<T: serde::Serialize>(name: &str, rows: &T) -> Result<serde_json::Value, String> {
    serde_json::to_value(rows).map_err(|e| format!("serializing `{name}` rows: {e}"))
}

/// Runs one experiment by canonical name, emitting its rendered text and
/// JSON rows. Returns `Ok(false)` for an unknown name.
fn run_one(
    which: &str,
    quick: bool,
    batch: usize,
    model_cache: Option<&std::path::Path>,
    cache: &mut StatsCache,
    emit: &mut dyn FnMut(&str, String, serde_json::Value),
) -> Result<bool, String> {
    match which {
        "fig1" => {
            let rows = fig01::run(quick);
            emit("fig1", fig01::render(&rows), rows_json("fig1", &rows)?);
        }
        "fig4" => {
            let rows = fig04::run(quick);
            emit("fig4", fig04::render(&rows), rows_json("fig4", &rows)?);
        }
        "fig12" | "fig13" => {
            let rows = fig12::run(quick, cache);
            emit(
                "fig12_13",
                fig12::render(&rows),
                rows_json("fig12_13", &rows)?,
            );
        }
        "fig14" | "fig16" => {
            let rows = fig14::run(quick, cache);
            emit(
                "fig14_16",
                fig14::render(&rows),
                rows_json("fig14_16", &rows)?,
            );
        }
        "fig15" => {
            let rows = fig15::run(quick);
            emit("fig15", fig15::render(&rows), rows_json("fig15", &rows)?);
        }
        "fig17" => {
            let rows = fig17::run(quick, cache);
            emit("fig17", fig17::render(&rows), rows_json("fig17", &rows)?);
        }
        "fig18" => {
            let rows = fig18::run(quick);
            emit("fig18", fig18::render(&rows), rows_json("fig18", &rows)?);
        }
        "fig19" => {
            let cost = fig19::run_cost();
            let perf = fig19::run_perf(quick, cache);
            emit(
                "fig19",
                fig19::render(&cost, &perf),
                serde_json::json!({"cost": cost, "perf": perf}),
            );
        }
        "table6" => {
            let rows = table6::run();
            emit("table6", table6::render(&rows), rows_json("table6", &rows)?);
        }
        "motivation" => {
            let rows = motivation::run(quick, cache);
            emit(
                "motivation",
                motivation::render(&rows),
                rows_json("motivation", &rows)?,
            );
        }
        "scaling" => {
            let rows = scaling::run(quick);
            emit(
                "scaling",
                scaling::render(&rows),
                rows_json("scaling", &rows)?,
            );
        }
        "batch" => {
            let rows = engine_batch::run(quick, batch, model_cache)?;
            emit(
                "batch",
                engine_batch::render(&rows),
                rows_json("batch", &rows)?,
            );
        }
        "ablations" => {
            let tiles = ablations::run_tile_size(quick);
            let fifos = ablations::run_fifo_depth(quick);
            let bals = ablations::run_balance_networks(quick, cache);
            emit(
                "ablations",
                ablations::render(&tiles, &fifos, &bals),
                serde_json::json!({"tile_size": tiles, "fifo_depth": fifos, "balance": bals}),
            );
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Runs one experiment and reports its wall time on stderr (stderr only:
/// stdout stays byte-identical across thread counts and machines).
fn run_timed(
    which: &str,
    quick: bool,
    batch: usize,
    model_cache: Option<&std::path::Path>,
    cache: &mut StatsCache,
    watchdog: &Option<Watchdog>,
    emit: &mut dyn FnMut(&str, String, serde_json::Value),
) -> Result<bool, String> {
    let start = Instant::now();
    watch(watchdog, which);
    let known = run_one(which, quick, batch, model_cache, cache, emit)?;
    if let Some(wd) = watchdog {
        wd.clear();
    }
    if known {
        eprintln!("[repro] {which}: {:.2}s", start.elapsed().as_secs_f64());
    }
    Ok(known)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(n) = cli.threads {
        if let Err(e) = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
        {
            eprintln!("cannot configure {n} worker thread(s): {e}");
            return ExitCode::FAILURE;
        }
    }
    obs::set_tracing(cli.trace);
    // Counters stay a single disabled-branch check unless this run actually
    // consumes them.
    if cli.metrics_path.is_some() || cli.which == "stats-check" || cli.which == "diffcheck" {
        obs::enable(true);
    }
    let watchdog = cli
        .timeout_secs
        .map(|s| Watchdog::arm(Duration::from_secs(s)));

    let mut cache = StatsCache::new();
    let mut json = serde_json::Map::new();

    if cli.which == "stats-check" {
        return stats_check(&cli, &mut cache, &watchdog);
    }
    if cli.which == "diffcheck" {
        return diffcheck_cmd(&cli, &watchdog);
    }
    if cli.which == "chaos" {
        return chaos_cmd(&cli, &watchdog);
    }
    if cli.which == "bench" {
        return bench_cmd(&cli, &watchdog);
    }
    if cli.which == "cache" {
        return cache_cmd(&cli);
    }
    if cli.which == "artifact" {
        return artifact_cmd(&cli, &watchdog);
    }
    if cli.which == "perf-check" {
        return perf_check_cmd(&cli, &watchdog);
    }
    if cli.which == "serve" {
        return serve_cmd(&cli, &watchdog);
    }

    let model_cache = cli.model_cache.as_ref().map(std::path::Path::new);
    let mut emit = |name: &str, text: String, value: serde_json::Value| {
        println!("{text}");
        json.insert(name.to_string(), value);
    };

    let start = Instant::now();
    if cli.which == "all" {
        for which in ALL {
            if let Err(e) = run_timed(
                which,
                cli.quick,
                cli.batch,
                model_cache,
                &mut cache,
                &watchdog,
                &mut emit,
            ) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        eprintln!("[repro] total: {:.2}s", start.elapsed().as_secs_f64());
    } else {
        match run_timed(
            &cli.which,
            cli.quick,
            cli.batch,
            model_cache,
            &mut cache,
            &watchdog,
            &mut emit,
        ) {
            Ok(true) => {}
            Ok(false) => {
                eprintln!("unknown experiment `{}`\n{USAGE}", cli.which);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = cli.json_path {
        let text = match serde_json::to_string_pretty(&json) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("serializing JSON results for {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match std::fs::write(&path, text) {
            Ok(()) => eprintln!("wrote JSON results to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = cli.metrics_path {
        let text = match stats_gate::metrics_json(&obs::snapshot()) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        match std::fs::write(&path, text) {
            Ok(()) => eprintln!("wrote metrics to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The `diffcheck` subcommand: drive the differential oracle over a seeded
/// case budget, dumping each divergence as a JSON repro and failing the
/// run if any case diverges.
fn diffcheck_cmd(cli: &Cli, watchdog: &Option<Watchdog>) -> ExitCode {
    use bench::diffcheck;
    let repro_dir = cli.repro_dir.as_deref().unwrap_or("diffcheck_repros");
    // An explicitly-requested repro dir is probed for writability *before*
    // the case budget runs: a multi-minute sweep that cannot persist its
    // repros is wasted work.
    if cli.repro_dir.is_some() {
        if let Err(e) = probe_writable_dir(repro_dir) {
            eprintln!("repro dir {repro_dir} is not writable: {e}");
            return ExitCode::FAILURE;
        }
    }
    let start = Instant::now();
    let mut divergences = Vec::new();
    for index in 0..cli.cases {
        watch(watchdog, &format!("diffcheck case {index}"));
        if index > 0 && index % 100 == 0 {
            eprintln!(
                "[diffcheck] {index}/{} cases, {} divergence(s), {:.2}s",
                cli.cases,
                divergences.len(),
                start.elapsed().as_secs_f64()
            );
        }
        if let Some(d) = diffcheck::check_one(cli.diff_seed, index, cli.shrink) {
            eprintln!("[diffcheck] case {index} DIVERGED: {}", d.failure);
            divergences.push(d);
        }
    }
    if let Some(wd) = watchdog {
        wd.clear();
    }
    eprintln!("[repro] diffcheck: {:.2}s", start.elapsed().as_secs_f64());

    if !divergences.is_empty() {
        if let Err(e) = std::fs::create_dir_all(repro_dir) {
            eprintln!("cannot create repro dir {repro_dir}: {e}");
            return ExitCode::FAILURE;
        }
        for d in &divergences {
            let path = format!("{repro_dir}/case_{}_{}.json", cli.diff_seed, d.index);
            match serde_json::to_string_pretty(d) {
                Ok(text) => match std::fs::write(&path, text) {
                    Ok(()) => eprintln!("wrote repro to {path}"),
                    Err(e) => eprintln!("failed to write {path}: {e}"),
                },
                Err(e) => eprintln!("serializing repro for {path}: {e}"),
            }
        }
        println!(
            "diffcheck: {} cases, {} divergence(s) (seed {})",
            cli.cases,
            divergences.len(),
            cli.diff_seed
        );
        return ExitCode::FAILURE;
    }
    println!(
        "diffcheck: {} cases, 0 divergences (seed {})",
        cli.cases, cli.diff_seed
    );
    ExitCode::SUCCESS
}

/// The `bench` subcommand: run the self-timed micro and batch suites of
/// `bench::microbench` and optionally record the `ristretto-bench/v3` JSON
/// report (the checked-in benchmark trajectory, see `BENCH_8.json`).
/// Deliberately *not* part of `repro all`: wall times are machine-bound, so
/// they would break the byte-identical-across-thread-counts contract of the
/// experiment suite.
fn bench_cmd(cli: &Cli, watchdog: &Option<Watchdog>) -> ExitCode {
    let start = Instant::now();
    watch(watchdog, "bench suite");
    let report = bench::microbench::run(cli.quick);
    if let Some(wd) = watchdog {
        wd.clear();
    }
    eprintln!("[repro] bench: {:.2}s", start.elapsed().as_secs_f64());
    print!("{}", bench::microbench::render(&report));
    if let Some(path) = &cli.json_path {
        let text = match serde_json::to_string_pretty(&report) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("serializing bench report for {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match std::fs::write(path, text) {
            Ok(()) => eprintln!("wrote bench report to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The `cache` subcommand: inspect (`stats`), empty (`clear`) or
/// integrity-check (`verify`) an on-disk model-cache directory. `verify`
/// strict-loads every artifact — checksums, format version and the
/// content address are all re-checked — and exits non-zero when any file
/// fails, naming the file and the rejected section.
fn cache_cmd(cli: &Cli) -> ExitCode {
    use ristretto_sim::modelcache::ModelCache;
    let dir = cli.model_cache.as_deref().unwrap_or_default();
    let cache = ModelCache::new(dir);
    match cli.sub.as_deref() {
        Some("stats") => match cache.stats() {
            Ok(s) => {
                println!(
                    "cache {dir}: {} artifact(s), {} byte(s)",
                    s.entries, s.bytes
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cache stats failed: {e}");
                ExitCode::FAILURE
            }
        },
        Some("clear") => match cache.clear() {
            Ok(n) => {
                println!("cache {dir}: removed {n} artifact(s)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cache clear failed: {e}");
                ExitCode::FAILURE
            }
        },
        Some("verify") => match cache.verify() {
            Ok(results) => {
                let mut bad = 0;
                for (path, verdict) in &results {
                    match verdict {
                        Ok(()) => println!("[ok]   {}", path.display()),
                        Err(e) => {
                            bad += 1;
                            println!("[FAIL] {}: {e}", path.display());
                        }
                    }
                }
                println!(
                    "cache {dir}: {} artifact(s) verified, {bad} rejected",
                    results.len()
                );
                if bad == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("cache verify failed: {e}");
                ExitCode::FAILURE
            }
        },
        // Unreachable by construction (parse_args validates the sub).
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// The `artifact` subcommand. `save` compiles the benchmark networks and
/// persists their artifacts; `check` — run afterwards, typically in a
/// separate process so nothing survives from the compiling one — proves
/// for every network that the strict-loaded artifact equals a fresh
/// in-memory compile, re-encodes byte-identically, and that a session
/// over the decoded network is byte-identical to the in-memory session
/// at 1 and 4 worker threads.
fn artifact_cmd(cli: &Cli, watchdog: &Option<Watchdog>) -> ExitCode {
    use ristretto_sim::artifact;
    use ristretto_sim::config::RistrettoConfig;
    use ristretto_sim::engine::{compile, Session};
    use ristretto_sim::modelcache::{CacheKey, ModelCache};

    let dir = cli.model_cache.as_deref().unwrap_or_default();
    let cache = ModelCache::new(dir);
    let cfg = RistrettoConfig::paper_default();
    let save = cli.sub.as_deref() == Some("save");
    let start = Instant::now();
    for (idx, (name, model)) in engine_batch::benchmark_models(cli.quick)
        .into_iter()
        .enumerate()
    {
        watch(
            watchdog,
            &format!("artifact {} {name}", if save { "save" } else { "check" }),
        );
        let key = CacheKey::derive(&model, &cfg);
        let net = match compile(&model, &cfg) {
            Ok(net) => net,
            Err(e) => {
                eprintln!("{name}: compile failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let path = std::path::Path::new(dir).join(key.file_name());
        if save {
            match cache.store(&net, key) {
                Ok(bytes) => println!("saved {name}: {} ({bytes} bytes)", key.file_name()),
                Err(e) => {
                    eprintln!("{name}: store failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
            continue;
        }
        let decoded = match cache.load(&path) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("{name}: load failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if decoded != *net {
            eprintln!("{name}: decoded artifact differs from in-memory compile");
            return ExitCode::FAILURE;
        }
        if artifact::encode(&decoded) != artifact::encode(&net) {
            eprintln!("{name}: re-encoded artifact is not byte-identical");
            return ExitCode::FAILURE;
        }
        let (c, h, w) = net.input();
        let input = engine_batch::benchmark_input(idx, 0, c, h, w);
        let session_mem = Session::new(net);
        let session_disk = Session::new(std::sync::Arc::new(decoded));
        for threads in [1usize, 4] {
            let pool = match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{name}: pool({threads}): {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mem = pool.install(|| session_mem.run(&input));
            let disk = pool.install(|| session_disk.run(&input));
            match (mem, disk) {
                (Ok(mem), Ok(disk)) => {
                    if mem.output != disk.output
                        || mem.traces.iter().map(|t| t.stats).collect::<Vec<_>>()
                            != disk.traces.iter().map(|t| t.stats).collect::<Vec<_>>()
                    {
                        eprintln!(
                            "{name}: cache-hit session diverges from in-memory session \
                             at {threads} thread(s)"
                        );
                        return ExitCode::FAILURE;
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("{name}: session at {threads} thread(s): {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!(
            "checked {name}: {} byte-identical at 1 and 4 threads",
            key.file_name()
        );
    }
    if let Some(wd) = watchdog {
        wd.clear();
    }
    eprintln!("[repro] artifact: {:.2}s", start.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}

/// The `perf-check` subcommand: measure the self-timed bench suite and
/// gate its key series against a checked-in baseline report.
fn perf_check_cmd(cli: &Cli, watchdog: &Option<Watchdog>) -> ExitCode {
    use bench::perf_gate;
    let baseline_path = match cli.baseline.as_deref() {
        Some(p) => p,
        // Unreachable by construction (parse_args requires --baseline).
        None => {
            eprintln!("perf-check requires --baseline <path>\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Parse the baseline before measuring: a malformed file should fail in
    // milliseconds, not after the bench suite.
    let baseline: bench::microbench::BenchReport = match std::fs::read_to_string(baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let start = Instant::now();
    watch(watchdog, "perf-check bench suite");
    let live = bench::microbench::run(cli.quick);
    if let Some(wd) = watchdog {
        wd.clear();
    }
    eprintln!("[repro] perf-check: {:.2}s", start.elapsed().as_secs_f64());
    if let Some(path) = &cli.json_path {
        match serde_json::to_string_pretty(&live) {
            Ok(text) => match std::fs::write(path, text) {
                Ok(()) => eprintln!("wrote live bench report to {path}"),
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("serializing live bench report for {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match perf_gate::compare(&live, &baseline, cli.tolerance) {
        Ok(checks) => {
            print!("{}", perf_gate::render(&checks, cli.tolerance));
            if checks.iter().all(|c| c.pass) {
                ExitCode::SUCCESS
            } else {
                eprintln!("perf-check FAILED against {baseline_path}");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perf-check cannot compare against {baseline_path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `serve` subcommand: drive the multi-tenant serving layer with the
/// seeded closed-loop load generator (`bench::serve_cli`). Stdout, the
/// `--json` report and the `--metrics` snapshot are all integer-derived
/// and byte-identical at any `--threads` count; wall time goes to stderr.
/// Exits non-zero if the post-drain conservation invariant
/// `submitted == served + rejected + shed` is violated, or if a chaos
/// run's survivor digests diverge from its quiescent twin.
fn serve_cmd(cli: &Cli, watchdog: &Option<Watchdog>) -> ExitCode {
    let start = Instant::now();
    watch(watchdog, "serve");
    let report = match bench::serve_cli::run(&cli.serve) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(wd) = watchdog {
        wd.clear();
    }
    eprintln!("[repro] serve: {:.2}s", start.elapsed().as_secs_f64());
    print!("{}", bench::serve_cli::render(&report));
    if let Some(path) = &cli.json_path {
        let text = match serde_json::to_string_pretty(&report) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("serializing serve report for {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match std::fs::write(path, text) {
            Ok(()) => eprintln!("wrote serve report to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &cli.metrics_path {
        let text = match stats_gate::metrics_json(&obs::snapshot()) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        match std::fs::write(path, text) {
            Ok(()) => eprintln!("wrote metrics to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if !report.conserves_requests() {
        eprintln!(
            "serve: conservation violated: submitted {} != served {} + rejected {} + shed {}",
            report.submitted, report.served, report.rejected, report.shed
        );
        return ExitCode::FAILURE;
    }
    if let Some(twin) = &report.chaos_twin {
        if twin.survivor_digest != twin.twin_survivor_digest {
            eprintln!(
                "serve: chaos twin diverged over {} survivors: {:016x} != {:016x}",
                twin.survivors, twin.survivor_digest, twin.twin_survivor_digest
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Proves `dir` accepts writes by round-tripping a probe file (named
/// per-process so concurrent sweeps don't collide). Leaves no trace: if the
/// directory had to be created for the probe, it is removed again so a
/// divergence-free sweep still ends with no repro directory on disk.
fn probe_writable_dir(dir: &str) -> Result<(), String> {
    let existed = std::path::Path::new(dir).is_dir();
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let probe = format!("{dir}/.write_probe_{}", std::process::id());
    std::fs::write(&probe, b"probe").map_err(|e| e.to_string())?;
    std::fs::remove_file(&probe).map_err(|e| e.to_string())?;
    if !existed {
        std::fs::remove_dir(dir).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The `chaos` subcommand: run the deterministic fault-injection campaign
/// of `bench::chaos` and fail unless every detection-on run reproduced the
/// fault-free baseline (zero silent corruptions).
fn chaos_cmd(cli: &Cli, watchdog: &Option<Watchdog>) -> ExitCode {
    let start = Instant::now();
    watch(watchdog, "chaos campaign");
    let report = match bench::chaos::run_campaign(cli.diff_seed, cli.campaign) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(wd) = watchdog {
        wd.clear();
    }
    eprintln!("[repro] chaos: {:.2}s", start.elapsed().as_secs_f64());
    print!("{}", report.render());
    if let Some(path) = &cli.json_path {
        let text = match serde_json::to_string_pretty(&report) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("serializing chaos report for {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match std::fs::write(path, text) {
            Ok(()) => eprintln!("wrote chaos report to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `stats-check` subcommand: run the quick suite with counters on and
/// diff the snapshot against the golden file (or rewrite it with
/// `--update`). Tables are suppressed — only counters matter here.
fn stats_check(cli: &Cli, cache: &mut StatsCache, watchdog: &Option<Watchdog>) -> ExitCode {
    let golden_path = match cli.golden_path.as_deref() {
        Some(p) => p,
        // Unreachable by construction (parse_args rejects stats-check
        // without --golden), but no panic on the CLI surface.
        None => {
            eprintln!("stats-check requires --golden <path>\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Parse the golden up front (unless rewriting it): a truncated or
    // invalid file should fail in milliseconds, not after the full suite.
    let golden = if cli.update_golden {
        None
    } else {
        match std::fs::read_to_string(golden_path) {
            Ok(text) => match stats_gate::parse_golden(&text) {
                Ok(g) => Some(g),
                Err(e) => {
                    eprintln!("malformed golden file {golden_path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("cannot read golden file {golden_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let start = Instant::now();
    let mut emit = |_: &str, _: String, _: serde_json::Value| {};
    for which in ALL {
        // Batch stays 1 and the model cache stays off so the counter
        // snapshot matches the golden file.
        if let Err(e) = run_timed(which, true, 1, None, cache, watchdog, &mut emit) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("[repro] total: {:.2}s", start.elapsed().as_secs_f64());
    let snap = obs::snapshot();

    if let Some(path) = &cli.metrics_path {
        let text = match stats_gate::metrics_json(&snap) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        match std::fs::write(path, text) {
            Ok(()) => eprintln!("wrote metrics to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if cli.update_golden {
        // Keep any hand-tuned tolerances from the existing golden.
        let prior = std::fs::read_to_string(golden_path)
            .ok()
            .and_then(|t| stats_gate::parse_golden(&t).ok());
        let text = match stats_gate::golden_json(&snap, prior.as_ref()) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        return match std::fs::write(golden_path, text) {
            Ok(()) => {
                println!("updated golden stats at {golden_path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("failed to write {golden_path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let golden = match golden {
        Some(g) => g,
        // Unreachable: `golden` is always parsed above when not updating.
        None => {
            eprintln!("internal error: golden file {golden_path} was not parsed");
            return ExitCode::FAILURE;
        }
    };
    let drifts = stats_gate::compare(&snap, &golden);
    if drifts.is_empty() {
        println!(
            "stats-check OK: {} counters within tolerance of {golden_path}",
            golden.counters.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "stats-check FAILED: {} counter(s) drifted from {golden_path}",
            drifts.len()
        );
        for d in &drifts {
            eprintln!("  {d}");
        }
        eprintln!("(run `repro stats-check --golden {golden_path} --update` to accept)");
        ExitCode::FAILURE
    }
}
