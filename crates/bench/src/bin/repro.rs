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
//! `--threads <n>` caps the worker threads of the harness's own fan-out
//! (experiment items, the stats-cache prefill, `scaling`'s design points,
//! diffcheck's pools; default: all hardware threads). The engine, core,
//! fleet and CSC kernel run each layer on one thread. Every fan-out
//! collects results in input order, so stdout, the `--json` file and the
//! `--metrics` file are byte-identical at any thread count. Per-experiment
//! wall times go to stderr only, keeping stdout reproducible.
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
//!
//! Every flag, the value it takes and the subcommands it applies to are
//! one row of [`FLAGS`]; the parser and its error messages read them from
//! there.

use bench::cache::StatsCache;
use bench::experiments::{
    ablations, engine_batch, fig01, fig04, fig12, fig14, fig15, fig17, fig18, fig19, motivation,
    scaling, table6,
};
use bench::serve_cli::{self, ServeArgs};
use bench::stats_gate;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Mutex;
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
const MAX_SERVE_COUNT: u64 = 1 << 16;

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

/// One flag: its name, the value it takes and the subcommands it applies
/// to (empty: every subcommand).
struct Flag {
    name: &'static str,
    kind: Kind,
    only: &'static [&'static str],
}

/// The value a flag takes.
enum Kind {
    /// None: the flag is a switch.
    Switch,
    /// A string, checked by `check` where it is read.
    Text {
        /// Completes "`<flag>` requires …".
        what: &'static str,
        check: fn(&str) -> Result<(), String>,
    },
    /// An unsigned integer.
    Int(Int),
}

/// An integer flag's wording, type width and bounds.
struct Int {
    /// Completes "`<flag>` requires …".
    what: &'static str,
    /// Completes "invalid … `<value>`".
    noun: &'static str,
    /// Width of the integer type the value must fit.
    bits: u32,
    min: u64,
    max: u64,
    /// Unit of the bounds in a range error.
    unit: &'static str,
    /// A range error names both bounds (`within 1..=1000`), not the one
    /// the value crossed.
    within: bool,
}

/// Applies to every subcommand.
const ANY: &[&str] = &[];
const SERVE: &[&str] = &["serve"];
const DIFFCHECK: &[&str] = &["diffcheck"];

impl Flag {
    const fn switch(name: &'static str, only: &'static [&'static str]) -> Self {
        Self {
            name,
            kind: Kind::Switch,
            only,
        }
    }

    const fn text(name: &'static str, what: &'static str, only: &'static [&'static str]) -> Self {
        Self::checked(name, what, |_| Ok(()), only)
    }

    const fn checked(
        name: &'static str,
        what: &'static str,
        check: fn(&str) -> Result<(), String>,
        only: &'static [&'static str],
    ) -> Self {
        Self {
            name,
            kind: Kind::Text { what, check },
            only,
        }
    }

    const fn int(name: &'static str, int: Int, only: &'static [&'static str]) -> Self {
        Self {
            name,
            kind: Kind::Int(int),
            only,
        }
    }
}

impl Int {
    /// A `bits`-wide integer bounded only by its type.
    const fn new(what: &'static str, noun: &'static str, bits: u32) -> Self {
        Self {
            what,
            noun,
            bits,
            min: 0,
            max: u64::MAX,
            unit: "",
            within: false,
        }
    }

    const fn min(self, min: u64) -> Self {
        Self { min, ..self }
    }

    const fn max(self, max: u64) -> Self {
        Self { max, ..self }
    }

    const fn within(self, min: u64, max: u64) -> Self {
        Self {
            min,
            max,
            within: true,
            ..self
        }
    }

    const fn unit(self, unit: &'static str) -> Self {
        Self { unit, ..self }
    }

    /// Parses `flag`'s value `v` and checks it against the type width and
    /// the bounds.
    fn parse(&self, flag: &str, v: &str) -> Result<u64, String> {
        let n = v
            .parse::<u64>()
            .ok()
            .filter(|&n| n <= u64::MAX >> (64 - self.bits))
            .ok_or_else(|| format!("invalid {} `{v}`", self.noun))?;
        if (self.min..=self.max).contains(&n) {
            return Ok(n);
        }
        let bound = |b: u64| match self.unit {
            "" => b.to_string(),
            unit => format!("{b} {unit}"),
        };
        Err(if self.within {
            let (min, max) = (self.min, bound(self.max));
            format!("{flag} must be within {min}..={max} (got {n})")
        } else if n < self.min {
            format!("{flag} must be at least {}", bound(self.min))
        } else {
            format!("{flag} must be at most {} (got {n})", bound(self.max))
        })
    }
}

/// Every flag `repro` accepts. The "only applies to" checks run in this
/// order.
const FLAGS: [Flag; 30] = [
    Flag::switch("--quick", ANY),
    Flag::text("--json", "a path", ANY),
    Flag::text("--metrics", "a path", ANY),
    Flag::int(
        "--threads",
        Int::new("a count", "thread count", usize::BITS).min(1),
        ANY,
    ),
    Flag::switch("--trace", ANY),
    Flag::int(
        "--timeout-secs",
        Int::new("a count", "timeout", u64::BITS).min(1),
        ANY,
    ),
    Flag::text(
        "--model-cache",
        "a directory",
        &["batch", "all", "cache", "artifact", "serve"],
    ),
    Flag::text("--baseline", "a path", &["perf-check"]),
    Flag::checked(
        "--tolerance",
        "a ratio",
        |v| parse_tolerance(v).map(drop),
        &["perf-check"],
    ),
    Flag::text("--golden", "a path", &["stats-check"]),
    Flag::switch("--update", &["stats-check"]),
    Flag::int(
        "--batch",
        Int::new("a count", "batch size", usize::BITS).min(1),
        &["batch", "all"],
    ),
    Flag::int(
        "--cases",
        Int::new("a count", "case count", u64::BITS),
        DIFFCHECK,
    ),
    Flag::switch("--shrink", DIFFCHECK),
    Flag::text("--repro-dir", "a path", DIFFCHECK),
    Flag::int(
        "--seed",
        Int::new("a value", "seed", u64::BITS),
        &["diffcheck", "chaos", "serve"],
    ),
    Flag::int(
        "--campaign",
        Int::new("a count", "campaign size", u64::BITS).min(1),
        &["chaos"],
    ),
    Flag::int(
        "--clients",
        Int::new("a count", "client count", usize::BITS)
            .min(1)
            .max(MAX_SERVE_COUNT),
        SERVE,
    ),
    Flag::int(
        "--requests",
        Int::new("a count", "request count", usize::BITS),
        SERVE,
    ),
    Flag::int(
        "--lambda",
        Int::new("a rate", "arrival rate", u64::BITS)
            .min(1)
            .unit("request per megatick"),
        SERVE,
    ),
    Flag::text("--mix", "a spec like `AlexNet=3,GoogLeNet=1`", SERVE),
    Flag::int(
        "--max-batch",
        Int::new("a count", "batch bound", usize::BITS)
            .min(1)
            .max(MAX_SERVE_COUNT),
        SERVE,
    ),
    Flag::int(
        "--max-wait",
        Int::new("a tick count", "wait bound", u64::BITS),
        SERVE,
    ),
    Flag::int(
        "--queue-cap",
        Int::new("a count", "queue capacity", usize::BITS).min(1),
        SERVE,
    ),
    Flag::int(
        "--fleet-cores",
        Int::new("a count", "core count", usize::BITS).min(1),
        SERVE,
    ),
    Flag::int(
        "--deadline",
        Int::new("a tick count", "deadline", u64::BITS)
            .min(1)
            .unit("microtick"),
        SERVE,
    ),
    Flag::checked(
        "--slo-class",
        "a spec like `interactive,batch,best-effort`",
        |v| serve_cli::parse_classes(v).map(drop),
        SERVE,
    ),
    Flag::int(
        "--brownout",
        Int::new("a permille value", "brownout permille", u16::BITS)
            .within(1, 1000)
            .unit("permille"),
        SERVE,
    ),
    Flag::int(
        "--retry-budget",
        Int::new("a count", "retry budget", u32::BITS)
            .max(16)
            .unit("retries per request"),
        SERVE,
    ),
    Flag::switch("--chaos", SERVE),
];

/// A given flag's checked value.
enum Value {
    On,
    Text(String),
    Int(u64),
}

/// Parsed command line: the subcommand and the checked value of every
/// flag given (the last one wins when a flag repeats).
struct Cli {
    which: String,
    /// Second positional of the two-word subcommands (`cache <sub>`,
    /// `artifact <sub>`).
    sub: Option<String>,
    values: BTreeMap<&'static str, Value>,
}

impl Cli {
    /// Whether `flag` was given.
    fn on(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }

    /// A text flag's value.
    fn text(&self, flag: &str) -> Option<&str> {
        match self.values.get(flag) {
            Some(Value::Text(v)) => Some(v),
            _ => None,
        }
    }

    /// An integer flag's value; its row's type width makes the conversion
    /// lossless.
    fn int<T: TryFrom<u64>>(&self, flag: &str) -> Option<T> {
        match self.values.get(flag) {
            Some(Value::Int(n)) => T::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The `serve` parameters: the given flags over the defaults (`--seed`
    /// is shared with diffcheck/chaos; serve defaults to the suite seed).
    fn serve_args(&self) -> Result<ServeArgs, String> {
        let d = ServeArgs::default();
        Ok(ServeArgs {
            seed: self.int("--seed").unwrap_or(d.seed),
            clients: self.int("--clients").unwrap_or(d.clients),
            requests: self.int("--requests").unwrap_or(d.requests),
            lambda: self.int("--lambda").unwrap_or(d.lambda),
            mix: self.text("--mix").map(str::to_string),
            max_batch: self.int("--max-batch").unwrap_or(d.max_batch),
            max_wait: self.int("--max-wait").unwrap_or(d.max_wait),
            queue_cap: self.int("--queue-cap").unwrap_or(d.queue_cap),
            fleet_cores: self.int("--fleet-cores").unwrap_or(d.fleet_cores),
            deadline: self.int("--deadline"),
            slo_classes: self
                .text("--slo-class")
                .map(serve_cli::parse_classes)
                .transpose()?,
            brownout: self.int("--brownout").unwrap_or(d.brownout),
            retry_budget: self.int("--retry-budget").unwrap_or(d.retry_budget),
            chaos: self.on("--chaos"),
            model_cache: self.text("--model-cache").map(Into::into),
            quick: self.on("--quick"),
        })
    }
}

/// Parses a `--tolerance` ratio. NaN must fail too, so it compares in the
/// rejecting direction.
fn parse_tolerance(v: &str) -> Result<f64, String> {
    let x: f64 = v.parse().map_err(|_| format!("invalid tolerance `{v}`"))?;
    if x < 1.0 || x.is_nan() {
        return Err("--tolerance must be at least 1.0".to_string());
    }
    Ok(x)
}

/// `` `a`, `b` or `c` ``.
fn one_of(names: &[&str]) -> String {
    let quoted: Vec<String> = names.iter().map(|n| format!("`{n}`")).collect();
    match quoted.split_last() {
        Some((last, rest)) if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
        _ => quoted.concat(),
    }
}

/// Parses arguments against [`FLAGS`]. A flag's value is the argument
/// after it and never starts with `--`, so neither an experiment name nor
/// another flag is mistaken for one.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut values = BTreeMap::new();
    let mut positionals: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            positionals.push(arg.clone());
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown option `{arg}`"))?;
        let mut value_of = |what: &str| {
            it.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{arg} requires {what}"))
        };
        let value = match &flag.kind {
            Kind::Switch => Value::On,
            Kind::Text { what, check } => {
                let v = value_of(what)?;
                check(v)?;
                Value::Text(v.clone())
            }
            Kind::Int(int) => Value::Int(int.parse(arg, value_of(int.what)?)?),
        };
        values.insert(flag.name, value);
    }
    // `repro --batch 8` alone means "run the batch experiment".
    let (which, sub) = match positionals.len() {
        0 if values.contains_key("--batch") => ("batch".to_string(), None),
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
    for (cmd, flag, arg) in [
        ("cache", "--model-cache", "<dir>"),
        ("artifact", "--model-cache", "<dir>"),
        ("perf-check", "--baseline", "<path>"),
        ("stats-check", "--golden", "<path>"),
    ] {
        if which == cmd && !values.contains_key(flag) {
            return Err(format!("{which} requires {flag} {arg}"));
        }
    }
    for flag in &FLAGS {
        if values.contains_key(flag.name)
            && !flag.only.is_empty()
            && !flag.only.contains(&which.as_str())
        {
            return Err(format!(
                "{} only applies to {}",
                flag.name,
                one_of(flag.only)
            ));
        }
    }
    let cli = Cli { which, sub, values };
    // Cross-flag conflicts (e.g. --brownout without a best-effort tenant)
    // fail at parse time with the flag named, not mid-run.
    if cli.which == "serve" {
        serve_cli::validate(&cli.serve_args()?)?;
    }
    Ok(cli)
}

/// The step under the `--timeout-secs` watchdog and when it started.
static WATCHED: Mutex<Option<(String, Instant)>> = Mutex::new(None);

/// Names the step under watch (`None` between steps, where nothing can
/// hang); its clock starts now.
fn watch(step: Option<&str>) {
    *WATCHED.lock().unwrap_or_else(|e| e.into_inner()) =
        step.map(|name| (name.to_string(), Instant::now()));
}

/// Arms the opt-in hang detector (`--timeout-secs`): a polling thread that
/// aborts the whole process when the watched step has been running longer
/// than `timeout`, printing a diagnostic that names it. Abort (rather than
/// unwinding) is deliberate — the hung step is by definition not going to
/// return and cannot be cancelled cooperatively.
fn arm_watchdog(timeout: Duration) {
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(50));
        let hung = WATCHED
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .and_then(|(name, since)| {
                (since.elapsed() > timeout).then(|| (name.clone(), since.elapsed()))
            });
        if let Some((name, elapsed)) = hung {
            eprintln!(
                "[watchdog] step `{name}` exceeded --timeout-secs {} (running {:.1}s); aborting",
                timeout.as_secs(),
                elapsed.as_secs_f64()
            );
            std::process::exit(124);
        }
    });
}

/// Runs one step under the watchdog as `watched` and, if it succeeds,
/// reports its wall time as `[repro] <label>: N.NNs` — on stderr only, so
/// stdout stays byte-identical across thread counts and machines.
fn step<T>(
    label: &str,
    watched: &str,
    run: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let start = Instant::now();
    watch(Some(watched));
    let out = run()?;
    watch(None);
    eprintln!("[repro] {label}: {:.2}s", start.elapsed().as_secs_f64());
    Ok(out)
}

/// Writes `text` to `path` and reports it on stderr.
fn write_text(path: &str, what: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("failed to write {path}: {e}"))?;
    eprintln!("wrote {what} to {path}");
    Ok(())
}

/// Writes `value` as pretty JSON to `path`, if one is given.
fn write_json<T: serde::Serialize>(
    path: Option<&str>,
    what: &str,
    value: &T,
) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    let text = serde_json::to_string_pretty(value)
        .map_err(|e| format!("serializing {what} for {path}: {e}"))?;
    write_text(path, what, &text)
}

/// Writes the counter snapshot to the `--metrics` path, if one is given.
fn write_metrics(cli: &Cli) -> Result<(), String> {
    match cli.text("--metrics") {
        Some(path) => write_text(
            path,
            "metrics",
            &stats_gate::metrics_json(&obs::snapshot())?,
        ),
        None => Ok(()),
    }
}

/// Serializes experiment rows, naming the experiment on failure instead of
/// panicking (part of the no-unwrap policy of the CLI surface).
fn rows_json<T: serde::Serialize>(name: &str, rows: &T) -> Result<serde_json::Value, String> {
    serde_json::to_value(rows).map_err(|e| format!("serializing `{name}` rows: {e}"))
}

/// Runs one experiment by canonical name, emitting its rendered text and
/// JSON rows.
fn run_one(
    which: &str,
    quick: bool,
    batch: usize,
    model_cache: Option<&Path>,
    cache: &mut StatsCache,
    emit: &mut dyn FnMut(&str, String, serde_json::Value),
) -> Result<(), String> {
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
        _ => return Err(format!("unknown experiment `{which}`\n{USAGE}")),
    }
    Ok(())
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
    if let Some(n) = cli.int::<usize>("--threads") {
        if let Err(e) = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
        {
            eprintln!("cannot configure {n} worker thread(s): {e}");
            return ExitCode::FAILURE;
        }
    }
    obs::set_tracing(cli.on("--trace"));
    // Counters stay a single disabled-branch check unless this run actually
    // consumes them.
    if cli.on("--metrics") || cli.which == "stats-check" || cli.which == "diffcheck" {
        obs::enable(true);
    }
    if let Some(secs) = cli.int("--timeout-secs") {
        arm_watchdog(Duration::from_secs(secs));
    }
    let outcome = match cli.which.as_str() {
        "stats-check" => stats_check(&cli),
        "diffcheck" => diffcheck_cmd(&cli),
        "chaos" => chaos_cmd(&cli),
        "bench" => bench_cmd(&cli),
        "cache" => cache_cmd(&cli),
        "artifact" => artifact_cmd(&cli),
        "perf-check" => perf_check_cmd(&cli),
        "serve" => serve_cmd(&cli),
        _ => experiments_cmd(&cli),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one experiment, or every one for `all`: prints each table, then
/// writes the `--json` rows and the `--metrics` snapshot.
fn experiments_cmd(cli: &Cli) -> Result<bool, String> {
    let quick = cli.on("--quick");
    let batch = cli.int("--batch").unwrap_or(1);
    let model_cache = cli.text("--model-cache").map(Path::new);
    let mut cache = StatsCache::new();
    let mut json = serde_json::Map::new();
    let mut emit = |name: &str, text: String, value: serde_json::Value| {
        println!("{text}");
        json.insert(name.to_string(), value);
    };
    let mut run = |which: &str| {
        step(which, which, || {
            run_one(which, quick, batch, model_cache, &mut cache, &mut emit)
        })
    };
    if cli.which == "all" {
        let start = Instant::now();
        for which in ALL {
            run(which)?;
        }
        eprintln!("[repro] total: {:.2}s", start.elapsed().as_secs_f64());
    } else {
        run(&cli.which)?;
    }
    write_json(cli.text("--json"), "JSON results", &json)?;
    write_metrics(cli)?;
    Ok(true)
}

/// The `diffcheck` subcommand: drive the differential oracle over a seeded
/// case budget, dumping each divergence as a JSON repro and failing the
/// run if any case diverges.
fn diffcheck_cmd(cli: &Cli) -> Result<bool, String> {
    let cases = cli.int("--cases").unwrap_or(500);
    let seed = cli.int("--seed").unwrap_or(1);
    // An explicitly-requested repro dir is probed for writability *before*
    // the case budget runs: a multi-minute sweep that cannot persist its
    // repros is wasted work.
    if let Some(dir) = cli.text("--repro-dir") {
        probe_writable_dir(dir).map_err(|e| format!("repro dir {dir} is not writable: {e}"))?;
    }
    let repro_dir = cli.text("--repro-dir").unwrap_or("diffcheck_repros");
    let divergences = step("diffcheck", "diffcheck", || {
        let start = Instant::now();
        let mut divergences = Vec::new();
        for index in 0..cases {
            watch(Some(&format!("diffcheck case {index}")));
            if index > 0 && index % 100 == 0 {
                eprintln!(
                    "[diffcheck] {index}/{cases} cases, {} divergence(s), {:.2}s",
                    divergences.len(),
                    start.elapsed().as_secs_f64()
                );
            }
            if let Some(d) = bench::diffcheck::check_one(seed, index, cli.on("--shrink")) {
                eprintln!("[diffcheck] case {index} DIVERGED: {}", d.failure);
                divergences.push(d);
            }
        }
        Ok(divergences)
    })?;
    if divergences.is_empty() {
        println!("diffcheck: {cases} cases, 0 divergences (seed {seed})");
        return Ok(true);
    }
    std::fs::create_dir_all(repro_dir)
        .map_err(|e| format!("cannot create repro dir {repro_dir}: {e}"))?;
    for d in &divergences {
        let path = format!("{repro_dir}/case_{seed}_{}.json", d.index);
        if let Err(e) = write_json(Some(&path), "repro", d) {
            eprintln!("{e}");
        }
    }
    println!(
        "diffcheck: {cases} cases, {} divergence(s) (seed {seed})",
        divergences.len()
    );
    Ok(false)
}

/// The `bench` subcommand: run the self-timed micro and batch suites of
/// `bench::microbench` and optionally record the `ristretto-bench/v3` JSON
/// report (the checked-in benchmark trajectory, see `BENCH_8.json`).
/// Deliberately *not* part of `repro all`: wall times are machine-bound, so
/// they would break the byte-identical-across-thread-counts contract of the
/// experiment suite.
fn bench_cmd(cli: &Cli) -> Result<bool, String> {
    let report = step("bench", "bench suite", || {
        Ok(bench::microbench::run(cli.on("--quick")))
    })?;
    print!("{}", bench::microbench::render(&report));
    write_json(cli.text("--json"), "bench report", &report)?;
    Ok(true)
}

/// The `cache` subcommand: inspect (`stats`), empty (`clear`) or
/// integrity-check (`verify`) an on-disk model-cache directory. `verify`
/// strict-loads every artifact — checksums, format version and the
/// content address are all re-checked — and exits non-zero when any file
/// fails, naming the file and the rejected section.
fn cache_cmd(cli: &Cli) -> Result<bool, String> {
    let dir = cli.text("--model-cache").unwrap_or_default();
    let cache = ristretto_sim::modelcache::ModelCache::new(dir);
    match cli.sub.as_deref() {
        Some("stats") => {
            let s = cache
                .stats()
                .map_err(|e| format!("cache stats failed: {e}"))?;
            println!(
                "cache {dir}: {} artifact(s), {} byte(s)",
                s.entries, s.bytes
            );
        }
        Some("clear") => {
            let n = cache
                .clear()
                .map_err(|e| format!("cache clear failed: {e}"))?;
            println!("cache {dir}: removed {n} artifact(s)");
        }
        Some("verify") => {
            let results = cache
                .verify()
                .map_err(|e| format!("cache verify failed: {e}"))?;
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
            return Ok(bad == 0);
        }
        // Unreachable by construction (parse_args validates the sub).
        _ => return Err(USAGE.to_string()),
    }
    Ok(true)
}

/// The `artifact` subcommand. `save` compiles the benchmark networks and
/// persists their artifacts; `check` — run afterwards, typically in a
/// separate process so nothing survives from the compiling one — proves
/// for every network that the strict-loaded artifact equals a fresh
/// in-memory compile, re-encodes byte-identically, and that a session
/// over the decoded network is byte-identical to the in-memory session
/// at 1 and 4 worker threads.
fn artifact_cmd(cli: &Cli) -> Result<bool, String> {
    use ristretto_sim::artifact;
    use ristretto_sim::config::RistrettoConfig;
    use ristretto_sim::engine::{compile, Session};
    use ristretto_sim::modelcache::{CacheKey, ModelCache};

    let dir = cli.text("--model-cache").unwrap_or_default();
    let cache = ModelCache::new(dir);
    let cfg = RistrettoConfig::paper_default();
    let verb = cli.sub.as_deref().unwrap_or_default();
    step("artifact", "artifact", || {
        for (idx, (name, model)) in engine_batch::benchmark_models(cli.on("--quick"))
            .into_iter()
            .enumerate()
        {
            watch(Some(&format!("artifact {verb} {name}")));
            let key = CacheKey::derive(&model, &cfg);
            let net = compile(&model, &cfg).map_err(|e| format!("{name}: compile failed: {e}"))?;
            if verb == "save" {
                let bytes = cache
                    .store(&net, key)
                    .map_err(|e| format!("{name}: store failed: {e}"))?;
                println!("saved {name}: {} ({bytes} bytes)", key.file_name());
                continue;
            }
            let decoded = cache
                .load(&Path::new(dir).join(key.file_name()))
                .map_err(|e| format!("{name}: load failed: {e}"))?;
            if decoded != *net {
                return Err(format!(
                    "{name}: decoded artifact differs from in-memory compile"
                ));
            }
            if artifact::encode(&decoded) != artifact::encode(&net) {
                return Err(format!("{name}: re-encoded artifact is not byte-identical"));
            }
            let (c, h, w) = net.input();
            let input = engine_batch::benchmark_input(idx, 0, c, h, w);
            let session_mem = Session::new(net);
            let session_disk = Session::new(std::sync::Arc::new(decoded));
            for threads in [1usize, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .map_err(|e| format!("{name}: pool({threads}): {e}"))?;
                let session_err = |e| format!("{name}: session at {threads} thread(s): {e}");
                let mem = pool
                    .install(|| session_mem.run(&input))
                    .map_err(session_err)?;
                let disk = pool
                    .install(|| session_disk.run(&input))
                    .map_err(session_err)?;
                if mem.output != disk.output
                    || mem.traces.iter().map(|t| t.stats).collect::<Vec<_>>()
                        != disk.traces.iter().map(|t| t.stats).collect::<Vec<_>>()
                {
                    return Err(format!(
                        "{name}: cache-hit session diverges from in-memory session \
                         at {threads} thread(s)"
                    ));
                }
            }
            println!(
                "checked {name}: {} byte-identical at 1 and 4 threads",
                key.file_name()
            );
        }
        Ok(true)
    })
}

/// The `perf-check` subcommand: measure the self-timed bench suite and
/// gate its key series against a checked-in baseline report.
fn perf_check_cmd(cli: &Cli) -> Result<bool, String> {
    use bench::perf_gate;
    let baseline_path = cli.text("--baseline").unwrap_or_default();
    let tolerance = cli
        .text("--tolerance")
        .map_or(Ok(perf_gate::DEFAULT_TOLERANCE), parse_tolerance)?;
    // Parse the baseline before measuring: a malformed file should fail in
    // milliseconds, not after the bench suite.
    let baseline: bench::microbench::BenchReport = std::fs::read_to_string(baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let live = step("perf-check", "perf-check bench suite", || {
        Ok(bench::microbench::run(cli.on("--quick")))
    })?;
    write_json(cli.text("--json"), "live bench report", &live)?;
    let checks = perf_gate::compare(&live, &baseline, tolerance)
        .map_err(|e| format!("perf-check cannot compare against {baseline_path}: {e}"))?;
    print!("{}", perf_gate::render(&checks, tolerance));
    if checks.iter().all(|c| c.pass) {
        Ok(true)
    } else {
        Err(format!("perf-check FAILED against {baseline_path}"))
    }
}

/// The `serve` subcommand: drive the multi-tenant serving layer with the
/// seeded closed-loop load generator (`bench::serve_cli`). Stdout, the
/// `--json` report and the `--metrics` snapshot are all integer-derived
/// and byte-identical at any `--threads` count; wall time goes to stderr.
/// Exits non-zero if the post-drain conservation invariant
/// `submitted == served + rejected + shed` is violated, or if a chaos
/// run's survivor digests diverge from its quiescent twin.
fn serve_cmd(cli: &Cli) -> Result<bool, String> {
    let args = cli.serve_args()?;
    let report = step("serve", "serve", || serve_cli::run(&args))?;
    print!("{}", serve_cli::render(&report));
    write_json(cli.text("--json"), "serve report", &report)?;
    write_metrics(cli)?;
    if !report.conserves_requests() {
        return Err(format!(
            "serve: conservation violated: submitted {} != served {} + rejected {} + shed {}",
            report.submitted, report.served, report.rejected, report.shed
        ));
    }
    if let Some(twin) = &report.chaos_twin {
        if twin.survivor_digest != twin.twin_survivor_digest {
            return Err(format!(
                "serve: chaos twin diverged over {} survivors: {:016x} != {:016x}",
                twin.survivors, twin.survivor_digest, twin.twin_survivor_digest
            ));
        }
    }
    Ok(true)
}

/// Proves `dir` accepts writes by round-tripping a probe file (named
/// per-process so concurrent sweeps don't collide). Leaves no trace: if the
/// directory had to be created for the probe, it is removed again so a
/// divergence-free sweep still ends with no repro directory on disk.
fn probe_writable_dir(dir: &str) -> Result<(), String> {
    let existed = Path::new(dir).is_dir();
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
fn chaos_cmd(cli: &Cli) -> Result<bool, String> {
    let seed = cli.int("--seed").unwrap_or(1);
    let campaign = cli.int("--campaign").unwrap_or(25);
    let report = step("chaos", "chaos campaign", || {
        bench::chaos::run_campaign(seed, campaign)
            .map_err(|e| format!("chaos campaign failed: {e}"))
    })?;
    print!("{}", report.render());
    write_json(cli.text("--json"), "chaos report", &report)?;
    Ok(report.pass())
}

/// The `stats-check` subcommand: run the quick suite with counters on and
/// diff the snapshot against the golden file (or rewrite it with
/// `--update`). Tables are suppressed — only counters matter here.
fn stats_check(cli: &Cli) -> Result<bool, String> {
    let golden_path = cli.text("--golden").unwrap_or_default();
    let read_golden = || {
        let text = std::fs::read_to_string(golden_path)
            .map_err(|e| format!("cannot read golden file {golden_path}: {e}"))?;
        stats_gate::parse_golden(&text)
            .map_err(|e| format!("malformed golden file {golden_path}: {e}"))
    };
    // Parse the golden up front (unless rewriting it): a truncated or
    // invalid file should fail in milliseconds, not after the full suite.
    let golden = if cli.on("--update") {
        None
    } else {
        Some(read_golden()?)
    };

    let mut cache = StatsCache::new();
    let start = Instant::now();
    for which in ALL {
        // Batch stays 1 and the model cache stays off so the counter
        // snapshot matches the golden file.
        step(which, which, || {
            run_one(which, true, 1, None, &mut cache, &mut |_, _, _| {})
        })?;
    }
    eprintln!("[repro] total: {:.2}s", start.elapsed().as_secs_f64());
    let snap = obs::snapshot();
    write_metrics(cli)?;

    let Some(golden) = golden else {
        // Keep any hand-tuned tolerances from the existing golden.
        let text = stats_gate::golden_json(&snap, read_golden().ok().as_ref())?;
        std::fs::write(golden_path, text)
            .map_err(|e| format!("failed to write {golden_path}: {e}"))?;
        println!("updated golden stats at {golden_path}");
        return Ok(true);
    };
    let drifts = stats_gate::compare(&snap, &golden);
    if drifts.is_empty() {
        println!(
            "stats-check OK: {} counters within tolerance of {golden_path}",
            golden.counters.len()
        );
        return Ok(true);
    }
    eprintln!(
        "stats-check FAILED: {} counter(s) drifted from {golden_path}",
        drifts.len()
    );
    for d in &drifts {
        eprintln!("  {d}");
    }
    eprintln!("(run `repro stats-check --golden {golden_path} --update` to accept)");
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The error `parse_args` gives for `args`.
    fn error(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        match parse_args(&args) {
            Ok(_) => panic!("{args:?} parsed"),
            Err(e) => e,
        }
    }

    #[test]
    fn flags_and_usage_name_the_same_flags() {
        let table: BTreeSet<&str> = FLAGS.iter().map(|f| f.name).collect();
        let usage: BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|word| word.starts_with("--"))
            .collect();
        assert_eq!(table.len(), FLAGS.len(), "a flag has two rows");
        assert_eq!(table, usage);
    }

    #[test]
    fn every_value_flag_given_last_requires_its_value() {
        let value_flags = FLAGS.iter().filter(|f| !matches!(f.kind, Kind::Switch));
        assert_eq!(value_flags.clone().count(), 25);
        for flag in value_flags {
            let which = flag.only.first().copied().unwrap_or("table6");
            let e = error(&[which, flag.name]);
            assert!(e.starts_with(&format!("{} requires ", flag.name)), "{e}");
        }
    }

    #[test]
    fn every_listed_flag_only_applies_to_its_subcommands() {
        let commands = [
            "fig1",
            "fig13",
            "table6",
            "batch",
            "all",
            "stats-check",
            "diffcheck",
            "chaos",
            "bench",
            "cache",
            "artifact",
            "perf-check",
            "serve",
        ];
        for flag in FLAGS.iter().filter(|f| !f.only.is_empty()) {
            let value = match &flag.kind {
                Kind::Switch => None,
                Kind::Text { check, .. } => ["2", "batch"].into_iter().find(|v| check(v).is_ok()),
                Kind::Int(int) => Some(if int.min > 0 { "1" } else { "0" }),
            };
            for which in commands.iter().filter(|c| !flag.only.contains(c)) {
                let mut args = vec![*which, flag.name];
                args.extend(value);
                // What the subcommand itself requires, so that only the
                // flag under test is out of place.
                args.extend(match *which {
                    "cache" => &["stats", "--model-cache", "d"][..],
                    "artifact" => &["save", "--model-cache", "d"][..],
                    "stats-check" => &["--golden", "g"][..],
                    "perf-check" => &["--baseline", "b"][..],
                    _ => &[][..],
                });
                let e = error(&args);
                let want = format!("{} only applies to {}", flag.name, one_of(flag.only));
                assert_eq!(e, want, "{args:?}");
            }
        }
    }

    #[test]
    fn a_value_flag_never_takes_a_following_flag_as_its_value() {
        for (args, want) in [
            (["table6", "--json", "--quick"], "--json requires a path"),
            (
                ["table6", "--threads", "--quick"],
                "--threads requires a count",
            ),
            (
                ["batch", "--model-cache", "--quick"],
                "--model-cache requires a directory",
            ),
            (
                ["diffcheck", "--repro-dir", "--shrink"],
                "--repro-dir requires a path",
            ),
        ] {
            assert_eq!(error(&args), want, "{args:?}");
        }
    }

    #[test]
    fn an_integer_past_its_type_is_invalid_not_out_of_range() {
        assert_eq!(
            error(&["serve", "--brownout", "70000"]),
            "invalid brownout permille `70000`"
        );
        assert_eq!(
            error(&["serve", "--brownout", "2000"]),
            "--brownout must be within 1..=1000 permille (got 2000)"
        );
        assert_eq!(
            error(&["serve", "--retry-budget", "4294967296"]),
            "invalid retry budget `4294967296`"
        );
    }
}
