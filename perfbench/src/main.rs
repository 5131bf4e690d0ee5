//! End-to-end and per-layer benchmark of the Ristretto reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <infer|serve|sweep|figures|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every workload runs in this one process and reaches the program only
//! through its public API. The engine runs one worker thread per
//! available CPU; load generation here is single-threaded. `--trace 0`
//! measures for `--seconds` and reports the end-to-end metrics; `--trace 1`
//! instead runs the traced pass of every workload (spans recorded here,
//! around the public calls) and reports the per-layer metrics. Outputs are
//! checked on every run, outside the timed regions; the last stdout line
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! End-to-end times are scaled to a reference host speed measured in the
//! same run (see [`Calibration`]); `README.md` describes every metric.

mod figures;
mod infer;
mod inputs;
mod report;
mod serve;
mod sweep;
mod trace;

use report::{Metric, Outcome};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["infer", "serve", "sweep", "figures"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub run: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        run: Duration::from_secs(10),
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| bad("a whole number of seconds"))?;
                if s == 0 {
                    return Err(bad("at least 1"));
                }
                args.run = Duration::from_secs(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: expected one of {} or all",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Aggregate CPU tick counters from `/proc/stat`: `(total, steal)`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// The checked-out commit, read from `.git` when the working directory is
/// a repository (`unknown` otherwise).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs the requested workload(s). A traced run covers every workload,
/// so every per-layer metric is measured on every traced run, whichever
/// workload is named; `all` runs the four timed workloads in turn and
/// namespaces their metrics.
fn run(args: &Args) -> Result<Outcome, String> {
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        _ if args.trace => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let mut out = Outcome::default();
    for name in names {
        let part = match (name, args.trace) {
            ("infer", false) => infer::timed(args),
            ("infer", true) => infer::traced(args),
            ("serve", false) => serve::timed(args),
            ("serve", true) => serve::traced(args),
            ("sweep", false) => sweep::timed(args),
            ("sweep", true) => sweep::traced(args),
            (_, false) => figures::timed(args),
            (_, true) => figures::traced(args),
        }
        .map_err(|e| format!("{name}: {e}"))?;
        let prefix = (args.workload == "all" && !args.trace).then_some(name);
        out.merge(part, prefix);
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <infer|serve|sweep|figures|all> --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build_global()
        .expect("the rayon shim never fails to build");

    let started = Instant::now();
    let ticks0 = cpu_ticks();
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let steal = match (ticks0, cpu_ticks()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => {
            format!("{:.4}", s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unavailable".to_string(),
    };
    println!(
        "meta workload={} seed={} trace={} nproc={workers} workers={workers} commit={} steal_share={steal} wall_s={:.3}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        commit(),
        started.elapsed().as_secs_f64()
    );
    for line in &out.notes {
        println!("{line}");
    }
    if out.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed their output check",
            out.failed, out.attempted
        );
    }
    match out.json() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if out.failed > 0 || out.attempted == 0 {
        std::process::exit(1);
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of a sample (0 for an empty one).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The per-run setup sample count: set-up is repeated and its median
/// reported, so one slow set-up does not move the metric.
pub const SETUPS: usize = 9;

/// Chunks a run's operation times are cut into for [`rate_per_s`].
const RATE_CHUNKS: usize = 15;

/// Operations per host second, robust to bursts of interference from
/// other tenants of the host: the operation times are cut into
/// [`RATE_CHUNKS`] consecutive chunks and the median chunk rate reported
/// (one chunk when there are fewer operations than chunks).
pub fn rate_per_s(times_ms: &[f64]) -> f64 {
    let size = if times_ms.len() < RATE_CHUNKS {
        times_ms.len().max(1)
    } else {
        times_ms.len().div_ceil(RATE_CHUNKS)
    };
    let rates: Vec<f64> = times_ms
        .chunks(size)
        .map(|c| c.len() as f64 / (c.iter().sum::<f64>() / 1e3))
        .collect();
    quantile(&rates, 0.5)
}

/// `Metric` shorthand used by every workload.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// Calibration time of the reference host (a 2-vCPU Xeon VM, on which the
/// bounds were set), in ms: scaled times read as milliseconds on that host.
const CALIBRATION_REF_MS: f64 = 0.6;

/// Host-speed calibration. The host these runs share drifts in speed by
/// tens of percent within minutes, with little of it visible as steal
/// time, so every run also times a fixed integer kernel owned by the
/// benchmark (not the program), about every 100 ms between operations,
/// on as many threads as the engine uses. Time metrics in the JSON line
/// are scaled by [`CALIBRATION_REF_MS`] ÷ the run's median kernel time;
/// the raw times are printed beside them.
pub struct Calibration {
    samples: Vec<f64>,
    last: Instant,
}

impl Calibration {
    /// Starts a run's calibration with one sample.
    pub fn start() -> Self {
        let mut c = Self {
            samples: Vec::new(),
            last: Instant::now(),
        };
        c.sample();
        c
    }

    /// Times the kernel once: [`CALIBRATION_CHUNKS`] chunks pulled from a
    /// shared counter by one thread per CPU, so a slow CPU hands work to a
    /// fast one as it does in the engine's work queue.
    pub fn sample(&mut self) {
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let sums: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut acc = 0u64;
                        loop {
                            let chunk = next.fetch_add(1, Ordering::Relaxed);
                            if chunk >= CALIBRATION_CHUNKS {
                                return acc;
                            }
                            acc ^= kernel(chunk as u64);
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("the calibration kernel does not panic"))
                .collect()
        });
        std::hint::black_box(sums);
        self.samples.push(ms(start.elapsed()));
        self.last = Instant::now();
    }

    /// Samples when 100 ms have passed since the last sample.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= Duration::from_millis(100) {
            self.sample();
        }
    }

    /// The factor that scales this run's times to the reference host.
    pub fn factor(&self) -> f64 {
        CALIBRATION_REF_MS / quantile(&self.samples, 0.5)
    }

    /// Prints the calibration as a note.
    pub fn note(&self, out: &mut Outcome) {
        out.note(metric(
            "calibration_ms",
            quantile(&self.samples, 0.5),
            "ms",
            self.samples.len(),
        ));
    }
}

/// Chunks of one calibration sample.
const CALIBRATION_CHUNKS: usize = 32;

/// One calibration chunk: xor-rotate-multiply passes over 8 KiB.
fn kernel(seed: u64) -> u64 {
    let mut buf = [0u64; 1024];
    for (i, v) in buf.iter_mut().enumerate() {
        *v = inputs::splitmix64(i as u64 ^ seed);
    }
    let mut acc = 0u64;
    for pass in 0..16 {
        for i in 0..buf.len() {
            let j = (i * 7 + pass) & (buf.len() - 1);
            buf[i] = buf[i].rotate_left(5) ^ buf[j].wrapping_mul(0x9E37_79B9_7F4A_7C15);
            acc = acc.wrapping_add(buf[i] >> 3);
        }
    }
    acc
}
