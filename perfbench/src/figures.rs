//! `figures`: the Fig 12 and Fig 19 computation, the paper-reproduction
//! path.
//!
//! Each pass builds a fresh `StatsCache` and runs `fig12::run` and
//! `fig19::run_perf` over all 36 keys (quick network × precision policy ×
//! atom width 1/2/3). It never enters the engine, serving, the fleet or
//! the cycle-level core: it is the control workload, on which an engine
//! change must show no change. The figures are defined at the
//! repository's fixed seed (`bench::SEED`), so the workload seed does not
//! reach them and every run checks against the same pinned digest.

use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{inputs, metric, ms, quantile, rate_per_s, Args};
use baselines::bitfusion::BitFusion;
use baselines::report::Backend;
use bench::cache::StatsCache;
use bench::experiments::{fig12, fig19};
use bench::{benchmark_networks, benchmark_policies, SEED};
use qnn::models::NetworkId;
use qnn::quant::BitWidth;
use qnn::workload::{NetworkStats, PrecisionPolicy};
use ristretto_sim::analytic::RistrettoSim;
use ristretto_sim::config::RistrettoConfig;
use std::time::Instant;

/// Digest of the modelled Ristretto cycle count of every key, pinned for
/// `bench::SEED`: a pass whose figures rest on different cycle counts
/// fails its output check.
const CYCLES_DIGEST: u64 = 0xe187_3fa2_9f32_0132;

/// Warm-up generations per run, fewer than other workloads' set-ups
/// because each costs a sizeable fraction of a second.
const WARMUPS: usize = 3;

type Key = (NetworkId, PrecisionPolicy, u8);

/// The 36 keys the two figures read, in a fixed order.
fn keys() -> Vec<Key> {
    benchmark_networks(true)
        .iter()
        .flat_map(|&net| {
            benchmark_policies()
                .into_iter()
                .flat_map(move |p| [1u8, 2, 3].map(|bits| (net, p, bits)))
        })
        .collect()
}

/// The Ristretto model at a key's atom width.
fn ristretto(bits: u8) -> Result<RistrettoSim, String> {
    let cfg = RistrettoConfig::try_granularity(bits).map_err(|e| e.to_string())?;
    RistrettoSim::try_new(cfg).map_err(|e| e.to_string())
}

/// One figure pass: the rows both figures render.
struct Pass {
    fig12: Vec<fig12::Row>,
    fig19: Vec<fig19::PerfRow>,
    cache: StatsCache,
}

fn pass() -> Pass {
    let mut cache = StatsCache::new();
    let fig12 = fig12::run(true, &mut cache);
    let fig19 = fig19::run_perf(true, &mut cache);
    Pass {
        fig12,
        fig19,
        cache,
    }
}

/// splitmix fold of every key's modelled cycle count.
fn cycles_digest(cache: &StatsCache) -> Result<u64, String> {
    let mut h = 0xF16_u64;
    for (net, policy, bits) in keys() {
        let cycles = ristretto(bits)?
            .simulate_network(cache.peek(net, policy, bits))
            .total_cycles();
        h = inputs::splitmix64(h ^ cycles);
    }
    Ok(h)
}

/// Whether `p` matches the first pass's rows and the pinned digest.
fn check(p: &Pass, first: Option<&Pass>) -> Result<bool, String> {
    let digest = cycles_digest(&p.cache)?;
    if digest != CYCLES_DIGEST {
        eprintln!("perfbench: figures cycle digest {digest:#018x}, pinned {CYCLES_DIGEST:#018x}");
        return Ok(false);
    }
    Ok(first.is_none_or(|f| f.fig12 == p.fig12 && f.fig19 == p.fig19))
}

pub fn timed(args: &Args) -> Result<Outcome, String> {
    // The pass keeps no state between runs; set-up is a warm-up generation
    // of the cheapest key, which faults in the code and the allocator's
    // arenas.
    let warm = (
        NetworkId::ResNet18,
        PrecisionPolicy::Uniform(BitWidth::W2),
        3,
    );
    let mut setup_s = Vec::with_capacity(WARMUPS);
    for _ in 0..WARMUPS {
        let t = Instant::now();
        StatsCache::new().prefill(&[warm], SEED);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut out = Outcome::default();
    let mut times = Vec::new();
    let mut first: Option<Pass> = None;
    let start = Instant::now();
    while first.is_none() || start.elapsed() < args.run {
        let t = Instant::now();
        let p = pass();
        times.push(ms(t.elapsed()));
        out.tally(1, u64::from(!check(&p, first.as_ref())?));
        first.get_or_insert(p);
    }
    let rate = (rate_per_s(&times), times.len());
    // Not scaled by the host calibration: sampled around passes (there is
    // no hook inside one), the kernel varied 30% across runs while the pass
    // varied 4-9%, so scaling added more spread than it removed.
    out.end_to_end(
        None,
        &setup_s,
        &times,
        1.0,
        rate,
        ["pass_ms_p50", "pass_ms_max", "passes_per_s"],
    );
    out.note(metric(
        "pass_s",
        quantile(&times, 0.5) / 1e3,
        "s",
        times.len(),
    ));
    out.note(metric(
        "failed_share",
        out.failed as f64 / out.attempted as f64,
        "fraction",
        times.len(),
    ));
    Ok(out)
}

pub fn traced(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t = Instant::now();
    let p = pass();
    let untraced_ms = ms(t.elapsed());
    out.tally(1, u64::from(!check(&p, None)?));

    let mut tr = Tracer::new();
    let root = tr.begin("perfbench/pass", 0, None);
    let mut cache = StatsCache::new();
    let (prefill, _) = tr.time("qnn.workload/prefill", 0, Some(root), || {
        cache.prefill(&keys(), SEED)
    });
    let (_, fig12) = tr.time("bench/fig12", 0, Some(root), || {
        fig12::run(true, &mut cache)
    });
    let (_, fig19) = tr.time("bench/fig19", 0, Some(root), || {
        fig19::run_perf(true, &mut cache)
    });
    tr.end(root);
    let traced = Pass {
        fig12,
        fig19,
        cache,
    };
    out.tally(1, u64::from(!check(&traced, Some(&p))?));
    let stats_share = tr.span_ms(prefill) / tr.span_ms(root);

    // Probes outside the pass tree: per-key statistics generation (one key
    // per network), and each key through the analytic model and Bit Fusion.
    let probe: Vec<Key> = keys()
        .into_iter()
        .filter(|&(_, p, b)| b == 2 && p == benchmark_policies()[0])
        .collect();
    for (i, &(net, policy, bits)) in probe.iter().enumerate() {
        tr.time("qnn.workload/generate", i as u64, None, || {
            NetworkStats::generate(net, policy, bits, SEED)
        });
    }
    let bf = BitFusion::paper_default();
    let (mut ristretto_cycles, mut bf_cycles) = (0u64, 0u64);
    for (i, (net, policy, bits)) in keys().into_iter().enumerate() {
        let stats = traced.cache.peek(net, policy, bits);
        let sim = ristretto(bits)?;
        ristretto_cycles += tr
            .time("analytic/simulate", i as u64, None, || {
                sim.simulate_network(stats)
            })
            .1
            .total_cycles();
        if bits == 2 {
            bf_cycles += tr
                .time("baselines/bitfusion", i as u64, None, || {
                    bf.simulate_network(stats)
                })
                .1
                .total_cycles();
        }
    }
    let mean = |name: &str| {
        let d = tr.durations_ms(name);
        (d.iter().sum::<f64>() / d.len() as f64, d.len())
    };
    let (stats_ms, n) = mean("qnn.workload/generate");
    out.push(metric("qnn.stats_ms", stats_ms, "ms", n));
    out.push(metric("qnn.stats_share", stats_share, "ratio", 1));
    let (sim_ms, n) = mean("analytic/simulate");
    out.push(metric("analytic.simulate_ms", sim_ms, "ms", n));
    let (bf_ms, n) = mean("baselines/bitfusion");
    out.push(metric("baselines.bitfusion_ms", bf_ms, "ms", n));
    out.push(metric(
        "analytic.total_cycles",
        ristretto_cycles as f64,
        "cycles",
        keys().len(),
    ));
    out.push(metric(
        "baselines.bitfusion_cycles",
        bf_cycles as f64,
        "cycles",
        n,
    ));
    tr.summarize("figures", "perfbench/pass", untraced_ms, &mut out);
    tr.write_jsonl(&inputs::build_dir().join(format!("trace-figures-seed{}.jsonl", args.seed)))?;
    Ok(out)
}
