//! `serve`: open-loop multi-tenant serving in virtual time.
//!
//! The tenants are independent users, so arrivals are open-loop: a
//! Poisson trace drawn from the seed at [`RATE_PER_MTICK`], about 80% of
//! the rate at which the six-model registry saturates, with a uniform
//! model mix. Three tenants (interactive at weight 2 with a deadline,
//! batch, best-effort) exercise the early-dispatch trigger, deadline
//! shedding and brownout; mean batches near 5 route most work through the
//! 4-core fleet lane, the batched path. The benchmark drives
//! `Server::submit`, `next_event` and `step` itself and never lets the
//! server clamp a submission: every request is submitted at its due tick,
//! so modelled latency counts the queueing a stall imposes.

use crate::inputs::{self, mix, Net, WorkDir, POOL};
use crate::report::Outcome;
use crate::trace::{call, Tracer};
use crate::{metric, ms, quantile, Args, Calibration, SETUPS};
use ristretto_sim::config::RistrettoConfig;
use ristretto_sim::engine::compile;
use ristretto_sim::modelcache::{CacheKey, ModelCache};
use ristretto_sim::serve::{
    ModelId, ModelRegistry, ServeConfig, ServeError, ServeReport, Server, ServerStats, SloClass,
};
use std::collections::HashMap;
use std::time::Instant;

/// Offered load, requests per million microticks: on these draws, the
/// rate at which early dispatch, deadline shedding and brownout all fire
/// while refusals stay near half a percent (they pass 1% near 3,400).
const RATE_PER_MTICK: f64 = 3_200.0;
/// Requests per episode; every episode of a run replays the same trace.
const REQUESTS: usize = 2_000;
/// Interactive requests expire this many microticks after submission.
const DEADLINE_TICKS: u64 = 15_000;
/// Tenant classes, indexed by tenant id.
const CLASSES: [SloClass; 3] = [SloClass::Interactive, SloClass::Batch, SloClass::BestEffort];
/// The fixed rate ladder behind `serve.max_rate_per_mtick`.
const LADDER: [f64; 8] = [
    2_000.0, 2_400.0, 2_800.0, 3_200.0, 3_600.0, 4_000.0, 4_800.0, 6_400.0,
];
/// Requests per ladder rung.
const LADDER_REQUESTS: usize = 500;
/// A rung meets the limit when its p99 latency stays at or under this and
/// at most [`LADDER_MAX_REFUSED`] of its requests are rejected or shed.
const P99_LIMIT_TICKS: u64 = 40_000;
const LADDER_MAX_REFUSED: f64 = 0.01;

/// The serving policy under test.
fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        max_wait_ticks: 10_000,
        queue_capacity: 64,
        tenant_weights: vec![2, 1, 1],
        tenant_classes: CLASSES.to_vec(),
        brownout_permille: 500,
        fleet_cores: 4,
        fleet_batch_threshold: 4,
        ..ServeConfig::paper_default()
    }
}

/// The output-check replay: unbatched on the 1-core lane, a queue that
/// holds the whole trace, no brownout (and `drive` sets no deadlines).
fn replay_config(requests: usize) -> ServeConfig {
    ServeConfig {
        max_batch: 1,
        queue_capacity: requests,
        brownout_permille: 1000,
        fleet_cores: 1,
        ..serve_config()
    }
}

struct Arrival {
    tick: u64,
    model: usize,
    tenant: usize,
    input: usize,
}

/// A Poisson arrival trace of `count` requests at `rate` per Mtick.
fn arrivals(seed: u64, rate: f64, count: usize) -> Vec<Arrival> {
    let mean_gap = 1e6 / rate;
    let mut tick = 0u64;
    (0..count as u64)
        .map(|i| {
            let draw = |salt: u64| mix(seed ^ 0x5E2E_A221_7A11_0000, i, salt);
            let u = (draw(0) >> 11) as f64 / (1u64 << 53) as f64;
            tick += (-(1.0 - u).ln() * mean_gap).round() as u64;
            Arrival {
                tick,
                model: (draw(1) % inputs::MODELS as u64) as usize,
                tenant: (draw(2) % CLASSES.len() as u64) as usize,
                input: (draw(3) % POOL as u64) as usize,
            }
        })
        .collect()
}

/// Registers every network through the cache and opens the server: the
/// serve set-up.
fn build_server(
    nets: &[Net],
    cache: &ModelCache,
    cfg: &ServeConfig,
) -> Result<(Server, Vec<ModelId>), String> {
    let rcfg = RistrettoConfig::paper_default();
    let mut registry = ModelRegistry::new(Some(cache.clone()));
    let ids = nets
        .iter()
        .map(|n| registry.register(&n.model, &rcfg, cfg))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("register: {e}"))?;
    let server = Server::new(registry, cfg.clone()).map_err(|e| format!("server: {e}"))?;
    Ok((server, ids))
}

/// Requests dispatched into batches so far.
fn dispatched(stats: &ServerStats) -> u64 {
    (1..)
        .zip(&stats.batch_histogram)
        .map(|(k, &batches)| k * batches)
        .sum()
}

/// Host-side measurements of one driven trace.
struct Drive {
    wall_ms: f64,
    /// Host ms per request run: each dispatching step's time split evenly
    /// over the requests it dispatched.
    req_ms: Vec<f64>,
    /// Submissions due before the server's horizon (each would have been
    /// clamped forward); the loop order of `drive` keeps this at zero.
    late: u64,
}

/// Drives `trace` through `server` in virtual time: before each
/// submission, every event due at or before its tick is stepped; after
/// the last, the server drains.
fn drive(
    server: &mut Server,
    ids: &[ModelId],
    nets: &[Net],
    trace: &[Arrival],
    deadlines: bool,
    mut tr: Option<&mut Tracer>,
    cal: &mut Calibration,
) -> Result<Drive, String> {
    let root = tr
        .as_mut()
        .map(|t| t.begin("perfbench/serve_loop", 0, None));
    let start = Instant::now();
    let mut d = Drive {
        wall_ms: 0.0,
        req_ms: Vec::new(),
        late: 0,
    };
    let mut horizon = 0;
    let mut ran = dispatched(server.stats());
    for (i, a) in trace
        .iter()
        .enumerate()
        .map(|(i, a)| (i as u64, Some(a)))
        .chain([(trace.len() as u64, None)])
    {
        let due = a.map_or(u64::MAX, |a| a.tick);
        loop {
            cal.tick();
            let (_, next) = call(&mut tr, "serve/next_event", i, root, || server.next_event());
            let Some(t) = next.filter(|&t| t <= due) else {
                break;
            };
            horizon = horizon.max(t);
            let (dt, stepped) = call(&mut tr, "serve/step", i, root, || server.step());
            stepped.map_err(|e| format!("step: {e}"))?;
            let now = dispatched(server.stats());
            let n = now - ran;
            ran = now;
            d.req_ms
                .extend(std::iter::repeat_n(dt / n.max(1) as f64, n as usize));
        }
        let Some(a) = a else {
            break;
        };
        d.late += u64::from(a.tick < horizon);
        let input = nets[a.model].inputs[a.input].clone();
        let deadline = (deadlines && CLASSES[a.tenant] == SloClass::Interactive)
            .then_some(a.tick + DEADLINE_TICKS);
        let (_, admitted) = call(&mut tr, "serve/submit", i, root, || {
            server.submit(a.tick, ids[a.model], a.tenant, i, input, deadline)
        });
        match admitted {
            Ok(_) | Err(ServeError::Rejected { .. } | ServeError::BrownedOut { .. }) => {}
            Err(e) => return Err(format!("submit: {e}")),
        }
    }
    d.wall_ms = ms(start.elapsed());
    if let (Some(t), Some(root)) = (tr, root) {
        t.end(root);
    }
    Ok(d)
}

fn report(server: &Server, seed: u64) -> ServeReport {
    ServeReport::from_stats(
        server.stats(),
        seed,
        REQUESTS as u64,
        CLASSES.len() as u64,
        server.registry().names(),
        &CLASSES,
        0,
        0,
    )
}

/// Requests whose output differs from the unbatched replay's, plus one if
/// the order-insensitive digest folds over the requests both served
/// disagree (they cannot when every request matches).
fn replay_mismatches(served: &ServerStats, replay: &ServerStats) -> u64 {
    let want: HashMap<(u64, u64), u64> = replay
        .request_digests
        .iter()
        .map(|&(c, s, d)| ((c, s), d))
        .collect();
    let mismatched = served
        .request_digests
        .iter()
        .filter(|&&(c, s, d)| want.get(&(c, s)) != Some(&d))
        .count() as u64;
    let mine: std::collections::HashSet<(u64, u64)> = served
        .request_digests
        .iter()
        .map(|&(c, s, _)| (c, s))
        .collect();
    let both = |c: u64, s: u64| mine.contains(&(c, s)) && want.contains_key(&(c, s));
    mismatched + u64::from(served.output_digest_over(both) != replay.output_digest_over(both))
}

/// The six networks and a model cache warmed with their artifacts.
fn warm_cache(args: &Args) -> Result<(Vec<Net>, WorkDir, ModelCache), String> {
    let nets = inputs::networks(args.seed)?;
    let dir = WorkDir::new("serve-cache")?;
    let cache = ModelCache::new(&dir.0);
    let rcfg = RistrettoConfig::paper_default();
    for n in &nets {
        cache
            .compile_cached(&n.model, &rcfg)
            .map_err(|e| format!("{} compile: {e}", n.id))?;
    }
    Ok((nets, dir, cache))
}

pub fn timed(args: &Args) -> Result<Outcome, String> {
    let (nets, _dir, cache) = warm_cache(args)?;
    let trace = arrivals(args.seed, RATE_PER_MTICK, REQUESTS);
    let cfg = serve_config();
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        drop(build_server(&nets, &cache, &cfg)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut cal = Calibration::start();
    let mut rates = Vec::new();
    let mut late = 0;
    let mut req_ms = Vec::new();
    let mut first: Option<(ServeReport, ServerStats)> = None;
    let start = Instant::now();
    while first.is_none() || start.elapsed() < args.run {
        let t = Instant::now();
        let (mut server, ids) = build_server(&nets, &cache, &cfg)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let d = drive(&mut server, &ids, &nets, &trace, true, None, &mut cal)?;
        let r = report(&server, args.seed);
        rates.push(r.served as f64 / (d.wall_ms / 1e3));
        req_ms.extend(d.req_ms);
        // Every episode replays the same trace: it must reproduce the
        // first episode's report exactly, and never submit late.
        late += d.late;
        let bad =
            d.late > 0 || !r.conserves_requests() || first.as_ref().is_some_and(|(f, _)| *f != r);
        out.tally(r.submitted, if bad { r.submitted } else { 0 });
        if first.is_none() {
            first = Some((r, server.stats().clone()));
        }
    }
    let (r, stats) = first.expect("at least one episode");

    let (mut replay, ids) = build_server(&nets, &cache, &replay_config(REQUESTS))?;
    drive(&mut replay, &ids, &nets, &trace, false, None, &mut cal)?;
    let replay_stats = replay.stats();
    let mismatched = replay_mismatches(&stats, replay_stats);
    let unserved = replay_stats.submitted - replay_stats.served;
    out.tally(replay_stats.submitted, mismatched + unserved);

    out.end_to_end(
        Some(&cal),
        &setup_s,
        &req_ms,
        0.99,
        (quantile(&rates, 0.5), rates.len()),
        ["req_host_ms_p50", "req_host_ms_p99", "req_per_s"],
    );
    out.note(metric(
        "p99_ticks",
        r.latency_p99_ticks as f64,
        "uticks",
        r.served as usize,
    ));
    out.note(metric(
        "failed_share",
        (r.rejected + r.shed) as f64 / r.submitted as f64,
        "fraction",
        r.submitted as usize,
    ));
    out.notes.push(format!(
        "serve: {} requests per episode, {} episodes: served {}, rejected {} (brownout {}), shed {}, early dispatches {}; late submissions {late}; replay mismatches {mismatched}, replay unserved {unserved}",
        r.submitted,
        rates.len(),
        r.served,
        r.rejected,
        r.brownout_rejected,
        r.shed,
        r.deadline_early_dispatches,
    ));
    Ok(out)
}

pub fn traced(args: &Args) -> Result<Outcome, String> {
    let (nets, dir, cache) = warm_cache(args)?;
    let mut out = Outcome::default();
    let rcfg = RistrettoConfig::paper_default();

    // Verified artifact load against an in-memory compile, per model.
    let (mut load_ms, mut compile_ms) = (Vec::new(), Vec::new());
    for n in &nets {
        let path = dir.0.join(CacheKey::derive(&n.model, &rcfg).file_name());
        let (mut l, mut c) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let t = Instant::now();
            cache
                .load(&path)
                .map_err(|e| format!("{} load: {e}", n.id))?;
            l.push(ms(t.elapsed()));
            let t = Instant::now();
            compile(&n.model, &rcfg).map_err(|e| format!("{} compile: {e}", n.id))?;
            c.push(ms(t.elapsed()));
        }
        load_ms.push(quantile(&l, 0.5));
        compile_ms.push(quantile(&c, 0.5));
    }

    let trace = arrivals(args.seed, RATE_PER_MTICK, REQUESTS);
    let cfg = serve_config();
    let (mut server, ids) = build_server(&nets, &cache, &cfg)?;
    let mut cal = Calibration::start();
    let untraced = drive(&mut server, &ids, &nets, &trace, true, None, &mut cal)?;
    let reference = report(&server, args.seed);
    let mut tr = Tracer::new();
    let (mut server, ids) = build_server(&nets, &cache, &cfg)?;
    let traced = drive(
        &mut server,
        &ids,
        &nets,
        &trace,
        true,
        Some(&mut tr),
        &mut cal,
    )?;
    let r = report(&server, args.seed);
    let bad = traced.late > 0 || untraced.late > 0 || !r.conserves_requests() || r != reference;
    out.tally(2 * r.submitted, if bad { r.submitted } else { 0 });

    // The highest ladder rate that meets the latency limit.
    let mut max_rate = 0.0;
    for rate in LADDER {
        let (mut s, ids) = build_server(&nets, &cache, &cfg)?;
        let rung_trace = arrivals(args.seed, rate, LADDER_REQUESTS);
        let d = drive(&mut s, &ids, &nets, &rung_trace, true, None, &mut cal)?;
        let rung = report(&s, args.seed);
        out.tally(
            rung.submitted,
            if d.late > 0 || !rung.conserves_requests() {
                rung.submitted
            } else {
                0
            },
        );
        let refused = (rung.rejected + rung.shed) as f64 / rung.submitted as f64;
        out.notes.push(format!(
            "serve ladder: {rate} req/Mtick p99 {} ticks, refused {refused:.4}",
            rung.latency_p99_ticks
        ));
        if rung.latency_p99_ticks <= P99_LIMIT_TICKS && refused <= LADDER_MAX_REFUSED {
            max_rate = rate;
        }
    }

    let count = |name: &str| tr.durations_ms(name).len() as f64;
    let (submit, next_event) = (tr.total_ms("serve/submit"), tr.total_ms("serve/next_event"));
    let steps = tr.durations_ms("serve/step");
    let stats = server.stats();
    out.push(metric(
        "serve.submit_us",
        submit * 1e3 / count("serve/submit"),
        "us",
        REQUESTS,
    ));
    out.push(metric(
        "serve.next_event_us",
        next_event * 1e3 / count("serve/next_event"),
        "us",
        count("serve/next_event") as usize,
    ));
    out.push(metric(
        "serve.step_ms_p50",
        quantile(&steps, 0.5),
        "ms",
        steps.len(),
    ));
    out.push(metric(
        "serve.step_ms_p99",
        quantile(&steps, 0.99),
        "ms",
        steps.len(),
    ));
    out.push(metric(
        "serve.host_ms_per_req",
        traced.wall_ms / r.served as f64,
        "ms",
        r.served as usize,
    ));
    out.push(metric(
        "serve.sched_share",
        (submit + next_event) / traced.wall_ms,
        "ratio",
        1,
    ));
    for c in &r.per_class {
        out.push(metric(
            format!("serve.p99_ticks.{}", c.class.name()),
            c.latency_p99_ticks as f64,
            "uticks",
            c.served as usize,
        ));
    }
    out.push(metric(
        "serve.mean_batch",
        dispatched(stats) as f64 / r.batches as f64,
        "requests",
        r.batches as usize,
    ));
    out.push(metric(
        "serve.fleet_batch_share",
        r.fleet_batches as f64 / r.batches as f64,
        "ratio",
        r.batches as usize,
    ));
    out.push(metric(
        "serve.early_dispatches",
        r.deadline_early_dispatches as f64,
        "count",
        1,
    ));
    out.push(metric("serve.shed", r.shed as f64, "count", 1));
    out.push(metric(
        "serve.brownout_rejected",
        r.brownout_rejected as f64,
        "count",
        1,
    ));
    out.push(metric(
        "serve.queue_depth_max",
        r.queue_depth_max as f64,
        "count",
        1,
    ));
    out.push(metric(
        "serve.max_rate_per_mtick",
        max_rate,
        "req/Mtick",
        LADDER.len(),
    ));
    out.push(metric(
        "modelcache.load_ms",
        load_ms.iter().sum::<f64>() / load_ms.len() as f64,
        "ms",
        load_ms.len(),
    ));
    out.push(metric(
        "modelcache.load_over_compile",
        load_ms.iter().sum::<f64>() / compile_ms.iter().sum::<f64>(),
        "ratio",
        load_ms.len(),
    ));
    tr.summarize("serve", "perfbench/serve_loop", untraced.wall_ms, &mut out);
    tr.write_jsonl(&inputs::build_dir().join(format!("trace-serve-seed{}.jsonl", args.seed)))?;
    Ok(out)
}
