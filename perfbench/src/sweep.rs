//! `sweep`: design-space points over the six networks.
//!
//! A point is one (network, input) pair: one `Session::run_cycle_level`
//! call plus one output-channel-sharded `Fleet::run` at each of
//! [`CORES`]. Chosen because it is the only workload on the cycle-level
//! core, and the only one on shard views, per-shard scratch, reassembly
//! and the ring NoC, whose host cost grows with the core count.

use crate::inputs::{self, Net, POOL};
use crate::report::Outcome;
use crate::trace::{call, Tracer};
use crate::{metric, ms, rate_per_s, Args, Calibration, SETUPS};
use qnn::tensor::Tensor3;
use ristretto_sim::config::FleetConfig;
use ristretto_sim::engine::{CompiledNetwork, Session};
use ristretto_sim::fleet::{Fleet, FleetReport, ShardStrategy};
use std::sync::Arc;
use std::time::Instant;

/// Fleet sizes of every point.
const CORES: [usize; 3] = [2, 4, 8];
/// Span names of the fleet passes, indexed like [`CORES`].
const FLEET_SPANS: [&str; 3] = ["fleet/run.oc2", "fleet/run.oc4", "fleet/run.oc8"];

struct Setup {
    nets: Vec<Net>,
    sessions: Vec<Session>,
    /// `fleets[n][c]`: network `n` sharded over `CORES[c]` cores.
    fleets: Vec<Vec<Fleet>>,
    oracle: Vec<Vec<Tensor3>>,
}

/// Output-channel fleets of every network at each of `cores`.
fn fleets_for(
    compiled: &[Arc<CompiledNetwork>],
    cores: &[usize],
    tr: &mut Option<&mut Tracer>,
) -> Result<Vec<Vec<Fleet>>, String> {
    compiled
        .iter()
        .map(|c| {
            cores
                .iter()
                .map(|&n| {
                    call(tr, "fleet/construct", n as u64, None, || {
                        Fleet::try_new(c.clone(), FleetConfig::new(n, ShardStrategy::OutputChannel))
                    })
                    .1
                    .map_err(|e| format!("{} fleet x{n}: {e}", c.name()))
                })
                .collect()
        })
        .collect()
}

/// Compiles, opens sessions and builds the 18 fleets [`SETUPS`] times
/// (timed), keeping the last set.
fn setup(args: &Args) -> Result<(Setup, Vec<f64>), String> {
    let nets = inputs::networks(args.seed)?;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (compiled, sessions) = inputs::compile_all(&nets)?;
        let fleets = fleets_for(&compiled, &CORES, &mut None)?;
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((compiled, sessions, fleets));
    }
    let (compiled, sessions, fleets) = built.expect("SETUPS > 0");
    let oracle = inputs::oracle(&nets, &compiled)?;
    Ok((
        Setup {
            nets,
            sessions,
            fleets,
            oracle,
        },
        setup_s,
    ))
}

/// What one point produced.
struct Point {
    /// Cycle-level reports' makespans, stalls and crossbar conflicts,
    /// summed over layers.
    core: [u64; 3],
    fleets: Vec<FleetReport>,
    /// Whether every output equalled the dense reference.
    ok: bool,
}

impl Point {
    /// Modelled cycles of the point: the cycle-level makespan plus every
    /// fleet makespan.
    fn cycles(&self) -> u64 {
        self.core[0] + self.fleets.iter().map(|f| f.makespan_cycles).sum::<u64>()
    }
}

/// Runs point `(n, k)`, wrapping each call in a span when tracing.
fn point(
    s: &Setup,
    (n, k): (usize, usize),
    tr: &mut Option<&mut Tracer>,
    id: u64,
) -> Result<Point, String> {
    let input = &s.nets[n].inputs[k];
    let want = &s.oracle[n][k];
    let root = tr.as_mut().map(|t| t.begin("perfbench/point", id, None));
    let (_, cycle) = call(tr, "core/run_cycle_level", id, root, || {
        s.sessions[n].run_cycle_level(input)
    });
    let runs: Vec<_> = s.fleets[n]
        .iter()
        .zip(FLEET_SPANS)
        .map(|(fleet, name)| {
            call(tr, name, id, root, || {
                fleet.run(std::slice::from_ref(input))
            })
            .1
        })
        .collect();
    if let (Some(t), Some(root)) = (tr.as_mut(), root) {
        t.end(root);
    }
    let cycle = cycle.map_err(|e| format!("{} cycle-level: {e}", s.nets[n].id))?;
    let mut ok = cycle.functional.output == *want;
    let mut fleets = Vec::with_capacity(runs.len());
    for run in runs {
        let run = run.map_err(|e| format!("{} fleet: {e}", s.nets[n].id))?;
        ok &= run.outputs.len() == 1 && run.outputs[0] == *want;
        fleets.push(run.report);
    }
    let reports = &cycle.core_reports;
    Ok(Point {
        core: [
            reports.iter().map(|r| r.makespan).sum(),
            reports.iter().map(|r| r.stall_cycles()).sum(),
            reports.iter().map(|r| r.crossbar_conflicts()).sum(),
        ],
        fleets,
        ok,
    })
}

/// The point set: every (network, input) pair, networks innermost.
fn points(nets: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..POOL).flat_map(move |k| (0..nets).map(move |n| (n, k)))
}

pub fn timed(args: &Args) -> Result<Outcome, String> {
    let (s, setup_s) = setup(args)?;
    let set: Vec<(usize, usize)> = points(s.nets.len()).collect();
    let mut out = Outcome::default();
    let mut times = Vec::new();
    let mut cycles: Vec<u64> = Vec::with_capacity(set.len());
    let mut failed = 0;
    let mut cal = Calibration::start();
    let start = Instant::now();
    // Whole passes over the point set, so `sim_cycles` covers every point
    // and each later pass re-checks that the cycle counts repeat exactly.
    while cycles.len() < set.len() || start.elapsed() < args.run {
        for (i, &pair) in set.iter().enumerate() {
            cal.tick();
            let t = Instant::now();
            let p = point(&s, pair, &mut None, i as u64)?;
            times.push(ms(t.elapsed()));
            let repeat = cycles.get(i).is_none_or(|&c| c == p.cycles());
            failed += u64::from(!(p.ok && repeat));
            if cycles.len() == i {
                cycles.push(p.cycles());
            }
            if cycles.len() == set.len() && start.elapsed() >= args.run {
                break;
            }
        }
    }
    out.tally(times.len() as u64, failed);

    let rate = (rate_per_s(&times), times.len());
    out.end_to_end(
        Some(&cal),
        &setup_s,
        &times,
        0.9,
        rate,
        ["point_ms_p50", "point_ms_p90", "points_per_s"],
    );
    out.note(metric(
        "sim_cycles",
        cycles.iter().sum::<u64>() as f64,
        "cycles",
        set.len(),
    ));
    out.note(metric(
        "failed_share",
        out.failed as f64 / out.attempted as f64,
        "fraction",
        out.attempted as usize,
    ));
    Ok(out)
}

pub fn traced(args: &Args) -> Result<Outcome, String> {
    let nets = inputs::networks(args.seed)?;
    let mut tr = Tracer::new();
    let (compiled, sessions) = inputs::compile_all(&nets)?;
    let fleets = fleets_for(&compiled, &CORES, &mut Some(&mut tr))?;
    let construct_ms = tr.durations_ms("fleet/construct");
    // 1-core fleets: the strong-scaling baseline (modelled cycles only).
    let single = fleets_for(&compiled, &[1], &mut None)?;
    let oracle = inputs::oracle(&nets, &compiled)?;
    let s = Setup {
        nets,
        sessions,
        fleets,
        oracle,
    };
    let set: Vec<(usize, usize)> = points(s.nets.len()).collect();
    let mut out = Outcome::default();
    let mut failed = 0;

    // A warm-up pass, an untraced pass, then the traced one.
    let mut untraced_ms = 0.0;
    for _ in 0..2 {
        let start = Instant::now();
        for (i, &pair) in set.iter().enumerate() {
            failed += u64::from(!point(&s, pair, &mut None, i as u64)?.ok);
        }
        untraced_ms = ms(start.elapsed());
    }
    let mut tr = Tracer::new();
    let mut core = [0u64; 3];
    let mut fleet_cycles = [[0u64; 4]; 3];
    let mut base_cycles = 0u64;
    for (i, &(n, k)) in set.iter().enumerate() {
        let p = point(&s, (n, k), &mut Some(&mut tr), i as u64)?;
        failed += u64::from(!p.ok);
        for (sum, v) in core.iter_mut().zip(p.core) {
            *sum += v;
        }
        for (sums, f) in fleet_cycles.iter_mut().zip(&p.fleets) {
            for (sum, v) in
                sums.iter_mut()
                    .zip([f.makespan_cycles, f.link_bits, f.link_busy_cycles, 0])
            {
                *sum += v;
            }
        }
        // Functional probe on the same input, outside the point tree.
        let (_, run) = tr.time("engine/run", i as u64, None, || {
            s.sessions[n].run(&s.nets[n].inputs[k])
        });
        failed += u64::from(!run.is_ok_and(|r| r.output == s.oracle[n][k]));
        let base = single[n][0]
            .run(std::slice::from_ref(&s.nets[n].inputs[k]))
            .map_err(|e| format!("{} fleet x1: {e}", s.nets[n].id))?;
        failed += u64::from(base.outputs.first() != Some(&s.oracle[n][k]));
        base_cycles += base.report.makespan_cycles;
    }
    out.tally(4 * set.len() as u64, failed);

    let points = set.len();
    let session_ms = tr.total_ms("engine/run");
    let cycle_ms = tr.total_ms("core/run_cycle_level");
    out.push(metric(
        "core.cycle_level_ms",
        cycle_ms / points as f64,
        "ms",
        points,
    ));
    out.push(metric(
        "core.over_functional",
        cycle_ms / session_ms,
        "ratio",
        points,
    ));
    out.push(metric(
        "core.host_ns_per_cycle",
        cycle_ms * 1e6 / core[0] as f64,
        "ns",
        points,
    ));
    out.push(metric(
        "core.makespan_cycles",
        core[0] as f64,
        "cycles",
        points,
    ));
    out.push(metric(
        "core.stall_cycles",
        core[1] as f64,
        "cycles",
        points,
    ));
    out.push(metric(
        "core.crossbar_conflicts",
        core[2] as f64,
        "count",
        points,
    ));
    for (c, &cores) in CORES.iter().enumerate() {
        let pass_ms = tr.total_ms(FLEET_SPANS[c]);
        let [makespan, link_bits, link_busy, _] = fleet_cycles[c];
        out.push(metric(
            format!("fleet.pass_ms.oc{cores}"),
            pass_ms / points as f64,
            "ms",
            points,
        ));
        out.push(metric(
            format!("fleet.over_session.oc{cores}"),
            pass_ms / session_ms,
            "ratio",
            points,
        ));
        out.push(metric(
            format!("fleet.makespan_cycles.oc{cores}"),
            makespan as f64,
            "cycles",
            points,
        ));
        out.push(metric(
            format!("fleet.link_bits.oc{cores}"),
            link_bits as f64,
            "bits",
            points,
        ));
        out.push(metric(
            format!("fleet.strong_eff.oc{cores}"),
            base_cycles as f64 / (cores as f64 * makespan as f64),
            "ratio",
            points,
        ));
        out.push(metric(
            format!("noc.link_busy_cycles.oc{cores}"),
            link_busy as f64,
            "cycles",
            points,
        ));
    }
    out.push(metric(
        "fleet.construct_ms",
        construct_ms.iter().sum::<f64>() / construct_ms.len() as f64,
        "ms",
        construct_ms.len(),
    ));
    tr.summarize("sweep", "perfbench/point", untraced_ms, &mut out);
    tr.write_jsonl(&inputs::build_dir().join(format!("trace-sweep-seed{}.jsonl", args.seed)))?;
    Ok(out)
}
