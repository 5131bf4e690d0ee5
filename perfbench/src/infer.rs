//! `infer`: a batch-1 closed loop, one client and one `Session` per
//! network, round-robin over the six mini networks.
//!
//! Chosen because it isolates the compile-once engine and the CSC kernel
//! at batch 1, where per-call overhead dominates; it bypasses serving,
//! sharding, the NoC, the cycle-level core and stats synthesis.

use crate::inputs::{self, Net, POOL};
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{metric, ms, quantile, rate_per_s, Args, Calibration, SETUPS};
use atomstream::conv_csc::{conv2d_csc_streams_reference, conv2d_csc_streams_with};
use atomstream::kernel::CscScratch;
use qnn::pool::pool2d;
use qnn::tensor::Tensor3;
use ristretto_sim::config::RistrettoConfig;
use ristretto_sim::engine::{compile, CompiledNetwork, Session};
use ristretto_sim::ppu::PostProcessor;
use std::sync::Arc;
use std::time::Instant;

/// Networks, compiled artifacts, sessions and the checked outputs.
struct Setup {
    nets: Vec<Net>,
    compiled: Vec<Arc<CompiledNetwork>>,
    sessions: Vec<Session>,
    oracle: Vec<Vec<Tensor3>>,
    setup_s: Vec<f64>,
}

/// Draws the inputs, then compiles and opens sessions [`SETUPS`] times
/// (timed), keeping the last set, and precomputes the dense reference.
fn setup(args: &Args) -> Result<Setup, String> {
    let nets = inputs::networks(args.seed)?;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        built = Some(inputs::compile_all(&nets)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (compiled, sessions) = built.expect("SETUPS > 0");
    let oracle = inputs::oracle(&nets, &compiled)?;
    Ok(Setup {
        nets,
        compiled,
        sessions,
        oracle,
        setup_s,
    })
}

/// One `Session::run`, checked against the dense reference outside the
/// timed region. Returns the host time and whether the output matched.
fn run_checked(s: &Setup, n: usize, k: usize) -> (f64, bool) {
    let t = Instant::now();
    let run = s.sessions[n].run(&s.nets[n].inputs[k]);
    let dt = ms(t.elapsed());
    (dt, run.is_ok_and(|r| r.output == s.oracle[n][k]))
}

/// Runs every (network, input) pair once, returning the summed host ms
/// and the number of mismatches.
fn pool_pass(s: &Setup) -> (f64, u64) {
    let mut total = 0.0;
    let mut bad = 0;
    for k in 0..POOL {
        for n in 0..s.nets.len() {
            let (dt, ok) = run_checked(s, n, k);
            total += dt;
            bad += u64::from(!ok);
        }
    }
    (total, bad)
}

pub fn timed(args: &Args) -> Result<Outcome, String> {
    let s = setup(args)?;
    let mut out = Outcome::default();
    // Warm-up: every session's scratch arenas fill on its first input.
    let (_, bad) = pool_pass(&s);
    out.tally((POOL * s.nets.len()) as u64, bad);

    let mut cal = Calibration::start();
    let mut times = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    while start.elapsed() < args.run {
        cal.tick();
        let i = times.len();
        let n = i % s.nets.len();
        let k = (i / s.nets.len()) % POOL;
        let (dt, ok) = run_checked(&s, n, k);
        times.push(dt);
        failed += u64::from(!ok);
    }
    out.tally(times.len() as u64, failed);
    let rate = (rate_per_s(&times), times.len());
    out.end_to_end(
        Some(&cal),
        &s.setup_s,
        &times,
        0.99,
        rate,
        ["image_ms_p50", "image_ms_p99", "images_per_s"],
    );
    out.note(metric(
        "failed_share",
        out.failed as f64 / out.attempted as f64,
        "fraction",
        out.attempted as usize,
    ));
    Ok(out)
}

/// Work counts of the traced images.
#[derive(Default)]
struct Counts {
    act_atoms: u64,
    tiles_processed: u64,
    /// `(channel, tile)` pairs the occupancy filter looks at: every tile of
    /// every input channel with a non-empty weight stream.
    tiles_scanned: u64,
}

/// Traces one image: `Session::run` end to end (the root span), then the
/// same image stepped through `Session::run_layer` layer by layer (the
/// root's children), then each layer's stages replayed on that layer's
/// input as the step's children: the CSC kernel on a persistent scratch
/// arena, the PPU and pooling. The steps run back to back, like the layers
/// inside `Session::run`, so the replays do not cool their caches. The
/// value-major reference kernel runs beside the replays, outside the tree.
/// Returns whether every output matched the dense reference, the layer
/// step and the reference kernel.
fn trace_image(
    tr: &mut Tracer,
    s: &Setup,
    scratch: &[CscScratch],
    (n, k): (usize, usize),
    counts: &mut Counts,
) -> bool {
    let id = (k * s.nets.len() + n) as u64;
    let (net, compiled, session) = (&s.nets[n], &s.compiled[n], &s.sessions[n]);
    let csc = compiled.csc_config();
    // An untraced run first, so the traced run and the steps after it both
    // find the image's data in cache.
    let mut ok = session.run(&net.inputs[k]).is_ok();
    let (root, run) = tr.time("engine/run", id, None, || session.run(&net.inputs[k]));
    ok &= run.is_ok_and(|r| r.output == s.oracle[n][k]);
    // (step span, layer input, layer output) per layer.
    let mut steps = Vec::with_capacity(compiled.layers().len());
    let mut act = net.inputs[k].clone();
    for li in 0..compiled.layers().len() {
        let (step, stepped) = tr.time("engine/run_layer", id, Some(root), || {
            session.run_layer(li, &act)
        });
        let Ok((next, _, _)) = stepped else {
            return false;
        };
        steps.push((step, std::mem::replace(&mut act, next.clone()), next));
    }
    ok &= act == s.oracle[n][k];
    for ((layer, l), (li, (step, act, next))) in compiled
        .layers()
        .iter()
        .zip(&net.model.layers)
        .zip(steps.into_iter().enumerate())
    {
        let (_, conv) = tr.time("atomstream/csc", id, Some(step), || {
            conv2d_csc_streams_with(&act, layer.weights(), l.geom, l.a_bits, csc, &scratch[li])
        });
        let (_, reference) = tr.time("atomstream/reference", id, None, || {
            conv2d_csc_streams_reference(&act, layer.weights(), l.geom, l.a_bits, csc)
        });
        let (Ok(conv), Ok(reference)) = (conv, reference) else {
            return false;
        };
        ok &= conv == reference;
        let ppu = PostProcessor {
            requant_shift: l.requant_shift,
            out_bits: l.out_bits,
            atom_bits: csc.atom_bits,
            tile_h: csc.tile_h,
            tile_w: csc.tile_w,
        };
        let (_, post) = tr.time("ppu/process", id, Some(step), || {
            ppu.try_process(&conv.output)
        });
        let Ok(post) = post else {
            return false;
        };
        let out = match l.pool {
            Some((kind, window, stride, pad)) => {
                tr.time("qnn/pool", id, Some(step), || {
                    pool2d(&post.activations, kind, window, stride, pad)
                })
                .1
            }
            None => Ok(post.activations),
        };
        ok &= out.is_ok_and(|t| t == next);
        counts.act_atoms += conv.stats.act_atoms;
        counts.tiles_processed += conv.stats.tiles_processed;
        let (_, h, w) = act.shape();
        let live = (0..layer.weights().in_channels())
            .filter(|&ci| !layer.weights().stream(ci).is_empty())
            .count();
        counts.tiles_scanned += (live * h.div_ceil(csc.tile_h) * w.div_ceil(csc.tile_w)) as u64;
    }
    ok
}

pub fn traced(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let nets = inputs::networks(args.seed)?;
    // Compile time per network: the median of three rounds over all six.
    let cfg = RistrettoConfig::paper_default();
    let mut rounds = Vec::new();
    let mut compiled = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        compiled = nets
            .iter()
            .map(|n| compile(&n.model, &cfg).map_err(|e| format!("{} compile: {e}", n.id)))
            .collect::<Result<_, _>>()?;
        rounds.push(ms(t.elapsed()) / nets.len() as f64);
    }
    let sessions = compiled.iter().cloned().map(Session::new).collect();
    let oracle = inputs::oracle(&nets, &compiled)?;
    let s = Setup {
        nets,
        compiled,
        sessions,
        oracle,
        setup_s: Vec::new(),
    };
    let images = POOL * s.nets.len();
    let nn = s.nets.len();
    let pairs = move || (0..POOL).flat_map(move |k| (0..nn).map(move |n| (n, k)));

    // Untraced reference for the tracing overhead, and the worker-count
    // probe: the same pool at `nproc` workers and at one, alternated.
    let (_, bad) = pool_pass(&s);
    out.tally(images as u64, bad);
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon shim never fails to build");
    let (mut at_n, mut at_1) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (t, bad) = pool_pass(&s);
        at_n.push(t);
        let (t1, bad1) = one.install(|| pool_pass(&s));
        at_1.push(t1);
        out.tally(2 * images as u64, bad + bad1);
    }

    // One untraced pass fills the replay arenas; the second is recorded.
    let scratch: Vec<Vec<CscScratch>> = s
        .compiled
        .iter()
        .map(|c| c.layers().iter().map(|_| CscScratch::new()).collect())
        .collect();
    let mut failed = 0;
    for pair in pairs() {
        failed += u64::from(!trace_image(
            &mut Tracer::new(),
            &s,
            &scratch[pair.0],
            pair,
            &mut Counts::default(),
        ));
    }
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    for pair in pairs() {
        failed += u64::from(!trace_image(
            &mut tr,
            &s,
            &scratch[pair.0],
            pair,
            &mut counts,
        ));
    }
    out.tally(2 * images as u64, failed);

    for (n, net) in s.nets.iter().enumerate() {
        let layer_ms: f64 = tr
            .spans_named("engine/run_layer")
            .filter(|&(id, _)| id as usize % s.nets.len() == n)
            .map(|(_, ms)| ms)
            .sum();
        out.push(metric(
            format!("engine.run_ms.{}", net.id.name()),
            layer_ms / POOL as f64,
            "ms",
            POOL,
        ));
    }
    out.push(metric(
        "engine.compile_ms",
        quantile(&rounds, 0.5),
        "ms",
        rounds.len(),
    ));
    let per_image = |x: f64| x / images as f64;
    let csc_ms = tr.total_ms("atomstream/csc");
    let stages_ms = csc_ms + tr.total_ms("ppu/process") + tr.total_ms("qnn/pool");
    out.push(metric(
        "engine.unattributed_ms",
        per_image(tr.total_ms("engine/run") - stages_ms),
        "ms",
        images,
    ));
    out.push(metric("atomstream.csc_ms", per_image(csc_ms), "ms", images));
    out.push(metric(
        "atomstream.act_atoms",
        counts.act_atoms as f64,
        "count",
        1,
    ));
    out.push(metric(
        "atomstream.tiles_processed",
        counts.tiles_processed as f64,
        "count",
        1,
    ));
    out.push(metric(
        "atomstream.tile_occupancy",
        counts.tiles_processed as f64 / counts.tiles_scanned as f64,
        "ratio",
        1,
    ));
    out.push(metric(
        "atomstream.ns_per_act_atom",
        csc_ms * 1e6 / counts.act_atoms as f64,
        "ns",
        images,
    ));
    out.push(metric(
        "atomstream.steady_over_reference",
        csc_ms / tr.total_ms("atomstream/reference"),
        "ratio",
        images,
    ));
    out.push(metric(
        "ppu.ms",
        per_image(tr.total_ms("ppu/process")),
        "ms",
        images,
    ));
    out.push(metric(
        "qnn.pool_ms",
        per_image(tr.total_ms("qnn/pool")),
        "ms",
        images,
    ));
    out.push(metric(
        "rayon.speedup",
        quantile(&at_1, 0.5) / quantile(&at_n, 0.5),
        "ratio",
        at_n.len(),
    ));
    tr.summarize("infer", "engine/run", quantile(&at_n, 0.5), &mut out);
    tr.write_jsonl(&inputs::build_dir().join(format!("trace-infer-seed{}.jsonl", args.seed)))?;
    Ok(out)
}
