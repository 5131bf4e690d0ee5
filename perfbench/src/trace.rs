//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded here, around public calls into the program; nothing
//! inside the program is instrumented. A span's parent is explicit, so a
//! span may be the logical child of a call it does not overlap in time:
//! the infer trace replays each layer's stages (CSC kernel, PPU, pooling)
//! on the same inputs right after the `Session::run_layer` call they
//! belong to. Self time is a span's duration minus its children's, so the
//! self times under a root telescope to the root's duration; the root's own
//! self time is the residual no child explains.

use crate::report::Outcome;
use crate::{metric, ms};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// A closure ratio outside `1 ± CLOSURE_BOUND` fails the traced run: the
/// layer self times must add back up to the end-to-end time.
pub const CLOSURE_BOUND: f64 = 0.2;

struct Span {
    /// `<layer>/<call>`.
    name: &'static str,
    /// The image, request or point the span belongs to.
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans of one workload's traced pass.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let span = self.begin(name, id, parent);
        let out = f();
        self.end(span);
        (span, out)
    }

    fn dur_ns(&self, span: usize) -> u64 {
        let s = &self.spans[span];
        s.end_ns - s.start_ns
    }

    /// Duration of one span in milliseconds.
    pub fn span_ms(&self, span: usize) -> f64 {
        self.dur_ns(span) as f64 / 1e6
    }

    /// `(id, milliseconds)` of every span called `name`.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (u64, f64)> + 'a {
        (0..self.spans.len())
            .filter(move |&i| self.spans[i].name == name)
            .map(|i| (self.spans[i].id, self.span_ms(i)))
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans_named(name).map(|(_, ms)| ms).collect()
    }

    /// Total milliseconds across every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans_named(name).map(|(_, ms)| ms).sum()
    }

    /// Self time of every span, in nanoseconds (negative when children
    /// outlast their parent).
    fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = (0..self.spans.len())
            .map(|i| self.dur_ns(i) as i64)
            .collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] -= self.dur_ns(i) as i64;
            }
        }
        own
    }

    /// Appends the per-layer self-time table, the closure check and the
    /// tracing overhead for `workload` to `out`. `root` names the spans
    /// that measure one operation end to end; the table covers the spans
    /// under them (spans outside every root are probes, reported by their
    /// own metrics). `untraced_ms` is the roots' total time measured
    /// without spans.
    pub fn summarize(&self, workload: &str, root: &str, untraced_ms: f64, out: &mut Outcome) {
        let own = self.self_ns();
        // Parents precede their children, so one forward pass marks every
        // span that descends from a root.
        let mut under_root = vec![false; self.spans.len()];
        let mut layers: BTreeMap<&str, i64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            under_root[i] = s.name == root || s.parent.is_some_and(|p| under_root[p]);
            if under_root[i] {
                let layer = s.name.split('/').next().unwrap_or(s.name);
                *layers.entry(layer).or_default() += own[i];
            }
        }
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == root)
            .collect();
        let e2e_ms: f64 = roots.iter().map(|&i| self.span_ms(i)).sum();
        let residual_ms: f64 = roots.iter().map(|&i| own[i] as f64 / 1e6).sum();
        let closure = (e2e_ms - residual_ms) / e2e_ms;
        let ok = (closure - 1.0).abs() <= CLOSURE_BOUND;
        for (layer, ns) in &layers {
            out.notes.push(format!(
                "layer {workload} {layer:<14} self_ms={:.3}",
                *ns as f64 / 1e6
            ));
            out.push(metric(
                format!("self_ms.{workload}.{}", layer.replace('/', ".")),
                *ns as f64 / 1e6,
                "ms",
                1,
            ));
        }
        out.notes.push(format!(
            "closure {workload}: layer self times under {root} sum to {:.3} of {e2e_ms:.3} ms end to end (bound 1 +/- {CLOSURE_BOUND}), residual {residual_ms:.3} ms: {}",
            closure,
            if ok { "ok" } else { "FAILED" }
        ));
        out.push(metric(
            format!("trace.closure.{workload}"),
            closure,
            "ratio",
            roots.len(),
        ));
        out.push(metric(
            format!("trace.residual_ms.{workload}"),
            residual_ms,
            "ms",
            roots.len(),
        ));
        out.push(metric(
            format!("trace.overhead.{workload}"),
            e2e_ms / untraced_ms,
            "ratio",
            roots.len(),
        ));
        out.tally(0, u64::from(!ok));
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        let err = |e: std::io::Error| format!("writing {}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(err)?;
        }
        let file = std::fs::File::create(path).map_err(err)?;
        let mut w = std::io::BufWriter::new(file);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\": {i}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )
            .map_err(err)?;
        }
        w.flush().map_err(err)
    }
}

/// Runs `f`, recording a span when tracing; returns its host ms too.
pub fn call<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    id: u64,
    root: Option<usize>,
    f: impl FnOnce() -> T,
) -> (f64, T) {
    match tr {
        Some(t) => {
            let (span, out) = t.time(name, id, root, f);
            (t.span_ms(span), out)
        }
        None => {
            let start = Instant::now();
            let out = f();
            (ms(start.elapsed()), out)
        }
    }
}
