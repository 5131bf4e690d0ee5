//! Result assembly: named metrics, human-readable lines and the final JSON
//! object.

use crate::{metric, quantile, Calibration};
use std::collections::BTreeSet;

/// One measured value.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was reduced from (1 for a total or an exact count).
    pub samples: usize,
}

impl Metric {
    /// The human-readable line: name, value with all its digits, unit and
    /// sample count.
    pub fn render(&self) -> String {
        format!(
            "metric {} = {} {} (n={})",
            self.name, self.value, self.unit, self.samples
        )
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (images, requests, design points, passes).
    pub attempted: u64,
    /// Operations that errored or failed their output check.
    pub failed: u64,
    /// Metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Lines printed before it.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Folds another outcome in; `prefix` namespaces its JSON metrics.
    pub fn merge(&mut self, other: Outcome, prefix: Option<&str>) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for mut m in other.metrics {
            if let Some(p) = prefix {
                m.name = format!("{p}.{}", m.name);
            }
            self.metrics.push(m);
        }
        self.notes.extend(other.notes);
    }

    /// Records `count` operations, `failed` of which failed.
    pub fn tally(&mut self, count: u64, failed: u64) {
        self.attempted += count;
        self.failed += failed;
    }

    /// Adds a metric to the JSON line and prints it as a note.
    pub fn push(&mut self, m: Metric) {
        self.notes.push(m.render());
        self.metrics.push(m);
    }

    /// Pushes the end-to-end metrics, scaled to the reference host by
    /// `cal` when given, and prints the raw values under the workload's
    /// own names `[p50, tail, rate]`. `tail_q` is the tail quantile of
    /// `times_ms`; `rate` is the operations-per-second figure and its
    /// sample count. The tail is printed but not gated: steal bursts of
    /// 10–20% moved it by up to 30% between runs while the median held.
    pub fn end_to_end(
        &mut self,
        cal: Option<&Calibration>,
        setup_s: &[f64],
        times_ms: &[f64],
        tail_q: f64,
        rate: (f64, usize),
        names: [&str; 3],
    ) {
        let f = cal.map_or(1.0, Calibration::factor);
        let n = times_ms.len();
        let setup = quantile(setup_s, 0.5);
        let (p50, tail) = (quantile(times_ms, 0.5), quantile(times_ms, tail_q));
        self.push(metric("setup_s", setup * f, "s", setup_s.len()));
        self.push(metric("op_ms_p50", p50 * f, "ms", n));
        self.push(metric("ops_per_s", rate.0 / f, "1/s", rate.1));
        if let Some(cal) = cal {
            cal.note(self);
        }
        self.note(metric("setup_s_raw", setup, "s", setup_s.len()));
        self.note(metric(names[0], p50, "ms", n));
        self.note(metric(names[1], tail, "ms", n));
        self.note(metric(names[2], rate.0, "1/s", rate.1));
    }

    /// Prints a metric as a note only.
    pub fn note(&mut self, m: Metric) {
        self.notes.push(m.render());
    }

    /// The final JSON line.
    ///
    /// # Errors
    /// A duplicate metric name or a non-finite value (not representable in
    /// JSON) is a benchmark bug.
    pub fn json(&self) -> Result<String, String> {
        let mut seen = BTreeSet::new();
        let mut fields = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !seen.insert(m.name.as_str()) {
                return Err(format!("metric {} reported twice", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}
