//! The stats-regression gate: serializing observability snapshots and
//! diffing them against a checked-in golden file.
//!
//! A metrics file is `{"counters": {name: value, ...}}` with the counter
//! names sorted — the same schema at every thread count, with zero-valued
//! counters included, so two runs of the same workload produce
//! byte-identical files (see `OBSERVABILITY.md`).
//!
//! A golden file adds a tolerance section:
//!
//! ```json
//! {
//!   "counters": { "intersect.steps": 123, ... },
//!   "tolerance": {
//!     "default_rel": 0.0,
//!     "per_counter_rel": { "energy.*": 1e-6 }
//!   }
//! }
//! ```
//!
//! `per_counter_rel` keys are exact counter names or prefix wildcards
//! ending in `*` (longest matching prefix wins). Pure event counts get the
//! zero default; the energy attribution counters carry a small relative
//! tolerance because their femtojoule values pass through `libm` functions
//! whose last-bit rounding may differ across platforms.

use serde_json::{Number, Value};

/// Relative tolerances for the golden comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Tolerance {
    /// Tolerance applied when no per-counter rule matches.
    pub default_rel: f64,
    /// Per-counter overrides: exact names or `prefix*` wildcards.
    pub per_counter_rel: Vec<(String, f64)>,
}

impl Default for Tolerance {
    fn default() -> Self {
        Self {
            default_rel: 0.0,
            per_counter_rel: vec![("energy.*".to_string(), 1e-6)],
        }
    }
}

impl Tolerance {
    /// The tolerance for `name`: exact match, then the longest matching
    /// `prefix*` wildcard, then the default.
    pub fn for_counter(&self, name: &str) -> f64 {
        if let Some((_, t)) = self.per_counter_rel.iter().find(|(k, _)| k == name) {
            return *t;
        }
        self.per_counter_rel
            .iter()
            .filter(|(k, _)| k.ends_with('*') && name.starts_with(&k[..k.len() - 1]))
            .max_by_key(|(k, _)| k.len())
            .map(|(_, t)| *t)
            .unwrap_or(self.default_rel)
    }
}

/// A parsed golden stats file.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenStats {
    /// Expected counter values, in file order.
    pub counters: Vec<(String, u64)>,
    /// Comparison tolerances.
    pub tolerance: Tolerance,
}

/// One counter that moved outside its tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Counter name.
    pub name: String,
    /// Golden value (`None`: counter exists only in the live run).
    pub expected: Option<u64>,
    /// Live value (`None`: counter exists only in the golden file).
    pub actual: Option<u64>,
    /// Observed relative deviation.
    pub rel: f64,
    /// Tolerance that was applied.
    pub tol: f64,
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.expected, self.actual) {
            (Some(e), Some(a)) => write!(
                f,
                "{}: expected {e}, got {a} (rel {:.3e} > tol {:.1e})",
                self.name, self.rel, self.tol
            ),
            (Some(e), None) => write!(
                f,
                "{}: expected {e}, but the counter no longer exists",
                self.name
            ),
            (None, Some(a)) => write!(
                f,
                "{}: live value {a} has no golden entry (regenerate with --update)",
                self.name
            ),
            (None, None) => write!(f, "{}: (internal) empty drift", self.name),
        }
    }
}

fn counters_value(snap: &obs::Snapshot) -> Value {
    // Snapshot::entries() is sorted by name and includes zeros, so the map
    // (insertion-ordered in the vendored serde) comes out sorted.
    let mut counters = serde_json::Map::new();
    for (name, value) in snap.entries() {
        counters.insert(name.to_string(), Value::Number(Number::PosInt(value)));
    }
    Value::Object(counters)
}

/// Renders a snapshot as the stable metrics JSON (trailing newline
/// included).
///
/// # Errors
/// Names the artifact if the snapshot cannot be serialized (part of the
/// no-panic policy of the CLI surface).
pub fn metrics_json(snap: &obs::Snapshot) -> Result<String, String> {
    let mut root = serde_json::Map::new();
    root.insert("counters".to_string(), counters_value(snap));
    let mut s = serde_json::to_string_pretty(&Value::Object(root))
        .map_err(|e| format!("serializing metrics snapshot: {e}"))?;
    s.push('\n');
    Ok(s)
}

/// Renders a snapshot as a golden file, carrying over the tolerance
/// section of `prior` (or the default tolerances when starting fresh).
///
/// # Errors
/// Names the artifact if the golden document cannot be serialized.
pub fn golden_json(snap: &obs::Snapshot, prior: Option<&GoldenStats>) -> Result<String, String> {
    let tol = prior.map(|g| g.tolerance.clone()).unwrap_or_default();
    let mut tol_map = serde_json::Map::new();
    tol_map.insert(
        "default_rel".to_string(),
        Value::Number(Number::Float(tol.default_rel)),
    );
    let mut per = serde_json::Map::new();
    for (k, v) in &tol.per_counter_rel {
        per.insert(k.clone(), Value::Number(Number::Float(*v)));
    }
    tol_map.insert("per_counter_rel".to_string(), Value::Object(per));

    let mut root = serde_json::Map::new();
    root.insert("counters".to_string(), counters_value(snap));
    root.insert("tolerance".to_string(), Value::Object(tol_map));
    let mut s = serde_json::to_string_pretty(&Value::Object(root))
        .map_err(|e| format!("serializing golden stats: {e}"))?;
    s.push('\n');
    Ok(s)
}

/// Parses a golden stats file.
///
/// # Errors
/// Returns a description of the first malformed field.
pub fn parse_golden(text: &str) -> Result<GoldenStats, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let counters_obj = root
        .get("counters")
        .and_then(Value::as_object)
        .ok_or("golden file has no `counters` object")?;
    let mut counters = Vec::with_capacity(counters_obj.len());
    for (name, v) in counters_obj {
        let value = v
            .as_u64()
            .ok_or_else(|| format!("counter `{name}` is not a non-negative integer"))?;
        counters.push((name.clone(), value));
    }

    let mut tolerance = Tolerance {
        default_rel: 0.0,
        per_counter_rel: Vec::new(),
    };
    if let Some(tol) = root.get("tolerance") {
        if let Some(d) = tol.get("default_rel") {
            tolerance.default_rel = d.as_f64().ok_or("tolerance.default_rel is not a number")?;
        }
        if let Some(per) = tol.get("per_counter_rel") {
            let per = per
                .as_object()
                .ok_or("tolerance.per_counter_rel is not an object")?;
            for (k, v) in per {
                let t = v
                    .as_f64()
                    .ok_or_else(|| format!("tolerance for `{k}` is not a number"))?;
                tolerance.per_counter_rel.push((k.clone(), t));
            }
        }
    }
    Ok(GoldenStats {
        counters,
        tolerance,
    })
}

fn rel_diff(expected: u64, actual: u64) -> f64 {
    if expected == actual {
        0.0
    } else if expected == 0 {
        f64::INFINITY
    } else {
        (actual as f64 - expected as f64).abs() / expected as f64
    }
}

/// Diffs a live snapshot against a golden file. Returns every counter
/// outside tolerance, in name order; empty means the gate passes.
pub fn compare(snap: &obs::Snapshot, golden: &GoldenStats) -> Vec<Drift> {
    let live = snap.entries();
    let mut drifts = Vec::new();
    for (name, expected) in &golden.counters {
        let tol = golden.tolerance.for_counter(name);
        match live.iter().find(|(n, _)| n == name) {
            Some(&(_, actual)) => {
                let rel = rel_diff(*expected, actual);
                if rel > tol {
                    drifts.push(Drift {
                        name: name.clone(),
                        expected: Some(*expected),
                        actual: Some(actual),
                        rel,
                        tol,
                    });
                }
            }
            None => drifts.push(Drift {
                name: name.clone(),
                expected: Some(*expected),
                actual: None,
                rel: f64::INFINITY,
                tol,
            }),
        }
    }
    // A counter the golden file has never seen is also drift: it means the
    // schema grew and the golden must be regenerated deliberately.
    for (name, actual) in live {
        if !golden.counters.iter().any(|(n, _)| n == name) {
            drifts.push(Drift {
                name: name.to_string(),
                expected: None,
                actual: Some(actual),
                rel: f64::INFINITY,
                tol: golden.tolerance.for_counter(name),
            });
        }
    }
    drifts.sort_by(|a, b| a.name.cmp(&b.name));
    drifts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_with(event: obs::Event, value: u64) -> obs::Snapshot {
        let reg = obs::Registry::new();
        reg.record(event, value);
        reg.snapshot()
    }

    #[test]
    fn metrics_json_is_sorted_and_complete() {
        let s = metrics_json(&snap_with(obs::Event::IntersectCalls, 7)).unwrap();
        let parsed: Value = serde_json::from_str(&s).unwrap();
        let counters = parsed.get("counters").unwrap().as_object().unwrap();
        assert_eq!(counters.len(), obs::Event::COUNT);
        let keys: Vec<&String> = counters.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(parsed["counters"]["intersect.calls"].as_u64(), Some(7));
        assert_eq!(parsed["counters"]["intersect.steps"].as_u64(), Some(0));
    }

    #[test]
    fn golden_roundtrip_preserves_tolerances() {
        let snap = snap_with(obs::Event::IntersectSteps, 10);
        let text = golden_json(&snap, None).unwrap();
        let golden = parse_golden(&text).unwrap();
        assert_eq!(golden.tolerance.default_rel, 0.0);
        assert_eq!(golden.tolerance.for_counter("energy.dram_fj"), 1e-6);
        assert_eq!(golden.tolerance.for_counter("intersect.steps"), 0.0);
        assert!(compare(&snap, &golden).is_empty());

        // Regenerating from a prior golden keeps a customized tolerance.
        let mut custom = golden.clone();
        custom
            .tolerance
            .per_counter_rel
            .push(("intersect.steps".to_string(), 0.5));
        let regen = parse_golden(&golden_json(&snap, Some(&custom)).unwrap()).unwrap();
        assert_eq!(regen.tolerance.for_counter("intersect.steps"), 0.5);
    }

    #[test]
    fn wildcard_prefers_longest_prefix_and_exact_match() {
        let tol = Tolerance {
            default_rel: 0.1,
            per_counter_rel: vec![
                ("energy.*".to_string(), 1e-6),
                ("energy.dram_fj".to_string(), 1e-3),
                ("energy.atom*".to_string(), 1e-4),
            ],
        };
        assert_eq!(tol.for_counter("energy.dram_fj"), 1e-3); // exact wins
        assert_eq!(tol.for_counter("energy.atom_mult_fj"), 1e-4); // longest prefix
        assert_eq!(tol.for_counter("energy.leakage_fj"), 1e-6); // short prefix
        assert_eq!(tol.for_counter("intersect.calls"), 0.1); // default
    }

    #[test]
    fn compare_flags_out_of_tolerance_counters() {
        let golden =
            parse_golden(&golden_json(&snap_with(obs::Event::IntersectCalls, 100), None).unwrap())
                .unwrap();
        let drift = compare(&snap_with(obs::Event::IntersectCalls, 101), &golden);
        assert_eq!(drift.len(), 1);
        assert_eq!(drift[0].name, "intersect.calls");
        assert_eq!(drift[0].expected, Some(100));
        assert_eq!(drift[0].actual, Some(101));
        assert!(drift[0].rel > 0.009 && drift[0].rel < 0.011);
        // An exact match passes.
        assert!(compare(&snap_with(obs::Event::IntersectCalls, 100), &golden).is_empty());
    }

    #[test]
    fn tolerance_absorbs_small_energy_drift() {
        let golden = parse_golden(
            &golden_json(&snap_with(obs::Event::EnergyDramFj, 1_000_000_000), None).unwrap(),
        )
        .unwrap();
        // One part in 10^9 is inside the 1e-6 energy tolerance...
        assert!(compare(&snap_with(obs::Event::EnergyDramFj, 1_000_000_001), &golden).is_empty());
        // ...one part in 10^3 is not.
        let drift = compare(&snap_with(obs::Event::EnergyDramFj, 1_001_000_000), &golden);
        assert_eq!(drift.len(), 1);
        assert_eq!(drift[0].tol, 1e-6);
    }

    #[test]
    fn missing_and_unknown_counters_are_drift() {
        let snap = snap_with(obs::Event::IntersectCalls, 1);
        let mut golden = parse_golden(&golden_json(&snap, None).unwrap()).unwrap();
        // Remove one counter and invent another.
        golden.counters.retain(|(n, _)| n != "intersect.calls");
        golden.counters.push(("intersect.retired".to_string(), 5));
        let drift = compare(&snap, &golden);
        let names: Vec<&str> = drift.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["intersect.calls", "intersect.retired"]);
        assert!(drift[0].expected.is_none()); // live-only counter
        assert!(drift[1].actual.is_none()); // golden-only counter
                                            // Both render without panicking.
        for d in &drift {
            assert!(!d.to_string().is_empty());
        }
    }

    #[test]
    fn parse_rejects_malformed_goldens() {
        assert!(parse_golden("not json").is_err());
        assert!(parse_golden("{}").is_err());
        assert!(parse_golden(r#"{"counters": {"a": -1}}"#).is_err());
        assert!(parse_golden(r#"{"counters": {"a": 1.5}}"#).is_err());
        assert!(parse_golden(r#"{"counters": {}, "tolerance": {"default_rel": "x"}}"#).is_err());
    }
}
