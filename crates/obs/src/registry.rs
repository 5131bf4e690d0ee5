//! The counter registry: one atomic cell per [`Event`], plus immutable
//! [`Snapshot`]s with deterministic merge semantics.

use crate::event::{Event, Kind};
use std::sync::atomic::{AtomicU64, Ordering};

/// A set of counters, one per [`Event`].
///
/// All operations are lock-free relaxed atomics. `Sum` counters add and
/// `Max` counters take the running maximum — both commutative, so the
/// final values never depend on thread interleaving.
#[derive(Debug)]
pub struct Registry {
    counters: [AtomicU64; Event::COUNT],
}

impl Registry {
    /// A zeroed registry.
    pub const fn new() -> Self {
        Self {
            counters: [const { AtomicU64::new(0) }; Event::COUNT],
        }
    }

    /// Records `n` occurrences of `event` according to its [`Kind`].
    #[inline]
    pub fn record(&self, event: Event, n: u64) {
        let cell = &self.counters[event.index()];
        match event.kind() {
            Kind::Sum => {
                cell.fetch_add(n, Ordering::Relaxed);
            }
            Kind::Max => {
                cell.fetch_max(n, Ordering::Relaxed);
            }
        }
    }

    /// Current value of one counter.
    pub fn get(&self, event: Event) -> u64 {
        self.counters[event.index()].load(Ordering::Relaxed)
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        for cell in &self.counters {
            cell.store(0, Ordering::Relaxed);
        }
    }

    /// An immutable copy of the current counter values.
    pub fn snapshot(&self) -> Snapshot {
        let mut values = [0u64; Event::COUNT];
        for (v, cell) in values.iter_mut().zip(&self.counters) {
            *v = cell.load(Ordering::Relaxed);
        }
        Snapshot { values }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// A frozen copy of all counter values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    values: [u64; Event::COUNT],
}

impl Snapshot {
    /// An all-zero snapshot.
    pub fn zero() -> Self {
        Self {
            values: [0; Event::COUNT],
        }
    }

    /// Value of one counter.
    pub fn get(&self, event: Event) -> u64 {
        self.values[event.index()]
    }

    /// Merges another snapshot into this one, respecting each counter's
    /// [`Kind`]: sums add, highwater marks take the maximum. Merging is
    /// commutative and associative, so partial snapshots can be combined
    /// in any order without changing the result.
    pub fn merge(&mut self, other: &Snapshot) {
        for event in Event::ALL {
            let i = event.index();
            match event.kind() {
                Kind::Sum => self.values[i] += other.values[i],
                Kind::Max => self.values[i] = self.values[i].max(other.values[i]),
            }
        }
    }

    /// `(name, value)` pairs sorted by counter name — the canonical order
    /// of the metrics JSON. Every defined counter appears, including
    /// zero-valued ones, so the schema is stable run to run.
    pub fn entries(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Event::ALL
            .iter()
            .map(|e| (e.name(), self.values[e.index()]))
            .collect();
        out.sort_unstable_by_key(|&(name, _)| name);
        out
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }
}

impl Default for Snapshot {
    fn default() -> Self {
        Self::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_sum_and_max() {
        let r = Registry::new();
        r.record(Event::IntersectAtomMults, 3);
        r.record(Event::IntersectAtomMults, 4);
        assert_eq!(r.get(Event::IntersectAtomMults), 7);
        r.record(Event::AtomulatorFifoHighwater, 5);
        r.record(Event::AtomulatorFifoHighwater, 2);
        assert_eq!(r.get(Event::AtomulatorFifoHighwater), 5);
    }

    #[test]
    fn reset_zeroes_everything() {
        let r = Registry::new();
        for e in Event::ALL {
            r.record(e, 9);
        }
        assert!(!r.snapshot().is_zero());
        r.reset();
        assert!(r.snapshot().is_zero());
        assert_eq!(r.get(Event::BalanceInvocations), 0);
    }

    #[test]
    fn snapshot_merge_respects_kinds() {
        let r1 = Registry::new();
        r1.record(Event::IntersectSteps, 10);
        r1.record(Event::ServeBatchMax, 3);
        let r2 = Registry::new();
        r2.record(Event::IntersectSteps, 5);
        r2.record(Event::ServeBatchMax, 7);
        let mut a = r1.snapshot();
        a.merge(&r2.snapshot());
        assert_eq!(a.get(Event::IntersectSteps), 15); // sums add
        assert_eq!(a.get(Event::ServeBatchMax), 7); // maxes take max
    }

    #[test]
    fn merge_is_commutative() {
        let r1 = Registry::new();
        r1.record(Event::CompressActAtoms, 11);
        r1.record(Event::AtomulatorFifoHighwater, 2);
        let r2 = Registry::new();
        r2.record(Event::CompressActAtoms, 22);
        r2.record(Event::AtomulatorFifoHighwater, 9);
        let mut ab = r1.snapshot();
        ab.merge(&r2.snapshot());
        let mut ba = r2.snapshot();
        ba.merge(&r1.snapshot());
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_with_zero_is_identity() {
        let r = Registry::new();
        r.record(Event::BalanceIdleCycles, 42);
        let snap = r.snapshot();
        let mut merged = snap.clone();
        merged.merge(&Snapshot::zero());
        assert_eq!(merged, snap);
    }

    #[test]
    fn entries_are_sorted_and_complete() {
        let r = Registry::new();
        r.record(Event::HwmodelDramRequests, 1);
        let entries = r.snapshot().entries();
        assert_eq!(entries.len(), Event::COUNT);
        for pair in entries.windows(2) {
            assert!(pair[0].0 < pair[1].0, "unsorted: {:?}", pair);
        }
        assert!(entries
            .iter()
            .any(|&(n, v)| n == "hwmodel.dram_requests" && v == 1));
    }
}
