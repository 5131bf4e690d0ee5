//! Cycle-level simulation of one Ristretto compute tile (§IV-C).
//!
//! Models the Atomizer → Atomputer → Atomulator → accumulate-buffer
//! pipeline per cycle:
//!
//! * the Atomizer emits one non-zero activation atom per cycle (zero values
//!   never reach it, so it never starves);
//! * the Atomputer is a systolic chain of `N` multipliers holding one
//!   static weight atom each; an activation atom enters at the left and
//!   shifts right one lane per cycle, so lane `j` processes atom `s − j`
//!   in step `s`; ping-pong weight registers overlap a segment's drain
//!   with the next segment's fill (only the final drain is exposed);
//! * on an activation's last atom, each lane delivers its accumulated
//!   partial to the Atomulator, which routes it through a crossbar to the
//!   accumulate-buffer bank of the weight atom's output channel; each bank
//!   retires one write per cycle, excess queues in a FIFO of configurable
//!   depth, and a full FIFO stalls the pipeline.
//!
//! The channel-first stream shuffle (§IV-C2) makes concurrent deliveries
//! target distinct banks, which is why the shuffled order shows (near-)zero
//! stalls while a naive order backs up — the test suite demonstrates both.

use crate::config::{ConfigError, RistrettoConfig};
use crate::fault::{
    fold_delivery, FaultInjector, FaultSite, FaultStructure, FifoAction, FifoCheck,
};
use atomstream::cycles::ideal_steps;
use atomstream::stream::{ActivationStream, WeightStream};
use serde::{Deserialize, Serialize};

/// Counters produced by a cycle-level tile run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileReport {
    /// Total cycles including stalls.
    pub cycles: u64,
    /// Cycles lost to crossbar/FIFO backpressure.
    pub stall_cycles: u64,
    /// Effectual atom multiplications.
    pub atom_mults: u64,
    /// Deliveries routed to the accumulate buffer.
    pub deliveries: u64,
    /// Same-cycle deliveries that collided on one accumulate-buffer bank
    /// (each collision queues one entry in that bank's FIFO).
    pub crossbar_conflicts: u64,
    /// Deepest FIFO occupancy observed.
    pub max_queue: usize,
}

impl TileReport {
    /// Ideal (stall-free) cycles.
    pub fn ideal_cycles(&self) -> u64 {
        self.cycles - self.stall_cycles
    }
}

/// A cycle-level compute-tile simulator.
#[derive(Debug, Clone)]
pub struct TileSim {
    multipliers: usize,
    fifo_depth: usize,
    banks: usize,
}

impl TileSim {
    /// Builds a tile simulator from an architecture configuration.
    ///
    /// # Errors
    /// Returns the [`ConfigError`] describing the inconsistency.
    pub fn try_new(cfg: &RistrettoConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Self {
            multipliers: cfg.multipliers,
            fifo_depth: cfg.fifo_depth,
            banks: cfg.multipliers, // §IV-C4: bank count = static stream length
        })
    }

    /// Runs one channel's static weight stream against one tile's
    /// activation stream, cycle by cycle.
    pub fn run(&self, weights: &WeightStream, acts: &ActivationStream) -> TileReport {
        self.run_inner(weights, acts, None).0
    }

    /// Fault-aware variant of [`TileSim::run`]: Atomulator FIFO entries may
    /// be dropped or duplicated at the configured rate, and the returned
    /// [`FifoCheck`] carries the enqueue-accounting monitor's verdict.
    /// `site.item` is overwritten with the running delivery ordinal.
    ///
    /// With a quiescent injector the report is byte-identical to
    /// [`TileSim::run`] on the same streams.
    pub fn run_faulty(
        &self,
        weights: &WeightStream,
        acts: &ActivationStream,
        injector: &FaultInjector,
        site: FaultSite,
    ) -> (TileReport, FifoCheck) {
        self.run_inner(weights, acts, Some((injector, site)))
    }

    fn run_inner(
        &self,
        weights: &WeightStream,
        acts: &ActivationStream,
        fault: Option<(&FaultInjector, FaultSite)>,
    ) -> (TileReport, FifoCheck) {
        let mut report = TileReport::default();
        let mut check = FifoCheck::default();
        let t = acts.len();
        let s = weights.len();
        if t == 0 || s == 0 {
            return (report, check);
        }

        let mut queues = vec![0usize; self.banks];
        // Running delivery ordinal; doubles as the per-item fault site and
        // the index folded into the enqueue-accounting digests.
        let mut delivery_idx: u64 = 0;
        // Per-cycle bank-collision detection without clearing a bitmap
        // every step: a bank "has a delivery this cycle" iff its stamp
        // equals the current step's stamp.
        let mut bank_stamp = vec![0u64; self.banks];
        let mut stamp = 0u64;
        let segments: Vec<_> = weights.entries().chunks(self.multipliers).collect();
        let last_seg = segments.len() - 1;

        // Every segment runs its full t + L - 1 systolic steps, but the
        // drain of segment i overlaps the fill of segment i+1 (ping-pong
        // weight registers), so only the last segment's drain costs time.
        let mut overlapped: u64 = 0;
        for (seg_idx, segment) in segments.iter().enumerate() {
            if seg_idx != last_seg {
                overlapped += segment.len() as u64 - 1;
            }
            for step in 0..(t + segment.len() - 1) {
                report.cycles += 1;
                stamp += 1;
                // Lane j processes activation atom (step - j).
                let mut delivered_this_cycle: Vec<usize> = Vec::new();
                for (j, w) in segment.iter().enumerate() {
                    let Some(ai) = step.checked_sub(j) else { break };
                    if ai >= t {
                        continue;
                    }
                    let a = &acts.entries()[ai];
                    report.atom_mults += 1;
                    if a.atom.last {
                        let bank = w.out_ch as usize % self.banks;
                        if bank_stamp[bank] == stamp {
                            report.crossbar_conflicts += 1;
                        } else {
                            bank_stamp[bank] = stamp;
                        }
                        delivered_this_cycle.push(bank);
                        report.deliveries += 1;
                    }
                }
                // Crossbar + banks: each bank retires one write per cycle;
                // surplus sits in FIFOs; overflow stalls the pipe until the
                // deepest queue drains back to the FIFO depth.
                for q in queues.iter_mut() {
                    *q = q.saturating_sub(1);
                }
                for bank in delivered_this_cycle {
                    match fault {
                        None => queues[bank] += 1,
                        Some((injector, site)) => {
                            // What the Atomputer handed the crossbar…
                            check.expected_digest =
                                fold_delivery(check.expected_digest, delivery_idx, bank as u64);
                            let fault_site = FaultSite {
                                item: delivery_idx as usize,
                                ..site
                            };
                            // …versus what the FIFO actually enqueued.
                            match injector.decide(FaultStructure::Fifo, fault_site) {
                                None => {
                                    queues[bank] += 1;
                                    check.actual_digest = fold_delivery(
                                        check.actual_digest,
                                        delivery_idx,
                                        bank as u64,
                                    );
                                }
                                Some(entropy) => {
                                    check.injected += 1;
                                    match FaultInjector::fifo_action(entropy) {
                                        FifoAction::Drop => {}
                                        FifoAction::Duplicate => {
                                            queues[bank] += 2;
                                            for _ in 0..2 {
                                                check.actual_digest = fold_delivery(
                                                    check.actual_digest,
                                                    delivery_idx,
                                                    bank as u64,
                                                );
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                    delivery_idx += 1;
                }
                let deepest = queues.iter().copied().max().unwrap_or(0);
                report.max_queue = report.max_queue.max(deepest);
                if deepest > self.fifo_depth {
                    let stall = (deepest - self.fifo_depth) as u64;
                    report.stall_cycles += stall;
                    report.cycles += stall;
                    for q in queues.iter_mut() {
                        *q = q.saturating_sub(stall as usize);
                    }
                }
            }
        }
        // Account the trailing drain of in-flight FIFO entries, then credit
        // the overlapped segment drains back.
        let residue = queues.iter().copied().max().unwrap_or(0) as u64;
        report.cycles += residue;
        report.cycles -= overlapped;
        obs::record(obs::Event::AtomputerCycles, report.cycles);
        obs::record(obs::Event::AtomputerAtomMults, report.atom_mults);
        obs::record(obs::Event::AtomulatorDeliveries, report.deliveries);
        obs::record(
            obs::Event::AtomulatorCrossbarConflicts,
            report.crossbar_conflicts,
        );
        obs::record(obs::Event::AtomulatorStallCycles, report.stall_cycles);
        obs::record(obs::Event::AtomulatorFifoHighwater, report.max_queue as u64);
        (report, check)
    }

    /// Ideal step count for this tile per the paper's Eq 3.
    pub fn ideal(&self, t: u64, s: u64) -> u64 {
        ideal_steps(t, s, self.multipliers as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomstream::atom::AtomBits;
    use atomstream::compress::{compress_activations, compress_weights, compress_weights_naive};
    use atomstream::flatten::{FlatActivation, FlatWeight};
    use qnn::rng::SeededRng;

    fn random_streams(
        seed: u64,
        n_acts: usize,
        n_weights: usize,
        out_chans: u16,
        shuffled: bool,
    ) -> (WeightStream, ActivationStream) {
        let mut rng = SeededRng::new(seed);
        let mut fa = Vec::new();
        for i in 0..n_acts {
            let v = 1 + rng.below(255) as i32;
            fa.push(FlatActivation {
                value: v,
                x: (i % 8) as u16,
                y: (i / 8 % 8) as u16,
            });
        }
        let mut fw = Vec::new();
        for _ in 0..n_weights {
            let m = 1 + rng.below(127) as i32;
            let v = if rng.bernoulli(0.5) { -m } else { m };
            fw.push(FlatWeight {
                value: v,
                x: rng.below(3) as u16,
                y: rng.below(3) as u16,
                out_ch: rng.below(out_chans as usize) as u16,
            });
        }
        let acts = compress_activations(&fa, 8, AtomBits::B2).unwrap();
        let weights = if shuffled {
            compress_weights(&fw, 8, AtomBits::B2).unwrap()
        } else {
            compress_weights_naive(&fw, 8, AtomBits::B2).unwrap()
        };
        (weights, acts)
    }

    fn cfg(multipliers: usize) -> RistrettoConfig {
        RistrettoConfig {
            multipliers,
            ..RistrettoConfig::paper_default()
        }
    }

    #[test]
    fn matches_eq3_when_stall_free() {
        let (w, a) = random_streams(3, 20, 40, 32, true);
        let sim = TileSim::try_new(&cfg(32)).unwrap();
        let r = sim.run(&w, &a);
        let ideal = sim.ideal(a.len() as u64, w.len() as u64);
        assert_eq!(r.atom_mults, a.len() as u64 * w.len() as u64);
        // Stall-free cycles equal Eq 3 up to the FIFO residue drain.
        assert!(r.ideal_cycles() >= ideal);
        assert!(
            r.ideal_cycles() <= ideal + sim.banks as u64,
            "{} vs {ideal}",
            r.ideal_cycles()
        );
    }

    #[test]
    fn shuffled_stream_stalls_no_more_than_naive() {
        // Many weight atoms on few output channels maximize contention.
        let (w_shuf, a) = random_streams(7, 24, 64, 4, true);
        let (w_naive, _) = random_streams(7, 24, 64, 4, false);
        let sim = TileSim::try_new(&cfg(16)).unwrap();
        let rs = sim.run(&w_shuf, &a);
        let rn = sim.run(&w_naive, &a);
        assert_eq!(rs.atom_mults, rn.atom_mults);
        assert_eq!(rs.deliveries, rn.deliveries);
        assert!(
            rs.stall_cycles <= rn.stall_cycles,
            "{} vs {}",
            rs.stall_cycles,
            rn.stall_cycles
        );
        // The channel-first shuffle spreads same-cycle deliveries across
        // banks, so it can only reduce crossbar collisions.
        assert!(
            rs.crossbar_conflicts <= rn.crossbar_conflicts,
            "{} vs {}",
            rs.crossbar_conflicts,
            rn.crossbar_conflicts
        );
    }

    #[test]
    fn contended_banks_report_crossbar_conflicts() {
        // A single output channel forces every delivery into one bank, so
        // any cycle with two deliveries is a conflict.
        let (w, a) = random_streams(17, 24, 48, 1, true);
        let sim = TileSim::try_new(&cfg(16)).unwrap();
        let r = sim.run(&w, &a);
        assert!(r.crossbar_conflicts > 0, "expected bank collisions");
        // Each conflict queues one entry; none can exceed the delivery count.
        assert!(r.crossbar_conflicts < r.deliveries);
    }

    #[test]
    fn empty_streams_cost_nothing() {
        let sim = TileSim::try_new(&cfg(8)).unwrap();
        let (w, _) = random_streams(1, 4, 4, 2, true);
        let empty_a = ActivationStream::default();
        assert_eq!(sim.run(&w, &empty_a), TileReport::default());
        let (_, a) = random_streams(1, 4, 4, 2, true);
        let empty_w = WeightStream::default();
        assert_eq!(sim.run(&empty_w, &a), TileReport::default());
    }

    #[test]
    fn deliveries_equal_values_times_weight_atoms() {
        let (w, a) = random_streams(11, 16, 24, 32, true);
        let sim = TileSim::try_new(&cfg(32)).unwrap();
        let r = sim.run(&w, &a);
        assert_eq!(r.deliveries, a.value_count() as u64 * w.len() as u64);
    }

    #[test]
    fn quiescent_injector_is_byte_identical_to_clean_run() {
        use crate::fault::{FaultConfig, FaultInjector, FaultSite};
        let (w, a) = random_streams(19, 24, 48, 8, true);
        let sim = TileSim::try_new(&cfg(16)).unwrap();
        let clean = sim.run(&w, &a);
        let injector = FaultInjector::new(FaultConfig::quiescent(42));
        let site = FaultSite {
            layer: 0,
            channel: 0,
            tile: 0,
            attempt: 0,
            item: 0,
        };
        let (faulty, check) = sim.run_faulty(&w, &a, &injector, site);
        assert_eq!(faulty, clean);
        assert_eq!(check.injected, 0);
        assert!(!check.detected());
        // Every delivery is folded into both digests, so they agree and
        // are non-trivial.
        assert_eq!(check.expected_digest, check.actual_digest);
        assert_ne!(check.expected_digest, 0);
    }

    #[test]
    fn fifo_faults_are_detected_and_deterministic() {
        use crate::fault::{FaultConfig, FaultInjector, FaultSite, FaultStructure};
        let (w, a) = random_streams(23, 32, 64, 8, true);
        let sim = TileSim::try_new(&cfg(16)).unwrap();
        // A high rate guarantees at least one drop/duplicate in ~1.5k
        // deliveries.
        let cfg_f = FaultConfig::quiescent(7).with_rate(FaultStructure::Fifo, 20_000);
        let injector = FaultInjector::new(cfg_f);
        let site = FaultSite {
            layer: 2,
            channel: 1,
            tile: 3,
            attempt: 0,
            item: 0,
        };
        let (r1, c1) = sim.run_faulty(&w, &a, &injector, site);
        assert!(c1.injected > 0, "expected FIFO faults at 2% rate");
        assert!(c1.detected(), "drop/duplicate must skew the digests");
        // Byte-determinism: the same site re-rolls identically.
        let (r2, c2) = sim.run_faulty(&w, &a, &injector, site);
        assert_eq!(r1, r2);
        assert_eq!(c1, c2);
        // A different attempt re-rolls the fault pattern.
        let retry_site = FaultSite { attempt: 1, ..site };
        let (_, c3) = sim.run_faulty(&w, &a, &injector, retry_site);
        assert_eq!(c3.expected_digest, c1.expected_digest);
        assert_ne!(
            (c3.injected, c3.actual_digest),
            (c1.injected, c1.actual_digest),
            "attempt must be part of the fault site"
        );
    }

    #[test]
    fn deeper_fifo_never_hurts() {
        let (w, a) = random_streams(13, 32, 48, 2, true);
        let mut shallow_cfg = cfg(16);
        shallow_cfg.fifo_depth = 1;
        let mut deep_cfg = cfg(16);
        deep_cfg.fifo_depth = 64;
        let shallow = TileSim::try_new(&shallow_cfg).unwrap().run(&w, &a);
        let deep = TileSim::try_new(&deep_cfg).unwrap().run(&w, &a);
        assert!(deep.stall_cycles <= shallow.stall_cycles);
        assert!(deep.cycles <= shallow.cycles);
    }
}
