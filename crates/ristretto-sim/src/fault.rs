//! Deterministic fault injection, online detection and recovery accounting.
//!
//! The Ristretto dataflow is a chain of stateful structures — the packed
//! weight-buffer records of §IV-B, the in-flight weight/activation atom
//! streams of §III-B, the Atomulator crossbar FIFOs and the accumulate
//! buffer of §IV-C4. This module perturbs each of them *deterministically*:
//! every injection decision is a pure function of the campaign seed and the
//! fault site's logical coordinates (structure, layer, channel, tile,
//! attempt, item), never of a shared stateful RNG, so a campaign is
//! byte-identical at any `rayon` thread count and a retried tile attempt
//! (which bumps `attempt`) re-rolls its faults instead of deterministically
//! re-faulting.
//!
//! Corruption is restricted to *value* bits — the atom magnitude byte and,
//! for weights, the sign bit. Coordinate and flag bits are assumed covered
//! by the hardware's address validator (`comp` range checks at the
//! accumulate buffer), which the functional model already enforces as
//! asserts; the interesting silent-corruption space is the value bits that
//! no address check can see.
//!
//! Detection uses three online monitors, each realizable in hardware as an
//! incrementally-maintained register:
//!
//! * **stream checksums** — the FNV-1a digests recorded by
//!   [`atomstream::conv_csc::WeightStreamSet::compile`] and recomputed
//!   before every intersection;
//! * **conservation** — one intersection adds exactly
//!   `weight_term_sum · act_value_sum` to the accumulator plane
//!   (distributivity of the Eq 1 delivery schedule), checked in `i128`;
//! * **order-sensitive digests** — a running hash over accumulate-buffer
//!   deliveries (and FIFO enqueues) that catches the rare pair of faults
//!   whose contributions cancel in a plain sum.

use crate::config::RistrettoConfig;
use atomstream::stream::{ActEntry, WeightEntry};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Denominator of every per-structure fault rate: faults per million
/// opportunities.
pub const PPM: u32 = 1_000_000;

/// The five injectable structures of the Ristretto pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultStructure {
    /// Packed 32-bit records in the weight-buffer image (§IV-B): a flip in
    /// a record's magnitude or sign field, surfaced when the record is
    /// streamed to a tile.
    WeightBuffer,
    /// An in-flight weight atom stream entry between buffer and Atomputer.
    WeightStream,
    /// An in-flight activation atom stream entry out of the Atomizer.
    ActivationStream,
    /// A word of the accumulate buffer (§IV-C4).
    AccumBuffer,
    /// An Atomulator crossbar FIFO entry, dropped or duplicated.
    Fifo,
}

impl FaultStructure {
    /// Every structure, in reporting order.
    pub const ALL: [FaultStructure; 5] = [
        FaultStructure::WeightBuffer,
        FaultStructure::WeightStream,
        FaultStructure::ActivationStream,
        FaultStructure::AccumBuffer,
        FaultStructure::Fifo,
    ];

    /// Stable dotted-name fragment used in reports and counters.
    pub fn name(self) -> &'static str {
        match self {
            FaultStructure::WeightBuffer => "weight_buffer",
            FaultStructure::WeightStream => "weight_stream",
            FaultStructure::ActivationStream => "act_stream",
            FaultStructure::AccumBuffer => "accum",
            FaultStructure::Fifo => "fifo",
        }
    }

    /// Hash-domain separator; arbitrary but fixed per structure.
    fn discriminant(self) -> u64 {
        match self {
            FaultStructure::WeightBuffer => 0x11,
            FaultStructure::WeightStream => 0x22,
            FaultStructure::ActivationStream => 0x33,
            FaultStructure::AccumBuffer => 0x44,
            FaultStructure::Fifo => 0x55,
        }
    }
}

impl fmt::Display for FaultStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of a deterministic fault-injection campaign, carried on
/// [`RistrettoConfig::faults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Campaign seed; two runs with equal seeds and equal workloads inject
    /// byte-identical faults at any thread count.
    pub seed: u64,
    /// Weight-buffer record flips per million streamed records.
    pub weight_buffer_ppm: u32,
    /// Weight-stream entry flips per million streamed entries.
    pub weight_stream_ppm: u32,
    /// Activation-stream entry flips per million streamed entries.
    pub act_stream_ppm: u32,
    /// Accumulate-buffer word flips per million words written.
    pub accum_ppm: u32,
    /// FIFO entries dropped/duplicated per million deliveries.
    pub fifo_ppm: u32,
    /// Whether the online detection monitors run.
    pub detect: bool,
    /// Whether detected faults trigger tile re-execution (and, on retry
    /// exhaustion, the per-layer dense fallback in `Session::run`).
    pub recover: bool,
    /// Tile re-executions allowed per `(layer, channel, tile)` before the
    /// layer falls back to the dense reference path.
    pub retry_budget: u32,
}

impl FaultConfig {
    /// A campaign with one uniform rate across all five structures,
    /// detection and recovery enabled, and a retry budget of 3.
    pub fn uniform(seed: u64, ppm: u32) -> Self {
        Self {
            seed,
            weight_buffer_ppm: ppm,
            weight_stream_ppm: ppm,
            act_stream_ppm: ppm,
            accum_ppm: ppm,
            fifo_ppm: ppm,
            detect: true,
            recover: true,
            retry_budget: 3,
        }
    }

    /// A campaign that injects nothing (useful as a base for builders).
    pub fn quiescent(seed: u64) -> Self {
        Self::uniform(seed, 0)
    }

    /// Returns a copy with one structure's rate replaced.
    pub fn with_rate(mut self, structure: FaultStructure, ppm: u32) -> Self {
        match structure {
            FaultStructure::WeightBuffer => self.weight_buffer_ppm = ppm,
            FaultStructure::WeightStream => self.weight_stream_ppm = ppm,
            FaultStructure::ActivationStream => self.act_stream_ppm = ppm,
            FaultStructure::AccumBuffer => self.accum_ppm = ppm,
            FaultStructure::Fifo => self.fifo_ppm = ppm,
        }
        self
    }

    /// Returns a copy with detection toggled.
    pub fn with_detect(mut self, detect: bool) -> Self {
        self.detect = detect;
        self
    }

    /// Returns a copy with recovery toggled.
    pub fn with_recover(mut self, recover: bool) -> Self {
        self.recover = recover;
        self
    }

    /// The campaign with detection and recovery both forced on — the
    /// degraded-mode override the serving circuit breaker re-runs open-lane
    /// batches under, so even a detect-only campaign completes instead of
    /// erroring out of the scheduler. Injection sites and the seed are
    /// untouched: the same faults fire, they are just always contained.
    pub fn forced_recovery(self) -> Self {
        self.with_detect(true).with_recover(true)
    }

    /// The injection rate for one structure, in ppm.
    pub fn rate(&self, structure: FaultStructure) -> u32 {
        match structure {
            FaultStructure::WeightBuffer => self.weight_buffer_ppm,
            FaultStructure::WeightStream => self.weight_stream_ppm,
            FaultStructure::ActivationStream => self.act_stream_ppm,
            FaultStructure::AccumBuffer => self.accum_ppm,
            FaultStructure::Fifo => self.fifo_ppm,
        }
    }

    /// The largest configured per-structure rate (validation helper).
    pub fn max_rate(&self) -> u32 {
        FaultStructure::ALL
            .iter()
            .map(|&s| self.rate(s))
            .max()
            .unwrap_or(0)
    }
}

/// A fault site's logical coordinates. Injection decisions are pure
/// functions of these coordinates plus the seed, which is what makes
/// campaigns thread-count invariant: the same site always rolls the same
/// fault no matter which worker thread visits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// Layer index within the network.
    pub layer: usize,
    /// Input channel within the layer.
    pub channel: usize,
    /// Logical tile index, `(y0 / tile_h) · tiles_x + (x0 / tile_w)` —
    /// grid position, not enumeration order.
    pub tile: usize,
    /// Execution attempt for this `(layer, channel, tile)`; retries bump it
    /// so a re-execution re-rolls its faults.
    pub attempt: u32,
    /// Item index within the structure (stream entry, accumulator word or
    /// delivery ordinal).
    pub item: usize,
}

/// A typed detection event: which structure faulted, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultDetected {
    /// The structure whose monitor fired.
    pub structure: FaultStructure,
    /// Layer index within the network.
    pub layer: usize,
    /// Input channel within the layer (0 for whole-tile-group monitors).
    pub channel: usize,
    /// Logical tile index the fault was contained to.
    pub tile: usize,
    /// Attempts consumed for this tile, including the detecting one.
    pub attempts: u32,
}

impl fmt::Display for FaultDetected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault detected in {} at layer {} channel {} tile {} after {} attempt(s)",
            self.structure, self.layer, self.channel, self.tile, self.attempts
        )
    }
}

impl Error for FaultDetected {}

/// What a FIFO fault does to the targeted delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FifoAction {
    /// The delivery never enters the bank FIFO.
    Drop,
    /// The delivery is enqueued twice.
    Duplicate,
}

/// Per-run fault accounting, returned on `SessionRun` and aggregated by
/// the chaos harness. All-zero when injection is disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Weight-buffer record flips injected.
    pub injected_weight_buffer: u64,
    /// Weight-stream entry flips injected.
    pub injected_weight_stream: u64,
    /// Activation-stream entry flips injected.
    pub injected_act_stream: u64,
    /// Accumulate-buffer word flips injected.
    pub injected_accum: u64,
    /// FIFO deliveries dropped or duplicated.
    pub injected_fifo: u64,
    /// Weight-buffer faults caught by the checksum monitor.
    pub detected_weight_buffer: u64,
    /// Weight-stream faults caught by the checksum monitor.
    pub detected_weight_stream: u64,
    /// Activation-stream faults caught by the checksum monitor.
    pub detected_act_stream: u64,
    /// Accumulate-buffer faults caught by conservation/digest monitors.
    pub detected_accum: u64,
    /// FIFO faults caught by the enqueue-accounting monitor.
    pub detected_fifo: u64,
    /// Tile re-executions triggered by detections.
    pub retries: u64,
    /// Faulted tiles whose re-execution completed cleanly.
    pub recovered_tiles: u64,
    /// Layers replayed on the dense reference path after retry exhaustion.
    pub layer_fallbacks: u64,
    /// Atom multiplications discarded with rejected tile attempts.
    pub wasted_atom_mults: u64,
    /// Accumulate-buffer deliveries discarded with rejected attempts.
    pub wasted_deliveries: u64,
}

impl FaultStats {
    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.injected_weight_buffer += other.injected_weight_buffer;
        self.injected_weight_stream += other.injected_weight_stream;
        self.injected_act_stream += other.injected_act_stream;
        self.injected_accum += other.injected_accum;
        self.injected_fifo += other.injected_fifo;
        self.detected_weight_buffer += other.detected_weight_buffer;
        self.detected_weight_stream += other.detected_weight_stream;
        self.detected_act_stream += other.detected_act_stream;
        self.detected_accum += other.detected_accum;
        self.detected_fifo += other.detected_fifo;
        self.retries += other.retries;
        self.recovered_tiles += other.recovered_tiles;
        self.layer_fallbacks += other.layer_fallbacks;
        self.wasted_atom_mults += other.wasted_atom_mults;
        self.wasted_deliveries += other.wasted_deliveries;
    }

    /// Injected faults summed over every structure.
    pub fn injected_total(&self) -> u64 {
        FaultStructure::ALL.iter().map(|&s| self.injected(s)).sum()
    }

    /// Detected faults summed over every structure.
    pub fn detected_total(&self) -> u64 {
        FaultStructure::ALL.iter().map(|&s| self.detected(s)).sum()
    }

    /// Injected-fault count for one structure.
    pub fn injected(&self, structure: FaultStructure) -> u64 {
        match structure {
            FaultStructure::WeightBuffer => self.injected_weight_buffer,
            FaultStructure::WeightStream => self.injected_weight_stream,
            FaultStructure::ActivationStream => self.injected_act_stream,
            FaultStructure::AccumBuffer => self.injected_accum,
            FaultStructure::Fifo => self.injected_fifo,
        }
    }

    /// Detected-fault count for one structure.
    pub fn detected(&self, structure: FaultStructure) -> u64 {
        match structure {
            FaultStructure::WeightBuffer => self.detected_weight_buffer,
            FaultStructure::WeightStream => self.detected_weight_stream,
            FaultStructure::ActivationStream => self.detected_act_stream,
            FaultStructure::AccumBuffer => self.detected_accum,
            FaultStructure::Fifo => self.detected_fifo,
        }
    }

    /// Records one injected fault, mirrored into the `fault.*` counters.
    pub fn record_injected(&mut self, structure: FaultStructure, count: u64) {
        if count == 0 {
            return;
        }
        let event = match structure {
            FaultStructure::WeightBuffer => {
                self.injected_weight_buffer += count;
                obs::Event::FaultInjectedWeightBuffer
            }
            FaultStructure::WeightStream => {
                self.injected_weight_stream += count;
                obs::Event::FaultInjectedWeightStream
            }
            FaultStructure::ActivationStream => {
                self.injected_act_stream += count;
                obs::Event::FaultInjectedActStream
            }
            FaultStructure::AccumBuffer => {
                self.injected_accum += count;
                obs::Event::FaultInjectedAccum
            }
            FaultStructure::Fifo => {
                self.injected_fifo += count;
                obs::Event::FaultInjectedFifo
            }
        };
        obs::record(event, count);
    }

    /// Records detected faults, mirrored into the `fault.*` counters.
    pub fn record_detected(&mut self, structure: FaultStructure, count: u64) {
        if count == 0 {
            return;
        }
        let event = match structure {
            FaultStructure::WeightBuffer => {
                self.detected_weight_buffer += count;
                obs::Event::FaultDetectedWeightBuffer
            }
            FaultStructure::WeightStream => {
                self.detected_weight_stream += count;
                obs::Event::FaultDetectedWeightStream
            }
            FaultStructure::ActivationStream => {
                self.detected_act_stream += count;
                obs::Event::FaultDetectedActStream
            }
            FaultStructure::AccumBuffer => {
                self.detected_accum += count;
                obs::Event::FaultDetectedAccum
            }
            FaultStructure::Fifo => {
                self.detected_fifo += count;
                obs::Event::FaultDetectedFifo
            }
        };
        obs::record(event, count);
    }

    /// Records one tile re-execution triggered by a detection.
    pub fn record_retry(&mut self) {
        self.retries += 1;
        obs::record(obs::Event::FaultRetries, 1);
    }

    /// Records a faulted tile whose re-execution completed cleanly.
    pub fn record_recovered_tile(&mut self) {
        self.recovered_tiles += 1;
        obs::record(obs::Event::FaultRecoveredTiles, 1);
    }

    /// Records a layer replayed on the dense reference path.
    pub fn record_layer_fallback(&mut self) {
        self.layer_fallbacks += 1;
        obs::record(obs::Event::FaultLayerFallbacks, 1);
    }

    /// Records work discarded with a rejected tile attempt.
    pub fn record_wasted(&mut self, atom_mults: u64, deliveries: u64) {
        self.wasted_atom_mults += atom_mults;
        self.wasted_deliveries += deliveries;
        obs::record(obs::Event::FaultWastedAtomMults, atom_mults);
    }
}

/// Outcome of the FIFO integrity monitor for one tile run: the Atomulator
/// folds every delivery it *intends* to enqueue into `expected_digest` at
/// the crossbar output and every entry that actually *enters* a bank FIFO
/// into `actual_digest`; a dropped or duplicated entry leaves the two
/// registers disagreeing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FifoCheck {
    /// FIFO faults injected during the run.
    pub injected: u64,
    /// Digest over intended deliveries.
    pub expected_digest: u64,
    /// Digest over actual enqueues.
    pub actual_digest: u64,
}

impl FifoCheck {
    /// Whether the enqueue-accounting monitor fired.
    pub fn detected(&self) -> bool {
        self.expected_digest != self.actual_digest
    }
}

/// Folds one delivery `(index, bank)` into a running enqueue digest.
#[inline]
pub fn fold_delivery(h: u64, index: u64, bank: u64) -> u64 {
    splitmix64(h ^ splitmix64(index ^ (bank << 32)))
}

/// `splitmix64` finalizer — a strong, cheap bit mixer.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic core-death injection for the fleet simulator
/// ([`crate::fleet`]). Deaths are decided by a pure hash of
/// `(seed, layer, core)` — the same site-hash discipline as
/// [`FaultInjector::decide`] — so a campaign reproduces bit-identically at
/// any thread count, and the fleet's resharding/recovery path can be
/// checked byte-for-byte against the fault-free run.
///
/// This lives *outside* [`FaultConfig`] on purpose: `FaultConfig` is
/// serialized into compiled-network artifacts, and core topology is a
/// fleet property, not a per-core compile property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreDeathConfig {
    /// Campaign seed.
    pub seed: u64,
    /// Per-(layer, core) death probability in parts-per-million.
    pub rate_ppm: u32,
}

impl CoreDeathConfig {
    /// A campaign with the given seed and per-opportunity rate.
    pub fn new(seed: u64, rate_ppm: u32) -> Self {
        Self { seed, rate_ppm }
    }

    /// Whether `core` dies while executing `layer`. Pure function of the
    /// coordinates; independent of thread count and execution order.
    pub fn decide(&self, layer: usize, core: usize) -> bool {
        if self.rate_ppm == 0 {
            return false;
        }
        let mut h = splitmix64(self.seed ^ 0xC0DE_0DEAD);
        h = splitmix64(h ^ layer as u64);
        h = splitmix64(h ^ core as u64);
        h % (PPM as u64) < self.rate_ppm as u64
    }
}

/// Order-sensitive digest over the raw accumulator words of one tile
/// attempt, modeling a checksum register the accumulate buffer maintains
/// incrementally at each delivery. Together with the conservation law it
/// catches the (astronomically rare) pair of word flips whose deltas
/// cancel in a plain sum.
pub fn plane_digest(cells: &[i64]) -> u64 {
    let mut h = 0u64;
    for (i, &v) in cells.iter().enumerate() {
        h = splitmix64(h ^ splitmix64((i as u64) ^ (v as u64)));
    }
    h
}

/// The deterministic fault injector: a thin wrapper over [`FaultConfig`]
/// whose every decision hashes `(seed, structure, site)`.
#[derive(Debug, Clone, Copy)]
pub struct FaultInjector {
    cfg: FaultConfig,
}

impl FaultInjector {
    /// Wraps a campaign configuration.
    pub fn new(cfg: FaultConfig) -> Self {
        Self { cfg }
    }

    /// The campaign configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Whether the online detection monitors should run.
    pub fn detect(&self) -> bool {
        self.cfg.detect
    }

    /// Whether detected faults trigger re-execution / fallback.
    pub fn recover(&self) -> bool {
        self.cfg.recover
    }

    /// Tile re-executions allowed before fallback; 0 when recovery is off.
    pub fn max_attempts(&self) -> u32 {
        if self.cfg.recover {
            self.cfg.retry_budget
        } else {
            0
        }
    }

    fn site_hash(&self, structure: FaultStructure, site: FaultSite) -> u64 {
        let mut h = splitmix64(self.cfg.seed ^ structure.discriminant());
        h = splitmix64(h ^ site.layer as u64);
        h = splitmix64(h ^ site.channel as u64);
        h = splitmix64(h ^ site.tile as u64);
        h = splitmix64(h ^ site.attempt as u64);
        splitmix64(h ^ site.item as u64)
    }

    /// Decides whether a fault fires at `site` in `structure`. Returns the
    /// site's entropy word (for bit/action selection) when it does.
    pub fn decide(&self, structure: FaultStructure, site: FaultSite) -> Option<u64> {
        let rate = self.cfg.rate(structure);
        if rate == 0 {
            return None;
        }
        let h = self.site_hash(structure, site);
        if h % (PPM as u64) < rate as u64 {
            Some(splitmix64(h))
        } else {
            None
        }
    }

    /// Flips one value bit of a weight entry: one of the 8 magnitude bits
    /// or the sign, chosen by the entropy word.
    pub fn corrupt_weight_entry(entry: &mut WeightEntry, entropy: u64) {
        match entropy % 9 {
            8 => entry.atom.negative = !entry.atom.negative,
            b => entry.atom.mag ^= 1 << b,
        }
    }

    /// Flips one magnitude bit of an activation entry (activations are
    /// unsigned post-ReLU; there is no sign bit to flip).
    pub fn corrupt_act_entry(entry: &mut ActEntry, entropy: u64) {
        entry.atom.mag ^= 1 << (entropy % 8);
    }

    /// Flips one bit of an accumulate-buffer word, within the configured
    /// accumulator width so the perturbed value stays representable.
    pub fn corrupt_accum_word(word: &mut i64, acc_bits: u8, entropy: u64) {
        let bit = entropy % acc_bits.max(1) as u64;
        *word ^= 1i64 << bit;
    }

    /// What a firing FIFO fault does to its delivery.
    pub fn fifo_action(entropy: u64) -> FifoAction {
        if entropy & 1 == 0 {
            FifoAction::Drop
        } else {
            FifoAction::Duplicate
        }
    }
}

/// Validates the fault surface of a [`RistrettoConfig`]; called from
/// `RistrettoConfig::validate`.
pub(crate) fn validate_config(cfg: &RistrettoConfig) -> Result<(), crate::config::ConfigError> {
    if let Some(f) = cfg.faults {
        if f.max_rate() > PPM {
            return Err(crate::config::ConfigError::FaultRateOutOfRange(
                f.max_rate(),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomstream::atom::Atom;

    fn site(item: usize) -> FaultSite {
        FaultSite {
            layer: 1,
            channel: 2,
            tile: 3,
            attempt: 0,
            item,
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_coordinates() {
        let inj = FaultInjector::new(FaultConfig::uniform(42, 100_000));
        for item in 0..64 {
            let a = inj.decide(FaultStructure::WeightStream, site(item));
            let b = inj.decide(FaultStructure::WeightStream, site(item));
            assert_eq!(a, b, "item {item}");
        }
    }

    #[test]
    fn different_structures_roll_independently() {
        let inj = FaultInjector::new(FaultConfig::uniform(7, 500_000));
        let fires: Vec<Vec<bool>> = FaultStructure::ALL
            .iter()
            .map(|&s| (0..64).map(|i| inj.decide(s, site(i)).is_some()).collect())
            .collect();
        // With a 50% rate the five per-structure firing patterns cannot all
        // coincide unless the hash ignores the discriminant.
        assert!(
            (1..fires.len()).any(|i| fires[i] != fires[0]),
            "structure discriminant is dead"
        );
    }

    #[test]
    fn attempt_reroll_changes_the_pattern() {
        let inj = FaultInjector::new(FaultConfig::uniform(11, 300_000));
        let roll = |attempt: u32| -> Vec<bool> {
            (0..128)
                .map(|item| {
                    inj.decide(
                        FaultStructure::AccumBuffer,
                        FaultSite {
                            attempt,
                            ..site(item)
                        },
                    )
                    .is_some()
                })
                .collect()
        };
        assert_ne!(roll(0), roll(1), "retry must re-roll faults");
    }

    #[test]
    fn rates_scale_roughly_with_ppm() {
        let count = |ppm: u32| -> usize {
            let inj = FaultInjector::new(FaultConfig::uniform(3, ppm));
            (0..10_000)
                .filter(|&i| {
                    inj.decide(FaultStructure::ActivationStream, site(i))
                        .is_some()
                })
                .count()
        };
        assert_eq!(count(0), 0);
        let low = count(10_000); // 1%
        let high = count(500_000); // 50%
        assert!(low > 0 && low < 1_000, "1% of 10k ≈ 100, got {low}");
        assert!(high > 3_000 && high < 7_000, "50% of 10k ≈ 5k, got {high}");
    }

    #[test]
    fn corruptions_touch_only_value_bits() {
        let mut w = WeightEntry {
            atom: Atom {
                mag: 0b1010,
                shift: 2,
                negative: false,
                last: true,
            },
            x: 1,
            y: 2,
            out_ch: 3,
        };
        let orig = w;
        for e in 0..32u64 {
            let mut probe = orig;
            FaultInjector::corrupt_weight_entry(&mut probe, e);
            assert_ne!(probe, orig);
            assert_eq!(
                (
                    probe.x,
                    probe.y,
                    probe.out_ch,
                    probe.atom.shift,
                    probe.atom.last
                ),
                (orig.x, orig.y, orig.out_ch, orig.atom.shift, orig.atom.last),
                "only mag/sign may change"
            );
        }
        FaultInjector::corrupt_weight_entry(&mut w, 8);
        assert!(w.atom.negative);

        let a = ActEntry {
            atom: Atom {
                mag: 7,
                shift: 0,
                negative: false,
                last: true,
            },
            x: 4,
            y: 5,
        };
        for e in 0..16u64 {
            let mut probe = a;
            FaultInjector::corrupt_act_entry(&mut probe, e);
            assert_ne!(probe.atom.mag, a.atom.mag);
            assert_eq!((probe.x, probe.y, probe.atom.last), (a.x, a.y, a.atom.last));
        }
    }

    #[test]
    fn accum_flip_stays_within_width() {
        for e in 0..64u64 {
            let mut w = 0i64;
            FaultInjector::corrupt_accum_word(&mut w, 24, e);
            assert!(w != 0 && w.unsigned_abs() < 1 << 24);
        }
    }

    #[test]
    fn plane_digest_is_order_and_value_sensitive() {
        let a = [1i64, 2, 3, 4];
        let b = [1i64, 2, 4, 3];
        let c = [1i64, 2, 3, 5];
        assert_ne!(plane_digest(&a), plane_digest(&b));
        assert_ne!(plane_digest(&a), plane_digest(&c));
        assert_eq!(plane_digest(&a), plane_digest(&[1, 2, 3, 4]));
    }

    #[test]
    fn core_death_is_a_pure_site_hash() {
        let cfg = CoreDeathConfig::new(9, 400_000);
        let roll: Vec<bool> = (0..64)
            .flat_map(|l| (0..8).map(move |c| cfg.decide(l, c)))
            .collect();
        let again: Vec<bool> = (0..64)
            .flat_map(|l| (0..8).map(move |c| cfg.decide(l, c)))
            .collect();
        assert_eq!(roll, again);
        let fired = roll.iter().filter(|&&b| b).count();
        assert!(fired > 0 && fired < roll.len(), "rate must be partial");
        assert!(!CoreDeathConfig::new(9, 0).decide(0, 0));
        // Seed changes the pattern.
        let other: Vec<bool> = (0..64)
            .flat_map(|l| (0..8).map(move |c| CoreDeathConfig::new(10, 400_000).decide(l, c)))
            .collect();
        assert_ne!(roll, other);
    }

    #[test]
    fn stats_merge_and_lookup() {
        let mut s = FaultStats::default();
        s.record_injected(FaultStructure::Fifo, 2);
        s.record_detected(FaultStructure::Fifo, 1);
        let mut t = FaultStats::default();
        t.record_injected(FaultStructure::AccumBuffer, 3);
        s.merge(&t);
        assert_eq!(s.injected(FaultStructure::Fifo), 2);
        assert_eq!(s.injected(FaultStructure::AccumBuffer), 3);
        assert_eq!(s.injected_total(), 5);
        assert_eq!(s.detected_total(), 1);
    }

    #[test]
    fn detected_error_names_structure_and_tile() {
        let e = FaultDetected {
            structure: FaultStructure::AccumBuffer,
            layer: 2,
            channel: 1,
            tile: 9,
            attempts: 4,
        };
        let s = e.to_string();
        assert!(
            s.contains("accum") && s.contains("tile 9") && s.contains("layer 2"),
            "{s}"
        );
    }
}
