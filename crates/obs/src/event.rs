//! The counter taxonomy: every event the simulators can record.
//!
//! Each [`Event`] names one machine-checked signal of the paper's
//! evaluation — atom multiplications, squeezed zero atoms, balancer stall
//! cycles (Eq 3–5), per-component energy (Table VI / Fig 13/16) — so a
//! counter value is meaningful on its own and stable across refactors.
//! OBSERVABILITY.md documents the full table (name, unit, paper anchor).
//!
//! Counters are `u64` only. Energy is recorded in integer femtojoules,
//! converted from `f64` picojoules *at the recording site* (where the
//! value is a pure function of that call's inputs): integer addition
//! commutes, so parallel accumulation is bit-identical at any thread
//! count — the property the `repro --metrics` regression gate relies on.

/// How a counter aggregates concurrent contributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Contributions add up (`fetch_add`).
    Sum,
    /// Contributions take the maximum (`fetch_max`) — highwater marks.
    Max,
}

macro_rules! events {
    ($(($variant:ident, $name:literal, $kind:ident, $unit:literal, $paper:literal, $doc:literal),)+) => {
        /// One observable simulator event (see module docs).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Event {
            $(#[doc = $doc] $variant,)+
        }

        impl Event {
            /// Number of defined events.
            pub const COUNT: usize = [$(Event::$variant,)+].len();

            /// Every event, in declaration order.
            pub const ALL: [Event; Event::COUNT] = [$(Event::$variant,)+];

            /// Stable dotted counter name (`stage.metric`).
            pub fn name(self) -> &'static str {
                match self {
                    $(Event::$variant => $name,)+
                }
            }

            /// Aggregation kind.
            pub fn kind(self) -> Kind {
                match self {
                    $(Event::$variant => Kind::$kind,)+
                }
            }

            /// Unit of the counter value.
            pub fn unit(self) -> &'static str {
                match self {
                    $(Event::$variant => $unit,)+
                }
            }

            /// The paper equation/figure/section the counter maps to.
            pub fn paper_ref(self) -> &'static str {
                match self {
                    $(Event::$variant => $paper,)+
                }
            }

            /// One-line description (same text as the rustdoc).
            pub fn describe(self) -> &'static str {
                match self {
                    $(Event::$variant => $doc,)+
                }
            }

            /// Dense index in `[0, COUNT)`.
            #[inline]
            pub fn index(self) -> usize {
                self as usize
            }
        }
    };
}

events! {
    // Stream compression (zero-atom squeeze, §III-B / Fig 6 phase 2).
    (CompressActValues, "compress.act_values", Sum, "values", "Fig 6",
     "Non-zero activation values compressed into atom streams."),
    (CompressActAtoms, "compress.act_atoms", Sum, "atoms", "Fig 6",
     "Non-zero activation atoms emitted by compression."),
    (CompressActZeroAtomsSqueezed, "compress.act_zero_atoms_squeezed", Sum, "atoms", "Fig 2",
     "Zero activation atoms squeezed out (bit-level sparsity exploited)."),
    (CompressWeightValues, "compress.weight_values", Sum, "values", "Fig 6",
     "Non-zero weight values compressed into atom streams."),
    (CompressWeightAtoms, "compress.weight_atoms", Sum, "atoms", "Fig 6",
     "Non-zero weight atoms emitted by compression."),
    (CompressWeightZeroAtomsSqueezed, "compress.weight_zero_atoms_squeezed", Sum, "atoms", "Fig 2",
     "Zero weight atoms squeezed out (bit-level sparsity exploited)."),

    // Functional intersection kernel (Eq 1–4, §III-B phase 3).
    (IntersectCalls, "intersect.calls", Sum, "calls", "§III-B",
     "Non-empty stream intersections executed."),
    (IntersectSteps, "intersect.steps", Sum, "steps", "Eq 3/4",
     "Systolic pipeline steps (t x ceil(S/N) + epsilon summed over intersections)."),
    (IntersectSegments, "intersect.segments", Sum, "segments", "Eq 3",
     "Static-stream segments processed (ceil(S/N) summed)."),
    (IntersectAtomMults, "intersect.atom_mults", Sum, "multiplications", "Fig 6",
     "Effectual atom multiplications in the functional kernel (t x S summed)."),
    (IntersectDeliveries, "intersect.deliveries", Sum, "deliveries", "§IV-C2",
     "Partial-sum deliveries on last-atom flags (S x values summed)."),
    (IntersectValueRuns, "intersect.value_runs", Sum, "values", "§IV-C2",
     "Activation value runs folded into pre-shifted sums."),

    // Cycle-level Atomputer (systolic multiplier chain, §IV-C2).
    (AtomputerCycles, "atomputer.cycles", Sum, "cycles", "Eq 3",
     "Cycle-level tile cycles including stalls."),
    (AtomputerAtomMults, "atomputer.atom_mults", Sum, "multiplications", "Fig 6",
     "Effectual atom multiplications in the cycle-level tile."),

    // Cycle-level Atomulator (crossbar + FIFO + accumulate banks, §IV-C4).
    (AtomulatorDeliveries, "atomulator.deliveries", Sum, "deliveries", "§IV-C4",
     "Partials routed through the crossbar to accumulate-buffer banks."),
    (AtomulatorCrossbarConflicts, "atomulator.crossbar_conflicts", Sum, "conflicts", "§IV-C4",
     "Same-cycle deliveries colliding on one accumulate-buffer bank."),
    (AtomulatorFifoHighwater, "atomulator.fifo_highwater", Max, "entries", "§IV-C4",
     "Deepest FIFO occupancy observed in any cycle-level tile run."),
    (AtomulatorStallCycles, "atomulator.stall_cycles", Sum, "cycles", "§IV-C4",
     "Pipeline stalls from FIFO backpressure."),

    // Load balancer (§IV-E, Eq 5, Fig 18).
    (BalanceInvocations, "balance.invocations", Sum, "calls", "§IV-E",
     "Balancer invocations (one per simulated layer)."),
    (BalanceMakespanCycles, "balance.makespan_cycles", Sum, "cycles", "Eq 5",
     "Slowest-tile cycles summed over balanced layers."),
    (BalanceTotalCycles, "balance.total_cycles", Sum, "cycles", "Eq 5",
     "Total tile work summed over balanced layers."),
    (BalanceIdleCycles, "balance.idle_cycles", Sum, "cycles", "Fig 18",
     "Tile idle (stall) cycles from residual workload imbalance."),

    // Analytic layer model (Eq 3–5).
    (AnalyticLayers, "analytic.layers", Sum, "layers", "Eq 5",
     "Layers simulated by the analytic model."),
    (AnalyticCycles, "analytic.cycles", Sum, "cycles", "Eq 5",
     "Analytic layer makespans summed."),
    (AnalyticAtomMults, "analytic.atom_mults", Sum, "multiplications", "Eq 5",
     "Effectual atom multiplications in the analytic model."),
    (AnalyticDeliveries, "analytic.deliveries", Sum, "deliveries", "§IV-C2",
     "Accumulator deliveries in the analytic model."),
    (AnalyticDramBits, "analytic.dram_bits", Sum, "bits", "Fig 8",
     "Off-chip traffic (compressed block COO-2D) in the analytic model."),
    (AnalyticBufferBits, "analytic.buffer_bits", Sum, "bits", "Fig 13/16",
     "On-chip buffer traffic in the analytic model."),

    // Per-component energy attribution (integer femtojoules; Table VI names).
    (EnergyAtomMultFj, "energy.atom_mult_fj", Sum, "fJ", "Fig 13/16",
     "Energy attributed to atom multiplications (multiplier + shift + accumulate)."),
    (EnergyDeliveryFj, "energy.delivery_fj", Sum, "fJ", "Fig 13/16",
     "Energy attributed to Atomulator deliveries (addr-gen + crossbar + FIFO + bank write)."),
    (EnergyAggregateFj, "energy.aggregate_fj", Sum, "fJ", "Fig 13/16",
     "Energy attributed to accumulate-buffer aggregation."),
    (EnergyAtomizerFj, "energy.atomizer_fj", Sum, "fJ", "Fig 13/16",
     "Energy attributed to Atomizer scan cycles."),
    (EnergyInputReadFj, "energy.input_read_fj", Sum, "fJ", "Fig 13/16",
     "Energy attributed to input-buffer reads."),
    (EnergyWeightReadFj, "energy.weight_read_fj", Sum, "fJ", "Fig 13/16",
     "Energy attributed to weight-buffer reads."),
    (EnergyOutputWriteFj, "energy.output_write_fj", Sum, "fJ", "Fig 13/16",
     "Energy attributed to output-buffer writes."),
    (EnergyDramFj, "energy.dram_fj", Sum, "fJ", "Fig 13/16",
     "Energy attributed to off-chip DRAM traffic."),
    (EnergyLeakageFj, "energy.leakage_fj", Sum, "fJ", "Fig 13/16",
     "Leakage energy over the simulated cycles."),

    // hwmodel event-counter activity (all simulators, incl. baselines).
    (HwmodelComputeEvents, "hwmodel.compute_events", Sum, "events", "Table VI",
     "Compute events priced by any simulator's energy counter."),
    (HwmodelBufferEvents, "hwmodel.buffer_events", Sum, "events", "Table VI",
     "Buffer accesses priced by any simulator's energy counter."),
    (HwmodelDramRequests, "hwmodel.dram_requests", Sum, "requests", "Table VI",
     "DRAM traffic batches priced by any simulator's energy counter."),

    // Compile-once/run-many engine (static weight side vs per-input work).
    (EngineCompileNetworks, "engine.compile.networks", Sum, "networks", "§III/Fig 5",
     "Networks compiled into static per-layer artifacts."),
    (EngineCompileLayers, "engine.compile.layers", Sum, "layers", "§III/Fig 5",
     "Layers whose weight side was flattened, compressed and shuffled."),
    (EngineCompileWeightAtoms, "engine.compile.weight_atoms", Sum, "atoms", "§III/Fig 5",
     "Static weight atoms produced by the compile phase."),
    (EngineSessions, "engine.run.sessions", Sum, "sessions", "§III/Fig 5",
     "Inference sessions opened against a compiled network."),
    (EngineRunLayers, "engine.run.layers", Sum, "layers", "§III/Fig 5",
     "Per-input layer executions served from compiled artifacts, fleets included."),
    (EngineRunActAtoms, "engine.run.act_atoms", Sum, "atoms", "§III/Fig 5",
     "Activation atoms streamed during session runs."),
    (FaultInjectedWeightBuffer, "fault.injected.weight_buffer", Sum, "faults", "§IV-B",
     "Bit flips injected into weight-buffer packed records."),
    (FaultInjectedWeightStream, "fault.injected.weight_stream", Sum, "faults", "§III-B",
     "Bit flips injected into in-flight weight atom stream entries."),
    (FaultInjectedActStream, "fault.injected.act_stream", Sum, "faults", "§III-B",
     "Bit flips injected into in-flight activation atom stream entries."),
    (FaultInjectedAccum, "fault.injected.accum", Sum, "faults", "§IV-C4",
     "Bit flips injected into accumulate-buffer words."),
    (FaultInjectedFifo, "fault.injected.fifo", Sum, "faults", "§IV-C4",
     "Atomulator FIFO entries dropped or duplicated by injection."),
    (FaultDetectedWeightBuffer, "fault.detected.weight_buffer", Sum, "faults", "§IV-B",
     "Weight-buffer faults caught by the stream checksum monitor."),
    (FaultDetectedWeightStream, "fault.detected.weight_stream", Sum, "faults", "§III-B",
     "Weight-stream faults caught by the stream checksum monitor."),
    (FaultDetectedActStream, "fault.detected.act_stream", Sum, "faults", "§III-B",
     "Activation-stream faults caught by the stream checksum monitor."),
    (FaultDetectedAccum, "fault.detected.accum", Sum, "faults", "§IV-C4",
     "Accumulate-buffer faults caught by the conservation/digest monitors."),
    (FaultDetectedFifo, "fault.detected.fifo", Sum, "faults", "§IV-C4",
     "FIFO faults caught by the enqueue-accounting monitor."),
    (FaultRetries, "fault.retries", Sum, "retries", "§IV-C",
     "Tile re-executions triggered by detected faults."),
    (FaultRecoveredTiles, "fault.recovered_tiles", Sum, "tiles", "§IV-C",
     "Faulted tiles whose re-execution completed cleanly."),
    (FaultLayerFallbacks, "fault.layer_fallbacks", Sum, "layers", "§IV-C",
     "Layers replayed on the dense reference path after retry exhaustion."),
    (FaultWastedAtomMults, "fault.wasted_atom_mults", Sum, "mults", "§IV-C",
     "Atom multiplications discarded with rejected tile attempts."),
    (FaultRetryEnergyFj, "fault.retry_energy_fj", Sum, "fJ", "§V-E",
     "Energy attributed to discarded tile attempts and their re-execution."),
    (EngineCacheHits, "engine.cache.hits", Sum, "loads", "§III",
     "Model-cache lookups served by a verified on-disk artifact."),
    (EngineCacheMisses, "engine.cache.misses", Sum, "compiles", "§III",
     "Model-cache lookups with no artifact on disk (cold compiles)."),
    (EngineCacheRejected, "engine.cache.rejected", Sum, "artifacts", "§III",
     "On-disk artifacts rejected (corruption, version skew, key mismatch) and recompiled."),
    (EngineCacheWrites, "engine.cache.writes", Sum, "artifacts", "§III",
     "Artifacts written atomically to the model cache after a miss or rejection."),
    (EngineCacheStoreFail, "engine.cache.store_fail", Sum, "errors", "§III",
     "Artifact store failures (I/O); non-fatal, the compiled network is still returned."),
    (EngineCacheBytesWritten, "engine.cache.bytes_written", Sum, "bytes", "§III",
     "Artifact bytes persisted to the model cache."),
    (EngineCacheBytesRead, "engine.cache.bytes_read", Sum, "bytes", "§III",
     "Artifact bytes read back from the model cache during lookups."),

    // Sharded fleet simulator + NoC (Fig 7 multi-core organization).
    (FleetRuns, "fleet.runs", Sum, "runs", "Fig 7",
     "Fleet inference passes executed across the sharded core array."),
    (FleetCores, "fleet.cores", Max, "cores", "Fig 7",
     "Largest core count any fleet run was sharded across."),
    (FleetShards, "fleet.shards", Sum, "shards", "Fig 7",
     "Per-layer shards priced from the channels their alive cores own."),
    (FleetBusyCycles, "fleet.busy_cycles", Sum, "cycles", "Eq 5",
     "Per-core compute cycles summed over all cores and layers."),
    (FleetIdleCycles, "fleet.idle_cycles", Sum, "cycles", "Eq 5",
     "Cycles cores waited on the slowest shard or on NoC exchange."),
    (FleetMakespanCycles, "fleet.makespan_cycles", Sum, "cycles", "Eq 5",
     "Cross-core makespans (compute + exchange) summed over layers."),
    (FleetLinkBits, "fleet.link_bits", Sum, "bits", "Fig 7",
     "Compressed activation bits moved over inter-core NoC links."),
    (FleetLinkBusyCycles, "fleet.link_busy_cycles", Sum, "cycles", "Fig 7",
     "Cycles NoC links spent serializing activation flits."),
    (FleetQueueHighwater, "fleet.queue_highwater", Max, "entries", "Fig 7",
     "Deepest per-port NoC FIFO occupancy observed in any exchange."),
    (FleetCoreDeaths, "fleet.core_deaths", Sum, "deaths", "§IV-C",
     "Injected core-death events taken by fleet runs."),
    (FleetReshards, "fleet.reshards", Sum, "reshards", "§IV-C",
     "Deterministic resharding passes after a core death."),

    // Multi-tenant serving layer (continuous batching over compiled nets).
    (ServeRequests, "serve.requests", Sum, "requests", "§III",
     "Inference requests submitted to the serving queue (admitted or not)."),
    (ServeServed, "serve.served", Sum, "requests", "§III",
     "Requests completed by a dispatched batch."),
    (ServeRejected, "serve.rejected", Sum, "requests", "§III",
     "Requests refused by admission control (queue at capacity)."),
    (ServeBatches, "serve.batches", Sum, "batches", "§III",
     "Coalesced batches dispatched to an execution lane."),
    (ServeBatchMax, "serve.batch_max", Max, "requests", "§III",
     "Largest coalesced batch dispatched."),
    (ServeQueueHighwater, "serve.queue_highwater", Max, "requests", "§III",
     "Deepest serving-queue occupancy observed at any admission."),
    (ServeFleetBatches, "serve.fleet_batches", Sum, "batches", "Fig 7",
     "Batches large enough to route through the multi-core batch fleet."),
    (ServeBusyTicks, "serve.busy_ticks", Sum, "microticks", "Eq 5",
     "Execution-lane busy time across all dispatched batches."),
    (ServeFaultPenaltyTicks, "serve.fault_penalty_ticks", Sum, "microticks", "§IV-C",
     "Extra lane time charged to fault detection and recovery under load."),
    (ServeShed, "serve.shed", Sum, "requests", "§III",
     "Requests shed at dispatch because their deadline had already expired."),
    (ServeDeadlineEarlyDispatches, "serve.deadline_early_dispatches", Sum, "batches", "§III",
     "Batches the SLO-aware trigger pulled in ahead of the normal bound."),
    (ServeBrownoutRejected, "serve.brownout_rejected", Sum, "requests", "§III",
     "Best-effort admissions shed by brownout at the queue high-water mark."),
    (ServeBreakerTrips, "serve.breaker_trips", Sum, "trips", "§IV-C",
     "Circuit-breaker trips on a lane after consecutive faulted batches."),
    (ServeBreakerOpenBatches, "serve.breaker_open_batches", Sum, "batches", "§IV-C",
     "Batches served on the degraded single-core route while a breaker was open."),
    (ServeBreakerHalfOpens, "serve.breaker_half_opens", Sum, "probes", "§IV-C",
     "Half-open probes dispatched on the primary route after a breaker cooldown."),
    (ServeBreakerReruns, "serve.breaker_reruns", Sum, "batches", "§IV-C",
     "Batches re-run with recovery forced on after the primary route aborted on a fault."),
    (ServeRetries, "serve.retries", Sum, "requests", "§III",
     "Client retries re-offered after a rejection, paced by deterministic backoff."),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_dotted() {
        let mut names: Vec<&str> = Event::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate counter name");
        for e in Event::ALL {
            assert!(e.name().contains('.'), "{} is not stage.metric", e.name());
            assert!(!e.unit().is_empty() && !e.paper_ref().is_empty());
            assert!(!e.describe().is_empty());
        }
    }

    #[test]
    fn indices_are_dense() {
        for (i, e) in Event::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
        assert_eq!(Event::COUNT, Event::ALL.len());
    }

    #[test]
    fn highwater_counters_are_max_kind() {
        assert_eq!(Event::AtomulatorFifoHighwater.kind(), Kind::Max);
        assert_eq!(Event::ServeQueueHighwater.kind(), Kind::Max);
        assert_eq!(Event::FleetQueueHighwater.kind(), Kind::Max);
        assert_eq!(Event::FleetCores.kind(), Kind::Max);
        assert_eq!(Event::IntersectAtomMults.kind(), Kind::Sum);
    }
}
