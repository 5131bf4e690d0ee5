//! Sharded fleet-scale simulation of the Fig 7 multi-core organization.
//!
//! This module shards a **compiled** network ([`crate::engine::compile`])
//! across N cores under explicit strategies, runs each layer once per
//! input through the same [`Session`] a single core uses, prices every
//! core's shard with the closed-form Eq 5 model from the weight atoms of
//! the output channels it owns, and routes inter-core activation traffic
//! through the deterministic [`crate::noc`] queueing model. The per-layer
//! cross-core makespan — `max(per-core Eq 5 compute) + exchange makespan`
//! — generalizes the §IV-E balancer counters from tiles to cores.
//!
//! Three sharding strategies:
//!
//! * [`ShardStrategy::Batch`] — data parallelism: every core holds the
//!   full network and processes its own inputs; no inter-core traffic.
//! * [`ShardStrategy::OutputChannel`] — model parallelism: each layer's
//!   output channels are LPT-partitioned across cores by static weight
//!   atoms (the same greedy the §IV-E balancer uses across tiles);
//!   every layer boundary is an all-gather of the produced slices.
//! * [`ShardStrategy::Hybrid`] — `replicas` batch-parallel groups, each
//!   output-channel-sharded internally.
//!
//! **Byte-determinism is the invariant**: outputs come from the
//! channel-ordered engine kernels, slots are priced in slot order, the NoC
//! is pure integer arithmetic, and core deaths
//! ([`crate::fault::CoreDeathConfig`]) are pure site hashes followed by
//! deterministic resharding — so fleet output is byte-identical at any
//! `(cores, threads)` combination, and a 1-core fleet reproduces the
//! single-core [`Session`] bytes exactly (enforced by a diffcheck oracle
//! family).

use crate::balance::{balance, is_exact_partition, BalanceStrategy, ChannelWorkload};
use crate::config::FleetConfig;
use crate::energy::COO_META_BITS;
use crate::engine::{CompiledNetwork, EngineError, Session};
use crate::fault::{splitmix64, FaultStats};
use crate::noc::{Noc, NocReport};
use atomstream::atom::AtomBits;
use qnn::tensor::Tensor3;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// How a fleet partitions work across its cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShardStrategy {
    /// Data parallelism: whole-network replicas, one input per core.
    Batch,
    /// Model parallelism: output channels partitioned across all cores,
    /// all-gather at every layer boundary.
    OutputChannel,
    /// N batch-parallel replica groups (the payload; must divide the core
    /// count), output-channel-sharded inside each group.
    Hybrid(usize),
}

impl fmt::Display for ShardStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardStrategy::Batch => f.write_str("batch"),
            ShardStrategy::OutputChannel => f.write_str("output-channel"),
            ShardStrategy::Hybrid(replicas) => write!(f, "hybrid/{replicas}"),
        }
    }
}

/// LPT partition of one layer's output channels over `slots` shard slots,
/// balanced on static weight atoms; each group ascending, groups in slot
/// order. Exactly partitions `0..atoms.len()` (checked by the fleet's
/// constructor via [`is_exact_partition`]).
fn partition_out_channels(atoms: &[u64], slots: usize) -> Vec<Vec<usize>> {
    let workloads: Vec<ChannelWorkload> = atoms
        .iter()
        .enumerate()
        .map(|(channel, &weight_atoms)| ChannelWorkload {
            channel,
            act_atoms: 1,
            weight_atoms,
        })
        .collect();
    let mut groups = balance(&workloads, slots, 1, BalanceStrategy::WeightOnly).groups;
    for g in &mut groups {
        g.sort_unstable();
    }
    groups
}

/// A fleet's sharding decision: for every layer, which output channels
/// each shard slot owns — exactly the channel sets the fleet prices.
/// Produced by LPT over per-out-channel static weight atoms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Shard slots the plan partitions over (cores per replica group).
    pub group_size: usize,
    /// `layers[li][slot]` = ascending output channels of layer `li` owned
    /// by `slot`; may be empty when the layer has fewer output channels
    /// than the group has slots.
    pub layers: Vec<Vec<Vec<usize>>>,
    /// `atoms[li][slot][ci]`: layer `li`'s weight-stream entries on input
    /// channel `ci` whose output channel `slot` owns — the `S_i` the
    /// slot's shard is priced with, equal to compiling the kernels sliced
    /// to its channels.
    atoms: Vec<Vec<Vec<u64>>>,
}

impl ShardPlan {
    /// Plans `group_size` shards of a compiled network.
    pub fn compute(net: &CompiledNetwork, group_size: usize) -> Self {
        Self::over_alive(net, &vec![true; group_size])
    }

    /// Plans every layer over the `alive` slots only; dead slots own no
    /// channels.
    fn over_alive(net: &CompiledNetwork, alive: &[bool]) -> Self {
        let alive_slots: Vec<usize> = (0..alive.len()).filter(|&s| alive[s]).collect();
        let (layers, atoms) = net
            .layers()
            .iter()
            .map(|l| {
                let parts =
                    partition_out_channels(&l.weight_atoms_per_out_channel(), alive_slots.len());
                let mut groups = vec![Vec::new(); alive.len()];
                let mut owner = vec![0usize; l.weights().out_channels()];
                for (part, &slot) in parts.into_iter().zip(&alive_slots) {
                    for &c in &part {
                        owner[c] = slot;
                    }
                    groups[slot] = part;
                }
                let mut atoms = vec![vec![0u64; l.weights().in_channels()]; alive.len()];
                for (ci, stream) in l.weights().streams().iter().enumerate() {
                    for e in stream.entries() {
                        atoms[owner[e.out_ch as usize]][ci] += 1;
                    }
                }
                (groups, atoms)
            })
            .unzip();
        Self {
            group_size: alive.len(),
            layers,
            atoms,
        }
    }

    /// Whether every layer's groups exactly partition that layer's output
    /// channels.
    pub fn verify(&self, net: &CompiledNetwork) -> bool {
        self.layers.len() == net.layers().len()
            && self.layers.iter().zip(net.layers()).all(|(groups, layer)| {
                groups.len() == self.group_size
                    && is_exact_partition(
                        groups.iter().map(Vec::as_slice),
                        layer.weights().out_channels(),
                    )
            })
    }
}

/// Integer-only result of one fleet pass, serialized byte-stably
/// cross-platform (ratios are derived at display time — see
/// [`FleetReport::throughput_per_mcycle`] and
/// [`FleetReport::utilization_permille`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Network name.
    pub network: String,
    /// Strategy label (`batch`, `output-channel`, `hybrid/R`).
    pub strategy: String,
    /// Fleet core count.
    pub cores: usize,
    /// Inputs processed.
    pub inputs: u64,
    /// Cycles from first input in to last output out.
    pub makespan_cycles: u64,
    /// Single-input latency (the first input's cycles through all layers).
    pub latency_cycles: u64,
    /// Per-core compute cycles summed over cores and layers.
    pub busy_cycles: u64,
    /// Cycles cores waited on slower shards or on the NoC.
    pub idle_cycles: u64,
    /// Compressed activation bits moved over inter-core links.
    pub link_bits: u64,
    /// Cycles links spent serializing flits.
    pub link_busy_cycles: u64,
    /// Deepest NoC ingress-FIFO occupancy observed.
    pub queue_highwater: u64,
    /// Fold of the per-port NoC FIFO digests (determinism witness).
    pub noc_digest: u64,
    /// Fold over every output tensor's bytes (byte-identity witness).
    pub output_digest: u64,
    /// Core deaths taken.
    pub core_deaths: u64,
    /// Resharding passes performed after deaths.
    pub reshards: u64,
}

impl FleetReport {
    /// Inputs per million cycles — derived, never serialized.
    pub fn throughput_per_mcycle(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.inputs as f64 * 1e6 / self.makespan_cycles as f64
    }

    /// Core utilization in permille: `busy / (busy + idle)` — integer,
    /// display-friendly, byte-stable.
    pub fn utilization_permille(&self) -> u64 {
        let denom = self.busy_cycles + self.idle_cycles;
        if denom == 0 {
            return 1000;
        }
        self.busy_cycles * 1000 / denom
    }
}

/// Everything one [`Fleet::run`] produces: the per-input output tensors
/// (in input order, byte-identical to unsharded [`Session::run`] outputs),
/// merged fault counters, the NoC's lifetime report and the integer fleet
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRun {
    /// Final activation tensor per input, in input order.
    pub outputs: Vec<Tensor3>,
    /// Fault-campaign counters merged across cores and inputs.
    pub faults: FaultStats,
    /// The interconnect's lifetime counters for this pass.
    pub noc: NocReport,
    /// The integer fleet report.
    pub report: FleetReport,
}

/// Non-zero atoms per input channel of an activation tensor at the given
/// value/atom granularity — the measured `T_i` the per-shard Eq 5 cycle
/// model consumes. Zero-atom squeezing means a value contributes one atom
/// per non-zero `atom_bits` chunk of its magnitude.
pub fn act_atoms_per_channel(act: &Tensor3, a_bits: u8, atom_bits: AtomBits) -> Vec<u64> {
    let (c, h, w) = act.shape();
    let g = atom_bits.bits() as u32;
    let slots = atom_bits.slots(a_bits) as u32;
    let mask = (1u32 << g) - 1;
    let mut atoms = vec![0u64; c];
    for (ci, count) in atoms.iter_mut().enumerate() {
        for y in 0..h {
            for x in 0..w {
                let v = act.get(ci, y, x).unsigned_abs();
                for s in 0..slots {
                    if (v >> (s * g)) & mask != 0 {
                        *count += 1;
                    }
                }
            }
        }
    }
    atoms
}

/// Order-sensitive digest over a tensor's values.
pub(crate) fn tensor_digest(h: u64, t: &Tensor3) -> u64 {
    let mut h = splitmix64(h ^ 0x7E45_0E5E);
    for &v in t.as_slice() {
        h = splitmix64(h ^ (v as u32 as u64));
    }
    h
}

/// Mutable per-run state of one replica group: which slots are alive and
/// the plan they are priced by — the fleet's static plan until a core
/// death reshards every layer over the survivors.
struct GroupState<'a> {
    /// Global core id of each slot.
    cores: Vec<usize>,
    alive: Vec<bool>,
    plan: Cow<'a, ShardPlan>,
}

impl GroupState<'_> {
    fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Whether `slot` is priced at layer `li`: alive and owning at least
    /// one output channel there.
    fn priced(&self, slot: usize, li: usize) -> bool {
        self.alive[slot] && !self.plan.layers[li][slot].is_empty()
    }
}

/// The sharded fleet simulator: a compiled network, a validated
/// [`FleetConfig`], the static [`ShardPlan`] and the [`Session`] every
/// layer runs through.
#[derive(Debug)]
pub struct Fleet {
    net: Arc<CompiledNetwork>,
    cfg: FleetConfig,
    plan: ShardPlan,
    session: Session,
}

impl Fleet {
    /// Shards a compiled network per the fleet configuration.
    ///
    /// # Errors
    /// Returns [`EngineError::Config`] for invalid fleet configurations.
    pub fn try_new(net: Arc<CompiledNetwork>, cfg: FleetConfig) -> Result<Self, EngineError> {
        cfg.validate()?;
        let plan = ShardPlan::compute(&net, cfg.group_size());
        assert!(
            plan.verify(&net),
            "shard plan must partition every layer's output channels"
        );
        let session = Session::new(net.clone());
        Ok(Self {
            net,
            cfg,
            plan,
            session,
        })
    }

    /// The compiled network the fleet serves.
    pub fn network(&self) -> &CompiledNetwork {
        &self.net
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The static shard plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Eq 5 compute cycles of a shard with the given per-input-channel
    /// weight atoms on the measured activation atom counts.
    fn shard_cycles(&self, weight_atoms: &[u64], act_atoms: &[u64], input_layer: bool) -> u64 {
        let workloads: Vec<ChannelWorkload> = weight_atoms
            .iter()
            .enumerate()
            .map(|(channel, &weight_atoms)| ChannelWorkload {
                channel,
                act_atoms: act_atoms[channel],
                weight_atoms,
            })
            .collect();
        let strategy = if input_layer {
            BalanceStrategy::None
        } else {
            self.net.config().balancing
        };
        balance(
            &workloads,
            self.net.config().tiles,
            self.net.config().multipliers as u64,
            strategy,
        )
        .makespan()
    }

    /// Compute cycles of `slot` at layer `li` (0 unless it is priced).
    fn slot_cycles(&self, state: &GroupState, slot: usize, li: usize, act_atoms: &[u64]) -> u64 {
        if !state.priced(slot, li) {
            return 0;
        }
        self.shard_cycles(&state.plan.atoms[li][slot], act_atoms, li == 0)
    }

    /// Runs one input through a sharded replica group, returning the
    /// output tensor and the input's latency in cycles. Each layer runs
    /// once through the fleet's session; every priced slot is then
    /// charged its Eq 5 compute from its weight atoms and exchanges the
    /// non-zeros of its channels in that one output.
    #[allow(clippy::too_many_arguments)]
    fn run_sharded_input(
        &self,
        input: &Tensor3,
        campaign: Option<crate::fault::FaultConfig>,
        state: &mut GroupState,
        noc: &mut Noc,
        faults: &mut FaultStats,
        busy: &mut u64,
        idle: &mut u64,
        deaths: &mut u64,
        reshards: &mut u64,
    ) -> Result<(Tensor3, u64), EngineError> {
        let cfg = self.net.config();
        let slots = state.alive.len();
        let mut act = input.clone();
        let mut latency = 0u64;
        for (li, layer) in self.net.layers().iter().enumerate() {
            let atoms = act_atoms_per_channel(&act, layer.a_bits.bits(), cfg.atom_bits);
            // Core deaths fire mid-layer: the aborted attempt's makespan is
            // paid, and the group reshards before the layer re-runs.
            if let Some(campaign) = self.cfg.core_deaths {
                let new_dead: Vec<usize> = (0..slots)
                    .filter(|&s| state.alive[s] && campaign.decide(li, state.cores[s]))
                    .collect();
                if !new_dead.is_empty() && new_dead.len() < state.alive_count() {
                    let aborted = (0..slots)
                        .map(|s| self.slot_cycles(state, s, li, &atoms))
                        .max()
                        .unwrap_or(0);
                    latency += aborted;
                    *idle += aborted * state.alive_count() as u64;
                    for &s in &new_dead {
                        state.alive[s] = false;
                        *deaths += 1;
                        obs::record(obs::Event::FleetCoreDeaths, 1);
                    }
                    state.plan = Cow::Owned(ShardPlan::over_alive(&self.net, &state.alive));
                    *reshards += 1;
                    obs::record(obs::Event::FleetReshards, 1);
                }
            }

            let (next, _trace, layer_faults) = self.session.run_layer_with(li, &act, campaign)?;
            faults.merge(&layer_faults);

            // Price every slot on its own channels of the one output, and
            // exchange: each alive slot broadcasts its compressed slice on
            // its *global* NoC port (hybrid groups occupy a sub-range of
            // the ring).
            let bits_per_nonzero = layer.out_bits as u64 + COO_META_BITS;
            let mut compute = vec![0u64; slots];
            let mut global_bits = vec![0u64; self.cfg.cores];
            let mut global_alive = vec![false; self.cfg.cores];
            for slot in 0..slots {
                global_alive[state.cores[slot]] = state.alive[slot];
                if !state.priced(slot, li) {
                    continue;
                }
                compute[slot] = self.slot_cycles(state, slot, li, &atoms);
                let nonzero: usize = state.plan.layers[li][slot]
                    .iter()
                    .map(|&c| next.channel(c).iter().filter(|&&v| v != 0).count())
                    .sum();
                global_bits[state.cores[slot]] = nonzero as u64 * bits_per_nonzero;
                obs::record(obs::Event::FleetShards, 1);
            }
            let comm = noc.all_gather(&global_bits, &global_alive);
            let compute_max = compute.iter().copied().max().unwrap_or(0);
            let layer_span = compute_max + comm;
            latency += layer_span;
            for (slot, &cycles) in compute.iter().enumerate() {
                if state.alive[slot] {
                    *busy += cycles;
                    *idle += layer_span - cycles;
                }
            }
            obs::record(obs::Event::FleetBusyCycles, compute.iter().sum());
            obs::record(obs::Event::FleetMakespanCycles, layer_span);
            act = next;
        }
        Ok((act, latency))
    }

    /// Runs one input on a single unsharded core (Batch groups) through
    /// the plain [`Session`] path, layer by layer so core deaths can
    /// migrate the input to another core.
    #[allow(clippy::too_many_arguments)]
    fn run_unsharded_input(
        &self,
        input: &Tensor3,
        campaign: Option<crate::fault::FaultConfig>,
        core: usize,
        alive: &mut [bool],
        noc: &mut Noc,
        faults: &mut FaultStats,
        busy: &mut u64,
        core_load: &mut [u64],
        deaths: &mut u64,
        reshards: &mut u64,
    ) -> Result<(Tensor3, u64), EngineError> {
        let cfg = self.net.config();
        let mut act = input.clone();
        let mut latency = 0u64;
        let mut owner = core;
        for li in 0..self.net.layers().len() {
            if let Some(campaign) = self.cfg.core_deaths {
                if alive[owner]
                    && campaign.decide(li, owner)
                    && alive.iter().filter(|&&a| a).count() > 1
                {
                    alive[owner] = false;
                    *deaths += 1;
                    obs::record(obs::Event::FleetCoreDeaths, 1);
                    // Migrate to the next alive core: the in-flight
                    // activation crosses the NoC once.
                    let adopter = (owner + 1..owner + alive.len())
                        .map(|c| c % alive.len())
                        .find(|&c| alive[c])
                        .expect("at least one alive core remains");
                    let bits = act.count_nonzero() as u64
                        * (self.net.layers()[li].a_bits.bits() as u64 + COO_META_BITS);
                    let mut slice = vec![0u64; alive.len()];
                    slice[owner] = bits;
                    let mut reach = vec![false; alive.len()];
                    reach[owner] = true;
                    reach[adopter] = true;
                    latency += noc.all_gather(&slice, &reach);
                    owner = adopter;
                    *reshards += 1;
                    obs::record(obs::Event::FleetReshards, 1);
                }
            }
            let atoms =
                act_atoms_per_channel(&act, self.net.layers()[li].a_bits.bits(), cfg.atom_bits);
            let (next, _trace, layer_faults) = self.session.run_layer_with(li, &act, campaign)?;
            faults.merge(&layer_faults);
            let cycles = self.shard_cycles(
                self.net.layers()[li].weight_atoms_per_channel(),
                &atoms,
                li == 0,
            );
            latency += cycles;
            *busy += cycles;
            core_load[owner] += cycles;
            obs::record(obs::Event::FleetBusyCycles, cycles);
            obs::record(obs::Event::FleetShards, 1);
            act = next;
        }
        obs::record(obs::Event::FleetMakespanCycles, latency);
        Ok((act, latency))
    }

    /// Runs a batch of inputs through the fleet.
    ///
    /// # Errors
    /// Same surface as [`Session::run`].
    pub fn run(&self, inputs: &[Tensor3]) -> Result<FleetRun, EngineError> {
        let refs: Vec<&Tensor3> = inputs.iter().collect();
        self.run_with(&refs, self.net.config().faults)
    }

    /// [`Fleet::run`] over borrowed inputs and an explicit fault campaign.
    ///
    /// The serving scheduler dispatches through this surface: batches
    /// borrow their queued input tensors instead of cloning them, and a
    /// tripped circuit breaker substitutes
    /// [`FaultConfig::forced_recovery`](crate::fault::FaultConfig::forced_recovery)
    /// for the compiled campaign. Passing the compiled campaign reproduces
    /// [`Fleet::run`] byte-exactly.
    ///
    /// # Errors
    /// Same surface as [`Fleet::run`].
    pub fn run_with(
        &self,
        inputs: &[&Tensor3],
        campaign: Option<crate::fault::FaultConfig>,
    ) -> Result<FleetRun, EngineError> {
        let _span = obs::span("fleet.run");
        obs::record(obs::Event::FleetRuns, 1);
        obs::record(obs::Event::FleetCores, self.cfg.cores as u64);
        let group_size = self.cfg.group_size();
        let groups = self.cfg.groups();
        let mut noc = Noc::new(self.cfg.cores, self.cfg.noc);
        let mut faults = FaultStats::default();
        let (mut busy, mut idle) = (0u64, 0u64);
        let (mut deaths, mut reshards) = (0u64, 0u64);
        let mut outputs: Vec<Tensor3> = Vec::with_capacity(inputs.len());
        let mut latency_first = 0u64;
        let makespan;

        if group_size == 1 {
            // Batch strategy: independent cores, round-robin dispatch.
            let mut alive = vec![true; self.cfg.cores];
            let mut core_load = vec![0u64; self.cfg.cores];
            for (i, input) in inputs.iter().enumerate() {
                let dispatch: Vec<usize> = (0..self.cfg.cores).filter(|&c| alive[c]).collect();
                let core = dispatch[i % dispatch.len()];
                let (out, latency) = self.run_unsharded_input(
                    input,
                    campaign,
                    core,
                    &mut alive,
                    &mut noc,
                    &mut faults,
                    &mut busy,
                    &mut core_load,
                    &mut deaths,
                    &mut reshards,
                )?;
                if i == 0 {
                    latency_first = latency;
                }
                outputs.push(out);
            }
            makespan = core_load.iter().copied().max().unwrap_or(0);
            let total: u64 = core_load.iter().sum();
            let fleet_idle =
                (makespan * alive.iter().filter(|&&a| a).count() as u64).saturating_sub(total);
            idle += fleet_idle;
        } else {
            // Sharded groups: round-robin inputs over replica groups;
            // groups accumulate independent timelines.
            let mut states: Vec<GroupState> = (0..groups)
                .map(|g| GroupState {
                    cores: (g * group_size..(g + 1) * group_size).collect(),
                    alive: vec![true; group_size],
                    plan: Cow::Borrowed(&self.plan),
                })
                .collect();
            let mut group_time = vec![0u64; groups];
            for (i, input) in inputs.iter().enumerate() {
                let g = i % groups;
                let (out, latency) = self.run_sharded_input(
                    input,
                    campaign,
                    &mut states[g],
                    &mut noc,
                    &mut faults,
                    &mut busy,
                    &mut idle,
                    &mut deaths,
                    &mut reshards,
                )?;
                if i == 0 {
                    latency_first = latency;
                }
                group_time[g] += latency;
                outputs.push(out);
            }
            makespan = group_time.iter().copied().max().unwrap_or(0);
        }

        obs::record(obs::Event::FleetIdleCycles, idle);
        let noc_report = noc.report().clone();
        obs::record(obs::Event::FleetLinkBits, noc_report.link_bits);
        obs::record(obs::Event::FleetLinkBusyCycles, noc_report.link_busy_cycles);
        obs::record(obs::Event::FleetQueueHighwater, noc_report.queue_highwater);

        let mut output_digest = 0x00D1_6E57u64;
        for out in &outputs {
            output_digest = tensor_digest(output_digest, out);
        }
        let report = FleetReport {
            network: self.net.name().to_string(),
            strategy: self.cfg.strategy.to_string(),
            cores: self.cfg.cores,
            inputs: inputs.len() as u64,
            makespan_cycles: makespan,
            latency_cycles: latency_first,
            busy_cycles: busy,
            idle_cycles: idle,
            link_bits: noc_report.link_bits,
            link_busy_cycles: noc_report.link_busy_cycles,
            queue_highwater: noc_report.queue_highwater,
            noc_digest: noc_report.digest(),
            output_digest,
            core_deaths: deaths,
            reshards,
        };
        Ok(FleetRun {
            outputs,
            faults,
            noc: noc_report,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RistrettoConfig;
    use crate::engine::{compile, CompiledLayer, NetworkModel};
    use crate::fault::{CoreDeathConfig, FaultConfig};
    use crate::pipeline::PipelineLayer;
    use qnn::mini::MiniNetwork;
    use qnn::models::NetworkId;
    use qnn::quant::BitWidth;
    use qnn::tensor::Tensor4;
    use qnn::workload::{ActivationProfile, WeightProfile, WorkloadGen};

    fn compiled_and_inputs(
        id: NetworkId,
        seed: u64,
        inputs: usize,
    ) -> (Arc<CompiledNetwork>, Vec<Tensor3>) {
        let mini = MiniNetwork::try_new(id).unwrap();
        let mut gen = WorkloadGen::new(seed);
        let wp = WeightProfile::benchmark(BitWidth::W4);
        let model = NetworkModel::from_mini(&mini, &mut gen, &wp).unwrap();
        let (c, h, w) = model.input;
        let images = (0..inputs)
            .map(|_| {
                gen.activations(c, h, w, &ActivationProfile::new(BitWidth::W8))
                    .unwrap()
            })
            .collect();
        let net = compile(&model, &RistrettoConfig::paper_default()).unwrap();
        (net, images)
    }

    fn compiled_and_input(seed: u64) -> (Arc<CompiledNetwork>, Tensor3) {
        let (net, mut inputs) = compiled_and_inputs(NetworkId::GoogLeNet, seed, 1);
        (net, inputs.remove(0))
    }

    fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    #[test]
    fn plan_partitions_every_layer() {
        let (net, _) = compiled_and_input(3);
        for cores in [1, 2, 4, 8] {
            let plan = ShardPlan::compute(&net, cores);
            assert!(plan.verify(&net), "{cores} cores");
            assert_eq!(plan.group_size, cores);
        }
    }

    /// The pricing oracle: every slot's weight atoms equal those of the
    /// layer recompiled from its kernels sliced to the slot's channels.
    #[test]
    fn slot_weight_atoms_match_sliced_recompiles() {
        for (i, id) in NetworkId::ALL.into_iter().enumerate() {
            let (net, _) = compiled_and_inputs(id, 60 + i as u64, 0);
            for slots in [2, 4, 8] {
                let plan = ShardPlan::compute(&net, slots);
                for (li, layer) in net.layers().iter().enumerate() {
                    let (_, in_c, kh, kw) = layer.kernels().shape();
                    for (slot, channels) in plan.layers[li].iter().enumerate() {
                        let got = &plan.atoms[li][slot];
                        if channels.is_empty() {
                            assert!(got.iter().all(|&a| a == 0), "{id:?} layer {li}");
                            continue;
                        }
                        let kernels =
                            Tensor4::from_fn(channels.len(), in_c, kh, kw, |o, c, y, x| {
                                layer.kernels().get(channels[o], c, y, x)
                            })
                            .unwrap();
                        let sliced = PipelineLayer {
                            name: layer.name().to_string(),
                            kernels,
                            geom: layer.geom,
                            w_bits: layer.weights().w_bits(),
                            a_bits: layer.a_bits,
                            requant_shift: layer.requant_shift,
                            out_bits: layer.out_bits,
                            pool: layer.pool,
                        };
                        let reference = CompiledLayer::compile(&sliced, net.config()).unwrap();
                        assert_eq!(
                            got.as_slice(),
                            reference.weight_atoms_per_channel(),
                            "{id:?} x{slots} layer {li} slot {slot}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fault_campaigns_are_a_property_of_the_layer() {
        let (net, input) = compiled_and_input(5);
        let reference = Session::new(net.clone()).run(&input).unwrap().output;
        let campaign = Some(FaultConfig::uniform(7, 20_000));
        let run = |cfg: FleetConfig| {
            Fleet::try_new(net.clone(), cfg)
                .unwrap()
                .run_with(&[&input], campaign)
                .unwrap()
        };
        let one = run(FleetConfig::new(1, ShardStrategy::OutputChannel));
        assert!(one.faults.injected_total() > 0, "campaign must fire");
        let sharded = [
            FleetConfig::new(2, ShardStrategy::OutputChannel),
            FleetConfig::new(4, ShardStrategy::OutputChannel),
            FleetConfig::new(8, ShardStrategy::OutputChannel),
            FleetConfig::new(4, ShardStrategy::Hybrid(2)),
        ];
        for cfg in sharded {
            for threads in [1, 4] {
                let got = with_threads(threads, || run(cfg));
                let label = format!("{} x{} at {threads} threads", cfg.strategy, cfg.cores);
                assert_eq!(got.faults, one.faults, "{label}");
                assert_eq!(got.outputs, std::slice::from_ref(&reference), "{label}");
            }
        }
    }

    /// The fleet twin of the session's zero-allocation steady state: every
    /// layer runs through the fleet's one session and its arenas.
    #[test]
    fn fleet_steady_state_allocates_no_accumulator_planes() {
        let (net, inputs) = compiled_and_inputs(NetworkId::GoogLeNet, 223, 5);
        with_threads(1, || {
            let fleet =
                Fleet::try_new(net, FleetConfig::new(4, ShardStrategy::OutputChannel)).unwrap();
            assert_eq!(fleet.session.scratch_plane_allocations(), 0);
            fleet.run(&inputs[..1]).unwrap();
            let after_first = fleet.session.scratch_plane_allocations();
            assert!(after_first > 0, "first pass must populate the pools");
            for input in &inputs[1..] {
                fleet.run(std::slice::from_ref(input)).unwrap();
                assert_eq!(fleet.session.scratch_plane_allocations(), after_first);
            }
        });
    }

    /// A core death reshards every layer, so the group's later inputs keep
    /// the dead core's channels and pay exactly what the survivor alone
    /// would.
    #[test]
    fn core_death_reshards_every_layer_for_later_inputs() {
        for id in [NetworkId::ResNet18, NetworkId::GoogLeNet] {
            let (net, inputs) = compiled_and_inputs(id, 53, 2);
            let cfg = FleetConfig::new(2, ShardStrategy::OutputChannel)
                .with_core_deaths(Some(CoreDeathConfig::new(7, 400_000)));
            let fleet = Fleet::try_new(net.clone(), cfg).unwrap();
            let both = fleet.run(&inputs).unwrap();
            let first = fleet.run(&inputs[..1]).unwrap();
            assert_eq!(both.report.core_deaths, 1, "{id:?}");
            let expected = Session::new(net.clone()).run(&inputs[1]).unwrap().output;
            assert_eq!(both.outputs[1], expected, "{id:?}");
            let survivor = Fleet::try_new(net, FleetConfig::new(1, ShardStrategy::OutputChannel))
                .unwrap()
                .run(&inputs[1..])
                .unwrap();
            assert_eq!(
                both.report.makespan_cycles - first.report.makespan_cycles,
                survivor.report.makespan_cycles,
                "{id:?}"
            );
        }
    }

    #[test]
    fn one_core_fleet_matches_session_bytes() {
        let (net, input) = compiled_and_input(5);
        let session_out = Session::new(net.clone()).run(&input).unwrap().output;
        for strategy in [ShardStrategy::Batch, ShardStrategy::OutputChannel] {
            let fleet = Fleet::try_new(net.clone(), FleetConfig::new(1, strategy)).unwrap();
            let run = fleet.run(std::slice::from_ref(&input)).unwrap();
            assert_eq!(run.outputs[0], session_out, "{strategy}");
            assert_eq!(run.report.link_bits, 0, "{strategy}");
        }
    }

    #[test]
    fn output_channel_sharding_is_invariant_across_core_counts() {
        let (net, input) = compiled_and_input(7);
        let reference = Session::new(net.clone()).run(&input).unwrap().output;
        let mut latencies = Vec::new();
        for cores in [2, 4] {
            let fleet = Fleet::try_new(
                net.clone(),
                FleetConfig::new(cores, ShardStrategy::OutputChannel),
            )
            .unwrap();
            let run = fleet.run(std::slice::from_ref(&input)).unwrap();
            assert_eq!(run.outputs[0], reference, "{cores} cores");
            assert!(run.report.link_bits > 0);
            assert!(run.report.queue_highwater >= 1);
            latencies.push(run.report.latency_cycles);
        }
        // More cores cut single-input compute latency (comm may offset
        // some of it, but on GoogLeNet mini the win dominates).
        assert!(latencies[1] < latencies[0] * 2);
    }

    #[test]
    fn batch_strategy_scales_throughput() {
        let (net, input) = compiled_and_input(9);
        let inputs: Vec<Tensor3> = (0..4).map(|_| input.clone()).collect();
        let one = Fleet::try_new(net.clone(), FleetConfig::new(1, ShardStrategy::Batch))
            .unwrap()
            .run(&inputs)
            .unwrap();
        let four = Fleet::try_new(net.clone(), FleetConfig::new(4, ShardStrategy::Batch))
            .unwrap()
            .run(&inputs)
            .unwrap();
        assert_eq!(one.outputs, four.outputs);
        assert_eq!(four.report.makespan_cycles * 4, one.report.makespan_cycles);
        assert_eq!(one.report.link_bits, 0);
        // Integer throughput ratio: 4 cores do 4x the inputs per cycle.
        assert!(four.report.throughput_per_mcycle() > 3.9 * one.report.throughput_per_mcycle());
    }

    #[test]
    fn hybrid_combines_both_axes() {
        let (net, input) = compiled_and_input(11);
        let inputs: Vec<Tensor3> = (0..2).map(|_| input.clone()).collect();
        let cfg = FleetConfig::new(4, ShardStrategy::Hybrid(2));
        assert_eq!(cfg.group_size(), 2);
        assert_eq!(cfg.groups(), 2);
        let run = Fleet::try_new(net.clone(), cfg)
            .unwrap()
            .run(&inputs)
            .unwrap();
        let reference = Session::new(net).run(&input).unwrap().output;
        assert_eq!(run.outputs[0], reference);
        assert_eq!(run.outputs[1], reference);
        assert!(run.report.link_bits > 0);
    }

    #[test]
    fn core_death_reshards_and_reproduces_fault_free_bytes() {
        let (net, input) = compiled_and_input(13);
        let clean = Fleet::try_new(
            net.clone(),
            FleetConfig::new(4, ShardStrategy::OutputChannel),
        )
        .unwrap()
        .run(std::slice::from_ref(&input))
        .unwrap();
        // A hot campaign: every (layer, core) site rolls at 20%.
        let cfg = FleetConfig::new(4, ShardStrategy::OutputChannel)
            .with_core_deaths(Some(crate::fault::CoreDeathConfig::new(21, 200_000)));
        let chaotic = Fleet::try_new(net, cfg).unwrap();
        let run = chaotic.run(std::slice::from_ref(&input)).unwrap();
        assert!(run.report.core_deaths > 0, "campaign must fire");
        assert!(run.report.reshards > 0);
        assert_eq!(run.outputs, clean.outputs, "recovery must be byte-exact");
        assert_eq!(run.report.output_digest, clean.report.output_digest);
        assert!(run.report.latency_cycles > clean.report.latency_cycles);
        // Determinism: same campaign, same bytes and counters.
        let again = chaotic.run(std::slice::from_ref(&input)).unwrap();
        assert_eq!(run.report, again.report);
    }

    #[test]
    fn act_atom_counts_match_compression() {
        use atomstream::compress::compress_activations;
        use atomstream::flatten::FlatActivation;
        let (_, input) = compiled_and_input(17);
        let atoms = act_atoms_per_channel(&input, 8, AtomBits::B2);
        let (_, h, w) = input.shape();
        for (ci, &expected) in atoms.iter().enumerate() {
            let flat: Vec<FlatActivation> = (0..h)
                .flat_map(|y| (0..w).map(move |x| (y, x)))
                .filter_map(|(y, x)| {
                    let value = input.get(ci, y, x);
                    (value != 0).then_some(FlatActivation {
                        value,
                        x: x as u16,
                        y: y as u16,
                    })
                })
                .collect();
            let stream = compress_activations(&flat, 8, AtomBits::B2).unwrap();
            assert_eq!(expected, stream.len() as u64, "channel {ci}");
        }
    }

    #[test]
    fn invalid_fleet_configs_are_typed_errors() {
        use crate::config::ConfigError;
        let (net, _) = compiled_and_input(19);
        let err =
            Fleet::try_new(net.clone(), FleetConfig::new(0, ShardStrategy::Batch)).unwrap_err();
        assert_eq!(err, EngineError::Config(ConfigError::ZeroCores));
        let err = Fleet::try_new(net, FleetConfig::new(4, ShardStrategy::Hybrid(3))).unwrap_err();
        assert_eq!(
            err,
            EngineError::Config(ConfigError::InvalidReplicas {
                replicas: 3,
                cores: 4
            })
        );
    }

    #[test]
    fn hybrid_with_more_replicas_than_cores_is_a_typed_error() {
        use crate::config::ConfigError;
        let (net, _) = compiled_and_input(23);
        // R > cores can never divide the core count, so the degenerate
        // "replica groups with zero cores" plan is unreachable: validation
        // rejects it up front with a typed error naming both numbers.
        for replicas in [5, 8, 1000] {
            let err = Fleet::try_new(
                net.clone(),
                FleetConfig::new(4, ShardStrategy::Hybrid(replicas)),
            )
            .unwrap_err();
            assert_eq!(
                err,
                EngineError::Config(ConfigError::InvalidReplicas { replicas, cores: 4 }),
                "Hybrid({replicas}) on 4 cores"
            );
        }
        // R == cores is the legal degenerate end of the axis: group size 1,
        // i.e. plain batch parallelism.
        let (net, _) = compiled_and_input(23);
        let cfg = FleetConfig::new(4, ShardStrategy::Hybrid(4));
        assert_eq!(cfg.group_size(), 1);
        assert!(Fleet::try_new(net, cfg).is_ok());
    }

    /// A network whose middle layer has a single output channel — fewer
    /// channels than any multi-core fleet has slots.
    fn one_channel_model(seed: u64) -> (NetworkModel, Tensor3) {
        let mut gen = WorkloadGen::new(seed);
        let wp = WeightProfile::benchmark(BitWidth::W4);
        let geom = qnn::conv::ConvGeometry {
            stride: 1,
            padding: 1,
        };
        let mk = |name: &str, out_c: usize, in_c: usize, gen: &mut WorkloadGen| {
            crate::pipeline::PipelineLayer {
                name: name.to_string(),
                kernels: gen.weights(out_c, in_c, 3, 3, &wp).unwrap(),
                geom,
                w_bits: wp.bits,
                a_bits: BitWidth::W8,
                requant_shift: 5,
                out_bits: 8,
                pool: None,
            }
        };
        let layers = vec![
            mk("wide", 6, 3, &mut gen),
            mk("bottleneck", 1, 6, &mut gen),
            mk("head", 4, 1, &mut gen),
        ];
        let model = NetworkModel::new("one-channel", (3, 8, 8), layers);
        let input = gen
            .activations(3, 8, 8, &ActivationProfile::new(BitWidth::W8))
            .unwrap();
        (model, input)
    }

    #[test]
    fn more_cores_than_output_channels_degrades_deterministically() {
        // A 1-output-channel layer sharded across 4 (and 8) cores: the LPT
        // partition leaves most slots empty. That must not panic or
        // produce a degenerate plan — empty slots idle through the layer
        // and the assembled bytes stay identical to the single-core
        // session.
        let (model, input) = one_channel_model(29);
        let net = compile(&model, &RistrettoConfig::paper_default()).unwrap();
        let reference = Session::new(net.clone()).run(&input).unwrap().output;
        for cores in [2, 4, 8] {
            let fleet = Fleet::try_new(
                net.clone(),
                FleetConfig::new(cores, ShardStrategy::OutputChannel),
            )
            .unwrap();
            // The plan still exactly partitions every layer; the
            // bottleneck layer's single channel lands in exactly one slot.
            assert!(fleet.plan().verify(&net), "{cores} cores");
            let occupied: usize = fleet.plan().layers[1]
                .iter()
                .filter(|g| !g.is_empty())
                .count();
            assert_eq!(occupied, 1, "{cores} cores");
            let run = fleet.run(std::slice::from_ref(&input)).unwrap();
            assert_eq!(run.outputs[0], reference, "{cores} cores");
            // Determinism: a second pass reproduces the report bytes.
            let again = fleet.run(std::slice::from_ref(&input)).unwrap();
            assert_eq!(run.report, again.report, "{cores} cores");
        }
    }
}
