//! # ristretto-sim — the Ristretto accelerator model
//!
//! Models the accelerator of §IV of the paper at two fidelity levels:
//!
//! * [`tile`] — a cycle-level simulation of one compute tile (Atomizer →
//!   Atomputer → Atomulator → accumulate buffer), including systolic fill,
//!   ping-pong weight updates and crossbar FIFO backpressure;
//! * [`analytic`] — the closed-form layer/network model built on the
//!   paper's Eq 3–5, cross-validated against the cycle-level tile.
//!
//! The [`engine`] module splits those models into a compile-once/run-many
//! workflow: [`engine::compile`] produces every *static* artifact (weight
//! streams, per-channel statistics, buffer layout, the weight-only balancer
//! grouping) once per network, and [`engine::Session`]s perform only the
//! per-input work. [`backend`] plugs the analytic model into the
//! workspace-wide [`baselines::report::Backend`] trait alongside the six
//! baseline machines. [`fleet`] scales the engine to a core array (Fig 7):
//! it shards a compiled network under explicit strategies and routes
//! inter-core activation traffic through the deterministic [`noc`]
//! queueing model. [`serve`] deploys it all as a long-lived multi-tenant
//! serving layer: a content-addressed model registry, a bounded request
//! queue with weighted fair dequeue, and a continuous-batching scheduler
//! in virtual time, driven by a seeded closed-loop load generator.
//!
//! Supporting modules: [`config`] (architecture parameters and the paper's
//! experiment presets), [`area`] (Table VI assembly from the `hwmodel`
//! component library), [`balance`] (the greedy w/a load balancer of §IV-E),
//! [`pipeline`] (the layer plan and per-layer trace types the engine
//! consumes and returns), [`energy`] (event pricing), [`report`] (result
//! types), and [`artifact`]/[`modelcache`] (the versioned on-disk form of
//! compiled networks plus the content-addressed cache that serves it).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analytic;
pub mod area;
pub mod artifact;
pub mod backend;
pub mod balance;
pub mod config;
pub mod core;
pub mod energy;
pub mod engine;
pub mod fault;
pub mod fleet;
pub mod modelcache;
pub mod noc;
pub mod pipeline;
pub mod ppu;
pub mod report;
pub mod serve;
pub mod tile;
pub mod weightbuf;

/// Glob import of the commonly used items.
pub mod prelude {
    pub use crate::analytic::RistrettoSim;
    pub use crate::area::AreaBreakdown;
    pub use crate::balance::{balance, BalanceStrategy, ChannelWorkload};
    pub use crate::config::{ConfigError, FleetConfig, RistrettoConfig};
    pub use crate::core::{CoreError, CoreReport, CoreSim};
    pub use crate::energy::RistrettoEnergyModel;
    pub use crate::engine::{
        compile, CompiledLayer, CompiledNetwork, EngineError, NetworkModel, Session, SessionRun,
    };
    pub use crate::fault::{
        CoreDeathConfig, FaultConfig, FaultDetected, FaultInjector, FaultStats, FaultStructure,
    };
    pub use crate::fleet::{Fleet, FleetReport, FleetRun, ShardPlan, ShardStrategy};
    pub use crate::modelcache::{CacheError, CacheKey, CacheStats, ModelCache};
    pub use crate::noc::{Noc, NocConfig, NocReport};
    pub use crate::pipeline::PipelineLayer;
    pub use crate::ppu::{PostProcessor, PpuOutput};
    pub use crate::report::{LayerReport, NetworkReport};
    pub use crate::serve::{
        run_load, LoadGenConfig, ModelId, ModelRegistry, ServeConfig, ServeError, ServeReport,
        Server, TenantStats,
    };
    pub use crate::tile::{TileReport, TileSim};
    pub use baselines::report::Backend;
}
