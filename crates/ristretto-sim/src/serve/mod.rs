//! Multi-tenant inference serving over compiled networks.
//!
//! The Liguori MAC-less processor (arXiv 2012.06018) frames deployment as
//! a long-lived accelerator fed by a request stream over compressed,
//! resident weights; Gysel's Ristretto thesis (arXiv 1605.06402) makes
//! per-tenant precision configs first-class. This module is that
//! deployment shape for the simulator: a long-lived in-process server
//! holding one [`Arc<CompiledNetwork>`](crate::engine::CompiledNetwork)
//! per `(network, config)` pair in a content-addressed
//! [registry](registry::ModelRegistry) (backed by the on-disk
//! [`ModelCache`](crate::modelcache::ModelCache) when one is attached),
//! fed through an in-process bounded queue — offline-friendly, no sockets.
//!
//! The [`Server`] runs a **continuous-batching**
//! scheduler: queued requests coalesce per model up to
//! [`ServeConfig::max_batch`], an idle lane waits at most
//! [`ServeConfig::max_wait_ticks`] for a batch to fill, and a lane that
//! frees with work pending redispatches immediately. Admission control is
//! a bounded global queue surfaced as the typed
//! [`ServeError::Rejected`]; dequeue order within a batch is smooth
//! weighted round-robin across tenants ([`ServeConfig::tenant_weights`]).
//! Batches of at least [`ServeConfig::fleet_batch_threshold`] requests
//! route through a [`ShardStrategy::Batch`](crate::fleet::ShardStrategy)
//! fleet of [`ServeConfig::fleet_cores`] cores; smaller batches run on the
//! model's single-core lane. Either way the executor is
//! [`Fleet::run`](crate::fleet::Fleet::run), so outputs are byte-identical to plain
//! [`Session`](crate::engine::Session) inference and fault campaigns
//! (chaos under load) recover byte-exactly.
//!
//! **Determinism contract**: the scheduler runs in virtual time — integer
//! microticks derived from the Eq 5 cycle model, never wall clock — on a
//! single timeline, and the engine and fleets it drives run on the calling
//! thread. A seeded [closed-loop load generator](loadgen) (pure splitmix64
//! arrival and routing hashes, like [`crate::fault`]) therefore produces a
//! [`ServeReport`] that is byte-identical at any `--threads` count.

pub mod loadgen;
pub mod registry;
pub mod report;
pub mod server;

use crate::config::ConfigError;
use crate::engine::EngineError;
use crate::fault::CoreDeathConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-tenant service-level objective class, ordered by urgency.
///
/// The class drives two scheduler behaviors: `Interactive` requests with
/// deadlines arm the SLO-aware early-dispatch trigger, and `BestEffort`
/// admissions are the first shed under brownout
/// ([`ServeConfig::brownout_permille`]). `Batch` is the neutral middle:
/// normal batching, no early dispatch, admitted until the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SloClass {
    /// Latency-sensitive: deadlines arm the early-dispatch trigger.
    Interactive,
    /// Throughput-oriented: standard continuous-batching policy.
    Batch,
    /// Sheddable: rejected first when the queue crosses the brownout
    /// high-water mark.
    BestEffort,
}

impl SloClass {
    /// Every class, in serialized/report order.
    pub const ALL: [SloClass; 3] = [SloClass::Interactive, SloClass::Batch, SloClass::BestEffort];

    /// Dense index into per-class tables (`ALL[idx] == self`).
    pub fn index(self) -> usize {
        match self {
            SloClass::Interactive => 0,
            SloClass::Batch => 1,
            SloClass::BestEffort => 2,
        }
    }

    /// The kebab-case name used by serialization and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Batch => "batch",
            SloClass::BestEffort => "best-effort",
        }
    }

    /// Parses the kebab-case name ([`SloClass::name`]).
    ///
    /// # Errors
    /// Returns the unknown name so CLI surfaces can cite it.
    pub fn parse(s: &str) -> Result<Self, &str> {
        match s {
            "interactive" => Ok(SloClass::Interactive),
            "batch" => Ok(SloClass::Batch),
            "best-effort" => Ok(SloClass::BestEffort),
            other => Err(other),
        }
    }
}

impl fmt::Display for SloClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// Hand-rolled serde impls: the class serializes as its kebab-case name
// (the vendored derive has no `rename_all`, and reports should read
// `"best-effort"`, not `"BestEffort"`).
impl Serialize for SloClass {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.name().to_string())
    }
}

impl Deserialize for SloClass {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = String::from_value(v)?;
        SloClass::parse(&s)
            .map_err(|other| serde::Error::custom(format!("unknown SLO class {other:?}")))
    }
}

/// Serving-layer parameters: batching, admission and fairness policy, the
/// large-batch fleet lane, and the robustness knobs (SLO classes,
/// brownout shedding, the per-lane circuit breaker and the serve-level
/// core-death campaign).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Most requests one dispatch may coalesce.
    pub max_batch: usize,
    /// Longest an idle lane lets the oldest queued request wait (in
    /// microticks) for a batch to fill before dispatching what it has.
    pub max_wait_ticks: u64,
    /// Bound on queued (admitted, not yet dispatched) requests across all
    /// models; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Fair-share weight per tenant; tenant ids index this table.
    pub tenant_weights: Vec<u64>,
    /// SLO class per tenant; indexed by the same tenant ids as
    /// `tenant_weights` (the two tables must be the same length).
    pub tenant_classes: Vec<SloClass>,
    /// Brownout high-water mark as a permille of `queue_capacity`: once
    /// queue depth reaches `queue_capacity * brownout_permille / 1000`,
    /// `BestEffort` admissions are rejected. `1000` puts the mark at the
    /// queue bound itself, i.e. brownout never fires before ordinary
    /// admission control.
    pub brownout_permille: u16,
    /// Cores of the batch-sharded fleet lane; `1` disables fleet routing.
    pub fleet_cores: usize,
    /// Smallest batch routed through the multi-core fleet lane (only
    /// meaningful when `fleet_cores > 1`).
    pub fleet_batch_threshold: usize,
    /// Consecutive batches with detected faults that trip a lane's
    /// circuit breaker open; `0` disables the breaker.
    pub breaker_threshold: u32,
    /// Virtual ticks an open breaker waits before half-opening (probing
    /// the primary route again). Must be non-zero when the breaker is
    /// enabled.
    pub breaker_cooldown_ticks: u64,
    /// Serve-level chaos: a deterministic core-death campaign attached to
    /// the multi-core fleet lane, so deaths and reshards fire inside
    /// fleet batches mid-serve.
    pub core_deaths: Option<CoreDeathConfig>,
}

impl ServeConfig {
    /// A small default: batches of 8, 10k-tick patience, 64-deep queue,
    /// an interactive and a batch tenant at equal weight, 4-core fleet
    /// lane for batches of 4+, breaker tripping after 2 faulted batches
    /// with a 50k-tick cooldown, brownout at the queue bound (off), no
    /// core deaths.
    pub fn paper_default() -> Self {
        Self {
            max_batch: 8,
            max_wait_ticks: 10_000,
            queue_capacity: 64,
            tenant_weights: vec![1, 1],
            tenant_classes: vec![SloClass::Interactive, SloClass::Batch],
            brownout_permille: 1000,
            fleet_cores: 4,
            fleet_batch_threshold: 4,
            breaker_threshold: 2,
            breaker_cooldown_ticks: 50_000,
            core_deaths: None,
        }
    }

    /// Number of tenants the config schedules.
    pub fn tenants(&self) -> usize {
        self.tenant_weights.len()
    }

    /// The queue depth at which brownout starts shedding `BestEffort`
    /// admissions. Computed in `u128`, so it is exact at any capacity.
    pub fn brownout_highwater(&self) -> usize {
        let mark = self.queue_capacity as u128 * u128::from(self.brownout_permille) / 1000;
        usize::try_from(mark).unwrap_or(usize::MAX).max(1)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Never panics; returns a typed [`ConfigError`] on inconsistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_batch == 0 {
            return Err(ConfigError::ZeroMaxBatch);
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.tenant_weights.is_empty() {
            return Err(ConfigError::NoTenants);
        }
        if let Some(t) = self.tenant_weights.iter().position(|&w| w == 0) {
            return Err(ConfigError::ZeroTenantWeight(t));
        }
        if self.tenant_classes.len() != self.tenant_weights.len() {
            return Err(ConfigError::TenantClassCountMismatch {
                classes: self.tenant_classes.len(),
                tenants: self.tenant_weights.len(),
            });
        }
        if self.brownout_permille == 0 || self.brownout_permille > 1000 {
            return Err(ConfigError::BrownoutOutOfRange(self.brownout_permille));
        }
        if self.fleet_cores == 0 {
            return Err(ConfigError::ZeroCores);
        }
        if self.breaker_threshold > 0 && self.breaker_cooldown_ticks == 0 {
            return Err(ConfigError::ZeroBreakerCooldown);
        }
        Ok(())
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Typed failures of the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The serving or model configuration is inconsistent.
    Config(ConfigError),
    /// Admission control refused the request: the bounded queue is full.
    Rejected {
        /// Tenant whose request was refused.
        tenant: usize,
        /// Queue occupancy at the refusal.
        queue_depth: usize,
        /// The configured bound it hit.
        capacity: usize,
        /// Earliest virtual tick a queue slot is expected to free (the
        /// next dispatch across all lanes) — the backoff hint the load
        /// generator's retry loop respects.
        retry_after: u64,
    },
    /// Brownout shed a `BestEffort` admission: queue depth crossed the
    /// configured high-water mark while capacity remained for higher
    /// classes.
    BrownedOut {
        /// Tenant whose request was shed.
        tenant: usize,
        /// Queue occupancy at the refusal.
        queue_depth: usize,
        /// The brownout high-water mark it crossed.
        highwater: usize,
        /// Earliest virtual tick a queue slot is expected to free.
        retry_after: u64,
    },
    /// A request named a tenant outside the configured weight table.
    UnknownTenant {
        /// The out-of-range tenant id.
        tenant: usize,
        /// Number of configured tenants.
        tenants: usize,
    },
    /// A request named a model id the registry does not hold.
    UnknownModel(usize),
    /// Compilation or execution failed underneath the server.
    Engine(EngineError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(e) => write!(f, "serve config: {e}"),
            ServeError::Rejected {
                tenant,
                queue_depth,
                capacity,
                retry_after,
            } => write!(
                f,
                "request rejected for tenant {tenant}: queue at {queue_depth}/{capacity} (retry after tick {retry_after})"
            ),
            ServeError::BrownedOut {
                tenant,
                queue_depth,
                highwater,
                retry_after,
            } => write!(
                f,
                "best-effort request browned out for tenant {tenant}: queue at {queue_depth} crossed high-water {highwater} (retry after tick {retry_after})"
            ),
            ServeError::UnknownTenant { tenant, tenants } => {
                write!(f, "tenant {tenant} outside the {tenants}-tenant table")
            }
            ServeError::UnknownModel(id) => write!(f, "model id {id} not registered"),
            ServeError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Config(e) => Some(e),
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for ServeError {
    fn from(e: ConfigError) -> Self {
        ServeError::Config(e)
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

pub use loadgen::{run_load, LoadGenConfig};
pub use registry::{ModelId, ModelRegistry};
pub use report::{ChaosTwin, ClassStats, ServeReport, TenantStats};
pub use server::{Completion, Disposition, Server, ServerStats};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_config_validates() {
        assert!(ServeConfig::paper_default().validate().is_ok());
        let mut c = ServeConfig::paper_default();
        c.max_batch = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroMaxBatch));
        let mut c = ServeConfig::paper_default();
        c.queue_capacity = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroQueueCapacity));
        let mut c = ServeConfig::paper_default();
        c.tenant_weights.clear();
        assert_eq!(c.validate(), Err(ConfigError::NoTenants));
        let mut c = ServeConfig::paper_default();
        c.tenant_weights = vec![2, 0];
        assert_eq!(c.validate(), Err(ConfigError::ZeroTenantWeight(1)));
        let mut c = ServeConfig::paper_default();
        c.fleet_cores = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroCores));
        let mut c = ServeConfig::paper_default();
        c.tenant_classes = vec![SloClass::Interactive];
        assert_eq!(
            c.validate(),
            Err(ConfigError::TenantClassCountMismatch {
                classes: 1,
                tenants: 2
            })
        );
        let mut c = ServeConfig::paper_default();
        c.brownout_permille = 0;
        assert_eq!(c.validate(), Err(ConfigError::BrownoutOutOfRange(0)));
        let mut c = ServeConfig::paper_default();
        c.brownout_permille = 1001;
        assert_eq!(c.validate(), Err(ConfigError::BrownoutOutOfRange(1001)));
        let mut c = ServeConfig::paper_default();
        c.breaker_cooldown_ticks = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroBreakerCooldown));
        // Breaker disabled: a zero cooldown is fine.
        c.breaker_threshold = 0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejected_error_names_the_numbers() {
        let e = ServeError::Rejected {
            tenant: 3,
            queue_depth: 64,
            capacity: 64,
            retry_after: 123,
        };
        let s = e.to_string();
        assert!(
            s.contains("tenant 3") && s.contains("64/64") && s.contains("123"),
            "{s}"
        );
        let e = ServeError::BrownedOut {
            tenant: 2,
            queue_depth: 51,
            highwater: 51,
            retry_after: 77,
        };
        let s = e.to_string();
        assert!(
            s.contains("tenant 2") && s.contains("high-water 51") && s.contains("77"),
            "{s}"
        );
    }

    #[test]
    fn slo_class_round_trips_names_and_indices() {
        for (i, class) in SloClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i);
            assert_eq!(SloClass::parse(class.name()), Ok(class));
            assert_eq!(class.to_string(), class.name());
        }
        assert_eq!(SloClass::parse("turbo"), Err("turbo"));
        // The serde names match the CLI names.
        assert_eq!(
            serde_json::to_string(&SloClass::BestEffort).unwrap(),
            "\"best-effort\""
        );
    }

    #[test]
    fn brownout_highwater_scales_with_capacity() {
        let mut c = ServeConfig::paper_default();
        c.queue_capacity = 64;
        c.brownout_permille = 500;
        assert_eq!(c.brownout_highwater(), 32);
        c.brownout_permille = 1000;
        assert_eq!(c.brownout_highwater(), 64);
        // Tiny queues still get a non-zero mark.
        c.queue_capacity = 1;
        c.brownout_permille = 1;
        assert_eq!(c.brownout_highwater(), 1);
    }

    #[test]
    fn brownout_highwater_is_exact_at_the_largest_capacity() {
        let mut c = ServeConfig::paper_default();
        c.queue_capacity = usize::MAX;
        c.brownout_permille = 500;
        assert_eq!(c.brownout_highwater(), usize::MAX / 2);
    }
}
