//! Ristretto architecture configuration and the paper's experiment presets.

use atomstream::atom::AtomBits;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A structural inconsistency in a [`RistrettoConfig`].
///
/// Produced by [`RistrettoConfig::validate`] and surfaced by every fallible
/// simulator constructor (`try_new`) in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The tile count (`M`) is zero.
    ZeroTiles,
    /// The per-tile multiplier count (`N`) is zero.
    ZeroMultipliers,
    /// A feature-map tile extent is zero.
    ZeroTileExtent,
    /// The accumulator width lies outside the supported 16..=48 range.
    AccumulatorWidth(u8),
    /// An atom granularity outside the Fig 19 sweep (1/2/3 bits).
    UnsupportedGranularity(u8),
    /// A multi-core configuration with zero cores.
    ZeroCores,
    /// A fault-injection rate above 1 000 000 ppm (more than one fault per
    /// opportunity is meaningless).
    FaultRateOutOfRange(u32),
    /// A NoC link with zero bits per cycle cannot move traffic.
    ZeroLinkBandwidth,
    /// A NoC port FIFO with zero entries deadlocks on the first flit.
    ZeroNocFifoDepth,
    /// A hybrid fleet whose replica count does not divide the core count
    /// (or is zero): every replica group must get the same whole number of
    /// cores.
    InvalidReplicas {
        /// Requested replica-group count.
        replicas: usize,
        /// Fleet core count it must divide.
        cores: usize,
    },
    /// A serving configuration whose maximum batch size is zero — no
    /// dispatch could ever carry a request.
    ZeroMaxBatch,
    /// A serving queue with zero capacity rejects every request.
    ZeroQueueCapacity,
    /// A serving configuration with no tenants has nobody to schedule.
    NoTenants,
    /// A tenant whose fair-share weight is zero would starve forever.
    ZeroTenantWeight(usize),
    /// The SLO-class table does not cover every tenant (or names extras):
    /// the two tables are indexed by the same tenant ids.
    TenantClassCountMismatch {
        /// Entries in the SLO-class table.
        classes: usize,
        /// Entries in the tenant-weight table.
        tenants: usize,
    },
    /// A brownout high-water fraction outside 1..=1000 permille: zero
    /// would shed best-effort traffic on an empty queue, and more than
    /// 1000 can never fire.
    BrownoutOutOfRange(u16),
    /// A circuit breaker with a trip threshold but no cooldown would
    /// re-probe the faulted lane on the very next batch, defeating the
    /// open state.
    ZeroBreakerCooldown,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroTiles => write!(f, "tile count must be non-zero"),
            ConfigError::ZeroMultipliers => write!(f, "multiplier count must be non-zero"),
            ConfigError::ZeroTileExtent => {
                write!(f, "feature-map tile extents must be non-zero")
            }
            ConfigError::AccumulatorWidth(bits) => {
                write!(f, "accumulator width {bits} outside 16..=48")
            }
            ConfigError::UnsupportedGranularity(bits) => {
                write!(f, "Fig 19 evaluates 1/2/3-bit atoms, not {bits}")
            }
            ConfigError::ZeroCores => write!(f, "need at least one core"),
            ConfigError::FaultRateOutOfRange(ppm) => {
                write!(f, "fault rate {ppm} ppm exceeds 1000000 ppm")
            }
            ConfigError::ZeroLinkBandwidth => {
                write!(f, "NoC link bandwidth must be non-zero")
            }
            ConfigError::ZeroNocFifoDepth => {
                write!(f, "NoC port FIFO depth must be non-zero")
            }
            ConfigError::InvalidReplicas { replicas, cores } => {
                write!(
                    f,
                    "hybrid replica count {replicas} must be non-zero and divide {cores} cores"
                )
            }
            ConfigError::ZeroMaxBatch => {
                write!(f, "serving max batch size must be non-zero")
            }
            ConfigError::ZeroQueueCapacity => {
                write!(f, "serving queue capacity must be non-zero")
            }
            ConfigError::NoTenants => {
                write!(f, "serving configuration needs at least one tenant")
            }
            ConfigError::ZeroTenantWeight(tenant) => {
                write!(f, "tenant {tenant} has zero fair-share weight")
            }
            ConfigError::TenantClassCountMismatch { classes, tenants } => {
                write!(
                    f,
                    "SLO-class table has {classes} entries for {tenants} tenants"
                )
            }
            ConfigError::BrownoutOutOfRange(permille) => {
                write!(
                    f,
                    "brownout high-water {permille} permille outside 1..=1000"
                )
            }
            ConfigError::ZeroBreakerCooldown => {
                write!(f, "circuit breaker needs a non-zero cooldown to stay open")
            }
        }
    }
}

impl Error for ConfigError {}

/// Architecture parameters of a single-core Ristretto.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RistrettoConfig {
    /// Number of compute tiles (`M`).
    pub tiles: usize,
    /// Atom multipliers per compute tile (`N`, the static stream length;
    /// also the number of accumulate-buffer banks, §IV-C4).
    pub multipliers: usize,
    /// Atom granularity (2-bit default).
    pub atom_bits: AtomBits,
    /// Feature-map tile height used by the block COO-2D partitioning.
    pub tile_h: usize,
    /// Feature-map tile width.
    pub tile_w: usize,
    /// Input buffer capacity (KiB).
    pub input_buf_kb: usize,
    /// Weight buffer capacity (KiB).
    pub weight_buf_kb: usize,
    /// Output buffer capacity (KiB).
    pub output_buf_kb: usize,
    /// Accumulator width in bits (partial-sum precision).
    pub acc_bits: u8,
    /// Accumulate-buffer entries per bank (each of the `N` banks caches a
    /// slice of one output channel's tile; larger planes take multiple
    /// passes). The Table VI calibration point is 24 entries.
    pub accu_entries_per_bank: usize,
    /// Crossbar FIFO depth in the Atomulator.
    pub fifo_depth: usize,
    /// Whether sparse computation is enabled; `false` gives Ristretto-ns,
    /// the non-sparse variant used in the Bit Fusion comparison (§V-B).
    pub sparse: bool,
    /// Whether the w/a load balancer is enabled (§IV-E); the input layer is
    /// never balanced regardless.
    pub balancing: crate::balance::BalanceStrategy,
    /// Optional deterministic fault-injection campaign. `None` (the
    /// default) leaves every execution path byte-identical to a build
    /// without the faultsim layer.
    pub faults: Option<crate::fault::FaultConfig>,
}

impl RistrettoConfig {
    /// The paper's default single-core configuration (Table VI): 32 tiles,
    /// each with 32 2-bit multipliers; 1024 2-bit multipliers total.
    pub fn paper_default() -> Self {
        Self {
            tiles: 32,
            multipliers: 32,
            atom_bits: AtomBits::B2,
            tile_h: 8,
            tile_w: 8,
            input_buf_kb: 64,
            weight_buf_kb: 192,
            output_buf_kb: 96,
            acc_bits: 24,
            accu_entries_per_bank: 24,
            fifo_depth: 4,
            sparse: true,
            balancing: crate::balance::BalanceStrategy::WeightActivation,
            faults: None,
        }
    }

    /// The equal-compute-area configuration used against Laconic and the
    /// equal-peak-BitOps configuration used against SparTen (§V-C/V-D):
    /// 32 tiles × 16 2-bit multipliers.
    pub fn half_width() -> Self {
        Self {
            multipliers: 16,
            ..Self::paper_default()
        }
    }

    /// The non-sparse variant Ristretto-ns (§V-B).
    pub fn non_sparse(self) -> Self {
        Self {
            sparse: false,
            ..self
        }
    }

    /// Fig 19 granularity ablation presets: same BitOps/cycle across
    /// 1/2/3-bit atoms via 64/16/7 multipliers per tile.
    ///
    /// # Errors
    /// Returns [`ConfigError::UnsupportedGranularity`] for granularities
    /// other than 1, 2 or 3 bits.
    pub fn try_granularity(bits: u8) -> Result<Self, ConfigError> {
        let (atom_bits, multipliers) = match bits {
            1 => (AtomBits::B1, 64),
            2 => (AtomBits::B2, 16),
            3 => (AtomBits::B3, 7),
            other => return Err(ConfigError::UnsupportedGranularity(other)),
        };
        Ok(Self {
            atom_bits,
            multipliers,
            ..Self::paper_default()
        })
    }

    /// Total atom multipliers in the core.
    pub fn total_multipliers(&self) -> usize {
        self.tiles * self.multipliers
    }

    /// Peak BitOps per cycle: each multiplier does `atom_bits²` bit
    /// operations per cycle.
    pub fn peak_bitops_per_cycle(&self) -> u64 {
        let b = self.atom_bits.bits() as u64;
        (self.total_multipliers() as u64) * b * b
    }

    /// Returns a copy with a different tile count.
    pub fn with_tiles(mut self, tiles: usize) -> Self {
        self.tiles = tiles;
        self
    }

    /// Returns a copy with a different per-tile multiplier count.
    pub fn with_multipliers(mut self, multipliers: usize) -> Self {
        self.multipliers = multipliers;
        self
    }

    /// Returns a copy with a different balancing strategy.
    pub fn with_balancing(mut self, balancing: crate::balance::BalanceStrategy) -> Self {
        self.balancing = balancing;
        self
    }

    /// Returns a copy with a fault-injection campaign attached (or
    /// detached with `None`).
    pub fn with_faults(mut self, faults: Option<crate::fault::FaultConfig>) -> Self {
        self.faults = faults;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Never panics; returns a typed [`ConfigError`] on inconsistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tiles == 0 {
            return Err(ConfigError::ZeroTiles);
        }
        if self.multipliers == 0 {
            return Err(ConfigError::ZeroMultipliers);
        }
        if self.tile_h == 0 || self.tile_w == 0 {
            return Err(ConfigError::ZeroTileExtent);
        }
        if self.acc_bits < 16 || self.acc_bits > 48 {
            return Err(ConfigError::AccumulatorWidth(self.acc_bits));
        }
        crate::fault::validate_config(self)?;
        Ok(())
    }
}

impl Default for RistrettoConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Configuration of a sharded multi-core fleet (Fig 7): how many cores,
/// how the network is partitioned across them, the interconnect they
/// exchange activations over, and an optional core-death campaign.
///
/// Validated as a whole by [`FleetConfig::validate`]; every fallible fleet
/// constructor surfaces the same typed [`ConfigError`]s as the single-core
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of Ristretto cores behind the shared I/O interface.
    pub cores: usize,
    /// How work is partitioned across the cores.
    pub strategy: crate::fleet::ShardStrategy,
    /// The deterministic interconnect model activations travel over.
    pub noc: crate::noc::NocConfig,
    /// Optional deterministic core-death campaign; `None` (the default)
    /// leaves the run byte-identical to a build without the fault layer.
    pub core_deaths: Option<crate::fault::CoreDeathConfig>,
}

impl FleetConfig {
    /// A fleet of `cores` under the given strategy with the default NoC.
    pub fn new(cores: usize, strategy: crate::fleet::ShardStrategy) -> Self {
        Self {
            cores,
            strategy,
            noc: crate::noc::NocConfig::paper_default(),
            core_deaths: None,
        }
    }

    /// Returns a copy with a core-death campaign attached (or detached
    /// with `None`).
    pub fn with_core_deaths(mut self, deaths: Option<crate::fault::CoreDeathConfig>) -> Self {
        self.core_deaths = deaths;
        self
    }

    /// Cores per replica group: the whole fleet for [`OutputChannel`],
    /// one for [`Batch`], `cores / replicas` for [`Hybrid`].
    ///
    /// [`OutputChannel`]: crate::fleet::ShardStrategy::OutputChannel
    /// [`Batch`]: crate::fleet::ShardStrategy::Batch
    /// [`Hybrid`]: crate::fleet::ShardStrategy::Hybrid
    pub fn group_size(&self) -> usize {
        match self.strategy {
            crate::fleet::ShardStrategy::Batch => 1,
            crate::fleet::ShardStrategy::OutputChannel => self.cores,
            crate::fleet::ShardStrategy::Hybrid(replicas) => self.cores / replicas.max(1),
        }
    }

    /// Number of replica groups (inputs processed concurrently).
    pub fn groups(&self) -> usize {
        self.cores / self.group_size().max(1)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Never panics; returns a typed [`ConfigError`] on inconsistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::ZeroCores);
        }
        if let crate::fleet::ShardStrategy::Hybrid(replicas) = self.strategy {
            if replicas == 0 || !self.cores.is_multiple_of(replicas) {
                return Err(ConfigError::InvalidReplicas {
                    replicas,
                    cores: self.cores,
                });
            }
        }
        self.noc.validate()?;
        if let Some(d) = self.core_deaths {
            if d.rate_ppm > crate::fault::PPM {
                return Err(ConfigError::FaultRateOutOfRange(d.rate_ppm));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_1024_multipliers() {
        let c = RistrettoConfig::paper_default();
        assert_eq!(c.total_multipliers(), 1024);
        assert_eq!(c.peak_bitops_per_cycle(), 4096);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn granularity_presets_match_bitops() {
        let b1 = RistrettoConfig::try_granularity(1).unwrap();
        let b2 = RistrettoConfig::try_granularity(2).unwrap();
        let b3 = RistrettoConfig::try_granularity(3).unwrap();
        assert_eq!(b1.peak_bitops_per_cycle(), 32 * 64);
        assert_eq!(b2.peak_bitops_per_cycle(), 32 * 64);
        assert_eq!(b3.peak_bitops_per_cycle(), 32 * 63);
    }

    #[test]
    fn granularity_rejects_other_widths() {
        assert_eq!(
            RistrettoConfig::try_granularity(4),
            Err(ConfigError::UnsupportedGranularity(4))
        );
    }

    #[test]
    fn non_sparse_flag() {
        let c = RistrettoConfig::paper_default().non_sparse();
        assert!(!c.sparse);
    }

    #[test]
    fn validation_yields_typed_errors() {
        assert_eq!(
            RistrettoConfig::paper_default().with_tiles(0).validate(),
            Err(ConfigError::ZeroTiles)
        );
        assert_eq!(
            RistrettoConfig::paper_default()
                .with_multipliers(0)
                .validate(),
            Err(ConfigError::ZeroMultipliers)
        );
        let mut wide = RistrettoConfig::paper_default();
        wide.acc_bits = 64;
        assert_eq!(wide.validate(), Err(ConfigError::AccumulatorWidth(64)));
        assert_eq!(
            RistrettoConfig::try_granularity(4).unwrap_err(),
            ConfigError::UnsupportedGranularity(4)
        );
        assert_eq!(
            ConfigError::UnsupportedGranularity(4).to_string(),
            "Fig 19 evaluates 1/2/3-bit atoms, not 4"
        );
    }

    #[test]
    fn fault_rates_are_validated() {
        let ok = RistrettoConfig::paper_default()
            .with_faults(Some(crate::fault::FaultConfig::uniform(1, 1_000_000)));
        assert!(ok.validate().is_ok());
        let bad = RistrettoConfig::paper_default()
            .with_faults(Some(crate::fault::FaultConfig::uniform(1, 1_000_001)));
        assert_eq!(
            bad.validate(),
            Err(ConfigError::FaultRateOutOfRange(1_000_001))
        );
        assert!(ConfigError::FaultRateOutOfRange(1_000_001)
            .to_string()
            .contains("1000001"));
    }

    #[test]
    fn validation_catches_zeroes() {
        assert!(RistrettoConfig::paper_default()
            .with_tiles(0)
            .validate()
            .is_err());
        assert!(RistrettoConfig::paper_default()
            .with_multipliers(0)
            .validate()
            .is_err());
    }
}
