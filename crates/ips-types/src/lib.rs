//! Shared vocabulary for the `ips-rs` workspace.
//!
//! This crate defines the primitive types every other crate speaks:
//! identifiers ([`ProfileId`], [`FeatureId`], [`SlotId`], [`ActionTypeId`]),
//! time ([`Timestamp`], [`TimeRange`], [`clock::Clock`]), feature statistics
//! ([`CountVector`]), the aggregate and decay functions applied during query
//! processing, the configuration structures that drive compaction, truncation,
//! shrinking, caching, quota and isolation, and the workspace-wide error type.
//!
//! Keeping these in a leaf crate lets the storage substrate, the core profile
//! engine, the cluster layer and the benchmark harness agree on data shapes
//! without depending on each other.

pub mod clock;
pub mod config;
pub mod counts;
pub mod deadline;
pub mod error;
pub mod ids;
pub mod time;

pub use clock::{Clock, SharedClock, SimClock, SystemClock};
pub use config::{
    AdmissionConfig, AggregateFunction, CacheConfig, CircuitBreakerConfig, CompactionConfig,
    DegradedServingConfig, IsolationConfig, PersistenceMode, Priority, QuotaConfig, RecoveryMode,
    ShrinkConfig, SortKey, SortOrder, TableConfig, TimeDimensionConfig, TruncateConfig, WalConfig,
};
pub use counts::{scale_counts, CountVector, MAX_ATTRIBUTES};
pub use deadline::{ArmedDeadline, Deadline};
pub use error::{IpsError, Result};
pub use ids::{ActionTypeId, CallerId, FeatureId, ProfileId, SlotId, TableId};
pub use time::{DurationMs, TimeRange, Timestamp};
