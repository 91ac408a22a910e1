//! # ips-core — the Instance Profile Service engine
//!
//! This crate implements the paper's primary contribution: a unified profile
//! store that ingests user-behaviour counts at high rate and serves inline
//! feature computations (top-K / filter / decay over flexible time windows)
//! at low latency, bounded in memory by automatic compaction, truncation and
//! long-tail shrink.
//!
//! Module map (paper section in parentheses):
//!
//! * [`model`] — Profile Table / Slice / Instance Set / Indexed Feature Stat
//!   (§II-A, §III-B, Fig 6);
//! * [`query`] — slice selection, multi-way merge/aggregate, top-K, filter,
//!   decay (§II-B);
//! * [`compact`] — compact, truncate, shrink, off-path scheduling (§III-D);
//! * [`cache`] — GCache: sharded LRU + dirty lists, swap cycle and per-shard
//!   flush (§III-C, Figs 7–9);
//! * [`persist`] — bulk and split persistence with version consistency
//!   (§III-E, Figs 12–14);
//! * [`isolation`] — the read-write isolation write table (§III-F);
//! * [`server::pipeline::quota`] — per-caller QPS enforcement (§IV, §V-b);
//! * [`hotconfig`] — live-reloadable configuration (§V-b);
//! * [`server`] — [`server::IpsInstance`], one deployable compute-cache node
//!   exposing the write and read APIs.
//!
//! ## Quick example
//!
//! ```
//! use ips_core::server::{IpsInstance, IpsInstanceOptions};
//! use ips_core::query::ProfileQuery;
//! use ips_types::*;
//!
//! let clock = ips_types::clock::system_clock();
//! let instance = IpsInstance::new_in_memory(IpsInstanceOptions::default(), clock.clone());
//! let table = TableId::new(1);
//! // Read-write isolation (on by default) delays visibility by a couple of
//! // seconds; turn it off for an immediate read-back in this example.
//! let mut config = TableConfig::new("demo");
//! config.isolation.enabled = false;
//! instance.create_table(table, config).unwrap();
//!
//! let alice = ProfileId::from_name("Alice");
//! let sports = SlotId::new(1);
//! instance
//!     .add_profile(
//!         CallerId::new(1),
//!         table,
//!         alice,
//!         clock.now(),
//!         sports,
//!         ActionTypeId::new(1),
//!         FeatureId::from_name("Golden State Warriors"),
//!         CountVector::single(2),
//!     )
//!     .unwrap();
//!
//! let query = ProfileQuery::top_k(table, alice, sports, TimeRange::last_days(10), 1);
//! let result = instance.query(CallerId::new(1), &query).unwrap();
//! assert_eq!(result.entries[0].feature, FeatureId::from_name("Golden State Warriors"));
//! ```

pub mod cache;
pub mod compact;
pub mod features;
pub mod hotconfig;
pub mod isolation;
pub mod model;
pub mod persist;
pub mod query;
pub mod server;

pub use cache::{ExportBatch, ExportedEntry, GCache, ImportReport};
pub use model::{IndexedFeatureStat, InstanceSet, ProfileData, Slice};
pub use persist::{ProfilePersister, ProfileStore, SliceProjection, SliceRefInfo};
pub use query::{FeatureEntry, FilterPredicate, ProfileQuery, QueryKind, QueryResult};
pub use server::{
    IpsInstance, IpsInstanceOptions, ProfileWrite, RequestContext, SnapshotImportAck,
};
