//! Persistent storage substrate for `ips-rs` (HBase substitute).
//!
//! IPS keeps all hot data in memory and relies on "a high performance
//! distributed key-value store like HBase to provide data durability in case
//! of fatal failures" (§III). This crate provides that store:
//!
//! * [`store::VersionedStore`] — a sharded in-memory map where every value
//!   carries a monotonically increasing *generation*, supporting the
//!   `set/get` bulk API (Fig 12) and the `xset/xget` versioned API the
//!   split-profile persistence protocol needs (Fig 14);
//! * [`wal`] — a segmented, checkpointed write-ahead log giving each node
//!   durability across crashes, with torn-tail truncation, strict/salvage
//!   mid-log-corruption handling, and injectable storage faults
//!   ([`wal::storage`]);
//! * [`node::KvNode`] — a store + WAL + fault switch, the unit the cluster
//!   layer deploys;
//! * [`replication::ReplicatedKv`] — one master + N read replicas with
//!   asynchronous, lag-bounded replication, matching the paper's
//!   master/slave clusters in the multi-region deployment (Fig 15);
//! * [`latency::KvLatencyModel`] — the parameterless storage-model
//!   argument the cluster client still accepts (storage time is priced
//!   offline by the experiment harnesses).

pub mod latency;
pub mod node;
pub mod replication;
pub mod store;
pub mod wal;

pub use latency::KvLatencyModel;
pub use node::{KvNode, KvNodeConfig, RecoveryStats};
pub use replication::{ReplicaReadMode, ReplicatedKv};
pub use store::{Generation, VersionedStore, VersionedValue};
pub use wal::storage::{FaultPlan, FsStorage, MemStorage, WalFile, WalStorage};
pub use wal::{CheckpointStats, RecoveryReport, Wal, WalMetrics, WalRecord};
