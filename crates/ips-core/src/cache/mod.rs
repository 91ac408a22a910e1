//! GCache: the write-back compute cache (§III-C).
//!
//! All profile data served online lives here. The cache is a sharded map of
//! profile entries with two auxiliary structures per the paper:
//!
//! * a **sharded LRU list** (Fig 7) — a swap cycle evicts cold entries from
//!   the largest shard when memory exceeds the high watermark, skipping
//!   entries it cannot `try_lock` (Fig 8);
//! * a **sharded dirty list** (Fig 9) — a per-shard flush persists updated
//!   profiles to the key-value store.
//!
//! The paper runs swap and flush on dedicated threads. Here they run when
//! the host calls `IpsInstance::tick`, which flushes every dirty shard and
//! then runs one swap cycle; a host that wants them to race its traffic
//! calls `tick` from a thread it owns.

pub mod gcache;
pub mod lru;

pub use gcache::{CacheStats, ExportBatch, ExportedEntry, GCache, ImportReport, ReadCost};
pub use lru::LruList;
