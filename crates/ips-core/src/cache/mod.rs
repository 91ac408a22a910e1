//! GCache: the write-back compute cache (§III-C).
//!
//! All profile data served online lives here. Each file owns one piece of
//! cache state; [`GCache`] (`gcache.rs`) only composes them:
//!
//! * `shard.rs` — **shard residency and swap** (Figs 7–8). Each LRU shard's
//!   list (`lru.rs`) holds its resident entries, so residency is recorded
//!   once. A swap cycle evicts cold entries from the largest shard when
//!   memory exceeds the high watermark, skipping entries it cannot
//!   `try_lock` (Fig 8).
//! * `dirty.rs` — **the sharded dirty list and flush** (Fig 9). An entry's
//!   `dirty` flag is the only record of dirtiness; its pid is queued when
//!   the flag turns on. Flush, eviction and export all save through one
//!   write-back.
//! * `inflight.rs` — **single-flight loads**: concurrent misses on one
//!   profile share one store load.
//! * `stale.rs` — **the stale pool** (§III-G): evicted, written-back data
//!   kept for stale-bounded degraded serving.
//! * `handoff.rs` — **handoff export/import** of hot entries, and demotion
//!   of the moved keyspace at cutover.
//!
//! **Lock order.** An entry's lock comes before its shard's lock, the dirty
//! queue, the stale pool and the store. A shard lock is never held while
//! another lock is taken; lookups release it before locking the entry.
//!
//! **Detached entries.** An entry leaves its shard only by eviction, which
//! writes it back and then, still under the entry's lock, removes it from
//! the LRU and marks it detached. The one path that locks a resident entry
//! (`GCache::access`, behind reads, writes, compaction and single-flight
//! waiters) looks the pid up again when it finds the entry detached, so a
//! write that raced an eviction lands in the entry the next flush sees.
//!
//! The paper runs swap and flush on dedicated threads. Here they run when
//! the host calls `IpsInstance::tick`, which flushes every dirty shard and
//! then runs one swap cycle; a host that wants them to race its traffic
//! calls `tick` from a thread it owns.

mod dirty;
mod gcache;
mod handoff;
mod inflight;
mod lru;
mod shard;
mod stale;

pub use gcache::{CacheStats, GCache, ReadCost};
pub use handoff::{ExportBatch, ExportedEntry, ImportReport};
