//! The GCache composition: the public read/write/flush/swap surface over
//! the shards, the dirty queue, single-flight loads and the stale pool.

use std::sync::Arc;

use ips_metrics::counter::HitRatio;
use ips_metrics::{Counter, Gauge};
use ips_types::{CacheConfig, DurationMs, IpsError, ProfileId, Result, SharedClock};

use crate::model::ProfileData;
use crate::persist::{ProfilePersister, ProfileStore, SliceProjection, SliceRefInfo};

use super::dirty::DirtyQueue;
use super::shard::{CacheEntry, Shard};
use super::stale::StalePool;

/// Storage work one cache access performed — or, for a coalesced waiter, the
/// work of the in-flight load it shared. Drives the storage-cost fields of a
/// query result so clients can model real fetch cost instead of a flat
/// per-miss constant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadCost {
    /// Storage round trips (head read, multi-get).
    pub round_trips: u32,
    /// Payload bytes read from the store.
    pub bytes_read: u64,
}

/// A point-in-time view of cache health (drives Fig 18).
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    pub entries: usize,
    pub memory_bytes: u64,
    pub memory_budget: u64,
    pub hit_ratio: f64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub flushes: u64,
    /// Queued flush work (see [`GCache::dirty_gauge`]).
    pub dirty_backlog: usize,
    pub swap_skips: u64,
    pub stale_pool_entries: usize,
    pub stale_serves: u64,
    /// Misses that joined an in-flight load instead of issuing their own.
    pub coalesced_loads: u64,
    /// Actual store loads issued (misses + partial-entry upgrades). With
    /// coalescing, `store_loads <= misses`.
    pub store_loads: u64,
    /// Threads currently parked on an in-flight load.
    pub inflight_waiters: usize,
}

/// How an access treats a profile that is not resident.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Miss {
    /// Leave it absent (compaction).
    Skip,
    /// Load it from the store (reads).
    Load,
    /// Load it, or create an empty profile if the store has none (writes).
    Create,
}

/// The write-back compute cache.
pub struct GCache<S: ProfileStore> {
    pub(super) shards: Box<[Shard]>,
    pub(super) dirty: DirtyQueue,
    pub(super) stale: StalePool,
    pub(super) persister: Arc<ProfilePersister<S>>,
    pub(super) config: CacheConfig,
    pub hit_ratio: HitRatio,
    pub evictions: Counter,
    pub flushes: Counter,
    pub swap_skips: Counter,
    pub stale_serves: Counter,
    pub coalesced_loads: Counter,
    pub store_loads: Counter,
    /// Pids queued for flush and not yet popped: queue entries, not distinct
    /// dirty profiles. A pid written back meanwhile (by eviction or export)
    /// stays counted until a flush pops it, and one that is evicted,
    /// reloaded and written again is queued again.
    pub dirty_gauge: Gauge,
    pub inflight_waiters: Gauge,
}

impl CacheEntry {
    /// The missing slice refs `projection` needs (all of them for `Full`).
    fn uncovered(&self, projection: &SliceProjection) -> Vec<SliceRefInfo> {
        match *projection {
            _ if self.missing.is_empty() => Vec::new(),
            SliceProjection::Full => self.missing.clone(),
            SliceProjection::Window { range, now } => {
                let window = range.resolve(now, self.data.last_action_hint());
                let overlaps = |r: &&SliceRefInfo| window.overlaps(r.start, r.end);
                self.missing.iter().filter(overlaps).copied().collect()
            }
        }
    }
}

impl<S: ProfileStore + 'static> GCache<S> {
    /// Build a cache over `persister` with the given sizing policy. Eviction
    /// times in the stale pool come from `clock`.
    pub fn new(
        persister: Arc<ProfilePersister<S>>,
        config: CacheConfig,
        clock: SharedClock,
    ) -> Result<Self> {
        config.validate().map_err(IpsError::InvalidConfig)?;
        Ok(Self {
            shards: (0..config.lru_shards).map(|_| Shard::new()).collect(),
            dirty: DirtyQueue::new(config.dirty_shards),
            stale: StalePool::new(config.stale_pool_entries, clock),
            persister,
            config,
            hit_ratio: HitRatio::new(),
            evictions: Counter::new(),
            flushes: Counter::new(),
            swap_skips: Counter::new(),
            stale_serves: Counter::new(),
            coalesced_loads: Counter::new(),
            store_loads: Counter::new(),
            dirty_gauge: Gauge::new(),
            inflight_waiters: Gauge::new(),
        })
    }

    /// Run `f` under the lock of `pid`'s resident entry, after upgrading a
    /// partial entry in place until it covers `projection`. This is the one
    /// path that locks a resident entry for reading or writing: on finding
    /// the entry detached by an eviction it looks the pid up again, so no
    /// access lands in an entry that has left its shard. Returns `(result,
    /// was_hit, storage_cost)`; `None` when the profile is not found.
    fn access<R>(
        &self,
        pid: ProfileId,
        miss: Miss,
        projection: &SliceProjection,
        f: impl FnOnce(&mut CacheEntry) -> R,
    ) -> Result<Option<(R, bool, ReadCost)>> {
        // A write or mutation needs the full profile (a partial entry may
        // not go dirty).
        let projection = if miss == Miss::Load {
            projection
        } else {
            &SliceProjection::Full
        };
        loop {
            let found = match miss {
                Miss::Skip => self
                    .shard(pid)
                    .get(pid)
                    .map(|e| (e, true, ReadCost::default())),
                _ => self.lookup(pid, miss == Miss::Create, projection)?,
            };
            let Some((entry, hit, mut cost)) = found else {
                return Ok(None);
            };
            let mut guard = entry.lock();
            while !guard.detached {
                let needed = guard.uncovered(projection);
                if needed.is_empty() {
                    return Ok(Some((f(&mut guard), hit, cost)));
                }
                drop(guard);
                let (slices, round_trips, bytes_read) = {
                    let mut load_span = ips_trace::child("store_load");
                    load_span.set_attr("upgrade", "true");
                    self.store_loads.inc();
                    self.persister.fetch_slices(pid, &needed)?
                };
                cost.round_trips += round_trips;
                cost.bytes_read += bytes_read;
                guard = entry.lock();
                if guard.detached {
                    break;
                }
                // Clear every requested ref — torn slices included, so they
                // are not refetched forever — then splice the slices that
                // arrived and are still uncovered (a racing upgrader may
                // have beaten us).
                guard
                    .missing
                    .retain(|r| !needed.iter().any(|n| n.seq == r.seq));
                for slice in slices {
                    let covered = guard
                        .data
                        .slices()
                        .iter()
                        .any(|s| s.start() < slice.end() && slice.start() < s.end());
                    if !covered {
                        guard.data.slices_mut().push(slice);
                    }
                }
                let slices = guard.data.slices_mut();
                slices.sort_by_key(|s| std::cmp::Reverse(s.start()));
                debug_assert!(guard.data.check_invariants().is_ok());
                self.reaccount(pid, &mut guard);
            }
        }
    }

    /// Apply a mutation to a locked, complete entry and queue it for flush.
    fn mutate<R>(
        &self,
        pid: ProfileId,
        entry: &mut CacheEntry,
        f: impl FnOnce(&mut ProfileData) -> R,
    ) -> R {
        let out = f(&mut entry.data);
        self.mark_dirty(pid, entry);
        self.reaccount(pid, entry);
        out
    }

    /// Mutate (creating if absent) the profile for `pid`. The write path.
    /// Always materializes the full profile first (a partial entry may not
    /// go dirty). Returns whether the access was a cache hit.
    pub fn write<R>(
        &self,
        pid: ProfileId,
        f: impl FnOnce(&mut ProfileData) -> R,
    ) -> Result<(R, bool)> {
        let access = self.access(pid, Miss::Create, &SliceProjection::Full, |entry| {
            self.mutate(pid, entry, f)
        })?;
        #[expect(clippy::expect_used, reason = "a create access always yields an entry")]
        let (out, hit, _) = access.expect("a create access always yields an entry");
        Ok((out, hit))
    }

    /// Read the profile for `pid` (loading on miss). `Ok(None)` when the
    /// profile exists nowhere. Returns `(result, was_hit)`.
    pub fn read<R>(
        &self,
        pid: ProfileId,
        f: impl FnOnce(&ProfileData) -> R,
    ) -> Result<Option<(R, bool)>> {
        self.read_projected(pid, &SliceProjection::Full, f)
            .map(|o| o.map(|(r, hit, _)| (r, hit)))
    }

    /// Read under a slice projection: a miss loads only the slices the
    /// projection touches (plus the head slice), and a resident partial
    /// entry is upgraded in place if the projection needs more. Returns
    /// `(result, was_hit, storage_cost)`.
    pub fn read_projected<R>(
        &self,
        pid: ProfileId,
        projection: &SliceProjection,
        f: impl FnOnce(&ProfileData) -> R,
    ) -> Result<Option<(R, bool, ReadCost)>> {
        self.access(pid, Miss::Load, projection, |entry| f(&entry.data))
    }

    /// Mutate without creating (compaction path). No-op on absent profiles,
    /// and on partial ones whose completion fails (compaction retries).
    pub fn mutate_if_cached<R>(
        &self,
        pid: ProfileId,
        f: impl FnOnce(&mut ProfileData) -> R,
    ) -> Option<R> {
        let access = self.access(pid, Miss::Skip, &SliceProjection::Full, |entry| {
            self.mutate(pid, entry, f)
        });
        access.ok().flatten().map(|(out, _, _)| out)
    }

    /// Serve a profile from the stale pool if one is retained and no staler
    /// than `max_staleness`. Never touches the persistent store — this is
    /// the brownout path. Returns the result plus the data's staleness.
    pub fn read_stale<R>(
        &self,
        pid: ProfileId,
        max_staleness: DurationMs,
        f: impl FnOnce(&ProfileData) -> R,
    ) -> Option<(R, DurationMs)> {
        let served = self.stale.read(pid, max_staleness, f);
        if served.is_some() {
            self.stale_serves.inc();
        }
        served
    }

    /// Cache health snapshot (Fig 18's series).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.len(),
            memory_bytes: self.memory_bytes(),
            memory_budget: self.config.memory_budget_bytes as u64,
            hit_ratio: self.hit_ratio.ratio(),
            hits: self.hit_ratio.hits.get(),
            misses: self.hit_ratio.misses.get(),
            evictions: self.evictions.get(),
            flushes: self.flushes.get(),
            dirty_backlog: self.dirty_gauge.get().max(0) as usize,
            swap_skips: self.swap_skips.get(),
            stale_pool_entries: self.stale.len(),
            stale_serves: self.stale_serves.get(),
            coalesced_loads: self.coalesced_loads.get(),
            store_loads: self.store_loads.get(),
            inflight_waiters: self.inflight_waiters.get().max(0) as usize,
        }
    }

    /// The persister (server shutdown path).
    #[must_use]
    pub fn persister(&self) -> &Arc<ProfilePersister<S>> {
        &self.persister
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_kv::Generation;
    use ips_kv::{KvNode, KvNodeConfig};
    use ips_types::{
        ActionTypeId, AggregateFunction, CountVector, DurationMs, FeatureId, PersistenceMode,
        SlotId, TableId, Timestamp,
    };
    use parking_lot::{Condvar, Mutex};
    use std::sync::atomic::AtomicBool;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn cache(budget: usize) -> GCache<Arc<KvNode>> {
        cache_with_clock(budget, Arc::new(ips_types::SystemClock)).0
    }

    fn cache_with_clock(budget: usize, clock: SharedClock) -> (GCache<Arc<KvNode>>, Arc<KvNode>) {
        let node = Arc::new(KvNode::new("kv", KvNodeConfig::default()).unwrap());
        let persister = Arc::new(ProfilePersister::new(
            Arc::clone(&node),
            TableId::new(1),
            PersistenceMode::Split {
                threshold_bytes: 4 << 10,
            },
        ));
        let c = GCache::new(
            persister,
            CacheConfig {
                memory_budget_bytes: budget,
                lru_shards: 4,
                dirty_shards: 2,
                ..Default::default()
            },
            clock,
        )
        .unwrap();
        (c, node)
    }

    fn write_row<S: ProfileStore + 'static>(c: &GCache<S>, pid: u64, at: u64, fid: u64) {
        c.write(ProfileId::new(pid), |p| {
            p.add(
                Timestamp::from_millis(at),
                SlotId::new(1),
                ActionTypeId::new(1),
                FeatureId::new(fid),
                &CountVector::single(1),
                AggregateFunction::Sum,
                DurationMs::from_secs(1),
            );
        })
        .unwrap();
    }

    #[test]
    fn write_then_read_hits_cache() {
        let c = cache(64 << 20);
        write_row(&c, 1, 1_000, 7);
        let (count, hit) = c
            .read(ProfileId::new(1), |p| p.feature_count())
            .unwrap()
            .unwrap();
        assert_eq!(count, 1);
        assert!(hit);
        assert!(c.hit_ratio.ratio() > 0.0);
    }

    #[test]
    fn read_of_unknown_profile_is_none() {
        let c = cache(64 << 20);
        assert!(c.read(ProfileId::new(404), |_| ()).unwrap().is_none());
        assert_eq!(c.hit_ratio.misses.get(), 1);
    }

    #[test]
    fn flush_persists_and_reload_after_evict() {
        let c = cache(64 << 20);
        write_row(&c, 1, 1_000, 7);
        assert_eq!(c.flush_all().unwrap(), 1);
        assert!(c.evict(ProfileId::new(1)).unwrap());
        assert!(!c.contains(ProfileId::new(1)));
        // Read reloads from the store.
        let (count, hit) = c
            .read(ProfileId::new(1), |p| p.feature_count())
            .unwrap()
            .unwrap();
        assert_eq!(count, 1);
        assert!(!hit, "reload is a miss");
    }

    #[test]
    fn evict_flushes_dirty_data_first() {
        let c = cache(64 << 20);
        write_row(&c, 1, 1_000, 7);
        // No explicit flush: evict must write back.
        assert!(c.evict(ProfileId::new(1)).unwrap());
        let (count, _) = c
            .read(ProfileId::new(1), |p| p.feature_count())
            .unwrap()
            .unwrap();
        assert_eq!(count, 1, "dirty data survived eviction via write-back");
    }

    #[test]
    fn swap_cycle_brings_memory_under_watermark() {
        // Budget small enough that 200 profiles exceed it.
        let budget = 100u64 << 10;
        let c = cache(budget as usize);
        for pid in 0..200u64 {
            for fid in 0..20u64 {
                write_row(&c, pid, 1_000 + fid, fid);
            }
        }
        assert!(c.memory_bytes() > budget * 85 / 100);
        let evicted = c.swap_cycle().unwrap();
        assert!(evicted > 0);
        assert!(
            c.memory_bytes() <= budget * 85 / 100,
            "memory {} should be under high watermark",
            c.memory_bytes()
        );
        // Evicted data still loads from the store.
        let mut reloadable = 0;
        for pid in 0..200u64 {
            if !c.contains(ProfileId::new(pid)) {
                let loaded = c.read(ProfileId::new(pid), |p| p.feature_count()).unwrap();
                assert_eq!(loaded.map(|(n, _)| n), Some(20));
                reloadable += 1;
                if reloadable > 5 {
                    break;
                }
            }
        }
        assert!(reloadable > 0);
    }

    #[test]
    fn swap_noop_under_watermark() {
        let c = cache(64 << 20);
        write_row(&c, 1, 1_000, 1);
        assert_eq!(c.swap_cycle().unwrap(), 0);
    }

    #[test]
    fn contended_entry_is_skipped_not_blocked() {
        let c = Arc::new(cache(1)); // budget so small everything wants out
        write_row(&c, 1, 1_000, 1);
        write_row(&c, 2, 1_000, 1);
        c.flush_all().unwrap();
        // Hold profile 1's entry lock on another thread.
        let entry = c.shard(ProfileId::new(1)).get(ProfileId::new(1)).unwrap();
        let guard = entry.lock();
        let evicted = c.swap_cycle().unwrap();
        // Profile 2 can go; profile 1 must be skipped, not deadlocked.
        assert!(evicted >= 1);
        assert!(c.contains(ProfileId::new(1)));
        assert!(c.swap_skips.get() >= 1);
        drop(guard);
    }

    #[test]
    fn dirty_queue_deduplicates() {
        let c = cache(64 << 20);
        for _ in 0..10 {
            write_row(&c, 1, 1_000, 1);
        }
        assert_eq!(c.stats().dirty_backlog, 1, "one profile => one dirty entry");
        assert_eq!(c.flush_all().unwrap(), 1);
    }

    #[test]
    fn flush_shard_respects_budget() {
        let c = cache(64 << 20);
        // Enough profiles that both dirty shards get some.
        for pid in 0..50u64 {
            write_row(&c, pid, 1_000, 1);
        }
        let n0 = c.flush_shard(0, 5).unwrap();
        assert!(n0 <= 5);
    }

    #[test]
    fn failed_flush_stays_queued_for_a_later_flush() {
        let (c, node) = cache_with_clock(64 << 20, Arc::new(ips_types::SystemClock));
        let pid = ProfileId::new(1);
        write_row(&c, 1, 1_000, 7);
        node.set_error_rate(1.0);
        assert!(c.flush_shard(c.dirty.shard_of(pid), 16).is_err());
        assert_eq!(
            c.stats().dirty_backlog,
            1,
            "the failed profile is queued again"
        );
        node.set_error_rate(0.0);
        assert_eq!(c.flush_all().unwrap(), 1);
        assert_eq!(c.stats().dirty_backlog, 0);
        let stored = c.persister().load(pid).unwrap();
        assert!(
            matches!(stored, crate::persist::LoadOutcome::Loaded { .. }),
            "flush_all wrote the profile back"
        );
    }

    #[test]
    fn stats_reflect_world() {
        let c = cache(64 << 20);
        write_row(&c, 1, 1_000, 1);
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert!(s.memory_bytes > 0);
        assert_eq!(s.dirty_backlog, 1);
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let c = Arc::new(cache(64 << 20));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let pid = (t * 500 + i) % 100;
                        write_row(&c, pid, 1_000 + i, i % 50);
                        let _ = c.read(ProfileId::new(pid), |p| p.slice_count()).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.len(), 100);
        c.flush_all().unwrap();
    }

    #[test]
    fn eviction_retains_stale_copy_for_degraded_reads() {
        use ips_types::clock::sim_clock;
        let (clock, ctl) = sim_clock(Timestamp::from_millis(1_000_000));
        let (c, _node) = cache_with_clock(64 << 20, clock);
        write_row(&c, 1, 1_000, 7);
        c.evict(ProfileId::new(1)).unwrap();
        assert!(!c.contains(ProfileId::new(1)));

        ctl.advance(DurationMs::from_secs(30));
        let (count, staleness) = c
            .read_stale(ProfileId::new(1), DurationMs::from_mins(5), |p| {
                p.feature_count()
            })
            .expect("stale copy retained");
        assert_eq!(count, 1);
        assert_eq!(staleness.as_millis(), 30_000);
        assert_eq!(c.stats().stale_serves, 1);

        // Beyond the bound, the stale copy is refused.
        ctl.advance(DurationMs::from_mins(10));
        assert!(c
            .read_stale(ProfileId::new(1), DurationMs::from_mins(5), |_| ())
            .is_none());
    }

    #[test]
    fn reload_supersedes_stale_copy() {
        let c = cache(64 << 20);
        write_row(&c, 1, 1_000, 7);
        c.evict(ProfileId::new(1)).unwrap();
        assert_eq!(c.stats().stale_pool_entries, 1);
        // Reload from the store: resident again, stale copy dropped.
        let _ = c.read(ProfileId::new(1), |p| p.feature_count()).unwrap();
        assert_eq!(c.stats().stale_pool_entries, 0);
        assert!(c
            .read_stale(ProfileId::new(1), DurationMs::from_mins(5), |_| ())
            .is_none());
    }

    #[test]
    fn stale_pool_is_bounded_fifo() {
        use ips_types::clock::sim_clock;
        let (clock, _ctl) = sim_clock(Timestamp::from_millis(1_000_000));
        let node = Arc::new(KvNode::new("kv", KvNodeConfig::default()).unwrap());
        let persister = Arc::new(ProfilePersister::new(
            node,
            TableId::new(1),
            PersistenceMode::Bulk,
        ));
        let c = GCache::new(
            persister,
            CacheConfig {
                memory_budget_bytes: 64 << 20,
                lru_shards: 2,
                dirty_shards: 2,
                stale_pool_entries: 4,
                ..Default::default()
            },
            clock,
        )
        .unwrap();
        for pid in 0..8u64 {
            write_row(&c, pid, 1_000, 1);
            c.evict(ProfileId::new(pid)).unwrap();
        }
        assert_eq!(c.stats().stale_pool_entries, 4);
        // Oldest evictions fell out; newest are servable.
        assert!(c
            .read_stale(ProfileId::new(0), DurationMs::from_mins(5), |_| ())
            .is_none());
        assert!(c
            .read_stale(ProfileId::new(7), DurationMs::from_mins(5), |_| ())
            .is_some());
    }

    fn stale_pool_cache(stale_entries: usize) -> GCache<Arc<KvNode>> {
        let node = Arc::new(KvNode::new("kv", KvNodeConfig::default()).unwrap());
        let persister = Arc::new(ProfilePersister::new(
            node,
            TableId::new(1),
            PersistenceMode::Bulk,
        ));
        GCache::new(
            persister,
            CacheConfig {
                memory_budget_bytes: 64 << 20,
                lru_shards: 2,
                dirty_shards: 2,
                stale_pool_entries: stale_entries,
                ..Default::default()
            },
            Arc::new(ips_types::SystemClock),
        )
        .unwrap()
    }

    fn is_stale(c: &GCache<Arc<KvNode>>, pid: u64) -> bool {
        c.read_stale(ProfileId::new(pid), DurationMs::from_mins(5), |_| ())
            .is_some()
    }

    #[test]
    fn re_evicted_pid_is_the_newest_stale_copy() {
        let c = stale_pool_cache(2);
        let (a, b, cc) = (1, 2, 3);
        for pid in [a, b, cc] {
            write_row(&c, pid, 1_000, 1);
        }
        c.evict(ProfileId::new(a)).unwrap();
        c.evict(ProfileId::new(b)).unwrap();
        // Reload A (superseding its stale copy), then evict it again: A is
        // now the newest retention, so the next overflow drops B.
        let _ = c.read(ProfileId::new(a), |p| p.feature_count()).unwrap();
        c.evict(ProfileId::new(a)).unwrap();
        c.evict(ProfileId::new(cc)).unwrap();
        assert!(is_stale(&c, a), "the fresh copy of A must survive");
        assert!(!is_stale(&c, b), "B is the oldest retention");
        assert!(is_stale(&c, cc));
        assert_eq!(c.stats().stale_pool_entries, 2);
    }

    #[test]
    fn evict_reload_cycles_keep_one_order_slot_per_pid() {
        let c = stale_pool_cache(4);
        write_row(&c, 1, 1_000, 1);
        for _ in 0..50 {
            c.evict(ProfileId::new(1)).unwrap();
            let _ = c.read(ProfileId::new(1), |p| p.feature_count()).unwrap();
        }
        c.evict(ProfileId::new(1)).unwrap();
        let pool = c.stale.state.lock();
        assert_eq!(pool.map.len(), 1);
        assert_eq!(pool.order.len(), 1, "one order slot per retained pid");
    }

    #[test]
    fn zero_capacity_disables_stale_pool() {
        let node = Arc::new(KvNode::new("kv", KvNodeConfig::default()).unwrap());
        let persister = Arc::new(ProfilePersister::new(
            node,
            TableId::new(1),
            PersistenceMode::Bulk,
        ));
        let c = GCache::new(
            persister,
            CacheConfig {
                memory_budget_bytes: 64 << 20,
                lru_shards: 2,
                dirty_shards: 2,
                stale_pool_entries: 0,
                ..Default::default()
            },
            Arc::new(ips_types::SystemClock),
        )
        .unwrap();
        write_row(&c, 1, 1_000, 1);
        c.evict(ProfileId::new(1)).unwrap();
        assert_eq!(c.stats().stale_pool_entries, 0);
        assert!(c
            .read_stale(ProfileId::new(1), DurationMs::from_mins(5), |_| ())
            .is_none());
    }

    // ---- single-flight coalescing and slice projection --------------------

    fn split_cache(stale_entries: usize) -> (GCache<Arc<KvNode>>, Arc<KvNode>) {
        let node = Arc::new(KvNode::new("kv", KvNodeConfig::default()).unwrap());
        let persister = Arc::new(ProfilePersister::new(
            Arc::clone(&node),
            TableId::new(1),
            PersistenceMode::Split { threshold_bytes: 0 },
        ));
        let c = GCache::new(
            persister,
            CacheConfig {
                memory_budget_bytes: 64 << 20,
                lru_shards: 4,
                dirty_shards: 2,
                stale_pool_entries: stale_entries,
                ..Default::default()
            },
            Arc::new(ips_types::SystemClock),
        )
        .unwrap();
        (c, node)
    }

    #[test]
    fn projected_miss_loads_window_plus_head_and_upgrades_in_place() {
        let (c, _node) = split_cache(0);
        let pid = ProfileId::new(9);
        // Eight 1s slices at [1000,2000) .. [8000,9000).
        for t in 1..=8u64 {
            write_row(&c, 9, t * 1_000, t);
        }
        c.flush_all().unwrap();
        assert!(c.evict(pid).unwrap());
        let store_loads_before = c.store_loads.get();

        let projection = SliceProjection::Window {
            range: ips_types::TimeRange::Absolute {
                start: Timestamp::from_millis(3_000),
                end: Timestamp::from_millis(4_000),
            },
            now: Timestamp::from_millis(10_000),
        };
        let (n, hit, cost) = c
            .read_projected(pid, &projection, |p| p.slice_count())
            .unwrap()
            .unwrap();
        assert_eq!(n, 2, "window slice plus the forced head slice");
        assert!(!hit);
        assert_eq!(cost.round_trips, 2, "head read + one multi-get");
        assert!(cost.bytes_read > 0);
        assert_eq!(c.store_loads.get(), store_loads_before + 1);

        // A full read upgrades the resident entry in place (a hit plus one
        // multi-get for the six missing slices, not a reload).
        let (n, hit, cost) = c
            .read_projected(pid, &SliceProjection::Full, |p| p.slice_count())
            .unwrap()
            .unwrap();
        assert_eq!(n, 8);
        assert!(hit, "upgrade happens on a resident entry");
        assert_eq!(cost.round_trips, 1, "one multi-get, no head re-read");
        assert_eq!(c.store_loads.get(), store_loads_before + 2);

        // Now fully covered: further full reads touch no storage.
        let (_, hit, cost) = c
            .read_projected(pid, &SliceProjection::Full, |p| p.slice_count())
            .unwrap()
            .unwrap();
        assert!(hit);
        assert_eq!(cost, ReadCost::default());
        assert_eq!(c.store_loads.get(), store_loads_before + 2);
    }

    #[test]
    fn projected_read_satisfied_by_resident_slices_costs_nothing() {
        let (c, _node) = split_cache(0);
        for t in 1..=4u64 {
            write_row(&c, 11, t * 1_000, t);
        }
        c.flush_all().unwrap();
        c.evict(ProfileId::new(11)).unwrap();
        // Head-only load.
        let head_only = SliceProjection::Window {
            range: ips_types::TimeRange::Current {
                lookback: DurationMs::from_millis(1),
            },
            now: Timestamp::from_millis(4_500),
        };
        let (n, _, _) = c
            .read_projected(ProfileId::new(11), &head_only, |p| p.slice_count())
            .unwrap()
            .unwrap();
        assert_eq!(n, 1);
        let store_loads = c.store_loads.get();
        // Another query over the same resident window: no upgrade needed.
        let (_, hit, cost) = c
            .read_projected(ProfileId::new(11), &head_only, |p| p.slice_count())
            .unwrap()
            .unwrap();
        assert!(hit);
        assert_eq!(cost, ReadCost::default());
        assert_eq!(c.store_loads.get(), store_loads);
    }

    #[test]
    fn write_completes_partial_entry_before_dirtying() {
        let (c, _node) = split_cache(0);
        for t in 1..=4u64 {
            write_row(&c, 5, t * 1_000, t);
        }
        c.flush_all().unwrap();
        c.evict(ProfileId::new(5)).unwrap();
        let head_only = SliceProjection::Window {
            range: ips_types::TimeRange::Current {
                lookback: DurationMs::from_millis(1),
            },
            now: Timestamp::from_millis(4_500),
        };
        let (n, _, _) = c
            .read_projected(ProfileId::new(5), &head_only, |p| p.slice_count())
            .unwrap()
            .unwrap();
        assert_eq!(n, 1, "head slice only");
        // The write path must complete the entry before dirtying it, so the
        // eventual flush writes all four slices — not just the head.
        write_row(&c, 5, 4_500, 99);
        c.flush_all().unwrap();
        c.evict(ProfileId::new(5)).unwrap();
        let ((slices, features), _) = c
            .read(ProfileId::new(5), |p| (p.slice_count(), p.feature_count()))
            .unwrap()
            .unwrap();
        assert_eq!(slices, 4, "no slice was dropped by the flush");
        assert_eq!(features, 5);
    }

    #[test]
    fn mutate_if_cached_completes_partial_entry_first() {
        let (c, _node) = split_cache(0);
        for t in 1..=4u64 {
            write_row(&c, 6, t * 1_000, t);
        }
        c.flush_all().unwrap();
        c.evict(ProfileId::new(6)).unwrap();
        let head_only = SliceProjection::Window {
            range: ips_types::TimeRange::Current {
                lookback: DurationMs::from_millis(1),
            },
            now: Timestamp::from_millis(4_500),
        };
        let _ = c
            .read_projected(ProfileId::new(6), &head_only, |_| ())
            .unwrap()
            .unwrap();
        let n = c.mutate_if_cached(ProfileId::new(6), |p| p.slice_count());
        assert_eq!(n, Some(4), "entry was completed before the mutation ran");
        c.flush_all().unwrap();
        c.evict(ProfileId::new(6)).unwrap();
        let (slices, _) = c
            .read(ProfileId::new(6), |p| p.slice_count())
            .unwrap()
            .unwrap();
        assert_eq!(slices, 4);
    }

    #[test]
    fn partial_entries_are_not_retained_in_stale_pool() {
        let (c, _node) = split_cache(4);
        for t in 1..=4u64 {
            write_row(&c, 7, t * 1_000, t);
        }
        c.flush_all().unwrap();
        c.evict(ProfileId::new(7)).unwrap();
        assert_eq!(c.stats().stale_pool_entries, 1, "full entry is retained");
        let head_only = SliceProjection::Window {
            range: ips_types::TimeRange::Current {
                lookback: DurationMs::from_millis(1),
            },
            now: Timestamp::from_millis(4_500),
        };
        let _ = c
            .read_projected(ProfileId::new(7), &head_only, |_| ())
            .unwrap()
            .unwrap();
        // The reload superseded the stale copy; evicting the now-partial
        // entry must not retain it (a degraded read would miss slices).
        c.evict(ProfileId::new(7)).unwrap();
        assert_eq!(c.stats().stale_pool_entries, 0);
    }

    /// A store wrapper whose `xget` (the head read that starts every load)
    /// can be parked on a gate, letting the test hold a leader mid-load
    /// while a herd piles onto the in-flight slot. Its `xset` (every write
    /// a save makes) can be parked the same way, holding a write-back
    /// mid-save.
    struct GatedStore {
        inner: Arc<KvNode>,
        gate_open: Mutex<bool>,
        cv: Condvar,
        gated: AtomicBool,
        gated_xgets: AtomicU64,
        gated_xset: AtomicBool,
        parked_xsets: AtomicU64,
    }

    impl GatedStore {
        fn new(inner: Arc<KvNode>) -> Self {
            Self {
                inner,
                gate_open: Mutex::new(false),
                cv: Condvar::new(),
                gated: AtomicBool::new(false),
                gated_xgets: AtomicU64::new(0),
                gated_xset: AtomicBool::new(false),
                parked_xsets: AtomicU64::new(0),
            }
        }

        fn open_gate(&self) {
            *self.gate_open.lock() = true;
            self.cv.notify_all();
        }

        fn wait_for_gate(&self) {
            let mut open = self.gate_open.lock();
            while !*open {
                self.cv.wait(&mut open);
            }
        }
    }

    impl ProfileStore for GatedStore {
        fn get(&self, key: &[u8]) -> Result<Option<bytes::Bytes>> {
            self.inner.get(key)
        }
        fn get_many(&self, keys: &[bytes::Bytes]) -> Result<Vec<Option<bytes::Bytes>>> {
            self.inner.get_many(keys)
        }
        fn xget(&self, key: &[u8]) -> Result<(Option<bytes::Bytes>, Generation)> {
            if self.gated.load(Ordering::Relaxed) {
                self.wait_for_gate();
                self.gated_xgets.fetch_add(1, Ordering::Relaxed);
            }
            self.inner.xget(key)
        }
        fn xset(
            &self,
            key: bytes::Bytes,
            value: bytes::Bytes,
            held: Generation,
        ) -> Result<Generation> {
            if self.gated_xset.load(Ordering::Relaxed) {
                self.parked_xsets.fetch_add(1, Ordering::Relaxed);
                self.wait_for_gate();
            }
            self.inner.xset(key, value, held)
        }
        fn delete(&self, key: &[u8]) -> Result<bool> {
            self.inner.delete(key)
        }
    }

    #[test]
    fn herd_of_readers_coalesces_to_one_store_load() {
        const READERS: usize = 64;
        let node = Arc::new(KvNode::new("kv", KvNodeConfig::default()).unwrap());
        let store = Arc::new(GatedStore::new(Arc::clone(&node)));
        let persister = Arc::new(ProfilePersister::new(
            Arc::clone(&store),
            TableId::new(1),
            PersistenceMode::Split { threshold_bytes: 0 },
        ));
        let c = Arc::new(
            GCache::new(
                persister,
                CacheConfig {
                    memory_budget_bytes: 64 << 20,
                    lru_shards: 4,
                    dirty_shards: 2,
                    stale_pool_entries: 0,
                    ..Default::default()
                },
                Arc::new(ips_types::SystemClock),
            )
            .unwrap(),
        );
        // Seed while the gate is inert, then go cold.
        write_row(&c, 1, 1_000, 7);
        c.flush_all().unwrap();
        c.evict(ProfileId::new(1)).unwrap();

        store.gated.store(true, Ordering::Relaxed);
        let misses_before = c.hit_ratio.misses.get();
        let store_loads_before = c.store_loads.get();

        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    c.read(ProfileId::new(1), |p| p.feature_count())
                        .unwrap()
                        .unwrap()
                })
            })
            .collect();
        // The leader is parked inside the store; every other reader must
        // join the in-flight slot instead of issuing its own load.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while c.stats().inflight_waiters < READERS - 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "waiters never gathered: {}",
                c.stats().inflight_waiters
            );
            #[expect(clippy::disallowed_methods, reason = "polls real parked threads")]
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        store.open_gate();
        for h in handles {
            let (count, hit) = h.join().unwrap();
            assert_eq!(count, 1);
            assert!(!hit, "herd readers all experienced the miss");
        }
        assert_eq!(
            store.gated_xgets.load(Ordering::Relaxed),
            1,
            "exactly one head read reached the store"
        );
        assert_eq!(c.store_loads.get(), store_loads_before + 1);
        assert_eq!(
            c.hit_ratio.misses.get(),
            misses_before + 1,
            "one miss, not 64"
        );
        assert_eq!(c.stats().coalesced_loads, (READERS - 1) as u64);
        assert_eq!(c.stats().inflight_waiters, 0);
    }

    #[test]
    fn coalesced_missing_profile_returns_none_to_all_readers() {
        let node = Arc::new(KvNode::new("kv", KvNodeConfig::default()).unwrap());
        let store = Arc::new(GatedStore::new(node));
        let persister = Arc::new(ProfilePersister::new(
            Arc::clone(&store),
            TableId::new(1),
            PersistenceMode::Split { threshold_bytes: 0 },
        ));
        let c = Arc::new(
            GCache::new(
                persister,
                CacheConfig {
                    memory_budget_bytes: 64 << 20,
                    lru_shards: 2,
                    dirty_shards: 2,
                    ..Default::default()
                },
                Arc::new(ips_types::SystemClock),
            )
            .unwrap(),
        );
        store.gated.store(true, Ordering::Relaxed);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || c.read(ProfileId::new(404), |_| ()).unwrap())
            })
            .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while c.stats().inflight_waiters < 7 {
            assert!(
                std::time::Instant::now() < deadline,
                "waiters never gathered"
            );
            #[expect(clippy::disallowed_methods, reason = "polls real parked threads")]
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        store.open_gate();
        for h in handles {
            assert!(h.join().unwrap().is_none());
        }
        assert_eq!(c.hit_ratio.misses.get(), 1, "one miss for the whole herd");
        assert_eq!(c.stats().coalesced_loads, 7);
    }

    #[test]
    fn write_racing_an_eviction_reaches_the_store() {
        let node = Arc::new(KvNode::new("kv", KvNodeConfig::default()).unwrap());
        let store = Arc::new(GatedStore::new(node));
        let persister = Arc::new(ProfilePersister::new(
            Arc::clone(&store),
            TableId::new(1),
            PersistenceMode::Bulk,
        ));
        let c = Arc::new(
            GCache::new(
                persister,
                CacheConfig {
                    memory_budget_bytes: 64 << 20,
                    lru_shards: 2,
                    dirty_shards: 2,
                    stale_pool_entries: 0,
                    ..Default::default()
                },
                Arc::new(ips_types::SystemClock),
            )
            .unwrap(),
        );
        let pid = ProfileId::new(1);
        write_row(&c, 1, 1_000, 1);

        // Park an eviction inside its write-back, holding the entry lock.
        store.gated_xset.store(true, Ordering::Relaxed);
        let evictor = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.evict(pid).unwrap())
        };
        while store.parked_xsets.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        // A write finds the still-resident entry (counted as a hit) and
        // then waits for its lock.
        let hits = c.hit_ratio.hits.get();
        let writer = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || write_row(&c, 1, 1_000, 2))
        };
        while c.hit_ratio.hits.get() == hits {
            std::thread::yield_now();
        }
        store.open_gate();
        assert!(evictor.join().unwrap());
        writer.join().unwrap();

        c.flush_all().unwrap();
        c.evict(pid).unwrap();
        let (features, _) = c.read(pid, |p| p.feature_count()).unwrap().unwrap();
        assert_eq!(features, 2, "the write that raced the eviction was flushed");
    }
}
