//! The GCache implementation.
//!
//! Entries are `Arc<Mutex<CacheEntry>>` so a swap cycle can `try_lock`
//! an eviction candidate and *skip* it on contention instead of blocking
//! (Fig 8). Memory is accounted per LRU shard; when total usage crosses the
//! high watermark, swap work starts from the **largest** shard and evicts
//! cold entries until usage falls below the low watermark — dirty entries
//! are flushed before being dropped (write-back).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use ips_kv::Generation;
use ips_metrics::counter::HitRatio;
use ips_metrics::{Counter, Gauge};
use ips_types::{CacheConfig, DurationMs, IpsError, ProfileId, Result, SharedClock, Timestamp};

use crate::model::ProfileData;
use crate::persist::{
    LoadedSlices, ProfilePersister, ProfileStore, SliceLoadOutcome, SliceProjection, SliceRefInfo,
};

use super::lru::LruList;

/// One cached profile plus its write-back bookkeeping.
pub struct CacheEntry {
    pub data: ProfileData,
    /// Needs flushing to the persistent store.
    pub dirty: bool,
    /// The storage generation held for the next conditional save (Fig 14).
    pub generation: Generation,
    /// Referenced slices a projected load skipped: non-empty means the
    /// entry is *partial*. Partial entries are upgraded in place when a
    /// query needs more slices, and must be completed before they may go
    /// dirty (a flush writes the full slice set, so saving a partial
    /// profile would drop the unloaded slices from the stored meta).
    pub missing: Vec<SliceRefInfo>,
    /// Bytes this entry was last accounted at.
    accounted_bytes: usize,
}

/// Storage work one cache access performed — or, for a coalesced waiter, the
/// work of the in-flight load it shared. Drives the storage-cost fields of a
/// query result so clients can model real fetch cost instead of a flat
/// per-miss constant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadCost {
    /// Storage round trips (meta read, multi-get, bulk read).
    pub round_trips: u32,
    /// Payload bytes read from the store.
    pub bytes_read: u64,
}

impl ReadCost {
    fn add(&mut self, other: ReadCost) {
        self.round_trips += other.round_trips;
        self.bytes_read += other.bytes_read;
    }
}

/// One successful cache access: the entry, whether it was a hit, and the
/// storage cost the access paid.
type EntryAccess = (Arc<Mutex<CacheEntry>>, bool, ReadCost);

/// The published outcome of an in-flight load, shared with every waiter.
#[derive(Clone)]
enum LoadResult {
    Ready {
        entry: Arc<Mutex<CacheEntry>>,
        cost: ReadCost,
    },
    Missing,
    Failed(IpsError),
}

/// A single-flight slot: the first thread to miss on a profile id becomes
/// the *leader* and issues the one store load; concurrent missers park here
/// and share the published result.
#[derive(Default)]
struct InflightLoad {
    state: Mutex<Option<LoadResult>>,
    cv: Condvar,
    waiters: AtomicU64,
}

struct LruShard {
    map: Mutex<HashMap<ProfileId, Arc<Mutex<CacheEntry>>>>,
    lru: Mutex<LruList>,
    /// In-flight loads keyed by profile id (single-flight coalescing). Lock
    /// order: `inflight` before `map` when both are held.
    inflight: Mutex<HashMap<ProfileId, Arc<InflightLoad>>>,
    bytes: AtomicU64,
}

struct DirtyShard {
    /// Pending profile ids, deduplicated.
    queue: Mutex<(VecDeque<ProfileId>, std::collections::HashSet<ProfileId>)>,
}

/// An evicted profile's data, retained for stale-bounded degraded serving.
/// Only clean (already-flushed) data lands here — eviction write-backs run
/// first — so serving it can never lose writes, only lag them.
struct StaleEntry {
    data: ProfileData,
    evicted_at: Timestamp,
}

/// FIFO-bounded side pool of evicted profiles (§III-G degradation). Not
/// accounted against the cache memory budget; bounded by entry count.
#[derive(Default)]
struct StalePool {
    map: HashMap<ProfileId, StaleEntry>,
    order: VecDeque<ProfileId>,
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

/// One hot entry exported for a shard handoff: the profile plus the storage
/// generation its data was flushed at, so the importer can reject a stale
/// snapshot against a newer KV write.
#[derive(Clone, Debug)]
pub struct ExportedEntry {
    pub pid: ProfileId,
    pub generation: Generation,
    pub data: ProfileData,
}

/// The outcome of one [`GCache::export_hot`] walk.
#[derive(Default)]
pub struct ExportBatch {
    /// Hottest-first entries of the moving keyspace.
    pub entries: Vec<ExportedEntry>,
    /// Approximate payload bytes across `entries`.
    pub bytes: u64,
    /// Matching entries skipped (partial coverage or lock contention).
    pub skipped: usize,
    /// The budget ran out with matching entries still unvisited.
    pub truncated: bool,
}

/// Accounting for one [`GCache::import_entries`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImportReport {
    pub imported: usize,
    /// Entries whose generation no longer matches the store's head.
    pub rejected_stale: usize,
    /// Entries already resident on the importer (left untouched).
    pub already_resident: usize,
}

impl ImportReport {
    pub fn absorb(&mut self, other: ImportReport) {
        self.imported += other.imported;
        self.rejected_stale += other.rejected_stale;
        self.already_resident += other.already_resident;
    }
}

/// The write-back compute cache.
pub struct GCache<S: ProfileStore> {
    shards: Box<[LruShard]>,
    dirty: Box<[DirtyShard]>,
    persister: Arc<ProfilePersister<S>>,
    config: CacheConfig,
    total_bytes: AtomicU64,
    /// Evicted-entry side pool for degraded serving; timestamps come from
    /// `clock` so simulated deployments get deterministic staleness.
    stale: Mutex<StalePool>,
    clock: SharedClock,
    pub hit_ratio: HitRatio,
    pub evictions: Counter,
    pub flushes: Counter,
    pub swap_skips: Counter,
    pub stale_serves: Counter,
    pub coalesced_loads: Counter,
    pub store_loads: Counter,
    pub dirty_gauge: Gauge,
    pub inflight_waiters: Gauge,
}

impl<S: ProfileStore + 'static> GCache<S> {
    /// Build a cache over `persister` with the given sizing policy.
    pub fn new(
        persister: Arc<ProfilePersister<S>>,
        config: CacheConfig,
        clock: SharedClock,
    ) -> Result<Self> {
        config.validate().map_err(IpsError::InvalidConfig)?;
        let shards = (0..config.lru_shards)
            .map(|_| LruShard {
                map: Mutex::new(HashMap::new()),
                lru: Mutex::new(LruList::new()),
                inflight: Mutex::new(HashMap::new()),
                bytes: AtomicU64::new(0),
            })
            .collect();
        let dirty = (0..config.dirty_shards)
            .map(|_| DirtyShard {
                queue: Mutex::new((VecDeque::new(), std::collections::HashSet::new())),
            })
            .collect();
        Ok(Self {
            shards,
            dirty,
            persister,
            config,
            total_bytes: AtomicU64::new(0),
            stale: Mutex::new(StalePool::default()),
            clock,
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

    fn shard_idx(&self, pid: ProfileId) -> usize {
        // Multiplicative hash over the profile id.
        (pid.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % self.shards.len()
    }

    fn dirty_idx(&self, pid: ProfileId) -> usize {
        (pid.raw().wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 33) as usize % self.dirty.len()
    }

    /// Look up (or load) the entry for `pid`. `create` inserts an empty
    /// profile when neither cache nor store has one (write path); create
    /// accesses always materialize the *full* profile so the entry may go
    /// dirty. Concurrent misses on one id are single-flighted: the first
    /// thread issues the one store load, the rest park on the in-flight
    /// slot and share the result. Returns `(entry, was_hit, cost)`; `None`
    /// for a read miss everywhere.
    fn entry(
        &self,
        pid: ProfileId,
        create: bool,
        projection: &SliceProjection,
    ) -> Result<Option<EntryAccess>> {
        let effective = if create {
            &SliceProjection::Full
        } else {
            projection
        };
        let mut cache_span = ips_trace::child("cache");
        let shard = &self.shards[self.shard_idx(pid)];
        if let Some(entry) = shard.map.lock().get(&pid).map(Arc::clone) {
            shard.lru.lock().touch(pid);
            self.hit_ratio.hits.inc();
            cache_span.set_attr("hit", "true");
            drop(cache_span);
            let cost = self.ensure_coverage(pid, &entry, effective)?;
            return Ok(Some((entry, true, cost)));
        }
        // Missed the resident map: join an in-flight load or become its
        // leader. The map is re-checked under the inflight lock: a
        // completing leader inserts into the map *before* clearing its
        // slot, so absent entry + absent slot here proves no load is in
        // flight and we lead.
        enum Role {
            Leader(Arc<InflightLoad>),
            Waiter(Arc<InflightLoad>),
        }
        let role = {
            let mut inflight = shard.inflight.lock();
            if let Some(entry) = shard.map.lock().get(&pid).map(Arc::clone) {
                drop(inflight);
                shard.lru.lock().touch(pid);
                self.hit_ratio.hits.inc();
                cache_span.set_attr("hit", "true");
                drop(cache_span);
                let cost = self.ensure_coverage(pid, &entry, effective)?;
                return Ok(Some((entry, true, cost)));
            }
            match inflight.get(&pid) {
                Some(slot) => Role::Waiter(Arc::clone(slot)),
                None => {
                    let slot = Arc::new(InflightLoad::default());
                    inflight.insert(pid, Arc::clone(&slot));
                    Role::Leader(slot)
                }
            }
        };
        let slot = match role {
            Role::Waiter(slot) => {
                // Share the leader's load: count a coalesced access (NOT a
                // second miss) and park until the result is published.
                self.coalesced_loads.inc();
                cache_span.set_attr("hit", "false");
                cache_span.set_attr("coalesced", "true");
                drop(cache_span);
                slot.waiters.fetch_add(1, Ordering::Relaxed);
                self.inflight_waiters.add(1);
                let result = {
                    let mut state = slot.state.lock();
                    loop {
                        if let Some(r) = state.as_ref() {
                            break r.clone();
                        }
                        slot.cv.wait(&mut state);
                    }
                };
                self.inflight_waiters.sub(1);
                return match result {
                    LoadResult::Ready { entry, cost } => {
                        shard.lru.lock().touch(pid);
                        let mut total = cost;
                        total.add(self.ensure_coverage(pid, &entry, effective)?);
                        Ok(Some((entry, false, total)))
                    }
                    LoadResult::Missing if create => {
                        // The leader was a plain read; create the empty
                        // entry here without a second store load.
                        let entry =
                            self.insert_resident(shard, pid, ProfileData::new(), 0, Vec::new());
                        Ok(Some((entry, false, ReadCost::default())))
                    }
                    LoadResult::Missing => Ok(None),
                    LoadResult::Failed(e) => Err(e),
                };
            }
            Role::Leader(slot) => slot,
        };
        // Leader: the one store load for this miss.
        self.hit_ratio.misses.inc();
        cache_span.set_attr("hit", "false");
        drop(cache_span);
        let loaded = {
            let mut load_span = ips_trace::child("store_load");
            self.store_loads.inc();
            let r = self.persister.load_slices(pid, effective);
            load_span.set_attr("waiters", slot.waiters.load(Ordering::Relaxed).to_string());
            if let Ok(SliceLoadOutcome::Loaded(l)) = &r {
                load_span.set_attr("round_trips", l.round_trips.to_string());
                load_span.set_attr("partial", (!l.missing.is_empty()).to_string());
            }
            r
        };
        match loaded {
            Err(e) => {
                self.publish_inflight(shard, pid, &slot, LoadResult::Failed(e.clone()));
                Err(e)
            }
            Ok(SliceLoadOutcome::Missing) if !create => {
                self.publish_inflight(shard, pid, &slot, LoadResult::Missing);
                Ok(None)
            }
            Ok(SliceLoadOutcome::Missing) => {
                let entry = self.insert_resident(shard, pid, ProfileData::new(), 0, Vec::new());
                self.publish_inflight(
                    shard,
                    pid,
                    &slot,
                    LoadResult::Ready {
                        entry: Arc::clone(&entry),
                        cost: ReadCost::default(),
                    },
                );
                Ok(Some((entry, false, ReadCost::default())))
            }
            Ok(SliceLoadOutcome::Loaded(LoadedSlices {
                profile,
                generation,
                missing,
                round_trips,
                bytes_read,
            })) => {
                let cost = ReadCost {
                    round_trips,
                    bytes_read,
                };
                let entry = self.insert_resident(shard, pid, profile, generation, missing);
                self.publish_inflight(
                    shard,
                    pid,
                    &slot,
                    LoadResult::Ready {
                        entry: Arc::clone(&entry),
                        cost,
                    },
                );
                Ok(Some((entry, false, cost)))
            }
        }
    }

    /// Insert a freshly loaded (or created) profile into the resident map,
    /// keeping the defensive double-check: if a racing path inserted first,
    /// the existing entry wins and the new data is dropped.
    fn insert_resident(
        &self,
        shard: &LruShard,
        pid: ProfileId,
        data: ProfileData,
        generation: Generation,
        missing: Vec<SliceRefInfo>,
    ) -> Arc<Mutex<CacheEntry>> {
        let bytes = data.approx_bytes();
        let entry = Arc::new(Mutex::new(CacheEntry {
            data,
            dirty: false,
            generation,
            missing,
            accounted_bytes: bytes,
        }));
        let mut map = shard.map.lock();
        let entry = match map.get(&pid) {
            Some(existing) => Arc::clone(existing),
            None => {
                map.insert(pid, Arc::clone(&entry));
                shard.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
                self.total_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
                entry
            }
        };
        drop(map);
        shard.lru.lock().touch(pid);
        // Fresh data is resident again; the stale copy is superseded.
        if self.config.stale_pool_entries > 0 {
            self.stale.lock().map.remove(&pid);
        }
        entry
    }

    /// Publish an in-flight load's outcome and clear its slot. For `Ready`
    /// results the entry is already in the resident map, so clearing the
    /// slot here (under the inflight lock) keeps the invariant new missers
    /// rely on: either the map has the entry or the slot is joinable.
    fn publish_inflight(
        &self,
        shard: &LruShard,
        pid: ProfileId,
        slot: &Arc<InflightLoad>,
        result: LoadResult,
    ) {
        shard.inflight.lock().remove(&pid);
        let mut state = slot.state.lock();
        *state = Some(result);
        slot.cv.notify_all();
    }

    /// Upgrade a partial entry in place until it covers `projection`
    /// (everything, for `Full`). No-op for full entries or projections the
    /// resident slices already satisfy. Returns the storage work done.
    fn ensure_coverage(
        &self,
        pid: ProfileId,
        entry: &Arc<Mutex<CacheEntry>>,
        projection: &SliceProjection,
    ) -> Result<ReadCost> {
        let needed: Vec<SliceRefInfo> = {
            let guard = entry.lock();
            if guard.missing.is_empty() {
                return Ok(ReadCost::default());
            }
            match *projection {
                SliceProjection::Full => guard.missing.clone(),
                SliceProjection::Window { range, now } => {
                    let window = range.resolve(now, guard.data.last_action_hint());
                    guard
                        .missing
                        .iter()
                        .filter(|r| window.overlaps(r.start, r.end))
                        .copied()
                        .collect()
                }
            }
        };
        if needed.is_empty() {
            return Ok(ReadCost::default());
        }
        let (slices, round_trips, bytes_read) = {
            let mut load_span = ips_trace::child("store_load");
            load_span.set_attr("upgrade", "true");
            self.store_loads.inc();
            self.persister.fetch_slices(pid, &needed)?
        };
        let mut guard = entry.lock();
        // Clear every requested ref — torn slices included, so they are not
        // refetched forever — then splice the slices that actually arrived
        // and are still uncovered (a racing upgrader may have beaten us).
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
        guard
            .data
            .slices_mut()
            .sort_by_key(|s| std::cmp::Reverse(s.start()));
        debug_assert!(guard.data.check_invariants().is_ok());
        self.reaccount(pid, &mut guard);
        Ok(ReadCost {
            round_trips,
            bytes_read,
        })
    }

    // ---- stale pool (degraded serving, §III-G) ----------------------------

    /// Retain an evicted entry for degraded serving, reclaiming its data
    /// without a deep copy when this was the last reference (the common,
    /// uncontended case — the old per-eviction `data.clone()` was the
    /// dominant allocation on the swap path). Partial entries are never
    /// retained: a degraded read must not silently miss slices.
    fn retain_stale_from(&self, pid: ProfileId, removed: Arc<Mutex<CacheEntry>>) {
        if self.config.stale_pool_entries == 0 {
            return;
        }
        match Arc::try_unwrap(removed) {
            Ok(mutex) => {
                let entry = mutex.into_inner();
                if entry.missing.is_empty() {
                    self.retain_stale(pid, entry.data);
                }
            }
            Err(shared) => {
                // A concurrent reader still holds the entry; fall back to a
                // copy rather than waiting it out.
                let guard = shared.lock();
                if guard.missing.is_empty() {
                    self.retain_stale(pid, guard.data.clone());
                }
            }
        }
    }

    /// Retain an evicted entry's (already-flushed) data for degraded
    /// serving. FIFO-bounded by `stale_pool_entries`.
    fn retain_stale(&self, pid: ProfileId, data: ProfileData) {
        let cap = self.config.stale_pool_entries;
        if cap == 0 {
            return;
        }
        let mut pool = self.stale.lock();
        let entry = StaleEntry {
            data,
            evicted_at: self.clock.now(),
        };
        if pool.map.insert(pid, entry).is_none() {
            pool.order.push_back(pid);
        }
        // `order` may hold ids already superseded/removed; skip those.
        while pool.map.len() > cap {
            match pool.order.pop_front() {
                Some(old) => {
                    pool.map.remove(&old);
                }
                None => break,
            }
        }
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
        if self.config.stale_pool_entries == 0 {
            return None;
        }
        let pool = self.stale.lock();
        let entry = pool.map.get(&pid)?;
        let staleness = entry.evicted_at.distance(self.clock.now());
        if staleness.as_millis() > max_staleness.as_millis() {
            return None;
        }
        let out = f(&entry.data);
        self.stale_serves.inc();
        Some((out, staleness))
    }

    fn reaccount(&self, pid: ProfileId, entry: &mut CacheEntry) {
        let new_bytes = entry.data.approx_bytes();
        let old = entry.accounted_bytes;
        if new_bytes == old {
            return;
        }
        entry.accounted_bytes = new_bytes;
        let shard = &self.shards[self.shard_idx(pid)];
        if new_bytes >= old {
            let delta = (new_bytes - old) as u64;
            shard.bytes.fetch_add(delta, Ordering::Relaxed);
            self.total_bytes.fetch_add(delta, Ordering::Relaxed);
        } else {
            let delta = (old - new_bytes) as u64;
            shard.bytes.fetch_sub(delta, Ordering::Relaxed);
            self.total_bytes.fetch_sub(delta, Ordering::Relaxed);
        }
    }

    fn mark_dirty(&self, pid: ProfileId) {
        let shard = &self.dirty[self.dirty_idx(pid)];
        let mut q = shard.queue.lock();
        if q.1.insert(pid) {
            q.0.push_back(pid);
            self.dirty_gauge.add(1);
        }
    }

    /// Mutate (creating if absent) the profile for `pid`. The write path.
    /// Always materializes the full profile first (a partial entry may not
    /// go dirty). Returns whether the access was a cache hit.
    pub fn write<R>(
        &self,
        pid: ProfileId,
        f: impl FnOnce(&mut ProfileData) -> R,
    ) -> Result<(R, bool)> {
        #[expect(clippy::expect_used, reason = "entry(create=true) always yields Some")]
        let (entry, hit, _cost) = self
            .entry(pid, true, &SliceProjection::Full)?
            .expect("create=true always yields an entry");
        let mut guard = entry.lock();
        debug_assert!(guard.missing.is_empty(), "write path must be full");
        let out = f(&mut guard.data);
        guard.dirty = true;
        self.reaccount(pid, &mut guard);
        drop(guard);
        self.mark_dirty(pid);
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
        match self.entry(pid, false, projection)? {
            Some((entry, hit, cost)) => {
                let guard = entry.lock();
                Ok(Some((f(&guard.data), hit, cost)))
            }
            None => Ok(None),
        }
    }

    /// Mutate without creating (compaction path). No-op on absent profiles.
    pub fn mutate_if_cached<R>(
        &self,
        pid: ProfileId,
        f: impl FnOnce(&mut ProfileData) -> R,
    ) -> Option<R> {
        let shard = &self.shards[self.shard_idx(pid)];
        let entry = shard.map.lock().get(&pid).map(Arc::clone)?;
        // A partial entry must be completed before it may go dirty; if the
        // store is unavailable, skip the mutation (compaction retries).
        if self
            .ensure_coverage(pid, &entry, &SliceProjection::Full)
            .is_err()
        {
            return None;
        }
        let mut guard = entry.lock();
        if !guard.missing.is_empty() {
            return None; // torn slices left it incomplete; don't dirty it
        }
        let out = f(&mut guard.data);
        guard.dirty = true;
        self.reaccount(pid, &mut guard);
        drop(guard);
        self.mark_dirty(pid);
        Some(out)
    }

    /// Is the profile currently resident?
    #[must_use]
    pub fn contains(&self, pid: ProfileId) -> bool {
        self.shards[self.shard_idx(pid)]
            .map
            .lock()
            .contains_key(&pid)
    }

    /// Number of resident profiles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.lock().len()).sum()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total accounted bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> u64 {
        self.total_bytes.load(Ordering::Relaxed)
    }

    // ---- flush (dirty list) -----------------------------------------------

    /// Flush up to `budget` dirty profiles from dirty shard `shard_idx`
    /// (one shard's share of a tick). Returns profiles flushed. A profile
    /// whose save fails is queued again before the error is returned, so a
    /// later flush still writes it back.
    pub fn flush_shard(&self, shard_idx: usize, budget: usize) -> Result<usize> {
        let shard = &self.dirty[shard_idx % self.dirty.len()];
        let mut flushed = 0;
        for _ in 0..budget {
            let pid = {
                let mut q = shard.queue.lock();
                match q.0.pop_front() {
                    Some(pid) => {
                        q.1.remove(&pid);
                        self.dirty_gauge.sub(1);
                        pid
                    }
                    None => break,
                }
            };
            if let Err(e) = self.flush_one(pid) {
                self.mark_dirty(pid);
                return Err(e);
            }
            flushed += 1;
        }
        Ok(flushed)
    }

    fn flush_one(&self, pid: ProfileId) -> Result<()> {
        let lru_shard = &self.shards[self.shard_idx(pid)];
        let Some(entry) = lru_shard.map.lock().get(&pid).map(Arc::clone) else {
            return Ok(()); // evicted meanwhile (eviction flushes first)
        };
        let mut guard = entry.lock();
        if !guard.dirty {
            return Ok(());
        }
        debug_assert!(
            guard.missing.is_empty(),
            "dirty entries are always full; flushing a partial would drop slices"
        );
        let held = guard.generation;
        let new_gen = self.persister.save(pid, &mut guard.data, held)?;
        guard.generation = new_gen;
        guard.dirty = false;
        self.flushes.inc();
        Ok(())
    }

    /// Flush everything that is dirty (shutdown / test convenience).
    pub fn flush_all(&self) -> Result<usize> {
        let mut total = 0;
        for i in 0..self.dirty.len() {
            loop {
                let n = self.flush_shard(i, 1024)?;
                total += n;
                if n == 0 {
                    break;
                }
            }
        }
        Ok(total)
    }

    // ---- swap (LRU eviction) ----------------------------------------------

    /// One swap pass: if usage exceeds the high watermark, evict cold
    /// entries starting from the largest shard until below the low
    /// watermark. Entries whose lock is contended are skipped (Fig 8).
    /// Returns entries evicted.
    pub fn swap_cycle(&self) -> Result<usize> {
        let budget = self.config.memory_budget_bytes as u64;
        let high = (budget as f64 * self.config.swap_high_watermark) as u64;
        let low = (budget as f64 * self.config.swap_low_watermark) as u64;
        if self.memory_bytes() <= high {
            return Ok(0);
        }
        let mut evicted = 0;
        // Keep evicting from the currently largest shard until under low.
        while self.memory_bytes() > low {
            let Some((idx, _)) = self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| (i, s.bytes.load(Ordering::Relaxed)))
                .max_by_key(|(_, b)| *b)
            else {
                break;
            };
            let n = self.evict_from_shard(idx, 32)?;
            if n == 0 {
                // Largest shard fully contended or empty; try others once.
                let mut any = 0;
                for i in 0..self.shards.len() {
                    if i != idx {
                        any += self.evict_from_shard(i, 8)?;
                    }
                }
                if any == 0 {
                    break; // nothing evictable right now
                }
                evicted += any;
            } else {
                evicted += n;
            }
        }
        Ok(evicted)
    }

    /// Evict up to `max` cold entries from one shard, skipping contended
    /// entries via `try_lock`.
    fn evict_from_shard(&self, idx: usize, max: usize) -> Result<usize> {
        let shard = &self.shards[idx];
        let candidates = shard.lru.lock().coldest_n(max * 2);
        let mut evicted = 0;
        for pid in candidates {
            if evicted >= max {
                break;
            }
            let Some(entry) = shard.map.lock().get(&pid).map(Arc::clone) else {
                shard.lru.lock().remove(pid);
                continue;
            };
            // Fig 8: try_lock, skip to the next candidate on contention.
            let Some(mut guard) = entry.try_lock() else {
                self.swap_skips.inc();
                continue;
            };
            if guard.dirty {
                // Write-back before dropping from memory.
                let held = guard.generation;
                let new_gen = self.persister.save(pid, &mut guard.data, held)?;
                guard.generation = new_gen;
                guard.dirty = false;
                self.flushes.inc();
            }
            let bytes = guard.accounted_bytes as u64;
            drop(guard);
            let removed = shard.map.lock().remove(&pid);
            shard.lru.lock().remove(pid);
            shard.bytes.fetch_sub(bytes, Ordering::Relaxed);
            self.total_bytes.fetch_sub(bytes, Ordering::Relaxed);
            self.evictions.inc();
            drop(entry);
            if let Some(removed) = removed {
                self.retain_stale_from(pid, removed);
            }
            evicted += 1;
        }
        Ok(evicted)
    }

    /// Evict one specific profile (tests / targeted invalidation). Flushes
    /// if dirty.
    pub fn evict(&self, pid: ProfileId) -> Result<bool> {
        let shard = &self.shards[self.shard_idx(pid)];
        let Some(entry) = shard.map.lock().get(&pid).map(Arc::clone) else {
            return Ok(false);
        };
        let mut guard = entry.lock();
        if guard.dirty {
            let held = guard.generation;
            let new_gen = self.persister.save(pid, &mut guard.data, held)?;
            guard.generation = new_gen;
            guard.dirty = false;
            self.flushes.inc();
        }
        let bytes = guard.accounted_bytes as u64;
        drop(guard);
        let removed = shard.map.lock().remove(&pid);
        shard.lru.lock().remove(pid);
        shard.bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.total_bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.evictions.inc();
        drop(entry);
        if let Some(removed) = removed {
            self.retain_stale_from(pid, removed);
        }
        Ok(true)
    }

    // ---- shard handoff (hot-entry export / import) ------------------------

    /// Export the most-recently-used resident entries whose profile id
    /// matches `filter`, capped at `max_entries` / `max_bytes`. Each shard's
    /// LRU is walked from the hot end and the shards are interleaved, so the
    /// batch prefix is approximately the hottest slice of the moving
    /// keyspace. Dirty entries are flushed first — the exported generation
    /// is then the store's head, which keeps the import-side version check
    /// meaningful. Partial entries and entries whose lock is contended are
    /// skipped (counted, not retried): the target cold-loads those few.
    pub fn export_hot(
        &self,
        filter: impl Fn(ProfileId) -> bool,
        max_entries: usize,
        max_bytes: u64,
    ) -> Result<ExportBatch> {
        let lanes: Vec<Vec<ProfileId>> = self
            .shards
            .iter()
            .map(|s| s.lru.lock().iter_mru().filter(|&p| filter(p)).collect())
            .collect();
        let mut order: Vec<ProfileId> = Vec::with_capacity(lanes.iter().map(Vec::len).sum());
        let mut rank = 0usize;
        loop {
            let mut any = false;
            for lane in &lanes {
                if let Some(&pid) = lane.get(rank) {
                    order.push(pid);
                    any = true;
                }
            }
            if !any {
                break;
            }
            rank += 1;
        }
        let mut batch = ExportBatch::default();
        for pid in order {
            if batch.entries.len() >= max_entries || batch.bytes >= max_bytes {
                batch.truncated = true;
                break;
            }
            let shard = &self.shards[self.shard_idx(pid)];
            let Some(entry) = shard.map.lock().get(&pid).map(Arc::clone) else {
                continue; // evicted since the LRU snapshot
            };
            let Some(mut guard) = entry.try_lock() else {
                batch.skipped += 1;
                continue;
            };
            if !guard.missing.is_empty() {
                batch.skipped += 1; // a partial snapshot would drop slices
                continue;
            }
            if guard.dirty {
                let held = guard.generation;
                let new_gen = self.persister.save(pid, &mut guard.data, held)?;
                guard.generation = new_gen;
                guard.dirty = false;
                self.flushes.inc();
            }
            batch.bytes += guard.accounted_bytes as u64;
            batch.entries.push(ExportedEntry {
                pid,
                generation: guard.generation,
                data: guard.data.clone(),
            });
        }
        Ok(batch)
    }

    /// Import a batch of entries streamed from another node during a shard
    /// handoff. Each entry is version-checked against the KV substrate: it
    /// lands only while its generation still matches the store's head for
    /// that profile, so a snapshot that raced a newer write (or is replayed
    /// after one) never shadows fresher data — the key stays cold and the
    /// normal miss path loads the head instead. Already-resident entries are
    /// left untouched: resident data is at least as fresh and may carry
    /// local writes. Entries are processed in reverse so a hottest-first
    /// batch lands in the LRU with its hottest entry most recent.
    pub fn import_entries(&self, entries: Vec<ExportedEntry>) -> Result<ImportReport> {
        let mut report = ImportReport::default();
        for e in entries.into_iter().rev() {
            let shard = &self.shards[self.shard_idx(e.pid)];
            if shard.map.lock().contains_key(&e.pid) {
                report.already_resident += 1;
                continue;
            }
            match self.persister.current_generation(e.pid)? {
                Some(current) if current == e.generation => {}
                _ => {
                    // Newer head, purged profile, or a generation we cannot
                    // confirm: refuse the warm copy rather than shadow it.
                    report.rejected_stale += 1;
                    continue;
                }
            }
            let bytes = e.data.approx_bytes();
            let entry = Arc::new(Mutex::new(CacheEntry {
                data: e.data,
                dirty: false,
                generation: e.generation,
                missing: Vec::new(),
                accounted_bytes: bytes,
            }));
            {
                let mut map = shard.map.lock();
                if map.contains_key(&e.pid) {
                    report.already_resident += 1; // racing miss loaded it first
                    continue;
                }
                map.insert(e.pid, entry);
                shard.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
                self.total_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            }
            shard.lru.lock().touch(e.pid);
            if self.config.stale_pool_entries > 0 {
                self.stale.lock().map.remove(&e.pid);
            }
            report.imported += 1;
        }
        Ok(report)
    }

    /// Demote every resident entry matching `filter` into the stale pool
    /// (handoff cutover: ownership moved to the target, so warm copies here
    /// only spend budget — while a stale copy still serves brownouts).
    /// Dirty entries are written back by the eviction path. Returns the
    /// number of entries demoted.
    pub fn demote_matching(&self, filter: impl Fn(ProfileId) -> bool) -> Result<usize> {
        let mut demoted = 0;
        for shard in self.shards.iter() {
            let matching: Vec<ProfileId> = shard
                .map
                .lock()
                .keys()
                .copied()
                .filter(|&p| filter(p))
                .collect();
            for pid in matching {
                if self.evict(pid)? {
                    demoted += 1;
                }
            }
        }
        Ok(demoted)
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
            stale_pool_entries: self.stale.lock().map.len(),
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
    use ips_kv::{KvNode, KvNodeConfig};
    use ips_types::{
        ActionTypeId, AggregateFunction, CountVector, DurationMs, FeatureId, PersistenceMode,
        SlotId, TableId, Timestamp,
    };
    use std::sync::atomic::AtomicBool;

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
        let shard = &c.shards[c.shard_idx(ProfileId::new(1))];
        let entry = shard
            .map
            .lock()
            .get(&ProfileId::new(1))
            .map(Arc::clone)
            .unwrap();
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
        assert!(c.flush_shard(c.dirty_idx(pid), 16).is_err());
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
        assert_eq!(cost.round_trips, 2, "meta read + one multi-get");
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
        assert_eq!(cost.round_trips, 1, "one multi-get, no meta re-read");
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

    /// A store wrapper whose `xget` (the meta read that starts every split
    /// load) can be parked on a gate, letting the test hold a leader
    /// mid-load while a herd piles onto the in-flight slot.
    struct GatedStore {
        inner: Arc<KvNode>,
        gate_open: Mutex<bool>,
        cv: Condvar,
        gated: AtomicBool,
        gated_xgets: AtomicU64,
    }

    impl GatedStore {
        fn new(inner: Arc<KvNode>) -> Self {
            Self {
                inner,
                gate_open: Mutex::new(false),
                cv: Condvar::new(),
                gated: AtomicBool::new(false),
                gated_xgets: AtomicU64::new(0),
            }
        }

        fn open_gate(&self) {
            *self.gate_open.lock() = true;
            self.cv.notify_all();
        }
    }

    impl ProfileStore for GatedStore {
        fn set(&self, key: bytes::Bytes, value: bytes::Bytes) -> Result<Generation> {
            self.inner.set(key, value)
        }
        fn get(&self, key: &[u8]) -> Result<Option<bytes::Bytes>> {
            self.inner.get(key)
        }
        fn get_many(&self, keys: &[bytes::Bytes]) -> Result<Vec<Option<bytes::Bytes>>> {
            self.inner.get_many(keys)
        }
        fn xget(&self, key: &[u8]) -> Result<(Option<bytes::Bytes>, Generation)> {
            if self.gated.load(Ordering::Relaxed) {
                let mut open = self.gate_open.lock();
                while !*open {
                    self.cv.wait(&mut open);
                }
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
            "exactly one meta read reached the store"
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
}
