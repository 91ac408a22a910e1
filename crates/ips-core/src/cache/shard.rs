//! Shard residency and swap (Figs 7–8).
//!
//! Each shard's LRU list holds its resident entries; nothing else records
//! residency. An entry enters a shard through [`GCache::insert`] and leaves
//! it through [`GCache::evict_entry`], which writes it back and then
//! detaches it under its lock. A swap cycle evicts cold entries from the
//! largest shard, skipping entries it cannot `try_lock` (Fig 8).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ips_types::{ProfileId, Result};

use crate::model::ProfileData;
use crate::persist::{Held, ProfileStore, SliceRefInfo};

use super::gcache::GCache;
use super::inflight::InflightLoad;
use super::lru::LruList;

/// One cached profile plus its write-back bookkeeping.
pub(super) struct CacheEntry {
    pub(super) data: ProfileData,
    /// Holds writes not yet saved. This flag is the only record of
    /// dirtiness: the pid is queued for flush when it turns on.
    pub(super) dirty: bool,
    /// The stored head held for the next conditional save (Fig 14).
    pub(super) held: Held,
    /// Referenced slices a projected load skipped: non-empty means the
    /// entry is *partial*. Partial entries are upgraded in place when a
    /// query needs more slices, and must be completed before they may go
    /// dirty (a flush writes the full slice set, so saving a partial
    /// profile would drop the unloaded slices from the stored head).
    pub(super) missing: Vec<SliceRefInfo>,
    /// Bytes this entry is accounted at in its shard.
    pub(super) accounted_bytes: usize,
    /// Set under this entry's lock when it leaves its shard, after its
    /// write-back. Nothing may write a detached entry: a flush would never
    /// find it again.
    pub(super) detached: bool,
}

pub(super) type EntryRef = Arc<Mutex<CacheEntry>>;

/// One LRU shard: its resident entries and the loads in flight for pids
/// not yet resident, under one lock, plus the bytes its entries account for.
pub(super) struct Shard {
    pub(super) state: Mutex<ShardState>,
    pub(super) bytes: AtomicU64,
}

pub(super) struct ShardState {
    pub(super) lru: LruList<EntryRef>,
    pub(super) inflight: HashMap<ProfileId, Arc<InflightLoad>>,
}

impl Shard {
    pub(super) fn new() -> Self {
        Self {
            state: Mutex::new(ShardState {
                lru: LruList::new(),
                inflight: HashMap::new(),
            }),
            bytes: AtomicU64::new(0),
        }
    }

    /// `pid`'s resident entry, without changing its recency.
    pub(super) fn get(&self, pid: ProfileId) -> Option<EntryRef> {
        self.state.lock().lru.get(pid).map(Arc::clone)
    }

    /// Resident entries whose pid matches `filter`, most recent first.
    pub(super) fn matching(
        &self,
        filter: impl Fn(ProfileId) -> bool,
    ) -> Vec<(ProfileId, EntryRef)> {
        let state = self.state.lock();
        let matching = state.lru.iter_mru().filter(|&(pid, _)| filter(pid));
        matching
            .map(|(pid, entry)| (pid, Arc::clone(entry)))
            .collect()
    }
}

impl<S: ProfileStore + 'static> GCache<S> {
    pub(super) fn shard(&self, pid: ProfileId) -> &Shard {
        // Multiplicative hash over the profile id.
        let h = (pid.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize;
        &self.shards[h % self.shards.len()]
    }

    /// Make a loaded, created or imported profile resident and most
    /// recently used. If `pid` is already resident, that entry wins and
    /// `data` is dropped. Returns the resident entry and whether this call
    /// inserted it.
    pub(super) fn insert(
        &self,
        pid: ProfileId,
        data: ProfileData,
        held: impl Into<Held>,
        missing: Vec<SliceRefInfo>,
    ) -> (EntryRef, bool) {
        let shard = self.shard(pid);
        let bytes = data.approx_bytes();
        let entry = Arc::new(Mutex::new(CacheEntry {
            data,
            dirty: false,
            held: held.into(),
            missing,
            accounted_bytes: bytes,
            detached: false,
        }));
        {
            let mut state = shard.state.lock();
            if let Some(resident) = state.lru.touch(pid) {
                return (Arc::clone(resident), false);
            }
            state.lru.insert(pid, Arc::clone(&entry));
            // Counted before an eviction can find the entry and subtract it.
            shard.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
        // Fresh data is resident again; the stale copy is superseded.
        self.stale.remove(pid);
        (entry, true)
    }

    /// Re-account a locked, resident entry after its data changed.
    pub(super) fn reaccount(&self, pid: ProfileId, entry: &mut CacheEntry) {
        let (old, new) = (entry.accounted_bytes, entry.data.approx_bytes());
        entry.accounted_bytes = new;
        let bytes = &self.shard(pid).bytes;
        if new > old {
            bytes.fetch_add((new - old) as u64, Ordering::Relaxed);
        } else if new < old {
            bytes.fetch_sub((old - new) as u64, Ordering::Relaxed);
        }
    }

    /// Write back and detach one resident entry, then offer its data to the
    /// stale pool. With `wait` false this is the swap cycle's `try_lock`
    /// (Fig 8): a contended entry is skipped and counted. Returns whether
    /// the entry was evicted.
    pub(super) fn evict_entry(&self, pid: ProfileId, entry: EntryRef, wait: bool) -> Result<bool> {
        let mut guard = if wait {
            entry.lock()
        } else if let Some(guard) = entry.try_lock() {
            guard
        } else {
            self.swap_skips.inc();
            return Ok(false);
        };
        if guard.detached {
            return Ok(false); // evicted by another path meanwhile
        }
        self.write_back(pid, &mut guard)?;
        let shard = self.shard(pid);
        shard.state.lock().lru.remove(pid);
        guard.detached = true;
        shard
            .bytes
            .fetch_sub(guard.accounted_bytes as u64, Ordering::Relaxed);
        self.evictions.inc();
        drop(guard);
        self.stale.retain(pid, entry);
        Ok(true)
    }

    /// Evict one specific profile (tests / targeted invalidation). Flushes
    /// if dirty.
    pub fn evict(&self, pid: ProfileId) -> Result<bool> {
        match self.shard(pid).get(pid) {
            Some(entry) => self.evict_entry(pid, entry, true),
            None => Ok(false),
        }
    }

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

    /// Evict up to `max` cold entries from one shard.
    fn evict_from_shard(&self, idx: usize, max: usize) -> Result<usize> {
        let candidates = self.shards[idx].state.lock().lru.coldest_n(max * 2);
        let mut evicted = 0;
        for (pid, entry) in candidates {
            if evicted >= max {
                break;
            }
            if self.evict_entry(pid, entry, false)? {
                evicted += 1;
            }
        }
        Ok(evicted)
    }

    /// Is the profile currently resident?
    #[must_use]
    pub fn contains(&self, pid: ProfileId) -> bool {
        self.shard(pid).get(pid).is_some()
    }

    /// Number of resident profiles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.state.lock().lru.len()).sum()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total accounted bytes: the sum of the shards' counters.
    #[must_use]
    pub fn memory_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.bytes.load(Ordering::Relaxed))
            .sum()
    }
}
