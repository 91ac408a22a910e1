//! The dirty queue and flush (Fig 9).
//!
//! A pid is queued once each time its entry's `dirty` flag turns on; the
//! flag is the only record of dirtiness, so a queued pid whose entry was
//! written back meanwhile (by eviction or export) is skipped at flush.
//! [`GCache::write_back`] is the one place the cache saves a profile.

use std::collections::VecDeque;

use parking_lot::Mutex;

use ips_types::{ProfileId, Result};

use crate::persist::ProfileStore;

use super::gcache::GCache;
use super::shard::CacheEntry;

/// The sharded dirty list: pids whose entries turned dirty, oldest first.
pub(super) struct DirtyQueue {
    shards: Box<[Mutex<VecDeque<ProfileId>>]>,
}

impl DirtyQueue {
    pub(super) fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
        }
    }

    pub(super) fn shard_of(&self, pid: ProfileId) -> usize {
        (pid.raw().wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 33) as usize % self.shards.len()
    }

    pub(super) fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

impl<S: ProfileStore + 'static> GCache<S> {
    fn enqueue_dirty(&self, pid: ProfileId) {
        self.dirty.shards[self.dirty.shard_of(pid)]
            .lock()
            .push_back(pid);
        self.dirty_gauge.add(1);
    }

    /// Mark a locked, resident entry dirty, queueing its pid if it was
    /// clean.
    pub(super) fn mark_dirty(&self, pid: ProfileId, entry: &mut CacheEntry) {
        debug_assert!(entry.missing.is_empty(), "a partial entry may not go dirty");
        if !entry.dirty {
            entry.dirty = true;
            self.enqueue_dirty(pid);
        }
    }

    /// Save a locked entry if it is dirty. Flush, eviction and export all
    /// write back through here.
    pub(super) fn write_back(&self, pid: ProfileId, entry: &mut CacheEntry) -> Result<()> {
        if !entry.dirty {
            return Ok(());
        }
        entry.held = self
            .persister
            .save(pid, &mut entry.data, entry.held.clone())?;
        entry.dirty = false;
        self.flushes.inc();
        Ok(())
    }

    /// Flush up to `budget` queued pids from dirty shard `shard_idx` (one
    /// shard's share of a tick). Returns profiles written back. A profile
    /// whose save fails is queued again before the error is returned, so a
    /// later flush still writes it back.
    pub fn flush_shard(&self, shard_idx: usize, budget: usize) -> Result<usize> {
        let queue = &self.dirty.shards[shard_idx % self.dirty.shard_count()];
        let mut flushed = 0;
        for _ in 0..budget {
            let Some(pid) = queue.lock().pop_front() else {
                break;
            };
            self.dirty_gauge.sub(1);
            let Some(entry) = self.shard(pid).get(pid) else {
                continue; // evicted meanwhile (eviction writes back first)
            };
            let mut guard = entry.lock();
            if guard.detached || !guard.dirty {
                continue;
            }
            if let Err(e) = self.write_back(pid, &mut guard) {
                self.enqueue_dirty(pid);
                return Err(e);
            }
            flushed += 1;
        }
        Ok(flushed)
    }

    /// Flush everything that is dirty (shutdown / test convenience).
    pub fn flush_all(&self) -> Result<usize> {
        let mut total = 0;
        for i in 0..self.dirty.shard_count() {
            while !self.dirty.shards[i].lock().is_empty() {
                total += self.flush_shard(i, 1024)?;
            }
        }
        Ok(total)
    }
}
