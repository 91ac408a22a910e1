//! Single-flight loads: concurrent misses on one profile share one store
//! load.
//!
//! The first thread to miss on a pid becomes the *leader*: it registers an
//! [`InflightLoad`] slot in the shard, issues the one store load, makes the
//! result resident and only then clears the slot, so a new misser always
//! finds either the entry or a slot to join. Later missers park on the slot
//! and share the published result.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use ips_types::{IpsError, ProfileId, Result};

use crate::model::ProfileData;
use crate::persist::{ProfileStore, SliceLoadOutcome, SliceProjection};

use super::gcache::{GCache, ReadCost};
use super::shard::EntryRef;

/// The published outcome of an in-flight load, shared with every waiter.
#[derive(Clone)]
enum LoadResult {
    Ready { entry: EntryRef, cost: ReadCost },
    Missing,
    Failed(IpsError),
}

/// A single-flight slot that missers park on.
#[derive(Default)]
pub(super) struct InflightLoad {
    state: Mutex<Option<LoadResult>>,
    cv: Condvar,
    waiters: AtomicU64,
}

/// A resident entry, whether finding it was a hit, and the storage work
/// the access paid (or, for a waiter, shared).
pub(super) type Found = (EntryRef, bool, ReadCost);

impl<S: ProfileStore + 'static> GCache<S> {
    /// `pid`'s resident entry, touched as most recently used on a hit, or
    /// loaded on a miss. `create` makes an empty profile resident when the
    /// store has none (the write path). `None` for a read miss everywhere.
    pub(super) fn lookup(
        &self,
        pid: ProfileId,
        create: bool,
        projection: &SliceProjection,
    ) -> Result<Option<Found>> {
        let mut cache_span = ips_trace::child("cache");
        let shard = self.shard(pid);
        let (slot, leader) = {
            let mut state = shard.state.lock();
            if let Some(entry) = state.lru.touch(pid) {
                let entry = Arc::clone(entry);
                drop(state);
                self.hit_ratio.hits.inc();
                cache_span.set_attr("hit", "true");
                return Ok(Some((entry, true, ReadCost::default())));
            }
            match state.inflight.get(&pid) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(InflightLoad::default());
                    state.inflight.insert(pid, Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        cache_span.set_attr("hit", "false");
        if !leader {
            // Share the leader's load: count a coalesced access (not a
            // second miss) and park until the result is published.
            self.coalesced_loads.inc();
            cache_span.set_attr("coalesced", "true");
            drop(cache_span);
            slot.waiters.fetch_add(1, Ordering::Relaxed);
            self.inflight_waiters.add(1);
            let result = {
                let mut state = slot.state.lock();
                loop {
                    if let Some(result) = state.as_ref() {
                        break result.clone();
                    }
                    slot.cv.wait(&mut state);
                }
            };
            self.inflight_waiters.sub(1);
            return self.resolve(pid, result, create);
        }
        self.hit_ratio.misses.inc();
        drop(cache_span);
        let loaded = {
            let mut load_span = ips_trace::child("store_load");
            self.store_loads.inc();
            let loaded = self.persister.load_slices(pid, projection);
            load_span.set_attr("waiters", slot.waiters.load(Ordering::Relaxed).to_string());
            if let Ok(SliceLoadOutcome::Loaded(l)) = &loaded {
                load_span.set_attr("round_trips", l.round_trips.to_string());
                load_span.set_attr("partial", (!l.missing.is_empty()).to_string());
            }
            loaded
        };
        let result = match loaded {
            Err(e) => LoadResult::Failed(e),
            Ok(SliceLoadOutcome::Missing) if !create => LoadResult::Missing,
            Ok(SliceLoadOutcome::Missing) => LoadResult::Ready {
                entry: self.insert(pid, ProfileData::new(), 0, Vec::new()).0,
                cost: ReadCost::default(),
            },
            Ok(SliceLoadOutcome::Loaded(l)) => LoadResult::Ready {
                entry: self.insert(pid, l.profile, l.held, l.missing).0,
                cost: ReadCost {
                    round_trips: l.round_trips,
                    bytes_read: l.bytes_read,
                },
            },
        };
        shard.state.lock().inflight.remove(&pid);
        *slot.state.lock() = Some(result.clone());
        slot.cv.notify_all();
        self.resolve(pid, result, create)
    }

    fn resolve(&self, pid: ProfileId, result: LoadResult, create: bool) -> Result<Option<Found>> {
        match result {
            LoadResult::Ready { entry, cost } => Ok(Some((entry, false, cost))),
            // The leader was a plain read; create the empty entry here
            // without a second store load.
            LoadResult::Missing if create => {
                let entry = self.insert(pid, ProfileData::new(), 0, Vec::new()).0;
                Ok(Some((entry, false, ReadCost::default())))
            }
            LoadResult::Missing => Ok(None),
            LoadResult::Failed(e) => Err(e),
        }
    }
}
