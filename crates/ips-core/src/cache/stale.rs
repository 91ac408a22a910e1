//! The stale pool (§III-G degradation): evicted profiles kept for
//! stale-bounded degraded serving.
//!
//! Only written-back data lands here (eviction writes back first), so
//! serving it can never lose writes, only lag them. The pool is bounded by
//! entry count, drops its oldest retentions first, and is not accounted
//! against the cache memory budget.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;

use ips_types::{DurationMs, ProfileId, SharedClock, Timestamp};

use crate::model::ProfileData;

use super::shard::EntryRef;

pub(super) struct StalePool {
    pub(super) state: Mutex<StaleState>,
    /// Retention cap; zero disables the pool.
    cap: usize,
    /// Stamps evictions; simulated deployments get deterministic staleness.
    clock: SharedClock,
}

#[derive(Default)]
pub(super) struct StaleState {
    /// Retained data, each tagged with its retention sequence number and
    /// eviction time.
    pub(super) map: HashMap<ProfileId, (u64, Timestamp, ProfileData)>,
    /// Retention order: exactly one slot per retained pid, keyed by its
    /// sequence number, so a superseded pid leaves the order with its entry.
    pub(super) order: BTreeMap<u64, ProfileId>,
    next_seq: u64,
}

impl StaleState {
    fn remove(&mut self, pid: ProfileId) {
        if let Some((seq, _, _)) = self.map.remove(&pid) {
            self.order.remove(&seq);
        }
    }
}

impl StalePool {
    pub(super) fn new(cap: usize, clock: SharedClock) -> Self {
        Self {
            state: Mutex::new(StaleState::default()),
            cap,
            clock,
        }
    }

    /// Retain a detached entry's data as the newest copy of `pid`, taking
    /// it without a deep copy when this is the last reference. Partial
    /// entries are never retained: a degraded read must not silently miss
    /// slices.
    pub(super) fn retain(&self, pid: ProfileId, entry: EntryRef) {
        if self.cap == 0 {
            return;
        }
        let data = match Arc::try_unwrap(entry) {
            Ok(entry) => Some(entry.into_inner())
                .filter(|e| e.missing.is_empty())
                .map(|e| e.data),
            // A concurrent reader still holds the entry; copy rather than
            // wait it out.
            Err(shared) => {
                let entry = shared.lock();
                entry.missing.is_empty().then(|| entry.data.clone())
            }
        };
        let Some(data) = data else {
            return;
        };
        let evicted_at = self.clock.now();
        let mut state = self.state.lock();
        state.remove(pid);
        let seq = state.next_seq;
        state.next_seq += 1;
        state.map.insert(pid, (seq, evicted_at, data));
        state.order.insert(seq, pid);
        while state.map.len() > self.cap {
            let Some((_, oldest)) = state.order.pop_first() else {
                break;
            };
            state.map.remove(&oldest);
        }
    }

    /// Drop `pid`'s retained copy, if any (fresh data superseded it).
    pub(super) fn remove(&self, pid: ProfileId) {
        if self.cap > 0 {
            self.state.lock().remove(pid);
        }
    }

    /// Run `f` on `pid`'s retained copy if it is no staler than
    /// `max_staleness`; returns the result plus the copy's staleness.
    pub(super) fn read<R>(
        &self,
        pid: ProfileId,
        max_staleness: DurationMs,
        f: impl FnOnce(&ProfileData) -> R,
    ) -> Option<(R, DurationMs)> {
        if self.cap == 0 {
            return None;
        }
        let state = self.state.lock();
        let (_, evicted_at, data) = state.map.get(&pid)?;
        let staleness = evicted_at.distance(self.clock.now());
        (staleness.as_millis() <= max_staleness.as_millis()).then(|| (f(data), staleness))
    }

    pub(super) fn len(&self) -> usize {
        self.state.lock().map.len()
    }
}
