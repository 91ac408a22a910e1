//! Read-write isolation (§III-F).
//!
//! Online reads matter more than write latency, so when isolation is on,
//! incoming writes land in a *write table* — a small staging buffer separate
//! from the main table — and a periodic merge folds them into the main table
//! (every `IpsInstance::tick`; the paper merges every few seconds). This
//! keeps write bursts (e.g. an offline back-fill
//! job) from contending with the query path on the main table's entry locks.
//!
//! The write table's memory is capped; exceeding the cap triggers an eager
//! merge. Isolation is a hot switch: it can be toggled live, and turning it
//! off drains the staging buffer synchronously.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use parking_lot::Mutex;

use ips_metrics::Counter;
use ips_types::{
    ActionTypeId, AggregateFunction, CountVector, DurationMs, FeatureId, IsolationConfig,
    ProfileId, SlotId, Timestamp,
};

/// One buffered write.
#[derive(Clone, Debug, PartialEq)]
pub struct BufferedWrite {
    pub at: Timestamp,
    pub slot: SlotId,
    pub action: ActionTypeId,
    pub feature: FeatureId,
    pub counts: CountVector,
}

impl BufferedWrite {
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<BufferedWrite>() + self.counts.approx_bytes()
    }
}

/// The staging write table.
pub struct WriteTable {
    enabled: AtomicBool,
    config: IsolationConfig,
    /// Per-profile buffered writes. Lightweight: appends only, no slices.
    buffer: Mutex<HashMap<ProfileId, Vec<BufferedWrite>>>,
    approx_bytes: AtomicUsize,
    pub buffered: Counter,
    pub merged: Counter,
    pub eager_merges: Counter,
}

/// What `offer` decided to do with a write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteRoute {
    /// Buffered in the write table; the caller is done.
    Buffered,
    /// The write table wants the caller to apply this write directly to the
    /// main table (isolation off).
    Direct,
    /// Buffered, and the memory cap was hit: the caller must run
    /// [`WriteTable::drain`] now (eager merge).
    BufferedNeedsMerge,
}

impl WriteTable {
    #[must_use]
    pub fn new(config: IsolationConfig) -> Self {
        Self {
            enabled: AtomicBool::new(config.enabled),
            config,
            buffer: Mutex::new(HashMap::new()),
            approx_bytes: AtomicUsize::new(0),
            buffered: Counter::new(),
            merged: Counter::new(),
            eager_merges: Counter::new(),
        }
    }

    /// The hot switch (§III-F: "users can choose to turn on/off the
    /// isolation feature dynamically").
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Route one write: buffer it when isolation is on, otherwise tell the
    /// caller to apply it directly.
    pub fn offer(&self, pid: ProfileId, write: BufferedWrite) -> WriteRoute {
        if !self.is_enabled() {
            return WriteRoute::Direct;
        }
        let bytes = write.approx_bytes();
        {
            let mut buf = self.buffer.lock();
            buf.entry(pid).or_default().push(write);
        }
        self.buffered.inc();
        let total = self.approx_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if total > self.config.write_table_budget_bytes {
            self.eager_merges.inc();
            WriteRoute::BufferedNeedsMerge
        } else {
            WriteRoute::Buffered
        }
    }

    /// Take the whole buffer for merging into the main table. The caller
    /// applies each profile's writes through its normal write path.
    #[must_use]
    pub fn drain(&self) -> Vec<(ProfileId, Vec<BufferedWrite>)> {
        let drained: Vec<_> = {
            let mut buf = self.buffer.lock();
            buf.drain().collect()
        };
        let writes: usize = drained.iter().map(|(_, v)| v.len()).sum();
        self.merged.add(writes as u64);
        self.approx_bytes.store(0, Ordering::Relaxed);
        drained
    }

    /// Buffered writes visible for a single profile — used to keep the
    /// *read-your-writes* window small: queries may merge these in before
    /// the periodic merge lands them in the main table.
    #[must_use]
    pub fn pending_for(&self, pid: ProfileId) -> Vec<BufferedWrite> {
        self.buffer.lock().get(&pid).cloned().unwrap_or_default()
    }

    /// Buffered write count.
    #[must_use]
    pub fn pending_writes(&self) -> usize {
        self.buffer.lock().values().map(Vec::len).sum()
    }

    /// Approximate staged bytes.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes.load(Ordering::Relaxed)
    }
}

/// Fold a batch of buffered writes into a profile via its normal write path.
pub fn apply_buffered(
    profile: &mut crate::model::ProfileData,
    writes: &[BufferedWrite],
    agg: AggregateFunction,
    head_granularity: DurationMs,
) {
    for w in writes {
        profile.add(
            w.at,
            w.slot,
            w.action,
            w.feature,
            &w.counts,
            agg,
            head_granularity,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_at(at: u64) -> BufferedWrite {
        BufferedWrite {
            at: Timestamp::from_millis(at),
            slot: SlotId::new(1),
            action: ActionTypeId::new(1),
            feature: FeatureId::new(at),
            counts: CountVector::single(1),
        }
    }

    fn pid(n: u64) -> ProfileId {
        ProfileId::new(n)
    }

    #[test]
    fn disabled_routes_direct() {
        let wt = WriteTable::new(IsolationConfig {
            enabled: false,
            ..Default::default()
        });
        assert_eq!(wt.offer(pid(1), write_at(1)), WriteRoute::Direct);
        assert_eq!(wt.pending_writes(), 0);
    }

    #[test]
    fn enabled_buffers_and_drains() {
        let wt = WriteTable::new(IsolationConfig::default());
        assert_eq!(wt.offer(pid(1), write_at(1)), WriteRoute::Buffered);
        assert_eq!(wt.offer(pid(1), write_at(2)), WriteRoute::Buffered);
        assert_eq!(wt.offer(pid(2), write_at(3)), WriteRoute::Buffered);
        assert_eq!(wt.pending_writes(), 3);
        let drained = wt.drain();
        assert_eq!(drained.iter().map(|(_, v)| v.len()).sum::<usize>(), 3);
        assert_eq!(wt.pending_writes(), 0);
        assert_eq!(wt.approx_bytes(), 0);
        assert_eq!(wt.merged.get(), 3);
    }

    #[test]
    fn memory_cap_triggers_eager_merge() {
        let wt = WriteTable::new(IsolationConfig {
            enabled: true,
            write_table_budget_bytes: 200,
        });
        let mut saw_merge_request = false;
        for i in 0..10 {
            if wt.offer(pid(1), write_at(i)) == WriteRoute::BufferedNeedsMerge {
                saw_merge_request = true;
                break;
            }
        }
        assert!(saw_merge_request, "cap must trigger eager merge");
        assert!(wt.eager_merges.get() >= 1);
    }

    #[test]
    fn hot_switch_toggles_routing() {
        let wt = WriteTable::new(IsolationConfig::default());
        assert!(wt.is_enabled());
        wt.set_enabled(false);
        assert_eq!(wt.offer(pid(1), write_at(1)), WriteRoute::Direct);
        wt.set_enabled(true);
        assert_eq!(wt.offer(pid(1), write_at(2)), WriteRoute::Buffered);
    }

    #[test]
    fn pending_for_exposes_read_your_writes() {
        let wt = WriteTable::new(IsolationConfig::default());
        wt.offer(pid(1), write_at(5));
        wt.offer(pid(2), write_at(6));
        let pending = wt.pending_for(pid(1));
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].at, Timestamp::from_millis(5));
        assert!(wt.pending_for(pid(99)).is_empty());
    }

    #[test]
    fn apply_buffered_uses_write_path() {
        let mut profile = crate::model::ProfileData::new();
        let writes = vec![write_at(1_000), write_at(2_500), write_at(1_100)];
        apply_buffered(
            &mut profile,
            &writes,
            AggregateFunction::Sum,
            DurationMs::from_secs(1),
        );
        assert_eq!(profile.slice_count(), 2);
        profile.check_invariants().unwrap();
    }
}
