//! Read-write isolation (§III-F).
//!
//! Online reads matter more than write latency, so when isolation is on,
//! incoming writes land in a *write table* — a small staging buffer separate
//! from the main table — and a periodic merge folds them into the main table
//! (every `IpsInstance::tick`; the paper merges every few seconds). This
//! keeps write bursts (e.g. an offline back-fill
//! job) from contending with the query path on the main table's entry locks.
//!
//! The write table's memory is capped; a write that takes it over the cap
//! triggers an eager merge. Both the switch and the cap are read from the
//! live table config on every write, so either can be changed live. Turning
//! isolation off routes the next write to the main table; writes already
//! staged land on the next merge.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use ips_metrics::Counter;
use ips_types::{
    ActionTypeId, AggregateFunction, CountVector, DurationMs, FeatureId, ProfileId, SlotId,
    Timestamp,
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
    /// The counts are inline, so the struct's size is the whole footprint.
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<BufferedWrite>()
    }
}

/// The staging write table: staged writes per profile, their byte count and
/// the table's counters. It holds no settings: the write path passes the
/// live budget with each write it stages.
#[derive(Default)]
pub struct WriteTable {
    /// Per-profile buffered writes. Lightweight: appends only, no slices.
    buffer: Mutex<HashMap<ProfileId, Vec<BufferedWrite>>>,
    approx_bytes: AtomicUsize,
    pub buffered: Counter,
    /// Writes a merge applied to the main table.
    pub merged: Counter,
    pub eager_merges: Counter,
}

impl WriteTable {
    /// Stage one request's writes to `pid`, under one lock. Returns `true`
    /// when the staged bytes now exceed `budget`: the caller must merge
    /// eagerly.
    pub(crate) fn stage(
        &self,
        pid: ProfileId,
        writes: impl IntoIterator<Item = BufferedWrite>,
        budget: usize,
    ) -> bool {
        let count = {
            let mut buffer = self.buffer.lock();
            let staged = buffer.entry(pid).or_default();
            let before = staged.len();
            staged.extend(writes);
            staged.len() - before
        };
        let bytes = count * std::mem::size_of::<BufferedWrite>();
        self.buffered.add(count as u64);
        let over = self.approx_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes > budget;
        if over {
            self.eager_merges.inc();
        }
        over
    }

    /// Take the whole buffer for merging into the main table, in profile-id
    /// order, so a merge touches profiles — and so sets LRU order and
    /// eviction victims — the same way on every run. The caller applies each
    /// profile's writes through its normal write path, hands whatever it
    /// could not apply back to [`Self::requeue`], and counts the rest in
    /// [`Self::merged`].
    #[must_use]
    pub fn drain(&self) -> Vec<(ProfileId, Vec<BufferedWrite>)> {
        let mut drained: Vec<_> = self.buffer.lock().drain().collect();
        self.approx_bytes.store(0, Ordering::Relaxed);
        drained.sort_unstable_by_key(|(pid, _)| *pid);
        drained
    }

    /// Put drained writes a merge could not apply back in the buffer, ahead
    /// of any the same profile buffered since the drain (those are newer).
    pub fn requeue(&self, unapplied: impl IntoIterator<Item = (ProfileId, Vec<BufferedWrite>)>) {
        let mut bytes = 0;
        let mut buf = self.buffer.lock();
        for (pid, mut writes) in unapplied {
            bytes += writes
                .iter()
                .map(BufferedWrite::approx_bytes)
                .sum::<usize>();
            let slot = buf.entry(pid).or_default();
            writes.append(slot);
            *slot = writes;
        }
        self.approx_bytes.fetch_add(bytes, Ordering::Relaxed);
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
    use std::sync::Arc;

    use super::*;
    use crate::query::{FilterPredicate, ProfileQuery};
    use crate::server::{IpsInstance, IpsInstanceOptions};
    use ips_types::clock::sim_clock;
    use ips_types::Clock as _;
    use ips_types::{CallerId, TableConfig, TableId, TimeRange};

    fn write_at(at: u64) -> BufferedWrite {
        BufferedWrite {
            at: Timestamp::from_millis(at),
            slot: SlotId::new(1),
            action: ActionTypeId::new(1),
            feature: FeatureId::new(at),
            counts: CountVector::single(1),
        }
    }

    /// Stage one write under a budget it never reaches.
    fn stage(wt: &WriteTable, pid: u64, at: u64) -> bool {
        wt.stage(ProfileId::new(pid), vec![write_at(at)], usize::MAX)
    }

    #[test]
    fn enabled_buffers_and_drains() {
        let wt = WriteTable::default();
        assert!(!stage(&wt, 1, 1));
        assert!(!stage(&wt, 1, 2));
        assert!(!stage(&wt, 2, 3));
        assert_eq!(wt.pending_writes(), 3);
        assert_eq!(wt.buffered.get(), 3);
        let drained = wt.drain();
        assert_eq!(drained.iter().map(|(_, v)| v.len()).sum::<usize>(), 3);
        assert_eq!(wt.pending_writes(), 0);
        assert_eq!(wt.approx_bytes(), 0);
    }

    #[test]
    fn drain_is_in_profile_id_order() {
        let wt = WriteTable::default();
        for n in [7u64, 3, 9, 1, 5] {
            stage(&wt, n, n);
        }
        let order: Vec<u64> = wt.drain().iter().map(|(p, _)| p.raw()).collect();
        assert_eq!(order, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn requeue_puts_unapplied_writes_ahead_of_newer_ones() {
        let wt = WriteTable::default();
        stage(&wt, 1, 1);
        stage(&wt, 2, 2);
        let drained = wt.drain();
        stage(&wt, 1, 3);
        wt.requeue(drained);
        assert_eq!(wt.pending_writes(), 3);
        assert!(wt.approx_bytes() >= 3 * std::mem::size_of::<BufferedWrite>());
        let ats: Vec<u64> = wt.drain()[0].1.iter().map(|w| w.at.as_millis()).collect();
        assert_eq!(ats, vec![1, 3], "the requeued write is older");
    }

    #[test]
    fn buffered_bytes_count_each_write_once() {
        // 8 (at) + 4 (slot) + 4 (action) + 8 (feature) + 72 (inline counts).
        assert_eq!(write_at(1).approx_bytes(), 96);
        let wt = WriteTable::default();
        wt.stage(
            ProfileId::new(1),
            vec![write_at(1), write_at(2)],
            usize::MAX,
        );
        assert_eq!(wt.approx_bytes(), 2 * 96);
        wt.requeue(wt.drain());
        assert_eq!(wt.approx_bytes(), 2 * 96);
    }

    #[test]
    fn memory_cap_triggers_eager_merge() {
        let wt = WriteTable::default();
        let over: Vec<bool> = (0..3)
            .map(|at| wt.stage(ProfileId::new(1), vec![write_at(at)], 200))
            .collect();
        assert_eq!(
            over,
            vec![false, false, true],
            "the third write crosses 200 B"
        );
        assert_eq!(wt.eager_merges.get(), 1);
        assert_eq!(wt.pending_writes(), 3, "an over-budget write is staged too");
    }

    const TABLE: TableId = TableId(1);

    /// An instance with one table whose isolation is `enabled`, and a query
    /// for every feature profile 1 holds.
    fn instance(enabled: bool) -> (Arc<IpsInstance>, ips_types::SimClock, ProfileQuery) {
        let (clock, ctl) = sim_clock(Timestamp::from_millis(
            DurationMs::from_days(400).as_millis(),
        ));
        let i = IpsInstance::new_in_memory(IpsInstanceOptions::default(), clock);
        let mut cfg = TableConfig::new("test");
        cfg.isolation.enabled = enabled;
        i.create_table(TABLE, cfg).unwrap();
        let q = ProfileQuery::filter(
            TABLE,
            ProfileId::new(1),
            SlotId::new(1),
            TimeRange::last_days(1),
            FilterPredicate::All,
        );
        (i, ctl, q)
    }

    fn add(i: &Arc<IpsInstance>, fid: u64, at: Timestamp) {
        i.add_profile(
            CallerId::new(1),
            TABLE,
            ProfileId::new(1),
            at,
            SlotId::new(1),
            ActionTypeId::new(1),
            FeatureId::new(fid),
            CountVector::single(1),
        )
        .unwrap();
    }

    /// Turn isolation on or off through the live table config.
    fn set_enabled(i: &IpsInstance, enabled: bool) {
        i.update_table_config(TABLE, |c| {
            let mut c = c.clone();
            c.isolation.enabled = enabled;
            c
        })
        .unwrap();
    }

    #[test]
    fn disabled_routes_direct() {
        let (i, ctl, q) = instance(false);
        add(&i, 10, ctl.now());
        let rt = i.table(TABLE).unwrap();
        assert_eq!(rt.write_table.pending_writes(), 0, "nothing staged");
        assert_eq!(rt.write_table.buffered.get(), 0);
        assert_eq!(i.query(CallerId::new(1), &q).unwrap().len(), 1);
    }

    #[test]
    fn hot_switch_toggles_routing() {
        let (i, ctl, q) = instance(true);
        let rt = i.table(TABLE).unwrap();
        add(&i, 10, ctl.now());
        assert_eq!(rt.write_table.pending_writes(), 1, "on: staged");
        assert!(i.query(CallerId::new(1), &q).unwrap().is_empty());

        set_enabled(&i, false);
        add(&i, 20, ctl.now());
        assert_eq!(
            i.query(CallerId::new(1), &q).unwrap().len(),
            1,
            "off: direct"
        );
        assert_eq!(rt.write_table.pending_writes(), 1, "the staged write waits");

        set_enabled(&i, true);
        add(&i, 30, ctl.now());
        assert_eq!(rt.write_table.pending_writes(), 2, "on again: staged");
        assert_eq!(rt.merge_write_table().unwrap(), 2);
        assert_eq!(i.query(CallerId::new(1), &q).unwrap().len(), 3);
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
