//! The pre-aggregated key-value feature store (§VI related work).
//!
//! "Another common way of implementing real-time model training is to
//! leverage an external streaming processing system to aggregate events in
//! sliding windows with different granularities, e.g. 5-min item clicks or
//! 7-days item views. These aggregations are then written to a key-value
//! store for online serving."
//!
//! The trade-off IPS argues: every window a model wants must be *chosen in
//! advance* and materialized — each additional window multiplies storage
//! and streaming cost, and a window that was not configured simply cannot
//! be queried. IPS instead stores raw slices once and aggregates at query
//! time over any window.

use std::collections::HashMap;

use parking_lot::RwLock;

use ips_metrics::Counter;
use ips_types::{CountVector, DurationMs, FeatureId, ProfileId, SlotId, Timestamp};

/// Key of one materialized aggregate: `(user, slot, feature, window)`.
type AggKey = (ProfileId, SlotId, FeatureId, DurationMs);

/// A tumbling-bucket sliding-window aggregate: per window size, counts are
/// kept in `window / BUCKETS_PER_WINDOW`-wide buckets so expiry is cheap.
const BUCKETS_PER_WINDOW: u64 = 6;

struct WindowState {
    /// Bucket epoch → counts.
    buckets: HashMap<u64, CountVector>,
}

/// The store: configured windows only.
pub struct PreAggStore {
    windows: Vec<DurationMs>,
    state: RwLock<HashMap<AggKey, WindowState>>,
    pub writes: Counter,
    pub queries: Counter,
    pub unservable_queries: Counter,
}

impl PreAggStore {
    /// A store materializing exactly `windows`.
    #[must_use]
    pub fn new(windows: Vec<DurationMs>) -> Self {
        assert!(!windows.is_empty(), "need at least one configured window");
        Self {
            windows,
            state: RwLock::new(HashMap::new()),
            writes: Counter::new(),
            queries: Counter::new(),
            unservable_queries: Counter::new(),
        }
    }

    #[must_use]
    pub fn windows(&self) -> &[DurationMs] {
        &self.windows
    }

    fn bucket_width(window: DurationMs) -> u64 {
        (window.as_millis() / BUCKETS_PER_WINDOW).max(1)
    }

    /// Ingest one event: updates **every configured window's** aggregate —
    /// the write amplification the design pays (one write per window).
    pub fn record(
        &self,
        user: ProfileId,
        slot: SlotId,
        feature: FeatureId,
        counts: &CountVector,
        at: Timestamp,
    ) {
        let mut state = self.state.write();
        for window in &self.windows {
            self.writes.inc();
            let width = Self::bucket_width(*window);
            let epoch = at.as_millis() / width;
            let entry = state
                .entry((user, slot, feature, *window))
                .or_insert_with(|| WindowState {
                    buckets: HashMap::new(),
                });
            entry
                .buckets
                .entry(epoch)
                .or_insert_with(CountVector::empty)
                .merge_sum(counts.as_slice());
            // Expire buckets older than the window.
            let min_epoch = at.saturating_sub(*window).as_millis() / width;
            entry.buckets.retain(|e, _| *e >= min_epoch);
        }
    }

    /// Query the aggregate for one configured window. Returns `None` when
    /// `window` was not materialized — the inflexibility IPS removes.
    #[must_use]
    pub fn query(
        &self,
        user: ProfileId,
        slot: SlotId,
        feature: FeatureId,
        window: DurationMs,
        now: Timestamp,
    ) -> Option<CountVector> {
        self.queries.inc();
        if !self.windows.contains(&window) {
            self.unservable_queries.inc();
            return None;
        }
        let width = Self::bucket_width(window);
        let min_epoch = now.saturating_sub(window).as_millis() / width;
        let state = self.state.read();
        let entry = state.get(&(user, slot, feature, window))?;
        let mut acc = CountVector::empty();
        for (epoch, counts) in &entry.buckets {
            if *epoch >= min_epoch {
                acc.merge_sum(counts.as_slice());
            }
        }
        Some(acc)
    }

    /// Top-K over one configured window (linear scan over the user's
    /// materialized features — the store has no per-slot index).
    #[must_use]
    pub fn top_k(
        &self,
        user: ProfileId,
        slot: SlotId,
        window: DurationMs,
        attr: usize,
        k: usize,
        now: Timestamp,
    ) -> Option<Vec<(FeatureId, i64)>> {
        self.queries.inc();
        if !self.windows.contains(&window) {
            self.unservable_queries.inc();
            return None;
        }
        let width = Self::bucket_width(window);
        let min_epoch = now.saturating_sub(window).as_millis() / width;
        let state = self.state.read();
        let mut entries: Vec<(FeatureId, i64)> = state
            .iter()
            .filter(|((u, s, _, w), _)| *u == user && *s == slot && *w == window)
            .map(|((_, _, fid, _), ws)| {
                let total: i64 = ws
                    .buckets
                    .iter()
                    .filter(|(e, _)| **e >= min_epoch)
                    .map(|(_, c)| c.get_or_zero(attr))
                    .sum();
                (*fid, total)
            })
            .collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
        entries.truncate(k);
        Some(entries)
    }

    /// Number of materialized `(user, slot, feature, window)` aggregates —
    /// grows linearly with the configured window count.
    #[must_use]
    pub fn materialized_aggregates(&self) -> usize {
        self.state.read().len()
    }

    /// Approximate memory footprint.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let state = self.state.read();
        state
            .values()
            .map(|ws| 48 + ws.buckets.len() * 48)
            .sum::<usize>()
            + state.len() * std::mem::size_of::<AggKey>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLOT: SlotId = SlotId(1);
    const USER: ProfileId = ProfileId(1);
    const FID: FeatureId = FeatureId(7);

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_millis(t)
    }

    fn store() -> PreAggStore {
        PreAggStore::new(vec![DurationMs::from_mins(5), DurationMs::from_days(7)])
    }

    #[test]
    fn configured_window_aggregates() {
        let s = store();
        s.record(USER, SLOT, FID, &CountVector::single(1), ts(1_000));
        s.record(USER, SLOT, FID, &CountVector::single(2), ts(2_000));
        let agg = s
            .query(USER, SLOT, FID, DurationMs::from_mins(5), ts(10_000))
            .unwrap();
        assert_eq!(agg.as_slice(), &[3]);
    }

    #[test]
    fn unconfigured_window_is_unservable() {
        let s = store();
        s.record(USER, SLOT, FID, &CountVector::single(1), ts(1_000));
        assert!(
            s.query(USER, SLOT, FID, DurationMs::from_days(30), ts(10_000))
                .is_none(),
            "30-day window was never materialized"
        );
        assert_eq!(s.unservable_queries.get(), 1);
    }

    #[test]
    fn old_events_age_out_of_short_window() {
        let s = store();
        s.record(USER, SLOT, FID, &CountVector::single(5), ts(1_000));
        // 10 minutes later the 5-min window no longer sees the event, but
        // the 7-day window does.
        let later = ts(1_000 + DurationMs::from_mins(10).as_millis());
        // Touch the state so expiry runs for the short window.
        s.record(USER, SLOT, FID, &CountVector::single(1), later);
        let short = s
            .query(USER, SLOT, FID, DurationMs::from_mins(5), later)
            .unwrap();
        assert_eq!(short.as_slice(), &[1], "only the fresh event");
        let long = s
            .query(USER, SLOT, FID, DurationMs::from_days(7), later)
            .unwrap();
        assert_eq!(long.as_slice(), &[6], "long window retains both");
    }

    #[test]
    fn write_amplification_scales_with_window_count() {
        let one = PreAggStore::new(vec![DurationMs::from_mins(5)]);
        let five = PreAggStore::new(vec![
            DurationMs::from_mins(5),
            DurationMs::from_hours(1),
            DurationMs::from_days(1),
            DurationMs::from_days(7),
            DurationMs::from_days(30),
        ]);
        for s in [&one, &five] {
            s.record(USER, SLOT, FID, &CountVector::single(1), ts(1_000));
        }
        assert_eq!(one.writes.get(), 1);
        assert_eq!(five.writes.get(), 5, "one write per configured window");
        assert_eq!(five.materialized_aggregates(), 5);
        assert!(five.approx_bytes() > one.approx_bytes());
    }

    #[test]
    fn top_k_over_configured_window() {
        let s = store();
        for (fid, n) in [(1u64, 5i64), (2, 9), (3, 2)] {
            for _ in 0..n {
                s.record(
                    USER,
                    SLOT,
                    FeatureId::new(fid),
                    &CountVector::single(1),
                    ts(1_000),
                );
            }
        }
        let top = s
            .top_k(USER, SLOT, DurationMs::from_mins(5), 0, 2, ts(2_000))
            .unwrap();
        assert_eq!(top, vec![(FeatureId::new(2), 9), (FeatureId::new(1), 5)]);
        assert!(s
            .top_k(USER, SLOT, DurationMs::from_days(30), 0, 2, ts(2_000))
            .is_none());
    }

    #[test]
    fn unknown_user_empty() {
        let s = store();
        assert_eq!(
            s.query(
                ProfileId::new(404),
                SLOT,
                FID,
                DurationMs::from_mins(5),
                ts(1_000)
            ),
            None
        );
    }
}
