//! The legacy Lambda-architecture profile split (§I, Fig 2).
//!
//! Before IPS, every product ran two services:
//!
//! * **Long Term Profile** — per user, the top features over the entire
//!   history, kept in a KV store and rebuilt by a **daily offline batch
//!   job** over the previous day's logs. Freshness is therefore up to a
//!   day behind.
//! * **Short Term Profile** — only the content *ids* of the user's most
//!   recent clicks. Serving a request means fetching the id list, then
//!   looking each id up in a content store, and leaving feature assembly to
//!   the upstream service.
//!
//! The limitations the paper calls out fall straight out of this structure:
//! two systems to operate, bespoke feature assembly in every product, and
//! only two window kinds — an ad-hoc "last 30 days" aggregate simply cannot
//! be served.

use std::collections::{HashMap, VecDeque};

use parking_lot::RwLock;

use ips_metrics::Counter;
use ips_types::{ActionTypeId, CountVector, DurationMs, FeatureId, ProfileId, SlotId, Timestamp};

/// The content store: item id → categorical info, maintained separately
/// from the profile services (one more dependency to operate).
#[derive(Default)]
pub struct ContentStore {
    items: RwLock<HashMap<u64, (SlotId, ActionTypeId, FeatureId)>>,
    pub lookups: Counter,
}

impl ContentStore {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    pub fn put(&self, item: u64, slot: SlotId, action_type: ActionTypeId, feature: FeatureId) {
        self.items
            .write()
            .insert(item, (slot, action_type, feature));
    }

    #[must_use]
    pub fn get(&self, item: u64) -> Option<(SlotId, ActionTypeId, FeatureId)> {
        self.lookups.inc();
        self.items.read().get(&item).copied()
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.items.read().len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.read().is_empty()
    }
}

/// One logged event, the input to the daily batch job.
#[derive(Clone, Copy, Debug)]
pub struct LoggedEvent {
    pub user: ProfileId,
    pub item: u64,
    pub at: Timestamp,
    pub attribute: usize,
}

/// The served long-term view: per user, per slot, aggregated feature counts
/// over the whole processed history.
type LongTermView = HashMap<ProfileId, HashMap<SlotId, HashMap<FeatureId, CountVector>>>;

/// The two legacy services plus the event log feeding the batch job.
pub struct LambdaProfileService {
    /// Append-only event log (what the daily Spark job reads).
    log: RwLock<Vec<LoggedEvent>>,
    /// Index of the first log entry not yet folded into the long-term view.
    batch_cursor: RwLock<usize>,
    long_term: RwLock<LongTermView>,
    /// Short-term store: per user, the most recent item ids (bounded).
    short_term: RwLock<HashMap<ProfileId, VecDeque<(u64, Timestamp)>>>,
    short_term_capacity: usize,
    content: ContentStore,
    /// When the batch job last ran (long-term freshness boundary).
    pub last_batch_at: RwLock<Timestamp>,
    pub batch_runs: Counter,
    pub writes: Counter,
    pub queries: Counter,
}

impl LambdaProfileService {
    /// A service keeping `short_term_capacity` recent clicks per user.
    #[must_use]
    pub fn new(short_term_capacity: usize) -> Self {
        Self {
            log: RwLock::new(Vec::new()),
            batch_cursor: RwLock::new(0),
            long_term: RwLock::new(HashMap::new()),
            short_term: RwLock::new(HashMap::new()),
            short_term_capacity,
            content: ContentStore::new(),
            last_batch_at: RwLock::new(Timestamp::ZERO),
            batch_runs: Counter::new(),
            writes: Counter::new(),
            queries: Counter::new(),
        }
    }

    #[must_use]
    pub fn content_store(&self) -> &ContentStore {
        &self.content
    }

    /// Record one user event: appended to the log (for the nightly batch)
    /// and pushed onto the short-term id list (real-time path).
    pub fn record(&self, event: LoggedEvent) {
        self.writes.inc();
        self.log.write().push(event);
        let mut st = self.short_term.write();
        let list = st.entry(event.user).or_default();
        list.push_front((event.item, event.at));
        while list.len() > self.short_term_capacity {
            list.pop_back();
        }
    }

    /// Run the daily batch job: fold all unprocessed log entries into the
    /// long-term view. `now` stamps the freshness boundary.
    pub fn run_batch_job(&self, now: Timestamp) -> usize {
        self.batch_runs.inc();
        let log = self.log.read();
        let mut cursor = self.batch_cursor.write();
        let mut long_term = self.long_term.write();
        let start = *cursor;
        for event in &log[start..] {
            let Some((slot, _, feature)) = self.content.get(event.item) else {
                continue;
            };
            let counts = long_term
                .entry(event.user)
                .or_default()
                .entry(slot)
                .or_default()
                .entry(feature)
                .or_insert_with(CountVector::empty);
            let mut one = CountVector::zeros(event.attribute + 1);
            one.set(event.attribute, 1);
            counts.merge_sum(one.as_slice());
        }
        *cursor = log.len();
        *self.last_batch_at.write() = now;
        log.len() - start
    }

    /// Long-term query: top-K features for a user/slot **as of the last
    /// batch run** — today's events are invisible until tonight.
    #[must_use]
    pub fn query_long_term_top_k(
        &self,
        user: ProfileId,
        slot: SlotId,
        attr: usize,
        k: usize,
    ) -> Vec<(FeatureId, i64)> {
        self.queries.inc();
        let long_term = self.long_term.read();
        let Some(slots) = long_term.get(&user) else {
            return Vec::new();
        };
        let Some(features) = slots.get(&slot) else {
            return Vec::new();
        };
        let mut entries: Vec<(FeatureId, i64)> = features
            .iter()
            .map(|(fid, c)| (*fid, c.get_or_zero(attr)))
            .collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
        entries.truncate(k);
        entries
    }

    /// Short-term query: the raw recent item ids. The upstream service must
    /// then hit the content store per id and assemble features itself —
    /// exactly the per-product custom logic IPS unified away.
    #[must_use]
    pub fn query_short_term_ids(&self, user: ProfileId, limit: usize) -> Vec<u64> {
        self.queries.inc();
        self.short_term
            .read()
            .get(&user)
            .map(|list| list.iter().take(limit).map(|(item, _)| *item).collect())
            .unwrap_or_default()
    }

    /// What an upstream product has to implement on top: resolve recent ids
    /// through the content store and count per feature. One content lookup
    /// per id — the request amplification the unified IPS design avoids.
    #[must_use]
    pub fn assemble_short_term_features(
        &self,
        user: ProfileId,
        slot: SlotId,
        limit: usize,
    ) -> Vec<(FeatureId, i64)> {
        let ids = self.query_short_term_ids(user, limit);
        let mut counts: HashMap<FeatureId, i64> = HashMap::new();
        for item in ids {
            if let Some((item_slot, _, feature)) = self.content.get(item) {
                if item_slot == slot {
                    *counts.entry(feature).or_default() += 1;
                }
            }
        }
        let mut out: Vec<(FeatureId, i64)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
        out
    }

    /// The window-flexibility gap: can this architecture serve an aggregate
    /// over an arbitrary window? Long-term has no time axis at all;
    /// short-term holds only the last N ids. Anything between — e.g. "last
    /// 30 days" — is not answerable. (IPS serves all three.)
    ///
    /// A window is short-term-servable only when every user's id list still
    /// retains data back to the window start: a list under capacity covers
    /// that user's entire history; a full list covers only back to its
    /// oldest retained entry (older ids were dropped).
    #[must_use]
    pub fn can_serve_window(&self, window: DurationMs, now: Timestamp) -> bool {
        let window_start = now.saturating_sub(window);
        let st = self.short_term.read();
        let short_reach = st.values().all(|list| {
            if list.len() < self.short_term_capacity {
                true // nothing has been dropped for this user yet
            } else {
                list.back()
                    .is_some_and(|(_, oldest)| *oldest <= window_start)
            }
        });
        // "Entire history" queries are the long-term view's only shape.
        let effectively_unbounded = window >= DurationMs::from_days(365);
        short_reach || effectively_unbounded
    }

    /// Total approximate memory of both stores (ops-cost comparisons).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let lt: usize = self
            .long_term
            .read()
            .values()
            .flat_map(|slots| slots.values())
            .map(|features| features.len() * 32)
            .sum();
        let st: usize = self.short_term.read().values().map(|l| l.len() * 16).sum();
        lt + st + self.log.read().len() * std::mem::size_of::<LoggedEvent>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLOT: SlotId = SlotId(1);

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_millis(t)
    }

    fn service() -> LambdaProfileService {
        let s = LambdaProfileService::new(100);
        for item in 0..50u64 {
            s.content_store()
                .put(item, SLOT, ActionTypeId::new(1), FeatureId::new(item * 10));
        }
        s
    }

    fn event(user: u64, item: u64, at: u64) -> LoggedEvent {
        LoggedEvent {
            user: ProfileId::new(user),
            item,
            at: ts(at),
            attribute: 0,
        }
    }

    #[test]
    fn long_term_only_sees_batched_data() {
        let s = service();
        s.record(event(1, 5, 1_000));
        assert!(
            s.query_long_term_top_k(ProfileId::new(1), SLOT, 0, 10)
                .is_empty(),
            "nothing visible before the nightly batch"
        );
        s.run_batch_job(ts(86_400_000));
        let top = s.query_long_term_top_k(ProfileId::new(1), SLOT, 0, 10);
        assert_eq!(top, vec![(FeatureId::new(50), 1)]);
    }

    #[test]
    fn batch_job_is_incremental() {
        let s = service();
        s.record(event(1, 5, 1_000));
        assert_eq!(s.run_batch_job(ts(10_000)), 1);
        s.record(event(1, 5, 2_000));
        s.record(event(1, 6, 3_000));
        assert_eq!(s.run_batch_job(ts(20_000)), 2);
        let top = s.query_long_term_top_k(ProfileId::new(1), SLOT, 0, 10);
        assert_eq!(top[0], (FeatureId::new(50), 2));
    }

    #[test]
    fn short_term_keeps_recent_ids_bounded() {
        let s = LambdaProfileService::new(3);
        for i in 0..10u64 {
            s.record(event(1, i, 1_000 + i));
        }
        let ids = s.query_short_term_ids(ProfileId::new(1), 10);
        assert_eq!(ids, vec![9, 8, 7], "only the newest 3, newest first");
    }

    #[test]
    fn short_term_assembly_hits_content_store_per_id() {
        let s = service();
        for i in 0..5u64 {
            s.record(event(1, i % 2, 1_000 + i)); // items 0 and 1 repeatedly
        }
        let before = s.content_store().lookups.get();
        let features = s.assemble_short_term_features(ProfileId::new(1), SLOT, 10);
        let lookups = s.content_store().lookups.get() - before;
        assert_eq!(lookups, 5, "one content lookup per recent id");
        // Item 0 appears 3 times, item 1 twice.
        assert_eq!(features[0], (FeatureId::new(0), 3));
        assert_eq!(features[1], (FeatureId::new(10), 2));
    }

    #[test]
    fn unknown_user_is_empty() {
        let s = service();
        assert!(s
            .query_long_term_top_k(ProfileId::new(404), SLOT, 0, 5)
            .is_empty());
        assert!(s.query_short_term_ids(ProfileId::new(404), 5).is_empty());
    }

    #[test]
    fn window_flexibility_gap() {
        let s = LambdaProfileService::new(5);
        let now = ts(DurationMs::from_days(100).as_millis());
        // A user with a long history: the 5-slot id list has wrapped, so
        // only the last five clicks (0..5 minutes old) are retained.
        for i in 0..20u64 {
            s.record(LoggedEvent {
                user: ProfileId::new(1),
                item: i,
                at: now.saturating_sub(DurationMs::from_mins(20 - i)),
                attribute: 0,
            });
        }
        assert!(
            s.can_serve_window(DurationMs::from_mins(5), now),
            "very recent window covered by short-term ids"
        );
        assert!(
            !s.can_serve_window(DurationMs::from_mins(10), now),
            "clicks 6-10 minutes old were already dropped from the id list"
        );
        assert!(
            !s.can_serve_window(DurationMs::from_days(30), now),
            "the paper's motivating 30-day window is NOT servable"
        );
        assert!(
            s.can_serve_window(DurationMs::from_days(365), now),
            "entire-history shape is the long-term view"
        );
    }

    #[test]
    fn events_for_unknown_items_are_dropped_by_batch() {
        let s = service();
        s.record(event(1, 9_999, 1_000)); // not in content store
        s.run_batch_job(ts(10_000));
        assert!(s
            .query_long_term_top_k(ProfileId::new(1), SLOT, 0, 5)
            .is_empty());
    }
}
