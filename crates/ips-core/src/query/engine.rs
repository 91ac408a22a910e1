//! Query execution over one profile.
//!
//! `execute` implements the two-step plan from §II-B: locate the slices in
//! the resolved window, then multi-way merge all feature counts under the
//! requested slot (optionally one action type), applying the table's
//! aggregate function and the query's decay function, and finally sort /
//! filter / top-K the merged features as they stream out of the merge.

use std::cmp::Ordering;

use ips_types::config::{decay_factor, DecayFunction};
use ips_types::{
    scale_counts, AggregateFunction, CountVector, ShrinkConfig, SlotId, SortKey, SortOrder,
    Timestamp, MAX_ATTRIBUTES,
};

use crate::model::ProfileData;

use super::merge::{MergedRow, WindowMerge};
use super::request::{FeatureEntry, ProfileQuery, QueryKind, QueryResult};
use super::topk::top_k_by;

/// Merge all features in `profile` under `slot` (and optionally one action
/// type) across slices overlapping `[lo, hi)`, in feature-id order.
///
/// Decay is applied *per slice* before aggregation: counts from a slice aged
/// `now - slice_end` are scaled by the decay curve at that age, which is what
/// makes `get_profile_decay` favour recent slices (§II-B).
///
/// Returns `(merged features, slices_visited)`. The features are produced
/// lazily, one per distinct id, with no allocation per feature.
#[allow(clippy::too_many_arguments, reason = "one query's window and decay")]
pub fn merged_features(
    profile: &ProfileData,
    slot: SlotId,
    action: Option<ips_types::ActionTypeId>,
    lo: Timestamp,
    hi: Timestamp,
    agg: AggregateFunction,
    decay: DecayFunction,
    decay_base: f64,
    now: Timestamp,
) -> (impl Iterator<Item = FeatureEntry> + '_, usize) {
    let mut merge = WindowMerge::new(profile, slot, action, lo, hi);
    let window = merge.window();
    // One factor per slice of the window, computed only for the slices that
    // hold rows of the slot; none without decay.
    let mut factors: Vec<f64> = Vec::new();
    if decay != DecayFunction::None {
        factors.resize(window.len(), 1.0);
        for i in merge.run_slices() {
            let age = now.distance(window[i].end().min(now));
            factors[i] = decay_factor(decay, decay_base, age);
        }
    }
    let features = std::iter::from_fn(move || {
        // The first row is the newest: it seeds the counts and `last_seen`,
        // and later rows fold in as the older side.
        let mut buf = [0; MAX_ATTRIBUTES];
        let first = merge.next()?;
        let mut entry = FeatureEntry {
            feature: first.feature,
            counts: CountVector::from_slice(weighted(first, &factors, &mut buf)),
            last_seen: window[first.slice].end(),
        };
        while let Some(row) = merge.next_of(entry.feature) {
            agg.apply(&mut entry.counts, weighted(row, &factors, &mut buf), false);
        }
        Some(entry)
    });
    (features, window.len())
}

/// `row`'s counts scaled in `buf` by its slice's decay factor, or the row
/// itself when there is no factor or it is 1, which keeps the counts exact.
fn weighted<'r>(
    row: MergedRow<'r>,
    factors: &[f64],
    buf: &'r mut [i64; MAX_ATTRIBUTES],
) -> &'r [i64] {
    let counts = row.counts.as_slice();
    match factors.get(row.slice) {
        Some(&f) if (f - 1.0).abs() > f64::EPSILON => {
            let buf = &mut buf[..counts.len()];
            buf.copy_from_slice(counts);
            scale_counts(buf, f);
            buf
        }
        _ => counts,
    }
}

/// The comparison used for sorting/top-K: "greater is better" under the
/// requested key and order, with feature id as the deterministic tie-break.
fn make_cmp(
    sort: SortKey,
    order: SortOrder,
    weights: &ShrinkConfig,
) -> impl Fn(&FeatureEntry, &FeatureEntry) -> Ordering + '_ {
    move |a, b| {
        let primary = match sort {
            SortKey::Attribute(idx) => a.counts.get_or_zero(idx).cmp(&b.counts.get_or_zero(idx)),
            SortKey::WeightedScore => weights
                .score(a.counts.as_slice())
                .partial_cmp(&weights.score(b.counts.as_slice()))
                .unwrap_or(Ordering::Equal),
            SortKey::Timestamp => a.last_seen.cmp(&b.last_seen),
            SortKey::FeatureId => a.feature.cmp(&b.feature),
        };
        let primary = match order {
            SortOrder::Descending => primary,
            SortOrder::Ascending => primary.reverse(),
        };
        primary.then_with(|| a.feature.cmp(&b.feature))
    }
}

/// Execute `query` against one in-memory profile.
///
/// * `agg` — the table's pre-configured aggregate function;
/// * `weights` — the table's shrink config, reused for
///   [`SortKey::WeightedScore`];
/// * `now` — the instant the query's time range is resolved against.
pub fn execute(
    profile: &ProfileData,
    query: &ProfileQuery,
    agg: AggregateFunction,
    weights: &ShrinkConfig,
    now: Timestamp,
) -> QueryResult {
    let window = query.range.resolve(now, profile.last_action_hint());
    if window.is_empty() {
        return QueryResult::default();
    }
    let (features, slices_visited) = merged_features(
        profile,
        query.slot,
        query.action,
        window.start,
        window.end,
        agg,
        query.decay,
        query.decay_factor,
        now,
    );

    let entries = match &query.kind {
        QueryKind::TopK { k, sort, order } | QueryKind::Decay { k, sort, order } => {
            top_k_by(features, *k, make_cmp(*sort, *order, weights))
        }
        // The merge yields feature-id order, the filter's output order.
        QueryKind::Filter { predicate } => features
            .filter(|e| predicate.accepts(e.feature, &e.counts))
            .collect(),
    };

    QueryResult {
        entries,
        slices_visited,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::request::FilterPredicate;
    use ips_types::{ActionTypeId, DurationMs, FeatureId, ProfileId, TableId, TimeRange};

    const SLOT: SlotId = SlotId(1);
    const LIKE: ActionTypeId = ActionTypeId(1);
    const SHARE: ActionTypeId = ActionTypeId(2);

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_millis(t)
    }

    /// Build a profile with one observation per (time, fid, likes).
    fn profile(rows: &[(u64, u64, i64)]) -> ProfileData {
        let mut p = ProfileData::new();
        for &(t, fid, likes) in rows {
            p.add(
                ts(t),
                SLOT,
                LIKE,
                FeatureId::new(fid),
                &CountVector::single(likes),
                AggregateFunction::Sum,
                DurationMs::from_secs(1),
            );
        }
        p
    }

    fn top_k_query(range: TimeRange, k: usize) -> ProfileQuery {
        ProfileQuery::top_k(TableId::new(1), ProfileId::new(1), SLOT, range, k)
    }

    #[test]
    fn top_k_merges_across_slices() {
        // Feature 10: 1+4 likes across two slices; feature 20: 3 likes.
        let p = profile(&[(1_000, 10, 1), (5_000, 10, 4), (5_000, 20, 3)]);
        let q = top_k_query(TimeRange::last(DurationMs::from_secs(100)), 2);
        let r = execute(
            &p,
            &q,
            AggregateFunction::Sum,
            &ShrinkConfig::default(),
            ts(10_000),
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.entries[0].feature, FeatureId::new(10));
        assert_eq!(r.entries[0].counts.as_slice(), &[5]);
        assert_eq!(r.entries[1].counts.as_slice(), &[3]);
        assert_eq!(r.slices_visited, 2);
    }

    #[test]
    fn window_excludes_out_of_range_slices() {
        let p = profile(&[(1_000, 10, 100), (50_000, 20, 1)]);
        // Only the last 10 seconds: feature 10's slice at t=1s is out.
        let q = top_k_query(TimeRange::last(DurationMs::from_secs(10)), 10);
        let r = execute(
            &p,
            &q,
            AggregateFunction::Sum,
            &ShrinkConfig::default(),
            ts(55_000),
        );
        assert_eq!(r.feature_ids(), vec![FeatureId::new(20)]);
    }

    #[test]
    fn relative_range_anchors_on_dormant_user() {
        // Last action long ago; RELATIVE window still finds it.
        let p = profile(&[(1_000, 10, 1)]);
        let q = ProfileQuery {
            range: TimeRange::Relative {
                lookback: DurationMs::from_secs(5),
            },
            ..top_k_query(TimeRange::last_days(1), 10)
        };
        let now = ts(1_000_000_000);
        let r = execute(
            &p,
            &q,
            AggregateFunction::Sum,
            &ShrinkConfig::default(),
            now,
        );
        assert_eq!(r.len(), 1, "relative window must anchor at last action");
        // CURRENT window of the same span misses it.
        let q2 = top_k_query(TimeRange::last(DurationMs::from_secs(5)), 10);
        let r2 = execute(
            &p,
            &q2,
            AggregateFunction::Sum,
            &ShrinkConfig::default(),
            now,
        );
        assert!(r2.is_empty());
    }

    #[test]
    fn absolute_range() {
        let p = profile(&[(1_000, 10, 1), (5_000, 20, 1), (9_000, 30, 1)]);
        let q = ProfileQuery {
            range: TimeRange::Absolute {
                start: ts(4_000),
                end: ts(8_000),
            },
            ..top_k_query(TimeRange::last_days(1), 10)
        };
        let r = execute(
            &p,
            &q,
            AggregateFunction::Sum,
            &ShrinkConfig::default(),
            ts(20_000),
        );
        assert_eq!(r.feature_ids(), vec![FeatureId::new(20)]);
    }

    #[test]
    fn action_type_narrowing() {
        let mut p = ProfileData::new();
        for (action, fid) in [(LIKE, 1u64), (SHARE, 2)] {
            p.add(
                ts(1_000),
                SLOT,
                action,
                FeatureId::new(fid),
                &CountVector::single(1),
                AggregateFunction::Sum,
                DurationMs::from_secs(1),
            );
        }
        let q = top_k_query(TimeRange::last(DurationMs::from_secs(100)), 10).with_action(SHARE);
        let r = execute(
            &p,
            &q,
            AggregateFunction::Sum,
            &ShrinkConfig::default(),
            ts(2_000),
        );
        assert_eq!(r.feature_ids(), vec![FeatureId::new(2)]);
    }

    #[test]
    fn filter_min_attribute() {
        let p = profile(&[(1_000, 1, 5), (1_000, 2, 1), (2_500, 1, 5)]);
        let q = ProfileQuery::filter(
            TableId::new(1),
            ProfileId::new(1),
            SLOT,
            TimeRange::last(DurationMs::from_secs(100)),
            FilterPredicate::MinAttribute { attr: 0, min: 10 },
        );
        let r = execute(
            &p,
            &q,
            AggregateFunction::Sum,
            &ShrinkConfig::default(),
            ts(5_000),
        );
        // Feature 1 aggregates to 10 across two slices; feature 2 has 1.
        assert_eq!(r.feature_ids(), vec![FeatureId::new(1)]);
    }

    #[test]
    fn filter_feature_membership() {
        let p = profile(&[(1_000, 1, 1), (1_000, 2, 1), (1_000, 3, 1)]);
        let q = ProfileQuery::filter(
            TableId::new(1),
            ProfileId::new(1),
            SLOT,
            TimeRange::last(DurationMs::from_secs(100)),
            FilterPredicate::FeatureIn(vec![FeatureId::new(2), FeatureId::new(9)]),
        );
        let r = execute(
            &p,
            &q,
            AggregateFunction::Sum,
            &ShrinkConfig::default(),
            ts(5_000),
        );
        assert_eq!(r.feature_ids(), vec![FeatureId::new(2)]);
    }

    #[test]
    fn decay_downweights_old_slices() {
        // Old feature has more raw likes but decays away.
        let p = profile(&[(1_000, 1, 100), (999_000, 2, 60)]);
        let q = ProfileQuery::decay(
            TableId::new(1),
            ProfileId::new(1),
            SLOT,
            TimeRange::last(DurationMs::from_days(1)),
            DecayFunction::Exponential {
                half_life: DurationMs::from_secs(100),
            },
            1.0,
            10,
        );
        let now = ts(1_000_000);
        let r = execute(
            &p,
            &q,
            AggregateFunction::Sum,
            &ShrinkConfig::default(),
            now,
        );
        assert_eq!(
            r.entries[0].feature,
            FeatureId::new(2),
            "recent wins after decay"
        );
        assert_eq!(r.entries[0].counts.as_slice(), &[60]); // age ~0 sec < 1 half-life
        assert_eq!(
            r.entries[1].counts.as_slice(),
            &[0],
            "old decayed to nothing"
        );
    }

    #[test]
    fn sort_by_timestamp_returns_most_recent() {
        let p = profile(&[(1_000, 1, 100), (5_000, 2, 1), (9_000, 3, 1)]);
        let q = top_k_query(TimeRange::last(DurationMs::from_secs(100)), 2)
            .with_sort(SortKey::Timestamp, SortOrder::Descending);
        let r = execute(
            &p,
            &q,
            AggregateFunction::Sum,
            &ShrinkConfig::default(),
            ts(10_000),
        );
        assert_eq!(r.feature_ids(), vec![FeatureId::new(3), FeatureId::new(2)]);
    }

    #[test]
    fn sort_by_weighted_score() {
        let mut p = ProfileData::new();
        // Feature 1: 10 likes 0 shares. Feature 2: 1 like 2 shares.
        p.add(
            ts(1_000),
            SLOT,
            LIKE,
            FeatureId::new(1),
            &CountVector::pair(10, 0),
            AggregateFunction::Sum,
            DurationMs::from_secs(1),
        );
        p.add(
            ts(1_000),
            SLOT,
            LIKE,
            FeatureId::new(2),
            &CountVector::pair(1, 2),
            AggregateFunction::Sum,
            DurationMs::from_secs(1),
        );
        let weights = ShrinkConfig {
            weights: vec![1.0, 10.0],
            ..Default::default()
        };
        let q = top_k_query(TimeRange::last(DurationMs::from_secs(100)), 2)
            .with_sort(SortKey::WeightedScore, SortOrder::Descending);
        let r = execute(&p, &q, AggregateFunction::Sum, &weights, ts(2_000));
        // Feature 2 scores 21 vs feature 1's 10.
        assert_eq!(r.feature_ids(), vec![FeatureId::new(2), FeatureId::new(1)]);
    }

    #[test]
    fn ascending_order_flips_results() {
        let p = profile(&[(1_000, 1, 5), (1_000, 2, 1)]);
        let q = top_k_query(TimeRange::last(DurationMs::from_secs(100)), 2)
            .with_sort(SortKey::Attribute(0), SortOrder::Ascending);
        let r = execute(
            &p,
            &q,
            AggregateFunction::Sum,
            &ShrinkConfig::default(),
            ts(2_000),
        );
        assert_eq!(r.feature_ids(), vec![FeatureId::new(2), FeatureId::new(1)]);
    }

    #[test]
    fn empty_profile_and_empty_window() {
        let p = ProfileData::new();
        let q = top_k_query(TimeRange::last(DurationMs::from_secs(100)), 5);
        let r = execute(
            &p,
            &q,
            AggregateFunction::Sum,
            &ShrinkConfig::default(),
            ts(1_000),
        );
        assert!(r.is_empty());

        let p = profile(&[(1_000, 1, 1)]);
        let q = ProfileQuery {
            range: TimeRange::Absolute {
                start: ts(500),
                end: ts(500),
            },
            ..top_k_query(TimeRange::last_days(1), 5)
        };
        let r = execute(
            &p,
            &q,
            AggregateFunction::Sum,
            &ShrinkConfig::default(),
            ts(2_000),
        );
        assert!(r.is_empty());
    }

    #[test]
    fn last_aggregate_takes_newest_slice_value() {
        // Bidding-price pattern: Last across slices keeps the newest value.
        let p = profile(&[(1_000, 1, 500), (9_000, 1, 300)]);
        let q = top_k_query(TimeRange::last(DurationMs::from_secs(100)), 1);
        let r = execute(
            &p,
            &q,
            AggregateFunction::Last,
            &ShrinkConfig::default(),
            ts(10_000),
        );
        assert_eq!(r.entries[0].counts.as_slice(), &[300]);
    }

    #[test]
    fn deterministic_tie_break_on_feature_id() {
        let p = profile(&[(1_000, 5, 1), (1_000, 3, 1), (1_000, 8, 1)]);
        let q = top_k_query(TimeRange::last(DurationMs::from_secs(100)), 2);
        let r = execute(
            &p,
            &q,
            AggregateFunction::Sum,
            &ShrinkConfig::default(),
            ts(2_000),
        );
        // Equal counts: higher fid wins the tie deterministically.
        assert_eq!(r.feature_ids(), vec![FeatureId::new(8), FeatureId::new(5)]);
    }
}
