//! Query execution over one profile.
//!
//! `execute` implements the two-step plan from §II-B: locate the slices in
//! the resolved window, then fold all feature counts under the requested
//! slot (optionally one action type) with the table's aggregate function
//! and the query's decay function (`merge`), and finally top-K or
//! filter the folded features.

use ips_types::config::DecayFunction;
use ips_types::{AggregateFunction, ShrinkConfig, SlotId, SortKey, SortOrder, Timestamp};

use crate::model::ProfileData;

use super::merge::WindowFold;
use super::request::{FeatureEntry, ProfileQuery, QueryKind, QueryResult};
use super::topk::top_k_by;

/// Merge all features in `profile` under `slot` (and optionally one action
/// type) across slices overlapping `[lo, hi)`, in feature-id order.
///
/// Decay is applied *per slice* before aggregation: counts from a slice aged
/// `now - slice_end` are scaled by the decay curve at that age, which is what
/// makes `get_profile_decay` favour recent slices (§II-B).
///
/// Returns `(merged features, slices_visited)`.
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
) -> (impl Iterator<Item = FeatureEntry>, usize) {
    let window = &profile.slices()[profile.slices_in_window(lo, hi)];
    let fold = WindowFold::new(window, slot, action, agg, decay, decay_base, now);
    let order = fold.table.by_fid(0..fold.len());
    (order.into_iter().map(move |i| fold.entry(i)), window.len())
}

/// Feature `i`'s rank under `sort` as one integer, greater first. Flipping
/// the sign bit orders an `i64` as a `u64`; a float's bits order the same
/// way once a negative float has every bit flipped. A score of -0 ranks as
/// 0, and so does NaN, which has no order of its own.
fn rank(fold: &WindowFold, i: usize, sort: SortKey, weights: &ShrinkConfig) -> u64 {
    const SIGN: u64 = 1 << 63;
    let score = match sort {
        SortKey::Attribute(idx) => return fold.counts(i).get(idx).map_or(0, |&v| v) as u64 ^ SIGN,
        SortKey::Timestamp => return fold.seen(i).1.as_millis(),
        SortKey::FeatureId => return fold.seen(i).0.raw(),
        SortKey::WeightedScore => weights.score(fold.counts(i)),
    };
    let bits = (if score.is_nan() { 0.0 } else { score + 0.0 }).to_bits();
    if bits & SIGN == 0 {
        bits ^ SIGN
    } else {
        !bits
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
    let range = query.range.resolve(now, profile.last_action_hint());
    if range.is_empty() {
        return QueryResult::default();
    }
    let window = &profile.slices()[profile.slices_in_window(range.start, range.end)];
    let fold = WindowFold::new(
        window,
        query.slot,
        query.action,
        agg,
        query.decay,
        query.decay_factor,
        now,
    );
    let entries = match &query.kind {
        QueryKind::TopK { k, sort, order } | QueryKind::Decay { k, sort, order } => {
            let flip = if *order == SortOrder::Ascending {
                !0
            } else {
                0
            };
            let ranked = (0..fold.len()).map(|i| {
                let key = rank(&fold, i, *sort, weights) ^ flip;
                (key, fold.seen(i).0, i)
            });
            let top = top_k_by(ranked, *k, Ord::cmp);
            top.into_iter().map(|(_, _, i)| fold.entry(i)).collect()
        }
        QueryKind::Filter { predicate } => {
            let passes = |e: FeatureEntry| predicate.accepts(e.feature, &e.counts);
            let kept = (0..fold.len()).filter(|&i| passes(fold.entry(i)));
            let kept = fold.table.by_fid(kept);
            kept.into_iter().map(|i| fold.entry(i)).collect()
        }
    };
    QueryResult {
        entries,
        slices_visited: window.len(),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::request::FilterPredicate;
    use ips_types::{
        ActionTypeId, CountVector, DurationMs, FeatureId, ProfileId, TableId, TimeRange,
    };

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
