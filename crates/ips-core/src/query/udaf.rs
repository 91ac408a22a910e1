//! User-defined aggregate functions (the paper's contribution bullet:
//! "complex feature computations such as multi-dimensional top K query and
//! **user defined aggregate functions** over arbitrary time windows").
//!
//! The built-in [`ips_types::AggregateFunction`] enum covers SUM/MAX/MIN/
//! LAST — the pre-configured reduce functions. A UDAF goes further: it
//! observes every `(feature, counts, slice_age)` contribution inside the
//! resolved window, keeps arbitrary per-feature state, and produces a final
//! per-feature value the caller ranks or consumes directly. Think "CTR with
//! additive smoothing", "distinct active days", "session-weighted score" —
//! computations a fixed enum can't express.
//!
//! UDAFs run inside the instance, next to the data, like everything else in
//! IPS: the upstream ships the computation, not the data.

use std::cmp::Ordering;

use ips_types::{ActionTypeId, DurationMs, FeatureId, SlotId, Timestamp};

use crate::model::{CountRow, ProfileData};
use crate::query::merge::{runs, FidTable};
use crate::query::topk::top_k_by;

/// One contribution delivered to a UDAF: a feature's counts inside one
/// slice, with the slice's position in time.
#[derive(Clone, Debug)]
pub struct Contribution<'a> {
    pub feature: FeatureId,
    pub action: ActionTypeId,
    pub counts: CountRow<'a>,
    /// Age of the contribution's slice (from its end) relative to `now`.
    pub age: DurationMs,
    /// The slice's end timestamp.
    pub slice_end: Timestamp,
}

/// A user-defined aggregate over the features of one slot/window.
///
/// The engine drives it per feature: `init` once for a feature's first
/// contribution, `fold` for every contribution (newest slice first), and
/// `finish` to produce the feature's final value.
pub trait UserDefinedAggregate {
    /// Per-feature accumulator state.
    type State;
    /// Final per-feature value; must be totally orderable for ranking.
    type Output;

    /// Fresh state for a feature's first contribution.
    fn init(&self) -> Self::State;
    /// Fold one contribution into the state. Contributions arrive newest
    /// slice first.
    fn fold(&self, state: &mut Self::State, contribution: &Contribution<'_>);
    /// Produce the final value.
    fn finish(&self, state: Self::State) -> Self::Output;
}

/// Execute a UDAF over `profile`'s `slot` within `[lo, hi)`, yielding every
/// feature's final value in feature-id order. Contributions fold in as the
/// window's runs are walked (newest slice first), into one state per
/// feature.
pub fn execute_udaf<'a, U: UserDefinedAggregate>(
    profile: &'a ProfileData,
    slot: SlotId,
    action: Option<ActionTypeId>,
    lo: Timestamp,
    hi: Timestamp,
    now: Timestamp,
    udaf: &'a U,
) -> impl Iterator<Item = (FeatureId, U::Output)> + 'a {
    let window = &profile.slices()[profile.slices_in_window(lo, hi)];
    let runs = runs(window, slot, action);
    let mut table = FidTable::with_rows(runs.iter().map(|(_, _, stat)| stat.len()).sum());
    for (slice, action, stat) in runs {
        let (slice_end, age) = (slice.end(), now.distance(slice.end().min(now)));
        for (feature, counts) in stat.iter() {
            let (i, _) = table.insert(feature, || udaf.init());
            let contribution = Contribution {
                feature,
                action,
                counts,
                age,
                slice_end,
            };
            udaf.fold(&mut table.entries[i].1, &contribution);
        }
    }
    let mut folded = table.entries;
    folded.sort_unstable_by_key(|(feature, _)| *feature);
    folded
        .into_iter()
        .map(|(feature, state)| (feature, udaf.finish(state)))
}

/// Execute a UDAF and return the top `k` features by its output, descending,
/// with feature id as the deterministic tie-break.
#[allow(clippy::too_many_arguments, reason = "one query's window and top-k")]
pub fn execute_udaf_top_k<U>(
    profile: &ProfileData,
    slot: SlotId,
    action: Option<ActionTypeId>,
    lo: Timestamp,
    hi: Timestamp,
    now: Timestamp,
    udaf: &U,
    k: usize,
) -> Vec<(FeatureId, U::Output)>
where
    U: UserDefinedAggregate,
    U::Output: PartialOrd,
{
    let all = execute_udaf(profile, slot, action, lo, hi, now, udaf);
    top_k_by(all, k, |a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    })
}

// ---- ready-made UDAFs ---------------------------------------------------

/// Smoothed click-through rate: `(clicks + α) / (impressions + β)`.
/// The additive smoothing keeps low-volume features from dominating on one
/// lucky click — the standard production CTR feature.
pub struct SmoothedCtr {
    pub click_attr: usize,
    pub impression_attr: usize,
    pub alpha: f64,
    pub beta: f64,
}

impl UserDefinedAggregate for SmoothedCtr {
    type State = (i64, i64);
    type Output = f64;

    fn init(&self) -> Self::State {
        (0, 0)
    }

    fn fold(&self, state: &mut Self::State, c: &Contribution<'_>) {
        state.0 += c.counts.get_or_zero(self.click_attr);
        state.1 += c.counts.get_or_zero(self.impression_attr);
    }

    fn finish(&self, (clicks, imps): Self::State) -> f64 {
        (clicks as f64 + self.alpha) / (imps as f64 + self.beta)
    }
}

/// Number of distinct days on which the feature was observed — an
/// "engagement breadth" signal no fixed reduce function expresses.
pub struct DistinctActiveDays;

impl UserDefinedAggregate for DistinctActiveDays {
    type State = std::collections::HashSet<u64>;
    type Output = usize;

    fn init(&self) -> Self::State {
        std::collections::HashSet::new()
    }

    fn fold(&self, state: &mut Self::State, c: &Contribution<'_>) {
        state.insert(c.slice_end.as_millis() / 86_400_000);
    }

    fn finish(&self, state: Self::State) -> usize {
        state.len()
    }
}

/// Recency-weighted score: each contribution's attribute is scaled by
/// `half_life`-exponential decay of its slice age, summed. Unlike the
/// built-in decay query, the weighting here is part of the aggregate and
/// can be combined with any other per-feature state.
pub struct RecencyWeighted {
    pub attr: usize,
    pub half_life: DurationMs,
}

impl UserDefinedAggregate for RecencyWeighted {
    type State = f64;
    type Output = f64;

    fn init(&self) -> Self::State {
        0.0
    }

    fn fold(&self, state: &mut Self::State, c: &Contribution<'_>) {
        let halves = c.age.as_millis() as f64 / self.half_life.as_millis().max(1) as f64;
        *state += c.counts.get_or_zero(self.attr) as f64 * 0.5f64.powf(halves);
    }

    fn finish(&self, state: Self::State) -> f64 {
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_types::{AggregateFunction, CountVector};

    const SLOT: SlotId = SlotId(1);
    const LIKE: ActionTypeId = ActionTypeId(1);

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_millis(t)
    }

    fn add(p: &mut ProfileData, at: u64, fid: u64, counts: &[i64]) {
        p.add(
            ts(at),
            SLOT,
            LIKE,
            FeatureId::new(fid),
            &CountVector::from_slice(counts),
            AggregateFunction::Sum,
            DurationMs::from_secs(1),
        );
    }

    #[test]
    fn smoothed_ctr_ranks_by_rate_not_volume() {
        let mut p = ProfileData::new();
        // fid 1: 1 click / 1 impression (tiny volume, raw CTR 1.0).
        add(&mut p, 1_000, 1, &[1, 1]);
        // fid 2: 50 clicks / 100 impressions (real signal).
        add(&mut p, 1_000, 2, &[50, 100]);
        let udaf = SmoothedCtr {
            click_attr: 0,
            impression_attr: 1,
            alpha: 1.0,
            beta: 20.0,
        };
        let top = execute_udaf_top_k(
            &p,
            SLOT,
            None,
            Timestamp::ZERO,
            ts(1_000_000),
            ts(1_000_000),
            &udaf,
            2,
        );
        // Smoothing: fid1 = 2/21 ≈ 0.095; fid2 = 51/120 ≈ 0.425.
        assert_eq!(
            top[0].0,
            FeatureId::new(2),
            "smoothing demotes the lucky one-off"
        );
        assert!((top[0].1 - 51.0 / 120.0).abs() < 1e-9);
        assert!((top[1].1 - 2.0 / 21.0).abs() < 1e-9);
    }

    #[test]
    fn distinct_active_days_counts_days_not_events() {
        let mut p = ProfileData::new();
        let day = 86_400_000u64;
        // fid 1: 10 events all on one day; fid 2: 3 events on 3 days.
        for i in 0..10 {
            add(&mut p, day + i * 1_000, 1, &[1]);
        }
        for d in 0..3u64 {
            add(&mut p, day * (2 + d), 2, &[1]);
        }
        let out: Vec<_> = execute_udaf(
            &p,
            SLOT,
            None,
            Timestamp::ZERO,
            ts(day * 30),
            ts(day * 30),
            &DistinctActiveDays,
        )
        .collect();
        let get = |fid: u64| {
            out.iter()
                .find(|(f, _)| *f == FeatureId::new(fid))
                .unwrap()
                .1
        };
        assert_eq!(get(1), 1);
        assert_eq!(get(2), 3);
    }

    #[test]
    fn recency_weighting_decays_by_age() {
        let mut p = ProfileData::new();
        let now = 10 * 86_400_000u64;
        // fid 1: 8 likes, 3 half-lives old. fid 2: 2 likes, fresh.
        add(&mut p, now - 3 * 86_400_000, 1, &[8]);
        add(&mut p, now - 1_000, 2, &[2]);
        let udaf = RecencyWeighted {
            attr: 0,
            half_life: DurationMs::from_days(1),
        };
        let top = execute_udaf_top_k(&p, SLOT, None, Timestamp::ZERO, ts(now), ts(now), &udaf, 2);
        // fid1 ≈ 8 * 0.5^3 = 1.0 < fid2 ≈ 2.0.
        assert_eq!(top[0].0, FeatureId::new(2));
        assert!(top[0].1 > top[1].1);
    }

    #[test]
    fn window_bounds_respected() {
        let mut p = ProfileData::new();
        add(&mut p, 1_000, 1, &[5]);
        add(&mut p, 100_000, 2, &[5]);
        let out: Vec<_> = execute_udaf(
            &p,
            SLOT,
            None,
            ts(50_000),
            ts(200_000),
            ts(200_000),
            &DistinctActiveDays,
        )
        .collect();
        assert_eq!(out.len(), 1, "only the in-window feature contributes");
        assert_eq!(out[0].0, FeatureId::new(2));
    }

    #[test]
    fn action_narrowing() {
        let mut p = ProfileData::new();
        add(&mut p, 1_000, 1, &[5]);
        p.add(
            ts(1_000),
            SLOT,
            ActionTypeId::new(2),
            FeatureId::new(2),
            &CountVector::single(5),
            AggregateFunction::Sum,
            DurationMs::from_secs(1),
        );
        let out: Vec<_> = execute_udaf(
            &p,
            SLOT,
            Some(LIKE),
            Timestamp::ZERO,
            ts(1_000_000),
            ts(1_000_000),
            &DistinctActiveDays,
        )
        .collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, FeatureId::new(1));
    }

    #[test]
    fn empty_window_is_empty() {
        let p = ProfileData::new();
        let out: Vec<_> = execute_udaf(
            &p,
            SLOT,
            None,
            Timestamp::ZERO,
            ts(1),
            ts(1),
            &DistinctActiveDays,
        )
        .collect();
        assert!(out.is_empty());
    }

    #[test]
    fn closure_style_custom_udaf() {
        // A one-off UDAF: max single-slice burst of likes.
        struct MaxBurst;
        impl UserDefinedAggregate for MaxBurst {
            type State = i64;
            type Output = i64;
            fn init(&self) -> i64 {
                0
            }
            fn fold(&self, state: &mut i64, c: &Contribution<'_>) {
                *state = (*state).max(c.counts.get_or_zero(0));
            }
            fn finish(&self, state: i64) -> i64 {
                state
            }
        }
        let mut p = ProfileData::new();
        add(&mut p, 1_000, 1, &[3]);
        add(&mut p, 5_000, 1, &[9]);
        add(&mut p, 9_000, 1, &[4]);
        let out: Vec<_> = execute_udaf(
            &p,
            SLOT,
            None,
            Timestamp::ZERO,
            ts(1_000_000),
            ts(1_000_000),
            &MaxBurst,
        )
        .collect();
        assert_eq!(out[0].1, 9);
    }
}
