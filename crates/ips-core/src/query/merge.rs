//! The multi-way merge of §II-B that every read runs. Each `(slice, action
//! type)` stat of the queried slot in the window is a run sorted by feature
//! id. Every row's packed key is collected and sorted once, which yields
//! rows in feature-id order; rows of one feature come in run order (newest
//! slice first, then ascending action type), the order `Last`, `last_seen`
//! and UDAF folds rely on. One sort of integers beats a heap over the runs
//! when a window holds many short runs, such as a hot profile's
//! one-second head slices.

use ips_types::{ActionTypeId, FeatureId, SlotId, Timestamp};

use crate::model::{CountRow, IndexedFeatureStat, InstanceSet, ProfileData, Slice};

/// One row of the merge: a feature's counts in one run.
#[derive(Clone, Copy, Debug)]
pub struct MergedRow<'a> {
    pub feature: FeatureId,
    /// Index of the row's slice in [`WindowMerge::window`], newest first.
    pub slice: usize,
    pub action: ActionTypeId,
    pub counts: CountRow<'a>,
}

/// A k-way merge over the runs of one slot in a time window.
pub struct WindowMerge<'a> {
    window: &'a [Slice],
    /// `(slice index, action, stat)`, newest slice first.
    runs: Vec<(usize, ActionTypeId, IndexedFeatureStat<'a>)>,
    /// The [`key`] of every row, ascending.
    keys: Vec<u128>,
    /// How many of `keys` have been yielded.
    pos: usize,
}

impl<'a> WindowMerge<'a> {
    /// Merge `slot`'s stats (only `action`'s, when given) over the slices
    /// of `profile` that overlap `[lo, hi)`.
    #[must_use]
    pub fn new(
        profile: &'a ProfileData,
        slot: SlotId,
        action: Option<ActionTypeId>,
        lo: Timestamp,
        hi: Timestamp,
    ) -> Self {
        let window = &profile.slices()[profile.slices_in_window(lo, hi)];
        let mut runs = Vec::new();
        for (i, slice) in window.iter().enumerate() {
            for (a, stat) in slice.slot(slot).into_iter().flat_map(InstanceSet::iter) {
                if action.is_none() || action == Some(a) {
                    runs.push((i, a, stat));
                }
            }
        }
        let rows = runs.iter().map(|(_, _, stat)| stat.len()).sum();
        let mut keys = Vec::with_capacity(rows);
        for (run, (_, _, stat)) in runs.iter().enumerate() {
            keys.extend(
                stat.fids
                    .iter()
                    .enumerate()
                    .map(|(row, &fid)| key(fid, run, row)),
            );
        }
        keys.sort_unstable();
        Self {
            window,
            runs,
            keys,
            pos: 0,
        }
    }

    /// Every slice overlapping the window, newest first.
    #[must_use]
    pub fn window(&self) -> &'a [Slice] {
        self.window
    }

    /// The index into [`Self::window`] of every run's slice: the slices
    /// holding rows to merge.
    pub fn run_slices(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs.iter().map(|&(slice, _, _)| slice)
    }

    /// The next row of `feature`, or `None` once no run has one left.
    pub fn next_of(&mut self, feature: FeatureId) -> Option<MergedRow<'a>> {
        let head = *self.keys.get(self.pos)?;
        (unkey(head).0 == feature).then(|| self.next()).flatten()
    }
}

/// A key ordering rows by feature, then run (so newer runs come first on a
/// tie): `feature | run | row` packed into one integer, so the sort
/// compares one value rather than a tuple. Neither field can reach 2^32:
/// that many runs or rows would hold over 32 GiB of feature ids.
fn key(feature: FeatureId, run: usize, row: usize) -> u128 {
    (u128::from(feature.raw()) << 64) | ((run as u128) << 32) | row as u128
}

fn unkey(key: u128) -> (FeatureId, usize, usize) {
    let low = |shift: u32| (key >> shift) as u32 as usize;
    (FeatureId::new((key >> 64) as u64), low(32), low(0))
}

impl<'a> Iterator for WindowMerge<'a> {
    type Item = MergedRow<'a>;

    fn next(&mut self) -> Option<MergedRow<'a>> {
        let (feature, run, row) = unkey(*self.keys.get(self.pos)?);
        self.pos += 1;
        let (slice, action, stat) = self.runs[run];
        Some(MergedRow {
            feature,
            slice,
            action,
            counts: stat.row(row),
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;

    use proptest::prelude::*;

    use ips_types::config::{decay_factor, DecayFunction};
    use ips_types::{AggregateFunction, CountVector, DurationMs};

    use super::*;
    use crate::query::engine::merged_features;
    use crate::query::request::FeatureEntry;
    use crate::query::udaf::{execute_udaf, Contribution, UserDefinedAggregate};

    const AGGS: [AggregateFunction; 4] = [
        AggregateFunction::Sum,
        AggregateFunction::Max,
        AggregateFunction::Min,
        AggregateFunction::Last,
    ];

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_millis(t)
    }

    /// The window's `(slice, action, stat)` runs in visiting order: newest
    /// slice first, then ascending action type.
    fn runs(
        p: &ProfileData,
        slot: SlotId,
        action: Option<ActionTypeId>,
        lo: Timestamp,
        hi: Timestamp,
    ) -> impl Iterator<Item = (&Slice, ActionTypeId, IndexedFeatureStat<'_>)> {
        p.slices()[p.slices_in_window(lo, hi)]
            .iter()
            .filter_map(move |slice| Some((slice, slice.slot(slot)?)))
            .flat_map(|(slice, set)| set.iter().map(move |(a, stat)| (slice, a, stat)))
            .filter(move |(_, a, _)| action.is_none() || action == Some(*a))
    }

    /// The hash fold the merge replaced, sorted by feature id.
    #[allow(clippy::too_many_arguments, reason = "mirrors merged_features")]
    fn reference_features(
        p: &ProfileData,
        slot: SlotId,
        action: Option<ActionTypeId>,
        lo: Timestamp,
        hi: Timestamp,
        agg: AggregateFunction,
        decay: DecayFunction,
        now: Timestamp,
    ) -> Vec<FeatureEntry> {
        let mut acc: HashMap<FeatureId, FeatureEntry> = HashMap::new();
        for (slice, _, stat) in runs(p, slot, action, lo, hi) {
            let factor = match decay {
                DecayFunction::None => 1.0,
                _ => decay_factor(decay, 1.0, now.distance(slice.end().min(now))),
            };
            for (fid, row) in stat.iter() {
                let mut counts = CountVector::from_slice(&row);
                if (factor - 1.0).abs() > f64::EPSILON {
                    counts.scale(factor);
                }
                match acc.entry(fid) {
                    Entry::Occupied(mut e) => {
                        agg.apply(&mut e.get_mut().counts, counts.as_slice(), false);
                    }
                    Entry::Vacant(e) => {
                        e.insert(FeatureEntry {
                            feature: fid,
                            counts,
                            last_seen: slice.end(),
                        });
                    }
                }
            }
        }
        let mut entries: Vec<FeatureEntry> = acc.into_values().collect();
        entries.sort_by_key(|e| e.feature);
        entries
    }

    /// A UDAF that records every contribution it sees, in order.
    struct Record;

    type Seen = Vec<(ActionTypeId, Vec<i64>, DurationMs, Timestamp)>;

    impl UserDefinedAggregate for Record {
        type State = Seen;
        type Output = Seen;
        fn init(&self) -> Seen {
            Vec::new()
        }
        fn fold(&self, state: &mut Seen, c: &Contribution<'_>) {
            state.push((c.action, c.counts.to_vec(), c.age, c.slice_end));
        }
        fn finish(&self, state: Seen) -> Seen {
            state
        }
    }

    /// The per-feature hash map of UDAF states the merge replaced.
    fn reference_udaf(
        p: &ProfileData,
        slot: SlotId,
        action: Option<ActionTypeId>,
        lo: Timestamp,
        hi: Timestamp,
        now: Timestamp,
    ) -> Vec<(FeatureId, Seen)> {
        let mut states: HashMap<FeatureId, Seen> = HashMap::new();
        for (slice, a, stat) in runs(p, slot, action, lo, hi) {
            let age = now.distance(slice.end().min(now));
            for (fid, row) in stat.iter() {
                let seen = states.entry(fid).or_default();
                seen.push((a, row.to_vec(), age, slice.end()));
            }
        }
        let mut out: Vec<_> = states.into_iter().collect();
        out.sort_by_key(|(fid, _)| *fid);
        out
    }

    type ArbWrite = (u64, u32, u32, u64, Vec<i64>);

    /// Writes over ~20 one-second slices, two slots and three actions, with
    /// fids repeating across slices and rows of 1 to 4 attributes, so stats
    /// of one window differ in width.
    fn arb_writes() -> impl Strategy<Value = Vec<ArbWrite>> {
        proptest::collection::vec(
            (
                0u64..20_000,
                0u32..2,
                0u32..3,
                0u64..40,
                proptest::collection::vec(-50i64..50, 1..5),
            ),
            1..200,
        )
    }

    fn build(writes: &[ArbWrite], agg: AggregateFunction) -> ProfileData {
        let mut p = ProfileData::new();
        for (at, slot, action, fid, counts) in writes {
            p.add(
                ts(*at),
                SlotId::new(*slot),
                ActionTypeId::new(*action),
                FeatureId::new(*fid),
                &CountVector::from_slice(counts),
                agg,
                DurationMs::from_secs(1),
            );
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn merge_folds_like_a_hash_map(
            writes in arb_writes(),
            agg in 0usize..4,
            decay in 0u8..3,
            action in 0u32..4,
            lo in 0u64..20_000,
            span in 0u64..25_000,
        ) {
            let agg = AGGS[agg];
            let p = build(&writes, agg);
            let decay = match decay {
                0 => DecayFunction::None,
                1 => DecayFunction::Exponential { half_life: DurationMs::from_secs(3) },
                _ => DecayFunction::Linear { horizon: DurationMs::from_secs(30) },
            };
            // Action 3 is never written: it stands for "all actions".
            let action = (action < 3).then(|| ActionTypeId::new(action));
            let (slot, lo, hi, now) = (SlotId::new(1), ts(lo), ts(lo + span), ts(25_000));

            let (merged, visited) =
                merged_features(&p, slot, action, lo, hi, agg, decay, 1.0, now);
            let merged: Vec<FeatureEntry> = merged.collect();
            prop_assert_eq!(&merged, &reference_features(&p, slot, action, lo, hi, agg, decay, now));
            prop_assert_eq!(visited, p.slices_in_window(lo, hi).len());

            let udaf: Vec<_> = execute_udaf(&p, slot, action, lo, hi, now, &Record).collect();
            prop_assert_eq!(udaf, reference_udaf(&p, slot, action, lo, hi, now));
        }
    }

    #[test]
    fn merge_yields_fid_order_ties_newest_run_first() {
        let mut p = ProfileData::new();
        let top = u64::MAX;
        for (at, action, fid) in [(1_000, 2, 5), (1_000, 1, top), (1_000, 1, 9), (3_000, 1, 5)] {
            p.add(
                ts(at),
                SlotId::new(1),
                ActionTypeId::new(action),
                FeatureId::new(fid),
                &CountVector::single(1),
                AggregateFunction::Sum,
                DurationMs::from_secs(1),
            );
        }
        let rows: Vec<(u64, usize, u32)> =
            WindowMerge::new(&p, SlotId::new(1), None, Timestamp::ZERO, ts(10_000))
                .map(|r| (r.feature.raw(), r.slice, r.action.raw()))
                .collect();
        // Slice 0 is the newest (t = 3 s); within a slice, actions ascend.
        assert_eq!(rows, vec![(5, 0, 1), (5, 1, 2), (9, 1, 1), (top, 1, 1)]);
    }

    #[test]
    fn min_over_mixed_widths() {
        // Rows of one stat share its width, zero-padded; stats of different
        // slices keep their own widths.
        let mut p = ProfileData::new();
        let mut add = |at: u64, fid: u64, counts: &[i64]| {
            p.add(
                ts(at),
                SlotId::new(1),
                ActionTypeId::new(1),
                FeatureId::new(fid),
                &CountVector::from_slice(counts),
                AggregateFunction::Min,
                DurationMs::from_secs(1),
            );
        };
        add(1_000, 1, &[3, 7]); // older slice, width 2
        add(5_000, 1, &[5]); // newer slice, fid 1 alone: width 1
        add(9_000, 2, &[4]); // newest slice: fid 2 at width 1 ...
        add(9_000, 3, &[6, 8]); // ... widened to 2 by fid 3
        add(1_000, 2, &[9, 9]);
        let (merged, _) = merged_features(
            &p,
            SlotId::new(1),
            None,
            Timestamp::ZERO,
            ts(10_000),
            AggregateFunction::Min,
            DecayFunction::None,
            1.0,
            ts(10_000),
        );
        let counts: Vec<Vec<i64>> = merged.map(|e| e.counts.as_slice().to_vec()).collect();
        // fid 1: a width-1 stat leaves attribute 1 unconstrained, so the
        // older 7 stands. fid 2: padded to [4, 0] in a width-2 stat, so the
        // missing attribute reads as 0 and wins the minimum.
        assert_eq!(counts, vec![vec![3, 7], vec![4, 0], vec![6, 8]]);
    }
}
