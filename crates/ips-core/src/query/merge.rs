//! The multi-way merge and aggregation of §II-B that every read runs, as
//! one fold. The fold walks the window's runs, one per `(slice, action
//! type)` stat of the slot, in [`runs`] order and folds every row into its
//! feature's entry of a [`FidTable`]. A feature's first row is its newest:
//! it seeds the counts and `last_seen`, and later rows fold in as the older
//! side, the order `Last`, `last_seen` and UDAF folds rely on. The table
//! and the accumulators are sized once from the window's row count, so a
//! query allocates the same few buffers however many rows or features it
//! folds.

use ips_types::config::{decay_factor, DecayFunction};
use ips_types::{
    scale_counts, ActionTypeId, AggregateFunction, CountVector, FeatureId, SlotId, Timestamp,
    MAX_ATTRIBUTES,
};

use super::request::FeatureEntry;
use crate::model::{IndexedFeatureStat, InstanceSet, Slice};

/// Every run of `slot` (only `action`'s, when given) in `slices`, in fold
/// order: newest slice first, then ascending action type.
pub(crate) fn runs(
    slices: &[Slice],
    slot: SlotId,
    action: Option<ActionTypeId>,
) -> Vec<(&Slice, ActionTypeId, IndexedFeatureStat<'_>)> {
    let mut runs = Vec::with_capacity(slices.len());
    for slice in slices {
        for (a, stat) in slice.slot(slot).into_iter().flat_map(InstanceSet::iter) {
            if action.is_none_or(|want| want == a) {
                runs.push((slice, a, stat));
            }
        }
    }
    runs
}

/// `len` zeros. `vec![0; len]` would ask for zeroed memory (`calloc`), which
/// glibc serves without its per-thread cache: at a query's buffer sizes an
/// allocation and a fill measured cheaper.
fn zeroed<T: Copy + Default>(len: usize) -> Vec<T> {
    let mut zeros = Vec::with_capacity(len);
    zeros.resize(len, T::default());
    zeros
}

/// Feature id → dense index in first-seen order, each id with a value:
/// open addressing with Fibonacci hashing and linear probing, sized once
/// for at most `rows` distinct ids, so it never grows and stays at most
/// half full.
pub(crate) struct FidTable<T> {
    /// A dense index plus one per slot; 0 marks an empty slot.
    slots: Vec<u32>,
    /// Every id inserted and its value, by dense index.
    pub(crate) entries: Vec<(FeatureId, T)>,
    shift: u32,
}

impl<T> FidTable<T> {
    pub(crate) fn with_rows(rows: usize) -> Self {
        let len = (rows.max(1) * 2).next_power_of_two();
        let (slots, entries) = (zeroed(len), Vec::with_capacity(rows));
        let shift = 64 - len.trailing_zeros();
        Self {
            slots,
            entries,
            shift,
        }
    }

    /// `fid`'s dense index, or the empty slot it would take.
    fn probe(&self, fid: FeatureId) -> Result<usize, usize> {
        let mut at = (fid.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            match self.slots[at] as usize {
                0 => return Err(at),
                i if self.entries[i - 1].0 == fid => return Ok(i - 1),
                _ => at = (at + 1) & (self.slots.len() - 1),
            }
        }
    }

    pub(crate) fn get(&self, fid: FeatureId) -> Option<&T> {
        self.probe(fid).ok().map(|i| &self.entries[i].1)
    }

    /// `fid`'s dense index, inserted with `init()` when new, and whether it
    /// was new.
    pub(crate) fn insert(&mut self, fid: FeatureId, init: impl FnOnce() -> T) -> (usize, bool) {
        let at = match self.probe(fid) {
            Ok(i) => return (i, false),
            Err(at) => at,
        };
        self.entries.push((fid, init()));
        self.slots[at] = self.entries.len() as u32;
        (self.entries.len() - 1, true)
    }

    /// `indices` in feature-id order. Sorting their bare ids and looking
    /// each one up again beats sorting the indices by id.
    pub(crate) fn by_fid(&self, indices: impl Iterator<Item = usize>) -> Vec<usize> {
        let mut fids: Vec<FeatureId> = indices.map(|i| self.entries[i].0).collect();
        fids.sort_unstable();
        let mut order = Vec::with_capacity(fids.len());
        order.extend(fids.iter().filter_map(|&fid| self.probe(fid).ok()));
        order
    }
}

/// A slot's features over a window, each one's rows folded with the
/// table's aggregate function into a flat accumulator.
pub(crate) struct WindowFold {
    /// Each feature's newest slice end (its `last_seen`) and its width so
    /// far.
    pub(crate) table: FidTable<(Timestamp, u8)>,
    /// Attributes per accumulator: the width of the window's widest stat.
    stride: usize,
    /// Feature `i`'s counts are `acc[i * stride..]`, its width long; the
    /// rest of its stride stays zero. Sized for every row to be new.
    acc: Vec<i64>,
}

impl WindowFold {
    /// Fold `slot`'s rows (only `action`'s, when given) over `window`.
    /// Decay scales each row by its slice's factor before it folds in.
    pub(crate) fn new(
        window: &[Slice],
        slot: SlotId,
        action: Option<ActionTypeId>,
        agg: AggregateFunction,
        decay: DecayFunction,
        decay_base: f64,
        now: Timestamp,
    ) -> Self {
        let runs = runs(window, slot, action);
        let rows = runs.iter().map(|(_, _, stat)| stat.len()).sum();
        let stride = runs.iter().map(|(_, _, stat)| stat.width()).max();
        let stride = stride.unwrap_or(0);
        let (table, acc) = (FidTable::with_rows(rows), zeroed(rows * stride));
        let mut fold = Self { table, stride, acc };
        // The factor of the last slice seen, keyed by its end: a slice's
        // runs are adjacent. Without decay it stays 1.
        let (mut factor, mut buf) = ((None, 1.0), [0; MAX_ATTRIBUTES]);
        for (slice, _, stat) in runs {
            if decay != DecayFunction::None && factor.0 != Some(slice.end()) {
                let age = now.distance(slice.end().min(now));
                factor = (Some(slice.end()), decay_factor(decay, decay_base, age));
            }
            for (fid, row) in stat.iter() {
                // A factor of 1 leaves the row as it is, which keeps it exact.
                if (factor.1 - 1.0_f64).abs() <= f64::EPSILON {
                    fold.add(fid, &row, slice.end(), agg);
                    continue;
                }
                let scaled = &mut buf[..row.len()];
                scaled.copy_from_slice(&row);
                scale_counts(scaled, factor.1);
                fold.add(fid, scaled, slice.end(), agg);
            }
        }
        fold
    }

    /// Fold one row of `fid` from a slice ending at `end`.
    fn add(&mut self, fid: FeatureId, row: &[i64], end: Timestamp, agg: AggregateFunction) {
        let (i, new) = self.table.insert(fid, || (end, row.len() as u8));
        let acc = &mut self.acc[i * self.stride..][..row.len()];
        let width = &mut self.table.entries[i].1 .1;
        match agg {
            _ if new => acc.copy_from_slice(row),
            // The newest row, which seeded the entry, stands.
            AggregateFunction::Last => {}
            // Past the width so far an accumulator is unconstrained, not 0.
            AggregateFunction::Min => {
                let shared = usize::from(*width).min(row.len());
                agg.fold_row(&mut acc[..shared], row, false);
                acc[shared..].copy_from_slice(&row[shared..]);
            }
            _ => agg.fold_row(acc, row, false),
        }
        if agg != AggregateFunction::Last {
            *width = (*width).max(row.len() as u8);
        }
    }

    /// Number of distinct features folded.
    pub(crate) fn len(&self) -> usize {
        self.table.entries.len()
    }

    /// Feature `i`'s counts.
    pub(crate) fn counts(&self, i: usize) -> &[i64] {
        let width = self.table.entries[i].1 .1;
        &self.acc[i * self.stride..][..usize::from(width)]
    }

    /// Feature `i`'s id and the end of its newest slice.
    pub(crate) fn seen(&self, i: usize) -> (FeatureId, Timestamp) {
        let (fid, (last_seen, _)) = self.table.entries[i];
        (fid, last_seen)
    }

    /// Feature `i` as a query result entry.
    pub(crate) fn entry(&self, i: usize) -> FeatureEntry {
        let (feature, last_seen) = self.seen(i);
        let counts = CountVector::from_slice(self.counts(i));
        FeatureEntry {
            feature,
            counts,
            last_seen,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;

    use proptest::prelude::*;

    use ips_types::config::{decay_factor, DecayFunction};
    use ips_types::{DurationMs, ProfileId, ShrinkConfig, SortKey, SortOrder, TableId, TimeRange};

    use super::*;
    use crate::model::ProfileData;
    use crate::query::engine::{execute, merged_features};
    use crate::query::request::{FilterPredicate, ProfileQuery, QueryKind};
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

    /// The comparator the engine ranked features by before ranks became
    /// integers: greater is better, the feature id breaks ties.
    fn reference_cmp(
        sort: SortKey,
        order: SortOrder,
        weights: &ShrinkConfig,
    ) -> impl Fn(&FeatureEntry, &FeatureEntry) -> Ordering + '_ {
        move |a, b| {
            let primary = match sort {
                SortKey::Attribute(idx) => {
                    a.counts.get_or_zero(idx).cmp(&b.counts.get_or_zero(idx))
                }
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
    /// fids repeating across slices and rows of 1 to 4 attributes drawn
    /// from `counts`, so stats of one window differ in width.
    fn arb_writes(counts: std::ops::Range<i64>) -> impl Strategy<Value = Vec<ArbWrite>> {
        proptest::collection::vec(
            (
                0u64..20_000,
                0u32..2,
                0u32..3,
                0u64..40,
                proptest::collection::vec(counts, 1..5),
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
            writes in arb_writes(-50..50),
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

        /// `execute` equals the reference fold ranked by a full sort under
        /// the comparator the engine used to rank by, then truncated; or,
        /// for a filter, the reference's passing features in fid order.
        /// Counts are small, so ranks tie often.
        #[test]
        fn execute_matches_a_full_sort(
            writes in arb_writes(-2..3),
            agg in 0usize..4,
            decay in 0u8..3,
            action in 0u32..4,
            lo in 0u64..20_000,
            span in 1u64..25_000,
            kind in 0usize..9,
            ascending in any::<bool>(),
            k in 0usize..12,
            (attr, min) in (0usize..5, -3i64..4),
        ) {
            let agg = AGGS[agg];
            let p = build(&writes, agg);
            let decay = match decay {
                0 => DecayFunction::None,
                1 => DecayFunction::Exponential { half_life: DurationMs::from_secs(3) },
                _ => DecayFunction::Linear { horizon: DurationMs::from_secs(30) },
            };
            let action = (action < 3).then(|| ActionTypeId::new(action));
            let (slot, now) = (SlotId::new(1), ts(25_000));
            let order = if ascending { SortOrder::Ascending } else { SortOrder::Descending };
            let kind = match kind {
                0 => QueryKind::Filter { predicate: FilterPredicate::MinAttribute { attr, min } },
                1 => QueryKind::Filter {
                    predicate: FilterPredicate::FeatureIn((0..40).step_by(attr + 2).map(FeatureId::new).collect()),
                },
                2 => QueryKind::Filter { predicate: FilterPredicate::All },
                3 => QueryKind::TopK { k, sort: SortKey::WeightedScore, order },
                4 => QueryKind::Decay { k, sort: SortKey::Timestamp, order },
                5 => QueryKind::TopK { k, sort: SortKey::FeatureId, order },
                _ => QueryKind::TopK { k, sort: SortKey::Attribute(attr), order },
            };
            let query = ProfileQuery {
                action,
                range: TimeRange::Absolute { start: ts(lo), end: ts(lo + span) },
                kind,
                decay,
                ..ProfileQuery::top_k(TableId::new(1), ProfileId::new(1), slot, TimeRange::last_days(1), 1)
            };
            // A negative weight makes some scores -0, which ranks equal to 0.
            let weights = ShrinkConfig { weights: vec![-1.0, 0.5, 2.0], ..Default::default() };
            let got = execute(&p, &query, agg, &weights, now);

            let all = reference_features(&p, slot, action, ts(lo), ts(lo + span), agg, decay, now);
            let want: Vec<FeatureEntry> = match &query.kind {
                QueryKind::Filter { predicate } => {
                    all.into_iter().filter(|e| predicate.accepts(e.feature, &e.counts)).collect()
                }
                QueryKind::TopK { k, sort, order } | QueryKind::Decay { k, sort, order } => {
                    let better = reference_cmp(*sort, *order, &weights);
                    let mut all = all;
                    all.sort_by(|a, b| better(b, a));
                    all.truncate(*k);
                    all
                }
            };
            prop_assert_eq!(got.entries, want);
            prop_assert_eq!(got.slices_visited, p.slices_in_window(ts(lo), ts(lo + span)).len());
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
        let (slot, hi) = (SlotId::new(1), ts(10_000));
        let rows: Vec<(u64, Vec<(u32, u64)>)> =
            execute_udaf(&p, slot, None, Timestamp::ZERO, hi, hi, &Record)
                .map(|(fid, seen)| {
                    let runs = seen.iter().map(|(a, _, _, end)| (a.raw(), end.as_millis()));
                    (fid.raw(), runs.collect())
                })
                .collect();
        // The slice ending at 4 s is the newest; within a slice, actions
        // ascend.
        assert_eq!(
            rows,
            vec![
                (5, vec![(1, 4_000), (2, 2_000)]),
                (9, vec![(1, 2_000)]),
                (top, vec![(1, 2_000)]),
            ]
        );
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
