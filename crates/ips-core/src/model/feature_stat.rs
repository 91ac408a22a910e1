//! *Indexed Feature Stat*: per-action-type feature statistics.
//!
//! The innermost level of the in-memory hierarchy (Fig 6). A stat owns no
//! memory: it is a borrowed view of one run of its [`Slice`]'s columns,
//! `fids` (the paper's sorted `fid_index`, so ordered merges read it
//! directly) and the rows of `counts` beside them. A row holds the stat's
//! `width` attributes; a longer vector widens every row of the stat with
//! zeros, which is how `CountVector::get_or_zero` reads a short one.
//!
//! [`Slice`]: super::Slice

use std::ops::Deref;

use ips_types::FeatureId;

/// One feature's counts: a `width`-long row of a stat.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CountRow<'a>(pub(super) &'a [i64]);

impl<'a> CountRow<'a> {
    #[must_use]
    pub fn as_slice(self) -> &'a [i64] {
        self.0
    }

    /// Attribute at `idx`, or 0 past the row's width.
    #[must_use]
    pub fn get_or_zero(self, idx: usize) -> i64 {
        self.0.get(idx).copied().unwrap_or(0)
    }
}

impl AsRef<[i64]> for CountRow<'_> {
    fn as_ref(&self) -> &[i64] {
        self.0
    }
}

impl Deref for CountRow<'_> {
    type Target = [i64];
    fn deref(&self) -> &[i64] {
        self.0
    }
}

/// Feature id → counts for one `(slot, action type)` of a slice, as
/// id-sorted parallel columns.
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexedFeatureStat<'a> {
    /// Strictly ascending feature ids: the paper's `fid_index`.
    pub(crate) fids: &'a [FeatureId],
    /// Row `i` starts at `counts[i * stride]`.
    pub(super) counts: &'a [i64],
    pub(super) stride: usize,
    pub(super) width: usize,
}

impl<'a> IndexedFeatureStat<'a> {
    /// Number of distinct features.
    #[must_use]
    pub fn len(self) -> usize {
        self.fids.len()
    }

    #[must_use]
    pub fn is_empty(self) -> bool {
        self.fids.is_empty()
    }

    /// Attributes per row: the widest count vector the stat has recorded.
    #[must_use]
    pub fn width(self) -> usize {
        self.width
    }

    /// The counts of the `i`-th feature in id order.
    pub(crate) fn row(self, i: usize) -> CountRow<'a> {
        CountRow(&self.counts[i * self.stride..][..self.width])
    }

    /// The counts of one feature.
    #[must_use]
    pub fn get(self, fid: FeatureId) -> Option<CountRow<'a>> {
        self.fids.binary_search(&fid).ok().map(|i| self.row(i))
    }

    /// Iterate `(feature, counts)` in ascending feature-id order.
    pub fn iter(self) -> impl Iterator<Item = (FeatureId, CountRow<'a>)> {
        (0..self.len()).map(move |i| (self.fids[i], self.row(i)))
    }
}

/// Stats are equal when they hold the same rows at the same width, however
/// their slices lay the rows out.
impl PartialEq for IndexedFeatureStat<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use ips_types::{ActionTypeId, AggregateFunction, CountVector, SlotId, Timestamp};

    use super::*;
    use crate::model::Slice;

    fn fid(n: u64) -> FeatureId {
        FeatureId::new(n)
    }

    fn slice() -> Slice {
        Slice::new(Timestamp::ZERO, Timestamp::from_millis(10))
    }

    fn upsert(s: &mut Slice, f: u64, row: &[i64], agg: AggregateFunction) {
        let counts = CountVector::from_slice(row);
        s.add(SlotId::new(1), ActionTypeId::new(1), fid(f), &counts, agg);
    }

    fn stat(s: &Slice) -> IndexedFeatureStat<'_> {
        s.slot(SlotId::new(1))
            .and_then(|set| set.get(ActionTypeId::new(1)))
            .unwrap()
    }

    #[test]
    fn upsert_inserts_then_aggregates() {
        let mut s = slice();
        upsert(&mut s, 1, &[2], AggregateFunction::Sum);
        upsert(&mut s, 1, &[3], AggregateFunction::Sum);
        assert_eq!(stat(&s).get(fid(1)).unwrap().as_slice(), &[5]);
        assert_eq!(stat(&s).len(), 1);
    }

    #[test]
    fn upsert_respects_aggregate_function() {
        let mut s = slice();
        for v in [2, 9, 4] {
            upsert(&mut s, 1, &[v], AggregateFunction::Max);
        }
        assert_eq!(stat(&s).get(fid(1)).unwrap().as_slice(), &[9]);

        let mut s = slice();
        upsert(&mut s, 1, &[2], AggregateFunction::Last);
        upsert(&mut s, 1, &[7], AggregateFunction::Last);
        assert_eq!(stat(&s).get(fid(1)).unwrap().as_slice(), &[7]);
    }

    fn fids(s: &Slice) -> Vec<u64> {
        stat(s).iter().map(|(f, _)| f.raw()).collect()
    }

    #[test]
    fn sorted_index_tracks_mutations() {
        let mut s = slice();
        for n in [5u64, 1, 9, 3] {
            upsert(&mut s, n, &[1], AggregateFunction::Sum);
        }
        assert_eq!(fids(&s), [1, 3, 5, 9]);
        s.retain(|_, f, _| f != fid(3));
        assert_eq!(fids(&s), [1, 5, 9]);
        upsert(&mut s, 2, &[1], AggregateFunction::Sum);
        assert_eq!(fids(&s), [1, 2, 5, 9]);
    }

    #[test]
    fn wider_vector_pads_existing_rows_with_zeros() {
        let mut s = slice();
        upsert(&mut s, 1, &[4], AggregateFunction::Sum);
        upsert(&mut s, 2, &[1, 2, 3], AggregateFunction::Sum);
        upsert(&mut s, 1, &[1, 1], AggregateFunction::Sum);
        assert_eq!(stat(&s).get(fid(1)).unwrap().as_slice(), &[5, 1, 0]);
        assert_eq!(stat(&s).get(fid(2)).unwrap().as_slice(), &[1, 2, 3]);
        assert_eq!(stat(&s).get(fid(2)).unwrap().get_or_zero(7), 0);
    }

    #[test]
    fn out_of_order_pushes_sort_once_and_sum_duplicates() {
        // A compaction merge hands the sort its slices' rows one slice after
        // another: out of order across slices, with a key in both.
        let (mut newer, mut older) = (slice(), slice());
        upsert(&mut newer, 9, &[1], AggregateFunction::Sum);
        upsert(&mut newer, 3, &[2], AggregateFunction::Sum);
        upsert(&mut older, 9, &[4], AggregateFunction::Sum);
        upsert(&mut older, 1, &[8], AggregateFunction::Sum);
        let s = Slice::merge(&[&newer, &older], AggregateFunction::Sum);
        let rows: Vec<_> = stat(&s).iter().map(|(f, c)| (f.raw(), c[0])).collect();
        assert_eq!(rows, vec![(1, 8), (3, 2), (9, 5)]);
    }

    #[test]
    fn retain_filters() {
        let mut s = slice();
        for n in 0..10i64 {
            upsert(&mut s, n as u64, &[n, -n], AggregateFunction::Sum);
        }
        assert_eq!(s.retain(|_, _, c| c.get_or_zero(0) >= 5), 5);
        let st = stat(&s);
        assert_eq!(st.len(), 5);
        assert!(st.get(fid(4)).is_none());
        assert_eq!(st.get(fid(5)).unwrap().as_slice(), &[5, -5]);
        assert_eq!(st.get(fid(9)).unwrap().as_slice(), &[9, -9]);
    }

    #[test]
    fn merge_from_combines() {
        let (mut a, mut b) = (slice(), slice());
        upsert(&mut a, 1, &[1], AggregateFunction::Sum);
        upsert(&mut a, 4, &[1], AggregateFunction::Sum);
        upsert(&mut b, 1, &[2], AggregateFunction::Sum);
        upsert(&mut b, 2, &[5, 6], AggregateFunction::Sum);
        a.absorb(&b, AggregateFunction::Sum);
        assert_eq!(fids(&a), [1, 2, 4]);
        assert_eq!(stat(&a).get(fid(1)).unwrap().as_slice(), &[3, 0]);
        assert_eq!(stat(&a).get(fid(2)).unwrap().as_slice(), &[5, 6]);
        assert_eq!(stat(&a).get(fid(4)).unwrap().as_slice(), &[1, 0]);
    }

    #[test]
    fn approx_bytes_grows_with_features() {
        let mut s = slice();
        let empty = s.approx_bytes();
        for n in 0..100u64 {
            upsert(&mut s, n, &[1, 2], AggregateFunction::Sum);
        }
        assert!(s.approx_bytes() >= empty + 100 * 24);
    }
}
