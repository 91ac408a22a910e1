//! *Indexed Feature Stat*: per-action-type feature statistics.
//!
//! The innermost level of the in-memory hierarchy (Fig 6): two parallel
//! columns sorted by feature id. `fids` *is* the paper's `fid_index`, so
//! ordered merges read it directly. `counts` is flat, `width` attributes per
//! feature, so no feature owns an allocation; a longer vector widens every
//! row with zeros, which is how `CountVector::get_or_zero` reads a short one.

use std::cmp::Ordering;
use std::ops::Deref;

use ips_types::{AggregateFunction, FeatureId};

/// One feature's counts: a `width`-long row of a stat's `counts` column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CountRow<'a>(&'a [i64]);

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

impl Deref for CountRow<'_> {
    type Target = [i64];
    fn deref(&self) -> &[i64] {
        self.0
    }
}

/// Feature id → counts, as id-sorted parallel columns.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexedFeatureStat {
    /// Strictly ascending feature ids.
    fids: Vec<FeatureId>,
    /// Row `i` is `counts[i * width..(i + 1) * width]`.
    counts: Vec<i64>,
    width: usize,
}

impl IndexedFeatureStat {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty stat with room for `rows` features (decode knows how many
    /// a frame holds).
    pub(crate) fn with_capacity(rows: usize) -> Self {
        Self {
            fids: Vec::with_capacity(rows),
            ..Self::default()
        }
    }

    /// Number of distinct features.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fids.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fids.is_empty()
    }

    /// The id-sorted feature column.
    pub(crate) fn fids(&self) -> &[FeatureId] {
        &self.fids
    }

    /// The counts of the `i`-th feature in id order.
    pub(crate) fn row(&self, i: usize) -> CountRow<'_> {
        CountRow(&self.counts[i * self.width..(i + 1) * self.width])
    }

    /// Append `row` to `counts`, zero-padded to `width`.
    fn push_padded(counts: &mut Vec<i64>, row: &[i64], width: usize) {
        counts.extend_from_slice(row);
        counts.resize(counts.len() + width - row.len(), 0);
    }

    /// Re-lay every row at `width` attributes. The counts column gets room
    /// for as many rows as the `fids` column.
    fn widen(&mut self, width: usize) {
        if width <= self.width {
            return;
        }
        let capacity = self.fids.capacity() * width;
        let old = std::mem::replace(&mut self.counts, Vec::with_capacity(capacity));
        for i in 0..self.len() {
            let row = &old[i * self.width..(i + 1) * self.width];
            Self::push_padded(&mut self.counts, row, width);
        }
        self.width = width;
    }

    /// Fold `row` into the feature's counts using the table's reduce
    /// function. Inserts the feature when absent.
    pub fn upsert(&mut self, fid: FeatureId, row: &[i64], agg: AggregateFunction) {
        // Most stats hold a feature or two: allocate the first row exactly,
        // grow by doubling after that.
        if self.fids.capacity() == 0 {
            self.fids.reserve_exact(1);
        }
        self.widen(row.len());
        let w = self.width;
        match self.fids.binary_search(&fid) {
            Ok(i) => agg.fold_row(&mut self.counts[i * w..(i + 1) * w], row, true),
            Err(i) => {
                self.fids.insert(i, fid);
                let padded = row.iter().copied().chain(std::iter::repeat(0)).take(w);
                self.counts.splice(i * w..i * w, padded);
            }
        }
    }

    /// Append a row read from storage, which is in id order unless written
    /// before encoding was canonical; [`Self::restore_order`] fixes that.
    pub(crate) fn push(&mut self, fid: FeatureId, row: &[i64]) {
        self.widen(row.len());
        self.fids.push(fid);
        Self::push_padded(&mut self.counts, row, self.width);
    }

    /// Sort rows appended out of id order, summing duplicate ids.
    pub(crate) fn restore_order(&mut self) {
        if self.fids.windows(2).all(|w| w[0] < w[1]) {
            return;
        }
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| self.fids[i]);
        let mut sorted = Self::with_capacity(self.len());
        for i in order {
            sorted.upsert(self.fids[i], &self.row(i), AggregateFunction::Sum);
        }
        *self = sorted;
    }

    /// The counts of one feature.
    #[must_use]
    pub fn get(&self, fid: FeatureId) -> Option<CountRow<'_>> {
        self.fids.binary_search(&fid).ok().map(|i| self.row(i))
    }

    /// Keep only features in the callback's good graces (shrink path),
    /// compacting both columns in lockstep.
    pub fn retain(&mut self, mut keep: impl FnMut(FeatureId, CountRow<'_>) -> bool) {
        let w = self.width;
        let mut kept = 0;
        for i in 0..self.len() {
            if keep(self.fids[i], self.row(i)) {
                self.fids[kept] = self.fids[i];
                self.counts.copy_within(i * w..(i + 1) * w, kept * w);
                kept += 1;
            }
        }
        self.fids.truncate(kept);
        self.counts.truncate(kept * w);
    }

    /// Iterate `(feature, counts)` in ascending feature-id order.
    pub fn iter(&self) -> impl Iterator<Item = (FeatureId, CountRow<'_>)> {
        (0..self.len()).map(|i| (self.fids[i], self.row(i)))
    }

    /// Merge another stat into this one in one linear pass over both sorted
    /// columns, folding `other`'s counts in as the older side (compaction
    /// merges an older slice into a newer one, so `Last` keeps this side).
    pub fn merge_from(&mut self, other: &IndexedFeatureStat, agg: AggregateFunction) {
        let w = self.width.max(other.width);
        let mut merged = Self {
            fids: Vec::with_capacity(self.len() + other.len()),
            counts: Vec::with_capacity((self.len() + other.len()) * w),
            width: w,
        };
        let (mut i, mut j) = (0, 0);
        while i < self.len() || j < other.len() {
            let order = match (self.fids.get(i), other.fids.get(j)) {
                (Some(mine), Some(theirs)) => mine.cmp(theirs),
                (Some(_), None) => Ordering::Less,
                _ => Ordering::Greater,
            };
            if order == Ordering::Greater {
                merged.push(other.fids[j], &other.row(j));
                j += 1;
                continue;
            }
            merged.push(self.fids[i], &self.row(i));
            i += 1;
            if order == Ordering::Equal {
                let at = merged.counts.len() - w;
                agg.fold_row(&mut merged.counts[at..], &other.row(j), false);
                j += 1;
            }
        }
        // Shared ids left spare capacity, and the result is long-lived.
        merged.fids.shrink_to_fit();
        merged.counts.shrink_to_fit();
        *self = merged;
    }

    /// Heap held by the two columns.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.fids.capacity() * std::mem::size_of::<FeatureId>()
            + self.counts.capacity() * std::mem::size_of::<i64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(n: u64) -> FeatureId {
        FeatureId::new(n)
    }

    #[test]
    fn upsert_inserts_then_aggregates() {
        let mut s = IndexedFeatureStat::new();
        s.upsert(fid(1), &[2], AggregateFunction::Sum);
        s.upsert(fid(1), &[3], AggregateFunction::Sum);
        assert_eq!(s.get(fid(1)).unwrap().as_slice(), &[5]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn upsert_respects_aggregate_function() {
        let mut s = IndexedFeatureStat::new();
        for v in [2, 9, 4] {
            s.upsert(fid(1), &[v], AggregateFunction::Max);
        }
        assert_eq!(s.get(fid(1)).unwrap().as_slice(), &[9]);

        let mut s = IndexedFeatureStat::new();
        s.upsert(fid(1), &[2], AggregateFunction::Last);
        s.upsert(fid(1), &[7], AggregateFunction::Last);
        assert_eq!(s.get(fid(1)).unwrap().as_slice(), &[7]);
    }

    fn fids(s: &IndexedFeatureStat) -> Vec<u64> {
        s.iter().map(|(f, _)| f.raw()).collect()
    }

    #[test]
    fn sorted_index_tracks_mutations() {
        let mut s = IndexedFeatureStat::new();
        for n in [5u64, 1, 9, 3] {
            s.upsert(fid(n), &[1], AggregateFunction::Sum);
        }
        assert_eq!(fids(&s), [1, 3, 5, 9]);
        s.retain(|f, _| f != fid(3));
        assert_eq!(fids(&s), [1, 5, 9]);
        s.upsert(fid(2), &[1], AggregateFunction::Sum);
        assert_eq!(fids(&s), [1, 2, 5, 9]);
    }

    #[test]
    fn wider_vector_pads_existing_rows_with_zeros() {
        let mut s = IndexedFeatureStat::new();
        s.upsert(fid(1), &[4], AggregateFunction::Sum);
        s.upsert(fid(2), &[1, 2, 3], AggregateFunction::Sum);
        s.upsert(fid(1), &[1, 1], AggregateFunction::Sum);
        assert_eq!(s.get(fid(1)).unwrap().as_slice(), &[5, 1, 0]);
        assert_eq!(s.get(fid(2)).unwrap().as_slice(), &[1, 2, 3]);
        assert_eq!(s.get(fid(2)).unwrap().get_or_zero(7), 0);
    }

    #[test]
    fn out_of_order_pushes_sort_once_and_sum_duplicates() {
        let mut s = IndexedFeatureStat::new();
        for (n, c) in [(9u64, 1i64), (3, 2), (9, 4), (1, 8)] {
            s.push(fid(n), &[c]);
        }
        s.restore_order();
        let rows: Vec<_> = s.iter().map(|(f, c)| (f.raw(), c[0])).collect();
        assert_eq!(rows, vec![(1, 8), (3, 2), (9, 5)]);
    }

    #[test]
    fn retain_filters() {
        let mut s = IndexedFeatureStat::new();
        for n in 0..10i64 {
            s.upsert(fid(n as u64), &[n, -n], AggregateFunction::Sum);
        }
        s.retain(|_, c| c.get_or_zero(0) >= 5);
        assert_eq!(s.len(), 5);
        assert!(s.get(fid(4)).is_none());
        assert_eq!(s.get(fid(5)).unwrap().as_slice(), &[5, -5]);
        assert_eq!(s.get(fid(9)).unwrap().as_slice(), &[9, -9]);
    }

    #[test]
    fn merge_from_combines() {
        let mut a = IndexedFeatureStat::new();
        a.upsert(fid(1), &[1], AggregateFunction::Sum);
        a.upsert(fid(4), &[1], AggregateFunction::Sum);
        let mut b = IndexedFeatureStat::new();
        b.upsert(fid(1), &[2], AggregateFunction::Sum);
        b.upsert(fid(2), &[5, 6], AggregateFunction::Sum);
        a.merge_from(&b, AggregateFunction::Sum);
        assert_eq!(fids(&a), [1, 2, 4]);
        assert_eq!(a.get(fid(1)).unwrap().as_slice(), &[3, 0]);
        assert_eq!(a.get(fid(2)).unwrap().as_slice(), &[5, 6]);
        assert_eq!(a.get(fid(4)).unwrap().as_slice(), &[1, 0]);
    }

    #[test]
    fn approx_bytes_grows_with_features() {
        let mut s = IndexedFeatureStat::new();
        let empty = s.approx_bytes();
        for n in 0..100u64 {
            s.upsert(fid(n), &[1, 2], AggregateFunction::Sum);
        }
        assert!(s.approx_bytes() >= empty + 100 * 24);
    }
}
