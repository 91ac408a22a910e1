//! *Slice*: a snapshot of a user's behaviour over one time interval.
//!
//! The second level of the in-memory hierarchy (Fig 6), bounded by a
//! closed-open time range. Its slot → action type → feature hierarchy is
//! stored flat, in three columns kept in canonical `(slot, action, fid)`
//! order: `runs` (one entry per `(slot, action)` stat, holding where its
//! rows end and how wide they are), `fids` and row-major `counts`. A slice
//! is three allocations however many slots and actions it holds, and every
//! edit is one linear pass over them. A profile is a time-ordered list of
//! slices; compaction merges adjacent slices into wider ones (Fig 10).

use std::mem::size_of;

use ips_types::{
    ActionTypeId, AggregateFunction, CountVector, FeatureId, IpsError, Result, SlotId, Timestamp,
    MAX_ATTRIBUTES,
};

use super::feature_stat::{CountRow, IndexedFeatureStat};
use super::instance_set::InstanceSet;

/// One `(slot, action type)` stat: its rows end at row `end` (they start
/// where the previous run's end) and hold `width` attributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    slot: SlotId,
    action: ActionTypeId,
    end: u32,
    width: u32,
}

impl Run {
    /// An empty stat whose rows will start at row `end`.
    fn new(slot: SlotId, action: ActionTypeId, end: usize) -> Self {
        let (end, width) = (end as u32, 0);
        Self {
            slot,
            action,
            end,
            width,
        }
    }

    fn key(&self) -> (SlotId, ActionTypeId) {
        (self.slot, self.action)
    }
}

/// A row's place in canonical order.
pub(crate) type RowKey = (SlotId, ActionTypeId, FeatureId);

/// `slot`'s bit in [`Slice::slot_mask`].
fn slot_bit(slot: SlotId) -> u16 {
    1 << (slot.raw() % 16)
}

/// One time-bounded snapshot of behaviour, organised by slot.
#[derive(Clone, Debug)]
pub struct Slice {
    /// Inclusive start of the covered interval.
    start: Timestamp,
    /// Exclusive end of the covered interval.
    end: Timestamp,
    /// Stats in ascending `(slot, action)` order.
    runs: Vec<Run>,
    /// Every stat's feature ids, back to back; ascending within a run.
    fids: Vec<FeatureId>,
    /// Row `i` is `counts[i * stride..][..stride]`: its run's `width`
    /// attributes, then zeros.
    counts: Vec<i64>,
    stride: u32,
    /// Bit `slot % 16` is set for every slot with a stat: a window scan
    /// skips slices without the queried slot, their runs unread.
    slot_mask: u16,
    /// Set on every mutation; cleared when the slice is flushed to storage.
    /// Split-mode persistence reuses the stored value of clean slices.
    dirty: bool,
}

/// Slices are equal when they cover the same interval with the same
/// content; the row stride and the dirty flag are bookkeeping.
impl PartialEq for Slice {
    fn eq(&self, other: &Self) -> bool {
        self.start == other.start && self.end == other.end && self.stats().eq(other.stats())
    }
}

impl Eq for Slice {}

impl Slice {
    /// An empty slice covering `[start, end)`.
    #[must_use]
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        assert!(
            start < end,
            "slice range must be non-empty: {start:?}..{end:?}"
        );
        Self {
            start,
            end,
            runs: Vec::new(),
            fids: Vec::new(),
            counts: Vec::new(),
            stride: 0,
            slot_mask: 0,
            dirty: true,
        }
    }

    /// Has this slice been mutated since the last flush?
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Mark the slice as flushed; the next mutation re-dirties it.
    pub fn mark_clean(&mut self) {
        self.dirty = false;
    }

    #[must_use]
    pub fn start(&self) -> Timestamp {
        self.start
    }

    #[must_use]
    pub fn end(&self) -> Timestamp {
        self.end
    }

    /// Does this slice's interval contain `t`?
    #[must_use]
    pub fn covers(&self, t: Timestamp) -> bool {
        t >= self.start && t < self.end
    }

    /// Does this slice overlap the closed-open window `[lo, hi)`?
    #[must_use]
    pub fn overlaps(&self, lo: Timestamp, hi: Timestamp) -> bool {
        self.start < hi && lo < self.end
    }

    /// Total distinct `(slot, action, feature)` triples.
    #[must_use]
    pub fn feature_count(&self) -> usize {
        self.fids.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fids.is_empty()
    }

    /// The first row of run `i` (the end of the rows when there is none).
    fn run_start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |p| self.runs[p].end as usize)
    }

    /// The rows of run `i`.
    fn rows(&self, i: usize) -> std::ops::Range<usize> {
        self.run_start(i)..self.runs[i].end as usize
    }

    /// Runs `lo..hi` as `(slot, action, stat)`.
    pub(super) fn runs_in(
        &self,
        lo: usize,
        hi: usize,
    ) -> impl Iterator<Item = (SlotId, ActionTypeId, IndexedFeatureStat<'_>)> {
        let (mut start, stride) = (self.run_start(lo), self.stride as usize);
        self.runs[lo..hi].iter().map(move |run| {
            let end = run.end as usize;
            let stat = IndexedFeatureStat {
                fids: &self.fids[start..end],
                counts: &self.counts[start * stride..end * stride],
                stride,
                width: run.width as usize,
            };
            start = end;
            (run.slot, run.action, stat)
        })
    }

    /// Record one observation. The caller guarantees the timestamp that led
    /// here falls inside this slice's range.
    pub fn add(
        &mut self,
        slot: SlotId,
        action: ActionTypeId,
        fid: FeatureId,
        counts: &CountVector,
        agg: AggregateFunction,
    ) {
        let row = counts.as_slice();
        let run = match self.runs.binary_search_by_key(&(slot, action), Run::key) {
            Ok(i) => i,
            Err(i) => {
                // Stats are few per slice: grow this column one at a time.
                self.runs.reserve_exact(1);
                self.runs
                    .insert(i, Run::new(slot, action, self.run_start(i)));
                self.slot_mask |= slot_bit(slot);
                i
            }
        };
        let width = self.widen(run, row.len());
        let rows = self.rows(run);
        let stride = self.stride as usize;
        match self.fids[rows.clone()].binary_search(&fid) {
            Ok(k) => {
                let at = (rows.start + k) * stride;
                agg.fold_row(&mut self.counts[at..at + width], row, true);
            }
            Err(k) => {
                let at = rows.start + k;
                // Most slices hold a feature or two: allocate the first row
                // exactly, grow by doubling after that.
                if self.fids.capacity() == 0 {
                    self.fids.reserve_exact(1);
                }
                self.fids.insert(at, fid);
                let capacity = self.fids.capacity() * stride;
                self.counts.reserve_exact(capacity - self.counts.len());
                let padded = row.iter().copied().chain(std::iter::repeat(0)).take(stride);
                self.counts.splice(at * stride..at * stride, padded);
                for run in &mut self.runs[run..] {
                    run.end += 1;
                }
            }
        }
        self.dirty = true;
    }

    /// Widen run `run` to hold `width` attributes (re-laying every row when
    /// that passes the stride); returns the run's width.
    fn widen(&mut self, run: usize, width: usize) -> usize {
        let stride = self.stride as usize;
        if width > stride {
            let old = std::mem::take(&mut self.counts);
            self.counts.reserve_exact(self.fids.capacity() * width);
            for row in 0..self.fids.len() {
                self.counts
                    .extend_from_slice(&old[row * stride..][..stride]);
                self.counts.resize((row + 1) * width, 0);
            }
            self.stride = width as u32;
        }
        let run = &mut self.runs[run];
        run.width = run.width.max(width as u32);
        run.width as usize
    }

    /// Append a row at the end of the columns, zero-padded to the stride.
    fn push_padded(&mut self, fid: FeatureId, row: &[i64]) {
        self.fids.push(fid);
        self.counts.extend_from_slice(row);
        let stride = self.stride as usize;
        self.counts.resize(self.fids.len() * stride, 0);
    }

    /// Append a row that sorts at or after every row so far: a new stat
    /// when `(slot, action)` is new, and folded into the last row as the
    /// older side when its key equals that row's.
    fn push_sorted(&mut self, key: RowKey, row: &[i64], agg: AggregateFunction) {
        let (slot, action, fid) = key;
        if self.runs.last().map(Run::key) != Some((slot, action)) {
            self.runs.push(Run::new(slot, action, self.fids.len()));
            self.slot_mask |= slot_bit(slot);
        }
        let last = self.runs.len() - 1;
        let width = self.widen(last, row.len());
        if !self.rows(last).is_empty() && self.fids.last() == Some(&fid) {
            let at = (self.fids.len() - 1) * self.stride as usize;
            agg.fold_row(&mut self.counts[at..at + width], row, false);
        } else {
            self.push_padded(fid, row);
            self.runs[last].end += 1;
        }
    }

    /// Every row in canonical order, with its key.
    fn rows_in_order(&self) -> impl Iterator<Item = (RowKey, CountRow<'_>)> {
        self.stats()
            .flat_map(|(s, a, stat)| stat.iter().map(move |(f, counts)| ((s, a, f), counts)))
    }

    /// Drop spare capacity: a merged or re-sorted slice is long-lived.
    fn trimmed(mut self) -> Self {
        self.runs.shrink_to_fit();
        self.fids.shrink_to_fit();
        self.counts.shrink_to_fit();
        self
    }

    /// The one slot's instance set.
    #[must_use]
    pub fn slot(&self, slot: SlotId) -> Option<InstanceSet<'_>> {
        if self.slot_mask & slot_bit(slot) == 0 {
            return None;
        }
        // A slice holds a few stats: a linear scan beats a binary search.
        let lo = self.runs.iter().take_while(|r| r.slot < slot).count();
        let set = self.set_at(lo);
        (!set.is_empty() && self.runs[lo].slot == slot).then_some(set)
    }

    /// The instance set of the slot whose runs start at run `lo`.
    fn set_at(&self, lo: usize) -> InstanceSet<'_> {
        let slot = self.runs.get(lo).map(|r| r.slot);
        let hi = lo + self.runs[lo..].partition_point(|r| Some(r.slot) == slot);
        InstanceSet {
            slice: self,
            lo,
            hi,
        }
    }

    /// Iterate `(slot, instance set)` pairs in ascending slot order.
    pub fn iter_slots(&self) -> impl Iterator<Item = (SlotId, InstanceSet<'_>)> {
        let mut lo = 0;
        std::iter::from_fn(move || {
            let slot = self.runs.get(lo)?.slot;
            let set = self.set_at(lo);
            lo = set.hi;
            Some((slot, set))
        })
    }

    /// Iterate every `(slot, action, stat)` in canonical order.
    pub fn stats(&self) -> impl Iterator<Item = (SlotId, ActionTypeId, IndexedFeatureStat<'_>)> {
        self.runs_in(0, self.runs.len())
    }

    /// Merge the older `other` into this slice: [`Self::merge`] of the two.
    pub fn absorb(&mut self, other: &Slice, agg: AggregateFunction) {
        *self = Self::merge(&[self, other], agg);
    }

    /// One slice covering `slices` (newest first, adjacent or overlapping),
    /// counts folded with `agg` and a newer slice's row the newer side. The
    /// primitive behind compaction (Fig 10): a group of slices merges in one
    /// stable sort of their rows and one pass into exactly sized columns.
    #[must_use]
    pub fn merge(slices: &[&Slice], agg: AggregateFunction) -> Slice {
        let start = slices.iter().map(|s| s.start).min().unwrap_or_default();
        let end = slices
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(Timestamp(start.0 + 1));
        let rows = slices.iter().flat_map(|s| s.rows_in_order()).collect();
        let runs = slices.iter().map(|s| s.runs.len()).sum();
        Self::from_unsorted((start, end), rows, runs, agg)
    }

    /// `rows` folded with `agg` into exactly sized columns, in one stable
    /// sort and one pass; of two rows with one key, the earlier is the
    /// newer side. `runs` is a capacity hint for the stats.
    fn from_unsorted<R: AsRef<[i64]>>(
        range: (Timestamp, Timestamp),
        mut rows: Vec<(RowKey, R)>,
        runs: usize,
        agg: AggregateFunction,
    ) -> Self {
        rows.sort_by_key(|(key, _)| *key);
        let stride = rows.iter().map(|(_, row)| row.as_ref().len()).max();
        let stride = stride.unwrap_or(0) as u32;
        let mut slice = Self::with_room(range, (runs, rows.len()), stride);
        for (key, row) in &rows {
            slice.push_sorted(*key, row.as_ref(), agg);
        }
        slice.trimmed()
    }

    /// A slice over `[start, end)` built straight from its decoded columns,
    /// in canonical order. `runs` yields each stat's `(slot, action, rows,
    /// width)`; then, stat by stat, `row` fills each row's `width` counts
    /// and returns its feature id, given the previous id in the stat. `rows`
    /// is the number of feature ids the input holds: every column reserves
    /// exactly what the runs declare, and never more than that. A stat out
    /// of order, empty, wider than [`MAX_ATTRIBUTES`] or past `rows`, or a
    /// feature id out of order, is an error.
    pub(crate) fn from_columns(
        (start, end): (Timestamp, Timestamp),
        (runs, rows): (usize, usize),
        stats: impl Iterator<Item = Result<(SlotId, ActionTypeId, usize, usize)>>,
        mut row: impl FnMut(Option<FeatureId>, &mut [i64]) -> Result<FeatureId>,
    ) -> Result<Self> {
        let bad = |what: &str| IpsError::Codec(format!("slice columns: {what}"));
        let mut slice = Self::new(start, end);
        slice.runs.reserve_exact(runs);
        let (mut stride, mut total) = (0, 0);
        for stat in stats {
            let (slot, action, n, width) = stat?;
            if slice.runs.last().is_some_and(|r| r.key() >= (slot, action)) {
                return Err(bad("stats out of order"));
            }
            if n == 0 || n > rows - total {
                return Err(bad("a stat is empty or runs past the feature ids"));
            }
            if width > MAX_ATTRIBUTES {
                return Err(bad("a stat is wider than MAX_ATTRIBUTES"));
            }
            total += n;
            stride = stride.max(width);
            let end = u32::try_from(total).map_err(|_| bad("more rows than u32 holds"))?;
            let width = width as u32;
            slice.runs.push(Run {
                slot,
                action,
                end,
                width,
            });
            slice.slot_mask |= slot_bit(slot);
        }
        slice.stride = stride as u32;
        slice.fids.reserve_exact(total);
        slice.counts.reserve_exact(total * stride);
        for i in 0..slice.runs.len() {
            let (rows, width) = (slice.rows(i), slice.runs[i].width as usize);
            // Attributes past `width` stay zero: the row's padding.
            let mut counts = [0; MAX_ATTRIBUTES];
            let mut prev = None;
            for _ in rows {
                let fid = row(prev, &mut counts[..width])?;
                if prev.is_some_and(|p| p >= fid) {
                    return Err(bad("feature ids out of order"));
                }
                slice.fids.push(fid);
                slice.counts.extend_from_slice(&counts[..stride]);
                prev = Some(fid);
            }
        }
        Ok(slice)
    }

    /// Keep only the rows `keep` accepts (shrink path), compacting the
    /// columns in one pass and dropping stats and slots left empty. Returns
    /// the number of rows removed; removing any dirties the slice.
    pub fn retain(
        &mut self,
        mut keep: impl FnMut(SlotId, FeatureId, CountRow<'_>) -> bool,
    ) -> usize {
        let stride = self.stride as usize;
        let (mut kept, mut runs_kept, mut row, mut mask) = (0, 0, 0, 0);
        for i in 0..self.runs.len() {
            let run = self.runs[i];
            let first = kept;
            while row < run.end as usize {
                let counts = CountRow(&self.counts[row * stride..][..run.width as usize]);
                if keep(run.slot, self.fids[row], counts) {
                    self.fids[kept] = self.fids[row];
                    self.counts
                        .copy_within(row * stride..(row + 1) * stride, kept * stride);
                    kept += 1;
                }
                row += 1;
            }
            if kept > first {
                mask |= slot_bit(run.slot);
                self.runs[runs_kept] = run;
                self.runs[runs_kept].end = kept as u32;
                runs_kept += 1;
            }
        }
        let removed = self.fids.len() - kept;
        self.truncate_runs(runs_kept);
        self.slot_mask = mask;
        self.dirty |= removed > 0;
        removed
    }

    /// Footprint: the slice itself plus the heap its three columns hold.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        size_of::<Slice>()
            + self.runs.capacity() * size_of::<Run>()
            + (self.fids.capacity() + self.counts.capacity()) * size_of::<i64>()
    }

    /// An empty slice covering `range`, with room for `(stats, rows)` rows
    /// of `stride` attributes.
    fn with_room(range: (Timestamp, Timestamp), (runs, rows): (usize, usize), stride: u32) -> Self {
        Self {
            runs: Vec::with_capacity(runs),
            fids: Vec::with_capacity(rows),
            counts: Vec::with_capacity(rows * stride as usize),
            stride,
            ..Self::new(range.0, range.1)
        }
    }

    /// Each column's capacity, the counts' in rows: what a decode reserved.
    #[cfg(test)]
    pub(crate) fn column_capacities(&self) -> [usize; 3] {
        let stride = (self.stride as usize).max(1);
        let counts = self.counts.capacity() / stride;
        [self.runs.capacity(), self.fids.capacity(), counts]
    }

    fn truncate_runs(&mut self, runs: usize) {
        let rows = self.run_start(runs);
        self.runs.truncate(runs);
        self.fids.truncate(rows);
        self.counts.truncate(rows * self.stride as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_millis(t)
    }

    fn slot(n: u32) -> SlotId {
        SlotId::new(n)
    }

    fn at(n: u32) -> ActionTypeId {
        ActionTypeId::new(n)
    }

    fn fid(n: u64) -> FeatureId {
        FeatureId::new(n)
    }

    /// Record `count` for feature `f` in slot `s` under action type 1.
    fn add(slice: &mut Slice, s: u32, f: u64, count: i64) {
        let counts = CountVector::single(count);
        slice.add(slot(s), at(1), fid(f), &counts, AggregateFunction::Sum);
    }

    fn count(slice: &Slice, s: u32, f: u64) -> Option<i64> {
        let row = slice.slot(slot(s))?.get(at(1))?.get(fid(f))?;
        Some(row.get_or_zero(0))
    }

    #[test]
    fn covers_and_overlaps() {
        let s = Slice::new(ts(100), ts(200));
        assert!(s.covers(ts(100)));
        assert!(s.covers(ts(199)));
        assert!(!s.covers(ts(200)));
        assert!(!s.covers(ts(99)));
        assert!(s.overlaps(ts(150), ts(300)));
        assert!(!s.overlaps(ts(200), ts(300)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_range_panics() {
        let _ = Slice::new(ts(5), ts(5));
    }

    #[test]
    fn add_and_lookup() {
        let mut s = Slice::new(ts(0), ts(10));
        add(&mut s, 1, 42, 3);
        add(&mut s, 1, 42, 2);
        assert_eq!(count(&s, 1, 42), Some(5));
        assert_eq!(s.feature_count(), 1);
    }

    #[test]
    fn absorb_merges_counts_and_widens_range() {
        let mut newer = Slice::new(ts(100), ts(200));
        add(&mut newer, 1, 1, 2);
        let mut older = Slice::new(ts(0), ts(100));
        add(&mut older, 1, 1, 3);
        add(&mut older, 2, 9, 1);

        newer.absorb(&older, AggregateFunction::Sum);
        assert_eq!(newer.start(), ts(0));
        assert_eq!(newer.end(), ts(200));
        assert_eq!(count(&newer, 1, 1), Some(5));
        assert_eq!(newer.slot(slot(2)).unwrap().get(at(1)).unwrap().len(), 1);
    }

    #[test]
    fn prune_empty_slots() {
        let mut s = Slice::new(ts(0), ts(10));
        add(&mut s, 1, 1, 1);
        add(&mut s, 2, 1, 1);
        s.mark_clean();
        assert_eq!(s.retain(|slot, _, _| slot != SlotId::new(1)), 1);
        assert_eq!(s.iter_slots().count(), 1);
        assert!(s.is_dirty());
        s.retain(|_, _, _| false);
        assert_eq!(s.iter_slots().count(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn footprint_tracks_content() {
        let mut s = Slice::new(ts(0), ts(10));
        let empty = s.approx_bytes();
        for i in 0..50u64 {
            add(&mut s, 1, i, 1);
        }
        assert!(s.approx_bytes() > empty);
    }
}
