//! *Slice*: a snapshot of a user's behaviour over one time interval.
//!
//! The second level of the in-memory hierarchy (Fig 6): slot id →
//! [`InstanceSet`], as a `Vec` sorted by slot id, bounded by a closed-open
//! time range. A profile is a time-ordered list of slices; compaction
//! merges adjacent slices into wider ones (Fig 10).

use ips_types::{ActionTypeId, AggregateFunction, CountVector, FeatureId, SlotId, Timestamp};

use super::instance_set::InstanceSet;

/// One time-bounded snapshot of behaviour, organised by slot.
#[derive(Clone, Debug)]
pub struct Slice {
    /// Inclusive start of the covered interval.
    start: Timestamp,
    /// Exclusive end of the covered interval.
    end: Timestamp,
    slots: Vec<(SlotId, InstanceSet)>,
    /// Cached footprint; refreshed on mutation.
    approx_bytes: usize,
    /// Set on every mutation; cleared when the slice is flushed to storage.
    /// Split-mode persistence reuses the stored value of clean slices.
    dirty: bool,
}

/// Slices are equal when they cover the same interval with the same
/// content; the cached footprint and the dirty flag are bookkeeping.
impl PartialEq for Slice {
    fn eq(&self, other: &Self) -> bool {
        self.start == other.start && self.end == other.end && self.slots == other.slots
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
            slots: Vec::new(),
            approx_bytes: std::mem::size_of::<Slice>(),
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

    /// Number of slots present.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Total distinct `(slot, action, feature)` triples.
    #[must_use]
    pub fn feature_count(&self) -> usize {
        self.slots.iter().map(|(_, s)| s.feature_count()).sum()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty() || self.feature_count() == 0
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
        super::entry(&mut self.slots, slot).upsert(action, fid, counts, agg);
        self.dirty = true;
        self.refresh_bytes();
    }

    /// The instance set for one slot.
    #[must_use]
    pub fn slot(&self, slot: SlotId) -> Option<&InstanceSet> {
        super::get(&self.slots, &slot)
    }

    /// Mutable access to one slot (shrink path).
    pub fn slot_mut(&mut self, slot: SlotId) -> Option<&mut InstanceSet> {
        super::get_mut(&mut self.slots, &slot)
    }

    /// Iterate `(slot, instance set)` pairs in ascending slot order.
    pub fn iter_slots(&self) -> impl Iterator<Item = (SlotId, &InstanceSet)> {
        self.slots.iter().map(|(k, v)| (*k, v))
    }

    /// Iterate slots mutably.
    pub fn iter_slots_mut(&mut self) -> impl Iterator<Item = (SlotId, &mut InstanceSet)> {
        self.slots.iter_mut().map(|(k, v)| (*k, v))
    }

    /// Merge `other` into this slice, widening the covered interval and
    /// folding counts with the table's reduce function. This is the primitive
    /// behind compaction (Fig 10): `other` must be older (its interval is
    /// expected to precede this one's), though the merge itself only assumes
    /// the intervals are adjacent or overlapping. Each feature column merges
    /// in one linear pass.
    pub fn absorb(&mut self, other: &Slice, agg: AggregateFunction) {
        self.start = self.start.min(other.start);
        self.end = self.end.max(other.end);
        for (slot, set) in other.iter_slots() {
            super::entry(&mut self.slots, slot).merge_from(set, agg);
        }
        self.dirty = true;
        self.refresh_bytes();
    }

    /// A slice decoded from storage. Each level arrives in wire order; a
    /// frame written before encoding was canonical is put in id order here,
    /// summing duplicate ids as replaying its writes would.
    pub(crate) fn from_decoded(
        start: Timestamp,
        end: Timestamp,
        mut slots: Vec<(SlotId, InstanceSet)>,
    ) -> Self {
        for (_, set) in &mut slots {
            set.restore_order();
        }
        super::restore_order(&mut slots, |acc, set| {
            acc.merge_from(&set, AggregateFunction::Sum);
        });
        let mut slice = Self {
            slots,
            ..Self::new(start, end)
        };
        slice.refresh_bytes();
        slice
    }

    /// Drop empty slots (after shrink) and refresh footprint.
    pub fn prune_empty(&mut self) {
        for (_, set) in &mut self.slots {
            set.prune_empty();
        }
        self.slots.retain(|(_, s)| !s.is_empty());
        self.dirty = true;
        self.refresh_bytes();
    }

    /// Recompute the cached footprint from column capacities, in
    /// O(slots + action types). Called by mutators; callers that mutate via
    /// `slot_mut`/`iter_slots_mut` must call this afterwards.
    pub fn refresh_bytes(&mut self) {
        self.approx_bytes = std::mem::size_of::<Slice>()
            + self.slots.capacity() * std::mem::size_of::<(SlotId, InstanceSet)>()
            + self
                .slots
                .iter()
                .map(|(_, s)| s.approx_bytes())
                .sum::<usize>();
    }

    /// Footprint: the slice itself plus the heap it holds (cached).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
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
        assert_eq!(newer.slot(slot(2)).unwrap().feature_count(), 1);
    }

    #[test]
    fn prune_empty_slots() {
        let mut s = Slice::new(ts(0), ts(10));
        add(&mut s, 1, 1, 1);
        let stats = s.slot_mut(slot(1)).unwrap().get_mut(at(1)).unwrap();
        stats.retain(|_, _| false);
        s.prune_empty();
        assert_eq!(s.slot_count(), 0);
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
