//! *Instance Set*: user behaviours across action types within one slot.
//!
//! The middle level of the in-memory hierarchy (Fig 6): action-type id →
//! [`IndexedFeatureStat`]. Like the stat, a set owns no memory: it is the
//! slot's contiguous stretch of its slice's runs, sorted by action type.

use ips_types::ActionTypeId;

use super::feature_stat::IndexedFeatureStat;
use super::slice::Slice;

/// Action type → indexed feature stats, borrowed from a [`Slice`].
#[derive(Clone, Copy, Debug)]
pub struct InstanceSet<'a> {
    pub(super) slice: &'a Slice,
    /// The slot's runs: `slice.runs[lo..hi]`.
    pub(super) lo: usize,
    pub(super) hi: usize,
}

impl<'a> InstanceSet<'a> {
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.lo == self.hi
    }

    /// The stats for one action type.
    #[must_use]
    pub fn get(self, action: ActionTypeId) -> Option<IndexedFeatureStat<'a>> {
        self.iter().find(|(a, _)| *a == action).map(|(_, s)| s)
    }

    /// Iterate all `(action, stats)` pairs in ascending action-type order.
    pub fn iter(self) -> impl Iterator<Item = (ActionTypeId, IndexedFeatureStat<'a>)> {
        let runs = self.slice.runs_in(self.lo, self.hi);
        runs.map(|(_, action, stat)| (action, stat))
    }
}

#[cfg(test)]
mod tests {
    use ips_types::{AggregateFunction, CountVector, FeatureId, SlotId, Timestamp};

    use super::*;

    fn at(n: u32) -> ActionTypeId {
        ActionTypeId::new(n)
    }

    fn fid(n: u64) -> FeatureId {
        FeatureId::new(n)
    }

    fn slice() -> Slice {
        Slice::new(Timestamp::ZERO, Timestamp::from_millis(10))
    }

    /// Record `count` for feature `f` under action type `a` in slot 1.
    fn add(s: &mut Slice, a: u32, f: u64, count: i64) {
        let counts = CountVector::single(count);
        s.add(
            SlotId::new(1),
            at(a),
            fid(f),
            &counts,
            AggregateFunction::Sum,
        );
    }

    fn set(s: &Slice) -> InstanceSet<'_> {
        s.slot(SlotId::new(1)).unwrap()
    }

    #[test]
    fn upsert_creates_action_types_on_demand() {
        let mut s = slice();
        add(&mut s, 2, 10, 2);
        add(&mut s, 1, 10, 1);
        let set = set(&s);
        assert_eq!(set.iter().count(), 2);
        assert_eq!(set.iter().map(|(_, s)| s.len()).sum::<usize>(), 2);
        assert_eq!(
            set.get(at(1)).unwrap().get(fid(10)).unwrap().as_slice(),
            &[1]
        );
        assert_eq!(
            set.get(at(2)).unwrap().get(fid(10)).unwrap().as_slice(),
            &[2]
        );
        let order: Vec<_> = set.iter().map(|(a, _)| a).collect();
        assert_eq!(order, vec![at(1), at(2)], "iteration is in id order");
    }

    #[test]
    fn merge_from_is_per_action_type() {
        let (mut a, mut b) = (slice(), slice());
        add(&mut a, 1, 1, 1);
        add(&mut b, 1, 1, 4);
        add(&mut b, 3, 9, 7);
        a.absorb(&b, AggregateFunction::Sum);
        let set = set(&a);
        assert_eq!(
            set.get(at(1)).unwrap().get(fid(1)).unwrap().as_slice(),
            &[5]
        );
        assert_eq!(
            set.get(at(3)).unwrap().get(fid(9)).unwrap().as_slice(),
            &[7]
        );
    }

    #[test]
    fn prune_empty_removes_hollow_actions() {
        let mut s = slice();
        add(&mut s, 1, 1, 1);
        add(&mut s, 2, 1, 1);
        assert_eq!(s.retain(|_, _, c| c.get_or_zero(0) > 1), 2);
        assert!(s.slot(SlotId::new(1)).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn approx_bytes_counts_nested() {
        let mut s = slice();
        let base = s.approx_bytes();
        add(&mut s, 1, 1, 1);
        assert!(s.approx_bytes() > base);
    }
}
