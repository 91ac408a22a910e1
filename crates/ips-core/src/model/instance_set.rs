//! *Instance Set*: user behaviours across action types within one slot.
//!
//! The middle level of the in-memory hierarchy (Fig 6): action-type id →
//! [`IndexedFeatureStat`], as a `Vec` sorted by action-type id.

use ips_types::{ActionTypeId, AggregateFunction, CountVector, FeatureId};

use super::feature_stat::IndexedFeatureStat;

/// Action type → indexed feature stats.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstanceSet {
    actions: Vec<(ActionTypeId, IndexedFeatureStat)>,
}

impl InstanceSet {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set with room for `actions` action types.
    pub(crate) fn with_capacity(actions: usize) -> Self {
        Self {
            actions: Vec::with_capacity(actions),
        }
    }

    /// Number of action types present.
    #[must_use]
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Total distinct `(action_type, feature)` pairs.
    #[must_use]
    pub fn feature_count(&self) -> usize {
        self.actions.iter().map(|(_, s)| s.len()).sum()
    }

    /// Record counts for one feature under one action type.
    pub fn upsert(
        &mut self,
        action: ActionTypeId,
        fid: FeatureId,
        counts: &CountVector,
        agg: AggregateFunction,
    ) {
        super::entry(&mut self.actions, action).upsert(fid, counts.as_slice(), agg);
    }

    /// The stats for one action type.
    #[must_use]
    pub fn get(&self, action: ActionTypeId) -> Option<&IndexedFeatureStat> {
        super::get(&self.actions, &action)
    }

    /// Mutable stats for one action type.
    pub fn get_mut(&mut self, action: ActionTypeId) -> Option<&mut IndexedFeatureStat> {
        super::get_mut(&mut self.actions, &action)
    }

    /// Iterate all `(action, stats)` pairs in ascending action-type order.
    pub fn iter(&self) -> impl Iterator<Item = (ActionTypeId, &IndexedFeatureStat)> {
        self.actions.iter().map(|(k, v)| (*k, v))
    }

    /// Iterate mutably (shrink path).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ActionTypeId, &mut IndexedFeatureStat)> {
        self.actions.iter_mut().map(|(k, v)| (*k, v))
    }

    /// Merge another, older set into this one.
    pub fn merge_from(&mut self, other: &InstanceSet, agg: AggregateFunction) {
        for (action, stats) in other.iter() {
            super::entry(&mut self.actions, action).merge_from(stats, agg);
        }
    }

    /// Append an action type read from storage; see
    /// [`Self::restore_order`].
    pub(crate) fn push(&mut self, action: ActionTypeId, stats: IndexedFeatureStat) {
        self.actions.push((action, stats));
    }

    /// Sort features and action types appended out of order, summing
    /// duplicates.
    pub(crate) fn restore_order(&mut self) {
        for (_, stats) in &mut self.actions {
            stats.restore_order();
        }
        super::restore_order(&mut self.actions, |acc, stats| {
            acc.merge_from(&stats, AggregateFunction::Sum);
        });
    }

    /// Drop action types whose stat became empty (after shrink).
    pub fn prune_empty(&mut self) {
        self.actions.retain(|(_, s)| !s.is_empty());
    }

    /// Heap held by this set and its stats.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.actions.capacity() * std::mem::size_of::<(ActionTypeId, IndexedFeatureStat)>()
            + self
                .actions
                .iter()
                .map(|(_, s)| s.approx_bytes())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(n: u32) -> ActionTypeId {
        ActionTypeId::new(n)
    }

    fn fid(n: u64) -> FeatureId {
        FeatureId::new(n)
    }

    /// Record `count` for feature `f` under action type `a`.
    fn add(s: &mut InstanceSet, a: u32, f: u64, count: i64) {
        s.upsert(
            at(a),
            fid(f),
            &CountVector::single(count),
            AggregateFunction::Sum,
        );
    }

    #[test]
    fn upsert_creates_action_types_on_demand() {
        let mut s = InstanceSet::new();
        add(&mut s, 2, 10, 2);
        add(&mut s, 1, 10, 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.feature_count(), 2);
        assert_eq!(s.get(at(1)).unwrap().get(fid(10)).unwrap().as_slice(), &[1]);
        assert_eq!(s.get(at(2)).unwrap().get(fid(10)).unwrap().as_slice(), &[2]);
        let order: Vec<_> = s.iter().map(|(a, _)| a).collect();
        assert_eq!(order, vec![at(1), at(2)], "iteration is in id order");
    }

    #[test]
    fn merge_from_is_per_action_type() {
        let mut a = InstanceSet::new();
        add(&mut a, 1, 1, 1);
        let mut b = InstanceSet::new();
        add(&mut b, 1, 1, 4);
        add(&mut b, 3, 9, 7);
        a.merge_from(&b, AggregateFunction::Sum);
        assert_eq!(a.get(at(1)).unwrap().get(fid(1)).unwrap().as_slice(), &[5]);
        assert_eq!(a.get(at(3)).unwrap().get(fid(9)).unwrap().as_slice(), &[7]);
    }

    #[test]
    fn prune_empty_removes_hollow_actions() {
        let mut s = InstanceSet::new();
        add(&mut s, 1, 1, 1);
        s.get_mut(at(1)).unwrap().retain(|_, _| false);
        assert_eq!(s.len(), 1);
        s.prune_empty();
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn approx_bytes_counts_nested() {
        let mut s = InstanceSet::new();
        let base = s.approx_bytes();
        add(&mut s, 1, 1, 1);
        assert!(s.approx_bytes() > base);
    }
}
