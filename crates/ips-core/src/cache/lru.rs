//! An indexed doubly-linked LRU list that carries a value per profile.
//!
//! Each GCache shard owns one of these (Fig 7), holding its resident
//! entries: the list *is* the shard's residency index. Operations are O(1):
//! `touch` moves a profile to the front on access, and `coldest_n` walks
//! from the tail handing eviction candidates to a swap cycle, which may
//! *skip* entries it cannot lock (Fig 8) — so removal by key from the middle
//! must also be O(1).

use std::collections::HashMap;

use ips_types::ProfileId;

const NIL: u32 = u32::MAX;

struct Node<V> {
    pid: ProfileId,
    /// `None` while the slot sits on the free list.
    value: Option<V>,
    prev: u32,
    next: u32,
}

/// Profile id → value, ordered by recency. Most-recent at the front.
pub(super) struct LruList<V> {
    nodes: Vec<Node<V>>,
    index: HashMap<ProfileId, u32>,
    head: u32,
    tail: u32,
    free_head: u32,
}

impl<V> LruList<V> {
    pub(super) fn new() -> Self {
        Self {
            nodes: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            free_head: NIL,
        }
    }

    pub(super) fn len(&self) -> usize {
        self.index.len()
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// The value for `pid`, without changing its recency.
    pub(super) fn get(&self, pid: ProfileId) -> Option<&V> {
        let idx = *self.index.get(&pid)?;
        self.nodes[idx as usize].value.as_ref()
    }

    /// Mark `pid` as most recently used and return its value; `None` (and
    /// no change) when absent.
    pub(super) fn touch(&mut self, pid: ProfileId) -> Option<&V> {
        let idx = *self.index.get(&pid)?;
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        self.nodes[idx as usize].value.as_ref()
    }

    /// Insert an absent `pid` as most recently used.
    pub(super) fn insert(&mut self, pid: ProfileId, value: V) {
        debug_assert!(!self.index.contains_key(&pid), "{pid:?} is already listed");
        let node = Node {
            pid,
            value: Some(value),
            prev: NIL,
            next: NIL,
        };
        let idx = if self.free_head == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let idx = self.free_head;
            self.free_head = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        self.push_front(idx);
        self.index.insert(pid, idx);
    }

    /// Remove `pid` and return its value.
    pub(super) fn remove(&mut self, pid: ProfileId) -> Option<V> {
        let idx = self.index.remove(&pid)?;
        self.unlink(idx);
        let node = &mut self.nodes[idx as usize];
        node.prev = NIL;
        node.next = self.free_head;
        self.free_head = idx;
        node.value.take()
    }

    /// Up to `n` eviction candidates, coldest first. A swap cycle
    /// try-locks each and skips the contended ones (Fig 8), so candidates
    /// beyond the first are needed.
    pub(super) fn coldest_n(&self, n: usize) -> Vec<(ProfileId, V)>
    where
        V: Clone,
    {
        let mut out = Vec::with_capacity(n.min(self.len()));
        let mut idx = self.tail;
        while idx != NIL && out.len() < n {
            let node = &self.nodes[idx as usize];
            out.extend(node.value.clone().map(|v| (node.pid, v)));
            idx = node.prev;
        }
        out
    }

    /// Iterate from most to least recent.
    pub(super) fn iter_mru(&self) -> impl Iterator<Item = (ProfileId, &V)> + '_ {
        let mut idx = self.head;
        std::iter::from_fn(move || {
            if idx == NIL {
                return None;
            }
            let node = &self.nodes[idx as usize];
            idx = node.next;
            node.value.as_ref().map(|v| (node.pid, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> ProfileId {
        ProfileId::new(n)
    }

    fn list(pids: impl IntoIterator<Item = u64>) -> LruList<u64> {
        let mut l = LruList::new();
        for n in pids {
            l.insert(pid(n), n * 10);
        }
        l
    }

    fn coldest(l: &LruList<u64>) -> Option<ProfileId> {
        l.coldest_n(1).first().map(|&(p, _)| p)
    }

    fn mru(l: &LruList<u64>) -> Vec<ProfileId> {
        l.iter_mru().map(|(p, _)| p).collect()
    }

    #[test]
    fn touch_inserts_and_promotes() {
        let mut l = list(1..=3);
        assert_eq!(l.len(), 3);
        assert_eq!(coldest(&l), Some(pid(1)));
        assert_eq!(l.touch(pid(1)), Some(&10));
        assert_eq!(coldest(&l), Some(pid(2)));
        assert_eq!(mru(&l), vec![pid(1), pid(3), pid(2)]);
        assert_eq!(l.touch(pid(9)), None, "touch never inserts");
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn remove_middle_front_back() {
        let mut l = list(1..=5);
        assert_eq!(l.remove(pid(3)), Some(30)); // middle
        assert_eq!(l.remove(pid(5)), Some(50)); // front (most recent)
        assert_eq!(l.remove(pid(1)), Some(10)); // back (coldest)
        assert_eq!(l.remove(pid(3)), None);
        assert_eq!(mru(&l), vec![pid(4), pid(2)]);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn coldest_n_walks_from_tail() {
        let l = list(1..=5);
        assert_eq!(
            l.coldest_n(3),
            vec![(pid(1), 10), (pid(2), 20), (pid(3), 30)]
        );
        assert_eq!(l.coldest_n(10).len(), 5);
        assert!(l.coldest_n(0).is_empty());
    }

    #[test]
    fn slot_reuse_after_removal() {
        let mut l = list(0..100);
        for n in 0..100 {
            assert!(l.remove(pid(n)).is_some());
        }
        assert_eq!(l.len(), 0);
        let nodes_before = l.nodes.len();
        for n in 100..200 {
            l.insert(pid(n), n);
        }
        assert_eq!(l.nodes.len(), nodes_before, "freed slots must be reused");
        assert_eq!(l.len(), 100);
    }

    #[test]
    fn empty_list_edge_cases() {
        let mut l = LruList::<u64>::new();
        assert_eq!(coldest(&l), None);
        assert_eq!(l.remove(pid(1)), None);
        assert!(l.coldest_n(5).is_empty());
        assert_eq!(l.iter_mru().count(), 0);
        // insert after emptiness works
        l.insert(pid(1), 1);
        l.remove(pid(1));
        l.insert(pid(2), 2);
        assert_eq!(coldest(&l), Some(pid(2)));
    }

    #[test]
    fn touch_same_repeatedly_is_stable() {
        let mut l = list([1, 2]);
        for _ in 0..10 {
            l.touch(pid(2));
        }
        assert_eq!(l.len(), 2);
        assert_eq!(coldest(&l), Some(pid(1)));
    }

    #[test]
    fn random_ops_match_reference_model() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut l = LruList::new();
        let mut reference: Vec<(u64, u64)> = Vec::new(); // most recent first
        for step in 0..10_000u64 {
            let n = rng.gen_range(0..50u64);
            let at = reference.iter().position(|&(k, _)| k == n);
            match rng.gen_range(0..5u32) {
                0 => assert_eq!(l.get(pid(n)), at.map(|i| &reference[i].1)),
                1 | 2 => {
                    if at.is_none() {
                        l.insert(pid(n), step);
                        reference.insert(0, (n, step));
                    }
                }
                3 => {
                    let expected = at.map(|i| reference.remove(i));
                    reference.splice(0..0, expected);
                    assert_eq!(l.touch(pid(n)), expected.map(|(_, v)| v).as_ref());
                }
                _ => {
                    let expected = at.map(|i| reference.remove(i).1);
                    assert_eq!(l.remove(pid(n)), expected);
                }
            }
            assert_eq!(l.len(), reference.len());
            let k = rng.gen_range(0..8usize);
            let cold: Vec<(ProfileId, u64)> = reference
                .iter()
                .rev()
                .take(k)
                .map(|&(n, v)| (pid(n), v))
                .collect();
            assert_eq!(l.coldest_n(k), cold);
        }
        let order: Vec<(u64, u64)> = l.iter_mru().map(|(p, &v)| (p.raw(), v)).collect();
        assert_eq!(order, reference);
    }
}
