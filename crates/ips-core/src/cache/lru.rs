//! An indexed doubly-linked LRU list.
//!
//! Each GCache shard owns one of these (Fig 7). Operations are O(1):
//! `touch` moves a profile to the front on access, `pop_candidates` walks
//! from the tail handing eviction candidates to a swap cycle, which may
//! *skip* entries it cannot lock (Fig 8) — so removal by key from the middle
//! must also be O(1).

use std::collections::HashMap;

use ips_types::ProfileId;

const NIL: u32 = u32::MAX;

struct Node {
    pid: ProfileId,
    prev: u32,
    next: u32,
    /// Slot reuse: true when this node is on the free list.
    free: bool,
}

/// An LRU ordering over profile ids. Most-recent at the front.
pub struct LruList {
    nodes: Vec<Node>,
    index: HashMap<ProfileId, u32>,
    head: u32,
    tail: u32,
    free_head: u32,
    len: usize,
}

impl Default for LruList {
    fn default() -> Self {
        Self::new()
    }
}

impl LruList {
    #[must_use]
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            free_head: NIL,
            len: 0,
        }
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[must_use]
    pub fn contains(&self, pid: ProfileId) -> bool {
        self.index.contains_key(&pid)
    }

    fn alloc(&mut self, pid: ProfileId) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.nodes[idx as usize].next;
            let node = &mut self.nodes[idx as usize];
            node.pid = pid;
            node.prev = NIL;
            node.next = NIL;
            node.free = false;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                pid,
                prev: NIL,
                next: NIL,
                free: false,
            });
            idx
        }
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

    /// Mark `pid` as most recently used, inserting it if absent.
    pub fn touch(&mut self, pid: ProfileId) {
        if let Some(&idx) = self.index.get(&pid) {
            if self.head == idx {
                return;
            }
            self.unlink(idx);
            self.push_front(idx);
        } else {
            let idx = self.alloc(pid);
            self.push_front(idx);
            self.index.insert(pid, idx);
            self.len += 1;
        }
    }

    /// Remove `pid` from the list. Returns true if present.
    pub fn remove(&mut self, pid: ProfileId) -> bool {
        let Some(idx) = self.index.remove(&pid) else {
            return false;
        };
        self.unlink(idx);
        let node = &mut self.nodes[idx as usize];
        node.free = true;
        node.prev = NIL;
        node.next = self.free_head;
        self.free_head = idx;
        self.len -= 1;
        true
    }

    /// The least recently used entry, if any.
    #[must_use]
    pub fn coldest(&self) -> Option<ProfileId> {
        if self.tail == NIL {
            None
        } else {
            Some(self.nodes[self.tail as usize].pid)
        }
    }

    /// Up to `n` eviction candidates, coldest first. A swap cycle
    /// try-locks each and skips the contended ones (Fig 8), so candidates
    /// beyond the first are needed.
    #[must_use]
    pub fn coldest_n(&self, n: usize) -> Vec<ProfileId> {
        let mut out = Vec::with_capacity(n.min(self.len));
        let mut idx = self.tail;
        while idx != NIL && out.len() < n {
            let node = &self.nodes[idx as usize];
            out.push(node.pid);
            idx = node.prev;
        }
        out
    }

    /// Iterate from most to least recent (diagnostics).
    pub fn iter_mru(&self) -> impl Iterator<Item = ProfileId> + '_ {
        struct Iter<'a> {
            list: &'a LruList,
            idx: u32,
        }
        impl Iterator for Iter<'_> {
            type Item = ProfileId;
            fn next(&mut self) -> Option<ProfileId> {
                if self.idx == NIL {
                    return None;
                }
                let node = &self.list.nodes[self.idx as usize];
                self.idx = node.next;
                Some(node.pid)
            }
        }
        Iter {
            list: self,
            idx: self.head,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> ProfileId {
        ProfileId::new(n)
    }

    #[test]
    fn touch_inserts_and_promotes() {
        let mut l = LruList::new();
        l.touch(pid(1));
        l.touch(pid(2));
        l.touch(pid(3));
        assert_eq!(l.len(), 3);
        assert_eq!(l.coldest(), Some(pid(1)));
        l.touch(pid(1));
        assert_eq!(l.coldest(), Some(pid(2)));
        let order: Vec<_> = l.iter_mru().collect();
        assert_eq!(order, vec![pid(1), pid(3), pid(2)]);
    }

    #[test]
    fn remove_middle_front_back() {
        let mut l = LruList::new();
        for n in 1..=5 {
            l.touch(pid(n));
        }
        assert!(l.remove(pid(3))); // middle
        assert!(l.remove(pid(5))); // front (most recent)
        assert!(l.remove(pid(1))); // back (coldest)
        assert!(!l.remove(pid(3)));
        let order: Vec<_> = l.iter_mru().collect();
        assert_eq!(order, vec![pid(4), pid(2)]);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn coldest_n_walks_from_tail() {
        let mut l = LruList::new();
        for n in 1..=5 {
            l.touch(pid(n));
        }
        assert_eq!(l.coldest_n(3), vec![pid(1), pid(2), pid(3)]);
        assert_eq!(l.coldest_n(10).len(), 5);
        assert_eq!(l.coldest_n(0), Vec::<ProfileId>::new());
    }

    #[test]
    fn slot_reuse_after_removal() {
        let mut l = LruList::new();
        for n in 0..100 {
            l.touch(pid(n));
        }
        for n in 0..100 {
            assert!(l.remove(pid(n)));
        }
        assert!(l.is_empty());
        let nodes_before = l.nodes.len();
        for n in 100..200 {
            l.touch(pid(n));
        }
        assert_eq!(l.nodes.len(), nodes_before, "freed slots must be reused");
        assert_eq!(l.len(), 100);
    }

    #[test]
    fn empty_list_edge_cases() {
        let mut l = LruList::new();
        assert_eq!(l.coldest(), None);
        assert!(!l.remove(pid(1)));
        assert!(l.coldest_n(5).is_empty());
        assert_eq!(l.iter_mru().count(), 0);
        // touch after emptiness works
        l.touch(pid(1));
        l.remove(pid(1));
        l.touch(pid(2));
        assert_eq!(l.coldest(), Some(pid(2)));
    }

    #[test]
    fn touch_same_repeatedly_is_stable() {
        let mut l = LruList::new();
        l.touch(pid(1));
        l.touch(pid(2));
        for _ in 0..10 {
            l.touch(pid(2));
        }
        assert_eq!(l.len(), 2);
        assert_eq!(l.coldest(), Some(pid(1)));
    }

    #[test]
    fn random_ops_match_reference_model() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut l = LruList::new();
        let mut reference: Vec<u64> = Vec::new(); // most recent first
        for _ in 0..10_000 {
            let n = rng.gen_range(0..50u64);
            if rng.gen_bool(0.7) {
                l.touch(pid(n));
                reference.retain(|&x| x != n);
                reference.insert(0, n);
            } else {
                let removed = l.remove(pid(n));
                let was_there = reference.contains(&n);
                assert_eq!(removed, was_there);
                reference.retain(|&x| x != n);
            }
            assert_eq!(l.len(), reference.len());
        }
        let order: Vec<u64> = l.iter_mru().map(|p| p.raw()).collect();
        assert_eq!(order, reference);
    }
}
