//! The versioned, sharded in-memory store.
//!
//! Every value carries a [`Generation`]: a store-wide monotonically
//! increasing version assigned on write. The profile persistence protocol
//! (Fig 14) uses generations to order head and slice updates —
//! an `xset` holding a stale generation is rejected so the caller reloads
//! before retrying, and an `xget` returns the generation the caller must
//! present on its next conditional write.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::RwLock;

use ips_types::{IpsError, Result};

/// A store-wide monotonically increasing version number.
pub type Generation = u64;

/// A value together with the generation of the write that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VersionedValue {
    pub data: Bytes,
    pub generation: Generation,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Bytes, VersionedValue>,
}

/// A sharded map of `Bytes -> VersionedValue`.
///
/// Shard count is fixed at construction; keys are assigned by FNV hash, so a
/// given key always lands in the same shard regardless of map growth.
pub struct VersionedStore {
    shards: Box<[RwLock<Shard>]>,
    next_gen: AtomicU64,
    approx_bytes: AtomicU64,
}

fn fnv(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl VersionedStore {
    /// A store with `shards` shards (rounded up to at least 1).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1);
        Self {
            shards: (0..n).map(|_| RwLock::new(Shard::default())).collect(),
            next_gen: AtomicU64::new(1),
            approx_bytes: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &[u8]) -> &RwLock<Shard> {
        let idx = (fnv(key) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    fn alloc_gen(&self) -> Generation {
        self.next_gen.fetch_add(1, Ordering::Relaxed)
    }

    /// Unconditional write. Returns the new generation.
    pub fn set(&self, key: Bytes, value: Bytes) -> Generation {
        let generation = self.alloc_gen();
        let entry = VersionedValue {
            data: value,
            generation,
        };
        let mut shard = self.shard_for(&key).write();
        let new_val_len = entry.data.len() as i64;
        let added = (key.len() + entry.data.len()) as u64;
        if let Some(old) = shard.map.insert(key, entry) {
            // Key bytes were already accounted on first insert.
            let delta = new_val_len - old.data.len() as i64;
            if delta >= 0 {
                self.approx_bytes.fetch_add(delta as u64, Ordering::Relaxed);
            } else {
                self.approx_bytes
                    .fetch_sub((-delta) as u64, Ordering::Relaxed);
            }
        } else {
            self.approx_bytes.fetch_add(added, Ordering::Relaxed);
        }
        generation
    }

    /// Plain read; `None` for absent keys.
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.shard_for(key)
            .read()
            .map
            .get(key)
            .map(|v| v.data.clone())
    }

    /// Versioned read: the value (if any) plus the generation the caller
    /// must hold for a subsequent [`VersionedStore::xset`]. For an absent key
    /// the generation is 0, which any first write supersedes.
    #[must_use]
    pub fn xget(&self, key: &[u8]) -> (Option<Bytes>, Generation) {
        match self.shard_for(key).read().map.get(key) {
            Some(v) => (Some(v.data.clone()), v.generation),
            None => (None, 0),
        }
    }

    /// Conditional write: succeeds only when `held` is at least the current
    /// generation of the key (i.e. the caller has seen the latest value).
    /// On success returns the new generation; on failure returns
    /// [`IpsError::StaleGeneration`] and the caller must re-read (Fig 14).
    pub fn xset(&self, key: Bytes, value: Bytes, held: Generation) -> Result<Generation> {
        let mut shard = self.shard_for(&key).write();
        let current = shard.map.get(&key).map_or(0, |v| v.generation);
        if held < current {
            return Err(IpsError::StaleGeneration { held, current });
        }
        let generation = self.alloc_gen();
        let entry = VersionedValue {
            data: value,
            generation,
        };
        let new_val_len = entry.data.len() as i64;
        let added = (key.len() + entry.data.len()) as u64;
        if let Some(old) = shard.map.insert(key, entry) {
            let delta = new_val_len - old.data.len() as i64;
            if delta >= 0 {
                self.approx_bytes.fetch_add(delta as u64, Ordering::Relaxed);
            } else {
                self.approx_bytes
                    .fetch_sub((-delta) as u64, Ordering::Relaxed);
            }
        } else {
            self.approx_bytes.fetch_add(added, Ordering::Relaxed);
        }
        Ok(generation)
    }

    /// Remove a key. Returns true if it existed.
    pub fn delete(&self, key: &[u8]) -> bool {
        let Some(old) = self.shard_for(key).write().map.remove(key) else {
            return false;
        };
        self.approx_bytes
            .fetch_sub((key.len() + old.data.len()) as u64, Ordering::Relaxed);
        true
    }

    /// Apply a write that originated elsewhere (replication), preserving the
    /// origin's generation. Applies only if newer than what is present, so
    /// replication is idempotent and reordering-safe.
    pub fn apply_replicated(&self, key: Bytes, value: VersionedValue) -> bool {
        let mut shard = self.shard_for(&key).write();
        let current = shard.map.get(&key).map_or(0, |v| v.generation);
        if value.generation <= current {
            return false;
        }
        // Keep the local generation counter ahead of anything replicated in,
        // so local writes still produce fresh generations.
        self.next_gen
            .fetch_max(value.generation + 1, Ordering::Relaxed);
        let new_val_len = value.data.len() as i64;
        let added = (key.len() + value.data.len()) as u64;
        if let Some(old) = shard.map.insert(key, value) {
            let delta = new_val_len - old.data.len() as i64;
            if delta >= 0 {
                self.approx_bytes.fetch_add(delta as u64, Ordering::Relaxed);
            } else {
                self.approx_bytes
                    .fetch_sub((-delta) as u64, Ordering::Relaxed);
            }
        } else {
            self.approx_bytes.fetch_add(added, Ordering::Relaxed);
        }
        true
    }

    /// Read including the generation (used by replication senders).
    #[must_use]
    pub fn get_versioned(&self, key: &[u8]) -> Option<VersionedValue> {
        self.shard_for(key).read().map.get(key).cloned()
    }

    /// Total number of keys across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().map.len()).sum()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes (keys + values).
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        self.approx_bytes.load(Ordering::Relaxed)
    }

    /// Snapshot all entries (for replication bootstrap and tests). Not
    /// atomic across shards; fine for its uses.
    #[must_use]
    pub fn scan_all(&self) -> Vec<(Bytes, VersionedValue)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let guard = shard.read();
            out.extend(guard.map.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out
    }

    /// Drop everything (crash simulation: memory is gone, WAL survives).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.write().map.clear();
        }
        self.approx_bytes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn set_get_round_trip() {
        let s = VersionedStore::new(4);
        s.set(b("k1"), b("v1"));
        assert_eq!(s.get(b"k1"), Some(b("v1")));
        assert_eq!(s.get(b"nope"), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn generations_increase_monotonically() {
        let s = VersionedStore::new(4);
        let g1 = s.set(b("k"), b("v1"));
        let g2 = s.set(b("k"), b("v2"));
        let g3 = s.set(b("other"), b("x"));
        assert!(g1 < g2 && g2 < g3);
        assert_eq!(s.get(b"k"), Some(b("v2")));
    }

    #[test]
    fn xget_of_absent_key_is_gen_zero() {
        let s = VersionedStore::new(4);
        let (v, g) = s.xget(b"nope");
        assert!(v.is_none());
        assert_eq!(g, 0);
    }

    #[test]
    fn xset_with_current_generation_succeeds() {
        let s = VersionedStore::new(4);
        let (_, g0) = s.xget(b"k");
        let g1 = s.xset(b("k"), b("v1"), g0).unwrap();
        let (v, g) = s.xget(b"k");
        assert_eq!(v, Some(b("v1")));
        assert_eq!(g, g1);
        let g2 = s.xset(b("k"), b("v2"), g1).unwrap();
        assert!(g2 > g1);
    }

    #[test]
    fn xset_with_stale_generation_fails() {
        let s = VersionedStore::new(4);
        let g1 = s.xset(b("k"), b("v1"), 0).unwrap();
        let _g2 = s.xset(b("k"), b("v2"), g1).unwrap();
        // A second writer still holding g1 must be told to reload.
        match s.xset(b("k"), b("v3"), g1) {
            Err(IpsError::StaleGeneration { held, current }) => {
                assert_eq!(held, g1);
                assert!(current > g1);
            }
            other => panic!("expected StaleGeneration, got {other:?}"),
        }
        assert_eq!(s.get(b"k"), Some(b("v2")));
    }

    #[test]
    fn delete_removes() {
        let s = VersionedStore::new(4);
        s.set(b("k"), b("v"));
        assert!(s.delete(b"k"));
        assert!(!s.delete(b"k"));
        assert_eq!(s.get(b"k"), None);
        assert_eq!(s.approx_bytes(), 0);
    }

    #[test]
    fn replication_apply_is_idempotent_and_ordered() {
        let s = VersionedStore::new(4);
        let newer = VersionedValue {
            data: b("new"),
            generation: 10,
        };
        let older = VersionedValue {
            data: b("old"),
            generation: 5,
        };
        assert!(s.apply_replicated(b("k"), newer.clone()));
        assert!(!s.apply_replicated(b("k"), older), "older gen must not win");
        assert!(!s.apply_replicated(b("k"), newer), "same gen is a no-op");
        assert_eq!(s.get(b"k"), Some(b("new")));
        // Local writes after replication must produce fresher generations.
        let g = s.set(b("k2"), b("x"));
        assert!(g > 10);
    }

    #[test]
    fn byte_accounting_tracks_inserts_updates_deletes() {
        let s = VersionedStore::new(2);
        assert_eq!(s.approx_bytes(), 0);
        s.set(b("key"), b("12345"));
        let after_insert = s.approx_bytes();
        assert!(after_insert >= 8);
        s.set(b("key"), b("1234567890"));
        assert!(s.approx_bytes() > after_insert);
        s.delete(b"key");
        assert_eq!(s.approx_bytes(), 0);
    }

    #[test]
    fn scan_and_clear() {
        let s = VersionedStore::new(8);
        for i in 0..100u32 {
            s.set(
                Bytes::from(i.to_le_bytes().to_vec()),
                Bytes::from(vec![0u8; 10]),
            );
        }
        assert_eq!(s.scan_all().len(), 100);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.approx_bytes(), 0);
    }

    #[test]
    fn concurrent_writers_disjoint_keys() {
        use std::sync::Arc;
        let s = Arc::new(VersionedStore::new(16));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        let key = Bytes::from((t * 1_000_000 + i).to_le_bytes().to_vec());
                        s.set(key, Bytes::from_static(b"v"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 8_000);
    }

    #[test]
    fn concurrent_xset_same_key_exactly_one_lineage() {
        use std::sync::Arc;
        let s = Arc::new(VersionedStore::new(4));
        s.set(b("k"), b("init"));
        let success = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                let success = Arc::clone(&success);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let (_, g) = s.xget(b"k");
                        if s.xset(b("k"), b("w"), g).is_ok() {
                            success.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // At least one write per thread round wins; no panics, no lost map.
        assert!(success.load(Ordering::Relaxed) > 0);
        assert!(s.get(b"k").is_some());
    }
}
