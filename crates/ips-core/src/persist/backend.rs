//! The storage backend abstraction the persistence layer writes through.
//!
//! `ips-core` only needs reads (`get`, `get_many`), the versioned pair of
//! Fig 14 (`xget`/`xset`, which also writes slice values create-only at
//! generation 0) and deletes, so the cluster layer can plug in
//! a bare node, a replicated group, or a region-routed view without this
//! crate knowing.

use bytes::Bytes;

use ips_kv::{Generation, KvNode, RecoveryStats, ReplicatedKv};
use ips_types::Result;

/// Storage verbs used by [`super::ProfilePersister`].
pub trait ProfileStore: Send + Sync {
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>>;
    /// Batched read: many keys in one round trip, results in input order.
    /// The default loops over [`ProfileStore::get`] so existing backends
    /// stay correct; backends with a native multi-get should override it to
    /// amortize per-op service cost (the loader depends on that to fetch
    /// all projected slices in one call).
    fn get_many(&self, keys: &[Bytes]) -> Result<Vec<Option<Bytes>>> {
        keys.iter().map(|k| self.get(k)).collect()
    }
    fn xget(&self, key: &[u8]) -> Result<(Option<Bytes>, Generation)>;
    fn xset(&self, key: Bytes, value: Bytes, held: Generation) -> Result<Generation>;
    /// Returns true if it removed a value.
    fn delete(&self, key: &[u8]) -> Result<bool>;
    /// Cumulative WAL-recovery health of the durable store beneath this
    /// backend (torn tails truncated, corruption skipped, checkpoint use).
    /// The default reports all-zeros for backends with no durability layer.
    fn recovery_stats(&self) -> RecoveryStats {
        RecoveryStats::default()
    }
    /// Whether writes through this store persist. A store that drops them
    /// (a region that reads a local replica, §III-G) returns `false`, and
    /// [`super::ProfilePersister::save`] then does no write-back work.
    fn is_persisting(&self) -> bool {
        true
    }
}

impl ProfileStore for KvNode {
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        KvNode::get(self, key)
    }
    fn get_many(&self, keys: &[Bytes]) -> Result<Vec<Option<Bytes>>> {
        KvNode::get_many(self, keys)
    }
    fn xget(&self, key: &[u8]) -> Result<(Option<Bytes>, Generation)> {
        KvNode::xget(self, key)
    }
    fn xset(&self, key: Bytes, value: Bytes, held: Generation) -> Result<Generation> {
        KvNode::xset(self, key, value, held)
    }
    fn delete(&self, key: &[u8]) -> Result<bool> {
        KvNode::delete(self, key)
    }
    fn recovery_stats(&self) -> RecoveryStats {
        KvNode::recovery_stats(self)
    }
}

/// Writes go to the master; reads use the master too (the local-replica read
/// path is provided by the cluster layer's region view).
impl ProfileStore for ReplicatedKv {
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        self.get_master(key)
    }
    fn get_many(&self, keys: &[Bytes]) -> Result<Vec<Option<Bytes>>> {
        self.get_many_master(keys)
    }
    fn xget(&self, key: &[u8]) -> Result<(Option<Bytes>, Generation)> {
        self.xget_master(key)
    }
    fn xset(&self, key: Bytes, value: Bytes, held: Generation) -> Result<Generation> {
        ReplicatedKv::xset(self, key, value, held)
    }
    fn delete(&self, key: &[u8]) -> Result<bool> {
        ReplicatedKv::delete(self, key)
    }
    /// Recovery health of the master — the node whose WAL is authoritative.
    fn recovery_stats(&self) -> RecoveryStats {
        self.master().recovery_stats()
    }
}

impl<T: ProfileStore + ?Sized> ProfileStore for std::sync::Arc<T> {
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        (**self).get(key)
    }
    fn get_many(&self, keys: &[Bytes]) -> Result<Vec<Option<Bytes>>> {
        (**self).get_many(keys)
    }
    fn xget(&self, key: &[u8]) -> Result<(Option<Bytes>, Generation)> {
        (**self).xget(key)
    }
    fn xset(&self, key: Bytes, value: Bytes, held: Generation) -> Result<Generation> {
        (**self).xset(key, value, held)
    }
    fn delete(&self, key: &[u8]) -> Result<bool> {
        (**self).delete(key)
    }
    fn recovery_stats(&self) -> RecoveryStats {
        (**self).recovery_stats()
    }
    fn is_persisting(&self) -> bool {
        (**self).is_persisting()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_kv::KvNodeConfig;
    use std::sync::Arc;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn kv_node_implements_store() {
        let node = KvNode::new("n", KvNodeConfig::default()).unwrap();
        let store: &dyn ProfileStore = &node;
        store.xset(b("k"), b("v"), 0).unwrap();
        assert_eq!(store.get(b"k").unwrap(), Some(b("v")));
        let (_, g) = store.xget(b"k").unwrap();
        store.xset(b("k"), b("v2"), g).unwrap();
        assert!(store.delete(b"k").unwrap());
    }

    #[test]
    fn arc_forwarding_works() {
        let node = Arc::new(KvNode::new("n", KvNodeConfig::default()).unwrap());
        let store: Arc<dyn ProfileStore> = node;
        store.xset(b("k"), b("v"), 0).unwrap();
        assert_eq!(store.get(b"k").unwrap(), Some(b("v")));
    }

    #[test]
    fn get_many_forwards_to_native_multi_get_through_arc() {
        let node = Arc::new(KvNode::new("n", KvNodeConfig::default()).unwrap());
        node.set(b("a"), b("1")).unwrap();
        node.set(b("b"), b("2")).unwrap();
        let store: Arc<dyn ProfileStore> = Arc::clone(&node) as Arc<dyn ProfileStore>;
        let ops_before = node.stats().ops;
        let got = store.get_many(&[b("a"), b("missing"), b("b")]).unwrap();
        assert_eq!(got, vec![Some(b("1")), None, Some(b("2"))]);
        // The Arc impl must forward to the node's single-op batch, not fall
        // back to the default per-key loop.
        assert_eq!(node.stats().ops, ops_before + 1);
    }

    #[test]
    fn get_many_is_one_master_op_for_replicated() {
        let master = Arc::new(KvNode::new("m", KvNodeConfig::default()).unwrap());
        let group = ReplicatedKv::new(
            Arc::clone(&master),
            Vec::new(),
            ips_kv::ReplicaReadMode::AllowStale,
        );
        let store: &dyn ProfileStore = &group;
        store.xset(b("k1"), b("v1"), 0).unwrap();
        let ops_before = master.stats().ops;
        let got = store.get_many(&[b("k1"), b("k2")]).unwrap();
        assert_eq!(got, vec![Some(b("v1")), None]);
        assert_eq!(master.stats().ops, ops_before + 1);
    }

    #[test]
    fn recovery_stats_plumb_through() {
        // Memory-only node: no durability layer, all-zeros report.
        let plain = KvNode::new("p", KvNodeConfig::default()).unwrap();
        let store: &dyn ProfileStore = &plain;
        assert_eq!(store.recovery_stats(), RecoveryStats::default());

        // WAL-backed node: construction itself is one recovery pass, and the
        // trait surfaces it (through Arc and ReplicatedKv too).
        let storage = Arc::new(ips_kv::MemStorage::new());
        let node =
            Arc::new(KvNode::with_wal_storage("d", KvNodeConfig::default(), storage).unwrap());
        let group = ReplicatedKv::new(
            Arc::clone(&node),
            Vec::new(),
            ips_kv::ReplicaReadMode::AllowStale,
        );
        let store: &dyn ProfileStore = &group;
        assert_eq!(store.recovery_stats().recoveries, 1);
    }

    #[test]
    fn replicated_store_goes_through_master() {
        let master = Arc::new(KvNode::new("m", KvNodeConfig::default()).unwrap());
        let replica = Arc::new(KvNode::new("r", KvNodeConfig::default()).unwrap());
        let group = ReplicatedKv::new(
            Arc::clone(&master),
            vec![replica],
            ips_kv::ReplicaReadMode::AllowStale,
        );
        let store: &dyn ProfileStore = &group;
        store.xset(b("k"), b("v"), 0).unwrap();
        assert_eq!(master.get(b"k").unwrap(), Some(b("v")));
        assert_eq!(store.get(b"k").unwrap(), Some(b("v")));
    }
}
