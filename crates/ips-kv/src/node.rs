//! A deployable KV node: versioned store + optional WAL + fault switch.
//!
//! The cluster layer composes these into master/replica groups. Fault
//! injection covers the failure modes the availability experiment (Fig 17)
//! exercises: a node can be marked down (connection refused), given a random
//! error probability (flaky network / overloaded region server), or crashed
//! (memory lost, WAL replayed on restart). The WAL's own storage faults
//! (torn writes, failed fsyncs, bit rot) are injected one level down, via
//! [`crate::wal::storage::MemStorage`] and [`KvNode::with_wal_storage`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ips_metrics::Counter;
use ips_types::{IpsError, Result, WalConfig};

use crate::store::{Generation, VersionedStore, VersionedValue};
use crate::wal::storage::WalStorage;
use crate::wal::{RecoveryReport, Wal, WalMetrics, WalRecord};

/// Construction-time options for a node.
#[derive(Clone, Debug)]
pub struct KvNodeConfig {
    /// Shards in the in-memory map.
    pub shards: usize,
    /// WAL directory; `None` disables durability (pure-memory node, fine for
    /// benchmarks that do not crash it).
    pub wal_path: Option<PathBuf>,
    /// Segmented-WAL tuning (segment size, recovery mode).
    pub wal: WalConfig,
}

impl Default for KvNodeConfig {
    fn default() -> Self {
        Self {
            shards: 16,
            wal_path: None,
            wal: WalConfig::default(),
        }
    }
}

/// Cumulative recovery health for one node: what its WAL replays saw across
/// every construction/restart. Dashboards watch `torn_tails` (expected,
/// bounded) and `corrupt_events` (alarming) separately — the whole point of
/// distinguishing them at replay time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Recovery passes (construction + restarts).
    pub recoveries: u64,
    /// Segment records replayed, totalled.
    pub records_replayed: u64,
    /// Checkpoint entries loaded, totalled.
    pub checkpoint_entries: u64,
    /// Torn tails truncated, totalled.
    pub torn_tails: u64,
    /// Bytes dropped in torn tails, totalled.
    pub torn_bytes: u64,
    /// Mid-log corruption events skipped (salvage mode), totalled.
    pub corrupt_events: u64,
    /// The most recent recovery loaded a checkpoint snapshot.
    pub last_used_checkpoint: bool,
    /// Segments scanned by the most recent recovery.
    pub last_segments_scanned: u64,
}

impl RecoveryStats {
    fn absorb(&mut self, report: &RecoveryReport) {
        self.recoveries += 1;
        self.records_replayed += report.records_replayed;
        self.checkpoint_entries += report.checkpoint_entries;
        self.torn_tails += report.torn_tails;
        self.torn_bytes += report.torn_bytes;
        self.corrupt_events += report.corrupt_events;
        self.last_used_checkpoint = report.used_checkpoint;
        self.last_segments_scanned = report.segments_scanned;
    }
}

/// A single storage node.
pub struct KvNode {
    name: String,
    config: KvNodeConfig,
    store: VersionedStore,
    wal: Option<Wal>,
    /// Write-side gate for checkpoints: every mutation holds a read guard
    /// across (store apply + WAL append), and `checkpoint` takes the write
    /// guard while sealing the log, so no record at or below the checkpoint
    /// LSN can be missing from the snapshot.
    write_gate: RwLock<()>,
    recovery: Mutex<RecoveryStats>,
    down: AtomicBool,
    /// Probability (scaled by 1e6) that an op fails with a transient error.
    error_ppm: AtomicU64,
    rng_seed: AtomicU64,
    pub ops: Counter,
    pub failures: Counter,
}

impl KvNode {
    /// Create a node; replays the WAL (if configured) to recover state.
    pub fn new(name: impl Into<String>, config: KvNodeConfig) -> Result<Self> {
        let wal = match &config.wal_path {
            Some(path) => Some(Wal::open_with(path, config.wal)?),
            None => None,
        };
        Self::finish_construction(name, config, wal)
    }

    /// Create a node whose WAL lives on an injected storage backend (fault
    /// testing / crash torture); `wal_path` is ignored.
    pub fn with_wal_storage(
        name: impl Into<String>,
        config: KvNodeConfig,
        storage: Arc<dyn WalStorage>,
    ) -> Result<Self> {
        let wal = Some(Wal::with_storage(storage, config.wal)?);
        Self::finish_construction(name, config, wal)
    }

    fn finish_construction(
        name: impl Into<String>,
        config: KvNodeConfig,
        wal: Option<Wal>,
    ) -> Result<Self> {
        let store = VersionedStore::new(config.shards);
        let mut recovery = RecoveryStats::default();
        if let Some(wal) = &wal {
            let (records, report) = wal.recover()?;
            Self::apply_records(&store, records);
            recovery.absorb(&report);
        }
        Ok(Self {
            name: name.into(),
            config,
            store,
            wal,
            write_gate: RwLock::new(()),
            recovery: Mutex::new(recovery),
            down: AtomicBool::new(false),
            error_ppm: AtomicU64::new(0),
            rng_seed: AtomicU64::new(0x5eed),
            ops: Counter::new(),
            failures: Counter::new(),
        })
    }

    fn apply_records(store: &VersionedStore, records: Vec<WalRecord>) {
        for rec in records {
            match rec {
                WalRecord::Set {
                    key,
                    value,
                    generation,
                } => {
                    store.apply_replicated(
                        key,
                        VersionedValue {
                            data: value,
                            generation,
                        },
                    );
                }
                WalRecord::Delete { key } => {
                    store.delete(&key);
                }
            }
        }
    }

    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Direct access to the underlying store (replication internals).
    #[must_use]
    pub fn store(&self) -> &VersionedStore {
        &self.store
    }

    // ---- fault injection -------------------------------------------------

    /// Mark the node down/up. Down nodes refuse every operation.
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
    }

    #[must_use]
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    /// Inject a transient failure probability (0.0–1.0) for each operation.
    pub fn set_error_rate(&self, p: f64) {
        self.error_ppm
            .store((p.clamp(0.0, 1.0) * 1e6) as u64, Ordering::SeqCst);
    }

    /// Simulate a crash: all in-memory state is lost. If the node has a WAL
    /// the data comes back on [`KvNode::restart`]; otherwise it is gone.
    pub fn crash(&self) {
        self.store.clear();
        self.set_down(true);
    }

    /// Restart after a crash: replay the WAL into the (empty) store and come
    /// back up.
    pub fn restart(&self) -> Result<()> {
        if let Some(wal) = &self.wal {
            let (records, report) = wal.recover()?;
            Self::apply_records(&self.store, records);
            self.recovery.lock().absorb(&report);
        }
        self.set_down(false);
        Ok(())
    }

    fn check_available(&self) -> Result<()> {
        if self.is_down() {
            self.failures.inc();
            return Err(IpsError::Unavailable(format!(
                "kv node {} is down",
                self.name
            )));
        }
        let ppm = self.error_ppm.load(Ordering::Relaxed);
        if ppm > 0 {
            // Cheap thread-mixed PRNG; determinism per node is enough.
            let seed = self
                .rng_seed
                .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
            let mut rng = SmallRng::seed_from_u64(seed);
            if rng.gen_range(0..1_000_000u64) < ppm {
                self.failures.inc();
                return Err(IpsError::Storage(format!(
                    "kv node {}: injected transient error",
                    self.name
                )));
            }
        }
        Ok(())
    }

    // ---- data plane ------------------------------------------------------

    /// Unconditional write (bulk persistence, Fig 12).
    pub fn set(&self, key: Bytes, value: Bytes) -> Result<Generation> {
        self.check_available()?;
        self.ops.inc();
        let _in_flight = self.write_gate.read();
        let generation = self.store.set(key.clone(), value.clone());
        if let Some(wal) = &self.wal {
            wal.append(&WalRecord::Set {
                key,
                value,
                generation,
            })?;
        }
        Ok(generation)
    }

    /// Plain read.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        self.check_available()?;
        self.ops.inc();
        Ok(self.store.get(key))
    }

    /// Batched plain read (multi-get): one round trip answering many keys,
    /// in input order. Availability is checked and the op counter bumped
    /// once per batch — amortizing the per-op service cost is the whole
    /// point of multi-get (the split-profile loader fetches every projected
    /// slice in a single call instead of N sequential gets).
    pub fn get_many(&self, keys: &[Bytes]) -> Result<Vec<Option<Bytes>>> {
        self.check_available()?;
        self.ops.inc();
        Ok(keys.iter().map(|k| self.store.get(k)).collect())
    }

    /// Versioned read (split persistence, Fig 14).
    pub fn xget(&self, key: &[u8]) -> Result<(Option<Bytes>, Generation)> {
        self.check_available()?;
        self.ops.inc();
        Ok(self.store.xget(key))
    }

    /// Conditional versioned write (split persistence, Fig 14).
    pub fn xset(&self, key: Bytes, value: Bytes, held: Generation) -> Result<Generation> {
        self.check_available()?;
        self.ops.inc();
        let _in_flight = self.write_gate.read();
        let generation = self.store.xset(key.clone(), value.clone(), held)?;
        if let Some(wal) = &self.wal {
            wal.append(&WalRecord::Set {
                key,
                value,
                generation,
            })?;
        }
        Ok(generation)
    }

    /// Delete a key. Returns true if it removed a value.
    pub fn delete(&self, key: &[u8]) -> Result<bool> {
        self.check_available()?;
        self.ops.inc();
        let _in_flight = self.write_gate.read();
        let existed = self.store.delete(key);
        if existed {
            if let Some(wal) = &self.wal {
                wal.append(&WalRecord::Delete {
                    key: Bytes::copy_from_slice(key),
                })?;
            }
        }
        Ok(existed)
    }

    /// Checkpoint the WAL: write one snapshot record per live key to a
    /// durable checkpoint file, then retire the covered segments. Bounds
    /// recovery time for long-lived nodes whose log would otherwise replay
    /// every write ever made. Crash-safe at every step: the old checkpoint
    /// plus segments stay authoritative until the new snapshot is fsync'd
    /// and published. No-op without a WAL. Returns the snapshot entry count.
    pub fn checkpoint(&self) -> Result<usize> {
        let Some(wal) = &self.wal else {
            return Ok(0);
        };
        // Seal under the write gate: with no mutation in flight, every
        // record at or below the checkpoint LSN is already in the store, so
        // the snapshot below is a superset of what the sealed segments hold.
        // Writes resume as soon as the gate drops — the snapshot may then
        // include newer state too, which is fine: replay is generation-gated
        // and idempotent.
        let ticket = {
            let _barrier = self.write_gate.write();
            wal.begin_checkpoint()?
        };
        let entries: Vec<WalRecord> = self
            .store
            .scan_all()
            .into_iter()
            .map(|(key, value)| WalRecord::Set {
                key,
                value: value.data,
                generation: value.generation,
            })
            .collect();
        let stats = wal.finish_checkpoint(ticket, &entries)?;
        Ok(stats.entries)
    }

    /// Cumulative recovery health across this node's replays.
    #[must_use]
    pub fn recovery_stats(&self) -> RecoveryStats {
        *self.recovery.lock()
    }

    /// The WAL's own health counters, when durability is enabled.
    #[must_use]
    pub fn wal_metrics(&self) -> Option<&WalMetrics> {
        self.wal.as_ref().map(Wal::metrics)
    }

    /// Total bytes in the WAL directory (segments + checkpoint).
    pub fn wal_size_bytes(&self) -> Result<u64> {
        match &self.wal {
            Some(wal) => wal.size_bytes(),
            None => Ok(0),
        }
    }

    /// Node stats for dashboards/harnesses.
    #[must_use]
    pub fn stats(&self) -> KvNodeStats {
        KvNodeStats {
            keys: self.store.len(),
            approx_bytes: self.store.approx_bytes(),
            ops: self.ops.get(),
            failures: self.failures.get(),
            down: self.is_down(),
        }
    }

    /// The node's configuration.
    #[must_use]
    pub fn config(&self) -> &KvNodeConfig {
        &self.config
    }
}

/// A point-in-time view of node health.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvNodeStats {
    pub keys: usize,
    pub approx_bytes: u64,
    pub ops: u64,
    pub failures: u64,
    pub down: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::storage::{FaultPlan, MemStorage};
    use ips_types::RecoveryMode;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn tmp_wal(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "ips-kvnode-test-{}-{}-{name}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        p
    }

    #[test]
    fn memory_node_basics() {
        let n = KvNode::new("n1", KvNodeConfig::default()).unwrap();
        n.set(b("k"), b("v")).unwrap();
        assert_eq!(n.get(b"k").unwrap(), Some(b("v")));
        assert!(n.delete(b"k").unwrap());
        assert_eq!(n.get(b"k").unwrap(), None);
        assert_eq!(n.stats().ops, 4);
    }

    #[test]
    fn get_many_is_one_op() {
        let n = KvNode::new("n1", KvNodeConfig::default()).unwrap();
        n.set(b("a"), b("1")).unwrap();
        n.set(b("c"), b("3")).unwrap();
        let ops_before = n.stats().ops;
        let got = n.get_many(&[b("a"), b("b"), b("c")]).unwrap();
        assert_eq!(got, vec![Some(b("1")), None, Some(b("3"))]);
        assert_eq!(n.stats().ops, ops_before + 1, "multi-get is one op");
    }

    #[test]
    fn down_node_refuses_everything() {
        let n = KvNode::new("n1", KvNodeConfig::default()).unwrap();
        n.set_down(true);
        assert!(matches!(n.get(b"k"), Err(IpsError::Unavailable(_))));
        assert!(n.set(b("k"), b("v")).is_err());
        n.set_down(false);
        assert!(n.get(b"k").unwrap().is_none());
        assert!(n.stats().failures >= 2);
    }

    #[test]
    fn error_injection_fails_sometimes() {
        let n = KvNode::new("flaky", KvNodeConfig::default()).unwrap();
        n.set_error_rate(0.5);
        let mut failures = 0;
        for _ in 0..200 {
            if n.get(b"k").is_err() {
                failures += 1;
            }
        }
        assert!(
            (40..160).contains(&failures),
            "expected ~100 failures at 50%, got {failures}"
        );
        n.set_error_rate(0.0);
        assert!(n.get(b"k").is_ok());
    }

    #[test]
    fn crash_without_wal_loses_data() {
        let n = KvNode::new("volatile", KvNodeConfig::default()).unwrap();
        n.set(b("k"), b("v")).unwrap();
        n.crash();
        assert!(n.get(b"k").is_err(), "down after crash");
        n.restart().unwrap();
        assert_eq!(n.get(b"k").unwrap(), None, "no WAL, data gone");
    }

    #[test]
    fn crash_with_wal_recovers_data() {
        let path = tmp_wal("recover");
        let n = KvNode::new(
            "durable",
            KvNodeConfig {
                wal_path: Some(path.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        let g1 = n.set(b("k1"), b("v1")).unwrap();
        n.set(b("k2"), b("v2")).unwrap();
        n.delete(b"k2").unwrap();
        n.xset(b("k1"), b("v1b"), g1).unwrap();
        n.crash();
        n.restart().unwrap();
        assert_eq!(n.get(b"k1").unwrap(), Some(b("v1b")));
        assert_eq!(n.get(b"k2").unwrap(), None);
        // Generations continue past the recovered ones.
        let (_, g) = n.xget(b"k1").unwrap();
        let g_new = n.set(b("k3"), b("x")).unwrap();
        assert!(g_new > g);
        let stats = n.recovery_stats();
        assert_eq!(stats.recoveries, 2, "construction + restart");
        assert_eq!(stats.torn_tails, 0);
        std::fs::remove_dir_all(&path).ok();
    }

    #[test]
    fn reopen_from_wal_dir() {
        let path = tmp_wal("reopen");
        {
            let n = KvNode::new(
                "durable",
                KvNodeConfig {
                    wal_path: Some(path.clone()),
                    ..Default::default()
                },
            )
            .unwrap();
            n.set(b("persisted"), b("yes")).unwrap();
        }
        let n2 = KvNode::new(
            "durable",
            KvNodeConfig {
                wal_path: Some(path.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(n2.get(b"persisted").unwrap(), Some(b("yes")));
        std::fs::remove_dir_all(&path).ok();
    }

    #[test]
    fn checkpoint_shrinks_wal_and_preserves_state() {
        let path = tmp_wal("checkpoint");
        let n = KvNode::new(
            "durable",
            KvNodeConfig {
                wal_path: Some(path.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        // 100 overwrites of 10 keys: the log holds 100 records.
        for i in 0..100u64 {
            n.set(
                Bytes::from((i % 10).to_le_bytes().to_vec()),
                Bytes::from(vec![i as u8; 64]),
            )
            .unwrap();
        }
        let wal_before = n.wal_size_bytes().unwrap();
        let live = n.checkpoint().unwrap();
        assert_eq!(live, 10, "one record per live key");
        let wal_after = n.wal_size_bytes().unwrap();
        assert!(
            wal_after < wal_before / 5,
            "checkpoint must shrink the log: {wal_before} -> {wal_after}"
        );
        // Crash and recover from the checkpointed log.
        n.crash();
        n.restart().unwrap();
        for k in 0..10u64 {
            let v = n.get(&k.to_le_bytes()).unwrap().unwrap();
            assert_eq!(v.len(), 64);
            assert_eq!(v[0], 90 + k as u8, "newest overwrite survives");
        }
        assert!(n.recovery_stats().last_used_checkpoint);
        // Generations keep increasing after recovery.
        let (_, g) = n.xget(&1u64.to_le_bytes()).unwrap();
        assert!(
            n.set(Bytes::from_static(b"new"), Bytes::from_static(b"v"))
                .unwrap()
                > g
        );
        std::fs::remove_dir_all(&path).ok();
    }

    #[test]
    fn checkpoint_without_wal_is_noop() {
        let n = KvNode::new("volatile", KvNodeConfig::default()).unwrap();
        n.set(Bytes::from_static(b"k"), Bytes::from_static(b"v"))
            .unwrap();
        assert_eq!(n.checkpoint().unwrap(), 0);
    }

    #[test]
    fn xset_stale_propagates() {
        let n = KvNode::new("n", KvNodeConfig::default()).unwrap();
        let g = n.xset(b("k"), b("v1"), 0).unwrap();
        n.xset(b("k"), b("v2"), g).unwrap();
        assert!(matches!(
            n.xset(b("k"), b("v3"), g),
            Err(IpsError::StaleGeneration { .. })
        ));
    }

    #[test]
    fn injected_storage_crash_loses_only_unsynced_writes() {
        let storage = MemStorage::new();
        let node = KvNode::with_wal_storage(
            "faulty",
            KvNodeConfig {
                wal: WalConfig {
                    sync_every_append: true,
                    ..WalConfig::default()
                },
                ..Default::default()
            },
            Arc::new(storage.clone()),
        )
        .unwrap();
        node.set(b("acked-1"), b("v")).unwrap();
        node.set(b("acked-2"), b("v")).unwrap();
        // Arm: the very next appended byte kills the disk.
        storage.set_plan(FaultPlan {
            crash_at_byte: Some(storage.bytes_appended()),
            ..FaultPlan::default()
        });
        assert!(node.set(b("unacked"), b("v")).is_err());
        node.crash();
        storage.power_cycle();
        node.restart().unwrap();
        assert_eq!(node.get(b"acked-1").unwrap(), Some(b("v")));
        assert_eq!(node.get(b"acked-2").unwrap(), Some(b("v")));
        assert_eq!(node.get(b"unacked").unwrap(), None, "no phantom write");
    }

    #[test]
    fn salvage_node_survives_bit_rot_and_counts_it() {
        let storage = MemStorage::new();
        let build = |mode: RecoveryMode| KvNodeConfig {
            wal: ips_types::WalConfig {
                recovery_mode: mode,
                ..ips_types::WalConfig::default()
            },
            ..Default::default()
        };
        {
            let node = KvNode::with_wal_storage(
                "writer",
                build(RecoveryMode::Strict),
                Arc::new(storage.clone()),
            )
            .unwrap();
            for i in 0..20u64 {
                node.set(
                    Bytes::from(i.to_le_bytes().to_vec()),
                    Bytes::from(vec![1u8; 32]),
                )
                .unwrap();
            }
        }
        // Rot a byte in the middle of the first (only) segment.
        let seg = "seg-00000000000000000001.wal";
        let len = storage.read(seg).unwrap().len() as u64;
        storage.corrupt(seg, len / 2).unwrap();

        // Strict construction refuses the node.
        assert!(KvNode::with_wal_storage(
            "strict",
            build(RecoveryMode::Strict),
            Arc::new(storage.clone()),
        )
        .is_err());

        // Salvage brings it up and surfaces the damage in recovery stats.
        let node = KvNode::with_wal_storage(
            "salvage",
            build(RecoveryMode::Salvage),
            Arc::new(storage.clone()),
        )
        .unwrap();
        let stats = node.recovery_stats();
        assert!(stats.corrupt_events >= 1);
        assert_eq!(stats.torn_tails, 0);
        assert!(node.stats().keys >= 18, "all but the rotted record live");
    }
}
