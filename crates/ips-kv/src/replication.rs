//! Master → replica asynchronous replication.
//!
//! In the multi-region deployment (Fig 15) exactly one region's IPS instance
//! persists to the *master* KV cluster; instances in other regions read from
//! local *slave* clusters. Replication is asynchronous, so replicas lag and a
//! failed-over node may load stale data — the weak consistency the paper
//! explicitly accepts ("minor data inconsistency is negligible in most
//! recommendation based applications", §III-G).
//!
//! The replication pump is pull-based and explicit: the host calls
//! [`ReplicatedKv::pump`] to move a bounded batch of queued mutations to the
//! replicas, inline or from a thread it owns, which makes lag controllable
//! and observable in experiments.

use std::sync::Arc;

use bytes::Bytes;
use crossbeam::queue::SegQueue;

use ips_metrics::{Counter, Gauge};
use ips_types::Result;

use crate::node::KvNode;
use crate::store::{Generation, VersionedValue};

/// What a replica read returns when the replica is behind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaReadMode {
    /// Read whatever the replica has (possibly stale) — production default.
    AllowStale,
    /// Fall through to the master when the replica misses the key entirely.
    MasterOnMiss,
}

enum RepOp {
    Set { key: Bytes, value: VersionedValue },
    Delete { key: Bytes },
}

/// One master plus N asynchronous read replicas.
pub struct ReplicatedKv {
    master: Arc<KvNode>,
    replicas: Vec<Arc<KvNode>>,
    /// One queue per replica so a slow replica doesn't stall others.
    queues: Vec<SegQueue<RepOp>>,
    pub replicated_ops: Counter,
    /// Queued ops whose generation probe lost to what the replica already
    /// holds (it restarted and bulk-resynced, or replication raced): the op
    /// is consumed but deliberately NOT applied.
    pub stale_rejected: Counter,
    pub queue_depth: Gauge,
    read_mode: ReplicaReadMode,
    /// Optional tracer: pump batches that move data show up as root spans
    /// so replication work is visible next to the request tree it lags.
    tracer: parking_lot::RwLock<Option<Arc<ips_trace::Tracer>>>,
}

impl ReplicatedKv {
    /// Build a replication group. `replicas` may be empty (single cluster).
    #[must_use]
    pub fn new(
        master: Arc<KvNode>,
        replicas: Vec<Arc<KvNode>>,
        read_mode: ReplicaReadMode,
    ) -> Self {
        let queues = replicas.iter().map(|_| SegQueue::new()).collect();
        Self {
            master,
            replicas,
            queues,
            replicated_ops: Counter::new(),
            stale_rejected: Counter::new(),
            queue_depth: Gauge::new(),
            read_mode,
            tracer: parking_lot::RwLock::new(None),
        }
    }

    /// Install (or clear) the tracer that records pump batches.
    pub fn set_tracer(&self, tracer: Option<Arc<ips_trace::Tracer>>) {
        *self.tracer.write() = tracer;
    }

    #[must_use]
    pub fn master(&self) -> &Arc<KvNode> {
        &self.master
    }

    #[must_use]
    pub fn replicas(&self) -> &[Arc<KvNode>] {
        &self.replicas
    }

    fn enqueue_set(&self, key: &Bytes, generation: Generation, value: &Bytes) {
        for q in &self.queues {
            q.push(RepOp::Set {
                key: key.clone(),
                value: VersionedValue {
                    data: value.clone(),
                    generation,
                },
            });
        }
        self.queue_depth.add(self.queues.len() as i64);
    }

    /// Write through the master and queue for replication.
    pub fn set(&self, key: Bytes, value: Bytes) -> Result<Generation> {
        let generation = self.master.set(key.clone(), value.clone())?;
        self.enqueue_set(&key, generation, &value);
        Ok(generation)
    }

    /// Conditional write through the master (split persistence protocol).
    pub fn xset(&self, key: Bytes, value: Bytes, held: Generation) -> Result<Generation> {
        let generation = self.master.xset(key.clone(), value.clone(), held)?;
        self.enqueue_set(&key, generation, &value);
        Ok(generation)
    }

    /// Delete through the master; a removal is queued for replication.
    pub fn delete(&self, key: &[u8]) -> Result<bool> {
        let existed = self.master.delete(key)?;
        if existed {
            for q in &self.queues {
                q.push(RepOp::Delete {
                    key: Bytes::copy_from_slice(key),
                });
            }
            self.queue_depth.add(self.queues.len() as i64);
        }
        Ok(existed)
    }

    /// Read from the master (strong path).
    pub fn get_master(&self, key: &[u8]) -> Result<Option<Bytes>> {
        self.master.get(key)
    }

    /// Versioned read from the master.
    pub fn xget_master(&self, key: &[u8]) -> Result<(Option<Bytes>, Generation)> {
        self.master.xget(key)
    }

    /// Read from replica `idx` (a region's local slave cluster). Per the
    /// configured mode, a missing key may fall through to the master.
    pub fn get_replica(&self, idx: usize, key: &[u8]) -> Result<Option<Bytes>> {
        Ok(self.xget_replica(idx, key)?.0)
    }

    /// Versioned read from replica `idx`, falling through like
    /// [`ReplicatedKv::get_replica`]. A replica keeps the generation each
    /// value had on the master, so generations from either compare.
    pub fn xget_replica(&self, idx: usize, key: &[u8]) -> Result<(Option<Bytes>, Generation)> {
        let Some(replica) = self.replicas.get(idx) else {
            return self.master.xget(key);
        };
        match replica.xget(key)? {
            (Some(v), generation) => Ok((Some(v), generation)),
            (None, _) if self.read_mode == ReplicaReadMode::MasterOnMiss => self.master.xget(key),
            (None, _) => Ok((None, 0)),
        }
    }

    /// Move up to `budget` queued mutations per replica. Returns the number
    /// of queued ops *processed* (applied, or consumed as stale — see
    /// [`ReplicatedKv::stale_rejected`]); [`ReplicatedKv::replicated_ops`]
    /// counts only real applications. Replicas that are down keep their
    /// queue (they catch up when restarted), which is what creates
    /// stale-read windows in experiments.
    pub fn pump(&self, budget: usize) -> usize {
        // Idle pump ticks (empty queues) stay invisible; only batches that
        // move data open a span.
        let mut span = match self.tracer.read().clone() {
            Some(tracer) if self.backlog() > 0 => tracer.root_span("replication_pump", 0),
            _ => ips_trace::Span::disabled(),
        };
        let mut processed = 0usize;
        let mut applied = 0u64;
        let mut stale = 0u64;
        for (replica, queue) in self.replicas.iter().zip(&self.queues) {
            for _ in 0..budget {
                // Probed per op, not per batch: a replica that crashes
                // mid-drain keeps the rest of its queue for catch-up.
                if replica.is_down() {
                    break;
                }
                let Some(op) = queue.pop() else { break };
                self.queue_depth.sub(1);
                match op {
                    RepOp::Set { key, value } => {
                        if replica.store().apply_replicated(key, value) {
                            applied += 1;
                        } else {
                            stale += 1;
                        }
                    }
                    RepOp::Delete { key } => {
                        replica.store().delete(&key);
                        applied += 1;
                    }
                }
                processed += 1;
            }
        }
        self.replicated_ops.add(applied);
        self.stale_rejected.add(stale);
        if span.is_sampled() {
            span.set_attr("applied", applied.to_string());
            span.set_attr("stale_rejected", stale.to_string());
        }
        processed
    }

    /// Bulk-resynchronize replica `idx` from the master's current state (a
    /// snapshot transfer, the fast path for a replica that restarted empty).
    /// Returns the number of entries that actually landed. The replica's
    /// queue is deliberately left alone: anything queued before the snapshot
    /// now loses its generation probe when pumped and is counted in
    /// [`ReplicatedKv::stale_rejected`] instead of clobbering newer data.
    pub fn resync_replica(&self, idx: usize) -> usize {
        let Some(replica) = self.replicas.get(idx) else {
            return 0;
        };
        let mut copied = 0;
        for (key, value) in self.master.store().scan_all() {
            if replica.store().apply_replicated(key, value) {
                copied += 1;
            }
        }
        copied
    }

    /// Outstanding (unreplicated) operations across all replica queues.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Drain every queue fully (test convenience / controlled catch-up).
    pub fn pump_all(&self) -> usize {
        let mut total = 0;
        loop {
            let n = self.pump(1024);
            total += n;
            if n == 0 && self.backlog() == 0 {
                // All queues empty or only down replicas left with backlog.
                let live_backlog: usize = self
                    .replicas
                    .iter()
                    .zip(&self.queues)
                    .filter(|(r, _)| !r.is_down())
                    .map(|(_, q)| q.len())
                    .sum();
                if live_backlog == 0 {
                    break;
                }
            }
            if n == 0 {
                break;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::KvNodeConfig;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn group(replicas: usize, mode: ReplicaReadMode) -> ReplicatedKv {
        let master = Arc::new(KvNode::new("master", KvNodeConfig::default()).unwrap());
        let reps = (0..replicas)
            .map(|i| {
                Arc::new(KvNode::new(format!("replica-{i}"), KvNodeConfig::default()).unwrap())
            })
            .collect();
        ReplicatedKv::new(master, reps, mode)
    }

    #[test]
    fn replica_lags_until_pumped() {
        let g = group(2, ReplicaReadMode::AllowStale);
        g.set(b("k"), b("v1")).unwrap();
        assert_eq!(g.get_replica(0, b"k").unwrap(), None, "not yet replicated");
        assert_eq!(g.backlog(), 2);
        g.pump_all();
        assert_eq!(g.get_replica(0, b"k").unwrap(), Some(b("v1")));
        assert_eq!(g.get_replica(1, b"k").unwrap(), Some(b("v1")));
        assert_eq!(g.backlog(), 0);
    }

    #[test]
    fn master_on_miss_fallthrough() {
        let g = group(1, ReplicaReadMode::MasterOnMiss);
        g.set(b("k"), b("v1")).unwrap();
        // Replica hasn't caught up but the read falls through to master.
        assert_eq!(g.get_replica(0, b"k").unwrap(), Some(b("v1")));
    }

    #[test]
    fn stale_read_window_then_catch_up() {
        let g = group(1, ReplicaReadMode::AllowStale);
        g.set(b("k"), b("v1")).unwrap();
        g.pump_all();
        g.set(b("k"), b("v2")).unwrap();
        // Stale window: replica still serves v1.
        assert_eq!(g.get_replica(0, b"k").unwrap(), Some(b("v1")));
        g.pump_all();
        assert_eq!(g.get_replica(0, b"k").unwrap(), Some(b("v2")));
    }

    #[test]
    fn down_replica_keeps_backlog_and_catches_up() {
        let g = group(1, ReplicaReadMode::AllowStale);
        g.replicas()[0].set_down(true);
        g.set(b("k"), b("v1")).unwrap();
        g.pump(100);
        assert_eq!(g.backlog(), 1, "down replica must not consume its queue");
        g.replicas()[0].set_down(false);
        g.pump_all();
        assert_eq!(g.get_replica(0, b"k").unwrap(), Some(b("v1")));
    }

    #[test]
    fn deletes_replicate() {
        let g = group(1, ReplicaReadMode::AllowStale);
        g.set(b("k"), b("v")).unwrap();
        g.pump_all();
        g.delete(b"k").unwrap();
        g.pump_all();
        assert_eq!(g.get_replica(0, b"k").unwrap(), None);
    }

    #[test]
    fn reordered_replication_respects_generations() {
        // Apply newer first directly, then pump the older op; replica must
        // keep the newer value.
        let g = group(1, ReplicaReadMode::AllowStale);
        g.set(b("k"), b("old")).unwrap();
        let g2 = g.set(b("k"), b("new")).unwrap();
        // Manually apply the newest to the replica ahead of the queue.
        g.replicas()[0].store().apply_replicated(
            b("k"),
            VersionedValue {
                data: b("new"),
                generation: g2,
            },
        );
        g.pump_all();
        assert_eq!(g.get_replica(0, b"k").unwrap(), Some(b("new")));
    }

    #[test]
    fn xset_goes_through_master_and_replicates() {
        let g = group(1, ReplicaReadMode::AllowStale);
        let (_, g0) = g.xget_master(b"k").unwrap();
        g.xset(b("k"), b("v1"), g0).unwrap();
        g.pump_all();
        assert_eq!(g.get_replica(0, b"k").unwrap(), Some(b("v1")));
    }

    #[test]
    fn restarted_replica_resyncs_and_rejects_stale_queue() {
        let g = group(1, ReplicaReadMode::AllowStale);
        g.set(b("k"), b("v1")).unwrap();
        g.set(b("k"), b("v2")).unwrap();
        // The replica dies with both ops still queued, then restarts empty
        // (it has no WAL): its queue survived but its state did not.
        g.replicas()[0].crash();
        assert_eq!(g.pump(100), 0, "down replica must not consume its queue");
        assert_eq!(g.backlog(), 2);
        g.replicas()[0].restart().unwrap();

        // Snapshot resync from the master beats replaying the stale queue.
        assert_eq!(g.resync_replica(0), 1);
        assert_eq!(g.get_replica(0, b"k").unwrap(), Some(b("v2")));

        // The queued ops now lose their generation probe: consumed, counted
        // as stale, and the resynced value stays.
        assert_eq!(g.pump_all(), 2);
        assert_eq!(g.stale_rejected.get(), 2);
        assert_eq!(g.replicated_ops.get(), 0);
        assert_eq!(g.backlog(), 0);
        assert_eq!(g.queue_depth.get(), 0, "depth accounting survives resync");
        assert_eq!(g.get_replica(0, b"k").unwrap(), Some(b("v2")));
    }

    #[test]
    fn stale_rejections_do_not_count_as_applied() {
        let g = group(1, ReplicaReadMode::AllowStale);
        g.set(b("k"), b("old")).unwrap();
        g.pump_all();
        assert_eq!(g.replicated_ops.get(), 1);
        let gen2 = g.set(b("k"), b("new")).unwrap();
        // The replica learns the newer value out of band, so the queued op
        // is stale by the time the pump delivers it.
        g.replicas()[0].store().apply_replicated(
            b("k"),
            VersionedValue {
                data: b("new"),
                generation: gen2,
            },
        );
        assert_eq!(g.pump_all(), 1, "the op is consumed");
        assert_eq!(g.replicated_ops.get(), 1, "but not counted as applied");
        assert_eq!(g.stale_rejected.get(), 1);
    }

    #[test]
    fn no_replicas_reads_hit_master() {
        let g = group(0, ReplicaReadMode::AllowStale);
        g.set(b("k"), b("v")).unwrap();
        assert_eq!(g.get_replica(0, b"k").unwrap(), Some(b("v")));
        assert_eq!(g.pump(10), 0);
    }
}
