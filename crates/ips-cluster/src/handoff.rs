//! Shard handoff: epoch-versioned membership and hot-entry snapshot
//! streaming for zero-stampede scale events.
//!
//! The paper scales IPS pods reactively ("IPS pod can auto-scale up and
//! down depending on the workload", §IV) — but a bare consistent-hash
//! reassignment means every key that moves to a new owner misses its cache
//! and stampedes the KV substrate, exactly the Fig 16 miss-spike the
//! GCache exists to prevent. This module closes that gap:
//!
//! * membership changes are **epoch-versioned**: the coordinator publishes
//!   [`MembershipEpoch`] through [`Discovery`], clients route by the current
//!   epoch's ring and keep the *previous* epoch's owner as a failover
//!   candidate for one generation, so during a cutover the old and new
//!   owners of a key never both reject it;
//! * before the epoch bump, the [`HandoffCoordinator`] diffs old→new ring
//!   ownership into per-`(source, target)` transfer plans
//!   ([`crate::ring::transfer_pairs`]) and **streams the hottest moving
//!   entries** from each source's GCache to its target in chunked
//!   [`RpcRequest::SnapshotChunk`] frames — resumable from the target's ACK
//!   cursor, each chunk under its own deadline budget;
//! * cutover runs in warm order: targets ACK the stream, the coordinator
//!   bumps the epoch, and sources demote their moved copies to the stale
//!   pool (still servable under degraded reads, no longer resident);
//! * a crashed source (no live endpoint) degrades to the pre-handoff
//!   behaviour — the target **cold-joins** and warms from the KV substrate
//!   on demand — counted, not fatal.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use ips_core::persist::encode_profile;
use ips_metrics::Counter;
use ips_trace::Tracer;
use ips_types::{Deadline, DurationMs, IpsError, ProfileId, Result, TableId};

use crate::discovery::Discovery;
use crate::ring::{transfer_pairs, HashRing};
use crate::rpc::{CallOptions, RpcEndpoint, RpcRequest, RpcResponse, SnapshotEntry};

/// One published membership generation: the ring every client routes by
/// while this epoch is current.
#[derive(Clone, Debug)]
pub struct MembershipEpoch {
    /// Monotonic per-region generation counter, bumped at each cutover.
    pub epoch: u64,
    /// The full routing ring of this generation.
    pub ring: HashRing,
}

/// Handoff tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct HandoffConfig {
    /// Entries per [`RpcRequest::SnapshotChunk`] frame.
    pub chunk_entries: usize,
    /// Per-chunk deadline budget (rides the request lifecycle: a chunk
    /// whose budget expires in transit or queue is shed whole and resent).
    pub chunk_deadline: Option<DurationMs>,
    /// Hot-entry cap per transfer (source walks LRU order; beyond this the
    /// tail stays cold and warms on demand).
    pub max_entries: usize,
    /// Byte budget per transfer.
    pub max_bytes: u64,
    /// Send attempts per chunk before the transfer degrades to cold-join.
    pub max_chunk_retries: usize,
}

impl Default for HandoffConfig {
    fn default() -> Self {
        Self {
            chunk_entries: 64,
            chunk_deadline: Some(DurationMs::from_millis(200)),
            max_entries: 4096,
            max_bytes: 64 << 20,
            max_chunk_retries: 4,
        }
    }
}

/// Handoff-subsystem counters (cumulative across scale events).
#[derive(Default)]
pub struct HandoffMetrics {
    /// Snapshot chunks acknowledged by targets.
    pub chunks_sent: Counter,
    /// Chunk sends that were retried or resumed from the target's cursor
    /// (lost frame, lost ACK, shed budget, replayed seq).
    pub chunks_resumed: Counter,
    /// Entries exported from source caches.
    pub entries_exported: Counter,
    /// Entries the targets imported as resident.
    pub entries_imported: Counter,
    /// Entries targets rejected because the store already held a newer
    /// generation (stale snapshot vs concurrent write).
    pub entries_rejected_stale: Counter,
    /// Transfers that fell back to cold-join (crashed source, exhausted
    /// retries).
    pub cold_joins: Counter,
    /// Per-(source, target) transfers executed.
    pub transfers: Counter,
}

/// What one scale event's handoff accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HandoffReport {
    /// The epoch published at cutover.
    pub epoch: u64,
    /// `(source, target)` transfers planned.
    pub transfers: usize,
    /// Transfers that degraded to cold-join.
    pub cold_joins: usize,
    /// Entries exported from sources.
    pub entries_exported: usize,
    /// Entries imported as resident on targets.
    pub entries_imported: usize,
    /// Entries rejected for stale generations.
    pub entries_rejected_stale: usize,
    /// Entries already resident on the target (racing miss-load won).
    pub entries_already_resident: usize,
    /// Chunks acknowledged.
    pub chunks_sent: usize,
    /// Chunk sends retried/resumed.
    pub chunks_resumed: usize,
}

/// Outcome of one `(source, target)` transfer.
struct TransferOutcome {
    warmed: bool,
    entries_exported: usize,
    entries_imported: usize,
    entries_rejected_stale: usize,
    entries_already_resident: usize,
    chunks_sent: usize,
    chunks_resumed: usize,
}

/// Plans and executes shard handoffs for scale events.
pub struct HandoffCoordinator {
    discovery: Arc<Discovery>,
    config: HandoffConfig,
    /// Cumulative handoff counters (dashboard surface).
    pub metrics: HandoffMetrics,
    tracer: RwLock<Option<Arc<Tracer>>>,
    /// Handoff-stream id allocator: targets key their resume cursors by
    /// this id, so every `(transfer, table)` stream needs a fresh one.
    next_handoff: AtomicU64,
}

/// Coordinators created so far in this process. A coordinator's handoff
/// ids carry its serial in their high 32 bits, so two coordinators never
/// send one id to a target, which remembers the streams it completed.
static COORDINATORS: AtomicU64 = AtomicU64::new(0);

impl HandoffCoordinator {
    #[must_use]
    pub fn new(discovery: Arc<Discovery>, config: HandoffConfig) -> Self {
        Self {
            discovery,
            config,
            metrics: HandoffMetrics::default(),
            tracer: RwLock::new(None),
            next_handoff: AtomicU64::new(COORDINATORS.fetch_add(1, Ordering::Relaxed) << 32),
        }
    }

    /// Install (or clear) the tracer under which scale-event spans open.
    pub fn set_tracer(&self, tracer: Option<Arc<Tracer>>) {
        *self.tracer.write() = tracer;
    }

    #[must_use]
    pub fn config(&self) -> &HandoffConfig {
        &self.config
    }

    /// Execute the handoff for a membership change `old_ring` → `new_ring`
    /// in `region`: stream hot entries along every transfer pair, publish
    /// the new epoch, then demote the sources' moved copies to their stale
    /// pools. `endpoints` is the transport address book covering both old
    /// and new members; a source with no live endpoint degrades that
    /// transfer to cold-join.
    pub fn run_handoff(
        &self,
        region: &str,
        old_ring: &HashRing,
        new_ring: &HashRing,
        endpoints: &[Arc<RpcEndpoint>],
        tables: &[TableId],
    ) -> Result<HandoffReport> {
        let mut span = ips_trace::child("handoff");
        span.set_attr("region", region);
        let by_name: HashMap<&str, &Arc<RpcEndpoint>> =
            endpoints.iter().map(|ep| (ep.name(), ep)).collect();
        let pairs = transfer_pairs(old_ring, new_ring);
        span.set_attr("transfers", pairs.len().to_string());

        let mut report = HandoffReport {
            transfers: pairs.len(),
            ..HandoffReport::default()
        };
        for (source, target) in &pairs {
            self.metrics.transfers.inc();
            let Some(target_ep) = by_name.get(target.as_str()).filter(|ep| !ep.is_down()) else {
                // No live target: nothing to warm; the epoch bump below
                // will route the keyspace to wherever the new ring says,
                // and whoever serves it cold-loads.
                self.metrics.cold_joins.inc();
                report.cold_joins += 1;
                continue;
            };
            let source_live = by_name.get(source.as_str()).filter(|ep| !ep.is_down());
            let Some(source_ep) = source_live else {
                // Crashed source: degrade to cold-join — the target warms
                // from the KV substrate on demand, exactly the pre-handoff
                // behaviour.
                self.metrics.cold_joins.inc();
                report.cold_joins += 1;
                continue;
            };
            let outcome = self.run_transfer(
                source_ep, target_ep, old_ring, new_ring, source, target, tables,
            )?;
            report.entries_exported += outcome.entries_exported;
            report.entries_imported += outcome.entries_imported;
            report.entries_rejected_stale += outcome.entries_rejected_stale;
            report.entries_already_resident += outcome.entries_already_resident;
            report.chunks_sent += outcome.chunks_sent;
            report.chunks_resumed += outcome.chunks_resumed;
            if !outcome.warmed {
                self.metrics.cold_joins.inc();
                report.cold_joins += 1;
            }
        }

        // Cutover: targets have ACKed their streams — publish the new
        // membership. Clients pick it up on refresh and route to the new
        // owners, keeping the previous epoch's owner as a grace candidate.
        report.epoch = self.discovery.publish_epoch(region, new_ring.clone());
        span.set_attr("epoch", report.epoch.to_string());

        // Post-cutover: sources demote their moved copies to the stale
        // pool. They stop being resident (the target owns them now) but
        // stay servable under degraded reads through the grace window.
        for (source, target) in &pairs {
            let Some(source_ep) = by_name.get(source.as_str()).filter(|ep| !ep.is_down()) else {
                continue;
            };
            let filter = moved_filter(old_ring, new_ring, source, target);
            for table in tables {
                let rt = source_ep.instance().table(*table)?;
                rt.cache.demote_matching(&filter)?;
            }
        }
        Ok(report)
    }

    /// Stream one `(source, target)` pair's moving hot entries, table by
    /// table. Returns the aggregated outcome; `warmed = false` means the
    /// stream gave up partway (the remainder cold-joins).
    #[allow(clippy::too_many_arguments, reason = "two rings and two endpoints")]
    fn run_transfer(
        &self,
        source_ep: &Arc<RpcEndpoint>,
        target_ep: &Arc<RpcEndpoint>,
        old_ring: &HashRing,
        new_ring: &HashRing,
        source: &str,
        target: &str,
        tables: &[TableId],
    ) -> Result<TransferOutcome> {
        let mut span = ips_trace::child("handoff_transfer");
        span.set_attr("source", source);
        span.set_attr("target", target);
        let mut outcome = TransferOutcome {
            warmed: true,
            entries_exported: 0,
            entries_imported: 0,
            entries_rejected_stale: 0,
            entries_already_resident: 0,
            chunks_sent: 0,
            chunks_resumed: 0,
        };
        for table in tables {
            let filter = moved_filter(old_ring, new_ring, source, target);
            let batch = source_ep.instance().export_hot(
                *table,
                filter,
                self.config.max_entries,
                self.config.max_bytes,
            )?;
            outcome.entries_exported += batch.entries.len();
            self.metrics
                .entries_exported
                .add(batch.entries.len() as u64);
            if batch.entries.is_empty() {
                continue;
            }
            // Serialize each entry with the shared profile codec (framed +
            // compressed through the pooled buffers).
            let encoded: Vec<SnapshotEntry> = batch
                .entries
                .iter()
                .map(|e| SnapshotEntry {
                    profile: e.pid,
                    generation: e.generation,
                    payload: encode_profile(&e.data),
                })
                .collect();
            // Chunk in coldest-first send order: the export walk is
            // hottest-first, and the importer touches each chunk so its
            // hottest entry lands most-recent — sending cold chunks first
            // leaves the target's LRU in true heat order at cutover.
            let mut chunks: Vec<Vec<SnapshotEntry>> = encoded
                .chunks(self.config.chunk_entries.max(1))
                .map(<[SnapshotEntry]>::to_vec)
                .collect();
            chunks.reverse();
            if !self.stream_chunks(target_ep, *table, &chunks, &mut outcome)? {
                outcome.warmed = false;
                return Ok(outcome);
            }
        }
        Ok(outcome)
    }

    /// Drive one chunked stream to the target, resuming from the ACK cursor
    /// on loss or replay. Returns whether the stream fully applied; the
    /// total send budget bounds retries deterministically.
    fn stream_chunks(
        &self,
        target_ep: &Arc<RpcEndpoint>,
        table: TableId,
        chunks: &[Vec<SnapshotEntry>],
        outcome: &mut TransferOutcome,
    ) -> Result<bool> {
        let handoff = self.next_handoff.fetch_add(1, Ordering::Relaxed) + 1;
        let opts = CallOptions {
            deadline: self.config.chunk_deadline.map(Deadline::from_budget),
            degraded: None,
            ..CallOptions::default()
        };
        let mut seq: u64 = 0;
        // Deterministic retry bound: every chunk gets its base send plus
        // the configured retries; when the budget is gone the remainder of
        // the keyspace cold-joins instead of retrying forever.
        let mut sends_left = chunks
            .len()
            .saturating_mul(self.config.max_chunk_retries + 1);
        while (seq as usize) < chunks.len() {
            if sends_left == 0 {
                return Ok(false);
            }
            sends_left -= 1;
            let last = seq as usize == chunks.len() - 1;
            let request = RpcRequest::SnapshotChunk {
                table,
                handoff,
                seq,
                last,
                entries: chunks[seq as usize].clone(),
            };
            let mut chunk_span = ips_trace::child("snapshot_chunk");
            chunk_span.set_attr("seq", seq.to_string());
            let ctx = chunk_span.context();
            let (result, _cost) = target_ep.call_with_options(&request, ctx.as_ref(), &opts);
            match result {
                Ok(RpcResponse::SnapshotAck(ack)) => {
                    self.metrics.chunks_sent.inc();
                    outcome.chunks_sent += 1;
                    if ack.next_seq <= seq {
                        // Duplicate or gap: resume from the target's cursor.
                        self.metrics.chunks_resumed.inc();
                        outcome.chunks_resumed += 1;
                    }
                    seq = ack.next_seq;
                    if last && ack.next_seq as usize >= chunks.len() {
                        outcome.entries_imported = ack.imported as usize;
                        outcome.entries_rejected_stale = ack.rejected_stale as usize;
                        outcome.entries_already_resident = ack.already_resident as usize;
                        self.metrics.entries_imported.add(ack.imported);
                        self.metrics.entries_rejected_stale.add(ack.rejected_stale);
                    }
                }
                Ok(_) => {
                    return Err(IpsError::Rpc("mismatched snapshot response".into()));
                }
                Err(e) if e.is_retryable() => {
                    // Lost frame, lost ACK, shed budget: resend the same
                    // seq with a fresh budget; the target's cursor keeps
                    // the stream exactly-once.
                    chunk_span.set_error(e.to_string());
                    self.metrics.chunks_resumed.inc();
                    outcome.chunks_resumed += 1;
                }
                Err(e) => {
                    chunk_span.set_error(e.to_string());
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }
}

/// The keyspace predicate of one transfer pair: keys `source` owned under
/// the old ring that `target` owns under the new one.
fn moved_filter<'a>(
    old_ring: &'a HashRing,
    new_ring: &'a HashRing,
    source: &'a str,
    target: &'a str,
) -> impl Fn(ProfileId) -> bool + 'a {
    move |pid| old_ring.node_for(pid) == Some(source) && new_ring.node_for(pid) == Some(target)
}

impl HandoffCoordinator {
    /// Open a root span for a scale decision (or a disabled span when no
    /// tracer is installed). Handoff/transfer/chunk spans open as children,
    /// so the whole warm-up is attributable to the decision that caused it.
    pub(crate) fn scale_span(&self, decision: &str, region: &str) -> ips_trace::Span {
        let tracer = self.tracer.read().clone();
        match tracer {
            Some(tracer) => {
                let mut s = tracer.root_span("scale_decision", 0);
                s.set_attr("decision", decision.to_string());
                s.set_attr("region", region.to_string());
                s
            }
            None => ips_trace::Span::disabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::{Autoscaler, AutoscalerConfig, ScaleDecision, ScaleOrchestrator};
    use crate::client::IpsClusterClient;
    use crate::region::{MultiRegionDeployment, MultiRegionOptions};
    use ips_core::query::ProfileQuery;
    use ips_kv::KvLatencyModel;
    use ips_types::clock::sim_clock;
    use ips_types::Clock as _;
    use ips_types::{
        ActionTypeId, CallerId, CountVector, FeatureId, TableConfig, TableId, TimeRange, Timestamp,
    };

    const TABLE: TableId = TableId(1);
    const CALLER: CallerId = CallerId(1);

    fn build(instances: usize) -> (MultiRegionDeployment, IpsClusterClient, ips_types::SimClock) {
        let (clock, ctl) = sim_clock(Timestamp::from_millis(
            DurationMs::from_days(400).as_millis(),
        ));
        let options = MultiRegionOptions {
            regions: vec!["region-a".into()],
            instances_per_region: instances,
            tables: vec![(TABLE, {
                let mut c = TableConfig::new("t");
                c.isolation.enabled = false;
                c
            })],
            ..Default::default()
        };
        let d = MultiRegionDeployment::build(options, clock).unwrap();
        let client =
            IpsClusterClient::new(Arc::clone(&d.discovery), "region-a", KvLatencyModel::zero());
        client.add_endpoints(d.all_endpoints());
        client.refresh();
        (d, client, ctl)
    }

    fn orchestrator(
        d: &MultiRegionDeployment,
        config: HandoffConfig,
    ) -> (ScaleOrchestrator, Arc<HandoffCoordinator>) {
        let coordinator = Arc::new(HandoffCoordinator::new(Arc::clone(&d.discovery), config));
        let autoscaler = Autoscaler::new(AutoscalerConfig::default(), Arc::clone(d.clock()));
        (
            ScaleOrchestrator::new(
                autoscaler,
                Arc::clone(&coordinator),
                "region-a",
                vec![TABLE],
            ),
            coordinator,
        )
    }

    fn write_profiles(client: &IpsClusterClient, ctl: &ips_types::SimClock, n: u64) {
        for pid in 0..n {
            client
                .add_profile(
                    CALLER,
                    TABLE,
                    ProfileId::new(pid),
                    ctl.now(),
                    SlotId::new(1),
                    ActionTypeId::new(1),
                    FeatureId::new(100 + pid),
                    CountVector::single(1),
                )
                .unwrap();
        }
    }

    fn top_k(pid: u64) -> ProfileQuery {
        ProfileQuery::top_k(
            TABLE,
            ProfileId::new(pid),
            SlotId::new(1),
            TimeRange::last_days(1),
            10,
        )
    }

    use ips_types::SlotId;

    #[test]
    fn warmed_scale_up_imports_moved_hot_entries() {
        let (mut d, client, ctl) = build(2);
        write_profiles(&client, &ctl, 64);
        let (orch, _coord) = orchestrator(
            &d,
            HandoffConfig {
                chunk_entries: 8,
                ..HandoffConfig::default()
            },
        );
        let report = orch.apply(&mut d, ScaleDecision::Up(1)).unwrap().unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.cold_joins, 0);
        assert!(report.entries_exported > 0, "some keyspace must move");
        assert_eq!(
            report.entries_imported, report.entries_exported,
            "no concurrent writes: every exported entry imports"
        );
        assert_eq!(report.entries_rejected_stale, 0);
        assert!(report.chunks_sent >= 1);

        // Every moved key is resident (a cache hit) on its new owner before
        // a single query lands — that is the whole point of the handoff.
        let membership = d.discovery.membership("region-a").unwrap();
        let new_name = d.regions[0].endpoints[2].name().to_string();
        let new_instance = Arc::clone(d.regions[0].endpoints[2].instance());
        let mut moved = 0;
        for pid in 0..64u64 {
            if membership.ring.node_for(ProfileId::new(pid)) == Some(new_name.as_str()) {
                moved += 1;
                let result = new_instance.query(CALLER, &top_k(pid)).unwrap();
                assert!(
                    result.cache_hit,
                    "moved pid {pid} must be warm on the new owner"
                );
                assert_eq!(result.len(), 1);
            }
        }
        assert!(moved > 0, "the new node must own part of the keyspace");
        assert_eq!(moved, report.entries_imported);

        // Clients pick up the epoch on refresh and keep serving everything.
        client.refresh();
        assert_eq!(client.region_epoch("region-a"), 1);
        for pid in 0..64u64 {
            let (result, _) = client.query(CALLER, &top_k(pid)).unwrap();
            assert_eq!(result.len(), 1, "pid {pid} lost across the cutover");
        }
    }

    #[test]
    fn crashed_source_degrades_to_cold_join() {
        let (mut d, client, ctl) = build(2);
        write_profiles(&client, &ctl, 32);
        // Make the data durable, then crash one source before the scale
        // event: its transfers cannot stream and must degrade.
        for ep in d.all_endpoints() {
            ep.instance().flush_all().unwrap();
        }
        d.regions[0].endpoints[0].set_down(true);
        let (orch, coord) = orchestrator(&d, HandoffConfig::default());
        let report = orch.apply(&mut d, ScaleDecision::Up(1)).unwrap().unwrap();
        assert_eq!(report.epoch, 1, "cutover proceeds despite the crash");
        assert!(report.cold_joins > 0, "crashed source must cold-join");
        assert!(coord.metrics.cold_joins.get() > 0);
        // The fleet still serves every key: the new owner warms from the KV
        // substrate on demand (the pre-handoff path).
        client.refresh();
        for pid in 0..32u64 {
            let (result, _) = client.query(CALLER, &top_k(pid)).unwrap();
            assert_eq!(result.len(), 1, "pid {pid} unserved after cold join");
        }
    }

    #[test]
    fn scale_down_streams_victim_keyspace_before_retiring_it() {
        let (mut d, client, ctl) = build(3);
        write_profiles(&client, &ctl, 96);
        let (orch, _coord) = orchestrator(&d, HandoffConfig::default());
        let victim = d.regions[0].endpoints[2].name().to_string();
        let report = orch.apply(&mut d, ScaleDecision::Down(1)).unwrap().unwrap();
        assert_eq!(report.epoch, 1);
        assert!(report.entries_exported > 0, "victim owned keys to move");
        assert_eq!(report.entries_imported, report.entries_exported);
        // The victim is gone from the fleet and the published ring.
        assert_eq!(d.regions[0].endpoints.len(), 2);
        let membership = d.discovery.membership("region-a").unwrap();
        assert!(!membership.ring.nodes().contains(&victim));
        assert!(!d.discovery.is_healthy(&victim));
        // Survivors hold the victim's keyspace warm.
        client.refresh();
        for pid in 0..96u64 {
            let (result, _) = client.query(CALLER, &top_k(pid)).unwrap();
            assert_eq!(result.len(), 1, "pid {pid} lost in scale-down");
        }
    }

    #[test]
    fn consecutive_scale_events_chain_epochs_with_one_grace_window() {
        let (mut d, client, ctl) = build(2);
        write_profiles(&client, &ctl, 16);
        let (orch, _coord) = orchestrator(&d, HandoffConfig::default());
        orch.apply(&mut d, ScaleDecision::Up(1)).unwrap();
        orch.apply(&mut d, ScaleDecision::Up(1)).unwrap();
        let (current, previous) = d.discovery.membership_pair("region-a").unwrap();
        assert_eq!(current.epoch, 2);
        assert_eq!(current.ring.len(), 4);
        let previous = previous.unwrap();
        assert_eq!(previous.epoch, 1);
        assert_eq!(previous.ring.len(), 3);
        client.refresh();
        assert_eq!(client.region_epoch("region-a"), 2);
        for pid in 0..16u64 {
            let (result, _) = client.query(CALLER, &top_k(pid)).unwrap();
            assert_eq!(result.len(), 1);
        }
    }

    #[test]
    fn hold_is_a_no_op() {
        let (mut d, _client, _ctl) = build(2);
        let (orch, _coord) = orchestrator(&d, HandoffConfig::default());
        assert!(orch.apply(&mut d, ScaleDecision::Hold).unwrap().is_none());
        assert!(d.discovery.membership("region-a").is_none());
    }
}
