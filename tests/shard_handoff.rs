//! Shard-handoff integration: epoch cutover races, snapshot-stream
//! resumption over a lossy network, and stale-snapshot rejection against
//! concurrent writes.
//!
//! The unit tests in `ips-cluster::handoff` cover the coordinator's
//! bookkeeping; these tests drive the whole fleet through the facade the
//! way an operator would — scale events racing live clients, chunks lost
//! in transit, writers racing the snapshot — and check the serving
//! invariants that make a scale event "zero-stampede".

use std::sync::Arc;

use ips::cluster::ring::DEFAULT_VNODES;
use ips::cluster::HashRing;
use ips::cluster::{
    Autoscaler, AutoscalerConfig, HandoffConfig, HandoffCoordinator, IpsClusterClient,
    MultiRegionDeployment, MultiRegionOptions, NetworkModel, RpcEndpoint, RpcRequest, RpcResponse,
    ScaleDecision, ScaleOrchestrator, SnapshotEntry,
};
use ips::core::persist::encode_profile;
use ips::kv::KvLatencyModel;
use ips::prelude::*;

const TABLE: TableId = TableId(1);
const CALLER: CallerId = CallerId(1);
const SLOT: SlotId = SlotId(1);
const LIKE: ActionTypeId = ActionTypeId(1);

fn build(instances: usize) -> (MultiRegionDeployment, IpsClusterClient, SimClock) {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(400).as_millis(),
    ));
    let options = MultiRegionOptions {
        regions: vec!["region-a".into()],
        instances_per_region: instances,
        tables: vec![(TABLE, {
            let mut c = TableConfig::new("handoff");
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

fn write_profiles(client: &IpsClusterClient, ctl: &SimClock, n: u64) {
    for pid in 0..n {
        client
            .add_profile(
                CALLER,
                TABLE,
                ProfileId::new(pid),
                ctl.now(),
                SLOT,
                LIKE,
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
        SLOT,
        TimeRange::last_days(1),
        10,
    )
}

/// Across an epoch bump, every profile has exactly one resident owner at
/// every step, and both a client still routing by the old view and a
/// refreshed client keep serving the whole keyspace — the cutover race
/// (server publishes epoch N+1 while clients route by N) loses nothing.
#[test]
fn ownership_stays_unique_and_total_across_epoch_bump() {
    let (mut d, client, ctl) = build(3);
    const PIDS: u64 = 200;
    write_profiles(&client, &ctl, PIDS);

    let resident_on = |d: &MultiRegionDeployment, pid: u64| -> Vec<String> {
        d.regions[0]
            .endpoints
            .iter()
            .filter(|ep| {
                ep.instance()
                    .table(TABLE)
                    .unwrap()
                    .cache
                    .contains(ProfileId::new(pid))
            })
            .map(|ep| ep.name().to_string())
            .collect()
    };

    // Pre-scale: every write landed on exactly one instance.
    for pid in 0..PIDS {
        assert_eq!(resident_on(&d, pid).len(), 1, "pre-scale pid {pid}");
    }

    let (orch, _coord) = orchestrator(&d, HandoffConfig::default());
    let report = orch.apply(&mut d, ScaleDecision::Up(1)).unwrap().unwrap();
    assert_eq!(report.epoch, 1);
    assert!(report.entries_imported > 0);

    // Invariant 1 (checked before any query can repopulate caches): each
    // pid is resident on exactly one instance, and that instance is the
    // current epoch's ring owner — imports landed on the new owner, the
    // source's demotion took the old copy out of residency.
    let membership = d.discovery.membership("region-a").unwrap();
    for pid in 0..PIDS {
        let resident = resident_on(&d, pid);
        assert_eq!(
            resident.len(),
            1,
            "pid {pid} must have exactly one resident owner, got {resident:?}"
        );
        let owner = membership.ring.node_for(ProfileId::new(pid)).unwrap();
        assert_eq!(resident[0], owner, "pid {pid} resident off-owner");
    }

    // Invariant 2: a client that has NOT refreshed (still routing by the
    // pre-scale view) serves every pid through the grace window.
    for pid in 0..PIDS {
        let (result, _) = client.query(CALLER, &top_k(pid)).unwrap();
        assert_eq!(result.len(), 1, "stale-view client lost pid {pid}");
    }

    // Invariant 3: after refresh the client routes by epoch 1 and still
    // serves everything.
    client.refresh();
    assert_eq!(client.region_epoch("region-a"), 1);
    for pid in 0..PIDS {
        let (result, _) = client.query(CALLER, &top_k(pid)).unwrap();
        assert_eq!(result.len(), 1, "fresh-view client lost pid {pid}");
    }
}

/// Chunks (and ACKs) lost in transit must not restart or abandon the
/// stream: the source resumes from the target's cursor and the transfer
/// still lands every moving entry warm.
#[test]
fn snapshot_stream_resumes_after_dropped_chunks() {
    let (mut d, client, ctl) = build(2);
    const PIDS: u64 = 128;
    write_profiles(&client, &ctl, PIDS);

    // Grow the fleet out-of-band, then run the handoff ourselves over a
    // lossy transport wrapped around the very same instances.
    let added = d.scale_out("region-a", 1).unwrap();
    assert_eq!(added.len(), 1);
    let lossy = NetworkModel {
        loss_probability: 0.35,
    };
    let endpoints: Vec<Arc<RpcEndpoint>> = d.regions[0]
        .endpoints
        .iter()
        .map(|ep| RpcEndpoint::new(ep.name(), ep.region(), Arc::clone(ep.instance()), lossy))
        .collect();
    let mut old_ring = HashRing::new(DEFAULT_VNODES);
    old_ring.add(endpoints[0].name());
    old_ring.add(endpoints[1].name());
    let mut new_ring = old_ring.clone();
    new_ring.add(endpoints[2].name());

    let coordinator = Arc::new(HandoffCoordinator::new(
        Arc::clone(&d.discovery),
        HandoffConfig {
            chunk_entries: 4,      // many chunks: plenty of loss exposure
            max_chunk_retries: 24, // budget survives 35% loss comfortably
            chunk_deadline: None,  // loss, not lateness, is the fault here
            ..HandoffConfig::default()
        },
    ));
    let report = coordinator
        .run_handoff("region-a", &old_ring, &new_ring, &endpoints, &[TABLE])
        .unwrap();

    assert!(report.entries_exported > 0, "some keyspace must move");
    assert_eq!(report.cold_joins, 0, "loss must not degrade to cold-join");
    assert!(
        report.chunks_resumed > 0,
        "a 35% lossy link must force at least one resume"
    );
    assert_eq!(
        report.entries_imported, report.entries_exported,
        "every exported entry must still land despite the losses"
    );
    assert_eq!(
        coordinator.metrics.chunks_resumed.get() as usize,
        report.chunks_resumed
    );

    // Every moved pid is warm (resident) on the new owner.
    let new_instance = endpoints[2].instance();
    let rt = new_instance.table(TABLE).unwrap();
    let mut moved = 0;
    for pid in 0..PIDS {
        if new_ring.node_for(ProfileId::new(pid)) == Some(endpoints[2].name()) {
            moved += 1;
            assert!(
                rt.cache.contains(ProfileId::new(pid)),
                "moved pid {pid} not warm after resumed stream"
            );
        }
    }
    assert_eq!(moved, report.entries_imported);
}

/// A write racing the snapshot (export happens, then the profile advances,
/// then the chunk arrives) must lose to the store: the importer's
/// generation probe rejects the stale entry and the newer value survives.
#[test]
fn stale_snapshot_loses_to_concurrent_write() {
    let (d, client, ctl) = build(2);
    const PIDS: u64 = 32;
    write_profiles(&client, &ctl, PIDS);

    let source = &d.regions[0].endpoints[0];
    let target = &d.regions[0].endpoints[1];

    // Export everything resident on the source (flushes dirty entries, so
    // the generations are the store head *right now*).
    let batch = source
        .instance()
        .export_hot(TABLE, |_| true, 4096, 64 << 20)
        .unwrap();
    assert!(!batch.entries.is_empty(), "source must own some keyspace");
    let victim = batch.entries[0].pid;

    // The race: the profile advances after the export. Route the write
    // through the client (it lands on the source, the current owner) and
    // flush, so the store's head generation moves past the snapshot's.
    client
        .add_profile(
            CALLER,
            TABLE,
            victim,
            ctl.now(),
            SLOT,
            LIKE,
            FeatureId::new(100 + victim.raw()),
            CountVector::single(5),
        )
        .unwrap();
    source.instance().flush_all().unwrap();

    // Deliver the (now partially stale) snapshot to the target.
    let entries: Vec<SnapshotEntry> = batch
        .entries
        .iter()
        .map(|e| SnapshotEntry {
            profile: e.pid,
            generation: e.generation,
            payload: encode_profile(&e.data),
        })
        .collect();
    let sent = entries.len();
    let (response, _) = target
        .call(&RpcRequest::SnapshotChunk {
            table: TABLE,
            handoff: 7,
            seq: 0,
            last: true,
            entries,
        })
        .unwrap();
    let RpcResponse::SnapshotAck(ack) = response else {
        panic!("expected a snapshot ACK, got {response:?}");
    };
    assert_eq!(ack.next_seq, 1);
    assert_eq!(ack.rejected_stale, 1, "the raced entry must be rejected");
    assert_eq!(ack.imported as usize, sent - 1, "the rest imports");

    // The newer value survives: the target serves the victim from the
    // store (both writes), not from the stale snapshot payload.
    let q = ProfileQuery::filter(
        TABLE,
        victim,
        SLOT,
        TimeRange::last_days(1),
        FilterPredicate::FeatureIn(vec![FeatureId::new(100 + victim.raw())]),
    );
    let result = target.instance().query(CALLER, &q).unwrap();
    assert_eq!(
        result.entries[0].counts.get_or_zero(0),
        6,
        "concurrent write lost to a stale snapshot"
    );
}
