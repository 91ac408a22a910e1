//! Integration test: wire-propagated span context across the cluster.
//!
//! One traced batched query is dispatched while the home region is dead, so
//! the client walks owner → failover → remote region. The resulting trace
//! must be a single coherent tree: client-side attempt spans naming the dead
//! and the surviving endpoints, server-side spans parented through the wire
//! context (not through any in-process thread-local leak), the failed
//! attempts carrying an error attribute, and no span pointing at a parent
//! that was never recorded. With sampling off the same workload must record
//! exactly nothing.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ips::cluster::{IpsClusterClient, MultiRegionDeployment, MultiRegionOptions, NetworkModel};
use ips::kv::KvLatencyModel;
use ips::prelude::*;
use ips::trace::{SamplerConfig, SpanRecord, Tracer};

const TABLE: TableId = TableId(1);
const CALLER: CallerId = CallerId(1);
const SLOT: SlotId = SlotId(1);
const LIKE: ActionTypeId = ActionTypeId(1);
const BATCH: u64 = 16;

struct World {
    deployment: MultiRegionDeployment,
    client: IpsClusterClient,
    ctl: SimClock,
}

fn build(sampling: SamplerConfig) -> (World, Arc<Tracer>) {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(10).as_millis(),
    ));
    let mut table_cfg = TableConfig::new("t");
    table_cfg.isolation.enabled = false;
    let deployment = MultiRegionDeployment::build(
        MultiRegionOptions {
            regions: vec!["region-0".into(), "region-1".into()],
            instances_per_region: 3,
            network: NetworkModel::zero(),
            tables: vec![(TABLE, table_cfg)],
            ..Default::default()
        },
        Arc::clone(&clock),
    )
    .unwrap();
    let tracer = Tracer::new(clock, sampling);
    let client = IpsClusterClient::new(
        Arc::clone(&deployment.discovery),
        "region-0",
        KvLatencyModel::zero(),
    );
    client.add_endpoints(deployment.all_endpoints());
    client.refresh();
    client.set_tracer(Some(Arc::clone(&tracer)));
    for ep in deployment.all_endpoints() {
        ep.instance().set_tracer(Some(Arc::clone(&tracer)));
    }
    (
        World {
            deployment,
            client,
            ctl,
        },
        tracer,
    )
}

fn seed_profiles(w: &World) {
    for pid in 0..BATCH {
        w.client
            .add_profile(
                CALLER,
                TABLE,
                ProfileId::new(pid),
                w.ctl.now(),
                SLOT,
                LIKE,
                FeatureId::new(1_000 + pid),
                CountVector::single(1),
            )
            .unwrap();
    }
    // Persist + replicate so any failover target can serve from storage.
    for ep in w.deployment.all_endpoints() {
        ep.instance().flush_all().unwrap();
    }
    w.deployment.pump_replication(1 << 20);
}

fn queries() -> Vec<ProfileQuery> {
    (0..BATCH)
        .map(|pid| {
            ProfileQuery::top_k(
                TABLE,
                ProfileId::new(pid),
                SLOT,
                TimeRange::last_days(1),
                10,
            )
        })
        .collect()
}

fn attr<'a>(rec: &'a SpanRecord, key: &str) -> Option<&'a str> {
    rec.attrs
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.as_str())
}

#[test]
fn failover_batch_produces_one_coherent_trace() {
    let (w, tracer) = build(SamplerConfig::always());
    seed_profiles(&w);
    let _ = tracer.drain(); // discard the seeding traffic's traces

    // Kill the whole home region: every sub-query must fail its home
    // attempts and succeed on region-1.
    w.deployment.regions[0].set_down(true);
    let outcome = w.client.query_batch(CALLER, &queries()).unwrap();
    assert!(outcome.all_ok(), "remote region takes the whole batch");

    let recs = tracer.drain();
    assert_eq!(
        tracer.dropped_records(),
        0,
        "ring buffers must not overflow"
    );

    // Exactly one trace, rooted at the client's batched query.
    let roots: Vec<&SpanRecord> = recs.iter().filter(|r| r.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "one request, one root");
    let root = roots[0];
    assert_eq!(root.name, "query_batch");
    assert!(
        recs.iter().all(|r| r.trace == root.trace),
        "every span joins the root's trace"
    );

    // No orphans: every parent pointer resolves to a recorded span.
    let ids: HashSet<u64> = recs.iter().map(|r| r.span.0).collect();
    for r in &recs {
        if let Some(parent) = r.parent {
            assert!(
                ids.contains(&parent.0),
                "span `{}` has unrecorded parent {parent}",
                r.name
            );
        }
    }

    // Client-side attempt spans name endpoints from BOTH regions: the dead
    // home-region owners (errored) and the surviving remote servers.
    let mut regions_attempted: HashMap<String, bool> = HashMap::new();
    for r in recs.iter().filter(|r| r.name == "attempt") {
        let region = attr(r, "region")
            .expect("attempt spans carry a region")
            .to_string();
        *regions_attempted.entry(region).or_default() |= !r.error;
        assert!(
            attr(r, "endpoint").is_some(),
            "attempt spans name an endpoint"
        );
    }
    assert_eq!(
        regions_attempted.get("region-0"),
        Some(&false),
        "dead home region: attempts recorded, none succeeded"
    );
    assert_eq!(
        regions_attempted.get("region-1"),
        Some(&true),
        "remote region: at least one successful attempt"
    );

    // Failed attempts carry the error attribute.
    let failed: Vec<&SpanRecord> = recs
        .iter()
        .filter(|r| r.name == "attempt" && r.error)
        .collect();
    assert!(
        !failed.is_empty(),
        "dead owners must record failed attempts"
    );
    for r in &failed {
        assert!(
            attr(r, "error").is_some_and(|m| !m.is_empty()),
            "errored attempt must say why"
        );
    }

    // Server-side spans exist, are parented through the wire context (their
    // parent is a client attempt span), and ran on region-1 only.
    let attempt_ids: HashSet<u64> = recs
        .iter()
        .filter(|r| r.name == "attempt")
        .map(|r| r.span.0)
        .collect();
    let servers: Vec<&SpanRecord> = recs.iter().filter(|r| r.name == "server").collect();
    assert!(!servers.is_empty(), "wire context must reach the servers");
    for s in &servers {
        assert_eq!(attr(s, "region"), Some("region-1"));
        let parent = s.parent.expect("server spans parent to the client attempt");
        assert!(
            attempt_ids.contains(&parent.0),
            "server span must hang off a wire-propagated attempt context"
        );
    }

    // One request is one thread. In creation (span-id) order the attempts
    // never overlap in time, and frame order is a function of the input:
    // every endpoint gets one frame per failover round, so an attempt's
    // round is how often its endpoint was tried before, and within a round
    // frames go out in endpoint-name order — (region, round, endpoint)
    // strictly ascends over the whole request.
    let mut attempts: Vec<&SpanRecord> = recs.iter().filter(|r| r.name == "attempt").collect();
    attempts.sort_by_key(|r| r.span.0);
    let mut tried: HashMap<&str, usize> = HashMap::new();
    let mut order = Vec::new();
    for a in &attempts {
        let endpoint = attr(a, "endpoint").unwrap();
        let round = tried.entry(endpoint).or_default();
        order.push((attr(a, "region").unwrap(), *round, endpoint));
        *round += 1;
    }
    for (pair, keys) in attempts.windows(2).zip(order.windows(2)) {
        assert!(
            pair[0].end_us <= pair[1].start_us,
            "attempts on {} and {} overlap in time",
            keys[0].2,
            keys[1].2
        );
        assert!(keys[0] < keys[1], "frame order: {order:?}");
    }
    assert!(
        recs.iter().all(|r| r.name != "server_queue"),
        "no worker hand-off, so no queueing stage"
    );
}

#[test]
fn sampling_off_records_zero_spans() {
    let (w, tracer) = build(SamplerConfig::never());
    seed_profiles(&w);
    // Same failure drill as the traced test: errors must not leak spans
    // either, because `never()` disables error promotion too.
    w.deployment.regions[0].set_down(true);
    let outcome = w.client.query_batch(CALLER, &queries()).unwrap();
    assert!(outcome.all_ok());
    assert!(
        tracer.drain().is_empty(),
        "sampling off must record strictly nothing"
    );
    assert_eq!(tracer.dropped_records(), 0);
}
