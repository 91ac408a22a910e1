//! Integration test: the request context (caller, priority, deadline,
//! staleness tolerance) survives the whole stack — client setters → wire
//! envelope → server pipeline → trace attributes.
//!
//! The cluster client stamps every frame with the caller's declared
//! contract; the RPC endpoint decodes it into a [`RequestContext`] and the
//! server pipeline's trace stage records it on the `pipeline` span. One
//! traced batched query therefore proves the full round trip: the client
//! root span and the server pipeline spans carry the *same* tenant
//! identity and contract, inside one coherent trace. A client that stamps
//! nothing must propagate exactly nothing — default priority, no deadline,
//! no staleness — and its frames must be byte-identical to ones from an
//! options-unaware encoder.

use std::collections::HashSet;
use std::sync::Arc;

use ips::cluster::rpc::RequestEnvelope;
use ips::cluster::{
    CallOptions, IpsClusterClient, MultiRegionDeployment, MultiRegionOptions, NetworkModel,
    RpcRequest,
};
use ips::kv::KvLatencyModel;
use ips::prelude::*;
use ips::trace::{SamplerConfig, SpanRecord, Tracer};
use ips::types::{CircuitBreakerConfig, Deadline, Priority};

const TABLE: TableId = TableId(1);
const CALLER: CallerId = CallerId(7);
const SLOT: SlotId = SlotId(1);
const LIKE: ActionTypeId = ActionTypeId(1);
const BATCH: u64 = 8;

struct World {
    client: IpsClusterClient,
    ctl: SimClock,
    // Endpoints (and their instances) stay alive through the deployment.
    _deployment: MultiRegionDeployment,
}

fn build() -> (World, Arc<Tracer>) {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(10).as_millis(),
    ));
    let mut table_cfg = TableConfig::new("ctx");
    table_cfg.isolation.enabled = false;
    let deployment = MultiRegionDeployment::build(
        MultiRegionOptions {
            regions: vec!["r0".into()],
            instances_per_region: 3,
            network: NetworkModel::zero(),
            tables: vec![(TABLE, table_cfg)],
            ..Default::default()
        },
        Arc::clone(&clock),
    )
    .unwrap();
    let tracer = Tracer::new(clock, SamplerConfig::always());
    let client = IpsClusterClient::new(
        Arc::clone(&deployment.discovery),
        "r0",
        KvLatencyModel::zero(),
    );
    client.add_endpoints(deployment.all_endpoints());
    client.refresh();
    // Breakers are exercised elsewhere; keep every attempt on
    // the straight path so the trace shape is deterministic.
    client.set_breaker_config(CircuitBreakerConfig {
        failure_threshold: 1_000_000,
        cooldown: DurationMs::from_secs(60),
    });
    client.set_tracer(Some(Arc::clone(&tracer)));
    for ep in deployment.all_endpoints() {
        ep.instance().set_tracer(Some(Arc::clone(&tracer)));
    }
    (
        World {
            client,
            ctl,
            _deployment: deployment,
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

/// Every parent pointer must resolve to a recorded span and every span must
/// join the root's trace — context that "survives" into a different trace
/// has not survived at all.
fn assert_coherent(recs: &[SpanRecord], root: &SpanRecord) {
    let ids: HashSet<u64> = recs.iter().map(|r| r.span.0).collect();
    for r in recs {
        assert_eq!(r.trace, root.trace, "span `{}` left the trace", r.name);
        if let Some(parent) = r.parent {
            assert!(
                ids.contains(&parent.0),
                "span `{}` has unrecorded parent {parent}",
                r.name
            );
        }
    }
}

#[test]
fn stamped_context_reaches_server_pipeline_spans() {
    let (w, tracer) = build();
    seed_profiles(&w);
    let _ = tracer.drain(); // discard seeding traffic

    w.client.set_request_priority(Priority::Bulk);
    w.client
        .set_request_deadline(Some(DurationMs::from_secs(2)));
    w.client.set_degraded_reads(Some(DurationMs::from_secs(60)));

    let outcome = w.client.query_batch(CALLER, &queries()).unwrap();
    assert!(outcome.all_ok(), "healthy cluster must serve the batch");

    let recs = tracer.drain();
    let roots: Vec<&SpanRecord> = recs.iter().filter(|r| r.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "one request, one root");
    let root = roots[0];
    assert_eq!(root.name, "query_batch");
    assert_coherent(&recs, root);

    // The client root announces the tenant and its declared priority.
    assert_eq!(attr(root, "caller"), Some("7"));
    assert_eq!(attr(root, "priority"), Some("bulk"));

    // Server-side pipeline spans carry the same contract, decoded from the
    // wire envelope — not from any in-process shortcut: they are parented
    // under a `server` span, which hangs off the wire-propagated attempt
    // context.
    let pipelines: Vec<&SpanRecord> = recs.iter().filter(|r| r.name == "pipeline").collect();
    assert!(
        !pipelines.is_empty(),
        "admitted requests must open a server pipeline span"
    );
    let server_ids: HashSet<u64> = recs
        .iter()
        .filter(|r| r.name == "server")
        .map(|r| r.span.0)
        .collect();
    for p in &pipelines {
        assert_eq!(attr(p, "caller"), Some("7"), "caller survives the wire");
        assert_eq!(attr(p, "priority"), Some("bulk"), "priority survives");
        let deadline_us: u64 = attr(p, "deadline_us")
            .expect("armed deadline must be recorded server-side")
            .parse()
            .unwrap();
        assert!(
            deadline_us > 0 && deadline_us <= 2_000_000,
            "server sees the remaining budget, already charged: {deadline_us} us"
        );
        assert_eq!(
            attr(p, "staleness_ms"),
            Some("60000"),
            "degraded opt-in (staleness bound) survives the wire"
        );
        let parent = p.parent.expect("pipeline spans nest under the rpc server");
        assert!(
            server_ids.contains(&parent.0),
            "pipeline span must hang off the wire-decoded server span"
        );
    }
}

#[test]
fn unstamped_client_propagates_exactly_nothing() {
    let (w, tracer) = build();
    seed_profiles(&w);
    let _ = tracer.drain();

    // No setters: the implicit contract is default priority, no deadline,
    // no degraded opt-in.
    let outcome = w.client.query_batch(CALLER, &queries()).unwrap();
    assert!(outcome.all_ok());

    let recs = tracer.drain();
    let pipelines: Vec<&SpanRecord> = recs.iter().filter(|r| r.name == "pipeline").collect();
    assert!(!pipelines.is_empty());
    for p in &pipelines {
        assert_eq!(attr(p, "caller"), Some("7"));
        assert_eq!(attr(p, "priority"), Some("normal"));
        assert_eq!(attr(p, "deadline_us"), None, "no deadline was stamped");
        assert_eq!(attr(p, "staleness_ms"), None, "no opt-in was stamped");
    }
}

#[test]
fn absent_context_is_byte_identical_on_the_wire() {
    let request = RpcRequest::QueryBatch {
        caller: CALLER,
        queries: queries(),
    };
    // A client with nothing stamped must emit the same bytes as an
    // options-unaware encoder: absent context costs zero wire footprint
    // and keeps old readers compatible.
    assert_eq!(
        request.encode_with(None, &CallOptions::default()),
        request.encode_traced(None),
        "default CallOptions must not change the frame"
    );

    // A stamped frame round-trips every field of the contract.
    let opts = CallOptions {
        deadline: Some(Deadline::from_budget_us(1_500)),
        degraded: Some(DurationMs::from_secs(30)),
        priority: Priority::Interactive,
    };
    let bytes = request.encode_with(None, &opts);
    let (decoded, envelope): (RpcRequest, RequestEnvelope) =
        RpcRequest::decode_envelope(&bytes).unwrap();
    assert!(matches!(
        decoded,
        RpcRequest::QueryBatch { caller, ref queries } if caller == CALLER && queries.len() == BATCH as usize
    ));
    assert_eq!(envelope.deadline.map(|d| d.budget_us()), Some(1_500));
    assert_eq!(envelope.degraded, Some(DurationMs::from_secs(30)));
    assert_eq!(envelope.priority, Priority::Interactive);
}
