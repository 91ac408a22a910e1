//! Shard-handoff benchmark: post-scale-up serving cost, warmed vs cold.
//!
//! A scale-up reassigns part of the keyspace to the new instance. Without a
//! handoff the new owner starts cold: every reassigned key's first query
//! misses and pays a store round trip — the Fig 16 miss-spike, now caused
//! by elasticity instead of diurnal load. The handoff streams the moving
//! hot entries to the new owner *before* the epoch cutover, so the spike
//! never happens.
//!
//! Two arms over identical deployments, keyspaces and rings:
//!
//! * **cold** — scale out, publish the new epoch, serve. The post-scale
//!   query sweep pays roughly one store load per reassigned key.
//! * **warmed** — the same scale event driven through the
//!   `HandoffCoordinator`: hot entries stream to the new owner, the epoch
//!   bumps, sources demote. The sweep finds the moved keys resident.
//!
//! Asserts the warmed join cuts the post-scale store-load spike at least
//! 5x and leaves loads-per-reassigned-key below 1.0. Writes
//! `BENCH_handoff.json`. `--smoke` shrinks the workload for CI.

use std::fmt::Write as _;
use std::sync::Arc;

use ips_bench::{banner, testbed, TestbedOptions, TABLE};
use ips_cluster::{
    Autoscaler, AutoscalerConfig, HandoffConfig, HandoffCoordinator, ScaleDecision,
    ScaleOrchestrator,
};
use ips_core::query::ProfileQuery;
use ips_metrics::Histogram;
use ips_types::{
    ActionTypeId, CallerId, Clock, CountVector, FeatureId, ProfileId, SlotId, TimeRange,
};

const CALLER: CallerId = CallerId(1);
const SLOT: SlotId = SlotId(1);

struct ArmResult {
    epoch: u64,
    reassigned: u64,
    store_loads: u64,
    misses: u64,
    queries: u64,
    p50_us: u64,
    p99_us: u64,
    loads_per_reassigned_key: f64,
    miss_rate: f64,
}

/// Sum of store loads / misses across the fleet's caches.
fn fleet_stats(tb: &ips_bench::Testbed) -> (u64, u64) {
    tb.deployment
        .all_endpoints()
        .iter()
        .map(|ep| {
            let s = ep.instance().table(TABLE).expect("table").cache.stats();
            (s.store_loads, s.misses)
        })
        .fold((0, 0), |(l, m), (sl, sm)| (l + sl, m + sm))
}

/// One arm: build the standard testbed, load the keyspace, scale up (warmed
/// or cold), then sweep every key once through the refreshed client.
fn run_arm(warmed: bool, keys: u64) -> ArmResult {
    let mut tb = testbed(TestbedOptions {
        regions: 1,
        instances_per_region: 3,
        ..TestbedOptions::default()
    });
    let region = tb.deployment.regions[0].name.clone();
    for pid in 0..keys {
        tb.client
            .add_profile(
                CALLER,
                TABLE,
                ProfileId::new(pid),
                tb.ctl.now(),
                SLOT,
                ActionTypeId::new(1),
                FeatureId::new(100 + pid),
                CountVector::single(1),
            )
            .expect("preload write");
    }
    // Durable + resident on the owners: the steady state before the event.
    for ep in tb.deployment.all_endpoints() {
        ep.instance().flush_all().expect("flush");
    }

    let coordinator = Arc::new(HandoffCoordinator::new(
        Arc::clone(&tb.deployment.discovery),
        HandoffConfig::default(),
    ));
    let orch = ScaleOrchestrator::new(
        Autoscaler::new(
            AutoscalerConfig::default(),
            Arc::clone(tb.deployment.clock()),
        ),
        Arc::clone(&coordinator),
        region.clone(),
        vec![TABLE],
    );
    // Both arms share ring construction through the orchestrator so the
    // reassigned keyspace is identical; the cold arm simply skips the
    // streaming (the coordinator is configured to export nothing).
    let epoch = if warmed {
        let report = orch
            .apply(&mut tb.deployment, ScaleDecision::Up(1))
            .expect("scale up")
            .expect("a report");
        assert_eq!(report.cold_joins, 0, "healthy fleet must hand off warm");
        assert!(report.entries_imported > 0, "the handoff must move entries");
        report.epoch
    } else {
        let cold_coordinator = Arc::new(HandoffCoordinator::new(
            Arc::clone(&tb.deployment.discovery),
            HandoffConfig {
                max_entries: 0, // export nothing: the epoch bump alone
                ..HandoffConfig::default()
            },
        ));
        let cold_orch = ScaleOrchestrator::new(
            Autoscaler::new(
                AutoscalerConfig::default(),
                Arc::clone(tb.deployment.clock()),
            ),
            Arc::clone(&cold_coordinator),
            region.clone(),
            vec![TABLE],
        );
        cold_orch
            .apply(&mut tb.deployment, ScaleDecision::Up(1))
            .expect("scale up")
            .expect("a report")
            .epoch
    };

    // Count the reassigned keys: owned by the new node under the published
    // ring, and (because adding a node only steals keyspace) previously
    // owned elsewhere.
    let membership = tb
        .deployment
        .discovery
        .membership(&region)
        .expect("published epoch");
    let new_name = tb.deployment.regions[0].endpoints[3].name().to_string();
    let reassigned = (0..keys)
        .filter(|&pid| membership.ring.node_for(ProfileId::new(pid)) == Some(new_name.as_str()))
        .count() as u64;

    // Post-scale sweep: the first client contact with every key after the
    // cutover — exactly where a cold join spikes the store.
    tb.client.add_endpoints(tb.deployment.all_endpoints());
    tb.client.refresh();
    let (loads_before, misses_before) = fleet_stats(&tb);
    let latencies = Histogram::new();
    for pid in 0..keys {
        let q = ProfileQuery::top_k(
            TABLE,
            ProfileId::new(pid),
            SLOT,
            TimeRange::last_days(1),
            10,
        );
        let (r, priced) = tb.query(CALLER, &q).expect("post-scale query");
        assert_eq!(r.len(), 1, "no key may be lost across the scale event");
        latencies.record(priced.total_us());
    }
    let (loads_after, misses_after) = fleet_stats(&tb);
    let store_loads = loads_after - loads_before;
    let misses = misses_after - misses_before;
    let snap = latencies.snapshot();
    ArmResult {
        epoch,
        reassigned,
        store_loads,
        misses,
        queries: keys,
        p50_us: snap.percentile(50.0),
        p99_us: snap.percentile(99.0),
        loads_per_reassigned_key: store_loads as f64 / reassigned.max(1) as f64,
        miss_rate: misses as f64 / keys.max(1) as f64,
    }
}

fn arm_json(r: &ArmResult) -> String {
    format!(
        "{{\"epoch\": {}, \"reassigned_keys\": {}, \"store_loads\": {}, \"misses\": {}, \
         \"queries\": {}, \"loads_per_reassigned_key\": {:.3}, \"miss_rate\": {:.3}, \
         \"p50_us\": {}, \"p99_us\": {}}}",
        r.epoch,
        r.reassigned,
        r.store_loads,
        r.misses,
        r.queries,
        r.loads_per_reassigned_key,
        r.miss_rate,
        r.p50_us,
        r.p99_us
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "shard handoff",
        "post-scale-up serving cost: warmed handoff vs cold join",
    );
    let keys: u64 = if smoke { 400 } else { 2_000 };

    println!("cold arm: scale 3 -> 4, no streaming, sweep {keys} keys ...");
    let cold = run_arm(false, keys);
    println!(
        "cold:   reassigned={} store_loads={} loads/key={:.2} miss_rate={:.3}",
        cold.reassigned, cold.store_loads, cold.loads_per_reassigned_key, cold.miss_rate
    );
    println!();
    println!("warmed arm: the same scale event through the handoff ...");
    let warmed = run_arm(true, keys);
    println!(
        "warmed: reassigned={} store_loads={} loads/key={:.2} miss_rate={:.3}",
        warmed.reassigned, warmed.store_loads, warmed.loads_per_reassigned_key, warmed.miss_rate
    );

    println!();
    println!(
        "post-scale p99: cold={}us warmed={}us   p50: cold={}us warmed={}us",
        cold.p99_us, warmed.p99_us, cold.p50_us, warmed.p50_us
    );
    assert_eq!(
        cold.reassigned, warmed.reassigned,
        "identical rings must reassign the identical keyspace"
    );
    assert!(
        cold.reassigned > 0,
        "the new node must own part of the keyspace"
    );

    let spike_ratio = cold.store_loads as f64 / warmed.store_loads.max(1) as f64;
    println!("store-load spike ratio (cold/warmed): {spike_ratio:.1}x");
    assert!(
        spike_ratio >= 5.0,
        "warmed join must cut the post-scale store-load spike at least 5x (got {spike_ratio:.1}x)"
    );
    assert!(
        warmed.loads_per_reassigned_key < 1.0,
        "warmed join must not reload the reassigned keyspace (got {:.2} loads/key)",
        warmed.loads_per_reassigned_key
    );
    assert!(
        cold.loads_per_reassigned_key >= 0.9,
        "cold join must pay about one load per reassigned key (got {:.2})",
        cold.loads_per_reassigned_key
    );
    assert!(
        warmed.p99_us <= cold.p99_us,
        "warmed post-scale p99 ({}us) must not exceed cold ({}us)",
        warmed.p99_us,
        cold.p99_us
    );

    let mut json = String::from("{\n  \"bench\": \"shard_handoff\",\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"keys\": {keys},");
    let _ = writeln!(json, "  \"cold\": {},", arm_json(&cold));
    let _ = writeln!(json, "  \"warmed\": {},", arm_json(&warmed));
    let _ = writeln!(json, "  \"store_load_spike_ratio\": {spike_ratio:.2},");
    let _ = writeln!(
        json,
        "  \"p99_ratio\": {:.2}\n}}",
        cold.p99_us as f64 / warmed.p99_us.max(1) as f64
    );
    std::fs::write("BENCH_handoff.json", &json).expect("write BENCH_handoff.json");
    println!("wrote BENCH_handoff.json");
    println!("shard_handoff: OK");
}
