//! Degraded (stale-bounded) serving during a KV brownout (§III-G /
//! Fig 17's graceful-degradation arm).
//!
//! When the persistent store browns out, cache misses surface `Storage`
//! errors. Failing those requests hard makes the error rate track the KV
//! failure rate one-for-one; the degraded path instead answers from the
//! cache's retained stale pool — stamped `degraded` with its measured
//! staleness — whenever the caller opted in with a staleness tolerance,
//! or the instance itself has seen enough consecutive store failures to
//! declare a brownout.

use std::sync::Arc;

use ips::cluster::{IpsClusterClient, MultiRegionDeployment, MultiRegionOptions, NetworkModel};
use ips::kv::KvLatencyModel;
use ips::prelude::*;
use ips::types::CircuitBreakerConfig;

const TABLE: TableId = TableId(1);
const CALLER: CallerId = CallerId(1);
const SLOT: SlotId = SlotId(1);
const LIKE: ActionTypeId = ActionTypeId(1);

fn build() -> (MultiRegionDeployment, IpsClusterClient, SimClock) {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(400).as_millis(),
    ));
    let mut table_cfg = TableConfig::new("degraded");
    table_cfg.isolation.enabled = false;
    let deployment = MultiRegionDeployment::build(
        MultiRegionOptions {
            regions: vec!["r0".into()],
            instances_per_region: 3,
            network: NetworkModel::zero(),
            tables: vec![(TABLE, table_cfg)],
            ..Default::default()
        },
        clock,
    )
    .unwrap();
    let client = IpsClusterClient::new(
        Arc::clone(&deployment.discovery),
        "r0",
        KvLatencyModel::zero(),
    );
    client.add_endpoints(deployment.all_endpoints());
    client.refresh();
    // Breakers are exercised elsewhere (chaos soak); keep them out of the
    // way here so every attempt reaches a server.
    client.set_breaker_config(CircuitBreakerConfig {
        failure_threshold: 1_000_000,
        cooldown: DurationMs::from_secs(60),
    });
    (deployment, client, ctl)
}

/// Write one profile, then flush + evict everywhere so the only resident
/// copy is in the stale pool (and the store, which is about to brown out).
fn seed_profile(deployment: &MultiRegionDeployment, client: &IpsClusterClient, ctl: &SimClock) {
    client
        .add_profile(
            CALLER,
            TABLE,
            ProfileId::new(7),
            ctl.now(),
            SLOT,
            LIKE,
            FeatureId::new(1),
            CountVector::single(1),
        )
        .unwrap();
    for ep in deployment.all_endpoints() {
        let table = ep.instance().table(TABLE).unwrap();
        table.cache.flush_all().unwrap();
        table.cache.evict(ProfileId::new(7)).unwrap();
    }
}

fn top_k() -> ProfileQuery {
    ProfileQuery::top_k(TABLE, ProfileId::new(7), SLOT, TimeRange::last_days(1), 10)
}

#[test]
fn full_brownout_serves_degraded_within_staleness_bound() {
    let (deployment, client, ctl) = build();
    seed_profile(&deployment, &client, &ctl);
    // The evicted copy ages two seconds before the brownout hits.
    ctl.advance(DurationMs::from_secs(2));
    deployment.set_kv_error_rate(1.0);

    // Fail-hard default: with no staleness tolerance the brownout surfaces.
    let err = client.query(CALLER, &top_k()).unwrap_err();
    assert!(matches!(err, IpsError::Storage(_)), "got {err}");

    // Opt in: the stale copy serves, stamped with its measured staleness.
    client.set_degraded_reads(Some(DurationMs::from_mins(5)));
    let (r, _) = client.query(CALLER, &top_k()).unwrap();
    assert!(r.degraded, "result must be stamped degraded");
    assert_eq!(r.len(), 1, "the stale copy still answers the query");
    assert!(
        r.staleness.as_millis() >= 2_000,
        "staleness reflects the copy's age, got {} ms",
        r.staleness.as_millis()
    );
    assert!(r.staleness.as_millis() <= DurationMs::from_mins(5).as_millis());
    assert!(client.stats().degraded > 0, "client counts degraded serves");

    // The batched path honours the same opt-in.
    let outcome = client.query_batch(CALLER, &[top_k()]).unwrap();
    let r = outcome.results[0].as_ref().unwrap();
    assert!(r.degraded);

    // A tolerance tighter than the copy's age fails hard: stale-bounded
    // means bounded.
    client.set_degraded_reads(Some(DurationMs::from_millis(1)));
    assert!(client.query(CALLER, &top_k()).is_err());

    // Recovery: the brownout ends and fresh (unstamped) reads resume.
    deployment.set_kv_error_rate(0.0);
    client.set_degraded_reads(None);
    let (r, _) = client.query(CALLER, &top_k()).unwrap();
    assert!(!r.degraded);
    assert_eq!(r.staleness, DurationMs::ZERO);
    assert_eq!(r.len(), 1);
}

#[test]
fn sustained_brownout_triggers_auto_degraded_serving() {
    let (deployment, client, ctl) = build();
    seed_profile(&deployment, &client, &ctl);
    ctl.advance(DurationMs::from_secs(1));
    deployment.set_kv_error_rate(1.0);

    // No caller opt-in at all: once an instance has seen enough
    // consecutive store failures (DegradedServingConfig default threshold)
    // it declares a brownout and serves stale on its own.
    let mut served = None;
    for _ in 0..32 {
        if let Ok((r, _)) = client.query(CALLER, &top_k()) {
            served = Some(r);
            break;
        }
    }
    let r = served.expect("sustained brownout must flip to degraded serving");
    assert!(r.degraded);
    assert!(r.staleness.as_millis() >= 1_000);

    // One successful store read (brownout over) resets the instance's
    // failure streak: serving goes back to fail-hard immediately.
    deployment.set_kv_error_rate(0.0);
    let (r, _) = client.query(CALLER, &top_k()).unwrap();
    assert!(!r.degraded);
}
