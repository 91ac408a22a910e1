//! Routing, failover, breaker, deadline and wire-log tests for the
//! unified client.

use std::sync::Arc;

use ips_core::query::ProfileQuery;
use ips_kv::KvLatencyModel;
use ips_types::clock::sim_clock;
use ips_types::Clock as _;
use ips_types::{
    ActionTypeId, CallerId, CircuitBreakerConfig, CountVector, DurationMs, FeatureId, IpsError,
    ProfileId, SlotId, TableConfig, TableId, TimeRange, Timestamp,
};

use super::{IpsClusterClient, Lane};
use crate::discovery::Discovery;
use crate::region::{MultiRegionDeployment, MultiRegionOptions};
use crate::rpc::RpcEndpoint;
use crate::BreakerState;

const TABLE: TableId = TableId(1);
const CALLER: CallerId = CallerId(1);
const SLOT: SlotId = SlotId(1);
const LIKE: ActionTypeId = ActionTypeId(1);

fn deployment() -> (MultiRegionDeployment, IpsClusterClient, ips_types::SimClock) {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(400).as_millis(),
    ));
    let options = MultiRegionOptions {
        instances_per_region: 3,
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

fn write(client: &IpsClusterClient, pid: u64, fid: u64, at: Timestamp) {
    client
        .add_profile(
            CALLER,
            TABLE,
            ProfileId::new(pid),
            at,
            SLOT,
            LIKE,
            FeatureId::new(fid),
            CountVector::single(1),
        )
        .unwrap();
}

/// `pid`'s home-region walk (region-a): the owner first.
fn home_candidates(client: &IpsClusterClient, pid: u64) -> Vec<Arc<RpcEndpoint>> {
    let mut out = Vec::new();
    client.extend_candidates(Lane::Read, 0, ProfileId::new(pid), &mut out);
    out
}

fn queries_served(ep: &RpcEndpoint) -> u64 {
    ep.instance().table(TABLE).unwrap().metrics.queries.get()
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

#[test]
fn write_fans_out_to_all_regions() {
    let (d, client, ctl) = deployment();
    write(&client, 7, 1, ctl.now());
    // The profile is queryable from BOTH regions' instances directly.
    for region in &d.regions {
        let mut found = false;
        for ep in &region.endpoints {
            let r = ep.instance().query(CALLER, &top_k(7)).unwrap();
            if !r.is_empty() {
                found = true;
            }
        }
        assert!(found, "region {} must hold the write", region.name);
    }
}

#[test]
fn query_prefers_home_region() {
    let (d, client, ctl) = deployment();
    write(&client, 7, 1, ctl.now());
    let before: u64 = d
        .region("region-b")
        .unwrap()
        .endpoints
        .iter()
        .map(|e| e.instance().table(TABLE).unwrap().metrics.queries.get())
        .sum();
    let (result, _) = client.query(CALLER, &top_k(7)).unwrap();
    assert_eq!(result.len(), 1);
    let after: u64 = d
        .region("region-b")
        .unwrap()
        .endpoints
        .iter()
        .map(|e| e.instance().table(TABLE).unwrap().metrics.queries.get())
        .sum();
    assert_eq!(before, after, "home-region query must not touch region-b");
}

#[test]
fn instance_failure_fails_over_within_region() {
    let (d, client, ctl) = deployment();
    write(&client, 7, 1, ctl.now());
    // The owner flushes to the persistent store (in production the
    // host's maintenance tick does this within tens of milliseconds)...
    let region_a = d.region("region-a").unwrap();
    for ep in &region_a.endpoints {
        ep.instance().flush_all().unwrap();
    }
    // ...then the whole region except one instance crashes.
    for ep in &region_a.endpoints {
        ep.set_down(true);
    }
    region_a.endpoints[0].set_down(false);
    // The survivor is not the owner's cache, so it serves the query by
    // loading the profile from the key-value store — the paper's
    // recovery path.
    let (result, _) = client.query(CALLER, &top_k(7)).unwrap();
    assert_eq!(result.len(), 1);
    assert_eq!(client.error_rate(), 0.0, "failover masked the outage");
}

#[test]
fn region_outage_fails_over_to_other_region() {
    let (d, client, ctl) = deployment();
    write(&client, 7, 1, ctl.now());
    d.region("region-a").unwrap().set_down(true);
    let (result, _) = client.query(CALLER, &top_k(7)).unwrap();
    assert_eq!(result.len(), 1, "region-b served the query");
    assert!(client.stats().retries > 0);
    assert_eq!(client.stats().failures, 0);
}

#[test]
fn total_outage_reports_failure() {
    let (d, client, ctl) = deployment();
    write(&client, 7, 1, ctl.now());
    for region in &d.regions {
        region.set_down(true);
    }
    assert!(client.query(CALLER, &top_k(7)).is_err());
    assert!(client.error_rate() > 0.0);
}

#[test]
fn quota_rejection_is_not_retried() {
    let (d, client, ctl) = deployment();
    // Set a zero quota for a caller on every instance.
    let banned = CallerId::new(66);
    for ep in d.all_endpoints() {
        ep.instance().quota.set_quota(
            banned,
            ips_types::QuotaConfig {
                qps_limit: 0,
                burst_factor: 1.0,
            },
        );
    }
    write(&client, 7, 1, ctl.now());
    let before_retries = client.stats().retries;
    let err = client.query(banned, &top_k(7)).unwrap_err();
    assert!(matches!(err, IpsError::QuotaExceeded(_)));
    assert_eq!(
        client.stats().retries,
        before_retries,
        "terminal errors must not trigger failover"
    );
}

#[test]
fn refresh_tracks_discovery_changes() {
    let (d, client, ctl) = deployment();
    assert_eq!(client.regions().len(), 2);
    // Region-b expires out of discovery.
    ctl.advance(DurationMs::from_secs(20));
    for ep in d.region("region-a").unwrap().endpoints.iter() {
        d.discovery.heartbeat(ep.name());
    }
    ctl.advance(DurationMs::from_secs(15));
    client.refresh();
    assert_eq!(client.regions().len(), 1);
}

#[test]
fn no_discovery_no_service() {
    let (clock, _ctl) = sim_clock(Timestamp::from_millis(1_000));
    let discovery = Arc::new(Discovery::new(clock, DurationMs::from_secs(30)));
    let client = IpsClusterClient::new(discovery, "nowhere", KvLatencyModel::zero());
    client.refresh();
    assert!(matches!(
        client.add_profile(
            CALLER,
            TABLE,
            ProfileId::new(1),
            Timestamp::from_millis(1),
            SLOT,
            LIKE,
            FeatureId::new(1),
            CountVector::single(1),
        ),
        Err(IpsError::Unavailable(_))
    ));
}

#[test]
fn batch_query_returns_results_in_input_order() {
    let (_d, client, ctl) = deployment();
    // Distinct feature per profile so results are attributable.
    for pid in 0..40u64 {
        write(&client, pid, 1_000 + pid, ctl.now());
    }
    let queries: Vec<ProfileQuery> = (0..40).map(top_k).collect();
    let outcome = client.query_batch(CALLER, &queries).unwrap();
    assert_eq!(outcome.results.len(), 40);
    assert!(outcome.all_ok());
    for (pid, sub) in outcome.results.iter().enumerate() {
        let r = sub.as_ref().unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.entries[0].feature.raw(),
            1_000 + pid as u64,
            "result {pid} out of order"
        );
    }
}

#[test]
fn batch_query_stays_in_home_region() {
    let (d, client, ctl) = deployment();
    for pid in 0..10u64 {
        write(&client, pid, 1, ctl.now());
    }
    let before: u64 = d
        .region("region-b")
        .unwrap()
        .endpoints
        .iter()
        .map(|e| e.instance().table(TABLE).unwrap().metrics.queries.get())
        .sum();
    let queries: Vec<ProfileQuery> = (0..10).map(top_k).collect();
    assert!(client.query_batch(CALLER, &queries).unwrap().all_ok());
    let after: u64 = d
        .region("region-b")
        .unwrap()
        .endpoints
        .iter()
        .map(|e| e.instance().table(TABLE).unwrap().metrics.queries.get())
        .sum();
    assert_eq!(before, after, "healthy home region handles the batch");
}

#[test]
fn batch_query_records_batch_metrics() {
    let (d, client, ctl) = deployment();
    for pid in 0..8u64 {
        write(&client, pid, 1, ctl.now());
    }
    let queries: Vec<ProfileQuery> = (0..8).map(top_k).collect();
    client.query_batch(CALLER, &queries).unwrap();
    let batched: u64 = d
        .region("region-a")
        .unwrap()
        .endpoints
        .iter()
        .map(|e| {
            e.instance()
                .table(TABLE)
                .unwrap()
                .metrics
                .batch_queries
                .get()
        })
        .sum();
    assert!(batched > 0, "server-side batch metrics must tick");
}

#[test]
fn add_batch_fans_out_to_all_regions() {
    let (d, client, ctl) = deployment();
    let writes: Vec<crate::rpc::ProfileWrite> = (0..20u64)
        .map(|pid| crate::rpc::ProfileWrite {
            table: TABLE,
            profile: ProfileId::new(pid),
            at: ctl.now(),
            slot: SLOT,
            action: LIKE,
            features: vec![(FeatureId::new(500 + pid), CountVector::single(1))],
        })
        .collect();
    client.add_batch(CALLER, &writes).unwrap();
    for region in &d.regions {
        for pid in 0..20u64 {
            let found = region
                .endpoints
                .iter()
                .any(|ep| !ep.instance().query(CALLER, &top_k(pid)).unwrap().is_empty());
            assert!(found, "profile {pid} missing from region {}", region.name);
        }
    }
}

#[test]
fn breaker_opens_and_routes_around_dead_endpoint() {
    let (d, client, ctl) = deployment();
    write(&client, 7, 1, ctl.now());
    // Flush so failover siblings can load the profile from the store.
    let region_a = d.region("region-a").unwrap();
    for ep in &region_a.endpoints {
        ep.instance().flush_all().unwrap();
    }
    client.set_breaker_config(CircuitBreakerConfig {
        failure_threshold: 2,
        cooldown: DurationMs::from_secs(60),
    });
    let owner = home_candidates(&client, 7)[0].clone();
    owner.set_down(true);
    // Each query pays one failed attempt on the dead owner, then fails
    // over; the owner's failure streak grows until the breaker opens.
    client.query(CALLER, &top_k(7)).unwrap();
    client.query(CALLER, &top_k(7)).unwrap();
    assert_eq!(
        client.health().for_endpoint(owner.name()).state(),
        crate::BreakerState::Open
    );
    // With the breaker open the dead owner is skipped up front: the
    // query succeeds on its first attempt, no retry needed.
    let retries_before = client.stats().retries;
    let (result, _) = client.query(CALLER, &top_k(7)).unwrap();
    assert_eq!(result.len(), 1);
    assert_eq!(
        client.stats().retries,
        retries_before,
        "open breaker must route around the dead owner without a failed first attempt"
    );
}

#[test]
fn routing_fails_open_when_every_breaker_is_blocked() {
    let (d, client, ctl) = deployment();
    write(&client, 7, 1, ctl.now());
    client.set_breaker_config(CircuitBreakerConfig {
        failure_threshold: 1,
        cooldown: DurationMs::from_secs(60),
    });
    for region in &d.regions {
        region.set_down(true);
    }
    assert!(client.query(CALLER, &top_k(7)).is_err());
    for ep in home_candidates(&client, 7) {
        assert_eq!(
            client.health().for_endpoint(ep.name()).state(),
            crate::BreakerState::Open
        );
    }
    // Recovery must not be blackholed: with every candidate blocked,
    // the client attempts them anyway (fail-open) and succeeds.
    for region in &d.regions {
        region.set_down(false);
    }
    let (result, _) = client.query(CALLER, &top_k(7)).unwrap();
    assert_eq!(result.len(), 1);
}

#[test]
fn zero_deadline_sheds_client_side() {
    let (_d, client, ctl) = deployment();
    write(&client, 7, 1, ctl.now());
    client.set_request_deadline(Some(DurationMs::ZERO));
    let err = client.query(CALLER, &top_k(7)).unwrap_err();
    assert!(matches!(err, IpsError::DeadlineExceeded), "got {err}");
    assert!(client.stats().failures > 0);
    // Batch fan-out sheds per sub-query the same way.
    let outcome = client.query_batch(CALLER, &[top_k(7)]).unwrap();
    assert!(matches!(
        outcome.results[0],
        Err(IpsError::DeadlineExceeded)
    ));
    // Clearing the deadline restores service.
    client.set_request_deadline(None);
    assert!(client.query(CALLER, &top_k(7)).is_ok());
}

#[test]
fn latency_breakdown_does_not_double_count_network() {
    // The wire log holds one frame per attempt, each carrying both
    // directions' bytes once; a failover adds the dead owner's attempt as
    // its own round, which delivered nothing.
    let (d, client, ctl) = deployment();
    write(&client, 7, 1, ctl.now());
    let (_, wire) = client.query(CALLER, &top_k(7)).unwrap();
    let [frame] = wire.frames() else {
        panic!("one attempt, one frame: {:?}", wire.frames());
    };
    assert_eq!((frame.lane, frame.round), (0, 0));
    assert!(frame.bytes.sent > 0 && frame.bytes.received > 0);

    for ep in d.all_endpoints() {
        ep.instance().flush_all().unwrap();
    }
    let owner = home_candidates(&client, 7)[0].clone();
    owner.set_down(true);
    let (_, wire) = client.query(CALLER, &top_k(7)).unwrap();
    let rounds: Vec<(u32, u32, bool)> = wire
        .frames()
        .iter()
        .map(|f| (f.lane, f.round, f.bytes.received > 0))
        .collect();
    assert_eq!(rounds, vec![(0, 0, false), (0, 1, true)]);
    assert_eq!(wire.frames()[0].bytes, crate::rpc::FrameBytes::default());
}

#[test]
fn miss_latency_includes_storage_component() {
    // A miss reports the store fetch it performed (what an offline pricer
    // charges the miss penalty from); a hit reports none.
    let (d, client, ctl) = deployment();
    write(&client, 7, 1, ctl.now());
    // Evict from every instance so the next query is a miss.
    for ep in d.all_endpoints() {
        let table = ep.instance().table(TABLE).unwrap();
        table.cache.flush_all().unwrap();
        table.cache.evict(ProfileId::new(7)).unwrap();
    }
    let (result, _) = client.query(CALLER, &top_k(7)).unwrap();
    assert_eq!(result.len(), 1);
    assert!(!result.cache_hit);
    assert!(result.kv_round_trips > 0 && result.kv_bytes_read > 0);
    // A second query hits the cache: no store fetch.
    let (result, _) = client.query(CALLER, &top_k(7)).unwrap();
    assert!(result.cache_hit);
    assert_eq!((result.kv_round_trips, result.kv_bytes_read), (0, 0));
}

#[test]
fn batch_query_sends_one_frame_per_owner() {
    let (_d, client, ctl) = deployment();
    for pid in 0..40u64 {
        write(&client, pid, 1, ctl.now());
    }
    let queries: Vec<ProfileQuery> = (0..40).map(top_k).collect();
    let outcome = client.query_batch(CALLER, &queries).unwrap();
    assert!(outcome.all_ok());
    let owners: std::collections::BTreeSet<String> = (0..40)
        .map(|pid| home_candidates(&client, pid)[0].name().to_string())
        .collect();
    let frames = outcome.wire.frames();
    assert_eq!(frames.len(), owners.len(), "one frame per owner");
    assert!(frames.iter().all(|f| f.lane == 0 && f.round == 0));
    assert!(frames
        .iter()
        .all(|f| f.bytes.sent > 0 && f.bytes.received > 0));
}

#[test]
fn writes_record_one_lane_per_region() {
    let (_d, client, ctl) = deployment();
    let wire = client
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
    let lanes: Vec<(u32, u32)> = wire.frames().iter().map(|f| (f.lane, f.round)).collect();
    assert_eq!(lanes, vec![(0, 0), (1, 0)], "one attempt per region");
}

#[test]
fn breaker_probe_goes_only_to_an_endpoint_a_frame_is_sent_to() {
    let (d, client, ctl) = deployment();
    write(&client, 7, 1, ctl.now());
    for ep in d.all_endpoints() {
        ep.instance().flush_all().unwrap();
    }
    client.set_breaker_config(CircuitBreakerConfig {
        failure_threshold: 1,
        cooldown: DurationMs::ZERO,
    });
    let owner = home_candidates(&client, 7)[0].clone();
    owner.set_down(true);
    client.query(CALLER, &top_k(7)).unwrap();
    let health = client.health().for_endpoint(owner.name());
    assert_eq!(health.state(), BreakerState::Open);
    owner.set_down(false);
    // A query whose own owner answers has the revived owner as a later
    // candidate: it must not spend the owner's half-open probe.
    let other = (0..1_000)
        .find(|&pid| {
            let walk = home_candidates(&client, pid);
            walk[0].name() != owner.name() && walk[1..].iter().any(|e| e.name() == owner.name())
        })
        .unwrap();
    client.query(CALLER, &top_k(other)).unwrap();
    let served = queries_served(&owner);
    for _ in 0..5 {
        client.query(CALLER, &top_k(7)).unwrap();
    }
    assert_eq!(health.state(), BreakerState::Closed);
    assert_eq!(queries_served(&owner) - served, 5, "the owner serves again");
}

#[test]
fn open_breaker_costs_a_batch_no_extra_round() {
    let (d, client, ctl) = deployment();
    for pid in 0..40u64 {
        write(&client, pid, 1, ctl.now());
    }
    for ep in d.all_endpoints() {
        ep.instance().flush_all().unwrap();
    }
    client.set_breaker_config(CircuitBreakerConfig {
        failure_threshold: 1,
        cooldown: DurationMs::from_secs(60),
    });
    let owner = home_candidates(&client, 7)[0].clone();
    owner.set_down(true);
    client.query(CALLER, &top_k(7)).unwrap();
    assert_eq!(
        client.health().for_endpoint(owner.name()).state(),
        BreakerState::Open
    );
    // The blocked owner's sub-queries move to their next candidate in the
    // same round instead of sitting one out.
    let queries: Vec<ProfileQuery> = (0..40).map(top_k).collect();
    let outcome = client.query_batch(CALLER, &queries).unwrap();
    assert!(outcome.all_ok());
    let rounds: Vec<u32> = outcome.wire.frames().iter().map(|f| f.round).collect();
    assert!(rounds.iter().all(|&r| r == 0), "rounds: {rounds:?}");
}

#[test]
fn batch_counters_count_sub_queries_not_frames() {
    let (d, client, _ctl) = deployment();
    for region in &d.regions {
        region.set_down(true);
    }
    let queries: Vec<ProfileQuery> = (0..40).map(top_k).collect();
    let before = client.stats();
    let outcome = client.query_batch(CALLER, &queries).unwrap();
    assert!(outcome.results.iter().all(Result::is_err));
    let after = client.stats();
    assert_eq!(after.attempts - before.attempts, 40);
    assert_eq!(after.failures - before.failures, 40);
    assert!(client.error_rate() <= 1.0, "{}", client.error_rate());
}

#[test]
fn add_batch_frame_failure_retries_grouped_at_next_candidates() {
    let (d, client, ctl) = deployment();
    let owner = home_candidates(&client, 7)[0].clone();
    owner.set_down(true);
    let writes: Vec<crate::rpc::ProfileWrite> = (0..20u64)
        .map(|pid| crate::rpc::ProfileWrite {
            table: TABLE,
            profile: ProfileId::new(pid),
            at: ctl.now(),
            slot: SLOT,
            action: LIKE,
            features: vec![(FeatureId::new(500 + pid), CountVector::single(1))],
        })
        .collect();
    let wire = client.add_batch(CALLER, &writes).unwrap();
    let stats = client.stats();
    assert_eq!(stats.attempts, 40, "one per write per region");
    assert_eq!(stats.failures, 0);
    assert!(stats.retries > 0, "the dead owner's writes were re-sent");
    // Lane 0 (region-a): round 0 to every owner, then one round in which
    // the dead owner's writes go, grouped, to the two live siblings — not
    // one frame per profile.
    let orphaned = (0..20u64)
        .filter(|&pid| home_candidates(&client, pid)[0].name() == owner.name())
        .count();
    let rounds: Vec<u32> = wire
        .frames()
        .iter()
        .filter(|f| f.lane == 0)
        .map(|f| f.round)
        .collect();
    let retried = rounds.iter().filter(|&&r| r == 1).count();
    assert!(
        (1..=2).contains(&retried) && retried < orphaned,
        "{rounds:?}"
    );
    assert!(rounds.iter().all(|&r| r <= 1), "{rounds:?}");
    let region_a = d.region("region-a").unwrap();
    for pid in 0..20u64 {
        let found = region_a
            .endpoints
            .iter()
            .filter(|ep| ep.name() != owner.name())
            .any(|ep| !ep.instance().query(CALLER, &top_k(pid)).unwrap().is_empty());
        let owned = home_candidates(&client, pid)[0].name() == owner.name();
        assert!(
            found || !owned,
            "profile {pid} missing from the live siblings"
        );
    }
}
