//! Chaos soak: a seeded storm of mixed operations and fault injections
//! against a multi-region deployment, with invariant checks at the end.
//!
//! The point is not any single behaviour but the absence of panics, lost
//! writes (beyond the weak-consistency windows the paper accepts), or
//! broken invariants when everything happens at once: writes, queries,
//! evictions, compactions, node crashes, KV flakiness, replication lag and
//! discovery churn.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ips::cluster::{IpsClusterClient, MultiRegionDeployment, MultiRegionOptions, NetworkModel};
use ips::kv::KvLatencyModel;
use ips::prelude::*;

const TABLE: TableId = TableId(1);
const CALLER: CallerId = CallerId(1);
const SLOT: SlotId = SlotId(1);
const LIKE: ActionTypeId = ActionTypeId(1);

#[test]
fn chaos_soak_survives_and_converges() {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(10).as_millis(),
    ));
    let mut table_cfg = TableConfig::new("chaos");
    table_cfg.isolation.enabled = true;
    table_cfg.cache.memory_budget_bytes = 2 << 20; // tight: constant swapping
    let deployment = MultiRegionDeployment::build(
        MultiRegionOptions {
            regions: vec!["r0".into(), "r1".into()],
            instances_per_region: 2,
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

    let mut rng = StdRng::seed_from_u64(0xC4A05);
    // Ground truth: per (pid, fid) total counts ACCEPTED by the client.
    let mut truth: HashMap<(u64, u64), i64> = HashMap::new();
    let endpoints = deployment.all_endpoints();

    for round in 0..6_000u64 {
        match rng.gen_range(0..100u32) {
            // 50%: write.
            0..=49 => {
                let pid = rng.gen_range(0..200u64);
                let fid = rng.gen_range(0..30u64);
                let n = rng.gen_range(1..5i64);
                // Writes accepted while parts of the system are down are
                // best-effort: the paper's weak-consistency stance allows a
                // non-persisting region to lose them if it must evict before
                // the write reaches the persisting region. Ground truth only
                // counts writes made while everything was healthy.
                let all_up = endpoints.iter().all(|e| !e.is_down());
                if client
                    .add_profile(
                        CALLER,
                        TABLE,
                        ProfileId::new(pid),
                        ctl.now(),
                        SLOT,
                        LIKE,
                        FeatureId::new(fid),
                        CountVector::single(n),
                    )
                    .is_ok()
                    && all_up
                {
                    *truth.entry((pid, fid)).or_default() += n;
                }
            }
            // 35%: query (result not checked mid-storm — only no-panic).
            50..=84 => {
                let pid = rng.gen_range(0..200u64);
                let q = ProfileQuery::top_k(
                    TABLE,
                    ProfileId::new(pid),
                    SLOT,
                    TimeRange::last_days(30),
                    10,
                );
                let _ = client.query(CALLER, &q);
            }
            // 5%: crash or restore a random endpoint.
            85..=89 => {
                let ep = &endpoints[rng.gen_range(0..endpoints.len())];
                ep.set_down(!ep.is_down());
            }
            // 3%: KV flakiness on the master.
            90..=92 => {
                let p = if rng.gen_bool(0.5) { 0.2 } else { 0.0 };
                deployment.kv.master().set_error_rate(p);
            }
            // 5%: maintenance tick on a random live instance.
            93..=97 => {
                let ep = &endpoints[rng.gen_range(0..endpoints.len())];
                if !ep.is_down() {
                    let _ = ep.instance().tick();
                }
            }
            // 2%: discovery churn + client refresh + replication pump.
            _ => {
                deployment.heartbeat_all();
                client.refresh();
                deployment.pump_replication(4_096);
            }
        }
        if round % 500 == 0 {
            ctl.advance(DurationMs::from_secs(30));
        }
    }

    // ---- convergence phase -------------------------------------------------
    deployment.kv.master().set_error_rate(0.0);
    for ep in &endpoints {
        ep.set_down(false);
        deployment.discovery.register(ep.name(), ep.region());
    }
    client.refresh();
    for ep in &endpoints {
        ep.instance()
            .table(TABLE)
            .unwrap()
            .merge_write_table()
            .unwrap();
        ep.instance().tick().unwrap();
    }
    deployment.pump_replication(1 << 20);

    // ---- invariants ----------------------------------------------------------
    // 1. Every cached profile obeys the slice-list invariant on every node.
    for ep in &endpoints {
        let rt = ep.instance().table(TABLE).unwrap();
        for pid in 0..200u64 {
            if let Some((check, _)) = rt
                .cache
                .read(ProfileId::new(pid), |p| p.check_invariants())
                .unwrap()
            {
                check.unwrap();
            }
        }
    }

    // 2. Client-accepted writes are visible somewhere: for a sample of
    // (pid, fid) pairs, at least one region's instances can serve the
    // expected total. (Write fan-out succeeds if ANY region accepted, so a
    // single instance may legitimately miss some — the union must not.)
    let mut checked = 0;
    let mut exact = 0;
    for ((pid, fid), expected) in truth.iter().take(120) {
        let q = ProfileQuery::filter(
            TABLE,
            ProfileId::new(*pid),
            SLOT,
            TimeRange::last_days(30),
            FilterPredicate::FeatureIn(vec![FeatureId::new(*fid)]),
        );
        let mut best = 0i64;
        for ep in &endpoints {
            if let Ok(r) = ep.instance().query(CALLER, &q) {
                if let Some(e) = r.entries.first() {
                    best = best.max(e.counts.get_or_zero(0));
                }
            }
        }
        checked += 1;
        if best == *expected {
            exact += 1;
        }
        // Weak consistency allows small deltas (writes accepted by one
        // region during the other's outage window), but the best view must
        // be close.
        assert!(
            best >= *expected / 2,
            "({pid},{fid}): best view {best} vs accepted {expected}"
        );
    }
    assert!(checked >= 100, "sampled enough pairs");
    // Crash windows move ring ownership; whole-profile last-writer-wins
    // flushes can then shadow earlier totals — the "minor data
    // inconsistency" §III-G accepts. Most pairs must still converge.
    assert!(
        exact as f64 >= checked as f64 * 0.5,
        "most pairs converge: {exact}/{checked}"
    );

    // 3. With the chaos over, fresh writes are exact everywhere they route.
    for fid in 1_000..1_020u64 {
        client
            .add_profile(
                CALLER,
                TABLE,
                ProfileId::new(999),
                ctl.now(),
                SLOT,
                LIKE,
                FeatureId::new(fid),
                CountVector::single(7),
            )
            .unwrap();
    }
    for ep in &endpoints {
        ep.instance()
            .table(TABLE)
            .unwrap()
            .merge_write_table()
            .unwrap();
    }
    let q = ProfileQuery::filter(
        TABLE,
        ProfileId::new(999),
        SLOT,
        TimeRange::last(DurationMs::from_mins(5)),
        FilterPredicate::All,
    );
    let (r, _) = client.query(CALLER, &q).unwrap();
    assert_eq!(r.len(), 20, "post-storm writes serve exactly");
    assert!(r.entries.iter().all(|e| e.counts.get_or_zero(0) == 7));

    // 4. The client kept serving throughout.
    assert!(client.stats().successes > 0);
}

/// Scale-events-under-load phase: the fleet grows and shrinks while a
/// seeded write/query storm keeps flowing. Every scale event runs the
/// warmed handoff (stream the moving hot keyspace, bump the epoch, demote
/// the sources), so the invariants are strict: no accepted write may be
/// lost, epochs chain one per event, and the storm never sees a panic.
#[test]
fn scale_events_under_load_preserve_every_accepted_write() {
    use ips::cluster::{
        Autoscaler, AutoscalerConfig, HandoffConfig, HandoffCoordinator, ScaleDecision,
        ScaleOrchestrator,
    };

    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(10).as_millis(),
    ));
    let mut table_cfg = TableConfig::new("scale-chaos");
    table_cfg.isolation.enabled = false;
    let mut deployment = MultiRegionDeployment::build(
        MultiRegionOptions {
            regions: vec!["r0".into()],
            instances_per_region: 2,
            network: NetworkModel::zero(),
            tables: vec![(TABLE, table_cfg)],
            ..Default::default()
        },
        Arc::clone(&clock),
    )
    .unwrap();
    let client = IpsClusterClient::new(
        Arc::clone(&deployment.discovery),
        "r0",
        KvLatencyModel::zero(),
    );
    client.add_endpoints(deployment.all_endpoints());
    client.refresh();

    let coordinator = Arc::new(HandoffCoordinator::new(
        Arc::clone(&deployment.discovery),
        HandoffConfig::default(),
    ));
    let orch = ScaleOrchestrator::new(
        Autoscaler::new(AutoscalerConfig::default(), clock),
        Arc::clone(&coordinator),
        "r0",
        vec![TABLE],
    );

    let mut rng = StdRng::seed_from_u64(0x5CA1E);
    let mut truth: HashMap<(u64, u64), i64> = HashMap::new();
    let mut scale_events = 0u64;
    for round in 0..4_000u64 {
        // Alternate grow/shrink every 500 rounds, mid-storm: 2 → 3 → 2 → …
        if round % 500 == 250 {
            let decision = if scale_events.is_multiple_of(2) {
                ScaleDecision::Up(1)
            } else {
                ScaleDecision::Down(1)
            };
            let report = orch.apply(&mut deployment, decision).unwrap().unwrap();
            scale_events += 1;
            assert_eq!(report.epoch, scale_events, "epochs chain one per event");
            // The fleet is healthy throughout, so no transfer may degrade.
            assert_eq!(report.cold_joins, 0, "healthy fleet must hand off warm");
            client.add_endpoints(deployment.all_endpoints());
            client.refresh();
        }
        match rng.gen_range(0..100u32) {
            // 55%: write — the fleet is always healthy, so every accepted
            // write is ground truth with no weak-consistency carve-out.
            0..=54 => {
                let pid = rng.gen_range(0..150u64);
                let fid = rng.gen_range(0..20u64);
                let n = rng.gen_range(1..5i64);
                if client
                    .add_profile(
                        CALLER,
                        TABLE,
                        ProfileId::new(pid),
                        ctl.now(),
                        SLOT,
                        LIKE,
                        FeatureId::new(fid),
                        CountVector::single(n),
                    )
                    .is_ok()
                {
                    *truth.entry((pid, fid)).or_default() += n;
                }
            }
            // 35%: query (no-panic mid-storm).
            55..=89 => {
                let pid = rng.gen_range(0..150u64);
                let q = ProfileQuery::top_k(
                    TABLE,
                    ProfileId::new(pid),
                    SLOT,
                    TimeRange::last_days(30),
                    10,
                );
                let _ = client.query(CALLER, &q);
            }
            // 5%: maintenance tick on a random live instance.
            90..=94 => {
                let endpoints = deployment.all_endpoints();
                let ep = &endpoints[rng.gen_range(0..endpoints.len())];
                let _ = ep.instance().tick();
            }
            // 10%: discovery churn + client refresh.
            _ => {
                deployment.heartbeat_all();
                client.refresh();
            }
        }
        if round % 400 == 0 {
            ctl.advance(DurationMs::from_secs(30));
        }
    }
    assert_eq!(scale_events, 8, "the storm exercised both directions");
    assert!(
        coordinator.metrics.entries_imported.get() > 0,
        "handoffs moved warm entries"
    );

    // ---- convergence: flush everything, then every accepted write must be
    // exactly visible through the client. Warmed handoffs flush moving
    // entries before cutover and imports are generation-checked, so scale
    // events cannot shadow or lose counts.
    client.refresh();
    for ep in deployment.all_endpoints() {
        ep.instance()
            .table(TABLE)
            .unwrap()
            .merge_write_table()
            .unwrap();
    }
    let mut checked = 0;
    for ((pid, fid), expected) in &truth {
        let q = ProfileQuery::filter(
            TABLE,
            ProfileId::new(*pid),
            SLOT,
            TimeRange::last_days(30),
            FilterPredicate::FeatureIn(vec![FeatureId::new(*fid)]),
        );
        let (r, _) = client.query(CALLER, &q).unwrap();
        let got = r.entries.first().map_or(0, |e| e.counts.get_or_zero(0));
        assert_eq!(
            got, *expected,
            "({pid},{fid}): scale events lost accepted writes"
        );
        checked += 1;
    }
    assert!(
        checked > 500,
        "the storm produced a real write mix: {checked}"
    );
    assert!(client.stats().successes > 0);
}

/// Flapping-endpoint phase: a single instance goes down and comes back
/// while traffic keeps flowing. The circuit breaker must (a) open after
/// the failure streak, (b) route traffic around the flapper while open,
/// and (c) re-admit it through a half-open probe after the cooldown.
#[test]
fn flapping_endpoint_breaker_opens_and_readmits() {
    use ips::cluster::BreakerState;
    use ips::types::CircuitBreakerConfig;

    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(10).as_millis(),
    ));
    let mut table_cfg = TableConfig::new("flap");
    table_cfg.isolation.enabled = false;
    let deployment = MultiRegionDeployment::build(
        MultiRegionOptions {
            regions: vec!["r0".into()],
            instances_per_region: 3,
            network: NetworkModel::production_default(),
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
    client.set_breaker_config(CircuitBreakerConfig {
        failure_threshold: 3,
        cooldown: DurationMs::from_millis(50),
    });

    let pid = ProfileId::new(7);
    client
        .add_profile(
            CALLER,
            TABLE,
            pid,
            ctl.now(),
            SLOT,
            LIKE,
            FeatureId::new(1),
            CountVector::single(1),
        )
        .unwrap();
    // Flush so failover siblings can serve the profile from the store.
    let endpoints = deployment.all_endpoints();
    for ep in &endpoints {
        ep.instance().flush_all().unwrap();
    }
    let q = ProfileQuery::top_k(TABLE, pid, SLOT, TimeRange::last_days(30), 10);

    // Identify the serving owner: the instance whose query counter ticks.
    let before: Vec<u64> = endpoints
        .iter()
        .map(|e| e.instance().table(TABLE).unwrap().metrics.queries.get())
        .collect();
    client.query(CALLER, &q).unwrap();
    let owner = endpoints
        .iter()
        .zip(&before)
        .find(|(e, &b)| e.instance().table(TABLE).unwrap().metrics.queries.get() > b)
        .map(|(e, _)| Arc::clone(e))
        .expect("some instance served the query");

    // ---- flap down: streak opens the breaker ----------------------------
    owner.set_down(true);
    for _ in 0..5 {
        let (r, _) = client.query(CALLER, &q).unwrap();
        assert_eq!(r.len(), 1, "failover keeps serving through the flap");
    }
    let health = client.health().for_endpoint(owner.name());
    assert_eq!(health.state(), BreakerState::Open);

    // While open the flapper is skipped up front: no failed first attempts,
    // so the retry counter stays flat and no request fails.
    let retries_before = client.stats().retries;
    for _ in 0..10 {
        client.query(CALLER, &q).unwrap();
    }
    assert_eq!(
        client.stats().retries,
        retries_before,
        "open breaker must route around the flapper"
    );
    assert_eq!(client.stats().failures, 0);

    // ---- flap up: half-open probe re-admits ------------------------------
    owner.set_down(false);
    #[expect(clippy::disallowed_methods, reason = "breaker cooldowns use real time")]
    std::thread::sleep(std::time::Duration::from_millis(60));
    for _ in 0..5 {
        client.query(CALLER, &q).unwrap();
    }
    assert_eq!(
        health.state(),
        BreakerState::Closed,
        "successful half-open probe must close the breaker"
    );
}
