//! Integration test: read-write isolation (§III-F) and multi-tenant quotas
//! (§V-b) at the instance level — the behaviours behind the isolation
//! ablation and quota experiments.

use std::sync::Arc;

use ips::ingest::batch::BatchLoader;
use ips::ingest::{WorkloadConfig, WorkloadGenerator};
use ips::prelude::*;

const TABLE: TableId = TableId(1);
const CALLER: CallerId = CallerId(1);
const SLOT: SlotId = SlotId(1);
const LIKE: ActionTypeId = ActionTypeId(1);

fn build(isolation: bool) -> (Arc<IpsInstance>, SimClock) {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(30).as_millis(),
    ));
    let instance = IpsInstance::new_in_memory(IpsInstanceOptions::default(), clock);
    let mut cfg = TableConfig::new("t");
    cfg.isolation.enabled = isolation;
    instance.create_table(TABLE, cfg).unwrap();
    (instance, ctl)
}

fn write(i: &Arc<IpsInstance>, pid: u64, fid: u64, at: Timestamp) {
    i.add_profile(
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

#[test]
fn isolation_delays_then_delivers_visibility() {
    let (instance, ctl) = build(true);
    write(&instance, 1, 7, ctl.now());
    let q = ProfileQuery::top_k(TABLE, ProfileId::new(1), SLOT, TimeRange::last_days(1), 5);
    assert!(
        instance.query(CALLER, &q).unwrap().is_empty(),
        "write staged, not yet merged"
    );
    let rt = instance.table(TABLE).unwrap();
    assert_eq!(rt.write_table.pending_writes(), 1);
    assert_eq!(rt.merge_write_table().unwrap(), 1);
    let r = instance.query(CALLER, &q).unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(rt.write_table.pending_writes(), 0);
}

#[test]
fn hot_switch_drains_and_goes_direct() {
    let (instance, ctl) = build(true);
    write(&instance, 1, 7, ctl.now());
    // Turn isolation off live.
    instance
        .update_table_config(TABLE, |c| {
            let mut c = c.clone();
            c.isolation.enabled = false;
            c
        })
        .unwrap();
    // New writes are direct...
    write(&instance, 1, 8, ctl.now());
    let q = ProfileQuery::filter(
        TABLE,
        ProfileId::new(1),
        SLOT,
        TimeRange::last_days(1),
        FilterPredicate::All,
    );
    let visible = instance.query(CALLER, &q).unwrap();
    assert!(visible.feature_ids().contains(&FeatureId::new(8)));
    // ...and the staged write still lands on the next merge.
    instance.table(TABLE).unwrap().merge_write_table().unwrap();
    let all = instance.query(CALLER, &q).unwrap();
    assert_eq!(all.len(), 2);
}

#[test]
fn write_table_cap_forces_eager_merge() {
    let (instance, ctl) = build(true);
    instance
        .update_table_config(TABLE, |c| {
            let mut c = c.clone();
            c.isolation.write_table_budget_bytes = 2_000;
            c
        })
        .unwrap();
    // The live budget applies from the next write.
    for fid in 0..200u64 {
        write(&instance, 1, fid, ctl.now());
    }
    let rt = instance.table(TABLE).unwrap();
    assert!(
        rt.write_table.eager_merges.get() > 0,
        "cap must have triggered eager merges"
    );
    // All data visible despite the cap churn (eager merges drain inline).
    rt.merge_write_table().unwrap();
    let q = ProfileQuery::filter(
        TABLE,
        ProfileId::new(1),
        SLOT,
        TimeRange::last_days(1),
        FilterPredicate::All,
    );
    assert_eq!(instance.query(CALLER, &q).unwrap().len(), 200);
}

#[test]
fn backfill_does_not_block_queries_under_isolation() {
    // §III-F's scenario: an offline job back-fills history while online
    // queries keep serving. With isolation on, the backfill writes go to
    // the staging table; the query path sees stable, already-merged data.
    let (instance, ctl) = build(true);
    // Seed and merge one profile.
    write(&instance, 1, 7, ctl.now());
    instance.table(TABLE).unwrap().merge_write_table().unwrap();

    // Bulk back-fill 5_000 records.
    let mut generator = WorkloadGenerator::new(WorkloadConfig::default());
    let records: Vec<_> = (0..5_000).map(|_| generator.instance(ctl.now())).collect();
    let loader = BatchLoader::new(Arc::clone(&instance), CALLER, TABLE);
    let stats = loader.load(&records);
    assert_eq!(stats.failed, 0);

    // Query path still answers from the main table without interference.
    let q = ProfileQuery::top_k(TABLE, ProfileId::new(1), SLOT, TimeRange::last_days(1), 5);
    let r = instance.query(CALLER, &q).unwrap();
    assert_eq!(r.len(), 1);

    // After the merge the backfilled data is live too.
    instance.table(TABLE).unwrap().merge_write_table().unwrap();
    let sample = &records[0];
    let q = ProfileQuery::filter(
        TABLE,
        sample.user,
        sample.slot,
        TimeRange::last_days(1),
        FilterPredicate::All,
    );
    assert!(!instance.query(CALLER, &q).unwrap().is_empty());
}

#[test]
fn quotas_isolate_tenants_under_shared_cluster() {
    let (instance, ctl) = build(false);
    write(&instance, 1, 7, ctl.now());

    let premium = CallerId::new(10);
    let trial = CallerId::new(11);
    instance.quota.set_quota(
        premium,
        QuotaConfig {
            qps_limit: 1_000,
            burst_factor: 1.0,
        },
    );
    instance.quota.set_quota(
        trial,
        QuotaConfig {
            qps_limit: 10,
            burst_factor: 1.0,
        },
    );

    let q = ProfileQuery::top_k(TABLE, ProfileId::new(1), SLOT, TimeRange::last_days(1), 5);
    let mut trial_rejections = 0;
    for _ in 0..100 {
        if instance.query(trial, &q).is_err() {
            trial_rejections += 1;
        }
    }
    assert_eq!(trial_rejections, 90, "trial capped at 10 of 100");
    // Premium sails through the same burst.
    for _ in 0..100 {
        instance.query(premium, &q).unwrap();
    }

    // A second later the trial tenant recovers (usage fell below limit).
    ctl.advance(DurationMs::from_secs(1));
    instance.query(trial, &q).unwrap();
}

#[test]
fn quota_applies_to_writes_by_feature_count() {
    let (instance, ctl) = build(false);
    let caller = CallerId::new(20);
    instance.quota.set_quota(
        caller,
        QuotaConfig {
            qps_limit: 10,
            burst_factor: 1.0,
        },
    );
    // One batched write of 8 features consumes 8 tokens.
    let features: Vec<(FeatureId, CountVector)> = (0..8)
        .map(|n| (FeatureId::new(n), CountVector::single(1)))
        .collect();
    instance
        .add_profiles(
            caller,
            TABLE,
            ProfileId::new(1),
            ctl.now(),
            SLOT,
            LIKE,
            &features,
        )
        .unwrap();
    // Another 8 exceeds the budget.
    assert!(matches!(
        instance.add_profiles(
            caller,
            TABLE,
            ProfileId::new(1),
            ctl.now(),
            SLOT,
            LIKE,
            &features
        ),
        Err(IpsError::QuotaExceeded(_))
    ));
}
