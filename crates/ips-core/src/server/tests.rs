use std::sync::Arc;

use ips_kv::{KvNode, KvNodeConfig};

use super::pipeline::RequestContext;
use super::{DynStore, IpsInstance, IpsInstanceOptions};
use crate::compact::CompactionTask;
use crate::persist::{LoadOutcome, ProfilePersister};
use crate::query::{FilterPredicate, ProfileQuery};
use ips_types::clock::sim_clock;
use ips_types::Clock as _;
use ips_types::{
    ActionTypeId, AdmissionConfig, CallerId, CountVector, DegradedServingConfig, DurationMs,
    FeatureId, IpsError, IsolationConfig, ProfileId, QuotaConfig, SlotId, TableConfig, TableId,
    TimeRange, Timestamp,
};

const TABLE: TableId = TableId(1);
const CALLER: CallerId = CallerId(1);
const SLOT: SlotId = SlotId(1);
const LIKE: ActionTypeId = ActionTypeId(1);

fn setup() -> (Arc<IpsInstance>, ips_types::SimClock) {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(400).as_millis(),
    ));
    let instance = IpsInstance::new_in_memory(IpsInstanceOptions::default(), clock);
    let mut cfg = TableConfig::new("test");
    cfg.isolation.enabled = false; // direct writes by default in tests
    instance.create_table(TABLE, cfg).unwrap();
    (instance, ctl)
}

fn add(i: &Arc<IpsInstance>, pid: u64, fid: u64, likes: i64, now: Timestamp) {
    i.add_profile(
        CALLER,
        TABLE,
        ProfileId::new(pid),
        now,
        SLOT,
        LIKE,
        FeatureId::new(fid),
        CountVector::single(likes),
    )
    .unwrap();
}

#[test]
fn write_then_query_round_trip() {
    let (i, ctl) = setup();
    let now = ctl.now();
    add(&i, 1, 10, 3, now);
    add(&i, 1, 20, 5, now);
    let q = ProfileQuery::top_k(TABLE, ProfileId::new(1), SLOT, TimeRange::last_days(1), 1);
    let r = i.query(CALLER, &q).unwrap();
    assert_eq!(r.entries[0].feature, FeatureId::new(20));
    assert!(r.cache_hit);
}

#[test]
fn unknown_table_and_profile() {
    let (i, ctl) = setup();
    let q = ProfileQuery::top_k(
        TableId::new(99),
        ProfileId::new(1),
        SLOT,
        TimeRange::last_days(1),
        1,
    );
    assert!(matches!(
        i.query(CALLER, &q),
        Err(IpsError::UnknownTable(_))
    ));

    let q = ProfileQuery::top_k(TABLE, ProfileId::new(404), SLOT, TimeRange::last_days(1), 1);
    let r = i.query(CALLER, &q).unwrap();
    assert!(r.is_empty());
    assert!(!r.cache_hit);
    drop(ctl);
}

#[test]
fn duplicate_table_rejected() {
    let (i, _ctl) = setup();
    assert!(i.create_table(TABLE, TableConfig::new("dup")).is_err());
}

#[test]
fn batched_writes_one_quota_charge_per_feature() {
    let (i, ctl) = setup();
    let features: Vec<(FeatureId, CountVector)> = (0..5)
        .map(|n| (FeatureId::new(n), CountVector::single(1)))
        .collect();
    i.add_profiles(
        CALLER,
        TABLE,
        ProfileId::new(1),
        ctl.now(),
        SLOT,
        LIKE,
        &features,
    )
    .unwrap();
    let q = ProfileQuery::filter(
        TABLE,
        ProfileId::new(1),
        SLOT,
        TimeRange::last_days(1),
        FilterPredicate::All,
    );
    assert_eq!(i.query(CALLER, &q).unwrap().len(), 5);
}

#[test]
fn isolation_buffers_until_merge() {
    let (i, ctl) = setup();
    i.update_table_config(TABLE, |c| {
        let mut c = c.clone();
        c.isolation = IsolationConfig {
            enabled: true,
            ..Default::default()
        };
        c
    })
    .unwrap();
    let now = ctl.now();
    add(&i, 1, 10, 3, now);
    // Not yet visible: §III-F "delays the data visibility slightly".
    let q = ProfileQuery::top_k(TABLE, ProfileId::new(1), SLOT, TimeRange::last_days(1), 5);
    assert!(i.query(CALLER, &q).unwrap().is_empty());
    // After the merge it is.
    i.table(TABLE).unwrap().merge_write_table().unwrap();
    assert_eq!(i.query(CALLER, &q).unwrap().len(), 1);
}

#[test]
fn quota_rejections_surface() {
    let (i, ctl) = setup();
    let limited = CallerId::new(9);
    i.quota.set_quota(
        limited,
        QuotaConfig {
            qps_limit: 2,
            burst_factor: 1.0,
        },
    );
    let now = ctl.now();
    add(&i, 1, 1, 1, now);
    let q = ProfileQuery::top_k(TABLE, ProfileId::new(1), SLOT, TimeRange::last_days(1), 1);
    i.query(limited, &q).unwrap();
    i.query(limited, &q).unwrap();
    assert!(matches!(
        i.query(limited, &q),
        Err(IpsError::QuotaExceeded(_))
    ));
    // Default caller unaffected.
    i.query(CALLER, &q).unwrap();
}

#[test]
fn tick_runs_compaction_pipeline() {
    let (i, ctl) = setup();
    // Many old slices.
    for n in 0..50u64 {
        ctl.advance(DurationMs::from_secs(2));
        add(&i, 1, n, 1, ctl.now());
    }
    ctl.advance(DurationMs::from_days(2));
    // Trigger scheduling with one more write.
    add(&i, 1, 99, 1, ctl.now());
    let before = i
        .table(TABLE)
        .unwrap()
        .cache
        .read(ProfileId::new(1), |p| p.slice_count())
        .unwrap()
        .unwrap()
        .0;
    i.tick().unwrap();
    let after = i
        .table(TABLE)
        .unwrap()
        .cache
        .read(ProfileId::new(1), |p| p.slice_count())
        .unwrap()
        .unwrap()
        .0;
    assert!(
        after < before,
        "compaction should shrink slice list ({before} -> {after})"
    );
}

#[test]
fn shutdown_flushes_and_refuses() {
    let (i, ctl) = setup();
    add(&i, 1, 1, 1, ctl.now());
    let flushed = i.shutdown().unwrap();
    assert!(flushed >= 1);
    let q = ProfileQuery::top_k(TABLE, ProfileId::new(1), SLOT, TimeRange::last_days(1), 1);
    assert!(matches!(i.query(CALLER, &q), Err(IpsError::ShuttingDown)));
}

#[test]
fn drop_table_flushes_and_removes() {
    let (i, ctl) = setup();
    add(&i, 1, 1, 1, ctl.now());
    i.drop_table(TABLE).unwrap();
    let q = ProfileQuery::top_k(TABLE, ProfileId::new(1), SLOT, TimeRange::last_days(1), 1);
    assert!(matches!(
        i.query(CALLER, &q),
        Err(IpsError::UnknownTable(_))
    ));
    assert!(i.drop_table(TABLE).is_err(), "already dropped");
    // Re-creating the table finds the flushed data in the store.
    let mut cfg = TableConfig::new("recreated");
    cfg.isolation.enabled = false;
    i.create_table(TABLE, cfg).unwrap();
    let r = i.query(CALLER, &q).unwrap();
    assert_eq!(r.len(), 1, "persisted profile survives a table drop");
}

#[test]
fn hot_config_reload_applies() {
    let (i, _ctl) = setup();
    i.update_table_config(TABLE, |c| {
        let mut c = c.clone();
        c.compaction.truncate.max_slices = Some(7);
        c
    })
    .unwrap();
    let rt = i.table(TABLE).unwrap();
    assert_eq!(rt.config.load().compaction.truncate.max_slices, Some(7));
    // Invalid config rejected.
    assert!(i
        .update_table_config(TABLE, |c| {
            let mut c = c.clone();
            c.attributes = 0;
            c
        })
        .is_err());
}

#[test]
fn udaf_runs_through_the_instance() {
    use crate::query::udaf::SmoothedCtr;
    let (i, ctl) = setup();
    let now = ctl.now();
    // fid 1: lucky one-off (1 click / 1 imp); fid 2: steady (40/100).
    i.add_profile(
        CALLER,
        TABLE,
        ProfileId::new(1),
        now,
        SLOT,
        LIKE,
        FeatureId::new(1),
        CountVector::pair(1, 1),
    )
    .unwrap();
    i.add_profile(
        CALLER,
        TABLE,
        ProfileId::new(1),
        now,
        SLOT,
        LIKE,
        FeatureId::new(2),
        CountVector::pair(40, 100),
    )
    .unwrap();
    let udaf = SmoothedCtr {
        click_attr: 0,
        impression_attr: 1,
        alpha: 1.0,
        beta: 20.0,
    };
    let top = i
        .query_udaf(
            CALLER,
            TABLE,
            ProfileId::new(1),
            SLOT,
            None,
            TimeRange::last_days(1),
            &udaf,
            2,
        )
        .unwrap();
    assert_eq!(top[0].0, FeatureId::new(2));
    // Unknown profile: empty, not an error.
    let none = i
        .query_udaf(
            CALLER,
            TABLE,
            ProfileId::new(404),
            SLOT,
            None,
            TimeRange::last_days(1),
            &udaf,
            2,
        )
        .unwrap();
    assert!(none.is_empty());
}

#[test]
fn expired_deadline_is_shed_before_compute() {
    use ips_types::Deadline;
    let (i, ctl) = setup();
    add(&i, 1, 10, 3, ctl.now());
    let q = ProfileQuery::top_k(TABLE, ProfileId::new(1), SLOT, TimeRange::last_days(1), 1);
    let queries_before = i.table(TABLE).unwrap().metrics.queries.get();

    let ctx = RequestContext::new(CALLER).with_deadline(Deadline::from_budget_us(0).arm());
    assert!(matches!(
        i.query_ctx(&ctx, &q),
        Err(IpsError::DeadlineExceeded)
    ));
    assert_eq!(i.shed_deadline.get(), 1);
    assert_eq!(
        i.table(TABLE).unwrap().metrics.queries.get(),
        queries_before,
        "shed work must not reach the query engine"
    );

    // A batch with an expired deadline sheds every sub-query.
    let batch = vec![q.clone(), q.clone(), q.clone()];
    let out = i.query_batch_ctx(&ctx, &batch);
    assert!(matches!(out, Err(IpsError::DeadlineExceeded)));

    // A generous deadline changes nothing.
    let ctx = RequestContext::new(CALLER)
        .with_deadline(Deadline::from_budget(DurationMs::from_secs(60)).arm());
    assert_eq!(i.query_ctx(&ctx, &q).unwrap().len(), 1);
}

#[test]
fn batch_admission_sheds_with_overloaded() {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(400).as_millis(),
    ));
    let options = IpsInstanceOptions {
        admission: AdmissionConfig {
            max_inflight_subqueries: 4,
        },
        ..Default::default()
    };
    let i = IpsInstance::new_in_memory(options, clock);
    let mut cfg = TableConfig::new("test");
    cfg.isolation.enabled = false;
    i.create_table(TABLE, cfg).unwrap();
    add(&i, 1, 10, 3, ctl.now());

    let q = ProfileQuery::top_k(TABLE, ProfileId::new(1), SLOT, TimeRange::last_days(1), 1);
    let small = vec![q.clone(); 4];
    assert!(i.query_batch(CALLER, &small).is_ok(), "at capacity admits");
    let big = vec![q.clone(); 5];
    let err = i.query_batch(CALLER, &big).unwrap_err();
    assert!(err.is_overload(), "got {err}");
    assert_eq!(i.admission.shed.get(), 1);
    // The permit was released: capacity-sized batches still serve.
    assert!(i.query_batch(CALLER, &small).is_ok());
    // Overload shed must be distinct from quota rejection.
    assert!(!matches!(err, IpsError::QuotaExceeded(_)));
}

#[test]
fn storage_brownout_serves_degraded_from_stale_pool() {
    use std::sync::Arc as StdArc;
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(400).as_millis(),
    ));
    let node =
        StdArc::new(ips_kv::KvNode::new("kv-brownout", ips_kv::KvNodeConfig::default()).unwrap());
    let i = IpsInstance::new(
        StdArc::clone(&node) as DynStore,
        IpsInstanceOptions::default(),
        clock,
    );
    let mut cfg = TableConfig::new("test");
    cfg.isolation.enabled = false;
    i.create_table(TABLE, cfg).unwrap();
    add(&i, 1, 10, 3, ctl.now());

    // Flush and evict so the profile is only in the store + stale pool.
    let rt = i.table(TABLE).unwrap();
    rt.cache.flush_all().unwrap();
    rt.cache.evict(ProfileId::new(1)).unwrap();

    // Full brownout: every KV op fails.
    node.set_error_rate(1.0);
    ctl.advance(DurationMs::from_secs(5));
    let q = ProfileQuery::top_k(TABLE, ProfileId::new(1), SLOT, TimeRange::last_days(1), 1);

    // Without opt-in (and below the failure threshold) the error
    // surfaces as-is.
    assert!(matches!(i.query(CALLER, &q), Err(IpsError::Storage(_))));

    // With the degraded opt-in the stale copy serves, stamped.
    let ctx = RequestContext::new(CALLER).with_staleness(DurationMs::from_mins(5));
    let r = i.query_ctx(&ctx, &q).unwrap();
    assert!(r.degraded, "result must be stamped degraded");
    assert_eq!(r.staleness.as_millis(), 5_000);
    assert_eq!(r.entries[0].feature, FeatureId::new(10));
    assert_eq!(i.degraded_serves.get(), 1);

    // Staleness bound is enforced: an opt-in tighter than the data's
    // age refuses and surfaces the storage error.
    ctl.advance(DurationMs::from_mins(2));
    let tight = RequestContext::new(CALLER).with_staleness(DurationMs::from_secs(1));
    assert!(matches!(i.query_ctx(&tight, &q), Err(IpsError::Storage(_))));

    // Recovery: store healthy again, the profile reloads fresh.
    node.set_error_rate(0.0);
    let r = i.query(CALLER, &q).unwrap();
    assert!(!r.degraded);
    assert_eq!(r.len(), 1);
}

#[test]
fn repeated_storage_failures_auto_degrade_unflagged_reads() {
    use std::sync::Arc as StdArc;
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(400).as_millis(),
    ));
    let node =
        StdArc::new(ips_kv::KvNode::new("kv-brownout", ips_kv::KvNodeConfig::default()).unwrap());
    let options = IpsInstanceOptions {
        degraded: DegradedServingConfig {
            enabled: true,
            max_staleness: DurationMs::from_mins(10),
            storage_failure_threshold: 3,
        },
        ..Default::default()
    };
    let i = IpsInstance::new(StdArc::clone(&node) as DynStore, options, clock);
    let mut cfg = TableConfig::new("test");
    cfg.isolation.enabled = false;
    i.create_table(TABLE, cfg).unwrap();
    add(&i, 1, 10, 3, ctl.now());
    let rt = i.table(TABLE).unwrap();
    rt.cache.flush_all().unwrap();
    rt.cache.evict(ProfileId::new(1)).unwrap();

    node.set_error_rate(1.0);
    let q = ProfileQuery::top_k(TABLE, ProfileId::new(1), SLOT, TimeRange::last_days(1), 1);
    // Below the threshold plain queries fail hard…
    assert!(i.query(CALLER, &q).is_err());
    assert!(i.query(CALLER, &q).is_err());
    // …at the threshold the instance declares a brownout and serves
    // stale even without the request flag.
    let r = i.query(CALLER, &q).unwrap();
    assert!(r.degraded);
    assert_eq!(i.degraded_serves.get(), 1);
}

/// An instance over a caller-held KV node, so a test can inject storage
/// faults and inspect what reached the store.
fn setup_on_node(cfg: TableConfig) -> (Arc<IpsInstance>, ips_types::SimClock, Arc<KvNode>) {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(400).as_millis(),
    ));
    let node = Arc::new(KvNode::new("kv-tick", KvNodeConfig::default()).unwrap());
    let i = IpsInstance::new(
        Arc::clone(&node) as DynStore,
        IpsInstanceOptions::default(),
        clock,
    );
    i.create_table(TABLE, cfg).unwrap();
    (i, ctl, node)
}

#[test]
fn one_tick_leaves_the_instance_quiescent() {
    let cfg = TableConfig::new("test"); // isolation on
    let persistence = cfg.persistence;
    let (i, ctl, node) = setup_on_node(cfg);
    // Old one-second slices, so the merge schedules a compaction.
    for n in 0..50u64 {
        ctl.advance(DurationMs::from_secs(2));
        add(&i, 1, n, 1, ctl.now());
    }
    ctl.advance(DurationMs::from_days(2));
    add(&i, 1, 99, 1, ctl.now());
    let rt = i.table(TABLE).unwrap();
    assert_eq!(rt.write_table.pending_writes(), 51);

    i.tick().unwrap();

    assert_eq!(rt.write_table.pending_writes(), 0);
    assert_eq!(rt.scheduler.executed.get(), 1);
    assert_eq!(rt.scheduler.pending(), 0);
    assert_eq!(rt.cache.stats().dirty_backlog, 0);
    // The store holds the compacted profile: flush ran after compaction.
    let stored = ProfilePersister::new(node, TABLE, persistence).load(ProfileId::new(1));
    assert!(matches!(
        stored,
        Ok(LoadOutcome::Loaded { profile, .. })
            if profile.feature_count() == 51 && profile.slice_count() < 51
    ));
}

#[test]
fn tick_runs_every_stage_when_flush_fails() {
    let mut cfg = TableConfig::new("test");
    cfg.isolation.enabled = false;
    cfg.cache.memory_budget_bytes = 32 << 10;
    let (i, ctl, node) = setup_on_node(cfg);
    for pid in 0..200u64 {
        for fid in 0..10u64 {
            add(&i, pid, fid, 1, ctl.now());
        }
    }
    let rt = i.table(TABLE).unwrap();
    rt.cache.flush_all().unwrap();
    assert!(rt.cache.memory_bytes() > 32 << 10, "swap has work to do");
    // Compaction dirties the hottest profile; the cold ones stay clean,
    // so swap can evict them without the store.
    let profile = ProfileId::new(199);
    rt.scheduler.schedule(CompactionTask {
        profile,
        full: true,
    });

    node.set_error_rate(1.0);
    assert!(i.tick().is_err(), "flushing the compacted profile fails");
    assert_eq!(rt.scheduler.executed.get(), 1, "compaction stage ran");
    let stats = rt.cache.stats();
    assert!(stats.evictions > 0, "swap stage ran after the failed flush");
    assert_eq!(stats.dirty_backlog, 1, "the failed flush stays queued");
}

#[test]
fn failed_write_table_merge_keeps_every_unapplied_write() {
    let (i, ctl, node) = setup_on_node(TableConfig::new("test")); // isolation on
    let rt = i.table(TABLE).unwrap();
    let pids = [1u64, 2, 3];
    for &pid in &pids {
        add(&i, pid, 10, 1, ctl.now());
    }
    rt.merge_write_table().unwrap();
    rt.cache.flush_all().unwrap();
    for &pid in &pids {
        assert!(rt.cache.evict(ProfileId::new(pid)).unwrap());
    }
    // Buffered writes for evicted profiles: the merge must load each one.
    for &pid in &pids {
        add(&i, pid, 10, 2, ctl.now());
        add(&i, pid, 20, 5, ctl.now());
    }

    node.set_error_rate(1.0);
    assert!(rt.merge_write_table().is_err(), "the first load fails");
    assert_eq!(rt.write_table.pending_writes(), 6, "nothing dropped");

    node.set_error_rate(0.0);
    assert_eq!(rt.merge_write_table().unwrap(), 6);
    assert_eq!(
        rt.write_table.merged.get(),
        3 + 6,
        "each write counted once"
    );
    for &pid in &pids {
        let q = ProfileQuery::filter(
            TABLE,
            ProfileId::new(pid),
            SLOT,
            TimeRange::last_days(1),
            FilterPredicate::All,
        );
        let counts: Vec<(u64, i64)> = i
            .query(CALLER, &q)
            .unwrap()
            .entries
            .iter()
            .map(|e| (e.feature.raw(), e.counts.get_or_zero(0)))
            .collect();
        assert_eq!(counts, vec![(10, 3), (20, 5)], "profile {pid}");
    }
}

/// The DESIGN.md §13 stage order, observed from outside: an expired
/// request charges no quota token and opens no `pipeline` span, an
/// admission-shed batch charges no quota token, and a quota rejection
/// leaves no admission permit held.
#[test]
fn shed_work_charges_no_quota_and_rejected_work_holds_no_permit() {
    use ips_trace::{SamplerConfig, Tracer};
    use ips_types::Deadline;
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(400).as_millis(),
    ));
    let options = IpsInstanceOptions {
        admission: AdmissionConfig {
            max_inflight_subqueries: 4,
        },
        ..Default::default()
    };
    let i = IpsInstance::new_in_memory(options, Arc::clone(&clock));
    let mut cfg = TableConfig::new("test");
    cfg.isolation.enabled = false;
    i.create_table(TABLE, cfg).unwrap();
    add(&i, 1, 10, 3, ctl.now());
    let q = ProfileQuery::top_k(TABLE, ProfileId::new(1), SLOT, TimeRange::last_days(1), 1);
    // Four tokens, and a clock that stands still, so nothing refills.
    let tenant = CallerId::new(9);
    i.quota.set_quota(
        tenant,
        QuotaConfig {
            qps_limit: 4,
            burst_factor: 1.0,
        },
    );

    let tracer = Tracer::new(clock, SamplerConfig::always());
    let expired = RequestContext::new(tenant).with_deadline(Deadline::from_budget_us(0).arm());
    {
        let _root = tracer.root_span("request", 9);
        let single = i.query_ctx(&expired, &q);
        assert!(matches!(single, Err(IpsError::DeadlineExceeded)));
        let batch = i.query_batch_ctx(&expired, std::slice::from_ref(&q));
        assert!(matches!(batch, Err(IpsError::DeadlineExceeded)));
    }
    let spans: Vec<&str> = tracer.drain().iter().map(|r| r.name).collect();
    assert!(spans.contains(&"shed"), "{spans:?}");
    assert!(
        !spans.contains(&"pipeline"),
        "expired work opened {spans:?}"
    );

    let err = i.query_batch(tenant, &vec![q.clone(); 5]).unwrap_err();
    assert!(err.is_overload(), "a batch over the pool sheds: {err}");

    // Neither the expired requests nor the shed batch took a token: all
    // four are still there, and then spent.
    assert_eq!(i.query_batch(tenant, &vec![q.clone(); 4]).unwrap().len(), 4);
    assert_eq!(i.quota.rejected.get(), 0);
    let err = i.query_batch(tenant, std::slice::from_ref(&q)).unwrap_err();
    assert!(matches!(err, IpsError::QuotaExceeded(_)), "got {err}");
    assert_eq!(i.admission.inflight(), 0, "the rejection holds no permit");
    assert!(i.query_batch(CALLER, &vec![q.clone(); 4]).is_ok());
}

/// The ACK of a handoff's final chunk can be lost after the chunk applied.
/// The source then resends that chunk: it must be ACKed with the completed
/// cursor and the whole stream's accounting, not read as a new stream,
/// which would send the source back to chunk 0 and report nothing imported.
#[test]
fn resent_final_snapshot_chunk_is_acked_as_complete() {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(400).as_millis(),
    ));
    let store: DynStore = Arc::new(KvNode::new("kv", KvNodeConfig::default()).unwrap());
    let instance = |name: &str| {
        let options = IpsInstanceOptions {
            name: name.into(),
            ..IpsInstanceOptions::default()
        };
        let instance = IpsInstance::new(Arc::clone(&store), options, Arc::clone(&clock));
        let mut cfg = TableConfig::new("test");
        cfg.isolation.enabled = false;
        instance.create_table(TABLE, cfg).unwrap();
        instance
    };
    let (source, target) = (instance("source"), instance("target"));
    for pid in 0..4 {
        add(&source, pid, 10 + pid, 1, ctl.now());
    }
    let batch = source.export_hot(TABLE, |_| true, 100, u64::MAX).unwrap();
    assert_eq!(batch.entries.len(), 4);
    let (first, second) = batch.entries.split_at(2);
    let send = |seq: u64, entries: &[crate::cache::ExportedEntry]| {
        target
            .import_snapshot_chunk(TABLE, 7, seq, seq == 1, entries.to_vec())
            .unwrap()
    };

    assert_eq!(send(0, first).next_seq, 1);
    let ack = send(1, second);
    assert_eq!((ack.next_seq, ack.report.imported), (2, 4));
    // That ACK is lost in transit: the source resends the final chunk.
    let replayed = send(1, second);
    assert_eq!(replayed.next_seq, 2, "the stream stays complete");
    assert_eq!(
        replayed.report.imported, 4,
        "with the whole stream's accounting"
    );
}
