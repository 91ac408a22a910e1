//! Integration test: cache ↔ persistent store interplay across crates —
//! write-back flushing, eviction under memory pressure, reload on miss,
//! split-profile consistency after crashes, and WAL-backed recovery.

use std::sync::Arc;

use ips::core::persist::{LoadOutcome, ProfilePersister};
use ips::kv::{KvNode, KvNodeConfig};
use ips::prelude::*;

const TABLE: TableId = TableId(1);
const CALLER: CallerId = CallerId(1);
const SLOT: SlotId = SlotId(1);
const LIKE: ActionTypeId = ActionTypeId(1);

fn instance_with_node(
    clock: ips::types::SharedClock,
    node: Arc<KvNode>,
    cache_budget: usize,
) -> Arc<IpsInstance> {
    let instance = IpsInstance::new(
        node as Arc<dyn ips::core::persist::ProfileStore>,
        IpsInstanceOptions::default(),
        clock,
    );
    let mut cfg = TableConfig::new("t");
    cfg.isolation.enabled = false;
    cfg.cache.memory_budget_bytes = cache_budget;
    instance.create_table(TABLE, cfg).unwrap();
    instance
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

fn count_features(i: &Arc<IpsInstance>, pid: u64) -> usize {
    let q = ProfileQuery::filter(
        TABLE,
        ProfileId::new(pid),
        SLOT,
        TimeRange::last_days(30),
        FilterPredicate::All,
    );
    i.query(CALLER, &q).unwrap().len()
}

#[test]
fn memory_pressure_evicts_and_reloads_losslessly() {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(30).as_millis(),
    ));
    let node = Arc::new(KvNode::new("kv", KvNodeConfig::default()).unwrap());
    // A cache too small for 300 profiles with 30 features each.
    let instance = instance_with_node(Arc::clone(&clock), Arc::clone(&node), 256 << 10);

    for pid in 0..300u64 {
        for fid in 0..30u64 {
            write(&instance, pid, fid, ctl.now());
        }
    }
    // Maintenance: flush dirty data and swap down to the watermark.
    instance.tick().unwrap();
    let rt = instance.table(TABLE).unwrap();
    let stats = rt.cache.stats();
    assert!(
        stats.evictions > 0,
        "memory pressure must have evicted something: {stats:?}"
    );
    assert!(stats.memory_bytes <= stats.memory_budget);

    // Every profile — cached or evicted — still answers correctly.
    for pid in (0..300u64).step_by(17) {
        assert_eq!(count_features(&instance, pid), 30, "profile {pid}");
    }
}

#[test]
fn instance_restart_recovers_from_kv_store() {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(30).as_millis(),
    ));
    let node = Arc::new(KvNode::new("kv", KvNodeConfig::default()).unwrap());
    {
        let instance = instance_with_node(Arc::clone(&clock), Arc::clone(&node), 64 << 20);
        for fid in 0..20u64 {
            write(&instance, 7, fid, ctl.now());
        }
        instance.shutdown().unwrap(); // graceful: flushes everything
    }
    // A fresh instance over the same store sees the data.
    let instance = instance_with_node(Arc::clone(&clock), Arc::clone(&node), 64 << 20);
    assert_eq!(count_features(&instance, 7), 20);
}

#[test]
fn kv_crash_with_wal_preserves_profiles() {
    let wal_path = {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "ips-e2e-wal-{}-{}.log",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        p
    };
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(30).as_millis(),
    ));
    let node = Arc::new(
        KvNode::new(
            "kv-durable",
            KvNodeConfig {
                wal_path: Some(wal_path.clone()),
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let instance = instance_with_node(Arc::clone(&clock), Arc::clone(&node), 64 << 20);
    for fid in 0..10u64 {
        write(&instance, 7, fid, ctl.now());
    }
    instance.flush_all().unwrap();

    // The storage node crashes (memory gone) and restarts from its WAL.
    node.crash();
    node.restart().unwrap();

    // Evict the cached copy so the next query must reload from storage.
    let rt = instance.table(TABLE).unwrap();
    rt.cache.evict(ProfileId::new(7)).unwrap();
    assert_eq!(count_features(&instance, 7), 10, "WAL recovery end-to-end");
    std::fs::remove_file(&wal_path).ok();
}

#[test]
fn split_profile_survives_torn_write() {
    // Directly exercise the Fig 14 protocol: slice values written, head
    // written, one slice value destroyed (as if a crash interleaved) — the
    // profile still loads, minus the torn slice.
    let node = Arc::new(KvNode::new("kv", KvNodeConfig::default()).unwrap());
    let persister = ProfilePersister::new(
        Arc::clone(&node),
        TABLE,
        ips::types::PersistenceMode::Split { threshold_bytes: 0 },
    );
    let mut profile = ips::core::model::ProfileData::new();
    for i in 0..5u64 {
        profile.add(
            Timestamp::from_millis(1_000 + i * 100_000),
            SLOT,
            LIKE,
            FeatureId::new(i),
            &CountVector::single(1),
            AggregateFunction::Sum,
            DurationMs::from_secs(1),
        );
    }
    let held = persister.save(ProfileId::new(1), &mut profile, 0).unwrap();
    assert!(held.generation > 0);

    // Destroy one slice value out from under the meta.
    let all_keys: Vec<_> = node.store().scan_all();
    let slice_keys: Vec<_> = all_keys
        .iter()
        .filter(|(k, _)| k.first() == Some(&b's'))
        .collect();
    assert_eq!(slice_keys.len(), 4, "every slice but the inline newest");
    node.delete(&slice_keys[2].0).unwrap();

    match persister.load(ProfileId::new(1)).unwrap() {
        LoadOutcome::Loaded { profile, .. } => {
            assert_eq!(profile.slice_count(), 4, "torn slice skipped, rest intact");
            profile.check_invariants().unwrap();
        }
        LoadOutcome::Missing => panic!("profile must still load"),
    }
    assert_eq!(persister.metrics.torn_slices_skipped.get(), 1);
}

#[test]
fn hit_ratio_stays_high_under_zipf_access() {
    // Fig 18's claim: >90% hit ratio with a Zipf access pattern and a cache
    // big enough for the hot set.
    use ips::ingest::{WorkloadConfig, WorkloadGenerator};
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(30).as_millis(),
    ));
    let node = Arc::new(KvNode::new("kv", KvNodeConfig::default()).unwrap());
    let instance = instance_with_node(Arc::clone(&clock), Arc::clone(&node), 8 << 20);
    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        users: 5_000,
        user_zipf: 1.2,
        ..Default::default()
    });

    // Seed every user once, then run a Zipf read/write mix.
    for pid in 1..=5_000u64 {
        write(&instance, pid, 1, ctl.now());
    }
    instance.tick().unwrap();
    let rt = instance.table(TABLE).unwrap();
    let (h0, m0) = (rt.cache.stats().hits, rt.cache.stats().misses);
    for _ in 0..20_000 {
        let user = generator.sample_user();
        let q = ProfileQuery::top_k(TABLE, user, SLOT, TimeRange::last_days(1), 5);
        instance.query(CALLER, &q).unwrap();
        instance.tick_if_needed();
    }
    let s = rt.cache.stats();
    let hits = s.hits - h0;
    let misses = s.misses - m0;
    let ratio = hits as f64 / (hits + misses) as f64;
    assert!(ratio > 0.9, "Zipf hit ratio {ratio:.3} should exceed 0.9");
}

trait TickIfNeeded {
    fn tick_if_needed(&self);
}
impl TickIfNeeded for Arc<IpsInstance> {
    fn tick_if_needed(&self) {
        // Swap occasionally so the cache obeys its budget during the run.
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        if N.fetch_add(1, Ordering::Relaxed).is_multiple_of(512) {
            let _ = self.tick();
        }
    }
}
