//! Lock-order harness: drives the sharded KV store, the WAL, replication,
//! the profile cache, instance maintenance (`tick`) and the batched query
//! path from several caller threads concurrently, with the vendored
//! parking_lot shim's `lock-order-tracking` instrumentation live. Any inconsistently ordered
//! pair of lock acquisitions anywhere in the stack panics the offending
//! thread — so "the harness runs to completion" *is* the assertion that the
//! serving path is free of potential lock-order deadlocks.
//!
//! Run with: `cargo test -p ips --features lock-order-tracking --test lock_order`
#![cfg(feature = "lock-order-tracking")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ips::cluster::{IpsClusterClient, MultiRegionDeployment, MultiRegionOptions, NetworkModel};
use ips::kv::{KvLatencyModel, KvNode, KvNodeConfig, ReplicaReadMode, ReplicatedKv};
use ips::prelude::*;

use bytes::Bytes;

const TABLE: TableId = TableId(1);
const CALLER: CallerId = CallerId(1);
const SLOT: SlotId = SlotId(1);
const LIKE: ActionTypeId = ActionTypeId(1);

fn wal_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ips-lock-order-{}-{name}.log", std::process::id()));
    p
}

#[test]
fn full_stack_concurrency_has_no_lock_order_cycles() {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(10).as_millis(),
    ));
    let mut table_cfg = TableConfig::new("lock-order");
    table_cfg.isolation.enabled = false;
    table_cfg.cache.memory_budget_bytes = 2 << 20; // tight: exercises eviction
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
    let client = Arc::new({
        let c = IpsClusterClient::new(
            Arc::clone(&deployment.discovery),
            "r0",
            KvLatencyModel::zero(),
        );
        c.add_endpoints(deployment.all_endpoints());
        c.refresh();
        c
    });

    // A WAL-backed replication group on the side: store + WAL + pump.
    let path = wal_path("master");
    let master = Arc::new(
        KvNode::new(
            "lock-order-master",
            KvNodeConfig {
                wal_path: Some(path.clone()),
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let replica = Arc::new(KvNode::new("lock-order-replica", KvNodeConfig::default()).unwrap());
    let group = Arc::new(ReplicatedKv::new(
        master,
        vec![replica],
        ReplicaReadMode::MasterOnMiss,
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let now = ctl.now();
    let mut handles = Vec::new();

    // Replication pump: a harness-owned thread drains the replica queue
    // while the KV hammer below writes through the master.
    let pump = {
        let group = Arc::clone(&group);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                group.pump(64);
                std::thread::yield_now();
            }
        })
    };

    // Writers: multi-region fan-out through the client (server write path,
    // cache inserts, quota, write-table).
    for t in 0..2u64 {
        let client = Arc::clone(&client);
        handles.push(std::thread::spawn(move || {
            for i in 0..300u64 {
                let pid = t * 1_000 + i % 64;
                client
                    .add_profile(
                        CALLER,
                        TABLE,
                        ProfileId::new(pid),
                        now,
                        SLOT,
                        LIKE,
                        FeatureId::new(i % 16),
                        CountVector::single(1),
                    )
                    .unwrap();
            }
        }));
    }

    // Batch queriers: the owner-grouped fan-out feeds the server-side
    // work-stealing pool, which walks cache shards under load.
    for t in 0..2u64 {
        let client = Arc::clone(&client);
        handles.push(std::thread::spawn(move || {
            for round in 0..30u64 {
                let queries: Vec<ProfileQuery> = (0..32)
                    .map(|i| {
                        ProfileQuery::top_k(
                            TABLE,
                            ProfileId::new(t * 1_000 + (round + i) % 64),
                            SLOT,
                            TimeRange::last_days(1),
                            8,
                        )
                    })
                    .collect();
                let outcome = client.query_batch(CALLER, &queries).unwrap();
                assert_eq!(outcome.results.len(), 32);
            }
        }));
    }

    // KV hammer: sharded versioned store + WAL appends + CAS loop, while
    // the pump thread replicates concurrently.
    for t in 0..2u64 {
        let group = Arc::clone(&group);
        handles.push(std::thread::spawn(move || {
            for i in 0..500u64 {
                let key = Bytes::from((t * 100 + i % 32).to_le_bytes().to_vec());
                group.set(key.clone(), Bytes::from_static(b"v")).unwrap();
                let (_, held) = group.xget_master(&key).unwrap();
                let _ = group.xset(key.clone(), Bytes::from_static(b"w"), held);
                let _ = group.get_replica(0, &key).unwrap();
            }
        }));
    }

    // Maintenance: every instance's tick (write-table merge, compaction,
    // per-shard flush, swap) races the writers' and queriers' shard locks.
    {
        let endpoints = deployment.all_endpoints();
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for ep in &endpoints {
                    ep.instance().tick().unwrap();
                }
                std::thread::yield_now();
            }
        }));
    }

    // The maintenance thread was pushed last; stop it once every worker is
    // done so it keeps racing the workers for the whole run.
    let maintenance = handles.pop().expect("maintenance thread was spawned");
    for h in handles {
        h.join()
            .expect("no worker may panic: a panic here is a detected lock-order cycle");
    }
    stop.store(true, Ordering::Relaxed);
    maintenance
        .join()
        .expect("maintenance must not hit a lock-order cycle either");
    pump.join()
        .expect("the replication pump must not hit a lock-order cycle either");

    // Prove the instrumentation was actually live for this run: the stack
    // above registers many distinct lock sites and real nesting edges.
    let (sites, edges) = parking_lot::order::stats();
    assert!(
        sites >= 8,
        "expected many registered lock sites, got {sites}"
    );
    assert!(edges >= 1, "expected recorded order edges, got {edges}");

    std::fs::remove_file(&path).ok();
}
