//! Micro-bench: the versioned KV substrate — set/get/xset/xget, WAL
//! append overhead, and replication pump throughput.

use std::sync::Arc;

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use ips_kv::{KvNode, KvNodeConfig, ReplicaReadMode, ReplicatedKv, VersionedStore};

fn key(n: u64) -> Bytes {
    Bytes::from(n.to_be_bytes().to_vec())
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("kv_store");
    for value_size in [128usize, 4 << 10, 40 << 10] {
        let value = Bytes::from(vec![7u8; value_size]);
        group.throughput(Throughput::Bytes(value_size as u64));

        let store = VersionedStore::new(16);
        let mut n = 0u64;
        group.bench_with_input(BenchmarkId::new("set", value_size), &value, |b, v| {
            b.iter(|| {
                n += 1;
                black_box(store.set(key(n % 100_000), v.clone()))
            })
        });

        let store = VersionedStore::new(16);
        for i in 0..10_000u64 {
            store.set(key(i), value.clone());
        }
        let mut n = 0u64;
        group.bench_with_input(BenchmarkId::new("get", value_size), &store, |b, s| {
            b.iter(|| {
                n += 1;
                black_box(s.get(&key(n % 10_000)))
            })
        });
    }

    // Versioned CAS cycle: xget then xset with the held generation.
    let store = VersionedStore::new(16);
    store.set(key(1), Bytes::from_static(b"init"));
    group.bench_function("xget_xset_cycle", |b| {
        b.iter(|| {
            let (_, g) = store.xget(&key(1));
            black_box(store.xset(key(1), Bytes::from_static(b"v"), g).unwrap())
        })
    });
    group.finish();
}

fn bench_wal(c: &mut Criterion) {
    let mut group = c.benchmark_group("kv_wal");
    let path = {
        let mut p = std::env::temp_dir();
        p.push(format!("ips-bench-wal-{}.log", std::process::id()));
        p
    };
    let _ = std::fs::remove_file(&path);
    let node = KvNode::new(
        "durable",
        KvNodeConfig {
            wal_path: Some(path.clone()),
            ..Default::default()
        },
    )
    .unwrap();
    let volatile = KvNode::new("volatile", KvNodeConfig::default()).unwrap();
    let value = Bytes::from(vec![7u8; 1 << 10]);
    let mut n = 0u64;
    group.bench_function("set_with_wal_1k", |b| {
        b.iter(|| {
            n += 1;
            black_box(node.set(key(n % 10_000), value.clone()).unwrap())
        })
    });
    let mut n = 0u64;
    group.bench_function("set_without_wal_1k", |b| {
        b.iter(|| {
            n += 1;
            black_box(volatile.set(key(n % 10_000), value.clone()).unwrap())
        })
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

fn bench_replication(c: &mut Criterion) {
    let mut group = c.benchmark_group("kv_replication");
    let master = Arc::new(KvNode::new("m", KvNodeConfig::default()).unwrap());
    let replicas = (0..2)
        .map(|i| Arc::new(KvNode::new(format!("r{i}"), KvNodeConfig::default()).unwrap()))
        .collect();
    let group_kv = ReplicatedKv::new(master, replicas, ReplicaReadMode::AllowStale);
    let value = Bytes::from(vec![7u8; 1 << 10]);
    let mut n = 0u64;
    group.bench_function("replicated_set_and_pump", |b| {
        b.iter(|| {
            n += 1;
            group_kv.set(key(n % 10_000), value.clone()).unwrap();
            black_box(group_kv.pump(16))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_store, bench_wal, bench_replication);
criterion_main!(benches);
