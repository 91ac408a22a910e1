//! Micro-bench: GCache operations (§III-C) — hit-path reads, writes,
//! flush and eviction cycles, and LRU-shard sensitivity.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use ips_core::cache::GCache;
use ips_core::persist::ProfilePersister;
use ips_kv::{KvNode, KvNodeConfig};
use ips_types::{
    ActionTypeId, AggregateFunction, CacheConfig, CountVector, DurationMs, FeatureId,
    PersistenceMode, ProfileId, SlotId, SystemClock, TableId, Timestamp,
};

fn cache(shards: usize, budget: usize) -> GCache<Arc<KvNode>> {
    let node = Arc::new(KvNode::new("kv", KvNodeConfig::default()).unwrap());
    let persister = Arc::new(ProfilePersister::new(
        node,
        TableId::new(1),
        PersistenceMode::Bulk,
    ));
    GCache::new(
        persister,
        CacheConfig {
            memory_budget_bytes: budget,
            lru_shards: shards,
            dirty_shards: 2,
            ..Default::default()
        },
        Arc::new(SystemClock),
    )
    .unwrap()
}

fn populate(c: &GCache<Arc<KvNode>>, users: u64, feats: u64) {
    for pid in 0..users {
        c.write(ProfileId::new(pid), |p| {
            for f in 0..feats {
                p.add(
                    Timestamp::from_millis(1_000 + f),
                    SlotId::new(1),
                    ActionTypeId::new(1),
                    FeatureId::new(f),
                    &CountVector::single(1),
                    AggregateFunction::Sum,
                    DurationMs::from_secs(1),
                );
            }
        })
        .unwrap();
    }
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_ops");

    // Hit-path read across shard counts.
    for shards in [1usize, 16, 64] {
        let cache = cache(shards, 1 << 30);
        populate(&cache, 10_000, 10);
        let mut n = 0u64;
        group.bench_with_input(
            BenchmarkId::new("read_hit_shards", shards),
            &cache,
            |b, c| {
                b.iter(|| {
                    n = n.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let pid = ProfileId::new((n >> 33) % 10_000);
                    black_box(c.read(pid, |p| p.slice_count()).unwrap())
                })
            },
        );
    }

    // Write path (resident profile).
    let cache16 = cache(16, 1 << 30);
    populate(&cache16, 1_000, 10);
    let mut n = 0u64;
    group.bench_function("write_resident", |b| {
        b.iter(|| {
            n += 1;
            cache16
                .write(ProfileId::new(n % 1_000), |p| {
                    p.add(
                        Timestamp::from_millis(2_000 + n),
                        SlotId::new(1),
                        ActionTypeId::new(1),
                        FeatureId::new(n % 100),
                        &CountVector::single(1),
                        AggregateFunction::Sum,
                        DurationMs::from_secs(1),
                    );
                })
                .unwrap();
        })
    });

    // Flush a dirty profile to the KV store (serialize + frame + store).
    group.bench_function("flush_one_profile", |b| {
        let cache = cache(4, 1 << 30);
        populate(&cache, 64, 62);
        let mut pid = 0u64;
        b.iter(|| {
            // Re-dirty and flush round-robin.
            pid = (pid + 1) % 64;
            cache
                .write(ProfileId::new(pid), |p| {
                    p.add(
                        Timestamp::from_millis(90_000),
                        SlotId::new(1),
                        ActionTypeId::new(1),
                        FeatureId::new(1),
                        &CountVector::single(1),
                        AggregateFunction::Sum,
                        DurationMs::from_secs(1),
                    );
                })
                .unwrap();
            black_box(cache.flush_all().unwrap());
        })
    });

    // Miss path: evict + reload from the store.
    group.bench_function("evict_reload", |b| {
        let cache = cache(4, 1 << 30);
        populate(&cache, 64, 62);
        cache.flush_all().unwrap();
        let mut pid = 0u64;
        b.iter(|| {
            pid = (pid + 1) % 64;
            cache.evict(ProfileId::new(pid)).unwrap();
            black_box(
                cache
                    .read(ProfileId::new(pid), |p| p.slice_count())
                    .unwrap(),
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
