//! Micro-bench: the top-K query path over profiles of varying depth.
//!
//! The core serving operation (§II-B): resolve window → merge slices →
//! bounded top-K. Sweeps slice count and feature density, plus the
//! three time-range kinds, and every slot of a profile shaped like the
//! benchmark's hottest (`ips_bench::hot_profile`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use ips_core::model::ProfileData;
use ips_core::query::{engine, ProfileQuery};
use ips_types::{
    ActionTypeId, AggregateFunction, CountVector, DurationMs, FeatureId, ProfileId, ShrinkConfig,
    SlotId, TableId, TimeRange, Timestamp,
};

const SLOT: SlotId = SlotId(1);
const LIKE: ActionTypeId = ActionTypeId(1);

fn build_profile(slices: u64, features_per_slice: u64) -> ProfileData {
    let mut p = ProfileData::new();
    for s in 0..slices {
        for f in 0..features_per_slice {
            p.add(
                Timestamp::from_millis(1_000 + s * 1_000),
                SLOT,
                LIKE,
                FeatureId::new(f * 31 % 500),
                &CountVector::pair(1, 2),
                AggregateFunction::Sum,
                DurationMs::from_secs(1),
            );
        }
    }
    p
}

fn bench_topk(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_topk");
    let now = Timestamp::from_millis(DurationMs::from_days(1).as_millis());
    let shrink = ShrinkConfig::default();

    for (slices, feats) in [(8u64, 16u64), (62, 12), (256, 32)] {
        let profile = build_profile(slices, feats);
        let query = ProfileQuery::top_k(
            TableId::new(1),
            ProfileId::new(1),
            SLOT,
            TimeRange::last_days(2),
            10,
        );
        group.bench_with_input(
            BenchmarkId::new("slices_x_feats", format!("{slices}x{feats}")),
            &profile,
            |b, p| {
                b.iter(|| {
                    black_box(engine::execute(
                        black_box(p),
                        &query,
                        AggregateFunction::Sum,
                        &shrink,
                        now,
                    ))
                })
            },
        );
    }

    // k sweep on the production-like shape (62 slices — the paper's average).
    let profile = build_profile(62, 12);
    for k in [1usize, 10, 100] {
        let query = ProfileQuery::top_k(
            TableId::new(1),
            ProfileId::new(1),
            SLOT,
            TimeRange::last_days(2),
            k,
        );
        group.bench_with_input(BenchmarkId::new("k", k), &profile, |b, p| {
            b.iter(|| {
                black_box(engine::execute(
                    black_box(p),
                    &query,
                    AggregateFunction::Sum,
                    &shrink,
                    now,
                ))
            })
        });
    }

    // Window kinds.
    let profile = build_profile(62, 12);
    let ranges = [
        ("current", TimeRange::last(DurationMs::from_hours(1))),
        (
            "relative",
            TimeRange::Relative {
                lookback: DurationMs::from_hours(1),
            },
        ),
        (
            "absolute",
            TimeRange::Absolute {
                start: Timestamp::from_millis(10_000),
                end: Timestamp::from_millis(40_000),
            },
        ),
    ];
    for (name, range) in ranges {
        let query = ProfileQuery::top_k(TableId::new(1), ProfileId::new(1), SLOT, range, 10);
        group.bench_with_input(BenchmarkId::new("range", name), &profile, |b, p| {
            b.iter(|| {
                black_box(engine::execute(
                    black_box(p),
                    &query,
                    AggregateFunction::Sum,
                    &shrink,
                    now,
                ))
            })
        });
    }

    // Top-10 of every slot of `serve_hot`'s hottest profile over 30 days.
    let (hot, now) = ips_bench::hot_profile();
    group.bench_with_input(BenchmarkId::new("hot_profile", "30d"), &hot, |b, p| {
        b.iter(|| {
            for slot in 0..8 {
                let query = ProfileQuery::top_k(
                    TableId::new(1),
                    ProfileId::new(1),
                    SlotId::new(slot),
                    TimeRange::last_days(30),
                    10,
                );
                black_box(engine::execute(
                    black_box(p),
                    &query,
                    AggregateFunction::Sum,
                    &shrink,
                    now,
                ));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_topk);
criterion_main!(benches);
