//! Micro-bench: the multi-way merge and aggregation core.
//!
//! Isolates `merged_features` — the slice selection and fold that every
//! read API runs before its final sort/filter — across aggregate functions
//! and decay settings, a top-K query over a wide window, and every slot of
//! a profile shaped like the benchmark's hottest (`ips_bench::hot_profile`).
//! Rows carry three attributes, the width of the benchmark's tables.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use ips_core::model::ProfileData;
use ips_core::query::engine::{execute, merged_features};
use ips_core::query::ProfileQuery;
use ips_types::config::DecayFunction;
use ips_types::{
    ActionTypeId, AggregateFunction, CountVector, DurationMs, FeatureId, ProfileId, ShrinkConfig,
    SlotId, TableId, TimeRange, Timestamp,
};

const SLOT: SlotId = SlotId(1);
const LIKE: ActionTypeId = ActionTypeId(1);

/// `feats` features in each of `slices` slices; slice `s` starts at
/// feature id `s * stride`, so stride 0 repeats the same ids in every slice
/// (heavy fold) and stride `feats` makes them disjoint (pure insert).
fn build(slices: u64, feats: u64, stride: u64) -> ProfileData {
    let mut p = ProfileData::new();
    for s in 0..slices {
        for f in 0..feats {
            let fid = s * stride + f;
            p.add(
                Timestamp::from_millis(1_000 + s * 1_000),
                SLOT,
                LIKE,
                FeatureId::new(fid),
                &CountVector::from_slice(&[1, 2, 3]),
                AggregateFunction::Sum,
                DurationMs::from_secs(1),
            );
        }
    }
    p
}

/// Drain the merge; the count keeps the optimiser from skipping the work.
fn merge_all(p: &ProfileData, agg: AggregateFunction, decay: DecayFunction) -> usize {
    let now = Timestamp::from_millis(DurationMs::from_days(1).as_millis());
    let (features, _) = merged_features(p, SLOT, None, Timestamp::ZERO, now, agg, decay, 1.0, now);
    features.map(black_box).count()
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_aggregate");

    for overlap in [true, false] {
        let p = build(64, 32, if overlap { 0 } else { 32 });
        group.bench_with_input(BenchmarkId::new("overlap", overlap), &p, |b, p| {
            b.iter(|| merge_all(black_box(p), AggregateFunction::Sum, DecayFunction::None))
        });
    }

    let p = build(64, 32, 0);
    for (name, agg) in [
        ("sum", AggregateFunction::Sum),
        ("max", AggregateFunction::Max),
        ("last", AggregateFunction::Last),
    ] {
        group.bench_with_input(BenchmarkId::new("aggregate", name), &p, |b, p| {
            b.iter(|| merge_all(black_box(p), agg, DecayFunction::None))
        });
    }

    for (name, decay) in [
        ("none", DecayFunction::None),
        (
            "exponential",
            DecayFunction::Exponential {
                half_life: DurationMs::from_hours(1),
            },
        ),
        (
            "linear",
            DecayFunction::Linear {
                horizon: DurationMs::from_days(1),
            },
        ),
    ] {
        group.bench_with_input(BenchmarkId::new("decay", name), &p, |b, p| {
            b.iter(|| merge_all(black_box(p), AggregateFunction::Sum, decay))
        });
    }

    // Every slot of `serve_hot`'s hottest profile over its 30-day window.
    let (hot, now) = ips_bench::hot_profile();
    let lo = Timestamp::from_millis(now.as_millis() - DurationMs::from_days(30).as_millis());
    group.bench_with_input(BenchmarkId::new("hot_profile", "30d"), &hot, |b, p| {
        b.iter(|| {
            (0..8)
                .map(|slot| {
                    let (features, _) = merged_features(
                        black_box(p),
                        SlotId::new(slot),
                        None,
                        lo,
                        now,
                        AggregateFunction::Sum,
                        DecayFunction::None,
                        1.0,
                        now,
                    );
                    features.map(black_box).count()
                })
                .sum::<usize>()
        })
    });

    // A top-K over a wide window: 256 slices of 64 features, each sharing
    // half its ids with the next slice, merged and ranked down to ten.
    let wide = build(256, 64, 32);
    let query = ProfileQuery::top_k(
        TableId::new(1),
        ProfileId::new(1),
        SLOT,
        TimeRange::last(DurationMs::from_days(1)),
        10,
    );
    let now = Timestamp::from_millis(300_000);
    group.bench_with_input(BenchmarkId::new("top_k", "wide_window"), &wide, |b, p| {
        b.iter(|| {
            execute(
                black_box(p),
                &query,
                AggregateFunction::Sum,
                &ShrinkConfig::default(),
                now,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_merge);
criterion_main!(benches);
