//! A query's allocations must not grow with the number of features it
//! merges: the merge walks the window's sorted columns, and each merged
//! feature's counts live inline, so a top-K, filter or decay query
//! allocates the same handful of buffers over a thousand features as over
//! four thousand.
//!
//! The binary holds this one test and a counting global allocator, so no
//! other test allocates while the count is taken.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use ips_core::model::ProfileData;
use ips_core::query::{engine, FilterPredicate, ProfileQuery};
use ips_types::config::DecayFunction;
use ips_types::{
    ActionTypeId, AggregateFunction, CountVector, DurationMs, FeatureId, ProfileId, ShrinkConfig,
    SlotId, TableId, TimeRange, Timestamp,
};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SLOT: SlotId = SlotId(1);
const SLICES: u64 = 8;
const NOW: u64 = 60_000;

/// `features` distinct three-attribute features over two action types and
/// eight one-second slices; every feature shows up in two slices. Features
/// 0..5 carry large counts, so a threshold filter keeps exactly five.
fn profile(features: u64) -> ProfileData {
    let mut p = ProfileData::new();
    for fid in 0..features {
        let weight = if fid < 5 { 1_000 } else { 1 };
        for slice in [fid % SLICES, (fid + 3) % SLICES] {
            p.add(
                Timestamp::from_millis(1_000 * (slice + 1)),
                SLOT,
                ActionTypeId::new((fid % 2) as u32),
                FeatureId::new(fid),
                &CountVector::from_slice(&[weight, 2, 3]),
                AggregateFunction::Sum,
                DurationMs::from_secs(1),
            );
        }
    }
    p
}

fn queries() -> Vec<(&'static str, ProfileQuery)> {
    let (table, pid) = (TableId::new(1), ProfileId::new(1));
    let range = TimeRange::last(DurationMs::from_secs(120));
    vec![
        ("top_k", ProfileQuery::top_k(table, pid, SLOT, range, 10)),
        (
            "filter",
            ProfileQuery::filter(
                table,
                pid,
                SLOT,
                range,
                FilterPredicate::MinAttribute { attr: 0, min: 500 },
            ),
        ),
        (
            "decay",
            ProfileQuery::decay(
                table,
                pid,
                SLOT,
                range,
                DecayFunction::Exponential {
                    half_life: DurationMs::from_secs(30),
                },
                1.0,
                10,
            ),
        ),
    ]
}

/// Allocations made by one execution of `query` over `p`.
fn allocs_of(p: &ProfileData, query: &ProfileQuery) -> usize {
    let weights = ShrinkConfig::default();
    let now = Timestamp::from_millis(NOW);
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = engine::execute(p, query, AggregateFunction::Sum, &weights, now);
    let after = ALLOCS.load(Ordering::Relaxed);
    assert!(!black_box(result).entries.is_empty());
    after - before
}

#[test]
fn query_allocations_do_not_grow_with_feature_count() {
    let small = profile(1_000);
    let large = profile(4_000);
    for (name, query) in queries() {
        let at_small = allocs_of(&small, &query);
        let at_large = allocs_of(&large, &query);
        assert_eq!(
            at_small, at_large,
            "{name}: {at_small} allocations over 1,000 features, {at_large} over 4,000"
        );
    }
}
