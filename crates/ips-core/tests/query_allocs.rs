//! A query's allocations must not grow with the number of features or rows
//! it folds: the fold sizes its buffers once from the window's row count,
//! and each result entry's counts live inline, so a top-K, filter or decay
//! query allocates the same handful of buffers over a thousand features as
//! over four thousand, and over a deep window of short slices as over one
//! with four times the rows.
//!
//! A counting global allocator counts each thread's allocations, so tests
//! running side by side do not see each other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use ips_core::model::ProfileData;
use ips_core::query::{engine, FilterPredicate, ProfileQuery};
use ips_types::config::DecayFunction;
use ips_types::{
    ActionTypeId, AggregateFunction, CountVector, DurationMs, FeatureId, ProfileId, ShrinkConfig,
    SlotId, TableId, TimeRange, Timestamp,
};

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SLOT: SlotId = SlotId(1);
const SLICES: u64 = 8;
const NOW: u64 = 60_000;
const DEEP_SLICES: u64 = 200;

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

/// `DEEP_SLICES` one-second slices of `rows` rows each over two action
/// types, the shape of a hot profile's window: `rows * 50` features recur
/// across slices, and features 0..5 carry large counts, so a threshold
/// filter keeps exactly five.
fn deep_profile(rows: u64) -> ProfileData {
    let mut p = ProfileData::new();
    for slice in 0..DEEP_SLICES {
        for row in 0..rows {
            let fid = (slice * rows + row) % (rows * 50);
            let weight = if fid < 5 { 1_000 } else { 1 };
            p.add(
                Timestamp::from_millis(1_000 * (slice + 1)),
                SLOT,
                ActionTypeId::new((row % 2) as u32),
                FeatureId::new(fid),
                &CountVector::from_slice(&[weight, 2, 3]),
                AggregateFunction::Sum,
                DurationMs::from_secs(1),
            );
        }
    }
    p
}

fn queries(range: TimeRange) -> Vec<(&'static str, ProfileQuery)> {
    let (table, pid) = (TableId::new(1), ProfileId::new(1));
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

/// Allocations made by one execution of `query` over `p` at `now` (ms).
fn allocs_of(p: &ProfileData, query: &ProfileQuery, now: u64) -> usize {
    let weights = ShrinkConfig::default();
    let now = Timestamp::from_millis(now);
    let before = ALLOCS.with(Cell::get);
    let result = engine::execute(p, query, AggregateFunction::Sum, &weights, now);
    let after = ALLOCS.with(Cell::get);
    assert!(!black_box(result).entries.is_empty());
    after - before
}

#[test]
fn query_allocations_do_not_grow_with_feature_count() {
    let small = profile(1_000);
    let large = profile(4_000);
    for (name, query) in queries(TimeRange::last(DurationMs::from_secs(120))) {
        let at_small = allocs_of(&small, &query, NOW);
        let at_large = allocs_of(&large, &query, NOW);
        assert_eq!(
            at_small, at_large,
            "{name}: {at_small} allocations over 1,000 features, {at_large} over 4,000"
        );
    }
}

#[test]
fn deep_window_allocations_do_not_grow_with_row_count() {
    let shallow = deep_profile(5);
    let deep = deep_profile(20);
    let now = 1_000 * (DEEP_SLICES + 1);
    for (name, query) in queries(TimeRange::last(DurationMs::from_secs(DEEP_SLICES + 1))) {
        let at_1x = allocs_of(&shallow, &query, now);
        let at_4x = allocs_of(&deep, &query, now);
        assert_eq!(
            at_1x, at_4x,
            "{name}: {at_1x} allocations over 200 slices of 5 rows, {at_4x} over 200 of 20"
        );
    }
}
