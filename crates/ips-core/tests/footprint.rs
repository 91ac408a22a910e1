//! `ProfileData::approx_bytes` must track the heap a profile really holds:
//! it is what the cache budget counts, so an estimate that drifts from the
//! allocator's view makes "bytes" in every memory budget mean something
//! else.
//!
//! The binary holds this one test and a counting global allocator, so no
//! other test allocates while the live-heap delta is taken.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ips_core::compact::compact_profile;
use ips_core::model::ProfileData;
use ips_types::{
    ActionTypeId, AggregateFunction, CompactionConfig, CountVector, DurationMs, FeatureId, SlotId,
    TimeDimensionConfig, Timestamp,
};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PROFILES: usize = 1_000;
const SLOTS: u32 = 8;
const ACTION_TYPES: u32 = 4;
const ATTRIBUTES: usize = 3;

/// A profile shaped like the benchmark's: one-hot three-attribute writes
/// over 8 slots and 4 action types, spread over 30 days at 1 s head
/// granularity, then compacted under the production time dimension.
fn benchmark_shaped_profile(rng: &mut StdRng, config: &CompactionConfig) -> ProfileData {
    let span = DurationMs::from_days(30).as_millis();
    let mut profile = ProfileData::new();
    for _ in 0..rng.gen_range(5..60) {
        let mut counts = CountVector::zeros(ATTRIBUTES);
        counts.set(rng.gen_range(0..ATTRIBUTES), 1);
        profile.add(
            Timestamp::from_millis(rng.gen_range(0..span)),
            SlotId::new(rng.gen_range(0..SLOTS)),
            ActionTypeId::new(rng.gen_range(0..ACTION_TYPES)),
            FeatureId::new(rng.gen_range(0..5_000)),
            &counts,
            AggregateFunction::Sum,
            DurationMs::from_secs(1),
        );
    }
    let now = Timestamp::from_millis(span);
    compact_profile(&mut profile, config, AggregateFunction::Sum, now, false);
    profile
}

#[test]
fn approx_bytes_tracks_live_heap() {
    let config = CompactionConfig {
        time_dimension: TimeDimensionConfig::production_default(),
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(29);

    let before = LIVE.load(Ordering::Relaxed);
    let mut profiles = Vec::with_capacity(PROFILES);
    for _ in 0..PROFILES {
        profiles.push(benchmark_shaped_profile(&mut rng, &config));
    }
    let held = (LIVE.load(Ordering::Relaxed) - before) as f64;

    let reported: usize = profiles.iter().map(ProfileData::approx_bytes).sum();
    let ratio = reported as f64 / held;
    assert!(
        (0.75..=1.25).contains(&ratio),
        "approx_bytes reports {reported} B for {held} B of live heap (ratio {ratio:.2})"
    );
}
