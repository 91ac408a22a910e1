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
use rand::SeedableRng;

use ips_core::model::ProfileData;
use ips_types::{CompactionConfig, TimeDimensionConfig};

#[path = "common/shaped.rs"]
mod shaped;

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
        profiles.push(shaped::benchmark_shaped_profile(&mut rng, &config, 5..60));
    }
    let held = (LIVE.load(Ordering::Relaxed) - before) as f64;

    // A slice is three flat columns, so a thousand benchmark-shaped
    // profiles fit in 3.7 MB (nested per-level vectors took 5.7 MB).
    assert!(
        held <= 3.7e6,
        "{PROFILES} profiles hold {held} B of live heap"
    );

    let reported: usize = profiles.iter().map(ProfileData::approx_bytes).sum();
    let ratio = reported as f64 / held;
    assert!(
        (0.75..=1.25).contains(&ratio),
        "approx_bytes reports {reported} B for {held} B of live heap (ratio {ratio:.2})"
    );
}
