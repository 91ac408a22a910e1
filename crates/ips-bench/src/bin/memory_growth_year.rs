//! §III-D sizing: managed vs unmanaged profile growth over a simulated year.
//!
//! The paper's numbers: with compact + truncate + shrink, the average
//! profile holds ~62 slices of ~730 bytes (~45 KB) and "remains fairly
//! stable"; with 5-minute slices and no management it would reach ~76 MB
//! after a year. The harness feeds identical event streams to a managed
//! IPS instance and the naive unbounded store and prints both growth curves
//! plus the final slice-count/slice-size/profile-size triple.
//!
//! Writes `BENCH_memory_growth.json`: per month, the managed profile's slice
//! count, the bytes the cache budget counts for it (`approx_bytes`), the
//! heap it holds as loaded from storage (measured by the allocator) and its
//! encoded frame size, plus their means over the second half-year, where
//! the profile has plateaued.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

use ips_baseline::NaiveProfileStore;
use ips_bench::{banner, human_bytes, TABLE};
use ips_core::persist::{decode_profile, encode_profile};
use ips_core::server::{IpsInstance, IpsInstanceOptions};
use ips_ingest::{WorkloadConfig, WorkloadGenerator};
use ips_types::clock::sim_clock;
use ips_types::config::TruncateConfig;
use ips_types::{CallerId, Clock, DurationMs, ProfileId, ShrinkConfig, TableConfig, Timestamp};

/// Counts live heap bytes, so the artefact reports what the allocator
/// holds rather than what the model estimates.
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

/// The managed profile at the end of one month.
struct Sample {
    slices: usize,
    approx_bytes: usize,
    live_bytes: usize,
    encoded_bytes: usize,
}

/// Measure a profile: its encoded frame, and the heap it holds once that
/// frame is loaded back (the single-threaded bin allocates nothing else
/// while the delta is taken).
fn sample(profile: &ips_core::model::ProfileData) -> Sample {
    let frame = encode_profile(profile);
    let before = LIVE.load(Ordering::Relaxed);
    let loaded = decode_profile(&frame).unwrap();
    let live_bytes = (LIVE.load(Ordering::Relaxed) - before) as usize;
    drop(loaded);
    Sample {
        slices: profile.slice_count(),
        approx_bytes: profile.approx_bytes(),
        live_bytes,
        encoded_bytes: frame.len(),
    }
}

fn main() {
    banner(
        "E-SIZE (§III-D)",
        "profile growth over a simulated year: managed IPS vs unmanaged store",
    );
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(400).as_millis(),
    ));
    let instance = IpsInstance::new_in_memory(IpsInstanceOptions::default(), Arc::clone(&clock));
    let mut cfg = TableConfig::new("managed");
    cfg.isolation.enabled = false;
    // Production-shaped management: Listing 3 time dimension, 365-day
    // truncation, shrink with a per-slot budget.
    cfg.compaction.truncate = TruncateConfig {
        max_age: Some(DurationMs::from_days(365)),
        max_slices: None,
    };
    cfg.compaction.shrink = ShrinkConfig {
        default_retain: 128,
        fresh_horizon: DurationMs::from_hours(1),
        long_term_fraction: 0.1,
        ..Default::default()
    };
    cfg.compaction.min_interval = DurationMs::from_mins(30);
    instance.create_table(TABLE, cfg).unwrap();
    let naive = NaiveProfileStore::new(DurationMs::from_mins(5));
    let caller = CallerId::new(1);

    // One tracked user receiving steady traffic (plus background users so
    // compaction competes for the pool as in production).
    let user = ProfileId::new(7);
    let mut generator = WorkloadGenerator::new(WorkloadConfig::default());

    println!("simulating 12 months of traffic for one active user ...");
    println!("month | managed slices | managed size | unmanaged slices | unmanaged size");
    let mut managed_curve = Vec::new();
    let mut naive_curve = Vec::new();
    let mut samples = Vec::new();
    for month in 1..=12u64 {
        // ~16 events/day for 30 days, in 5-minute-granularity buckets.
        for day in 0..30u64 {
            for e in 0..16u64 {
                let rec = generator.instance(ctl.now());
                // The tracked user gets this event in both stores.
                instance
                    .add_profiles(
                        caller,
                        TABLE,
                        user,
                        ctl.now(),
                        rec.slot,
                        rec.action_type,
                        &[(rec.feature, rec.counts.clone())],
                    )
                    .unwrap();
                naive.record(
                    user,
                    ctl.now(),
                    rec.slot,
                    rec.action_type,
                    rec.feature,
                    &rec.counts,
                );
                ctl.advance(DurationMs::from_mins(85));
                let _ = (day, e);
            }
            instance.tick().unwrap();
            instance.tick().unwrap();
        }
        let rt = instance.table(TABLE).unwrap();
        let month_sample = rt
            .cache
            .read(user, sample)
            .unwrap()
            .map(|(v, _)| v)
            .unwrap();
        let (m_slices, m_bytes) = (month_sample.slices, month_sample.approx_bytes);
        let snap = naive.snapshot();
        managed_curve.push(m_bytes);
        naive_curve.push(snap.approx_bytes);
        samples.push(month_sample);
        println!(
            "{month:>5} | {m_slices:>14} | {:>12} | {:>16} | {:>14}",
            human_bytes(m_bytes as f64),
            snap.total_slices,
            human_bytes(snap.approx_bytes as f64),
        );
    }

    let rt = instance.table(TABLE).unwrap();
    let (slices, bytes) = rt
        .cache
        .read(user, |p| (p.slice_count(), p.approx_bytes()))
        .unwrap()
        .map(|(v, _)| v)
        .unwrap();
    let avg_slice = bytes as f64 / slices.max(1) as f64;
    let naive_final = naive.snapshot();

    println!("-- shape summary ------------------------------------------");
    println!(
        "managed:   {slices} slices, avg slice {}, profile {}",
        human_bytes(avg_slice),
        human_bytes(bytes as f64)
    );
    println!("           (paper: ~62 slices, ~730 B/slice, ~45 KB/profile)");
    println!(
        "unmanaged: {} slices, profile {} and growing linearly",
        naive_final.total_slices,
        human_bytes(naive_final.approx_bytes as f64)
    );
    let blowup = naive_final.approx_bytes as f64 / bytes.max(1) as f64;
    println!("unmanaged / managed size ratio after a year: {blowup:.0}x");

    write_artefact(&samples);

    // Shape assertions: managed plateaus, unmanaged grows linearly.
    let m_h1 = managed_curve[5] as f64;
    let m_h2 = *managed_curve.last().unwrap() as f64;
    let n_h1 = naive_curve[5] as f64;
    let n_h2 = *naive_curve.last().unwrap() as f64;
    assert!(
        m_h2 < m_h1 * 1.6,
        "managed profile must plateau: {m_h1} -> {m_h2}"
    );
    assert!(
        n_h2 > n_h1 * 1.7,
        "unmanaged profile must keep growing: {n_h1} -> {n_h2}"
    );
    assert!(
        blowup > 3.0,
        "management should win by a wide margin, got {blowup:.1}x"
    );
    println!("memory_growth_year: OK");
}

/// Write `BENCH_memory_growth.json`: every month's sample, and the means
/// over months 7–12 (the plateau).
fn write_artefact(samples: &[Sample]) {
    let plateau = &samples[6..];
    let mean = |f: fn(&Sample) -> usize| {
        plateau.iter().map(f).sum::<usize>() as f64 / plateau.len() as f64
    };
    let mut json = String::from("{\n  \"bench\": \"memory_growth\",\n");
    let _ = writeln!(
        json,
        "  \"plateau\": {{\"months\": \"7-12\", \"slices\": {:.1}, \"approx_bytes\": {:.0}, \"live_bytes\": {:.0}, \"encoded_bytes\": {:.0}}},",
        mean(|s| s.slices),
        mean(|s| s.approx_bytes),
        mean(|s| s.live_bytes),
        mean(|s| s.encoded_bytes),
    );
    json.push_str("  \"months\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"month\": {}, \"slices\": {}, \"approx_bytes\": {}, \"live_bytes\": {}, \"encoded_bytes\": {}}}",
            i + 1,
            s.slices,
            s.approx_bytes,
            s.live_bytes,
            s.encoded_bytes,
        );
        json.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_memory_growth.json", &json).expect("write BENCH_memory_growth.json");
    println!("wrote BENCH_memory_growth.json");
}
