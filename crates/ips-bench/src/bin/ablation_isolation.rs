//! Ablation (§IV-C): read-write isolation on vs off.
//!
//! The paper: "After the feature is enabled in production, the
//! 99th-percentile latency of write operation went down about 80% while the
//! query latency remains fairly stable." The mechanism: with isolation on,
//! a write lands in the lightweight staging table instead of contending for
//! the (large, busy) main-table entries; the periodic merge pays that cost
//! off the request path.
//!
//! The harness runs an identical interleaved read/write workload — with a
//! concurrent bulk back-fill creating the contention the feature exists
//! for — against two instances differing only in the isolation switch.

use std::sync::Arc;

use ips_bench::{banner, latency_row, TABLE};
use ips_core::query::ProfileQuery;
use ips_core::server::{IpsInstance, IpsInstanceOptions};
use ips_ingest::{WorkloadConfig, WorkloadGenerator};
use ips_metrics::Histogram;
use ips_types::clock::sim_clock;
use ips_types::{CallerId, Clock, DurationMs, SimClock, SlotId, TableConfig, TimeRange, Timestamp};

struct RunResult {
    write_p99_us: u64,
    write_p50_us: u64,
    query_p99_us: u64,
    query_p50_us: u64,
    write_hist: ips_metrics::HistogramSnapshot,
    query_hist: ips_metrics::HistogramSnapshot,
}

fn run(isolation: bool) -> RunResult {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(400).as_millis(),
    ));
    let instance = IpsInstance::new_in_memory(IpsInstanceOptions::default(), Arc::clone(&clock));
    let mut cfg = TableConfig::new("iso");
    cfg.isolation.enabled = isolation;
    instance.create_table(TABLE, cfg).unwrap();
    let caller = CallerId::new(1);
    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        users: 5_000,
        ..Default::default()
    });

    // Build deep profiles so main-table writes have real work to do (long
    // slice lists to route into, compaction scheduling, reaccounting).
    for _ in 0..60_000 {
        let rec = generator.instance(ctl.now());
        instance
            .add_profiles(
                caller,
                TABLE,
                rec.user,
                rec.at,
                rec.slot,
                rec.action_type,
                &[(rec.feature, rec.counts.clone())],
            )
            .unwrap();
        ctl_advance_sometimes(&ctl);
    }
    instance.tick().unwrap();

    let write_hist = Histogram::new();
    let query_hist = Histogram::new();

    // The measured phase: online traffic interleaved with a back-fill burst
    // (many features per batch into hot profiles).
    for round in 0..15_000u64 {
        if round % 10 == 0 {
            // back-fill batch: 16 features into a hot profile
            let rec = generator.instance(ctl.now());
            let features: Vec<_> = (0..16)
                .map(|i| {
                    (
                        ips_types::FeatureId::new(rec.feature.raw() + i),
                        rec.counts.clone(),
                    )
                })
                .collect();
            let t0 = std::time::Instant::now();
            instance
                .add_profiles(
                    caller,
                    TABLE,
                    rec.user,
                    rec.at,
                    rec.slot,
                    rec.action_type,
                    &features,
                )
                .unwrap();
            write_hist.record(t0.elapsed().as_micros() as u64);
        } else if round % 10 < 8 {
            let user = generator.sample_user();
            let q = ProfileQuery::top_k(
                TABLE,
                user,
                SlotId::new(user.raw() as u32 % 8),
                TimeRange::last_days(7),
                20,
            );
            let t0 = std::time::Instant::now();
            instance.query(caller, &q).unwrap();
            query_hist.record(t0.elapsed().as_micros() as u64);
        } else {
            let rec = generator.instance(ctl.now());
            let t0 = std::time::Instant::now();
            instance
                .add_profiles(
                    caller,
                    TABLE,
                    rec.user,
                    rec.at,
                    rec.slot,
                    rec.action_type,
                    &[(rec.feature, rec.counts.clone())],
                )
                .unwrap();
            write_hist.record(t0.elapsed().as_micros() as u64);
        }
        // Periodic merge, as the background thread would do.
        if round % 2_000 == 0 {
            instance.table(TABLE).unwrap().merge_write_table().unwrap();
            instance.tick().unwrap();
            ctl.advance(DurationMs::from_secs(2));
        }
    }

    let w = write_hist.snapshot();
    let q = query_hist.snapshot();
    RunResult {
        write_p99_us: w.percentile(99.0),
        write_p50_us: w.percentile(50.0),
        query_p99_us: q.percentile(99.0),
        query_p50_us: q.percentile(50.0),
        write_hist: w,
        query_hist: q,
    }
}

fn ctl_advance_sometimes(ctl: &SimClock) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    if N.fetch_add(1, Ordering::Relaxed).is_multiple_of(100) {
        ctl.advance(DurationMs::from_secs(30));
    }
}

fn main() {
    banner(
        "E-ISO (§IV-C)",
        "read-write isolation ablation: write p99 with/without staging table",
    );
    println!("running with isolation OFF ...");
    let off = run(false);
    println!("running with isolation ON ...");
    let on = run(true);

    println!();
    println!("isolation OFF:");
    latency_row("  write", &off.write_hist);
    latency_row("  query", &off.query_hist);
    println!("isolation ON:");
    latency_row("  write", &on.write_hist);
    latency_row("  query", &on.query_hist);

    let write_p99_reduction = 1.0 - on.write_p99_us as f64 / off.write_p99_us.max(1) as f64;
    let query_p50_shift =
        (on.query_p50_us as f64 - off.query_p50_us as f64) / off.query_p50_us.max(1) as f64;
    println!("-- shape summary ------------------------------------------");
    println!(
        "write p99: {:.3} ms -> {:.3} ms ({:+.0}% — paper: about -80%)",
        off.write_p99_us as f64 / 1_000.0,
        on.write_p99_us as f64 / 1_000.0,
        -write_p99_reduction * 100.0
    );
    println!(
        "write p50: {:.3} ms -> {:.3} ms",
        off.write_p50_us as f64 / 1_000.0,
        on.write_p50_us as f64 / 1_000.0
    );
    println!(
        "query p99: {:.3} ms -> {:.3} ms (should stay stable)",
        off.query_p99_us as f64 / 1_000.0,
        on.query_p99_us as f64 / 1_000.0
    );
    assert!(
        write_p99_reduction > 0.3,
        "isolation should cut write p99 substantially, got {:.0}%",
        write_p99_reduction * 100.0
    );
    // Stability check: medians here are tens of microseconds, where a busy
    // host shifts percentages wildly — accept either a small relative shift
    // or a small absolute one.
    let abs_shift_us = (on.query_p50_us as i64 - off.query_p50_us as i64).unsigned_abs();
    assert!(
        query_p50_shift.abs() < 0.5 || abs_shift_us < 200,
        "query latency should remain stable, shifted {:.0}% ({abs_shift_us} us)",
        query_p50_shift * 100.0
    );
    println!("ablation_isolation: OK");
}
