//! Fig 19: add (write) throughput, p99 and p50 latency over five days.
//!
//! The paper: peak write throughput 3–4M/s (a tenth of the read traffic),
//! write p99 4–6 ms, p50 flat ~0.5 ms — writes are cheaper than reads
//! because they only touch the head slice. Writes flow through the full
//! ingestion path (workload → client fan-out → instance write path).

use ips_bench::{banner, testbed, timed, TestbedOptions, TABLE};
use ips_ingest::{WorkloadConfig, WorkloadGenerator};
use ips_metrics::{Histogram, TimeSeries};
use ips_types::{CallerId, Clock, DurationMs};

fn main() {
    banner(
        "Fig 19",
        "add throughput + p50/p99 latency across 5 diurnal days",
    );
    let tb = testbed(TestbedOptions::default());
    let caller = CallerId::new(1);
    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        users: 20_000,
        ..Default::default()
    });

    let wps_series = TimeSeries::new("write throughput (wps, modeled-scale)");
    let p50_series = TimeSeries::new("write p50 (ms)");
    let p99_series = TimeSeries::new("write p99 (ms)");
    let read_count = std::cell::Cell::new(0u64);
    let write_count = std::cell::Cell::new(0u64);
    let peak_per_tick = 2_500.0;

    println!("sweeping 5 simulated days (4h ticks) ...");
    for tick in 0..30u64 {
        let hist = Histogram::new();
        let tick_start = tb.ctl.now();
        let ops = generator.rate_at(tick_start, peak_per_tick).round() as u64;
        for _ in 0..ops {
            if generator.next_is_read() {
                // Reads run too (they shape cache state) but aren't plotted.
                let q = generator.query(tb.ctl.now());
                let _ = tb.client.query(caller, &q);
                read_count.set(read_count.get() + 1);
            } else {
                let rec = generator.instance(tb.ctl.now());
                let (wire, measured_us) = timed(|| {
                    tb.client.add_profiles(
                        caller,
                        TABLE,
                        rec.user,
                        rec.at,
                        rec.slot,
                        rec.action_type,
                        &[(rec.feature, rec.counts.clone())],
                    )
                });
                let priced = tb.cost.price_write(measured_us, &wire.unwrap());
                hist.record(priced.total_us());
                write_count.set(write_count.get() + 1);
            }
        }
        let s = hist.snapshot();
        wps_series.push(tick_start, s.count() as f64 / 14_400.0 * 10_000.0);
        p50_series.push(tick_start, s.percentile(50.0) as f64 / 1_000.0);
        p99_series.push(tick_start, s.percentile(99.0) as f64 / 1_000.0);
        tb.ctl.advance(DurationMs::from_hours(4));
        for ep in tb.deployment.all_endpoints() {
            ep.instance().tick().unwrap();
        }
        tb.deployment.pump_replication(1 << 20);
        tb.deployment.heartbeat_all();
        let _ = tick;
    }

    println!();
    println!(
        "{}",
        wps_series.render_table(DurationMs::from_hours(12), "wps")
    );
    println!(
        "{}",
        p50_series.render_table(DurationMs::from_hours(12), "ms")
    );
    println!(
        "{}",
        p99_series.render_table(DurationMs::from_hours(12), "ms")
    );

    let ratio = read_count.get() as f64 / write_count.get().max(1) as f64;
    println!("-- shape summary ------------------------------------------");
    println!("read:write ratio observed: {ratio:.1}:1 (paper: ~10:1)");
    println!(
        "write p50 mean: {:.3} ms (flat; paper ~0.5 ms band)",
        p50_series.mean()
    );
    println!(
        "write p99 mean: {:.3} ms (paper 4-6 ms band)",
        p99_series.mean()
    );
    println!(
        "wps peak/trough: {:.2} (diurnal shape)",
        wps_series.max()
            / wps_series
                .points()
                .iter()
                .fold(f64::MAX, |a, p| a.min(p.value))
                .max(1e-9)
    );
    assert!((7.0..14.0).contains(&ratio), "read:write ratio {ratio}");
    assert!(
        p50_series.mean() < p99_series.mean(),
        "p50 must sit under p99"
    );
    println!("fig19_write_diurnal: OK");
}
