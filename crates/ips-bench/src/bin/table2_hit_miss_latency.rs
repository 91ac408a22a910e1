//! Table II: client- and server-side query latency, split by cache hit and
//! cache miss — decomposed from collected trace spans.
//!
//! The paper's structure: misses cost ~2–4 ms more than hits (the
//! persistent-store fetch + deserialize), and the client sees ~3 ms more
//! than the server (network transmission, growing with response size). The
//! harness traces every measured query (per-caller sampling override: the
//! measurement caller is always sampled, the preload caller never), drains
//! the collected spans, and derives the decomposition — client dispatch,
//! serialization, network, cache, KV fetch, compute — from the span tree.
//! Spans hold measured time only: the `network` and `kv_fetch` stages are
//! priced offline ([`CostModel`]) from the byte and store-fetch attributes
//! every `attempt` span carries. It prints the
//! same 2×2 table, writes `BENCH_table2_trace.json` with the per-stage
//! percentiles (hit/miss/batch splits) and `BENCH_table2_chrome_trace.json`
//! with a Perfetto-loadable dump of the first traces.
//!
//! `--smoke` shrinks the workload for CI.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use ips_bench::{banner, latency_row, testbed, CostModel, TestbedOptions, TABLE};
use ips_cluster::FrameBytes;
use ips_core::query::ProfileQuery;
use ips_ingest::{WorkloadConfig, WorkloadGenerator};
use ips_metrics::Histogram;
use ips_trace::export::{chrome_trace_json, StageBreakdown};
use ips_trace::{SamplerConfig, SpanRecord, Tracer};
use ips_types::clock::system_clock;
use ips_types::{CallerId, Clock, ProfileId, SlotId, TimeRange};

/// The measured caller: sampled at 100% via a per-caller override.
const MEASURED: CallerId = CallerId(1);
/// The preload caller: falls through to the 0% default rate.
const PRELOAD: CallerId = CallerId(2);

/// Cap on traces exported to the chrome JSON (a full run collects tens of
/// thousands of spans; Perfetto needs far fewer to show the shape).
const CHROME_TRACE_CAP: usize = 200;

fn query_for(user: ProfileId) -> ProfileQuery {
    ProfileQuery::top_k(
        TABLE,
        user,
        SlotId::new(user.raw() as u32 % 8),
        TimeRange::last_days(7),
        100,
    )
}

/// Drain the tracer into `spans` (called every few queries so the
/// per-thread ring buffers never wrap).
fn drain_into(tracer: &Tracer, spans: &mut Vec<SpanRecord>) {
    spans.extend(tracer.drain());
}

/// A numeric span attribute (0 when absent).
fn attr_u64(rec: &SpanRecord, key: &str) -> u64 {
    rec.attr(key).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Price an `attempt` span's measured facts: its frame's network time and,
/// for a single-query reply that fetched from the store, the fetch.
fn price_attempt(cost: &CostModel, rec: &SpanRecord) -> (u64, u64) {
    let bytes = FrameBytes {
        sent: attr_u64(rec, "sent_bytes") as u32,
        received: attr_u64(rec, "received_bytes") as u32,
    };
    let round_trips = attr_u64(rec, "kv_round_trips") as u32;
    let fetch = if round_trips == 0 {
        0
    } else {
        cost.fetch_us(round_trips, attr_u64(rec, "kv_bytes"))
    };
    (cost.frame_us(bytes), fetch)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "Table II",
        "client/server query latency by cache hit / cache miss (ms), from spans",
    );
    let (preload_n, hit_n, miss_n, batch_calls, batch_size, users) = if smoke {
        (3_000, 300, 120, 4, 16, 600)
    } else {
        (40_000, 5_000, 2_000, 16, 64, 4_000)
    };

    let tb = testbed(TestbedOptions::default());
    // Head sampling with a per-caller override: default 0% (the preload
    // caller's writes stay invisible), measured caller 100%.
    let tracer = Tracer::new(
        system_clock(),
        SamplerConfig::rate(0.0).with_caller_rate(MEASURED.raw(), 1.0),
    );
    tb.client.set_tracer(Some(Arc::clone(&tracer)));
    for ep in tb.deployment.all_endpoints() {
        ep.instance().set_tracer(Some(Arc::clone(&tracer)));
    }

    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        users,
        ..Default::default()
    });

    // Build profiles with realistic depth.
    println!("preloading {preload_n} writes ...");
    for _ in 0..preload_n {
        let rec = generator.instance(tb.ctl.now());
        tb.client
            .add_profiles(
                PRELOAD,
                TABLE,
                rec.user,
                rec.at,
                rec.slot,
                rec.action_type,
                &[(rec.feature, rec.counts.clone())],
            )
            .unwrap();
    }
    for ep in tb.deployment.all_endpoints() {
        ep.instance().flush_all().unwrap();
    }
    let preload_spans = tracer.drain();
    assert!(
        preload_spans.is_empty(),
        "preload caller is not sampled; found {} stray spans",
        preload_spans.len()
    );

    let client_hit = Histogram::new();
    let server_hit = Histogram::new();
    let client_miss = Histogram::new();
    let server_miss = Histogram::new();
    let mut spans: Vec<SpanRecord> = Vec::new();

    // Hits: query users that are resident.
    println!("measuring hit path ({hit_n} queries) ...");
    for i in 0..hit_n {
        let user = generator.sample_user();
        let (result, priced) = tb.query(MEASURED, &query_for(user)).unwrap();
        if result.cache_hit {
            client_hit.record(priced.total_us());
            server_hit.record(priced.measured_us + priced.storage_us);
        }
        if i % 32 == 0 {
            drain_into(&tracer, &mut spans);
        }
    }

    // Misses: evict a block of users everywhere, then query them once each.
    println!("measuring miss path ({miss_n} queries) ...");
    let mut missed = 0;
    let mut user_cursor = 1u64;
    while missed < miss_n && user_cursor < users {
        let user = ProfileId::new(user_cursor);
        user_cursor += 1;
        for ep in tb.deployment.all_endpoints() {
            let _ = ep.instance().table(TABLE).unwrap().cache.evict(user);
        }
        let (result, priced) = tb.query(MEASURED, &query_for(user)).unwrap();
        if !result.cache_hit && !result.is_empty() {
            client_miss.record(priced.total_us());
            server_miss.record(priced.measured_us + priced.storage_us);
            missed += 1;
        }
        // Drain on the *iteration* count, not `missed`: long runs of
        // non-miss queries still fill the ring buffers.
        if user_cursor.is_multiple_of(16) {
            drain_into(&tracer, &mut spans);
        }
    }

    // A short batched pass so the batch split (client dispatch, one
    // `server` span per frame) appears in the decomposition.
    println!("measuring batched path ({batch_calls} batches of {batch_size}) ...");
    let mut batch_b = StageBreakdown::new();
    for i in 0..batch_calls {
        let queries: Vec<ProfileQuery> = (0..batch_size)
            .map(|j| {
                let pid = 1 + ((i * batch_size + j) as u64 % (users - 1));
                query_for(ProfileId::new(pid))
            })
            .collect();
        let (outcome, priced) = tb.query_batch(MEASURED, &queries).unwrap();
        assert!(outcome.all_ok(), "batched sub-query failed");
        // A batch's frames overlap within a round, so its client total is
        // priced from the call's wire log rather than summed over spans.
        batch_b.record("client_total", priced.total_us());
        drain_into(&tracer, &mut spans);
    }
    drain_into(&tracer, &mut spans);
    assert_eq!(
        tracer.dropped_records(),
        0,
        "span ring buffers wrapped; drain more often"
    );

    // ---- fold the span forest into per-stage histograms ------------------
    let mut by_trace: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for rec in &spans {
        by_trace.entry(rec.trace.0).or_default().push(rec);
    }
    let mut hit_b = StageBreakdown::new();
    let mut miss_b = StageBreakdown::new();
    let (mut hit_traces, mut miss_traces, mut batch_traces) = (0u64, 0u64, 0u64);
    let mut chrome_records: Vec<SpanRecord> = Vec::new();
    let mut chrome_trace_count = 0usize;
    for recs in by_trace.values() {
        let Some(root) = recs.iter().find(|r| r.parent.is_none()) else {
            continue; // replication or partially drained trace
        };
        let breakdown = match root.name {
            "query" => match root.attr("cache_hit") {
                Some("true") => {
                    hit_traces += 1;
                    &mut hit_b
                }
                _ => {
                    miss_traces += 1;
                    &mut miss_b
                }
            },
            "query_batch" => {
                batch_traces += 1;
                &mut batch_b
            }
            _ => continue,
        };
        // Price every attempt's measured facts. A single query's attempts
        // run one after another, so its client total is the measured root
        // plus their sum.
        let mut priced = 0;
        for rec in recs.iter().filter(|r| r.name == "attempt") {
            let (network_us, fetch_us) = price_attempt(&tb.cost, rec);
            breakdown.record("network", network_us);
            if fetch_us > 0 {
                breakdown.record("kv_fetch", fetch_us);
            }
            priced += network_us + fetch_us;
        }
        if root.name == "query" {
            breakdown.record("client_total", root.duration_us() + priced);
        }
        for rec in recs {
            if rec.parent.is_some() {
                breakdown.record_span(rec);
            }
        }
        if chrome_trace_count < CHROME_TRACE_CAP {
            chrome_trace_count += 1;
            chrome_records.extend(recs.iter().map(|r| (*r).clone()));
        }
    }

    // Per-endpoint server histograms folded into one stage via
    // `Histogram::merge` — the measured in-process compute+codec time every
    // endpoint recorded for itself, all splits combined.
    let mut server_b = StageBreakdown::new();
    for ep in tb.deployment.all_endpoints() {
        let snap = ep
            .instance()
            .table(TABLE)
            .unwrap()
            .metrics
            .query_latency_us
            .snapshot();
        server_b.merge("server_measured", &snap);
    }

    println!();
    print!(
        "{}",
        hit_b.render(&format!(
            "per-stage decomposition, cache hit ({hit_traces} traces)"
        ))
    );
    print!(
        "{}",
        miss_b.render(&format!(
            "per-stage decomposition, cache miss ({miss_traces} traces)"
        ))
    );
    print!(
        "{}",
        batch_b.render(&format!(
            "per-stage decomposition, batched ({batch_traces} traces)"
        ))
    );
    print!(
        "{}",
        server_b.render("per-endpoint server time, merged via Histogram::merge")
    );

    println!();
    println!("                              (client = server + priced network)");
    latency_row("server / cache hit", &server_hit.snapshot());
    latency_row("client / cache hit", &client_hit.snapshot());
    latency_row("server / cache miss", &server_miss.snapshot());
    latency_row("client / cache miss", &client_miss.snapshot());

    // ---- structural checks on the collected decomposition ----------------
    for (split, b, stages) in [
        (
            "hit",
            &hit_b,
            &["serialize", "network", "cache", "compute"][..],
        ),
        (
            "miss",
            &miss_b,
            &["network", "cache", "store_load", "kv_fetch"][..],
        ),
        ("batch", &batch_b, &["client_dispatch", "server"][..]),
    ] {
        for stage in stages {
            assert!(
                b.get(stage).is_some_and(|h| h.count() > 0),
                "{split} split must contain `{stage}` spans"
            );
        }
    }
    assert!(
        hit_b.get("store_load").is_none(),
        "cache hits must not touch the persistent store"
    );
    assert!(
        server_b
            .get("server_measured")
            .is_some_and(|h| h.count() > 0),
        "per-endpoint server histograms must merge non-empty"
    );

    // ---- JSON artefacts --------------------------------------------------
    let mut json = String::from("{\n  \"bench\": \"table2_trace\",\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(
        json,
        "  \"traces\": {{\"hit\": {hit_traces}, \"miss\": {miss_traces}, \"batch\": {batch_traces}}},"
    );
    json.push_str("  \"stages\": [\n");
    let mut first = true;
    for (split, b) in [("hit", &hit_b), ("miss", &miss_b), ("batch", &batch_b)] {
        for (stage, hist) in b.stages() {
            let s = hist.snapshot();
            if !first {
                json.push_str(",\n");
            }
            first = false;
            let _ = write!(
                json,
                "    {{\"split\": \"{split}\", \"stage\": \"{stage}\", \"count\": {}, \
                 \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"mean_us\": {:.1}, \"max_us\": {}}}",
                s.count(),
                s.percentile(50.0),
                s.percentile(90.0),
                s.percentile(99.0),
                s.mean(),
                s.max()
            );
        }
    }
    json.push_str("\n  ],\n");
    let server_snap = server_b.get("server_measured").unwrap().snapshot();
    let _ = writeln!(
        json,
        "  \"server_measured\": {{\"count\": {}, \"p50_us\": {}, \"p99_us\": {}}},",
        server_snap.count(),
        server_snap.percentile(50.0),
        server_snap.percentile(99.0)
    );
    let _ = writeln!(
        json,
        "  \"client_p50_us\": {{\"hit\": {}, \"miss\": {}}},",
        client_hit.percentile(50.0),
        client_miss.percentile(50.0)
    );
    let _ = writeln!(
        json,
        "  \"server_p50_us\": {{\"hit\": {}, \"miss\": {}}}\n}}",
        server_hit.percentile(50.0),
        server_miss.percentile(50.0)
    );
    std::fs::write("BENCH_table2_trace.json", &json).expect("write BENCH_table2_trace.json");
    println!("wrote BENCH_table2_trace.json");

    let chrome = chrome_trace_json(&chrome_records);
    std::fs::write("BENCH_table2_chrome_trace.json", &chrome)
        .expect("write BENCH_table2_chrome_trace.json");
    println!(
        "wrote BENCH_table2_chrome_trace.json ({chrome_trace_count} traces, {} spans) \
         — load it in Perfetto / chrome://tracing",
        chrome_records.len()
    );

    // Shape checks from the paper's Table II.
    let hit_p50 = client_hit.percentile(50.0) as f64 / 1_000.0;
    let miss_p50 = client_miss.percentile(50.0) as f64 / 1_000.0;
    let net_overhead =
        (client_hit.percentile(50.0) as i64 - server_hit.percentile(50.0) as i64) as f64 / 1_000.0;
    println!("-- shape summary ------------------------------------------");
    println!(
        "miss penalty at p50: {:.2} ms (paper: ~2-4 ms)",
        miss_p50 - hit_p50
    );
    println!("network overhead at p50: {net_overhead:.2} ms (paper: ~3 ms)");
    assert!(
        miss_p50 - hit_p50 >= 1.0 && miss_p50 - hit_p50 <= 6.0,
        "miss penalty {:.2}ms out of the paper's band",
        miss_p50 - hit_p50
    );
    assert!(
        (0.8..6.0).contains(&net_overhead),
        "network overhead {net_overhead:.2}ms out of band"
    );
    let _ = tb.ctl.now();
    println!("table2_hit_miss_latency: OK");
}
