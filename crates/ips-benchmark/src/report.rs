//! Metric definitions, and a run's results as metrics and JSON.

use crate::driver::{peak_rss_mib, Window};
use crate::json::Value;
use crate::layers::{names, Tracer};
use crate::stats::{percentile, summarize, supported_percentile};

/// What kind of number a metric is, which decides how `check` treats it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// A wall-clock (or CPU, or memory) measurement: varies run to run.
    Measured,
    /// A count made over the counted prefix that is a pure function of the
    /// seed: equal seeds must give equal values.
    Count,
    /// A count (or size) that should be a function of the seed but that the
    /// program's per-process hash seeds perturb: `std::collections::HashMap`
    /// iteration order decides the order of the write-table drain, of the
    /// compaction queue, of a store scan and of the features inside an
    /// encoded slice, so eviction victims, flush counts and compressed
    /// sizes differ between runs of one seed. `check` allows these the
    /// relative range carried here. The issue's "counts identical for equal
    /// seeds" is therefore met only by [`Kind::Count`]; see README.
    Tally(f64),
}

/// Range of a tally the hash seeds move by a fraction of a percent
/// (measured drift at this commit: ≤ 2.6 %, see README).
const TALLY_TOLERANCE: f64 = 0.03;
/// Range of a tally that is small (18 to 22 compactions on `rank_batch`) or
/// is taken over a sample the store's scan order picks (measured: ≤ 18 %).
const LOOSE_TALLY_TOLERANCE: f64 = 0.30;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn measured(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Measured,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Count,
    }
}

const fn tally(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Tally(TALLY_TOLERANCE),
    }
}

const fn loose_tally(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Tally(LOOSE_TALLY_TOLERANCE),
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, in `BENCHMARK.json` order. `failed_ops_ratio`
/// is the tenth: it is expected to be exactly 0, so it travels as the
/// result line's `failed` / `attempted` instead of as a bounded metric.
pub const END_TO_END: [MetricDef; 9] = [
    measured("setup_s", "s", Lower),
    measured("ops_per_s", "1/s", Higher),
    measured("read_p50_us", "us", Lower),
    measured("read_p99_us", "us", Lower),
    measured("write_p50_us", "us", Lower),
    measured("write_p99_us", "us", Lower),
    measured("cpu_ms_per_kop", "ms/kop", Lower),
    measured("peak_rss_mib", "MiB", Lower),
    tally("stored_bytes_per_user_byte", "B/B", Lower),
];

/// The per-layer metrics, grouped by layer (= module).
pub const PER_LAYER: [MetricDef; 76] = [
    // client (ips-cluster::client)
    measured("client.query_self_us_p50", "us", Lower),
    measured("client.batch_self_us_p50", "us", Lower),
    measured("client.write_fanout_self_us_p50", "us", Lower),
    count("client.attempts_per_op", "1/op", Lower),
    count("client.retries", "count", Lower),
    // ring
    measured("ring.node_for_ns_p50", "ns", Lower),
    // rpc (ips-cluster::rpc)
    measured("rpc.req_encode_ns_p50", "ns", Lower),
    measured("rpc.req_decode_ns_p50", "ns", Lower),
    measured("rpc.resp_encode_ns_p50", "ns", Lower),
    measured("rpc.resp_decode_ns_p50", "ns", Lower),
    count("rpc.req_bytes_mean", "B", Lower),
    tally("rpc.resp_bytes_mean", "B", Lower),
    measured("rpc.endpoint_self_us_p50", "us", Lower),
    // server (ips-core::server + pipeline)
    measured("server.pipeline_self_us_p50", "us", Lower),
    measured("server.batch_call_us_p50", "us", Lower),
    measured("server.batch_overhead_ratio", "ratio", Lower),
    measured("server.write_ctx_us_p50", "us", Lower),
    count("server.shed_deadline", "count", Lower),
    count("server.overloaded", "count", Lower),
    count("server.quota_rejects", "count", Lower),
    // cache (ips-core::cache)
    tally("cache.hit_ratio", "ratio", Higher),
    measured("cache.read_hit_ns_p50", "ns", Lower),
    measured("cache.miss_load_us_p50", "us", Lower),
    tally("cache.store_loads", "count", Lower),
    tally("cache.coalesced_loads", "count", Higher),
    tally("cache.evictions", "count", Lower),
    measured("cache.swap_cycle_ms_total", "ms", Lower),
    measured("cache.write_ns_p50", "ns", Lower),
    measured("cache.flush_ms_total", "ms", Lower),
    tally("cache.flushed_profiles", "count", Lower),
    tally("cache.dirty_backlog_max", "count", Lower),
    tally("cache.resident_bytes", "B", Lower),
    // query (ips-core::query::engine)
    measured("query.execute_us_p50", "us", Lower),
    measured("query.execute_us_p99", "us", Lower),
    measured("query.topk_us_p50", "us", Lower),
    measured("query.filter_us_p50", "us", Lower),
    measured("query.decay_us_p50", "us", Lower),
    // persist (ips-core::persist)
    measured("persist.load_us_p50", "us", Lower),
    measured("persist.load_slices_us_p50", "us", Lower),
    count("persist.kv_round_trips_per_load", "1/load", Lower),
    loose_tally("persist.bytes_read_per_load", "B/load", Lower),
    measured("persist.decode_profile_ns_per_kib", "ns/KiB", Lower),
    measured("persist.save_us_p50", "us", Lower),
    measured("persist.encode_profile_ns_per_kib", "ns/KiB", Lower),
    tally("persist.bytes_written", "B", Lower),
    count("persist.stale_retries", "count", Lower),
    // codec (ips-codec)
    measured("codec.compress_ns_per_kib", "ns/KiB", Lower),
    measured("codec.decompress_ns_per_kib", "ns/KiB", Lower),
    tally("codec.compress_ratio", "ratio", Higher),
    measured("codec.frame_encode_ns_per_kib", "ns/KiB", Lower),
    measured("codec.frame_decode_ns_per_kib", "ns/KiB", Lower),
    tally("codec.pool_hit_ratio", "ratio", Higher),
    // isolation + compact
    measured("isolation.merge_ms_total", "ms", Lower),
    count("isolation.merged_writes", "count", Higher),
    loose_tally("compact.runs", "count", Lower),
    measured("compact.run_ms_total", "ms", Lower),
    loose_tally("compact.pending_max", "count", Lower),
    // kv (ips-kv node/store/replication)
    measured("kv.get_ns_p50", "ns", Lower),
    measured("kv.set_ns_p50", "ns", Lower),
    tally("kv.ops", "count", Lower),
    tally("kv.live_bytes", "B", Lower),
    measured("kv.repl_pump_ms_total", "ms", Lower),
    tally("kv.repl_backlog_max", "count", Lower),
    count("kv.repl_stale_rejected", "count", Lower),
    // wal (ips-kv::wal)
    measured("wal.append_ns_p50", "ns", Lower),
    tally("wal.bytes_per_user_byte", "B/B", Lower),
    tally("wal.rotations", "count", Lower),
    count("wal.checkpoints", "count", Lower),
    measured("wal.checkpoint_ms_total", "ms", Lower),
    measured("wal.recover_ms", "ms", Lower),
    loose_tally("wal.recovered_records", "count", Lower),
    // maintenance the benchmark drives
    measured("maint.share_of_wall", "ratio", Lower),
    measured("maint.step_ms_p99", "ms", Lower),
    // process
    tally("process.allocs_per_op", "1/op", Lower),
    loose_tally("process.alloc_bytes_per_op", "B/op", Lower),
    measured("trace.overhead_ratio", "ratio", Higher),
];

/// Look a definition up by name.
#[must_use]
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// One reported value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub def: &'static MetricDef,
    pub value: f64,
    /// For timings: how many samples, and the percentile actually reported
    /// (the highest one with at least ten samples beyond it).
    pub samples: Option<usize>,
    pub percentile: Option<f64>,
}

fn metric(name: &str, value: f64) -> Metric {
    Metric {
        // Names come from this file's own tables; a typo must fail the
        // first run (and the smoke test).
        def: def(name).unwrap_or_else(|| panic!("undefined metric {name}")),
        value,
        samples: None,
        percentile: None,
    }
}

/// `samples` (nanoseconds) at percentile `cap` or the highest one the
/// sample count supports, divided by `scale`.
fn timing(name: &str, samples: &[u64], cap: f64, scale: f64) -> Metric {
    let summary = summarize(samples, cap);
    Metric {
        samples: Some(summary.samples),
        percentile: Some(summary.tail_percentile),
        ..metric(name, summary.tail as f64 / scale)
    }
}

/// The end-to-end metrics of an untraced window, over the whole window.
#[must_use]
pub fn end_to_end(setup_s: f64, window: &Window) -> Vec<Metric> {
    let prefix = &window.prefix;
    let ops = (window.ops as f64).max(1.0);
    vec![
        metric("setup_s", setup_s),
        metric("ops_per_s", ops / (window.wall_ns as f64 / 1e9).max(1e-9)),
        timing("read_p50_us", &window.read_ns, 50.0, 1e3),
        timing("read_p99_us", &window.read_ns, 99.0, 1e3),
        timing("write_p50_us", &window.write_ns, 50.0, 1e3),
        timing("write_p99_us", &window.write_ns, 99.0, 1e3),
        metric("cpu_ms_per_kop", window.cpu_ms * 1e3 / ops),
        metric("peak_rss_mib", peak_rss_mib()),
        metric(
            "stored_bytes_per_user_byte",
            (prefix.gauge("kv.live_bytes") + prefix.gauge("wal.bytes")) as f64
                / (prefix.gauge("user_bytes") as f64).max(1.0),
        ),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics: counts from the untraced window's counted
/// prefix, `_total` times from the traced window's, timings from the
/// traced window's spans and the after-window passes. A metric whose layer
/// path the workload never takes reads 0.
#[must_use]
pub fn per_layer(untraced: &Window, traced: &Window, tracer: &Tracer) -> Vec<Metric> {
    let counts = &untraced.prefix;
    let totals = &traced.prefix.maintenance;
    let log = &tracer.log;
    let ms = |ns: u64| ns as f64 / 1e6;
    let span_p50 =
        |name: &str, span: &str, scale: f64| timing(name, &log.durations_of(span), 50.0, scale);
    let self_p50 =
        |name: &str, span: &str, scale: f64| timing(name, &log.self_times_of(span), 50.0, scale);
    let sample_p50 =
        |name: &str, key: &str, scale: f64| timing(name, tracer.samples_of(key), 50.0, scale);
    // Summed nanoseconds over the KiB they covered.
    let per_kib = |name: &str, ns: &str, bytes: &str| {
        metric(name, ratio(tracer.sum(ns), tracer.sum(bytes) / 1024.0))
    };
    // Operations in the counted prefix (`counted_ops` rounded up to a call).
    let ops = counts.delta("ops") as f64;
    let frames = tracer.sum("rpc.frames");
    let overhead = tracer.samples_of("server.batch_overhead_permille");
    let mut maint_steps = traced.maintenance_step_ns.clone();
    maint_steps.sort_unstable();
    let maint_percentile = supported_percentile(maint_steps.len(), 99.0);
    let ops_per_s = |w: &Window| ratio(w.ops as f64, w.wall_ns as f64 / 1e9);
    vec![
        self_p50("client.query_self_us_p50", names::REPLAY_QUERY, 1e3),
        sample_p50("client.batch_self_us_p50", "client.batch_self", 1e3),
        self_p50("client.write_fanout_self_us_p50", names::REPLAY_WRITE, 1e3),
        metric(
            "client.attempts_per_op",
            ratio(counts.delta("client.attempts") as f64, ops),
        ),
        metric("client.retries", counts.delta("client.retries") as f64),
        span_p50("ring.node_for_ns_p50", names::RING, 1.0),
        span_p50("rpc.req_encode_ns_p50", names::REQ_ENCODE, 1.0),
        span_p50("rpc.req_decode_ns_p50", names::REQ_DECODE, 1.0),
        span_p50("rpc.resp_encode_ns_p50", names::RESP_ENCODE, 1.0),
        span_p50("rpc.resp_decode_ns_p50", names::RESP_DECODE, 1.0),
        metric(
            "rpc.req_bytes_mean",
            ratio(tracer.sum("rpc.req_bytes"), frames),
        ),
        metric(
            "rpc.resp_bytes_mean",
            ratio(tracer.sum("rpc.resp_bytes"), frames),
        ),
        self_p50("rpc.endpoint_self_us_p50", names::ENDPOINT, 1e3),
        self_p50("server.pipeline_self_us_p50", names::QUERY_CTX, 1e3),
        span_p50("server.batch_call_us_p50", names::BATCH_CTX, 1e3),
        Metric {
            samples: Some(overhead.len()),
            percentile: Some(50.0),
            ..metric(
                "server.batch_overhead_ratio",
                summarize(overhead, 50.0).p50 as f64 / 1e3,
            )
        },
        span_p50("server.write_ctx_us_p50", names::WRITE_CTX, 1e3),
        metric(
            "server.shed_deadline",
            counts.delta("server.shed_deadline") as f64,
        ),
        metric(
            "server.overloaded",
            counts.delta("server.overloaded") as f64,
        ),
        metric(
            "server.quota_rejects",
            counts.delta("server.quota_rejects") as f64,
        ),
        metric(
            "cache.hit_ratio",
            ratio(
                counts.delta("reads.hits") as f64,
                counts.delta("reads.subqueries") as f64,
            ),
        ),
        span_p50("cache.read_hit_ns_p50", names::READ_HIT, 1.0),
        span_p50("cache.miss_load_us_p50", names::CACHE_MISS, 1e3),
        metric(
            "cache.store_loads",
            counts.delta("cache.store_loads") as f64,
        ),
        metric(
            "cache.coalesced_loads",
            counts.delta("cache.coalesced_loads") as f64,
        ),
        metric("cache.evictions", counts.delta("cache.evictions") as f64),
        metric("cache.swap_cycle_ms_total", ms(totals.swap_ns)),
        span_p50("cache.write_ns_p50", names::CACHE_WRITE, 1.0),
        metric("cache.flush_ms_total", ms(totals.flush_ns)),
        metric(
            "cache.flushed_profiles",
            counts.delta("cache.flushed_profiles") as f64,
        ),
        metric("cache.dirty_backlog_max", counts.dirty_backlog_max as f64),
        metric(
            "cache.resident_bytes",
            counts.gauge("cache.resident_bytes") as f64,
        ),
        span_p50("query.execute_us_p50", names::EXECUTE, 1e3),
        timing(
            "query.execute_us_p99",
            &log.durations_of(names::EXECUTE),
            99.0,
            1e3,
        ),
        sample_p50("query.topk_us_p50", "query.topk", 1e3),
        sample_p50("query.filter_us_p50", "query.filter", 1e3),
        sample_p50("query.decay_us_p50", "query.decay", 1e3),
        sample_p50("persist.load_us_p50", "persist.load", 1e3),
        sample_p50("persist.load_slices_us_p50", "persist.load_slices", 1e3),
        metric(
            "persist.kv_round_trips_per_load",
            ratio(
                tracer.sum("persist.round_trips"),
                tracer.sum("persist.loads"),
            ),
        ),
        metric(
            "persist.bytes_read_per_load",
            ratio(
                tracer.sum("persist.bytes_read"),
                tracer.sum("persist.loads"),
            ),
        ),
        per_kib(
            "persist.decode_profile_ns_per_kib",
            "persist.decode_profile_ns",
            "persist.decoded_frame_bytes",
        ),
        sample_p50("persist.save_us_p50", "persist.save", 1e3),
        per_kib(
            "persist.encode_profile_ns_per_kib",
            "persist.encode_profile_ns",
            "persist.encoded_frame_bytes",
        ),
        metric(
            "persist.bytes_written",
            counts.delta("persist.bytes_written") as f64,
        ),
        metric(
            "persist.stale_retries",
            counts.delta("persist.stale_retries") as f64,
        ),
        per_kib(
            "codec.compress_ns_per_kib",
            "codec.compress_ns",
            "codec.payload_bytes",
        ),
        per_kib(
            "codec.decompress_ns_per_kib",
            "codec.decompress_ns",
            "codec.payload_bytes",
        ),
        metric(
            "codec.compress_ratio",
            ratio(
                tracer.sum("codec.payload_bytes"),
                tracer.sum("codec.compressed_bytes"),
            ),
        ),
        per_kib(
            "codec.frame_encode_ns_per_kib",
            "codec.frame_encode_ns",
            "codec.payload_bytes",
        ),
        per_kib(
            "codec.frame_decode_ns_per_kib",
            "codec.frame_decode_ns",
            "codec.payload_bytes",
        ),
        metric(
            "codec.pool_hit_ratio",
            ratio(
                counts.delta("codec.pool_reuses") as f64,
                (counts.delta("codec.pool_reuses") + counts.delta("codec.pool_allocs")) as f64,
            ),
        ),
        metric("isolation.merge_ms_total", ms(totals.merge_ns)),
        metric(
            "isolation.merged_writes",
            counts.delta("isolation.merged_writes") as f64,
        ),
        metric("compact.runs", counts.delta("compact.runs") as f64),
        metric("compact.run_ms_total", ms(totals.compact_ns)),
        metric("compact.pending_max", counts.compact_pending_max as f64),
        sample_p50("kv.get_ns_p50", "kv.get", 1.0),
        sample_p50("kv.set_ns_p50", "kv.set", 1.0),
        metric("kv.ops", counts.delta("kv.ops") as f64),
        metric("kv.live_bytes", counts.gauge("kv.live_bytes") as f64),
        metric("kv.repl_pump_ms_total", ms(totals.pump_ns)),
        metric("kv.repl_backlog_max", counts.repl_backlog_max as f64),
        metric(
            "kv.repl_stale_rejected",
            counts.delta("kv.repl_stale_rejected") as f64,
        ),
        sample_p50("wal.append_ns_p50", "wal.append", 1.0),
        metric(
            "wal.bytes_per_user_byte",
            ratio(
                counts.gauge("wal.bytes") as f64,
                counts.gauge("user_bytes") as f64,
            ),
        ),
        metric("wal.rotations", counts.delta("wal.rotations") as f64),
        metric("wal.checkpoints", counts.delta("wal.checkpoints") as f64),
        metric("wal.checkpoint_ms_total", ms(totals.checkpoint_ns)),
        metric("wal.recover_ms", tracer.sum("wal.recover_ms")),
        metric("wal.recovered_records", tracer.sum("wal.recovered_records")),
        metric(
            "maint.share_of_wall",
            ratio(
                traced.maintenance_step_ns.iter().sum::<u64>() as f64,
                traced.wall_ns as f64,
            ),
        ),
        Metric {
            samples: Some(maint_steps.len()),
            percentile: Some(maint_percentile),
            ..metric(
                "maint.step_ms_p99",
                ms(percentile(&maint_steps, maint_percentile)),
            )
        },
        metric(
            "process.allocs_per_op",
            ratio(counts.delta("process.allocs") as f64, ops),
        ),
        metric(
            "process.alloc_bytes_per_op",
            ratio(counts.delta("process.alloc_bytes") as f64, ops),
        ),
        metric(
            "trace.overhead_ratio",
            ratio(ops_per_s(traced), ops_per_s(untraced)),
        ),
    ]
}

/// `{name: {value, unit[, samples, percentile]}}`.
#[must_use]
pub fn metrics_json(metrics: &[Metric], full: bool) -> Value {
    let mut out = Value::obj();
    for m in metrics {
        let mut entry = Value::obj().with("value", m.value).with("unit", m.def.unit);
        if full {
            if let Some(samples) = m.samples {
                entry.set("samples", samples);
            }
            if let Some(p) = m.percentile {
                entry.set("percentile", p);
            }
            entry.set(
                "better",
                match m.def.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                },
            );
            match m.def.kind {
                Kind::Measured => entry.set("kind", "measured"),
                Kind::Count => entry.set("kind", "count"),
                Kind::Tally(tolerance) => {
                    entry.set("kind", "tally");
                    entry.set("tolerance", tolerance);
                }
            }
        }
        out.set(m.def.name, entry);
    }
    out
}

/// Print metrics as an aligned table.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let detail = match (m.samples, m.percentile) {
            (Some(n), Some(p)) => format!("  (p{p} of {n} samples)"),
            _ => String::new(),
        };
        println!(
            "  {:<38} {:>16.4} {:<8}{detail}",
            m.def.name, m.value, m.def.unit
        );
    }
}
