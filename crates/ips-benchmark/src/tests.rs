//! Crate tests: they ride the workspace's `cargo test -q`.

use crate::check::{compare, judge, Verdict};
use crate::json::{self, Value};
use crate::report::{Better, END_TO_END, PER_LAYER};
use crate::run::{run_workload, RunOptions};
use crate::spans::{self_times_ns, Span};
use crate::stats::{quartiles, spread, summarize, supported_percentile};
use crate::workload::{spec, OpStream, WORKLOAD_NAMES};

fn smoke_options(traced: bool) -> RunOptions {
    RunOptions {
        seed: 7,
        seconds: 0.05,
        smoke: true,
        traced,
    }
}

#[test]
fn smoke_run_of_every_workload_passes_the_oracle() {
    for name in WORKLOAD_NAMES {
        let spec = spec(name, true).unwrap();
        let result = run_workload(&spec, &smoke_options(true)).unwrap();
        assert!(
            result.correct(),
            "{name}: {} failed of {}: {:?}",
            result.failed,
            result.attempted,
            result.oracle_log
        );
        assert_eq!(result.end_to_end.len(), END_TO_END.len());
        assert_eq!(result.per_layer.len(), PER_LAYER.len());
        for m in &result.end_to_end {
            // A smoke window can be shorter than the 10 ms CPU tick.
            let floor = if m.def.name == "cpu_ms_per_kop" {
                -1.0
            } else {
                0.0
            };
            assert!(m.value > floor, "{name}: {} is {}", m.def.name, m.value);
        }
        let layer = |metric: &str| {
            result
                .per_layer
                .iter()
                .find(|m| m.def.name == metric)
                .unwrap()
                .value
        };
        match name {
            "serve_hot" => assert!(layer("cache.hit_ratio") >= 0.99),
            "serve_cold" => assert!(layer("cache.hit_ratio") <= 0.75),
            "ingest_durable" => assert!(layer("cache.flushed_profiles") > 0.0),
            _ => assert!(layer("server.batch_call_us_p50") > 0.0),
        }
        // The chrome trace must load as JSON and hold complete events.
        let trace = result.chrome_trace.as_ref().unwrap().render();
        let parsed = json::parse(&trace).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr();
        assert!(!events.is_empty());
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("X"));
    }
}

#[test]
fn op_stream_is_a_function_of_the_seed() {
    for name in WORKLOAD_NAMES {
        let spec = spec(name, true).unwrap();
        let hash = |seed| {
            let mut stream = OpStream::new(&spec, seed);
            for _ in 0..500 {
                stream.next_op();
            }
            stream.hash()
        };
        assert_eq!(hash(1), hash(1), "{name}");
        assert_ne!(hash(1), hash(2), "{name}");
    }
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    // n * (1 - p) >= 10 picks the rung.
    assert_eq!(supported_percentile(1_000, 99.0), 99.0);
    assert_eq!(supported_percentile(999, 99.0), 95.0);
    assert_eq!(supported_percentile(200, 99.0), 95.0);
    assert_eq!(supported_percentile(199, 99.0), 90.0);
    assert_eq!(
        supported_percentile(100_000, 99.0),
        99.0,
        "capped at the slot"
    );
    assert_eq!(supported_percentile(100_000, 99.99), 99.99);
    assert_eq!(supported_percentile(12, 99.0), 50.0, "nothing supported");
    // 1..=1000: the p99 is the 990th value, ten lie beyond it.
    let samples: Vec<u64> = (1..=1_000).rev().collect();
    let s = summarize(&samples, 99.0);
    assert_eq!(
        (s.samples, s.p50, s.tail_percentile, s.tail),
        (1_000, 500, 99.0, 990)
    );
    // 100 samples cannot carry a p99: the slot reports the p90 and says so.
    let s = summarize(&(1..=100).collect::<Vec<u64>>(), 99.0);
    assert_eq!((s.tail_percentile, s.tail), (90.0, 90));
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some((2.75, 8.25)));
    assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let span = |name, start_ns, end_ns, parent| Span {
        name,
        start_ns,
        end_ns,
        parent,
        op: 0,
    };
    // client(100) → endpoint(70) → {encode(10), server(40) → cache(25)};
    // the children are separate executions, so they need not nest in time.
    let spans = [
        span("client", 0, 100, None),
        span("endpoint", 200, 270, Some(0)),
        span("encode", 300, 310, Some(1)),
        span("server", 400, 440, Some(1)),
        span("cache", 500, 525, Some(3)),
        span("overrun", 600, 700, Some(4)), // child longer than its parent
    ];
    assert_eq!(self_times_ns(&spans), [30, 20, 10, 15, 0, 100]);
}

#[test]
fn json_round_trips() {
    let value = Value::obj()
        .with("name", "a \"quoted\"\nline")
        .with("count", 20_000u64)
        .with("ratio", 0.125)
        .with("ok", true)
        .with("list", vec![Value::from(1u64), Value::Null]);
    for text in [value.render(), value.render_pretty()] {
        assert_eq!(json::parse(&text).unwrap(), value);
    }
    assert!(
        value.render().contains("\"count\": 20000,"),
        "counts print whole"
    );
    assert!(json::parse("{\"a\": 1} x").is_err());
}

/// The runs of one workload in a result file, as far as `check` reads them.
#[derive(Clone, Copy)]
struct Runs<'a> {
    seed: u64,
    ops_per_s: &'a [f64],
    loads: &'a [f64],
    seconds: f64,
    percentile: f64,
    failed_ops_ratio: f64,
}

const STEADY: Runs = Runs {
    seed: 1,
    ops_per_s: &[100.0, 101.0, 99.0, 100.0],
    loads: &[5.0; 4],
    seconds: 10.0,
    percentile: 99.0,
    failed_ops_ratio: 0.0,
};

impl Runs<'_> {
    fn file(&self) -> Value {
        let runs = self
            .ops_per_s
            .iter()
            .zip(self.loads)
            .map(|(&rate, &loads)| {
                Value::obj()
                    .with("workload", "serve_hot")
                    .with(
                        "meta",
                        Value::obj()
                            .with("seed", self.seed)
                            .with("seconds", self.seconds)
                            .with("traced", false)
                            .with("counted_operations", 100u64)
                            .with("op_stream_hash", "abc"),
                    )
                    .with("failed_ops_ratio", self.failed_ops_ratio)
                    .with(
                        "end_to_end",
                        Value::obj().with(
                            "ops_per_s",
                            Value::obj()
                                .with("value", rate)
                                .with("percentile", self.percentile)
                                .with("kind", "measured"),
                        ),
                    )
                    .with(
                        "per_layer",
                        Value::obj().with(
                            "cache.store_loads",
                            Value::obj().with("value", loads).with("kind", "count"),
                        ),
                    )
            })
            .collect::<Vec<_>>();
        Value::obj().with("runs", runs)
    }
}

#[test]
fn check_separates_regressed_unresolved_and_count_mismatch() {
    let bench = json::parse(
        r#"{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
    )
    .unwrap();
    let a = STEADY.file();
    let against_a = |b: Runs| compare(&a, &b.file(), &bench);

    // Two rows per workload: the bounded metric, then `failed_ops_ratio`.
    let same = against_a(STEADY);
    assert!(same.passed());
    assert_eq!(same.rows.len(), 2);
    assert_eq!(same.rows[0].verdict, Verdict::Ok);
    assert_eq!(same.counts_compared, 1);

    let slower = Runs {
        ops_per_s: &[80.0, 81.0, 79.0, 80.0],
        ..STEADY
    };
    let c = against_a(slower);
    assert_eq!(c.rows[0].verdict, Verdict::Regressed);
    assert!(!c.passed());
    assert_eq!(
        compare(&slower.file(), &a, &bench).rows[0].verdict,
        Verdict::Improved
    );

    // Same medians, but one side's own spread exceeds the bound.
    let noisy = Runs {
        ops_per_s: &[70.0, 130.0, 100.0, 100.0],
        ..STEADY
    };
    assert_eq!(against_a(noisy).rows[0].verdict, Verdict::Unresolved);

    // Faster, but measured over another time or on a lower percentile: the
    // two files did not measure the same thing.
    let faster = Runs {
        ops_per_s: &[150.0; 4],
        ..STEADY
    };
    assert_eq!(against_a(faster).rows[0].verdict, Verdict::Improved);
    for unlike in [
        Runs {
            seconds: 5.0,
            ..faster
        },
        Runs {
            percentile: 95.0,
            ..faster
        },
    ] {
        let c = against_a(unlike);
        assert_eq!(c.rows[0].verdict, Verdict::Unresolved);
        assert!(!c.passed());
    }

    // A win that fails operations the parent did not fail is no win.
    let failing = Runs {
        failed_ops_ratio: 0.001,
        ..faster
    };
    let c = against_a(failing);
    assert_eq!(c.rows[0].verdict, Verdict::Improved);
    assert_eq!(c.rows[1].verdict, Verdict::Regressed);
    assert!(!c.passed());
    assert!(compare(&failing.file(), &failing.file(), &bench).passed());

    // A count differing under an equal seed fails; under another seed it
    // is simply another stream.
    let drifted = Runs {
        loads: &[5.0, 5.0, 6.0, 5.0],
        ..STEADY
    };
    let c = against_a(drifted);
    assert_eq!(c.count_mismatches.len(), 1);
    assert!(!c.passed());
    let other_seed = Runs {
        seed: 2,
        loads: &[6.0; 4],
        ..STEADY
    };
    assert!(against_a(other_seed).passed());

    // `judge` direction: lower-is-better metrics worsen upwards.
    assert_eq!(judge(&[10.0], &[12.0], 0.1, true).2, Verdict::Regressed);
    assert_eq!(judge(&[10.0], &[12.0], 0.1, false).2, Verdict::Improved);
}

/// `BENCHMARK.json` at the workspace root must name exactly the metrics
/// and workloads this crate reports, with the contract's limits.
#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let bench = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |section: &str| -> Vec<(String, String, String)> {
        bench
            .get(section)
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let expected = |defs: &[crate::report::MetricDef]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                let better = match d.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                (d.name.to_string(), d.unit.to_string(), better.to_string())
            })
            .collect()
    };
    assert_eq!(names("end_to_end"), expected(&END_TO_END));
    assert_eq!(names("per_layer"), expected(&PER_LAYER));
    for m in bench.get("end_to_end").unwrap().as_arr() {
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let workloads: Vec<&str> = bench
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOAD_NAMES);
    assert_eq!(
        bench.get("run_seconds").and_then(Value::as_f64),
        Some(crate::DEFAULT_SECONDS)
    );
}
