//! `ips-benchmark check A.json B.json`: compare two result files.
//!
//! Each file holds one or more runs per workload (`run --repeat N`). For
//! every workload and every end-to-end metric the medians are compared
//! against the metric's bound in `BENCHMARK.json`; a metric whose own
//! run-to-run spread (interquartile distance over the median, in either
//! file) exceeds the bound is reported as *unresolved*, never as
//! unchanged, and so is one whose runs did not measure the same thing
//! (different `--seconds` or `--trace`, or a tail slot that fell back to
//! different percentiles). `failed_ops_ratio`, the tenth end-to-end metric,
//! has no bound: B regresses if any of its runs failed more than A's worst.
//! Every count-type metric — made over the counted prefix, so a
//! pure function of the seed — must be identical across all runs that
//! share a seed and operation stream; tally-type metrics (counts the
//! program's per-process hash seeds perturb) must agree within the
//! `tolerance` the result file carries for each.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::stats::{median_f64, spread};

/// Runs a file needs per workload before its spread means anything.
const MIN_RUNS_FOR_SPREAD: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    Unresolved,
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub median_a: f64,
    pub median_b: f64,
    /// Signed share by which B is worse than A (negative = better).
    pub worse_by: f64,
    pub bound: f64,
    /// The larger of the two files' spreads, when either has enough runs.
    pub spread: Option<f64>,
    pub verdict: Verdict,
    /// Why the row is unresolved, when it is.
    pub why: &'static str,
}

#[derive(Debug, Default)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Count-type metrics that differ between runs of one seed.
    pub count_mismatches: Vec<String>,
    pub counts_compared: usize,
}

impl Comparison {
    #[must_use]
    pub fn passed(&self) -> bool {
        self.count_mismatches.is_empty()
            && self
                .rows
                .iter()
                .all(|r| matches!(r.verdict, Verdict::Ok | Verdict::Improved))
    }
}

/// Judge one metric: `better_lower` says which direction is worse.
#[must_use]
pub fn judge(a: &[f64], b: &[f64], bound: f64, better_lower: bool) -> (f64, Option<f64>, Verdict) {
    let (ma, mb) = (median_f64(a), median_f64(b));
    let worse_by = if ma == 0.0 {
        0.0
    } else if better_lower {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    let own = |v: &[f64]| {
        (v.len() >= MIN_RUNS_FOR_SPREAD)
            .then(|| spread(v))
            .flatten()
    };
    let spread = match (own(a), own(b)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    let verdict = if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

fn runs_by_workload(file: &Value) -> BTreeMap<String, Vec<&Value>> {
    let mut out: BTreeMap<String, Vec<&Value>> = BTreeMap::new();
    for run in file.get("runs").map_or(&[][..], Value::as_arr) {
        if let Some(name) = run.get("workload").and_then(Value::as_str) {
            out.entry(name.to_string()).or_default().push(run);
        }
    }
    out
}

fn values(runs: &[&Value], section: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get(section)?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Whether `field` reads differently among `runs` (absent counts as a value).
fn differs<'a>(
    mut runs: impl Iterator<Item = &'a &'a Value>,
    field: impl Fn(&'a Value) -> Option<&'a Value>,
) -> bool {
    let first = runs.next().map(|r| field(r));
    runs.any(|r| Some(field(r)) != first)
}

/// Compare result files `a` (the parent, or the first set of runs) and `b`
/// under the bounds in `bench` (the parsed `BENCHMARK.json`).
#[must_use]
pub fn compare(a: &Value, b: &Value, bench: &Value) -> Comparison {
    let mut out = Comparison::default();
    let runs_a = runs_by_workload(a);
    let runs_b = runs_by_workload(b);
    for (workload, in_a) in &runs_a {
        let Some(in_b) = runs_b.get(workload) else {
            continue;
        };
        let both = || in_a.iter().chain(in_b);
        let time_differs = ["seconds", "traced"]
            .iter()
            .any(|key| differs(both(), |r| r.get("meta")?.get(key)));
        for def in bench.get("end_to_end").map_or(&[][..], Value::as_arr) {
            let (Some(metric), Some(bound)) = (
                def.get("name").and_then(Value::as_str),
                def.get("bound").and_then(Value::as_f64),
            ) else {
                continue;
            };
            let better_lower = def.get("better").and_then(Value::as_str) != Some("higher");
            let va = values(in_a, "end_to_end", metric);
            let vb = values(in_b, "end_to_end", metric);
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worse_by, spread, mut verdict) = judge(&va, &vb, bound, better_lower);
            let mut why = "spread exceeds bound";
            if time_differs {
                (verdict, why) = (Verdict::Unresolved, "measuring times differ");
            } else if differs(both(), |r| {
                r.get("end_to_end")?.get(metric)?.get("percentile")
            }) {
                (verdict, why) = (Verdict::Unresolved, "percentiles differ");
            }
            out.rows.push(Row {
                workload: workload.clone(),
                metric: metric.to_string(),
                median_a: median_f64(&va),
                median_b: median_f64(&vb),
                worse_by,
                bound,
                spread,
                verdict,
                why,
            });
        }
        // The tenth end-to-end metric is expected to be 0 and has no bound.
        let worst = |runs: &[&Value]| {
            runs.iter()
                .filter_map(|r| r.get("failed_ops_ratio")?.as_f64())
                .fold(0.0, f64::max)
        };
        let (failed_a, failed_b) = (worst(in_a), worst(in_b));
        out.rows.push(Row {
            workload: workload.clone(),
            metric: "failed_ops_ratio (worst run)".to_string(),
            median_a: failed_a,
            median_b: failed_b,
            worse_by: failed_b - failed_a,
            bound: 0.0,
            spread: None,
            verdict: if failed_b > failed_a {
                Verdict::Regressed
            } else {
                Verdict::Ok
            },
            why: "",
        });
        // Count identity across every run, of either file, that saw the
        // same operation stream.
        let mut by_stream: BTreeMap<String, Vec<&Value>> = BTreeMap::new();
        for run in in_a.iter().chain(in_b) {
            let meta = run.get("meta");
            let key = format!(
                "{}/{}/{}",
                meta.and_then(|m| m.get("seed"))
                    .and_then(Value::as_f64)
                    .unwrap_or(-1.0),
                meta.and_then(|m| m.get("counted_operations"))
                    .and_then(Value::as_f64)
                    .unwrap_or(-1.0),
                meta.and_then(|m| m.get("op_stream_hash"))
                    .and_then(Value::as_str)
                    .unwrap_or("?"),
            );
            by_stream.entry(key).or_default().push(run);
        }
        for (stream, runs) in by_stream {
            for section in ["end_to_end", "per_layer"] {
                let Some(first) = runs.iter().find_map(|r| r.get(section)) else {
                    continue;
                };
                for (metric, entry) in first.fields() {
                    let kind = entry.get("kind").and_then(Value::as_str);
                    let seen = values(&runs, section, metric);
                    if seen.len() < 2 || !matches!(kind, Some("count" | "tally")) {
                        continue;
                    }
                    out.counts_compared += 1;
                    let (lo, hi) = seen
                        .iter()
                        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                    // A count has no tolerance: its values must be identical.
                    let tolerance = entry.get("tolerance").and_then(Value::as_f64);
                    let agree = hi - lo <= tolerance.unwrap_or(0.0) * hi.abs().max(lo.abs());
                    if !agree {
                        out.count_mismatches.push(format!(
                            "{workload} {metric} [{}] (seed/ops/hash {stream}): {seen:?}",
                            kind.unwrap_or("?")
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Print the comparison, one row per workload and metric.
pub fn print(c: &Comparison) {
    println!(
        "{:<15} {:<28} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound", "spread"
    );
    for r in &c.rows {
        println!(
            "{:<15} {:<28} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}% {:>8}  {}{}",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.spread
                .map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0)),
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Improved => "improved",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "UNRESOLVED: ",
            },
            if r.verdict == Verdict::Unresolved {
                r.why
            } else {
                ""
            }
        );
    }
    println!(
        "count- and tally-type metrics compared across equal seeds: {}, disagreeing: {}",
        c.counts_compared,
        c.count_mismatches.len()
    );
    for m in &c.count_mismatches {
        println!("  COUNT MISMATCH {m}");
    }
}
