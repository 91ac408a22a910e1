//! `ips-benchmark`: the one wall-clock, layer-attributed benchmark of the
//! serving stack. See `README.md` for the workloads, the metrics and what
//! each is expected to move, and the root `BENCHMARK.json` for the bounds.
//!
//! ```text
//! ips-benchmark run [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
//!                   [--smoke] [--repeat N] [--out FILE]
//! ips-benchmark check A.json B.json [--bench BENCHMARK.json]
//! ```
//!
//! Nothing is modeled: every duration is `std::time::Instant` wall time
//! taken in this crate's own code, around calls into the layers' public
//! functions. The crate changes no other file of the workspace.

mod alloc;
mod check;
mod deploy;
mod driver;
mod json;
mod layers;
mod oracle;
mod report;
mod run;
mod spans;
mod stats;
#[cfg(test)]
mod tests;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Value;
use run::{run_workload, RunOptions, WorkloadResult};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Measuring time per run; `BENCHMARK.json`'s `run_seconds` must agree.
const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 0.2;

const USAGE: &str = "usage:
  ips-benchmark run [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
                    [--smoke] [--repeat N] [--out FILE]
  ips-benchmark check A.json B.json [--bench BENCHMARK.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("check") => check_command(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// Flags of `run`, parsed.
struct RunArgs {
    workload: Option<String>,
    opts: RunOptions,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        opts: RunOptions {
            seed: 1,
            seconds: 0.0,
            smoke: false,
            traced: false,
        },
        repeat: 1,
        out: None,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value\n{USAGE}", args[*i - 1]))
    };
    let number = |flag: &str, text: &str| -> Result<f64, String> {
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite() && *n >= 0.0)
            .ok_or_else(|| format!("{flag}: not a non-negative number: {text}"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => parsed.workload = Some(value(&mut i)?.clone()),
            "--seed" => {
                let text = value(&mut i)?;
                parsed.opts.seed = text
                    .parse::<u64>()
                    .map_err(|_| format!("--seed: not a whole number: {text}"))?;
            }
            "--seconds" => parsed.opts.seconds = number("--seconds", value(&mut i)?)?,
            "--repeat" => parsed.repeat = number("--repeat", value(&mut i)?)? as usize,
            "--out" => parsed.out = Some(PathBuf::from(value(&mut i)?)),
            "--smoke" => parsed.opts.smoke = true,
            "--trace" => {
                // Bare `--trace`, or `--trace 0|1` as the bench driver
                // passes it.
                parsed.opts.traced = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
        i += 1;
    }
    if parsed.opts.seconds == 0.0 {
        parsed.opts.seconds = if parsed.opts.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        };
    }
    Ok(parsed)
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let parsed = parse_run_args(args)?;
    let names: Vec<&str> = match &parsed.workload {
        Some(name) => vec![name.as_str()],
        None => workload::WORKLOAD_NAMES.to_vec(),
    };
    let specs = names
        .iter()
        .map(|name| {
            workload::spec(name, parsed.opts.smoke).ok_or_else(|| {
                format!(
                    "unknown workload {name}; one of {}",
                    workload::WORKLOAD_NAMES.join(", ")
                )
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let root = deploy::output_root();
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let out = parsed
        .out
        .clone()
        .unwrap_or_else(|| root.join("result.json"));

    // One run per process: peak RSS, allocator state and thread-local pools
    // are a process's, so several runs each get a child of their own.
    let mut runs = Vec::new();
    let mut contract_line = None;
    if let ([spec], 0..=1) = (specs.as_slice(), parsed.repeat) {
        let result = run_workload(spec, &parsed.opts)?;
        print_result(&result);
        if let Some(trace) = &result.chrome_trace {
            let path = root.join(format!("trace-{}.json", spec.name));
            std::fs::write(&path, trace.render())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("  chrome trace: {}", path.display());
        }
        let metrics = if parsed.opts.traced {
            &result.per_layer
        } else {
            &result.end_to_end
        };
        contract_line = Some(
            Value::obj()
                .with("correct", result.correct())
                .with("attempted", result.attempted)
                .with("failed", result.failed)
                .with("metrics", report::metrics_json(metrics, false))
                .render(),
        );
        runs.push(result.to_json());
    } else {
        for _ in 0..parsed.repeat.max(1) {
            for spec in &specs {
                runs.push(run_in_child(spec.name, &parsed.opts, &root)?);
            }
        }
    }
    let all_correct = runs
        .iter()
        .all(|r| r.get("failed").and_then(Value::as_f64) == Some(0.0));
    let file = Value::obj()
        .with("schema", "ips-benchmark/1")
        .with("modeled", "none")
        .with("environment", run::environment())
        .with("runs", runs);
    std::fs::write(&out, file.render_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("result file: {}", out.display());
    // The bench driver's contract: the last line of standard output of a
    // single run is the result object.
    if let Some(line) = contract_line {
        println!("{line}");
    }
    Ok(all_correct)
}

/// Run one workload in a child process of this executable and return its
/// result-file entry.
fn run_in_child(
    workload: &str,
    opts: &RunOptions,
    root: &std::path::Path,
) -> Result<Value, String> {
    let out = root.join(format!("result-{}-child.json", std::process::id()));
    let mut command = std::process::Command::new(
        std::env::current_exe().map_err(|e| format!("current executable: {e}"))?,
    );
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&out);
    if opts.smoke {
        command.arg("--smoke");
    }
    let status = command
        .status()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    // 0 = passed, 1 = ran but the oracle or an operation failed; both leave
    // a result file.
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("{workload}: child run ended with {status}"));
    }
    let text = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let _ = std::fs::remove_file(&out);
    json::parse(&text)?
        .get("runs")
        .and_then(|runs| runs.as_arr().first().cloned())
        .ok_or_else(|| format!("{workload}: child wrote no run"))
}

fn print_result(result: &WorkloadResult) {
    println!(
        "== {} (seed {}) ==",
        result.spec.name,
        result
            .meta
            .get("seed")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    );
    report::print_table("end-to-end", &result.end_to_end);
    println!(
        "  {:<38} {:>16.6} {:<8}  ({} failed of {} attempted)",
        "failed_ops_ratio",
        result.failed_ops_ratio(),
        "ratio",
        result.failed,
        result.attempted
    );
    if !result.per_layer.is_empty() {
        report::print_table("per-layer", &result.per_layer);
    }
    let meta = |key: &str| result.meta.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    println!(
        "  population {:.1} MiB in memory vs cache budget {:.1} MiB (home region, {:.1} MiB per instance); {} operations, {} counted",
        meta("population_bytes_in_memory") / (1 << 20) as f64,
        meta("cache_budget_bytes_home_region") / (1 << 20) as f64,
        meta("cache_budget_bytes_per_instance") / (1 << 20) as f64,
        meta("operations"),
        meta("counted_operations"),
    );
    for line in &result.oracle_log {
        println!("  ORACLE: {line}");
    }
}

fn check_command(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--bench" {
            i += 1;
            bench = PathBuf::from(args.get(i).ok_or("--bench needs a value")?);
        } else {
            files.push(PathBuf::from(&args[i]));
        }
        i += 1;
    }
    let [a, b] = files.as_slice() else {
        return Err(USAGE.to_string());
    };
    let load = |path: &PathBuf| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let comparison = check::compare(&load(a)?, &load(b)?, &load(&bench)?);
    check::print(&comparison);
    Ok(comparison.passed())
}
