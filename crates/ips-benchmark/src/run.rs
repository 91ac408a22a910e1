//! One workload, start to finish: set-ups, the untraced window, optionally
//! the traced window and its layer passes, the oracle, and the result.

use crate::driver::{Session, Window};
use crate::json::Value;
use crate::layers::{miss_pass, storage_pass, write_pass, Tracer};
use crate::report::{end_to_end, metrics_json, per_layer, Metric};
use crate::stats::median_f64;
use crate::workload::{WorkloadSpec, BATCH_SIZE, CANARIES, PRELOAD_SPAN};

/// Spans written to the chrome-trace file at most.
const CHROME_TRACE_SPANS: usize = 50_000;

#[derive(Clone, Debug)]
pub struct RunOptions {
    pub seed: u64,
    /// Total measuring time; a traced run gives half to each window.
    pub seconds: f64,
    pub smoke: bool,
    pub traced: bool,
}

/// Set-ups timed before an untraced window: `setup_s` is their median, the
/// last one is the deployment measured.
const SETUPS: usize = 3;

pub struct WorkloadResult {
    pub spec: WorkloadSpec,
    pub end_to_end: Vec<Metric>,
    /// Empty unless traced.
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Mismatches the oracle found, described.
    pub oracle_log: Vec<String>,
    /// Chrome-trace document of the traced window, when traced.
    pub chrome_trace: Option<Value>,
    pub meta: Value,
}

impl WorkloadResult {
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    #[must_use]
    pub fn failed_ops_ratio(&self) -> f64 {
        self.failed as f64 / (self.attempted as f64).max(1.0)
    }

    /// The full result-file entry.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut out = Value::obj()
            .with("workload", self.spec.name)
            .with("meta", self.meta.clone())
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("failed_ops_ratio", self.failed_ops_ratio())
            .with("end_to_end", metrics_json(&self.end_to_end, true));
        if !self.per_layer.is_empty() {
            out.set("per_layer", metrics_json(&self.per_layer, true));
        }
        if !self.oracle_log.is_empty() {
            out.set(
                "oracle_log",
                self.oracle_log
                    .iter()
                    .map(|l| Value::from(l.as_str()))
                    .collect::<Vec<_>>(),
            );
        }
        out
    }
}

/// A finished window plus what its end-of-workload checks found.
struct Measured {
    window: Window,
    attempted: u64,
    failed: u64,
}

fn finish(
    session: &mut Session,
    window: Window,
    log: &mut Vec<String>,
) -> Result<Measured, String> {
    let (checks, mismatches) = session.verify(log).map_err(|e| e.to_string())?;
    Ok(Measured {
        attempted: session.attempted + checks,
        failed: session.failed + mismatches,
        window,
    })
}

/// Run one workload.
pub fn run_workload(spec: &WorkloadSpec, opts: &RunOptions) -> Result<WorkloadResult, String> {
    let window_seconds = if opts.traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut oracle_log = Vec::new();

    // Untraced: every end-to-end metric and every count comes from here.
    let mut setup_times = Vec::new();
    let mut session = None;
    // A smoke run is short by design, and a traced run reports no `setup_s`.
    let setups = if opts.smoke || opts.traced { 1 } else { SETUPS };
    for _ in 0..setups {
        drop(session.take()); // one deployment alive at a time
        let s = Session::setup(spec, opts.seed).map_err(|e| format!("set-up: {e}"))?;
        setup_times.push(s.setup_s);
        session = Some(s);
    }
    let mut session = session.ok_or("no set-up ran")?;
    let window = session
        .run_window(window_seconds, None)
        .map_err(|e| format!("window: {e}"))?;
    let untraced = finish(&mut session, window, &mut oracle_log)?;
    let population_bytes = session.population_bytes().map_err(|e| e.to_string())?;
    let cache_budget_bytes = session.dep.table_config.cache.memory_budget_bytes as u64;
    drop(session);
    let end_to_end = end_to_end(median_f64(&setup_times), &untraced.window);

    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let mut per_layer_metrics = Vec::new();
    let mut chrome_trace = None;
    let mut traced_ops = 0;
    if opts.traced {
        // Same seed, same inputs, a fresh identical deployment.
        let mut session = Session::setup(spec, opts.seed).map_err(|e| format!("set-up: {e}"))?;
        let mut tracer = Tracer::new(spec.replay_one_in);
        let window = session
            .run_window(window_seconds, Some(&mut tracer))
            .map_err(|e| format!("traced window: {e}"))?;
        write_pass(&mut session, &mut tracer).map_err(|e| format!("write pass: {e}"))?;
        session.dep.drain().map_err(|e| e.to_string())?;
        miss_pass(&session, &mut tracer).map_err(|e| format!("miss pass: {e}"))?;
        storage_pass(&session, &mut tracer).map_err(|e| format!("storage pass: {e}"))?;
        let traced = finish(&mut session, window, &mut oracle_log)?;
        attempted += traced.attempted;
        failed += traced.failed;
        traced_ops = traced.window.ops;
        per_layer_metrics = per_layer(&untraced.window, &traced.window, &tracer);
        chrome_trace = Some(tracer.log.chrome_trace(CHROME_TRACE_SPANS));
    }

    let prefix = &untraced.window.prefix;
    let mut overrides = vec![
        Value::from("network = NetworkModel::zero()"),
        Value::from("kv latency = KvLatencyModel::zero()"),
        Value::from("kv master: wal_path = <work dir>, wal_sync = false (shipped)"),
        Value::from("default_quota = { qps_limit: u64::MAX / 2, burst_factor: 1.0 }"),
        Value::from("no background threads: maintenance driven inline by operation count"),
    ];
    if let Some(budget) = spec.cache_budget_bytes {
        overrides.push(Value::from(format!(
            "table.cache.memory_budget_bytes = {budget}"
        )));
    }
    let meta = Value::obj()
        .with("why", spec.why)
        .with("seed", opts.seed)
        .with("seconds", opts.seconds)
        .with("smoke", opts.smoke)
        .with("traced", opts.traced)
        .with("setups", setup_times.len())
        .with(
            "setup_s_all",
            setup_times
                .iter()
                .map(|&s| Value::from(s))
                .collect::<Vec<_>>(),
        )
        .with("loop", "closed, 1 client thread")
        .with("operations", untraced.window.ops)
        .with("operations_traced_window", traced_ops)
        .with("counted_operations", prefix.delta("ops"))
        .with("op_stream_hash", format!("{:016x}", prefix.op_stream_hash))
        .with("read_calls", untraced.window.read_ns.len())
        .with("write_calls", untraced.window.write_ns.len())
        .with("measured_wall_s", untraced.window.wall_ns as f64 / 1e9)
        .with("users", spec.users)
        .with("canaries", CANARIES)
        .with("user_zipf", spec.user_zipf)
        .with("read_write_ratio", spec.read_write_ratio)
        .with("batch_size", if spec.batched { BATCH_SIZE } else { 1 })
        .with("preload_writes", spec.preload_events)
        .with(
            "preload_virtual_days",
            PRELOAD_SPAN.as_millis() / 86_400_000,
        )
        .with("warm_operations", spec.warm_ops)
        .with("maintenance_every_ops", spec.maintenance_every)
        .with("checkpoint_every_steps", spec.checkpoint_every)
        .with("virtual_ms_per_op", spec.virtual_step.as_millis())
        .with("population_bytes_in_memory", population_bytes)
        .with("cache_budget_bytes_per_instance", cache_budget_bytes)
        .with(
            "cache_budget_bytes_home_region",
            cache_budget_bytes * crate::deploy::INSTANCES_PER_REGION as u64,
        )
        .with("overrides", overrides);
    Ok(WorkloadResult {
        spec: spec.clone(),
        end_to_end,
        per_layer: per_layer_metrics,
        attempted,
        failed,
        oracle_log,
        chrome_trace,
        meta,
    })
}

/// Facts about the machine and build, recorded once per result file.
#[must_use]
pub fn environment() -> Value {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    Value::obj()
        .with("git_sha", command("git", &["rev-parse", "HEAD"]))
        .with("rustc", command("rustc", &["--version"]))
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with(
            "build",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
}
