//! Set-up, the measured window, and the end-of-workload checks.
//!
//! One client thread drives a closed loop: the next call is sent when the
//! previous one returns, because an IPS caller is a recommender thread
//! waiting on its reply. A call's latency is measured from the completion
//! of the previous call, so a maintenance stall is charged to the call that
//! waited behind it. The window is bounded by time; its first
//! `counted_ops` operations are the *counted prefix*, at whose end every
//! counter is snapshotted, so counts and `_total` times compare exactly
//! across runs however many operations the rest of the window fits.

use std::hint::black_box;
use std::time::Instant;

use ips_types::{CallerId, DurationMs, Result, TableConfig, Timestamp};

use crate::deploy::{Deployment, MaintenanceReport, TABLE};
use crate::layers::Tracer;
use crate::oracle::{normalize, Ledger};
use crate::workload::{
    canary_query, Op, OpStream, WorkloadSpec, WriteOp, CANARIES, PRELOAD_SPAN, SLOTS,
    USER_BYTES_PER_WRITE,
};

pub const CALLER: CallerId = CallerId(1);
/// Calls generated per untimed generation pause: about 30 ms of work, for
/// single queries and for 128-query batches.
const CHUNK_CALLS: usize = 512;
const CHUNK_CALLS_BATCHED: usize = 16;
/// Preload writes between maintenance steps.
const PRELOAD_MAINTENANCE_EVERY: u64 = 2_000;

/// A built, preloaded and warmed deployment with its operation stream.
pub struct Session {
    pub spec: WorkloadSpec,
    pub dep: Deployment,
    pub stream: OpStream,
    pub ledger: Ledger,
    /// Operations executed since set-up ended (the op-stream index).
    pub ops_done: u64,
    next_maintenance: u64,
    /// User payload bytes acknowledged since the deployment was built.
    pub user_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Read sub-queries answered, and how many of them from a resident
    /// profile (`QueryResult::cache_hit`).
    pub subqueries: u64,
    pub subquery_hits: u64,
    pub setup_s: f64,
}

/// Named monotonic counters read from the deployment.
pub type Counters = Vec<(&'static str, u64)>;

/// What the counted prefix of a window saw.
#[derive(Clone, Debug, Default)]
pub struct Prefix {
    /// Counter increases over the prefix.
    pub deltas: Counters,
    /// Point-in-time sizes at the end of the prefix.
    pub gauges: Counters,
    /// Summed maintenance-part durations over the prefix.
    pub maintenance: MaintenanceReport,
    /// Largest backlogs any maintenance step of the prefix started with.
    pub dirty_backlog_max: u64,
    pub compact_pending_max: u64,
    pub repl_backlog_max: u64,
    pub op_stream_hash: u64,
}

impl Prefix {
    #[must_use]
    pub fn delta(&self, name: &str) -> u64 {
        lookup(&self.deltas, name)
    }

    #[must_use]
    pub fn gauge(&self, name: &str) -> u64 {
        lookup(&self.gauges, name)
    }
}

fn lookup(list: &Counters, name: &str) -> u64 {
    list.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
}

/// One measured window.
#[derive(Default)]
pub struct Window {
    /// Per-call latencies in nanoseconds, in call order.
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    pub ops: u64,
    /// Measured wall time: the sum of all call latencies, maintenance
    /// included, generation pauses and replays excluded.
    pub wall_ns: u64,
    /// Process user+system CPU over the window, milliseconds.
    pub cpu_ms: f64,
    pub failed: u64,
    /// Whole maintenance steps, nanoseconds each.
    pub maintenance_step_ns: Vec<u64>,
    pub prefix: Prefix,
}

impl Session {
    /// Build the deployment, preload the population across 30 virtual days
    /// and run the warm-up operations.
    pub fn setup(spec: &WorkloadSpec, seed: u64) -> Result<Self> {
        let started = Instant::now();
        let table = TableConfig::new("bench");
        let start = Timestamp::from_millis(DurationMs::from_days(400).as_millis());
        let dep = Deployment::build(table.clone(), start)?;
        let mut session = Self {
            spec: spec.clone(),
            dep,
            stream: OpStream::new(spec, seed),
            ledger: Ledger::default(),
            ops_done: 0,
            next_maintenance: spec.maintenance_every,
            user_bytes: 0,
            attempted: 0,
            failed: 0,
            subqueries: 0,
            subquery_hits: 0,
            setup_s: 0.0,
        };
        session.preload(start)?;
        if let Some(budget) = spec.cache_budget_bytes {
            // The population was written through default-budget instances;
            // serve it from cold caches with the lowered budget.
            let mut cold = table;
            cold.cache.memory_budget_bytes = budget;
            session.dep.restart_instances(cold)?;
        }
        while session.ops_done < spec.warm_ops {
            let op = session.stream.next_op();
            session.maintain_if_due()?;
            session.execute(&op);
        }
        // The measured stream starts at operation 0 with clean tallies.
        session.ops_done = 0;
        session.next_maintenance = spec.maintenance_every;
        session.attempted = 0;
        session.subqueries = 0;
        session.subquery_hits = 0;
        if session.failed > 0 {
            return Err(ips_types::IpsError::InvalidRequest(format!(
                "{} warm-up operations failed",
                session.failed
            )));
        }
        session.setup_s = started.elapsed().as_secs_f64();
        Ok(session)
    }

    /// Write the population straight into the owning instances of both
    /// regions (what the client's fan-out would do, without a thread spawn
    /// per write), driving maintenance as virtual time passes so profiles
    /// are compacted the way thirty days of traffic would leave them.
    fn preload(&mut self, start: Timestamp) -> Result<()> {
        let events = self.spec.preload_events;
        for i in 0..events {
            let write = if i < self.spec.users {
                self.stream.preload_write_for(i + 1)
            } else {
                self.stream.preload_write()
            };
            let at = Timestamp::from_millis(
                start.as_millis()
                    + (u128::from(PRELOAD_SPAN.as_millis()) * u128::from(i) / u128::from(events))
                        as u64,
            );
            self.dep.ctl.set(at);
            for region in 0..self.dep.nodes.len() {
                self.dep
                    .owner(region, write.profile)
                    .instance
                    .add_profiles(
                        CALLER,
                        TABLE,
                        write.profile,
                        at,
                        write.slot,
                        write.action,
                        &[(write.feature, write.counts.clone())],
                    )?;
            }
            self.user_bytes += USER_BYTES_PER_WRITE;
            if (i + 1) % PRELOAD_MAINTENANCE_EVERY == 0 {
                self.dep.preload_step()?;
            }
        }
        self.dep.ctl.set(Timestamp::from_millis(
            start.as_millis() + PRELOAD_SPAN.as_millis(),
        ));
        self.dep.drain()?;
        self.dep.kv.master().checkpoint()?;
        Ok(())
    }

    fn maintain_if_due(&mut self) -> Result<Option<MaintenanceReport>> {
        if self.ops_done < self.next_maintenance {
            return Ok(None);
        }
        self.next_maintenance += self.spec.maintenance_every;
        self.dep
            .maintenance_step(self.spec.checkpoint_every)
            .map(Some)
    }

    fn apply_write(&mut self, write: &WriteOp) {
        let at = self.dep.clock.now();
        match self.dep.client.add_profiles(
            CALLER,
            TABLE,
            write.profile,
            at,
            write.slot,
            write.action,
            &[(write.feature, write.counts.clone())],
        ) {
            Ok(_) => {
                self.user_bytes += USER_BYTES_PER_WRITE;
                self.ledger.record(&self.spec, write);
            }
            Err(_) => self.failed += 1,
        }
    }

    /// Issue one call through the cluster client and account for it.
    pub fn execute(&mut self, op: &Op) {
        self.dep.ctl.advance(self.spec.virtual_step);
        self.attempted += op.weight();
        match op {
            Op::Read(query) => match self.dep.client.query(CALLER, query) {
                Ok((result, _)) => {
                    self.subqueries += 1;
                    self.subquery_hits += u64::from(result.cache_hit);
                    black_box(result);
                }
                Err(_) => self.failed += 1,
            },
            Op::ReadBatch(queries) => match self.dep.client.query_batch(CALLER, queries) {
                Ok(outcome) => {
                    for result in &outcome.results {
                        match result {
                            Ok(r) => {
                                self.subqueries += 1;
                                self.subquery_hits += u64::from(r.cache_hit);
                            }
                            Err(_) => self.failed += 1,
                        }
                    }
                    black_box(outcome);
                }
                Err(_) => self.failed += queries.len() as u64,
            },
            Op::Write(write) => self.apply_write(write),
        }
        self.ops_done += op.weight();
    }

    /// Run the closed loop for `seconds` (and at least the counted prefix).
    /// With a tracer, every call and maintenance step is recorded as a span
    /// and sampled reads are replayed layer by layer while the clock is
    /// paused.
    pub fn run_window(&mut self, seconds: f64, mut tracer: Option<&mut Tracer>) -> Result<Window> {
        let mut window = Window::default();
        let budget_ns = (seconds * 1e9) as u64;
        let counted = self.spec.counted_ops;
        let first_op = self.ops_done;
        let failed_before = self.failed;
        let counters_before = self.counters();
        let mut prefix_open = true;
        let cpu_before = process_cpu_ms();
        let chunk_calls = if self.spec.batched {
            CHUNK_CALLS_BATCHED
        } else {
            CHUNK_CALLS
        };
        let mut chunk: Vec<Op> = Vec::with_capacity(chunk_calls);
        while prefix_open || window.wall_ns < budget_ns {
            // Operations are generated while the clock is stopped; the
            // program sees only the generated inputs.
            chunk.clear();
            chunk.extend((0..chunk_calls).map(|_| self.stream.next_op()));
            let mut previous = Instant::now();
            for op in &chunk {
                let op_index = self.ops_done - first_op;
                if let Some(report) = self.maintain_if_due()? {
                    window.maintenance_step_ns.push(report.total_ns());
                    if prefix_open {
                        let p = &mut window.prefix;
                        add_report(&mut p.maintenance, &report);
                        p.dirty_backlog_max = p.dirty_backlog_max.max(report.dirty_backlog);
                        p.compact_pending_max = p.compact_pending_max.max(report.compact_pending);
                        p.repl_backlog_max = p.repl_backlog_max.max(report.repl_backlog);
                    }
                    if let Some(t) = tracer.as_deref_mut() {
                        t.on_maintenance(&report, previous, op_index);
                    }
                }
                self.execute(op);
                let now = Instant::now();
                let latency = (now - previous).as_nanos() as u64;
                match op {
                    Op::Write(_) => window.write_ns.push(latency),
                    Op::Read(_) | Op::ReadBatch(_) => window.read_ns.push(latency),
                }
                window.wall_ns += latency;
                let call_start = previous;
                previous = now;
                if let Some(t) = tracer.as_deref_mut() {
                    if t.on_call(&self.dep, op, op_index, call_start, now, prefix_open) {
                        previous = Instant::now();
                    }
                }
                if prefix_open && self.ops_done - first_op >= counted {
                    prefix_open = false;
                    let after = self.counters();
                    window.prefix.deltas = counters_before
                        .iter()
                        .zip(&after)
                        .map(|(&(name, a), &(_, b))| (name, b.saturating_sub(a)))
                        .collect();
                    window.prefix.gauges = self.gauges()?;
                    window.prefix.op_stream_hash = self.stream.hash();
                    previous = Instant::now();
                }
            }
        }
        window.cpu_ms = process_cpu_ms() - cpu_before;
        window.ops = self.ops_done - first_op;
        window.failed = self.failed - failed_before;
        Ok(window)
    }

    /// Monotonic counters across the deployment.
    #[must_use]
    pub fn counters(&self) -> Counters {
        let sum =
            |f: &dyn Fn(&crate::deploy::Node) -> u64| -> u64 { self.dep.all_nodes().map(f).sum() };
        let master = self.dep.kv.master();
        let wal = master.wal_metrics();
        let (allocs, alloc_bytes) = crate::alloc::counters();
        // Thread-local to this (the only client and maintenance) thread.
        let pool = ips_codec::pool::stats();
        vec![
            (
                "cache.store_loads",
                sum(&|n| n.table.cache.store_loads.get()),
            ),
            (
                "cache.coalesced_loads",
                sum(&|n| n.table.cache.coalesced_loads.get()),
            ),
            ("cache.evictions", sum(&|n| n.table.cache.evictions.get())),
            (
                "cache.flushed_profiles",
                sum(&|n| n.table.cache.flushes.get()),
            ),
            (
                "persist.bytes_written",
                sum(&|n| n.table.cache.persister().metrics.bytes_written.get()),
            ),
            (
                "persist.stale_retries",
                sum(&|n| n.table.cache.persister().metrics.stale_retries.get()),
            ),
            (
                "isolation.merged_writes",
                sum(&|n| n.table.write_table.merged.get()),
            ),
            ("compact.runs", sum(&|n| n.table.scheduler.executed.get())),
            (
                "server.shed_deadline",
                sum(&|n| n.instance.shed_deadline.get()),
            ),
            (
                "server.overloaded",
                sum(&|n| n.instance.admission.shed.get()),
            ),
            (
                "server.quota_rejects",
                sum(&|n| n.instance.quota.rejected.get()),
            ),
            ("client.attempts", self.dep.client.attempts.get()),
            ("client.retries", self.dep.client.retries.get()),
            (
                "kv.ops",
                master.ops.get()
                    + self
                        .dep
                        .kv
                        .replicas()
                        .iter()
                        .map(|r| r.ops.get())
                        .sum::<u64>(),
            ),
            ("kv.repl_stale_rejected", self.dep.kv.stale_rejected.get()),
            ("wal.rotations", wal.map_or(0, |w| w.rotations.get())),
            ("wal.checkpoints", wal.map_or(0, |w| w.checkpoints.get())),
            ("codec.pool_reuses", pool.buf_reuses + pool.table_reuses),
            ("codec.pool_allocs", pool.buf_allocs + pool.table_allocs),
            ("process.allocs", allocs),
            ("process.alloc_bytes", alloc_bytes),
            ("reads.subqueries", self.subqueries),
            ("reads.hits", self.subquery_hits),
            ("ops", self.ops_done),
        ]
    }

    /// Point-in-time sizes.
    pub fn gauges(&self) -> Result<Counters> {
        let master = self.dep.kv.master();
        Ok(vec![
            (
                "cache.resident_bytes",
                self.dep
                    .all_nodes()
                    .map(|n| n.table.cache.memory_bytes())
                    .sum(),
            ),
            ("kv.live_bytes", master.store().approx_bytes()),
            ("wal.bytes", master.wal_size_bytes()?),
            ("user_bytes", self.user_bytes),
        ])
    }

    /// The end-of-workload checks. Drains maintenance, then reads every
    /// canary slot back against the ledger. `serve_cold` additionally
    /// requires query → evict → query to agree; `ingest_durable` crashes
    /// and restarts the KV master and re-checks the canaries through a cold
    /// cache (acknowledged writes survive). Returns `(checks, mismatches)`.
    pub fn verify(&mut self, log: &mut Vec<String>) -> Result<(u64, u64)> {
        self.dep.drain()?;
        let (mut checks, mut mismatches) =
            self.ledger.check(&self.spec, &self.dep.client, CALLER, log);
        if self.spec.cache_budget_bytes.is_some() {
            let (c, m) = self.verify_evict_reload(log)?;
            checks += c;
            mismatches += m;
        }
        if self.spec.read_write_ratio < 1.0 {
            let master = self.dep.kv.master();
            master.crash();
            master.restart()?;
            self.evict_canaries()?;
            let (c, m) = self.ledger.check(&self.spec, &self.dep.client, CALLER, log);
            if m > 0 {
                log.push("(the mismatches above are after the KV master's crash + restart)".into());
            }
            checks += c;
            mismatches += m;
        }
        Ok((checks, mismatches))
    }

    fn evict_canaries(&self) -> Result<()> {
        for i in 0..CANARIES {
            let pid = self.spec.canary(i);
            self.dep.owner(0, pid).table.cache.evict(pid)?;
        }
        Ok(())
    }

    /// Query, evict, query again: the reloaded profile must answer the same.
    fn verify_evict_reload(&self, log: &mut Vec<String>) -> Result<(u64, u64)> {
        let mut checks = 0;
        let mut mismatches = 0;
        let users = (1..=self.spec.users).step_by((self.spec.users / 64).max(1) as usize);
        let canaries = (0..CANARIES).map(|i| self.spec.canary(i).raw());
        for raw in users.chain(canaries) {
            let pid = ips_types::ProfileId::new(raw);
            for slot in 0..SLOTS {
                checks += 1;
                let query = canary_query(pid, slot);
                let before = self.dep.client.query(CALLER, &query);
                self.dep.owner(0, pid).table.cache.evict(pid)?;
                let after = self.dep.client.query(CALLER, &query);
                match (before, after) {
                    (Ok((a, _)), Ok((b, _))) if normalize(&a) == normalize(&b) => {}
                    (a, b) => {
                        mismatches += 1;
                        log.push(format!(
                            "profile {pid} slot {slot}: evict + reload changed the answer: {:?} vs {:?}",
                            a.map(|(r, _)| normalize(&r)),
                            b.map(|(r, _)| normalize(&r)),
                        ));
                    }
                }
            }
        }
        Ok((checks, mismatches))
    }

    /// In-memory size of the whole population: every profile loaded from
    /// the store and sized, wherever it currently lives. Requires a drained
    /// deployment.
    pub fn population_bytes(&self) -> Result<u64> {
        let mut total = 0u64;
        for raw in 1..=self.spec.users + CANARIES {
            let pid = ips_types::ProfileId::new(raw);
            let persister = self.dep.owner(0, pid).table.cache.persister();
            if let ips_core::persist::LoadOutcome::Loaded { profile, .. } = persister.load(pid)? {
                total += profile.approx_bytes() as u64;
            }
        }
        Ok(total)
    }
}

fn add_report(total: &mut MaintenanceReport, step: &MaintenanceReport) {
    total.merge_ns += step.merge_ns;
    total.compact_ns += step.compact_ns;
    total.flush_ns += step.flush_ns;
    total.swap_ns += step.swap_ns;
    total.pump_ns += step.pump_ns;
    total.checkpoint_ns += step.checkpoint_ns;
}

/// Process user+system CPU time so far, in milliseconds, from
/// `/proc/self/stat` (all threads, living and joined; clock ticks are
/// 1/100 s on Linux). Zero where `/proc` is absent.
#[must_use]
pub fn process_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is field 3.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10.0
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
