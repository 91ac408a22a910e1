//! Layer attribution for the traced run.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions. During the traced window each client call and maintenance
//! step becomes a span, and a fixed one-in-N sample of read calls is
//! *replayed* while the clock is stopped: the same request goes once more
//! through `client.query`, then through the owner's endpoint, then through
//! each call beneath that (`RpcRequest::encode_with` → `decode_envelope` →
//! `IpsInstance::query_ctx` → `RpcResponse::encode` → `decode`), then
//! through `GCache::read_projected` with and without `engine::execute`.
//! Each replayed call is a child span of the call above it, so a layer's
//! self time is its duration minus its children's.
//!
//! Write-side and storage layers are timed after the window, over what the
//! run really produced — extra writes through the client, the frames in the
//! KV master's store through `decode_frame` / `decompress` /
//! `decode_profile` and back, and the same keys and values through
//! `KvNode::set` / `get` and `Wal::append` on a scratch WAL-backed node —
//! so no layer pass perturbs the state the window measures.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use ips_cluster::{CallOptions, RpcRequest, RpcResponse};
use ips_codec::{compress, decode_frame, decompress, encode_frame};
use ips_core::isolation::{apply_buffered, BufferedWrite};
use ips_core::persist::{
    decode_profile, encode_profile, LoadOutcome, ProfilePersister, SliceLoadOutcome,
    SliceProjection,
};
use ips_core::query::{engine, ProfileQuery, QueryKind};
use ips_core::RequestContext;
use ips_kv::{KvNode, KvNodeConfig, Wal, WalRecord};
use ips_types::{DurationMs, ProfileId, Result, TimeRange, WalConfig};

use crate::deploy::{Deployment, MaintenanceReport, Node, WorkDir, TABLE};
use crate::driver::{Session, CALLER};
use crate::spans::{SpanId, SpanLog};
use crate::workload::Op;

/// Repetitions inside one timing of a sub-microsecond call, so the clock
/// read does not dominate; the span records the mean.
const FAST_REPS: u32 = 8;
const RING_REPS: u32 = 32;
/// Timed repetitions of a replayed call that is microseconds long.
const CALL_REPS: u32 = 2;
/// Sub-queries of a replayed batch that also go through the cache and
/// engine one by one.
const BATCH_ENGINE_SAMPLES: usize = 8;
/// Sampled read queries kept for the after-window miss pass.
const KEPT_QUERIES: usize = 256;
/// Extra writes timed after the window.
const WRITE_PASS_WRITES: usize = 256;
/// Stored values sampled by the storage pass.
const STORAGE_PASS_VALUES: usize = 1_500;
/// Profiles loaded and saved by the storage pass.
const STORAGE_PASS_PROFILES: usize = 300;

/// Span names; the per-layer metrics are read back by these.
pub mod names {
    pub const CLIENT_QUERY: &str = "client.query";
    pub const CLIENT_BATCH: &str = "client.query_batch";
    pub const CLIENT_WRITE: &str = "client.add_profiles";
    pub const REPLAY_QUERY: &str = "replay.client.query";
    pub const REPLAY_BATCH: &str = "replay.client.query_batch";
    pub const REPLAY_WRITE: &str = "replay.client.add_profiles";
    pub const RING: &str = "ring.node_for";
    pub const ENDPOINT: &str = "rpc.endpoint.call";
    pub const WRITE_ENDPOINT: &str = "rpc.endpoint.call(add)";
    pub const REQ_ENCODE: &str = "rpc.req_encode";
    pub const REQ_DECODE: &str = "rpc.req_decode";
    pub const RESP_ENCODE: &str = "rpc.resp_encode";
    pub const RESP_DECODE: &str = "rpc.resp_decode";
    pub const QUERY_CTX: &str = "server.query_ctx";
    pub const BATCH_CTX: &str = "server.query_batch_ctx";
    pub const WRITE_CTX: &str = "server.add_profiles_ctx";
    pub const READ_EXECUTE: &str = "cache.read_projected+execute";
    pub const READ_HIT: &str = "cache.read_projected";
    pub const CACHE_WRITE: &str = "cache.write";
    pub const CACHE_MISS: &str = "cache.read_projected(miss)";
    pub const EXECUTE: &str = "query.execute";
    pub const MAINTENANCE: &str = "maint.step";
    pub const MERGE: &str = "isolation.merge_write_table";
    pub const COMPACT: &str = "compact.run_pending";
    pub const FLUSH: &str = "cache.flush_shard";
    pub const SWAP: &str = "cache.swap_cycle";
    pub const PUMP: &str = "kv.repl_pump";
    pub const CHECKPOINT: &str = "wal.checkpoint";
}

/// Spans plus the samples that are not span durations.
pub struct Tracer {
    pub log: SpanLog,
    /// Nanosecond (or per-KiB nanosecond) samples by metric key.
    samples: BTreeMap<&'static str, Vec<u64>>,
    /// Plain sums and counts by key (bytes, round trips).
    sums: BTreeMap<&'static str, f64>,
    replay_one_in: u64,
    read_calls: u64,
    kept_queries: Vec<ProfileQuery>,
    /// What one `Instant::now()` … `elapsed()` pair costs by itself; taken
    /// off every timing, or a parent timed once would lose to its children
    /// timed one by one and self times would come out negative.
    timer_ns: u64,
}

/// Median cost of an empty timing.
fn timer_overhead_ns() -> u64 {
    let mut laps: Vec<u64> = (0..1_001)
        .map(|_| {
            let started = Instant::now();
            black_box(started).elapsed().as_nanos() as u64
        })
        .collect();
    laps.sort_unstable();
    laps[laps.len() / 2]
}

impl Tracer {
    #[must_use]
    pub fn new(replay_one_in: u64) -> Self {
        Self {
            log: SpanLog::new(),
            samples: BTreeMap::new(),
            sums: BTreeMap::new(),
            replay_one_in: replay_one_in.max(1),
            read_calls: 0,
            kept_queries: Vec::new(),
            timer_ns: timer_overhead_ns(),
        }
    }

    /// Nanoseconds since `started`, less the timer's own cost.
    fn lap(&self, started: Instant) -> u64 {
        (started.elapsed().as_nanos() as u64).saturating_sub(self.timer_ns)
    }

    fn sample(&mut self, key: &'static str, value: u64) {
        self.samples.entry(key).or_default().push(value);
    }

    fn add(&mut self, key: &'static str, value: f64) {
        *self.sums.entry(key).or_default() += value;
    }

    #[must_use]
    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    #[must_use]
    pub fn samples_of(&self, key: &str) -> &[u64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    /// Time `f` once as a span under `parent`.
    fn timed<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (SpanId, u64, R) {
        let start_ns = self.log.now_ns();
        let started = Instant::now();
        let out = f();
        let duration = self.lap(started);
        let id = self.log.record(name, start_ns, duration, parent, op);
        (id, duration, out)
    }

    /// Run `f` once untimed, then time `reps` back-to-back executions; the
    /// span carries the mean duration of one. A replay re-executes a call
    /// on state the window's own call already touched, so what it can
    /// measure is the warm cost — and the first execution of a code path
    /// the window never took (this crate's own instantiation of a generic,
    /// say) would otherwise charge its instruction-cache misses to a layer.
    fn timed_reps<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        reps: u32,
        mut f: impl FnMut() -> R,
    ) -> (SpanId, u64, R) {
        black_box(f());
        let start_ns = self.log.now_ns();
        let started = Instant::now();
        for _ in 1..reps {
            black_box(f());
        }
        let out = f();
        let mean = self.lap(started) / u64::from(reps);
        let id = self.log.record(name, start_ns, mean, parent, op);
        (id, mean, out)
    }

    /// Record a maintenance step and its parts as spans starting at `start`.
    pub fn on_maintenance(&mut self, report: &MaintenanceReport, start: Instant, op: u64) {
        let mut at = self.log.ns_of(start);
        let step = self
            .log
            .record(names::MAINTENANCE, at, report.total_ns(), None, op);
        for (name, duration) in [
            (names::MERGE, report.merge_ns),
            (names::COMPACT, report.compact_ns),
            (names::FLUSH, report.flush_ns),
            (names::SWAP, report.swap_ns),
            (names::PUMP, report.pump_ns),
            (names::CHECKPOINT, report.checkpoint_ns),
        ] {
            if duration > 0 {
                self.log.record(name, at, duration, Some(step), op);
                at += duration;
            }
        }
    }

    /// Record the root span of a finished client call; for a sampled read,
    /// replay it layer by layer. Returns whether a replay ran (the caller
    /// restarts its clock).
    pub fn on_call(
        &mut self,
        dep: &Deployment,
        op: &Op,
        op_index: u64,
        start: Instant,
        end: Instant,
        counted: bool,
    ) -> bool {
        let name = match op {
            Op::Read(_) => names::CLIENT_QUERY,
            Op::ReadBatch(_) => names::CLIENT_BATCH,
            Op::Write(_) => names::CLIENT_WRITE,
        };
        let start_ns = self.log.ns_of(start);
        let duration = (end - start).as_nanos() as u64;
        self.log.record(name, start_ns, duration, None, op_index);
        if matches!(op, Op::Write(_)) {
            return false;
        }
        self.read_calls += 1;
        if !self.read_calls.is_multiple_of(self.replay_one_in) {
            return false;
        }
        // A replay that fails is a benchmark bug or a broken program; the
        // window's own call already counted the failure, so just skip it.
        let _ = match op {
            Op::Read(query) => self.replay_query(dep, query, op_index, counted),
            Op::ReadBatch(queries) => self.replay_batch(dep, queries, op_index, counted),
            Op::Write(_) => Ok(()),
        };
        true
    }

    fn replay_query(
        &mut self,
        dep: &Deployment,
        query: &ProfileQuery,
        op: u64,
        counted: bool,
    ) -> Result<()> {
        if self.kept_queries.len() < KEPT_QUERIES {
            self.kept_queries.push(query.clone());
        }
        let owner = dep.owner(0, query.profile);
        let (client, _, outcome) =
            self.timed_reps(names::REPLAY_QUERY, None, op, CALL_REPS, || {
                dep.client.query(CALLER, query)
            });
        outcome?;
        self.timed_reps(names::RING, None, op, RING_REPS, || {
            dep.rings[0].node_for(query.profile).map(str::len)
        });
        let request = RpcRequest::Query {
            caller: CALLER,
            query: query.clone(),
        };
        let opts = CallOptions::default();
        let (endpoint, _, outcome) =
            self.timed_reps(names::ENDPOINT, Some(client), op, CALL_REPS, || {
                owner.endpoint.call_with_options(&request, None, &opts)
            });
        outcome.0?;
        self.replay_frames(
            endpoint,
            op,
            counted,
            &request,
            FAST_REPS,
            |tracer: &mut Self, parent| {
                let ctx = RequestContext::new(CALLER);
                let (server, _, result) =
                    tracer.timed_reps(names::QUERY_CTX, Some(parent), op, CALL_REPS, || {
                        owner.instance.query_ctx(&ctx, query)
                    });
                tracer.replay_cache_and_engine(dep, owner, query, Some(server), op)?;
                result.map(RpcResponse::Query)
            },
        )
    }

    /// The codec and server calls beneath one endpoint call: encode and
    /// decode the request frame, run `server` for the response, encode and
    /// decode the response frame.
    fn replay_frames(
        &mut self,
        endpoint: SpanId,
        op: u64,
        counted: bool,
        request: &RpcRequest,
        reps: u32,
        server: impl FnOnce(&mut Self, SpanId) -> Result<RpcResponse>,
    ) -> Result<()> {
        let opts = CallOptions::default();
        let request_bytes = request.encode_with(None, &opts);
        self.timed_reps(names::REQ_ENCODE, Some(endpoint), op, reps, || {
            request.encode_with(None, &opts)
        });
        self.timed_reps(names::REQ_DECODE, Some(endpoint), op, reps, || {
            RpcRequest::decode_envelope(&request_bytes).is_ok()
        });
        let response = server(self, endpoint)?;
        let response_bytes = response.encode();
        self.timed_reps(names::RESP_ENCODE, Some(endpoint), op, reps, || {
            response.encode()
        });
        self.timed_reps(names::RESP_DECODE, Some(endpoint), op, reps, || {
            RpcResponse::decode(&response_bytes).is_ok()
        });
        if counted {
            self.add("rpc.req_bytes", request_bytes.len() as f64);
            self.add("rpc.resp_bytes", response_bytes.len() as f64);
            self.add("rpc.frames", 1.0);
        }
        Ok(())
    }

    /// `GCache::read_projected` on the (now resident) profile with the
    /// engine inside, the engine's own time, and the cache read alone.
    fn replay_cache_and_engine(
        &mut self,
        dep: &Deployment,
        owner: &Node,
        query: &ProfileQuery,
        parent: Option<SpanId>,
        op: u64,
    ) -> Result<()> {
        let cfg = owner.table.config.load();
        let now = dep.clock.now();
        let projection = query.projection(now);
        // The engine is timed inside the closure the cache runs it in; the
        // warm-up execution's time is discarded.
        let mut executions = 0u32;
        let mut execute_ns = 0u64;
        let (read, _, outcome) =
            self.timed_reps(names::READ_EXECUTE, parent, op, CALL_REPS, || {
                owner
                    .table
                    .cache
                    .read_projected(query.profile, &projection, |profile| {
                        let started = Instant::now();
                        let result = engine::execute(
                            profile,
                            query,
                            cfg.aggregate,
                            &cfg.compaction.shrink,
                            now,
                        );
                        if executions > 0 {
                            execute_ns += started.elapsed().as_nanos() as u64;
                        }
                        executions += 1;
                        result
                    })
            });
        black_box(outcome?);
        let execute_ns = (execute_ns / u64::from(CALL_REPS)).saturating_sub(self.timer_ns);
        let start_ns = self.log.now_ns();
        self.log
            .record(names::EXECUTE, start_ns, execute_ns, Some(read), op);
        self.sample(
            match query.kind {
                QueryKind::TopK { .. } => "query.topk",
                QueryKind::Filter { .. } => "query.filter",
                QueryKind::Decay { .. } => "query.decay",
            },
            execute_ns,
        );
        self.timed_reps(names::READ_HIT, Some(read), op, FAST_REPS, || {
            owner
                .table
                .cache
                .read_projected(query.profile, &projection, |_| ())
                .is_ok()
        });
        Ok(())
    }

    fn replay_batch(
        &mut self,
        dep: &Deployment,
        queries: &[ProfileQuery],
        op: u64,
        counted: bool,
    ) -> Result<()> {
        let (_, client_ns, outcome) = self.timed_reps(names::REPLAY_BATCH, None, op, 1, || {
            dep.client.query_batch(CALLER, queries)
        });
        outcome?;
        // One ring lookup per sub-query; the span carries the mean.
        let start_ns = self.log.now_ns();
        let started = Instant::now();
        black_box(
            queries
                .iter()
                .filter_map(|q| dep.rings[0].node_for(q.profile))
                .count(),
        );
        let per_lookup = self.lap(started) / queries.len().max(1) as u64;
        self.log.record(names::RING, start_ns, per_lookup, None, op);
        // One frame per owner, as the client groups them.
        let mut groups: BTreeMap<usize, Vec<ProfileQuery>> = BTreeMap::new();
        for query in queries {
            groups
                .entry(dep.owner_index(0, query.profile))
                .or_default()
                .push(query.clone());
        }
        let opts = CallOptions::default();
        let mut slowest = 0u64;
        let mut batch_total = 0u64;
        let mut single_total = 0u64;
        for (idx, group) in groups {
            let owner = &dep.nodes[0][idx];
            let request = RpcRequest::QueryBatch {
                caller: CALLER,
                queries: group.clone(),
            };
            // Frames run concurrently inside the client call, so only the
            // slowest lies on its blocking path; `client.batch_self` is
            // taken against that one below, and frames stay parentless.
            let (endpoint, endpoint_ns, outcome) =
                self.timed_reps(names::ENDPOINT, None, op, 1, || {
                    owner.endpoint.call_with_options(&request, None, &opts)
                });
            outcome.0?;
            slowest = slowest.max(endpoint_ns);
            let ctx = RequestContext::new(CALLER);
            self.replay_frames(
                endpoint,
                op,
                counted,
                &request,
                2,
                |tracer: &mut Self, parent| {
                    let (_, batch_ns, results) =
                        tracer.timed_reps(names::BATCH_CTX, Some(parent), op, 1, || {
                            owner.instance.query_batch_ctx(&ctx, &group)
                        });
                    batch_total += batch_ns;
                    results.map(RpcResponse::QueryBatch)
                },
            )?;
            for (i, query) in group.iter().enumerate() {
                let started = Instant::now();
                black_box(owner.instance.query_ctx(&ctx, query)?);
                single_total += self.lap(started);
                if i < BATCH_ENGINE_SAMPLES {
                    self.replay_cache_and_engine(dep, owner, query, None, op)?;
                }
            }
        }
        self.sample("client.batch_self", client_ns.saturating_sub(slowest));
        // Per-mille, so the sample stays an integer.
        if let Some(permille) = (batch_total * 1_000).checked_div(single_total) {
            self.sample("server.batch_overhead_permille", permille);
        }
        Ok(())
    }
}

// ---- after-window passes ----------------------------------------------------

/// Extra (non-canary) writes through the client, then the same write
/// through each layer beneath it: the owner endpoints of both regions, the
/// home owner's `add_profiles_ctx`, and `GCache::write`.
pub fn write_pass(session: &mut Session, tracer: &mut Tracer) -> Result<()> {
    let mut done = 0;
    while done < WRITE_PASS_WRITES {
        let Op::Write(write) = session.stream.next_op() else {
            continue;
        };
        if write.profile.raw() > session.spec.users {
            continue; // replays would double-apply a canary write
        }
        done += 1;
        let op = session.ops_done;
        let dep = &session.dep;
        dep.ctl.advance(session.spec.virtual_step);
        let at = dep.clock.now();
        let features = [(write.feature, write.counts.clone())];
        let (client, _, outcome) = tracer.timed(names::REPLAY_WRITE, None, op, || {
            dep.client.add_profiles(
                CALLER,
                TABLE,
                write.profile,
                at,
                write.slot,
                write.action,
                &features,
            )
        });
        outcome?;
        let request = RpcRequest::Add {
            caller: CALLER,
            table: TABLE,
            profile: write.profile,
            at,
            slot: write.slot,
            action: write.action,
            features: features.to_vec(),
        };
        let opts = CallOptions::default();
        // Region writes run concurrently inside the client call; only the
        // slower endpoint call lies on its blocking path.
        let mut calls: Vec<(u64, u64)> = Vec::new();
        for region in 0..dep.nodes.len() {
            let owner = dep.owner(region, write.profile);
            let start_ns = tracer.log.now_ns();
            let started = Instant::now();
            owner.endpoint.call_with_options(&request, None, &opts).0?;
            calls.push((start_ns, tracer.lap(started)));
        }
        let slowest = (0..calls.len()).max_by_key(|&i| calls[i].1);
        for (i, (start_ns, duration)) in calls.into_iter().enumerate() {
            let parent = (Some(i) == slowest).then_some(client);
            tracer
                .log
                .record(names::WRITE_ENDPOINT, start_ns, duration, parent, op);
        }
        let owner = dep.owner(0, write.profile);
        let ctx = RequestContext::new(CALLER);
        tracer
            .timed(names::WRITE_CTX, None, op, || {
                owner.instance.add_profiles_ctx(
                    &ctx,
                    TABLE,
                    write.profile,
                    at,
                    write.slot,
                    write.action,
                    &features,
                )
            })
            .2?;
        let cfg = owner.table.config.load();
        let granularity = cfg
            .compaction
            .time_dimension
            .bands
            .first()
            .map_or(DurationMs::from_secs(1), |b| b.granularity);
        let buffered = [BufferedWrite {
            at,
            slot: write.slot,
            action: write.action,
            feature: write.feature,
            counts: write.counts.clone(),
        }];
        tracer
            .timed(names::CACHE_WRITE, None, op, || {
                owner.table.cache.write(write.profile, |profile| {
                    apply_buffered(profile, &buffered, cfg.aggregate, granularity);
                })
            })
            .2?;
    }
    Ok(())
}

/// Evict a sampled read's profile, then time the read that reloads it.
pub fn miss_pass(session: &Session, tracer: &mut Tracer) -> Result<()> {
    let dep = &session.dep;
    let now = dep.clock.now();
    for query in std::mem::take(&mut tracer.kept_queries) {
        let owner = dep.owner(0, query.profile);
        owner.table.cache.evict(query.profile)?;
        let projection = query.projection(now);
        tracer
            .timed(names::CACHE_MISS, None, session.ops_done, || {
                owner
                    .table
                    .cache
                    .read_projected(query.profile, &projection, |_| ())
                    .map(|o| o.is_some())
            })
            .2?;
    }
    Ok(())
}

/// Profile id of a `b/…`, `m/…` or `s/…` persister key.
fn key_profile(key: &[u8]) -> Option<ProfileId> {
    let at = match key.first()? {
        b'b' | b'm' => key.len().checked_sub(8)?,
        b's' => key.len().checked_sub(16)?,
        _ => return None,
    };
    let raw: [u8; 8] = key.get(at..at + 8)?.try_into().ok()?;
    Some(ProfileId::new(u64::from_be_bytes(raw)))
}

/// Time the storage layers over the values the run left in the KV master:
/// codec and persist encode/decode per stored frame, the persister's load
/// and save per stored profile, and `KvNode::set`/`get`, `Wal::append` and
/// crash recovery on scratch WAL-backed stores fed the same keys and values.
/// Requires a drained deployment.
pub fn storage_pass(session: &Session, tracer: &mut Tracer) -> Result<()> {
    let dep = &session.dep;
    let mut stored = dep.kv.master().store().scan_all();
    stored.sort_by(|a, b| a.0.cmp(&b.0));
    let stride = (stored.len() / STORAGE_PASS_VALUES).max(1);
    let sampled: Vec<(Bytes, Bytes)> = stored
        .iter()
        .step_by(stride)
        .map(|(k, v)| (k.clone(), v.data.clone()))
        .collect();

    // Codec: frame → payload → compressed → payload → frame. Costs are
    // summed and divided by the bytes they covered: most stored values are
    // tiny, and a median of per-value rates would report their fixed costs.
    for (key, frame) in &sampled {
        let started = Instant::now();
        let payload = decode_frame(frame).map_err(codec_err)?;
        let decode_ns = tracer.lap(started);
        if payload.is_empty() {
            continue;
        }
        tracer.add("codec.frame_decode_ns", decode_ns as f64);
        let started = Instant::now();
        let compressed = compress(&payload);
        tracer.add("codec.compress_ns", tracer.lap(started) as f64);
        let started = Instant::now();
        black_box(decompress(&compressed, payload.len()).map_err(codec_err)?);
        tracer.add("codec.decompress_ns", tracer.lap(started) as f64);
        let started = Instant::now();
        black_box(encode_frame(&payload));
        tracer.add("codec.frame_encode_ns", tracer.lap(started) as f64);
        tracer.add("codec.payload_bytes", payload.len() as f64);
        tracer.add("codec.compressed_bytes", compressed.len() as f64);
        // Persist schema: whole-profile values only.
        if key.first() == Some(&b'b') {
            let started = Instant::now();
            let profile = decode_profile(frame)?;
            tracer.add("persist.decode_profile_ns", tracer.lap(started) as f64);
            tracer.add("persist.decoded_frame_bytes", frame.len() as f64);
            let started = Instant::now();
            let encoded = encode_profile(&profile);
            tracer.add("persist.encode_profile_ns", tracer.lap(started) as f64);
            tracer.add("persist.encoded_frame_bytes", encoded.len() as f64);
        }
    }

    // Scratch stores on real files, under the run's own work directory.
    let dir = WorkDir::create("scratch")
        .map_err(|e| ips_types::IpsError::Storage(format!("scratch dir: {e}")))?;
    let scratch = Arc::new(KvNode::new(
        "kv-scratch",
        KvNodeConfig {
            wal_path: Some(dir.path().join("node-wal")),
            ..KvNodeConfig::default()
        },
    )?);
    for (key, value) in &sampled {
        let started = Instant::now();
        scratch.set(key.clone(), value.clone())?;
        tracer.sample("kv.set", tracer.lap(started));
    }
    for (key, _) in &sampled {
        let started = Instant::now();
        black_box(scratch.get(key)?);
        tracer.sample("kv.get", tracer.lap(started));
    }
    let wal = Wal::open_with(dir.path().join("bare-wal"), WalConfig::default())?;
    wal.recover()?;
    for (generation, (key, value)) in sampled.iter().enumerate() {
        let record = WalRecord::Set {
            key: key.clone(),
            value: value.clone(),
            generation: generation as u64 + 1,
        };
        let started = Instant::now();
        wal.append(&record)?;
        tracer.sample("wal.append", tracer.lap(started));
    }

    // Persister: load from the real store, save into the scratch one.
    let mut profiles: Vec<ProfileId> = stored
        .iter()
        .filter(|(k, _)| matches!(k.first(), Some(b'b' | b'm')))
        .filter_map(|(k, _)| key_profile(k))
        .collect();
    profiles.dedup();
    let stride = (profiles.len() / STORAGE_PASS_PROFILES).max(1);
    let scratch_persister =
        ProfilePersister::new(Arc::clone(&scratch), TABLE, dep.table_config.persistence);
    let now = dep.clock.now();
    let window = SliceProjection::Window {
        range: TimeRange::last_days(1),
        now,
    };
    for pid in profiles.into_iter().step_by(stride) {
        let persister = dep.owner(0, pid).table.cache.persister();
        let started = Instant::now();
        let loaded = persister.load(pid)?;
        tracer.sample("persist.load", tracer.lap(started));
        let started = Instant::now();
        let projected = persister.load_slices(pid, &window)?;
        tracer.sample("persist.load_slices", tracer.lap(started));
        if let SliceLoadOutcome::Loaded(l) = projected {
            tracer.add("persist.round_trips", f64::from(l.round_trips));
            tracer.add("persist.bytes_read", l.bytes_read as f64);
            tracer.add("persist.loads", 1.0);
        }
        if let LoadOutcome::Loaded { mut profile, .. } = loaded {
            let started = Instant::now();
            scratch_persister.save(pid, &mut profile, 0)?;
            tracer.sample("persist.save", tracer.lap(started));
        }
    }

    // Crash the scratch node and replay its log.
    let before = scratch.recovery_stats();
    scratch.crash();
    let started = Instant::now();
    scratch.restart()?;
    tracer.add("wal.recover_ms", started.elapsed().as_secs_f64() * 1e3);
    let after = scratch.recovery_stats();
    tracer.add(
        "wal.recovered_records",
        ((after.records_replayed + after.checkpoint_entries)
            - (before.records_replayed + before.checkpoint_entries)) as f64,
    );
    Ok(())
}

fn codec_err(e: impl std::fmt::Display) -> ips_types::IpsError {
    ips_types::IpsError::Codec(e.to_string())
}
