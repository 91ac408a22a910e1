//! `ips-trace` — request-scoped distributed tracing for the IPS serving
//! path.
//!
//! The paper's headline serving claim (Table II) is a latency
//! *decomposition* — network overhead vs. cache-hit compute vs. cache-miss
//! HBase fetch. This crate measures that decomposition instead of asserting
//! it: every client request opens a root [`Span`], each stage it passes
//! through (dispatch, serialization, attempt, cache, store load, compute)
//! opens a child span, and the [`SpanContext`] rides the RPC wire so the
//! server-side spans land in the *same* trace as the client that issued
//! the call — across endpoints, retries, and region failover. Spans record
//! measured time only; the network and KV stages the paper reports are
//! priced offline from the byte attributes on `attempt` spans.
//!
//! Design points:
//!
//! * **Deterministic IDs.** Trace/span IDs come from the injected
//!   [`ips_types::Clock`] plus per-tracer counters — no RNG, so simulated
//!   runs produce stable IDs.
//! * **RAII spans, ambient parenting.** A live span installs itself in a
//!   thread-local scope stack; [`child`] reads the top of that stack, so
//!   instrumented leaf code (cache, engine, persister) needs no tracer
//!   handle threaded through its signatures. A request runs on one thread
//!   end to end, and the RPC boundary masks the client's ambient scope
//!   ([`mask`]) so server spans can *only* parent through the
//!   wire-propagated context — exactly what a real multi-process
//!   deployment would see.
//! * **Lock-free collection.** Finished spans go to a per-thread SPSC ring
//!   drained by the [`TraceCollector`]; the record path takes no locks.
//! * **Head sampling with promotion.** The keep/drop decision is made at
//!   the root from a per-caller rate, but errored (and optionally slow)
//!   spans are promoted into the trace even when unsampled.
//! * **Two exporters** ([`export`]): chrome://tracing `trace_event` JSON
//!   (loadable in Perfetto) and a per-stage percentile table built on
//!   [`ips_metrics::Histogram`].

mod buffer;
mod collector;
pub mod export;

pub use collector::TraceCollector;

/// Canonical span-attribute keys for the request-lifecycle layer (deadline
/// shedding, degraded serving). One shared vocabulary keeps
/// client and server spans joinable by key.
pub mod attrs {
    /// Why a unit of work was shed: `"deadline"` or `"overload"`.
    pub const SHED: &str = "shed";
    /// Remaining deadline budget (µs) when a request was admitted.
    pub const DEADLINE_US: &str = "deadline_us";
    /// Present (`"true"`) when a result was served degraded (stale).
    pub const DEGRADED: &str = "degraded";
    /// Staleness (ms) of a degraded result.
    pub const STALENESS_MS: &str = "staleness_ms";
    /// Caller identity (raw id) a unit of work was performed for.
    pub const CALLER: &str = "caller";
    /// Scheduling priority label (`"interactive"` / `"normal"` / `"bulk"`).
    pub const PRIORITY: &str = "priority";
}

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ips_types::clock::SharedClock;

// ---------------------------------------------------------------------------
// Identifiers and context

/// Identity of one end-to-end request; shared by every span the request
/// touches, on every endpoint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TraceId(pub u64);

/// Identity of one span within a trace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SpanId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:x}", self.0)
    }
}

/// The portable part of a span: what crosses the wire so remote spans
/// join the right tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanContext {
    pub trace: TraceId,
    pub span: SpanId,
    /// Head-sampling decision, made once at the root and propagated so
    /// every hop agrees on whether to record.
    pub sampled: bool,
}

// ---------------------------------------------------------------------------
// Records

/// One finished span, as drained from the collector.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub trace: TraceId,
    pub span: SpanId,
    /// `None` for the request root.
    pub parent: Option<SpanId>,
    /// Stage name (`"query"`, `"network"`, `"cache"`, ...). Static so the
    /// hot path never allocates for the common case.
    pub name: &'static str,
    /// Monotonic microseconds (see [`ips_types::clock::monotonic_micros`]);
    /// comparable across threads of one process.
    pub start_us: u64,
    pub end_us: u64,
    pub error: bool,
    pub attrs: Vec<(&'static str, String)>,
}

impl SpanRecord {
    #[must_use]
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Look up an attribute by key (first match).
    #[must_use]
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

// ---------------------------------------------------------------------------
// Sampling

/// Head-sampling policy. The keep/drop decision happens once, at
/// [`Tracer::root_span`], from a hash of the trace ID — deterministic for a
/// given ID, so reruns under the sim clock sample the same requests.
#[derive(Clone, Debug)]
pub struct SamplerConfig {
    /// Fraction of traces kept when the caller has no override (0.0–1.0).
    pub default_rate: f64,
    /// Per-caller overrides, keyed by the raw caller ID.
    pub per_caller: Vec<(u32, f64)>,
    /// Record spans that finished in error even when their trace was not
    /// head-sampled.
    pub sample_errors: bool,
    /// Record spans at least this slow even when not head-sampled.
    pub slow_us: Option<u64>,
}

impl SamplerConfig {
    /// Keep everything (benchmarks, tests).
    #[must_use]
    pub fn always() -> Self {
        Self::rate(1.0)
    }

    /// Keep a fraction of traces; errors and slow spans still promoted.
    #[must_use]
    pub fn rate(default_rate: f64) -> Self {
        Self {
            default_rate,
            per_caller: Vec::new(),
            sample_errors: true,
            slow_us: None,
        }
    }

    /// Record strictly nothing — the zero-overhead configuration used to
    /// bound tracing cost.
    #[must_use]
    pub fn never() -> Self {
        Self {
            default_rate: 0.0,
            per_caller: Vec::new(),
            sample_errors: false,
            slow_us: None,
        }
    }

    /// Builder-style per-caller override.
    #[must_use]
    pub fn with_caller_rate(mut self, caller: u32, rate: f64) -> Self {
        self.per_caller.push((caller, rate));
        self
    }

    /// Builder-style slow-span promotion threshold.
    #[must_use]
    pub fn with_slow_threshold_us(mut self, slow_us: u64) -> Self {
        self.slow_us = Some(slow_us);
        self
    }

    fn rate_for(&self, caller: u32) -> f64 {
        self.per_caller
            .iter()
            .find(|(c, _)| *c == caller)
            .map_or(self.default_rate, |(_, r)| *r)
    }

    fn decide(&self, trace: TraceId, caller: u32) -> bool {
        let rate = self.rate_for(caller);
        if rate >= 1.0 {
            return true;
        }
        if rate <= 0.0 {
            return false;
        }
        // splitmix64 of the trace ID → uniform in [0, 1).
        let mut z = trace.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 11) as f64 / (1u64 << 53) as f64) < rate
    }
}

// ---------------------------------------------------------------------------
// Ambient scope stack

enum Scope {
    /// A live span children should parent to.
    Active {
        tracer: Arc<Tracer>,
        ctx: SpanContext,
    },
    /// A boundary: ambient context deliberately hidden (RPC server side).
    Masked,
}

thread_local! {
    static SCOPES: RefCell<Vec<(u64, Scope)>> = const { RefCell::new(Vec::new()) };
    static NEXT_TOKEN: Cell<u64> = const { Cell::new(1) };
}

/// Push a scope entry; the returned token (0 = not pushed, e.g. during
/// thread teardown) pops exactly this entry even if guards drop out of
/// order.
fn push_scope(scope: Scope) -> u64 {
    let token = NEXT_TOKEN
        .try_with(|t| {
            let v = t.get();
            t.set(v + 1);
            v
        })
        .unwrap_or(0);
    if token == 0 {
        return 0;
    }
    let pushed = SCOPES
        .try_with(|s| s.borrow_mut().push((token, scope)))
        .is_ok();
    if pushed {
        token
    } else {
        0
    }
}

fn pop_scope(token: u64) {
    if token == 0 {
        return;
    }
    let _ = SCOPES.try_with(|s| {
        let mut s = s.borrow_mut();
        if let Some(pos) = s.iter().rposition(|(t, _)| *t == token) {
            s.remove(pos);
        }
    });
}

/// The tracer and context children on this thread would parent to, unless
/// the top of the scope stack is a mask.
#[must_use]
pub fn current() -> Option<(Arc<Tracer>, SpanContext)> {
    SCOPES
        .try_with(|s| match s.borrow().last() {
            Some((_, Scope::Active { tracer, ctx })) => Some((Arc::clone(tracer), *ctx)),
            _ => None,
        })
        .ok()
        .flatten()
}

/// Open a child of the ambient span. A no-op [`Span`] (nothing recorded,
/// ~one thread-local read) when no tracer is ambient — instrumented code
/// pays essentially nothing while tracing is not set up.
#[must_use]
pub fn child(name: &'static str) -> Span {
    match current() {
        Some((tracer, ctx)) => tracer.span_with_parent(name, ctx),
        None => Span::disabled(),
    }
}

/// Hide the ambient context until the guard drops. Used at the RPC
/// boundary: the in-process "server side" must see only the
/// wire-propagated context, as a remote process would.
#[must_use]
pub fn mask() -> MaskGuard {
    MaskGuard {
        token: push_scope(Scope::Masked),
    }
}

/// Guard for [`mask`].
pub struct MaskGuard {
    token: u64,
}

impl Drop for MaskGuard {
    fn drop(&mut self) {
        pop_scope(self.token);
    }
}

// ---------------------------------------------------------------------------
// Tracer

/// Span factory + sampling policy + collector, shared via `Arc`.
pub struct Tracer {
    clock: SharedClock,
    config: SamplerConfig,
    collector: TraceCollector,
    next_trace: AtomicU64,
    next_span: AtomicU64,
}

impl Tracer {
    #[must_use]
    pub fn new(clock: SharedClock, config: SamplerConfig) -> Arc<Self> {
        Arc::new(Self {
            clock,
            config,
            collector: TraceCollector::new(),
            next_trace: AtomicU64::new(0),
            next_span: AtomicU64::new(0),
        })
    }

    /// Start a new trace: mints a [`TraceId`], makes the head-sampling
    /// decision for `caller`, and opens the root span.
    #[must_use]
    pub fn root_span(self: &Arc<Self>, name: &'static str, caller: u32) -> Span {
        let trace = self.next_trace_id();
        let sampled = self.config.decide(trace, caller);
        self.start_span(name, trace, None, sampled)
    }

    /// Open a span under an existing context — the entry point for both
    /// ambient children and the RPC server side (where `parent` came off
    /// the wire).
    #[must_use]
    pub fn span_with_parent(self: &Arc<Self>, name: &'static str, parent: SpanContext) -> Span {
        self.start_span(name, parent.trace, Some(parent.span), parent.sampled)
    }

    /// Drain all finished spans collected so far.
    #[must_use]
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.collector.drain()
    }

    /// Spans lost to full per-thread rings (collector drained too rarely).
    #[must_use]
    pub fn dropped_records(&self) -> u64 {
        self.collector.dropped()
    }

    #[must_use]
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    #[must_use]
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Trace IDs carry the logical clock (ms) in the high bits and a
    /// per-tracer counter in the low 20, so IDs are unique, roughly
    /// time-ordered, and deterministic under the sim clock.
    fn next_trace_id(&self) -> TraceId {
        let ms = self.clock.now().as_millis();
        let n = self.next_trace.fetch_add(1, Ordering::Relaxed);
        TraceId((ms << 20) | (n & 0xF_FFFF))
    }

    fn next_span_id(&self) -> SpanId {
        SpanId(self.next_span.fetch_add(1, Ordering::Relaxed) + 1)
    }

    fn start_span(
        self: &Arc<Self>,
        name: &'static str,
        trace: TraceId,
        parent: Option<SpanId>,
        sampled: bool,
    ) -> Span {
        let span = self.next_span_id();
        let start = self.clock.monotonic_micros();
        let token = push_scope(Scope::Active {
            tracer: Arc::clone(self),
            ctx: SpanContext {
                trace,
                span,
                sampled,
            },
        });
        Span {
            inner: Some(Box::new(SpanInner {
                tracer: Arc::clone(self),
                sampled,
                token,
                rec: SpanRecord {
                    trace,
                    span,
                    parent,
                    name,
                    start_us: start,
                    end_us: start,
                    error: false,
                    attrs: Vec::new(),
                },
            })),
        }
    }

    /// Keep-or-drop for a finished span: head decision, plus promotion of
    /// errored / slow spans.
    fn record_finished(&self, rec: SpanRecord, sampled: bool) {
        let keep = sampled
            || (rec.error && self.config.sample_errors)
            || self.config.slow_us.is_some_and(|t| rec.duration_us() >= t);
        if keep {
            self.collector.record(rec);
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("config", &self.config)
            .field("collector", &self.collector)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Span

/// RAII guard for one unit of attributed work. While alive it is the
/// ambient parent for [`child`] spans on this thread; on drop it records
/// its timing into the collector (subject to sampling).
pub struct Span {
    inner: Option<Box<SpanInner>>,
}

struct SpanInner {
    tracer: Arc<Tracer>,
    sampled: bool,
    token: u64,
    rec: SpanRecord,
}

impl Span {
    /// A span that records nothing and has no context — the zero-cost path
    /// when tracing is off.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this span will (absent promotion) be recorded.
    #[must_use]
    pub fn is_sampled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.sampled)
    }

    /// The context to propagate on the wire.
    #[must_use]
    pub fn context(&self) -> Option<SpanContext> {
        self.inner.as_ref().map(|i| SpanContext {
            trace: i.rec.trace,
            span: i.rec.span,
            sampled: i.sampled,
        })
    }

    /// Attach a key/value attribute.
    pub fn set_attr(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(inner) = self.inner.as_mut() {
            inner.rec.attrs.push((key, value.into()));
        }
    }

    /// Mark the span failed; errored spans are recorded even when their
    /// trace was not head-sampled (if the sampler promotes errors).
    pub fn set_error(&mut self, message: impl Into<String>) {
        if let Some(inner) = self.inner.as_mut() {
            inner.rec.error = true;
            inner.rec.attrs.push(("error", message.into()));
        }
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(i) => write!(f, "Span({} {}/{})", i.rec.name, i.rec.trace, i.rec.span),
            None => write!(f, "Span(disabled)"),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let SpanInner {
                tracer,
                sampled,
                token,
                mut rec,
            } = *inner;
            pop_scope(token);
            rec.end_us = tracer.clock.monotonic_micros();
            tracer.record_finished(rec, sampled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_types::clock::system_clock;

    fn tracer(cfg: SamplerConfig) -> Arc<Tracer> {
        Tracer::new(system_clock(), cfg)
    }

    #[test]
    fn root_and_children_form_one_tree() {
        let t = tracer(SamplerConfig::always());
        {
            let root = t.root_span("query", 7);
            let root_ctx = root.context().unwrap();
            {
                let mut a = child("cache");
                a.set_attr("hit", "true");
                assert_eq!(a.context().unwrap().trace, root_ctx.trace);
            }
            let _b = child("compute");
        }
        let recs = t.drain();
        assert_eq!(recs.len(), 3);
        let root = recs.iter().find(|r| r.name == "query").unwrap();
        assert!(root.parent.is_none());
        for name in ["cache", "compute"] {
            let c = recs.iter().find(|r| r.name == name).unwrap();
            assert_eq!(c.parent, Some(root.span), "{name} parents to root");
            assert_eq!(c.trace, root.trace);
        }
        assert_eq!(
            recs.iter().find(|r| r.name == "cache").unwrap().attr("hit"),
            Some("true")
        );
    }

    #[test]
    fn nested_children_parent_to_innermost() {
        let t = tracer(SamplerConfig::always());
        {
            let _root = t.root_span("query", 0);
            let mid = child("server");
            let leaf = child("compute");
            drop(leaf);
            drop(mid);
        }
        let recs = t.drain();
        let mid = recs.iter().find(|r| r.name == "server").unwrap();
        let leaf = recs.iter().find(|r| r.name == "compute").unwrap();
        assert_eq!(leaf.parent, Some(mid.span));
    }

    #[test]
    fn child_without_ambient_tracer_is_noop() {
        let mut s = child("orphan");
        s.set_attr("k", "v");
        assert!(s.context().is_none());
        assert!(!s.is_sampled());
    }

    #[test]
    fn sampling_never_records_nothing() {
        let t = tracer(SamplerConfig::never());
        {
            let _root = t.root_span("query", 0);
            let _c = child("cache");
        }
        assert!(t.drain().is_empty());
    }

    #[test]
    fn error_spans_promoted_when_unsampled() {
        let t = tracer(SamplerConfig::rate(0.0));
        {
            let _root = t.root_span("query", 0);
            let mut c = child("attempt");
            c.set_error("endpoint down");
        }
        let recs = t.drain();
        assert_eq!(recs.len(), 1, "only the errored span is promoted");
        assert_eq!(recs[0].name, "attempt");
        assert!(recs[0].error);
        assert_eq!(recs[0].attr("error"), Some("endpoint down"));
    }

    #[test]
    fn never_config_suppresses_even_errors() {
        let t = tracer(SamplerConfig::never());
        {
            let mut root = t.root_span("query", 0);
            root.set_error("boom");
        }
        assert!(t.drain().is_empty());
    }

    #[test]
    fn slow_spans_promoted_when_unsampled() {
        let t = tracer(SamplerConfig::rate(0.0).with_slow_threshold_us(0));
        {
            let _root = t.root_span("query", 0);
        }
        assert_eq!(t.drain().len(), 1, "threshold 0 promotes everything");
    }

    #[test]
    fn per_caller_rate_overrides_default() {
        let cfg = SamplerConfig::rate(1.0).with_caller_rate(42, 0.0);
        let t = tracer(cfg);
        {
            let _a = t.root_span("query", 7);
        }
        {
            let _b = t.root_span("query", 42);
        }
        let recs = t.drain();
        assert_eq!(recs.len(), 1, "caller 42 sampled out");
    }

    #[test]
    fn fractional_rate_is_deterministic_per_trace_id() {
        let cfg = SamplerConfig::rate(0.5);
        for id in [1u64, 99, 12345, u64::MAX / 3] {
            let a = cfg.decide(TraceId(id), 0);
            let b = cfg.decide(TraceId(id), 0);
            assert_eq!(a, b);
        }
        // And roughly calibrated.
        let kept = (0..10_000u64)
            .filter(|i| cfg.decide(TraceId(i * 0x9E37_79B9), 0))
            .count();
        assert!((4_000..6_000).contains(&kept), "kept {kept}/10000 at 50%");
    }

    #[test]
    fn mask_hides_ambient_context() {
        let t = tracer(SamplerConfig::always());
        {
            let _root = t.root_span("query", 0);
            assert!(current().is_some());
            {
                let _m = mask();
                assert!(current().is_none(), "masked");
                let s = child("behind-mask");
                assert!(s.context().is_none());
            }
            assert!(current().is_some(), "unmasked after guard drop");
        }
        assert_eq!(t.drain().len(), 1);
    }

    #[test]
    fn out_of_order_drop_keeps_stack_consistent() {
        let t = tracer(SamplerConfig::always());
        let _root = t.root_span("r", 0);
        let a = child("a");
        let b = child("b");
        drop(a); // dropped before b — token-based pop must remove `a` only
        let c = child("c");
        drop(c);
        drop(b);
        let recs: Vec<_> = t.drain();
        let b_rec = recs.iter().find(|r| r.name == "b").unwrap();
        let c_rec = recs.iter().find(|r| r.name == "c").unwrap();
        assert_eq!(c_rec.parent, Some(b_rec.span), "c parents to b, not a");
    }

    #[test]
    fn trace_ids_unique_and_time_prefixed() {
        let (clock, _ctl) = ips_types::clock::sim_clock(ips_types::time::Timestamp::from_millis(5));
        let t = Tracer::new(clock, SamplerConfig::always());
        let a = t.next_trace_id();
        let b = t.next_trace_id();
        assert_ne!(a, b);
        assert_eq!(a.0 >> 20, 5, "logical ms in the high bits");
    }
}
