//! The benchmark's own span recorder.
//!
//! The traced run records one span per timed call into a layer's public
//! functions: name, start, end, the span that caused it, and the id of the
//! operation it belongs to. Spans stay in memory and are written out as
//! chrome-trace JSON when the run ends. The program's own `ips-trace`
//! tracers stay unset — spans inside the program are a later change.
//!
//! A layer's *self time* is its span's duration minus the durations of its
//! direct children. The children of a replayed request are separate timed
//! executions of the calls beneath it, so they need not nest in time; the
//! subtraction is over durations.

use std::time::Instant;

use crate::json::Value;

/// Index of a span inside its [`SpanLog`].
pub type SpanId = u32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The operation (index in the op stream) the span belongs to.
    pub op: u64,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span buffer on one time axis.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds of `at` on this log's axis.
    #[must_use]
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span of `duration_ns` starting at `start_ns`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        duration_ns: u64,
        parent: Option<SpanId>,
        op: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent,
            op,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Self time of every span, index-aligned with [`SpanLog::spans`].
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Durations of all spans called `name`.
    #[must_use]
    pub fn durations_of(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Self times of all spans called `name`.
    #[must_use]
    pub fn self_times_of(&self, name: &str) -> Vec<u64> {
        let selfs = self.self_times_ns();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Chrome-trace ("Trace Event Format") rendering of the first
    /// `max_spans` spans: complete (`X`) events in microseconds. A span's
    /// thread is its depth in the span tree, so the sequentially replayed
    /// layers of one request stack under it in the viewer.
    #[must_use]
    pub fn chrome_trace(&self, max_spans: usize) -> Value {
        let depth_of = |mut id: Option<SpanId>| {
            let mut depth = 0u64;
            while let Some(i) = id {
                depth += 1;
                id = self.spans[i as usize].parent;
            }
            depth
        };
        let events = self
            .spans
            .iter()
            .take(max_spans)
            .map(|s| {
                Value::obj()
                    .with("name", s.name)
                    .with("ph", "X")
                    .with("pid", 1u64)
                    .with("tid", depth_of(s.parent))
                    .with("ts", s.start_ns as f64 / 1_000.0)
                    .with("dur", s.duration_ns() as f64 / 1_000.0)
                    .with("args", Value::obj().with("op", s.op))
            })
            .collect::<Vec<_>>();
        Value::obj()
            .with("displayTimeUnit", "ns")
            .with("traceEvents", events)
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time of each span: its duration minus its direct children's
/// durations, floored at zero.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_sum = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_sum[parent as usize] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_sum)
        .map(|(s, children)| s.duration_ns().saturating_sub(children))
        .collect()
}
