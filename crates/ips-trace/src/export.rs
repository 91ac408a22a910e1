//! Exporters: chrome://tracing JSON and a per-stage percentile table.
//!
//! The JSON exporter emits the `trace_event` format (an object with a
//! `traceEvents` array of `ph:"X"` complete events) that chrome://tracing
//! and Perfetto load directly. Each trace is mapped to its own `tid` row so
//! a multi-request dump reads as parallel swimlanes; span attributes and
//! IDs land in `args`.
//!
//! The table exporter folds span durations into one
//! [`ips_metrics::Histogram`] per stage name and renders percentiles — the
//! machinery behind the measured Table II decomposition.

use std::fmt::Write as _;

use ips_metrics::{Histogram, HistogramSnapshot};

use crate::{SpanRecord, TraceId};

/// Serialize records to chrome://tracing / Perfetto `trace_event` JSON.
#[must_use]
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let mut lanes: Vec<TraceId> = Vec::new();
    let mut out = String::with_capacity(64 + records.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, rec) in records.iter().enumerate() {
        let tid = match lanes.iter().position(|t| *t == rec.trace) {
            Some(p) => p,
            None => {
                lanes.push(rec.trace);
                lanes.len() - 1
            }
        };
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"ips\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
            escape_json(rec.name),
            rec.start_us,
            rec.duration_us(),
            tid
        );
        let _ = write!(
            out,
            ",\"args\":{{\"trace\":\"{}\",\"span\":\"{}\"",
            rec.trace, rec.span
        );
        if let Some(parent) = rec.parent {
            let _ = write!(out, ",\"parent\":\"{parent}\"");
        }
        if rec.error {
            out.push_str(",\"error\":true");
        }
        for (k, v) in &rec.attrs {
            let _ = write!(out, ",\"{}\":\"{}\"", escape_json(k), escape_json(v));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Per-stage duration histograms, keyed by span name in first-seen order.
#[derive(Default)]
pub struct StageBreakdown {
    stages: Vec<(String, Histogram)>,
}

impl StageBreakdown {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration under `stage`.
    pub fn record(&mut self, stage: &str, duration_us: u64) {
        self.stage_mut(stage).record(duration_us);
    }

    /// Record a span's duration under its name.
    pub fn record_span(&mut self, rec: &SpanRecord) {
        self.record(rec.name, rec.duration_us());
    }

    pub fn record_all<'a>(&mut self, recs: impl IntoIterator<Item = &'a SpanRecord>) {
        for rec in recs {
            self.record_span(rec);
        }
    }

    /// Fold an externally collected histogram (e.g. one per endpoint) into
    /// a stage via [`Histogram::merge`].
    pub fn merge(&mut self, stage: &str, snapshot: &HistogramSnapshot) {
        self.stage_mut(stage).merge(snapshot);
    }

    fn stage_mut(&mut self, stage: &str) -> &Histogram {
        let idx = match self.stages.iter().position(|(name, _)| name == stage) {
            Some(idx) => idx,
            None => {
                self.stages.push((stage.to_string(), Histogram::new()));
                self.stages.len() - 1
            }
        };
        &self.stages[idx].1
    }

    /// Stages in first-seen order.
    pub fn stages(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.stages.iter().map(|(n, h)| (n.as_str(), h))
    }

    #[must_use]
    pub fn get(&self, stage: &str) -> Option<&Histogram> {
        self.stages
            .iter()
            .find(|(name, _)| name == stage)
            .map(|(_, h)| h)
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Render a plain-text percentile table (durations in ms).
    #[must_use]
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "  {:<16} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "stage", "count", "p50 ms", "p90 ms", "p99 ms", "mean ms", "max ms"
        );
        for (name, hist) in self.stages() {
            let s = hist.snapshot();
            let _ = writeln!(
                out,
                "  {:<16} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                name,
                s.count(),
                s.percentile(50.0) as f64 / 1_000.0,
                s.percentile(90.0) as f64 / 1_000.0,
                s.percentile(99.0) as f64 / 1_000.0,
                s.mean() / 1_000.0,
                s.max() as f64 / 1_000.0,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanId;

    fn rec(trace: u64, span: u64, name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            trace: TraceId(trace),
            span: SpanId(span),
            parent: (span > 1).then_some(SpanId(1)),
            name,
            start_us: start,
            end_us: end,
            error: false,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn chrome_json_has_expected_shape() {
        let mut r = rec(7, 1, "query", 100, 350);
        r.attrs.push(("endpoint", "r0-i1".to_string()));
        let json = chrome_trace_json(&[r, rec(7, 2, "cache", 120, 180)]);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"query\""));
        assert!(json.contains("\"dur\":250"));
        assert!(json.contains("\"endpoint\":\"r0-i1\""));
        assert!(json.contains("\"parent\":\"1\""));
    }

    #[test]
    fn chrome_json_assigns_one_lane_per_trace() {
        let json = chrome_trace_json(&[
            rec(10, 1, "a", 0, 1),
            rec(11, 1, "b", 0, 1),
            rec(10, 2, "c", 1, 2),
        ]);
        assert!(json.contains("\"tid\":0"));
        assert!(json.contains("\"tid\":1"));
        // Third record reuses lane 0 (same trace as the first).
        assert_eq!(json.matches("\"tid\":0").count(), 2);
    }

    #[test]
    fn chrome_json_escapes_attr_values() {
        let mut r = rec(1, 1, "attempt", 0, 5);
        r.error = true;
        r.attrs
            .push(("error", "endpoint \"r1-i0\" down\nretrying".to_string()));
        let json = chrome_trace_json(&[r]);
        assert!(json.contains("\\\"r1-i0\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"error\":true"));
        assert!(!json.contains('\n'), "raw newlines would break the JSON");
    }

    #[test]
    fn empty_records_still_valid_json_object() {
        let json = chrome_trace_json(&[]);
        assert_eq!(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
    }

    #[test]
    fn stage_breakdown_groups_by_name() {
        let mut b = StageBreakdown::new();
        b.record_all(&[
            rec(1, 1, "network", 0, 1_000),
            rec(1, 2, "network", 0, 3_000),
            rec(1, 3, "compute", 0, 200),
        ]);
        assert_eq!(b.get("network").map(Histogram::count), Some(2));
        assert_eq!(b.get("compute").map(Histogram::count), Some(1));
        assert!(b.get("cache").is_none());
        let names: Vec<_> = b.stages().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, ["network", "compute"], "first-seen order");
    }

    #[test]
    fn stage_breakdown_merges_external_histograms() {
        let per_endpoint_a = Histogram::new();
        let per_endpoint_b = Histogram::new();
        for _ in 0..50 {
            per_endpoint_a.record(1_000);
            per_endpoint_b.record(5_000);
        }
        let mut b = StageBreakdown::new();
        b.merge("server", &per_endpoint_a.snapshot());
        b.merge("server", &per_endpoint_b.snapshot());
        let merged = b.get("server").unwrap();
        assert_eq!(merged.count(), 100);
        assert!(merged.percentile(90.0) >= 4_900);
    }

    #[test]
    fn render_emits_one_row_per_stage() {
        let mut b = StageBreakdown::new();
        b.record("cache", 150);
        b.record("kv_fetch", 2_500);
        let table = b.render("decomposition");
        assert!(table.contains("decomposition"));
        assert!(table.contains("cache"));
        assert!(table.contains("kv_fetch"));
        assert!(table.contains("p99"));
        assert_eq!(table.lines().count(), 4, "title + header + 2 rows");
    }
}
