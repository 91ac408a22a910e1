//! What a client call reports besides its answer: the bytes each attempt
//! moved ([`WireLog`]), and the client-wide counters.

use ips_core::query::QueryResult;
use ips_types::Result;

use super::IpsClusterClient;
use crate::rpc::FrameBytes;

/// One attempt's frame inside a [`WireLog`]: where it ran and the bytes it
/// delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireFrame {
    /// Which side-by-side branch the frame belongs to: the region index of
    /// a write fan-out (regions are independent writes), 0 for reads.
    pub lane: u32,
    /// Position within the lane. Frames of one round were dispatched
    /// together (one per owner); a round starts only after the previous
    /// one's outcomes are known.
    pub round: u32,
    pub bytes: FrameBytes,
}

/// The measured wire facts of one client call: every attempt's bytes,
/// failed attempts included, tagged with the lane and round it ran in.
/// Serving code records no time; the experiment harnesses price a log
/// offline (a round costs its slowest frame, rounds add, a write costs its
/// slowest lane).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireLog {
    frames: Vec<WireFrame>,
}

impl WireLog {
    /// Every attempt's frame, in dispatch order.
    #[must_use]
    pub fn frames(&self) -> &[WireFrame] {
        &self.frames
    }

    /// Record one attempt's frame.
    pub fn push(&mut self, lane: u32, round: u32, bytes: FrameBytes) {
        self.frames.push(WireFrame { lane, round, bytes });
    }

    /// The round after the last one recorded in `lane`.
    pub(crate) fn next_round(&self, lane: u32) -> u32 {
        self.frames
            .iter()
            .filter(|f| f.lane == lane)
            .map(|f| f.round + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Outcome of one batched query fan-out: per-sub-query results in input
/// order plus the bytes every frame moved.
#[derive(Debug, Default)]
pub struct BatchQueryOutcome {
    /// One entry per input query, in input order. Sub-queries that
    /// exhausted failover carry their last error; siblings are unaffected.
    pub results: Vec<Result<QueryResult>>,
    /// One frame per owner per failover round.
    pub wire: WireLog,
}

impl BatchQueryOutcome {
    /// True when every sub-query succeeded.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(Result::is_ok)
    }
}

/// Client-side counters (Fig 17's error-rate series reads these).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    pub attempts: u64,
    pub successes: u64,
    pub failures: u64,
    pub retries: u64,
    /// Results served degraded (stale) instead of failing.
    pub degraded: u64,
}

impl IpsClusterClient {
    /// Snapshot the client's counters.
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            attempts: self.attempts.get(),
            successes: self.successes.get(),
            failures: self.failures.get(),
            retries: self.retries.get(),
            degraded: self.degraded.get(),
        }
    }

    /// Client-observed error rate since start (terminal failures over
    /// attempts) — the Fig 17 metric.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        let attempts = self.attempts.get();
        if attempts == 0 {
            0.0
        } else {
            self.failures.get() as f64 / attempts as f64
        }
    }
}
