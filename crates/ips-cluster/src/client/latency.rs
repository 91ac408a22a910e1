//! Latency decomposition: the modeled + measured components a client
//! reports per request, and the modeled persistent-store fetch.

use rand::rngs::SmallRng;

use ips_core::query::QueryResult;
use ips_types::Result;

use super::IpsClusterClient;

/// Modeled + measured components of one request's latency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Modeled network transit (request + response).
    pub network_us: u64,
    /// Measured in-process server time (compute + codec).
    pub server_us: u64,
    /// Modeled persistent-store fetch time (cache misses only).
    pub storage_us: u64,
}

impl LatencyBreakdown {
    /// End-to-end client-observed latency.
    #[must_use]
    pub fn total_us(&self) -> u64 {
        self.network_us + self.server_us + self.storage_us
    }

    /// Combine the wall-clock measurement of a call with its modeled
    /// components. Modeled time is sampled, never slept, so `elapsed_us`
    /// contains none of it: the measurement *is* the server component and
    /// `total_us()` is the plain sum.
    #[must_use]
    pub fn from_call(elapsed_us: u64, network_us: u64, storage_us: u64) -> Self {
        Self {
            network_us,
            server_us: elapsed_us,
            storage_us,
        }
    }
}

/// Outcome of one batched query fan-out: per-sub-query results in input
/// order plus the batch-level latency breakdown.
#[derive(Debug, Default)]
pub struct BatchQueryOutcome {
    /// One entry per input query, in input order. Sub-queries that
    /// exhausted failover carry their last error; siblings are unaffected.
    pub results: Vec<Result<QueryResult>>,
    /// Batch-level latency: frames within a failover round are modeled as
    /// overlapping (the round costs its slowest frame), rounds sum.
    pub latency: LatencyBreakdown,
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
    /// Model the persistent-store work a query's cache access performed.
    /// Results that report the measured fetch shape (round trips + bytes —
    /// a projected slice load is far smaller than a full-profile fetch) get
    /// a shape-aware sample; miss results from older peers that only flag
    /// `cache_hit = false` fall back to the legacy flat 32 KiB fetch.
    pub(super) fn modeled_storage_us(&self, result: &QueryResult, rng: &mut SmallRng) -> u64 {
        if result.kv_round_trips > 0 {
            let us = self.storage_model.sample_fetch_us(
                result.kv_round_trips,
                result.kv_bytes_read as usize,
                rng,
            );
            ips_trace::record_modeled("kv_fetch", us);
            us
        } else if !result.cache_hit {
            let us = self.storage_model.sample_us(32 << 10, rng);
            ips_trace::record_modeled("kv_fetch", us);
            us
        } else {
            0
        }
    }

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
