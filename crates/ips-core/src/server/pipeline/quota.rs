//! Per-caller QPS quotas (§IV intro, §V-b).
//!
//! One IPS cluster is shared by many upstream services; a QPS quota is
//! enforced per caller identity so one tenant's burst (or an offline
//! back-fill) cannot crowd out another's SLA. Implementation: a token
//! bucket per caller, refilled continuously against the shared clock, with
//! burst capacity a configurable multiple of one second's budget. Rejected
//! requests surface as [`ips_types::IpsError::QuotaExceeded`], matching the
//! paper's behaviour of rejecting until usage falls below the limit.
//!
//! [`super::admit`] is the only serving-path call site, and the bucket
//! charge is private to the pipeline. A rejection is terminal for the
//! caller — unlike an admission shed it must not be retried on another
//! replica, because the contract is per cluster, not per node.

use std::collections::HashMap;

use parking_lot::Mutex;

use ips_metrics::Counter;
use ips_types::{CallerId, IpsError, QuotaConfig, Result, SharedClock, Timestamp};

struct Bucket {
    tokens: f64,
    last_refill: Timestamp,
}

/// Token-bucket quota enforcement keyed by caller identity.
pub struct QuotaEnforcer {
    clock: SharedClock,
    /// Per-caller overrides; callers without one use `default_config`.
    configs: Mutex<HashMap<CallerId, QuotaConfig>>,
    default_config: QuotaConfig,
    buckets: Mutex<HashMap<CallerId, Bucket>>,
    pub admitted: Counter,
    pub rejected: Counter,
}

impl QuotaEnforcer {
    #[must_use]
    pub fn new(clock: SharedClock, default_config: QuotaConfig) -> Self {
        Self {
            clock,
            configs: Mutex::new(HashMap::new()),
            default_config,
            buckets: Mutex::new(HashMap::new()),
            admitted: Counter::new(),
            rejected: Counter::new(),
        }
    }

    /// Set (or update, live) one caller's quota.
    pub fn set_quota(&self, caller: CallerId, config: QuotaConfig) {
        self.configs.lock().insert(caller, config);
        // Reset the bucket so a *lower* new limit takes effect immediately
        // rather than after the old burst drains.
        self.buckets.lock().remove(&caller);
    }

    fn config_for(&self, caller: CallerId) -> QuotaConfig {
        self.configs
            .lock()
            .get(&caller)
            .copied()
            .unwrap_or(self.default_config)
    }

    /// The caller's fair-admission weight: its configured QPS contract.
    /// The tenant an operator granted the larger quota also gets the
    /// larger share of a contended worker pool. Never zero, so even a
    /// banned caller's queued work can drain.
    #[must_use]
    pub fn weight_for(&self, caller: CallerId) -> u64 {
        self.config_for(caller).qps_limit.max(1)
    }

    /// Admit or reject `cost` request units for `caller`. Visible only to
    /// the pipeline, so [`super::admit`] is the only place a request is
    /// charged.
    pub(super) fn check(&self, caller: CallerId, cost: u64) -> Result<()> {
        let config = self.config_for(caller);
        if config.qps_limit == 0 {
            self.rejected.inc();
            return Err(IpsError::QuotaExceeded(caller));
        }
        let now = self.clock.now();
        let capacity = config.qps_limit as f64 * config.burst_factor.max(1.0);
        let mut buckets = self.buckets.lock();
        let bucket = buckets.entry(caller).or_insert(Bucket {
            tokens: capacity,
            last_refill: now,
        });
        // Continuous refill at qps_limit tokens/second.
        let elapsed_ms = now
            .as_millis()
            .saturating_sub(bucket.last_refill.as_millis());
        if elapsed_ms > 0 {
            bucket.tokens = (bucket.tokens
                + config.qps_limit as f64 * (elapsed_ms as f64 / 1_000.0))
                .min(capacity);
            bucket.last_refill = now;
        }
        if bucket.tokens >= cost as f64 {
            bucket.tokens -= cost as f64;
            self.admitted.inc();
            Ok(())
        } else {
            self.rejected.inc();
            Err(IpsError::QuotaExceeded(caller))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_types::clock::sim_clock;
    use ips_types::DurationMs;

    fn enforcer(qps: u64) -> (QuotaEnforcer, ips_types::SimClock) {
        let (clock, ctl) = sim_clock(Timestamp::from_millis(1_000_000));
        (
            QuotaEnforcer::new(
                clock,
                QuotaConfig {
                    qps_limit: qps,
                    burst_factor: 1.0,
                },
            ),
            ctl,
        )
    }

    #[test]
    fn admits_under_limit() {
        let (q, _ctl) = enforcer(100);
        let caller = CallerId::new(1);
        for _ in 0..100 {
            q.check(caller, 1).unwrap();
        }
        assert_eq!(q.admitted.get(), 100);
    }

    #[test]
    fn rejects_over_limit_then_recovers() {
        let (q, ctl) = enforcer(100);
        let caller = CallerId::new(1);
        for _ in 0..100 {
            q.check(caller, 1).unwrap();
        }
        assert!(matches!(
            q.check(caller, 1),
            Err(IpsError::QuotaExceeded(c)) if c == caller
        ));
        // After a second, the bucket refills.
        ctl.advance(DurationMs::from_secs(1));
        q.check(caller, 1).unwrap();
    }

    #[test]
    fn burst_factor_allows_bursts() {
        let (clock, _ctl) = sim_clock(Timestamp::from_millis(1_000_000));
        let q = QuotaEnforcer::new(
            clock,
            QuotaConfig {
                qps_limit: 100,
                burst_factor: 2.0,
            },
        );
        let caller = CallerId::new(1);
        for _ in 0..200 {
            q.check(caller, 1).unwrap();
        }
        assert!(q.check(caller, 1).is_err());
    }

    #[test]
    fn callers_are_isolated() {
        let (q, _ctl) = enforcer(10);
        let offender = CallerId::new(1);
        let victim = CallerId::new(2);
        for _ in 0..10 {
            q.check(offender, 1).unwrap();
        }
        assert!(q.check(offender, 1).is_err());
        // The other caller is unaffected.
        for _ in 0..10 {
            q.check(victim, 1).unwrap();
        }
    }

    #[test]
    fn per_caller_override() {
        let (q, _ctl) = enforcer(1_000);
        let limited = CallerId::new(7);
        q.set_quota(
            limited,
            QuotaConfig {
                qps_limit: 2,
                burst_factor: 1.0,
            },
        );
        q.check(limited, 1).unwrap();
        q.check(limited, 1).unwrap();
        assert!(q.check(limited, 1).is_err());
        // Default callers still get the big limit.
        for _ in 0..500 {
            q.check(CallerId::new(8), 1).unwrap();
        }
    }

    #[test]
    fn zero_limit_rejects_everything() {
        let (q, _ctl) = enforcer(100);
        let banned = CallerId::new(3);
        q.set_quota(
            banned,
            QuotaConfig {
                qps_limit: 0,
                burst_factor: 1.0,
            },
        );
        assert!(q.check(banned, 1).is_err());
        assert_eq!(q.rejected.get(), 1);
    }

    #[test]
    fn batch_cost_consumes_multiple_tokens() {
        let (q, _ctl) = enforcer(100);
        let caller = CallerId::new(1);
        q.check(caller, 90).unwrap();
        assert!(q.check(caller, 20).is_err(), "only 10 tokens left");
        q.check(caller, 10).unwrap();
    }

    #[test]
    fn refill_caps_at_capacity() {
        let (q, ctl) = enforcer(100);
        let caller = CallerId::new(1);
        q.check(caller, 1).unwrap();
        ctl.advance(DurationMs::from_secs(3_600));
        // One hour idle must not bank an hour of tokens.
        for _ in 0..100 {
            q.check(caller, 1).unwrap();
        }
        assert!(q.check(caller, 1).is_err());
    }

    #[test]
    fn weight_follows_configured_qps_and_never_hits_zero() {
        let (q, _ctl) = enforcer(100);
        assert_eq!(q.weight_for(CallerId::new(1)), 100);
        q.set_quota(
            CallerId::new(2),
            QuotaConfig {
                qps_limit: 5_000,
                burst_factor: 1.0,
            },
        );
        assert_eq!(q.weight_for(CallerId::new(2)), 5_000);
        q.set_quota(
            CallerId::new(3),
            QuotaConfig {
                qps_limit: 0,
                burst_factor: 1.0,
            },
        );
        assert_eq!(
            q.weight_for(CallerId::new(3)),
            1,
            "banned caller still drains"
        );
    }
}
