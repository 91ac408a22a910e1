//! Per-endpoint health: a consecutive-failure circuit breaker with
//! half-open probing.
//!
//! The seed client's only routing signal was the binary `is_down` flag an
//! attempt discovers *after* paying for the failed call. Health tracking
//! turns past outcomes into a forward signal: after
//! [`failure_threshold`](ips_types::CircuitBreakerConfig::failure_threshold)
//! consecutive failures the breaker opens and the endpoint stops receiving
//! traffic; after a cooldown one probe request is let through (half-open),
//! and its outcome either closes the breaker or re-opens it for another
//! cooldown. Routing always fails open: blocked candidates are demoted to
//! the end of the failover walk rather than excluded from it, so a breaker
//! can deprioritise an endpoint but never cause an outage on its own.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use ips_types::CircuitBreakerConfig;

/// Observable breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: all traffic admitted.
    Closed,
    /// Tripped: traffic blocked until the cooldown elapses.
    Open,
    /// One probe is in flight; everyone else is still blocked.
    HalfOpen,
}

const STATE_CLOSED: u8 = 0;
const STATE_OPEN: u8 = 1;
const STATE_HALF_OPEN: u8 = 2;

/// Health record for one endpoint.
pub struct EndpointHealth {
    config: CircuitBreakerConfig,
    state: AtomicU8,
    consecutive_failures: AtomicU32,
    /// Monotonic µs at which the breaker last opened.
    opened_at_us: AtomicU64,
}

impl EndpointHealth {
    #[must_use]
    pub fn new(config: CircuitBreakerConfig) -> Self {
        Self {
            config,
            state: AtomicU8::new(STATE_CLOSED),
            consecutive_failures: AtomicU32::new(0),
            opened_at_us: AtomicU64::new(0),
        }
    }

    /// Current breaker state.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Acquire) {
            STATE_OPEN => BreakerState::Open,
            STATE_HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Should a request be sent to this endpoint right now? `now_us` is a
    /// monotonic-microsecond reading. Closed admits everyone; open admits
    /// nobody until the cooldown elapses, at which point exactly one caller
    /// wins the CAS and becomes the half-open probe.
    pub(super) fn try_admit(&self, now_us: u64) -> bool {
        match self.state.load(Ordering::Acquire) {
            STATE_CLOSED => true,
            STATE_HALF_OPEN => false,
            _ => {
                let opened = self.opened_at_us.load(Ordering::Acquire);
                let cooldown_us = self.config.cooldown.as_millis().saturating_mul(1_000);
                if now_us.saturating_sub(opened) < cooldown_us {
                    return false;
                }
                // Cooldown over: exactly one caller becomes the probe.
                self.state
                    .compare_exchange(
                        STATE_OPEN,
                        STATE_HALF_OPEN,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
            }
        }
    }

    /// Record a successful attempt: the failure streak resets, and any
    /// open/half-open breaker closes.
    pub fn on_success(&self) {
        self.consecutive_failures.store(0, Ordering::Release);
        self.state.store(STATE_CLOSED, Ordering::Release);
    }

    /// Record a failed attempt. A half-open probe failure re-opens the
    /// breaker immediately; otherwise the breaker opens once the streak
    /// reaches the configured threshold.
    pub fn on_failure(&self, now_us: u64) {
        let streak = self
            .consecutive_failures
            .fetch_add(1, Ordering::AcqRel)
            .saturating_add(1);
        let state = self.state.load(Ordering::Acquire);
        let threshold = self.config.failure_threshold.max(1);
        if state == STATE_HALF_OPEN || (state == STATE_CLOSED && streak >= threshold) {
            self.opened_at_us.store(now_us, Ordering::Release);
            self.state.store(STATE_OPEN, Ordering::Release);
        }
    }

    /// Consecutive failures observed since the last success.
    #[must_use]
    pub fn failure_streak(&self) -> u32 {
        self.consecutive_failures.load(Ordering::Acquire)
    }
}

/// Name-keyed registry of endpoint health records, created on demand.
pub struct HealthRegistry {
    config: RwLock<CircuitBreakerConfig>,
    endpoints: RwLock<HashMap<String, Arc<EndpointHealth>>>,
}

impl HealthRegistry {
    #[must_use]
    pub fn new(config: CircuitBreakerConfig) -> Self {
        Self {
            config: RwLock::new(config),
            endpoints: RwLock::new(HashMap::new()),
        }
    }

    /// The health record for `name`, created closed on first sight.
    #[must_use]
    pub fn for_endpoint(&self, name: &str) -> Arc<EndpointHealth> {
        if let Some(h) = self.endpoints.read().get(name) {
            return Arc::clone(h);
        }
        let mut map = self.endpoints.write();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(EndpointHealth::new(*self.config.read()))),
        )
    }

    /// Replace the breaker config and reset all state (used by tests and
    /// reconfiguration; existing streak history is deliberately dropped —
    /// it was accumulated under different rules).
    pub fn set_config(&self, config: CircuitBreakerConfig) {
        *self.config.write() = config;
        self.endpoints.write().clear();
    }

    /// Drop records for endpoints no longer in the discovered set, so a
    /// scaled-in instance's state cannot leak onto a future namesake.
    pub fn retain(&self, keep: impl Fn(&str) -> bool) {
        self.endpoints.write().retain(|name, _| keep(name));
    }

    /// Number of tracked endpoints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.endpoints.read().len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.endpoints.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_types::DurationMs;

    fn config(threshold: u32, cooldown_ms: u64) -> CircuitBreakerConfig {
        CircuitBreakerConfig {
            failure_threshold: threshold,
            cooldown: DurationMs::from_millis(cooldown_ms),
        }
    }

    #[test]
    fn breaker_opens_after_consecutive_failures() {
        let h = EndpointHealth::new(config(3, 100));
        assert_eq!(h.state(), BreakerState::Closed);
        h.on_failure(1_000);
        h.on_failure(2_000);
        assert_eq!(h.state(), BreakerState::Closed, "streak below threshold");
        assert!(h.try_admit(2_500));
        h.on_failure(3_000);
        assert_eq!(h.state(), BreakerState::Open);
        assert!(!h.try_admit(3_001), "open breaker blocks traffic");
    }

    #[test]
    fn success_resets_streak() {
        let h = EndpointHealth::new(config(3, 100));
        h.on_failure(1);
        h.on_failure(2);
        h.on_success();
        h.on_failure(3);
        h.on_failure(4);
        assert_eq!(
            h.state(),
            BreakerState::Closed,
            "streak restarted after success"
        );
    }

    #[test]
    fn half_open_probe_single_admission_then_close_on_success() {
        let h = EndpointHealth::new(config(1, 100));
        h.on_failure(0);
        assert_eq!(h.state(), BreakerState::Open);
        // Cooldown (100 ms = 100_000 µs) not yet elapsed.
        assert!(!h.try_admit(50_000));
        // Elapsed: exactly one admission wins the probe slot.
        assert!(h.try_admit(100_000));
        assert_eq!(h.state(), BreakerState::HalfOpen);
        assert!(!h.try_admit(100_001), "only one probe at a time");
        h.on_success();
        assert_eq!(h.state(), BreakerState::Closed);
        assert!(h.try_admit(100_002));
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let h = EndpointHealth::new(config(1, 100));
        h.on_failure(0);
        assert!(h.try_admit(100_000));
        h.on_failure(150_000);
        assert_eq!(h.state(), BreakerState::Open);
        // New cooldown counts from the probe failure.
        assert!(!h.try_admit(200_000));
        assert!(h.try_admit(250_000));
    }

    #[test]
    fn registry_creates_prunes_and_isolates_endpoints() {
        let reg = HealthRegistry::new(config(1, 100));
        let a = reg.for_endpoint("a");
        let b = reg.for_endpoint("b");
        a.on_failure(0);
        assert_eq!(a.state(), BreakerState::Open);
        assert_eq!(b.state(), BreakerState::Closed, "breakers are per-endpoint");
        assert!(Arc::ptr_eq(&reg.for_endpoint("a"), &a), "stable identity");
        assert_eq!(reg.len(), 2);
        reg.retain(|name| name == "b");
        assert_eq!(reg.len(), 1);
        // A fresh record under the old name starts closed.
        assert_eq!(reg.for_endpoint("a").state(), BreakerState::Closed);
    }
}
