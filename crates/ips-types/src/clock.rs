//! Clock abstraction.
//!
//! The paper's evaluation covers simulated *days* of traffic (Figs 16, 17,
//! 19) and a full year of profile growth (§III-D). Experiments therefore run
//! on a virtual [`SimClock`] that harnesses advance explicitly, while live
//! servers use [`SystemClock`]. Engine code takes a [`SharedClock`] and never
//! calls `std::time` directly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::time::{DurationMs, Timestamp};

/// Microseconds elapsed since an arbitrary process-wide anchor.
///
/// This is the *duration-measurement* primitive behind span timings and
/// latency histograms: monotonic, microsecond-resolution, comparable across
/// threads within one process. It deliberately measures real elapsed time
/// even under a [`SimClock`] — simulated time governs *logical* time
/// (data timestamps, TTLs, windows), while latency attribution measures how
/// long the code actually ran. Serving crates must call this (or
/// [`Clock::monotonic_micros`]) instead of `std::time::Instant::now()`
/// directly; the serving-code clippy run (`clippy/serving/clippy.toml`)
/// enforces it, and this module is the one sanctioned home of the real clock.
#[must_use]
#[allow(clippy::disallowed_methods, reason = "the sanctioned duration anchor")]
pub fn monotonic_micros() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// A source of "now".
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// The current instant (logical time).
    fn now(&self) -> Timestamp;

    /// Monotonic microseconds for duration measurement (see
    /// [`monotonic_micros`]). Implementations may override this to make
    /// measured durations deterministic; the default measures real time.
    fn monotonic_micros(&self) -> u64 {
        monotonic_micros()
    }
}

/// Wall-clock time (milliseconds since the Unix epoch).
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl Clock for SystemClock {
    /// A host clock set before 1970 reads as the epoch rather than panicking.
    #[allow(clippy::disallowed_methods, reason = "the sanctioned wall-clock")]
    fn now(&self) -> Timestamp {
        let ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        Timestamp::from_millis(ms)
    }
}

/// A manually advanced virtual clock for deterministic simulation.
///
/// Cloning shares the underlying instant: every component holding a clone of
/// the same `SimClock` observes the same time.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_ms: Arc<AtomicU64>,
}

impl SimClock {
    /// A simulated clock starting at `start`.
    #[must_use]
    pub fn new(start: Timestamp) -> Self {
        Self {
            now_ms: Arc::new(AtomicU64::new(start.as_millis())),
        }
    }

    /// A simulated clock starting at a conventional non-zero origin (one year
    /// in), so `now - lookback` windows don't clamp at the epoch.
    #[must_use]
    pub fn at_origin() -> Self {
        Self::new(Timestamp::from_millis(
            DurationMs::from_days(365).as_millis(),
        ))
    }

    /// Advance the clock by `d` and return the new now.
    pub fn advance(&self, d: DurationMs) -> Timestamp {
        let new = self.now_ms.fetch_add(d.as_millis(), Ordering::SeqCst) + d.as_millis();
        Timestamp::from_millis(new)
    }

    /// Jump directly to `t`. Panics if `t` is in the past: simulated time is
    /// monotonic, like the engine assumes.
    pub fn set(&self, t: Timestamp) {
        let prev = self.now_ms.swap(t.as_millis(), Ordering::SeqCst);
        assert!(
            t.as_millis() >= prev,
            "SimClock must not move backwards ({prev} -> {})",
            t.as_millis()
        );
    }
}

impl Clock for SimClock {
    fn now(&self) -> Timestamp {
        Timestamp::from_millis(self.now_ms.load(Ordering::SeqCst))
    }
}

/// Shared, dynamically dispatched clock handle.
pub type SharedClock = Arc<dyn Clock>;

/// Convenience: a shared wall clock.
#[must_use]
pub fn system_clock() -> SharedClock {
    Arc::new(SystemClock)
}

/// Convenience: a shared simulated clock plus a handle for advancing it.
#[must_use]
pub fn sim_clock(start: Timestamp) -> (SharedClock, SimClock) {
    let sim = SimClock::new(start);
    (Arc::new(sim.clone()) as SharedClock, sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_moves_forward() {
        let c = SystemClock;
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        assert!(a.as_millis() > 1_600_000_000_000, "should be post-2020");
    }

    #[test]
    fn sim_clock_advances_and_shares() {
        let (shared, ctl) = sim_clock(Timestamp::from_millis(100));
        assert_eq!(shared.now(), Timestamp::from_millis(100));
        ctl.advance(DurationMs::from_secs(5));
        assert_eq!(shared.now(), Timestamp::from_millis(5_100));
        let clone = ctl.clone();
        clone.advance(DurationMs(1));
        assert_eq!(shared.now(), Timestamp::from_millis(5_101));
    }

    #[test]
    fn sim_clock_set_jumps_forward() {
        let c = SimClock::new(Timestamp::from_millis(10));
        c.set(Timestamp::from_millis(500));
        assert_eq!(c.now(), Timestamp::from_millis(500));
    }

    #[test]
    #[should_panic(expected = "must not move backwards")]
    fn sim_clock_rejects_backwards_jump() {
        let c = SimClock::new(Timestamp::from_millis(500));
        c.set(Timestamp::from_millis(10));
    }

    #[test]
    fn origin_clock_is_deep_enough_for_year_windows() {
        let c = SimClock::at_origin();
        let w = crate::time::TimeRange::last(DurationMs::from_days(365)).resolve(c.now(), None);
        assert_eq!(w.start, Timestamp::ZERO);
        assert!(!w.is_empty());
    }
}
