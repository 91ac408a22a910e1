//! Request deadline budgets (the Table II latency contract, made explicit).
//!
//! A [`Deadline`] is a *remaining budget* in microseconds, not an absolute
//! wall-clock instant. That makes it safe to ship across the wire between
//! machines whose clocks are not synchronized: the client stamps the budget
//! it has left, every hop subtracts the time it measured itself consuming,
//! and whoever holds the budget when it reaches zero sheds the work instead
//! of computing it. No modeled time is ever charged.
//!
//! Each side [`arms`](Deadline::arm) its budget against the process-local
//! monotonic clock to get an [`ArmedDeadline`] that tracks real elapsed
//! time: the client once per logical request (every attempt, round and
//! region draws it down), the server on arrival (queue wait, compute).

use crate::clock::monotonic_micros;

/// A remaining time budget for one request, in microseconds.
///
/// `Deadline` is relative, so it survives serialization between machines
/// with unsynchronized clocks. A zero budget means "already expired".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline {
    budget_us: u64,
}

impl Deadline {
    /// A deadline with `budget_us` microseconds remaining.
    #[must_use]
    pub const fn from_budget_us(budget_us: u64) -> Self {
        Self { budget_us }
    }

    /// A deadline from a millisecond duration.
    #[must_use]
    pub const fn from_budget(budget: crate::time::DurationMs) -> Self {
        Self {
            budget_us: budget.as_millis() * 1000,
        }
    }

    /// Remaining budget in microseconds.
    #[must_use]
    pub const fn budget_us(self) -> u64 {
        self.budget_us
    }

    /// Whether the budget has run out.
    #[must_use]
    pub const fn is_expired(self) -> bool {
        self.budget_us == 0
    }

    /// Charge `us` microseconds of consumed time against the budget.
    /// Saturates at zero (expired) rather than underflowing.
    #[must_use]
    pub const fn saturating_sub_us(self, us: u64) -> Self {
        Self {
            budget_us: self.budget_us.saturating_sub(us),
        }
    }

    /// Anchor the budget to the process-local monotonic clock, so real
    /// elapsed time (queue wait, compute) decrements it from now on.
    #[must_use]
    pub fn arm(self) -> ArmedDeadline {
        ArmedDeadline {
            budget_us: self.budget_us,
            armed_at_us: monotonic_micros(),
        }
    }
}

/// A [`Deadline`] anchored to this process's monotonic clock at arrival.
#[derive(Clone, Copy, Debug)]
pub struct ArmedDeadline {
    budget_us: u64,
    armed_at_us: u64,
}

impl ArmedDeadline {
    /// Microseconds of real time consumed since arming.
    #[must_use]
    pub fn elapsed_us(&self) -> u64 {
        monotonic_micros().saturating_sub(self.armed_at_us)
    }

    /// The budget that remains after subtracting elapsed real time.
    #[must_use]
    pub fn remaining(&self) -> Deadline {
        Deadline::from_budget_us(self.budget_us.saturating_sub(self.elapsed_us()))
    }

    /// Whether the budget has been fully consumed.
    #[must_use]
    pub fn is_expired(&self) -> bool {
        self.remaining().is_expired()
    }

    /// The budget this deadline was armed with (before elapsed time).
    #[must_use]
    pub const fn budget_us(&self) -> u64 {
        self.budget_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::DurationMs;

    #[test]
    fn budget_charges_saturate_to_expired() {
        let d = Deadline::from_budget(DurationMs::from_millis(2));
        assert_eq!(d.budget_us(), 2000);
        assert!(!d.is_expired());
        let d = d.saturating_sub_us(1500);
        assert_eq!(d.budget_us(), 500);
        let d = d.saturating_sub_us(10_000);
        assert!(d.is_expired());
        assert_eq!(d.budget_us(), 0);
    }

    #[test]
    fn armed_deadline_tracks_real_elapsed_time() {
        let armed = Deadline::from_budget(DurationMs::from_secs(60)).arm();
        assert!(!armed.is_expired());
        // Remaining can only shrink, never grow.
        let r1 = armed.remaining().budget_us();
        let r2 = armed.remaining().budget_us();
        assert!(r2 <= r1);
        assert!(r1 <= armed.budget_us());
    }

    #[test]
    fn zero_budget_arms_expired() {
        let armed = Deadline::from_budget_us(0).arm();
        assert!(armed.is_expired());
        assert_eq!(armed.remaining().budget_us(), 0);
    }
}
