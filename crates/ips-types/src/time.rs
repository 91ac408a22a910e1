//! Time primitives: millisecond timestamps, durations and the three query
//! time-range kinds the paper's read APIs accept (CURRENT, RELATIVE,
//! ABSOLUTE).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Milliseconds since an arbitrary epoch. All profile data carries one.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

/// A span of time in milliseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DurationMs(pub u64);

impl Timestamp {
    pub const ZERO: Timestamp = Timestamp(0);
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms)
    }

    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Saturating subtraction of a duration; clamps at the epoch.
    #[inline]
    #[must_use]
    pub fn saturating_sub(self, d: DurationMs) -> Self {
        Self(self.0.saturating_sub(d.0))
    }

    /// Saturating addition of a duration; clamps at `Timestamp::MAX`.
    #[inline]
    #[must_use]
    pub fn saturating_add(self, d: DurationMs) -> Self {
        Self(self.0.saturating_add(d.0))
    }

    /// The absolute distance between two instants.
    #[inline]
    #[must_use]
    pub fn distance(self, other: Timestamp) -> DurationMs {
        DurationMs(self.0.abs_diff(other.0))
    }
}

impl DurationMs {
    pub const ZERO: DurationMs = DurationMs(0);

    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms)
    }

    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Self(s * 1_000)
    }

    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        Self(m * 60_000)
    }

    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        Self(h * 3_600_000)
    }

    #[inline]
    pub const fn from_days(d: u64) -> Self {
        Self(d * 86_400_000)
    }

    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Parse a compact duration literal as used in the paper's time-dimension
    /// configuration: `"1s"`, `"10m"`, `"1h"`, `"24h"`, `"30d"`, `"365d"`,
    /// plus bare milliseconds like `"500ms"` and `"0s"`.
    pub fn parse(text: &str) -> Option<Self> {
        let text = text.trim();
        let split = text.find(|c: char| !c.is_ascii_digit())?;
        let (num, unit) = text.split_at(split);
        let n: u64 = num.parse().ok()?;
        match unit {
            "ms" => Some(Self::from_millis(n)),
            "s" => Some(Self::from_secs(n)),
            "m" => Some(Self::from_mins(n)),
            "h" => Some(Self::from_hours(n)),
            "d" => Some(Self::from_days(n)),
            _ => None,
        }
    }
}

impl Add<DurationMs> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, rhs: DurationMs) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<DurationMs> for Timestamp {
    #[inline]
    fn add_assign(&mut self, rhs: DurationMs) {
        self.0 += rhs.0;
    }
}

impl Sub<DurationMs> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn sub(self, rhs: DurationMs) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = DurationMs;
    #[inline]
    fn sub(self, rhs: Timestamp) -> DurationMs {
        DurationMs(self.0 - rhs.0)
    }
}

impl Add<DurationMs> for DurationMs {
    type Output = DurationMs;
    #[inline]
    fn add(self, rhs: DurationMs) -> DurationMs {
        DurationMs(self.0 + rhs.0)
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}ms", self.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for DurationMs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for DurationMs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        if ms == 0 {
            return write!(f, "0s");
        }
        if ms.is_multiple_of(86_400_000) {
            write!(f, "{}d", ms / 86_400_000)
        } else if ms.is_multiple_of(3_600_000) {
            write!(f, "{}h", ms / 3_600_000)
        } else if ms.is_multiple_of(60_000) {
            write!(f, "{}m", ms / 60_000)
        } else if ms.is_multiple_of(1_000) {
            write!(f, "{}s", ms / 1_000)
        } else {
            write!(f, "{ms}ms")
        }
    }
}

/// The three time-range kinds supported by every read API (§II-B).
///
/// A query's time range is resolved against the current moment (`now`) and,
/// for [`TimeRange::Relative`], against the timestamp of the profile's most
/// recent action, producing a closed-open absolute window
/// `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TimeRange {
    /// Window ends at the current moment and reaches `lookback` into the past:
    /// `[now - lookback, now)`.
    Current { lookback: DurationMs },
    /// Window starts at the profile's most recent action `t_last` and reaches
    /// `lookback` into the past from there: `[t_last - lookback, t_last]`.
    /// Useful for dormant users whose last activity is long ago.
    Relative { lookback: DurationMs },
    /// An arbitrary historical window `[start, end)`.
    Absolute { start: Timestamp, end: Timestamp },
}

/// A fully resolved closed-open window `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ResolvedWindow {
    pub start: Timestamp,
    pub end: Timestamp,
}

impl ResolvedWindow {
    /// Does this window contain `t`?
    #[inline]
    #[must_use]
    pub fn contains(&self, t: Timestamp) -> bool {
        t >= self.start && t < self.end
    }

    /// Does this window overlap the closed-open interval `[lo, hi)`?
    #[inline]
    #[must_use]
    pub fn overlaps(&self, lo: Timestamp, hi: Timestamp) -> bool {
        self.start < hi && lo < self.end
    }

    /// Window length; zero if degenerate.
    #[inline]
    #[must_use]
    pub fn len(&self) -> DurationMs {
        DurationMs(self.end.0.saturating_sub(self.start.0))
    }

    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

impl TimeRange {
    /// Convenience: the last `lookback` ending now.
    #[must_use]
    pub fn last(lookback: DurationMs) -> Self {
        TimeRange::Current { lookback }
    }

    /// Convenience: the last `n` days ending now.
    #[must_use]
    pub fn last_days(n: u64) -> Self {
        TimeRange::Current {
            lookback: DurationMs::from_days(n),
        }
    }

    /// Resolve to an absolute window.
    ///
    /// * `now` — the current moment.
    /// * `last_action` — the timestamp of the profile's most recent data, if
    ///   any; only consulted for [`TimeRange::Relative`]. A relative range on
    ///   an empty profile resolves to an empty window.
    #[must_use]
    pub fn resolve(&self, now: Timestamp, last_action: Option<Timestamp>) -> ResolvedWindow {
        match *self {
            // Nudge the end past `now` so data stamped exactly at the
            // current moment (the common "write then immediately query"
            // pattern) falls inside the closed-open window.
            TimeRange::Current { lookback } => ResolvedWindow {
                start: now.saturating_sub(lookback),
                end: now.saturating_add(DurationMs(1)),
            },
            TimeRange::Relative { lookback } => match last_action {
                // Closed at t_last: nudge end past the anchor action so it is
                // included in the closed-open window.
                Some(t_last) => ResolvedWindow {
                    start: t_last.saturating_sub(lookback),
                    end: t_last.saturating_add(DurationMs(1)),
                },
                None => ResolvedWindow {
                    start: now,
                    end: now,
                },
            },
            TimeRange::Absolute { start, end } => ResolvedWindow { start, end },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_parse_units() {
        assert_eq!(DurationMs::parse("1s"), Some(DurationMs::from_secs(1)));
        assert_eq!(DurationMs::parse("10m"), Some(DurationMs::from_mins(10)));
        assert_eq!(DurationMs::parse("24h"), Some(DurationMs::from_hours(24)));
        assert_eq!(DurationMs::parse("30d"), Some(DurationMs::from_days(30)));
        assert_eq!(DurationMs::parse("500ms"), Some(DurationMs(500)));
        assert_eq!(DurationMs::parse("0s"), Some(DurationMs::ZERO));
        assert_eq!(DurationMs::parse(" 5m "), Some(DurationMs::from_mins(5)));
    }

    #[test]
    fn duration_parse_rejects_garbage() {
        assert_eq!(DurationMs::parse(""), None);
        assert_eq!(DurationMs::parse("10"), None);
        assert_eq!(DurationMs::parse("m"), None);
        assert_eq!(DurationMs::parse("5w"), None);
        assert_eq!(DurationMs::parse("-5m"), None);
    }

    #[test]
    fn duration_display_round_trips() {
        for text in ["1s", "10m", "1h", "24h", "30d", "365d", "7ms"] {
            let d = DurationMs::parse(text).unwrap();
            assert_eq!(DurationMs::parse(&d.to_string()), Some(d));
        }
        // 24h displays as 1d (same value).
        assert_eq!(DurationMs::parse("24h").unwrap().to_string(), "1d");
    }

    #[test]
    fn current_range_resolution() {
        let now = Timestamp::from_millis(100_000);
        let w = TimeRange::last(DurationMs::from_secs(10)).resolve(now, None);
        assert_eq!(w.start, Timestamp::from_millis(90_000));
        assert_eq!(w.end, now.saturating_add(DurationMs(1)));
        assert!(w.contains(Timestamp::from_millis(95_000)));
        assert!(
            w.contains(now),
            "the current moment is inside a CURRENT window"
        );
        assert!(!w.contains(now.saturating_add(DurationMs(1))));
    }

    #[test]
    fn current_range_saturates_at_epoch() {
        let w = TimeRange::last(DurationMs::from_days(365)).resolve(Timestamp(5), None);
        assert_eq!(w.start, Timestamp::ZERO);
    }

    #[test]
    fn relative_range_anchors_on_last_action() {
        let now = Timestamp::from_millis(1_000_000);
        let t_last = Timestamp::from_millis(400_000);
        let w = TimeRange::Relative {
            lookback: DurationMs::from_secs(100),
        }
        .resolve(now, Some(t_last));
        assert_eq!(w.start, Timestamp::from_millis(300_000));
        assert!(
            w.contains(t_last),
            "anchor action must be inside the window"
        );
        assert!(!w.contains(Timestamp::from_millis(400_001)));
    }

    #[test]
    fn relative_range_on_empty_profile_is_empty() {
        let now = Timestamp::from_millis(1_000);
        let w = TimeRange::Relative {
            lookback: DurationMs::from_secs(100),
        }
        .resolve(now, None);
        assert!(w.is_empty());
    }

    #[test]
    fn absolute_range_passthrough() {
        let w = TimeRange::Absolute {
            start: Timestamp(10),
            end: Timestamp(20),
        }
        .resolve(Timestamp(99), Some(Timestamp(55)));
        assert_eq!((w.start, w.end), (Timestamp(10), Timestamp(20)));
    }

    #[test]
    fn window_overlap_logic() {
        let w = ResolvedWindow {
            start: Timestamp(10),
            end: Timestamp(20),
        };
        assert!(w.overlaps(Timestamp(0), Timestamp(11)));
        assert!(w.overlaps(Timestamp(19), Timestamp(30)));
        assert!(!w.overlaps(Timestamp(20), Timestamp(30))); // touching, open end
        assert!(!w.overlaps(Timestamp(0), Timestamp(10))); // touching, open end
        assert!(w.overlaps(Timestamp(12), Timestamp(15))); // contained
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_millis(1_000);
        assert_eq!(t + DurationMs(500), Timestamp(1_500));
        assert_eq!(t - DurationMs(500), Timestamp(500));
        assert_eq!(Timestamp(1_500) - t, DurationMs(500));
        assert_eq!(t.distance(Timestamp(400)), DurationMs(600));
        assert_eq!(Timestamp(400).distance(t), DurationMs(600));
    }
}
