//! Sample summaries: the median, and the highest percentile the sample
//! count supports.
//!
//! A tail percentile is only as good as the number of samples beyond it, so
//! every tail this benchmark reports is the highest rung of [`LADDER`] that
//! still has at least [`MIN_BEYOND`] samples above it, and the result file
//! carries the rung actually used next to the value.

/// Percentile rungs, highest first.
pub const LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples, in exact
/// integer arithmetic (percentiles are whole hundredths of a percent).
fn rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as usize;
    (n * hundredths).div_ceil(10_000).clamp(1, n.max(1))
}

/// The highest rung of [`LADDER`] not above `cap` that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it; the median when none does.
#[must_use]
pub fn supported_percentile(n: usize, cap: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| n >= rank(n, p) + MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// A summarised timing sample.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: u64,
    /// The percentile reported in the tail slot (≤ the requested cap).
    pub tail_percentile: f64,
    pub tail: u64,
}

/// Summarise `samples` (any order): median plus the highest supported
/// percentile not above `cap`.
#[must_use]
pub fn summarize(samples: &[u64], cap: f64) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let tail_percentile = supported_percentile(sorted.len(), cap);
    Summary {
        samples: sorted.len(),
        p50: percentile(&sorted, 50.0),
        tail_percentile,
        tail: percentile(&sorted, tail_percentile),
    }
}

/// Median of a float sample (0 for an empty one); the mean of the two
/// middle values for an even count, as Python's `statistics.median`.
#[must_use]
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them; `None` below two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks; the rank is clamped first and
        // the remainder taken against the clamped rank, exactly as CPython.
        let j = ((k * (n + 1)) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median (the run-to-run spread
/// the benchmark's bounds are judged against); `None` below two values or
/// for a zero median.
#[must_use]
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median_f64(values);
    (m != 0.0).then(|| (q3 - q1).abs() / m.abs())
}
