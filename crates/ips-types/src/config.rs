//! Configuration structures.
//!
//! IPS behaviour is driven by per-table configuration: the *time-dimension*
//! map that governs compaction granularity (Listings 2–3 in the paper), the
//! truncate and shrink policies (§III-D, Listing 4), the pre-configured
//! aggregate (reduce) function applied during slice merges and queries, cache
//! sizing, read-write isolation and per-caller quotas. A table's config is
//! hot-reloadable (§V-b): the engine reads it through a swap-on-write handle
//! (`ips-core::hotconfig`) on every request, so a live edit applies to the
//! next one. Two [`TableConfig`] fields are fixed when the table is created,
//! because the table's cache and persister are built from them:
//! [`TableConfig::cache`] and [`TableConfig::persistence`]. A live edit of
//! either is refused.

use crate::counts::CountVector;
use crate::ids::SlotId;
use crate::time::DurationMs;

/// The pre-configured reduce function applied when merging the same feature
/// id across slices or during compaction (§III-D: "the feature count of the
/// same FID can be aggregated according to the pre-configured reduce function
/// (e.g. SUM, MAX)").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum AggregateFunction {
    /// Element-wise saturating sum — the overwhelmingly common choice.
    #[default]
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
    /// Last (most recent) value wins — used for volatile signals such as
    /// bidding prices in the advertising use case (§I-d).
    Last,
}

impl AggregateFunction {
    /// Apply this function: fold `src` into `acc`.
    ///
    /// `src_is_newer` matters only for [`AggregateFunction::Last`]: the merge
    /// network visits slices newest-first, so the accumulator usually already
    /// holds the newest value.
    pub fn apply(self, acc: &mut CountVector, src: &[i64], src_is_newer: bool) {
        match self {
            AggregateFunction::Sum => acc.merge_sum(src),
            AggregateFunction::Max => acc.merge_max(src),
            AggregateFunction::Min => acc.merge_min(src),
            AggregateFunction::Last => {
                if src_is_newer {
                    acc.merge_last(src);
                }
            }
        }
    }

    /// Fold `src` into the fixed-width row `acc`, which is at least as wide:
    /// rows of one stat share a width, zero-padded, so a missing attribute
    /// reads as zero here as it does through [`CountVector::get_or_zero`].
    pub fn fold_row(self, acc: &mut [i64], src: &[i64], src_is_newer: bool) {
        let pairs = acc.iter_mut().zip(src);
        match self {
            AggregateFunction::Sum => {
                for (a, s) in pairs {
                    *a = a.saturating_add(*s);
                }
            }
            AggregateFunction::Max => {
                for (a, s) in pairs {
                    *a = (*a).max(*s);
                }
            }
            AggregateFunction::Min => {
                for (a, s) in pairs {
                    *a = (*a).min(*s);
                }
            }
            AggregateFunction::Last => {
                if src_is_newer {
                    let (head, tail) = acc.split_at_mut(src.len());
                    head.copy_from_slice(src);
                    tail.fill(0);
                }
            }
        }
    }
}

/// Which attribute/key a top-K or sort runs over (§II-B `sort_type`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SortKey {
    /// Sort by one attribute of the aggregated count vector, e.g. "likes".
    Attribute(usize),
    /// Sort by the weighted sum of all attributes using the table's
    /// multi-dimensional weights (see [`ShrinkConfig::weights`]).
    WeightedScore,
    /// Sort by the most recent timestamp at which the feature was observed.
    Timestamp,
    /// Sort by the feature id itself (deterministic tie-breaking / joins).
    FeatureId,
}

/// Ascending or descending.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum SortOrder {
    #[default]
    Descending,
    Ascending,
}

/// One band of the time-dimension configuration: slices whose age falls in
/// `[from_age, to_age)` are compacted to `granularity`-wide slices.
///
/// Mirrors the JSON shape in the paper's Listing 3, e.g. the production
/// config: 1s granularity for the first minute, 1m up to an hour, 1h up to a
/// day, 1d up to 30 days and 30d up to a year.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimeBand {
    /// Target slice width within this band.
    pub granularity: DurationMs,
    /// Band start (inclusive), as age relative to now.
    pub from_age: DurationMs,
    /// Band end (exclusive), as age relative to now.
    pub to_age: DurationMs,
}

impl TimeBand {
    const fn new(granularity: DurationMs, from_age: DurationMs, to_age: DurationMs) -> Self {
        Self {
            granularity,
            from_age,
            to_age,
        }
    }
}

/// The full time-dimension configuration: an ordered list of bands, youngest
/// first, with strictly increasing, contiguous age ranges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimeDimensionConfig {
    pub bands: Vec<TimeBand>,
}

impl TimeDimensionConfig {
    /// The production configuration from the paper's Listing 3:
    /// `1s:[0s,1m] 1m:[1m,1h] 1h:[1h,24h] 1d:[24h,30d] 30d:[30d,365d]`.
    #[must_use]
    pub fn production_default() -> Self {
        use DurationMs as D;
        Self {
            bands: vec![
                TimeBand::new(D::from_secs(1), D::ZERO, D::from_mins(1)),
                TimeBand::new(D::from_mins(1), D::from_mins(1), D::from_hours(1)),
                TimeBand::new(D::from_hours(1), D::from_hours(1), D::from_hours(24)),
                TimeBand::new(D::from_days(1), D::from_hours(24), D::from_days(30)),
                TimeBand::new(D::from_days(30), D::from_days(30), D::from_days(365)),
            ],
        }
    }

    /// The demo configuration from Listing 2: 10-minute slices between 10
    /// minutes and 1 hour of age.
    #[must_use]
    pub fn demo() -> Self {
        use DurationMs as D;
        Self {
            bands: vec![
                TimeBand::new(D::from_mins(1), D::ZERO, D::from_mins(10)),
                TimeBand::new(D::from_mins(10), D::from_mins(10), D::from_hours(1)),
            ],
        }
    }

    /// Build from `(granularity, from, to)` duration literals.
    pub fn from_pairs(pairs: &[(&str, &str, &str)]) -> Result<Self, String> {
        let mut bands = Vec::with_capacity(pairs.len());
        for (g, from, to) in pairs {
            let band = TimeBand {
                granularity: DurationMs::parse(g).ok_or_else(|| format!("bad duration {g:?}"))?,
                from_age: DurationMs::parse(from)
                    .ok_or_else(|| format!("bad duration {from:?}"))?,
                to_age: DurationMs::parse(to).ok_or_else(|| format!("bad duration {to:?}"))?,
            };
            bands.push(band);
        }
        let cfg = Self { bands };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Check band ordering invariants: non-empty, contiguous, increasing, and
    /// granularity never shrinks with age (older data is never re-split).
    pub fn validate(&self) -> Result<(), String> {
        if self.bands.is_empty() {
            return Err("time-dimension config must have at least one band".into());
        }
        let mut prev_to = DurationMs::ZERO;
        let mut prev_g = DurationMs::ZERO;
        for (i, b) in self.bands.iter().enumerate() {
            if b.from_age != prev_to {
                return Err(format!(
                    "band {i} starts at {} but previous band ended at {prev_to}",
                    b.from_age
                ));
            }
            if b.to_age <= b.from_age {
                return Err(format!("band {i} has empty or inverted age range"));
            }
            if b.granularity.is_zero() {
                return Err(format!("band {i} has zero granularity"));
            }
            if b.granularity < prev_g {
                return Err(format!("band {i} granularity decreases with age"));
            }
            prev_to = b.to_age;
            prev_g = b.granularity;
        }
        Ok(())
    }

    /// The target granularity for data of the given age, or `None` when the
    /// age falls beyond the last band (candidate for truncation, not
    /// compaction).
    #[must_use]
    pub fn granularity_for_age(&self, age: DurationMs) -> Option<DurationMs> {
        self.bands
            .iter()
            .find(|b| age >= b.from_age && age < b.to_age)
            .map(|b| b.granularity)
    }

    /// Maximum age covered by any band; data older than this has aged out of
    /// the configuration entirely.
    #[must_use]
    pub fn horizon(&self) -> DurationMs {
        self.bands.last().map_or(DurationMs::ZERO, |b| b.to_age)
    }
}

/// Truncation policy (§III-D b): drop old, low-value data outright.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TruncateConfig {
    /// Remove slices entirely older than this age (e.g. "models do not care
    /// about behaviour from over a month ago"). `None` disables.
    pub max_age: Option<DurationMs>,
    /// Keep at most this many slices, newest first (Fig 11's *truncate by
    /// count*, e.g. "the user's last 100 clicks"). `None` disables.
    pub max_slices: Option<usize>,
}

/// Shrink policy (§III-D, Listing 4): bound the long-tail feature population
/// per slot while protecting fresh and multi-dimensionally important data.
#[derive(Clone, Debug, PartialEq)]
pub struct ShrinkConfig {
    /// Per-slot retained feature budget; slots absent here fall back to
    /// `default_retain`.
    pub per_slot_retain: Vec<(SlotId, usize)>,
    /// Retained feature budget for slots without an explicit entry.
    pub default_retain: usize,
    /// Per-attribute significance weights for the multi-dimensional score
    /// (e.g. a share is worth more than a click). Missing attributes weigh 1.
    pub weights: Vec<f64>,
    /// *Data freshness* protection: features last observed within this age
    /// are never shrunk away even when their counts are low.
    pub fresh_horizon: DurationMs,
    /// Balance between short- and long-term interests: fraction of the budget
    /// reserved for the oldest-observed features so historical interests
    /// survive (0.0 = pure score ranking).
    pub long_term_fraction: f64,
}

impl Default for ShrinkConfig {
    fn default() -> Self {
        Self {
            per_slot_retain: Vec::new(),
            default_retain: 512,
            weights: Vec::new(),
            fresh_horizon: DurationMs::from_hours(1),
            long_term_fraction: 0.1,
        }
    }
}

impl ShrinkConfig {
    /// The retained budget for `slot`.
    #[must_use]
    pub fn retain_for(&self, slot: SlotId) -> usize {
        self.per_slot_retain
            .iter()
            .find(|(s, _)| *s == slot)
            .map_or(self.default_retain, |(_, n)| *n)
    }

    /// Weighted multi-dimensional importance score of a count vector.
    #[must_use]
    pub fn score(&self, counts: &[i64]) -> f64 {
        counts
            .iter()
            .enumerate()
            .map(|(i, v)| *v as f64 * self.weights.get(i).copied().unwrap_or(1.0))
            .sum()
    }
}

/// Compaction scheduling knobs (§III-D last paragraphs).
#[derive(Clone, Debug, PartialEq)]
pub struct CompactionConfig {
    pub time_dimension: TimeDimensionConfig,
    pub truncate: TruncateConfig,
    pub shrink: ShrinkConfig,
    /// A *partial* compaction only merges up to this many slices per run; a
    /// profile exceeding `full_compact_slice_threshold` gets a full pass.
    pub partial_max_merges: usize,
    /// Slice-list length beyond which a full compaction is scheduled.
    pub full_compact_slice_threshold: usize,
    /// Re-compact a profile at most once per interval to cap CPU spend.
    pub min_interval: DurationMs,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        Self {
            time_dimension: TimeDimensionConfig::production_default(),
            truncate: TruncateConfig {
                max_age: Some(DurationMs::from_days(365)),
                max_slices: None,
            },
            shrink: ShrinkConfig::default(),
            partial_max_merges: 8,
            full_compact_slice_threshold: 128,
            min_interval: DurationMs::from_mins(5),
        }
    }
}

/// GCache sizing (§III-C). Swap and flush run when the host calls
/// `IpsInstance::tick`.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheConfig {
    /// Total memory budget for cached profile data, in bytes.
    pub memory_budget_bytes: usize,
    /// Swap (evict) down to this fraction of the budget once exceeded.
    pub swap_low_watermark: f64,
    /// Begin swapping when usage crosses this fraction of the budget.
    pub swap_high_watermark: f64,
    /// Number of LRU shards (hashed by profile id) to cut lock contention.
    pub lru_shards: usize,
    /// Number of dirty-list shards; each tick flushes every shard in turn
    /// (the paper's per-shard flush threads, Fig 9).
    pub dirty_shards: usize,
    /// How many evicted profiles to retain (data only, already flushed) in a
    /// side pool for stale-bounded degraded serving during KV brownouts.
    /// Zero disables the pool.
    pub stale_pool_entries: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            memory_budget_bytes: 256 << 20,
            swap_low_watermark: 0.80,
            swap_high_watermark: 0.85,
            lru_shards: 16,
            dirty_shards: 4,
            stale_pool_entries: default_stale_pool_entries(),
        }
    }
}

fn default_stale_pool_entries() -> usize {
    4096
}

impl CacheConfig {
    /// Validate the invariants called out in the paper.
    pub fn validate(&self) -> Result<(), String> {
        if self.lru_shards == 0 || self.dirty_shards == 0 {
            return Err("shard counts must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.swap_low_watermark)
            || !(0.0..=1.0).contains(&self.swap_high_watermark)
            || self.swap_low_watermark > self.swap_high_watermark
        {
            return Err("watermarks must satisfy 0 <= low <= high <= 1".into());
        }
        Ok(())
    }
}

/// Read-write isolation knobs (§III-F).
#[derive(Clone, Debug, PartialEq)]
pub struct IsolationConfig {
    /// Hot switch: isolation can be toggled live. The staging write table
    /// merges into the main table on every `IpsInstance::tick`.
    pub enabled: bool,
    /// Cap the staging table's memory; beyond this, writes merge eagerly.
    pub write_table_budget_bytes: usize,
}

impl Default for IsolationConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            write_table_budget_bytes: 32 << 20,
        }
    }
}

/// Per-caller QPS quota (§IV intro / §V-b): requests beyond the limit are
/// rejected until usage falls back under it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuotaConfig {
    /// Sustained queries per second allowed.
    pub qps_limit: u64,
    /// Burst capacity as a multiple of one second's budget.
    pub burst_factor: f64,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        Self {
            qps_limit: 100_000,
            burst_factor: 1.5,
        }
    }
}

/// Caller-declared urgency of one request, threaded through the request
/// pipeline (client chain, wire envelope, server chain) as part of the
/// request context. The scheduler treats it as advisory today — weighted
/// fair admission derives shares from [`QuotaConfig::qps_limit`] — but it
/// rides every span and envelope so priority-aware layers can be added
/// without another wire change.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Priority {
    /// Latency-sensitive serving traffic (inline recommendations).
    Interactive,
    /// The default when a caller declares nothing.
    #[default]
    Normal,
    /// Throughput-oriented traffic (backfills, offline feature dumps).
    Bulk,
}

impl Priority {
    /// Stable wire code. `Normal` is 0 so an absent field decodes to the
    /// default and a default priority is never encoded (byte-identity).
    #[must_use]
    pub const fn code(self) -> u64 {
        match self {
            Priority::Normal => 0,
            Priority::Interactive => 1,
            Priority::Bulk => 2,
        }
    }

    /// Inverse of [`Priority::code`]; unknown codes (a newer peer) fall back
    /// to `Normal` rather than failing the decode.
    #[must_use]
    pub const fn from_code(code: u64) -> Self {
        match code {
            1 => Priority::Interactive,
            2 => Priority::Bulk,
            _ => Priority::Normal,
        }
    }

    /// Short label for span attributes and logs.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Normal => "normal",
            Priority::Bulk => "bulk",
        }
    }
}

/// Per-endpoint circuit breaker (consecutive-failure trip, half-open probe).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CircuitBreakerConfig {
    /// Consecutive failures that open the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker blocks traffic before admitting one
    /// half-open probe.
    pub cooldown: DurationMs,
}

impl Default for CircuitBreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 5,
            cooldown: DurationMs::from_millis(500),
        }
    }
}

/// Server-side degraded (stale) serving during KV brownouts (§III-G).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradedServingConfig {
    /// Master switch: whether this instance may ever serve stale data.
    pub enabled: bool,
    /// Upper bound on how stale a degraded result may be.
    pub max_staleness: DurationMs,
    /// Consecutive `Storage` failures after which the instance auto-degrades
    /// reads that did not explicitly opt in.
    pub storage_failure_threshold: u32,
}

impl Default for DegradedServingConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            max_staleness: DurationMs::from_mins(10),
            storage_failure_threshold: 8,
        }
    }
}

/// Admission control for the server's in-flight batch sub-query budget.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum batch sub-queries in flight per instance before new batches
    /// are shed with [`crate::IpsError::Overloaded`]. Zero means unbounded
    /// (the legacy behaviour).
    pub max_inflight_subqueries: usize,
}

/// How WAL recovery reacts to a checksum mismatch that is *not* a torn tail
/// (valid records exist after the bad frame, or the bad frame sits in a
/// non-final segment): genuine mid-log corruption, never the expected
/// crash-mid-append artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Fail recovery with `IpsError::Storage` — the operator decides whether
    /// to restore from a replica or switch to salvage.
    #[default]
    Strict,
    /// Skip to the next valid record and count what was dropped. Best-effort
    /// recovery for when a degraded node is better than no node.
    Salvage,
}

/// Segmented write-ahead-log tuning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalConfig {
    /// Rotate to a new segment once the active one reaches this size. Small
    /// segments bound per-file replay work and retire promptly after a
    /// checkpoint; large segments amortize rotation fsyncs.
    pub segment_bytes: u64,
    /// fsync every append (slow but strict). Production profile stores value
    /// throughput over absolute durability of the last few writes.
    pub sync_every_append: bool,
    /// What to do about mid-log corruption at replay time.
    pub recovery_mode: RecoveryMode,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 4 << 20,
            sync_every_append: false,
            recovery_mode: RecoveryMode::Strict,
        }
    }
}

impl WalConfig {
    pub fn validate(&self) -> Result<(), String> {
        // A segment must hold at least its own header plus one small record.
        if self.segment_bytes < 256 {
            return Err(format!(
                "segment_bytes ({}) must be at least 256",
                self.segment_bytes
            ));
        }
        Ok(())
    }
}

/// How profiles are persisted to the key-value store (§III-E).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PersistenceMode {
    /// Whole profile serialized as one value (Fig 12).
    #[default]
    Bulk,
    /// Slice-level split (Figs 13–14): a profile whose serialized size
    /// reaches the threshold keeps its newest slice in its generation-
    /// versioned head and stores every other slice as a value of its own.
    Split {
        /// Serialized profiles at or above this size are split.
        threshold_bytes: usize,
    },
}

/// Everything a single IPS table needs to operate.
#[derive(Clone, Debug, PartialEq)]
pub struct TableConfig {
    /// Human-readable table name (diagnostics only).
    pub name: String,
    /// Number of count attributes rows in this table carry.
    pub attributes: usize,
    /// Reduce function applied on merge/compaction/query aggregation.
    pub aggregate: AggregateFunction,
    pub compaction: CompactionConfig,
    pub cache: CacheConfig,
    pub isolation: IsolationConfig,
    pub persistence: PersistenceMode,
}

impl TableConfig {
    /// A sensible default configuration named `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            attributes: 3,
            aggregate: AggregateFunction::Sum,
            compaction: CompactionConfig::default(),
            cache: CacheConfig::default(),
            isolation: IsolationConfig::default(),
            persistence: PersistenceMode::Split {
                threshold_bytes: 64 << 10,
            },
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.attributes == 0 || self.attributes > crate::counts::MAX_ATTRIBUTES {
            return Err(format!(
                "attributes must be in 1..={}",
                crate::counts::MAX_ATTRIBUTES
            ));
        }
        self.compaction.time_dimension.validate()?;
        self.cache.validate()?;
        Ok(())
    }
}

/// A point on the decay curve: the factor applied to counts of the given age.
pub fn decay_factor(function: DecayFunction, factor: f64, age: DurationMs) -> f64 {
    match function {
        DecayFunction::None => 1.0,
        DecayFunction::Exponential { half_life } => {
            if half_life.is_zero() {
                return 1.0;
            }
            let halves = age.as_millis() as f64 / half_life.as_millis() as f64;
            factor * 0.5f64.powf(halves)
        }
        DecayFunction::Linear { horizon } => {
            if horizon.is_zero() {
                return 1.0;
            }
            let frac = 1.0 - (age.as_millis() as f64 / horizon.as_millis() as f64);
            factor * frac.max(0.0)
        }
        DecayFunction::Step {
            boundary,
            old_factor,
        } => {
            if age <= boundary {
                factor
            } else {
                factor * old_factor
            }
        }
    }
}

/// Decay functions applicable at query time (§II-B `get_profile_decay`):
/// favour recent profile data over old data by scaling counts by a factor
/// that depends on the data's age.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum DecayFunction {
    /// No decay (identity).
    #[default]
    None,
    /// Exponential decay with the given half-life.
    Exponential { half_life: DurationMs },
    /// Linear falloff reaching zero at `horizon`.
    Linear { horizon: DurationMs },
    /// Full weight up to `boundary`, then multiply by `old_factor`.
    Step {
        boundary: DurationMs,
        old_factor: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_time_dimension_is_valid() {
        let cfg = TimeDimensionConfig::production_default();
        cfg.validate().unwrap();
        assert_eq!(cfg.horizon(), DurationMs::from_days(365));
        assert_eq!(
            cfg.granularity_for_age(DurationMs::from_secs(30)),
            Some(DurationMs::from_secs(1))
        );
        assert_eq!(
            cfg.granularity_for_age(DurationMs::from_mins(30)),
            Some(DurationMs::from_mins(1))
        );
        assert_eq!(
            cfg.granularity_for_age(DurationMs::from_hours(5)),
            Some(DurationMs::from_hours(1))
        );
        assert_eq!(
            cfg.granularity_for_age(DurationMs::from_days(10)),
            Some(DurationMs::from_days(1))
        );
        assert_eq!(
            cfg.granularity_for_age(DurationMs::from_days(100)),
            Some(DurationMs::from_days(30))
        );
        assert_eq!(cfg.granularity_for_age(DurationMs::from_days(400)), None);
    }

    #[test]
    fn built_in_time_dimensions_match_their_listings() {
        let listing3 = TimeDimensionConfig::from_pairs(&[
            ("1s", "0s", "1m"),
            ("1m", "1m", "1h"),
            ("1h", "1h", "24h"),
            ("1d", "24h", "30d"),
            ("30d", "30d", "365d"),
        ]);
        assert_eq!(listing3, Ok(TimeDimensionConfig::production_default()));
        let listing2 =
            TimeDimensionConfig::from_pairs(&[("1m", "0s", "10m"), ("10m", "10m", "1h")]);
        assert_eq!(listing2, Ok(TimeDimensionConfig::demo()));
    }

    #[test]
    fn time_dimension_rejects_gaps_and_inversions() {
        assert!(
            TimeDimensionConfig::from_pairs(&[("1s", "0s", "1m"), ("1m", "2m", "1h")]).is_err()
        );
        assert!(TimeDimensionConfig::from_pairs(&[("1s", "0s", "0s")]).is_err());
        assert!(
            TimeDimensionConfig::from_pairs(&[("1m", "0s", "1h"), ("1s", "1h", "2h")]).is_err(),
            "granularity must not decrease with age"
        );
        assert!(TimeDimensionConfig { bands: vec![] }.validate().is_err());
    }

    #[test]
    fn aggregate_apply_dispatch() {
        let mut acc = CountVector::single(5);
        AggregateFunction::Sum.apply(&mut acc, &[3], false);
        assert_eq!(acc.as_slice(), &[8]);

        let mut acc = CountVector::single(5);
        AggregateFunction::Max.apply(&mut acc, &[3], false);
        assert_eq!(acc.as_slice(), &[5]);

        let mut acc = CountVector::single(5);
        AggregateFunction::Min.apply(&mut acc, &[3], false);
        assert_eq!(acc.as_slice(), &[3]);

        // Last keeps acc when src is older, replaces when newer.
        let mut acc = CountVector::single(5);
        AggregateFunction::Last.apply(&mut acc, &[3], false);
        assert_eq!(acc.as_slice(), &[5]);
        AggregateFunction::Last.apply(&mut acc, &[3], true);
        assert_eq!(acc.as_slice(), &[3]);
    }

    #[test]
    fn fold_row_dispatch_pads_short_sources_with_zeros() {
        let fold = |agg: AggregateFunction, src: &[i64], newer: bool| {
            let mut row = [5, -2, 4];
            agg.fold_row(&mut row, src, newer);
            row
        };
        assert_eq!(fold(AggregateFunction::Sum, &[3, 1], false), [8, -1, 4]);
        assert_eq!(fold(AggregateFunction::Max, &[3, 1], false), [5, 1, 4]);
        assert_eq!(fold(AggregateFunction::Min, &[3, 1], false), [3, -2, 4]);
        assert_eq!(fold(AggregateFunction::Last, &[3], false), [5, -2, 4]);
        assert_eq!(fold(AggregateFunction::Last, &[3], true), [3, 0, 0]);
    }

    #[test]
    fn shrink_score_uses_weights() {
        let cfg = ShrinkConfig {
            weights: vec![1.0, 10.0],
            ..Default::default()
        };
        // 2 clicks + 1 share at weight 10 = 12.
        assert!((cfg.score(&[2, 1]) - 12.0).abs() < 1e-9);
        // Missing weights default to 1.
        assert!((cfg.score(&[2, 1, 5]) - 17.0).abs() < 1e-9);
    }

    #[test]
    fn shrink_retain_lookup() {
        let cfg = ShrinkConfig {
            per_slot_retain: vec![(SlotId::new(1), 100), (SlotId::new(2), 50)],
            default_retain: 10,
            ..Default::default()
        };
        assert_eq!(cfg.retain_for(SlotId::new(1)), 100);
        assert_eq!(cfg.retain_for(SlotId::new(9)), 10);
    }

    #[test]
    fn cache_config_watermarks() {
        let cfg = CacheConfig {
            swap_low_watermark: 0.9,
            swap_high_watermark: 0.8,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn cache_config_shard_counts() {
        CacheConfig::default().validate().unwrap();
        for (lru_shards, dirty_shards) in [(0, 4), (16, 0)] {
            let cfg = CacheConfig {
                lru_shards,
                dirty_shards,
                ..Default::default()
            };
            assert!(cfg.validate().is_err());
        }
    }

    #[test]
    fn decay_factor_shapes() {
        let hl = DurationMs::from_days(1);
        let f = |age| decay_factor(DecayFunction::Exponential { half_life: hl }, 1.0, age);
        assert!((f(DurationMs::ZERO) - 1.0).abs() < 1e-9);
        assert!((f(hl) - 0.5).abs() < 1e-9);
        assert!((f(DurationMs::from_days(2)) - 0.25).abs() < 1e-9);

        let lin = |age| {
            decay_factor(
                DecayFunction::Linear {
                    horizon: DurationMs::from_days(10),
                },
                1.0,
                age,
            )
        };
        assert!((lin(DurationMs::from_days(5)) - 0.5).abs() < 1e-9);
        assert_eq!(lin(DurationMs::from_days(20)), 0.0);

        let step = |age| {
            decay_factor(
                DecayFunction::Step {
                    boundary: DurationMs::from_days(7),
                    old_factor: 0.2,
                },
                1.0,
                age,
            )
        };
        assert!((step(DurationMs::from_days(3)) - 1.0).abs() < 1e-9);
        assert!((step(DurationMs::from_days(8)) - 0.2).abs() < 1e-9);

        assert_eq!(
            decay_factor(DecayFunction::None, 1.0, DurationMs::from_days(99)),
            1.0
        );
    }

    #[test]
    fn table_config_validation() {
        let mut cfg = TableConfig::new("t");
        cfg.validate().unwrap();
        cfg.attributes = 0;
        assert!(cfg.validate().is_err());
        cfg.attributes = crate::counts::MAX_ATTRIBUTES + 1;
        assert!(cfg.validate().is_err());
    }
}
