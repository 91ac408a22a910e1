//! The compact and truncate passes.
//!
//! Compaction walks the slice list oldest-to-newest, grouping consecutive
//! slices whose ages fall in the same time-dimension band into
//! `granularity`-aligned target intervals, then merges each group with the
//! table's reduce function (Fig 10). It never *drops* data — that is
//! truncation's job: slices beyond the configured maximum age or count are
//! removed outright (Fig 11).

use ips_types::{AggregateFunction, CompactionConfig, Timestamp};

use crate::model::{ProfileData, Slice};

/// What a compaction run did, for observability and the ablation benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Slices before the run.
    pub slices_before: usize,
    /// Slices after the run.
    pub slices_after: usize,
    /// Merge operations performed.
    pub merges: usize,
    /// Slices dropped by truncation.
    pub truncated: usize,
    /// Features removed by shrink.
    pub shrunk_features: usize,
    /// Approximate bytes before/after.
    pub bytes_before: usize,
    pub bytes_after: usize,
}

/// Truncate by age and by slice count (Fig 11). Returns dropped slice count.
fn truncate_pass(profile: &mut ProfileData, config: &CompactionConfig, now: Timestamp) -> usize {
    let slices = profile.slices_mut();
    let before = slices.len();
    if let Some(max_age) = config.truncate.max_age {
        let cutoff = now.saturating_sub(max_age);
        // Drop slices entirely older than the cutoff.
        slices.retain(|s| s.end() > cutoff);
    }
    if let Some(max_slices) = config.truncate.max_slices {
        // Newest-first list: keep the first `max_slices`.
        slices.truncate(max_slices);
    }
    before - slices.len()
}

/// Run a compaction cycle: compact → shrink → truncate.
///
/// `partial` limits merge work to `config.partial_max_merges` (the load-aware
/// policy from §III-D: full compactions are reserved for long slice lists).
/// The aggregate function comes from the owning table's configuration.
pub fn compact_profile(
    profile: &mut ProfileData,
    config: &CompactionConfig,
    agg: AggregateFunction,
    now: Timestamp,
    partial: bool,
) -> CompactionStats {
    let mut stats = CompactionStats {
        slices_before: profile.slice_count(),
        bytes_before: profile.approx_bytes(),
        ..Default::default()
    };

    let max_merges = if partial {
        config.partial_max_merges
    } else {
        usize::MAX
    };

    stats.merges = compact_pass(profile, config, agg, now, max_merges);
    stats.shrunk_features = super::shrink::shrink_profile(profile, &config.shrink, now);
    stats.truncated = truncate_pass(profile, config, now);

    profile.last_compacted = now;
    stats.slices_after = profile.slice_count();
    stats.bytes_after = profile.approx_bytes();
    debug_assert!(profile.check_invariants().is_ok());
    stats
}

/// Merge consecutive slices according to the time-dimension config.
///
/// Walks the newest-first slice list; a slice joins the group of the
/// previously kept (newer) one when both fall in the same time-dimension
/// band, share a `granularity`-aligned target epoch, and the group hasn't
/// already grown to the target width. `max_merges` caps work for partial
/// passes. Each group merges in one pass ([`Slice::merge`]) into the list,
/// which is compacted in place and trimmed, so a compacted profile holds no
/// spare slice capacity.
fn compact_pass(
    profile: &mut ProfileData,
    config: &CompactionConfig,
    agg: AggregateFunction,
    now: Timestamp,
    max_merges: usize,
) -> usize {
    let slices = profile.slices_mut();
    if slices.len() < 2 || max_merges == 0 {
        return 0;
    }
    let bands = &config.time_dimension;
    let target = |s: &Slice| bands.granularity_for_age(now.distance(s.end().min(now)));
    let mut merges = 0usize;
    // `slices[..kept]` is the compacted list so far.
    let (mut kept, mut i) = (0, 0);
    while i < slices.len() {
        // `slices[i..j]` merge into one slice covering `start..end`.
        let (mut start, end, mut j) = (slices[i].start(), slices[i].end(), i + 1);
        while let Some(slice) = slices.get(j).filter(|_| merges < max_merges) {
            let Some(g) = target(slice).filter(|&g| target(&slices[i]) == Some(g)) else {
                break;
            };
            let epoch = |t: Timestamp| t.as_millis() / g.as_millis().max(1);
            if epoch(start) != epoch(slice.start())
                || end.as_millis() - start.as_millis() >= g.as_millis().max(1)
            {
                break;
            }
            start = start.min(slice.start());
            merges += 1;
            j += 1;
        }
        if j > i + 1 {
            let group: Vec<&Slice> = slices[i..j].iter().collect();
            slices[kept] = Slice::merge(&group, agg);
        } else {
            slices.swap(kept, i);
        }
        kept += 1;
        i = j;
    }
    slices.truncate(kept);
    slices.shrink_to_fit();
    merges
}

/// Should this profile be compacted now? Policy from §III-D: respect the
/// min-interval throttle; prefer partial passes unless the slice list is
/// long.
#[must_use]
pub fn needs_compaction(
    profile: &ProfileData,
    config: &CompactionConfig,
    now: Timestamp,
) -> Option<bool> {
    if profile.slice_count() < 2 {
        return None;
    }
    let since_last = now.distance(profile.last_compacted.min(now));
    if since_last < config.min_interval && profile.last_compacted != Timestamp::ZERO {
        return None;
    }
    // `true` = full pass needed.
    Some(profile.slice_count() >= config.full_compact_slice_threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_types::{
        ActionTypeId, CountVector, DurationMs, FeatureId, SlotId, TimeDimensionConfig,
        TruncateConfig,
    };

    const SLOT: SlotId = SlotId(1);
    const LIKE: ActionTypeId = ActionTypeId(1);

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_millis(t)
    }

    fn add(p: &mut ProfileData, at: u64, fid: u64, likes: i64) {
        p.add(
            ts(at),
            SLOT,
            LIKE,
            FeatureId::new(fid),
            &CountVector::single(likes),
            AggregateFunction::Sum,
            DurationMs::from_secs(1),
        );
    }

    fn total_likes(p: &ProfileData, fid: u64) -> i64 {
        p.slices()
            .iter()
            .filter_map(|s| s.slot(SLOT))
            .filter_map(|set| set.get(LIKE))
            .filter_map(|st| st.get(FeatureId::new(fid)))
            .map(|c| c.get_or_zero(0))
            .sum()
    }

    fn demo_config() -> CompactionConfig {
        CompactionConfig {
            // 1s slices for 10s, then 10s slices up to 1h.
            time_dimension: TimeDimensionConfig::from_pairs(&[
                ("1s", "0s", "10s"),
                ("10s", "10s", "1h"),
            ])
            .unwrap(),
            truncate: TruncateConfig::default(),
            ..Default::default()
        }
    }

    #[test]
    fn compaction_merges_old_slices_preserving_totals() {
        let mut p = ProfileData::new();
        // 30 one-second slices at t=0..30s, all fid 1.
        for i in 0..30u64 {
            add(&mut p, i * 1_000, 1, 1);
        }
        assert_eq!(p.slice_count(), 30);
        let now = ts(120_000); // all slices are 90..120s old -> 10s band
        let stats = compact_profile(&mut p, &demo_config(), AggregateFunction::Sum, now, false);
        assert!(stats.slices_after < stats.slices_before);
        // 30 seconds of 1s slices collapse into 10s-aligned groups: 3 slices.
        assert_eq!(p.slice_count(), 3);
        assert_eq!(total_likes(&p, 1), 30, "compaction must not lose counts");
        p.check_invariants().unwrap();
    }

    #[test]
    fn compaction_under_last_keeps_the_newest_value() {
        let mut p = ProfileData::new();
        // One 1s slice per second, fid 1 carrying the second it was written.
        for i in 0..10u64 {
            p.add(
                ts(i * 1_000),
                SLOT,
                LIKE,
                FeatureId::new(1),
                &CountVector::single(i as i64),
                AggregateFunction::Last,
                DurationMs::from_secs(1),
            );
        }
        let now = ts(120_000); // all ten slices fall in one 10s target epoch
        compact_profile(&mut p, &demo_config(), AggregateFunction::Last, now, false);
        assert_eq!(p.slice_count(), 1);
        assert_eq!(total_likes(&p, 1), 9, "the newest write must survive");
        p.check_invariants().unwrap();
    }

    #[test]
    fn fresh_slices_stay_fine_grained() {
        let mut p = ProfileData::new();
        for i in 0..20u64 {
            add(&mut p, i * 1_000, 1, 1);
        }
        // now = 20s: slices 11..20s old are in the 10s band; 0..10s stay 1s.
        let now = ts(20_000);
        compact_profile(&mut p, &demo_config(), AggregateFunction::Sum, now, false);
        p.check_invariants().unwrap();
        // Head (newest) slices should still be 1s wide.
        let head = &p.slices()[0];
        assert_eq!(head.end().as_millis() - head.start().as_millis(), 1_000);
        assert_eq!(total_likes(&p, 1), 20);
    }

    #[test]
    fn partial_compaction_caps_merges() {
        let mut p = ProfileData::new();
        for i in 0..30u64 {
            add(&mut p, i * 1_000, 1, 1);
        }
        let mut cfg = demo_config();
        cfg.partial_max_merges = 5;
        let now = ts(120_000);
        let stats = compact_profile(&mut p, &cfg, AggregateFunction::Sum, now, true);
        assert_eq!(stats.merges, 5);
        assert_eq!(stats.slices_after, stats.slices_before - 5);
        assert_eq!(total_likes(&p, 1), 30);
        p.check_invariants().unwrap();
    }

    #[test]
    fn repeated_partial_passes_converge_to_full() {
        let mut p = ProfileData::new();
        for i in 0..30u64 {
            add(&mut p, i * 1_000, 1, 1);
        }
        let mut cfg = demo_config();
        cfg.partial_max_merges = 4;
        cfg.min_interval = DurationMs::ZERO;
        let now = ts(120_000);
        for _ in 0..20 {
            compact_profile(&mut p, &cfg, AggregateFunction::Sum, now, true);
        }
        assert_eq!(p.slice_count(), 3, "partial passes eventually converge");
        assert_eq!(total_likes(&p, 1), 30);
    }

    #[test]
    fn truncate_by_age() {
        let mut p = ProfileData::new();
        add(&mut p, 1_000, 1, 1);
        add(&mut p, 500_000, 2, 1);
        let mut cfg = demo_config();
        cfg.truncate.max_age = Some(DurationMs::from_secs(100));
        let now = ts(550_000);
        let stats = compact_profile(&mut p, &cfg, AggregateFunction::Sum, now, false);
        assert_eq!(stats.truncated, 1);
        assert_eq!(total_likes(&p, 1), 0, "old slice dropped");
        assert_eq!(total_likes(&p, 2), 1);
    }

    #[test]
    fn truncate_by_count_keeps_newest() {
        let mut p = ProfileData::new();
        for i in 0..10u64 {
            add(&mut p, i * 100_000, i, 1);
        }
        let mut cfg = demo_config();
        // Disable merging so count-truncate is observable.
        cfg.time_dimension = TimeDimensionConfig::from_pairs(&[("1s", "0s", "365d")]).unwrap();
        cfg.truncate.max_slices = Some(5);
        let now = ts(1_000_000);
        let stats = compact_profile(&mut p, &cfg, AggregateFunction::Sum, now, false);
        assert_eq!(stats.truncated, 5);
        assert_eq!(p.slice_count(), 5);
        // The newest five features (5..9) survive.
        assert_eq!(total_likes(&p, 9), 1);
        assert_eq!(total_likes(&p, 0), 0);
    }

    #[test]
    fn compaction_is_idempotent_when_stable() {
        let mut p = ProfileData::new();
        for i in 0..30u64 {
            add(&mut p, i * 1_000, 1, 1);
        }
        let now = ts(120_000);
        compact_profile(&mut p, &demo_config(), AggregateFunction::Sum, now, false);
        let after_first = p.slice_count();
        let stats = compact_profile(&mut p, &demo_config(), AggregateFunction::Sum, now, false);
        assert_eq!(p.slice_count(), after_first);
        assert_eq!(stats.merges, 0, "second pass at same instant does nothing");
    }

    #[test]
    fn needs_compaction_policy() {
        let mut p = ProfileData::new();
        let cfg = CompactionConfig {
            min_interval: DurationMs::from_mins(5),
            full_compact_slice_threshold: 10,
            ..demo_config()
        };
        assert_eq!(needs_compaction(&p, &cfg, ts(0)), None, "empty profile");
        for i in 0..5u64 {
            add(&mut p, i * 1_000, 1, 1);
        }
        assert_eq!(
            needs_compaction(&p, &cfg, ts(10_000)),
            Some(false),
            "partial"
        );
        for i in 5..15u64 {
            add(&mut p, i * 1_000, 1, 1);
        }
        assert_eq!(needs_compaction(&p, &cfg, ts(20_000)), Some(true), "full");
        // Throttled right after a compaction.
        p.last_compacted = ts(20_000);
        assert_eq!(needs_compaction(&p, &cfg, ts(21_000)), None);
        assert!(needs_compaction(&p, &cfg, ts(20_000 + 300_000)).is_some());
    }

    #[test]
    fn paper_listing2_demo_shape() {
        // Fig 10: six 10-minute-ish slices merge into three under the demo
        // config ("1m":[0,10m], "10m":[10m,1h]).
        let cfg = CompactionConfig {
            time_dimension: TimeDimensionConfig::demo(),
            truncate: TruncateConfig::default(),
            ..Default::default()
        };
        let mut p = ProfileData::new();
        // Six 5-minute-spaced observations, 30..55 minutes old at query time.
        for i in 0..6u64 {
            p.add(
                ts(i * 300_000),
                SLOT,
                LIKE,
                FeatureId::new(i),
                &CountVector::single(1),
                AggregateFunction::Sum,
                DurationMs::from_mins(5),
            );
        }
        assert_eq!(p.slice_count(), 6);
        let now = ts(6 * 300_000 + 600_000);
        compact_profile(&mut p, &cfg, AggregateFunction::Sum, now, false);
        assert_eq!(p.slice_count(), 3, "pairs of 5m slices merge into 10m");
        let total: i64 = (0..6).map(|i| total_likes(&p, i)).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn max_aggregate_used_in_merge() {
        let mut p = ProfileData::new();
        add(&mut p, 1_000, 1, 3);
        add(&mut p, 2_000, 1, 9);
        add(&mut p, 3_000, 1, 5);
        let now = ts(500_000);
        compact_profile(&mut p, &demo_config(), AggregateFunction::Max, now, false);
        assert_eq!(p.slice_count(), 1);
        assert_eq!(total_likes(&p, 1), 9);
    }
}
