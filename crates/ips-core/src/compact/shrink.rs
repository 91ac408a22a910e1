//! The *Shrink* pass: long-tail feature elimination (§III-D, Listing 4).
//!
//! Even with slices compacted, per-slice feature populations grow as the
//! long tail accumulates. Shrink bounds the number of retained features per
//! slot, following the paper's three principles:
//!
//! * **Data freshness** — features that appeared recently are protected even
//!   when their counts are low (they may still grow);
//! * **Multi-dimensional sorting** — importance is the weighted sum of all
//!   action-count attributes, not a single count;
//! * **Short/long-term balance** — a configured fraction of each slot's
//!   budget is reserved for the features observed *earliest* in the profile,
//!   so long-term interests survive elimination.

use std::cmp::Ordering;

use ips_types::{FeatureId, ShrinkConfig, SlotId, Timestamp};

use crate::model::ProfileData;
use crate::query::merge::{runs, FidTable};
use crate::query::top_k_by;

/// One feature of a slot across the profile.
#[derive(Clone, Copy, Default)]
struct FeatureAgg {
    score: f64,
    first_seen: Timestamp,
    fresh: bool,
    keep: bool,
}

/// Shrink every slot of `profile` to its configured budget. Slices younger
/// than `config.fresh_horizon` contribute to scoring but are never edited.
/// Returns the number of `(slice, slot, action, feature)` entries removed.
pub fn shrink_profile(profile: &mut ProfileData, config: &ShrinkConfig, now: Timestamp) -> usize {
    if profile.is_empty() {
        return 0;
    }
    let fresh_cutoff = now.saturating_sub(config.fresh_horizon);
    let keep = keep_sets(profile, config, fresh_cutoff);

    // Eliminate, one pass over each slice's columns. Only slices older than
    // the fresh horizon are edited.
    let mut removed = 0usize;
    for slice in profile.slices_mut().iter_mut() {
        if slice.end() > fresh_cutoff {
            continue;
        }
        let slot_keep = |slot| keep.iter().find(|(s, _)| *s == slot);
        removed += slice.retain(|slot, fid, _| {
            slot_keep(slot).is_none_or(|(_, t)| t.get(fid).is_some_and(|f| f.keep))
        });
    }
    // Drop slices emptied entirely by shrink.
    profile.slices_mut().retain(|s| !s.is_empty());
    removed
}

/// Every slot's features in `profile`, each marked with whether it is kept.
fn keep_sets(
    profile: &ProfileData,
    config: &ShrinkConfig,
    fresh_cutoff: Timestamp,
) -> Vec<(SlotId, FidTable<FeatureAgg>)> {
    let slices = profile.slices();
    let mut slots: Vec<SlotId> = slices
        .iter()
        .flat_map(|s| s.iter_slots().map(|(slot, _)| slot))
        .collect();
    slots.sort_unstable();
    slots.dedup();
    let mut keep = Vec::with_capacity(slots.len());
    for slot in slots {
        // Profile-wide aggregation: score, first seen and freshness.
        let runs = runs(slices, slot, None);
        let mut table = FidTable::with_rows(runs.iter().map(|(_, _, stat)| stat.len()).sum());
        for (slice, _, stat) in runs {
            let (start, fresh) = (slice.start(), slice.end() > fresh_cutoff);
            for (fid, counts) in stat.iter() {
                let (i, _) = table.insert(fid, FeatureAgg::default);
                let f = &mut table.entries[i].1;
                f.score += config.score(&counts);
                // Slices come newest first: the last start seen is the earliest.
                f.first_seen = start;
                f.fresh |= fresh;
            }
        }
        // Within budget a slot keeps every feature. Over it, freshness
        // protection comes first: never eliminate recent features.
        let budget = config.retain_for(slot);
        let features = &mut table.entries;
        let all = features.len() <= budget;
        features
            .iter_mut()
            .for_each(|(_, f)| f.keep = all || f.fresh);
        if !all {
            shrink_to(features, budget, config.long_term_fraction);
        }
        keep.push((slot, table));
    }
    keep
}

/// Keep the long-term reservation, then the best-scoring features until
/// `budget` are kept.
fn shrink_to(features: &mut [(FeatureId, FeatureAgg)], budget: usize, long_term_fraction: f64) {
    // Long-term reservation: the oldest by first_seen.
    let long_term = ((budget as f64) * long_term_fraction).round() as usize;
    let age = |&i: &usize| (features[i].1.first_seen, features[i].0);
    for i in top_k_by(0..features.len(), long_term, |a, b| age(b).cmp(&age(a))) {
        features[i].1.keep = true;
    }
    // Fill the remainder by multi-dimensional score, ties to the higher id.
    let rest = budget.saturating_sub(features.iter().filter(|(_, f)| f.keep).count());
    let candidates = (0..features.len()).filter(|&i| !features[i].1.keep);
    let by_score = |&a: &usize, &b: &usize| {
        let (a, b) = (&features[a], &features[b]);
        let by_score = a.1.score.partial_cmp(&b.1.score).unwrap_or(Ordering::Equal);
        by_score.then_with(|| a.0.cmp(&b.0))
    };
    for i in top_k_by(candidates, rest, by_score) {
        features[i].1.keep = true;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use proptest::prelude::*;

    use super::*;
    use ips_types::{ActionTypeId, AggregateFunction, CountVector, DurationMs};

    const SLOT: SlotId = SlotId(1);
    const LIKE: ActionTypeId = ActionTypeId(1);

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_millis(t)
    }

    fn add(p: &mut ProfileData, at: u64, fid: u64, counts: &[i64]) {
        p.add(
            ts(at),
            SLOT,
            LIKE,
            FeatureId::new(fid),
            &CountVector::from_slice(counts),
            AggregateFunction::Sum,
            DurationMs::from_secs(1),
        );
    }

    fn surviving_fids(p: &ProfileData) -> HashSet<u64> {
        let mut out = HashSet::new();
        for s in p.slices() {
            for (_, set) in s.iter_slots() {
                for (_, stats) in set.iter() {
                    for (fid, _) in stats.iter() {
                        out.insert(fid.raw());
                    }
                }
            }
        }
        out
    }

    fn base_config(retain: usize) -> ShrinkConfig {
        ShrinkConfig {
            default_retain: retain,
            fresh_horizon: DurationMs::from_secs(10),
            long_term_fraction: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn under_budget_removes_nothing() {
        let mut p = ProfileData::new();
        for fid in 0..5u64 {
            add(&mut p, 1_000, fid, &[1]);
        }
        let removed = shrink_profile(&mut p, &base_config(10), ts(1_000_000));
        assert_eq!(removed, 0);
        assert_eq!(surviving_fids(&p).len(), 5);
    }

    #[test]
    fn over_budget_keeps_top_by_score() {
        let mut p = ProfileData::new();
        for fid in 0..10u64 {
            add(&mut p, 1_000, fid, &[fid as i64]);
        }
        let removed = shrink_profile(&mut p, &base_config(3), ts(1_000_000));
        assert_eq!(removed, 7);
        assert_eq!(surviving_fids(&p), HashSet::from([7, 8, 9]));
    }

    #[test]
    fn fresh_slices_are_never_edited() {
        let mut p = ProfileData::new();
        // Old, low-value features.
        for fid in 0..5u64 {
            add(&mut p, 1_000, fid, &[1]);
        }
        // Fresh feature with zero count value.
        add(&mut p, 999_000, 100, &[0]);
        let cfg = base_config(2);
        let now = ts(1_000_000); // fresh horizon 10s: slice at 999s is fresh
        shrink_profile(&mut p, &cfg, now);
        let survivors = surviving_fids(&p);
        assert!(
            survivors.contains(&100),
            "fresh feature protected: {survivors:?}"
        );
    }

    #[test]
    fn multi_dimensional_weights_determine_importance() {
        let mut p = ProfileData::new();
        // fid 1: 10 clicks, 0 shares. fid 2: 1 click, 2 shares.
        add(&mut p, 1_000, 1, &[10, 0]);
        add(&mut p, 1_000, 2, &[1, 2]);
        add(&mut p, 1_000, 3, &[2, 0]);
        let cfg = ShrinkConfig {
            default_retain: 1,
            weights: vec![1.0, 10.0],
            fresh_horizon: DurationMs::from_secs(1),
            long_term_fraction: 0.0,
            ..Default::default()
        };
        shrink_profile(&mut p, &cfg, ts(1_000_000));
        // fid 2 scores 21, beating fid 1's 10.
        assert_eq!(surviving_fids(&p), HashSet::from([2]));
    }

    #[test]
    fn long_term_reservation_protects_oldest() {
        let mut p = ProfileData::new();
        // Very old, low-score interest.
        add(&mut p, 1_000, 1, &[1]);
        // Newer, higher-score features.
        for fid in 10..20u64 {
            add(&mut p, 500_000, fid, &[100]);
        }
        let cfg = ShrinkConfig {
            default_retain: 4,
            fresh_horizon: DurationMs::from_secs(1),
            long_term_fraction: 0.25, // 1 of 4 reserved for oldest
            ..Default::default()
        };
        shrink_profile(&mut p, &cfg, ts(10_000_000));
        let survivors = surviving_fids(&p);
        assert!(
            survivors.contains(&1),
            "oldest interest must survive via long-term reservation: {survivors:?}"
        );
        // Without the reservation it would be eliminated.
        let mut p2 = ProfileData::new();
        add(&mut p2, 1_000, 1, &[1]);
        for fid in 10..20u64 {
            add(&mut p2, 500_000, fid, &[100]);
        }
        let cfg2 = ShrinkConfig {
            long_term_fraction: 0.0,
            ..cfg
        };
        shrink_profile(&mut p2, &cfg2, ts(10_000_000));
        assert!(!surviving_fids(&p2).contains(&1));
    }

    #[test]
    fn per_slot_budgets_are_independent() {
        let mut p = ProfileData::new();
        let other_slot = SlotId::new(2);
        for fid in 0..6u64 {
            add(&mut p, 1_000, fid, &[fid as i64 + 1]);
            p.add(
                ts(1_000),
                other_slot,
                LIKE,
                FeatureId::new(100 + fid),
                &CountVector::single(1),
                AggregateFunction::Sum,
                DurationMs::from_secs(1),
            );
        }
        let cfg = ShrinkConfig {
            per_slot_retain: vec![(SLOT, 2)],
            default_retain: 100,
            fresh_horizon: DurationMs::from_secs(1),
            long_term_fraction: 0.0,
            ..Default::default()
        };
        shrink_profile(&mut p, &cfg, ts(1_000_000));
        let survivors = surviving_fids(&p);
        // SLOT shrunk to 2; other slot untouched (budget 100).
        assert_eq!(survivors.iter().filter(|f| **f < 100).count(), 2);
        assert_eq!(survivors.iter().filter(|f| **f >= 100).count(), 6);
    }

    #[test]
    fn emptied_slices_are_dropped() {
        let mut p = ProfileData::new();
        add(&mut p, 1_000, 1, &[1]);
        add(&mut p, 100_000, 2, &[100]);
        let cfg = base_config(1);
        shrink_profile(&mut p, &cfg, ts(10_000_000));
        assert_eq!(
            p.slice_count(),
            1,
            "slice holding only eliminated features dropped"
        );
        p.check_invariants().unwrap();
    }

    #[test]
    fn score_aggregates_across_slices() {
        let mut p = ProfileData::new();
        // fid 1 appears in many slices with small counts; total beats fid 2.
        for i in 0..10u64 {
            add(&mut p, 1_000 + i * 2_000, 1, &[1]);
        }
        add(&mut p, 1_000, 2, &[5]);
        let cfg = base_config(1);
        shrink_profile(&mut p, &cfg, ts(10_000_000));
        assert_eq!(surviving_fids(&p), HashSet::from([1]));
    }

    /// The hash-map keep sets the fid tables replaced.
    fn reference_keep_sets(
        profile: &ProfileData,
        config: &ShrinkConfig,
        fresh_cutoff: Timestamp,
    ) -> HashMap<SlotId, HashSet<FeatureId>> {
        struct FeatureAgg {
            score: f64,
            first_seen: Timestamp,
            fresh: bool,
        }
        let mut per_slot: HashMap<SlotId, HashMap<FeatureId, FeatureAgg>> = HashMap::new();
        for slice in profile.slices() {
            let slice_fresh = slice.end() > fresh_cutoff;
            for (slot, _, stats) in slice.stats() {
                let slot_map = per_slot.entry(slot).or_default();
                for (fid, counts) in stats.iter() {
                    let entry = slot_map.entry(fid).or_insert(FeatureAgg {
                        score: 0.0,
                        first_seen: slice.start(),
                        fresh: false,
                    });
                    entry.score += config.score(&counts);
                    entry.first_seen = entry.first_seen.min(slice.start());
                    entry.fresh |= slice_fresh;
                }
            }
        }
        let mut keep = HashMap::new();
        for (slot, features) in &per_slot {
            let budget = config.retain_for(*slot);
            let mut kept: HashSet<FeatureId> = features
                .iter()
                .filter(|(_, agg)| agg.fresh)
                .map(|(fid, _)| *fid)
                .collect();
            if features.len() <= budget {
                keep.insert(*slot, features.keys().copied().collect());
                continue;
            }
            let long_term_budget = ((budget as f64) * config.long_term_fraction).round() as usize;
            let mut by_age: Vec<(&FeatureId, &FeatureAgg)> = features.iter().collect();
            by_age.sort_by(|a, b| (a.1.first_seen, a.0).cmp(&(b.1.first_seen, b.0)));
            kept.extend(by_age.iter().take(long_term_budget).map(|(fid, _)| **fid));
            let mut by_score = by_age;
            by_score.sort_by(|a, b| {
                b.1.score
                    .partial_cmp(&a.1.score)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| b.0.cmp(a.0))
            });
            for (fid, _) in by_score {
                if kept.len() >= budget {
                    break;
                }
                kept.insert(*fid);
            }
            keep.insert(*slot, kept);
        }
        keep
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Writes over ~60 one-second slices, three slots and two actions,
        /// scored with small counts and a negative weight so scores tie,
        /// under budgets above and below each slot's feature count.
        #[test]
        fn keep_sets_match_the_hash_map_reference(
            writes in proptest::collection::vec(
                (0u64..60_000, 0u32..3, 0u32..2, 0u64..50, proptest::collection::vec(-3i64..4, 1..4)),
                1..300,
            ),
            retain in 0usize..40,
            slot_retain in 0usize..20,
            fresh_secs in 0u64..60,
            long_term in 0u8..3,
        ) {
            let mut p = ProfileData::new();
            for (at, slot, action, fid, counts) in &writes {
                p.add(
                    ts(*at),
                    SlotId::new(*slot),
                    ActionTypeId::new(*action),
                    FeatureId::new(*fid),
                    &CountVector::from_slice(counts),
                    AggregateFunction::Sum,
                    DurationMs::from_secs(1),
                );
            }
            let config = ShrinkConfig {
                default_retain: retain,
                per_slot_retain: vec![(SlotId::new(1), slot_retain)],
                weights: vec![1.0, -2.0],
                fresh_horizon: DurationMs::from_secs(fresh_secs),
                long_term_fraction: f64::from(long_term) * 0.25,
            };
            let cutoff = ts(60_000).saturating_sub(config.fresh_horizon);
            let got: HashMap<SlotId, HashSet<FeatureId>> = keep_sets(&p, &config, cutoff)
                .into_iter()
                .map(|(slot, table)| {
                    let kept = table.entries.iter().filter(|(_, f)| f.keep).map(|(fid, _)| *fid);
                    (slot, kept.collect())
                })
                .collect();
            prop_assert_eq!(got, reference_keep_sets(&p, &config, cutoff));
        }
    }
}
