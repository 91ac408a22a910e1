//! Property-based tests on the core data-model invariants.
//!
//! * arbitrary write sequences keep the slice list time-ordered and
//!   non-overlapping, and never lose counts;
//! * compaction and truncation preserve (respectively bound) aggregate
//!   totals under any time-dimension configuration;
//! * compaction scheduled by slice debt keeps every profile within its
//!   bands' slice limit plus the slices opened since the last maintenance
//!   pass;
//! * the profile wire codec round-trips arbitrary profiles canonically —
//!   equal content gives equal bytes, encoding inside a live trace span
//!   gives the same bytes as outside one, and corrupt frames are rejected
//!   without panicking;
//! * query results equal a naive reference implementation;
//! * a projected (window) load answers window queries exactly like a full
//!   load, and upgrading the partial entry to full coverage reconstructs
//!   the complete profile.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ips_core::compact::compactor::{
    compact_profile, needs_compaction, slice_limit, slices_in_horizon,
};
use ips_core::model::ProfileData;
use ips_core::persist::schema::{decode_slice, encode_slice};
use ips_core::persist::{decode_profile, encode_profile, ProfilePersister, SliceProjection};
use ips_core::query::{engine, FilterPredicate, ProfileQuery};
use ips_core::GCache;
use ips_kv::{KvNode, KvNodeConfig};
use ips_trace::{SamplerConfig, Tracer};
use ips_types::clock::system_clock;
use ips_types::{
    ActionTypeId, AggregateFunction, CacheConfig, CompactionConfig, CountVector, DurationMs,
    FeatureId, PersistenceMode, ProfileId, ShrinkConfig, SlotId, SystemClock, TableId,
    TimeDimensionConfig, TimeRange, Timestamp, TruncateConfig,
};

#[derive(Clone, Debug)]
struct Write {
    at: u64,
    slot: u32,
    action: u32,
    fid: u64,
    count: i64,
}

fn arb_write() -> impl Strategy<Value = Write> {
    (0u64..2_000_000, 0u32..4, 0u32..3, 0u64..50, 1i64..100).prop_map(
        |(at, slot, action, fid, count)| Write {
            at,
            slot,
            action,
            fid,
            count,
        },
    )
}

fn apply(profile: &mut ProfileData, writes: &[Write], granularity: DurationMs) {
    for w in writes {
        profile.add(
            Timestamp::from_millis(w.at),
            SlotId::new(w.slot),
            ActionTypeId::new(w.action),
            FeatureId::new(w.fid),
            &CountVector::single(w.count),
            AggregateFunction::Sum,
            granularity,
        );
    }
}

/// Sum of attribute 0 over everything stored, regardless of structure.
fn grand_total(profile: &ProfileData) -> i64 {
    profile
        .slices()
        .iter()
        .flat_map(|s| s.iter_slots())
        .flat_map(|(_, set)| set.iter())
        .flat_map(|(_, stats)| stats.iter())
        .map(|(_, c)| c.get_or_zero(0))
        .sum()
}

/// Sort writes by their `granularity` bucket and shuffle them within each
/// bucket: the slices they open are the same, only arrival order differs.
fn shuffle_within_buckets(writes: &[Write], granularity: DurationMs, seed: u64) -> Vec<Write> {
    let g = granularity.as_millis();
    let mut out = writes.to_vec();
    out.sort_by_key(|w| w.at / g);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut start = 0;
    while start < out.len() {
        let bucket = out[start].at / g;
        let len = out[start..]
            .iter()
            .take_while(|w| w.at / g == bucket)
            .count();
        for i in (1..len).rev() {
            out.swap(start + i, start + rng.gen_range(0..=i));
        }
        start += len;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_writes_keep_invariants_and_totals(
        writes in proptest::collection::vec(arb_write(), 1..300),
        granularity_s in 1u64..600,
    ) {
        let mut p = ProfileData::new();
        apply(&mut p, &writes, DurationMs::from_secs(granularity_s));
        prop_assert!(p.check_invariants().is_ok(), "{:?}", p.check_invariants());
        let expected: i64 = writes.iter().map(|w| w.count).sum();
        prop_assert_eq!(grand_total(&p), expected);
    }

    #[test]
    fn compaction_preserves_totals(
        writes in proptest::collection::vec(arb_write(), 1..300),
        now_extra in 0u64..10_000_000,
        partial in any::<bool>(),
    ) {
        let mut p = ProfileData::new();
        apply(&mut p, &writes, DurationMs::from_secs(1));
        let before = grand_total(&p);
        let config = CompactionConfig {
            time_dimension: TimeDimensionConfig::production_default(),
            truncate: TruncateConfig::default(), // no truncation: totals must hold
            shrink: ShrinkConfig {
                default_retain: usize::MAX >> 1, // no shrink either
                ..Default::default()
            },
            ..Default::default()
        };
        let now = Timestamp::from_millis(2_000_000 + now_extra);
        compact_profile(&mut p, &config, AggregateFunction::Sum, now, partial);
        prop_assert!(p.check_invariants().is_ok());
        prop_assert_eq!(grand_total(&p), before, "compaction must not lose counts");
    }

    #[test]
    fn debt_scheduled_compaction_keeps_the_slice_bound(
        // (virtual ms to advance, age of the write in permille of the
        // span writes land in, feature) per write.
        steps in proptest::collection::vec((0u64..1_000, 0u64..1_000, 0u64..50), 100..600),
        demo in any::<bool>(),
        run_every in 1usize..64,
    ) {
        let (bands, span) = if demo {
            (TimeDimensionConfig::demo(), DurationMs::from_hours(2))
        } else {
            (TimeDimensionConfig::production_default(), DurationMs::from_days(2))
        };
        let head = bands.bands[0].granularity;
        let config = CompactionConfig {
            time_dimension: bands,
            ..Default::default()
        };
        let limit = slice_limit(&config.time_dimension);
        let mut now = Timestamp::from_millis(DurationMs::from_days(400).as_millis());
        let mut p = ProfileData::new();
        // The scheduler's queue entry for this profile: `Some(full)`.
        let mut queued: Option<bool> = None;
        let mut opened = 0;
        for (i, (advance, age, fid)) in steps.into_iter().enumerate() {
            now = Timestamp::from_millis(now.as_millis() + advance);
            let at = now.saturating_sub(DurationMs::from_millis(span.as_millis() * age / 1_000));
            let before = p.slice_count();
            p.add(
                at,
                SlotId::new(1),
                ActionTypeId::new(1),
                FeatureId::new(fid),
                &CountVector::single(1),
                AggregateFunction::Sum,
                head,
            );
            opened += p.slice_count() - before;
            // As `TableRuntime::apply` decides, and the queue dedups.
            if let Some(full) = needs_compaction(&p, &config, now) {
                queued = Some(queued.unwrap_or(false) || full);
            }
            let held = slices_in_horizon(&p, &config.time_dimension, now);
            prop_assert!(
                held <= limit + opened,
                "write {}: {} slices in the horizon, limit {} + {} opened",
                i, held, limit, opened
            );
            // A maintenance pass runs what is queued.
            if (i + 1) % run_every == 0 {
                if let Some(full) = queued.take() {
                    compact_profile(&mut p, &config, AggregateFunction::Sum, now, !full);
                }
                opened = 0;
            }
        }
    }

    #[test]
    fn truncation_never_increases_totals_and_respects_count(
        writes in proptest::collection::vec(arb_write(), 1..200),
        max_slices in 1usize..20,
    ) {
        let mut p = ProfileData::new();
        apply(&mut p, &writes, DurationMs::from_secs(1));
        let before = grand_total(&p);
        let config = CompactionConfig {
            time_dimension: TimeDimensionConfig::from_pairs(&[("1s", "0s", "365d")]).unwrap(),
            truncate: TruncateConfig {
                max_age: None,
                max_slices: Some(max_slices),
            },
            shrink: ShrinkConfig {
                default_retain: usize::MAX >> 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let now = Timestamp::from_millis(3_000_000);
        compact_profile(&mut p, &config, AggregateFunction::Sum, now, false);
        prop_assert!(p.slice_count() <= max_slices);
        prop_assert!(grand_total(&p) <= before);
        prop_assert!(p.check_invariants().is_ok());
    }

    #[test]
    fn codec_round_trips_arbitrary_profiles(
        writes in proptest::collection::vec(arb_write(), 0..200),
    ) {
        let mut p = ProfileData::new();
        apply(&mut p, &writes, DurationMs::from_secs(5));
        let bytes = encode_profile(&p);
        let decoded = decode_profile(&bytes).unwrap();
        prop_assert_eq!(decoded.slice_count(), p.slice_count());
        prop_assert_eq!(grand_total(&decoded), grand_total(&p));
        prop_assert!(decoded.check_invariants().is_ok());
        prop_assert_eq!(&decoded, &p);
        prop_assert_eq!(encode_profile(&decoded), bytes);
    }

    #[test]
    fn equal_content_encodes_to_equal_bytes(
        writes in proptest::collection::vec(arb_write(), 0..200),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let granularity = DurationMs::from_secs(5);
        let mut a = ProfileData::new();
        apply(&mut a, &shuffle_within_buckets(&writes, granularity, seed_a), granularity);
        let mut b = ProfileData::new();
        apply(&mut b, &shuffle_within_buckets(&writes, granularity, seed_b), granularity);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(encode_profile(&a), encode_profile(&b));
        for (sa, sb) in a.slices().iter().zip(b.slices()) {
            prop_assert_eq!(encode_slice(sa), encode_slice(sb));
        }
    }

    #[test]
    fn encoding_inside_a_live_span_matches_encoding_outside(
        writes in proptest::collection::vec(arb_write(), 0..200),
    ) {
        let mut p = ProfileData::new();
        apply(&mut p, &writes, DurationMs::from_secs(5));
        let encode_all = |p: &ProfileData| {
            let slices: Vec<Vec<u8>> = p.slices().iter().map(encode_slice).collect();
            (encode_profile(p), slices)
        };
        let outside = encode_all(&p);
        let tracer = Tracer::new(system_clock(), SamplerConfig::always());
        let span = tracer.root_span("flush", 1);
        prop_assert!(span.is_sampled() && ips_trace::current().is_some());
        let inside = encode_all(&p);
        drop(span);
        prop_assert_eq!(inside, outside);
    }

    #[test]
    fn corrupt_frames_are_rejected_without_panicking(
        writes in proptest::collection::vec(arb_write(), 1..100),
        cut in any::<prop::sample::Index>(),
        flip in any::<prop::sample::Index>(),
        bit in 0u32..8,
    ) {
        let mut p = ProfileData::new();
        apply(&mut p, &writes, DurationMs::from_secs(5));
        let frame = encode_profile(&p);
        let body = ips_codec::decode_frame(&frame).unwrap();
        let slice_frame = encode_slice(&p.slices()[0]);
        let slice_body = ips_codec::decode_frame(&slice_frame).unwrap();

        let mut flipped = frame.clone();
        flipped[flip.index(frame.len())] ^= 1 << bit;
        let mut flipped_body = body.clone();
        flipped_body[flip.index(body.len())] ^= 1 << bit;
        let mut flipped_slice = slice_body.clone();
        flipped_slice[flip.index(slice_body.len())] ^= 1 << bit;
        let candidates = [
            frame[..cut.index(frame.len())].to_vec(),
            flipped,
            // Behind a valid checksum, so the schema decoder sees the damage.
            ips_codec::encode_frame(&body[..cut.index(body.len())]),
            ips_codec::encode_frame(&flipped_body),
        ];
        for bytes in &candidates {
            if let Ok(decoded) = decode_profile(bytes) {
                prop_assert!(decoded.check_invariants().is_ok());
            }
        }
        for bytes in [
            slice_frame[..cut.index(slice_frame.len())].to_vec(),
            ips_codec::encode_frame(&slice_body[..cut.index(slice_body.len())]),
            ips_codec::encode_frame(&flipped_slice),
        ] {
            if let Ok(slice) = decode_slice(&bytes) {
                prop_assert!(slice.start() < slice.end());
            }
        }
    }

    #[test]
    fn filter_all_query_matches_reference(
        writes in proptest::collection::vec(arb_write(), 1..200),
        window_start in 0u64..2_000_000,
        window_len in 1u64..2_000_000,
    ) {
        let mut p = ProfileData::new();
        apply(&mut p, &writes, DurationMs::from_secs(1));
        let slot = SlotId::new(1);
        let lo = window_start;
        let hi = window_start.saturating_add(window_len);
        let query = ProfileQuery::filter(
            TableId::new(1),
            ProfileId::new(1),
            slot,
            TimeRange::Absolute {
                start: Timestamp::from_millis(lo),
                end: Timestamp::from_millis(hi),
            },
            FilterPredicate::All,
        );
        let now = Timestamp::from_millis(5_000_000);
        let result = engine::execute(&p, &query, AggregateFunction::Sum, &ShrinkConfig::default(), now);
        let engine_total: i64 = result
            .entries
            .iter()
            .map(|e| e.counts.get_or_zero(0))
            .sum();

        // Reference: fold raw writes through slice membership. A write is in
        // the window iff the slice covering its (1s-aligned) bucket overlaps
        // [lo, hi) — equivalently the whole slice's counts are included, so
        // compute the reference over slices directly.
        let reference: i64 = p
            .slices()
            .iter()
            .filter(|s| s.overlaps(Timestamp::from_millis(lo), Timestamp::from_millis(hi)))
            .filter_map(|s| s.slot(slot))
            .flat_map(|set| set.iter())
            .flat_map(|(_, stats)| stats.iter())
            .map(|(_, c)| c.get_or_zero(0))
            .sum();
        prop_assert_eq!(engine_total, reference);
    }

    #[test]
    fn projected_load_plus_upgrade_matches_full_load(
        writes in proptest::collection::vec(arb_write(), 1..150),
        granularity_s in 1u64..600,
        window_start in 0u64..2_500_000,
        window_len in 1u64..2_500_000,
    ) {
        let node = Arc::new(KvNode::new("kv", KvNodeConfig::default()).unwrap());
        let persister = Arc::new(ProfilePersister::new(
            node,
            TableId::new(1),
            PersistenceMode::Split { threshold_bytes: 0 },
        ));
        let cache = GCache::new(
            persister,
            CacheConfig {
                memory_budget_bytes: 64 << 20,
                lru_shards: 2,
                dirty_shards: 1,
                ..Default::default()
            },
            Arc::new(SystemClock),
        )
        .unwrap();
        let pid = ProfileId::new(1);
        let granularity = DurationMs::from_secs(granularity_s);
        cache.write(pid, |p| apply(p, &writes, granularity)).unwrap();
        cache.flush_all().unwrap();

        let now = Timestamp::from_millis(5_000_000);
        let range = TimeRange::Absolute {
            start: Timestamp::from_millis(window_start),
            end: Timestamp::from_millis(window_start.saturating_add(window_len)),
        };
        let window_query = ProfileQuery::filter(
            TableId::new(1),
            pid,
            SlotId::new(1),
            range,
            FilterPredicate::All,
        );
        let run = |p: &ProfileData| {
            engine::execute(p, &window_query, AggregateFunction::Sum, &ShrinkConfig::default(), now)
        };

        // Reference pass: a cold full load.
        prop_assert!(cache.evict(pid).unwrap());
        let (full_result, hit, _) = cache
            .read_projected(pid, &SliceProjection::Full, run)
            .unwrap()
            .unwrap();
        prop_assert!(!hit);
        let (full_shape, _, _) = cache
            .read_projected(pid, &SliceProjection::Full, |p| {
                (p.slice_count(), grand_total(p))
            })
            .unwrap()
            .unwrap();

        // Projected pass: cold load of just the window's slices...
        prop_assert!(cache.evict(pid).unwrap());
        let projection = SliceProjection::Window { range, now };
        let (projected_result, hit, _) = cache
            .read_projected(pid, &projection, run)
            .unwrap()
            .unwrap();
        prop_assert!(!hit);
        // ...which must answer the window query exactly like the full load.
        prop_assert_eq!(&projected_result, &full_result);

        // Upgrading the partial entry in place must reconstruct the
        // complete profile, structurally identical to the full load.
        let ((invariants, upgraded_shape), hit, _) = cache
            .read_projected(pid, &SliceProjection::Full, |p| {
                (p.check_invariants(), (p.slice_count(), grand_total(p)))
            })
            .unwrap()
            .unwrap();
        prop_assert!(hit, "upgrade happens on a resident entry");
        prop_assert!(invariants.is_ok(), "{invariants:?}");
        prop_assert_eq!(upgraded_shape, full_shape);
    }

    #[test]
    fn topk_is_prefix_of_full_ranking(
        writes in proptest::collection::vec(arb_write(), 1..150),
        k in 1usize..20,
    ) {
        let mut p = ProfileData::new();
        apply(&mut p, &writes, DurationMs::from_secs(1));
        let slot = SlotId::new(1);
        let now = Timestamp::from_millis(5_000_000);
        let range = TimeRange::Absolute {
            start: Timestamp::ZERO,
            end: now,
        };
        let all = engine::execute(
            &p,
            &ProfileQuery::top_k(TableId::new(1), ProfileId::new(1), slot, range, usize::MAX >> 1),
            AggregateFunction::Sum,
            &ShrinkConfig::default(),
            now,
        );
        let top = engine::execute(
            &p,
            &ProfileQuery::top_k(TableId::new(1), ProfileId::new(1), slot, range, k),
            AggregateFunction::Sum,
            &ShrinkConfig::default(),
            now,
        );
        let expected: Vec<_> = all.entries.iter().take(k).map(|e| e.feature).collect();
        prop_assert_eq!(top.feature_ids(), expected);
    }
}
