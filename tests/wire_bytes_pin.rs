//! Pins the bytes the storage and batch-response encoders produce for
//! benchmark-shaped profiles, as one hash per encoder.
//!
//! `wire_golden.rs` pins one small sample per message. This test pins
//! volume: profiles of 30+ slices built through `ProfileData::add` and
//! compaction, with slice columns of 128 B and more (so the in-place
//! nested writer takes its multi-byte length-prefix path) and frames large
//! enough that the compressor emits copies. A change to the in-memory
//! layout or to the writer must leave all three hashes where they are; only
//! a deliberate storage-format change re-pins the profile and slice hashes.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ips::cluster::rpc::RpcResponse;
use ips::codec::frame::decode_frame;
use ips::core::persist::schema::{encode_profile, encode_slice};
use ips::core::query::{engine, FilterPredicate, ProfileQuery, QueryKind};
use ips::core::ProfileData;
use ips::types::config::DecayFunction;
use ips::types::{
    AggregateFunction, CompactionConfig, DurationMs, ProfileId, ShrinkConfig, SlotId, SortKey,
    SortOrder, TableId, TimeDimensionConfig, TimeRange, Timestamp,
};

#[path = "../crates/ips-core/tests/common/shaped.rs"]
mod shaped;

/// FNV-1a over length-prefixed chunks, so a byte moving between two
/// encodes changes the hash.
#[derive(Default)]
struct Fnv(u64);

impl Fnv {
    fn add(&mut self, bytes: &[u8]) {
        if self.0 == 0 {
            self.0 = 0xcbf2_9ce4_8422_2325;
        }
        let len = (bytes.len() as u64).to_le_bytes();
        for b in len.iter().chain(bytes) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Seeded profiles: a dozen of a few hundred writes (30+ daily and hourly
/// slices) and two of a few thousand (slot bodies past 128 B).
fn profiles() -> Vec<ProfileData> {
    let config = CompactionConfig {
        time_dimension: TimeDimensionConfig::production_default(),
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(34);
    let sizes: [Range<u32>; 2] = [300..500, 2_500..3_500];
    (0..14)
        .map(|i| shaped::benchmark_shaped_profile(&mut rng, &config, sizes[i / 12].clone()))
        .collect()
}

/// Length of the longest packed column (runs, fids, counts: fields 4–6)
/// of a slice body.
#[allow(clippy::disallowed_types, reason = "reads a slice body field by field")]
fn longest_column(body: &[u8]) -> usize {
    let mut reader = ips::codec::WireReader::new(body);
    let mut longest = 0;
    while let Some((field, value)) = reader.next_field().unwrap() {
        if (4..=6).contains(&field) {
            longest = longest.max(value.as_bytes(field).unwrap().len());
        }
    }
    longest
}

fn queries(profile: ProfileId) -> Vec<ProfileQuery> {
    let range = TimeRange::Current {
        lookback: DurationMs::from_days(30),
    };
    let query = |slot, kind| ProfileQuery {
        table: TableId::new(1),
        profile,
        slot: SlotId::new(slot),
        action: None,
        range,
        kind,
        decay: DecayFunction::None,
        decay_factor: 1.0,
    };
    vec![
        query(
            1,
            QueryKind::TopK {
                k: 20,
                sort: SortKey::Attribute(0),
                order: SortOrder::Descending,
            },
        ),
        query(
            2,
            QueryKind::Decay {
                k: 10,
                sort: SortKey::WeightedScore,
                order: SortOrder::Descending,
            },
        ),
        query(
            3,
            QueryKind::Filter {
                predicate: FilterPredicate::All,
            },
        ),
    ]
}

#[test]
fn encoders_produce_pinned_bytes_for_shaped_profiles() {
    let profiles = profiles();
    let (mut profile_hash, mut slice_hash, mut batch_hash) =
        (Fnv::default(), Fnv::default(), Fnv::default());
    let mut longest = 0;
    let mut batch = Vec::new();
    let now = Timestamp::from_millis(DurationMs::from_days(30).as_millis());
    for (i, profile) in profiles.iter().enumerate() {
        assert!(profile.slice_count() >= 30, "{}", profile.slice_count());
        profile_hash.add(&encode_profile(profile));
        for slice in profile.slices() {
            let frame = encode_slice(slice);
            longest = longest.max(longest_column(&decode_frame(&frame).unwrap()));
            slice_hash.add(&frame);
        }
        for query in queries(ProfileId::new(i as u64)) {
            let result = engine::execute(
                profile,
                &query,
                AggregateFunction::Sum,
                &ShrinkConfig::default(),
                now,
            );
            batch.push(Ok(result));
        }
    }
    let response = RpcResponse::QueryBatch(batch).encode();
    batch_hash.add(&response);
    assert!(longest >= 128, "longest column body: {longest} B");
    assert!(response.len() >= 4_096, "{}", response.len());

    let got = [profile_hash.0, slice_hash.0, batch_hash.0];
    let want = [
        0x7352_fe73_2d72_e440,
        0xd35f_1c56_02db_4163,
        0x6ed2_112e_3b78_c39b,
    ];
    assert_eq!(
        got, want,
        "encode_profile, encode_slice and the query_batch response changed bytes: {got:#018x?}"
    );
}

/// The framed sizes of the codec bench's shaped profiles (a median 40-write
/// one and a hot 3,000-write one, drawn in that order from seed 34) stay
/// under ceilings set by the packed slice columns. The nested slice bodies
/// before them framed to 767 B and 21,795 B; a codec change that gives
/// those bytes back fails here, not only in the hashes above.
#[test]
fn codec_bench_profiles_frame_under_their_size_ceilings() {
    let config = CompactionConfig {
        time_dimension: TimeDimensionConfig::production_default(),
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(34);
    for (writes, ceiling) in [(40u32, 640), (3_000, 13_500)] {
        let profile = shaped::benchmark_shaped_profile(&mut rng, &config, writes..writes + 1);
        let framed = encode_profile(&profile).len();
        println!("{writes} writes: {framed} B framed");
        assert!(
            framed <= ceiling,
            "{writes}-write profile frames to {framed} B, over its {ceiling} B ceiling"
        );
    }
}
