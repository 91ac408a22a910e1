//! Benchmark-shaped profiles, shared by the footprint and byte-pin tests.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::Rng;

use ips_core::compact::compact_profile;
use ips_core::model::ProfileData;
use ips_types::{
    ActionTypeId, AggregateFunction, CompactionConfig, CountVector, DurationMs, FeatureId, SlotId,
    Timestamp,
};

const SLOTS: u32 = 8;
const ACTION_TYPES: u32 = 4;
const ATTRIBUTES: usize = 3;

/// A profile shaped like the benchmark's: `writes` one-hot three-attribute
/// writes over 8 slots and 4 action types, spread over 30 days at 1 s head
/// granularity through `ProfileData::add`, then compacted under `config`
/// as of the end of those 30 days.
pub fn benchmark_shaped_profile(
    rng: &mut StdRng,
    config: &CompactionConfig,
    writes: Range<u32>,
) -> ProfileData {
    let span = DurationMs::from_days(30).as_millis();
    let mut profile = ProfileData::new();
    for _ in 0..rng.gen_range(writes) {
        let mut counts = CountVector::zeros(ATTRIBUTES);
        counts.set(rng.gen_range(0..ATTRIBUTES), 1);
        profile.add(
            Timestamp::from_millis(rng.gen_range(0..span)),
            SlotId::new(rng.gen_range(0..SLOTS)),
            ActionTypeId::new(rng.gen_range(0..ACTION_TYPES)),
            FeatureId::new(rng.gen_range(0..5_000)),
            &counts,
            AggregateFunction::Sum,
            DurationMs::from_secs(1),
        );
    }
    let now = Timestamp::from_millis(span);
    compact_profile(&mut profile, config, AggregateFunction::Sum, now, false);
    profile
}
