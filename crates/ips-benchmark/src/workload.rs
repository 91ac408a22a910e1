//! The four workloads and their operation streams.
//!
//! Every workload draws from `ips_ingest::WorkloadGenerator` — Zipf users,
//! the paper's query mix (top-K / filter / decay over 5 min–30 d windows) —
//! seeded from `--seed`, so the program under test sees only generated
//! inputs and the same seed always gives the same stream. What differs
//! between workloads is the read:write mix, the population relative to the
//! cache budget, and whether reads go one at a time or 128 to a call.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ips_core::query::{FilterPredicate, ProfileQuery, QueryKind};
use ips_ingest::{WorkloadConfig, WorkloadGenerator};
use ips_types::{
    ActionTypeId, CountVector, DurationMs, FeatureId, ProfileId, SlotId, TimeRange, Timestamp,
};

use crate::deploy::TABLE;

/// Sub-queries per `query_batch` call on `rank_batch`.
pub const BATCH_SIZE: usize = 128;
/// Canary profiles (ids directly above the user range) whose exact counts
/// the oracle keeps.
pub const CANARIES: u64 = 16;
/// One write in this many goes to a canary.
const CANARY_WRITE_ONE_IN: u32 = 16;
/// Distinct features per canary slot — far below the shrink budget (512 per
/// slot), so compaction never drops one and counts stay exact.
const CANARY_FEATURES: u64 = 6;
pub const SLOTS: u32 = 8;
const ACTION_TYPES: u32 = 4;
pub const ATTRIBUTES: usize = 3;
/// The preload spreads its writes over this much virtual time.
pub const PRELOAD_SPAN: DurationMs = DurationMs::from_days(30);

/// Bytes of user payload in one single-feature write: profile id,
/// timestamp, slot, action type, feature id and one count per attribute.
pub const USER_BYTES_PER_WRITE: u64 = 8 + 8 + 4 + 4 + 8 + 8 * ATTRIBUTES as u64;

/// What a workload runs and how the benchmark drives it. All sizes are
/// constants of the benchmark, fixed so results compare across commits.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub users: u64,
    pub user_zipf: f64,
    /// Reads per write.
    pub read_write_ratio: f64,
    /// Reads go `BATCH_SIZE` to a `query_batch` call, one write between
    /// calls, instead of one `query` at a time.
    pub batched: bool,
    /// Writes preloaded across [`PRELOAD_SPAN`] (at least one per user).
    pub preload_events: u64,
    /// `cache.memory_budget_bytes` override (per instance); `None` keeps
    /// the library default.
    pub cache_budget_bytes: Option<usize>,
    /// Unmeasured operations between preload and the measured window.
    pub warm_ops: u64,
    /// Operations in the counted prefix of the window: counts and `_total`
    /// times cover exactly these, so they compare across runs.
    pub counted_ops: u64,
    /// Operations between maintenance steps.
    pub maintenance_every: u64,
    /// Maintenance steps between KV checkpoints.
    pub checkpoint_every: u64,
    /// In the traced run, one read call in this many is replayed layer by
    /// layer.
    pub replay_one_in: u64,
    /// Virtual time between operations.
    pub virtual_step: DurationMs,
}

pub const WORKLOAD_NAMES: [&str; 4] = ["serve_hot", "serve_cold", "ingest_durable", "rank_batch"];

/// The spec of a named workload; `smoke` divides the operation counts by
/// 100 (and the population by 10) for tests and CI.
#[must_use]
pub fn spec(name: &str, smoke: bool) -> Option<WorkloadSpec> {
    let base = WorkloadSpec {
        name: "",
        why: "",
        users: 10_000,
        user_zipf: 1.05,
        read_write_ratio: 10.0,
        batched: false,
        preload_events: 150_000,
        cache_budget_bytes: None,
        warm_ops: 3_000,
        counted_ops: 20_000,
        maintenance_every: 2_000,
        checkpoint_every: 5,
        replay_one_in: 64,
        virtual_step: DurationMs::from_millis(20),
    };
    let spec = match name {
        "serve_hot" => WorkloadSpec {
            name: "serve_hot",
            why: "the paper's 10:1 read:write mix over a population well under the cache budget: the hit path (client, rpc, server pipeline, cache read, query engine) does the work",
            ..base
        },
        "serve_cold" => WorkloadSpec {
            name: "serve_cold",
            why: "the same mix over a population about 4x the cache budget with a flatter Zipf: persist load/decode, decompress, KV get, eviction and single-flight do the work",
            user_zipf: 0.7,
            cache_budget_bytes: Some(3 << 20),
            warm_ops: 20_000,
            ..base
        },
        "ingest_durable" => WorkloadSpec {
            name: "ingest_durable",
            why: "1:10 read:write: write table, cache write, compaction, persist save, KV set, WAL append/rotate/checkpoint and the replication pump do the work; reads only verify",
            read_write_ratio: 0.1,
            counted_ops: 12_000,
            checkpoint_every: 3,
            ..base
        },
        "rank_batch" => WorkloadSpec {
            name: "rank_batch",
            why: "candidate ranking: one 128-query query_batch per call over resident profiles, one write between calls; owner grouping, large frames, fair admission and the per-call fan-out do the work",
            batched: true,
            counted_ops: 30_000,
            maintenance_every: 2_580,
            // A step falls due inside a 129-operation round, so the round's
            // write waits behind it: 5 % of writes carry a step. At the base
            // cadence 1 % would carry a checkpoint, and `write_p99_us` would
            // sit on the edge between the two kinds (measured spread: 29 %).
            checkpoint_every: 10,
            replay_one_in: 16,
            ..base
        },
        _ => return None,
    };
    Some(if smoke { spec.smoke() } else { spec })
}

impl WorkloadSpec {
    fn smoke(self) -> Self {
        let users = self.users / 10;
        Self {
            users,
            preload_events: (self.preload_events / 100).max(users),
            cache_budget_bytes: self.cache_budget_bytes.map(|b| b / 20),
            warm_ops: self.warm_ops / 100,
            counted_ops: self.counted_ops / 100,
            maintenance_every: (self.maintenance_every / 100).max(1),
            replay_one_in: (self.replay_one_in / 16).max(1),
            ..self
        }
    }

    #[must_use]
    pub fn canary(&self, i: u64) -> ProfileId {
        ProfileId::new(self.users + 1 + i % CANARIES)
    }
}

/// One write: a single feature observation.
#[derive(Clone, Debug, PartialEq)]
pub struct WriteOp {
    pub profile: ProfileId,
    pub slot: SlotId,
    pub action: ActionTypeId,
    pub feature: FeatureId,
    pub counts: CountVector,
}

#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Read(ProfileQuery),
    ReadBatch(Vec<ProfileQuery>),
    Write(WriteOp),
}

impl Op {
    /// Operations this call counts for: one per profile query or write.
    #[must_use]
    pub fn weight(&self) -> u64 {
        match self {
            Op::ReadBatch(queries) => queries.len() as u64,
            Op::Read(_) | Op::Write(_) => 1,
        }
    }
}

/// The seeded operation stream of one workload.
pub struct OpStream {
    generator: WorkloadGenerator,
    /// Decides which writes go to canaries; separate from the generator's
    /// RNG so the generator's stream stays the library's own.
    canary_rng: SmallRng,
    spec: WorkloadSpec,
    /// On batched workloads, whether the next call is the write.
    write_next: bool,
    hash: Fnv,
}

impl OpStream {
    #[must_use]
    pub fn new(spec: &WorkloadSpec, seed: u64) -> Self {
        let generator = WorkloadGenerator::new(WorkloadConfig {
            table: TABLE,
            users: spec.users,
            user_zipf: spec.user_zipf,
            slots: SLOTS,
            action_types: ACTION_TYPES,
            attributes: ATTRIBUTES,
            read_write_ratio: spec.read_write_ratio,
            seed,
            ..WorkloadConfig::default()
        });
        Self {
            generator,
            canary_rng: SmallRng::seed_from_u64(seed ^ 0xCA7A_5EED),
            spec: spec.clone(),
            write_next: false,
            hash: Fnv::new(),
        }
    }

    /// A preload write by a Zipf-drawn user.
    pub fn preload_write(&mut self) -> WriteOp {
        let rec = self.generator.instance(Timestamp::ZERO);
        WriteOp {
            profile: rec.user,
            slot: rec.slot,
            action: rec.action_type,
            feature: rec.feature,
            counts: rec.counts,
        }
    }

    /// The preload write that makes `user` exist: a query for a profile
    /// that exists nowhere goes to the store every time, which would make
    /// "hit ratio" a property of the id range instead of the cache.
    pub fn preload_write_for(&mut self, user: u64) -> WriteOp {
        WriteOp {
            profile: ProfileId::new(user),
            ..self.preload_write()
        }
    }

    fn write(&mut self) -> WriteOp {
        if self.canary_rng.gen_range(0..CANARY_WRITE_ONE_IN) == 0 {
            let mut counts = CountVector::zeros(ATTRIBUTES);
            counts.set(self.canary_rng.gen_range(0..ATTRIBUTES), 1);
            WriteOp {
                profile: self.spec.canary(self.canary_rng.gen_range(0..CANARIES)),
                slot: SlotId::new(self.canary_rng.gen_range(0..SLOTS)),
                action: ActionTypeId::new(self.canary_rng.gen_range(0..ACTION_TYPES)),
                feature: FeatureId::new(1 + self.canary_rng.gen_range(0..CANARY_FEATURES)),
                counts,
            }
        } else {
            self.preload_write()
        }
    }

    /// The next operation of the stream.
    pub fn next_op(&mut self) -> Op {
        let op = if self.spec.batched {
            self.write_next = !self.write_next;
            if self.write_next {
                Op::ReadBatch(
                    (0..BATCH_SIZE)
                        .map(|_| self.generator.query(Timestamp::ZERO))
                        .collect(),
                )
            } else {
                Op::Write(self.write())
            }
        } else if self.generator.next_is_read() {
            Op::Read(self.generator.query(Timestamp::ZERO))
        } else {
            Op::Write(self.write())
        };
        self.hash.op(&op);
        op
    }

    /// FNV-1a hash of every operation handed out so far.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash.0
    }
}

/// The whole-history query the oracle checks a canary slot with.
#[must_use]
pub fn canary_query(profile: ProfileId, slot: u32) -> ProfileQuery {
    ProfileQuery::filter(
        TABLE,
        profile,
        SlotId::new(slot),
        TimeRange::Absolute {
            start: Timestamp::ZERO,
            end: Timestamp::from_millis(u64::MAX / 2),
        },
        FilterPredicate::All,
    )
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn query(&mut self, q: &ProfileQuery) {
        self.word(q.profile.raw());
        self.word(u64::from(q.slot.raw()));
        self.word(match q.range {
            TimeRange::Current { lookback } | TimeRange::Relative { lookback } => {
                lookback.as_millis()
            }
            TimeRange::Absolute { start, end } => start.as_millis() ^ end.as_millis(),
        });
        match &q.kind {
            QueryKind::TopK { k, .. } => self.word(1 << 32 | *k as u64),
            QueryKind::Filter { predicate } => self.word(match predicate {
                FilterPredicate::MinAttribute { attr, .. } => 2 << 32 | *attr as u64,
                FilterPredicate::FeatureIn(set) => 3 << 32 | set.len() as u64,
                FilterPredicate::All => 4 << 32,
            }),
            QueryKind::Decay { k, .. } => self.word(5 << 32 | *k as u64),
        }
    }

    fn op(&mut self, op: &Op) {
        match op {
            Op::Read(q) => {
                self.word(1);
                self.query(q);
            }
            Op::ReadBatch(queries) => {
                self.word(2);
                for q in queries {
                    self.query(q);
                }
            }
            Op::Write(w) => {
                self.word(3);
                self.word(w.profile.raw());
                self.word(u64::from(w.slot.raw()) << 32 | u64::from(w.action.raw()));
                self.word(w.feature.raw());
                for c in w.counts.as_slice() {
                    self.word(*c as u64);
                }
            }
        }
    }
}
