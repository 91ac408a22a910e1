//! Miss-path microbenchmark: single-flight load coalescing and slice
//! projection pushdown.
//!
//! Two arms:
//!
//! * **Thundering herd** — 64 concurrent readers hit one cold key. With
//!   single-flight coalescing the cache must issue *exactly one* store load
//!   per cold key (loads-per-miss = 1.0); every other reader parks on the
//!   in-flight slot and shares the result. Measured directly against a
//!   `GCache` over a real in-memory KV node with OS threads.
//! * **Projection** — queries that touch 1 of 8 slices of a split-persisted
//!   profile versus queries that decode the full profile. The projected
//!   miss fetches only the slices its window overlaps (plus the head
//!   slice), so its client-observed latency — including the storage fetch
//!   priced offline from the bytes it read — must come in at least 2×
//!   below the full decode at p99.
//!
//! Writes `BENCH_miss_path.json`. `--smoke` shrinks the workload for CI and
//! writes the artefact under `target/bench-smoke/` instead.

#![expect(clippy::disallowed_methods, reason = "sleeps model KV service time")]

use std::fmt::Write as _;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use bytes::Bytes;
use ips_bench::{banner, latency_row, testbed, TestbedOptions, TABLE};
use ips_core::query::ProfileQuery;
use ips_core::{GCache, ProfilePersister, ProfileStore};
use ips_kv::{Generation, KvNode, KvNodeConfig};
use ips_metrics::Histogram;
use ips_types::{
    ActionTypeId, AggregateFunction, CacheConfig, CallerId, Clock, CountVector, DurationMs,
    FeatureId, PersistenceMode, ProfileId, SlotId, TimeRange, Timestamp,
};

const HERD_READERS: usize = 64;
/// Injected store read latency for the herd arm. The in-memory KV answers in
/// microseconds, which lets the leader finish before the herd even reaches
/// the miss path; a realistic store round trip is what makes readers pile up
/// on the in-flight slot.
const HERD_STORE_DELAY: Duration = Duration::from_millis(2);
/// Features written per slice in the projection arm — sized so a full
/// profile lands well above [`MIN_FULL_BYTES`] stored and the
/// byte-proportional part of the storage model (60 µs/KiB) dominates the
/// fixed per-fetch cost, separating full decodes from projected ones. A
/// storage format that packs rows tighter needs more of them.
const FEATURES_PER_SLICE: u64 = 3_200;
/// The stored size a full profile must exceed for the projection claim to
/// be about fetch volume rather than fixed per-fetch costs; checked.
const MIN_FULL_BYTES: u64 = 100 << 10;
const SLICES_PER_PROFILE: u64 = 8;

/// An in-memory KV with a fixed delay on every read verb, standing in for a
/// remote store round trip. Writes stay fast so preloading is cheap.
struct DelayedStore {
    inner: Arc<KvNode>,
    delay: Duration,
}

impl ProfileStore for DelayedStore {
    fn get(&self, key: &[u8]) -> ips_types::Result<Option<Bytes>> {
        std::thread::sleep(self.delay);
        self.inner.get(key)
    }
    fn get_many(&self, keys: &[Bytes]) -> ips_types::Result<Vec<Option<Bytes>>> {
        std::thread::sleep(self.delay);
        self.inner.get_many(keys)
    }
    fn xget(&self, key: &[u8]) -> ips_types::Result<(Option<Bytes>, Generation)> {
        std::thread::sleep(self.delay);
        self.inner.xget(key)
    }
    fn xset(&self, key: Bytes, value: Bytes, held: Generation) -> ips_types::Result<Generation> {
        self.inner.xset(key, value, held)
    }
    fn delete(&self, key: &[u8]) -> ips_types::Result<bool> {
        self.inner.delete(key)
    }
}

/// One cold key's herd: spawn the readers, park them on a barrier, release
/// them at once, and record each reader's wall-clock read latency.
fn herd_round(cache: &Arc<GCache<DelayedStore>>, user: ProfileId, latencies: &Histogram) {
    let barrier = Arc::new(Barrier::new(HERD_READERS));
    let handles: Vec<_> = (0..HERD_READERS)
        .map(|_| {
            let cache = Arc::clone(cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let started = std::time::Instant::now();
                let out = cache
                    .read(user, |p| p.feature_count())
                    .expect("herd read")
                    .expect("profile exists");
                (started.elapsed().as_micros() as u64, out.0)
            })
        })
        .collect();
    for h in handles {
        let (us, count) = h.join().expect("herd reader");
        assert!(count > 0, "herd readers must see the loaded profile");
        latencies.record(us);
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "miss path",
        "single-flight coalescing (loads per miss) + slice projection pushdown",
    );
    let (herd_rounds, projection_users): (u64, u64) = if smoke { (10, 40) } else { (60, 250) };

    // ---- arm 1: thundering herd ------------------------------------------
    println!("herd arm: {HERD_READERS} readers x {herd_rounds} cold keys ...");
    let node = Arc::new(KvNode::new("kv", KvNodeConfig::default()).expect("kv node"));
    let store = DelayedStore {
        inner: Arc::clone(&node),
        delay: HERD_STORE_DELAY,
    };
    let persister = Arc::new(ProfilePersister::new(
        store,
        TABLE,
        PersistenceMode::Split { threshold_bytes: 0 },
    ));
    let cache = Arc::new(
        GCache::new(
            persister,
            CacheConfig {
                memory_budget_bytes: 256 << 20,
                lru_shards: 8,
                dirty_shards: 2,
                ..Default::default()
            },
            Arc::new(ips_types::SystemClock),
        )
        .expect("cache"),
    );
    for r in 0..herd_rounds {
        let user = ProfileId::new(1 + r);
        // A profile with a handful of slices so the load is not trivial.
        cache
            .write(user, |p| {
                for s in 0..4u64 {
                    for f in 0..32u64 {
                        p.add(
                            Timestamp::from_millis(1_000_000 + s * 1_000),
                            SlotId::new(1),
                            ActionTypeId::new(1),
                            FeatureId::new(f),
                            &CountVector::single(1),
                            AggregateFunction::Sum,
                            DurationMs::from_secs(1),
                        );
                    }
                }
            })
            .expect("preload write");
    }
    cache.flush_all().expect("flush");
    for r in 0..herd_rounds {
        assert!(cache.evict(ProfileId::new(1 + r)).expect("evict"));
    }

    let before = cache.stats();
    let herd_latencies = Histogram::new();
    for r in 0..herd_rounds {
        herd_round(&cache, ProfileId::new(1 + r), &herd_latencies);
    }
    let after = cache.stats();
    let store_loads = after.store_loads - before.store_loads;
    let misses = after.misses - before.misses;
    let coalesced = after.coalesced_loads - before.coalesced_loads;
    let hits = after.hits - before.hits;
    let loads_per_miss = store_loads as f64 / herd_rounds as f64;
    latency_row("herd reader", &herd_latencies.snapshot());
    println!(
        "cold keys={herd_rounds} store_loads={store_loads} misses={misses} \
         coalesced={coalesced} loads/miss={loads_per_miss:.2}"
    );
    assert_eq!(
        store_loads, herd_rounds,
        "single-flight must issue exactly one store load per cold key"
    );
    assert_eq!(misses, herd_rounds, "one counted miss per cold key");
    assert_eq!(
        misses + coalesced + hits,
        HERD_READERS as u64 * herd_rounds,
        "every herd reader is a miss leader, a coalesced waiter, or a hit"
    );
    assert!(
        coalesced > 0,
        "with a {HERD_STORE_DELAY:?} store round trip the herd must pile up on the slot"
    );

    // ---- arm 2: projection pushdown --------------------------------------
    println!();
    println!(
        "projection arm: {projection_users} users x {SLICES_PER_PROFILE} slices, \
         1-slice window vs full decode ..."
    );
    let mut opts = TestbedOptions::default();
    // Force split persistence well below these profiles' size so projected
    // loads can skip slices.
    opts.table.persistence = PersistenceMode::Split {
        threshold_bytes: 4 << 10,
    };
    let tb = testbed(opts);
    let caller = CallerId::new(1);
    let now = tb.ctl.now();
    let base_ms = now.as_millis() - DurationMs::from_hours(1).as_millis();
    let features: Vec<(FeatureId, CountVector)> = (0..FEATURES_PER_SLICE)
        .map(|f| {
            let n = 1 + f as i64;
            (FeatureId::new(f), CountVector::from_slice(&[n, n * 2, 1]))
        })
        .collect();
    for u in 0..projection_users {
        let user = ProfileId::new(10_000 + u);
        for s in 0..SLICES_PER_PROFILE {
            tb.client
                .add_profiles(
                    caller,
                    TABLE,
                    user,
                    Timestamp::from_millis(base_ms + s * 1_000),
                    SlotId::new(1),
                    ActionTypeId::new(1),
                    &features,
                )
                .expect("preload");
        }
    }
    for ep in tb.deployment.all_endpoints() {
        ep.instance().flush_all().expect("flush");
    }

    let projected = Histogram::new();
    let full = Histogram::new();
    let (mut projected_bytes, mut full_bytes) = (0u64, 0u64);
    let evict_everywhere = |user: ProfileId| {
        for ep in tb.deployment.all_endpoints() {
            let _ = ep.instance().table(TABLE).expect("table").cache.evict(user);
        }
    };
    // Middle slice [base+3s, base+4s) — a 1-of-8 window (the head slice
    // rides along on every projected load).
    let narrow_range = TimeRange::Absolute {
        start: Timestamp::from_millis(base_ms + 3_000),
        end: Timestamp::from_millis(base_ms + 4_000),
    };
    let full_range = TimeRange::Absolute {
        start: Timestamp::from_millis(base_ms),
        end: Timestamp::from_millis(base_ms + SLICES_PER_PROFILE * 1_000),
    };
    for u in 0..projection_users {
        let user = ProfileId::new(10_000 + u);
        evict_everywhere(user);
        let q = ProfileQuery::top_k(TABLE, user, SlotId::new(1), narrow_range, 100);
        let (r, priced) = tb.query(caller, &q).expect("projected query");
        assert!(!r.cache_hit, "evicted user must miss");
        assert!(!r.is_empty());
        projected.record(priced.total_us());
        projected_bytes += r.kv_bytes_read;

        evict_everywhere(user);
        let q = ProfileQuery::top_k(TABLE, user, SlotId::new(1), full_range, 100);
        let (r, priced) = tb.query(caller, &q).expect("full query");
        assert!(!r.cache_hit, "evicted user must miss");
        assert!(!r.is_empty());
        full.record(priced.total_us());
        full_bytes += r.kv_bytes_read;
    }
    latency_row("miss / 1-of-8 slices", &projected.snapshot());
    latency_row("miss / full decode", &full.snapshot());
    let p99_ratio = full.percentile(99.0) as f64 / projected.percentile(99.0).max(1) as f64;
    let avg_projected_bytes = projected_bytes / projection_users;
    let avg_full_bytes = full_bytes / projection_users;
    println!(
        "avg kv bytes/miss: projected={avg_projected_bytes} full={avg_full_bytes} \
         p99 ratio={p99_ratio:.2}x"
    );
    assert!(
        avg_full_bytes > MIN_FULL_BYTES,
        "a full profile must store more than {MIN_FULL_BYTES} B (got {avg_full_bytes} B): \
         raise FEATURES_PER_SLICE"
    );
    assert!(
        avg_projected_bytes * 2 < avg_full_bytes,
        "projected loads must read far fewer bytes than full loads"
    );
    assert!(
        p99_ratio >= 2.0,
        "projected miss p99 must be at least 2x below the full decode (got {p99_ratio:.2}x)"
    );

    // ---- JSON artefact ----------------------------------------------------
    let hp = herd_latencies.snapshot();
    let pp = projected.snapshot();
    let fp = full.snapshot();
    let mut json = String::from("{\n  \"bench\": \"miss_path\",\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(
        json,
        "  \"herd\": {{\"readers\": {HERD_READERS}, \"cold_keys\": {herd_rounds}, \
         \"store_loads\": {store_loads}, \"misses\": {misses}, \"coalesced_loads\": {coalesced}, \
         \"loads_per_miss\": {loads_per_miss:.3}, \"p50_us\": {}, \"p99_us\": {}}},",
        hp.percentile(50.0),
        hp.percentile(99.0)
    );
    let _ = writeln!(
        json,
        "  \"projection\": {{\"users\": {projection_users}, \"slices\": {SLICES_PER_PROFILE}, \
         \"projected\": {{\"p50_us\": {}, \"p99_us\": {}, \"avg_kv_bytes\": {avg_projected_bytes}}}, \
         \"full\": {{\"p50_us\": {}, \"p99_us\": {}, \"avg_kv_bytes\": {avg_full_bytes}}}, \
         \"p99_ratio\": {p99_ratio:.2}}}\n}}",
        pp.percentile(50.0),
        pp.percentile(99.0),
        fp.percentile(50.0),
        fp.percentile(99.0)
    );
    ips_bench::write_artefact("BENCH_miss_path.json", smoke, &json);
    println!("miss_path: OK");
}
