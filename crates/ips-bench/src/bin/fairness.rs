//! Noisy-neighbor isolation under per-caller weighted fair admission.
//!
//! One instance, two tenants sharing the batch worker pool (admission
//! limit 32): an *interactive* caller issuing paced 8-query batches over
//! warm, feature-heavy profiles, and a *bulk* caller flooding single-query
//! cold scans from 20 threads at far above the interactive rate. Weights
//! come from the configured quota contracts (3:1), so the bulk tenant's
//! fair share of the pool is 8 sub-query units while the interactive
//! tenant is active, and the whole pool when it floods alone (the
//! admission layer is work-conserving).
//!
//! The bulk flood is deliberately IO-bound: its scans target profile ids
//! that only exist behind a 2 ms store round-trip, so every admitted scan
//! *holds* its admission unit for milliseconds (exactly the
//! worker-pool-hogging shape the layer exists to contain) while the host
//! CPU stays available for the interactive tenant. Before the
//! fair-admission layer a single inflight counter was first come, first
//! served: the flood would hold every slot and the interactive caller
//! would eat `Overloaded` or queue behind the cold backlog. With the
//! weighted deficit pick the measured claims are:
//!
//! * the interactive caller is **never** shed (its own share is never
//!   exhausted by its paced load),
//! * the bulk caller is shed with `Overloaded` precisely when its own
//!   weighted share is exhausted — it still gets admitted below the share
//!   (admitted batches > 0) rather than being starved outright,
//! * interactive p99 under the flood stays within 2× of its unloaded p99.
//!
//! Writes `BENCH_fairness.json`. `--smoke` shrinks the workload for CI and
//! writes the artefact under `target/bench-smoke/` instead.

#![expect(clippy::disallowed_methods, reason = "sleeps model store and clients")]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ips_bench::{banner, TABLE};
use ips_core::query::ProfileQuery;
use ips_core::server::{IpsInstance, IpsInstanceOptions};
use ips_core::ProfileStore;
use ips_kv::{Generation, KvNode, KvNodeConfig};
use ips_metrics::Histogram;
use ips_types::clock::sim_clock;
use ips_types::{
    ActionTypeId, AdmissionConfig, CallerId, Clock, CountVector, DurationMs, FeatureId, IpsError,
    ProfileId, QuotaConfig, SlotId, TimeRange, Timestamp,
};

/// Batch worker-pool capacity in sub-query units.
const POOL_LIMIT: usize = 32;
/// Flooding OS threads for the bulk tenant, each issuing single-query cold
/// scans. Twenty is deliberate: bulk can hold at most 20 admission units
/// (one per thread), which keeps `20 + BATCH <= POOL_LIMIT` so the
/// work-conserving expansion during interactive think-time can never make
/// the interactive tenant queue behind the flood's drain — while still
/// flooding well past bulk's 8-unit active share so share-exhausted sheds
/// are continuously exercised.
const BULK_THREADS: usize = 20;
/// Sub-queries per interactive batch. 8 <= the interactive tenant's
/// 24-unit share, so its paced load never exhausts its own share.
const BATCH: usize = 8;
/// Interactive think time between batches — a paced ~60 QPS ranking
/// caller.
const THINK_MS: u64 = 16;
/// Interactive profiles carry this many features so a batch costs real
/// compute; the bulk flood reads cold ids through the delayed store so its
/// *admitted* work parks in IO instead of competing for the CPU the
/// admission layer already capped.
const HEAVY_FEATURES: u64 = 512;
/// Simulated store round-trip for cold reads. Every bulk scan pays this,
/// pinning the tenant's admission unit for the full round-trip.
const STORE_DELAY_MS: u64 = 2;
/// Cold ids start far above both preloaded ranges so bulk reads always
/// miss the cache and walk to the (delayed) store.
const COLD_BASE: u64 = 5_000_000;

/// A `ProfileStore` whose read verbs cost a fixed round-trip, standing in
/// for a remote KV service. Writes stay instant: preload is not the
/// subject here.
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

struct Tenants {
    instance: Arc<IpsInstance>,
    interactive: CallerId,
    bulk: CallerId,
    heavy_profiles: u64,
    /// Monotonic cold-id cursor: every bulk batch reads 8 ids nobody has
    /// touched before, so no read coalesces and none is ever cached.
    cold_cursor: AtomicU64,
}

fn setup(heavy_profiles: u64) -> Tenants {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(30).as_millis(),
    ));
    let node = Arc::new(
        KvNode::new("fairness-kv".to_string(), KvNodeConfig::default()).expect("in-memory node"),
    );
    let store = Arc::new(DelayedStore {
        inner: node,
        delay: Duration::from_millis(STORE_DELAY_MS),
    });
    let instance = IpsInstance::new(
        store,
        IpsInstanceOptions {
            admission: AdmissionConfig {
                max_inflight_subqueries: POOL_LIMIT,
            },
            name: "fairness".into(),
            ..Default::default()
        },
        clock,
    );
    let mut cfg = ips_types::TableConfig::new("shared");
    cfg.isolation.enabled = false;
    instance.create_table(TABLE, cfg).unwrap();

    let interactive = CallerId::new(1);
    let bulk = CallerId::new(2);
    // The quota contract doubles as the fair-admission weight (3:1); the
    // absolute numbers are large enough that the token bucket never rejects
    // inside this run — the bench isolates the admission layer, not quota.
    instance.quota.set_quota(
        interactive,
        QuotaConfig {
            qps_limit: 3_000_000,
            burst_factor: 1.5,
        },
    );
    instance.quota.set_quota(
        bulk,
        QuotaConfig {
            qps_limit: 1_000_000,
            burst_factor: 1.5,
        },
    );

    let loader = CallerId::new(99);
    instance.quota.set_quota(
        loader,
        QuotaConfig {
            qps_limit: 10_000_000,
            burst_factor: 1.5,
        },
    );
    let at = ctl.now();
    // Interactive working set: feature-heavy profiles (real ranking reads).
    for pid in 0..heavy_profiles {
        let features: Vec<(FeatureId, CountVector)> = (0..HEAVY_FEATURES)
            .map(|f| {
                (
                    FeatureId::new(f),
                    CountVector::from_slice(&[f as i64 + 1, 2, 1]),
                )
            })
            .collect();
        instance
            .add_profiles(
                loader,
                TABLE,
                ProfileId::new(pid),
                at,
                SlotId::new((pid % 8) as u32),
                ActionTypeId::new(1),
                &features,
            )
            .unwrap();
    }
    Tenants {
        instance,
        interactive,
        bulk,
        heavy_profiles,
        cold_cursor: AtomicU64::new(0),
    }
}

fn heavy_batch(t: &Tenants, round: u64) -> Vec<ProfileQuery> {
    (0..BATCH as u64)
        .map(|i| {
            let pid = (round * 31 + i * 7) % t.heavy_profiles;
            ProfileQuery::top_k(
                TABLE,
                ProfileId::new(pid),
                SlotId::new((pid % 8) as u32),
                TimeRange::last_days(7),
                10,
            )
        })
        .collect()
}

/// A bulk "cold scan": one never-before-seen id, a guaranteed cache miss
/// that walks to the delayed store. Single-query batches execute inline on
/// the calling thread, so the flood costs the host no worker spawns — its
/// pressure lands entirely on the admission units it pins.
fn cold_scan(t: &Tenants) -> Vec<ProfileQuery> {
    let pid = COLD_BASE + t.cold_cursor.fetch_add(1, Ordering::Relaxed);
    vec![ProfileQuery::top_k(
        TABLE,
        ProfileId::new(pid),
        SlotId::new((pid % 8) as u32),
        TimeRange::last_days(7),
        10,
    )]
}

/// One paced interactive pass: `rounds` batches with a fixed think time.
/// Returns (histogram of per-batch µs, overloaded count).
fn interactive_pass(t: &Tenants, rounds: u64, warmup: u64) -> (Histogram, u64) {
    let hist = Histogram::new();
    let mut overloaded = 0u64;
    for round in 0..(warmup + rounds) {
        let queries = heavy_batch(t, round);
        let t0 = Instant::now();
        match t.instance.query_batch(t.interactive, &queries) {
            Ok(results) => {
                assert!(results.iter().all(Result::is_ok), "warm read failed");
                if round >= warmup {
                    hist.record(t0.elapsed().as_micros() as u64);
                }
            }
            Err(IpsError::Overloaded { .. }) => overloaded += 1,
            Err(e) => panic!("interactive batch failed: {e}"),
        }
        std::thread::sleep(Duration::from_millis(THINK_MS));
    }
    (hist, overloaded)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "E-FAIRNESS (§IV)",
        "per-caller weighted fair admission vs a flooding bulk tenant",
    );
    let (rounds, heavy_profiles) = if smoke { (120, 96) } else { (400, 256) };
    let t = Arc::new(setup(heavy_profiles));

    // Warm the interactive working set into the cache before measuring.
    for round in 0..(t.heavy_profiles / BATCH as u64) {
        let results = t
            .instance
            .query_batch(t.interactive, &heavy_batch(&t, round * 4 + 1))
            .unwrap();
        assert!(results.iter().all(Result::is_ok), "warm load failed");
    }

    // Phase 1 — unloaded: the interactive tenant alone.
    let (unloaded, unloaded_overloaded) = interactive_pass(&t, rounds, 20);

    // Phase 2 — loaded: bulk threads flood cold scans while the same paced
    // interactive load repeats.
    let stop = Arc::new(AtomicBool::new(false));
    let bulk_ok = Arc::new(AtomicU64::new(0));
    let bulk_overloaded = Arc::new(AtomicU64::new(0));
    let loaded_started = Instant::now();
    let flooders: Vec<_> = (0..BULK_THREADS)
        .map(|_| {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            let bulk_ok = Arc::clone(&bulk_ok);
            let bulk_overloaded = Arc::clone(&bulk_overloaded);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let queries = cold_scan(&t);
                    match t.instance.query_batch(t.bulk, &queries) {
                        Ok(_) => {
                            bulk_ok.fetch_add(1, Ordering::Relaxed);
                            // Pace the loop so the flood saturates the
                            // admission layer, not the host CPU — the
                            // offered rate stays far above the gate.
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(IpsError::Overloaded { .. }) => {
                            bulk_overloaded.fetch_add(1, Ordering::Relaxed);
                            // Shed means the interactive tenant is active
                            // and bulk is past its share: back off harder,
                            // as a production bulk client would on
                            // `Overloaded`.
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(e) => panic!("bulk batch failed: {e}"),
                    }
                }
            })
        })
        .collect();

    let (loaded, loaded_overloaded) = interactive_pass(&t, rounds, 20);
    let loaded_elapsed = loaded_started.elapsed();
    stop.store(true, Ordering::Relaxed);
    for f in flooders {
        f.join().expect("flooder panicked");
    }

    let bulk_ok = bulk_ok.load(Ordering::Relaxed);
    let bulk_overloaded = bulk_overloaded.load(Ordering::Relaxed);
    let bulk_attempts = bulk_ok + bulk_overloaded;
    let secs = loaded_elapsed.as_secs_f64().max(1e-6);
    // Each bulk attempt is one single-query scan (one sub-query unit).
    let bulk_rate = bulk_attempts as f64 / secs;
    // Interactive offered rate during the same window (warmup included —
    // it was offered load too).
    let interactive_rate = (rounds + 20) as f64 * BATCH as f64 / secs;
    let flood_ratio = bulk_rate / interactive_rate.max(1e-6);

    let unloaded_p50 = unloaded.percentile(50.0);
    let unloaded_p99 = unloaded.percentile(99.0);
    let loaded_p50 = loaded.percentile(50.0);
    let loaded_p99 = loaded.percentile(99.0);
    let p99_ratio = loaded_p99 as f64 / unloaded_p99.max(1) as f64;

    println!();
    println!("-- shape summary ------------------------------------------");
    println!("bulk flood: {bulk_rate:.0} subq/s offered vs interactive {interactive_rate:.0} subq/s ({flood_ratio:.1}x)");
    println!("bulk admitted batches: {bulk_ok}, shed Overloaded: {bulk_overloaded}");
    println!("interactive unloaded p50/p99: {unloaded_p50}/{unloaded_p99} us");
    println!("interactive loaded   p50/p99: {loaded_p50}/{loaded_p99} us ({p99_ratio:.2}x)");
    println!("interactive shed: {unloaded_overloaded} unloaded, {loaded_overloaded} loaded");

    assert!(
        flood_ratio >= 8.0,
        "bulk must flood at >=8x the interactive rate, got {flood_ratio:.1}x"
    );
    assert_eq!(
        unloaded_overloaded + loaded_overloaded,
        0,
        "interactive caller must never be shed"
    );
    assert!(
        bulk_overloaded > 0,
        "the flood must exhaust the bulk tenant's own share"
    );
    assert!(
        bulk_ok > 0,
        "below its share the bulk tenant must still be admitted, not starved"
    );
    assert!(
        p99_ratio <= 2.0,
        "interactive p99 under flood must stay within 2x of unloaded, got {p99_ratio:.2}x"
    );

    let mut json = String::from("{\n  \"bench\": \"fairness\",\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"pool_limit\": {POOL_LIMIT},");
    let _ = writeln!(json, "  \"bulk_threads\": {BULK_THREADS},");
    let _ = writeln!(json, "  \"store_delay_ms\": {STORE_DELAY_MS},");
    let _ = writeln!(json, "  \"weight_ratio\": 3.0,");
    let _ = writeln!(json, "  \"flood_ratio\": {flood_ratio:.2},");
    let _ = writeln!(json, "  \"bulk_admitted\": {bulk_ok},");
    let _ = writeln!(json, "  \"bulk_overloaded\": {bulk_overloaded},");
    let _ = writeln!(
        json,
        "  \"interactive_overloaded\": {},",
        unloaded_overloaded + loaded_overloaded
    );
    let _ = writeln!(json, "  \"unloaded_p50_us\": {unloaded_p50},");
    let _ = writeln!(json, "  \"unloaded_p99_us\": {unloaded_p99},");
    let _ = writeln!(json, "  \"loaded_p50_us\": {loaded_p50},");
    let _ = writeln!(json, "  \"loaded_p99_us\": {loaded_p99},");
    let _ = writeln!(json, "  \"p99_ratio\": {p99_ratio:.3},");
    let _ = writeln!(
        json,
        "  \"gates\": {{ \"flood_ratio_min\": 8.0, \"p99_ratio_max\": 2.0 }}"
    );
    json.push_str("}\n");
    ips_bench::write_artefact("BENCH_fairness.json", smoke, &json);
    println!("fairness: OK");
}
