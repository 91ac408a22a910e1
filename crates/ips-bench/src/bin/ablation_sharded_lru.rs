//! Ablation (§III-C, Figs 7–9): sharded LRU with try_lock skipping vs a
//! single-shard cache.
//!
//! The paper's motivation: swap/flush activity on one big LRU caused
//! "periodic fluctuations in CPU load and processing latency"; sharding the
//! LRU by profile id plus skip-on-contention eviction reduced lock
//! contention. The harness drives concurrent reader threads against a
//! cache held at its memory watermark (so swap runs continuously) with
//! shard counts {1, 4, 16, 64} and reports read-latency tails and swap
//! contention skips.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ips_bench::banner;
use ips_core::cache::GCache;
use ips_core::persist::ProfilePersister;
use ips_kv::{KvNode, KvNodeConfig};
use ips_metrics::Histogram;
use ips_types::{
    ActionTypeId, AggregateFunction, CacheConfig, CountVector, DurationMs, FeatureId,
    PersistenceMode, ProfileId, SlotId, SystemClock, TableId, Timestamp,
};

fn run(shards: usize, threads: usize) -> (ips_metrics::HistogramSnapshot, u64, u64) {
    let node = Arc::new(KvNode::new("kv", KvNodeConfig::default()).unwrap());
    let persister = Arc::new(ProfilePersister::new(
        node,
        TableId::new(1),
        PersistenceMode::Bulk,
    ));
    let cache = GCache::new(
        persister,
        CacheConfig {
            memory_budget_bytes: 4 << 20,
            lru_shards: shards,
            dirty_shards: 1,
            swap_high_watermark: 0.85,
            swap_low_watermark: 0.80,
            stale_pool_entries: 0,
        },
        Arc::new(SystemClock),
    )
    .unwrap();

    // Fill past the watermark so swap has permanent work.
    let users = 3_000u64;
    for pid in 0..users {
        cache
            .write(ProfileId::new(pid), |p| {
                for fid in 0..30u64 {
                    p.add(
                        Timestamp::from_millis(1_000 + fid),
                        SlotId::new(1),
                        ActionTypeId::new(1),
                        FeatureId::new(fid),
                        &CountVector::pair(1, 2),
                        AggregateFunction::Sum,
                        DurationMs::from_secs(1),
                    );
                }
            })
            .unwrap();
    }

    let hist = Histogram::new();
    let stop = AtomicBool::new(false);
    let stats = std::thread::scope(|s| {
        // The paper's dedicated threads, owned by the harness: two swap
        // loops (which skip each other's locked candidates, Fig 8) and one
        // flush loop, each on a 1 ms cadence, racing the readers.
        for swap in [true, true, false] {
            let (cache, stop) = (&cache, &stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = if swap {
                        cache.swap_cycle()
                    } else {
                        cache.flush_shard(0, 256)
                    };
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
        }
        // Reader threads hammer Zipf-hot profiles while swap churns.
        let readers: Vec<_> = (0..threads)
            .map(|t| {
                let (cache, hist) = (&cache, &hist);
                s.spawn(move || {
                    let mut x = 0x9E37_79B9u64.wrapping_add(t as u64);
                    for _ in 0..30_000 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        // Zipf-ish: bias toward low ids.
                        let r = (x >> 33) as f64 / (u32::MAX as f64 / 2.0);
                        let pid = ((r * r * users as f64) as u64).min(users - 1);
                        let t0 = std::time::Instant::now();
                        let _ = cache.read(ProfileId::new(pid), |p| p.slice_count());
                        hist.record(t0.elapsed().as_micros() as u64);
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        let stats = cache.stats();
        stop.store(true, Ordering::Relaxed);
        stats
    });
    (hist.snapshot(), stats.swap_skips, stats.evictions)
}

fn main() {
    banner(
        "E-LRU (§III-C)",
        "sharded LRU + try_lock skip vs single shard, under continuous swap",
    );
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4);
    println!("reader threads: {threads}");
    println!();
    println!(
        "shards | read p50 (us) | read p99 (us) | read p999 (us) | try_lock skips | evictions"
    );

    let mut p999 = Vec::new();
    for shards in [1usize, 4, 16, 64] {
        let (snapshot, skips, evictions) = run(shards, threads);
        println!(
            "{shards:>6} | {:>13} | {:>13} | {:>14} | {skips:>14} | {evictions:>9}",
            snapshot.percentile(50.0),
            snapshot.percentile(99.0),
            snapshot.percentile(99.9),
        );
        p999.push((shards, snapshot.percentile(99.9)));
    }

    println!("-- shape summary ------------------------------------------");
    let single = p999[0].1 as f64;
    let best = p999.iter().map(|(_, v)| *v).min().unwrap() as f64;
    println!(
        "p999 single-shard {single} us vs best sharded {best} us ({:.1}x)",
        single / best.max(1.0)
    );
    println!(
        "(expected shape: tail latency improves with shards as swap-induced
 lock contention drops; the absolute numbers are machine-dependent)"
    );
    println!("ablation_sharded_lru: OK");
}
