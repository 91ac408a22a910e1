//! Experiment harnesses for `ips-rs`.
//!
//! One binary per paper figure/table (see `src/bin/`), plus Criterion
//! micro-benchmarks (see `benches/`). This library holds the shared
//! scaffolding: deployment builders, the offline latency pricer
//! ([`latency`]) that turns a call's measured bytes and store fetches into
//! the paper's network and storage time, and table renderers, so every
//! harness prints its series in the same shape as the paper's figure.
//!
//! Experiment index (DESIGN.md §4):
//!
//! | harness | paper artefact |
//! |---|---|
//! | `fig16_query_diurnal` | Fig 16 — query qps + p50/p99 over a diurnal day |
//! | `fig17_error_rate` | Fig 17 — client error rate over 20 days of faults |
//! | `table2_hit_miss_latency` | Table II — client/server × hit/miss latency |
//! | `fig18_cache_hit_memory` | Fig 18 — memory usage + cache hit ratio |
//! | `fig19_write_diurnal` | Fig 19 — write qps + p50/p99, 10:1 read:write |
//! | `ablation_isolation` | §IV-C — write p99 with isolation on/off |
//! | `memory_growth_year` | §III-D — managed vs unmanaged profile growth |
//! | `ablation_sharded_lru` | §III-C — sharded try-lock LRU vs single shard |
//! | `ablation_compaction` | §III-D — partial/full/async compaction cost |
//! | `baseline_lambda_compare` | §I — IPS vs the legacy lambda split |
//! | `baseline_preagg_compare` | §VI — IPS vs pre-aggregated KV windows |
//! | `freshness_e2e` | §III-A — event-to-queryable freshness |
//! | `quota_enforcement` | §V-b — per-tenant QPS protection |
//! | `shard_handoff` | §IV intro — warmed vs cold scale-up serving cost |

pub mod latency;

use std::sync::Arc;

use ips_cluster::{
    BatchQueryOutcome, IpsClusterClient, MultiRegionDeployment, MultiRegionOptions, NetworkModel,
};
use ips_core::query::{ProfileQuery, QueryResult};
use ips_core::server::IpsInstanceOptions;
use ips_kv::KvLatencyModel;
use ips_metrics::HistogramSnapshot;
use ips_types::clock::{monotonic_micros, sim_clock};
use ips_types::{
    CallerId, DegradedServingConfig, DurationMs, QuotaConfig, Result, SimClock, TableConfig,
    TableId, Timestamp,
};

pub use latency::{CostModel, Priced};

/// The table id every harness uses.
pub const TABLE: TableId = TableId(1);

/// A standard two-region deployment on a simulated clock, with the cost
/// model its calls are priced by. Most harnesses start here.
pub struct Testbed {
    pub deployment: MultiRegionDeployment,
    pub client: IpsClusterClient,
    pub ctl: SimClock,
    pub cost: CostModel,
}

/// Options for [`testbed`].
pub struct TestbedOptions {
    pub regions: usize,
    pub instances_per_region: usize,
    /// The transport's loss fault (lossless by default).
    pub network: NetworkModel,
    /// Prices the testbed's calls offline.
    pub cost: CostModel,
    pub table: TableConfig,
    pub quota: QuotaConfig,
    /// Server-side degraded (stale) serving policy.
    pub degraded: DegradedServingConfig,
}

impl Default for TestbedOptions {
    fn default() -> Self {
        let mut table = TableConfig::new("bench");
        table.isolation.enabled = false;
        Self {
            regions: 2,
            instances_per_region: 2,
            network: NetworkModel::zero(),
            cost: CostModel::PRODUCTION,
            table,
            quota: QuotaConfig {
                qps_limit: u64::MAX / 2,
                burst_factor: 1.0,
            },
            degraded: DegradedServingConfig::default(),
        }
    }
}

/// Build the standard testbed.
#[must_use]
pub fn testbed(options: TestbedOptions) -> Testbed {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(400).as_millis(),
    ));
    let deployment = MultiRegionDeployment::build(
        MultiRegionOptions {
            regions: (0..options.regions)
                .map(|i| format!("region-{i}"))
                .collect(),
            instances_per_region: options.instances_per_region,
            network: options.network,
            tables: vec![(TABLE, options.table)],
            instance_options: IpsInstanceOptions {
                default_quota: options.quota,
                degraded: options.degraded,
                ..Default::default()
            },
            ..Default::default()
        },
        clock,
    )
    .expect("testbed construction");
    let client = IpsClusterClient::new(
        Arc::clone(&deployment.discovery),
        "region-0",
        KvLatencyModel::zero(),
    );
    client.add_endpoints(deployment.all_endpoints());
    client.refresh();
    Testbed {
        deployment,
        client,
        ctl,
        cost: options.cost,
    }
}

/// Run `call`, returning its output and the wall time it took, µs.
pub fn timed<T>(call: impl FnOnce() -> T) -> (T, u64) {
    let started = monotonic_micros();
    let out = call();
    (out, monotonic_micros().saturating_sub(started))
}

impl Testbed {
    /// [`IpsClusterClient::query`], timed and priced.
    pub fn query(&self, caller: CallerId, query: &ProfileQuery) -> Result<(QueryResult, Priced)> {
        let (out, measured_us) = timed(|| self.client.query(caller, query));
        let (result, wire) = out?;
        let priced = self.cost.price_query(measured_us, &result, &wire);
        Ok((result, priced))
    }

    /// [`IpsClusterClient::query_batch`], timed and priced.
    pub fn query_batch(
        &self,
        caller: CallerId,
        queries: &[ProfileQuery],
    ) -> Result<(BatchQueryOutcome, Priced)> {
        let (out, measured_us) = timed(|| self.client.query_batch(caller, queries));
        let outcome = out?;
        let priced = self.cost.price_batch(measured_us, &outcome);
        Ok((outcome, priced))
    }
}

/// Where `--smoke` runs put their artefacts: under `target/`, so a smoke
/// run never overwrites the full-run artefacts committed at the repo root.
const SMOKE_ARTEFACT_DIR: &str = "target/bench-smoke";

/// Write artefact `file` (a `BENCH_*.json` name) and print its path: at
/// the working directory for a full run, under `target/bench-smoke/` for a
/// `--smoke` one.
pub fn write_artefact(file: &str, smoke: bool, contents: &str) {
    let path = if smoke {
        std::fs::create_dir_all(SMOKE_ARTEFACT_DIR).expect("create the smoke artefact dir");
        std::path::Path::new(SMOKE_ARTEFACT_DIR).join(file)
    } else {
        std::path::PathBuf::from(file)
    };
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Print a section header so harness output reads like the paper.
pub fn banner(id: &str, caption: &str) {
    println!("==============================================================");
    println!("{id}: {caption}");
    println!("==============================================================");
}

/// Render one labelled latency snapshot row (values recorded in µs).
pub fn latency_row(label: &str, snapshot: &HistogramSnapshot) {
    println!(
        "{label:<28} p50={:>8.3}ms p99={:>8.3}ms mean={:>8.3}ms n={}",
        snapshot.percentile(50.0) as f64 / 1_000.0,
        snapshot.percentile(99.0) as f64 / 1_000.0,
        snapshot.mean() / 1_000.0,
        snapshot.count(),
    );
}

/// Simple fixed-width series table: `(label, value)` rows with a bar.
pub fn bar_table(title: &str, unit: &str, rows: &[(String, f64)]) {
    println!("# {title} ({unit})");
    let max = rows.iter().fold(f64::MIN, |a, (_, v)| a.max(*v)).max(1e-12);
    for (label, value) in rows {
        let bar = "#".repeat(((value / max) * 40.0).round() as usize);
        println!("{label:>20} {value:>14.3} |{bar}");
    }
}

/// Human-readable byte counts.
#[must_use]
pub fn human_bytes(bytes: f64) -> String {
    if bytes >= 1e9 {
        format!("{:.2} GB", bytes / 1e9)
    } else if bytes >= 1e6 {
        format!("{:.2} MB", bytes / 1e6)
    } else if bytes >= 1e3 {
        format!("{:.2} KB", bytes / 1e3)
    } else {
        format!("{bytes:.0} B")
    }
}

/// A profile shaped like `serve_hot`'s hottest profile at the end of the
/// benchmark's 30-day window, and the instant it is queried at: 188 slices
/// (76 one-second, 60 one-minute, 25 one-hour and 27 one-day) holding
/// about 9.3k rows over 8 slots and 4 action types, 6.9k of them in the
/// daily slices. Features are Zipf-drawn items mapped to slot and action
/// the way the benchmark's workload maps them; rows carry three attributes.
#[must_use]
pub fn hot_profile() -> (ips_core::model::ProfileData, Timestamp) {
    use ips_ingest::ZipfSampler;
    use ips_types::{ActionTypeId, AggregateFunction, CountVector, FeatureId, SlotId};
    use rand::SeedableRng;

    let (second, minute, hour, day) = (
        DurationMs::from_secs(1),
        DurationMs::from_mins(1),
        DurationMs::from_hours(1),
        DurationMs::from_days(1),
    );
    let now = Timestamp::from_millis(40 * day.as_millis());
    let items = ZipfSampler::new(1_000_000, 1.1);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
    let mut profile = ips_core::model::ProfileData::new();
    // Oldest tier first, each tier ending a gap before the next one starts:
    // `(granularity, slices, gap before now, rows per slice)`.
    for (width, slices, gap, rows) in [
        (day, 27, 2 * day.as_millis(), 256),
        (hour, 25, 2 * hour.as_millis(), 15),
        (minute, 60, 2 * minute.as_millis(), 15),
        (second, 76, 0, 15),
    ] {
        let end = now.as_millis() - gap;
        for s in (1..=slices).rev() {
            let at = Timestamp::from_millis(end - s * width.as_millis());
            let head_rows = |p: &ips_core::model::ProfileData| {
                p.slices()
                    .first()
                    .filter(|head| head.start() == at)
                    .map_or(0, |head| {
                        head.stats().map(|(_, _, stat)| stat.len()).sum::<usize>()
                    })
            };
            while head_rows(&profile) < rows {
                let item = items.sample(&mut rng);
                profile.add(
                    at,
                    SlotId::new((item % 8) as u32),
                    ActionTypeId::new((item / 7 % 4) as u32),
                    FeatureId::new(item),
                    &CountVector::from_slice(&[1, (item % 3) as i64, 1]),
                    AggregateFunction::Sum,
                    width,
                );
            }
        }
    }
    (profile, now)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_builds_and_serves() {
        use ips_core::query::ProfileQuery;
        use ips_types::{
            ActionTypeId, CallerId, Clock, CountVector, FeatureId, ProfileId, SlotId, TimeRange,
        };
        let tb = testbed(TestbedOptions::default());
        tb.client
            .add_profile(
                CallerId::new(1),
                TABLE,
                ProfileId::new(1),
                tb.ctl.now(),
                SlotId::new(1),
                ActionTypeId::new(1),
                FeatureId::new(1),
                CountVector::single(1),
            )
            .unwrap();
        let q = ProfileQuery::top_k(
            TABLE,
            ProfileId::new(1),
            SlotId::new(1),
            TimeRange::last_days(1),
            5,
        );
        let (r, priced) = tb.query(CallerId::new(1), &q).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.cache_hit);
        // One attempt, both directions delivered: the pricer charges two
        // traversals and no store fetch.
        let (_, wire) = tb.client.query(CallerId::new(1), &q).unwrap();
        let [frame] = wire.frames() else {
            panic!("one attempt expected, got {:?}", wire.frames());
        };
        assert!(frame.bytes.sent > 0 && frame.bytes.received > 0);
        assert_eq!(priced.network_us, tb.cost.frame_us(frame.bytes));
        assert!(priced.network_us > 2 * tb.cost.network.rtt_us);
        assert_eq!(priced.storage_us, 0);
        assert!(
            priced.total_us() > priced.network_us,
            "measured time is included"
        );
    }

    #[test]
    fn hot_profile_has_the_measured_shape() {
        let (p, _) = hot_profile();
        let rows = |s: &ips_core::model::Slice| -> usize {
            s.stats().map(|(_, _, stat)| stat.len()).sum()
        };
        let mut tiers = std::collections::BTreeMap::new();
        for s in p.slices() {
            let tier = tiers
                .entry(s.end().as_millis() - s.start().as_millis())
                .or_insert((0, 0));
            tier.0 += 1;
            tier.1 += rows(s);
        }
        let counts: Vec<_> = tiers.values().map(|(slices, _)| *slices).collect();
        assert_eq!(counts, [76, 60, 25, 27], "{tiers:?}");
        let daily = tiers[&DurationMs::from_days(1).as_millis()].1;
        let total: usize = p.slices().iter().map(rows).sum();
        assert!((6_800..7_000).contains(&daily), "{daily} daily rows");
        assert!((9_200..9_400).contains(&total), "{total} rows");
        p.check_invariants().unwrap();
    }

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(512.0), "512 B");
        assert_eq!(human_bytes(2_048.0), "2.05 KB");
        assert_eq!(human_bytes(45_000_000.0), "45.00 MB");
        assert_eq!(human_bytes(3.2e9), "3.20 GB");
    }
}
