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
    fn human_bytes_formats() {
        assert_eq!(human_bytes(512.0), "512 B");
        assert_eq!(human_bytes(2_048.0), "2.05 KB");
        assert_eq!(human_bytes(45_000_000.0), "45.00 MB");
        assert_eq!(human_bytes(3.2e9), "3.20 GB");
    }
}
