//! The deployment under test and the maintenance the benchmark drives.
//!
//! The standard shape — 2 regions × 2 instances, writes to all regions,
//! home-region reads, region 0 persisting to a WAL-backed KV master and
//! region 1 reading an asynchronous replica — assembled from the public
//! constructors, because `MultiRegionDeployment::build` cannot take a
//! WAL-backed node. Nothing is modeled: the network and KV latency models
//! are zero, and the deployment runs on a simulated clock the workload
//! generator advances.
//!
//! No background threads run. The benchmark calls the public pieces of
//! `IpsInstance::tick` itself, every fixed number of operations, so the
//! operation stream and every count are a function of the seed alone.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ips_cluster::ring::DEFAULT_VNODES;
use ips_cluster::{Discovery, HashRing, IpsClusterClient, NetworkModel, RegionStore, RpcEndpoint};
use ips_core::persist::ProfileStore;
use ips_core::server::{IpsInstance, IpsInstanceOptions, TableRuntime};
use ips_kv::{KvLatencyModel, KvNode, KvNodeConfig, ReplicaReadMode, ReplicatedKv};
use ips_types::clock::sim_clock;
use ips_types::{
    DurationMs, ProfileId, QuotaConfig, Result, SharedClock, SimClock, TableConfig, TableId,
    Timestamp,
};

/// The table every workload uses.
pub const TABLE: TableId = TableId(1);
pub const REGIONS: [&str; 2] = ["region-0", "region-1"];
pub const INSTANCES_PER_REGION: usize = 2;

/// Per-tick budgets, as `IpsInstance::tick` uses them.
const COMPACTIONS_PER_STEP: usize = 64;
const FLUSHES_PER_SHARD_STEP: usize = 256;
/// Replication ops moved per maintenance step and replica.
const PUMP_BUDGET: usize = 4096;

/// A directory under the build's target directory for everything a run
/// writes (WAL segments, checkpoints, scratch stores, default result
/// files); never inside the source tree.
#[must_use]
pub fn output_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target"));
    target.join("ips-benchmark")
}

/// A fresh, empty directory under [`output_root`], removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(label: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = output_root().join(format!(
            "work-{}-{}-{label}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One instance with the handles the benchmark times calls into.
pub struct Node {
    pub endpoint: Arc<RpcEndpoint>,
    pub instance: Arc<IpsInstance>,
    pub table: Arc<TableRuntime>,
}

pub struct Deployment {
    pub ctl: SimClock,
    pub clock: SharedClock,
    pub kv: Arc<ReplicatedKv>,
    /// `nodes[region][instance]`; region 0 is home and persisting.
    pub nodes: Vec<Vec<Node>>,
    /// One ring per region over the region's endpoint names, built exactly
    /// as the client builds its own, so the benchmark can find a profile's
    /// owner for replays and direct preloads.
    pub rings: Vec<HashRing>,
    pub client: IpsClusterClient,
    pub table_config: TableConfig,
    /// Maintenance steps run so far (drives the checkpoint cadence).
    steps: u64,
    _dir: WorkDir,
}

/// Durations of one maintenance step's parts, in nanoseconds, and the
/// backlogs each part found: compactions pending after the merge, dirty
/// profiles before the flush, replication ops queued before the pump.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaintenanceReport {
    pub merge_ns: u64,
    pub compact_ns: u64,
    pub flush_ns: u64,
    pub swap_ns: u64,
    pub pump_ns: u64,
    pub checkpoint_ns: u64,
    pub dirty_backlog: u64,
    pub compact_pending: u64,
    pub repl_backlog: u64,
}

impl MaintenanceReport {
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.merge_ns
            + self.compact_ns
            + self.flush_ns
            + self.swap_ns
            + self.pump_ns
            + self.checkpoint_ns
    }
}

impl Deployment {
    /// Build the standard deployment with `table_config` on a simulated
    /// clock starting at `start`.
    pub fn build(table_config: TableConfig, start: Timestamp) -> Result<Self> {
        let dir = WorkDir::create("deploy")
            .map_err(|e| ips_types::IpsError::Storage(format!("work dir: {e}")))?;
        let (clock, ctl) = sim_clock(start);
        let master = Arc::new(KvNode::new(
            "kv-master",
            KvNodeConfig {
                wal_path: Some(dir.path().join("kv-master-wal")),
                ..KvNodeConfig::default()
            },
        )?);
        let replica = Arc::new(KvNode::new("kv-replica-region-1", KvNodeConfig::default())?);
        let kv = Arc::new(ReplicatedKv::new(
            master,
            vec![replica],
            ReplicaReadMode::AllowStale,
        ));
        let (nodes, rings, client) = serving_layer(&kv, &clock, &table_config)?;
        Ok(Self {
            ctl,
            clock,
            kv,
            nodes,
            rings,
            client,
            table_config,
            steps: 0,
            _dir: dir,
        })
    }

    /// Replace every instance (and the client) with fresh ones configured
    /// by `table_config`, over the same KV and clock: cold caches over the
    /// data already stored — the restart a real deployment needs to change
    /// a cache budget, which is fixed when a table is created. Drain first;
    /// what is not flushed is lost with the old instances.
    pub fn restart_instances(&mut self, table_config: TableConfig) -> Result<()> {
        let (nodes, rings, client) = serving_layer(&self.kv, &self.clock, &table_config)?;
        self.nodes = nodes;
        self.rings = rings;
        self.client = client;
        self.table_config = table_config;
        Ok(())
    }

    pub fn all_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().flatten()
    }

    /// Index in `nodes[region]` of the instance owning `pid`.
    #[must_use]
    pub fn owner_index(&self, region: usize, pid: ProfileId) -> usize {
        let name = self.rings[region].node_for(pid).unwrap_or_default();
        self.nodes[region]
            .iter()
            .position(|n| n.endpoint.name() == name)
            .unwrap_or(0)
    }

    /// The instance owning `pid` in `region`.
    #[must_use]
    pub fn owner(&self, region: usize, pid: ProfileId) -> &Node {
        &self.nodes[region][self.owner_index(region, pid)]
    }

    /// One maintenance step: per instance, the parts of
    /// `IpsInstance::tick` (merge the write table, run pending compactions,
    /// flush each dirty shard, run a swap cycle) with its budgets; then the
    /// replication pump; and a KV checkpoint every `checkpoint_every` steps
    /// (0 = never).
    pub fn maintenance_step(&mut self, checkpoint_every: u64) -> Result<MaintenanceReport> {
        self.step(checkpoint_every, false)
    }

    /// The preload's maintenance step: nothing is flushed — the preload
    /// flushes once at its end instead of re-encoding the hottest profiles
    /// every step.
    pub fn preload_step(&mut self) -> Result<MaintenanceReport> {
        self.step(0, true)
    }

    fn step(&mut self, checkpoint_every: u64, preload: bool) -> Result<MaintenanceReport> {
        let mut report = MaintenanceReport::default();
        let dirty_shards = self.table_config.cache.dirty_shards;
        for node in self.nodes.iter().flatten() {
            let rt = &node.table;
            let t0 = Instant::now();
            rt.merge_write_table()?;
            let t1 = Instant::now();
            report.compact_pending += rt.scheduler.pending() as u64;
            rt.scheduler.run_pending(COMPACTIONS_PER_STEP);
            report.dirty_backlog += rt.cache.dirty_gauge.get().max(0) as u64;
            let t2 = Instant::now();
            for shard in 0..if preload { 0 } else { dirty_shards } {
                rt.cache.flush_shard(shard, FLUSHES_PER_SHARD_STEP)?;
            }
            let t3 = Instant::now();
            rt.cache.swap_cycle()?;
            let t4 = Instant::now();
            report.merge_ns += (t1 - t0).as_nanos() as u64;
            report.compact_ns += (t2 - t1).as_nanos() as u64;
            report.flush_ns += (t3 - t2).as_nanos() as u64;
            report.swap_ns += (t4 - t3).as_nanos() as u64;
        }
        report.repl_backlog = self.kv.backlog() as u64;
        let t0 = Instant::now();
        self.kv.pump(PUMP_BUDGET);
        report.pump_ns = t0.elapsed().as_nanos() as u64;
        self.steps += 1;
        if checkpoint_every > 0 && self.steps.is_multiple_of(checkpoint_every) {
            let t0 = Instant::now();
            self.kv.master().checkpoint()?;
            report.checkpoint_ns = t0.elapsed().as_nanos() as u64;
        }
        Ok(report)
    }

    /// Run maintenance to quiescence: every write merged, every pending
    /// compaction run, every dirty profile flushed, replication drained.
    pub fn drain(&mut self) -> Result<()> {
        for node in self.nodes.iter().flatten() {
            let rt = &node.table;
            rt.merge_write_table()?;
            rt.scheduler.run_pending(usize::MAX);
            rt.cache.flush_all()?;
            rt.cache.swap_cycle()?;
        }
        self.kv.pump_all();
        Ok(())
    }
}

/// Instances, endpoints, per-region rings and a refreshed client over `kv`.
fn serving_layer(
    kv: &Arc<ReplicatedKv>,
    clock: &SharedClock,
    table_config: &TableConfig,
) -> Result<(Vec<Vec<Node>>, Vec<HashRing>, IpsClusterClient)> {
    let discovery = Arc::new(Discovery::new(Arc::clone(clock), DurationMs::from_secs(30)));
    let options = IpsInstanceOptions {
        // Effectively unlimited, as `ips_bench::testbed` sets it.
        default_quota: QuotaConfig {
            qps_limit: u64::MAX / 2,
            burst_factor: 1.0,
        },
        ..IpsInstanceOptions::default()
    };
    let mut nodes = Vec::new();
    let mut rings = Vec::new();
    for (r, region) in REGIONS.iter().enumerate() {
        let replica_idx = (r > 0).then(|| r - 1);
        let store = Arc::new(RegionStore::new(Arc::clone(kv), replica_idx));
        let mut ring = HashRing::new(DEFAULT_VNODES);
        let mut region_nodes = Vec::new();
        for i in 0..INSTANCES_PER_REGION {
            let name = format!("{region}/ips-{i}");
            let instance = IpsInstance::new(
                Arc::clone(&store) as Arc<dyn ProfileStore>,
                IpsInstanceOptions {
                    name: name.clone(),
                    ..options.clone()
                },
                Arc::clone(clock),
            );
            instance.create_table(TABLE, table_config.clone())?;
            let table = instance.table(TABLE)?;
            let endpoint = RpcEndpoint::new(
                name.clone(),
                *region,
                Arc::clone(&instance),
                NetworkModel::zero(),
            );
            discovery.register(&name, region);
            ring.add(&name);
            region_nodes.push(Node {
                endpoint,
                instance,
                table,
            });
        }
        nodes.push(region_nodes);
        rings.push(ring);
    }
    let client = IpsClusterClient::new(discovery, REGIONS[0], KvLatencyModel::zero());
    client.add_endpoints(
        nodes
            .iter()
            .flatten()
            .map(|n: &Node| Arc::clone(&n.endpoint)),
    );
    client.refresh();
    Ok((nodes, rings, client))
}
