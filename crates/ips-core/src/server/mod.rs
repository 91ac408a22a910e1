//! `IpsInstance`: one deployable compute-cache node.
//!
//! Ties the data model, query engine, GCache, compaction scheduler,
//! read-write isolation and quota enforcement into the write/read API from
//! §II-B. The cluster layer deploys many of these behind consistent-hash
//! routing; a single instance is also directly usable (see the crate-level
//! example).
//!
//! The module is a tree, one concern per file:
//!
//! * [`mod@self`] — the instance struct, construction, table lifecycle.
//! * `runtime` — per-table runtime state, metrics, the maintenance `tick`.
//! * `handlers` — the write/read API bodies (`add_profiles`, `add_batch`,
//!   `query`, `query_batch`, UDAFs).
//! * `snapshot` — shard-handoff snapshot export/import.
//! * [`pipeline`] — the request pipeline: [`pipeline::admit`] runs every
//!   cross-cutting serving policy (deadline, fair admission, quota,
//!   tracing) once per request, and the degraded fallback wraps each
//!   sub-query.

pub mod pipeline;

mod handlers;
mod runtime;
mod snapshot;
#[cfg(test)]
mod tests;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use ips_kv::{KvNode, KvNodeConfig};
use ips_metrics::Counter;
use ips_trace::Tracer;
use ips_types::{
    AdmissionConfig, DegradedServingConfig, IpsError, QuotaConfig, Result, SharedClock,
    TableConfig, TableId,
};

use crate::cache::GCache;
use crate::compact::compactor::compact_profile;
use crate::compact::scheduler::{CompactionScheduler, CompactionTask};
use crate::hotconfig::HotConfig;
use crate::isolation::WriteTable;
use crate::persist::{ProfilePersister, ProfileStore};
use pipeline::quota::QuotaEnforcer;

pub use handlers::ProfileWrite;
pub use pipeline::{FairAdmission, RequestContext, RequestKind};
pub use runtime::{TableMetrics, TableRuntime};
pub use snapshot::SnapshotImportAck;

use snapshot::SnapshotStreams;

pub(crate) type DynStore = Arc<dyn ProfileStore>;

/// Construction options for an instance.
#[derive(Clone, Debug)]
pub struct IpsInstanceOptions {
    /// Default per-caller quota for callers without an explicit one.
    pub default_quota: QuotaConfig,
    /// Instance name (diagnostics).
    pub name: String,
    /// In-flight batch sub-query budget (zero = unbounded).
    pub admission: AdmissionConfig,
    /// Degraded (stale) serving policy during KV brownouts.
    pub degraded: DegradedServingConfig,
}

impl Default for IpsInstanceOptions {
    fn default() -> Self {
        Self {
            default_quota: QuotaConfig::default(),
            name: "ips".into(),
            admission: AdmissionConfig::default(),
            degraded: DegradedServingConfig::default(),
        }
    }
}

/// One IPS compute-cache node.
pub struct IpsInstance {
    name: String,
    clock: SharedClock,
    store: DynStore,
    tables: RwLock<HashMap<TableId, Arc<TableRuntime>>>,
    pub quota: QuotaEnforcer,
    pub admission: FairAdmission,
    pub(crate) degraded_cfg: DegradedServingConfig,
    /// Consecutive `Storage` failures observed on the read path; resets on
    /// the first successful store round-trip. Past the configured threshold
    /// the instance auto-degrades reads that did not explicitly opt in.
    pub(crate) storage_failures: AtomicU32,
    /// Requests/sub-queries shed because their deadline expired.
    pub shed_deadline: Counter,
    /// Results served degraded (stale) instead of failing.
    pub degraded_serves: Counter,
    shutting_down: AtomicBool,
    tracer: RwLock<Option<Arc<Tracer>>>,
    /// Snapshot import streams (shard handoff warm-up), keyed by handoff
    /// id: resume cursor plus cumulative import accounting.
    pub(crate) snapshots: Mutex<SnapshotStreams>,
}

impl IpsInstance {
    /// An instance persisting through `store`.
    #[must_use]
    pub fn new(store: DynStore, options: IpsInstanceOptions, clock: SharedClock) -> Arc<Self> {
        Arc::new(Self {
            name: options.name.clone(),
            clock: Arc::clone(&clock),
            store,
            tables: RwLock::new(HashMap::new()),
            quota: QuotaEnforcer::new(clock, options.default_quota),
            admission: FairAdmission::new(options.admission),
            degraded_cfg: options.degraded,
            storage_failures: AtomicU32::new(0),
            shed_deadline: Counter::new(),
            degraded_serves: Counter::new(),
            shutting_down: AtomicBool::new(false),
            tracer: RwLock::new(None),
            snapshots: Mutex::new(SnapshotStreams::default()),
        })
    }

    /// An instance with its own private in-memory KV node — the zero-setup
    /// path for examples and tests.
    #[must_use]
    pub fn new_in_memory(options: IpsInstanceOptions, clock: SharedClock) -> Arc<Self> {
        #[expect(clippy::expect_used, reason = "no WAL path, so no I/O to fail")]
        let node = Arc::new(
            KvNode::new(format!("{}-kv", options.name), KvNodeConfig::default())
                .expect("in-memory node construction cannot fail"),
        );
        Self::new(node as DynStore, options, clock)
    }

    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    #[must_use]
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Install (or clear) the tracer that server-side spans record into.
    /// The RPC endpoint reaches for it when a request arrives carrying a
    /// wire-propagated span context.
    pub fn set_tracer(&self, tracer: Option<Arc<Tracer>>) {
        *self.tracer.write() = tracer;
    }

    #[must_use]
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.tracer.read().clone()
    }

    /// Create a table. Fails if the id is taken or the config is invalid.
    pub fn create_table(self: &Arc<Self>, id: TableId, config: TableConfig) -> Result<()> {
        config.validate().map_err(IpsError::InvalidConfig)?;
        let mut tables = self.tables.write();
        if tables.contains_key(&id) {
            return Err(IpsError::InvalidRequest(format!("table {id} exists")));
        }
        let persister = ProfilePersister::new(Arc::clone(&self.store), id, config.persistence);
        let clock = Arc::clone(&self.clock);
        let cache = GCache::new(Arc::new(persister), config.cache.clone(), clock)?;
        // The scheduler's handler compacts through the cache so entries stay
        // consistent with the main read/write paths.
        let runtime = Arc::new_cyclic(|weak: &std::sync::Weak<TableRuntime>| {
            let weak = weak.clone();
            let scheduler = CompactionScheduler::new(move |task: CompactionTask| {
                let Some(rt) = weak.upgrade() else { return };
                let cfg = rt.config.load();
                let now = rt.clock.now();
                rt.cache.mutate_if_cached(task.profile, |profile| {
                    compact_profile(profile, &cfg.compaction, cfg.aggregate, now, !task.full);
                });
            });
            TableRuntime {
                config: HotConfig::new(config),
                cache: Arc::new(cache),
                write_table: WriteTable::default(),
                scheduler,
                metrics: TableMetrics::default(),
                clock: Arc::clone(&self.clock),
            }
        });
        tables.insert(id, runtime);
        Ok(())
    }

    /// Drop a table: flush its dirty data to the store, then remove it from
    /// the serving set. Persisted profiles remain in the KV substrate (a
    /// re-created table with the same id finds them).
    pub fn drop_table(&self, id: TableId) -> Result<()> {
        let rt = self.tables.write().remove(&id);
        let rt = rt.ok_or(IpsError::UnknownTable(id))?;
        rt.merge_write_table()?;
        rt.cache.flush_all()?;
        Ok(())
    }

    /// Look up a table runtime.
    pub fn table(&self, id: TableId) -> Result<Arc<TableRuntime>> {
        self.tables
            .read()
            .get(&id)
            .map(Arc::clone)
            .ok_or(IpsError::UnknownTable(id))
    }

    /// Table ids currently served.
    #[must_use]
    pub fn table_ids(&self) -> Vec<TableId> {
        self.tables.read().keys().copied().collect()
    }

    pub(crate) fn check_alive(&self) -> Result<()> {
        if self.shutting_down.load(Ordering::SeqCst) {
            return Err(IpsError::ShuttingDown);
        }
        Ok(())
    }

    pub(crate) fn table_runtimes(&self) -> Vec<Arc<TableRuntime>> {
        self.tables.read().values().map(Arc::clone).collect()
    }

    pub(crate) fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Live-update one table's configuration (§V-b hot reload). An edit to
    /// `cache` or `persistence` is refused: [`IpsInstance::create_table`]
    /// built the table's cache and persister from them.
    pub fn update_table_config(
        &self,
        table: TableId,
        f: impl FnOnce(&TableConfig) -> TableConfig,
    ) -> Result<()> {
        let rt = self.table(table)?;
        let current = rt.config.load();
        let next = f(&current);
        next.validate().map_err(IpsError::InvalidConfig)?;
        let fixed = [
            ("cache", next.cache != current.cache),
            ("persistence", next.persistence != current.persistence),
        ];
        if let Some((field, _)) = fixed.iter().find(|(_, edited)| *edited) {
            return Err(IpsError::InvalidConfig(format!(
                "`{field}` is fixed when the table is created"
            )));
        }
        rt.config.store(next);
        Ok(())
    }
}
