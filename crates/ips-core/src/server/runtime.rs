//! Per-table runtime state and the instance's maintenance tick.

use std::sync::Arc;

use ips_metrics::{Counter, Histogram};
use ips_types::{ProfileId, Result, SharedClock, TableConfig};

use crate::cache::GCache;
use crate::compact::compactor::needs_compaction;
use crate::compact::scheduler::{CompactionScheduler, CompactionTask};
use crate::hotconfig::HotConfig;
use crate::isolation::{apply_buffered, WriteTable};

use super::{DynStore, IpsInstance};

/// Per-table metrics surfaced to harnesses.
#[derive(Default)]
pub struct TableMetrics {
    pub queries: Counter,
    pub writes: Counter,
    pub query_latency_us: Histogram,
    pub write_latency_us: Histogram,
    /// Batched query calls served (one per `query_batch` touching the table).
    pub batch_queries: Counter,
    /// Sub-queries per batch call, per table.
    pub batch_size: Histogram,
}

/// Everything one table needs at runtime.
pub struct TableRuntime {
    pub config: HotConfig<TableConfig>,
    pub cache: Arc<GCache<DynStore>>,
    pub write_table: WriteTable,
    pub scheduler: CompactionScheduler,
    pub metrics: TableMetrics,
    pub(crate) clock: SharedClock,
}

impl TableRuntime {
    /// Fold the staging write table into the main table (the periodic merge
    /// from §III-F). Returns writes merged.
    pub fn merge_write_table(&self) -> Result<usize> {
        let cfg = self.config.load();
        let head_granularity = cfg
            .compaction
            .time_dimension
            .bands
            .first()
            .map(|b| b.granularity)
            .unwrap_or(ips_types::DurationMs::from_secs(1));
        let drained = self.write_table.drain();
        let mut merged = 0;
        for (pid, writes) in drained {
            merged += writes.len();
            self.cache.write(pid, |profile| {
                apply_buffered(profile, &writes, cfg.aggregate, head_granularity);
            })?;
            self.maybe_schedule_compaction(pid)?;
        }
        Ok(merged)
    }

    pub(crate) fn maybe_schedule_compaction(&self, pid: ProfileId) -> Result<()> {
        let cfg = self.config.load();
        let now = self.clock.now();
        let decision = self.cache.read(pid, |profile| {
            needs_compaction(profile, &cfg.compaction, now)
        })?;
        if let Some((Some(full), _)) = decision {
            self.scheduler
                .schedule(CompactionTask { profile: pid, full });
        }
        Ok(())
    }
}

impl IpsInstance {
    /// One maintenance pass over every table: merge the write table, run
    /// pending compactions, flush each dirty shard, run a swap cycle. This
    /// is the only way that work runs off the request path. The paper gives
    /// it dedicated swap, flush and compaction threads; here whoever calls
    /// `tick` plays them, inline or from a thread it owns.
    ///
    /// Every stage of every table runs even when an earlier one fails (a
    /// failing flush must not stop swapping elsewhere); the first error is
    /// returned.
    pub fn tick(&self) -> Result<()> {
        let mut first_err = None;
        let mut note = |r: Result<usize>| {
            if let Err(e) = r {
                first_err.get_or_insert(e);
            }
        };
        for rt in self.table_runtimes() {
            note(rt.merge_write_table());
            rt.scheduler.run_pending(64);
            for shard in 0..rt.config.load().cache.dirty_shards {
                note(rt.cache.flush_shard(shard, 256));
            }
            note(rt.cache.swap_cycle());
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Flush every table's dirty data to the store (graceful shutdown).
    pub fn flush_all(&self) -> Result<usize> {
        let mut total = 0;
        for rt in self.table_runtimes() {
            rt.merge_write_table()?;
            total += rt.cache.flush_all()?;
        }
        Ok(total)
    }

    /// Begin refusing requests, then flush.
    pub fn shutdown(&self) -> Result<usize> {
        self.begin_shutdown();
        self.flush_all()
    }
}
