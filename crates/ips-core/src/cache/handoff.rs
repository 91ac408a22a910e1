//! Shard handoff: export hot entries from the source, import them on the
//! target, and demote the moved keyspace on the source at cutover.

use ips_kv::Generation;
use ips_types::{ProfileId, Result};

use crate::model::ProfileData;
use crate::persist::ProfileStore;

use super::gcache::GCache;

/// One hot entry exported for a shard handoff: the profile plus the storage
/// generation its data was flushed at, so the importer can reject a stale
/// snapshot against a newer KV write.
#[derive(Clone, Debug)]
pub struct ExportedEntry {
    pub pid: ProfileId,
    pub generation: Generation,
    pub data: ProfileData,
}

/// The outcome of one [`GCache::export_hot`] walk.
#[derive(Default)]
pub struct ExportBatch {
    /// Hottest-first entries of the moving keyspace.
    pub entries: Vec<ExportedEntry>,
    /// Approximate payload bytes across `entries`.
    pub bytes: u64,
    /// Matching entries skipped (partial coverage or lock contention).
    pub skipped: usize,
    /// The budget ran out with matching entries still unvisited.
    pub truncated: bool,
}

/// Accounting for one [`GCache::import_entries`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImportReport {
    pub imported: usize,
    /// Entries whose generation no longer matches the store's head.
    pub rejected_stale: usize,
    /// Entries already resident on the importer (left untouched).
    pub already_resident: usize,
}

impl ImportReport {
    pub fn absorb(&mut self, other: ImportReport) {
        self.imported += other.imported;
        self.rejected_stale += other.rejected_stale;
        self.already_resident += other.already_resident;
    }
}

impl<S: ProfileStore + 'static> GCache<S> {
    /// Export the most-recently-used resident entries whose profile id
    /// matches `filter`, capped at `max_entries` / `max_bytes`. Each shard's
    /// LRU is walked from the hot end and the shards are interleaved, so the
    /// batch prefix is approximately the hottest slice of the moving
    /// keyspace. Dirty entries are written back first — the exported
    /// generation is then the store's head, which keeps the import-side
    /// version check meaningful. Partial entries and entries whose lock is
    /// contended are skipped (counted, not retried): the target cold-loads
    /// those few.
    pub fn export_hot(
        &self,
        filter: impl Fn(ProfileId) -> bool,
        max_entries: usize,
        max_bytes: u64,
    ) -> Result<ExportBatch> {
        let lanes: Vec<_> = self.shards.iter().map(|s| s.matching(&filter)).collect();
        let longest = lanes.iter().map(Vec::len).max().unwrap_or(0);
        let order =
            (0..longest).flat_map(|rank| lanes.iter().filter_map(move |lane| lane.get(rank)));
        let mut batch = ExportBatch::default();
        for (pid, entry) in order {
            if batch.entries.len() >= max_entries || batch.bytes >= max_bytes {
                batch.truncated = true;
                break;
            }
            let Some(mut guard) = entry.try_lock() else {
                batch.skipped += 1;
                continue;
            };
            if guard.detached {
                continue; // evicted since the LRU snapshot
            }
            if !guard.missing.is_empty() {
                batch.skipped += 1; // a partial snapshot would drop slices
                continue;
            }
            self.write_back(*pid, &mut guard)?;
            batch.bytes += guard.accounted_bytes as u64;
            batch.entries.push(ExportedEntry {
                pid: *pid,
                generation: guard.held.generation,
                data: guard.data.clone(),
            });
        }
        Ok(batch)
    }

    /// Import a batch of entries streamed from another node during a shard
    /// handoff. Each entry is version-checked against the KV substrate: it
    /// lands only while its generation still matches the store's head for
    /// that profile, so a snapshot that raced a newer write (or is replayed
    /// after one) never shadows fresher data — the key stays cold and the
    /// normal miss path loads the head instead. Already-resident entries are
    /// left untouched: resident data is at least as fresh and may carry
    /// local writes. Entries are processed in reverse so a hottest-first
    /// batch lands in the LRU with its hottest entry most recent.
    pub fn import_entries(&self, entries: Vec<ExportedEntry>) -> Result<ImportReport> {
        let mut report = ImportReport::default();
        for e in entries.into_iter().rev() {
            if self.contains(e.pid) {
                report.already_resident += 1;
                continue;
            }
            if self.persister.current_generation(e.pid)? != Some(e.generation) {
                // Newer head, purged profile, or a generation we cannot
                // confirm: refuse the warm copy rather than shadow it.
                report.rejected_stale += 1;
                continue;
            }
            if self.insert(e.pid, e.data, e.generation, Vec::new()).1 {
                report.imported += 1;
            } else {
                report.already_resident += 1; // a racing miss loaded it first
            }
        }
        Ok(report)
    }

    /// Demote every resident entry matching `filter` into the stale pool
    /// (handoff cutover: ownership moved to the target, so warm copies here
    /// only spend budget — while a stale copy still serves brownouts).
    /// Each shard is walked coldest first, so demotion writes back and fills
    /// the stale pool in a reproducible order, and the pool's FIFO bound
    /// drops the coldest copies first. Returns the number of entries demoted.
    pub fn demote_matching(&self, filter: impl Fn(ProfileId) -> bool) -> Result<usize> {
        let mut demoted = 0;
        for shard in self.shards.iter() {
            for (pid, entry) in shard.matching(&filter).into_iter().rev() {
                if self.evict_entry(pid, entry, true)? {
                    demoted += 1;
                }
            }
        }
        Ok(demoted)
    }
}
