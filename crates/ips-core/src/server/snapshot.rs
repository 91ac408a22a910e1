//! Shard-handoff snapshot export/import (scale events).

use std::collections::{HashMap, VecDeque};

use ips_types::{ProfileId, Result, TableId};

use crate::cache::{ExportBatch, ExportedEntry, ImportReport};

use super::pipeline::{self, RequestContext, RequestKind};
use super::IpsInstance;

/// Import progress for one handoff stream.
#[derive(Clone, Copy, Default)]
pub(crate) struct SnapshotProgress {
    /// The next chunk sequence number this instance will apply. Chunks
    /// below it are duplicates (already applied, ACKed idempotently);
    /// chunks above it are gaps (refused — the source resumes from here).
    pub(crate) next_seq: u64,
    pub(crate) report: ImportReport,
}

/// Completed handoff streams an instance remembers: enough to outlast the
/// source's retries of a final chunk whose ACK was lost.
const COMPLETED_STREAMS: usize = 64;

/// Import progress of every handoff stream this instance has seen: the open
/// ones, and the most recent completed ones, so a replayed final chunk is
/// ACKed with the completed cursor instead of opening a fresh stream that
/// would send the source back to chunk 0.
#[derive(Default)]
pub(crate) struct SnapshotStreams {
    open: HashMap<u64, SnapshotProgress>,
    /// Oldest first, at most [`COMPLETED_STREAMS`].
    done: VecDeque<(u64, SnapshotProgress)>,
}

impl SnapshotStreams {
    /// The progress of `handoff`, opening it when unseen.
    fn progress(&mut self, handoff: u64) -> SnapshotProgress {
        match self.done.iter().find(|(id, _)| *id == handoff) {
            Some((_, done)) => *done,
            None => *self.open.entry(handoff).or_default(),
        }
    }

    /// Record an applied chunk; `last` closes the stream.
    fn applied(
        &mut self,
        handoff: u64,
        seq: u64,
        last: bool,
        report: ImportReport,
    ) -> SnapshotProgress {
        let prog = self.open.entry(handoff).or_default();
        prog.next_seq = prog.next_seq.max(seq + 1);
        prog.report.absorb(report);
        let prog = *prog;
        if last && prog.next_seq == seq + 1 {
            self.open.remove(&handoff);
            if self.done.len() == COMPLETED_STREAMS {
                self.done.pop_front();
            }
            self.done.push_back((handoff, prog));
        }
        prog
    }
}

/// The ACK an instance returns for one applied (or replayed) snapshot
/// chunk; mirrors the stream's import progress so the source can resume
/// mid-stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct SnapshotImportAck {
    /// Resume cursor: the first chunk seq the instance has not applied.
    pub next_seq: u64,
    /// Cumulative accounting across the whole handoff stream so far.
    pub report: ImportReport,
}

impl IpsInstance {
    /// Export this instance's hottest resident entries for the moving
    /// keyspace `filter` (shard handoff source side). Staged isolated
    /// writes are merged first so the snapshot carries them, and dirty
    /// entries are flushed by the cache walk — the exported generations are
    /// the store's head at export time.
    pub fn export_hot(
        &self,
        table: TableId,
        filter: impl Fn(ProfileId) -> bool,
        max_entries: usize,
        max_bytes: u64,
    ) -> Result<ExportBatch> {
        self.check_alive()?;
        let rt = self.table(table)?;
        rt.merge_write_table()?;
        rt.cache.export_hot(filter, max_entries, max_bytes)
    }

    /// Apply one snapshot chunk streamed from a handoff source (target
    /// side). Chunks must arrive in sequence per handoff id: a replayed
    /// chunk is ACKed without re-applying, a gapped chunk is refused by
    /// returning the resume cursor unchanged — either way the source learns
    /// `next_seq` and resumes from the right offset. `last` completes the
    /// stream; a completed stream stays known, so the final chunk, resent
    /// because its ACK was lost, is ACKed again with the whole stream's
    /// accounting. Handoff ids must be unique across sources.
    pub fn import_snapshot_chunk(
        &self,
        table: TableId,
        handoff: u64,
        seq: u64,
        last: bool,
        entries: Vec<ExportedEntry>,
    ) -> Result<SnapshotImportAck> {
        self.import_snapshot_chunk_ctx(
            &RequestContext::default(),
            table,
            handoff,
            seq,
            last,
            entries,
        )
    }

    /// [`IpsInstance::import_snapshot_chunk`] with an explicit request
    /// context: the pipeline sheds a chunk whose deadline already expired
    /// (internal traffic carries no quota, so only the deadline check
    /// applies).
    pub fn import_snapshot_chunk_ctx(
        &self,
        ctx: &RequestContext,
        table: TableId,
        handoff: u64,
        seq: u64,
        last: bool,
        entries: Vec<ExportedEntry>,
    ) -> Result<SnapshotImportAck> {
        let inst = self;
        inst.check_alive()?;
        let _admitted = pipeline::admit(inst, ctx, RequestKind::Snapshot, entries.len().max(1))?;
        let rt = inst.table(table)?;
        let prog = inst.snapshots.lock().progress(handoff);
        // A duplicate (below the cursor) or a gap (above it): nothing to
        // apply, and the ACK tells the source where to resume.
        let prog = if seq == prog.next_seq {
            // The generation probes inside import run store round trips; do
            // the work outside the progress lock (the source streams
            // sequentially, so per-handoff chunk application does not race
            // itself).
            let report = rt.cache.import_entries(entries)?;
            inst.snapshots.lock().applied(handoff, seq, last, report)
        } else {
            prog
        };
        Ok(SnapshotImportAck {
            next_seq: prog.next_seq,
            report: prog.report,
        })
    }
}
