//! Segmented write-ahead log with checkpoints: durability for a KV node.
//!
//! Each mutation is appended as a checksummed, LSN-stamped record before the
//! caller is acknowledged; on restart the log is replayed to rebuild state.
//! The log is a directory of fixed-size segments plus an optional checkpoint:
//!
//! ```text
//! wal-dir/
//!   checkpoint.ckpt      checkpoint header + one Set record per live key
//!   seg-00000000000000000007.wal   segment header + records (lsn > ckpt lsn)
//!   seg-00000000000000000008.wal   ...
//! ```
//!
//! Recovery loads `checkpoint + segments`, skipping records at or below the
//! checkpoint LSN. Checkpointing never opens a durability hole: the snapshot
//! is written to a temp file, fsync'd, renamed over the old checkpoint, the
//! directory is fsync'd, and only *then* are covered segments retired.
//! Segment creation and retirement also fsync the parent directory, so a
//! crash cannot resurrect a retired segment or lose a created one.
//!
//! Frame layout (shared by segments and the checkpoint):
//! `len u32 LE | checksum u64 LE (FNV-1a over body) | body`
//! where `body` is a wire-encoded record or header.
//!
//! A checksum mismatch at the *tail of the final segment* is a torn write —
//! the expected crash-mid-append artifact — and is truncated and counted. A
//! mismatch anywhere else is mid-log corruption and is never silently
//! dropped: [`RecoveryMode::Strict`] fails recovery, [`RecoveryMode::Salvage`]
//! skips to the next valid frame and counts what was lost.
//!
//! All file I/O goes through [`storage::WalStorage`], so every failure mode
//! (torn write, failed fsync, crash between checkpoint and retirement,
//! bit rot, disk full) is injectable and deterministic under test.

pub mod storage;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};

use ips_codec::wire_message;
use ips_metrics::Counter;
use ips_types::{IpsError, RecoveryMode, Result, WalConfig};

use crate::store::Generation;
use storage::{FsStorage, WalFile, WalStorage};

/// Current on-disk format version, stamped into every segment and checkpoint
/// header.
const WAL_FORMAT_VERSION: u64 = 1;
/// `len u32 | checksum u64` prefix on every frame.
const FRAME_HEADER_BYTES: usize = 12;
/// Upper bound on a single frame body; anything larger is garbage.
const MAX_FRAME_BYTES: usize = 1 << 26;
/// The durable checkpoint file.
const CHECKPOINT_FILE: &str = "checkpoint.ckpt";
/// In-progress checkpoint; renamed over [`CHECKPOINT_FILE`] once fsync'd.
const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// One logged mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    Set {
        key: Bytes,
        value: Bytes,
        generation: Generation,
    },
    Delete {
        key: Bytes,
    },
}

const REC_SET: u64 = 1;
const REC_DELETE: u64 = 2;

/// Every WAL wire message, for the `wire_schema.lock` check.
pub const WIRE_MESSAGES: &[ips_codec::MessageDescriptor] = &[
    RecordWire::DESCRIPTOR,
    SegmentHeaderWire::DESCRIPTOR,
    CheckpointHeaderWire::DESCRIPTOR,
];

wire_message! {
    /// A logged mutation and its LSN.
    struct RecordWire("wal_record");
    encode((record, lsn): (&WalRecord, u64)) {
        let (kind, key, value, generation) = match record {
            WalRecord::Set {
                key,
                value,
                generation,
            } => (REC_SET, key, Some(value), Some(*generation)),
            WalRecord::Delete { key } => (REC_DELETE, key, None, None),
        };
    }
    decode(body) -> (WalRecord, u64) {
        let (mut kind, mut key, mut value, mut generation, mut lsn) = (0, None, None, 0, 0);
    }
    1 varint(kind) => |v| kind = v;
    2 bytes(key) => |v| key = Some(Bytes::copy_from_slice(v));
    3 optional bytes(value) => |v| value = Some(Bytes::copy_from_slice(v));
    4 optional varint(generation) => |v| generation = v;
    5 varint(lsn) => |v| lsn = v;
    finish {
        let key = key.ok_or_else(|| IpsError::Codec("wal record missing key".into()))?;
        let record = match kind {
            REC_SET => WalRecord::Set {
                key,
                value: value
                    .ok_or_else(|| IpsError::Codec("wal set record missing value".into()))?,
                generation,
            },
            REC_DELETE => WalRecord::Delete { key },
            other => return Err(IpsError::Codec(format!("unknown wal record kind {other}"))),
        };
        Ok((record, lsn))
    }
}

/// Reject a header from an unknown (newer) or unset format version.
fn check_version(version: u64, what: &str) -> Result<()> {
    if version == 0 || version > WAL_FORMAT_VERSION {
        return Err(IpsError::Codec(format!(
            "unsupported wal {what} version {version}"
        )));
    }
    Ok(())
}

/// The first frame of every segment file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SegmentHeader {
    version: u64,
    seq: u64,
    base_lsn: u64,
}

wire_message! {
    /// A [`SegmentHeader`]; encoding always stamps the current version.
    struct SegmentHeaderWire("segment_header");
    encode((seq, base_lsn): (u64, u64)) {}
    decode(body) -> SegmentHeader {
        let (mut version, mut seq, mut base_lsn) = (0, 0, 0);
    }
    1 varint(WAL_FORMAT_VERSION) => |v| version = v;
    2 varint(seq) => |v| seq = v;
    3 varint(base_lsn) => |v| base_lsn = v;
    finish {
        check_version(version, "segment")?;
        Ok(SegmentHeader {
            version,
            seq,
            base_lsn,
        })
    }
}

/// The first frame of the checkpoint file; `entries` Set records follow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CheckpointHeader {
    version: u64,
    /// Every record with `lsn <= checkpoint_lsn` is folded into the entries.
    checkpoint_lsn: u64,
    entries: u64,
}

wire_message! {
    /// A [`CheckpointHeader`]; encoding always stamps the current version.
    struct CheckpointHeaderWire("checkpoint_header");
    encode((checkpoint_lsn, entries): (u64, u64)) {}
    decode(body) -> CheckpointHeader {
        let (mut version, mut checkpoint_lsn, mut entries) = (0, 0, 0);
    }
    1 varint(WAL_FORMAT_VERSION) => |v| version = v;
    2 varint(checkpoint_lsn) => |v| checkpoint_lsn = v;
    3 varint(entries) => |v| entries = v;
    finish {
        check_version(version, "checkpoint")?;
        Ok(CheckpointHeader {
            version,
            checkpoint_lsn,
            entries,
        })
    }
}

fn fnv(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Wrap a body in the `len | checksum | body` frame.
fn frame_bytes(body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(body.len() + FRAME_HEADER_BYTES);
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv(body).to_le_bytes());
    frame.extend_from_slice(body);
    frame
}

/// Parse the frame at `pos`: `Some((body, end))` when the length is sane and
/// the checksum matches, `None` otherwise.
fn frame_at(data: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let header_end = pos.checked_add(FRAME_HEADER_BYTES)?;
    if header_end > data.len() {
        return None;
    }
    let len = u32::from_le_bytes(<[u8; 4]>::try_from(&data[pos..pos + 4]).ok()?) as usize;
    if len > MAX_FRAME_BYTES {
        return None;
    }
    let checksum = u64::from_le_bytes(<[u8; 8]>::try_from(&data[pos + 4..header_end]).ok()?);
    let body_end = header_end.checked_add(len)?;
    if body_end > data.len() {
        return None;
    }
    let body = &data[header_end..body_end];
    (fnv(body) == checksum).then_some((body, body_end))
}

/// First offset at or after `from` where a whole valid frame starts, if any.
/// Distinguishes a torn tail (nothing valid after the bad frame) from
/// mid-log corruption (valid records follow) and is the salvage resync scan.
fn find_next_frame(data: &[u8], from: usize) -> Option<usize> {
    (from..data.len()).find(|&pos| frame_at(data, pos).is_some())
}

fn segment_name(seq: u64) -> String {
    format!("seg-{seq:020}.wal")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".wal")?
        .parse()
        .ok()
}

fn storage_err(op: &str, e: std::io::Error) -> IpsError {
    IpsError::Storage(format!("wal {op}: {e}"))
}

/// What one recovery pass saw. Cumulative counters live in [`WalMetrics`];
/// this is the per-pass report surfaced through `KvNode` recovery stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segment files scanned.
    pub segments_scanned: u64,
    /// Records replayed from segments (above the checkpoint LSN).
    pub records_replayed: u64,
    /// Records skipped because the checkpoint already covers them.
    pub records_below_checkpoint: u64,
    /// Entries loaded from the checkpoint snapshot.
    pub checkpoint_entries: u64,
    /// A valid checkpoint was found and used.
    pub used_checkpoint: bool,
    /// A checkpoint file existed but failed validation (salvage only; strict
    /// recovery fails instead).
    pub invalid_checkpoint: bool,
    /// Torn tails truncated (at most one per pass, always the final segment).
    pub torn_tails: u64,
    /// Bytes dropped with the torn tail.
    pub torn_bytes: u64,
    /// Mid-log corruption events skipped (salvage only; strict fails).
    pub corrupt_events: u64,
    /// An orphaned `checkpoint.tmp` from a crashed checkpoint was removed.
    pub orphan_tmp_removed: bool,
}

/// Cumulative WAL health counters (exported via node stats / dashboards).
#[derive(Debug)]
pub struct WalMetrics {
    /// Recovery passes completed.
    pub recoveries: Counter,
    /// Torn tails truncated across all recoveries.
    pub torn_tails: Counter,
    /// Mid-log corruption events skipped (salvage mode).
    pub corrupt_events: Counter,
    /// Checkpoints completed.
    pub checkpoints: Counter,
    /// Segment rotations.
    pub rotations: Counter,
    /// Segments retired by checkpoints.
    pub segments_retired: Counter,
}

impl Default for WalMetrics {
    fn default() -> Self {
        Self {
            recoveries: Counter::new(),
            torn_tails: Counter::new(),
            corrupt_events: Counter::new(),
            checkpoints: Counter::new(),
            rotations: Counter::new(),
            segments_retired: Counter::new(),
        }
    }
}

/// Result of a completed checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Live entries written into the snapshot.
    pub entries: usize,
    /// Records at or below this LSN are covered by the snapshot.
    pub checkpoint_lsn: u64,
    /// Segment files retired (deleted) by this checkpoint.
    pub segments_retired: usize,
}

/// A sealed-log ticket from [`Wal::begin_checkpoint`]. Holding it excludes
/// other checkpoints; pass it to [`Wal::finish_checkpoint`] with the
/// snapshot entries.
pub struct CheckpointTicket<'a> {
    checkpoint_lsn: u64,
    sealed_seq: u64,
    _exclusive: MutexGuard<'a, ()>,
}

impl CheckpointTicket<'_> {
    /// Records at or below this LSN must be covered by the snapshot handed
    /// to [`Wal::finish_checkpoint`].
    #[must_use]
    pub fn checkpoint_lsn(&self) -> u64 {
        self.checkpoint_lsn
    }
}

/// The mutable half of the log: the active segment and append cursor.
struct Active {
    file: Option<Box<dyn WalFile>>,
    /// Sequence number of the active segment.
    seq: u64,
    /// Bytes in the active segment (header included).
    bytes: u64,
    /// Byte offset up to which the active segment is known durable; appends
    /// that fail mid-frame are truncated back to a known-good boundary.
    synced_bytes: u64,
    /// Next log sequence number to stamp.
    next_lsn: u64,
    /// The directory has been scanned and the active segment opened.
    initialized: bool,
    /// A fault-recovery truncation failed: the log can no longer guarantee a
    /// clean frame boundary, so appends are refused until re-recovery.
    poisoned: bool,
}

/// A segmented, checkpointed write-ahead log.
pub struct Wal {
    storage: Arc<dyn WalStorage>,
    path: PathBuf,
    config: WalConfig,
    active: Mutex<Active>,
    /// Serializes checkpoints against each other (appends stay concurrent).
    checkpoint_gate: Mutex<()>,
    metrics: WalMetrics,
}

impl Wal {
    /// Open (or create) the log directory at `path`. Existing records
    /// survive.
    pub fn open(path: impl AsRef<Path>, sync_every_append: bool) -> Result<Self> {
        Self::open_with(
            path,
            WalConfig {
                sync_every_append,
                ..WalConfig::default()
            },
        )
    }

    /// Open (or create) the log directory at `path` with explicit tuning.
    pub fn open_with(path: impl AsRef<Path>, config: WalConfig) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let storage = FsStorage::open(&path).map_err(|e| storage_err("open dir", e))?;
        Self::with_storage_at(Arc::new(storage), path, config)
    }

    /// Build the log over an injected storage backend (fault testing).
    pub fn with_storage(storage: Arc<dyn WalStorage>, config: WalConfig) -> Result<Self> {
        Self::with_storage_at(storage, PathBuf::from("<injected>"), config)
    }

    fn with_storage_at(
        storage: Arc<dyn WalStorage>,
        path: PathBuf,
        config: WalConfig,
    ) -> Result<Self> {
        config.validate().map_err(IpsError::InvalidConfig)?;
        Ok(Self {
            storage,
            path,
            config,
            active: Mutex::new(Active {
                file: None,
                seq: 0,
                bytes: 0,
                synced_bytes: 0,
                next_lsn: 1,
                initialized: false,
                poisoned: false,
            }),
            checkpoint_gate: Mutex::new(()),
            metrics: WalMetrics::default(),
        })
    }

    /// Cumulative health counters.
    #[must_use]
    pub fn metrics(&self) -> &WalMetrics {
        &self.metrics
    }

    /// The log's directory path (display only for injected storage).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total bytes across segments and checkpoint.
    pub fn size_bytes(&self) -> Result<u64> {
        let names = self.storage.list().map_err(|e| storage_err("list", e))?;
        let mut total = 0u64;
        for name in names {
            total += self
                .storage
                .file_len(&name)
                .map_err(|e| storage_err("stat", e))?;
        }
        Ok(total)
    }

    /// Sequence numbers of the segment files currently on disk, ascending.
    pub fn segment_seqs(&self) -> Result<Vec<u64>> {
        let names = self.storage.list().map_err(|e| storage_err("list", e))?;
        let mut seqs: Vec<u64> = names.iter().filter_map(|n| parse_segment_name(n)).collect();
        seqs.sort_unstable();
        Ok(seqs)
    }

    // ---- append ----------------------------------------------------------

    /// Append one record; returns once it is on its way to disk (fsync'd if
    /// configured). On any storage fault the log is restored to its last
    /// known frame boundary, so an error here never leaves a half-frame for
    /// the next append to bury.
    pub fn append(&self, record: &WalRecord) -> Result<()> {
        let mut active = self.active.lock();
        self.ensure_ready(&mut active)?;
        if active.bytes >= self.config.segment_bytes {
            self.rotate(&mut active)?;
        }
        let lsn = active.next_lsn;
        let frame = RecordWire::with_encoded((record, lsn), frame_bytes);
        let boundary = active.bytes;
        let file = active
            .file
            .as_mut()
            .ok_or_else(|| IpsError::Storage("wal append: no active segment".into()))?;
        if let Err(e) = file.append(&frame) {
            // The disk may hold a prefix of the frame (torn write / ENOSPC).
            // Cut back to the boundary so a later append cannot bury garbage
            // mid-log; if even that fails, refuse further appends.
            if file.truncate(boundary).is_err() {
                active.poisoned = true;
            }
            return Err(storage_err("append", e));
        }
        active.bytes += frame.len() as u64;
        if self.config.sync_every_append {
            let restore = active.synced_bytes;
            let file = active
                .file
                .as_mut()
                .ok_or_else(|| IpsError::Storage("wal append: no active segment".into()))?;
            if let Err(e) = file.sync_data() {
                // The record was not acknowledged; drop it from the OS view
                // too, otherwise a later successful fsync would make it
                // durable retroactively (the fsyncgate hazard).
                if file.truncate(restore).is_err() {
                    active.poisoned = true;
                } else {
                    active.bytes = restore;
                }
                return Err(storage_err("sync", e));
            }
            active.synced_bytes = active.bytes;
        }
        active.next_lsn = lsn + 1;
        Ok(())
    }

    // ---- recovery --------------------------------------------------------

    /// Recover the log: load the checkpoint (if any) and every segment
    /// record above its LSN, truncate a torn tail, and ready the log for
    /// appends. Returns the records to re-apply, in order (checkpoint
    /// entries first), plus a report of what the pass saw.
    pub fn recover(&self) -> Result<(Vec<WalRecord>, RecoveryReport)> {
        let mut active = self.active.lock();
        let mut records = Vec::new();
        let report = self.recover_locked(&mut active, Some(&mut records))?;
        Ok((records, report))
    }

    /// Scan the directory, rebuild the append cursor, and (optionally)
    /// collect the surviving records.
    fn recover_locked(
        &self,
        active: &mut Active,
        mut collect: Option<&mut Vec<WalRecord>>,
    ) -> Result<RecoveryReport> {
        active.file = None;
        active.initialized = false;
        active.poisoned = false;
        let mode = self.config.recovery_mode;
        let mut report = RecoveryReport::default();

        let names = self.storage.list().map_err(|e| storage_err("list", e))?;

        // A leftover checkpoint.tmp means a checkpoint crashed before its
        // rename; the old checkpoint (if any) is still authoritative.
        if names.iter().any(|n| n == CHECKPOINT_TMP) {
            self.storage
                .remove(CHECKPOINT_TMP)
                .map_err(|e| storage_err("remove orphan tmp", e))?;
            self.storage
                .sync_dir()
                .map_err(|e| storage_err("sync dir", e))?;
            report.orphan_tmp_removed = true;
        }

        let mut checkpoint_lsn = 0u64;
        if names.iter().any(|n| n == CHECKPOINT_FILE) {
            match self.load_checkpoint() {
                Ok((header, entries)) => {
                    checkpoint_lsn = header.checkpoint_lsn;
                    report.used_checkpoint = true;
                    report.checkpoint_entries = entries.len() as u64;
                    if let Some(out) = collect.as_deref_mut() {
                        out.extend(entries);
                    }
                }
                Err(e) => match mode {
                    // The checkpoint is written tmp-then-rename, so a torn
                    // one is bit rot, not a crash artifact: corruption.
                    RecoveryMode::Strict => {
                        return Err(IpsError::Storage(format!(
                            "wal checkpoint corrupt: {e}; restore from a replica or recover in \
                             salvage mode"
                        )));
                    }
                    RecoveryMode::Salvage => {
                        report.invalid_checkpoint = true;
                        report.corrupt_events += 1;
                        self.metrics.corrupt_events.inc();
                    }
                },
            }
        }

        let mut seqs: Vec<u64> = names.iter().filter_map(|n| parse_segment_name(n)).collect();
        seqs.sort_unstable();
        report.segments_scanned = seqs.len() as u64;

        let mut max_lsn = checkpoint_lsn;
        // Whether the final segment ends in a state we can append to: a
        // valid (or rewritable-empty) header with no trailing garbage.
        let mut last_segment_reusable = false;
        for (idx, &seq) in seqs.iter().enumerate() {
            let is_last = idx + 1 == seqs.len();
            let name = segment_name(seq);
            let data = self
                .storage
                .read(&name)
                .map_err(|e| storage_err("read segment", e))?;
            let mut pos = 0usize;
            let mut header_ok = false;

            // Header frame. An empty file (a segment truncated to zero by an
            // earlier torn-header recovery) is legal: no header, no records.
            if !data.is_empty() {
                match frame_at(&data, 0).map(|(body, end)| (SegmentHeaderWire::decode(body), end)) {
                    Some((Ok(header), end)) if header.seq == seq => {
                        header_ok = true;
                        pos = end;
                    }
                    _ => {
                        pos = self.handle_bad_frame(
                            mode,
                            &name,
                            &data,
                            0,
                            seq,
                            is_last,
                            &mut report,
                        )?;
                    }
                }
            }

            // Record frames.
            let mut end_of_data = pos >= data.len();
            while !end_of_data {
                match frame_at(&data, pos) {
                    Some((body, end)) => match RecordWire::decode(body) {
                        Ok((record, lsn)) => {
                            if lsn > checkpoint_lsn {
                                report.records_replayed += 1;
                                if let Some(out) = collect.as_deref_mut() {
                                    out.push(record);
                                }
                            } else {
                                report.records_below_checkpoint += 1;
                            }
                            max_lsn = max_lsn.max(lsn);
                            pos = end;
                        }
                        // Valid checksum, undecodable body: the writer put
                        // garbage here — corruption, never a torn tail.
                        Err(_) => {
                            pos = self.handle_bad_frame(
                                mode,
                                &name,
                                &data,
                                end, // resync after the framed garbage
                                seq,
                                is_last,
                                &mut report,
                            )?;
                        }
                    },
                    None => {
                        pos = self.handle_bad_frame(
                            mode,
                            &name,
                            &data,
                            pos,
                            seq,
                            is_last,
                            &mut report,
                        )?;
                    }
                }
                end_of_data = pos >= data.len();
            }

            if is_last {
                // Reusable when the header is valid (any torn tail was
                // already truncated back to a clean boundary) or the file is
                // now empty (a fresh header will be written on open).
                last_segment_reusable = header_ok || self.current_len(&name)? == 0;
            }
        }

        active.next_lsn = max_lsn + 1;
        let active_seq = match seqs.last() {
            Some(&last) if last_segment_reusable => last,
            Some(&last) => last + 1,
            None => 1,
        };
        self.open_active(active, active_seq)?;
        active.initialized = true;
        self.metrics.recoveries.inc();
        Ok(report)
    }

    /// Current length of a segment file (post-truncation).
    fn current_len(&self, name: &str) -> Result<u64> {
        self.storage
            .file_len(name)
            .map_err(|e| storage_err("stat", e))
    }

    /// Deal with an unreadable frame at `pos`: truncate a torn tail, fail
    /// strict recovery on corruption, or (salvage) resync to the next valid
    /// frame. Returns the position to continue scanning from — `data.len()`
    /// when the rest of the segment is gone.
    #[allow(clippy::too_many_arguments, reason = "the recovery scan's state")]
    fn handle_bad_frame(
        &self,
        mode: RecoveryMode,
        name: &str,
        data: &[u8],
        pos: usize,
        seq: u64,
        is_last: bool,
        report: &mut RecoveryReport,
    ) -> Result<usize> {
        let resync = find_next_frame(data, pos.saturating_add(1));
        if is_last && resync.is_none() {
            // Nothing valid after the bad frame in the final segment: the
            // expected crash-mid-append torn tail. Truncate it away so the
            // next append starts at a clean boundary.
            self.storage
                .truncate(name, pos as u64)
                .map_err(|e| storage_err("truncate torn tail", e))?;
            report.torn_tails += 1;
            report.torn_bytes += (data.len() - pos) as u64;
            self.metrics.torn_tails.inc();
            return Ok(data.len());
        }
        match mode {
            RecoveryMode::Strict => Err(IpsError::wal_corruption(seq, pos as u64)),
            RecoveryMode::Salvage => {
                report.corrupt_events += 1;
                self.metrics.corrupt_events.inc();
                Ok(resync.unwrap_or(data.len()))
            }
        }
    }

    /// Load and fully validate the checkpoint file.
    fn load_checkpoint(&self) -> Result<(CheckpointHeader, Vec<WalRecord>)> {
        let data = self
            .storage
            .read(CHECKPOINT_FILE)
            .map_err(|e| storage_err("read checkpoint", e))?;
        let (body, mut pos) = frame_at(&data, 0)
            .ok_or_else(|| IpsError::Codec("checkpoint header frame invalid".into()))?;
        let header = CheckpointHeaderWire::decode(body)?;
        let mut entries = Vec::with_capacity(header.entries as usize);
        for i in 0..header.entries {
            let (body, end) = frame_at(&data, pos).ok_or_else(|| {
                IpsError::Codec(format!("checkpoint entry {i} invalid at offset {pos}"))
            })?;
            let (record, _lsn) = RecordWire::decode(body)?;
            entries.push(record);
            pos = end;
        }
        if pos != data.len() {
            return Err(IpsError::Codec(format!(
                "checkpoint has {} trailing bytes",
                data.len() - pos
            )));
        }
        Ok((header, entries))
    }

    /// Make the log appendable without an explicit [`Wal::recover`] call:
    /// scan once to learn the segment/LSN cursor, discarding the records.
    fn ensure_ready(&self, active: &mut Active) -> Result<()> {
        if active.poisoned {
            return Err(IpsError::Storage(
                "wal poisoned: a fault-recovery truncation failed; recover() to resume".into(),
            ));
        }
        if !active.initialized {
            self.recover_locked(active, None)?;
        }
        Ok(())
    }

    /// Open segment `seq` for appending, writing (and syncing) a fresh
    /// header if the file is empty, and making the directory entry durable.
    fn open_active(&self, active: &mut Active, seq: u64) -> Result<()> {
        let name = segment_name(seq);
        let mut file = self
            .storage
            .open_append(&name)
            .map_err(|e| storage_err("open segment", e))?;
        let mut len = file.len().map_err(|e| storage_err("stat segment", e))?;
        if len == 0 {
            let frame = SegmentHeaderWire::with_encoded((seq, active.next_lsn), frame_bytes);
            file.append(&frame)
                .map_err(|e| storage_err("write segment header", e))?;
            file.sync_data()
                .map_err(|e| storage_err("sync segment header", e))?;
            // Durability of the *entry*, not just the bytes: without this a
            // crash can lose the whole freshly-rotated segment.
            self.storage
                .sync_dir()
                .map_err(|e| storage_err("sync dir", e))?;
            len = frame.len() as u64;
        }
        active.seq = seq;
        active.bytes = len;
        active.synced_bytes = len;
        active.file = Some(file);
        Ok(())
    }

    /// Seal the active segment (fsync) and open the next one.
    fn rotate(&self, active: &mut Active) -> Result<()> {
        if let Some(file) = active.file.as_mut() {
            file.sync_data()
                .map_err(|e| storage_err("seal segment", e))?;
        }
        let next = active.seq + 1;
        self.open_active(active, next)?;
        self.metrics.rotations.inc();
        Ok(())
    }

    // ---- checkpoint ------------------------------------------------------

    /// Seal the log for a checkpoint: rotate to a fresh segment and fix the
    /// checkpoint LSN. Every record at or below that LSN now lives in a
    /// sealed segment; the caller must produce a snapshot covering all of
    /// them (and may include newer state — replay is generation-gated, so
    /// re-applying the overlap is idempotent).
    pub fn begin_checkpoint(&self) -> Result<CheckpointTicket<'_>> {
        let exclusive = self.checkpoint_gate.lock();
        let mut active = self.active.lock();
        self.ensure_ready(&mut active)?;
        let checkpoint_lsn = active.next_lsn - 1;
        let sealed_seq = active.seq;
        self.rotate(&mut active)?;
        Ok(CheckpointTicket {
            checkpoint_lsn,
            sealed_seq,
            _exclusive: exclusive,
        })
    }

    /// Write the snapshot durably (tmp → fsync → rename → dir fsync), then
    /// retire the sealed segments it covers. A crash at *any* point leaves
    /// either the old checkpoint + all segments, or the new checkpoint +
    /// possibly-some segments — never a durability hole.
    pub fn finish_checkpoint(
        &self,
        ticket: CheckpointTicket<'_>,
        entries: &[WalRecord],
    ) -> Result<CheckpointStats> {
        let mut tmp = self
            .storage
            .open_append(CHECKPOINT_TMP)
            .map_err(|e| storage_err("open checkpoint tmp", e))?;
        // A leftover tmp from an earlier failed checkpoint is dead weight.
        tmp.truncate(0)
            .map_err(|e| storage_err("truncate checkpoint tmp", e))?;
        let mut buf = Vec::new();
        let header = (ticket.checkpoint_lsn, entries.len() as u64);
        buf.extend_from_slice(&CheckpointHeaderWire::with_encoded(header, frame_bytes));
        for entry in entries {
            buf.extend_from_slice(&RecordWire::with_encoded((entry, 0), frame_bytes));
        }
        tmp.append(&buf)
            .map_err(|e| storage_err("write checkpoint", e))?;
        tmp.sync_data()
            .map_err(|e| storage_err("sync checkpoint", e))?;
        drop(tmp);
        self.storage
            .rename(CHECKPOINT_TMP, CHECKPOINT_FILE)
            .map_err(|e| storage_err("publish checkpoint", e))?;
        self.storage
            .sync_dir()
            .map_err(|e| storage_err("sync dir", e))?;

        // The new checkpoint is durable; the sealed segments are redundant.
        let mut retired = 0usize;
        for seq in self.segment_seqs()? {
            if seq <= ticket.sealed_seq {
                self.storage
                    .remove(&segment_name(seq))
                    .map_err(|e| storage_err("retire segment", e))?;
                retired += 1;
            }
        }
        if retired > 0 {
            self.storage
                .sync_dir()
                .map_err(|e| storage_err("sync dir", e))?;
        }
        self.metrics.checkpoints.inc();
        self.metrics.segments_retired.add(retired as u64);
        Ok(CheckpointStats {
            entries: entries.len(),
            checkpoint_lsn: ticket.checkpoint_lsn,
            segments_retired: retired,
        })
    }

    /// One-shot checkpoint for single-writer callers: seal, snapshot via
    /// `snapshot()`, publish, retire. Concurrent writers must use
    /// [`Wal::begin_checkpoint`] / [`Wal::finish_checkpoint`] with an
    /// external barrier so the snapshot is guaranteed to cover every sealed
    /// record (see `KvNode::checkpoint`).
    pub fn checkpoint(&self, snapshot: impl FnOnce() -> Vec<WalRecord>) -> Result<CheckpointStats> {
        let ticket = self.begin_checkpoint()?;
        let entries = snapshot();
        self.finish_checkpoint(ticket, &entries)
    }
}

#[cfg(test)]
mod tests {
    use super::storage::{FaultPlan, MemStorage};
    use super::*;

    fn mem_wal(storage: &MemStorage, config: WalConfig) -> Wal {
        Wal::with_storage(Arc::new(storage.clone()), config).unwrap()
    }

    fn small_segments() -> WalConfig {
        WalConfig {
            segment_bytes: 512,
            sync_every_append: true,
            ..WalConfig::default()
        }
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn set(i: u64) -> WalRecord {
        WalRecord::Set {
            key: Bytes::from(i.to_le_bytes().to_vec()),
            value: Bytes::from(vec![i as u8; 40]),
            generation: i + 1,
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "ips-wal-test-{}-{}-{name}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        p
    }

    #[test]
    fn append_and_replay_on_real_fs() {
        let dir = tmp_dir("basic");
        let wal = Wal::open(&dir, false).unwrap();
        wal.append(&WalRecord::Set {
            key: b("k1"),
            value: b("v1"),
            generation: 1,
        })
        .unwrap();
        wal.append(&WalRecord::Delete { key: b("k1") }).unwrap();
        drop(wal);

        let wal = Wal::open(&dir, false).unwrap();
        let recs = wal.recover().unwrap().0;
        assert_eq!(recs.len(), 2);
        assert!(matches!(recs[0], WalRecord::Set { ref key, .. } if key == "k1"));
        assert!(matches!(recs[1], WalRecord::Delete { ref key } if key == "k1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_empty_log() {
        let storage = MemStorage::new();
        let wal = mem_wal(&storage, WalConfig::default());
        assert!(wal.recover().unwrap().0.is_empty());
    }

    #[test]
    fn appends_rotate_into_segments() {
        let storage = MemStorage::new();
        let wal = mem_wal(&storage, small_segments());
        for i in 0..30 {
            wal.append(&set(i)).unwrap();
        }
        let seqs = wal.segment_seqs().unwrap();
        assert!(seqs.len() > 2, "512-byte segments must rotate: {seqs:?}");
        assert_eq!(seqs, (1..=seqs.len() as u64).collect::<Vec<_>>());
        assert!(wal.metrics().rotations.get() as usize == seqs.len() - 1);
        let (recs, report) = wal.recover().unwrap();
        assert_eq!(recs.len(), 30);
        assert_eq!(report.records_replayed, 30);
        assert_eq!(report.segments_scanned as usize, seqs.len());
    }

    #[test]
    fn torn_tail_is_truncated_and_recoverable() {
        let storage = MemStorage::new();
        {
            let wal = mem_wal(&storage, WalConfig::default());
            for i in 0..10 {
                wal.append(&set(i)).unwrap();
            }
        }
        // Tear the last record by chopping bytes off the final segment.
        let name = segment_name(1);
        let len = storage.read(&name).unwrap().len() as u64;
        WalStorage::truncate(&storage, &name, len - 7).unwrap();

        let wal = mem_wal(&storage, WalConfig::default());
        let (recs, report) = wal.recover().unwrap();
        assert_eq!(recs.len(), 9, "last record torn, rest recovered");
        assert_eq!(report.torn_tails, 1);
        assert!(report.torn_bytes > 0);
        assert_eq!(wal.metrics().torn_tails.get(), 1);

        // Appending after recovery lands on a clean boundary.
        wal.append(&WalRecord::Set {
            key: b("new"),
            value: b("val"),
            generation: 99,
        })
        .unwrap();
        let recs = wal.recover().unwrap().0;
        assert_eq!(recs.len(), 10);
        assert!(matches!(recs[9], WalRecord::Set { generation: 99, .. }));
    }

    #[test]
    fn mid_log_corruption_fails_strict_recovery() {
        let storage = MemStorage::new();
        {
            let wal = mem_wal(&storage, WalConfig::default());
            for i in 0..5 {
                wal.append(&set(i)).unwrap();
            }
        }
        // Flip a bit in the middle of the single segment: records follow the
        // damage, so this is corruption, not a torn tail.
        let name = segment_name(1);
        let len = storage.read(&name).unwrap().len() as u64;
        storage.corrupt(&name, len / 2).unwrap();

        let wal = mem_wal(&storage, WalConfig::default());
        let err = wal.recover().unwrap_err();
        assert!(matches!(err, IpsError::Storage(_)));
        assert!(err.to_string().contains("not a torn tail"), "{err}");
    }

    #[test]
    fn mid_log_corruption_is_skipped_and_counted_in_salvage() {
        let storage = MemStorage::new();
        {
            let wal = mem_wal(&storage, WalConfig::default());
            for i in 0..5 {
                wal.append(&set(i)).unwrap();
            }
        }
        let name = segment_name(1);
        let len = storage.read(&name).unwrap().len() as u64;
        storage.corrupt(&name, len / 2).unwrap();

        let wal = mem_wal(
            &storage,
            WalConfig {
                recovery_mode: RecoveryMode::Salvage,
                ..WalConfig::default()
            },
        );
        let (recs, report) = wal.recover().unwrap();
        assert!(report.corrupt_events >= 1);
        assert_eq!(report.torn_tails, 0, "corruption is not a torn tail");
        assert!(
            recs.len() < 5 && recs.len() >= 3,
            "records after the damage salvaged: {}",
            recs.len()
        );
    }

    #[test]
    fn corruption_in_non_final_segment_is_never_a_torn_tail() {
        let storage = MemStorage::new();
        {
            let wal = mem_wal(&storage, small_segments());
            for i in 0..30 {
                wal.append(&set(i)).unwrap();
            }
            assert!(wal.segment_seqs().unwrap().len() > 2);
        }
        // Damage the TAIL of the FIRST segment — positionally a "tail", but
        // later segments exist, so it must be treated as corruption.
        let name = segment_name(1);
        let len = storage.read(&name).unwrap().len() as u64;
        storage.corrupt(&name, len - 3).unwrap();

        let strict = mem_wal(&storage, WalConfig::default());
        assert!(strict.recover().is_err());

        let salvage = mem_wal(
            &storage,
            WalConfig {
                recovery_mode: RecoveryMode::Salvage,
                ..WalConfig::default()
            },
        );
        let (recs, report) = salvage.recover().unwrap();
        assert!(report.corrupt_events >= 1);
        assert_eq!(report.torn_tails, 0);
        assert!(
            recs.len() == 29,
            "exactly the damaged record lost: {}",
            recs.len()
        );
    }

    #[test]
    fn checkpoint_retires_segments_and_recovery_uses_snapshot() {
        let storage = MemStorage::new();
        let wal = mem_wal(&storage, small_segments());
        // 60 overwrites of 6 keys.
        for i in 0..60u64 {
            wal.append(&WalRecord::Set {
                key: Bytes::from((i % 6).to_le_bytes().to_vec()),
                value: Bytes::from(vec![i as u8; 40]),
                generation: i + 1,
            })
            .unwrap();
        }
        let before = wal.size_bytes().unwrap();
        let segments_before = wal.segment_seqs().unwrap().len();
        let stats = wal
            .checkpoint(|| {
                (0..6u64)
                    .map(|k| WalRecord::Set {
                        key: Bytes::from(k.to_le_bytes().to_vec()),
                        value: Bytes::from(vec![0xAB; 40]),
                        generation: 100 + k,
                    })
                    .collect()
            })
            .unwrap();
        assert_eq!(stats.entries, 6);
        assert_eq!(stats.checkpoint_lsn, 60);
        assert_eq!(stats.segments_retired, segments_before);
        let after = wal.size_bytes().unwrap();
        assert!(
            after < before / 3,
            "checkpoint must shrink the log: {before} -> {after}"
        );

        // Recovery = snapshot + (empty) fresh segment.
        let (recs, report) = wal.recover().unwrap();
        assert_eq!(recs.len(), 6);
        assert!(report.used_checkpoint);
        assert_eq!(report.checkpoint_entries, 6);
        assert_eq!(report.records_replayed, 0);

        // Records appended after the checkpoint replay on top of it.
        wal.append(&set(999)).unwrap();
        let (recs, report) = wal.recover().unwrap();
        assert_eq!(recs.len(), 7);
        assert_eq!(report.records_replayed, 1);
        assert_eq!(
            report.records_below_checkpoint, 0,
            "covered records retired"
        );

        // LSNs keep increasing across the checkpoint.
        assert_eq!(wal.metrics().checkpoints.get(), 1);
        assert!(wal.metrics().segments_retired.get() >= 1);
    }

    #[test]
    fn orphan_checkpoint_tmp_is_removed_and_old_checkpoint_wins() {
        let storage = MemStorage::new();
        let wal = mem_wal(&storage, WalConfig::default());
        wal.append(&set(1)).unwrap();
        wal.checkpoint(|| vec![set(1)]).unwrap();
        // Simulate a crash mid-checkpoint: a half-written tmp file.
        let mut tmp = storage.open_append(CHECKPOINT_TMP).unwrap();
        tmp.append(b"half-written garbage").unwrap();
        drop(tmp);

        let (recs, report) = wal.recover().unwrap();
        assert!(report.orphan_tmp_removed);
        assert!(report.used_checkpoint);
        assert_eq!(recs.len(), 1);
        assert!(storage.read(CHECKPOINT_TMP).is_err(), "tmp removed");
    }

    #[test]
    fn corrupt_checkpoint_fails_strict_and_is_counted_in_salvage() {
        let storage = MemStorage::new();
        {
            let wal = mem_wal(&storage, WalConfig::default());
            for i in 0..4 {
                wal.append(&set(i)).unwrap();
            }
            wal.checkpoint(|| (0..4).map(set).collect()).unwrap();
            // Keep appending so salvage still has segment records to return.
            wal.append(&set(40)).unwrap();
        }
        storage.corrupt(CHECKPOINT_FILE, 20).unwrap();

        let strict = mem_wal(&storage, WalConfig::default());
        assert!(strict.recover().is_err());

        let salvage = mem_wal(
            &storage,
            WalConfig {
                recovery_mode: RecoveryMode::Salvage,
                ..WalConfig::default()
            },
        );
        let (recs, report) = salvage.recover().unwrap();
        assert!(report.invalid_checkpoint);
        assert!(!report.used_checkpoint);
        // The checkpoint is gone but the un-retired segment tail survives.
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn record_encoding_round_trips() {
        let set = WalRecord::Set {
            key: b("key-with-bytes"),
            value: Bytes::from(vec![0u8, 255, 7]),
            generation: u64::MAX,
        };
        let (decoded, lsn) = RecordWire::decode(&RecordWire::to_vec((&set, 42))).unwrap();
        assert_eq!(decoded, set);
        assert_eq!(lsn, 42);
        let del = WalRecord::Delete { key: b("") };
        let (decoded, lsn) = RecordWire::decode(&RecordWire::to_vec((&del, 7))).unwrap();
        assert_eq!(decoded, del);
        assert_eq!(lsn, 7);
    }

    #[test]
    fn header_encodings_round_trip() {
        let h = SegmentHeaderWire::decode(&SegmentHeaderWire::to_vec((9, 1000))).unwrap();
        assert_eq!(
            h,
            SegmentHeader {
                version: WAL_FORMAT_VERSION,
                seq: 9,
                base_lsn: 1000
            }
        );
        let c = CheckpointHeaderWire::decode(&CheckpointHeaderWire::to_vec((555, 12))).unwrap();
        assert_eq!(
            c,
            CheckpointHeader {
                version: WAL_FORMAT_VERSION,
                checkpoint_lsn: 555,
                entries: 12
            }
        );
    }

    #[test]
    fn crash_during_rotation_loses_nothing_acknowledged() {
        let storage = MemStorage::new();
        let acked;
        {
            let wal = mem_wal(&storage, small_segments());
            let mut n = 0u64;
            loop {
                if wal.append(&set(n)).is_err() {
                    break;
                }
                n += 1;
                if n == 12 {
                    // Arm a crash three syncs from now: rotation seals the
                    // old segment and syncs the new header, so this schedule
                    // lands mid-rotation.
                    storage.set_plan(FaultPlan {
                        crash_at_sync: Some(storage.sync_calls() + 3),
                        ..FaultPlan::default()
                    });
                }
            }
            acked = n;
        }
        storage.power_cycle();
        let wal = mem_wal(&storage, small_segments());
        let (recs, _) = wal.recover().unwrap();
        assert!(
            recs.len() as u64 >= acked,
            "acked {acked}, recovered only {}",
            recs.len()
        );
        // And the log still accepts writes.
        wal.append(&set(1000)).unwrap();
        assert_eq!(wal.recover().unwrap().0.len(), recs.len() + 1);
    }

    #[test]
    fn crash_between_checkpoint_publish_and_retire_is_safe() {
        let storage = MemStorage::new();
        let wal = mem_wal(&storage, small_segments());
        for i in 0..30 {
            wal.append(&set(i)).unwrap();
        }
        // The retire loop's dir sync is the LAST sync of finish_checkpoint;
        // crash exactly there: new checkpoint durable, segments not yet
        // (durably) removed.
        let entries: Vec<WalRecord> = (0..30).map(set).collect();
        let ticket = wal.begin_checkpoint().unwrap();
        // Syncs inside finish, counted from now: tmp sync_data (+1), rename
        // dir sync (+2), retire dir sync (+3). The crash fires before the
        // retire dir sync takes effect, so the removes revert on power-up.
        storage.set_plan(FaultPlan {
            crash_at_sync: Some(storage.sync_calls() + 3),
            ..FaultPlan::default()
        });
        let err = wal.finish_checkpoint(ticket, &entries).unwrap_err();
        assert!(matches!(err, IpsError::Storage(_)));
        storage.power_cycle();

        let wal = mem_wal(&storage, small_segments());
        let (recs, report) = wal.recover().unwrap();
        assert!(report.used_checkpoint, "published checkpoint survives");
        // Snapshot + resurrected covered segments: replay is idempotent, so
        // duplicates are fine; nothing may be missing.
        let mut keys: Vec<u64> = recs
            .iter()
            .map(|r| match r {
                WalRecord::Set { key, .. } | WalRecord::Delete { key } => {
                    u64::from_le_bytes(<[u8; 8]>::try_from(&key[..8]).unwrap())
                }
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn disk_full_append_fails_clean_and_log_stays_readable() {
        let storage = MemStorage::new();
        let wal = mem_wal(&storage, small_segments());
        for i in 0..5 {
            wal.append(&set(i)).unwrap();
        }
        let used = storage.bytes_appended();
        storage.set_plan(FaultPlan {
            disk_full_at_byte: Some(used + 20),
            ..FaultPlan::default()
        });
        let err = wal.append(&set(5)).unwrap_err();
        assert!(matches!(err, IpsError::Storage(_)));
        // The torn prefix was truncated away: replay sees exactly 5 records
        // and the log is not poisoned for reads.
        let (recs, report) = wal.recover().unwrap();
        assert_eq!(recs.len(), 5);
        assert_eq!(report.torn_tails, 0, "append cleaned up its own tear");
    }

    #[test]
    fn failed_fsync_unacks_the_record() {
        let storage = MemStorage::new();
        let wal = mem_wal(&storage, small_segments());
        wal.append(&set(0)).unwrap();
        // The very next sync_data fails transiently; count from the live
        // counter so header/record syncs already consumed don't matter.
        storage.set_plan(FaultPlan {
            fail_fsync_at: Some(storage.data_sync_calls() + 1),
            ..FaultPlan::default()
        });
        let err = wal.append(&set(1)).unwrap_err();
        assert!(matches!(err, IpsError::Storage(_)));
        // The unacked record must not resurface later.
        wal.append(&set(2)).unwrap();
        let recs = wal.recover().unwrap().0;
        let gens: Vec<u64> = recs
            .iter()
            .map(|r| match r {
                WalRecord::Set { generation, .. } => *generation,
                WalRecord::Delete { .. } => 0,
            })
            .collect();
        assert_eq!(gens, vec![1, 3], "set(1) was refused and stays gone");
    }

    #[test]
    fn synced_appends_work() {
        let storage = MemStorage::new();
        let wal = mem_wal(
            &storage,
            WalConfig {
                sync_every_append: true,
                ..WalConfig::default()
            },
        );
        wal.append(&WalRecord::Delete { key: b("k") }).unwrap();
        assert_eq!(wal.recover().unwrap().0.len(), 1);
    }

    #[test]
    fn segment_names_sort_and_parse() {
        assert_eq!(parse_segment_name(&segment_name(42)), Some(42));
        assert_eq!(parse_segment_name("checkpoint.ckpt"), None);
        assert_eq!(parse_segment_name("seg-x.wal"), None);
        assert!(segment_name(9) < segment_name(10), "zero-padded names sort");
    }
}
