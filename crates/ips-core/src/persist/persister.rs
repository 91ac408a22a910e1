//! The persister: saves and loads profiles through a [`ProfileStore`].
//!
//! Implements both persistence modes from §III-E and the version protocol
//! from Fig 14. Keys are derived from `(table, profile)`:
//!
//! * bulk value:    `b/<table>/<profile>`
//! * split meta:    `m/<table>/<profile>`
//! * split slice:   `s/<table>/<profile>/<seq>`
//!
//! In split mode each slice is stored once under a monotonically increasing
//! sequence number; the meta value lists the live sequence numbers with
//! their time ranges. Saves write slice values *first*, then swing the meta
//! with `xset`; a stale-generation rejection triggers reload-and-retry, and
//! orphaned slice values are deleted only after the meta no longer
//! references them — the write order that makes a crash at any point leave a
//! loadable profile.
//!
//! A split-mode profile switches layout when it crosses the threshold, so
//! both keys may be stored. The *head* is whichever has the newer generation
//! (generations increase across the whole store). Each save collects the
//! layout it supersedes with conditional deletes, so a value another
//! flusher saved meanwhile survives. A split save probes the bulk key. A
//! bulk save collects the meta only for profiles this persister has seen
//! stored split (loaded with a meta, or saved split), so a profile stored
//! only bulk pays no extra KV op; a meta no save here knew of (one written
//! by a handoff source, say) stays until the next split save or
//! [`ProfilePersister::purge`], and loads still pick the newer layout.

use std::collections::HashSet;

use bytes::Bytes;
use parking_lot::Mutex;

use ips_codec::{decode_frame, encode_frame, wire_message};
use ips_kv::Generation;
use ips_types::{IpsError, PersistenceMode, ProfileId, Result, TableId, TimeRange, Timestamp};

use crate::model::{ProfileData, Slice};

use super::backend::ProfileStore;
use super::schema::{decode_profile, encode_profile};

fn bulk_key(table: TableId, pid: ProfileId) -> Bytes {
    let mut k = Vec::with_capacity(16);
    k.push(b'b');
    k.extend_from_slice(&table.raw().to_be_bytes());
    k.extend_from_slice(&pid.raw().to_be_bytes());
    Bytes::from(k)
}

fn meta_key(table: TableId, pid: ProfileId) -> Bytes {
    let mut k = Vec::with_capacity(16);
    k.push(b'm');
    k.extend_from_slice(&table.raw().to_be_bytes());
    k.extend_from_slice(&pid.raw().to_be_bytes());
    Bytes::from(k)
}

fn slice_key(table: TableId, pid: ProfileId, seq: u64) -> Bytes {
    let mut k = Vec::with_capacity(24);
    k.push(b's');
    k.extend_from_slice(&table.raw().to_be_bytes());
    k.extend_from_slice(&pid.raw().to_be_bytes());
    k.extend_from_slice(&seq.to_be_bytes());
    Bytes::from(k)
}

/// One slice reference inside the meta value: the stored sequence number
/// plus the exact time range the slice covers. Public so the cache layer can
/// track which referenced slices a partial profile has not materialized yet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceRefInfo {
    pub seq: u64,
    pub start: Timestamp,
    pub end: Timestamp,
}

/// The decoded meta value (Fig 13's "slice meta structure").
#[derive(Clone, Debug, Default, PartialEq)]
pub(super) struct SliceMeta {
    refs: Vec<SliceRefInfo>,
    next_seq: u64,
    last_compacted: Timestamp,
}

wire_message! {
    /// The slice meta value: live slice refs, the next sequence number and
    /// the last compaction time.
    pub(super) struct SliceMetaWire("slice_meta");
    encode(meta: &SliceMeta) {}
    decode(body) -> SliceMeta {
        let mut meta = SliceMeta::default();
    }
    2 varint(meta.next_seq) => |v| meta.next_seq = v;
    3 fixed64(meta.last_compacted.as_millis()) => |v| {
        meta.last_compacted = Timestamp::from_millis(v)
    };
    1 repeated nested SliceRefWire(&meta.refs) => |r| meta.refs.push(r);
    finish {
        Ok(meta)
    }
}

wire_message! {
    /// One slice reference inside the meta value.
    pub(super) struct SliceRefWire("slice_meta.1");
    encode(r: &SliceRefInfo) {}
    decode(body) -> SliceRefInfo {
        let mut r = SliceRefInfo {
            seq: 0,
            start: Timestamp::ZERO,
            end: Timestamp::ZERO,
        };
    }
    1 varint(r.seq) => |v| r.seq = v;
    2 fixed64(r.start.as_millis()) => |v| r.start = Timestamp::from_millis(v);
    3 fixed64(r.end.as_millis()) => |v| r.end = Timestamp::from_millis(v);
    finish {
        Ok(r)
    }
}

impl SliceMeta {
    fn encode(&self) -> Vec<u8> {
        SliceMetaWire::with_encoded(self, encode_frame)
    }

    fn decode(frame: &[u8]) -> Result<Self> {
        let body = decode_frame(frame).map_err(|e| IpsError::Codec(e.to_string()))?;
        SliceMetaWire::decode(&body)
    }
}

/// The outcome of a load.
#[derive(Debug)]
pub enum LoadOutcome {
    /// The profile was found (with the meta generation to hold for the next
    /// conditional save; 0 in bulk mode).
    Loaded {
        profile: ProfileData,
        generation: Generation,
    },
    /// The store has no data for this profile.
    Missing,
}

/// Which slices a load must materialize (§III-E: the split layout exists so
/// readers can touch a *subset* of slices).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SliceProjection {
    /// Materialize every referenced slice — the classic full load.
    Full,
    /// Materialize only slices overlapping the query's time range, resolved
    /// against `now` and (for [`TimeRange::Relative`]) the last-action
    /// anchor derived from the slice meta itself — the meta records every
    /// slice's exact `[start, end)`, so the anchor a full profile would
    /// report is recoverable without loading any slice data. The newest
    /// referenced slice is always included so a partial profile answers
    /// `last_action_hint()` identically to a fully loaded one.
    Window { range: TimeRange, now: Timestamp },
}

impl SliceProjection {
    /// Split `refs` into (selected, skipped) under this projection.
    fn partition(&self, refs: &[SliceRefInfo]) -> (Vec<SliceRefInfo>, Vec<SliceRefInfo>) {
        match *self {
            SliceProjection::Full => (refs.to_vec(), Vec::new()),
            SliceProjection::Window { range, now } => {
                let newest = refs.iter().map(|r| r.end).max();
                // The anchor a full profile would report: head slice end - 1.
                let anchor = newest.map(|end| Timestamp::from_millis(end.as_millis() - 1));
                let window = range.resolve(now, anchor);
                let mut selected = Vec::new();
                let mut skipped = Vec::new();
                for r in refs {
                    let is_head = Some(r.end) == newest;
                    if is_head || window.overlaps(r.start, r.end) {
                        selected.push(*r);
                    } else {
                        skipped.push(*r);
                    }
                }
                (selected, skipped)
            }
        }
    }
}

/// A successfully projected load: the (possibly partial) profile plus the
/// meta refs that were *not* materialized and the storage cost incurred.
#[derive(Debug)]
pub struct LoadedSlices {
    pub profile: ProfileData,
    pub generation: Generation,
    /// Referenced slices the projection skipped; the cache upgrades the
    /// entry in place via [`ProfilePersister::fetch_slices`] when a later
    /// query needs them. Empty for full loads and bulk-mode profiles.
    pub missing: Vec<SliceRefInfo>,
    /// Storage round trips issued (meta read, multi-get, bulk read).
    pub round_trips: u32,
    /// Payload bytes read from the store.
    pub bytes_read: u64,
}

/// The outcome of a projected load.
#[derive(Debug)]
pub enum SliceLoadOutcome {
    Loaded(LoadedSlices),
    /// The store has no data for this profile.
    Missing,
}

/// Saves/loads profiles according to the configured [`PersistenceMode`].
pub struct ProfilePersister<S> {
    store: S,
    table: TableId,
    mode: PersistenceMode,
    /// Profiles this persister has seen with a stored meta; a bulk save of
    /// one collects the meta.
    split_stored: Mutex<HashSet<ProfileId>>,
    pub metrics: PersistMetrics,
}

/// Flush/load observability.
#[derive(Default, Debug)]
pub struct PersistMetrics {
    pub saves: ips_metrics::Counter,
    pub loads: ips_metrics::Counter,
    pub bytes_written: ips_metrics::Counter,
    pub bytes_read: ips_metrics::Counter,
    pub stale_retries: ips_metrics::Counter,
    pub torn_slices_skipped: ips_metrics::Counter,
}

impl<S: ProfileStore> ProfilePersister<S> {
    #[must_use]
    pub fn new(store: S, table: TableId, mode: PersistenceMode) -> Self {
        Self {
            store,
            table,
            mode,
            split_stored: Mutex::new(HashSet::new()),
            metrics: PersistMetrics::default(),
        }
    }

    #[must_use]
    pub fn mode(&self) -> PersistenceMode {
        self.mode
    }

    #[must_use]
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Persist `profile`. `held` is the meta generation returned by the last
    /// load/save of this profile (0 if never persisted). Returns the new
    /// generation to hold. Takes `&mut` so per-slice dirty flags can be
    /// cleared once the data is safely referenced by the stored meta.
    pub fn save(
        &self,
        pid: ProfileId,
        profile: &mut ProfileData,
        held: Generation,
    ) -> Result<Generation> {
        self.metrics.saves.inc();
        let bulk_bytes = encode_profile(profile);
        let use_split = match self.mode {
            PersistenceMode::Bulk => false,
            PersistenceMode::Split { threshold_bytes } => bulk_bytes.len() >= threshold_bytes,
        };
        let generation = if use_split {
            self.split_stored.lock().insert(pid);
            self.save_split(pid, profile, held)?
        } else {
            self.save_bulk(pid, Bytes::from(bulk_bytes), held)?
        };
        for slice in profile.slices_mut() {
            slice.mark_clean();
        }
        Ok(generation)
    }

    fn save_bulk(&self, pid: ProfileId, bulk_bytes: Bytes, held: Generation) -> Result<Generation> {
        self.metrics.bytes_written.add(bulk_bytes.len() as u64);
        // Bulk values don't race slice writes, but we still route through
        // xset so a lost-update between two flushers is detected.
        let generation = match self
            .store
            .xset(bulk_key(self.table, pid), bulk_bytes.clone(), held)
        {
            Ok(g) => g,
            Err(IpsError::StaleGeneration { current, .. }) => {
                // Someone flushed a newer version; ours is superseded but
                // re-flushing over it with the current generation is the
                // correct last-writer-wins resolution for cache flushes.
                // Encoding is canonical, so the bytes already made are the
                // ones a re-encode would produce.
                self.metrics.stale_retries.inc();
                self.store
                    .xset(bulk_key(self.table, pid), bulk_bytes, current)?
            }
            Err(e) => return Err(e),
        };
        if self.split_stored.lock().remove(&pid) {
            self.collect_meta(pid, generation)?;
        }
        Ok(generation)
    }

    fn save_split(
        &self,
        pid: ProfileId,
        profile: &ProfileData,
        held: Generation,
    ) -> Result<Generation> {
        // Read the current meta so existing slice values can be reused when
        // their time range is unchanged (the common case: only the head
        // slice and recently compacted ranges differ). The *held* generation
        // — not this read's — guards the meta swing below, per Fig 14.
        let (old_meta_bytes, meta_generation) = self.store.xget(&meta_key(self.table, pid))?;
        let old_meta = match &old_meta_bytes {
            Some(bytes) => SliceMeta::decode(bytes)?,
            None => SliceMeta::default(),
        };
        // A newer bulk value superseded the stored meta, and with it every
        // slice value the meta references.
        let bulk_generation = self.bulk_generation(pid)?;
        let meta_is_head = bulk_generation < Some(meta_generation); // `None` sorts first

        let mut next_seq = old_meta.next_seq;
        let mut new_refs = Vec::with_capacity(profile.slice_count());
        // Step 1 (Fig 14): write slice values for every slice.
        for slice in profile.slices() {
            // A clean slice (no mutation since the last flush) whose time
            // range matches a ref of the head meta still has its value in
            // the store, so it is reused without rewriting — the IO win that
            // motivated split mode ("adjusts the granularity of data
            // flushing ... from the entire profile to slice level").
            let reused = if meta_is_head && !slice.is_dirty() {
                old_meta
                    .refs
                    .iter()
                    .find(|r| r.start == slice.start() && r.end == slice.end())
                    .map(|r| r.seq)
            } else {
                None
            };
            let seq = match reused {
                Some(seq) => seq,
                None => {
                    let seq = next_seq;
                    next_seq += 1;
                    let bytes = super::schema::encode_slice(slice);
                    self.metrics.bytes_written.add(bytes.len() as u64);
                    self.store
                        .set(slice_key(self.table, pid, seq), Bytes::from(bytes))?;
                    seq
                }
            };
            new_refs.push(SliceRefInfo {
                seq,
                start: slice.start(),
                end: slice.end(),
            });
        }

        // Step 2: swing the meta with the held generation.
        let meta = SliceMeta {
            refs: new_refs,
            next_seq,
            last_compacted: profile.last_compacted,
        };
        let meta_bytes = Bytes::from(meta.encode());
        self.metrics.bytes_written.add(meta_bytes.len() as u64);
        let new_gen = match self
            .store
            .xset(meta_key(self.table, pid), meta_bytes.clone(), held)
        {
            Ok(g) => g,
            Err(IpsError::StaleGeneration { current, .. }) => {
                // Another flusher won; last-writer-wins with its generation.
                self.metrics.stale_retries.inc();
                self.store
                    .xset(meta_key(self.table, pid), meta_bytes, current)?
            }
            Err(e) => return Err(e),
        };

        // Step 3: garbage-collect slice values the new meta doesn't
        // reference, and the bulk value it supersedes. Safe only *after* the
        // meta swing. The bulk value goes only if it is still the one probed:
        // one another flusher saved meanwhile may be newer than this meta.
        for r in &old_meta.refs {
            if !meta.refs.iter().any(|n| n.seq == r.seq) {
                let _ = self.store.delete(&slice_key(self.table, pid, r.seq));
            }
        }
        if let Some(generation) = bulk_generation {
            let _ = self.store.xdelete(&bulk_key(self.table, pid), generation);
        }
        Ok(new_gen)
    }

    /// The generation of `pid`'s bulk value, if one is stored.
    fn bulk_generation(&self, pid: ProfileId) -> Result<Option<Generation>> {
        let (bulk, generation) = self.store.xget(&bulk_key(self.table, pid))?;
        Ok(bulk.map(|_| generation))
    }

    /// Load a profile in full, from whichever layout is the head.
    pub fn load(&self, pid: ProfileId) -> Result<LoadOutcome> {
        match self.load_slices(pid, &SliceProjection::Full)? {
            SliceLoadOutcome::Loaded(LoadedSlices {
                profile,
                generation,
                ..
            }) => Ok(LoadOutcome::Loaded {
                profile,
                generation,
            }),
            SliceLoadOutcome::Missing => Ok(LoadOutcome::Missing),
        }
    }

    /// Load a profile, materializing only the slices `projection` selects.
    /// Split profiles read the meta, then fetch the selected slice values in
    /// a single multi-get ([`ProfileStore::get_many`]) — one round trip no
    /// matter how many slices qualify, instead of N sequential gets. The
    /// multi-get also probes the bulk key, so a profile stored only split
    /// costs no extra round trip; a profile stored only bulk costs the meta
    /// probe and the bulk read. Bulk profiles are indivisible and always
    /// load fully.
    pub fn load_slices(
        &self,
        pid: ProfileId,
        projection: &SliceProjection,
    ) -> Result<SliceLoadOutcome> {
        self.metrics.loads.inc();
        let (meta_bytes, meta_generation) = self.store.xget(&meta_key(self.table, pid))?;
        let Some(meta_bytes) = meta_bytes else {
            let (bulk, generation) = self.store.xget(&bulk_key(self.table, pid))?;
            return self.bulk_outcome(bulk, generation, 2, 0);
        };
        self.split_stored.lock().insert(pid);
        let mut bytes_read = meta_bytes.len() as u64;
        self.metrics.bytes_read.add(meta_bytes.len() as u64);
        let meta = SliceMeta::decode(&meta_bytes)?;
        let (selected, missing) = projection.partition(&meta.refs);
        let mut values = self.get_slices(pid, &selected, true)?.into_iter();
        let mut round_trips = 2;
        if values.next().flatten().is_some() {
            // Both layouts are stored; the newer one is the head.
            let (bulk, generation) = self.store.xget(&bulk_key(self.table, pid))?;
            round_trips += 1;
            if generation > meta_generation {
                return self.bulk_outcome(bulk, generation, round_trips, bytes_read);
            }
        }
        let (mut slices, slice_bytes) = self.decode_slices(values)?;
        bytes_read += slice_bytes;
        slices.sort_by_key(|s| std::cmp::Reverse(s.start()));
        let mut profile = ProfileData::new();
        profile.last_compacted = meta.last_compacted;
        *profile.slices_mut() = slices;
        profile.check_invariants().map_err(IpsError::Codec)?;
        Ok(SliceLoadOutcome::Loaded(LoadedSlices {
            profile,
            generation: meta_generation,
            missing,
            round_trips,
            bytes_read,
        }))
    }

    fn bulk_outcome(
        &self,
        bulk: Option<Bytes>,
        generation: Generation,
        round_trips: u32,
        bytes_read: u64,
    ) -> Result<SliceLoadOutcome> {
        let Some(bytes) = bulk else {
            return Ok(SliceLoadOutcome::Missing);
        };
        self.metrics.bytes_read.add(bytes.len() as u64);
        Ok(SliceLoadOutcome::Loaded(LoadedSlices {
            profile: decode_profile(&bytes)?,
            generation,
            missing: Vec::new(),
            round_trips,
            bytes_read: bytes_read + bytes.len() as u64,
        }))
    }

    /// One multi-get of the given slice values, led by the bulk value when
    /// `with_bulk` is set.
    fn get_slices(
        &self,
        pid: ProfileId,
        refs: &[SliceRefInfo],
        with_bulk: bool,
    ) -> Result<Vec<Option<Bytes>>> {
        let bulk = with_bulk.then(|| bulk_key(self.table, pid));
        let slices = refs.iter().map(|r| slice_key(self.table, pid, r.seq));
        let keys: Vec<Bytes> = bulk.into_iter().chain(slices).collect();
        self.store.get_many(&keys)
    }

    /// Decode fetched slice values. Torn refs (deleted between meta read and
    /// fetch, or replica lag) are skipped, per the §III-G weak-consistency
    /// stance. Returns the slices and their payload bytes.
    fn decode_slices(
        &self,
        values: impl Iterator<Item = Option<Bytes>>,
    ) -> Result<(Vec<Slice>, u64)> {
        let mut slices = Vec::with_capacity(values.size_hint().0);
        let mut bytes_read = 0u64;
        for value in values {
            match value {
                Some(bytes) => {
                    bytes_read += bytes.len() as u64;
                    self.metrics.bytes_read.add(bytes.len() as u64);
                    slices.push(super::schema::decode_slice(&bytes)?);
                }
                None => {
                    self.metrics.torn_slices_skipped.inc();
                }
            }
        }
        Ok((slices, bytes_read))
    }

    /// Fetch and decode the given slice refs in one multi-get, skipping torn
    /// ones. Returns the decoded slices plus (round trips, payload bytes)
    /// for storage-cost accounting. The cache uses this to upgrade partial
    /// entries in place.
    pub fn fetch_slices(
        &self,
        pid: ProfileId,
        refs: &[SliceRefInfo],
    ) -> Result<(Vec<Slice>, u32, u64)> {
        if refs.is_empty() {
            return Ok((Vec::new(), 0, 0));
        }
        let values = self.get_slices(pid, refs, false)?;
        let (slices, bytes_read) = self.decode_slices(values.into_iter())?;
        Ok((slices, 1, bytes_read))
    }

    /// The store's current head generation for `pid` without materializing
    /// the profile: the newer of the meta's and the bulk value's. `None`
    /// when the profile was never persisted. Snapshot import uses this to
    /// reject a stale handoff entry without paying a full load.
    pub fn current_generation(&self, pid: ProfileId) -> Result<Option<Generation>> {
        let (meta, generation) = self.store.xget(&meta_key(self.table, pid))?;
        Ok(self.bulk_generation(pid)?.max(meta.map(|_| generation)))
    }

    /// Delete `pid`'s meta and the slice values it references, unless a
    /// split save newer than generation `head` swung it.
    fn collect_meta(&self, pid: ProfileId, head: Generation) -> Result<()> {
        let (Some(meta_bytes), generation) = self.store.xget(&meta_key(self.table, pid))? else {
            return Ok(());
        };
        if generation > head {
            return Ok(());
        }
        for r in &SliceMeta::decode(&meta_bytes)?.refs {
            let _ = self.store.delete(&slice_key(self.table, pid, r.seq));
        }
        let _ = self.store.xdelete(&meta_key(self.table, pid), generation);
        Ok(())
    }

    /// Delete all persisted state for a profile (both modes).
    pub fn purge(&self, pid: ProfileId) -> Result<()> {
        self.split_stored.lock().remove(&pid);
        self.collect_meta(pid, Generation::MAX)?;
        let _ = self.store.delete(&bulk_key(self.table, pid));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_kv::{KvNode, KvNodeConfig};
    use ips_types::{ActionTypeId, AggregateFunction, CountVector, DurationMs, FeatureId, SlotId};
    use std::sync::Arc;

    const TABLE: TableId = TableId(1);
    const PID: ProfileId = ProfileId(42);

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_millis(t)
    }

    fn sample_profile(slices: u64) -> ProfileData {
        let mut p = ProfileData::new();
        for s in 0..slices {
            for f in 0..10u64 {
                p.add(
                    ts(1_000 + s * 10_000),
                    SlotId::new(1),
                    ActionTypeId::new(1),
                    FeatureId::new(f),
                    &CountVector::pair(1, 2),
                    AggregateFunction::Sum,
                    DurationMs::from_secs(1),
                );
            }
        }
        p
    }

    fn node() -> Arc<KvNode> {
        Arc::new(KvNode::new("kv", KvNodeConfig::default()).unwrap())
    }

    fn assert_loaded(p: &ProfilePersister<Arc<KvNode>>, expect_slices: usize) -> Generation {
        match p.load(PID).unwrap() {
            LoadOutcome::Loaded {
                profile,
                generation,
            } => {
                assert_eq!(profile.slice_count(), expect_slices);
                profile.check_invariants().unwrap();
                generation
            }
            LoadOutcome::Missing => panic!("expected profile"),
        }
    }

    #[test]
    fn bulk_save_load_round_trip() {
        let p = ProfilePersister::new(node(), TABLE, PersistenceMode::Bulk);
        let mut profile = sample_profile(5);
        let g = p.save(PID, &mut profile, 0).unwrap();
        assert!(g > 0);
        assert_loaded(&p, 5);
    }

    #[test]
    fn missing_profile_reports_missing() {
        let p = ProfilePersister::new(node(), TABLE, PersistenceMode::Bulk);
        assert!(matches!(p.load(PID).unwrap(), LoadOutcome::Missing));
    }

    #[test]
    fn split_save_load_round_trip() {
        let p = ProfilePersister::new(node(), TABLE, PersistenceMode::Split { threshold_bytes: 0 });
        let mut profile = sample_profile(7);
        let g1 = p.save(PID, &mut profile, 0).unwrap();
        let g2 = assert_loaded(&p, 7);
        assert_eq!(g1, g2);
    }

    #[test]
    fn split_mode_below_threshold_uses_bulk() {
        let p = ProfilePersister::new(
            node(),
            TABLE,
            PersistenceMode::Split {
                threshold_bytes: 1 << 20,
            },
        );
        let mut profile = sample_profile(2);
        p.save(PID, &mut profile, 0).unwrap();
        // Bulk key exists, no meta key.
        assert!(p.store().get(&bulk_key(TABLE, PID)).unwrap().is_some());
        assert!(p.store().get(&meta_key(TABLE, PID)).unwrap().is_none());
        let ops_before = p.store().stats().ops;
        let g = assert_loaded(&p, 2);
        assert_eq!(
            p.store().stats().ops,
            ops_before + 2,
            "a bulk-only profile costs the meta probe and the bulk read"
        );
        p.save(PID, &mut profile, g).unwrap();
        assert_eq!(
            p.store().stats().ops,
            ops_before + 3,
            "and its save is one conditional write"
        );
    }

    fn add_feature(profile: &mut ProfileData, at: u64, fid: u64) {
        profile.add(
            ts(at),
            SlotId::new(1),
            ActionTypeId::new(1),
            FeatureId::new(fid),
            &CountVector::single(1),
            AggregateFunction::Sum,
            DurationMs::from_secs(1),
        );
    }

    #[test]
    fn split_profile_that_shrinks_loads_its_newer_bulk_value() {
        let mode = PersistenceMode::Split {
            threshold_bytes: encode_profile(&sample_profile(6)).len(),
        };
        let store = node();
        let p = ProfilePersister::new(Arc::clone(&store), TABLE, mode);
        let g1 = p.save(PID, &mut sample_profile(6), 0).unwrap();
        // Shrunk below the threshold and saved bulk by a persister that
        // never saw the split layout (a handoff target, say): the older
        // meta stays stored beside the bulk value.
        let target = ProfilePersister::new(store, TABLE, mode);
        let g2 = target.save(PID, &mut sample_profile(1), g1).unwrap();
        assert!(p.store().get(&meta_key(TABLE, PID)).unwrap().is_some());
        assert_eq!(assert_loaded(&p, 1), g2, "the newer bulk value is the head");
        assert_eq!(p.current_generation(PID).unwrap(), Some(g2));
    }

    #[test]
    fn bulk_save_collects_the_meta_it_supersedes() {
        let mode = PersistenceMode::Split {
            threshold_bytes: encode_profile(&sample_profile(6)).len(),
        };
        let store = node();
        let stored_kinds = || -> Vec<u8> {
            let mut kinds: Vec<u8> = store.store().scan_all().iter().map(|(k, _)| k[0]).collect();
            kinds.dedup();
            kinds
        };
        // A persister that saved the profile split collects its meta.
        let p = ProfilePersister::new(Arc::clone(&store), TABLE, mode);
        let g1 = p.save(PID, &mut sample_profile(6), 0).unwrap();
        let g2 = p.save(PID, &mut sample_profile(1), g1).unwrap();
        assert_eq!(stored_kinds(), vec![b'b'], "no meta or slice value left");
        // So does one that loaded it split.
        let g3 = p.save(PID, &mut sample_profile(6), g2).unwrap();
        let q = ProfilePersister::new(Arc::clone(&store), TABLE, mode);
        assert_eq!(assert_loaded(&q, 6), g3);
        q.save(PID, &mut sample_profile(1), g3).unwrap();
        assert_eq!(stored_kinds(), vec![b'b']);
        assert_loaded(&q, 1);
    }

    #[test]
    fn split_save_after_a_bulk_save_reuses_no_superseded_slice() {
        let mode = PersistenceMode::Split {
            threshold_bytes: encode_profile(&sample_profile(6)).len(),
        };
        let store = node();
        let p = ProfilePersister::new(Arc::clone(&store), TABLE, mode);
        let g1 = p.save(PID, &mut sample_profile(6), 0).unwrap();
        // Shrunk to one slice over the oldest range, with other features:
        // saved bulk, which leaves the slice clean, by a persister that
        // never saw the split layout, so the meta stays.
        let mut profile = ProfileData::new();
        add_feature(&mut profile, 1_000, 100);
        let g2 = ProfilePersister::new(store, TABLE, mode)
            .save(PID, &mut profile, g1)
            .unwrap();
        // Grown past the threshold again: saved split. The oldest slice's
        // range matches a ref of the superseded meta, whose value still
        // holds fids 0-9.
        for s in 1..8 {
            for f in 0..10 {
                add_feature(&mut profile, 1_000 + s * 10_000, f);
            }
        }
        let g3 = p.save(PID, &mut profile, g2).unwrap();
        match p.load(PID).unwrap() {
            LoadOutcome::Loaded {
                profile: loaded,
                generation,
            } => {
                assert_eq!(generation, g3);
                assert_eq!(encode_profile(&loaded), encode_profile(&profile));
            }
            LoadOutcome::Missing => panic!("expected profile"),
        }
        assert!(p.store().get(&meta_key(TABLE, PID)).unwrap().is_some());
        assert!(
            p.store().get(&bulk_key(TABLE, PID)).unwrap().is_none(),
            "the superseded bulk value is collected"
        );
    }

    /// Runs `hook` once, right after the first meta swing it passes on.
    struct MetaSwingHook {
        inner: Arc<KvNode>,
        hook: parking_lot::Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl ProfileStore for MetaSwingHook {
        fn set(&self, key: Bytes, value: Bytes) -> Result<Generation> {
            self.inner.set(key, value)
        }
        fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
            self.inner.get(key)
        }
        fn xget(&self, key: &[u8]) -> Result<(Option<Bytes>, Generation)> {
            self.inner.xget(key)
        }
        fn xset(&self, key: Bytes, value: Bytes, held: Generation) -> Result<Generation> {
            let is_meta = key[0] == b'm';
            let generation = self.inner.xset(key, value, held)?;
            if is_meta {
                if let Some(hook) = self.hook.lock().take() {
                    hook();
                }
            }
            Ok(generation)
        }
        fn xdelete(&self, key: &[u8], held: Generation) -> Result<bool> {
            self.inner.xdelete(key, held)
        }
    }

    #[test]
    fn split_save_keeps_a_bulk_value_another_flusher_saved() {
        let mode = PersistenceMode::Split {
            threshold_bytes: encode_profile(&sample_profile(6)).len(),
        };
        let inner = node();
        let rival = ProfilePersister::new(Arc::clone(&inner), TABLE, mode);
        let g1 = rival.save(PID, &mut sample_profile(1), 0).unwrap();
        // Another flusher saves the profile bulk between the split save's
        // meta swing and its collection of the bulk value it probed.
        let hook = move || {
            let head = rival.current_generation(PID).unwrap().unwrap();
            rival.save(PID, &mut sample_profile(2), head).unwrap();
        };
        let store = MetaSwingHook {
            inner: Arc::clone(&inner),
            hook: parking_lot::Mutex::new(Some(Box::new(hook))),
        };
        ProfilePersister::new(store, TABLE, mode)
            .save(PID, &mut sample_profile(6), g1)
            .unwrap();
        assert_loaded(&ProfilePersister::new(inner, TABLE, mode), 2);
    }

    #[test]
    fn repeated_saves_grow_generation_and_gc_old_slices() {
        let store = node();
        let p = ProfilePersister::new(
            Arc::clone(&store),
            TABLE,
            PersistenceMode::Split { threshold_bytes: 0 },
        );
        let mut profile = sample_profile(3);
        let g1 = p.save(PID, &mut profile, 0).unwrap();
        let keys_after_first = store.store().len();

        // Add a slice and save again.
        profile.add(
            ts(500_000),
            SlotId::new(1),
            ActionTypeId::new(1),
            FeatureId::new(99),
            &CountVector::single(1),
            AggregateFunction::Sum,
            DurationMs::from_secs(1),
        );
        let g2 = p.save(PID, &mut profile, g1).unwrap();
        assert!(g2 > g1);
        assert_loaded(&p, 4);
        // Old slice values were GC'd: meta + 4 slices = 5 keys.
        assert_eq!(store.store().len(), keys_after_first + 1);
    }

    #[test]
    fn concurrent_flushers_converge_via_stale_retry() {
        let store = node();
        let p = ProfilePersister::new(
            Arc::clone(&store),
            TABLE,
            PersistenceMode::Split { threshold_bytes: 0 },
        );
        let mut profile = sample_profile(3);
        let g1 = p.save(PID, &mut profile, 0).unwrap();
        // A second flusher holding a stale generation (0).
        let g2 = p.save(PID, &mut profile, 0).unwrap();
        assert!(g2 > g1);
        assert!(p.metrics.stale_retries.get() >= 1);
        assert_loaded(&p, 3);
    }

    #[test]
    fn torn_slice_is_skipped_on_load() {
        let store = node();
        let p = ProfilePersister::new(
            Arc::clone(&store),
            TABLE,
            PersistenceMode::Split { threshold_bytes: 0 },
        );
        let mut profile = sample_profile(4);
        p.save(PID, &mut profile, 0).unwrap();
        // Simulate a torn state: delete one referenced slice value.
        let meta = SliceMeta::decode(&store.get(&meta_key(TABLE, PID)).unwrap().unwrap()).unwrap();
        let victim = meta.refs[1].seq;
        store.delete(&slice_key(TABLE, PID, victim)).unwrap();

        match p.load(PID).unwrap() {
            LoadOutcome::Loaded { profile, .. } => {
                assert_eq!(profile.slice_count(), 3, "torn slice skipped");
                profile.check_invariants().unwrap();
            }
            LoadOutcome::Missing => panic!("should load partially"),
        }
        assert_eq!(p.metrics.torn_slices_skipped.get(), 1);
    }

    #[test]
    fn projected_load_fetches_only_window_slices_plus_head() {
        let store = node();
        let p = ProfilePersister::new(
            Arc::clone(&store),
            TABLE,
            PersistenceMode::Split { threshold_bytes: 0 },
        );
        // Slices at [1000,2000), [11000,12000), ..., [41000,42000).
        p.save(PID, &mut sample_profile(5), 0).unwrap();
        let ops_before = store.stats().ops;
        let projection = SliceProjection::Window {
            range: ips_types::TimeRange::Absolute {
                start: ts(11_000),
                end: ts(12_000),
            },
            now: ts(50_000),
        };
        match p.load_slices(PID, &projection).unwrap() {
            SliceLoadOutcome::Loaded(loaded) => {
                // The window slice plus the forced head slice.
                assert_eq!(loaded.profile.slice_count(), 2);
                assert_eq!(loaded.missing.len(), 3);
                assert_eq!(loaded.round_trips, 2, "meta xget + one multi-get");
                assert!(loaded.bytes_read > 0);
                assert_eq!(
                    loaded.profile.last_action_hint(),
                    Some(ts(41_999)),
                    "head slice always loaded so the hint matches a full load"
                );
                loaded.profile.check_invariants().unwrap();
                // Meta xget + one multi-get = 2 KV ops regardless of count.
                assert_eq!(store.stats().ops, ops_before + 2);
                // Upgrading with the missing refs reconstructs the full set.
                let (rest, rt, _) = p.fetch_slices(PID, &loaded.missing).unwrap();
                assert_eq!(rest.len(), 3);
                assert_eq!(rt, 1);
            }
            SliceLoadOutcome::Missing => panic!("expected profile"),
        }
    }

    #[test]
    fn projected_relative_range_anchors_on_meta_head() {
        let p = ProfilePersister::new(node(), TABLE, PersistenceMode::Split { threshold_bytes: 0 });
        p.save(PID, &mut sample_profile(4), 0).unwrap();
        // Relative lookback of 1ms anchors on the newest action (41_999 for
        // the head slice [31000,32000)... here 4 slices -> head [31000,32000),
        // anchor 31_999): only the head slice overlaps.
        let projection = SliceProjection::Window {
            range: ips_types::TimeRange::Relative {
                lookback: DurationMs::from_millis(1),
            },
            now: ts(999_999),
        };
        match p.load_slices(PID, &projection).unwrap() {
            SliceLoadOutcome::Loaded(loaded) => {
                assert_eq!(loaded.profile.slice_count(), 1);
                assert_eq!(loaded.missing.len(), 3);
                assert_eq!(loaded.profile.last_action_hint(), Some(ts(31_999)));
            }
            SliceLoadOutcome::Missing => panic!("expected profile"),
        }
    }

    #[test]
    fn full_projection_reports_no_missing_and_uses_multi_get() {
        let store = node();
        let p = ProfilePersister::new(
            Arc::clone(&store),
            TABLE,
            PersistenceMode::Split { threshold_bytes: 0 },
        );
        p.save(PID, &mut sample_profile(6), 0).unwrap();
        let ops_before = store.stats().ops;
        match p.load_slices(PID, &SliceProjection::Full).unwrap() {
            SliceLoadOutcome::Loaded(loaded) => {
                assert_eq!(loaded.profile.slice_count(), 6);
                assert!(loaded.missing.is_empty());
                assert_eq!(loaded.round_trips, 2);
            }
            SliceLoadOutcome::Missing => panic!("expected profile"),
        }
        assert_eq!(
            store.stats().ops,
            ops_before + 2,
            "full load is meta + one multi-get, not N gets"
        );
    }

    #[test]
    fn bulk_profile_ignores_projection() {
        let p = ProfilePersister::new(node(), TABLE, PersistenceMode::Bulk);
        p.save(PID, &mut sample_profile(3), 0).unwrap();
        let projection = SliceProjection::Window {
            range: ips_types::TimeRange::Absolute {
                start: ts(0),
                end: ts(1),
            },
            now: ts(50_000),
        };
        match p.load_slices(PID, &projection).unwrap() {
            SliceLoadOutcome::Loaded(loaded) => {
                assert_eq!(loaded.profile.slice_count(), 3, "bulk is indivisible");
                assert!(loaded.missing.is_empty());
            }
            SliceLoadOutcome::Missing => panic!("expected profile"),
        }
    }

    #[test]
    fn purge_removes_everything() {
        let store = node();
        let p = ProfilePersister::new(
            Arc::clone(&store),
            TABLE,
            PersistenceMode::Split { threshold_bytes: 0 },
        );
        p.save(PID, &mut sample_profile(3), 0).unwrap();
        assert!(!store.store().is_empty());
        p.purge(PID).unwrap();
        assert_eq!(store.store().len(), 0);
        assert!(matches!(p.load(PID).unwrap(), LoadOutcome::Missing));
    }

    #[test]
    fn bulk_stale_retry_resolves_last_writer_wins() {
        let p = ProfilePersister::new(node(), TABLE, PersistenceMode::Bulk);
        let mut profile = sample_profile(2);
        let g1 = p.save(PID, &mut profile, 0).unwrap();
        let _g2 = p.save(PID, &mut profile, g1).unwrap();
        // Stale writer (still holding g1) must succeed via retry.
        let g3 = p.save(PID, &mut profile, g1).unwrap();
        assert!(g3 > g1);
        assert!(p.metrics.stale_retries.get() >= 1);
    }

    #[test]
    fn empty_profile_round_trips() {
        let p = ProfilePersister::new(node(), TABLE, PersistenceMode::Split { threshold_bytes: 0 });
        let mut profile = ProfileData::new();
        p.save(PID, &mut profile, 0).unwrap();
        assert_loaded(&p, 0);
    }
}
