//! The persister: saves and loads profiles through a [`ProfileStore`].
//!
//! Implements the persistence modes of §III-E under the version protocol of
//! Fig 14. A stored profile has one head, under `b/<table>/<profile>`: the
//! bulk value of Fig 12 (the last compaction time and the slices), plus a
//! ref `(seq, start, span)` to each slice stored as its own value under
//! `s/<table>/<profile>/<seq>` (Fig 13). A profile whose framed encoding is
//! under the split threshold keeps every slice inline, so its head is the
//! bulk value byte for byte and a load is one `xget`. At or past the
//! threshold the head keeps the newest slice, the one writes land in,
//! inline and refers to every other slice.
//!
//! A save writes the new slice values first, then swings the head with
//! `xset` under the held generation, then deletes the values the replaced
//! head referenced and the new one does not: a crash at any point leaves a
//! loadable head. Slice values are written create-only (`xset` at
//! generation 0), so no two flushers ever write one key and no write
//! replaces a value some head references; a seq that is taken moves the
//! write on to the next. A stale head makes the save read the head and plan
//! again. The refs of the head a save or load returns ride in [`Held`], so
//! the next save knows which stored values its clean slices already have.

use bytes::Bytes;

use ips_kv::Generation;
use ips_types::{IpsError, PersistenceMode, ProfileId, Result, TableId, TimeRange, Timestamp};

use crate::model::{ProfileData, Slice};

use super::backend::ProfileStore;
use super::schema::{decode_head, decode_slice, encode_head, encode_profile, encode_slice};

/// A key of profile `pid`: its kind (`b` head, `s` slice value),
/// the table and the profile, big-endian, then a slice value's seq.
fn key(kind: u8, table: TableId, pid: ProfileId, seq: Option<u64>) -> Bytes {
    let mut k = Vec::with_capacity(24);
    k.push(kind);
    k.extend_from_slice(&table.raw().to_be_bytes());
    k.extend_from_slice(&pid.raw().to_be_bytes());
    k.extend(seq.iter().flat_map(|seq| seq.to_be_bytes()));
    Bytes::from(k)
}

/// One ref of a head: the seq of a stored slice value plus the exact time
/// range the slice covers. Public so the cache layer can track which
/// referenced slices a partial profile has not materialized yet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceRefInfo {
    pub seq: u64,
    pub start: Timestamp,
    pub end: Timestamp,
}

/// The stored head a load or save returns, held for the next save (Fig 14).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Held {
    /// The head's generation; 0 when none is stored.
    pub generation: Generation,
    /// The slice values the head refers to, or `None` when unknown (a bare
    /// generation, as a handoff import carries): a save then reads the head
    /// first, unless the generation is 0.
    pub refs: Option<Vec<SliceRefInfo>>,
}

impl From<Generation> for Held {
    fn from(generation: Generation) -> Self {
        Self {
            generation,
            refs: None,
        }
    }
}

/// The outcome of a load.
#[derive(Debug)]
pub enum LoadOutcome {
    /// The profile was found, with the head to hold for the next save.
    Loaded { profile: ProfileData, held: Held },
    /// The store has no data for this profile.
    Missing,
}

/// Which slices a load must materialize (§III-E: slices stored alone exist
/// so readers can touch a *subset* of them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SliceProjection {
    /// Materialize every referenced slice — the classic full load.
    Full,
    /// Materialize only slices overlapping the query's time range, resolved
    /// against `now` and (for [`TimeRange::Relative`]) the last-action
    /// anchor derived from the head itself — the head records every slice's
    /// exact `[start, end)`, so the anchor a full profile would report is
    /// recoverable without fetching any slice value. The newest slice is
    /// always included so a partial profile answers `last_action_hint()`
    /// identically to a fully loaded one.
    Window { range: TimeRange, now: Timestamp },
}

impl SliceProjection {
    /// Split a head's `refs` into (selected, skipped) under this
    /// projection; `inline_end` is the end of the head's newest inline
    /// slice.
    fn partition(
        &self,
        refs: &[SliceRefInfo],
        inline_end: Option<Timestamp>,
    ) -> (Vec<SliceRefInfo>, Vec<SliceRefInfo>) {
        match *self {
            SliceProjection::Full => (refs.to_vec(), Vec::new()),
            SliceProjection::Window { range, now } => {
                let newest = refs.iter().map(|r| r.end).chain(inline_end).max();
                // The anchor a full profile would report: head slice end - 1.
                let anchor = newest.map(|end| Timestamp::from_millis(end.as_millis() - 1));
                let window = range.resolve(now, anchor);
                refs.iter()
                    .copied()
                    .partition(|r| Some(r.end) == newest || window.overlaps(r.start, r.end))
            }
        }
    }
}

/// A successfully projected load: the (possibly partial) profile plus the
/// refs that were *not* materialized and the storage cost incurred.
#[derive(Debug)]
pub struct LoadedSlices {
    pub profile: ProfileData,
    pub held: Held,
    /// Referenced slices the projection skipped; the cache upgrades the
    /// entry in place via [`ProfilePersister::fetch_slices`] when a later
    /// query needs them. Empty for full loads and heads without refs.
    pub missing: Vec<SliceRefInfo>,
    /// Storage round trips issued (head read, multi-get).
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
            metrics: PersistMetrics::default(),
        }
    }

    #[must_use]
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Persist `profile` over the head `held`, the one the last load or save
    /// of this profile returned (a bare generation converts; 0 if never
    /// persisted). Returns the head to hold next. Takes `&mut` so per-slice
    /// dirty flags can be cleared once the head references the data.
    ///
    /// Over a store that does not persist (§III-G: only one region does)
    /// a save only marks the slices clean and returns `held`: the region's
    /// copy converges through replication, so nothing is encoded or
    /// written.
    pub fn save(
        &self,
        pid: ProfileId,
        profile: &mut ProfileData,
        held: impl Into<Held>,
    ) -> Result<Held> {
        if !self.store.is_persisting() {
            for slice in profile.slices_mut() {
                slice.mark_clean();
            }
            return Ok(held.into());
        }
        self.metrics.saves.inc();
        let full = encode_profile(profile);
        let split = match self.mode {
            PersistenceMode::Bulk => false,
            PersistenceMode::Split { threshold_bytes } => full.len() >= threshold_bytes,
        };
        let full = Bytes::from(full);
        // The head the swing replaces: its generation and refs.
        let held = held.into();
        let mut replaced = match &held.refs {
            Some(refs) => (held.generation, refs.clone()),
            None if held.generation == 0 => (0, Vec::new()),
            None => self.read_head(pid)?,
        };
        // The values that hold this profile's clean slices: the held head's.
        let known = match held.refs {
            Some(refs) => refs,
            None if replaced.0 == held.generation => replaced.1.clone(),
            None => Vec::new(),
        };
        let mut written = Vec::new();
        loop {
            let (head, refs) = if split {
                let refs = self.write_slices(pid, profile, &replaced.1, &known, &mut written)?;
                let inline = profile.slice_count().min(1);
                (Bytes::from(encode_head(profile, inline, &refs)), refs)
            } else {
                (full.clone(), Vec::new())
            };
            self.metrics.bytes_written.add(head.len() as u64);
            match self
                .store
                .xset(key(b'b', self.table, pid, None), head, replaced.0)
            {
                Ok(generation) => {
                    let stored = replaced.1.iter().chain(&written);
                    self.delete_values(pid, stored.filter(|r| !refs.contains(r)));
                    for slice in profile.slices_mut() {
                        slice.mark_clean();
                    }
                    return Ok(Held {
                        generation,
                        refs: Some(refs),
                    });
                }
                Err(IpsError::StaleGeneration { .. }) => {
                    // Another flusher swung the head: plan over its head.
                    self.metrics.stale_retries.inc();
                    replaced = self.read_head(pid)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Store every slice after the newest as a value of its own, and return
    /// the head's refs to them. A slice keeps a value this save already
    /// wrote or, when clean, the `known` value that holds it while the
    /// `replaced` head still refers to it. Any other slice is written
    /// create-only at the next seq no value takes, and added to `written`.
    fn write_slices(
        &self,
        pid: ProfileId,
        profile: &ProfileData,
        replaced: &[SliceRefInfo],
        known: &[SliceRefInfo],
        written: &mut Vec<SliceRefInfo>,
    ) -> Result<Vec<SliceRefInfo>> {
        let all = replaced.iter().chain(written.iter());
        let mut next_seq = all.map(|r| r.seq + 1).max().unwrap_or(1);
        let mut refs = Vec::with_capacity(profile.slice_count());
        for slice in profile.slices().iter().skip(1) {
            let covers = |r: &&SliceRefInfo| r.start == slice.start() && r.end == slice.end();
            let kept = written.iter().find(covers).or_else(|| {
                let clean = !slice.is_dirty();
                known
                    .iter()
                    .find(covers)
                    .filter(|r| clean && replaced.contains(r))
            });
            if let Some(r) = kept {
                refs.push(*r);
                continue;
            }
            let body = Bytes::from(encode_slice(slice));
            self.metrics.bytes_written.add(body.len() as u64);
            let seq = loop {
                let seq = next_seq;
                next_seq += 1;
                match self
                    .store
                    .xset(key(b's', self.table, pid, Some(seq)), body.clone(), 0)
                {
                    Ok(_) => break seq,
                    Err(IpsError::StaleGeneration { .. }) => {}
                    Err(e) => return Err(e),
                }
            };
            let r = SliceRefInfo {
                seq,
                start: slice.start(),
                end: slice.end(),
            };
            written.push(r);
            refs.push(r);
        }
        Ok(refs)
    }

    /// The stored head's generation and refs; `(0, [])` when none is stored.
    fn read_head(&self, pid: ProfileId) -> Result<(Generation, Vec<SliceRefInfo>)> {
        let (head, generation) = self.store.xget(&key(b'b', self.table, pid, None))?;
        let refs = match head {
            Some(head) => decode_head(&head)?.1,
            None => Vec::new(),
        };
        Ok((generation, refs))
    }

    /// Delete slice values, best effort: one left behind is unreferenced.
    fn delete_values<'a>(&self, pid: ProfileId, refs: impl Iterator<Item = &'a SliceRefInfo>) {
        for r in refs {
            let _ = self.store.delete(&key(b's', self.table, pid, Some(r.seq)));
        }
    }

    /// Load a profile in full.
    pub fn load(&self, pid: ProfileId) -> Result<LoadOutcome> {
        Ok(match self.load_slices(pid, &SliceProjection::Full)? {
            SliceLoadOutcome::Loaded(LoadedSlices { profile, held, .. }) => {
                LoadOutcome::Loaded { profile, held }
            }
            SliceLoadOutcome::Missing => LoadOutcome::Missing,
        })
    }

    /// Load a profile, materializing only the slices `projection` selects:
    /// one `xget` of the head, plus one multi-get
    /// ([`ProfileStore::get_many`]) of the selected refs when there are any
    /// — one round trip no matter how many qualify. Every loaded slice is
    /// clean: it equals the value it came from.
    pub fn load_slices(
        &self,
        pid: ProfileId,
        projection: &SliceProjection,
    ) -> Result<SliceLoadOutcome> {
        self.metrics.loads.inc();
        let mut round_trips = 1;
        let (Some(head), generation) = self.store.xget(&key(b'b', self.table, pid, None))? else {
            return Ok(SliceLoadOutcome::Missing);
        };
        self.metrics.bytes_read.add(head.len() as u64);
        let mut bytes_read = head.len() as u64;
        let (mut profile, refs) = decode_head(&head)?;
        let inline_end = profile.slices().first().map(Slice::end);
        let (selected, missing) = projection.partition(&refs, inline_end);
        if !selected.is_empty() {
            let (slices, trips, slice_bytes) = self.fetch_slices(pid, &selected)?;
            round_trips += trips;
            bytes_read += slice_bytes;
            profile.slices_mut().extend(slices);
            profile
                .slices_mut()
                .sort_by_key(|s| std::cmp::Reverse(s.start()));
            profile.check_invariants().map_err(IpsError::Codec)?;
        }
        for slice in profile.slices_mut() {
            slice.mark_clean();
        }
        Ok(SliceLoadOutcome::Loaded(LoadedSlices {
            profile,
            held: Held {
                generation,
                refs: Some(refs),
            },
            missing,
            round_trips,
            bytes_read,
        }))
    }

    /// Fetch and decode the given slice refs in one multi-get. Torn refs
    /// (deleted between head read and fetch, or replica lag) are skipped,
    /// per the §III-G weak-consistency stance. Returns the slices, each
    /// clean, plus (round trips, payload bytes) for storage-cost
    /// accounting. The cache uses this to upgrade partial entries in place.
    pub fn fetch_slices(
        &self,
        pid: ProfileId,
        refs: &[SliceRefInfo],
    ) -> Result<(Vec<Slice>, u32, u64)> {
        if refs.is_empty() {
            return Ok((Vec::new(), 0, 0));
        }
        let keys: Vec<Bytes> = refs
            .iter()
            .map(|r| key(b's', self.table, pid, Some(r.seq)))
            .collect();
        let mut slices = Vec::with_capacity(keys.len());
        let mut bytes_read = 0u64;
        for value in self.store.get_many(&keys)? {
            let Some(bytes) = value else {
                self.metrics.torn_slices_skipped.inc();
                continue;
            };
            bytes_read += bytes.len() as u64;
            self.metrics.bytes_read.add(bytes.len() as u64);
            let mut slice = decode_slice(&bytes)?;
            slice.mark_clean();
            slices.push(slice);
        }
        Ok((slices, 1, bytes_read))
    }

    /// The store's head generation for `pid` without materializing the
    /// profile: one `xget`. `None` when no head is stored. Snapshot import
    /// uses this to reject a stale handoff entry without paying a full load.
    pub fn current_generation(&self, pid: ProfileId) -> Result<Option<Generation>> {
        let (head, generation) = self.store.xget(&key(b'b', self.table, pid, None))?;
        Ok(head.map(|_| generation))
    }

    /// Delete all persisted state for a profile: the head and the slice
    /// values it refers to.
    pub fn purge(&self, pid: ProfileId) -> Result<()> {
        let (_, refs) = self.read_head(pid)?;
        self.delete_values(pid, refs.iter());
        let _ = self.store.delete(&key(b'b', self.table, pid, None));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::decode_profile;
    use ips_kv::{KvNode, KvNodeConfig};
    use ips_types::{ActionTypeId, AggregateFunction, CountVector, DurationMs, FeatureId, SlotId};
    use proptest::prelude::*;
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

    /// The split mode whose threshold a six-slice sample profile reaches.
    fn six_slice_threshold() -> PersistenceMode {
        PersistenceMode::Split {
            threshold_bytes: encode_profile(&sample_profile(6)).len(),
        }
    }

    fn assert_loaded<S: ProfileStore>(p: &ProfilePersister<S>, expect_slices: usize) -> Held {
        match p.load(PID).unwrap() {
            LoadOutcome::Loaded { profile, held } => {
                assert_eq!(profile.slice_count(), expect_slices);
                profile.check_invariants().unwrap();
                held
            }
            LoadOutcome::Missing => panic!("expected profile"),
        }
    }

    /// The refs of `PID`'s stored head.
    fn head_refs(store: &KvNode) -> Vec<SliceRefInfo> {
        let head = store.get(&key(b'b', TABLE, PID, None)).unwrap().unwrap();
        decode_head(&head).unwrap().1
    }

    /// Every stored key, sorted.
    fn census(store: &KvNode) -> Vec<Bytes> {
        let mut keys: Vec<Bytes> = store
            .store()
            .scan_all()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        keys.sort();
        keys
    }

    /// `PID`'s head key plus the keys of the values its refs name, sorted:
    /// what the census must hold with nothing orphaned.
    fn head_and_its_values(store: &KvNode) -> Vec<Bytes> {
        let refs = head_refs(store);
        let values = refs.iter().map(|r| key(b's', TABLE, PID, Some(r.seq)));
        let mut keys: Vec<Bytes> = std::iter::once(key(b'b', TABLE, PID, None))
            .chain(values)
            .collect();
        keys.sort();
        keys
    }

    #[test]
    fn bulk_save_load_round_trip() {
        let p = ProfilePersister::new(node(), TABLE, PersistenceMode::Bulk);
        let mut profile = sample_profile(5);
        let held = p.save(PID, &mut profile, 0).unwrap();
        assert!(held.generation > 0);
        assert_loaded(&p, 5);
    }

    #[test]
    fn missing_profile_reports_missing() {
        let p = ProfilePersister::new(node(), TABLE, PersistenceMode::Bulk);
        assert!(matches!(p.load(PID).unwrap(), LoadOutcome::Missing));
    }

    #[test]
    fn a_never_stored_profile_loads_in_one_kv_op() {
        let store = node();
        let p = ProfilePersister::new(Arc::clone(&store), TABLE, six_slice_threshold());
        let ops_before = store.stats().ops;
        assert!(matches!(p.load(PID).unwrap(), LoadOutcome::Missing));
        assert_eq!(
            store.stats().ops,
            ops_before + 1,
            "a head miss is the whole load"
        );
    }

    #[test]
    fn split_save_load_round_trip() {
        let p = ProfilePersister::new(node(), TABLE, PersistenceMode::Split { threshold_bytes: 0 });
        let mut profile = sample_profile(7);
        let saved = p.save(PID, &mut profile, 0).unwrap();
        assert_eq!(
            saved.refs.as_ref().map(Vec::len),
            Some(6),
            "all but the newest"
        );
        assert_eq!(assert_loaded(&p, 7), saved);
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
        // The head is the bulk value byte for byte, and nothing else is stored.
        let head = p
            .store()
            .get(&key(b'b', TABLE, PID, None))
            .unwrap()
            .unwrap();
        assert_eq!(head.as_ref(), encode_profile(&profile).as_slice());
        assert_eq!(census(p.store()), vec![key(b'b', TABLE, PID, None)]);
        let ops_before = p.store().stats().ops;
        let held = assert_loaded(&p, 2);
        assert_eq!(
            p.store().stats().ops,
            ops_before + 1,
            "a head without refs loads in one op"
        );
        p.save(PID, &mut profile, held).unwrap();
        assert_eq!(
            p.store().stats().ops,
            ops_before + 2,
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
        let mode = six_slice_threshold();
        let store = node();
        let p = ProfilePersister::new(Arc::clone(&store), TABLE, mode);
        let saved = p.save(PID, &mut sample_profile(6), 0).unwrap();
        assert!(head_refs(&store).len() > 1);
        // Shrunk below the threshold and saved by a persister that holds
        // only the generation (a handoff target, say): it reads the head it
        // replaces and collects every value that head referenced.
        let target = ProfilePersister::new(Arc::clone(&store), TABLE, mode);
        let shrunk = target
            .save(PID, &mut sample_profile(1), saved.generation)
            .unwrap();
        assert_eq!(census(&store), vec![key(b'b', TABLE, PID, None)]);
        assert_eq!(assert_loaded(&p, 1), shrunk, "the newer head loads");
        assert_eq!(p.current_generation(PID).unwrap(), Some(shrunk.generation));
    }

    #[test]
    fn inline_save_collects_the_slice_values_it_supersedes() {
        let mode = six_slice_threshold();
        let store = node();
        // A persister that saved the profile with refs collects their values.
        let p = ProfilePersister::new(Arc::clone(&store), TABLE, mode);
        let held = p.save(PID, &mut sample_profile(6), 0).unwrap();
        let held = p.save(PID, &mut sample_profile(1), held).unwrap();
        assert_eq!(
            census(&store),
            vec![key(b'b', TABLE, PID, None)],
            "no slice value left"
        );
        // So does one that loaded it.
        let grown = p.save(PID, &mut sample_profile(6), held).unwrap();
        let q = ProfilePersister::new(Arc::clone(&store), TABLE, mode);
        assert_eq!(assert_loaded(&q, 6), grown);
        q.save(PID, &mut sample_profile(1), grown).unwrap();
        assert_eq!(census(&store), vec![key(b'b', TABLE, PID, None)]);
        assert_loaded(&q, 1);
    }

    #[test]
    fn split_save_after_a_bulk_save_reuses_no_superseded_slice() {
        let mode = six_slice_threshold();
        let store = node();
        let p = ProfilePersister::new(Arc::clone(&store), TABLE, mode);
        let saved = p.save(PID, &mut sample_profile(6), 0).unwrap();
        // Shrunk to one slice over the oldest range, with other features:
        // saved inline, which leaves the slice clean, by a persister that
        // holds only the generation.
        let mut profile = ProfileData::new();
        add_feature(&mut profile, 1_000, 100);
        let shrunk = ProfilePersister::new(Arc::clone(&store), TABLE, mode)
            .save(PID, &mut profile, saved.generation)
            .unwrap();
        // Grown past the threshold again, by the first persister. The
        // oldest slice's range matches a ref of the superseded head, whose
        // value held fids 0-9.
        for s in 1..8 {
            for f in 0..10 {
                add_feature(&mut profile, 1_000 + s * 10_000, f);
            }
        }
        let grown = p.save(PID, &mut profile, shrunk).unwrap();
        match p.load(PID).unwrap() {
            LoadOutcome::Loaded {
                profile: loaded,
                held,
            } => {
                assert_eq!(held, grown);
                assert_eq!(encode_profile(&loaded), encode_profile(&profile));
            }
            LoadOutcome::Missing => panic!("expected profile"),
        }
        assert_eq!(census(&store), head_and_its_values(&store));
    }

    /// Runs `hook` once, right after the first write it passes on to a key
    /// of kind `kind` (`b'b'` for the head, `b's'` for a slice value).
    struct WriteHook {
        inner: Arc<KvNode>,
        kind: u8,
        hook: parking_lot::Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl WriteHook {
        fn new(inner: &Arc<KvNode>, kind: u8, hook: impl FnOnce() + Send + 'static) -> Self {
            Self {
                inner: Arc::clone(inner),
                kind,
                hook: parking_lot::Mutex::new(Some(Box::new(hook))),
            }
        }
    }

    impl ProfileStore for WriteHook {
        fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
            self.inner.get(key)
        }
        fn xget(&self, key: &[u8]) -> Result<(Option<Bytes>, Generation)> {
            self.inner.xget(key)
        }
        fn xset(&self, key: Bytes, value: Bytes, held: Generation) -> Result<Generation> {
            let hooked = key[0] == self.kind;
            let generation = self.inner.xset(key, value, held)?;
            if hooked {
                if let Some(hook) = self.hook.lock().take() {
                    hook();
                }
            }
            Ok(generation)
        }
        fn delete(&self, key: &[u8]) -> Result<bool> {
            self.inner.delete(key)
        }
    }

    #[test]
    fn split_save_keeps_a_bulk_value_another_flusher_saved() {
        let mode = six_slice_threshold();
        let inner = node();
        let rival = ProfilePersister::new(Arc::clone(&inner), TABLE, mode);
        let held = rival.save(PID, &mut sample_profile(1), 0).unwrap();
        // Another flusher saves the profile inline between the split save's
        // head swing and its collection of the values it replaced.
        let hook = move || {
            let head = rival.current_generation(PID).unwrap().unwrap();
            rival.save(PID, &mut sample_profile(2), head).unwrap();
        };
        let store = WriteHook::new(&inner, b'b', hook);
        ProfilePersister::new(store, TABLE, mode)
            .save(PID, &mut sample_profile(6), held)
            .unwrap();
        assert_loaded(&ProfilePersister::new(Arc::clone(&inner), TABLE, mode), 2);
        assert_eq!(census(&inner), vec![key(b'b', TABLE, PID, None)]);
    }

    #[test]
    fn flushers_of_one_head_never_write_one_slice_value() {
        let mode = PersistenceMode::Split { threshold_bytes: 0 };
        let inner = node();
        let mut base = sample_profile(4);
        let held = ProfilePersister::new(Arc::clone(&inner), TABLE, mode)
            .save(PID, &mut base, 0)
            .unwrap();
        // Each flusher holds the same head and adds its own head slice; A
        // also changes an older slice.
        let (mut a, mut b) = (base.clone(), base.clone());
        add_feature(&mut a, 50_000, 1);
        add_feature(&mut a, 11_000, 77);
        add_feature(&mut b, 60_000, 2);
        // B's whole save runs right after A's first slice-value write.
        let rival = ProfilePersister::new(Arc::clone(&inner), TABLE, mode);
        let rival_held = held.clone();
        let hook = move || {
            rival.save(PID, &mut b, rival_held).unwrap();
        };
        let store = WriteHook::new(&inner, b's', hook);
        ProfilePersister::new(store, TABLE, mode)
            .save(PID, &mut a, held)
            .unwrap();
        let p = ProfilePersister::new(Arc::clone(&inner), TABLE, mode);
        match p.load(PID).unwrap() {
            LoadOutcome::Loaded { profile, .. } => {
                assert_eq!(encode_profile(&profile), encode_profile(&a), "A's profile");
            }
            LoadOutcome::Missing => panic!("expected profile"),
        }
        assert_eq!(census(&inner), head_and_its_values(&inner));
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
        let g2 = p.save(PID, &mut profile, g1.clone()).unwrap();
        assert!(g2.generation > g1.generation);
        assert_loaded(&p, 4);
        // The old head slice got a value of its own: head + 3 slices.
        assert_eq!(store.store().len(), keys_after_first + 1);
        assert_eq!(census(&store), head_and_its_values(&store));
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
        assert!(g2.generation > g1.generation);
        assert!(p.metrics.stale_retries.get() >= 1);
        assert_loaded(&p, 3);
        assert_eq!(census(&store), head_and_its_values(&store));
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
        let victim = head_refs(&store)[1].seq;
        store.delete(&key(b's', TABLE, PID, Some(victim))).unwrap();

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
                // The window slice plus the inline head slice.
                assert_eq!(loaded.profile.slice_count(), 2);
                assert_eq!(loaded.missing.len(), 3);
                assert_eq!(loaded.round_trips, 2, "head xget + one multi-get");
                assert!(loaded.bytes_read > 0);
                assert_eq!(
                    loaded.profile.last_action_hint(),
                    Some(ts(41_999)),
                    "head slice always loaded so the hint matches a full load"
                );
                loaded.profile.check_invariants().unwrap();
                // Head xget + one multi-get = 2 KV ops regardless of count.
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
        // Relative lookback of 1ms anchors on the newest action: 4 slices ->
        // head [31000,32000), anchor 31_999, so only the head slice overlaps
        // and the load needs no multi-get.
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
                assert_eq!(loaded.round_trips, 1);
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
            "full load is the head + one multi-get, not N gets"
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
                assert_eq!(loaded.round_trips, 1);
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
        let _g2 = p.save(PID, &mut profile, g1.clone()).unwrap();
        // Stale writer (still holding g1) must succeed via retry.
        let g3 = p.save(PID, &mut profile, g1.clone()).unwrap();
        assert!(g3.generation > g1.generation);
        assert!(p.metrics.stale_retries.get() >= 1);
    }

    #[test]
    fn empty_profile_round_trips() {
        let p = ProfilePersister::new(node(), TABLE, PersistenceMode::Split { threshold_bytes: 0 });
        let mut profile = ProfileData::new();
        p.save(PID, &mut profile, 0).unwrap();
        assert_loaded(&p, 0);
    }

    /// Apply one generated step to `profile`. `a` picks a slice or a time
    /// bucket, `b` a feature; writes add ten rows so a few of them cross
    /// the threshold.
    fn apply(profile: &mut ProfileData, kind: u8, a: u64, b: u64) {
        let at = 1_000 + a * 10_000;
        match kind {
            0 | 1 => (0..10).for_each(|f| add_feature(profile, at, b * 10 + f)),
            // Shrink to the newest few slices.
            2 => profile.slices_mut().truncate(1 + a as usize % 3),
            // Compact: merge two adjacent slices into one.
            3 if profile.slice_count() >= 2 => {
                let slices = profile.slices_mut();
                let i = a as usize % (slices.len() - 1);
                let merged = Slice::merge(&[&slices[i], &slices[i + 1]], AggregateFunction::Sum);
                slices.splice(i..i + 2, [merged]);
            }
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// One writer at a time, any sequence of edits, saves, loads,
        /// handoffs and purges: a full load equals the last saved profile,
        /// and the store holds exactly its head and the values the head
        /// refers to.
        #[test]
        fn the_store_holds_the_head_and_only_its_values(
            steps in proptest::collection::vec((0u8..9, 0u64..10, 0u64..40), 1..40),
        ) {
            let store = node();
            let mode = PersistenceMode::Split {
                threshold_bytes: encode_profile(&sample_profile(4)).len(),
            };
            let mut p = ProfilePersister::new(Arc::clone(&store), TABLE, mode);
            let checker = ProfilePersister::new(Arc::clone(&store), TABLE, mode);
            let (mut profile, mut held, mut saved) = (ProfileData::new(), Held::default(), None);
            for (kind, a, b) in steps {
                match kind {
                    4 => {
                        held = p.save(PID, &mut profile, held).unwrap();
                        saved = Some(encode_profile(&profile));
                    }
                    5 => {
                        let window = SliceProjection::Window {
                            range: TimeRange::Absolute { start: ts(a * 10_000), end: ts((a + b) * 10_000) },
                            now: ts(200_000),
                        };
                        if let SliceLoadOutcome::Loaded(l) = p.load_slices(PID, &window).unwrap() {
                            let full = decode_profile(saved.as_ref().unwrap()).unwrap();
                            prop_assert_eq!(l.profile.slice_count() + l.missing.len(), full.slice_count());
                            prop_assert!(l.profile.slices().iter().all(|s| full.slices().contains(s)));
                        }
                    }
                    6 => {
                        if let LoadOutcome::Loaded { profile: loaded, held: h } = p.load(PID).unwrap() {
                            (profile, held) = (loaded, h);
                        }
                    }
                    7 => {
                        p.purge(PID).unwrap();
                        (held, saved) = (Held::default(), None);
                    }
                    // Handoff: another persister takes the profile over,
                    // holding only its generation.
                    8 => {
                        p = ProfilePersister::new(Arc::clone(&store), TABLE, mode);
                        held = held.generation.into();
                    }
                    _ => apply(&mut profile, kind, a, b),
                }
                match (&saved, checker.load(PID).unwrap()) {
                    (Some(saved), LoadOutcome::Loaded { profile: loaded, .. }) => {
                        prop_assert_eq!(&encode_profile(&loaded), saved);
                        prop_assert_eq!(census(&store), head_and_its_values(&store));
                    }
                    (None, LoadOutcome::Missing) => prop_assert!(census(&store).is_empty()),
                    (saved, loaded) => panic!("saved {:?}, loaded {loaded:?}", saved.is_some()),
                }
            }
        }
    }
}
