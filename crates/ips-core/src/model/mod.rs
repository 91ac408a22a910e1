//! The in-memory data model (§II-A / §III-B, Fig 6): a time-serial list of
//! slices, each a three-level hierarchy keyed by id.
//!
//! Hierarchy, outermost to innermost:
//!
//! * profile table (lives in [`crate::cache::GCache`]) — profile id →
//!   [`ProfileData`];
//! * [`ProfileData`] — newest-first list of [`Slice`]s with non-overlapping
//!   time ranges;
//! * [`Slice`] — slot id → [`InstanceSet`];
//! * [`InstanceSet`] — action-type id → [`IndexedFeatureStat`];
//! * [`IndexedFeatureStat`] — feature id → counts, as parallel `fids` /
//!   `counts` columns; `fids` is the paper's sorted `fid_index`.
//!
//! Every level is a `Vec` sorted by id, so each profile has exactly one
//! representation: equal content iterates — and encodes — identically.

pub mod feature_stat;
pub mod instance_set;
pub mod profile;
pub mod slice;

pub use feature_stat::{CountRow, IndexedFeatureStat};
pub use instance_set::InstanceSet;
pub use profile::ProfileData;
pub use slice::Slice;

/// The value stored under `id` in an id-sorted column.
fn get<'a, K: Ord, V>(entries: &'a [(K, V)], id: &K) -> Option<&'a V> {
    let i = entries.binary_search_by(|(k, _)| k.cmp(id)).ok()?;
    Some(&entries[i].1)
}

fn get_mut<'a, K: Ord, V>(entries: &'a mut [(K, V)], id: &K) -> Option<&'a mut V> {
    let i = entries.binary_search_by(|(k, _)| k.cmp(id)).ok()?;
    Some(&mut entries[i].1)
}

/// The value stored under `id`, inserted empty at its sorted position when
/// absent. Slots and action types are few per slice, so their columns grow
/// one entry at a time rather than doubling.
fn entry<K: Ord + Copy, V: Default>(entries: &mut Vec<(K, V)>, id: K) -> &mut V {
    let i = match entries.binary_search_by(|(k, _)| k.cmp(&id)) {
        Ok(i) => i,
        Err(i) => {
            entries.reserve_exact(1);
            entries.insert(i, (id, V::default()));
            i
        }
    };
    &mut entries[i].1
}

/// Sort a column appended out of id order (a frame encoded before encoding
/// was canonical), folding duplicate ids together. One ordered pass when
/// it already is in order.
fn restore_order<K: Ord + Copy, V>(entries: &mut Vec<(K, V)>, mut fold: impl FnMut(&mut V, V)) {
    if entries.windows(2).all(|w| w[0].0 < w[1].0) {
        return;
    }
    entries.sort_by_key(|e| e.0);
    let mut sorted: Vec<(K, V)> = Vec::with_capacity(entries.len());
    for (k, v) in entries.drain(..) {
        match sorted.last_mut() {
            Some((last, acc)) if *last == k => fold(acc, v),
            _ => sorted.push((k, v)),
        }
    }
    *entries = sorted;
}
