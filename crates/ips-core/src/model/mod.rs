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
//! * [`IndexedFeatureStat`] — feature id → counts; its `fids` are the
//!   paper's sorted `fid_index`.
//!
//! A slice stores its three inner levels flat, in three columns: one entry
//! per `(slot, action)` stat, one feature id per row, and the rows' counts
//! back to back. [`InstanceSet`] and [`IndexedFeatureStat`] are borrowed,
//! `Copy` views of a stretch of those columns. Everything is kept in
//! `(slot, action, fid)` order, so each profile has exactly one
//! representation: equal content iterates — and encodes — identically.

pub mod feature_stat;
pub mod instance_set;
pub mod profile;
pub mod slice;

pub use feature_stat::{CountRow, IndexedFeatureStat};
pub use instance_set::InstanceSet;
pub use profile::ProfileData;
pub use slice::Slice;
