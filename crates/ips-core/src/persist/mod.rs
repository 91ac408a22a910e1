//! Profile persistence (§III-E, Figs 12–14).
//!
//! The cache layer is memory-only; durability comes from serializing
//! profiles into the key-value substrate. Each stored profile has one head
//! key, written with the store's generation protocol (Fig 14):
//!
//! * the whole profile as one framed, compressed value (Fig 12), which is
//!   the head of every profile in [`ips_types::PersistenceMode::Bulk`] and
//!   of small ones in `Split`;
//! * in `Split` mode, once a profile reaches the threshold, the head keeps
//!   its newest slice inline and refers to every other slice, each stored
//!   as a value of its own (Fig 13). Flushes write only the slices that
//!   changed; slice values are written before the head that references
//!   them, and a head write holding a stale generation plans again.

pub mod backend;
pub mod persister;
pub mod schema;

pub use backend::ProfileStore;
pub use persister::{
    Held, LoadOutcome, LoadedSlices, ProfilePersister, SliceLoadOutcome, SliceProjection,
    SliceRefInfo,
};
pub use schema::{decode_profile, encode_profile};

/// Every persisted wire message, for the `wire_schema.lock` check.
pub const WIRE_MESSAGES: &[ips_codec::MessageDescriptor] = &[
    schema::ProfileWire::DESCRIPTOR,
    schema::SliceRefWire::DESCRIPTOR,
    schema::SliceWire::DESCRIPTOR,
];
