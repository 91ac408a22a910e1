//! Serialization substrate for `ips-rs`.
//!
//! The paper persists profiles by serializing the in-memory hierarchy into a
//! Protocol Buffers encoding and compressing the result with Snappy
//! (§III-E). Both are substituted with from-scratch equivalents that occupy
//! the same design points:
//!
//! * [`varint`] — LEB128 unsigned varints and zigzag signed mapping, the
//!   foundation of the wire format;
//! * [`wire`] — a tagged field encoding ([`wire::WireWriter`] /
//!   [`wire::WireReader`]) with varint, fixed-64 and length-delimited wire
//!   types, supporting unknown-field skipping for forward compatibility;
//! * [`message`] — [`wire_message!`], which declares a message once and
//!   generates its encoder, decoder and `wire_schema.lock` descriptor;
//! * [`compress`] — an LZ-class byte compressor (greedy hash-table match
//!   finding, literal/copy ops) tuned for speed over ratio, like Snappy;
//! * [`frame`] — the envelope stored in the KV layer: magic, flags,
//!   checksum, optional compression with automatic raw fallback for
//!   incompressible payloads;
//! * [`pool`] — thread-local pooled scratch (the buffer a message tree is
//!   written into, the compressor's hash table, frame intermediates) so
//!   steady-state encoding does zero heap growth.
//!
//! The profile⇄bytes schema itself lives next to the data structures in
//! `ips-core::persist`; this crate is deliberately schema-agnostic.

pub mod compress;
pub mod frame;
pub mod message;
pub mod pool;
pub mod varint;
pub mod wire;

pub use compress::{compress, compress_into, decompress, CompressError};
pub use frame::{decode_frame, encode_frame, FrameError, FRAME_FLAGS};
pub use message::{FlagsDescriptor, MessageDescriptor};
pub use pool::PoolStats;
pub use varint::{
    decode_u64, encode_u64, zigzag_decode, zigzag_encode, DecodeError as VarintError,
};
#[allow(
    clippy::disallowed_types,
    reason = "the tests that hand-craft wire bytes name them here"
)]
pub use wire::{
    FieldValue, Packed, PackedCounts, PackedValue, WireError, WireReader, WireType, WireWriter,
};
