//! RPC fabric (Thrift substitute).
//!
//! Requests and responses really are serialized through the `ips-codec`
//! wire format — the byte counts feed the network model — and dispatched to
//! an in-process [`RpcEndpoint`] wrapping an
//! [`IpsInstance`](ips_core::server::IpsInstance). The network model
//! contributes the ~3 ms client/server gap Table II attributes to "package
//! transmission on network ... grows proportionally to the response data
//! size".
//!
//! Both message kinds carry an optional [`SpanContext`] on envelope field
//! 15, so one client request's trace continues on the server side of the
//! wire (and the server's span context rides back on the response). Old
//! decoders skip the field; old frames simply have no context.
//!
//! Module map:
//!
//! * [`mod@self`] — the message types ([`RpcRequest`], [`RpcResponse`]) and
//!   the per-call envelope ([`CallOptions`], [`RequestEnvelope`]);
//! * [`codec`] (private) — the sub-message wire codecs (queries, errors,
//!   results, writes, snapshot chunks);
//! * [`frame`] (private) — the frame-level encoders/decoders and the
//!   envelope fields (trace context, deadline + priority, degraded opt-in);
//! * [`endpoint`] (private) — [`NetworkModel`], [`WireCost`] and
//!   [`RpcEndpoint`], whose dispatch builds one
//!   [`RequestContext`](ips_core::RequestContext) per request and hands it
//!   to the server-side pipeline.

mod codec;
mod endpoint;
mod frame;
#[cfg(test)]
mod tests;

pub use endpoint::{NetworkModel, RpcEndpoint, WireCost};

use ips_core::query::{ProfileQuery, QueryResult};
use ips_trace::SpanContext;
use ips_types::{
    ActionTypeId, CallerId, CountVector, Deadline, DurationMs, FeatureId, Priority, ProfileId,
    Result, SlotId, TableId, Timestamp,
};

/// One profile's worth of writes inside an [`RpcRequest::AddBatch`] frame.
/// All features share one `(timestamp, slot, action)` coordinate, exactly
/// like the paper's `add_profiles` interface.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileWrite {
    pub table: TableId,
    pub profile: ProfileId,
    pub at: Timestamp,
    pub slot: SlotId,
    pub action: ActionTypeId,
    pub features: Vec<(FeatureId, CountVector)>,
}

/// A request on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum RpcRequest {
    /// `add_profiles` (the single-feature `add_profile` is a batch of one).
    Add {
        caller: CallerId,
        table: TableId,
        profile: ProfileId,
        at: Timestamp,
        slot: SlotId,
        action: ActionTypeId,
        features: Vec<(FeatureId, CountVector)>,
    },
    /// Any of the three read APIs, selected by the query's kind.
    Query {
        caller: CallerId,
        query: ProfileQuery,
    },
    /// Many reads in one frame: the candidate-ranking fan-out. The whole
    /// batch pays the fixed network round-trip once; the server executes
    /// the sub-queries in input order and replies with per-sub-query
    /// results so one bad profile cannot fail its siblings.
    QueryBatch {
        caller: CallerId,
        queries: Vec<ProfileQuery>,
    },
    /// Many profiles' writes in one frame (multi-profile `add_profiles`).
    AddBatch {
        caller: CallerId,
        writes: Vec<ProfileWrite>,
    },
    /// One chunk of a shard-handoff snapshot stream (source → target
    /// warm-up). Chunks carry a sequence number per handoff id so a dropped
    /// chunk resumes from the target's ACKed offset instead of restarting
    /// the stream.
    SnapshotChunk {
        table: TableId,
        /// Handoff stream id (one per (source, target, scale event)).
        handoff: u64,
        /// Chunk sequence number within the stream, from 0.
        seq: u64,
        /// Final chunk of the stream.
        last: bool,
        entries: Vec<SnapshotEntry>,
    },
}

/// One profile inside a [`RpcRequest::SnapshotChunk`] frame: the encoded
/// profile bytes plus the KV generation the data was flushed at, so the
/// importer can version-check the snapshot against newer writes.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotEntry {
    pub profile: ProfileId,
    pub generation: u64,
    /// `ips_core::persist::encode_profile` bytes (framed + compressed).
    pub payload: Vec<u8>,
}

/// The target's cumulative progress ACK for a snapshot stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotAck {
    pub handoff: u64,
    /// Resume cursor: the first chunk seq the target has not applied.
    pub next_seq: u64,
    pub imported: u64,
    pub rejected_stale: u64,
    pub already_resident: u64,
}

/// A response on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum RpcResponse {
    Ok,
    Query(QueryResult),
    /// Per-sub-query outcomes for [`RpcRequest::QueryBatch`], in request
    /// order. Errors are carried on the wire so the client can retry just
    /// the retryable subset.
    QueryBatch(Vec<Result<QueryResult>>),
    /// Progress ACK for one [`RpcRequest::SnapshotChunk`].
    SnapshotAck(SnapshotAck),
}

/// Per-call options the client stamps into the request envelope. All fields
/// default to absent, in which case the encoded frame is byte-identical to
/// one produced by an options-unaware encoder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallOptions {
    /// Remaining deadline budget at send time (already charged for prior
    /// attempts and modeled backoff by the client).
    pub deadline: Option<Deadline>,
    /// Opt in to degraded serving: the staleness the caller tolerates if
    /// the server cannot reach the persistent store.
    pub degraded: Option<DurationMs>,
    /// Scheduling priority; [`Priority::Normal`] (the default) is never
    /// encoded, so default-priority frames stay byte-identical to
    /// priority-unaware encoders.
    pub priority: Priority,
}

/// The optional envelope contents decoded alongside a request.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RequestEnvelope {
    pub trace: Option<SpanContext>,
    pub deadline: Option<Deadline>,
    pub degraded: Option<DurationMs>,
    /// Decoded scheduling priority; an absent wire field yields
    /// [`Priority::Normal`].
    pub priority: Priority,
}
