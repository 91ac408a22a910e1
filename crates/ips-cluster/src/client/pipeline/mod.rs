//! The client-side request pipeline.
//!
//! Every read and write path in [`super`] is a thin wrapper over one
//! dispatch core, so every call composes the same stack, each concern
//! implemented in exactly one file here:
//!
//! 1. [`failover`] — the dispatch core: items grouped by their current
//!    candidate into one frame per endpoint per round, the
//!    owner-then-siblings-then-regions walk, the lazy breaker admission
//!    (blocked candidates are *demoted*, never excluded) and the
//!    client-side deadline shed before each round. Its module docs state
//!    the walk's contract;
//! 2. [`trace`] — the per-attempt span plus endpoint-health bookkeeping
//!    wrapping the transport call itself.
//!
//! [`health`] holds the per-endpoint breakers. Only [`failover`] admits a
//! frame through one, so `try_admit` is private to this module.
//!
//! The deadline is armed once per logical request (`arm_deadline`) and
//! only measured elapsed time draws it down. The matching server-side
//! chain lives in `ips_core::server::pipeline`; between them a request's
//! context (caller, deadline, staleness, priority) crosses the wire in the
//! RPC envelope.

pub(crate) mod failover;
pub(crate) mod health;
pub(crate) mod trace;
