//! The client-side interceptor chain.
//!
//! Every read and write path in [`super`] composes the same stack, in the
//! same order, each concern implemented in exactly one file here:
//!
//! 1. [`breaker`] — circuit-breaker routing: blocked candidates are
//!    *demoted* to the end of the failover walk, never excluded (routing
//!    fails open — a breaker may slow recovery but never cause an outage
//!    by itself);
//! 2. [`failover`] — the owner-then-siblings-then-regions walk: one sweep
//!    of the candidates, shedding client-side before an attempt once the
//!    request's armed deadline has run out;
//! 3. [`trace`] — the per-attempt span plus endpoint-health bookkeeping
//!    wrapping the transport call itself.
//!
//! The deadline is armed once per logical request (`arm_deadline`) and
//! only measured elapsed time draws it down. The matching server-side
//! chain lives in `ips_core::server::pipeline`; between them a request's
//! context (caller, deadline, staleness, priority) crosses the wire in the
//! RPC envelope.

pub(crate) mod breaker;
pub(crate) mod failover;
pub(crate) mod trace;
