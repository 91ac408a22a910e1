//! The client-side interceptor chain.
//!
//! Every read and write path in [`super`] composes the same stack, in the
//! same order, each concern implemented in exactly one file here:
//!
//! 1. [`deadline`] — arm the request budget and charge modeled time
//!    (wire transit, backoff) against it between attempts, so a request
//!    sheds client-side the moment its budget is gone;
//! 2. [`breaker`] — circuit-breaker routing: blocked candidates are
//!    *demoted* to the end of the failover walk, never excluded (routing
//!    fails open — a breaker may slow recovery but never cause an outage
//!    by itself);
//! 3. [`failover`] — the owner-then-siblings-then-regions retry walk with
//!    modeled exponential backoff;
//! 4. [`trace`] — the per-attempt span plus endpoint-health bookkeeping
//!    wrapping the transport call itself.
//!
//! The matching server-side chain lives in `ips_core::server::pipeline`;
//! between them a request's context (caller, deadline, staleness,
//! priority) crosses the wire in the RPC envelope.

pub(crate) mod breaker;
pub(crate) mod deadline;
pub(crate) mod failover;
pub(crate) mod trace;
