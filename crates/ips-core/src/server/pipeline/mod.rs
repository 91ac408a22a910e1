//! The server-side request pipeline: one function, [`admit`], runs every
//! cross-cutting serving policy for a request, in the order DESIGN.md §13
//! documents; its body is that order:
//!
//! 1. deadline — shed already-expired work before charging anything;
//! 2. [`admission`] — per-caller weighted fair admission on the in-flight
//!    batch sub-query budget (batched reads only); sheds with a retryable
//!    `Overloaded` only when the caller's own share is exhausted;
//! 3. [`quota`] — per-caller token-bucket QPS contract (terminal; snapshot
//!    chunks are exempt);
//! 4. the request's `pipeline` span; later spans (compute, shed markers)
//!    nest under it.
//!
//! Deadline runs first because an expired request must not consume quota
//! tokens or admission slots; admission runs before quota so a replica-level
//! overload (retryable elsewhere) never burns the caller's per-cluster
//! budget. Every handler calls [`admit`] exactly once, an `AddBatch` frame
//! included, then does only compute. The per-sub-query policies (deadline
//! re-check before each unit, the [`degraded`] fallback around the engine)
//! run through `run_subquery`, so the single and batched read paths share
//! them.

pub mod admission;
pub mod degraded;
pub mod quota;

use std::sync::Arc;

use ips_types::{ArmedDeadline, CallerId, DurationMs, IpsError, Priority, Result};

use crate::query::{ProfileQuery, QueryResult};
use crate::server::IpsInstance;

pub use admission::{FairAdmission, FairPermit};

/// Everything the serving paths need to know about one request, threaded
/// as a single value instead of parallel arguments: who is asking, how
/// urgent it is, how long it is allowed to take, and how stale an answer
/// the caller will tolerate.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestContext {
    /// Caller identity (quota accounting, fair admission, trace attrs).
    pub caller: CallerId,
    /// Scheduling priority; feeds the fair-admission weight downstream.
    pub priority: Priority,
    /// Remaining deadline, armed against this process's monotonic clock at
    /// arrival. `None` means unbounded (the legacy behaviour).
    pub deadline: Option<ArmedDeadline>,
    /// Explicit caller opt-in to degraded serving, with the staleness the
    /// caller will tolerate. The server additionally caps this at its own
    /// configured bound.
    pub staleness: Option<DurationMs>,
}

impl RequestContext {
    /// A context for `caller` with no deadline, default priority and no
    /// degraded opt-in — the implicit context of the legacy call surface.
    #[must_use]
    pub fn new(caller: CallerId) -> Self {
        Self {
            caller,
            ..Self::default()
        }
    }

    /// Builder: set the scheduling priority.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Builder: bound the request by an armed deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: ArmedDeadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builder: opt in to degraded serving up to `staleness`.
    #[must_use]
    pub fn with_staleness(mut self, staleness: DurationMs) -> Self {
        self.staleness = Some(staleness);
        self
    }

    /// Whether the request's deadline (if any) has already passed.
    #[must_use]
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| d.is_expired())
    }
}

/// What kind of work a request is; [`admit`] uses it to decide which
/// policies apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// `add_profile(s)` and `AddBatch`: the write API.
    Write,
    /// A single profile query (including UDAFs).
    Read,
    /// A batched query: many sub-queries under one admission reservation.
    ReadBatch,
    /// A shard-handoff snapshot chunk (internal traffic: no quota).
    Snapshot,
}

/// What an admitted request holds until it finishes: its fair-admission
/// permit (batched reads only) and its `pipeline` span. Dropping it, on
/// any path including a panic, releases the permit and closes the span.
pub struct Admitted<'a> {
    _permit: Option<FairPermit<'a>>,
    _span: ips_trace::Span,
}

/// Admit one request of `units` cost (sub-queries for batches, features
/// for writes), or reject it. The stage order is this body.
pub fn admit<'a>(
    inst: &'a IpsInstance,
    ctx: &RequestContext,
    kind: RequestKind,
    units: usize,
) -> Result<Admitted<'a>> {
    shed_if_expired(inst, ctx)?;
    let permit = if kind == RequestKind::ReadBatch {
        // The caller's quota contract is its weight: the tenant granted the
        // larger contract also gets the larger share of a contended budget.
        let weight = inst.quota.weight_for(ctx.caller);
        let permit = inst
            .admission
            .admit(ctx.caller, units, weight, ctx.deadline)
            .map_err(|e| match e {
                // Expiry while queued is a deadline shed; record it as one.
                IpsError::DeadlineExceeded => record_shed(inst),
                other => other,
            })?;
        Some(permit)
    } else {
        None
    };
    if kind != RequestKind::Snapshot {
        inst.quota.check(ctx.caller, units as u64)?;
    }
    Ok(Admitted {
        _permit: permit,
        _span: pipeline_span(ctx),
    })
}

/// The admitted request's `pipeline` span, carrying the caller, priority,
/// remaining deadline budget and degraded staleness bound, so every
/// server-side trace attributes to a tenant and the contract the client
/// stamped on the wire. The attributes are formatted only when the span
/// is sampled.
fn pipeline_span(ctx: &RequestContext) -> ips_trace::Span {
    let mut span = ips_trace::child("pipeline");
    if span.is_sampled() {
        span.set_attr(ips_trace::attrs::CALLER, ctx.caller.to_string());
        span.set_attr(ips_trace::attrs::PRIORITY, ctx.priority.label());
        if let Some(deadline) = ctx.deadline {
            span.set_attr(
                ips_trace::attrs::DEADLINE_US,
                deadline.remaining().budget_us().to_string(),
            );
        }
        if let Some(staleness) = ctx.staleness {
            span.set_attr(
                ips_trace::attrs::STALENESS_MS,
                staleness.as_millis().to_string(),
            );
        }
    }
    span
}

/// Record a deadline shed (a `shed` span plus the instance counter): the
/// only place one is decided, so everything else observes it through
/// [`IpsInstance::shed_deadline`] and the span.
fn record_shed(inst: &IpsInstance) -> IpsError {
    let mut span = ips_trace::child("shed");
    span.set_attr(ips_trace::attrs::SHED, "deadline");
    inst.shed_deadline.inc();
    IpsError::DeadlineExceeded
}

/// Shed the request if its deadline has already passed: computing a result
/// nobody is waiting for only steals capacity from live work.
fn shed_if_expired(inst: &IpsInstance, ctx: &RequestContext) -> Result<()> {
    if ctx.deadline_expired() {
        Err(record_shed(inst))
    } else {
        Ok(())
    }
}

/// The shared per-sub-query path: re-check the deadline (work that expired
/// behind earlier sub-queries is shed, not computed), then run the engine
/// with the degraded-serving fallback wrapped around it. Both the
/// single-query handler and every batch sub-query funnel through here, so
/// the per-unit policies exist exactly once.
pub(crate) fn run_subquery(
    inst: &Arc<IpsInstance>,
    ctx: &RequestContext,
    query: &ProfileQuery,
) -> Result<QueryResult> {
    shed_if_expired(inst, ctx)?;
    degraded::with_fallback(inst, ctx, query)
}
