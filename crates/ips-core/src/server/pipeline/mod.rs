//! The server-side request pipeline: one composable interceptor chain for
//! every cross-cutting serving concern.
//!
//! Each policy that used to be an inline call site in the serving paths —
//! deadline shedding, fair admission, per-caller quota, tracing, degraded
//! fallback — is now a [`ServerStage`] living in exactly one submodule.
//! Handlers run the chain once per request via [`ServerPipeline::admit`],
//! then execute compute; per-sub-query policies (deadline re-check before
//! each unit, degraded fallback around the engine) are applied through
//! [`run_subquery`] so batch sub-queries go through the same single code
//! path.
//!
//! Stage ordering contract (see DESIGN.md §13):
//!
//! 1. [`deadline`] — shed already-expired work before charging anything.
//! 2. [`admission`] — per-caller weighted fair admission on the in-flight
//!    batch sub-query budget; sheds with a retryable `Overloaded` only when
//!    the caller's own share is exhausted.
//! 3. [`quota`] — per-caller token-bucket QPS contract (terminal).
//! 4. [`trace`] — open the request's server-side pipeline span; later
//!    spans (compute, shed markers) nest under it.
//!
//! Deadline runs first because an expired request must not consume quota
//! tokens or admission slots; admission runs before quota so a replica-level
//! overload (retryable elsewhere) never burns the caller's per-cluster
//! budget. Adding a policy means adding one stage module here, not another
//! pass through the handlers.

pub mod admission;
pub mod deadline;
pub mod degraded;
pub mod quota;
pub mod trace;

use std::sync::Arc;

use ips_types::{ArmedDeadline, CallerId, DurationMs, Priority, Result};

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

/// What kind of work a request is; stages use this to decide whether they
/// apply (e.g. admission guards only batched reads).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// `add_profile(s)`: the write API.
    Write,
    /// A single profile query (including UDAFs).
    Read,
    /// A batched query: many sub-queries under one admission reservation.
    ReadBatch,
    /// A shard-handoff snapshot chunk (internal traffic: no quota).
    Snapshot,
}

/// One request as the pipeline sees it.
pub struct PipelineRequest<'a> {
    /// The caller's request context.
    pub ctx: &'a RequestContext,
    /// What kind of work this is.
    pub kind: RequestKind,
    /// Cost in request units (sub-queries for batches, features for
    /// writes); never zero.
    pub units: usize,
}

/// A resource a stage reserved for the request; released (in reverse
/// acquisition order is not required — each guard is independent) when the
/// request finishes, including on panic.
pub enum StageGuard<'a> {
    /// A fair-admission reservation of in-flight sub-query budget.
    Admission(FairPermit<'a>),
    /// The request's open pipeline span.
    Trace(ips_trace::Span),
}

/// One interceptor in the server chain. A stage inspects the request and
/// either waves it through (`Ok(None)`), attaches a guard that lives for
/// the whole request (`Ok(Some(_))`), or rejects it.
pub trait ServerStage: Send + Sync {
    /// Stage name (diagnostics, DESIGN.md ordering contract).
    fn name(&self) -> &'static str;

    /// Run the stage's admission decision for `req`.
    fn admit<'a>(
        &self,
        inst: &'a IpsInstance,
        req: &PipelineRequest<'_>,
    ) -> Result<Option<StageGuard<'a>>>;
}

/// An ordered chain of [`ServerStage`]s.
pub struct ServerPipeline {
    stages: Vec<Box<dyn ServerStage>>,
}

impl ServerPipeline {
    /// A pipeline running exactly the given stages, in order.
    #[must_use]
    pub fn new(stages: Vec<Box<dyn ServerStage>>) -> Self {
        Self { stages }
    }

    /// The standard serving chain: deadline → admission → quota → trace
    /// (see the module docs for why this order).
    #[must_use]
    pub fn standard() -> Self {
        Self::new(vec![
            Box::new(deadline::DeadlineStage),
            Box::new(admission::AdmissionStage),
            Box::new(quota::QuotaStage),
            Box::new(trace::TraceStage),
        ])
    }

    /// Stage names in execution order (diagnostics).
    #[must_use]
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Run every stage in order. The returned guards must be held for the
    /// duration of the request; dropping them releases reserved capacity
    /// and closes the pipeline span. If a later stage rejects, guards from
    /// earlier stages release on the error path automatically.
    pub fn admit<'a>(
        &self,
        inst: &'a IpsInstance,
        req: &PipelineRequest<'_>,
    ) -> Result<Vec<StageGuard<'a>>> {
        let mut guards = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            if let Some(guard) = stage.admit(inst, req)? {
                guards.push(guard);
            }
        }
        Ok(guards)
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
    deadline::shed_if_expired(inst, ctx)?;
    degraded::with_fallback(inst, ctx, query)
}
