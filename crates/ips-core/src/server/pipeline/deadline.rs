//! Deadline shedding: expired work is shed, not computed.
//!
//! Computing a result nobody is waiting for only steals capacity from live
//! work, so the pipeline sheds on the way in, and every sub-query re-checks
//! before it runs (via [`shed_if_expired`] inside
//! [`super::run_subquery`]). This module is the only place a deadline shed
//! is decided and recorded; everything else observes it through
//! [`crate::server::IpsInstance::shed_deadline`] and the `shed` trace span.

use ips_types::{IpsError, Result};

use super::{PipelineRequest, RequestContext, ServerStage, StageGuard};
use crate::server::IpsInstance;

/// Record a deadline shed: a span the trace pipeline can assert on, plus
/// the instance counter.
pub(super) fn record_shed(inst: &IpsInstance) -> IpsError {
    let mut span = ips_trace::child("shed");
    span.set_attr(ips_trace::attrs::SHED, "deadline");
    inst.shed_deadline.inc();
    IpsError::DeadlineExceeded
}

/// Shed the request if its deadline has already passed.
pub(super) fn shed_if_expired(inst: &IpsInstance, ctx: &RequestContext) -> Result<()> {
    if ctx.deadline_expired() {
        Err(record_shed(inst))
    } else {
        Ok(())
    }
}

/// The pipeline stage: runs first, so an expired request consumes neither
/// quota tokens nor admission slots.
pub(crate) struct DeadlineStage;

impl ServerStage for DeadlineStage {
    fn name(&self) -> &'static str {
        "deadline"
    }

    fn admit<'a>(
        &self,
        inst: &'a IpsInstance,
        req: &PipelineRequest<'_>,
    ) -> Result<Option<StageGuard<'a>>> {
        shed_if_expired(inst, req.ctx)?;
        Ok(None)
    }
}
