//! The trace stage: one server-side `pipeline` span per admitted request.
//!
//! The span opens after the rejecting stages (a shed request gets its
//! dedicated `shed` span instead) and stays the ambient parent for the
//! whole request, so compute, degraded and shed markers from the
//! sub-query path all nest under it. It carries the request's caller,
//! priority, and (when present) remaining deadline budget and degraded
//! staleness bound, so every server-side trace can be attributed to a
//! tenant and audited against the contract the client stamped on the wire.

use ips_types::Result;

use super::{PipelineRequest, ServerStage, StageGuard};
use crate::server::IpsInstance;

pub(crate) struct TraceStage;

impl ServerStage for TraceStage {
    fn name(&self) -> &'static str {
        "trace"
    }

    fn admit<'a>(
        &self,
        _inst: &'a IpsInstance,
        req: &PipelineRequest<'_>,
    ) -> Result<Option<StageGuard<'a>>> {
        let mut span = ips_trace::child("pipeline");
        span.set_attr(ips_trace::attrs::CALLER, req.ctx.caller.to_string());
        span.set_attr(ips_trace::attrs::PRIORITY, req.ctx.priority.label());
        if let Some(deadline) = req.ctx.deadline {
            span.set_attr(
                ips_trace::attrs::DEADLINE_US,
                deadline.remaining().budget_us().to_string(),
            );
        }
        if let Some(staleness) = req.ctx.staleness {
            span.set_attr(
                ips_trace::attrs::STALENESS_MS,
                staleness.as_millis().to_string(),
            );
        }
        Ok(Some(StageGuard::Trace(span)))
    }
}
