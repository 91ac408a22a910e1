//! The innermost interceptor: one `attempt` span per transport call, plus
//! the endpoint-health bookkeeping that feeds the breaker.

use std::sync::Arc;

use ips_types::clock::monotonic_micros;
use ips_types::Result;

use crate::client::IpsClusterClient;
use crate::rpc::{CallOptions, RpcEndpoint, RpcRequest, RpcResponse, WireCost};

impl IpsClusterClient {
    /// One attempt against one endpoint, with trace span and health
    /// bookkeeping: success resets the endpoint's failure streak and closes
    /// its breaker, a retryable failure feeds the streak. Terminal
    /// errors (quota, invalid request, deadline) say nothing about endpoint
    /// health and leave the breaker alone.
    pub(in crate::client) fn attempt_once(
        &self,
        ep: &Arc<RpcEndpoint>,
        request: &RpcRequest,
        opts: &CallOptions,
    ) -> (Result<RpcResponse>, WireCost) {
        let health = self.health.for_endpoint(ep.name());
        let mut attempt = ips_trace::child("attempt");
        attempt.set_attr("endpoint", ep.name());
        attempt.set_attr("region", ep.region());
        let ctx = attempt.context();
        let (result, cost) = ep.call_with_options(request, ctx.as_ref(), opts);
        match &result {
            Ok(_) => health.on_success(),
            Err(e) => {
                attempt.set_error(e.to_string());
                if e.is_retryable() {
                    health.on_failure(monotonic_micros());
                }
            }
        }
        (result, cost)
    }
}
