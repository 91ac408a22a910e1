//! The innermost interceptor: one `attempt` span per transport call, plus
//! the endpoint-health bookkeeping that feeds the breaker.

use std::sync::Arc;

use ips_types::clock::monotonic_micros;
use ips_types::Result;

use crate::client::IpsClusterClient;
use crate::rpc::{CallOptions, FrameBytes, RpcEndpoint, RpcRequest, RpcResponse};

impl IpsClusterClient {
    /// One attempt against one endpoint, with trace span and health
    /// bookkeeping: success resets the endpoint's failure streak and closes
    /// its breaker, a retryable failure feeds the streak. Terminal
    /// errors (quota, invalid request, deadline) say nothing about endpoint
    /// health and leave the breaker alone.
    ///
    /// A sampled `attempt` span carries the measured facts an offline
    /// pricer needs: `sent_bytes` / `received_bytes`, and for a
    /// single-query reply that fetched from the store, `kv_round_trips` /
    /// `kv_bytes`.
    pub(in crate::client) fn attempt_once(
        &self,
        ep: &Arc<RpcEndpoint>,
        request: &RpcRequest,
        opts: &CallOptions,
    ) -> (Result<RpcResponse>, FrameBytes) {
        let health = self.health.for_endpoint(ep.name());
        let mut attempt = ips_trace::child("attempt");
        attempt.set_attr("endpoint", ep.name());
        attempt.set_attr("region", ep.region());
        let ctx = attempt.context();
        let (result, bytes) = ep.call_with_options(request, ctx.as_ref(), opts);
        if attempt.is_sampled() {
            attempt.set_attr("sent_bytes", bytes.sent.to_string());
            attempt.set_attr("received_bytes", bytes.received.to_string());
            if let Ok(RpcResponse::Query(r)) = &result {
                if r.kv_round_trips > 0 {
                    attempt.set_attr("kv_round_trips", r.kv_round_trips.to_string());
                    attempt.set_attr("kv_bytes", r.kv_bytes_read.to_string());
                }
            }
        }
        match &result {
            Ok(_) => health.on_success(),
            Err(e) => {
                attempt.set_error(e.to_string());
                if e.is_retryable() {
                    health.on_failure(monotonic_micros());
                }
            }
        }
        (result, bytes)
    }
}
