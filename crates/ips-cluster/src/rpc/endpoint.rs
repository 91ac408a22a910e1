//! The server side of the RPC fabric: the transport (loss fault, measured
//! frame bytes) and the endpoint dispatch table.
//!
//! Dispatch is deliberately thin: the endpoint decodes the envelope into
//! one [`RequestContext`] (caller, armed deadline, staleness tolerance,
//! priority) and hands it to the instance's `*_ctx` APIs — every
//! cross-cutting policy (deadline shedding, fair admission, quota, tracing,
//! degraded fallback) runs inside the server-side request pipeline, not
//! here.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ips_core::server::IpsInstance;
use ips_core::RequestContext;
use ips_trace::SpanContext;
use ips_types::{IpsError, Result};

use super::{RpcRequest, RpcResponse, SnapshotAck};

// ---- transport fault --------------------------------------------------------

/// The transport's fault model between a client and an endpoint. Serving
/// code models no time: a call's cost is the bytes it moved
/// ([`FrameBytes`]), which the experiment harnesses price offline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// Probability that a frame is lost (times out) in transit, drawn once
    /// per direction.
    pub loss_probability: f64,
}

impl NetworkModel {
    /// A lossless network.
    #[must_use]
    pub fn zero() -> Self {
        Self {
            loss_probability: 0.0,
        }
    }
}

// ---- endpoint ----------------------------------------------------------------

/// The bytes one RPC attempt delivered, as measured at the transport.
/// Returned even when the attempt fails, so every traversal a retry or a
/// region failover paid for is on the record. A frame that never arrived
/// (endpoint down, lost in transit) counts zero bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameBytes {
    /// Request-frame bytes delivered to the server.
    pub sent: u32,
    /// Response-frame bytes delivered back to the client.
    pub received: u32,
}

/// One addressable IPS instance: the server side of the RPC fabric.
pub struct RpcEndpoint {
    name: String,
    region: String,
    instance: Arc<IpsInstance>,
    down: AtomicBool,
    /// Draws the loss fault; never locked when the network is lossless.
    loss_rng: Mutex<SmallRng>,
    network: NetworkModel,
}

impl RpcEndpoint {
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        region: impl Into<String>,
        instance: Arc<IpsInstance>,
        network: NetworkModel,
    ) -> Arc<Self> {
        let name = name.into();
        let seed = name.bytes().fold(0x5eed_u64, |a, b| {
            a.wrapping_mul(31).wrapping_add(u64::from(b))
        });
        Arc::new(Self {
            name,
            region: region.into(),
            instance,
            down: AtomicBool::new(false),
            loss_rng: Mutex::new(SmallRng::seed_from_u64(seed)),
            network,
        })
    }

    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    #[must_use]
    pub fn region(&self) -> &str {
        &self.region
    }

    #[must_use]
    pub fn instance(&self) -> &Arc<IpsInstance> {
        &self.instance
    }

    /// Crash / restore the endpoint (node failure injection).
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
    }

    #[must_use]
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    /// Issue one call: serialize, cross the transport, execute, serialize
    /// the response back. Returns the response plus the bytes moved each
    /// way.
    pub fn call(&self, request: &RpcRequest) -> Result<(RpcResponse, FrameBytes)> {
        let (result, bytes) = self.call_traced(request, None);
        result.map(|resp| (resp, bytes))
    }

    /// [`RpcEndpoint::call`] with trace propagation. The caller's span
    /// context (if any) is stamped into the request envelope; the server
    /// opens a `server` span under it through its instance's tracer. The
    /// [`FrameBytes`] are returned even on failure: a lost response still
    /// delivered its request.
    pub fn call_traced(
        &self,
        request: &RpcRequest,
        ctx: Option<&SpanContext>,
    ) -> (Result<RpcResponse>, FrameBytes) {
        self.call_with_options(request, ctx, &super::CallOptions::default())
    }

    /// [`RpcEndpoint::call_traced`] with per-call options: the remaining
    /// deadline budget (armed on arrival, so queue wait and compute
    /// decrement it), the scheduling priority, and the degraded-serving
    /// opt-in.
    pub fn call_with_options(
        &self,
        request: &RpcRequest,
        ctx: Option<&SpanContext>,
        opts: &super::CallOptions,
    ) -> (Result<RpcResponse>, FrameBytes) {
        let mut bytes = FrameBytes::default();
        let result = self.call_inner(request, ctx, opts, &mut bytes);
        (result, bytes)
    }

    /// Whether the loss fault drops the next frame. A lossless network
    /// never touches the RNG or its lock.
    fn lost_in_transit(&self) -> bool {
        let p = self.network.loss_probability;
        p > 0.0 && self.loss_rng.lock().gen_bool(p.min(1.0))
    }

    fn call_inner(
        &self,
        request: &RpcRequest,
        ctx: Option<&SpanContext>,
        opts: &super::CallOptions,
        bytes: &mut FrameBytes,
    ) -> Result<RpcResponse> {
        if self.is_down() {
            return Err(IpsError::Rpc(format!("endpoint {} down", self.name)));
        }
        let request_bytes = {
            let _s = ips_trace::child("serialize");
            request.encode_with(ctx, opts)
        };
        if self.lost_in_transit() {
            return Err(IpsError::Rpc("request lost in transit".into()));
        }
        bytes.sent = frame_len(&request_bytes);

        // In-process "server side": mask the client's ambient scope so the
        // server spans can only join the trace through the wire-propagated
        // context — exactly what a remote process would see. The server
        // decodes the exact bytes the client sent.
        let masked = ips_trace::mask();
        let (request, envelope) = RpcRequest::decode_envelope(&request_bytes)?;
        // One request context for the whole server-side pipeline: arm the
        // wire budget against this process's monotonic clock on arrival.
        // The caller identity is filled in per request kind by `execute`.
        let mut base = RequestContext::default().with_priority(envelope.priority);
        if let Some(deadline) = envelope.deadline {
            base = base.with_deadline(deadline.arm());
        }
        if let Some(staleness) = envelope.degraded {
            base = base.with_staleness(staleness);
        }
        let mut server_span = match (self.instance.tracer(), envelope.trace) {
            (Some(tracer), Some(wc)) => {
                let mut s = tracer.span_with_parent("server", wc);
                s.set_attr("endpoint", self.name.clone());
                s.set_attr("region", self.region.clone());
                s
            }
            _ => ips_trace::Span::disabled(),
        };
        let response = match self.execute(request, base) {
            Ok(resp) => resp,
            Err(e) => {
                server_span.set_error(e.to_string());
                return Err(e);
            }
        };
        let server_ctx = server_span.context();
        let response_bytes = {
            let _s = ips_trace::child("serialize");
            response.encode_traced(server_ctx.as_ref())
        };
        drop(server_span);
        drop(masked);

        if self.lost_in_transit() {
            return Err(IpsError::Rpc("response lost in transit".into()));
        }
        bytes.received = frame_len(&response_bytes);
        let (response, _server_ctx) = {
            let _s = ips_trace::child("serialize");
            RpcResponse::decode_traced(&response_bytes)?
        };
        Ok(response)
    }

    /// The server-side dispatch table: one instance API per request kind.
    /// Each arm stamps the request's caller into the decoded envelope
    /// context and calls the context-carrying instance API; the pipeline
    /// behind it sheds expired work, reserves fair admission, and charges
    /// quota.
    fn execute(&self, request: RpcRequest, base: RequestContext) -> Result<RpcResponse> {
        match request {
            RpcRequest::Add {
                caller,
                table,
                profile,
                at,
                slot,
                action,
                features,
            } => {
                let rctx = RequestContext { caller, ..base };
                self.instance
                    .add_profiles_ctx(&rctx, table, profile, at, slot, action, &features)?;
                Ok(RpcResponse::Ok)
            }
            RpcRequest::Query { caller, query } => {
                let rctx = RequestContext { caller, ..base };
                Ok(RpcResponse::Query(self.instance.query_ctx(&rctx, &query)?))
            }
            RpcRequest::QueryBatch { caller, queries } => {
                let rctx = RequestContext { caller, ..base };
                Ok(RpcResponse::QueryBatch(
                    self.instance.query_batch_ctx(&rctx, &queries)?,
                ))
            }
            RpcRequest::AddBatch { caller, writes } => {
                let rctx = RequestContext { caller, ..base };
                self.instance.add_batch_ctx(&rctx, &writes)?;
                Ok(RpcResponse::Ok)
            }
            RpcRequest::SnapshotChunk {
                table,
                handoff,
                seq,
                last,
                entries,
            } => {
                // Warm-up work past its per-chunk deadline is shed whole by
                // the pipeline's deadline check: the source retries the
                // chunk with a fresh budget and the resume cursor keeps the
                // stream exactly-once.
                let mut decoded = Vec::with_capacity(entries.len());
                for e in entries {
                    decoded.push(ips_core::ExportedEntry {
                        pid: e.profile,
                        generation: e.generation,
                        data: ips_core::persist::decode_profile(&e.payload)?,
                    });
                }
                let applied = self
                    .instance
                    .import_snapshot_chunk_ctx(&base, table, handoff, seq, last, decoded)?;
                Ok(RpcResponse::SnapshotAck(SnapshotAck {
                    handoff,
                    next_seq: applied.next_seq,
                    imported: applied.report.imported as u64,
                    rejected_stale: applied.report.rejected_stale as u64,
                    already_resident: applied.report.already_resident as u64,
                }))
            }
        }
    }
}

/// A frame's length on the wire, saturated to the `u32` the byte record
/// carries (frames are far below 4 GiB).
fn frame_len(frame: &[u8]) -> u32 {
    u32::try_from(frame.len()).unwrap_or(u32::MAX)
}
