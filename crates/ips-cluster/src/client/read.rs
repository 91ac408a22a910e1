//! Read orchestration: the single-profile query and the batched
//! candidate-ranking fan-out, both thin wrappers over the dispatch core
//! (`pipeline::failover`). A single query sends one `Query` frame per
//! attempt; a batch sends one `QueryBatch` frame per endpoint per round.

use std::borrow::Cow;

use ips_core::query::{ProfileQuery, QueryResult};
use ips_types::{CallerId, IpsError, Result};

use super::{BatchQueryOutcome, IpsClusterClient, Lane, WireLog};
use crate::rpc::{RpcRequest, RpcResponse};

impl IpsClusterClient {
    /// Query the **local region**, failing over within it and then to other
    /// regions (§III-G: "when a region fails, the other regions are able to
    /// take over"). Returns the result plus the bytes every attempt moved;
    /// the result's `kv_round_trips` / `kv_bytes_read` describe the store
    /// fetch a miss performed.
    pub fn query(&self, caller: CallerId, query: &ProfileQuery) -> Result<(QueryResult, WireLog)> {
        let request = RpcRequest::Query {
            caller,
            query: query.clone(),
        };
        let mut root = self.root_span("query", caller);
        let deadline = self.arm_deadline();
        let mut wire = WireLog::default();
        let result = self
            .dispatch(
                Lane::Read,
                deadline.as_ref(),
                [query.profile],
                &mut wire,
                |_| Cow::Borrowed(&request),
                |reply, _| match reply {
                    RpcResponse::Query(r) => Some(std::iter::once(Ok(r))),
                    _ => None,
                },
            )
            .pop()
            .unwrap_or_else(|| Err(IpsError::Unavailable("no healthy instance".into())));
        match result {
            Ok(result) => {
                root.set_attr("cache_hit", if result.cache_hit { "true" } else { "false" });
                if result.degraded {
                    self.degraded.inc();
                    root.set_attr(ips_trace::attrs::DEGRADED, "true");
                }
                Ok((result, wire))
            }
            Err(e) => {
                root.set_error(e.to_string());
                Err(e)
            }
        }
    }

    /// Query many profiles in one fan-out (the candidate-ranking path).
    ///
    /// Sub-queries are grouped by their current candidate, one
    /// [`RpcRequest::QueryBatch`] frame per endpoint — the whole batch pays
    /// one network round trip per owner instead of one per profile.
    /// Failover is per sub-query: the retryable subset moves on to each
    /// profile's next candidate (then the next region) in the next round;
    /// terminal errors and exhausted sub-queries stay errors without
    /// poisoning siblings. Results come back in input order.
    pub fn query_batch(
        &self,
        caller: CallerId,
        queries: &[ProfileQuery],
    ) -> Result<BatchQueryOutcome> {
        if queries.is_empty() {
            return Ok(BatchQueryOutcome::default());
        }
        let mut root = self.root_span("query_batch", caller);
        if root.is_sampled() {
            root.set_attr("queries", queries.len().to_string());
        }
        let deadline = self.arm_deadline();
        let mut wire = WireLog::default();
        let results = self.dispatch(
            Lane::Read,
            deadline.as_ref(),
            queries.iter().map(|q| q.profile),
            &mut wire,
            |items| {
                Cow::Owned(RpcRequest::QueryBatch {
                    caller,
                    queries: items.iter().map(|&i| queries[i].clone()).collect(),
                })
            },
            |reply, _| match reply {
                RpcResponse::QueryBatch(subs) => Some(subs.into_iter()),
                _ => None,
            },
        );
        for r in results.iter().flatten() {
            if r.degraded {
                self.degraded.inc();
            }
        }
        if root.is_sampled() {
            let ok = results.iter().filter(|r| r.is_ok()).count();
            root.set_attr("ok", ok.to_string());
        }
        Ok(BatchQueryOutcome { results, wire })
    }
}
