//! Read orchestration: the single-profile query and the batched
//! candidate-ranking fan-out. Both compose the pipeline interceptors —
//! the deadline shed, breaker demotion, failover, per-attempt tracing —
//! and report the bytes every attempt moved.

use std::collections::BTreeMap;
use std::sync::Arc;

use ips_core::query::{ProfileQuery, QueryResult};
use ips_types::{ArmedDeadline, CallerId, IpsError, Result};

use super::{BatchQueryOutcome, IpsClusterClient, WireLog};
use crate::rpc::{CallOptions, FrameBytes, RpcEndpoint, RpcRequest, RpcResponse};

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
        root.set_attr(ips_trace::attrs::CALLER, caller.to_string());
        root.set_attr(ips_trace::attrs::PRIORITY, self.request_priority().label());
        let deadline = self.arm_deadline();
        // Home region first, then the rest.
        let dispatch = ips_trace::child("client_dispatch");
        let regions = self.read_regions();
        drop(dispatch);
        let mut wire = WireLog::default();
        let outcome = self.call_with_failover(
            query.profile,
            &request,
            &regions,
            deadline.as_ref(),
            &mut wire,
            0,
        );
        let response = match outcome {
            Ok(out) => out,
            Err(e) => {
                root.set_error(e.to_string());
                return Err(e);
            }
        };
        let RpcResponse::Query(result) = response else {
            let e = IpsError::Rpc("mismatched response type".into());
            root.set_error(e.to_string());
            return Err(e);
        };
        root.set_attr("cache_hit", if result.cache_hit { "true" } else { "false" });
        if result.degraded {
            self.degraded.inc();
            root.set_attr(ips_trace::attrs::DEGRADED, "true");
        }
        Ok((result, wire))
    }

    /// Query many profiles in one fan-out (the candidate-ranking path).
    ///
    /// Sub-queries are grouped by their owning instance on the home
    /// region's consistent-hash ring, one [`RpcRequest::QueryBatch`] frame
    /// per owner — the whole batch pays one network round trip per owner
    /// instead of one per profile. Failover is per sub-query:
    /// after each round, the retryable subset is re-grouped against each
    /// profile's next failover candidate (then the next region) and
    /// re-dispatched; terminal errors and exhausted sub-queries stay errors
    /// without poisoning siblings. Results come back in input order.
    pub fn query_batch(
        &self,
        caller: CallerId,
        queries: &[ProfileQuery],
    ) -> Result<BatchQueryOutcome> {
        if queries.is_empty() {
            return Ok(BatchQueryOutcome::default());
        }
        let mut root = self.root_span("query_batch", caller);
        root.set_attr(ips_trace::attrs::CALLER, caller.to_string());
        root.set_attr(ips_trace::attrs::PRIORITY, self.request_priority().label());
        root.set_attr("queries", queries.len().to_string());
        // Deadline and degraded opt-in ride every frame; one armed budget
        // covers every round.
        let deadline = self.arm_deadline();
        let degraded_opt = *self.degraded_reads.read();
        let priority = self.request_priority();
        let dispatch = ips_trace::child("client_dispatch");
        // Home region first, then the rest.
        let regions = self.read_regions();
        // Each sub-query's ordered failover walk: owner then in-region
        // failover candidates, home region before remote regions.
        let mut candidates: Vec<Vec<Arc<RpcEndpoint>>> = queries
            .iter()
            .map(|q| {
                let mut c = Vec::new();
                for region in &regions {
                    c.extend(self.candidates_in_region(region, q.profile));
                }
                c
            })
            .collect();
        // Breaker demotions (below) append to a sub-query's walk; the walk
        // may grow to at most twice this snapshot.
        let original_len: Vec<usize> = candidates.iter().map(Vec::len).collect();
        drop(dispatch);
        let max_rounds = candidates.iter().map(Vec::len).max().unwrap_or(0);
        if max_rounds == 0 {
            self.attempts.inc();
            self.failures.inc();
            let e = IpsError::Unavailable("no healthy instance".into());
            root.set_error(e.to_string());
            return Err(e);
        }

        let mut slots: Vec<Option<Result<QueryResult>>> = Vec::new();
        slots.resize_with(queries.len(), || None);
        let mut pending: Vec<usize> = (0..queries.len()).collect();
        let mut last_err = IpsError::Unavailable("no healthy instance".into());
        let mut wire = WireLog::default();

        let mut round = 0;
        while round < candidates.iter().map(Vec::len).max().unwrap_or(0) {
            if pending.is_empty() {
                break;
            }
            // Client-side shed: a batch whose budget ran out between rounds
            // stops fanning out work nobody is waiting for.
            if deadline.as_ref().is_some_and(ArmedDeadline::is_expired) {
                last_err = IpsError::DeadlineExceeded;
                break;
            }
            // Group this round's pending sub-queries by target endpoint.
            // Breaker-blocked endpoints are demoted, not excluded: the
            // blocked candidate moves to the end of the sub-query's walk
            // (once — demoted copies are attempted regardless), so a
            // breaker may reorder the walk but never shrink it to nothing.
            let mut groups: BTreeMap<String, (Arc<RpcEndpoint>, Vec<usize>)> = BTreeMap::new();
            let mut deferred: Vec<usize> = Vec::new();
            for &i in &pending {
                if let Some(ep) = candidates[i].get(round).cloned() {
                    let has_later = candidates[i].len() > round + 1;
                    if has_later && round < original_len[i] && !self.breaker_admit(ep.name()) {
                        candidates[i].push(ep);
                        deferred.push(i);
                        continue;
                    }
                    groups
                        .entry(ep.name().to_string())
                        .or_insert_with(|| (Arc::clone(&ep), Vec::new()))
                        .1
                        .push(i);
                }
                // Sub-queries whose walk is exhausted simply stay pending
                // and pick up `last_err` after the loop.
            }
            if groups.is_empty() && deferred.is_empty() {
                break;
            }
            let opts = CallOptions {
                deadline: deadline.as_ref().map(ArmedDeadline::remaining),
                degraded: degraded_opt,
                priority,
            };
            // One frame per endpoint, sent in endpoint-name order; they
            // form one round of the wire log.
            type FrameOutcome = (Vec<usize>, Result<RpcResponse>, FrameBytes);
            let outcomes: Vec<FrameOutcome> = groups
                .into_values()
                .map(|(ep, idxs)| {
                    self.attempts.inc();
                    if round > 0 {
                        self.retries.inc();
                    }
                    let request = RpcRequest::QueryBatch {
                        caller,
                        queries: idxs.iter().map(|&i| queries[i].clone()).collect(),
                    };
                    let (result, bytes) = self.attempt_once(&ep, &request, &opts);
                    (idxs, result, bytes)
                })
                .collect();

            let mut next_pending: Vec<usize> = pending
                .iter()
                .copied()
                .filter(|&i| candidates[i].get(round).is_none())
                .collect();
            next_pending.extend(deferred);
            let round_no = u32::try_from(round).unwrap_or(u32::MAX);
            for (idxs, out, bytes) in outcomes {
                // Failed frames are on the record too: a lost response
                // still delivered its request.
                wire.push(0, round_no, bytes);
                match out {
                    Ok(RpcResponse::QueryBatch(subs)) if subs.len() == idxs.len() => {
                        self.successes.inc();
                        for (&i, sub) in idxs.iter().zip(subs) {
                            match sub {
                                Ok(r) => slots[i] = Some(Ok(r)),
                                Err(e) if e.is_retryable() => {
                                    last_err = e;
                                    next_pending.push(i);
                                }
                                Err(e) => slots[i] = Some(Err(e)),
                            }
                        }
                    }
                    Ok(_) => {
                        self.failures.inc();
                        for &i in &idxs {
                            slots[i] = Some(Err(IpsError::Rpc("mismatched response type".into())));
                        }
                    }
                    Err(e) if e.is_retryable() => {
                        // Whole frame lost (endpoint down / transit loss):
                        // every sub-query in it advances to its next
                        // candidate.
                        last_err = e;
                        next_pending.extend(idxs);
                    }
                    Err(e) => {
                        self.failures.inc();
                        for &i in &idxs {
                            slots[i] = Some(Err(e.clone()));
                        }
                    }
                }
            }
            next_pending.sort_unstable();
            next_pending.dedup();
            pending = next_pending;
            round += 1;
        }
        for i in pending {
            self.failures.inc();
            slots[i] = Some(Err(last_err.clone()));
        }

        let results: Vec<Result<QueryResult>> = slots
            .into_iter()
            .map(|s| s.unwrap_or_else(|| Err(IpsError::Unavailable("unrouted sub-query".into()))))
            .collect();
        for r in results.iter().flatten() {
            if r.degraded {
                self.degraded.inc();
            }
        }
        root.set_attr(
            "ok",
            results.iter().filter(|r| r.is_ok()).count().to_string(),
        );
        Ok(BatchQueryOutcome { results, wire })
    }
}
