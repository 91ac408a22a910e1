//! Read orchestration: the single-profile query and the batched
//! candidate-ranking fan-out. Both compose the pipeline interceptors —
//! deadline charge, breaker demotion, failover, per-attempt tracing.

use std::collections::BTreeMap;
use std::sync::Arc;

use ips_core::query::{ProfileQuery, QueryResult};
use ips_types::clock::monotonic_micros;
use ips_types::{CallerId, IpsError, Result};

use super::pipeline::deadline::DeadlineCharge;
use super::{BatchQueryOutcome, IpsClusterClient, LatencyBreakdown};
use crate::rpc::{CallOptions, RpcEndpoint, RpcRequest, RpcResponse, WireCost};

impl IpsClusterClient {
    /// Query the **local region**, failing over within it and then to other
    /// regions (§III-G: "when a region fails, the other regions are able to
    /// take over").
    pub fn query(
        &self,
        caller: CallerId,
        query: &ProfileQuery,
    ) -> Result<(QueryResult, LatencyBreakdown)> {
        let request = RpcRequest::Query {
            caller,
            query: query.clone(),
        };
        let mut root = self.root_span("query", caller);
        root.set_attr(ips_trace::attrs::CALLER, caller.to_string());
        root.set_attr(ips_trace::attrs::PRIORITY, self.request_priority().label());
        let started_us = monotonic_micros();
        // Home region first, then the rest.
        let dispatch = ips_trace::child("client_dispatch");
        let regions = self.read_regions();
        drop(dispatch);
        let outcome = self.call_with_failover(query.profile, &request, &regions);
        let elapsed_us = monotonic_micros().saturating_sub(started_us);
        let (response, network_us) = match outcome {
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
        let storage_us = {
            // Model the persistent-store work the server reported (zero on
            // a pure hit).
            let mut rng = self.storage_rng.lock();
            self.modeled_storage_us(&result, &mut rng)
        };
        Ok((
            result,
            LatencyBreakdown::from_call(elapsed_us, network_us, storage_us),
        ))
    }

    /// Query many profiles in one fan-out (the candidate-ranking path).
    ///
    /// Sub-queries are grouped by their owning instance on the home
    /// region's consistent-hash ring, one [`RpcRequest::QueryBatch`] frame
    /// per owner — the whole batch pays one (modeled: slowest-frame) network
    /// round-trip instead of one per profile. Failover is per sub-query:
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
        let started_us = monotonic_micros();
        // Deadline and degraded opt-in ride every frame; modeled time (wire
        // per round) is charged against the budget between rounds.
        let mut charge = DeadlineCharge::arm(*self.request_deadline.read());
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
        let mut network_us = 0u64;

        let mut round = 0;
        while round < candidates.iter().map(Vec::len).max().unwrap_or(0) {
            if pending.is_empty() {
                break;
            }
            // Client-side shed: a batch whose budget ran out between rounds
            // stops fanning out work nobody is waiting for.
            if charge.is_expired() {
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
                deadline: charge.remaining(),
                degraded: degraded_opt,
                priority,
            };
            // One frame per endpoint, sent in endpoint-name order; within a
            // round the batch's *modeled* network time is the slowest frame.
            type FrameOutcome = (Vec<usize>, Result<RpcResponse>, WireCost);
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
                    let (result, cost) = self.attempt_once(&ep, &request, &opts);
                    (idxs, result, cost)
                })
                .collect();

            let mut round_net = 0u64;
            let mut next_pending: Vec<usize> = pending
                .iter()
                .copied()
                .filter(|&i| candidates[i].get(round).is_none())
                .collect();
            next_pending.extend(deferred);
            for (idxs, out, cost) in outcomes {
                // Failed frames paid wire time too: the modeled round still
                // waits on the slowest frame, lost or not, so the failed
                // attempt's cost competes in the max.
                round_net = round_net.max(cost.total_us());
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
            network_us += round_net;
            charge.charge(round_net);
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
        // Misses fetch from the persistent store server-side; the modeled
        // storage time of the batch is the slowest fetch.
        let mut storage_us = 0u64;
        {
            let mut rng = self.storage_rng.lock();
            for r in results.iter().flatten() {
                storage_us = storage_us.max(self.modeled_storage_us(r, &mut rng));
            }
        }
        root.set_attr(
            "ok",
            results.iter().filter(|r| r.is_ok()).count().to_string(),
        );
        Ok(BatchQueryOutcome {
            results,
            latency: LatencyBreakdown::from_call(
                monotonic_micros().saturating_sub(started_us),
                network_us,
                storage_us,
            ),
        })
    }
}
