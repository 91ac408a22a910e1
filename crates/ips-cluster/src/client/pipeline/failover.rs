//! The dispatch core: the one failover walk every client call runs.
//!
//! A call is a list of items — a query, a batch's sub-queries, or a
//! write's profiles in one region — each keyed by its profile. A single
//! call is a batch of one. The walk runs in rounds: every unsettled item is
//! grouped on its current candidate, one frame goes to each endpoint, and
//! an item whose frame or sub-result failed retryably moves on to its next
//! candidate for the next round. Terminal errors settle the item where it
//! stands; an item never poisons its siblings.
//!
//! The walk's contract:
//!
//! * **Candidate order.** Ring candidates come first (owner, then
//!   siblings), the home region before the other regions in name order; a
//!   handoff's previous owner is last in its region. A remote region's
//!   candidates are resolved only when an item's walk runs out of the
//!   regions before it. Breaker-blocked candidates come after all of
//!   these, in the order they were met.
//! * **The breaker is lazy.** It is asked only about an endpoint a frame is
//!   about to go to, once per endpoint per round, and every item grouped
//!   there shares the verdict. A blocked endpoint is demoted to the end of
//!   each affected item's walk once, and the item takes its next candidate
//!   in the same round. A demoted copy is attempted without asking again
//!   (traced as `breaker_fail_open`): a breaker may reorder a walk, never
//!   shrink it, so it can never cause an outage by itself.
//! * **Deadline and frame order.** The call's armed deadline is checked
//!   before each round; a round's frames go out in endpoint-name order.
//! * **One counting unit.** `attempts`, `successes`, `failures` and
//!   `retries` count items: one attempt per item when the call starts, a
//!   retry each time an item is re-sent to its next candidate, and one
//!   success or failure when the item settles.

use std::borrow::Cow;
use std::sync::Arc;

use ips_types::clock::monotonic_micros;
use ips_types::{ArmedDeadline, IpsError, ProfileId, Result};

use crate::client::{IpsClusterClient, Lane, WireLog};
use crate::rpc::{CallOptions, RpcEndpoint, RpcRequest, RpcResponse};

/// One item's place in its failover walk.
#[derive(Default)]
struct Walk {
    pid: ProfileId,
    /// Ring candidates of the regions resolved so far.
    ring: Vec<Arc<RpcEndpoint>>,
    /// The next region to resolve into `ring`; `None` once the lane has no
    /// more.
    next_region: Option<usize>,
    /// Breaker-blocked candidates, tried after every ring candidate.
    demoted: Vec<Arc<RpcEndpoint>>,
    /// Position in `ring`, then in `demoted`.
    next: usize,
    /// Whether the item was sent before: sending it again is a retry.
    sent: bool,
    /// The last retryable error, reported if the walk runs out.
    last_err: Option<IpsError>,
}

impl Walk {
    /// The item's current candidate and whether it is a demoted copy, or
    /// `None` once the walk is exhausted. Resolves the next region only
    /// when the ones before it have run out.
    fn current(
        &mut self,
        client: &IpsClusterClient,
        lane: Lane,
    ) -> Option<(Arc<RpcEndpoint>, bool)> {
        while self.next >= self.ring.len() {
            let Some(k) = self.next_region else { break };
            self.next_region = client
                .extend_candidates(lane, k, self.pid, &mut self.ring)
                .then_some(k + 1);
        }
        match self.ring.get(self.next) {
            Some(ep) => Some((Arc::clone(ep), false)),
            None => self
                .demoted
                .get(self.next - self.ring.len())
                .map(|ep| (Arc::clone(ep), true)),
        }
    }
}

/// One round's frame to one endpoint.
struct Frame {
    ep: Arc<RpcEndpoint>,
    /// The breaker's verdict for this round, asked on first need.
    admitted: Option<bool>,
    /// Whether a demoted copy rides this frame (routing failed open).
    fail_open: bool,
    items: Vec<usize>,
}

impl IpsClusterClient {
    /// Run one call's items through the failover walk of `lane` and return
    /// one result per item, in input order. `frame` builds the request for
    /// the items (by index) grouped on one endpoint; `split` turns its reply
    /// into one result per item (given their count), or `None` when the
    /// reply has the wrong type. Every frame's bytes go to `wire` under the
    /// lane, tagged with its round.
    pub(in crate::client) fn dispatch<'r, T, I>(
        &self,
        lane: Lane,
        deadline: Option<&ArmedDeadline>,
        pids: impl IntoIterator<Item = ProfileId>,
        wire: &mut WireLog,
        mut frame: impl FnMut(&[usize]) -> Cow<'r, RpcRequest>,
        mut split: impl FnMut(RpcResponse, usize) -> Option<I>,
    ) -> Vec<Result<T>>
    where
        I: ExactSizeIterator<Item = Result<T>>,
    {
        let mut walks: Vec<Walk> = pids
            .into_iter()
            .map(|pid| Walk {
                pid,
                next_region: Some(0),
                ..Walk::default()
            })
            .collect();
        let mut results: Vec<Option<Result<T>>> = Vec::new();
        results.resize_with(walks.len(), || None);
        self.attempts.add(walks.len() as u64);
        // Writes carry the deadline and priority too (an expired write is
        // not applied), but never the degraded opt-in.
        let base = CallOptions {
            deadline: None,
            degraded: match lane {
                Lane::Read => *self.degraded_reads.read(),
                Lane::Write(_) => None,
            },
            priority: self.request_priority(),
        };
        let mut round = 0;
        while results.iter().any(Option::is_none) {
            // Client-side shed: work nobody is waiting for is not sent.
            if deadline.is_some_and(ArmedDeadline::is_expired) {
                for slot in results.iter_mut().filter(|s| s.is_none()) {
                    self.failures.inc();
                    *slot = Some(Err(IpsError::DeadlineExceeded));
                }
                break;
            }
            let dispatch = ips_trace::child("client_dispatch");
            let mut frames: Vec<Frame> = Vec::new();
            for (i, walk) in walks.iter_mut().enumerate() {
                if results[i].is_some() {
                    continue;
                }
                loop {
                    let Some((ep, demoted)) = walk.current(self, lane) else {
                        self.failures.inc();
                        let e = walk.last_err.take();
                        results[i] = Some(Err(e.unwrap_or_else(|| {
                            IpsError::Unavailable("no healthy instance".into())
                        })));
                        break;
                    };
                    let at = match frames.binary_search_by(|f| f.ep.name().cmp(ep.name())) {
                        Ok(at) => at,
                        Err(at) => {
                            let f = Frame {
                                ep,
                                admitted: None,
                                fail_open: false,
                                items: Vec::new(),
                            };
                            frames.insert(at, f);
                            at
                        }
                    };
                    let f = &mut frames[at];
                    if !demoted
                        && !*f.admitted.get_or_insert_with(|| {
                            self.health
                                .for_endpoint(f.ep.name())
                                .try_admit(monotonic_micros())
                        })
                    {
                        walk.demoted.push(Arc::clone(&f.ep));
                        walk.next += 1;
                        continue;
                    }
                    f.fail_open |= demoted;
                    f.items.push(i);
                    break;
                }
            }
            drop(dispatch);
            let opts = CallOptions {
                deadline: deadline.map(ArmedDeadline::remaining),
                ..base
            };
            for f in frames.iter().filter(|f| !f.items.is_empty()) {
                for &i in &f.items {
                    if std::mem::replace(&mut walks[i].sent, true) {
                        self.retries.inc();
                    }
                }
                if f.fail_open {
                    let mut span = ips_trace::child("breaker_fail_open");
                    span.set_attr("endpoint", f.ep.name());
                }
                let (reply, bytes) = self.attempt_once(&f.ep, &frame(&f.items), &opts);
                // Failed frames are on the record too: a lost response
                // still delivered its request.
                wire.push(lane.index(), round, bytes);
                match reply.map(|r| split(r, f.items.len())) {
                    Ok(Some(subs)) if subs.len() == f.items.len() => {
                        for (&i, sub) in f.items.iter().zip(subs) {
                            self.settle(&mut walks[i], &mut results[i], sub);
                        }
                    }
                    Ok(_) => {
                        for &i in &f.items {
                            self.failures.inc();
                            results[i] =
                                Some(Err(IpsError::Rpc("mismatched response type".into())));
                        }
                    }
                    Err(e) => {
                        for &i in &f.items {
                            self.settle(&mut walks[i], &mut results[i], Err(e.clone()));
                        }
                    }
                }
            }
            round += 1;
        }
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Err(IpsError::Unavailable("unsettled item".into()))))
            .collect()
    }

    /// Settle one item on its outcome, or move it on to its next candidate
    /// when the error is retryable.
    fn settle<T>(&self, walk: &mut Walk, slot: &mut Option<Result<T>>, outcome: Result<T>) {
        match outcome {
            Ok(v) => {
                self.successes.inc();
                *slot = Some(Ok(v));
            }
            Err(e) if e.is_retryable() => {
                walk.last_err = Some(e);
                walk.next += 1;
            }
            Err(e) => {
                // Terminal (quota, invalid request, deadline): retrying
                // elsewhere would only mask it.
                self.failures.inc();
                *slot = Some(Err(e));
            }
        }
    }
}
