//! Per-caller weighted fair admission over the in-flight batch sub-query
//! budget ("the pool" below: `max_inflight_subqueries` units, not threads).
//!
//! Where quota answers "is this *caller* within its contract" (terminal for
//! the caller), admission answers "does this *replica* have capacity right
//! now" — rejects surface as [`IpsError::Overloaded`], which clients treat
//! as retryable on another replica.
//!
//! The old controller was a single inflight counter: first come, first
//! served, so one bulk tenant flooding batches could hold every slot and
//! starve interactive callers. This one keeps per-caller inflight
//! accounting and per-caller FIFO wait queues, and grants freed capacity by
//! weighted deficit — the waiting caller with the smallest
//! `inflight / weight` goes first, FIFO within a caller. A caller is shed
//! with `Overloaded` only once its *own* weighted share of the pool is
//! exhausted; below its share it briefly waits for another caller's permit
//! to free instead of being bounced by their load.
//!
//! With a single active caller its share is the whole pool, so the legacy
//! semantics hold exactly: a batch larger than the pool sheds immediately
//! and nothing ever waits (the pool being full implies the caller's own
//! share is exhausted).

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use ips_metrics::Counter;
use ips_types::{AdmissionConfig, ArmedDeadline, CallerId, IpsError, Result};

use super::{deadline, PipelineRequest, RequestKind, ServerStage, StageGuard};
use crate::server::IpsInstance;

/// How long one wait slice lasts; waiters re-check shed conditions (own
/// share exhausted, deadline expired) at least this often even if no
/// release wakes them.
const WAIT_SLICE: Duration = Duration::from_millis(1);

/// Wait-slice cap for requests without a deadline: after this many slices
/// a waiter gives up with `Overloaded` instead of blocking forever.
const MAX_WAIT_SLICES: u32 = 50;

/// One queued admission request.
struct Ticket {
    id: u64,
    units: usize,
}

/// Per-caller admission state: granted units, latest observed weight, and
/// the FIFO of waiting tickets.
#[derive(Default)]
struct CallerState {
    inflight: usize,
    weight: u64,
    queue: VecDeque<Ticket>,
}

impl CallerState {
    fn idle(&self) -> bool {
        self.inflight == 0 && self.queue.is_empty()
    }
}

#[derive(Default)]
struct FairState {
    /// Total granted units across all callers.
    inflight: usize,
    /// Monotonic ticket ids (arrival order within a caller's FIFO).
    next_ticket: u64,
    /// Only *active* callers (inflight > 0 or waiters queued) are kept;
    /// idle entries are removed so weights of long-gone callers do not
    /// dilute the share computation.
    callers: BTreeMap<CallerId, CallerState>,
}

impl FairState {
    fn total_weight(&self) -> u128 {
        self.callers
            .values()
            .map(|c| u128::from(c.weight.max(1)))
            .sum()
    }

    /// `caller`'s fair share of `limit` pool units, weighted against every
    /// currently-active caller. Never zero: each active caller can always
    /// make progress one unit at a time.
    fn share(&self, limit: usize, caller: CallerId) -> usize {
        let total = self.total_weight().max(1);
        let weight = self
            .callers
            .get(&caller)
            .map_or(1, |c| u128::from(c.weight.max(1)));
        ((limit as u128 * weight / total) as usize).max(1)
    }

    /// Would granting `units` more to `caller` exceed its weighted share?
    fn share_exhausted(&self, limit: usize, caller: CallerId, units: usize) -> bool {
        let own = self.callers.get(&caller).map_or(0, |c| c.inflight);
        own + units > self.share(limit, caller)
    }

    /// The weighted-deficit pick: among callers whose queue head fits in
    /// the remaining capacity, the one with the smallest
    /// `inflight / weight` (FIFO within a caller, smallest id on ties).
    fn deficit_pick(&self, limit: usize) -> Option<CallerId> {
        let mut best: Option<(CallerId, u128, u128)> = None;
        for (&caller, state) in &self.callers {
            let Some(head) = state.queue.front() else {
                continue;
            };
            if self.inflight + head.units > limit {
                continue;
            }
            let inflight = state.inflight as u128;
            let weight = u128::from(state.weight.max(1));
            let better = match best {
                None => true,
                // a/w_a < b/w_b  ⇔  a·w_b < b·w_a (cross-multiplied).
                Some((_, b_inflight, b_weight)) => inflight * b_weight < b_inflight * weight,
            };
            if better {
                best = Some((caller, inflight, weight));
            }
        }
        best.map(|(caller, _, _)| caller)
    }

    fn remove_ticket(&mut self, caller: CallerId, ticket: u64) {
        if let Some(state) = self.callers.get_mut(&caller) {
            state.queue.retain(|t| t.id != ticket);
        }
    }

    fn cleanup(&mut self, caller: CallerId) {
        if self.callers.get(&caller).is_some_and(CallerState::idle) {
            self.callers.remove(&caller);
        }
    }
}

/// Weighted fair admission control over the in-flight sub-query budget.
pub struct FairAdmission {
    /// Pool size in sub-query units; zero means unbounded.
    limit: usize,
    /// Inflight units across all paths (observability; includes the
    /// unbounded fast path, which never touches the mutex).
    observed: AtomicUsize,
    state: Mutex<FairState>,
    released: Condvar,
    /// Batches shed at admission.
    pub shed: Counter,
}

impl FairAdmission {
    #[must_use]
    pub fn new(config: AdmissionConfig) -> Self {
        Self {
            limit: config.max_inflight_subqueries,
            observed: AtomicUsize::new(0),
            state: Mutex::new(FairState::default()),
            released: Condvar::new(),
            shed: Counter::new(),
        }
    }

    /// Sub-queries currently executing.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.observed.load(Ordering::Relaxed)
    }

    /// Reserve `units` sub-query slots for `caller`, weighted by `weight`
    /// against the other active callers. The returned permit releases them
    /// on drop (including on panic), so shed accounting cannot leak.
    ///
    /// Below its share a caller waits (bounded by `deadline`, or a short
    /// backstop without one) for capacity held by *other* callers to free;
    /// at or past its share it sheds immediately with
    /// [`IpsError::Overloaded`]. A deadline that expires while queued
    /// surfaces as [`IpsError::DeadlineExceeded`] — the caller stopped
    /// waiting for the answer, not the replica being full.
    pub fn admit(
        &self,
        caller: CallerId,
        units: usize,
        weight: u64,
        deadline: Option<ArmedDeadline>,
    ) -> Result<FairPermit<'_>> {
        let units = units.max(1);
        if self.limit == 0 {
            // Unbounded: still track inflight for observability.
            self.observed.fetch_add(units, Ordering::AcqRel);
            return Ok(FairPermit {
                ctrl: self,
                caller,
                units,
                fair: false,
            });
        }

        let mut state = self.state.lock();
        state.callers.entry(caller).or_default().weight = weight.max(1);
        if state.share_exhausted(self.limit, caller, units) {
            return Err(self.shed_overloaded(&mut state, caller, None));
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        #[expect(clippy::expect_used, reason = "inserted above under the same lock")]
        state
            .callers
            .get_mut(&caller)
            .expect("caller registered above")
            .queue
            .push_back(Ticket { id: ticket, units });

        let mut slices: u32 = 0;
        loop {
            if self.grantable(&state, caller, ticket, units) {
                #[expect(clippy::expect_used, reason = "grantable() just found this ticket")]
                let caller_state = state
                    .callers
                    .get_mut(&caller)
                    .expect("queued caller is active");
                caller_state.queue.pop_front();
                caller_state.inflight += units;
                state.inflight += units;
                self.observed.fetch_add(units, Ordering::AcqRel);
                drop(state);
                // A grant changes the deficit ordering; let waiters
                // re-evaluate.
                self.released.notify_all();
                return Ok(FairPermit {
                    ctrl: self,
                    caller,
                    units,
                    fair: true,
                });
            }
            if state.share_exhausted(self.limit, caller, units) {
                return Err(self.shed_overloaded(&mut state, caller, Some(ticket)));
            }
            if deadline.is_some_and(|d| d.is_expired()) {
                state.remove_ticket(caller, ticket);
                state.cleanup(caller);
                drop(state);
                self.released.notify_all();
                return Err(IpsError::DeadlineExceeded);
            }
            slices += 1;
            if deadline.is_none() && slices > MAX_WAIT_SLICES {
                return Err(self.shed_overloaded(&mut state, caller, Some(ticket)));
            }
            self.released.wait_for(&mut state, WAIT_SLICE);
        }
    }

    /// Whether `ticket` can be granted right now: capacity available, the
    /// ticket is at the head of its caller's FIFO, and its caller is the
    /// weighted-deficit pick among all waiting callers.
    fn grantable(&self, state: &FairState, caller: CallerId, ticket: u64, units: usize) -> bool {
        if state.inflight + units > self.limit {
            return false;
        }
        let at_head = state
            .callers
            .get(&caller)
            .and_then(|c| c.queue.front())
            .is_some_and(|head| head.id == ticket);
        at_head && state.deficit_pick(self.limit) == Some(caller)
    }

    fn shed_overloaded(
        &self,
        state: &mut FairState,
        caller: CallerId,
        ticket: Option<u64>,
    ) -> IpsError {
        if let Some(ticket) = ticket {
            state.remove_ticket(caller, ticket);
        }
        let inflight = state.inflight;
        state.cleanup(caller);
        self.shed.inc();
        self.released.notify_all();
        IpsError::Overloaded {
            inflight: inflight as u64,
            limit: self.limit as u64,
        }
    }

    fn release(&self, caller: CallerId, units: usize, fair: bool) {
        self.observed.fetch_sub(units, Ordering::AcqRel);
        if !fair {
            return;
        }
        let mut state = self.state.lock();
        state.inflight = state.inflight.saturating_sub(units);
        if let Some(caller_state) = state.callers.get_mut(&caller) {
            caller_state.inflight = caller_state.inflight.saturating_sub(units);
        }
        state.cleanup(caller);
        drop(state);
        self.released.notify_all();
    }
}

/// A reservation of in-flight sub-query budget; releases on drop.
pub struct FairPermit<'a> {
    ctrl: &'a FairAdmission,
    caller: CallerId,
    units: usize,
    fair: bool,
}

impl Drop for FairPermit<'_> {
    fn drop(&mut self) {
        self.ctrl.release(self.caller, self.units, self.fair);
    }
}

/// The pipeline stage wiring fair admission into batched reads. Weights
/// come from the caller's configured quota (`qps_limit`): the tenant a
/// cluster operator granted the larger contract also gets the larger share
/// of a contended budget.
pub(crate) struct AdmissionStage;

impl ServerStage for AdmissionStage {
    fn name(&self) -> &'static str {
        "admission"
    }

    fn admit<'a>(
        &self,
        inst: &'a IpsInstance,
        req: &PipelineRequest<'_>,
    ) -> Result<Option<StageGuard<'a>>> {
        if req.kind != RequestKind::ReadBatch {
            return Ok(None);
        }
        let weight = inst.quota.weight_for(req.ctx.caller);
        let permit = inst
            .admission
            .admit(req.ctx.caller, req.units, weight, req.ctx.deadline)
            .map_err(|e| match e {
                // Expiry while queued is a deadline shed; record it as one.
                IpsError::DeadlineExceeded => deadline::record_shed(inst),
                other => other,
            })?;
        Ok(Some(StageGuard::Admission(permit)))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    fn fair(limit: usize) -> FairAdmission {
        FairAdmission::new(AdmissionConfig {
            max_inflight_subqueries: limit,
        })
    }

    const A: CallerId = CallerId(1);
    const B: CallerId = CallerId(2);

    #[test]
    fn admission_sheds_over_capacity_and_releases_on_drop() {
        let ctrl = fair(10);
        let p1 = ctrl.admit(A, 6, 1, None).unwrap();
        let p2 = ctrl.admit(A, 4, 1, None).unwrap();
        assert_eq!(ctrl.inflight(), 10);
        let err = ctrl.admit(A, 1, 1, None).map(|_| ()).unwrap_err();
        assert!(err.is_overload(), "got {err}");
        assert!(err.is_retryable(), "overload must be retryable elsewhere");
        assert_eq!(ctrl.shed.get(), 1);
        drop(p1);
        assert_eq!(ctrl.inflight(), 4);
        let _p3 = ctrl.admit(A, 6, 1, None).unwrap();
        drop(p2);
    }

    #[test]
    fn admission_unbounded_by_default() {
        let ctrl = FairAdmission::new(AdmissionConfig::default());
        let permits: Vec<_> = (0..64)
            .map(|_| ctrl.admit(A, 1000, 1, None).unwrap())
            .collect();
        assert_eq!(ctrl.inflight(), 64_000, "inflight still observable");
        assert_eq!(ctrl.shed.get(), 0);
        drop(permits);
        assert_eq!(ctrl.inflight(), 0);
    }

    #[test]
    fn single_caller_batch_larger_than_pool_sheds_immediately() {
        let ctrl = fair(4);
        let err = ctrl.admit(A, 5, 1, None).map(|_| ()).unwrap_err();
        assert!(err.is_overload(), "got {err}");
        assert_eq!(ctrl.shed.get(), 1);
        assert_eq!(ctrl.inflight(), 0, "failed admit leaks nothing");
    }

    #[test]
    fn share_splits_by_weight_between_active_callers() {
        let ctrl = fair(12);
        // A (weight 3) becomes active with 9 units = its full 3/4 share.
        let _pa = ctrl.admit(A, 9, 3, None).unwrap();
        // B (weight 1) activates: its share is 12·1/4 = 3.
        let _pb = ctrl.admit(B, 3, 1, None).unwrap();
        // A is now past its share (9 = 12·3/4): one more unit sheds
        // without waiting, even though nothing else is queued.
        let err = ctrl.admit(A, 1, 3, None).map(|_| ()).unwrap_err();
        assert!(err.is_overload(), "got {err}");
        // B still has headroom? No: 3 = its exact share, so B sheds too.
        let err = ctrl.admit(B, 1, 1, None).map(|_| ()).unwrap_err();
        assert!(err.is_overload(), "got {err}");
    }

    #[test]
    fn waiter_below_share_gets_capacity_when_peer_releases() {
        let ctrl = Arc::new(fair(4));
        // A (weight 1) fills the whole pool while alone (share = 4).
        let pa = ctrl.admit(A, 4, 1, None).unwrap();
        // B (weight 1) now activates; its share is 2, so 1 unit must not
        // shed — it waits for A to free capacity.
        let ctrl2 = Arc::clone(&ctrl);
        let waiter = std::thread::spawn(move || ctrl2.admit(B, 1, 1, None).map(drop));
        // Give the waiter time to enqueue, then release A.
        #[expect(clippy::disallowed_methods, reason = "a real cross-thread handoff")]
        std::thread::sleep(Duration::from_millis(5));
        drop(pa);
        waiter
            .join()
            .unwrap()
            .expect("waiter below its share is granted, not shed");
        assert_eq!(ctrl.inflight(), 0);
    }

    #[test]
    fn over_share_caller_sheds_while_peer_is_served() {
        let ctrl = fair(8);
        // A grabbed 6 of 8 while alone; B activates with 2 (pool full).
        let _pa = ctrl.admit(A, 6, 1, None).unwrap();
        let pb = ctrl.admit(B, 2, 1, None).unwrap();
        // With both active, equal weights give each a share of 4. A is
        // past its share: more A work sheds without bouncing B.
        let err = ctrl.admit(A, 2, 1, None).map(|_| ()).unwrap_err();
        assert!(err.is_overload(), "got {err}");
        // B, releasing and re-requesting within its share, is granted.
        drop(pb);
        let _pb2 = ctrl.admit(B, 2, 1, None).unwrap();
    }

    #[test]
    fn deadline_expiry_while_queued_is_a_deadline_error() {
        use ips_types::Deadline;
        let ctrl = Arc::new(fair(4));
        let pa = ctrl.admit(A, 4, 1, None).unwrap();
        let ctrl2 = Arc::clone(&ctrl);
        // B waits with an already-short deadline and nothing ever
        // releases before it expires.
        let waiter = std::thread::spawn(move || {
            let deadline = Deadline::from_budget_us(2_000).arm();
            ctrl2.admit(B, 1, 1, Some(deadline)).map(drop)
        });
        let err = waiter.join().unwrap().unwrap_err();
        assert!(
            matches!(err, IpsError::DeadlineExceeded),
            "queued past its deadline: got {err}"
        );
        drop(pa);
        assert_eq!(ctrl.inflight(), 0);
    }

    #[test]
    fn no_deadline_waiter_backstops_to_overloaded() {
        let ctrl = Arc::new(fair(2));
        let pa = ctrl.admit(A, 2, 1, None).unwrap();
        let ctrl2 = Arc::clone(&ctrl);
        let waiter = std::thread::spawn(move || ctrl2.admit(B, 1, 1, None).map(drop).unwrap_err());
        let err = waiter.join().unwrap();
        assert!(err.is_overload(), "backstop sheds, got {err}");
        drop(pa);
    }
}
