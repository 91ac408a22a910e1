//! Retry/failover interceptor: one owner-then-siblings-then-regions sweep,
//! shed client-side once the request deadline has run out.

use ips_types::{ArmedDeadline, IpsError, ProfileId, Result};

use crate::client::{IpsClusterClient, WireLog};
use crate::rpc::{CallOptions, RpcRequest, RpcResponse};

impl IpsClusterClient {
    /// Walk `pid`'s candidates in `regions` once, stopping at the first
    /// success or terminal error. Each attempt's bytes go to `wire` as the
    /// next round of `lane`: attempts of one walk run one after another.
    pub(in crate::client) fn call_with_failover(
        &self,
        pid: ProfileId,
        request: &RpcRequest,
        regions: &[String],
        deadline: Option<&ArmedDeadline>,
        wire: &mut WireLog,
        lane: u32,
    ) -> Result<RpcResponse> {
        self.attempts.inc();
        let degraded = *self.degraded_reads.read();
        let priority = self.request_priority();
        let mut sweep = Vec::new();
        for region in regions {
            sweep.extend(self.candidates_in_region(region, pid));
        }
        let mut last_err = IpsError::Unavailable("no healthy instance".into());
        // Breaker-blocked candidates are demoted to the end of the sweep,
        // not excluded from it: when every admitted candidate fails, the
        // walk continues into the blocked ones. A breaker may reorder the
        // walk but never shrink it — otherwise a stale open breaker could
        // turn a single crashed node into a client-visible outage.
        for (tries, ep) in self.demote_blocked(sweep).into_iter().enumerate() {
            if deadline.is_some_and(ArmedDeadline::is_expired) {
                last_err = IpsError::DeadlineExceeded;
                break; // latency budget exhausted: shed
            }
            if tries > 0 {
                self.retries.inc();
            }
            let opts = CallOptions {
                deadline: deadline.map(ArmedDeadline::remaining),
                degraded,
                priority,
            };
            let (result, bytes) = self.attempt_once(&ep, request, &opts);
            wire.push(lane, wire.next_round(lane), bytes);
            match result {
                Ok(response) => {
                    self.successes.inc();
                    return Ok(response);
                }
                Err(e) if e.is_retryable() => last_err = e,
                Err(e) => {
                    // Terminal (quota, invalid request, deadline): do not
                    // mask it by retrying elsewhere.
                    self.failures.inc();
                    return Err(e);
                }
            }
        }
        self.failures.inc();
        Err(last_err)
    }
}
