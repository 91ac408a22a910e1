//! Write orchestration: the all-region fan-outs (Fig 15: "upstream
//! applications write data to all IPS instances regardless of region"),
//! single-profile and batched. Writes carry the deadline and priority but
//! never the degraded opt-in.

use std::collections::BTreeMap;
use std::sync::Arc;

use ips_types::clock::monotonic_micros;
use ips_types::{
    ActionTypeId, CallerId, CountVector, Deadline, FeatureId, IpsError, ProfileId, Result, SlotId,
    TableId, Timestamp,
};

use super::{IpsClusterClient, LatencyBreakdown};
use crate::rpc::{CallOptions, ProfileWrite, RpcEndpoint, RpcRequest};

impl IpsClusterClient {
    /// Write one batch of features to **every region** (the ingestion-side
    /// fan-out). Succeeds if at least one region accepted; per-region
    /// failures are retried within the region and then counted.
    #[allow(clippy::too_many_arguments, reason = "the paper's add_profile API")]
    pub fn add_profiles(
        &self,
        caller: CallerId,
        table: TableId,
        pid: ProfileId,
        at: Timestamp,
        slot: SlotId,
        action: ActionTypeId,
        features: &[(FeatureId, CountVector)],
    ) -> Result<LatencyBreakdown> {
        let request = RpcRequest::Add {
            caller,
            table,
            profile: pid,
            at,
            slot,
            action,
            features: features.to_vec(),
        };
        let regions = self.regions();
        if regions.is_empty() {
            self.attempts.inc();
            self.failures.inc();
            return Err(IpsError::Unavailable("no regions discovered".into()));
        }
        let mut root = self.root_span("add_profiles", caller);
        root.set_attr("regions", regions.len().to_string());
        self.write_each_region(&mut root, &regions, |region| {
            let started_us = monotonic_micros();
            let (_, network_us) =
                self.call_with_failover(pid, &request, std::slice::from_ref(region))?;
            Ok(LatencyBreakdown::from_call(
                monotonic_micros().saturating_sub(started_us),
                network_us,
                0,
            ))
        })
    }

    /// Write to every region in turn on the calling thread. The *modeled*
    /// write latency is the slowest region, not the sum — no region ever
    /// waits on another's wire time. Succeeds if at least one region
    /// accepted.
    fn write_each_region(
        &self,
        root: &mut ips_trace::Span,
        regions: &[String],
        mut write: impl FnMut(&String) -> Result<LatencyBreakdown>,
    ) -> Result<LatencyBreakdown> {
        let mut any_ok = false;
        let mut worst = LatencyBreakdown::default();
        let mut last_err = IpsError::Unavailable("no healthy instance".into());
        for region in regions {
            match write(region) {
                Ok(breakdown) => {
                    any_ok = true;
                    if breakdown.total_us() > worst.total_us() {
                        worst = breakdown;
                    }
                }
                Err(e) => last_err = e,
            }
        }
        if any_ok {
            Ok(worst)
        } else {
            root.set_error(last_err.to_string());
            Err(last_err)
        }
    }

    /// Write many profiles in one shot: writes are grouped by owning
    /// instance (per region, via the consistent-hash ring) into
    /// [`RpcRequest::AddBatch`] frames, so a multi-profile ingest pays one
    /// frame per owner (modeled: the slowest frame) instead of one call
    /// per profile. A frame that fails falls back to per-profile writes
    /// with the usual in-region failover. Succeeds if every region
    /// accepted every write through one path or the other.
    pub fn add_batch(&self, caller: CallerId, writes: &[ProfileWrite]) -> Result<LatencyBreakdown> {
        if writes.is_empty() {
            return Ok(LatencyBreakdown::default());
        }
        let regions = self.regions();
        if regions.is_empty() {
            self.attempts.inc();
            self.failures.inc();
            return Err(IpsError::Unavailable("no regions discovered".into()));
        }
        let mut root = self.root_span("add_profiles", caller);
        root.set_attr("writes", writes.len().to_string());
        self.write_each_region(&mut root, &regions, |region| {
            self.add_batch_in_region(caller, writes, region)
        })
    }

    fn add_batch_in_region(
        &self,
        caller: CallerId,
        writes: &[ProfileWrite],
        region: &str,
    ) -> Result<LatencyBreakdown> {
        let started_us = monotonic_micros();
        // Group writes by the profile's owner in this region.
        let mut dispatch = ips_trace::child("client_dispatch");
        dispatch.set_attr("region", region);
        let mut groups: BTreeMap<String, (Arc<RpcEndpoint>, Vec<ProfileWrite>)> = BTreeMap::new();
        let mut unroutable = false;
        for w in writes {
            match self
                .candidates_in_region(region, w.profile)
                .into_iter()
                .next()
            {
                Some(ep) => groups
                    .entry(ep.name().to_string())
                    .or_insert_with(|| (ep, Vec::new()))
                    .1
                    .push(w.clone()),
                None => unroutable = true,
            }
        }
        drop(dispatch);
        if unroutable || groups.is_empty() {
            return Err(IpsError::Unavailable(format!(
                "no healthy instance in {region}"
            )));
        }
        // Writes carry the deadline and priority too (an expired write is
        // not applied), but never the degraded opt-in.
        let opts = CallOptions {
            deadline: self.request_deadline.read().map(Deadline::from_budget),
            degraded: None,
            priority: self.request_priority(),
        };
        // One frame per owner, sent in endpoint-name order before any
        // outcome is acted on; the region's modeled network time is the
        // slowest frame.
        let outcomes: Vec<(Vec<ProfileWrite>, Result<u64>)> = groups
            .into_values()
            .map(|(ep, group)| {
                self.attempts.inc();
                let request = RpcRequest::AddBatch {
                    caller,
                    writes: group.clone(),
                };
                let (result, cost) = self.attempt_once(&ep, &request, &opts);
                let out = result.map(|_| cost.total_us());
                if out.is_ok() {
                    self.successes.inc();
                }
                (group, out)
            })
            .collect();
        let mut network_us = 0u64;
        for (group, out) in outcomes {
            match out {
                Ok(net) => network_us = network_us.max(net),
                Err(e) if e.is_retryable() => {
                    // Frame failed in transit or the owner is down: fall back
                    // to per-profile writes with the normal failover walk.
                    for w in &group {
                        let request = RpcRequest::Add {
                            caller,
                            table: w.table,
                            profile: w.profile,
                            at: w.at,
                            slot: w.slot,
                            action: w.action,
                            features: w.features.clone(),
                        };
                        let (_, net) = self.call_with_failover(
                            w.profile,
                            &request,
                            std::slice::from_ref(&region.to_string()),
                        )?;
                        network_us = network_us.max(net);
                    }
                }
                Err(e) => {
                    self.failures.inc();
                    return Err(e);
                }
            }
        }
        Ok(LatencyBreakdown::from_call(
            monotonic_micros().saturating_sub(started_us),
            network_us,
            0,
        ))
    }

    /// Convenience single-feature write.
    #[allow(clippy::too_many_arguments, reason = "the paper's add_profile API")]
    pub fn add_profile(
        &self,
        caller: CallerId,
        table: TableId,
        pid: ProfileId,
        at: Timestamp,
        slot: SlotId,
        action: ActionTypeId,
        feature: FeatureId,
        counts: CountVector,
    ) -> Result<LatencyBreakdown> {
        self.add_profiles(caller, table, pid, at, slot, action, &[(feature, counts)])
    }
}
