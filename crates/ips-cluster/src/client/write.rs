//! Write orchestration: the all-region fan-outs (Fig 15: "upstream
//! applications write data to all IPS instances regardless of region"),
//! single-profile and batched. Each region is one lane of the call's
//! [`WireLog`]; one armed deadline covers every region, frame and fallback.

use std::collections::BTreeMap;
use std::sync::Arc;

use ips_types::{
    ActionTypeId, ArmedDeadline, CallerId, CountVector, FeatureId, IpsError, ProfileId, Result,
    SlotId, TableId, Timestamp,
};

use super::{IpsClusterClient, WireLog};
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
    ) -> Result<WireLog> {
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
        let deadline = self.arm_deadline();
        let mut wire = WireLog::default();
        self.write_each_region(&mut root, &regions, |lane, region| {
            self.call_with_failover(
                pid,
                &request,
                std::slice::from_ref(region),
                deadline.as_ref(),
                &mut wire,
                lane,
            )
            .map(drop)
        })?;
        Ok(wire)
    }

    /// Write to every region in turn on the calling thread, passing each
    /// its lane (region index) in the call's wire log. No region waits on
    /// another's outcome, so a pricer charges the slowest lane. Succeeds if
    /// at least one region accepted.
    fn write_each_region(
        &self,
        root: &mut ips_trace::Span,
        regions: &[String],
        mut write: impl FnMut(u32, &String) -> Result<()>,
    ) -> Result<()> {
        let mut any_ok = false;
        let mut last_err = IpsError::Unavailable("no healthy instance".into());
        for (lane, region) in (0u32..).zip(regions) {
            match write(lane, region) {
                Ok(()) => any_ok = true,
                Err(e) => last_err = e,
            }
        }
        if any_ok {
            Ok(())
        } else {
            root.set_error(last_err.to_string());
            Err(last_err)
        }
    }

    /// Write many profiles in one shot: writes are grouped by owning
    /// instance (per region, via the consistent-hash ring) into
    /// [`RpcRequest::AddBatch`] frames, so a multi-profile ingest pays one
    /// frame per owner instead of one call per profile. A frame that fails
    /// falls back to per-profile writes with the usual in-region failover,
    /// in later rounds of the region's lane. Succeeds if at least one
    /// region accepted every write through one path or the other.
    pub fn add_batch(&self, caller: CallerId, writes: &[ProfileWrite]) -> Result<WireLog> {
        if writes.is_empty() {
            return Ok(WireLog::default());
        }
        let regions = self.regions();
        if regions.is_empty() {
            self.attempts.inc();
            self.failures.inc();
            return Err(IpsError::Unavailable("no regions discovered".into()));
        }
        let mut root = self.root_span("add_profiles", caller);
        root.set_attr("writes", writes.len().to_string());
        let deadline = self.arm_deadline();
        let mut wire = WireLog::default();
        self.write_each_region(&mut root, &regions, |lane, region| {
            self.add_batch_in_region(caller, writes, region, deadline.as_ref(), &mut wire, lane)
        })?;
        Ok(wire)
    }

    fn add_batch_in_region(
        &self,
        caller: CallerId,
        writes: &[ProfileWrite],
        region: &String,
        deadline: Option<&ArmedDeadline>,
        wire: &mut WireLog,
        lane: u32,
    ) -> Result<()> {
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
            deadline: deadline.map(ArmedDeadline::remaining),
            degraded: None,
            priority: self.request_priority(),
        };
        // One frame per owner, sent in endpoint-name order before any
        // outcome is acted on: round 0 of the region's lane.
        let outcomes: Vec<(Vec<ProfileWrite>, Result<()>)> = groups
            .into_values()
            .map(|(ep, group)| {
                self.attempts.inc();
                let request = RpcRequest::AddBatch {
                    caller,
                    writes: group.clone(),
                };
                let (result, bytes) = self.attempt_once(&ep, &request, &opts);
                wire.push(lane, 0, bytes);
                let out = result.map(drop);
                if out.is_ok() {
                    self.successes.inc();
                }
                (group, out)
            })
            .collect();
        for (group, out) in outcomes {
            match out {
                Ok(()) => {}
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
                        self.call_with_failover(
                            w.profile,
                            &request,
                            std::slice::from_ref(region),
                            deadline,
                            wire,
                            lane,
                        )?;
                    }
                }
                Err(e) => {
                    self.failures.inc();
                    return Err(e);
                }
            }
        }
        Ok(())
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
    ) -> Result<WireLog> {
        self.add_profiles(caller, table, pid, at, slot, action, &[(feature, counts)])
    }
}
