//! Write orchestration: the all-region fan-outs (Fig 15: "upstream
//! applications write data to all IPS instances regardless of region"),
//! single-profile and batched. Each region is one dispatch of the core
//! (`pipeline::failover`) and one lane of the call's [`WireLog`]; one armed
//! deadline covers every region, frame and retry.

use std::borrow::Cow;

use ips_types::{
    ActionTypeId, CallerId, CountVector, FeatureId, IpsError, ProfileId, Result, SlotId, TableId,
    Timestamp,
};

use super::{IpsClusterClient, Lane, WireLog};
use crate::rpc::{ProfileWrite, RpcRequest, RpcResponse};

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
        self.write_all_regions(caller, std::iter::once(pid), |_| Cow::Borrowed(&request))
    }

    /// Write many profiles in one shot: in each region the writes are
    /// grouped by their current candidate into [`RpcRequest::AddBatch`]
    /// frames, so a multi-profile ingest pays one frame per owner instead of
    /// one call per profile. A failed frame's writes move on, still grouped,
    /// to their next candidates. Succeeds if at least one region accepted
    /// every write.
    pub fn add_batch(&self, caller: CallerId, writes: &[ProfileWrite]) -> Result<WireLog> {
        if writes.is_empty() {
            return Ok(WireLog::default());
        }
        self.write_all_regions(caller, writes.iter().map(|w| w.profile), |items| {
            Cow::Owned(RpcRequest::AddBatch {
                caller,
                writes: items.iter().map(|&i| writes[i].clone()).collect(),
            })
        })
    }

    /// Write to every region in turn on the calling thread, one dispatch
    /// and one lane per region. No region waits on another's outcome, so a
    /// pricer charges the slowest lane. Succeeds if at least one region
    /// accepted every write.
    fn write_all_regions<'r>(
        &self,
        caller: CallerId,
        pids: impl Iterator<Item = ProfileId> + Clone,
        mut frame: impl FnMut(&[usize]) -> Cow<'r, RpcRequest>,
    ) -> Result<WireLog> {
        let regions = u32::try_from(self.rings.read().len()).unwrap_or(u32::MAX);
        if regions == 0 {
            self.attempts.inc();
            self.failures.inc();
            return Err(IpsError::Unavailable("no regions discovered".into()));
        }
        let mut root = self.root_span("add_profiles", caller);
        if root.is_sampled() {
            root.set_attr("regions", regions.to_string());
        }
        let deadline = self.arm_deadline();
        let mut wire = WireLog::default();
        let mut any_ok = false;
        let mut last_err = None;
        for lane in 0..regions {
            let results = self.dispatch(
                Lane::Write(lane),
                deadline.as_ref(),
                pids.clone(),
                &mut wire,
                &mut frame,
                |reply, n| matches!(reply, RpcResponse::Ok).then(|| (0..n).map(|_| Ok(()))),
            );
            match results.into_iter().collect::<Result<Vec<()>>>() {
                Ok(_) => any_ok = true,
                Err(e) => last_err = Some(e),
            }
        }
        match last_err {
            Some(e) if !any_ok => {
                root.set_error(e.to_string());
                Err(e)
            }
            _ => Ok(wire),
        }
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
