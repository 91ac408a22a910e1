//! The result oracle.
//!
//! The benchmark keeps its own ledger of exact per-(profile, slot, feature)
//! counts for a fixed set of canary profiles, updated whenever a canary
//! write is acknowledged. At the end of every workload each canary slot is
//! read back with a whole-history query and compared with the ledger: with
//! the table's `Sum` aggregate and canary slots far below the shrink
//! budget, compaction may merge slices but never change a total, so any
//! difference is a lost, duplicated or corrupted write.

use std::collections::BTreeMap;

use ips_cluster::IpsClusterClient;
use ips_core::query::QueryResult;
use ips_types::{CallerId, FeatureId, ProfileId};

use crate::workload::{canary_query, WorkloadSpec, WriteOp, ATTRIBUTES, CANARIES, SLOTS};

type Key = (ProfileId, u32, FeatureId);

/// Expected counts per canary (profile, slot, feature), summed over action
/// types as an action-agnostic query sums them.
#[derive(Default)]
pub struct Ledger {
    counts: BTreeMap<Key, [i64; ATTRIBUTES]>,
}

impl Ledger {
    /// Record an acknowledged write if it went to a canary.
    pub fn record(&mut self, spec: &WorkloadSpec, write: &WriteOp) {
        if write.profile.raw() <= spec.users {
            return;
        }
        let entry = self
            .counts
            .entry((write.profile, write.slot.raw(), write.feature))
            .or_insert([0; ATTRIBUTES]);
        for (slot, value) in entry.iter_mut().zip(write.counts.as_slice()) {
            *slot += value;
        }
    }

    fn expected(&self, profile: ProfileId, slot: u32) -> Vec<(FeatureId, [i64; ATTRIBUTES])> {
        self.counts
            .range((profile, slot, FeatureId::new(0))..=(profile, slot, FeatureId::new(u64::MAX)))
            .map(|(&(_, _, feature), counts)| (feature, *counts))
            .collect()
    }

    /// Read every canary slot back through `client` and compare. Returns
    /// `(checks made, mismatches)`; each mismatch is described in `log`.
    pub fn check(
        &self,
        spec: &WorkloadSpec,
        client: &IpsClusterClient,
        caller: CallerId,
        log: &mut Vec<String>,
    ) -> (u64, u64) {
        let mut checks = 0;
        let mut mismatches = 0;
        for i in 0..CANARIES {
            let profile = spec.canary(i);
            for slot in 0..SLOTS {
                checks += 1;
                let expected = self.expected(profile, slot);
                let got = match client.query(caller, &canary_query(profile, slot)) {
                    Ok((result, _)) => normalize(&result),
                    Err(e) => {
                        mismatches += 1;
                        log.push(format!("canary {profile} slot {slot}: query failed: {e}"));
                        continue;
                    }
                };
                if got != expected {
                    mismatches += 1;
                    log.push(format!(
                        "canary {profile} slot {slot}: expected {expected:?}, got {got:?}"
                    ));
                }
            }
        }
        (checks, mismatches)
    }
}

/// A query result as sorted (feature, counts) pairs, for comparison.
#[must_use]
pub fn normalize(result: &QueryResult) -> Vec<(FeatureId, [i64; ATTRIBUTES])> {
    let mut out: Vec<_> = result
        .entries
        .iter()
        .map(|e| {
            let mut counts = [0; ATTRIBUTES];
            for (i, slot) in counts.iter_mut().enumerate() {
                *slot = e.counts.get_or_zero(i);
            }
            (e.feature, counts)
        })
        .collect();
    out.sort_unstable();
    out
}
