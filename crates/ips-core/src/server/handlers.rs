//! The write/read API bodies (§II-B).
//!
//! Every handler calls [`pipeline::admit`] exactly once up front — an
//! `AddBatch` frame is one request, admitted once for all its writes — and
//! then does only compute; cross-cutting policy lives in the pipeline, not
//! here. The legacy per-caller surface (`query(caller, ..)`) wraps the
//! context-carrying surface (`query_ctx(&RequestContext, ..)`) with a
//! default context.

use std::collections::HashMap;
use std::sync::Arc;

use ips_types::clock::monotonic_micros;
use ips_types::{
    ActionTypeId, CallerId, CountVector, FeatureId, IpsError, ProfileId, Result, SlotId, TableId,
    Timestamp,
};

use crate::isolation::{apply_buffered, BufferedWrite, WriteRoute};
use crate::query::{engine, ProfileQuery, QueryResult};

use super::pipeline::{self, RequestContext, RequestKind};
use super::IpsInstance;

/// One profile's worth of writes inside a batched write frame. All
/// features share one `(timestamp, slot, action)` coordinate, exactly like
/// the paper's `add_profiles` interface.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileWrite {
    pub table: TableId,
    pub profile: ProfileId,
    pub at: Timestamp,
    pub slot: SlotId,
    pub action: ActionTypeId,
    pub features: Vec<(FeatureId, CountVector)>,
}

impl IpsInstance {
    // ---- write API (§II-B) -------------------------------------------------

    /// `add_profile`: record one observation.
    #[allow(clippy::too_many_arguments, reason = "the paper's add_profile API")]
    pub fn add_profile(
        self: &Arc<Self>,
        caller: CallerId,
        table: TableId,
        pid: ProfileId,
        at: Timestamp,
        slot: SlotId,
        action: ActionTypeId,
        feature: FeatureId,
        counts: CountVector,
    ) -> Result<()> {
        self.add_profiles(caller, table, pid, at, slot, action, &[(feature, counts)])
    }

    /// `add_profiles`: the batched write API. All features share one
    /// `(timestamp, slot, action)` coordinate, as in the paper's interface.
    #[allow(clippy::too_many_arguments, reason = "the paper's add_profile API")]
    pub fn add_profiles(
        self: &Arc<Self>,
        caller: CallerId,
        table: TableId,
        pid: ProfileId,
        at: Timestamp,
        slot: SlotId,
        action: ActionTypeId,
        features: &[(FeatureId, CountVector)],
    ) -> Result<()> {
        self.add_profiles_ctx(
            &RequestContext::new(caller),
            table,
            pid,
            at,
            slot,
            action,
            features,
        )
    }

    /// [`IpsInstance::add_profiles`] with an explicit request context.
    #[allow(clippy::too_many_arguments, reason = "the paper's add_profile API")]
    pub fn add_profiles_ctx(
        self: &Arc<Self>,
        ctx: &RequestContext,
        table: TableId,
        pid: ProfileId,
        at: Timestamp,
        slot: SlotId,
        action: ActionTypeId,
        features: &[(FeatureId, CountVector)],
    ) -> Result<()> {
        self.check_alive()?;
        let _admitted = pipeline::admit(self, ctx, RequestKind::Write, features.len().max(1))?;
        self.apply_write(table, pid, at, slot, action, features)
    }

    /// A batched write frame: many profiles' writes admitted as one
    /// request, charged the sum of its writes' feature counts. A frame the
    /// pipeline refuses (expired, over quota) applies none of its writes;
    /// an admitted frame applies them in order with no further admission
    /// check, so admission never splits a frame. A write that itself fails
    /// (unknown table, store error) ends the frame there.
    pub fn add_batch_ctx(&self, ctx: &RequestContext, writes: &[ProfileWrite]) -> Result<()> {
        self.check_alive()?;
        let units = writes.iter().map(|w| w.features.len().max(1)).sum();
        let _admitted = pipeline::admit(self, ctx, RequestKind::Write, units)?;
        for w in writes {
            self.apply_write(w.table, w.profile, w.at, w.slot, w.action, &w.features)?;
        }
        Ok(())
    }

    /// The write compute body behind [`IpsInstance::add_profiles_ctx`] and
    /// [`IpsInstance::add_batch_ctx`], run after admission.
    #[allow(clippy::too_many_arguments, reason = "the paper's add_profile API")]
    fn apply_write(
        &self,
        table: TableId,
        pid: ProfileId,
        at: Timestamp,
        slot: SlotId,
        action: ActionTypeId,
        features: &[(FeatureId, CountVector)],
    ) -> Result<()> {
        let rt = self.table(table)?;
        let started_us = monotonic_micros();
        let cfg = rt.config.load();
        if cfg.attributes > 0 {
            for (_, counts) in features {
                if counts.len() > ips_types::MAX_ATTRIBUTES {
                    return Err(IpsError::InvalidRequest("too many attributes".into()));
                }
            }
        }
        let head_granularity = cfg
            .compaction
            .time_dimension
            .bands
            .first()
            .map(|b| b.granularity)
            .unwrap_or(ips_types::DurationMs::from_secs(1));

        let mut needs_merge = false;
        let mut direct: Vec<BufferedWrite> = Vec::new();
        for (feature, counts) in features {
            let write = BufferedWrite {
                at,
                slot,
                action,
                feature: *feature,
                counts: counts.clone(),
            };
            match rt.write_table.offer(pid, write) {
                WriteRoute::Buffered => {}
                WriteRoute::BufferedNeedsMerge => needs_merge = true,
                WriteRoute::Direct => {
                    // Collect and apply in one cache access below.
                    direct.push(BufferedWrite {
                        at,
                        slot,
                        action,
                        feature: *feature,
                        counts: counts.clone(),
                    });
                }
            }
        }
        if !direct.is_empty() {
            rt.cache.write(pid, |profile| {
                apply_buffered(profile, &direct, cfg.aggregate, head_granularity);
            })?;
            rt.maybe_schedule_compaction(pid)?;
        }
        if needs_merge {
            rt.merge_write_table()?;
        }
        rt.metrics.writes.add(features.len() as u64);
        rt.metrics
            .write_latency_us
            .record(monotonic_micros().saturating_sub(started_us));
        Ok(())
    }

    // ---- read API (§II-B) ---------------------------------------------------

    /// Execute one profile query (`get_profile_topK` / `_filter` /
    /// `_decay`, selected by [`ProfileQuery::kind`]). Unknown profiles
    /// return an empty result — the recommendation path treats "no profile"
    /// as "no features", not an error.
    pub fn query(self: &Arc<Self>, caller: CallerId, query: &ProfileQuery) -> Result<QueryResult> {
        self.query_ctx(&RequestContext::new(caller), query)
    }

    /// [`IpsInstance::query`] with an explicit request context: an expired
    /// deadline is shed before any compute (load shedding — computing a
    /// result nobody is waiting for only steals capacity from live work),
    /// and a degraded opt-in lets `Storage` failures fall back to retained
    /// stale data.
    pub fn query_ctx(
        self: &Arc<Self>,
        ctx: &RequestContext,
        query: &ProfileQuery,
    ) -> Result<QueryResult> {
        self.check_alive()?;
        let _admitted = pipeline::admit(self, ctx, RequestKind::Read, 1)?;
        pipeline::run_subquery(self, ctx, query)
    }

    /// [`IpsInstance::query`] minus the pipeline — the raw compute body
    /// shared by the single and batched paths (the degraded fallback wraps
    /// it).
    pub(crate) fn query_inner(self: &Arc<Self>, query: &ProfileQuery) -> Result<QueryResult> {
        let rt = self.table(query.table)?;
        let started_us = monotonic_micros();
        let cfg = rt.config.load();
        let now = self.clock().now();
        // Push the query's window down into the cache: a miss loads only the
        // slices the window touches (plus the head slice), and the entry is
        // upgraded in place if a later query needs more.
        let projection = query.projection(now);
        let outcome = rt
            .cache
            .read_projected(query.profile, &projection, |profile| {
                let _compute = ips_trace::child("compute");
                engine::execute(profile, query, cfg.aggregate, &cfg.compaction.shrink, now)
            })?;
        let result = match outcome {
            Some((mut r, hit, cost)) => {
                r.cache_hit = hit;
                r.kv_round_trips = cost.round_trips;
                r.kv_bytes_read = cost.bytes_read;
                r
            }
            None => QueryResult::default(),
        };
        rt.metrics.queries.inc();
        rt.metrics
            .query_latency_us
            .record(monotonic_micros().saturating_sub(started_us));
        Ok(result)
    }

    /// Execute a batch of queries in one call: the candidate-ranking path,
    /// where a recommender scores hundreds of candidates against per-user /
    /// per-item profiles at once. The pipeline runs once for the whole
    /// batch (one quota charge of `queries.len()`, one fair-admission
    /// reservation), then sub-queries execute in input order on the calling
    /// thread. Results are per-sub-query and in input order — one failing
    /// profile does not poison its siblings.
    pub fn query_batch(
        self: &Arc<Self>,
        caller: CallerId,
        queries: &[ProfileQuery],
    ) -> Result<Vec<Result<QueryResult>>> {
        self.query_batch_ctx(&RequestContext::new(caller), queries)
    }

    /// [`IpsInstance::query_batch`] with an explicit request context.
    /// The pipeline sheds expired work first, then reserves the caller's
    /// fair share of the in-flight sub-query budget (an overloaded replica
    /// sheds with [`IpsError::Overloaded`], retryable elsewhere, without
    /// consuming the caller's quota tokens), then charges quota (a terminal
    /// per-caller decision). Each sub-query re-checks the deadline before
    /// it runs, so work that expired behind its siblings is shed, not
    /// computed.
    pub fn query_batch_ctx(
        self: &Arc<Self>,
        ctx: &RequestContext,
        queries: &[ProfileQuery],
    ) -> Result<Vec<Result<QueryResult>>> {
        self.check_alive()?;
        let _admitted = pipeline::admit(self, ctx, RequestKind::ReadBatch, queries.len().max(1))?;
        if queries.is_empty() {
            return Ok(Vec::new());
        }

        let out: Vec<Result<QueryResult>> = queries
            .iter()
            .map(|q| pipeline::run_subquery(self, ctx, q))
            .collect();

        // Batch-shape metrics, per table touched (a batch normally targets
        // one table, but nothing requires it to).
        let mut per_table: HashMap<TableId, u64> = HashMap::new();
        for q in queries {
            *per_table.entry(q.table).or_insert(0) += 1;
        }
        for (table, count) in per_table {
            if let Ok(rt) = self.table(table) {
                rt.metrics.batch_queries.inc();
                rt.metrics.batch_size.record(count);
            }
        }
        Ok(out)
    }

    /// Execute a user-defined aggregate (see [`crate::query::udaf`]) over
    /// one profile's slot/window, returning the top `k` features by the
    /// UDAF's output. Runs inside the instance, next to the data, like the
    /// built-in computations; unknown profiles yield an empty result.
    #[allow(clippy::too_many_arguments, reason = "a UDAF query's full parameters")]
    pub fn query_udaf<U>(
        self: &Arc<Self>,
        caller: CallerId,
        table: TableId,
        pid: ProfileId,
        slot: SlotId,
        action: Option<ActionTypeId>,
        range: ips_types::TimeRange,
        udaf: &U,
        k: usize,
    ) -> Result<Vec<(FeatureId, U::Output)>>
    where
        U: crate::query::UserDefinedAggregate,
        U::Output: PartialOrd,
    {
        self.check_alive()?;
        let _admitted = pipeline::admit(self, &RequestContext::new(caller), RequestKind::Read, 1)?;
        let rt = self.table(table)?;
        let started_us = monotonic_micros();
        let now = self.clock().now();
        let outcome = rt.cache.read(pid, |profile| {
            let window = range.resolve(now, profile.last_action_hint());
            crate::query::execute_udaf_top_k(
                profile,
                slot,
                action,
                window.start,
                window.end,
                now,
                udaf,
                k,
            )
        })?;
        rt.metrics.queries.inc();
        rt.metrics
            .query_latency_us
            .record(monotonic_micros().saturating_sub(started_us));
        Ok(outcome.map(|(v, _)| v).unwrap_or_default())
    }
}
