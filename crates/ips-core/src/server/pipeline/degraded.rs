//! Degraded (stale) serving fallback during KV brownouts.
//!
//! `Storage` errors from the engine can be converted into stale-bounded
//! results when the caller opted in (a staleness tolerance in its
//! [`super::RequestContext`]) or the instance has seen enough consecutive
//! store failures to call the KV browned out. This module is the only
//! place that decision is made; it wraps the raw compute body
//! (`IpsInstance::query_inner`) for every sub-query via the pipeline's
//! `run_subquery`.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use ips_types::{DurationMs, IpsError, Result};

use super::RequestContext;
use crate::query::{engine, ProfileQuery, QueryResult};
use crate::server::IpsInstance;

/// Run one sub-query with the degraded fallback around it: a successful
/// store round-trip clears the brownout counter, a `Storage` failure
/// bumps it and — when allowed — serves from the stale pool instead.
pub(crate) fn with_fallback(
    inst: &Arc<IpsInstance>,
    ctx: &RequestContext,
    query: &ProfileQuery,
) -> Result<QueryResult> {
    match inst.query_inner(query) {
        Ok(result) => {
            if !result.cache_hit {
                // The store answered (loaded or confirmed-missing): any
                // brownout is over.
                inst.storage_failures.store(0, Ordering::Relaxed);
            }
            Ok(result)
        }
        Err(IpsError::Storage(msg)) => {
            let consecutive = inst
                .storage_failures
                .fetch_add(1, Ordering::Relaxed)
                .saturating_add(1);
            let cfg = inst.degraded_cfg;
            let allowed = cfg.enabled
                && (ctx.staleness.is_some() || consecutive >= cfg.storage_failure_threshold);
            if !allowed {
                return Err(IpsError::Storage(msg));
            }
            // The server's own bound always caps the caller's tolerance.
            let bound = ctx.staleness.map_or(cfg.max_staleness, |b| {
                DurationMs::from_millis(b.as_millis().min(cfg.max_staleness.as_millis()))
            });
            query_degraded(inst, query, bound).ok_or(IpsError::Storage(msg))
        }
        Err(e) => Err(e),
    }
}

/// Serve a query from the cache's stale pool, stamped degraded. `None`
/// when no servable copy exists within the staleness bound.
fn query_degraded(
    inst: &Arc<IpsInstance>,
    query: &ProfileQuery,
    bound: DurationMs,
) -> Option<QueryResult> {
    let rt = inst.table(query.table).ok()?;
    let cfg = rt.config.load();
    let now = inst.clock().now();
    let (mut result, staleness) = rt.cache.read_stale(query.profile, bound, |profile| {
        let _compute = ips_trace::child("compute");
        engine::execute(profile, query, cfg.aggregate, &cfg.compaction.shrink, now)
    })?;
    result.cache_hit = false;
    result.degraded = true;
    result.staleness = staleness;
    inst.degraded_serves.inc();
    let mut span = ips_trace::child("degraded_serve");
    span.set_attr(ips_trace::attrs::DEGRADED, "true");
    span.set_attr(
        ips_trace::attrs::STALENESS_MS,
        staleness.as_millis().to_string(),
    );
    rt.metrics.queries.inc();
    Some(result)
}
