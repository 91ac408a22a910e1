//! The unified IPS client (§III: "upstream user applications rely on a
//! unified IPS client to communicate with this layer").
//!
//! Routing follows the paper's deployment rules:
//!
//! * **writes fan out to every region** (Fig 15: "upstream applications
//!   write data to all IPS instances regardless of region");
//! * **queries go to the local region**, falling over to other instances
//!   (then other regions) on retryable failures — the behaviour that keeps
//!   Fig 17's client-observed error rate in the 0.01% range while nodes
//!   crash and recover underneath;
//! * instance lists come from discovery and are **refreshed periodically**,
//!   so routing reacts to registrations/expiries within one refresh.
//!
//! Module map — every cross-cutting request concern lives in exactly one
//! file:
//!
//! * [`mod@self`] — the client struct, configuration, discovery refresh and
//!   ring-based candidate routing;
//! * [`outcome`] — what a call reports besides its answer: the measured
//!   [`WireLog`] and the client counters;
//! * [`read`] — the query and batched-query orchestrations;
//! * [`write`] — the all-region write fan-outs;
//! * [`pipeline`] — the client-side interceptor chain the read/write paths
//!   compose: breaker routing → failover (with the deadline shed) → trace.

mod outcome;
pub(crate) mod pipeline;
mod read;
#[cfg(test)]
mod tests;
mod write;

pub use outcome::{BatchQueryOutcome, ClientStats, WireFrame, WireLog};

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::RwLock;

use ips_kv::KvLatencyModel;
use ips_metrics::Counter;
use ips_trace::Tracer;
use ips_types::{
    ArmedDeadline, CallerId, CircuitBreakerConfig, Deadline, DurationMs, Priority, ProfileId,
};

use crate::discovery::Discovery;
use crate::health::HealthRegistry;
use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::rpc::RpcEndpoint;

/// One region's routing state: the ring the client routes by, stamped with
/// the membership epoch it came from, plus the previous epoch's ring kept
/// as the handoff grace window — the old owner of a key stays a failover
/// candidate for exactly one epoch, so a cutover never leaves a key that
/// both the old and new owner reject.
struct RegionRoute {
    /// Epoch of `ring` (0 when routing by the discovery-derived ring).
    epoch: u64,
    ring: HashRing,
    previous: Option<HashRing>,
}

/// The unified client.
pub struct IpsClusterClient {
    discovery: Arc<Discovery>,
    /// Transport address book: name → endpoint.
    endpoints: RwLock<HashMap<String, Arc<RpcEndpoint>>>,
    /// Per-region routing state, rebuilt on refresh. Keyed in name order:
    /// region fan-outs run one after another, so their order must not
    /// depend on hash iteration.
    rings: RwLock<BTreeMap<String, RegionRoute>>,
    home_region: String,
    /// Failover candidates tried per region before giving up on it.
    max_candidates: usize,
    /// Default deadline budget stamped on every request (None = unbounded).
    request_deadline: RwLock<Option<DurationMs>>,
    /// Scheduling priority stamped on every request; servers weight fair
    /// admission by it. [`Priority::Normal`] is never encoded on the wire.
    request_priority: RwLock<Priority>,
    /// Degraded-serving opt-in: the staleness bound stamped on read
    /// requests (None = fail hard on storage errors).
    degraded_reads: RwLock<Option<DurationMs>>,
    /// Per-endpoint breaker health, keyed by endpoint name.
    health: HealthRegistry,
    /// Optional tracer: when set, every request opens a root span and the
    /// span context rides the wire to the servers (§Table II decomposition).
    tracer: RwLock<Option<Arc<Tracer>>>,
    pub attempts: Counter,
    pub successes: Counter,
    pub failures: Counter,
    pub retries: Counter,
    pub degraded: Counter,
}

impl IpsClusterClient {
    /// A client homed in `home_region`. Call [`IpsClusterClient::refresh`]
    /// (after registering endpoints) before first use and periodically
    /// thereafter.
    ///
    /// The storage model is ignored: the client models no time, and the
    /// experiment harnesses price storage fetches offline from each
    /// result's `kv_round_trips` / `kv_bytes_read`. The parameter remains
    /// only so existing callers keep compiling.
    #[must_use]
    pub fn new(
        discovery: Arc<Discovery>,
        home_region: impl Into<String>,
        _storage_model: KvLatencyModel,
    ) -> Self {
        Self {
            discovery,
            endpoints: RwLock::new(HashMap::new()),
            rings: RwLock::new(BTreeMap::new()),
            home_region: home_region.into(),
            max_candidates: 3,
            request_deadline: RwLock::new(None),
            request_priority: RwLock::new(Priority::Normal),
            degraded_reads: RwLock::new(None),
            health: HealthRegistry::new(CircuitBreakerConfig::default()),
            tracer: RwLock::new(None),
            attempts: Counter::new(),
            successes: Counter::new(),
            failures: Counter::new(),
            retries: Counter::new(),
            degraded: Counter::new(),
        }
    }

    /// Set (or clear) the per-request deadline budget. Each logical
    /// request arms it once; every attempt is stamped with what measured
    /// elapsed time has left of it, the client sheds before an attempt once
    /// it is gone, and servers shed work whose budget expired in queue.
    pub fn set_request_deadline(&self, budget: Option<DurationMs>) {
        *self.request_deadline.write() = budget;
    }

    /// Arm the configured budget at the start of one logical request
    /// (None = unbounded). Every attempt, round, region and fallback of
    /// that request draws down this one deadline.
    fn arm_deadline(&self) -> Option<ArmedDeadline> {
        self.request_deadline
            .read()
            .map(|budget| Deadline::from_budget(budget).arm())
    }

    /// Set the scheduling priority stamped on every request this client
    /// issues. Servers weight fair admission by it: interactive traffic is
    /// protected from bulk floods, bulk traffic is throttled to its share.
    pub fn set_request_priority(&self, priority: Priority) {
        *self.request_priority.write() = priority;
    }

    /// The currently stamped scheduling priority.
    #[must_use]
    pub fn request_priority(&self) -> Priority {
        *self.request_priority.read()
    }

    /// Opt reads in (or out) of degraded serving: when set, servers may
    /// answer from retained stale data no older than this bound instead of
    /// failing on storage errors.
    pub fn set_degraded_reads(&self, max_staleness: Option<DurationMs>) {
        *self.degraded_reads.write() = max_staleness;
    }

    /// Replace the circuit-breaker config (resets all endpoint health).
    pub fn set_breaker_config(&self, config: CircuitBreakerConfig) {
        self.health.set_config(config);
    }

    /// Per-endpoint health registry (breaker state, failure streak).
    #[must_use]
    pub fn health(&self) -> &HealthRegistry {
        &self.health
    }

    /// Install (or clear) the tracer that samples this client's requests.
    pub fn set_tracer(&self, tracer: Option<Arc<Tracer>>) {
        *self.tracer.write() = tracer;
    }

    /// The installed tracer, if any.
    #[must_use]
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.tracer.read().clone()
    }

    /// Open a root span for a client request, or a disabled span when no
    /// tracer is installed.
    fn root_span(&self, name: &'static str, caller: CallerId) -> ips_trace::Span {
        match self.tracer() {
            Some(tracer) => tracer.root_span(name, caller.raw()),
            None => ips_trace::Span::disabled(),
        }
    }

    /// Make endpoints addressable (the transport layer's address book —
    /// in production this is the network; here it is explicit wiring).
    pub fn add_endpoints(&self, endpoints: impl IntoIterator<Item = Arc<RpcEndpoint>>) {
        let mut map = self.endpoints.write();
        for ep in endpoints {
            map.insert(ep.name().to_string(), ep);
        }
    }

    /// Refresh instance lists from discovery, rebuild per-region routing,
    /// and prune health records for endpoints that left the fleet (a
    /// scaled-in instance's breaker state must not leak onto a future
    /// namesake).
    ///
    /// A region with a published [`crate::handoff::MembershipEpoch`] routes
    /// by that epoch's ring (with the previous epoch retained as the grace
    /// window); a region without one routes by the healthy-instance ring —
    /// the pre-handoff behaviour.
    pub fn refresh(&self) {
        let healthy = self.discovery.healthy();
        let mut routes: BTreeMap<String, RegionRoute> = BTreeMap::new();
        let mut names: HashSet<String> = HashSet::new();
        for reg in healthy {
            names.insert(reg.name.clone());
            routes
                .entry(reg.region.clone())
                .or_insert_with(|| RegionRoute {
                    epoch: 0,
                    ring: HashRing::new(DEFAULT_VNODES),
                    previous: None,
                })
                .ring
                .add(&reg.name);
        }
        for (region, route) in &mut routes {
            if let Some((current, previous)) = self.discovery.membership_pair(region) {
                route.epoch = current.epoch;
                route.ring = current.ring;
                route.previous = previous.map(|m| m.ring);
            }
        }
        *self.rings.write() = routes;
        self.health.retain(|name| names.contains(name));
    }

    /// The membership epoch this client currently routes `region` by
    /// (0 = discovery-derived ring, no epoch published).
    #[must_use]
    pub fn region_epoch(&self, region: &str) -> u64 {
        self.rings.read().get(region).map_or(0, |r| r.epoch)
    }

    #[must_use]
    pub fn home_region(&self) -> &str {
        &self.home_region
    }

    /// Known regions (post-refresh), in name order.
    #[must_use]
    pub fn regions(&self) -> Vec<String> {
        self.rings.read().keys().cloned().collect()
    }

    /// Query-ordered region list: home region first, then the rest — the
    /// failover walk tries local replicas before paying a cross-region hop.
    fn read_regions(&self) -> Vec<String> {
        let mut regions = vec![self.home_region.clone()];
        for r in self.regions() {
            if r != self.home_region {
                regions.push(r);
            }
        }
        regions
    }

    /// Owner-then-failover endpoints for `pid` in `region`. The ring's
    /// visitor walk resolves endpoints directly — no per-key `Vec<&str>` /
    /// `Vec<String>` round trip, which the batch paths pay once per write
    /// or sub-query. During a handoff grace window the *previous* epoch's
    /// owner is appended as a final candidate: a key mid-cutover is always
    /// answerable by its old or its new owner.
    fn candidates_in_region(&self, region: &str, pid: ProfileId) -> Vec<Arc<RpcEndpoint>> {
        let routes = self.rings.read();
        let Some(route) = routes.get(region) else {
            return Vec::new();
        };
        let eps = self.endpoints.read();
        let mut out: Vec<Arc<RpcEndpoint>> = Vec::with_capacity(self.max_candidates + 1);
        route.ring.nodes_for_each(pid, self.max_candidates, |name| {
            if let Some(ep) = eps.get(name) {
                out.push(Arc::clone(ep));
            }
            true
        });
        if let Some(previous) = &route.previous {
            if let Some(old_owner) = previous.node_for(pid) {
                if !out.iter().any(|ep| ep.name() == old_owner) {
                    if let Some(ep) = eps.get(old_owner) {
                        out.push(Arc::clone(ep));
                    }
                }
            }
        }
        out
    }
}
