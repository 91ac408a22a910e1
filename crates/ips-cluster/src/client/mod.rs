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
//! * [`read`] — `query` and `query_batch`, thin wrappers over the dispatch
//!   core;
//! * [`write`] — `add_profiles` and `add_batch`: one dispatch per region;
//! * [`pipeline`] — the dispatch core every call runs (grouping, failover
//!   walk, lazy breaker admission, deadline shed) and the per-attempt trace
//!   and health bookkeeping.

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
use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::rpc::RpcEndpoint;
use crate::HealthRegistry;

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

/// Which regions a call's walk covers, and the lane its frames take in the
/// call's [`WireLog`].
#[derive(Clone, Copy)]
enum Lane {
    /// A read: the home region first, then the others in name order —
    /// local replicas before a cross-region hop. Lane 0; read frames carry
    /// the degraded opt-in.
    Read,
    /// One region of a write fan-out: the n-th region in name order, lane n.
    Write(u32),
}

impl Lane {
    fn index(self) -> u32 {
        match self {
            Lane::Read => 0,
            Lane::Write(n) => n,
        }
    }
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
    /// tracer is installed. A sampled root names the caller and its
    /// priority; attributes are formatted only when sampled.
    fn root_span(&self, name: &'static str, caller: CallerId) -> ips_trace::Span {
        let mut root = match self.tracer() {
            Some(tracer) => tracer.root_span(name, caller.raw()),
            None => return ips_trace::Span::disabled(),
        };
        if root.is_sampled() {
            root.set_attr(ips_trace::attrs::CALLER, caller.to_string());
            root.set_attr(ips_trace::attrs::PRIORITY, self.request_priority().label());
        }
        root
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

    /// Append `pid`'s candidates in region `k` of `lane`'s walk to `out`:
    /// the owner, then failover siblings, resolved straight off the ring's
    /// visitor walk. During a handoff grace window the *previous* epoch's
    /// owner is appended last: a key mid-cutover is always answerable by its
    /// old or its new owner. Returns false when the walk has no region `k`.
    /// The routing locks are released before this returns.
    fn extend_candidates(
        &self,
        lane: Lane,
        k: usize,
        pid: ProfileId,
        out: &mut Vec<Arc<RpcEndpoint>>,
    ) -> bool {
        let routes = self.rings.read();
        let route = match (lane, k) {
            (Lane::Read, 0) => routes.get(&self.home_region),
            (Lane::Read, k) => {
                let mut remote = routes.iter().filter(|(r, _)| **r != self.home_region);
                let Some((_, route)) = remote.nth(k - 1) else {
                    return false;
                };
                Some(route)
            }
            (Lane::Write(n), 0) => routes.values().nth(n as usize),
            (Lane::Write(_), _) => return false,
        };
        let Some(route) = route else {
            return true;
        };
        let eps = self.endpoints.read();
        let start = out.len();
        route.ring.nodes_for_each(pid, self.max_candidates, |name| {
            if let Some(ep) = eps.get(name) {
                out.push(Arc::clone(ep));
            }
            true
        });
        if let Some(old_owner) = route.previous.as_ref().and_then(|p| p.node_for(pid)) {
            if !out[start..].iter().any(|ep| ep.name() == old_owner) {
                if let Some(ep) = eps.get(old_owner) {
                    out.push(Arc::clone(ep));
                }
            }
        }
        true
    }
}
