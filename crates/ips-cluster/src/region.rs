//! Multi-region deployment (§III-G, Fig 15).
//!
//! One region is the *persisting* region: its IPS instances write through to
//! the master KV cluster. Every other region's instances read from a local
//! replica cluster and **do not persist** — they receive the same write
//! stream from upstream (write-to-all fan-out in [`crate::client`]), so
//! their caches converge on the same data, and on a cache miss they load
//! whatever their local replica has, which may be slightly stale. That is
//! exactly the weak consistency the paper accepts.
//!
//! A non-persisting region's write-back is free: its [`RegionStore`] says
//! it does not persist, so a flush, an eviction or a handoff export marks
//! the profile clean without encoding, compressing or writing anything.
//! Reads go to the region's side of the KV, a multi-get included, so a
//! split profile's slices cost one operation in either region.

use std::sync::Arc;

use bytes::Bytes;

use ips_core::persist::ProfileStore;
use ips_core::server::{IpsInstance, IpsInstanceOptions};
use ips_kv::{Generation, KvNode, KvNodeConfig, ReplicaReadMode, ReplicatedKv};
use ips_types::{Result, SharedClock, TableConfig, TableId};

use crate::discovery::Discovery;
use crate::rpc::{NetworkModel, RpcEndpoint};

/// A region-scoped view of the replicated KV: the persisting region writes
/// through the master; others read their local replica and drop writes.
pub struct RegionStore {
    kv: Arc<ReplicatedKv>,
    /// Index into the replica list; `None` marks the persisting region.
    replica_idx: Option<usize>,
}

impl RegionStore {
    #[must_use]
    pub fn new(kv: Arc<ReplicatedKv>, replica_idx: Option<usize>) -> Self {
        Self { kv, replica_idx }
    }
}

impl ProfileStore for RegionStore {
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        match self.replica_idx {
            None => self.kv.get_master(key),
            Some(idx) => self.kv.get_replica(idx, key),
        }
    }

    fn get_many(&self, keys: &[Bytes]) -> Result<Vec<Option<Bytes>>> {
        match self.replica_idx {
            None => self.kv.get_many_master(keys),
            Some(idx) => self.kv.get_many_replica(idx, keys),
        }
    }

    fn xget(&self, key: &[u8]) -> Result<(Option<Bytes>, Generation)> {
        match self.replica_idx {
            None => self.kv.xget_master(key),
            // A replica keeps each value's master generation, so a
            // generation held from either region compares with the head's
            // here (a handoff import checks its entry's against it).
            Some(idx) => self.kv.xget_replica(idx, key),
        }
    }

    fn xset(&self, key: Bytes, value: Bytes, held: Generation) -> Result<Generation> {
        match self.replica_idx {
            None => self.kv.xset(key, value, held),
            // Non-persisting regions do not write (Fig 15: only one region
            // persists); their copy converges via replication. The write
            // is dropped, so the generation the caller holds stays current.
            Some(_) => Ok(held),
        }
    }

    fn delete(&self, key: &[u8]) -> Result<bool> {
        match self.replica_idx {
            None => self.kv.delete(key),
            Some(_) => Ok(false),
        }
    }

    fn is_persisting(&self) -> bool {
        self.replica_idx.is_none()
    }
}

/// One region: a name plus its IPS instances (as RPC endpoints).
pub struct Region {
    pub name: String,
    pub endpoints: Vec<Arc<RpcEndpoint>>,
    pub store: Arc<RegionStore>,
    /// The region's local KV replica node (None for the persisting region,
    /// which reads the master directly).
    pub replica: Option<Arc<KvNode>>,
}

impl Region {
    /// Inject a region-wide outage: all endpoints down (and the replica, if
    /// any).
    pub fn set_down(&self, down: bool) {
        for ep in &self.endpoints {
            ep.set_down(down);
        }
        if let Some(replica) = &self.replica {
            replica.set_down(down);
        }
    }

    /// Inject a KV brownout in this region: the local replica (if any)
    /// starts failing each operation with probability `p`. The persisting
    /// region has no replica of its own — use
    /// [`MultiRegionDeployment::set_kv_error_rate`] to brown out the master.
    pub fn set_kv_error_rate(&self, p: f64) {
        if let Some(replica) = &self.replica {
            replica.set_error_rate(p);
        }
    }
}

/// Options for assembling a deployment.
#[derive(Clone, Debug)]
pub struct MultiRegionOptions {
    /// Region names; the first is the persisting region.
    pub regions: Vec<String>,
    /// IPS instances per region.
    pub instances_per_region: usize,
    /// Network model between clients and instances.
    pub network: NetworkModel,
    /// Table(s) every instance serves.
    pub tables: Vec<(TableId, TableConfig)>,
    /// Per-caller default quota and instance naming.
    pub instance_options: IpsInstanceOptions,
    /// Discovery TTL.
    pub discovery_ttl: ips_types::DurationMs,
}

impl Default for MultiRegionOptions {
    fn default() -> Self {
        Self {
            regions: vec!["region-a".into(), "region-b".into()],
            instances_per_region: 2,
            network: NetworkModel::zero(),
            tables: vec![(TableId::new(1), TableConfig::new("default"))],
            instance_options: IpsInstanceOptions::default(),
            discovery_ttl: ips_types::DurationMs::from_secs(30),
        }
    }
}

/// A fully wired multi-region IPS deployment.
pub struct MultiRegionDeployment {
    pub regions: Vec<Region>,
    pub kv: Arc<ReplicatedKv>,
    pub discovery: Arc<Discovery>,
    clock: SharedClock,
    /// Construction parameters, kept so scale-out builds identical instances.
    options: MultiRegionOptions,
    /// Monotonic instance counter per region for unique names.
    next_instance_id: std::sync::atomic::AtomicUsize,
}

impl MultiRegionDeployment {
    /// Assemble: master KV + one replica per non-persisting region, IPS
    /// instances per region wired to their region store, all registered in
    /// discovery.
    pub fn build(options: MultiRegionOptions, clock: SharedClock) -> Result<Self> {
        assert!(!options.regions.is_empty(), "need at least one region");
        let master = Arc::new(KvNode::new("kv-master", KvNodeConfig::default())?);
        let replicas: Vec<Arc<KvNode>> = options.regions[1..]
            .iter()
            .map(|r| {
                Ok(Arc::new(KvNode::new(
                    format!("kv-replica-{r}"),
                    KvNodeConfig::default(),
                )?))
            })
            .collect::<Result<_>>()?;
        let kv = Arc::new(ReplicatedKv::new(
            master,
            replicas.clone(),
            ReplicaReadMode::AllowStale,
        ));
        let discovery = Arc::new(Discovery::new(Arc::clone(&clock), options.discovery_ttl));

        let mut regions = Vec::with_capacity(options.regions.len());
        for (r_idx, r_name) in options.regions.iter().enumerate() {
            let replica_idx = if r_idx == 0 { None } else { Some(r_idx - 1) };
            let store = Arc::new(RegionStore::new(Arc::clone(&kv), replica_idx));
            let mut endpoints = Vec::with_capacity(options.instances_per_region);
            for i in 0..options.instances_per_region {
                let name = format!("{r_name}/ips-{i}");
                let mut inst_opts = options.instance_options.clone();
                inst_opts.name = name.clone();
                let instance = IpsInstance::new(
                    Arc::clone(&store) as Arc<dyn ProfileStore>,
                    inst_opts,
                    Arc::clone(&clock),
                );
                for (table_id, table_cfg) in &options.tables {
                    instance.create_table(*table_id, table_cfg.clone())?;
                }
                let endpoint =
                    RpcEndpoint::new(name.clone(), r_name.clone(), instance, options.network);
                discovery.register(&name, r_name);
                endpoints.push(endpoint);
            }
            regions.push(Region {
                name: r_name.clone(),
                endpoints,
                store,
                replica: replica_idx.map(|i| Arc::clone(&replicas[i])),
            });
        }
        let next_instance_id = std::sync::atomic::AtomicUsize::new(options.instances_per_region);
        Ok(Self {
            regions,
            kv,
            discovery,
            clock,
            options,
            next_instance_id,
        })
    }

    /// Scale a region out by `n` instances (the Kubernetes auto-scale path,
    /// §IV). New instances are wired to the region's store, serve the same
    /// tables, and register in discovery; they take over their hash-ring
    /// share on the next client refresh and warm their caches from the KV
    /// substrate on demand.
    pub fn scale_out(&mut self, region_name: &str, n: usize) -> Result<Vec<Arc<RpcEndpoint>>> {
        let region_idx = self
            .regions
            .iter()
            .position(|r| r.name == region_name)
            .ok_or_else(|| {
                ips_types::IpsError::InvalidRequest(format!("unknown region {region_name}"))
            })?;
        let mut added = Vec::with_capacity(n);
        for _ in 0..n {
            let id = self
                .next_instance_id
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let name = format!("{region_name}/ips-{id}");
            let store = Arc::clone(&self.regions[region_idx].store);
            let mut inst_opts = self.options.instance_options.clone();
            inst_opts.name = name.clone();
            let instance = IpsInstance::new(
                store as Arc<dyn ProfileStore>,
                inst_opts,
                Arc::clone(&self.clock),
            );
            for (table_id, table_cfg) in &self.options.tables {
                instance.create_table(*table_id, table_cfg.clone())?;
            }
            let endpoint = RpcEndpoint::new(
                name.clone(),
                region_name.to_string(),
                instance,
                self.options.network,
            );
            self.discovery.register(&name, region_name);
            self.regions[region_idx]
                .endpoints
                .push(Arc::clone(&endpoint));
            added.push(endpoint);
        }
        Ok(added)
    }

    /// Scale a region in by `n` instances: the youngest instances drain
    /// (flush their caches), deregister, and go down. Returns the number
    /// actually removed (never below one remaining instance).
    pub fn scale_in(&mut self, region_name: &str, n: usize) -> Result<usize> {
        let region = self
            .regions
            .iter_mut()
            .find(|r| r.name == region_name)
            .ok_or_else(|| {
                ips_types::IpsError::InvalidRequest(format!("unknown region {region_name}"))
            })?;
        let mut removed = 0;
        while removed < n && region.endpoints.len() > 1 {
            let Some(ep) = region.endpoints.pop() else {
                break;
            };
            // Graceful drain: flush dirty profiles so nothing is lost.
            ep.instance().flush_all()?;
            self.discovery.deregister(ep.name());
            ep.set_down(true);
            removed += 1;
        }
        Ok(removed)
    }

    #[must_use]
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Find a region by name.
    #[must_use]
    pub fn region(&self, name: &str) -> Option<&Region> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// Every endpoint across all regions.
    #[must_use]
    pub fn all_endpoints(&self) -> Vec<Arc<RpcEndpoint>> {
        self.regions
            .iter()
            .flat_map(|r| r.endpoints.iter().cloned())
            .collect()
    }

    /// Heartbeat every healthy (not-down) endpoint — the periodic
    /// registration refresh instances perform.
    pub fn heartbeat_all(&self) {
        for ep in self.all_endpoints() {
            if !ep.is_down() {
                self.discovery.heartbeat(ep.name());
            }
        }
    }

    /// Pump KV replication (move master writes to region replicas).
    pub fn pump_replication(&self, budget: usize) -> usize {
        self.kv.pump(budget)
    }

    /// Inject a deployment-wide KV brownout: the master node and every
    /// region replica fail each operation with probability `p`. Cache hits
    /// keep serving; misses and flushes surface `Storage` errors — the
    /// degraded-serving scenario of Fig 17.
    pub fn set_kv_error_rate(&self, p: f64) {
        self.kv.master().set_error_rate(p);
        for region in &self.regions {
            region.set_kv_error_rate(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ips_types::clock::sim_clock;
    use ips_types::{DurationMs, Timestamp};

    fn build() -> (MultiRegionDeployment, ips_types::SimClock) {
        let (clock, ctl) = sim_clock(Timestamp::from_millis(
            DurationMs::from_days(400).as_millis(),
        ));
        let mut options = MultiRegionOptions::default();
        for (_, cfg) in &mut options.tables {
            cfg.isolation.enabled = false;
        }
        let d = MultiRegionDeployment::build(options, clock).unwrap();
        (d, ctl)
    }

    #[test]
    fn assembles_regions_and_discovery() {
        let (d, _ctl) = build();
        assert_eq!(d.regions.len(), 2);
        assert_eq!(d.all_endpoints().len(), 4);
        assert_eq!(d.discovery.healthy().len(), 4);
        assert_eq!(d.discovery.healthy_in_region("region-a").len(), 2);
        assert!(d.regions[0].store.is_persisting());
        assert!(!d.regions[1].store.is_persisting());
        assert!(d.regions[0].replica.is_none());
        assert!(d.regions[1].replica.is_some());
    }

    #[test]
    fn persisting_region_store_writes_master() {
        let (d, _ctl) = build();
        let store = &d.regions[0].store;
        let g = store
            .xset(Bytes::from_static(b"k"), Bytes::from_static(b"v"), 0)
            .unwrap();
        assert!(g > 0);
        assert_eq!(
            d.kv.get_master(b"k").unwrap(),
            Some(Bytes::from_static(b"v"))
        );
    }

    #[test]
    fn non_persisting_region_drops_writes_reads_replica() {
        let (d, _ctl) = build();
        let replica_store = &d.regions[1].store;
        let g = replica_store
            .xset(Bytes::from_static(b"k"), Bytes::from_static(b"v"), 0)
            .unwrap();
        assert_eq!(g, 0, "non-persisting write is a no-op");
        assert_eq!(d.kv.get_master(b"k").unwrap(), None);

        // Master write becomes visible in the replica region after pumping.
        d.regions[0]
            .store
            .xset(Bytes::from_static(b"k2"), Bytes::from_static(b"v2"), 0)
            .unwrap();
        assert_eq!(replica_store.get(b"k2").unwrap(), None, "lag window");
        d.pump_replication(1024);
        assert_eq!(
            replica_store.get(b"k2").unwrap(),
            Some(Bytes::from_static(b"v2"))
        );
    }

    /// `slices` one-second slices of ten features each.
    fn profile(slices: u64) -> ips_core::model::ProfileData {
        use ips_types::{ActionTypeId, AggregateFunction, CountVector, FeatureId, SlotId};
        let mut p = ips_core::model::ProfileData::new();
        for s in 0..slices {
            for f in 0..10 {
                p.add(
                    Timestamp::from_millis(1_000 + s * 10_000),
                    SlotId::new(1),
                    ActionTypeId::new(1),
                    FeatureId::new(f),
                    &CountVector::single(1),
                    AggregateFunction::Sum,
                    DurationMs::from_secs(1),
                );
            }
        }
        p
    }

    #[test]
    fn non_persisting_region_write_back_is_free() {
        use ips_core::query::ProfileQuery;
        use ips_types::Clock as _;
        use ips_types::{ActionTypeId, CallerId, CountVector, FeatureId, ProfileId, SlotId};
        use ips_types::{TableId, TimeRange};

        let (d, ctl) = build();
        let (caller, table, pid) = (CallerId::new(1), TableId::new(1), ProfileId::new(9));
        let home = d.regions[0].endpoints[0].instance();
        let remote = d.regions[1].endpoints[0].instance();
        // The client's write-to-all fan-out, by hand.
        for inst in [home, remote] {
            for fid in 0..5 {
                inst.add_profile(
                    caller,
                    table,
                    pid,
                    ctl.now(),
                    SlotId::new(1),
                    ActionTypeId::new(1),
                    FeatureId::new(fid),
                    CountVector::single(1),
                )
                .unwrap();
            }
        }
        let (home_rt, remote_rt) = (home.table(table).unwrap(), remote.table(table).unwrap());
        let written =
            |rt: &ips_core::server::TableRuntime| rt.cache.persister().metrics.bytes_written.get();

        assert_eq!(remote.flush_all().unwrap(), 1);
        assert_eq!(written(&remote_rt), 0, "nothing encoded or written");
        assert_eq!(remote_rt.cache.stats().dirty_backlog, 0);
        assert_eq!(remote.flush_all().unwrap(), 0, "the entry is clean");
        assert_eq!(d.kv.backlog(), 0, "nothing reached the KV");

        assert_eq!(home.flush_all().unwrap(), 1);
        assert!(written(&home_rt) > 0, "the persisting region still writes");
        d.pump_replication(1024);

        // Evicted, the remote profile reloads what replication brought.
        let loads = remote_rt.cache.persister().metrics.loads.get();
        assert!(remote_rt.cache.evict(pid).unwrap());
        assert_eq!(written(&remote_rt), 0);
        let q = ProfileQuery::top_k(table, pid, SlotId::new(1), TimeRange::last_days(1), 10);
        assert_eq!(remote.query(caller, &q).unwrap().len(), 5);
        assert_eq!(remote_rt.cache.persister().metrics.loads.get(), loads + 1);
    }

    #[test]
    fn split_profile_loads_in_two_ops_through_either_region() {
        use ips_core::persist::{LoadOutcome, ProfilePersister};
        use ips_types::{PersistenceMode, ProfileId, TableId};

        let (d, _ctl) = build();
        // Every save splits: the head holds the newest slice and five refs.
        let mode = PersistenceMode::Split { threshold_bytes: 1 };
        let (table, pid) = (TableId::new(1), ProfileId::new(7));
        ProfilePersister::new(Arc::clone(&d.regions[0].store), table, mode)
            .save(pid, &mut profile(6), 0)
            .unwrap();
        d.pump_replication(1024);
        let replica = d.regions[1].replica.as_ref().unwrap();
        for (region, node) in d.regions.iter().zip([d.kv.master(), replica]) {
            let persister = ProfilePersister::new(Arc::clone(&region.store), table, mode);
            let ops = node.stats().ops;
            match persister.load(pid).unwrap() {
                LoadOutcome::Loaded { profile, .. } => assert_eq!(profile.slice_count(), 6),
                LoadOutcome::Missing => panic!("profile missing in {}", region.name),
            }
            assert_eq!(
                node.stats().ops,
                ops + 2,
                "{}: one head read and one multi-get",
                region.name
            );
        }
    }

    #[test]
    fn replica_region_loads_the_newer_layout_of_a_shrunk_profile() {
        use ips_core::persist::{encode_profile, LoadOutcome, ProfilePersister};
        use ips_types::{PersistenceMode, ProfileId};

        let (d, _ctl) = build();
        let mode = PersistenceMode::Split {
            threshold_bytes: encode_profile(&profile(6)).len(),
        };
        let pid = ProfileId::new(7);
        let home =
            |mode| ProfilePersister::new(Arc::clone(&d.regions[0].store), TableId::new(1), mode);
        let held = home(mode).save(pid, &mut profile(6), 0).unwrap();
        // Shrunk below the threshold and saved inline by a persister that
        // holds only the generation (a handoff target, say).
        home(mode)
            .save(pid, &mut profile(1), held.generation)
            .unwrap();
        d.pump_replication(1024);

        let remote = ProfilePersister::new(Arc::clone(&d.regions[1].store), TableId::new(1), mode);
        match remote.load(pid).unwrap() {
            LoadOutcome::Loaded { profile, .. } => assert_eq!(profile.slice_count(), 1),
            LoadOutcome::Missing => panic!("replicated profile missing"),
        }
    }

    #[test]
    fn scale_out_and_in_round_trip() {
        use ips_types::Clock as _;
        use ips_types::{
            ActionTypeId, CallerId, CountVector, FeatureId, ProfileId, SlotId, TableId, TimeRange,
        };
        let (mut d, ctl) = build();
        assert_eq!(d.regions[0].endpoints.len(), 2);

        // Scale out region-a by 2; new instances serve the same table.
        let added = d.scale_out("region-a", 2).unwrap();
        assert_eq!(added.len(), 2);
        assert_eq!(d.regions[0].endpoints.len(), 4);
        assert_eq!(d.discovery.healthy_in_region("region-a").len(), 4);
        // A new instance answers queries (empty profile, but serves).
        let inst = added[0].instance();
        inst.add_profile(
            CallerId::new(1),
            TableId::new(1),
            ProfileId::new(5),
            ctl.now(),
            SlotId::new(1),
            ActionTypeId::new(1),
            FeatureId::new(9),
            CountVector::single(1),
        )
        .unwrap();
        let q = ips_core::query::ProfileQuery::top_k(
            TableId::new(1),
            ProfileId::new(5),
            SlotId::new(1),
            TimeRange::last_days(1),
            5,
        );
        assert_eq!(inst.query(CallerId::new(1), &q).unwrap().len(), 1);

        // Scale back in: drains, deregisters, keeps at least one instance.
        let removed = d.scale_in("region-a", 10).unwrap();
        assert_eq!(removed, 3, "scaled down to the one-instance floor");
        assert_eq!(d.regions[0].endpoints.len(), 1);
        assert_eq!(d.discovery.healthy_in_region("region-a").len(), 1);

        // Unknown region errors.
        assert!(d.scale_out("nowhere", 1).is_err());
        assert!(d.scale_in("nowhere", 1).is_err());
    }

    #[test]
    fn region_outage_takes_endpoints_down() {
        let (d, ctl) = build();
        d.regions[1].set_down(true);
        assert!(d.regions[1].endpoints.iter().all(|e| e.is_down()));
        // Heartbeats skip down endpoints; after TTL they drop out of
        // discovery while region-a stays registered.
        ctl.advance(DurationMs::from_secs(20));
        d.heartbeat_all();
        ctl.advance(DurationMs::from_secs(20));
        assert_eq!(d.discovery.healthy_in_region("region-b").len(), 0);
        assert_eq!(d.discovery.healthy_in_region("region-a").len(), 2);
        // Recovery: bring it back and re-register.
        d.regions[1].set_down(false);
        for ep in &d.regions[1].endpoints {
            d.discovery.register(ep.name(), ep.region());
        }
        assert_eq!(d.discovery.healthy_in_region("region-b").len(), 2);
    }
}
