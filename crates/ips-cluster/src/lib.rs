//! Distribution substrate for `ips-rs`.
//!
//! The paper deploys IPS instances behind ID-based consistent hashing with
//! Consul service discovery and a Thrift RPC fabric, geo-replicated across
//! regions with write-all/read-local fan-out (§III, Fig 15). This crate
//! reproduces that topology in-process:
//!
//! * [`ring`] — a consistent-hash ring with virtual nodes;
//! * [`discovery`] — a TTL-based service registry (Consul substitute):
//!   instances register on readiness, clients refresh the list periodically;
//! * [`rpc`] — serialized request/response messages over an in-process
//!   transport that reports the bytes each call moved, with a loss fault
//!   and per-endpoint fault switches (no time is modeled here: the
//!   experiment harnesses price the bytes offline);
//! * [`region`] — N-region deployments: one region persists to the master
//!   KV cluster, the others read their local replicas (weak consistency);
//! * [`client`] — the unified IPS client: consistent-hash routing,
//!   write-to-all-regions / query-local, retry on retryable failures,
//!   error-rate accounting (the machinery behind Fig 17).

pub mod autoscale;
pub mod client;
pub mod discovery;
pub mod handoff;
pub mod region;
pub mod ring;
pub mod rpc;

pub use autoscale::{Autoscaler, AutoscalerConfig, ScaleDecision, ScaleOrchestrator};
pub use client::pipeline::health::{BreakerState, EndpointHealth, HealthRegistry};
pub use client::{BatchQueryOutcome, ClientStats, IpsClusterClient, WireFrame, WireLog};
pub use discovery::{Discovery, Registration};
pub use handoff::{
    HandoffConfig, HandoffCoordinator, HandoffMetrics, HandoffReport, MembershipEpoch,
};
pub use region::{MultiRegionDeployment, MultiRegionOptions, Region, RegionStore};
pub use ring::{transfer_pairs, HashRing};
pub use rpc::{
    CallOptions, FrameBytes, NetworkModel, ProfileWrite, RpcEndpoint, RpcRequest, RpcResponse,
    SnapshotAck, SnapshotEntry,
};
