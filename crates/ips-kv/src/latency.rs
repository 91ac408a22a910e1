//! The storage-model argument `IpsClusterClient::new` still accepts.
//!
//! Nothing in the serving path models storage time any more: a query
//! result reports the fetch it performed (`kv_round_trips`,
//! `kv_bytes_read`) and the experiment harnesses price it offline
//! (`ips_bench::latency`). This type carries no parameters; it remains so
//! existing callers of the client constructor keep compiling.

/// An empty storage model, accepted and ignored by the cluster client.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KvLatencyModel;

impl KvLatencyModel {
    /// The only value.
    #[must_use]
    pub fn zero() -> Self {
        Self
    }
}
