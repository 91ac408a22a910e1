//! Offline latency pricing: the cost model the paper harnesses apply to
//! the facts a call measured.
//!
//! Serving code models no time. A client call reports the bytes every
//! attempt moved ([`WireLog`]), and a query result reports the store fetch
//! a miss performed (`kv_round_trips`, `kv_bytes_read`). This module turns
//! those facts into the network and storage time the paper's figures
//! report (Table II: ~3 ms of "package transmission on network" that grows
//! with the response size, plus a 2–4 ms miss penalty for the HBase
//! fetch). Prices are the expected values of the production parameters and
//! use no randomness, so the same facts always price the same.
//!
//! The grouping rules follow how the attempts ran: frames of one round are
//! in flight together, so a round costs its slowest frame; rounds of a
//! lane run one after another and add; the lanes of a write (one per
//! region) are independent, so a write costs its slowest lane. A batch's
//! store time is its slowest fetch: owners fetch in parallel.

use std::collections::BTreeMap;

use ips_cluster::{BatchQueryOutcome, FrameBytes, WireLog};
use ips_core::query::QueryResult;

/// One network traversal: a fixed per-hop cost plus a size-proportional
/// transfer term.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetworkCost {
    /// Fixed cost of one traversal (request or response), µs.
    pub rtt_us: u64,
    /// Transfer cost per KiB moved, µs (fractional KiB are charged
    /// pro rata: small control frames do not pay a whole KiB).
    pub per_kib_us: u64,
}

/// One persistent-store fetch: a fixed per-op cost plus a transfer term.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StorageCost {
    /// Fixed cost of one cold store op (request handling, index lookup), µs.
    pub base_us: u64,
    /// Transfer cost per started KiB of value moved, µs.
    pub per_kib_us: u64,
}

/// The network and storage prices a harness applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    pub network: NetworkCost,
    pub storage: StorageCost,
}

impl CostModel {
    /// The paper's latency picture: a small fixed per-hop cost so tiny
    /// calls stay around a millisecond (Fig 16's flat p50 ~1 ms) plus a
    /// strong size-proportional network term, and a ~2–4 ms store fetch
    /// for typical 10–40 KiB serialized profiles.
    pub const PRODUCTION: Self = Self {
        network: NetworkCost {
            rtt_us: 450,
            per_kib_us: 1_000,
        },
        storage: StorageCost {
            base_us: 1_500,
            per_kib_us: 60,
        },
    };

    /// One traversal of a `bytes`-long frame; a frame that never arrived
    /// (zero bytes) costs nothing.
    fn traversal_us(&self, bytes: u32) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let transfer = (self.network.per_kib_us as f64 * f64::from(bytes) / 1024.0).round();
        self.network.rtt_us + transfer as u64
    }

    /// One attempt: its request traversal plus its response traversal.
    #[must_use]
    pub fn frame_us(&self, bytes: FrameBytes) -> u64 {
        self.traversal_us(bytes.sent) + self.traversal_us(bytes.received)
    }

    /// A whole call's network time: each round costs its slowest frame,
    /// rounds add within a lane, and the call costs its slowest lane.
    #[must_use]
    pub fn wire_us(&self, wire: &WireLog) -> u64 {
        let mut rounds: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for f in wire.frames() {
            let slowest = rounds.entry((f.lane, f.round)).or_default();
            *slowest = (*slowest).max(self.frame_us(f.bytes));
        }
        let mut lanes: BTreeMap<u32, u64> = BTreeMap::new();
        for ((lane, _), us) in rounds {
            *lanes.entry(lane).or_default() += us;
        }
        lanes.into_values().max().unwrap_or(0)
    }

    /// A single-op store fetch moving `bytes`.
    #[must_use]
    pub fn store_op_us(&self, bytes: u64) -> u64 {
        self.storage.base_us + self.storage.per_kib_us * bytes.div_ceil(1024)
    }

    /// Fixed cost of one *additional* round trip issued back to back on an
    /// already-open store conversation (the split-profile loader's
    /// meta-then-multi-get sequence): setup and queueing are amortized,
    /// leaving about a fifth of the cold per-op cost.
    #[must_use]
    pub fn amortized_op_us(&self) -> u64 {
        self.storage.base_us / 5
    }

    /// A profile fetch of `round_trips` store ops moving `bytes` in total:
    /// the first op pays the full fixed cost, each further op the amortized
    /// cost — why one multi-get of N slices is far cheaper than N gets.
    #[must_use]
    pub fn fetch_us(&self, round_trips: u32, bytes: u64) -> u64 {
        let extra = u64::from(round_trips.saturating_sub(1)) * self.amortized_op_us();
        self.store_op_us(bytes) + extra
    }

    /// The store fetch a query result reports (zero for a hit, which made
    /// no store round trip).
    #[must_use]
    pub fn result_fetch_us(&self, result: &QueryResult) -> u64 {
        if result.kv_round_trips == 0 {
            return 0;
        }
        self.fetch_us(result.kv_round_trips, result.kv_bytes_read)
    }

    /// Price one `query` call that took `measured_us` of wall time.
    #[must_use]
    pub fn price_query(&self, measured_us: u64, result: &QueryResult, wire: &WireLog) -> Priced {
        Priced {
            measured_us,
            network_us: self.wire_us(wire),
            storage_us: self.result_fetch_us(result),
        }
    }

    /// Price one `query_batch` call: its wire log, plus the slowest fetch.
    #[must_use]
    pub fn price_batch(&self, measured_us: u64, outcome: &BatchQueryOutcome) -> Priced {
        let storage_us = outcome
            .results
            .iter()
            .flatten()
            .map(|r| self.result_fetch_us(r))
            .max()
            .unwrap_or(0);
        Priced {
            measured_us,
            network_us: self.wire_us(&outcome.wire),
            storage_us,
        }
    }

    /// Price one write call (writes never fetch from the store).
    #[must_use]
    pub fn price_write(&self, measured_us: u64, wire: &WireLog) -> Priced {
        Priced {
            measured_us,
            network_us: self.wire_us(wire),
            storage_us: 0,
        }
    }
}

/// One call's latency: what the harness measured plus what the model
/// priced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Priced {
    /// Wall time of the in-process call (client, codec, server compute).
    pub measured_us: u64,
    /// Priced network transit.
    pub network_us: u64,
    /// Priced persistent-store fetch.
    pub storage_us: u64,
}

impl Priced {
    /// End-to-end client-observed latency.
    #[must_use]
    pub fn total_us(&self) -> u64 {
        self.measured_us + self.network_us + self.storage_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: CostModel = CostModel::PRODUCTION;

    fn frame(sent: u32, received: u32) -> FrameBytes {
        FrameBytes { sent, received }
    }

    #[test]
    fn expected_scales_with_size() {
        let small = M.store_op_us(1024);
        let big = M.store_op_us(40 * 1024);
        assert!(big > small);
        // 40 KiB profile fetch lands in the paper's 2-4ms miss penalty.
        assert!((2_000..=4_500).contains(&big), "40KiB fetch = {big}us");
    }

    #[test]
    fn fetch_amortizes_extra_round_trips() {
        let one = M.fetch_us(1, 8 << 10);
        let two = M.fetch_us(2, 8 << 10);
        assert_eq!(one, M.store_op_us(8 << 10));
        assert_eq!(two - one, M.amortized_op_us());
        // A projected 2-round-trip small fetch beats a single-op 32 KiB
        // fetch by a wide margin.
        assert!(M.fetch_us(2, 4 << 10) < M.store_op_us(32 << 10));
        // Zero round trips does not underflow.
        assert_eq!(M.fetch_us(0, 0), M.storage.base_us);
    }

    #[test]
    fn zero_model_is_zero() {
        let zero = CostModel {
            network: NetworkCost {
                rtt_us: 0,
                per_kib_us: 0,
            },
            storage: StorageCost {
                base_us: 0,
                per_kib_us: 0,
            },
        };
        let mut wire = WireLog::default();
        wire.push(0, 0, frame(1 << 20, 1 << 20));
        assert_eq!(zero.wire_us(&wire), 0);
        assert_eq!(zero.fetch_us(3, 1 << 20), 0);
    }

    #[test]
    fn frames_price_each_delivered_traversal() {
        // 1 KiB each way: two traversals of rtt + one KiB.
        assert_eq!(M.frame_us(frame(1024, 1024)), 2 * (450 + 1_000));
        // A lost response paid only the request's traversal; a frame
        // that never left costs nothing.
        assert_eq!(M.frame_us(frame(512, 0)), 450 + 500);
        assert_eq!(M.frame_us(FrameBytes::default()), 0);
    }

    #[test]
    fn round_costs_its_slowest_frame_and_rounds_add() {
        let small = frame(100, 100);
        let big = frame(4096, 4096);
        let mut wire = WireLog::default();
        wire.push(0, 0, small);
        wire.push(0, 0, big);
        wire.push(0, 0, small);
        assert_eq!(M.wire_us(&wire), M.frame_us(big), "one round: slowest");
        wire.push(0, 1, small);
        assert_eq!(M.wire_us(&wire), M.frame_us(big) + M.frame_us(small));
    }

    #[test]
    fn write_costs_its_slowest_lane() {
        let small = frame(100, 10);
        let big = frame(4096, 10);
        let mut wire = WireLog::default();
        // Lane 0: two sequential attempts; lane 1: one bigger attempt.
        wire.push(0, 0, small);
        wire.push(0, 1, small);
        wire.push(1, 0, big);
        let lane0 = 2 * M.frame_us(small);
        let lane1 = M.frame_us(big);
        assert_eq!(M.wire_us(&wire), lane0.max(lane1));
        assert_eq!(M.wire_us(&WireLog::default()), 0);
    }
}
