//! Sub-message wire codecs shared by the frame encoders: queries, sort
//! keys, decay functions, errors, query results, profile writes and
//! snapshot chunks. Field numbering is local to each message.

use ips_codec::wire::count_field;
use ips_codec::wire_message;
use ips_core::query::{FeatureEntry, FilterPredicate, ProfileQuery, QueryKind, QueryResult};
use ips_types::config::DecayFunction;
use ips_types::{
    ActionTypeId, CallerId, CountVector, DurationMs, FeatureId, IpsError, ProfileId, Result,
    SlotId, SortKey, SortOrder, TableId, TimeRange, Timestamp,
};

use super::{ProfileWrite, RpcRequest, SnapshotAck, SnapshotEntry};

wire_message! {
    /// A [`TimeRange`]: kind 1/2/3 = current/relative/absolute, then a
    /// lookback or the absolute bounds.
    pub(super) struct TimeRangeWire("time_range");
    encode(range: &TimeRange) {
        let (kind, lookback, bounds) = match *range {
            TimeRange::Current { lookback } => (1, Some(lookback), None),
            TimeRange::Relative { lookback } => (2, Some(lookback), None),
            TimeRange::Absolute { start, end } => (3, None, Some((start, end))),
        };
    }
    decode(bytes) -> TimeRange {
        let (mut kind, mut lookback, mut start, mut end) = (0, 0, 0, 0);
    }
    1 varint(kind) => |v| kind = v;
    2 optional varint(lookback.map(DurationMs::as_millis)) => |v| lookback = v;
    3 optional fixed64(bounds.map(|(s, _)| s.as_millis())) => |v| start = v;
    4 optional fixed64(bounds.map(|(_, e)| e.as_millis())) => |v| end = v;
    finish {
        match kind {
            1 => Ok(TimeRange::Current {
                lookback: DurationMs::from_millis(lookback),
            }),
            2 => Ok(TimeRange::Relative {
                lookback: DurationMs::from_millis(lookback),
            }),
            3 => Ok(TimeRange::Absolute {
                start: Timestamp::from_millis(start),
                end: Timestamp::from_millis(end),
            }),
            other => Err(IpsError::Codec(format!("bad time range kind {other}"))),
        }
    }
}

wire_message! {
    /// A sort key (kind + attribute index) and its order.
    pub(super) struct SortWire("sort");
    encode((sort, order): (SortKey, SortOrder)) {
        let (kind, arg) = match sort {
            SortKey::Attribute(idx) => (1, idx as u64),
            SortKey::WeightedScore => (2, 0),
            SortKey::Timestamp => (3, 0),
            SortKey::FeatureId => (4, 0),
        };
    }
    decode(bytes) -> (SortKey, SortOrder) {
        let (mut kind, mut arg, mut asc) = (0, 0, false);
    }
    1 varint(kind) => |v| kind = v;
    2 varint(arg) => |v| arg = v;
    3 varint(u64::from(matches!(order, SortOrder::Ascending))) => |v| asc = v != 0;
    finish {
        let sort = match kind {
            1 => SortKey::Attribute(arg as usize),
            2 => SortKey::WeightedScore,
            3 => SortKey::Timestamp,
            4 => SortKey::FeatureId,
            other => return Err(IpsError::Codec(format!("bad sort kind {other}"))),
        };
        let order = if asc {
            SortOrder::Ascending
        } else {
            SortOrder::Descending
        };
        Ok((sort, order))
    }
}

wire_message! {
    /// A [`DecayFunction`]: kind 0–3, its duration argument, and the step
    /// factor's bits.
    pub(super) struct DecayWire("decay");
    encode(decay: DecayFunction) {
        let (kind, arg, factor) = match decay {
            DecayFunction::None => (0, None, None),
            DecayFunction::Exponential { half_life } => (1, Some(half_life), None),
            DecayFunction::Linear { horizon } => (2, Some(horizon), None),
            DecayFunction::Step {
                boundary,
                old_factor,
            } => (3, Some(boundary), Some(old_factor)),
        };
    }
    decode(bytes) -> DecayFunction {
        let (mut kind, mut arg, mut bits) = (0, 0, 0);
    }
    1 varint(kind) => |v| kind = v;
    2 optional varint(arg.map(DurationMs::as_millis)) => |v| arg = v;
    3 optional fixed64(factor.map(f64::to_bits)) => |v| bits = v;
    finish {
        Ok(match kind {
            0 => DecayFunction::None,
            1 => DecayFunction::Exponential {
                half_life: DurationMs::from_millis(arg),
            },
            2 => DecayFunction::Linear {
                horizon: DurationMs::from_millis(arg),
            },
            3 => DecayFunction::Step {
                boundary: DurationMs::from_millis(arg),
                old_factor: f64::from_bits(bits),
            },
            other => return Err(IpsError::Codec(format!("bad decay kind {other}"))),
        })
    }
}

wire_message! {
    /// A [`ProfileQuery`]. Field 6 selects the kind; top-K and decay carry
    /// `k` (7) and a sort (8), a filter its predicate (9–12).
    pub(super) struct QueryWire("query");
    encode(q: &ProfileQuery) {
        let (kind, top) = match q.kind {
            QueryKind::TopK { k, sort, order } => (1, Some((k, (sort, order)))),
            QueryKind::Filter { .. } => (2, None),
            QueryKind::Decay { k, sort, order } => (3, Some((k, (sort, order)))),
        };
        let (predicate, min_attribute, fids) = match &q.kind {
            QueryKind::Filter {
                predicate: FilterPredicate::MinAttribute { attr, min },
            } => (Some(1), Some((*attr as u64, *min)), None),
            QueryKind::Filter {
                predicate: FilterPredicate::FeatureIn(fids),
            } => (Some(2), None, Some(fids.iter().map(|f| f.raw()).collect::<Vec<u64>>())),
            QueryKind::Filter {
                predicate: FilterPredicate::All,
            } => (Some(3), None, None),
            _ => (None, None, None),
        };
    }
    decode(bytes) -> ProfileQuery {
        let (mut table, mut profile, mut slot, mut action) = (0, 0, 0, None);
        let mut range = TimeRange::Current {
            lookback: DurationMs::ZERO,
        };
        let (mut kind, mut k, mut sort) = (0, 0, (SortKey::Attribute(0), SortOrder::Descending));
        let (mut predicate, mut attr, mut min, mut fids) = (0, 0, 0, Vec::new());
        let (mut decay, mut decay_factor) = (DecayFunction::None, 1.0);
    }
    1 varint(u64::from(q.table.raw())) => |v| table = v;
    2 varint(q.profile.raw()) => |v| profile = v;
    3 varint(u64::from(q.slot.raw())) => |v| slot = v;
    4 optional varint(q.action.map(|a| u64::from(a.raw()))) => |v| action = Some(v);
    5 nested TimeRangeWire(&q.range) => |r| range = r;
    6 varint(kind) => |v| kind = v;
    7 optional varint(top.map(|(k, _)| k as u64)) => |v| k = v as usize;
    8 optional nested SortWire(top.map(|(_, sort)| sort)) => |s| sort = s;
    9 optional varint(predicate) => |v| predicate = v;
    10 optional varint(min_attribute.map(|(attr, _)| attr)) => |v| attr = v as usize;
    11 optional zigzag(min_attribute.map(|(_, min)| min)) => |v| min = v;
    12 optional packed(fids.as_deref()) => |v| fids = v;
    13 nested DecayWire(q.decay) => |d| decay = d;
    14 fixed64(q.decay_factor.to_bits()) => |v| decay_factor = f64::from_bits(v);
    finish {
        let (sort, order) = sort;
        let kind = match kind {
            1 => QueryKind::TopK { k, sort, order },
            2 => QueryKind::Filter {
                predicate: match predicate {
                    1 => FilterPredicate::MinAttribute { attr, min },
                    2 => FilterPredicate::FeatureIn(fids.into_iter().map(FeatureId::new).collect()),
                    3 => FilterPredicate::All,
                    other => return Err(IpsError::Codec(format!("bad predicate {other}"))),
                },
            },
            3 => QueryKind::Decay { k, sort, order },
            other => return Err(IpsError::Codec(format!("bad query kind {other}"))),
        };
        Ok(ProfileQuery {
            table: TableId::new(table as u32),
            profile: ProfileId::new(profile),
            slot: SlotId::new(slot as u32),
            action: action.map(|a| ActionTypeId::new(a as u32)),
            range,
            kind,
            decay,
            decay_factor,
        })
    }
}

wire_message! {
    /// An [`IpsError`] inside a batch sub-result. Variant identity is
    /// preserved exactly — `is_retryable()` must give the same answer on
    /// both sides, or client-side per-sub-query failover breaks.
    pub(super) struct ErrorWire("error");
    encode(e: &IpsError) {
        let (tag, a, b, msg): (u64, u64, u64, &str) = match e {
            IpsError::UnknownTable(t) => (1, u64::from(t.raw()), 0, ""),
            IpsError::ProfileNotFound { table, profile } => {
                (2, u64::from(table.raw()), profile.raw(), "")
            }
            IpsError::InvalidRequest(m) => (3, 0, 0, m),
            IpsError::InvalidConfig(m) => (4, 0, 0, m),
            IpsError::QuotaExceeded(c) => (5, u64::from(c.raw()), 0, ""),
            IpsError::Storage(m) => (6, 0, 0, m),
            IpsError::StaleGeneration { held, current } => (7, *held, *current, ""),
            IpsError::Codec(m) => (8, 0, 0, m),
            IpsError::Rpc(m) => (9, 0, 0, m),
            IpsError::Unavailable(m) => (10, 0, 0, m),
            IpsError::ShuttingDown => (11, 0, 0, ""),
            IpsError::DeadlineExceeded => (12, 0, 0, ""),
            IpsError::Overloaded { inflight, limit } => (13, *inflight, *limit, ""),
        };
    }
    decode(bytes) -> IpsError {
        let (mut tag, mut a, mut b, mut msg) = (0, 0, 0, String::new());
    }
    1 varint(tag) => |v| tag = v;
    2 varint(a) => |v| a = v;
    3 varint(b) => |v| b = v;
    4 optional bytes((!msg.is_empty()).then_some(msg.as_bytes())) => |v| {
        msg = String::from_utf8_lossy(v).into_owned()
    };
    finish {
        Ok(match tag {
            1 => IpsError::UnknownTable(TableId::new(a as u32)),
            2 => IpsError::ProfileNotFound {
                table: TableId::new(a as u32),
                profile: ProfileId::new(b),
            },
            3 => IpsError::InvalidRequest(msg),
            4 => IpsError::InvalidConfig(msg),
            5 => IpsError::QuotaExceeded(CallerId::new(a as u32)),
            6 => IpsError::Storage(msg),
            7 => IpsError::StaleGeneration {
                held: a,
                current: b,
            },
            8 => IpsError::Codec(msg),
            9 => IpsError::Rpc(msg),
            10 => IpsError::Unavailable(msg),
            11 => IpsError::ShuttingDown,
            12 => IpsError::DeadlineExceeded,
            13 => IpsError::Overloaded {
                inflight: a,
                limit: b,
            },
            other => return Err(IpsError::Codec(format!("bad error tag {other}"))),
        })
    }
}

wire_message! {
    /// A [`QueryResult`]. The degraded markers (4, 5) and the storage-cost
    /// fields (6, 7) only hit the wire when set, so normal and pure-hit
    /// results stay byte-identical to older encoders.
    pub(super) struct QueryResultWire("query_result");
    encode(r: &QueryResult) {
        let fetched = r.kv_round_trips > 0;
    }
    decode(bytes) -> QueryResult {
        let mut result = QueryResult {
            entries: Vec::with_capacity(count_field(bytes, 3)),
            ..QueryResult::default()
        };
    }
    1 varint(r.slices_visited as u64) => |v| result.slices_visited = v as usize;
    2 varint(u64::from(r.cache_hit)) => |v| result.cache_hit = v != 0;
    4 optional varint(r.degraded.then_some(1)) => |v| result.degraded = v != 0;
    5 optional varint(r.degraded.then(|| r.staleness.as_millis())) => |v| {
        result.staleness = DurationMs::from_millis(v)
    };
    6 optional varint(fetched.then_some(u64::from(r.kv_round_trips))) => |v| {
        result.kv_round_trips = v as u32
    };
    7 optional varint(fetched.then_some(r.kv_bytes_read)) => |v| result.kv_bytes_read = v;
    3 repeated nested FeatureEntryWire(&r.entries) => |e| result.entries.push(e);
    finish {
        Ok(result)
    }
}

wire_message! {
    /// One result row: feature id, counts and last-seen time.
    pub(super) struct FeatureEntryWire("query_result.3");
    encode(e: &FeatureEntry) {}
    decode(bytes) -> FeatureEntry {
        let (mut fid, mut counts, mut last_seen) = (0, CountVector::empty(), 0);
    }
    1 varint(e.feature.raw()) => |v| fid = v;
    2 counts(e.counts.as_slice()) => |c| counts = c.to_vector();
    3 fixed64(e.last_seen.as_millis()) => |v| last_seen = v;
    finish {
        Ok(FeatureEntry {
            feature: FeatureId::new(fid),
            counts,
            last_seen: Timestamp::from_millis(last_seen),
        })
    }
}

wire_message! {
    /// One written feature: its id and counts.
    pub(super) struct FeatureCountsWire("rpc_request.8", "profile_write.6");
    encode((fid, counts): &(FeatureId, CountVector)) {}
    decode(bytes) -> (FeatureId, CountVector) {
        let (mut fid, mut counts) = (0, CountVector::empty());
    }
    1 varint(fid.raw()) => |v| fid = v;
    2 counts(counts.as_slice()) => |c| counts = c.to_vector();
    finish {
        Ok((FeatureId::new(fid), counts))
    }
}

wire_message! {
    /// One profile's writes inside an `AddBatch` frame.
    pub(super) struct ProfileWriteWire("profile_write");
    encode(pw: &ProfileWrite) {}
    decode(bytes) -> ProfileWrite {
        let (mut table, mut profile, mut at, mut slot, mut action) = (0, 0, 0, 0, 0);
        let mut features = Vec::new();
    }
    1 varint(u64::from(pw.table.raw())) => |v| table = v;
    2 varint(pw.profile.raw()) => |v| profile = v;
    3 fixed64(pw.at.as_millis()) => |v| at = v;
    4 varint(u64::from(pw.slot.raw())) => |v| slot = v;
    5 varint(u64::from(pw.action.raw())) => |v| action = v;
    6 repeated nested FeatureCountsWire(&pw.features) => |f| features.push(f);
    finish {
        Ok(ProfileWrite {
            table: TableId::new(table as u32),
            profile: ProfileId::new(profile),
            at: Timestamp::from_millis(at),
            slot: SlotId::new(slot as u32),
            action: ActionTypeId::new(action as u32),
            features,
        })
    }
}

wire_message! {
    /// One profile of a handoff snapshot: id, generation, encoded bytes.
    pub(super) struct SnapshotEntryWire("snapshot_entry");
    encode(e: &SnapshotEntry) {}
    decode(bytes) -> SnapshotEntry {
        let (mut profile, mut generation, mut payload) = (0, 0, Vec::new());
    }
    1 varint(e.profile.raw()) => |v| profile = v;
    2 varint(e.generation) => |v| generation = v;
    3 bytes(&e.payload) => |v| payload = v.to_vec();
    finish {
        Ok(SnapshotEntry {
            profile: ProfileId::new(profile),
            generation,
            payload,
        })
    }
}

wire_message! {
    /// The body of an [`RpcRequest::SnapshotChunk`].
    pub(super) struct SnapshotChunkWire("snapshot_chunk");
    encode((table, handoff, seq, last, entries): (TableId, u64, u64, bool, &[SnapshotEntry])) {}
    decode(bytes) -> RpcRequest {
        let (mut table, mut handoff, mut seq, mut last) = (0, 0, 0, false);
        let mut entries = Vec::new();
    }
    1 varint(u64::from(table.raw())) => |v| table = v;
    2 varint(handoff) => |v| handoff = v;
    3 varint(seq) => |v| seq = v;
    4 varint(u64::from(last)) => |v| last = v != 0;
    5 repeated nested SnapshotEntryWire(entries) => |e| entries.push(e);
    finish {
        Ok(RpcRequest::SnapshotChunk {
            table: TableId::new(table as u32),
            handoff,
            seq,
            last,
            entries,
        })
    }
}

wire_message! {
    /// A [`SnapshotAck`].
    pub(super) struct SnapshotAckWire("snapshot_ack");
    encode(ack: &SnapshotAck) {}
    decode(bytes) -> SnapshotAck {
        let mut ack = SnapshotAck::default();
    }
    1 varint(ack.handoff) => |v| ack.handoff = v;
    2 varint(ack.next_seq) => |v| ack.next_seq = v;
    3 varint(ack.imported) => |v| ack.imported = v;
    4 varint(ack.rejected_stale) => |v| ack.rejected_stale = v;
    5 varint(ack.already_resident) => |v| ack.already_resident = v;
    finish {
        Ok(ack)
    }
}

wire_message! {
    /// One sub-result of a batch response: a result (1) or an error (2).
    pub(super) struct SubResultWire("rpc_response.3");
    encode(sub: &Result<QueryResult>) {}
    decode(bytes) -> Result<QueryResult> {
        let mut sub = None;
    }
    1 optional nested QueryResultWire(sub.as_ref().ok()) => |r| sub = Some(Ok(r));
    2 optional nested ErrorWire(sub.as_ref().err()) => |e| sub = Some(Err(e));
    finish {
        sub.ok_or_else(|| IpsError::Codec("batch sub-result missing".into()))
    }
}
