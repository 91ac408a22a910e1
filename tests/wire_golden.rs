//! Golden bytes for every wire message: one sample value per
//! `wire_schema.lock` section, plus the absent-field shapes (untraced
//! envelope, default `CallOptions`, non-degraded and no-fetch
//! `QueryResult`, `TimeRange::Current`, an error with an empty message), and
//! a storage frame carrying a trace context, as older writers stamped it.
//! Nothing writes that last shape any more, nor the nested (Fig 6 tree)
//! profile and slice bodies that preceded the packed slice columns, so
//! those are read-only cases: the fixture keeps them and only the decode
//! tests read them.
//!
//! Equal values must encode to identical bytes across codec rewrites:
//! persisted profiles, WAL segments and RPC frames written by an older
//! binary have to stay readable, and a frame-size change moves the network
//! model. The bytes live in `wire_golden.txt`; a mismatch prints the whole
//! rendered file. Only commit it when a wire change is intended and
//! recorded in `wire_schema.lock`.

use std::sync::Arc;

use bytes::Bytes;

use ips::cluster::rpc::{
    CallOptions, ProfileWrite, RequestEnvelope, RpcRequest, RpcResponse, SnapshotAck, SnapshotEntry,
};
use ips::codec::frame::decode_frame;
use ips::core::persist::persister::ProfilePersister;
use ips::core::persist::schema::{decode_profile, decode_slice, encode_profile, encode_slice};
use ips::core::query::{FeatureEntry, FilterPredicate, ProfileQuery, QueryKind, QueryResult};
use ips::core::ProfileData;
use ips::kv::{KvNode, KvNodeConfig, MemStorage, Wal, WalRecord, WalStorage};
use ips::trace::{SpanContext, SpanId, TraceId};
use ips::types::config::DecayFunction;
use ips::types::{
    ActionTypeId, AggregateFunction, CallerId, CountVector, Deadline, DurationMs, FeatureId,
    IpsError, PersistenceMode, Priority, ProfileId, SlotId, SortKey, SortOrder, TableId, TimeRange,
    Timestamp, WalConfig,
};

fn ts(ms: u64) -> Timestamp {
    Timestamp::from_millis(ms)
}

fn span() -> SpanContext {
    SpanContext {
        trace: TraceId(0x0123_4567_89ab_cdef),
        span: SpanId(0x42),
        sampled: true,
    }
}

fn query(kind: QueryKind, range: TimeRange, decay: DecayFunction) -> ProfileQuery {
    ProfileQuery {
        table: TableId::new(3),
        profile: ProfileId::new(42),
        slot: SlotId::new(2),
        action: None,
        range,
        kind,
        decay,
        decay_factor: 0.5,
    }
}

fn sample_queries() -> Vec<ProfileQuery> {
    let mut top_k = query(
        QueryKind::TopK {
            k: 10,
            sort: SortKey::Attribute(1),
            order: SortOrder::Ascending,
        },
        TimeRange::Current {
            lookback: DurationMs::from_secs(864_000),
        },
        DecayFunction::None,
    );
    top_k.action = Some(ActionTypeId::new(5));
    top_k.decay_factor = 1.0;
    vec![
        top_k,
        query(
            QueryKind::Filter {
                predicate: FilterPredicate::MinAttribute { attr: 2, min: -7 },
            },
            TimeRange::Relative {
                lookback: DurationMs::from_millis(3_600_000),
            },
            DecayFunction::Exponential {
                half_life: DurationMs::from_secs(86_400),
            },
        ),
        query(
            QueryKind::Filter {
                predicate: FilterPredicate::FeatureIn(vec![FeatureId::new(7), FeatureId::new(300)]),
            },
            TimeRange::Absolute {
                start: ts(1_000),
                end: ts(2_000_000),
            },
            DecayFunction::Linear {
                horizon: DurationMs::from_secs(3_600),
            },
        ),
        query(
            QueryKind::Filter {
                predicate: FilterPredicate::All,
            },
            TimeRange::Current {
                lookback: DurationMs::ZERO,
            },
            DecayFunction::None,
        ),
        query(
            QueryKind::Decay {
                k: 3,
                sort: SortKey::WeightedScore,
                order: SortOrder::Descending,
            },
            TimeRange::Relative {
                lookback: DurationMs::from_secs(60),
            },
            DecayFunction::Step {
                boundary: DurationMs::from_secs(600),
                old_factor: 0.25,
            },
        ),
        query(
            QueryKind::TopK {
                k: 1,
                sort: SortKey::Timestamp,
                order: SortOrder::Descending,
            },
            TimeRange::Current {
                lookback: DurationMs::from_secs(1),
            },
            DecayFunction::None,
        ),
        query(
            QueryKind::TopK {
                k: 2,
                sort: SortKey::FeatureId,
                order: SortOrder::Ascending,
            },
            TimeRange::Current {
                lookback: DurationMs::from_secs(1),
            },
            DecayFunction::None,
        ),
    ]
}

fn features() -> Vec<(FeatureId, CountVector)> {
    vec![
        (FeatureId::new(101), CountVector::single(1)),
        (FeatureId::new(102), CountVector::pair(3, -4)),
        (
            FeatureId::new(u64::MAX),
            CountVector::from_slice(&[1, -2, 3, i64::MIN, i64::MAX, 0, 7, 8]),
        ),
    ]
}

fn sample_result(degraded: bool, fetched: bool) -> QueryResult {
    QueryResult {
        entries: vec![
            FeatureEntry {
                feature: FeatureId::new(9),
                counts: CountVector::pair(5, 6),
                last_seen: ts(1_700_000_000_123),
            },
            FeatureEntry {
                feature: FeatureId::new(10),
                counts: CountVector::empty(),
                last_seen: ts(0),
            },
        ],
        slices_visited: 4,
        cache_hit: !fetched,
        degraded,
        staleness: DurationMs::from_millis(if degraded { 1_500 } else { 0 }),
        kv_round_trips: u32::from(fetched) * 2,
        kv_bytes_read: if fetched { 4_096 } else { 0 },
    }
}

fn every_error() -> Vec<IpsError> {
    vec![
        IpsError::UnknownTable(TableId::new(9)),
        IpsError::ProfileNotFound {
            table: TableId::new(1),
            profile: ProfileId::new(2),
        },
        IpsError::InvalidRequest("bad k".into()),
        IpsError::InvalidConfig(String::new()),
        IpsError::QuotaExceeded(CallerId::new(4)),
        IpsError::Storage("disk".into()),
        IpsError::StaleGeneration {
            held: 5,
            current: 6,
        },
        IpsError::Codec(String::new()),
        IpsError::Rpc("timeout".into()),
        IpsError::Unavailable("no replica".into()),
        IpsError::ShuttingDown,
        IpsError::DeadlineExceeded,
        IpsError::Overloaded {
            inflight: 64,
            limit: 32,
        },
    ]
}

fn sample_profile() -> ProfileData {
    let mut p = ProfileData::new();
    for s in 0..3u64 {
        for f in 0..6u64 {
            let counts = match f % 3 {
                0 => CountVector::single(f as i64 + 1),
                1 => CountVector::pair(-(s as i64), 2),
                _ => CountVector::from_slice(&[1, 2, 3, 4, 5]),
            };
            p.add(
                ts(1_000 + s * 10_000),
                SlotId::new((f % 2) as u32),
                ActionTypeId::new((f % 3) as u32),
                FeatureId::new(f * 31 + s),
                &counts,
                AggregateFunction::Sum,
                DurationMs::from_secs(1),
            );
        }
    }
    p.last_compacted = ts(123);
    p
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn request_cases() -> Vec<(&'static str, RpcRequest, Option<SpanContext>, CallOptions)> {
    let queries = sample_queries();
    vec![
        (
            "rpc_request/add",
            RpcRequest::Add {
                caller: CallerId::new(7),
                table: TableId::new(3),
                profile: ProfileId::new(42),
                at: ts(1_700_000_000_000),
                slot: SlotId::new(2),
                action: ActionTypeId::new(5),
                features: features(),
            },
            None,
            CallOptions::default(),
        ),
        (
            "rpc_request/query_traced_all_options",
            RpcRequest::Query {
                caller: CallerId::new(7),
                query: queries[0].clone(),
            },
            Some(span()),
            CallOptions {
                deadline: Some(Deadline::from_budget_us(250_000)),
                degraded: Some(DurationMs::from_secs(30)),
                priority: Priority::Bulk,
            },
        ),
        (
            "rpc_request/query_batch_priority_only",
            RpcRequest::QueryBatch {
                caller: CallerId::new(8),
                queries,
            },
            Some(SpanContext {
                sampled: false,
                ..span()
            }),
            CallOptions {
                priority: Priority::Interactive,
                ..CallOptions::default()
            },
        ),
        (
            "rpc_request/add_batch_deadline_only",
            RpcRequest::AddBatch {
                caller: CallerId::new(9),
                writes: vec![
                    ProfileWrite {
                        table: TableId::new(3),
                        profile: ProfileId::new(1),
                        at: ts(5),
                        slot: SlotId::new(1),
                        action: ActionTypeId::new(1),
                        features: features(),
                    },
                    ProfileWrite {
                        table: TableId::new(4),
                        profile: ProfileId::new(2),
                        at: ts(6),
                        slot: SlotId::new(0),
                        action: ActionTypeId::new(0),
                        features: Vec::new(),
                    },
                ],
            },
            None,
            CallOptions {
                deadline: Some(Deadline::from_budget_us(0)),
                ..CallOptions::default()
            },
        ),
        (
            "rpc_request/snapshot_chunk",
            RpcRequest::SnapshotChunk {
                table: TableId::new(3),
                handoff: 77,
                seq: 2,
                last: true,
                entries: vec![
                    SnapshotEntry {
                        profile: ProfileId::new(42),
                        generation: 9,
                        payload: vec![0xa9, 0, 1, 2, 3],
                    },
                    SnapshotEntry {
                        profile: ProfileId::new(43),
                        generation: 0,
                        payload: Vec::new(),
                    },
                ],
            },
            None,
            CallOptions {
                degraded: Some(DurationMs::ZERO),
                ..CallOptions::default()
            },
        ),
    ]
}

fn response_cases() -> Vec<(&'static str, RpcResponse, Option<SpanContext>)> {
    let mut batch: Vec<ips::types::Result<QueryResult>> =
        vec![Ok(sample_result(false, false)), Ok(QueryResult::default())];
    batch.extend(every_error().into_iter().map(Err));
    vec![
        ("rpc_response/ok", RpcResponse::Ok, None),
        (
            "rpc_response/query_plain",
            RpcResponse::Query(sample_result(false, false)),
            None,
        ),
        (
            "rpc_response/query_degraded_fetched_traced",
            RpcResponse::Query(sample_result(true, true)),
            Some(span()),
        ),
        (
            "rpc_response/query_empty",
            RpcResponse::Query(QueryResult::default()),
            None,
        ),
        (
            "rpc_response/query_batch",
            RpcResponse::QueryBatch(batch),
            None,
        ),
        (
            "rpc_response/snapshot_ack",
            RpcResponse::SnapshotAck(SnapshotAck {
                handoff: 77,
                next_seq: 3,
                imported: 10,
                rejected_stale: 1,
                already_resident: 2,
            }),
            None,
        ),
    ]
}

/// The split-mode slice meta value the persister writes for `profile`.
fn slice_meta_bytes(profile: &ProfileData) -> Vec<u8> {
    let node = Arc::new(KvNode::new("golden", KvNodeConfig::default()).unwrap());
    let persister = ProfilePersister::new(
        Arc::clone(&node),
        TableId::new(3),
        PersistenceMode::Split { threshold_bytes: 0 },
    );
    persister
        .save(ProfileId::new(42), &mut profile.clone(), 0)
        .unwrap();
    // Meta key: b'm' | table u32 BE | profile u64 BE.
    let mut key = vec![b'm'];
    key.extend_from_slice(&3u32.to_be_bytes());
    key.extend_from_slice(&42u64.to_be_bytes());
    node.get(&Bytes::from(key)).unwrap().unwrap().to_vec()
}

/// Every file of a WAL holding a Set, a Delete and a checkpoint, in name
/// order.
fn wal_files() -> Vec<(String, Vec<u8>)> {
    let storage = MemStorage::new();
    let wal = Wal::with_storage(Arc::new(storage.clone()), WalConfig::default()).unwrap();
    let set = WalRecord::Set {
        key: Bytes::from_static(b"k1"),
        value: Bytes::from_static(b"value one"),
        generation: 3,
    };
    wal.append(&set).unwrap();
    wal.append(&WalRecord::Delete {
        key: Bytes::from_static(b"k0"),
    })
    .unwrap();
    wal.checkpoint(|| vec![set.clone()]).unwrap();
    wal.append(&WalRecord::Set {
        key: Bytes::new(),
        value: Bytes::new(),
        generation: 0,
    })
    .unwrap();
    storage
        .list()
        .unwrap()
        .into_iter()
        .map(|name| {
            let bytes = storage.read(&name).unwrap();
            (name, bytes)
        })
        .collect()
}

fn render() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (name, req, trace, opts) in request_cases() {
        let bytes = req.encode_with(trace.as_ref(), &opts);
        let (back, env) = RpcRequest::decode_envelope(&bytes).unwrap();
        assert_eq!(back, req, "{name} round-trips");
        assert_eq!(
            env,
            RequestEnvelope {
                trace,
                deadline: opts.deadline,
                degraded: opts.degraded,
                priority: opts.priority,
            },
            "{name} envelope round-trips"
        );
        out.push((name.to_string(), hex(&bytes)));
    }
    for (name, resp, trace) in response_cases() {
        let bytes = resp.encode_traced(trace.as_ref());
        assert_eq!(
            RpcResponse::decode_traced(&bytes).unwrap(),
            (resp, trace),
            "{name} round-trips"
        );
        out.push((name.to_string(), hex(&bytes)));
    }
    let profile = sample_profile();
    let bytes = encode_profile(&profile);
    assert_eq!(decode_profile(&bytes).unwrap(), profile);
    out.push(("persist/profile".into(), hex(&bytes)));
    let empty = encode_profile(&ProfileData::new());
    assert!(decode_profile(&empty).unwrap().is_empty());
    out.push(("persist/profile_empty".into(), hex(&empty)));
    let slice = &profile.slices()[0];
    let bytes = encode_slice(slice);
    assert_eq!(&decode_slice(&bytes).unwrap(), slice);
    out.push(("persist/slice".into(), hex(&bytes)));
    out.push((
        "persist/slice_meta".into(),
        hex(&slice_meta_bytes(&profile)),
    ));
    for (file, bytes) in wal_files() {
        out.push((format!("wal/{file}"), hex(&bytes)));
    }
    out
}

/// `name hex` per line: the committed bytes, shared with the decoder
/// fuzzing in `wire_schema.rs`.
const GOLDEN: &str = include_str!("wire_golden.txt");

/// Golden cases no writer produces any more. They stay in the fixture so
/// their read path stays pinned, and `render()` skips them.
const READ_ONLY: &[&str] = &[
    "persist/profile_nested",
    "persist/slice_nested",
    "persist/slice_traced",
];

/// The committed bytes of golden case `name`.
fn golden(name: &str) -> Vec<u8> {
    let hex = GOLDEN
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("golden fixture has no `{name}`"));
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

/// The read path for the nested (Fig 6 tree) storage bodies that values
/// written before the packed slice columns hold: the committed bytes
/// decode to the sample profile and its first slice.
#[test]
fn nested_storage_goldens_decode() {
    let profile = sample_profile();
    assert_eq!(
        decode_profile(&golden("persist/profile_nested")).unwrap(),
        profile
    );
    assert_eq!(
        &decode_slice(&golden("persist/slice_nested")).unwrap(),
        &profile.slices()[0]
    );
}

/// The read path for storage frames written with a trace context: the
/// committed bytes decode to the sample slice without any writer involved.
#[test]
fn traced_storage_frame_golden_decodes() {
    let bytes = golden("persist/slice_traced");
    assert_eq!(bytes[1] & 0x02, 0x02, "FLAG_TRACE is set");
    let untraced = decode_frame(&golden("persist/slice_nested")).unwrap();
    assert_eq!(decode_frame(&bytes).unwrap(), untraced);
    let profile = sample_profile();
    assert_eq!(&decode_slice(&bytes).unwrap(), &profile.slices()[0]);
}

#[test]
fn every_wire_message_encodes_to_its_golden_bytes() {
    let rendered: String = render()
        .iter()
        .map(|(name, hex)| format!("{name} {hex}\n"))
        .collect();
    let written: String = GOLDEN
        .lines()
        .filter(|line| {
            !READ_ONLY
                .iter()
                .any(|name| line.split(' ').next() == Some(name))
        })
        .map(|line| format!("{line}\n"))
        .collect();
    if rendered != written {
        println!("{rendered}");
        for (want, got) in written.lines().zip(rendered.lines()) {
            assert_eq!(got, want, "golden bytes changed");
        }
        panic!(
            "tests/wire_golden.txt has {} written cases, rendering gives {}",
            written.lines().count(),
            rendered.lines().count()
        );
    }
}
