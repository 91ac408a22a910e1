//! Round-trip, envelope and endpoint tests for the RPC fabric.

#![allow(clippy::disallowed_types, reason = "tests hand-craft wire bytes")]

use std::sync::Arc;

use ips_codec::WireWriter;
use ips_core::query::{FeatureEntry, FilterPredicate, ProfileQuery, QueryResult};
use ips_core::server::{IpsInstance, IpsInstanceOptions};
use ips_trace::{SpanContext, SpanId, TraceId};
use ips_types::clock::system_clock;
use ips_types::config::DecayFunction;
use ips_types::{
    ActionTypeId, CallerId, CountVector, Deadline, DurationMs, FeatureId, IpsError, Priority,
    ProfileId, Result, SlotId, SortKey, SortOrder, TableConfig, TableId, TimeRange, Timestamp,
    MAX_ATTRIBUTES,
};

use super::{
    CallOptions, FrameBytes, NetworkModel, ProfileWrite, RpcEndpoint, RpcRequest, RpcResponse,
};

fn sample_query() -> ProfileQuery {
    ProfileQuery::top_k(
        TableId::new(3),
        ProfileId::new(77),
        SlotId::new(2),
        TimeRange::last_days(10),
        5,
    )
    .with_action(ActionTypeId::new(4))
    .with_sort(SortKey::WeightedScore, SortOrder::Ascending)
}

#[test]
fn request_round_trips() {
    let reqs = vec![
        RpcRequest::Add {
            caller: CallerId::new(1),
            table: TableId::new(2),
            profile: ProfileId::new(3),
            at: Timestamp::from_millis(4),
            slot: SlotId::new(5),
            action: ActionTypeId::new(6),
            features: vec![
                (FeatureId::new(7), CountVector::single(1)),
                (FeatureId::new(8), CountVector::from_slice(&[1, -2, 3])),
            ],
        },
        RpcRequest::Query {
            caller: CallerId::new(9),
            query: sample_query(),
        },
        RpcRequest::Query {
            caller: CallerId::new(9),
            query: ProfileQuery::filter(
                TableId::new(1),
                ProfileId::new(2),
                SlotId::new(3),
                TimeRange::Absolute {
                    start: Timestamp::from_millis(5),
                    end: Timestamp::from_millis(9),
                },
                FilterPredicate::FeatureIn(vec![FeatureId::new(1), FeatureId::new(2)]),
            ),
        },
        RpcRequest::Query {
            caller: CallerId::new(9),
            query: ProfileQuery::decay(
                TableId::new(1),
                ProfileId::new(2),
                SlotId::new(3),
                TimeRange::Relative {
                    lookback: DurationMs::from_days(7),
                },
                DecayFunction::Exponential {
                    half_life: DurationMs::from_days(1),
                },
                0.9,
                10,
            ),
        },
    ];
    for req in reqs {
        let bytes = req.encode();
        assert_eq!(RpcRequest::decode(&bytes).unwrap(), req, "round trip");
    }
}

#[test]
fn batch_request_round_trips() {
    let reqs = vec![
        RpcRequest::QueryBatch {
            caller: CallerId::new(9),
            queries: vec![
                sample_query(),
                ProfileQuery::top_k(
                    TableId::new(1),
                    ProfileId::new(2),
                    SlotId::new(3),
                    TimeRange::last_days(2),
                    3,
                ),
            ],
        },
        RpcRequest::QueryBatch {
            caller: CallerId::new(9),
            queries: Vec::new(),
        },
        RpcRequest::AddBatch {
            caller: CallerId::new(4),
            writes: vec![
                ProfileWrite {
                    table: TableId::new(1),
                    profile: ProfileId::new(10),
                    at: Timestamp::from_millis(99),
                    slot: SlotId::new(1),
                    action: ActionTypeId::new(2),
                    features: vec![(FeatureId::new(5), CountVector::single(3))],
                },
                ProfileWrite {
                    table: TableId::new(2),
                    profile: ProfileId::new(11),
                    at: Timestamp::from_millis(100),
                    slot: SlotId::new(2),
                    action: ActionTypeId::new(3),
                    features: vec![
                        (FeatureId::new(6), CountVector::from_slice(&[1, -2])),
                        (FeatureId::new(7), CountVector::single(1)),
                    ],
                },
            ],
        },
    ];
    for req in reqs {
        let bytes = req.encode();
        assert_eq!(RpcRequest::decode(&bytes).unwrap(), req, "round trip");
    }
}

#[test]
fn batch_response_round_trips_with_errors() {
    let errors = vec![
        IpsError::UnknownTable(TableId::new(9)),
        IpsError::ProfileNotFound {
            table: TableId::new(1),
            profile: ProfileId::new(2),
        },
        IpsError::InvalidRequest("bad".into()),
        IpsError::InvalidConfig("cfg".into()),
        IpsError::QuotaExceeded(CallerId::new(3)),
        IpsError::Storage("disk".into()),
        IpsError::StaleGeneration {
            held: 4,
            current: 7,
        },
        IpsError::Codec("frame".into()),
        IpsError::Rpc("down".into()),
        IpsError::Unavailable("none".into()),
        IpsError::ShuttingDown,
        IpsError::DeadlineExceeded,
        IpsError::Overloaded {
            inflight: 512,
            limit: 256,
        },
    ];
    let mut subs: Vec<Result<QueryResult>> = errors.into_iter().map(Err).collect();
    subs.push(Ok(QueryResult {
        entries: vec![FeatureEntry {
            feature: FeatureId::new(1),
            counts: CountVector::single(2),
            last_seen: Timestamp::from_millis(3),
        }],
        slices_visited: 1,
        cache_hit: false,
        ..Default::default()
    }));
    subs.push(Ok(QueryResult {
        degraded: true,
        staleness: DurationMs::from_secs(90),
        ..Default::default()
    }));
    subs.push(Ok(QueryResult::default()));
    let resp = RpcResponse::QueryBatch(subs);
    let decoded = RpcResponse::decode(&resp.encode()).unwrap();
    assert_eq!(decoded, resp);
    // Retryability must survive the wire: the client's per-sub-query
    // failover keys off it.
    let RpcResponse::QueryBatch(decoded_subs) = decoded else {
        panic!("wrong kind");
    };
    let RpcResponse::QueryBatch(original_subs) = resp else {
        panic!("wrong kind");
    };
    for (d, o) in decoded_subs.iter().zip(&original_subs) {
        if let (Err(d), Err(o)) = (d, o) {
            assert_eq!(d.is_retryable(), o.is_retryable());
        }
    }
}

#[test]
fn batch_call_amortizes_fixed_network_cost() {
    // One 16-query frame moves fewer bytes than 16 single-query calls:
    // the envelope is paid once per frame, and so is every fixed per-frame
    // cost a pricer adds on top.
    let ep = endpoint(NetworkModel::zero());
    ep.call(&add_req(7)).unwrap();
    let q = |pid| {
        ProfileQuery::top_k(
            TableId::new(1),
            ProfileId::new(pid),
            SlotId::new(1),
            TimeRange::last_days(1),
            5,
        )
    };
    let mut singles = 0u32;
    for pid in 0..16 {
        let (_, bytes) = ep
            .call(&RpcRequest::Query {
                caller: CallerId::new(1),
                query: q(pid),
            })
            .unwrap();
        singles += bytes.sent + bytes.received;
    }
    let (resp, batch) = ep
        .call(&RpcRequest::QueryBatch {
            caller: CallerId::new(1),
            queries: (0..16).map(q).collect(),
        })
        .unwrap();
    let RpcResponse::QueryBatch(subs) = resp else {
        panic!("wrong kind");
    };
    assert_eq!(subs.len(), 16);
    assert!(subs.iter().all(Result::is_ok));
    let batched = batch.sent + batch.received;
    assert!(
        batched < singles,
        "one frame ({batched} B) must move less than 16 ({singles} B)"
    );
}

#[test]
fn response_round_trips() {
    let resp = RpcResponse::Query(QueryResult {
        entries: vec![FeatureEntry {
            feature: FeatureId::new(42),
            counts: CountVector::pair(3, -1),
            last_seen: Timestamp::from_millis(1_234),
        }],
        slices_visited: 7,
        cache_hit: true,
        ..Default::default()
    });
    assert_eq!(RpcResponse::decode(&resp.encode()).unwrap(), resp);
    assert_eq!(
        RpcResponse::decode(&RpcResponse::Ok.encode()).unwrap(),
        RpcResponse::Ok
    );
}

#[test]
fn garbage_rejected() {
    assert!(RpcRequest::decode(b"nonsense").is_err());
    assert!(RpcResponse::decode(&[0xff, 0xff]).is_err());
}

/// A feature sub-message: id 7 plus `counts` packed counts.
fn feature_with_counts(counts: usize) -> Vec<u8> {
    let mut feature = WireWriter::new();
    feature.put_u64(1, 7);
    feature.put_packed(2, vec![1i64; counts]);
    feature.into_bytes()
}

/// `kind` in field 1 plus `body` as the length-delimited `field`.
fn frame(kind: u64, field: u32, body: &[u8]) -> Vec<u8> {
    let mut frame = WireWriter::new();
    frame.put_u64(1, kind);
    frame.put_bytes(field, body);
    frame.into_bytes()
}

#[test]
fn oversized_count_vectors_are_a_codec_error_not_a_panic() {
    // A count vector holds at most MAX_ATTRIBUTES values. More is malformed
    // input from a peer: the decoder must answer with an error instead of
    // panicking the thread that serves the frame.
    let request = |bytes: Vec<u8>| std::panic::catch_unwind(|| RpcRequest::decode(&bytes));
    let fits = request(frame(1, 8, &feature_with_counts(MAX_ATTRIBUTES)));
    assert!(matches!(fits, Ok(Ok(RpcRequest::Add { .. }))), "{fits:?}");
    let too_many = feature_with_counts(MAX_ATTRIBUTES + 1);
    // An `Add` feature (rpc_request.8).
    let add = request(frame(1, 8, &too_many));
    assert!(matches!(add, Ok(Err(IpsError::Codec(_)))), "{add:?}");
    // An `AddBatch` write's feature (profile_write.6).
    let mut write = WireWriter::new();
    write.put_bytes(6, &too_many);
    let batch = request(frame(4, 11, write.as_slice()));
    assert!(matches!(batch, Ok(Err(IpsError::Codec(_)))), "{batch:?}");
    // A query result entry (query_result.3).
    let mut result = WireWriter::new();
    result.put_bytes(3, &too_many);
    let bytes = frame(2, 2, result.as_slice());
    let response = std::panic::catch_unwind(|| RpcResponse::decode(&bytes));
    assert!(
        matches!(response, Ok(Err(IpsError::Codec(_)))),
        "{response:?}"
    );
}

#[test]
fn every_error_variant_round_trips_through_the_error_message() {
    for e in IpsError::one_of_each() {
        let back = super::codec::ErrorWire::decode(&super::codec::ErrorWire::to_vec(&e)).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.is_retryable(), e.is_retryable(), "{e}");
    }
}

#[test]
fn query_and_ack_responses_without_a_body_are_rejected() {
    // Kind 2 (Query) needs field 2, kind 4 (SnapshotAck) field 4. A frame
    // without the body is malformed, like a `Query` request without its
    // query — not an empty result or a zero ACK.
    for kind in [2u64, 4] {
        let mut frame = WireWriter::new();
        frame.put_u64(1, kind);
        let decoded = RpcResponse::decode(&frame.into_bytes());
        assert!(
            matches!(decoded, Err(IpsError::Codec(_))),
            "kind {kind}: {decoded:?}"
        );
    }
}

fn endpoint(network: NetworkModel) -> Arc<RpcEndpoint> {
    let clock = system_clock();
    let instance = IpsInstance::new_in_memory(IpsInstanceOptions::default(), clock);
    let mut cfg = TableConfig::new("t");
    cfg.isolation.enabled = false;
    instance.create_table(TableId::new(1), cfg).unwrap();
    RpcEndpoint::new("ep-1", "us-east", instance, network)
}

fn add_req(pid: u64) -> RpcRequest {
    RpcRequest::Add {
        caller: CallerId::new(1),
        table: TableId::new(1),
        profile: ProfileId::new(pid),
        at: system_clock().now(),
        slot: SlotId::new(1),
        action: ActionTypeId::new(1),
        features: vec![(FeatureId::new(5), CountVector::single(1))],
    }
}

#[test]
fn end_to_end_call_through_endpoint() {
    let ep = endpoint(NetworkModel::zero());
    let (resp, bytes) = ep.call(&add_req(7)).unwrap();
    assert_eq!(resp, RpcResponse::Ok);
    assert!(bytes.sent > 0 && bytes.received > 0, "{bytes:?}");
    let (resp, _) = ep
        .call(&RpcRequest::Query {
            caller: CallerId::new(1),
            query: ProfileQuery::top_k(
                TableId::new(1),
                ProfileId::new(7),
                SlotId::new(1),
                TimeRange::last_days(1),
                5,
            ),
        })
        .unwrap();
    match resp {
        RpcResponse::Query(r) => assert_eq!(r.len(), 1),
        other => panic!("expected query response, got {other:?}"),
    }
}

#[test]
fn down_endpoint_errors_retryably() {
    let ep = endpoint(NetworkModel::zero());
    ep.set_down(true);
    let err = ep.call(&add_req(1)).unwrap_err();
    assert!(err.is_retryable());
    ep.set_down(false);
    assert!(ep.call(&add_req(1)).is_ok());
}

#[test]
fn lossy_network_drops_calls() {
    let ep = endpoint(NetworkModel {
        loss_probability: 0.5,
    });
    let mut failures = 0;
    for _ in 0..100 {
        if ep.call(&add_req(1)).is_err() {
            failures += 1;
        }
    }
    assert!((20..95).contains(&failures), "failures = {failures}");
}

#[test]
fn envelope_trace_context_round_trips() {
    let ctx = SpanContext {
        trace: TraceId(0xABCD_0001),
        span: SpanId(42),
        sampled: true,
    };
    let req = RpcRequest::Query {
        caller: CallerId::new(9),
        query: sample_query(),
    };
    let bytes = req.encode_traced(Some(&ctx));
    let (decoded, got) = RpcRequest::decode_traced(&bytes).unwrap();
    assert_eq!(decoded, req);
    assert_eq!(got, Some(ctx));
    // A decoder that does not care about tracing still gets the request.
    assert_eq!(RpcRequest::decode(&bytes).unwrap(), req);
    // Untraced bytes surface no context.
    assert_eq!(RpcRequest::decode_traced(&req.encode()).unwrap().1, None);

    let resp = RpcResponse::Query(QueryResult::default());
    let bytes = resp.encode_traced(Some(&ctx));
    let (decoded, got) = RpcResponse::decode_traced(&bytes).unwrap();
    assert_eq!(decoded, resp);
    assert_eq!(got, Some(ctx));
    assert_eq!(RpcResponse::decode(&bytes).unwrap(), resp);
}

#[test]
fn traced_encoding_does_not_change_untraced_bytes() {
    // `encode()` must stay byte-identical to pre-tracing encoders so
    // the modeled network cost (a function of frame size) is unchanged.
    let req = RpcRequest::Query {
        caller: CallerId::new(1),
        query: sample_query(),
    };
    assert_eq!(req.encode(), req.encode_traced(None));
    let ctx = SpanContext {
        trace: TraceId(1),
        span: SpanId(1),
        sampled: false,
    };
    assert!(req.encode_traced(Some(&ctx)).len() > req.encode().len());
}

#[test]
fn deadline_envelope_round_trips_and_absent_is_byte_identical() {
    let req = RpcRequest::Query {
        caller: CallerId::new(1),
        query: sample_query(),
    };
    // No options → byte-identical to the plain encoder: the modeled
    // network cost (a function of frame size) must not change for
    // callers that never set a deadline.
    assert_eq!(req.encode(), req.encode_with(None, &CallOptions::default()));

    let opts = CallOptions {
        deadline: Some(Deadline::from_budget_us(2_500)),
        degraded: Some(DurationMs::from_secs(30)),
        ..CallOptions::default()
    };
    let bytes = req.encode_with(None, &opts);
    assert!(bytes.len() > req.encode().len());
    let (decoded, env) = RpcRequest::decode_envelope(&bytes).unwrap();
    assert_eq!(decoded, req);
    assert_eq!(env.deadline, Some(Deadline::from_budget_us(2_500)));
    assert_eq!(env.degraded, Some(DurationMs::from_secs(30)));
    assert_eq!(env.trace, None);
    assert_eq!(env.priority, Priority::Normal);
    // An options-unaware decoder skips the fields.
    assert_eq!(RpcRequest::decode(&bytes).unwrap(), req);

    // Each option also travels alone.
    let deadline_only = CallOptions {
        deadline: Some(Deadline::from_budget_us(7)),
        degraded: None,
        ..CallOptions::default()
    };
    let (_, env) = RpcRequest::decode_envelope(&req.encode_with(None, &deadline_only)).unwrap();
    assert_eq!(env.deadline, Some(Deadline::from_budget_us(7)));
    assert_eq!(env.degraded, None);
}

#[test]
fn priority_envelope_round_trips() {
    let req = RpcRequest::Query {
        caller: CallerId::new(1),
        query: sample_query(),
    };
    // Priority travels alone — without inventing a deadline: the decoded
    // envelope must NOT surface a zero-budget (already expired) deadline.
    let bulk_only = CallOptions {
        priority: Priority::Bulk,
        ..CallOptions::default()
    };
    let bytes = req.encode_with(None, &bulk_only);
    assert!(bytes.len() > req.encode().len());
    let (decoded, env) = RpcRequest::decode_envelope(&bytes).unwrap();
    assert_eq!(decoded, req);
    assert_eq!(env.priority, Priority::Bulk);
    assert_eq!(env.deadline, None, "priority alone must not arm a deadline");
    // An options-unaware decoder skips the field.
    assert_eq!(RpcRequest::decode(&bytes).unwrap(), req);

    // ...and alongside a deadline, both survive.
    let both = CallOptions {
        deadline: Some(Deadline::from_budget_us(4_000)),
        priority: Priority::Interactive,
        ..CallOptions::default()
    };
    let (_, env) = RpcRequest::decode_envelope(&req.encode_with(None, &both)).unwrap();
    assert_eq!(env.deadline, Some(Deadline::from_budget_us(4_000)));
    assert_eq!(env.priority, Priority::Interactive);
}

#[test]
fn normal_priority_is_never_encoded() {
    let req = RpcRequest::Query {
        caller: CallerId::new(1),
        query: sample_query(),
    };
    // Normal is the wire default: explicit-Normal frames stay
    // byte-identical to priority-unaware encoders, with and without a
    // deadline riding in the same envelope field.
    let explicit_normal = CallOptions {
        priority: Priority::Normal,
        ..CallOptions::default()
    };
    assert_eq!(req.encode(), req.encode_with(None, &explicit_normal));
    let deadline_normal = CallOptions {
        deadline: Some(Deadline::from_budget_us(7)),
        priority: Priority::Normal,
        ..CallOptions::default()
    };
    let deadline_unspecified = CallOptions {
        deadline: Some(Deadline::from_budget_us(7)),
        ..CallOptions::default()
    };
    assert_eq!(
        req.encode_with(None, &deadline_normal),
        req.encode_with(None, &deadline_unspecified)
    );
}

#[test]
fn degraded_query_result_round_trips() {
    let resp = RpcResponse::Query(QueryResult {
        entries: vec![FeatureEntry {
            feature: FeatureId::new(9),
            counts: CountVector::single(4),
            last_seen: Timestamp::from_millis(77),
        }],
        slices_visited: 2,
        cache_hit: false,
        degraded: true,
        staleness: DurationMs::from_secs(120),
        kv_round_trips: 2,
        kv_bytes_read: 4096,
    });
    assert_eq!(RpcResponse::decode(&resp.encode()).unwrap(), resp);
    // A non-degraded result writes no degraded fields at all.
    let plain = RpcResponse::Query(QueryResult::default());
    let decoded = RpcResponse::decode(&plain.encode()).unwrap();
    let RpcResponse::Query(r) = decoded else {
        panic!("wrong kind");
    };
    assert!(!r.degraded);
    assert_eq!(r.staleness, DurationMs::ZERO);
}

#[test]
fn expired_deadline_is_shed_server_side() {
    let ep = endpoint(NetworkModel::zero());
    ep.call(&add_req(7)).unwrap();
    let shed_opts = CallOptions {
        deadline: Some(Deadline::from_budget_us(0)),
        degraded: None,
        ..CallOptions::default()
    };
    // Reads are shed before compute...
    let query = RpcRequest::Query {
        caller: CallerId::new(1),
        query: ProfileQuery::top_k(
            TableId::new(1),
            ProfileId::new(7),
            SlotId::new(1),
            TimeRange::last_days(1),
            5,
        ),
    };
    let (result, _) = ep.call_with_options(&query, None, &shed_opts);
    assert!(matches!(result.unwrap_err(), IpsError::DeadlineExceeded));
    // ...and expired writes are not applied.
    let (result, _) = ep.call_with_options(&add_req(99), None, &shed_opts);
    assert!(matches!(result.unwrap_err(), IpsError::DeadlineExceeded));
    assert_eq!(ep.instance().shed_deadline.get(), 2);

    // A generous budget sails through.
    let generous = CallOptions {
        deadline: Some(Deadline::from_budget(DurationMs::from_secs(60))),
        degraded: None,
        ..CallOptions::default()
    };
    let (result, _) = ep.call_with_options(&query, None, &generous);
    assert!(matches!(result.unwrap(), RpcResponse::Query(r) if r.len() == 1));
}

#[test]
fn failed_attempt_still_reports_outbound_cost() {
    // Lossy enough that some calls lose the *response*: those attempts
    // delivered their request, and the byte record must say so.
    let ep = endpoint(NetworkModel {
        loss_probability: 0.4,
    });
    let mut saw_paid_failure = false;
    let mut saw_free_failure = false;
    for pid in 0..200 {
        let (result, bytes) = ep.call_traced(&add_req(pid), None);
        if result.is_ok() {
            assert!(
                bytes.sent > 0 && bytes.received > 0,
                "success moves both ways"
            );
        } else if bytes.sent > 0 {
            assert_eq!(bytes.received, 0, "response never arrived");
            saw_paid_failure = true;
        } else {
            assert_eq!(bytes, FrameBytes::default());
            saw_free_failure = true;
        }
    }
    assert!(saw_paid_failure, "some failures lose only the response");
    assert!(saw_free_failure, "some failures lose the request");
}

#[test]
fn down_endpoint_costs_nothing() {
    let ep = endpoint(NetworkModel::zero());
    ep.set_down(true);
    let (result, bytes) = ep.call_traced(&add_req(1), None);
    assert!(result.is_err());
    assert_eq!(bytes, FrameBytes::default());
}
