//! Fuzzing of the payload decoders past the checksum.
//!
//! A frame's CRC guards against corruption in flight, not against a
//! hostile peer: a peer chooses its own checksum, so the bytes that
//! reach `decode_{request,response,push}_payload` are whatever it
//! wants. The properties here feed those decoders directly:
//!
//! 1. Arbitrary bytes — raw, or behind a plausible envelope head and
//!    variant tag so the fields behind the tag are reached — never
//!    panic.
//! 2. A valid payload with one mutation (a bit flip, a byte overwrite,
//!    a truncation or appended junk) either fails with a typed
//!    [`tsnet::NetError`] or decodes to a frame `F` whose encoding is
//!    a fixed point: `reencode(decode(reencode(F))) == reencode(F)`.
//!    Bytes are compared, not frames, because `NaN != NaN`; and the
//!    mutated payload itself is not compared, because a Stats body is
//!    filled in by name and has no canonical order.
//!
//! CI also runs this file with `PROPTEST_RNG_SEED` set from the run id,
//! so each run draws fresh payloads; a failure prints its seed.

// Tests assert by panicking; the workspace deny-set targets library
// code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use proptest::prelude::*;
use tsfile::types::Point;
use tskv::stats::IoSnapshot;
use tsnet::stats::ServerStatsSnapshot;
use tsnet::wire::{
    decode_frame, decode_push_payload, decode_request_payload, decode_response_payload,
    encode_push, encode_request, encode_response, Frame, Operator, Push, Request, RequestEnvelope,
    Response, ResponseEnvelope, HEADER_LEN, TRAILER_LEN,
};
use tsnet::ErrorCode;

fn name() -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..=126, 0..=10)
        .prop_map(|bytes| String::from_utf8(bytes).unwrap_or_default())
}

/// Any value bit pattern: NaN payloads, infinities, -0.0.
fn point() -> impl Strategy<Value = Point> {
    (any::<i64>(), any::<u64>()).prop_map(|(t, bits)| Point::new(t, f64::from_bits(bits)))
}

fn code() -> impl Strategy<Value = ErrorCode> {
    (0u8..=6).prop_map(|tag| ErrorCode::from_wire(tag).unwrap())
}

fn span() -> impl Strategy<Value = Option<m4::SpanRepr>> {
    (any::<bool>(), point(), point(), point(), point()).prop_map(
        |(some, first, last, bottom, top)| {
            some.then_some(m4::SpanRepr {
                first,
                last,
                bottom,
                top,
            })
        },
    )
}

fn request() -> impl Strategy<Value = RequestEnvelope> {
    let body = prop_oneof![
        any::<u32>().prop_map(|delay_ms| Request::Ping { delay_ms }),
        prop::collection::vec((name(), prop::collection::vec(point(), 0..=6)), 0..=3)
            .prop_map(|entries| Request::WriteBatch { entries }),
        (
            name(),
            any::<bool>(),
            any::<i64>(),
            any::<i64>(),
            any::<u32>()
        )
            .prop_map(|(series, lsm, t_qs, t_qe, w)| Request::M4Query {
                series,
                op: if lsm { Operator::Lsm } else { Operator::Udf },
                t_qs,
                t_qe,
                w,
            }),
        (name(), any::<i64>(), any::<i64>()).prop_map(|(series, start, end)| Request::Delete {
            series,
            start,
            end
        }),
        Just(Request::Stats),
        (any::<bool>(), name(), any::<bool>()).prop_map(|(named, name, compact)| {
            Request::FlushSeal {
                series: named.then_some(name),
                compact,
            }
        }),
        (name(), any::<i64>(), any::<i64>(), any::<u32>()).prop_map(|(series, t_qs, t_qe, w)| {
            Request::Subscribe {
                series,
                t_qs,
                t_qe,
                w,
            }
        }),
        any::<u64>().prop_map(|sub_id| Request::Unsubscribe { sub_id }),
    ];
    (any::<u64>(), any::<u32>(), body).prop_map(|(request_id, deadline_ms, body)| RequestEnvelope {
        request_id,
        deadline_ms,
        body,
    })
}

/// A Stats reply with every metric of both registries set, a scalar to
/// its vector's first value and a histogram to the whole vector.
fn stats() -> impl Strategy<Value = Response> {
    let names: Vec<&'static str> = IoSnapshot::default()
        .metrics()
        .chain(ServerStatsSnapshot::default().metrics())
        .map(|(name, _, _)| name)
        .collect();
    let values = prop::collection::vec(any::<u64>(), 0..=3);
    prop::collection::vec(values, names.len()).prop_map(move |pool| {
        let mut io = IoSnapshot::default();
        let mut server = ServerStatsSnapshot::default();
        for (name, values) in names.iter().zip(&pool) {
            assert!(io.set_metric(name, values) || server.set_metric(name, values));
        }
        Response::Stats {
            io: Box::new(io),
            server: Box::new(server),
        }
    })
}

fn response() -> impl Strategy<Value = ResponseEnvelope> {
    let body = prop_oneof![
        Just(Response::Pong),
        any::<u64>().prop_map(|points| Response::Written { points }),
        prop::collection::vec(span(), 0..=6).prop_map(|spans| Response::M4 { spans }),
        Just(Response::Deleted),
        stats(),
        any::<u32>().prop_map(|series_flushed| Response::Flushed { series_flushed }),
        (code(), name()).prop_map(|(code, detail)| Response::Error { code, detail }),
        (any::<u64>(), prop::collection::vec(span(), 0..=6))
            .prop_map(|(sub_id, spans)| Response::SubAck { sub_id, spans }),
        Just(Response::Unsubscribed),
    ];
    (any::<u64>(), body).prop_map(|(request_id, body)| ResponseEnvelope { request_id, body })
}

fn push() -> impl Strategy<Value = Push> {
    prop_oneof![
        (
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
            prop::collection::vec((any::<u32>(), span()), 0..=6)
        )
            .prop_map(|(sub_id, seq, resync, deltas)| Push::SpanDelta {
                sub_id,
                seq,
                resync,
                deltas,
            }),
        any::<u64>().prop_map(|sub_id| Push::Lagged { sub_id }),
        (any::<u64>(), code(), name()).prop_map(|(sub_id, code, detail)| Push::SubError {
            sub_id,
            code,
            detail,
        }),
    ]
}

/// One mutation of a valid payload.
#[derive(Debug, Clone)]
enum Mutation {
    Flip(prop::sample::Index, u8),
    Overwrite(prop::sample::Index, u8),
    Truncate(prop::sample::Index),
    Append(Vec<u8>),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<prop::sample::Index>(), 0u8..8).prop_map(|(at, bit)| Mutation::Flip(at, bit)),
        (any::<prop::sample::Index>(), any::<u8>()).prop_map(|(at, b)| Mutation::Overwrite(at, b)),
        any::<prop::sample::Index>().prop_map(Mutation::Truncate),
        prop::collection::vec(any::<u8>(), 1..=24).prop_map(Mutation::Append),
    ]
}

fn mutate(mut payload: Vec<u8>, m: &Mutation) -> Vec<u8> {
    match m {
        Mutation::Flip(at, bit) if !payload.is_empty() => {
            let k = at.index(payload.len());
            payload[k] ^= 1 << bit;
        }
        Mutation::Overwrite(at, b) if !payload.is_empty() => {
            let k = at.index(payload.len());
            payload[k] = *b;
        }
        Mutation::Truncate(at) => payload.truncate(at.index(payload.len().max(1))),
        Mutation::Append(junk) => payload.extend_from_slice(junk),
        _ => {}
    }
    payload
}

/// The payload of a complete frame.
fn payload_of(frame: &[u8]) -> Vec<u8> {
    frame[HEADER_LEN..frame.len() - TRAILER_LEN].to_vec()
}

/// Encode a frame with its kind's encoder.
fn reencode(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::Request(env) => encode_request(env).unwrap(),
        Frame::Response(env) => encode_response(env).unwrap(),
        Frame::Push(push) => encode_push(push).unwrap(),
    }
}

/// `reencode(decode(reencode(F))) == reencode(F)` for a decoded `F`.
fn check_fixed_point(frame: &Frame) -> Result<(), TestCaseError> {
    let bytes = reencode(frame);
    let (again, used) = decode_frame(&bytes).unwrap();
    prop_assert_eq!(used, bytes.len());
    prop_assert_eq!(reencode(&again), bytes);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_payloads_never_panic(
        junk in prop::collection::vec(any::<u8>(), 0..=96),
        tag in 0u8..12,
    ) {
        let _ = decode_request_payload(&junk);
        let _ = decode_response_payload(&junk);
        let _ = decode_push_payload(&junk);
        // Behind a well-formed head and a plausible tag, so the bytes
        // reach the variant's fields rather than the tag check.
        let headed = |head: usize| {
            let mut p = vec![0u8; head];
            p.push(tag);
            p.extend_from_slice(&junk);
            p
        };
        let _ = decode_request_payload(&headed(12));
        let _ = decode_response_payload(&headed(8));
        let _ = decode_push_payload(&headed(0));
    }

    #[test]
    fn mutated_request_payloads_fail_typed_or_reach_a_fixed_point(
        env in request(),
        m in mutation(),
    ) {
        let payload = mutate(payload_of(&encode_request(&env).unwrap()), &m);
        if let Ok(decoded) = decode_request_payload(&payload) {
            check_fixed_point(&Frame::Request(decoded))?;
        }
    }

    #[test]
    fn mutated_response_payloads_fail_typed_or_reach_a_fixed_point(
        env in response(),
        m in mutation(),
    ) {
        let payload = mutate(payload_of(&encode_response(&env).unwrap()), &m);
        if let Ok(decoded) = decode_response_payload(&payload) {
            check_fixed_point(&Frame::Response(decoded))?;
        }
    }

    #[test]
    fn mutated_push_payloads_fail_typed_or_reach_a_fixed_point(
        p in push(),
        m in mutation(),
    ) {
        let payload = mutate(payload_of(&encode_push(&p).unwrap()), &m);
        if let Ok(decoded) = decode_push_payload(&payload) {
            check_fixed_point(&Frame::Push(decoded))?;
        }
    }
}
