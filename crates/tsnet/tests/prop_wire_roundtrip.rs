//! Property tests for the tsnet wire protocol.
//!
//! The protocol's contract has two halves:
//!
//! 1. **Round-trip fidelity** — any encodable request/response/push
//!    decodes back to a frame that re-encodes to the *same bytes*
//!    (byte equality sidesteps `NaN != NaN`: value bit patterns must
//!    survive the wire exactly).
//! 2. **Hostile-input totality** — truncations, bit flips and random
//!    garbage must decode to typed [`tsnet::NetError`]s, never panic,
//!    and anything that *does* decode must be self-consistent
//!    (re-encoding reproduces the consumed bytes).
//!
//! All three frame kinds are covered, including the
//! server-initiated push frames ([`Push::SpanDelta`], [`Push::Lagged`],
//! [`Push::SubError`]) and the subscription request/response pairs.

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
use tsnet::stats::{ServerStatsSnapshot, LATENCY_BUCKETS};
use tsnet::wire::{
    decode_frame, encode_push, encode_request, encode_response, Frame, Operator, Push, Request,
    RequestEnvelope, Response, ResponseEnvelope,
};
use tsnet::ErrorCode;

fn name_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(97u8..=122, 1..=12)
        .prop_map(|bytes| String::from_utf8(bytes).unwrap_or_default())
}

/// Points with *any* value bit pattern — NaN and infinities included.
fn point_strategy() -> impl Strategy<Value = Point> {
    (any::<i64>(), any::<u64>()).prop_map(|(t, bits)| Point::new(t, f64::from_bits(bits)))
}

fn error_code_strategy() -> impl Strategy<Value = ErrorCode> {
    (0u8..=6).prop_map(|tag| ErrorCode::from_wire(tag).unwrap())
}

fn request_strategy() -> impl Strategy<Value = Request> {
    let entry = (
        name_strategy(),
        prop::collection::vec(point_strategy(), 0..=16),
    );
    prop_oneof![
        any::<u32>().prop_map(|delay_ms| Request::Ping { delay_ms }),
        prop::collection::vec(entry, 0..=4).prop_map(|entries| Request::WriteBatch { entries }),
        (
            name_strategy(),
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
        (name_strategy(), any::<i64>(), any::<i64>())
            .prop_map(|(series, start, end)| { Request::Delete { series, start, end } }),
        Just(Request::Stats),
        (any::<bool>(), name_strategy(), any::<bool>()).prop_map(|(named, name, compact)| {
            Request::FlushSeal {
                series: if named { Some(name) } else { None },
                compact,
            }
        }),
        (name_strategy(), any::<i64>(), any::<i64>(), any::<u32>()).prop_map(
            |(series, t_qs, t_qe, w)| Request::Subscribe {
                series,
                t_qs,
                t_qe,
                w,
            }
        ),
        any::<u64>().prop_map(|sub_id| Request::Unsubscribe { sub_id }),
    ]
}

fn envelope_strategy() -> impl Strategy<Value = RequestEnvelope> {
    (any::<u64>(), any::<u32>(), request_strategy()).prop_map(|(request_id, deadline_ms, body)| {
        RequestEnvelope {
            request_id,
            deadline_ms,
            body,
        }
    })
}

fn span_strategy() -> impl Strategy<Value = Option<m4::SpanRepr>> {
    (
        any::<bool>(),
        point_strategy(),
        point_strategy(),
        point_strategy(),
        point_strategy(),
    )
        .prop_map(|(some, first, last, bottom, top)| {
            some.then_some(m4::SpanRepr {
                first,
                last,
                bottom,
                top,
            })
        })
}

/// A Stats response with every metric of both registries set to an
/// arbitrary value. The metrics are enumerated through the registry
/// (`metrics()` / `set_metric`), so a new one is covered by declaring
/// it; no field is named here.
fn stats_strategy() -> impl Strategy<Value = Response> {
    let names: Vec<&'static str> = IoSnapshot::default()
        .metrics()
        .chain(ServerStatsSnapshot::default().metrics())
        .map(|(name, _, _)| name)
        .collect();
    // A scalar takes the first value of its vector, a histogram all.
    let values = prop::collection::vec(any::<u64>(), 0..=LATENCY_BUCKETS);
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

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Pong),
        any::<u64>().prop_map(|points| Response::Written { points }),
        prop::collection::vec(span_strategy(), 0..=24).prop_map(|spans| Response::M4 { spans }),
        Just(Response::Deleted),
        stats_strategy(),
        any::<u32>().prop_map(|series_flushed| Response::Flushed { series_flushed }),
        (error_code_strategy(), name_strategy())
            .prop_map(|(code, detail)| Response::Error { code, detail }),
        (any::<u64>(), prop::collection::vec(span_strategy(), 0..=24))
            .prop_map(|(sub_id, spans)| Response::SubAck { sub_id, spans }),
        Just(Response::Unsubscribed),
    ]
}

fn response_envelope_strategy() -> impl Strategy<Value = ResponseEnvelope> {
    (any::<u64>(), response_strategy())
        .prop_map(|(request_id, body)| ResponseEnvelope { request_id, body })
}

fn push_strategy() -> impl Strategy<Value = Push> {
    let delta = (any::<u32>(), span_strategy());
    prop_oneof![
        (
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
            prop::collection::vec(delta, 0..=16)
        )
            .prop_map(|(sub_id, seq, resync, deltas)| Push::SpanDelta {
                sub_id,
                seq,
                resync,
                deltas,
            }),
        any::<u64>().prop_map(|sub_id| Push::Lagged { sub_id }),
        (any::<u64>(), error_code_strategy(), name_strategy()).prop_map(
            |(sub_id, code, detail)| Push::SubError {
                sub_id,
                code,
                detail,
            }
        ),
    ]
}

/// Re-encode a decoded frame with the matching encoder.
fn reencode(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::Request(env) => encode_request(env).unwrap(),
        Frame::Response(env) => encode_response(env).unwrap(),
        Frame::Push(push) => encode_push(push).unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn request_encode_decode_reencode_is_identity(env in envelope_strategy()) {
        let bytes = encode_request(&env).unwrap();
        let (frame, used) = decode_frame(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert!(matches!(frame, Frame::Request(_)));
        prop_assert_eq!(reencode(&frame), bytes);
    }

    #[test]
    fn response_encode_decode_reencode_is_identity(env in response_envelope_strategy()) {
        let bytes = encode_response(&env).unwrap();
        let (frame, used) = decode_frame(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert!(matches!(frame, Frame::Response(_)));
        prop_assert_eq!(reencode(&frame), bytes);
    }

    #[test]
    fn push_encode_decode_reencode_is_identity(push in push_strategy()) {
        let bytes = encode_push(&push).unwrap();
        let (frame, used) = decode_frame(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert!(matches!(frame, Frame::Push(_)));
        prop_assert_eq!(reencode(&frame), bytes);
    }

    #[test]
    fn every_strict_prefix_is_a_typed_error(
        env in envelope_strategy(),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = encode_request(&env).unwrap();
        let k = cut.index(bytes.len()); // strictly less than the full frame
        prop_assert!(decode_frame(&bytes[..k]).is_err());
    }

    #[test]
    fn every_strict_push_prefix_is_a_typed_error(
        push in push_strategy(),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = encode_push(&push).unwrap();
        let k = cut.index(bytes.len());
        prop_assert!(decode_frame(&bytes[..k]).is_err());
    }

    #[test]
    fn single_bit_corruption_never_panics_and_stays_framed(
        env in envelope_strategy(),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut bytes = encode_request(&env).unwrap();
        let k = pos.index(bytes.len());
        bytes[k] ^= 1u8 << bit;
        // A flip is either caught as a typed error (magic, version,
        // kind, length, checksum) or — only for bytes outside the
        // checksummed payload that still form a valid frame, e.g. the
        // request/response kind byte — decodes to a frame that
        // re-encodes to exactly the bytes consumed.
        match decode_frame(&bytes) {
            Err(_) => {}
            Ok((frame, used)) => {
                prop_assert_eq!(reencode(&frame), bytes[..used].to_vec());
            }
        }
    }

    #[test]
    fn single_bit_push_corruption_never_panics_and_stays_framed(
        push in push_strategy(),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut bytes = encode_push(&push).unwrap();
        let k = pos.index(bytes.len());
        bytes[k] ^= 1u8 << bit;
        match decode_frame(&bytes) {
            Err(_) => {}
            Ok((frame, used)) => {
                prop_assert_eq!(reencode(&frame), bytes[..used].to_vec());
            }
        }
    }

    #[test]
    fn payload_corruption_is_always_caught_by_the_checksum(
        env in response_envelope_strategy(),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut bytes = encode_response(&env).unwrap();
        let payload_len = bytes.len() - tsnet::wire::HEADER_LEN - tsnet::wire::TRAILER_LEN;
        prop_assume!(payload_len > 0);
        let k = tsnet::wire::HEADER_LEN + pos.index(payload_len);
        bytes[k] ^= 1u8 << bit;
        let caught = matches!(
            decode_frame(&bytes),
            Err(tsnet::NetError::ChecksumMismatch { .. })
        );
        prop_assert!(caught, "payload flip must fail the checksum");
    }

    #[test]
    fn push_payload_corruption_is_always_caught_by_the_checksum(
        push in push_strategy(),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut bytes = encode_push(&push).unwrap();
        let payload_len = bytes.len() - tsnet::wire::HEADER_LEN - tsnet::wire::TRAILER_LEN;
        prop_assume!(payload_len > 0);
        let k = tsnet::wire::HEADER_LEN + pos.index(payload_len);
        bytes[k] ^= 1u8 << bit;
        let caught = matches!(
            decode_frame(&bytes),
            Err(tsnet::NetError::ChecksumMismatch { .. })
        );
        prop_assert!(caught, "payload flip must fail the checksum");
    }

    #[test]
    fn random_garbage_never_panics(junk in prop::collection::vec(any::<u8>(), 0..=64)) {
        // Totality: the decoder must return, not panic, on anything.
        let _ = decode_frame(&junk);
    }
}
