//! Byte identity of every wire message.
//!
//! One fixed envelope of each variant — 8 [`Request`], 9 [`Response`]
//! and 3 [`Push`] kinds — is encoded into its complete frame (header,
//! payload, CRC), and each frame's length and FNV-1a hash are checked
//! against the table below. The table was taken before the codec was
//! rewritten to declare each layout once: equal hashes are the proof
//! that the rewrite moved no byte. The round-trip properties
//! (`prop_wire_roundtrip.rs`) only show that encode and decode agree
//! with each other; this test shows that they agree with the protocol.
//!
//! The `Stats` row lists every metric the two registries declare, so
//! declaring a metric changes that row (and only that row) on purpose;
//! the protocol version does not change with it.

// Tests assert by panicking; the workspace deny-set targets library
// code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use m4::SpanRepr;
use tsfile::types::Point;
use tskv::stats::IoSnapshot;
use tsnet::stats::ServerStatsSnapshot;
use tsnet::wire::{
    encode_push, encode_request, encode_response, Operator, Push, Request, RequestEnvelope,
    Response, ResponseEnvelope,
};
use tsnet::ErrorCode;

/// `(variant, frame length, FNV-1a 64 of the frame)`.
const GOLDEN: [(&str, usize, u64); 20] = [
    ("request Ping", 31, 0x0d5b87e4f3271578),
    ("request WriteBatch", 146, 0x0376ba9db4e87038),
    ("request M4Query", 62, 0xb3db4b7a316e0658),
    ("request Delete", 46, 0xd8d0e0077c94d874),
    ("request Stats", 27, 0xf628a7af5291b35b),
    ("request FlushSeal", 41, 0x2cc5bccf9553e828),
    ("request Subscribe", 59, 0x414fe311c96c1621),
    ("request Unsubscribe", 35, 0x1ac28a732205a795),
    ("response Pong", 23, 0x965441a8169b5b89),
    ("response Written", 31, 0x296fc26971984801),
    ("response M4", 159, 0x974fa8343df2c78d),
    ("response Deleted", 23, 0x6b29c5e3e24cb923),
    ("response Stats", 1826, 0x4b6e5f9dc3791d54),
    ("response Flushed", 27, 0xbdc56d47f819bea3),
    ("response Error", 51, 0xaa017beea4a84caf),
    ("response SubAck", 101, 0xbe3d6cea27714564),
    ("response Unsubscribed", 23, 0xa60857924e024d06),
    ("push SpanDelta", 179, 0xe89ef8ea14b0ee78),
    ("push Lagged", 23, 0xf6f8eb9cb715fbb7),
    ("push SubError", 40, 0x850a99f84416816b),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn span(seed: i64) -> SpanRepr {
    SpanRepr {
        first: Point::new(seed, seed as f64 + 0.25),
        last: Point::new(seed + 90, -2.5),
        bottom: Point::new(seed + 40, f64::NEG_INFINITY),
        top: Point::new(seed + 30, f64::from_bits(0x7FF8_0000_0000_1234)),
    }
}

fn request(body: Request) -> Vec<u8> {
    encode_request(&RequestEnvelope {
        request_id: 0x0102_0304_0506_0708,
        deadline_ms: 250,
        body,
    })
    .unwrap()
}

fn response(body: Response) -> Vec<u8> {
    encode_response(&ResponseEnvelope {
        request_id: 0x1122_3344_5566_7788,
        body,
    })
    .unwrap()
}

/// Every metric of both registries, each holding values derived from
/// its position so no two metrics agree.
fn stats() -> Response {
    let mut io = IoSnapshot::default();
    let mut server = ServerStatsSnapshot::default();
    let names: Vec<_> = IoSnapshot::default()
        .metrics()
        .chain(ServerStatsSnapshot::default().metrics())
        .map(|(name, _, values)| (name, values.len()))
        .collect();
    for (i, (name, len)) in names.into_iter().enumerate() {
        let i = i as u64;
        let values: Vec<u64> = (0..len.max(1) as u64).map(|k| i * 1000 + k).collect();
        assert!(io.set_metric(name, &values) || server.set_metric(name, &values));
    }
    Response::Stats {
        io: Box::new(io),
        server: Box::new(server),
    }
}

fn frames() -> Vec<Vec<u8>> {
    vec![
        request(Request::Ping { delay_ms: 1500 }),
        request(Request::WriteBatch {
            entries: vec![
                (
                    "fleet.truck-7.speed".into(),
                    vec![
                        Point::new(1_700_000_000_000, 61.5),
                        Point::new(i64::MIN, -0.0),
                        Point::new(i64::MAX, f64::from_bits(0xFFF0_0000_0000_0001)),
                    ],
                ),
                ("empty".into(), vec![]),
                ("µ-sensor".into(), vec![Point::new(-5, 1e300)]),
            ],
        }),
        request(Request::M4Query {
            series: "sensor.speed".into(),
            op: Operator::Lsm,
            t_qs: -100,
            t_qe: i64::MAX,
            w: 480,
        }),
        request(Request::Delete {
            series: "s".into(),
            start: i64::MIN,
            end: 42,
        }),
        request(Request::Stats),
        request(Request::FlushSeal {
            series: Some("dash.speed".into()),
            compact: true,
        }),
        request(Request::Subscribe {
            series: "dash.speed".into(),
            t_qs: 0,
            t_qe: 1_000_000,
            w: 1920,
        }),
        request(Request::Unsubscribe { sub_id: u64::MAX }),
        response(Response::Pong),
        response(Response::Written { points: 3_000_000 }),
        response(Response::M4 {
            spans: vec![Some(span(0)), None, Some(span(200)), None],
        }),
        response(Response::Deleted),
        response(stats()),
        response(Response::Flushed { series_flushed: 16 }),
        response(Response::Error {
            code: ErrorCode::SeriesNotFound,
            detail: "series not found: \"ghost\"".into(),
        }),
        response(Response::SubAck {
            sub_id: 12,
            spans: vec![None, Some(span(-7))],
        }),
        response(Response::Unsubscribed),
        encode_push(&Push::SpanDelta {
            sub_id: 3,
            seq: 41,
            resync: true,
            deltas: vec![(0, Some(span(10))), (7, None), (u32::MAX, Some(span(-1)))],
        })
        .unwrap(),
        encode_push(&Push::Lagged { sub_id: 3 }).unwrap(),
        encode_push(&Push::SubError {
            sub_id: 9,
            code: ErrorCode::Subscription,
            detail: "series dropped".into(),
        })
        .unwrap(),
    ]
}

#[test]
fn every_variant_encodes_to_the_golden_frame_bytes() {
    let got: Vec<(&str, usize, u64)> = GOLDEN
        .iter()
        .zip(frames())
        .map(|(&(name, _, _), bytes)| (name, bytes.len(), fnv1a64(&bytes)))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "one frame per golden row");
    assert!(
        got == GOLDEN,
        "frame bytes differ from the golden table; actual table:\n{}",
        got.iter()
            .map(|(n, l, h)| format!("    (\"{n}\", {l}, 0x{h:016x}),\n"))
            .collect::<String>()
    );
}
