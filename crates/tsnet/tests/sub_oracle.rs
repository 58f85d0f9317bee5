//! Subscription delta streams vs a fresh M4 recompute oracle.
//!
//! The subscription contract (DESIGN.md §13): a client that applies
//! every pushed [`tsnet::wire::Push::SpanDelta`] in sequence — honoring
//! `resync` full-state frames — holds, at any quiesce point, spans that
//! are **byte-identical** (timestamps and value bit patterns) to a
//! fresh `M4Lsm` recompute over an authoritative snapshot. That must
//! hold under a racing writer, deletes, flush/compact churn, and a
//! subscriber killed mid-stream while sharing a dashboard with a
//! survivor.
//!
//! Also pinned here: identical `(series, range, w)` subscriptions share
//! ONE dashboard — with N subscriptions over K distinct dashboards the
//! server-reported `subs_deduped` counter is exactly `N - K` — and the
//! subscription error paths are typed (`SeriesNotFound`,
//! `InvalidRequest`, `Subscription`).

// Tests assert by panicking; the workspace panic-freedom deny-set
// (root Cargo.toml) is aimed at library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
// Test fixtures make, corrupt and remove their own files.
#![allow(clippy::disallowed_methods)]

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use testdir::TestDir;

use tsfile::types::Point;
use tskv::config::EngineConfig;
use tskv::TsKv;
use tsnet::sub::PUSH_QUEUE_SPANS;
use tsnet::wire::{Push, Request};
use tsnet::{ClientConfig, ErrorCode, NetError, ServerConfig, SubReplay, TsNetClient, TsNetServer};

#[path = "support/watchdog.rs"]
mod watchdog;

/// Small chunks/memtables so the racing writer crosses flush and
/// compaction boundaries, not just the in-memory path.
fn store_config() -> EngineConfig {
    EngineConfig {
        points_per_chunk: 16,
        memtable_threshold: 64,
        ..EngineConfig::default()
    }
}

fn open_store(tag: &str) -> (TestDir, Arc<TsKv>) {
    let dir = TestDir::new(&format!("tsnet-sub-{tag}"));
    let store = Arc::new(TsKv::open(&dir, store_config()).unwrap());
    (dir, store)
}

fn server(store: Arc<TsKv>) -> TsNetServer {
    TsNetServer::start(store, ServerConfig::default()).unwrap()
}

fn client(server: &TsNetServer) -> TsNetClient {
    TsNetClient::connect(server.local_addr(), ClientConfig::default()).unwrap()
}

fn seed(store: &TsKv, series: &str, n: i64) {
    let pts: Vec<Point> = (0..n)
        .map(|i| Point::new(i * 40, (i as f64).sin() * 100.0))
        .collect();
    store.insert_batch(series, &pts).unwrap();
}

/// Bit-exact span equality: the oracle contract compares value *bit
/// patterns*, so `-0.0` vs `0.0` (or differing NaNs) count as drift.
fn same_span(a: &Option<m4::SpanRepr>, b: &Option<m4::SpanRepr>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            let eq = |p: &Point, q: &Point| p.t == q.t && p.v.to_bits() == q.v.to_bits();
            eq(&x.first, &y.first)
                && eq(&x.last, &y.last)
                && eq(&x.bottom, &y.bottom)
                && eq(&x.top, &y.top)
        }
        _ => false,
    }
}

/// Fresh authoritative recompute — what every replayed stream must
/// match at a quiesce point.
fn oracle_spans(
    store: &TsKv,
    series: &str,
    t_qs: i64,
    t_qe: i64,
    w: u32,
) -> Vec<Option<m4::SpanRepr>> {
    let snap = store.snapshot(series).unwrap();
    let query = m4::M4Query::new(t_qs, t_qe, w as usize).unwrap();
    m4::M4Lsm::new().execute(&snap, &query).unwrap().spans
}

/// Drain every buffered/readable push on `c` into `replay`.
fn drain(c: &mut TsNetClient, replay: &mut SubReplay, per_poll: Duration) {
    while let Ok(Some(push)) = c.poll_push(per_poll) {
        replay.apply(&push);
    }
}

const RANGE_END: i64 = 10_000;
const WIDTH: u32 = 8;

/// The headline oracle test: six subscriptions over two dashboards, a
/// racing writer doing inserts/deletes/flushes/compactions, one
/// subscriber killed mid-stream on the shared dashboard. After
/// quiesce, every survivor's replayed spans must be byte-identical to
/// a fresh recompute, with no sequence gaps and `subs_deduped == N-K`.
#[test]
fn delta_replay_matches_oracle_under_churn() {
    watchdog::within(watchdog::DEADLINE, || {
        let (_dir, store) = open_store("oracle");
        seed(&store, "sub.a", 120);
        seed(&store, "sub.b", 120);
        let server = server(Arc::clone(&store));

        // N = 6 subscriptions, K = 2 dashboards: c0/c1/c2 + victim on
        // dashboard A, c4/c5 on dashboard B.
        let dash = |i: usize| if i < 3 { "sub.a" } else { "sub.b" };
        let mut clients: Vec<TsNetClient> = (0..5).map(|_| client(&server)).collect();
        let mut replays: Vec<SubReplay> = Vec::new();
        for (i, c) in clients.iter_mut().enumerate() {
            let sub = c.subscribe(dash(i), 0, RANGE_END, WIDTH).unwrap();
            replays.push(SubReplay::new(&sub));
        }
        let mut victim = client(&server);
        let victim_sub = victim.subscribe("sub.a", 0, RANGE_END, WIDTH).unwrap();
        let mut victim_replay = SubReplay::new(&victim_sub);
        assert_eq!(server.active_dashboards(), 2);

        // Dedup is counter-verified over the wire: 6 subscriptions, 2
        // dashboards.
        let (_, stats) = clients[0].stats().unwrap();
        assert_eq!(stats.subs_active, 6);
        assert_eq!(stats.subs_deduped, 4, "subs_deduped must be N - K");

        // Racing writer: in-order and out-of-order inserts, a delete, and
        // flush/compact churn, directly against the engine.
        let writer_store = Arc::clone(&store);
        let writer = thread::spawn(move || {
            for round in 0..30i64 {
                let base = 4_800 + round * 160;
                let pts: Vec<Point> = (0..8)
                    .map(|i| Point::new(base + i * 17, (round * 8 + i) as f64))
                    .collect();
                writer_store.insert_batch("sub.a", &pts).unwrap();
                // Out-of-order points landing inside already-final spans.
                writer_store
                    .insert_batch("sub.b", &[Point::new(37 + round, -(round as f64))])
                    .unwrap();
                match round % 10 {
                    3 => writer_store.delete("sub.a", 1_000, 1_500 + round).unwrap(),
                    6 => {
                        writer_store.flush("sub.a").unwrap();
                    }
                    9 => {
                        let _ = writer_store.compact("sub.b");
                    }
                    _ => {}
                }
                thread::sleep(Duration::from_millis(2));
            }
        });

        // Stream while the writer races; kill the victim mid-stream by
        // dropping its connection without unsubscribing — the server must
        // detach its subscription while the shared dashboard keeps serving
        // the survivors.
        let mut victim = Some(victim);
        for round in 0..12 {
            for (c, r) in clients.iter_mut().zip(replays.iter_mut()) {
                drain(c, r, Duration::from_millis(2));
            }
            if let Some(v) = victim.as_mut() {
                drain(v, &mut victim_replay, Duration::from_millis(2));
                if round == 5 {
                    drop(victim.take());
                }
            }
        }
        let _ = victim_sub.sub_id;
        writer.join().unwrap();

        // Converge: keep draining until the server reports quiescence
        // (change channel drained, dashboards exact, queues empty).
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            for (c, r) in clients.iter_mut().zip(replays.iter_mut()) {
                drain(c, r, Duration::from_millis(2));
            }
            if server.quiesce_subscriptions(Duration::from_millis(250)) {
                break;
            }
            assert!(Instant::now() < deadline, "subscriptions never quiesced");
        }
        // Pushes flushed by the writer threads may still sit in socket
        // buffers; drain until silence.
        for (c, r) in clients.iter_mut().zip(replays.iter_mut()) {
            drain(c, r, Duration::from_millis(50));
        }

        // Every surviving replayed stream must equal a fresh recompute.
        for (i, r) in replays.iter().enumerate() {
            let oracle = oracle_spans(&store, dash(i), 0, RANGE_END, WIDTH);
            assert!(!r.has_seq_gap(), "client {i}: sequence gap in push stream");
            assert!(r.error().is_none(), "client {i}: unexpected SubError");
            assert!(!r.is_lagged(), "client {i}: lagged without resync");
            assert!(r.frames_applied() > 0, "client {i}: saw no deltas");
            assert_eq!(r.spans().len(), oracle.len());
            for (j, (got, want)) in r.spans().iter().zip(oracle.iter()).enumerate() {
                assert!(
                    same_span(got, want),
                    "client {i} span {j} diverged: got {got:?}, want {want:?}"
                );
            }
        }

        // Victim detached; survivors' dashboards still live.
        let (_, stats) = clients[0].stats().unwrap();
        assert_eq!(stats.subs_active, 5);
        assert!(stats.deltas_pushed > 0, "no deltas were ever pushed");
        assert_eq!(server.active_dashboards(), 2);

        server.shutdown();
    });
}

/// A subscriber whose first fill exceeds its connection's push budget
/// is lagged over real TCP: it reads one `Lagged` frame, then one
/// `resync` frame carrying every span (about 350 KB at `w = 5 000`),
/// and its replay equals a fresh recompute.
#[test]
fn a_lagged_subscriber_resyncs_to_the_oracle() {
    watchdog::within(watchdog::DEADLINE, || {
        const W: u32 = 5_000;
        const { assert!(W as usize > PUSH_QUEUE_SPANS) };
        let (_dir, store) = open_store("lagged");
        // One point per span: every span of the fill is populated.
        seed(&store, "sub.lag", i64::from(W));
        let server = server(Arc::clone(&store));
        let mut c = client(&server);
        let sub = c.subscribe("sub.lag", 0, i64::from(W) * 40, W).unwrap();
        let mut replay = SubReplay::new(&sub);

        let (mut lagged, mut resyncs) = (0, 0);
        let mut take = |c: &mut TsNetClient, per_poll: Duration| {
            while let Ok(Some(push)) = c.poll_push(per_poll) {
                match &push {
                    Push::Lagged { .. } => lagged += 1,
                    Push::SpanDelta { resync: true, .. } => resyncs += 1,
                    _ => {}
                }
                replay.apply(&push);
            }
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            take(&mut c, Duration::from_millis(20));
            if server.quiesce_subscriptions(Duration::from_millis(250)) {
                break;
            }
            assert!(Instant::now() < deadline, "subscription never quiesced");
        }
        take(&mut c, Duration::from_millis(50));

        assert_eq!((lagged, resyncs), (1, 1));
        assert!(!replay.has_seq_gap(), "sequence gap in push stream");
        assert!(!replay.is_lagged(), "lagged without resync");
        let oracle = oracle_spans(&store, "sub.lag", 0, i64::from(W) * 40, W);
        assert!(oracle.iter().all(Option::is_some));
        assert_eq!(replay.spans().len(), oracle.len());
        for (j, (got, want)) in replay.spans().iter().zip(oracle.iter()).enumerate() {
            assert!(same_span(got, want), "span {j}: got {got:?}, want {want:?}");
        }
        let (_, stats) = c.stats().unwrap();
        assert_eq!(stats.resyncs, 1);

        server.shutdown();
    });
}

/// Unsubscribe tears a subscription down over the wire: the dashboard
/// disappears when its last subscriber leaves, and the id becomes
/// invalid (typed `Subscription` error) for later calls.
#[test]
fn unsubscribe_over_the_wire_tears_down() {
    watchdog::within(watchdog::DEADLINE, || {
        let (_dir, store) = open_store("unsub");
        seed(&store, "sub.c", 50);
        let server = server(Arc::clone(&store));

        let mut c1 = client(&server);
        let mut c2 = client(&server);
        let s1 = c1.subscribe("sub.c", 0, RANGE_END, WIDTH).unwrap();
        let s2 = c2.subscribe("sub.c", 0, RANGE_END, WIDTH).unwrap();
        assert_ne!(s1.sub_id, s2.sub_id);
        assert_eq!(server.active_dashboards(), 1);

        // A subscription belongs to its connection: c2 cannot tear down
        // c1's id.
        match c2.call(Request::Unsubscribe { sub_id: s1.sub_id }) {
            Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Subscription),
            other => panic!("expected typed Subscription error, got {other:?}"),
        }

        c1.unsubscribe(s1.sub_id).unwrap();
        assert_eq!(
            server.active_dashboards(),
            1,
            "c2 still holds the dashboard"
        );
        c2.unsubscribe(s2.sub_id).unwrap();
        assert_eq!(server.active_dashboards(), 0);

        // Double unsubscribe is a typed error, not a hang or a panic.
        match c1.call(Request::Unsubscribe { sub_id: s1.sub_id }) {
            Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Subscription),
            other => panic!("expected typed Subscription error, got {other:?}"),
        }

        server.shutdown();
    });
}

/// Subscription admission errors are typed: unknown series, invalid
/// query geometry.
#[test]
fn subscribe_rejections_are_typed() {
    watchdog::within(watchdog::DEADLINE, || {
        let (_dir, store) = open_store("reject");
        seed(&store, "sub.d", 10);
        let server = server(Arc::clone(&store));
        let mut c = client(&server);

        match c.subscribe("no.such.series", 0, RANGE_END, WIDTH) {
            Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::SeriesNotFound),
            other => panic!("expected SeriesNotFound, got {other:?}"),
        }
        match c.subscribe("sub.d", 500, 100, WIDTH) {
            Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::InvalidRequest),
            other => panic!("expected InvalidRequest, got {other:?}"),
        }

        // A valid subscribe still works on the same connection afterwards
        // (the reader demux survives error responses).
        let sub = c.subscribe("sub.d", 0, RANGE_END, WIDTH).unwrap();
        assert_eq!(sub.spans.len(), WIDTH as usize);

        server.shutdown();
    });
}
