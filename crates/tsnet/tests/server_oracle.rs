//! Server vs in-process oracle.
//!
//! The network layer must be *invisible* to query semantics: N
//! concurrent clients issuing interleaved `WriteBatch`/`M4Query`/
//! `Delete`/`FlushSeal` traffic over TCP must observe byte-identical
//! results to the same scripts run directly against a twin `TsKv` —
//! each client owns disjoint series, so the cross-client interleaving
//! is commutative and the oracle can replay client-by-client.
//!
//! Also pinned here: `Busy` backpressure is a typed, counted error;
//! graceful shutdown drains the in-flight request (its response is
//! delivered) and refuses new connections afterwards; per-request
//! deadlines surface as typed `Timeout`; every registered metric is on
//! the wire by name and moves when its event happens.

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

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use tsfile::types::Point;
use tskv::config::EngineConfig;
use tskv::TsKv;
use tsnet::wire::{
    encode_request, encode_response, Operator, Request, RequestEnvelope, Response,
    ResponseEnvelope, HEADER_LEN,
};
use tsnet::{ClientConfig, NetError, ServerConfig, TsNetClient, TsNetServer};

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "tsnet-oracle-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

/// Small chunks/memtables so the scripts cross flush and compaction
/// boundaries, not just the in-memory path.
fn store_config() -> EngineConfig {
    EngineConfig {
        points_per_chunk: 16,
        memtable_threshold: 64,
        ..EngineConfig::default()
    }
}

fn open_store(tag: &str) -> (Arc<TsKv>, PathBuf) {
    let dir = scratch(tag);
    let store = Arc::new(TsKv::open(&dir, store_config()).unwrap());
    (store, dir)
}

fn client(server: &TsNetServer) -> TsNetClient {
    TsNetClient::connect(server.local_addr(), ClientConfig::default()).unwrap()
}

/// Canonical byte form of an M4 outcome, the unit of oracle comparison.
fn m4_bytes(spans: Vec<Option<m4::SpanRepr>>) -> Vec<u8> {
    // Pinned request id so oracle and server bytes compare on content
    // alone, independent of each client's id sequence.
    encode_response(&ResponseEnvelope {
        request_id: 0,
        body: Response::M4 { spans },
    })
    .unwrap()
}

/// Run one M4 query in-process, as the oracle sees it.
fn oracle_query(store: &TsKv, series: &str, op: Operator, t_qs: i64, t_qe: i64, w: u32) -> Vec<u8> {
    let snap = store.snapshot(series).unwrap();
    let query = m4::M4Query::new(t_qs, t_qe, w as usize).unwrap();
    let result = match op {
        Operator::Udf => m4::M4Udf::new().execute(&snap, &query),
        Operator::Lsm => m4::M4Lsm::new().execute(&snap, &query),
    }
    .unwrap();
    m4_bytes(result.spans)
}

// ---------------------------------------------------------------------
// Deterministic per-client scripts
// ---------------------------------------------------------------------

const CLIENTS: usize = 3;
const STEPS: usize = 24;

fn series_name(client: usize, which: usize) -> String {
    format!("c{client}.s{which}")
}

/// The write for `(client, step)`: 20 points, unique timestamps within
/// the client's series, values encoding (client, step, index).
fn step_write(client: usize, step: usize) -> (String, Vec<Point>) {
    let series = series_name(client, step % 2);
    let points = (0..20)
        .map(|i| {
            let t = (step as i64) * 100 + (i as i64) * 4 - 300;
            let v = (client * 1_000_000 + step * 1_000 + i) as f64;
            Point::new(t, v)
        })
        .collect();
    (series, points)
}

/// The queries issued after `(client, step)`'s write:
/// `(series, op, t_qs, t_qe, w)`.
fn step_queries(client: usize, step: usize) -> Vec<(String, Operator, i64, i64, u32)> {
    let mut queries = Vec::new();
    if step % 3 == 2 {
        let series = series_name(client, step % 2);
        let hi = (step as i64) * 100 + 100;
        queries.push((series, Operator::Lsm, -350, hi, 7));
    }
    if step % 7 == 5 {
        let series = series_name(client, step % 2);
        queries.push((series, Operator::Udf, -1000, 3_000, 11));
    }
    queries
}

/// The delete issued after `(client, step)`'s write, if any.
fn step_delete(client: usize, step: usize) -> Option<(String, i64, i64)> {
    if step % 10 == 9 {
        let series = series_name(client, step % 2);
        let mid = (step as i64) * 50;
        Some((series, mid - 30, mid + 30))
    } else {
        None
    }
}

/// Whether `(client, step)` flushes (and compacts) its even series.
fn step_flush(step: usize) -> bool {
    step == STEPS / 2
}

#[test]
fn concurrent_clients_match_in_process_oracle() {
    let (store, dir) = open_store("concurrent");
    let server = TsNetServer::start(
        Arc::clone(&store),
        ServerConfig {
            max_in_flight: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // N concurrent clients, disjoint series, deterministic scripts.
    // Each client records the canonical bytes of every query response.
    let mut joins = Vec::new();
    for c in 0..CLIENTS {
        let addr = server.local_addr();
        joins.push(thread::spawn(move || {
            let mut cl = TsNetClient::connect(addr, ClientConfig::default()).unwrap();
            let mut observed: Vec<Vec<u8>> = Vec::new();
            for step in 0..STEPS {
                let (series, points) = step_write(c, step);
                let wrote = cl.write_batch(vec![(series, points.clone())]).unwrap();
                assert_eq!(wrote as usize, points.len());
                if let Some((series, lo, hi)) = step_delete(c, step) {
                    cl.delete(&series, lo, hi).unwrap();
                }
                if step_flush(step) {
                    cl.flush_seal(Some(&series_name(c, 0)), true).unwrap();
                }
                for (series, op, t_qs, t_qe, w) in step_queries(c, step) {
                    let spans = cl.m4_query(&series, op, t_qs, t_qe, w).unwrap();
                    observed.push(m4_bytes(spans));
                }
            }
            observed
        }));
    }
    let observed: Vec<Vec<Vec<u8>>> = joins.into_iter().map(|j| j.join().unwrap()).collect();

    // Oracle: replay each client's script sequentially against a twin
    // store. Clients touch disjoint series, so per-client replay sees
    // exactly the states the live queries saw.
    let (twin, _twin_dir) = open_store("concurrent-twin");
    for (c, client_observed) in observed.iter().enumerate() {
        let mut expected: Vec<Vec<u8>> = Vec::new();
        for step in 0..STEPS {
            let (series, points) = step_write(c, step);
            let mut batch = tskv::WriteBatch::new();
            batch.insert_many(&series, &points);
            twin.write_batch(&batch).unwrap();
            if let Some((series, lo, hi)) = step_delete(c, step) {
                twin.delete(&series, lo, hi).unwrap();
            }
            if step_flush(step) {
                twin.flush(&series_name(c, 0)).unwrap();
                twin.compact(&series_name(c, 0)).unwrap();
            }
            for (series, op, t_qs, t_qe, w) in step_queries(c, step) {
                expected.push(oracle_query(&twin, &series, op, t_qs, t_qe, w));
            }
        }
        assert_eq!(
            client_observed, &expected,
            "client {c}: networked M4 responses diverge from the in-process oracle"
        );
    }

    // Final-state check: both operators, every series, full range,
    // byte-identical across the TCP boundary.
    let mut cl = client(&server);
    for c in 0..CLIENTS {
        for which in 0..2 {
            let series = series_name(c, which);
            for op in [Operator::Udf, Operator::Lsm] {
                let spans = cl.m4_query(&series, op, -1000, 5_000, 13).unwrap();
                let expected = oracle_query(&twin, &series, op, -1000, 5_000, 13);
                assert_eq!(m4_bytes(spans), expected, "{series} {op:?} final state");
            }
        }
    }

    let (_, stats) = cl.stats().unwrap();
    assert!(stats.requests_write >= (CLIENTS * STEPS) as u64);
    assert!(stats.requests_query > 0);
    assert!(stats.requests_delete > 0);
    assert!(stats.requests_flush > 0);
    assert_eq!(stats.rejected_busy, 0, "scripts must not trip admission");
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);

    // Seal and compact everything: one sweep per shard leaves at most
    // one data file a shard, and every series still reads as its twin.
    cl.flush_seal(None, true).unwrap();
    let mut data_files = 0;
    for shard in std::fs::read_dir(&dir).unwrap() {
        let shard = shard.unwrap().path();
        if shard.is_dir() {
            for file in std::fs::read_dir(&shard).unwrap() {
                let path = file.unwrap().path();
                data_files += usize::from(path.extension().is_some_and(|e| e == "tsfile"));
            }
        }
    }
    assert!(
        data_files <= store.config().write_shards,
        "{data_files} data files"
    );
    for c in 0..CLIENTS {
        for which in 0..2 {
            let series = series_name(c, which);
            for op in [Operator::Udf, Operator::Lsm] {
                let spans = cl.m4_query(&series, op, -1000, 5_000, 13).unwrap();
                let expected = oracle_query(&twin, &series, op, -1000, 5_000, 13);
                assert_eq!(m4_bytes(spans), expected, "{series} {op:?} after the sweep");
            }
        }
    }
    server.shutdown();
}

#[test]
fn busy_backpressure_is_typed_and_counted() {
    let (store, _dir) = open_store("busy");
    let server = TsNetServer::start(
        store,
        ServerConfig {
            max_in_flight: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Client A parks the single admission slot with a delayed ping.
    let addr = server.local_addr();
    let occupier = thread::spawn(move || {
        let mut a = TsNetClient::connect(addr, ClientConfig::default()).unwrap();
        a.ping_delay(800)
    });

    // Client B watches via Stats (control-plane: bypasses admission)
    // until the slot is provably held, then sends admitted work.
    let mut b = client(&server);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (_, stats) = b.stats().unwrap();
        if stats.in_flight >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "occupier never admitted");
        thread::sleep(Duration::from_millis(5));
    }
    let rejected = b.ping();
    assert!(
        matches!(rejected, Err(NetError::Busy)),
        "expected typed Busy, got {rejected:?}"
    );
    let (_, stats) = b.stats().unwrap();
    assert!(stats.rejected_busy >= 1);

    // The connection survives backpressure, and retry succeeds once
    // the slot frees up.
    assert!(occupier.join().unwrap().is_ok());
    b.call_with_busy_retry(tsnet::Request::Ping { delay_ms: 0 }, 10, 20)
        .unwrap();
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let (store, _dir) = open_store("drain");
    let server = TsNetServer::start(store, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    const DELAY_MS: u64 = 600;
    let in_flight = thread::spawn(move || {
        let mut a = TsNetClient::connect(addr, ClientConfig::default()).unwrap();
        a.ping_delay(DELAY_MS as u32)
    });

    let deadline = Instant::now() + Duration::from_secs(5);
    while server.in_flight() == 0 {
        assert!(Instant::now() < deadline, "delayed ping never admitted");
        thread::sleep(Duration::from_millis(5));
    }

    // Shutdown must block until the in-flight ping finishes, and the
    // client must still receive its Pong (drained, not dropped).
    let begun = Instant::now();
    server.shutdown();
    assert!(server.is_shutting_down());
    assert_eq!(server.in_flight(), 0, "drain left work in flight");
    assert!(
        begun.elapsed() >= Duration::from_millis(50),
        "shutdown returned without waiting for the in-flight request"
    );
    assert!(
        in_flight.join().unwrap().is_ok(),
        "in-flight response was not delivered"
    );

    // The listener is gone: new connections are refused.
    let refused = TsNetClient::connect(
        addr,
        ClientConfig {
            connect_attempts: 1,
            connect_backoff_ms: 1,
            ..ClientConfig::default()
        },
    );
    assert!(matches!(refused, Err(NetError::ConnectFailed { .. })));
}

#[test]
fn deadline_overrun_is_typed_and_counted() {
    let (store, _dir) = open_store("deadline");
    let server = TsNetServer::start(store, ServerConfig::default()).unwrap();
    let mut cl = client(&server);

    cl.set_deadline_ms(10);
    let late = cl.ping_delay(200);
    assert!(
        matches!(late, Err(NetError::Timeout)),
        "expected typed Timeout, got {late:?}"
    );

    cl.set_deadline_ms(0);
    cl.ping().unwrap();
    let (_, stats) = cl.stats().unwrap();
    assert_eq!(stats.timeouts, 1);
    assert!(stats.requests_ping >= 1);
    server.shutdown();
}

#[test]
fn remote_errors_are_typed() {
    let (store, _dir) = open_store("errors");
    let server = TsNetServer::start(store, ServerConfig::default()).unwrap();
    let mut cl = client(&server);

    // Unknown series.
    let missing = cl.m4_query("no.such", Operator::Lsm, 0, 10, 4);
    assert!(
        matches!(
            missing,
            Err(NetError::Remote {
                code: tsnet::ErrorCode::SeriesNotFound,
                ..
            })
        ),
        "{missing:?}"
    );

    // Semantically invalid query (empty range) on a real series.
    cl.write_batch(vec![("s".to_string(), vec![Point::new(1, 2.0)])])
        .unwrap();
    let empty = cl.m4_query("s", Operator::Udf, 10, 10, 4);
    assert!(
        matches!(
            empty,
            Err(NetError::Remote {
                code: tsnet::ErrorCode::InvalidRequest,
                ..
            })
        ),
        "{empty:?}"
    );

    // Invalid delete range.
    let bad_delete = cl.delete("s", 10, -10);
    assert!(
        matches!(
            bad_delete,
            Err(NetError::Remote {
                code: tsnet::ErrorCode::InvalidRequest,
                ..
            })
        ),
        "{bad_delete:?}"
    );

    let (_, stats) = cl.stats().unwrap();
    assert_eq!(stats.errors, 3);
    server.shutdown();
}

/// A span count past `m4::query::MAX_SPANS` is a typed error, not an
/// allocation that aborts the server, and the connection keeps serving.
#[test]
fn an_oversized_w_is_refused_and_the_connection_keeps_serving() {
    let (store, _dir) = open_store("huge-w");
    let server = TsNetServer::start(store, ServerConfig::default()).unwrap();
    let mut cl = client(&server);
    let point = Point::new(1, 2.0);
    cl.write_batch(vec![("s".to_string(), vec![point])])
        .unwrap();
    let invalid = |e: NetError| match e {
        NetError::Remote { code, .. } => assert_eq!(code, tsnet::ErrorCode::InvalidRequest),
        other => panic!("{other:?}"),
    };
    invalid(
        cl.m4_query("s", Operator::Udf, 0, 10, u32::MAX)
            .unwrap_err(),
    );
    invalid(
        cl.m4_query("s", Operator::Lsm, 0, 10, u32::MAX)
            .unwrap_err(),
    );
    invalid(cl.subscribe("s", 0, 10, u32::MAX).unwrap_err());
    let spans = cl.m4_query("s", Operator::Lsm, 0, 10, 2).unwrap();
    assert_eq!(spans[0].map(|s| s.first), Some(point));
    server.shutdown();
}

#[test]
fn latency_histogram_populates_over_the_wire() {
    let (store, _dir) = open_store("latency");
    let server = TsNetServer::start(store, ServerConfig::default()).unwrap();
    let mut cl = client(&server);
    for _ in 0..20 {
        cl.ping().unwrap();
    }
    let (_, stats) = cl.stats().unwrap();
    assert_eq!(stats.requests_ping, 20);
    assert_eq!(stats.latency_counts.len(), tsnet::stats::LATENCY_BUCKETS);
    assert_eq!(stats.latency_counts.iter().sum::<u64>(), 20);
    assert!(stats.p50_us() > 0);
    assert!(stats.p99_us() >= stats.p50_us());
    server.shutdown();
}

/// Accepted sockets run with `TCP_NODELAY`. A subscribed connection's
/// writer sends small frames back to back — a write's response and its
/// push, then the next response — and under Nagle's algorithm a small
/// segment waits for the peer's ACK of the one before it, which a
/// reading client delays by tens of milliseconds. No sleeps: every
/// wait is on the socket, bounded by a deadline, and a round counts as
/// stalled only past a threshold far above a loopback round trip.
#[test]
fn response_following_a_push_is_not_held_back_by_nagle() {
    const ROUNDS: usize = 40;
    const STALL: Duration = Duration::from_millis(30);
    let (store, _dir) = open_store("nodelay");
    let server = TsNetServer::start(store, ServerConfig::default()).unwrap();
    let mut cl = client(&server);
    let series = "nd.s".to_string();
    cl.write_batch(vec![(series.clone(), vec![Point::new(0, 0.0)])])
        .unwrap();
    cl.subscribe(&series, 0, 1_000_000, 100).unwrap();

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut stalled = Vec::new();
    for round in 1..=ROUNDS {
        let begun = Instant::now();
        let point = Point::new(round as i64 * 10, round as f64);
        cl.write_batch(vec![(series.clone(), vec![point])]).unwrap();
        // The write's delta, pushed on this same connection...
        while cl.poll_push(Duration::from_millis(100)).unwrap().is_none() {
            assert!(Instant::now() < deadline, "push {round} never arrived");
        }
        // ...and a response right behind it.
        cl.ping().unwrap();
        if begun.elapsed() >= STALL {
            stalled.push((round, begun.elapsed()));
        }
    }
    assert!(
        stalled.len() * 4 < ROUNDS,
        "{} of {ROUNDS} write → push → ping rounds took over {STALL:?}: {stalled:?}",
        stalled.len()
    );
    server.shutdown();
}

/// The Stats reply as it is on the wire, `(name, values)` per metric,
/// read off a raw socket and parsed here from the documented v6 layout
/// (DESIGN "metric registry") instead of through the client's decoder.
/// `None` when the server answered with an error (connection refused
/// at the pool limit).
fn raw_stats(server: &TsNetServer) -> Option<Vec<(String, Vec<u64>)>> {
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    let request = encode_request(&RequestEnvelope {
        request_id: 1,
        deadline_ms: 0,
        body: Request::Stats,
    })
    .unwrap();
    sock.write_all(&request).unwrap();
    let mut header = [0u8; HEADER_LEN];
    sock.read_exact(&mut header).unwrap();
    let len = u32::from_le_bytes(header[6..10].try_into().unwrap()) as usize;
    let mut payload = vec![0u8; len];
    sock.read_exact(&mut payload).unwrap();

    let mut rest = &payload[..];
    let mut take = |n: usize| {
        let (head, tail) = rest.split_at(n);
        rest = tail;
        head
    };
    let u16_of = |b: &[u8]| u16::from_le_bytes(b.try_into().unwrap());
    take(8); // request id
    match take(1)[0] {
        4 => {}
        6 => return None,
        other => panic!("response tag {other} to a Stats request"),
    }
    let count = u16_of(take(2));
    let metrics = (0..count)
        .map(|_| {
            let name_len = usize::from(take(1)[0]);
            let name = String::from_utf8(take(name_len).to_vec()).unwrap();
            take(1); // kind
            let values = (0..u16_of(take(2)))
                .map(|_| u64::from_le_bytes(take(8).try_into().unwrap()))
                .collect();
            (name, values)
        })
        .collect();
    assert!(rest.is_empty(), "trailing bytes");
    Some(metrics)
}

/// Metrics the scenario below does not move. Each needs pressure or a
/// lost race, and has a focused test where that is forced:
/// `tskv::cache` (eviction), `tskv::scheduler` and `ingest_stress`
/// (background compaction), `tsnet::sub` (coalescing, resync).
const QUIET: [&str; 6] = [
    "tskv.cache_evictions",
    "tskv.compactions_scheduled",
    "tskv.compactions_completed",
    "tskv.compactions_skipped",
    "tsnet.deltas_coalesced",
    "tsnet.resyncs",
];

/// Every registered metric is sent by name, and every one outside
/// [`QUIET`] counts when the thing it names happens: a metric that is
/// declared but never incremented, or incremented but never sent,
/// fails here.
#[test]
fn every_registered_metric_is_on_the_wire_and_moves() {
    // Four-point chunks, so chunk statistics answer spans.
    let config = EngineConfig {
        points_per_chunk: 4,
        ..store_config()
    };
    let store = Arc::new(TsKv::open(scratch("registry"), config).unwrap());
    let server = Arc::new(
        TsNetServer::start(
            store,
            ServerConfig {
                max_in_flight: 1,
                max_connections: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap(),
    );
    let mut cl = client(&server);
    let series = "reg.s";
    let entry = |points: Vec<Point>| vec![(series.to_string(), points)];
    // Rising values on a regular grid: a span's top point is its last.
    let base =
        |range: std::ops::Range<i64>| entry(range.map(|t| Point::new(t * 10, t as f64)).collect());
    // A later rewrite between those timestamps, lower and off any grid:
    // it never takes the top, and whether it overwrote the point that
    // does cannot be told from metadata — the probe decodes timestamps.
    let overlay = |range: std::ops::Range<i64>| {
        entry(
            range
                .map(|t| Point::new(t * 10 + 4 + t % 3, -1.0))
                .collect(),
        )
    };
    let both_operators = |cl: &mut TsNetClient| {
        for op in [Operator::Lsm, Operator::Udf] {
            cl.m4_query(series, op, 0, 4_000, 7).unwrap();
        }
    };

    // Write (crossing the memtable threshold), flush, delete, rewrite.
    cl.write_batch(base(0..300)).unwrap();
    cl.flush_seal(None, false).unwrap();
    cl.delete(series, 500, 700).unwrap();
    cl.write_batch(overlay(100..250)).unwrap();
    cl.flush_seal(Some(series), false).unwrap();
    both_operators(&mut cl); // cold: disk reads, cache misses
    both_operators(&mut cl); // warm: cache hits
    cl.stats().unwrap();
    cl.m4_query(series, Operator::Udf, 1_000, 1_050, 2).unwrap(); // narrow: pages skipped
    cl.flush_seal(Some(series), true).unwrap(); // compact: cached chunks invalidated
    cl.write_batch(base(300..310)).unwrap();
    both_operators(&mut cl); // memtable chunk read

    // Two subscribers on one dashboard (the second is deduplicated),
    // a write that pushes a delta to both, one unsubscribe. A SubAck
    // is sent before its admission slot is released; the ping behind
    // it is answered only after, so the other connection is not Busy.
    let mut viewer = client(&server);
    let sub = cl.subscribe(series, 0, 4_000, 7).unwrap();
    cl.ping().unwrap();
    viewer.subscribe(series, 0, 4_000, 7).unwrap();
    viewer.ping().unwrap();
    cl.write_batch(base(310..320)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    while cl.poll_push(Duration::from_millis(100)).unwrap().is_none() {
        assert!(Instant::now() < deadline, "no push arrived");
    }
    cl.unsubscribe(sub.sub_id).unwrap();

    // One error, one timeout.
    assert!(cl.m4_query("no.such", Operator::Lsm, 0, 10, 4).is_err());
    cl.set_deadline_ms(1);
    assert!(matches!(cl.ping_delay(30), Err(NetError::Timeout)));
    cl.set_deadline_ms(0);

    // Park the only admission slot; while it is held a second request
    // is refused Busy, a fifth connection is refused at the pool limit,
    // and Stats (which bypasses admission) reads a non-zero gauge.
    let parked = {
        let server = Arc::clone(&server);
        thread::spawn(move || client(&server).ping_delay(2_000))
    };
    while server.in_flight() == 0 {
        assert!(Instant::now() < deadline, "ping never admitted");
        thread::yield_now();
    }
    assert!(matches!(cl.ping(), Err(NetError::Busy)));
    let _fourth = client(&server);
    let fifth = TcpStream::connect(server.local_addr()).unwrap();
    let mut refusal = Vec::new();
    (&fifth).read_to_end(&mut refusal).unwrap();
    assert!(!refusal.is_empty(), "pool-limit refusal not delivered");
    drop(_fourth);
    // The worker of the dropped connection frees its slot on its next
    // idle poll; retry until the raw Stats socket is let in.
    let wire = loop {
        if let Some(metrics) = raw_stats(&server) {
            break metrics;
        }
        assert!(Instant::now() < deadline, "Stats connection never accepted");
    };
    parked.join().unwrap().unwrap();

    let on_wire: BTreeSet<&str> = wire.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(on_wire.len(), wire.len(), "a name was sent twice");
    let registered: BTreeSet<&str> = tskv::stats::IoSnapshot::default()
        .metrics()
        .chain(tsnet::ServerStatsSnapshot::default().metrics())
        .map(|(name, _, _)| name)
        .collect();
    assert_eq!(on_wire, registered);

    let dead: Vec<&str> = wire
        .iter()
        .filter(|(name, values)| !QUIET.contains(&name.as_str()) && values.iter().all(|v| *v == 0))
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(dead.is_empty(), "metrics that never moved: {dead:?}");
    for quiet in QUIET {
        assert!(registered.contains(quiet), "{quiet} is not a metric");
    }

    // Subscription churn has its own counter: the seven M4 queries and
    // the two subscribes + one unsubscribe are told apart.
    let (_, typed) = cl.stats().unwrap();
    assert_eq!(typed.requests_query, 7);
    assert_eq!(typed.requests_subscribe, 3);
    server.shutdown();
}
