//! The TCP query/ingest server.
//!
//! ## Threading model
//!
//! One blocking **accept thread** owns the listener. Each accepted
//! connection gets a dedicated **worker thread** from a bounded pool
//! ([`MAX_CONNECTIONS`]); connections beyond the bound are answered with
//! a `Busy` error frame and closed. Workers alternate between a short
//! `peek`-with-timeout poll (so they notice shutdown without consuming
//! frame bytes) and a full blocking frame read once bytes are present:
//! header, payload and CRC within one deadline (`wire::FrameReader`),
//! so a peer that trickles a frame cannot hold its worker, push thread
//! and connection slot past it.
//!
//! Each connection also gets a **writer thread** owning the socket's
//! write half exclusively: every outbound frame — worker responses and
//! subscription pushes alike — goes through the connection's bounded
//! [`sub::OutboundQueue`], so responses and pushes never interleave
//! mid-frame and no thread ever writes a socket while holding a lock.
//! One process-wide **dispatcher thread** (see [`sub::SubRegistry`])
//! consumes engine change events, advances the shared per-dashboard
//! streaming computations, and fans span deltas out to those queues.
//!
//! ## Admission control
//!
//! A single atomic in-flight gauge admits at most [`MAX_IN_FLIGHT`]
//! requests into execution; excess requests are answered immediately
//! with `Busy` (the connection stays usable — backpressure, not
//! eviction). `Stats` is control-plane and bypasses admission, so an
//! operator (or a test) can always observe a saturated server. A reply
//! computed past the tighter of the request's deadline and
//! [`REQUEST_TIMEOUT`] is replaced by a `Timeout` error.
//!
//! These limits, the frame ceiling ([`wire::MAX_PAYLOAD_BYTES`]) and
//! the subscription plane's ([`sub::MAX_SUBSCRIPTIONS`],
//! [`sub::PUSH_QUEUE_SPANS`], [`sub::CHANGE_QUEUE_DEPTH`]) are
//! constants: [`ServerConfig`] holds only the address.
//!
//! ## Shutdown protocol
//!
//! [`TsNetServer::shutdown`] sets the drain flag, wakes the accept
//! thread with a self-connection, then joins it and every worker.
//! Workers finish the request they are executing (its response is
//! written before the thread exits — in-flight work is drained), answer
//! any *newly arriving* frame with `ShuttingDown`, and exit at the next
//! idle poll.
//!
//! ## Lock discipline
//!
//! Locks here are the worker-pool registry and the per-connection
//! outbound queues. Guards are scoped to registry pushes/takes and
//! queue mutations — no file I/O, no flush/compact, no socket write
//! happens while a guard is live. Socket writes belong exclusively to
//! the writer threads, which take frames *out* of the queue under the
//! lock and write them after releasing it. The registry's locks are
//! [`tsfile::lockcheck`]'s, so a debug build panics at the first file
//! entry point reached under one; the accept thread is marked
//! must-not-block, so it panics at a frame write too.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use tsfile::lockcheck::Mutex;
use tskv::{TsKv, WriteBatch};

use crate::error::{ErrorCode, NetError};
use crate::stats::{RequestKind, ServerStats};
use crate::sub::{self, OutboundQueue, SubRegistry};
use crate::wire::{self, Frame, Operator, Request, RequestEnvelope, Response, ResponseEnvelope};
use crate::Result;

/// Where one server instance listens; its limits are the constants
/// below.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (see
    /// [`TsNetServer::local_addr`]).
    pub addr: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
        }
    }
}

/// Worker-pool bound: connections beyond this are answered `Busy` and
/// closed.
pub const MAX_CONNECTIONS: usize = 32;
/// Admission-control bound: requests executing at once.
pub const MAX_IN_FLIGHT: usize = 4;
/// Server-side cap on any request's deadline.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a frame may take to arrive whole once it has begun (or a
/// rejected connection's `Busy` write may stall) before the connection
/// is considered dead.
#[cfg(not(test))]
const FRAME_DEADLINE: Duration = Duration::from_secs(30);
/// Lowered so that a test can watch a trickled frame close.
#[cfg(test)]
const FRAME_DEADLINE: Duration = Duration::from_millis(400);
/// Idle poll interval between frames; bounds how fast workers notice
/// shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(20);
/// Cap on `Ping::delay_ms` so a client cannot park a slot forever.
const MAX_PING_DELAY_MS: u32 = 10_000;

/// State shared by the accept thread and every worker.
struct Shared {
    store: Arc<TsKv>,
    stats: Arc<ServerStats>,
    registry: Arc<SubRegistry>,
    shutting_down: AtomicBool,
    in_flight: AtomicUsize,
    active_conns: AtomicUsize,
    /// Connections closed because a frame missed [`FRAME_DEADLINE`]:
    /// kept beside the registry, whose every metric the `Stats` frame
    /// carries.
    frames_past_deadline: AtomicU64,
    next_conn_id: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// A running server. Dropping it shuts it down (joining all threads);
/// call [`TsNetServer::shutdown`] explicitly to control when.
pub struct TsNetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl TsNetServer {
    /// Bind `config.addr` and start serving `store`.
    pub fn start(store: Arc<TsKv>, config: ServerConfig) -> Result<TsNetServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let registry = SubRegistry::start(Arc::clone(&store), Arc::clone(&stats));
        let shared = Arc::new(Shared {
            store,
            stats,
            registry,
            shutting_down: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            active_conns: AtomicUsize::new(0),
            frames_past_deadline: AtomicU64::new(0),
            next_conn_id: AtomicU64::new(1),
            workers: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("tsnet-accept".to_string())
            .spawn(move || accept_loop(&accept_shared, &listener))
            .map_err(NetError::Io)?;
        Ok(TsNetServer {
            shared,
            addr,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's observability counters.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.shared.stats)
    }

    /// The engine this server fronts.
    pub fn store(&self) -> Arc<TsKv> {
        Arc::clone(&self.shared.store)
    }

    /// Connections closed because a request frame, once begun, did not
    /// arrive whole within its deadline.
    pub fn frames_past_deadline(&self) -> u64 {
        self.shared.frames_past_deadline.load(Ordering::Acquire)
    }

    /// Admitted requests executing right now.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Acquire)
    }

    /// Whether the drain flag is set.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::Acquire)
    }

    /// Live shared dashboard computations (distinct subscription keys).
    pub fn active_dashboards(&self) -> usize {
        self.shared.registry.active_dashboards()
    }

    /// Block until the subscription plane is settled: every published
    /// change event processed, every dashboard span exact, every push
    /// queue drained onto its socket. At that point each subscriber's
    /// replayed state equals a fresh M4 recompute byte-for-byte.
    /// Returns `false` on timeout.
    pub fn quiesce_subscriptions(&self, timeout: Duration) -> bool {
        self.shared.registry.quiesce(timeout)
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests,
    /// join every thread. Idempotent; blocks until the drain finishes.
    // Shutdown waits for the threads it stopped, on the caller's
    // thread: never the accept thread or a broadcast.
    #[allow(clippy::disallowed_methods)]
    pub fn shutdown(&self) {
        let already = self.shared.shutting_down.swap(true, Ordering::AcqRel);
        // Wake the blocking accept call so it can observe the flag.
        // Harmless if the listener is already gone.
        let _ = TcpStream::connect(self.addr);
        if already {
            // Another caller is (or was) draining; nothing to join here.
            return;
        }
        let accept = {
            let mut slot = self.accept.lock();
            slot.take()
        };
        if let Some(handle) = accept {
            let _ = handle.join();
        }
        let workers = {
            let mut pool = self.shared.workers.lock();
            std::mem::take(&mut *pool)
        };
        for handle in workers {
            let _ = handle.join();
        }
        // Workers are gone (each closed its queue, joined its writer
        // and detached its subscriptions); stop the dispatcher last.
        self.shared.registry.stop();
    }
}

impl Drop for TsNetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    // A client that never drains its socket must not park the one
    // thread every other connection waits behind.
    let _mark = tsfile::lockcheck::no_block();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutting_down.load(Ordering::Acquire) {
                    // The wake-up pill (or a late client); close it.
                    return;
                }
                handle_connection(shared, stream);
            }
            Err(_) => {
                if shared.shutting_down.load(Ordering::Acquire) {
                    return;
                }
                // Transient accept failure; don't spin.
                thread::sleep(POLL_INTERVAL);
            }
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let occupied = shared.active_conns.fetch_add(1, Ordering::AcqRel);
    if occupied >= MAX_CONNECTIONS {
        shared.active_conns.fetch_sub(1, Ordering::AcqRel);
        shared.stats.record_conn_rejected();
        // Write the Busy rejection off the accept thread: a client
        // that never drains its socket would otherwise park the
        // accept loop and starve every other connection. The write is
        // both detached and bounded by a write timeout; if the spawn
        // itself fails the connection just closes unanswered.
        let reject_shared = Arc::clone(shared);
        let _ = thread::Builder::new()
            .name("tsnet-reject".to_string())
            .spawn(move || {
                let _ = stream.set_write_timeout(Some(FRAME_DEADLINE));
                // No worker (and thus no writer thread) ever exists for
                // a rejected connection, so a direct write is safe.
                let _ = respond_direct(
                    &reject_shared,
                    &mut stream,
                    &reply_envelope(
                        0,
                        error_response(ErrorCode::Busy, "connection limit reached"),
                    ),
                );
            });
        return;
    }
    shared.stats.record_conn_accepted();
    let worker_shared = Arc::clone(shared);
    let spawned = thread::Builder::new()
        .name("tsnet-worker".to_string())
        .spawn(move || {
            worker_loop(&worker_shared, stream);
            worker_shared.active_conns.fetch_sub(1, Ordering::AcqRel);
        });
    match spawned {
        Ok(handle) => {
            let mut pool = shared.workers.lock();
            pool.push(handle);
        }
        Err(_) => {
            // The stream moved into the failed closure and is gone;
            // release the slot.
            shared.active_conns.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

// The worker reaps its own connection's writer thread, which exits once
// the queue it drains is closed.
#[allow(clippy::disallowed_methods)]
fn worker_loop(shared: &Shared, mut stream: TcpStream) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    // Frames are written whole and are mostly small; under Nagle a push
    // queued behind a response (or the reverse) would wait out the
    // client's delayed ACK, ~40 ms. The write half is a clone of this
    // socket and shares the option.
    if stream.set_nodelay(true).is_err() {
        return;
    }
    // The worker keeps the read half; the writer thread owns a cloned
    // write half, fed by the connection's outbound queue.
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::AcqRel);
    let queue = Arc::new(OutboundQueue::default());
    let writer_queue = Arc::clone(&queue);
    let writer_stats = Arc::clone(&shared.stats);
    let writer = thread::Builder::new()
        .name("tsnet-push".to_string())
        .spawn(move || {
            let mut half = write_half;
            sub::writer_loop(&writer_queue, &mut half, &writer_stats);
        });
    let Ok(writer) = writer else {
        return;
    };
    let mut probe = [0u8; 1];
    loop {
        if queue.is_dead() {
            // The writer hit a socket error; the connection is gone.
            break;
        }
        match stream.peek(&mut probe) {
            Ok(0) => break, // peer closed
            Ok(_) => {
                if shared.shutting_down.load(Ordering::Acquire) {
                    // A frame arrived after the drain began: answer it
                    // with a typed refusal and close. (In-flight work is
                    // drained; *new* work is not accepted.) The queue
                    // close below flushes the refusal before the writer
                    // exits.
                    enqueue_reply(
                        &queue,
                        0,
                        error_response(ErrorCode::ShuttingDown, "server is draining"),
                    );
                    break;
                }
                if !serve_one(shared, &mut stream, &queue, conn_id) {
                    break;
                }
            }
            Err(e) if polling_would_block(&e) => {
                if shared.shutting_down.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    // Teardown order matters: detach subscriptions first so the
    // dispatcher stops feeding the queue, then close the queue (the
    // writer drains the backlog and exits), then reap the writer.
    shared.registry.drop_connection(conn_id);
    queue.close();
    let _ = writer.join();
}

fn polling_would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Read, execute and answer one request. Returns `false` when the
/// connection must close (framing lost or socket dead).
///
/// Responses are enqueued onto the connection's outbound queue — the
/// writer thread owns the socket's write half — so a response never
/// interleaves with a push frame. Responses to frames whose envelope
/// could not be decoded echo request id 0.
fn serve_one(
    shared: &Shared,
    stream: &mut TcpStream,
    queue: &Arc<OutboundQueue>,
    conn_id: u64,
) -> bool {
    let started = Instant::now();
    let mut reader = wire::FrameReader::new(stream, FRAME_DEADLINE);
    let frame = wire::read_frame(&mut reader);
    shared.stats.add_bytes_in(reader.bytes());
    if frame.is_err() && reader.expired() {
        shared.frames_past_deadline.fetch_add(1, Ordering::AcqRel);
    }
    let env = match frame {
        Ok(Frame::Request(env)) => env,
        Ok(Frame::Response(_) | Frame::Push(_)) => {
            // A peer that sends response or push frames is not a
            // client; refuse and close.
            enqueue_reply(
                queue,
                0,
                error_response(ErrorCode::InvalidRequest, "expected a request frame"),
            );
            return false;
        }
        Err(e) => {
            // Frame boundaries are unrecoverable after a decode error:
            // answer (best effort) and close.
            enqueue_reply(
                queue,
                0,
                error_response(ErrorCode::InvalidRequest, &format!("bad frame: {e}")),
            );
            return false;
        }
    };

    let admission_exempt = matches!(env.body, Request::Stats);
    if !admission_exempt && !try_admit(shared) {
        shared.stats.record_busy();
        let sent = enqueue_reply(
            queue,
            env.request_id,
            error_response(ErrorCode::Busy, "max in-flight reached"),
        );
        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        return sent;
    }

    let (kind, outcome) = execute(shared, &env, conn_id, queue);
    if !admission_exempt {
        release(shared);
    }

    let elapsed = started.elapsed();
    let reply = match outcome {
        Outcome::AckQueued => {
            // The SubAck was enqueued under the registry lock (ahead of
            // any delta for the new id); only the bookkeeping is left.
            shared.stats.record_request(kind, duration_us(elapsed));
            None
        }
        Outcome::Reply(resp) => {
            if deadline_missed(elapsed, env.deadline_ms) {
                shared.stats.record_timeout();
                Some(error_response(
                    ErrorCode::Timeout,
                    &format!("deadline of {} ms elapsed", env.deadline_ms),
                ))
            } else {
                shared.stats.record_request(kind, duration_us(elapsed));
                Some(resp)
            }
        }
        Outcome::Fail(code, detail) => {
            shared.stats.record_error();
            Some(error_response(code, &detail))
        }
    };

    let sent = match reply {
        Some(body) => enqueue_reply(queue, env.request_id, body),
        None => true,
    };
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    sent
}

/// Whether `elapsed` exceeds the effective deadline: the tighter of the
/// request's own deadline (0 = none) and [`REQUEST_TIMEOUT`].
fn deadline_missed(elapsed: Duration, deadline_ms: u32) -> bool {
    let cap = match deadline_ms {
        0 => REQUEST_TIMEOUT,
        ms => REQUEST_TIMEOUT.min(Duration::from_millis(u64::from(ms))),
    };
    elapsed > cap
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn try_admit(shared: &Shared) -> bool {
    shared
        .in_flight
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
            if n < MAX_IN_FLIGHT {
                Some(n + 1)
            } else {
                None
            }
        })
        .is_ok()
}

fn release(shared: &Shared) {
    shared.in_flight.fetch_sub(1, Ordering::AcqRel);
}

fn error_response(code: ErrorCode, detail: &str) -> Response {
    Response::Error {
        code,
        detail: detail.to_string(),
    }
}

fn reply_envelope(request_id: u64, body: Response) -> ResponseEnvelope {
    ResponseEnvelope { request_id, body }
}

/// Encode one response and hand it to the connection's writer thread.
/// Returns `false` when the frame cannot be delivered (encode failure
/// or the connection's write side is already closed/dead). Bytes-out
/// accounting happens in the writer, at the socket.
fn enqueue_reply(queue: &OutboundQueue, request_id: u64, body: Response) -> bool {
    match wire::encode_response(&reply_envelope(request_id, body)) {
        Ok(bytes) => queue.push_response(bytes),
        Err(_) => false,
    }
}

/// Encode and write one response frame directly, counting bytes out.
/// Only for connections that never had a writer thread (the Busy
/// reject path on the accept side).
fn respond_direct(shared: &Shared, stream: &mut TcpStream, env: &ResponseEnvelope) -> Result<()> {
    let bytes = wire::encode_response(env)?;
    wire::write_frame(stream, &bytes)?;
    shared.stats.add_bytes_out(bytes.len() as u64);
    Ok(())
}

fn map_tskv_error(e: &tskv::TsKvError) -> (ErrorCode, String) {
    use tskv::TsKvError;
    let code = match e {
        TsKvError::SeriesNotFound(_) => ErrorCode::SeriesNotFound,
        TsKvError::InvalidDeleteRange { .. }
        | TsKvError::InvalidSeriesName(_)
        | TsKvError::InvalidConfig { .. } => ErrorCode::InvalidRequest,
        TsKvError::CatalogFull { .. }
        | TsKvError::Corrupt(_)
        | TsKvError::TsFile(_)
        | TsKvError::Io(_) => ErrorCode::Engine,
    };
    (code, e.to_string())
}

fn map_m4_error(e: &m4::M4Error) -> (ErrorCode, String) {
    use m4::M4Error;
    let code = match e {
        M4Error::Storage(inner) => return map_tskv_error(inner),
        M4Error::EmptyQueryRange { .. }
        | M4Error::ZeroSpans
        | M4Error::TooManySpans { .. }
        | M4Error::EmptyCanvas => ErrorCode::InvalidRequest,
        M4Error::Internal(_) => ErrorCode::Engine,
    };
    (code, e.to_string())
}

type Execution = std::result::Result<Response, (ErrorCode, String)>;

/// What a request execution produced.
enum Outcome {
    /// A response body to envelope and enqueue.
    Reply(Response),
    /// The response (a `SubAck`) was already enqueued by the
    /// subscription registry, atomically ahead of any push for the new
    /// subscription id.
    AckQueued,
    /// A typed failure to report as an error response.
    Fail(ErrorCode, String),
}

impl From<Execution> for Outcome {
    fn from(e: Execution) -> Outcome {
        match e {
            Ok(resp) => Outcome::Reply(resp),
            Err((code, detail)) => Outcome::Fail(code, detail),
        }
    }
}

fn execute(
    shared: &Shared,
    env: &RequestEnvelope,
    conn_id: u64,
    queue: &Arc<OutboundQueue>,
) -> (RequestKind, Outcome) {
    match &env.body {
        Request::Ping { delay_ms } => {
            let delay = (*delay_ms).min(MAX_PING_DELAY_MS);
            if delay > 0 {
                thread::sleep(Duration::from_millis(u64::from(delay)));
            }
            (RequestKind::Ping, Outcome::Reply(Response::Pong))
        }
        Request::WriteBatch { entries } => {
            (RequestKind::Write, execute_write(shared, entries).into())
        }
        Request::M4Query {
            series,
            op,
            t_qs,
            t_qe,
            w,
        } => (
            RequestKind::Query,
            execute_query(shared, series, *op, *t_qs, *t_qe, *w).into(),
        ),
        Request::Delete { series, start, end } => {
            let outcome = match shared.store.delete(series, *start, *end) {
                Ok(()) => Outcome::Reply(Response::Deleted),
                Err(e) => {
                    let (code, detail) = map_tskv_error(&e);
                    Outcome::Fail(code, detail)
                }
            };
            (RequestKind::Delete, outcome)
        }
        Request::Stats => {
            let io_snap = shared.store.io().snapshot();
            let in_flight = shared.in_flight.load(Ordering::Acquire) as u64;
            let server = shared.stats.snapshot(in_flight);
            (
                RequestKind::Stats,
                Outcome::Reply(Response::Stats {
                    io: Box::new(io_snap),
                    server: Box::new(server),
                }),
            )
        }
        Request::FlushSeal { series, compact } => (
            RequestKind::Flush,
            execute_flush(shared, series, *compact).into(),
        ),
        Request::Subscribe {
            series,
            t_qs,
            t_qe,
            w,
        } => {
            let outcome = match shared.registry.subscribe(
                conn_id,
                queue,
                env.request_id,
                sub::SubSpec {
                    series,
                    t_qs: *t_qs,
                    t_qe: *t_qe,
                    w: *w,
                },
            ) {
                Ok(_sub_id) => Outcome::AckQueued,
                Err((code, detail)) => Outcome::Fail(code, detail),
            };
            (RequestKind::Subscribe, outcome)
        }
        Request::Unsubscribe { sub_id } => {
            let outcome = match shared.registry.unsubscribe(conn_id, *sub_id) {
                Ok(()) => Outcome::Reply(Response::Unsubscribed),
                Err((code, detail)) => Outcome::Fail(code, detail),
            };
            (RequestKind::Subscribe, outcome)
        }
    }
}

fn execute_write(shared: &Shared, entries: &[(String, Vec<tsfile::types::Point>)]) -> Execution {
    let mut batch = WriteBatch::new();
    for (series, points) in entries {
        batch.insert_many(series, points);
    }
    match shared.store.write_batch(&batch) {
        Ok(points) => Ok(Response::Written {
            points: points as u64,
        }),
        Err(e) => Err(map_tskv_error(&e)),
    }
}

fn execute_query(
    shared: &Shared,
    series: &str,
    op: Operator,
    t_qs: i64,
    t_qe: i64,
    w: u32,
) -> Execution {
    let snapshot = shared
        .store
        .snapshot(series)
        .map_err(|e| map_tskv_error(&e))?;
    let query = m4::M4Query::new(t_qs, t_qe, w as usize).map_err(|e| map_m4_error(&e))?;
    match op.execute(&snapshot, &query) {
        Ok(r) => Ok(Response::M4 { spans: r.spans }),
        Err(e) => Err(map_m4_error(&e)),
    }
}

fn execute_flush(shared: &Shared, series: &Option<String>, compact: bool) -> Execution {
    let store = &shared.store;
    // One series: resolve once at the boundary. All series: the
    // engine's own group flush and sweep (one sealed file per shard,
    // not one per series) — never a name list, which with a
    // high-cardinality catalog would be millions of Strings for a sweep
    // that touches the handful of series with files.
    let flushed = match series {
        Some(name) => {
            let id = store
                .series_id(name)
                .ok_or_else(|| map_tskv_error(&tskv::TsKvError::SeriesNotFound(name.clone())))?;
            store.flush_by_id(id).map_err(|e| map_tskv_error(&e))?;
            if compact {
                store.compact_by_id(id).map_err(|e| map_tskv_error(&e))?;
            }
            1
        }
        None => {
            store.flush_all().map_err(|e| map_tskv_error(&e))?;
            if compact {
                store.compact_all().map_err(|e| map_tskv_error(&e))?;
            }
            store.series_count() as u32
        }
    };
    Ok(Response::Flushed {
        series_flushed: flushed,
    })
}

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets
    // library code.
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )]

    use super::*;
    use testdir::TestDir;

    #[test]
    fn deadline_uses_the_tighter_of_request_and_cap() {
        let ms = Duration::from_millis;
        let cap = REQUEST_TIMEOUT;
        // No request deadline: the server cap alone.
        assert!(!deadline_missed(cap, 0));
        assert!(deadline_missed(cap + ms(1), 0));
        // A request deadline under the cap wins.
        assert!(deadline_missed(ms(11), 10));
        assert!(!deadline_missed(ms(9), 10));
        // One past the cap is cut to it.
        let past = u32::try_from(cap.as_millis()).unwrap() + 1;
        assert!(deadline_missed(cap + ms(1), past));
        assert!(!deadline_missed(cap, past));
    }

    /// A peer that sends a request one byte at a time, each byte well
    /// inside the deadline of a single read, is closed once the frame's
    /// one deadline passes: an error frame, then end of stream, within
    /// the deadline plus a second of the first byte. The counter says
    /// so, the slot comes back, and a whole frame still reads.
    #[test]
    fn a_trickled_frame_is_closed_at_its_deadline() {
        use std::io::{Read, Write};
        let dir = TestDir::new("tsnet-trickle");
        let store = Arc::new(TsKv::open(&dir, tskv::config::EngineConfig::default()).unwrap());
        let server = TsNetServer::start(store, ServerConfig::default()).unwrap();
        let frame = wire::encode_request(&RequestEnvelope {
            request_id: 1,
            deadline_ms: 0,
            body: Request::Ping { delay_ms: 0 },
        })
        .unwrap();
        let mut peer = TcpStream::connect(server.local_addr()).unwrap();
        peer.set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let step = FRAME_DEADLINE / 8;
        let started = Instant::now();
        let mut received = Vec::new();
        let mut closed = false;
        for &byte in frame.iter().cycle().take(frame.len() * 4) {
            if peer.write_all(&[byte]).is_err() {
                break;
            }
            thread::sleep(step);
            let mut buf = [0u8; 256];
            match peer.read(&mut buf) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => received.extend_from_slice(&buf[..n]),
                Err(e) if polling_would_block(&e) => {}
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        let took = started.elapsed();
        assert!(
            frame.len() as u32 * step > FRAME_DEADLINE,
            "the frame would not outlast the deadline"
        );
        assert!(closed, "the trickler was never closed");
        assert!(
            took <= FRAME_DEADLINE + Duration::from_secs(1),
            "closed after {took:?}"
        );
        match wire::decode_frame(&received) {
            Ok((Frame::Response(env), _)) => assert!(
                matches!(
                    env.body,
                    Response::Error {
                        code: ErrorCode::InvalidRequest,
                        ..
                    }
                ),
                "{env:?}"
            ),
            other => panic!("expected an error frame, got {other:?}"),
        }
        assert_eq!(server.frames_past_deadline(), 1);
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.shared.active_conns.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.shared.active_conns.load(Ordering::Acquire), 0);

        // A frame sent whole is answered, and counts no deadline.
        let mut client = TcpStream::connect(server.local_addr()).unwrap();
        client.write_all(&frame).unwrap();
        match wire::read_frame(&mut wire::FrameReader::new(&client, Duration::from_secs(5))) {
            Ok(Frame::Response(env)) => assert_eq!(env.body, Response::Pong),
            other => panic!("expected a pong, got {other:?}"),
        }
        assert_eq!(server.frames_past_deadline(), 1);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn duration_us_saturates() {
        assert_eq!(duration_us(Duration::from_micros(7)), 7);
        assert_eq!(duration_us(Duration::MAX), u64::MAX);
    }
}
