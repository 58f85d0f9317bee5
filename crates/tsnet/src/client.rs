//! Blocking client for the tsnet protocol.
//!
//! One [`TsNetClient`] owns one TCP connection and issues one request
//! at a time (use one client per thread for concurrency). Connection
//! establishment makes [`CONNECT_ATTEMPTS`] attempts with linear
//! backoff, and a frame is read whole within [`READ_TIMEOUT`] of its
//! first byte (`wire::FrameReader`, as the server reads); `Busy`
//! responses surface as the retryable [`NetError::Busy`] so callers
//! choose their own backpressure policy — or use
//! [`TsNetClient::call_with_busy_retry`].
//!
//! ## Reading a connection that also carries pushes
//!
//! Once a subscription is active the server may interleave
//! **unsolicited push frames** between responses. The read path demuxes
//! on frame kind and request id: pushes read mid-call are buffered and
//! later surfaced by [`TsNetClient::poll_push`]; response frames whose
//! request id does not match the in-flight request (stale answers from
//! an abandoned call) are discarded instead of being mistaken for the
//! current call's response — the correlation id is what makes
//! [`TsNetClient::call_with_busy_retry`] safe on a pushy connection.
//!
//! [`SubReplay`] folds a subscription's `SubAck` baseline plus its
//! `SpanDelta` stream back into a dashboard state; at any server
//! quiesce point that state is byte-identical to a fresh M4 recompute.

use std::collections::VecDeque;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

use m4::SpanRepr;
use tsfile::types::Point;
use tskv::stats::IoSnapshot;

use crate::error::{ErrorCode, NetError};
use crate::stats::ServerStatsSnapshot;
use crate::wire::{self, Frame, Operator, Push, Request, RequestEnvelope, Response};
use crate::Result;

/// Connection attempts before [`TsNetClient::connect`] gives up.
const CONNECT_ATTEMPTS: u32 = 10;
/// Backoff between connection attempts, linear: attempt × this.
const CONNECT_BACKOFF: Duration = Duration::from_millis(50);
/// How long a response may take to begin, and a frame once begun to
/// arrive whole.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Settings of one client connection; its limits are the constants
/// above.
#[derive(Debug, Clone, Default)]
pub struct ClientConfig {
    /// Deadline stamped on every request envelope (ms; 0 = none).
    pub deadline_ms: u32,
}

/// A blocking connection to a [`crate::server::TsNetServer`].
pub struct TsNetClient {
    stream: TcpStream,
    config: ClientConfig,
    /// Correlation id for the next request envelope.
    next_request_id: u64,
    /// Push frames read while waiting for a response, in arrival
    /// order; drained by [`TsNetClient::poll_push`].
    buffered_pushes: VecDeque<Push>,
}

/// An acknowledged subscription: its server-assigned id and the
/// baseline span state the delta stream applies on top of.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    pub sub_id: u64,
    pub spans: Vec<Option<SpanRepr>>,
}

impl TsNetClient {
    /// Connect to `addr`, making up to [`CONNECT_ATTEMPTS`] attempts.
    /// Useful against a server that is still binding (CI starts both
    /// concurrently).
    pub fn connect(addr: impl ToSocketAddrs + Copy, config: ClientConfig) -> Result<TsNetClient> {
        let mut last: Option<std::io::Error> = None;
        for attempt in 0..CONNECT_ATTEMPTS {
            thread::sleep(CONNECT_BACKOFF * attempt);
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    return Ok(TsNetClient {
                        stream,
                        config,
                        next_request_id: 1,
                        buffered_pushes: VecDeque::new(),
                    });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(NetError::ConnectFailed {
            attempts: CONNECT_ATTEMPTS,
            last: last.unwrap_or_else(|| std::io::Error::other("no connection attempt ran")),
        })
    }

    /// Change the deadline stamped on subsequent requests (ms; 0 = none).
    pub fn set_deadline_ms(&mut self, deadline_ms: u32) {
        self.config.deadline_ms = deadline_ms;
    }

    /// Issue one request and decode its response frame. Error
    /// responses come back as `Err` ([`NetError::Busy`],
    /// [`NetError::Timeout`] or [`NetError::Remote`]).
    ///
    /// Push frames that arrive before the response are buffered for
    /// [`TsNetClient::poll_push`]; response frames carrying a stale
    /// request id (answers to an earlier, abandoned call) are
    /// discarded.
    pub fn call(&mut self, body: Request) -> Result<Response> {
        let request_id = self.next_request_id;
        self.next_request_id = self.next_request_id.wrapping_add(1).max(1);
        let env = RequestEnvelope {
            request_id,
            deadline_ms: self.config.deadline_ms,
            body,
        };
        let bytes = wire::encode_request(&env)?;
        wire::write_frame(&mut self.stream, &bytes)?;
        loop {
            match self.read_frame()? {
                Frame::Push(push) => {
                    self.buffered_pushes.push_back(push);
                }
                Frame::Response(resp) if resp.request_id == request_id => {
                    return match resp.body {
                        Response::Error { code, detail } => {
                            Err(NetError::from_remote(code, detail))
                        }
                        body => Ok(body),
                    };
                }
                // A stale response (its call already returned with a
                // read error or timeout): drop it and keep reading —
                // this is what re-syncs the stream after a deadline.
                Frame::Response(_) => {}
                Frame::Request(_) => return Err(NetError::UnexpectedResponse("client")),
            }
        }
    }

    /// Read the next frame whole within [`READ_TIMEOUT`] of its first
    /// byte.
    fn read_frame(&mut self) -> Result<Frame> {
        wire::read_frame(&mut wire::FrameReader::new(&self.stream, READ_TIMEOUT))
    }

    /// Surface the next server push, waiting up to `timeout` for one
    /// to arrive. Returns `Ok(None)` when the wait elapses without a
    /// push. Buffered pushes (read mid-call) are drained first.
    ///
    /// `timeout` bounds the wait for a frame's first byte only; a frame
    /// once begun is read whole within [`READ_TIMEOUT`], so a slow frame
    /// never leaves the next read in the middle of it.
    pub fn poll_push(&mut self, timeout: Duration) -> Result<Option<Push>> {
        if let Some(push) = self.buffered_pushes.pop_front() {
            return Ok(Some(push));
        }
        loop {
            // A zero timeout would mean "block forever" to the OS; clamp
            // to the smallest finite wait instead.
            self.stream
                .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
            match self.stream.peek(&mut [0u8; 1]) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(e.into()),
                // A frame has begun (or the peer closed: the read below
                // reports it).
                Ok(_) => {}
            }
            match self.read_frame()? {
                Frame::Push(push) => return Ok(Some(push)),
                // Stale response from an abandoned call: discard.
                Frame::Response(_) => {}
                Frame::Request(_) => return Err(NetError::UnexpectedResponse("client")),
            }
        }
    }

    /// Like [`TsNetClient::call`], retrying `Busy` rejections with
    /// linear backoff. Non-retryable errors return immediately.
    pub fn call_with_busy_retry(
        &mut self,
        body: Request,
        attempts: u32,
        backoff_ms: u64,
    ) -> Result<Response> {
        let attempts = attempts.max(1);
        let mut outcome = self.call(body.clone());
        for attempt in 1..attempts {
            match &outcome {
                Err(NetError::Busy) => {
                    thread::sleep(Duration::from_millis(
                        backoff_ms.saturating_mul(u64::from(attempt)),
                    ));
                    outcome = self.call(body.clone());
                }
                _ => break,
            }
        }
        outcome
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        self.ping_delay(0)
    }

    /// Liveness probe that holds its admission slot for `delay_ms` on
    /// the server — orchestration aid for backpressure tests.
    pub fn ping_delay(&mut self, delay_ms: u32) -> Result<()> {
        match self.call(Request::Ping { delay_ms })? {
            Response::Pong => Ok(()),
            _ => Err(NetError::UnexpectedResponse("ping")),
        }
    }

    /// Write points to one or more series; returns points accepted.
    pub fn write_batch(&mut self, entries: Vec<(String, Vec<Point>)>) -> Result<u64> {
        match self.call(Request::WriteBatch { entries })? {
            Response::Written { points } => Ok(points),
            _ => Err(NetError::UnexpectedResponse("write-batch")),
        }
    }

    /// Run an M4 query; returns the per-span representations.
    pub fn m4_query(
        &mut self,
        series: &str,
        op: Operator,
        t_qs: i64,
        t_qe: i64,
        w: u32,
    ) -> Result<Vec<Option<SpanRepr>>> {
        let req = Request::M4Query {
            series: series.to_string(),
            op,
            t_qs,
            t_qe,
            w,
        };
        match self.call(req)? {
            Response::M4 { spans } => Ok(spans),
            _ => Err(NetError::UnexpectedResponse("m4-query")),
        }
    }

    /// Delete `[start, end]` from a series.
    pub fn delete(&mut self, series: &str, start: i64, end: i64) -> Result<()> {
        let req = Request::Delete {
            series: series.to_string(),
            start,
            end,
        };
        match self.call(req)? {
            Response::Deleted => Ok(()),
            _ => Err(NetError::UnexpectedResponse("delete")),
        }
    }

    /// Fetch engine I/O counters and server counters.
    pub fn stats(&mut self) -> Result<(IoSnapshot, ServerStatsSnapshot)> {
        match self.call(Request::Stats)? {
            Response::Stats { io, server } => Ok((*io, *server)),
            _ => Err(NetError::UnexpectedResponse("stats")),
        }
    }

    /// Flush (and optionally compact) one series or all; returns the
    /// series count touched.
    pub fn flush_seal(&mut self, series: Option<&str>, compact: bool) -> Result<u32> {
        let req = Request::FlushSeal {
            series: series.map(str::to_string),
            compact,
        };
        match self.call(req)? {
            Response::Flushed { series_flushed } => Ok(series_flushed),
            _ => Err(NetError::UnexpectedResponse("flush-seal")),
        }
    }

    /// Register a live M4 subscription; returns the server-assigned id
    /// and the baseline spans the delta stream applies on top of.
    pub fn subscribe(
        &mut self,
        series: &str,
        t_qs: i64,
        t_qe: i64,
        w: u32,
    ) -> Result<Subscription> {
        let req = Request::Subscribe {
            series: series.to_string(),
            t_qs,
            t_qe,
            w,
        };
        match self.call(req)? {
            Response::SubAck { sub_id, spans } => Ok(Subscription { sub_id, spans }),
            _ => Err(NetError::UnexpectedResponse("subscribe")),
        }
    }

    /// Detach one subscription. Pushes for its id already in flight
    /// may still be read afterwards; [`SubReplay`] ignores them once
    /// dropped.
    pub fn unsubscribe(&mut self, sub_id: u64) -> Result<()> {
        match self.call(Request::Unsubscribe { sub_id })? {
            Response::Unsubscribed => Ok(()),
            _ => Err(NetError::UnexpectedResponse("unsubscribe")),
        }
    }
}

/// Client-side fold of one subscription's push stream back into a
/// dashboard state.
///
/// Seeded with the `SubAck` baseline, then fed every push frame the
/// connection yields (frames for other subscription ids are ignored).
/// `SpanDelta` frames overwrite the named spans; a `resync` frame
/// replaces the whole state. At any server quiesce point the folded
/// state equals a fresh M4 recompute, byte for byte.
#[derive(Debug, Clone)]
pub struct SubReplay {
    sub_id: u64,
    spans: Vec<Option<SpanRepr>>,
    next_seq: u64,
    /// A `Lagged` frame arrived: deltas were dropped server-side and a
    /// resync is (or was) in flight.
    lagged: bool,
    /// The sequence numbers skipped or repeated — the stream is not
    /// trustworthy (this never happens over a healthy connection).
    seq_gap: bool,
    /// Terminal server-side failure for this subscription, if any.
    error: Option<(ErrorCode, String)>,
}

impl SubReplay {
    /// Start replaying on top of an acknowledged subscription.
    pub fn new(sub: &Subscription) -> SubReplay {
        SubReplay {
            sub_id: sub.sub_id,
            spans: sub.spans.clone(),
            next_seq: 0,
            lagged: false,
            seq_gap: false,
            error: None,
        }
    }

    /// Fold one push frame in. Returns `true` when the frame addressed
    /// this subscription (whether or not it changed anything).
    pub fn apply(&mut self, push: &Push) -> bool {
        match push {
            Push::SpanDelta {
                sub_id,
                seq,
                resync,
                deltas,
            } => {
                if *sub_id != self.sub_id {
                    return false;
                }
                if *seq != self.next_seq {
                    self.seq_gap = true;
                }
                self.next_seq = seq.wrapping_add(1);
                if *resync {
                    // Full-state frame: everything not named is gone.
                    self.spans.iter_mut().for_each(|s| *s = None);
                    self.lagged = false;
                }
                for (idx, span) in deltas {
                    if let Some(slot) = self.spans.get_mut(*idx as usize) {
                        *slot = *span;
                    }
                }
                true
            }
            Push::Lagged { sub_id } => {
                if *sub_id != self.sub_id {
                    return false;
                }
                self.lagged = true;
                true
            }
            Push::SubError {
                sub_id,
                code,
                detail,
            } => {
                if *sub_id != self.sub_id {
                    return false;
                }
                self.error = Some((*code, detail.clone()));
                true
            }
        }
    }

    /// The folded span state.
    pub fn spans(&self) -> &[Option<SpanRepr>] {
        &self.spans
    }

    /// Whether a lag was signalled and its resync has not landed yet.
    pub fn is_lagged(&self) -> bool {
        self.lagged
    }

    /// Whether the push stream skipped or repeated a sequence number.
    pub fn has_seq_gap(&self) -> bool {
        self.seq_gap
    }

    /// Terminal server-side failure, if one was pushed.
    pub fn error(&self) -> Option<&(ErrorCode, String)> {
        self.error.as_ref()
    }

    /// Push frames folded so far (the next expected sequence number).
    pub fn frames_applied(&self) -> u64 {
        self.next_seq
    }
}
