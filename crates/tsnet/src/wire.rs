//! The length-prefixed, versioned binary wire protocol.
//!
//! ## Frame layout
//!
//! ```text
//! magic    4 bytes  b"TSN1"
//! version  1 byte   protocol version
//! kind     1 byte   0 = request, 1 = response, 2 = server push
//! len      4 bytes  payload length, little-endian u32
//! payload  len bytes
//! crc      4 bytes  CRC32 (IEEE) of the payload, little-endian
//! ```
//!
//! Payloads are flat little-endian structs: `u8` tags for enums,
//! fixed-width integers, `f64` as raw bits (NaN patterns survive the
//! wire), strings as a `u16` length prefix + UTF-8 bytes.
//!
//! Since v4 the protocol is no longer strict request/reply: a request
//! payload starts with a `request_id: u64` (chosen by the client,
//! echoed verbatim in the response) followed by `deadline_ms: u32`,
//! and a response payload starts with the echoed `request_id`. The
//! id lets a client demultiplex responses from **push frames** (kind
//! 2) — server-initiated [`Push`] payloads that may arrive between a
//! request and its response on a subscribed connection.
//!
//! This module interprets **untrusted network bytes** and therefore
//! follows the same discipline as the tsfile byte parsers (the clippy
//! panic deny-set and indexing ban, and fallible entry points — see
//! `tests/lint_scope.rs`):
//! no panics, no indexing — every structural problem decodes to a
//! typed [`NetError`], and a corrupted payload is caught by the
//! checksum before any of it is interpreted.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]

use std::io::{Read, Write};

use m4::SpanRepr;
use tsfile::checksum::crc32;
use tsfile::types::Point;
use tskv::registry::MetricKind;
use tskv::stats::IoSnapshot;

use crate::error::{ErrorCode, NetError};
use crate::stats::ServerStatsSnapshot;
use crate::Result;

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"TSN1";
/// Protocol version this build speaks. v2, v3 and v5 each only
/// appended counters to the then-positional Stats reply; v4 broke
/// strict request/reply — request and response payloads carry a
/// `request_id`, and frame kind 2 carries server-initiated [`Push`]
/// payloads (subscriptions). v6 made the Stats reply a self-describing
/// `(name, kind, values)` list filled in by name, so **adding, removing
/// or reordering a metric no longer bumps this**: an older reader
/// ignores names it does not know and reads zero for names it misses.
/// It changes only when a frame, envelope or body layout does.
/// Mismatched peers are rejected rather than silently mis-framed.
pub const VERSION: u8 = 6;
/// Bytes before the payload (magic + version + kind + len).
pub const HEADER_LEN: usize = 10;
/// Bytes after the payload (payload CRC32).
pub const TRAILER_LEN: usize = 4;
/// Hard ceiling on payload size (64 MiB); [`crate::server::ServerConfig`]
/// may lower it.
pub const MAX_PAYLOAD_BYTES: u32 = 64 * 1024 * 1024;
/// Ceiling on series per [`Request::WriteBatch`].
pub const MAX_BATCH_SERIES: u32 = 1 << 16;
/// Ceiling on metrics per [`Response::Stats`].
pub const MAX_STATS_METRICS: u16 = 4096;
/// Ceiling on values per metric in a [`Response::Stats`] (a scalar
/// carries one, a histogram one per bucket).
pub const MAX_METRIC_VALUES: u16 = 1024;

/// Which M4 operator a query should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operator {
    /// The merge-everything baseline ([`m4::M4Udf`]).
    Udf,
    /// The paper's metadata-first operator ([`m4::M4Lsm`]).
    Lsm,
}

/// One RPC request body.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe. `delay_ms` makes the server hold the request's
    /// admission slot for that long before answering — an
    /// orchestration aid for backpressure tests and benchmarks (capped
    /// at ten seconds so a client cannot park a slot forever).
    Ping { delay_ms: u32 },
    /// Multi-series write, applied via [`tskv::TsKv::write_batch`].
    WriteBatch { entries: Vec<(String, Vec<Point>)> },
    /// An M4 representation query over one series.
    M4Query {
        series: String,
        op: Operator,
        t_qs: i64,
        t_qe: i64,
        w: u32,
    },
    /// Versioned range tombstone on one series.
    Delete {
        series: String,
        start: i64,
        end: i64,
    },
    /// Engine + server counters. Control-plane: bypasses admission.
    Stats,
    /// Flush (and optionally compact) one series or every series —
    /// test/bench orchestration, mirroring the in-process harness.
    FlushSeal {
        series: Option<String>,
        compact: bool,
    },
    /// Register a live M4 subscription for `(series, [t_qs, t_qe), w)`.
    /// Acknowledged by [`Response::SubAck`]; span deltas then arrive as
    /// [`Push::SpanDelta`] frames until unsubscribed or disconnected.
    Subscribe {
        series: String,
        t_qs: i64,
        t_qe: i64,
        w: u32,
    },
    /// Detach one subscription previously acknowledged on this
    /// connection.
    Unsubscribe { sub_id: u64 },
}

/// A request plus its envelope fields.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEnvelope {
    /// Client-chosen correlation id, echoed verbatim in the response.
    /// Lets the client tell the response apart from push frames that
    /// arrive in between.
    pub request_id: u64,
    /// Milliseconds the client is willing to wait (0 = no deadline).
    /// The server answers `Timeout` when the response misses it; the
    /// work itself is not preempted.
    pub deadline_ms: u32,
    pub body: Request,
}

/// One RPC response body.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Pong,
    /// Points accepted by `WriteBatch`.
    Written {
        points: u64,
    },
    /// Per-span M4 representations (`None` = empty span), exactly the
    /// `spans` of an [`m4::M4Result`].
    M4 {
        spans: Vec<Option<SpanRepr>>,
    },
    Deleted,
    /// Engine I/O counters and server counters. Boxed: the two
    /// snapshot blocks dwarf every other variant, and responses are
    /// moved around (channels, retries) far more often than stats are
    /// read.
    Stats {
        io: Box<IoSnapshot>,
        server: Box<ServerStatsSnapshot>,
    },
    /// Series flushed (and compacted when requested) by `FlushSeal`.
    Flushed {
        series_flushed: u32,
    },
    /// Typed failure.
    Error {
        code: ErrorCode,
        detail: String,
    },
    /// Subscription acknowledged: `sub_id` names it in every
    /// subsequent push frame, `spans` is the baseline state the client
    /// replays deltas onto (the shared dashboard's last-broadcast
    /// representation at attach time).
    SubAck {
        sub_id: u64,
        spans: Vec<Option<SpanRepr>>,
    },
    /// Unsubscribe acknowledged; no further pushes for that id will be
    /// sent (frames already in flight may still arrive).
    Unsubscribed,
}

/// A response plus its envelope fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseEnvelope {
    /// The `request_id` of the request this answers, echoed verbatim.
    pub request_id: u64,
    pub body: Response,
}

/// One server-initiated push payload (frame kind 2). Pushes carry the
/// subscription id they belong to and are never acknowledged.
#[derive(Debug, Clone, PartialEq)]
pub enum Push {
    /// Span updates for one subscription. Each entry replaces the
    /// subscriber's span `index` with the carried representation
    /// (state-carrying, so coalescing by span index is lossless).
    /// `seq` increments per frame per subscription; `resync` marks a
    /// full-state frame after a [`Push::Lagged`] — the client must
    /// reset all spans to `None` before applying it.
    SpanDelta {
        sub_id: u64,
        seq: u64,
        resync: bool,
        deltas: Vec<(u32, Option<SpanRepr>)>,
    },
    /// The subscriber fell behind and pending deltas were dropped
    /// (slow-consumer policy: coalesce, then drop). The next
    /// `SpanDelta` for this id carries full state (`resync = true`).
    Lagged { sub_id: u64 },
    /// The subscription failed server-side (e.g. the series was
    /// dropped) and is detached.
    SubError {
        sub_id: u64,
        code: ErrorCode,
        detail: String,
    },
}

/// A decoded frame: what kind of payload it carried.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    Request(RequestEnvelope),
    Response(ResponseEnvelope),
    Push(Push),
}

const KIND_REQUEST: u8 = 0;
const KIND_RESPONSE: u8 = 1;
const KIND_PUSH: u8 = 2;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<()> {
    let len = u16::try_from(s.len()).map_err(|_| NetError::TooLarge {
        context: "string",
        len: s.len() as u64,
        max: u64::from(u16::MAX),
    })?;
    put_u16(out, len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// A `u8` length prefix + UTF-8 bytes (metric names).
fn put_str8(out: &mut Vec<u8>, s: &str) -> Result<()> {
    let len = u8::try_from(s.len()).map_err(|_| NetError::TooLarge {
        context: "metric name",
        len: s.len() as u64,
        max: u64::from(u8::MAX),
    })?;
    out.push(len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn metric_kind_to_wire(kind: MetricKind) -> u8 {
    match kind {
        MetricKind::Counter => 0,
        MetricKind::Gauge => 1,
        MetricKind::Histogram => 2,
    }
}

fn metric_kind_from_wire(tag: u8) -> Result<MetricKind> {
    match tag {
        0 => Ok(MetricKind::Counter),
        1 => Ok(MetricKind::Gauge),
        2 => Ok(MetricKind::Histogram),
        other => Err(NetError::UnknownTag {
            context: "metric kind",
            tag: other,
        }),
    }
}

/// `len` as a `u16` count no larger than `max`.
fn bounded_count(context: &'static str, len: usize, max: u16) -> Result<u16> {
    u16::try_from(len)
        .ok()
        .filter(|&n| n <= max)
        .ok_or(NetError::TooLarge {
            context,
            len: len as u64,
            max: u64::from(max),
        })
}

/// The Stats body: a `u16` metric count, then per metric a `str8`
/// name, a kind byte, a `u16` value count and that many `u64`s. The
/// one place a registry entry becomes bytes; it knows no metric.
fn put_metrics(out: &mut Vec<u8>, metrics: &[(&str, MetricKind, &[u64])]) -> Result<()> {
    let count = bounded_count("metric count", metrics.len(), MAX_STATS_METRICS)?;
    put_u16(out, count);
    for (name, kind, values) in metrics {
        put_str8(out, name)?;
        out.push(metric_kind_to_wire(*kind));
        let n = bounded_count("metric value count", values.len(), MAX_METRIC_VALUES)?;
        put_u16(out, n);
        for v in *values {
            put_u64(out, *v);
        }
    }
    Ok(())
}

fn put_point(out: &mut Vec<u8>, p: Point) {
    put_i64(out, p.t);
    put_u64(out, p.v.to_bits());
}

/// One `Option<SpanRepr>`: a presence flag, then the four points.
fn put_opt_span(out: &mut Vec<u8>, span: &Option<SpanRepr>) {
    match span {
        Some(s) => {
            out.push(1);
            put_point(out, s.first);
            put_point(out, s.last);
            put_point(out, s.bottom);
            put_point(out, s.top);
        }
        None => out.push(0),
    }
}

/// A `u32` count followed by that many `Option<SpanRepr>`s — the span
/// list shape shared by `M4` responses and `SubAck`.
fn put_span_list(out: &mut Vec<u8>, spans: &[Option<SpanRepr>]) -> Result<()> {
    let w = u32::try_from(spans.len()).map_err(|_| NetError::TooLarge {
        context: "span count",
        len: spans.len() as u64,
        max: u64::from(u32::MAX),
    })?;
    put_u32(out, w);
    for span in spans {
        put_opt_span(out, span);
    }
    Ok(())
}

fn encode_request_payload(env: &RequestEnvelope, out: &mut Vec<u8>) -> Result<()> {
    put_u64(out, env.request_id);
    put_u32(out, env.deadline_ms);
    match &env.body {
        Request::Ping { delay_ms } => {
            out.push(0);
            put_u32(out, *delay_ms);
        }
        Request::WriteBatch { entries } => {
            out.push(1);
            let n = u32::try_from(entries.len()).map_err(|_| NetError::TooLarge {
                context: "write-batch series count",
                len: entries.len() as u64,
                max: u64::from(MAX_BATCH_SERIES),
            })?;
            if n > MAX_BATCH_SERIES {
                return Err(NetError::TooLarge {
                    context: "write-batch series count",
                    len: u64::from(n),
                    max: u64::from(MAX_BATCH_SERIES),
                });
            }
            put_u32(out, n);
            for (name, points) in entries {
                put_str(out, name)?;
                let np = u32::try_from(points.len()).map_err(|_| NetError::TooLarge {
                    context: "write-batch point count",
                    len: points.len() as u64,
                    max: u64::from(u32::MAX),
                })?;
                put_u32(out, np);
                out.reserve(points.len() * 16);
                for p in points {
                    put_point(out, *p);
                }
            }
        }
        Request::M4Query {
            series,
            op,
            t_qs,
            t_qe,
            w,
        } => {
            out.push(2);
            put_str(out, series)?;
            out.push(match op {
                Operator::Udf => 0,
                Operator::Lsm => 1,
            });
            put_i64(out, *t_qs);
            put_i64(out, *t_qe);
            put_u32(out, *w);
        }
        Request::Delete { series, start, end } => {
            out.push(3);
            put_str(out, series)?;
            put_i64(out, *start);
            put_i64(out, *end);
        }
        Request::Stats => out.push(4),
        Request::FlushSeal { series, compact } => {
            out.push(5);
            match series {
                Some(name) => {
                    out.push(1);
                    put_str(out, name)?;
                }
                None => out.push(0),
            }
            out.push(u8::from(*compact));
        }
        Request::Subscribe {
            series,
            t_qs,
            t_qe,
            w,
        } => {
            out.push(6);
            put_str(out, series)?;
            put_i64(out, *t_qs);
            put_i64(out, *t_qe);
            put_u32(out, *w);
        }
        Request::Unsubscribe { sub_id } => {
            out.push(7);
            put_u64(out, *sub_id);
        }
    }
    Ok(())
}

fn encode_response_payload(env: &ResponseEnvelope, out: &mut Vec<u8>) -> Result<()> {
    put_u64(out, env.request_id);
    match &env.body {
        Response::Pong => out.push(0),
        Response::Written { points } => {
            out.push(1);
            put_u64(out, *points);
        }
        Response::M4 { spans } => {
            out.push(2);
            put_span_list(out, spans)?;
        }
        Response::Deleted => out.push(3),
        Response::Stats { io, server } => {
            out.push(4);
            let metrics: Vec<_> = io.metrics().chain(server.metrics()).collect();
            put_metrics(out, &metrics)?;
        }
        Response::Flushed { series_flushed } => {
            out.push(5);
            put_u32(out, *series_flushed);
        }
        Response::Error { code, detail } => {
            out.push(6);
            out.push(code.to_wire());
            put_str(out, detail)?;
        }
        Response::SubAck { sub_id, spans } => {
            out.push(7);
            put_u64(out, *sub_id);
            put_span_list(out, spans)?;
        }
        Response::Unsubscribed => out.push(8),
    }
    Ok(())
}

fn encode_push_payload(push: &Push, out: &mut Vec<u8>) -> Result<()> {
    match push {
        Push::SpanDelta {
            sub_id,
            seq,
            resync,
            deltas,
        } => {
            out.push(0);
            put_u64(out, *sub_id);
            put_u64(out, *seq);
            out.push(u8::from(*resync));
            let n = u32::try_from(deltas.len()).map_err(|_| NetError::TooLarge {
                context: "delta count",
                len: deltas.len() as u64,
                max: u64::from(u32::MAX),
            })?;
            put_u32(out, n);
            for (index, span) in deltas {
                put_u32(out, *index);
                put_opt_span(out, span);
            }
        }
        Push::Lagged { sub_id } => {
            out.push(1);
            put_u64(out, *sub_id);
        }
        Push::SubError {
            sub_id,
            code,
            detail,
        } => {
            out.push(2);
            put_u64(out, *sub_id);
            out.push(code.to_wire());
            put_str(out, detail)?;
        }
    }
    Ok(())
}

/// Build one complete frame in a single buffer: the header with a
/// length placeholder, the payload written by `encode_payload` right
/// behind it, then the length patched in and the CRC taken over the
/// payload bytes where they lie.
fn frame_bytes(
    kind: u8,
    encode_payload: impl FnOnce(&mut Vec<u8>) -> Result<()>,
) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind);
    put_u32(&mut out, 0);
    encode_payload(&mut out)?;
    let payload_len = out.len().saturating_sub(HEADER_LEN);
    let len = u32::try_from(payload_len)
        .ok()
        .filter(|&len| len <= MAX_PAYLOAD_BYTES)
        .ok_or(NetError::TooLarge {
            context: "payload",
            len: payload_len as u64,
            max: u64::from(MAX_PAYLOAD_BYTES),
        })?;
    for (dst, src) in out.iter_mut().skip(HEADER_LEN - 4).zip(len.to_le_bytes()) {
        *dst = src;
    }
    let crc = crc32(out.get(HEADER_LEN..).unwrap_or(&[]));
    put_u32(&mut out, crc);
    Ok(out)
}

/// Encode a request envelope into one complete frame.
pub fn encode_request(env: &RequestEnvelope) -> Result<Vec<u8>> {
    frame_bytes(KIND_REQUEST, |out| encode_request_payload(env, out))
}

/// Encode a response envelope into one complete frame.
pub fn encode_response(env: &ResponseEnvelope) -> Result<Vec<u8>> {
    frame_bytes(KIND_RESPONSE, |out| encode_response_payload(env, out))
}

/// Encode a push payload into one complete frame.
pub fn encode_push(push: &Push) -> Result<Vec<u8>> {
    frame_bytes(KIND_PUSH, |out| encode_push_payload(push, out))
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounds-checked reader over untrusted bytes. Every access goes
/// through `get`; running out of bytes is a typed error, never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(NetError::Truncated {
            needed: n,
            got: self.remaining(),
        })?;
        let slice = self.buf.get(self.pos..end).ok_or(NetError::Truncated {
            needed: n,
            got: self.remaining(),
        })?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        let b = self.take(1)?;
        b.first()
            .copied()
            .ok_or(NetError::Truncated { needed: 1, got: 0 })
    }

    fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        let arr: [u8; 2] = b.try_into().map_err(|_| NetError::Truncated {
            needed: 2,
            got: b.len(),
        })?;
        Ok(u16::from_le_bytes(arr))
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        let arr: [u8; 4] = b.try_into().map_err(|_| NetError::Truncated {
            needed: 4,
            got: b.len(),
        })?;
        Ok(u32::from_le_bytes(arr))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let arr: [u8; 8] = b.try_into().map_err(|_| NetError::Truncated {
            needed: 8,
            got: b.len(),
        })?;
        Ok(u64::from_le_bytes(arr))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(tsfile::cast::i64_bits(self.u64()?))
    }

    fn str16(&mut self) -> Result<String> {
        let len = usize::from(self.u16()?);
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| NetError::BadString)
    }

    /// A `u8` length prefix + UTF-8 bytes, borrowed from the payload.
    fn str8(&mut self) -> Result<&'a str> {
        let len = usize::from(self.u8()?);
        std::str::from_utf8(self.take(len)?).map_err(|_| NetError::BadString)
    }

    fn point(&mut self) -> Result<Point> {
        let t = self.i64()?;
        let v = f64::from_bits(self.u64()?);
        Ok(Point::new(t, v))
    }

    /// One `Option<SpanRepr>`: presence flag, then the four points.
    fn opt_span(&mut self) -> Result<Option<SpanRepr>> {
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let first = self.point()?;
                let last = self.point()?;
                let bottom = self.point()?;
                let top = self.point()?;
                Ok(Some(SpanRepr {
                    first,
                    last,
                    bottom,
                    top,
                }))
            }
            other => Err(NetError::UnknownTag {
                context: "span flag",
                tag: other,
            }),
        }
    }

    /// The span list shape shared by `M4` responses and `SubAck`.
    fn span_list(&mut self) -> Result<Vec<Option<SpanRepr>>> {
        let w = self.u32()?;
        self.check_claim("span count", u64::from(w), 1)?;
        let mut spans = Vec::with_capacity(w as usize);
        for _ in 0..w {
            spans.push(self.opt_span()?);
        }
        Ok(spans)
    }

    /// A `u16` element count, refused when it exceeds `max` or when
    /// that many elements of `min_elem_bytes` each would overrun the
    /// payload.
    fn count16(&mut self, context: &'static str, max: u16, min_elem_bytes: u64) -> Result<u16> {
        let n = self.u16()?;
        if n > max {
            return Err(NetError::TooLarge {
                context,
                len: u64::from(n),
                max: u64::from(max),
            });
        }
        self.check_claim(context, u64::from(n), min_elem_bytes)?;
        Ok(n)
    }

    /// Guard a claimed element count against the bytes actually
    /// present, so corrupted counts cannot drive huge allocations.
    fn check_claim(&self, context: &'static str, n: u64, min_elem_bytes: u64) -> Result<()> {
        let available = self.remaining() as u64;
        let needed = n.saturating_mul(min_elem_bytes);
        if needed > available {
            return Err(NetError::TooLarge {
                context,
                len: n,
                max: available / min_elem_bytes.max(1),
            });
        }
        Ok(())
    }
}

/// Decode a request payload (the bytes between header and CRC).
pub fn decode_request_payload(payload: &[u8]) -> Result<RequestEnvelope> {
    let mut c = Cursor::new(payload);
    let request_id = c.u64()?;
    let deadline_ms = c.u32()?;
    let tag = c.u8()?;
    let body = match tag {
        0 => Request::Ping { delay_ms: c.u32()? },
        1 => {
            let n = c.u32()?;
            if n > MAX_BATCH_SERIES {
                return Err(NetError::TooLarge {
                    context: "write-batch series count",
                    len: u64::from(n),
                    max: u64::from(MAX_BATCH_SERIES),
                });
            }
            // Each series costs at least a name length + point count.
            c.check_claim("write-batch series count", u64::from(n), 6)?;
            let mut entries = Vec::new();
            for _ in 0..n {
                let name = c.str16()?;
                let np = c.u32()?;
                c.check_claim("write-batch point count", u64::from(np), 16)?;
                let mut points = Vec::with_capacity(np as usize);
                for _ in 0..np {
                    points.push(c.point()?);
                }
                entries.push((name, points));
            }
            Request::WriteBatch { entries }
        }
        2 => {
            let series = c.str16()?;
            let op = match c.u8()? {
                0 => Operator::Udf,
                1 => Operator::Lsm,
                other => {
                    return Err(NetError::UnknownTag {
                        context: "operator",
                        tag: other,
                    })
                }
            };
            let t_qs = c.i64()?;
            let t_qe = c.i64()?;
            let w = c.u32()?;
            Request::M4Query {
                series,
                op,
                t_qs,
                t_qe,
                w,
            }
        }
        3 => {
            let series = c.str16()?;
            let start = c.i64()?;
            let end = c.i64()?;
            Request::Delete { series, start, end }
        }
        4 => Request::Stats,
        5 => {
            let series = match c.u8()? {
                0 => None,
                1 => Some(c.str16()?),
                other => {
                    return Err(NetError::UnknownTag {
                        context: "flush-seal series flag",
                        tag: other,
                    })
                }
            };
            let compact = match c.u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(NetError::UnknownTag {
                        context: "flush-seal compact flag",
                        tag: other,
                    })
                }
            };
            Request::FlushSeal { series, compact }
        }
        6 => {
            let series = c.str16()?;
            let t_qs = c.i64()?;
            let t_qe = c.i64()?;
            let w = c.u32()?;
            Request::Subscribe {
                series,
                t_qs,
                t_qe,
                w,
            }
        }
        7 => Request::Unsubscribe { sub_id: c.u64()? },
        other => {
            return Err(NetError::UnknownTag {
                context: "request",
                tag: other,
            })
        }
    };
    if c.remaining() != 0 {
        return Err(NetError::TooLarge {
            context: "request payload trailing bytes",
            len: c.remaining() as u64,
            max: 0,
        });
    }
    Ok(RequestEnvelope {
        request_id,
        deadline_ms,
        body,
    })
}

/// Inverse of [`put_metrics`]: fill both snapshots by name. A name
/// neither registry declares is skipped (a newer peer's metric); a
/// name the payload lacks stays zero (an older peer). Every count is
/// checked against its cap and against the bytes actually present
/// before anything is allocated.
fn decode_stats(c: &mut Cursor<'_>) -> Result<(IoSnapshot, ServerStatsSnapshot)> {
    let mut io = IoSnapshot::default();
    let mut server = ServerStatsSnapshot::default();
    // Each metric costs at least a name length, a kind and a value count.
    let count = c.count16("metric count", MAX_STATS_METRICS, 4)?;
    let mut values = Vec::new();
    for _ in 0..count {
        let name = c.str8()?;
        let max = match metric_kind_from_wire(c.u8()?)? {
            MetricKind::Counter | MetricKind::Gauge => 1,
            MetricKind::Histogram => MAX_METRIC_VALUES,
        };
        let n = c.count16("metric value count", max, 8)?;
        values.clear();
        for _ in 0..n {
            values.push(c.u64()?);
        }
        if !io.set_metric(name, &values) {
            server.set_metric(name, &values);
        }
    }
    Ok((io, server))
}

/// Decode a response payload (the bytes between header and CRC).
pub fn decode_response_payload(payload: &[u8]) -> Result<ResponseEnvelope> {
    let mut c = Cursor::new(payload);
    let request_id = c.u64()?;
    let tag = c.u8()?;
    let body = match tag {
        0 => Response::Pong,
        1 => Response::Written { points: c.u64()? },
        2 => Response::M4 {
            spans: c.span_list()?,
        },
        3 => Response::Deleted,
        4 => {
            let (io, server) = decode_stats(&mut c)?;
            Response::Stats {
                io: Box::new(io),
                server: Box::new(server),
            }
        }
        5 => Response::Flushed {
            series_flushed: c.u32()?,
        },
        6 => {
            let code_tag = c.u8()?;
            let code = ErrorCode::from_wire(code_tag).ok_or(NetError::UnknownTag {
                context: "error code",
                tag: code_tag,
            })?;
            let detail = c.str16()?;
            Response::Error { code, detail }
        }
        7 => {
            let sub_id = c.u64()?;
            let spans = c.span_list()?;
            Response::SubAck { sub_id, spans }
        }
        8 => Response::Unsubscribed,
        other => {
            return Err(NetError::UnknownTag {
                context: "response",
                tag: other,
            })
        }
    };
    if c.remaining() != 0 {
        return Err(NetError::TooLarge {
            context: "response payload trailing bytes",
            len: c.remaining() as u64,
            max: 0,
        });
    }
    Ok(ResponseEnvelope { request_id, body })
}

/// Decode a push payload (the bytes between header and CRC).
pub fn decode_push_payload(payload: &[u8]) -> Result<Push> {
    let mut c = Cursor::new(payload);
    let tag = c.u8()?;
    let push = match tag {
        0 => {
            let sub_id = c.u64()?;
            let seq = c.u64()?;
            let resync = match c.u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(NetError::UnknownTag {
                        context: "resync flag",
                        tag: other,
                    })
                }
            };
            let n = c.u32()?;
            // Each delta costs at least a span index + presence flag.
            c.check_claim("delta count", u64::from(n), 5)?;
            let mut deltas = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let index = c.u32()?;
                let span = c.opt_span()?;
                deltas.push((index, span));
            }
            Push::SpanDelta {
                sub_id,
                seq,
                resync,
                deltas,
            }
        }
        1 => Push::Lagged { sub_id: c.u64()? },
        2 => {
            let sub_id = c.u64()?;
            let code_tag = c.u8()?;
            let code = ErrorCode::from_wire(code_tag).ok_or(NetError::UnknownTag {
                context: "error code",
                tag: code_tag,
            })?;
            let detail = c.str16()?;
            Push::SubError {
                sub_id,
                code,
                detail,
            }
        }
        other => {
            return Err(NetError::UnknownTag {
                context: "push",
                tag: other,
            })
        }
    };
    if c.remaining() != 0 {
        return Err(NetError::TooLarge {
            context: "push payload trailing bytes",
            len: c.remaining() as u64,
            max: 0,
        });
    }
    Ok(push)
}

/// Parse and validate a frame header. Returns `(kind, payload_len)`.
fn decode_header(header: &[u8], max_payload_bytes: u32) -> Result<(u8, usize)> {
    let mut c = Cursor::new(header);
    let magic = c.take(4)?;
    if magic != MAGIC {
        let arr: [u8; 4] = magic.try_into().map_err(|_| NetError::Truncated {
            needed: 4,
            got: magic.len(),
        })?;
        return Err(NetError::BadMagic(arr));
    }
    let version = c.u8()?;
    if version != VERSION {
        return Err(NetError::UnsupportedVersion(version));
    }
    let kind = c.u8()?;
    if kind != KIND_REQUEST && kind != KIND_RESPONSE && kind != KIND_PUSH {
        return Err(NetError::UnknownTag {
            context: "frame kind",
            tag: kind,
        });
    }
    let len = c.u32()?;
    let max = max_payload_bytes.min(MAX_PAYLOAD_BYTES);
    if len > max {
        return Err(NetError::TooLarge {
            context: "payload",
            len: u64::from(len),
            max: u64::from(max),
        });
    }
    Ok((kind, len as usize))
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame> {
    match kind {
        KIND_REQUEST => Ok(Frame::Request(decode_request_payload(payload)?)),
        KIND_PUSH => Ok(Frame::Push(decode_push_payload(payload)?)),
        _ => Ok(Frame::Response(decode_response_payload(payload)?)),
    }
}

/// Decode one complete frame from a byte buffer. Returns the frame and
/// the number of bytes it occupied. Every malformed shape — wrong
/// magic, unknown version or tag, truncation at any offset, checksum
/// mismatch, trailing payload bytes — is a typed error.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize)> {
    let mut c = Cursor::new(buf);
    let header = c.take(HEADER_LEN)?;
    let (kind, len) = decode_header(header, MAX_PAYLOAD_BYTES)?;
    let payload = c.take(len)?;
    let expected = c.u32()?;
    let actual = crc32(payload);
    if expected != actual {
        return Err(NetError::ChecksumMismatch { expected, actual });
    }
    let frame = decode_payload(kind, payload)?;
    Ok((frame, HEADER_LEN + len + TRAILER_LEN))
}

/// Read one frame off a blocking stream. `max_payload_bytes` bounds
/// the allocation a peer can demand. The payload staging buffer comes
/// from the tsfile buffer pool: a server worker thread decoding one
/// frame per request reuses the same warm allocation.
pub fn read_frame(r: &mut impl Read, max_payload_bytes: u32) -> Result<Frame> {
    tsfile::lockcheck::check_block();
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (kind, len) = decode_header(&header, max_payload_bytes)?;
    let mut payload = tsfile::bufpool::take(len);
    r.read_exact(&mut payload)?;
    let mut crc_bytes = [0u8; TRAILER_LEN];
    r.read_exact(&mut crc_bytes)?;
    let expected = u32::from_le_bytes(crc_bytes);
    let actual = crc32(&payload);
    if expected != actual {
        return Err(NetError::ChecksumMismatch { expected, actual });
    }
    decode_payload(kind, &payload)
}

/// Write one pre-encoded frame to a blocking stream and flush it.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> Result<()> {
    tsfile::lockcheck::check_block();
    w.write_all(frame)?;
    w.flush()?;
    Ok(())
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
    use crate::stats::LATENCY_BUCKETS;

    fn roundtrip_request(body: Request) {
        let env = RequestEnvelope {
            request_id: 77,
            deadline_ms: 250,
            body,
        };
        let bytes = encode_request(&env).unwrap();
        let (frame, used) = decode_frame(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(frame, Frame::Request(env));
    }

    fn roundtrip_response(body: Response) {
        let env = ResponseEnvelope {
            request_id: 99,
            body,
        };
        let bytes = encode_response(&env).unwrap();
        let (frame, used) = decode_frame(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(frame, Frame::Response(env));
    }

    fn roundtrip_push(push: Push) {
        let bytes = encode_push(&push).unwrap();
        let (frame, used) = decode_frame(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(frame, Frame::Push(push));
    }

    fn span(seed: i64) -> SpanRepr {
        SpanRepr {
            first: Point::new(seed, seed as f64 + 0.5),
            last: Point::new(seed + 9, -2.5),
            bottom: Point::new(seed + 4, -7.0),
            top: Point::new(seed + 3, 8.0),
        }
    }

    #[test]
    fn request_variants_roundtrip() {
        roundtrip_request(Request::Ping { delay_ms: 0 });
        roundtrip_request(Request::WriteBatch {
            entries: vec![
                ("a.b".into(), vec![Point::new(1, 2.0), Point::new(-5, -0.0)]),
                ("c".into(), vec![]),
            ],
        });
        roundtrip_request(Request::M4Query {
            series: "sensor.speed".into(),
            op: Operator::Lsm,
            t_qs: -100,
            t_qe: i64::MAX,
            w: 480,
        });
        roundtrip_request(Request::Delete {
            series: "s".into(),
            start: i64::MIN,
            end: i64::MAX,
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::FlushSeal {
            series: Some("s".into()),
            compact: true,
        });
        roundtrip_request(Request::FlushSeal {
            series: None,
            compact: false,
        });
        roundtrip_request(Request::Subscribe {
            series: "dash.speed".into(),
            t_qs: 0,
            t_qe: 1_000_000,
            w: 480,
        });
        roundtrip_request(Request::Unsubscribe { sub_id: u64::MAX });
    }

    #[test]
    fn response_variants_roundtrip() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Written { points: u64::MAX });
        roundtrip_response(Response::M4 {
            spans: vec![None, Some(span(1))],
        });
        roundtrip_response(Response::Deleted);
        roundtrip_response(Response::Stats {
            io: Box::new(IoSnapshot {
                chunks_loaded: 1,
                points_decoded: 3,
                pages_decoded: 5,
                pages_stat_answered: 2,
                ..Default::default()
            }),
            server: Box::new(ServerStatsSnapshot {
                requests_query: 7,
                subs_active: 3,
                subs_deduped: 2,
                deltas_pushed: 40,
                deltas_coalesced: 4,
                resyncs: 1,
                latency_counts: vec![0; LATENCY_BUCKETS],
                ..Default::default()
            }),
        });
        roundtrip_response(Response::Flushed { series_flushed: 3 });
        roundtrip_response(Response::Error {
            code: ErrorCode::SeriesNotFound,
            detail: "series \"x\"".into(),
        });
        roundtrip_response(Response::SubAck {
            sub_id: 12,
            spans: vec![Some(span(5)), None, None],
        });
        roundtrip_response(Response::Unsubscribed);
    }

    #[test]
    fn push_variants_roundtrip() {
        roundtrip_push(Push::SpanDelta {
            sub_id: 3,
            seq: 0,
            resync: false,
            deltas: vec![(0, Some(span(10))), (7, None)],
        });
        roundtrip_push(Push::SpanDelta {
            sub_id: u64::MAX,
            seq: u64::MAX,
            resync: true,
            deltas: vec![],
        });
        roundtrip_push(Push::Lagged { sub_id: 3 });
        roundtrip_push(Push::SubError {
            sub_id: 9,
            code: ErrorCode::Subscription,
            detail: "series dropped".into(),
        });
    }

    #[test]
    fn request_ids_echo_through_both_envelopes() {
        let req = RequestEnvelope {
            request_id: 0xDEAD_BEEF_0BAD_CAFE,
            deadline_ms: 0,
            body: Request::Stats,
        };
        let bytes = encode_request(&req).unwrap();
        let (Frame::Request(decoded), _) = decode_frame(&bytes).unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(decoded.request_id, req.request_id);

        let resp = ResponseEnvelope {
            request_id: req.request_id,
            body: Response::Pong,
        };
        let bytes = encode_response(&resp).unwrap();
        let (Frame::Response(decoded), _) = decode_frame(&bytes).unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(decoded.request_id, req.request_id);
    }

    #[test]
    fn nan_value_bits_survive_the_wire() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let env = RequestEnvelope {
            request_id: 1,
            deadline_ms: 0,
            body: Request::WriteBatch {
                entries: vec![("s".into(), vec![Point::new(0, weird)])],
            },
        };
        let bytes = encode_request(&env).unwrap();
        let (frame, _) = decode_frame(&bytes).unwrap();
        let Frame::Request(env2) = frame else {
            panic!("wrong kind")
        };
        let Request::WriteBatch { entries } = env2.body else {
            panic!("wrong body")
        };
        assert_eq!(entries[0].1[0].v.to_bits(), weird.to_bits());
    }

    #[test]
    fn bad_magic_version_kind_are_typed() {
        let good = encode_request(&RequestEnvelope {
            request_id: 0,
            deadline_ms: 0,
            body: Request::Stats,
        })
        .unwrap();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(decode_frame(&bad), Err(NetError::BadMagic(_))));

        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            decode_frame(&bad),
            Err(NetError::UnsupportedVersion(99))
        ));

        // v5 (the previous protocol, positional Stats blocks) is
        // refused, not reinterpreted.
        let mut bad = good.clone();
        bad[4] = 5;
        assert!(matches!(
            decode_frame(&bad),
            Err(NetError::UnsupportedVersion(5))
        ));

        let mut bad = good.clone();
        bad[5] = 7;
        assert!(matches!(
            decode_frame(&bad),
            Err(NetError::UnknownTag {
                context: "frame kind",
                tag: 7
            })
        ));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let good = encode_request(&RequestEnvelope {
            request_id: 0,
            deadline_ms: 9,
            body: Request::Ping { delay_ms: 1 },
        })
        .unwrap();
        let mut bad = good.clone();
        bad[HEADER_LEN] ^= 0x40;
        assert!(matches!(
            decode_frame(&bad),
            Err(NetError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let good = encode_response(&ResponseEnvelope {
            request_id: 5,
            body: Response::Written { points: 5 },
        })
        .unwrap();
        for k in 0..good.len() {
            let r = decode_frame(&good[..k]);
            assert!(r.is_err(), "prefix of {k} bytes must not decode");
        }
        let good = encode_push(&Push::SpanDelta {
            sub_id: 1,
            seq: 2,
            resync: false,
            deltas: vec![(3, Some(span(0)))],
        })
        .unwrap();
        for k in 0..good.len() {
            let r = decode_frame(&good[..k]);
            assert!(r.is_err(), "push prefix of {k} bytes must not decode");
        }
    }

    #[test]
    fn oversized_claimed_counts_are_rejected() {
        // A write-batch frame claiming u32::MAX points but holding none.
        let frame = frame_bytes(KIND_REQUEST, |payload| {
            put_u64(payload, 0); // request id
            put_u32(payload, 0); // deadline
            payload.push(1); // WriteBatch
            put_u32(payload, 1); // one series
            put_str(payload, "s")?;
            put_u32(payload, u32::MAX); // absurd point count
            Ok(())
        })
        .unwrap();
        assert!(matches!(
            decode_frame(&frame),
            Err(NetError::TooLarge { .. })
        ));

        // A push frame claiming u32::MAX span deltas but holding none.
        let frame = frame_bytes(KIND_PUSH, |payload| {
            payload.push(0); // SpanDelta
            put_u64(payload, 1); // sub id
            put_u64(payload, 0); // seq
            payload.push(0); // resync
            put_u32(payload, u32::MAX); // absurd delta count
            Ok(())
        })
        .unwrap();
        assert!(matches!(
            decode_frame(&frame),
            Err(NetError::TooLarge { .. })
        ));
    }

    /// Decode a Stats response whose body (after the tag) is `body`.
    fn decode_stats_body(body: &[u8]) -> Result<(IoSnapshot, ServerStatsSnapshot)> {
        let frame = frame_bytes(KIND_RESPONSE, |payload| {
            put_u64(payload, 1); // request id
            payload.push(4); // Stats
            payload.extend_from_slice(body);
            Ok(())
        })
        .unwrap();
        match decode_frame(&frame)?.0 {
            Frame::Response(ResponseEnvelope {
                body: Response::Stats { io, server },
                ..
            }) => Ok((*io, *server)),
            other => panic!("not a Stats response: {other:?}"),
        }
    }

    /// Body bytes: a metric count, then one metric written field by
    /// field so each claim can be set independently of what follows.
    fn one_metric(count: u16, name: &[u8], kind: u8, claimed: u16, values: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u16(&mut out, count);
        out.push(name.len() as u8);
        out.extend_from_slice(name);
        out.push(kind);
        put_u16(&mut out, claimed);
        for v in values {
            put_u64(&mut out, *v);
        }
        out
    }

    #[test]
    fn stats_fill_by_name_ignoring_unknown_and_zeroing_missing() {
        let mut body = Vec::new();
        put_metrics(
            &mut body,
            &[
                ("tsnet.resyncs", MetricKind::Counter, &[3]),
                ("tskv.from_a_newer_peer", MetricKind::Gauge, &[9]),
                ("tsnet.latency_counts", MetricKind::Histogram, &[1, 2]),
                ("elsewhere.histogram", MetricKind::Histogram, &[]),
                ("tskv.wal_bytes", MetricKind::Counter, &[4096]),
            ],
        )
        .unwrap();
        let (io, server) = decode_stats_body(&body).unwrap();
        // Order on the wire is irrelevant; what was not sent reads zero.
        let want_io = IoSnapshot {
            wal_bytes: 4096,
            ..Default::default()
        };
        let want_server = ServerStatsSnapshot {
            resyncs: 3,
            latency_counts: vec![1, 2],
            ..Default::default()
        };
        assert_eq!((io, server), (want_io, want_server));
    }

    #[test]
    fn malformed_stats_bodies_are_typed_errors() {
        const NAME: &[u8] = b"tskv.wal_bytes";
        assert!(decode_stats_body(&one_metric(1, NAME, 0, 1, &[5])).is_ok());

        let too_large = |body: Vec<u8>, want: &str| match decode_stats_body(&body) {
            Err(NetError::TooLarge { context, .. }) => assert_eq!(context, want),
            other => panic!("{want}: {other:?}"),
        };
        // A metric count above the cap; within it but beyond the bytes.
        too_large(
            (MAX_STATS_METRICS + 1).to_le_bytes().to_vec(),
            "metric count",
        );
        too_large(one_metric(9, NAME, 0, 1, &[5]), "metric count");
        // A histogram length above the cap; within it but beyond the bytes.
        too_large(
            one_metric(1, NAME, 2, MAX_METRIC_VALUES + 1, &[5]),
            "metric value count",
        );
        too_large(one_metric(1, NAME, 2, 2, &[5]), "metric value count");
        // A scalar carries exactly one value.
        too_large(one_metric(1, NAME, 0, 2, &[5, 6]), "metric value count");
        // Bytes left over after the last metric.
        too_large(
            one_metric(1, NAME, 0, 1, &[5, 6]),
            "response payload trailing bytes",
        );

        // A name length running past the payload.
        let mut body = one_metric(1, NAME, 0, 1, &[5]);
        body[2] = 200;
        assert!(matches!(
            decode_stats_body(&body),
            Err(NetError::Truncated { needed: 200, .. })
        ));
        assert!(matches!(
            decode_stats_body(&one_metric(1, b"tskv.\xFF\xFE", 0, 1, &[5])),
            Err(NetError::BadString)
        ));
        assert!(matches!(
            decode_stats_body(&one_metric(1, NAME, 3, 1, &[5])),
            Err(NetError::UnknownTag {
                context: "metric kind",
                tag: 3
            })
        ));
    }

    #[test]
    fn stats_encoder_enforces_the_same_caps() {
        let too_large = |metrics: &[(&str, MetricKind, &[u64])], want: &str| match put_metrics(
            &mut Vec::new(),
            metrics,
        ) {
            Err(NetError::TooLarge { context, .. }) => assert_eq!(context, want),
            other => panic!("{want}: {other:?}"),
        };
        too_large(
            &[(&"n".repeat(256), MetricKind::Counter, &[1])],
            "metric name",
        );
        let values = vec![0; usize::from(MAX_METRIC_VALUES) + 1];
        too_large(
            &[("h", MetricKind::Histogram, &values)],
            "metric value count",
        );
        let metrics =
            vec![("m", MetricKind::Gauge, &[0u64][..]); usize::from(MAX_STATS_METRICS) + 1];
        too_large(&metrics, "metric count");
    }

    #[test]
    fn stream_read_write_roundtrip() {
        let env = RequestEnvelope {
            request_id: 42,
            deadline_ms: 1,
            body: Request::Delete {
                series: "s".into(),
                start: 0,
                end: 10,
            },
        };
        let bytes = encode_request(&env).unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, &bytes).unwrap();
        let frame = read_frame(&mut buf.as_slice(), MAX_PAYLOAD_BYTES).unwrap();
        assert_eq!(frame, Frame::Request(env));

        let push = Push::Lagged { sub_id: 8 };
        let bytes = encode_push(&push).unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, &bytes).unwrap();
        let frame = read_frame(&mut buf.as_slice(), MAX_PAYLOAD_BYTES).unwrap();
        assert_eq!(frame, Frame::Push(push));
    }

    /// Whether `f` panics.
    #[cfg(debug_assertions)]
    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    #[cfg(debug_assertions)]
    fn write_one() {
        write_frame(&mut Vec::new(), b"frame").unwrap();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_marked_thread_writing_a_frame_panics() {
        assert!(!panics(write_one));
        let mark = tsfile::lockcheck::no_block();
        assert!(panics(write_one));
        assert!(panics(|| {
            read_frame(&mut &b""[..], 64).err();
        }));
        drop(mark);
        assert!(!panics(write_one));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_thread_spawned_from_a_marked_thread_is_not_marked() {
        let _mark = tsfile::lockcheck::no_block();
        assert!(panics(write_one));
        let spawned = std::thread::spawn(|| panics(write_one));
        assert!(!spawned.join().unwrap());
    }
}
