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
//! Each field type has one `Wire` impl (its encoder and decoder, and
//! for a list its cap and claimed-count check), and each message is
//! declared once, as its tag and fields, in the `wire_struct!` and
//! `wire_enum!` tables: a new variant or field is added to its type and
//! to its row there, and nowhere else. `tests/golden_frames.rs` pins
//! every variant's bytes; `tests/wire_payload_fuzz.rs` feeds the
//! payload decoders hostile bytes behind a valid checksum.
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
//! checksum before any of it is interpreted. A hostile peer computes
//! its own checksum, so the payload decoders stand on their own too.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

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
/// Ceiling on payload size (64 MiB), on every frame either side reads
/// or writes.
pub const MAX_PAYLOAD_BYTES: u32 = 64 * 1024 * 1024;
/// Ceiling on series per [`Request::WriteBatch`].
pub const MAX_BATCH_SERIES: u32 = 1 << 16;
/// Ceiling on metrics per [`Response::Stats`].
pub const MAX_STATS_METRICS: u16 = 4096;
/// Ceiling on values per metric in a [`Response::Stats`] (a scalar
/// carries one, a histogram one per bucket).
pub const MAX_METRIC_VALUES: u16 = 1024;

/// Which M4 operator a query should run.
pub use m4::Operator;

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
// The codec: one `Wire` impl per field type, one table per message
// ---------------------------------------------------------------------

/// A value with one wire layout. `put` appends it, `get` reads it back;
/// every message below is a list of such fields, so its encoder and
/// decoder are the same list.
trait Wire: Sized {
    /// Fewest bytes one value occupies: what a claimed element count is
    /// checked against before anything is allocated.
    const MIN_BYTES: usize;
    fn put(&self, out: &mut Vec<u8>) -> Result<()>;
    fn get(c: &mut Cursor<'_>) -> Result<Self>;
}

/// Bounds-checked reader over untrusted bytes: `buf` is what is left.
/// Running out of bytes is a typed error, never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn short(&self, needed: usize) -> NetError {
        let got = self.buf.len();
        NetError::Truncated { needed, got }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, rest) = self.buf.split_at_checked(n).ok_or_else(|| self.short(n))?;
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, rest) = self.buf.split_first_chunk().ok_or_else(|| self.short(N))?;
        self.buf = rest;
        Ok(*head)
    }

    /// Read a claimed element count, refused when it exceeds `max` or
    /// when that many elements of `min_bytes` each would overrun the
    /// bytes left, so a corrupted count cannot drive a huge allocation.
    fn count<N: Wire + Into<u64>>(
        &mut self,
        context: &'static str,
        max: N,
        min_bytes: usize,
    ) -> Result<usize> {
        let (n, cap) = (N::get(self)?.into(), max.into());
        let fits = (self.buf.len() / min_bytes.max(1)) as u64;
        let max = if n > cap { cap } else { fits };
        if n > max {
            return Err(NetError::TooLarge {
                context,
                len: n,
                max,
            });
        }
        Ok(n as usize)
    }
}

/// `len` as a count of at most `max`, or the encoder's `TooLarge`.
fn bounded<N: TryFrom<usize> + Into<u64> + Copy>(
    context: &'static str,
    len: usize,
    max: N,
) -> Result<N> {
    N::try_from(len)
        .ok()
        .filter(|&n| n.into() <= max.into())
        .ok_or(NetError::TooLarge {
            context,
            len: len as u64,
            max: max.into(),
        })
}

/// Fixed-width numbers, little-endian; an `f64` is its raw bits, so
/// every NaN payload survives the wire.
macro_rules! wire_fixed {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn put(&self, out: &mut Vec<u8>) -> Result<()> {
                out.extend_from_slice(&self.to_le_bytes());
                Ok(())
            }
            fn get(c: &mut Cursor<'_>) -> Result<Self> {
                Ok(<$t>::from_le_bytes(c.array()?))
            }
        }
    )*};
}

wire_fixed!(u8, u16, u32, u64, i64, f64);

/// One byte, 0 or 1; anything else is refused.
impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) -> Result<()> {
        u8::from(*self).put(out)
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self> {
        match u8::get(c)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(NetError::UnknownTag {
                context: "flag",
                tag,
            }),
        }
    }
}

/// A presence flag, then the value when present. Here and in
/// `wire_struct!`, `#[inline]` lets a list's loop take the element in.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) -> Result<()> {
        self.is_some().put(out)?;
        self.as_ref().map_or(Ok(()), |v| v.put(out))
    }
    #[inline]
    fn get(c: &mut Cursor<'_>) -> Result<Self> {
        if bool::get(c)? {
            T::get(c).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) -> Result<()> {
        self.0.put(out)?;
        self.1.put(out)
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self> {
        Ok((A::get(c)?, B::get(c)?))
    }
}

/// A `u16` length prefix + UTF-8 bytes; a longer string is refused.
impl Wire for String {
    const MIN_BYTES: usize = 2;
    fn put(&self, out: &mut Vec<u8>) -> Result<()> {
        bounded("string", self.len(), u16::MAX)?.put(out)?;
        out.extend_from_slice(self.as_bytes());
        Ok(())
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self> {
        let len = u16::get(c)?;
        String::from_utf8(c.take(usize::from(len))?.to_vec()).map_err(|_| NetError::BadString)
    }
}

/// An error's detail text: a string like any other on the wire, but
/// clipped to `u16::MAX` bytes on a character boundary rather than
/// refused. A detail may quote a series name of up to that length, and
/// its error must still reach the peer.
struct Detail;

impl Detail {
    fn put(detail: &str, out: &mut Vec<u8>) -> Result<()> {
        let cut = (0..=detail.len().min(usize::from(u16::MAX)))
            .rev()
            .find(|&i| detail.is_char_boundary(i))
            .unwrap_or(0);
        detail.get(..cut).unwrap_or_default().to_owned().put(out)
    }
    fn get(c: &mut Cursor<'_>) -> Result<String> {
        String::get(c)
    }
}

impl Wire for ErrorCode {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) -> Result<()> {
        self.to_wire().put(out)
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self> {
        let tag = u8::get(c)?;
        ErrorCode::from_wire(tag).ok_or(NetError::UnknownTag {
            context: "error code",
            tag,
        })
    }
}

/// The element of a `u32`-counted list: the context its count is
/// reported under, and the most elements one list may hold.
trait Listed: Wire {
    const COUNT: &'static str;
    const MAX: u32 = u32::MAX;
}

impl Listed for (String, Vec<Point>) {
    const COUNT: &'static str = "write-batch series count";
    const MAX: u32 = MAX_BATCH_SERIES;
}

impl Listed for Point {
    const COUNT: &'static str = "write-batch point count";
}

impl Listed for Option<SpanRepr> {
    const COUNT: &'static str = "span count";
}

impl Listed for (u32, Option<SpanRepr>) {
    const COUNT: &'static str = "delta count";
}

/// A `u32` count, then that many elements.
impl<T: Listed> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) -> Result<()> {
        bounded(T::COUNT, self.len(), T::MAX)?.put(out)?;
        out.reserve(self.len().saturating_mul(T::MIN_BYTES));
        self.iter().try_for_each(|v| v.put(out))
    }
    fn get(c: &mut Cursor<'_>) -> Result<Self> {
        let n = c.count(T::COUNT, T::MAX, T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(c)?);
        }
        Ok(items)
    }
}

/// The Stats reply's one field: both registries' metrics as one
/// `u16`-counted list of (`u8`-prefixed name, kind byte, `u16`-counted
/// `u64` values), read back by name. The one place a registry entry
/// becomes bytes; it knows no metric.
struct Metrics;

impl Metrics {
    fn put(io: &IoSnapshot, server: &ServerStatsSnapshot, out: &mut Vec<u8>) -> Result<()> {
        let metrics: Vec<_> = io.metrics().chain(server.metrics()).collect();
        Self::put_list(&metrics, out)
    }

    fn put_list(metrics: &[(&str, MetricKind, &[u64])], out: &mut Vec<u8>) -> Result<()> {
        bounded("metric count", metrics.len(), MAX_STATS_METRICS)?.put(out)?;
        for (name, kind, values) in metrics {
            bounded("metric name", name.len(), u8::MAX)?.put(out)?;
            out.extend_from_slice(name.as_bytes());
            kind.put(out)?;
            bounded("metric value count", values.len(), MAX_METRIC_VALUES)?.put(out)?;
            values.iter().try_for_each(|v| v.put(out))?;
        }
        Ok(())
    }

    /// Fill both snapshots by name. A name neither registry declares is
    /// skipped (a newer peer's metric); a name the payload lacks stays
    /// zero (an older peer).
    fn get(c: &mut Cursor<'_>) -> Result<(Box<IoSnapshot>, Box<ServerStatsSnapshot>)> {
        let mut io = Box::<IoSnapshot>::default();
        let mut server = Box::<ServerStatsSnapshot>::default();
        // Each metric costs at least a name length, a kind and a count.
        let count = c.count("metric count", MAX_STATS_METRICS, 4)?;
        let mut values = Vec::new();
        for _ in 0..count {
            let len = u8::get(c)?;
            let name =
                std::str::from_utf8(c.take(usize::from(len))?).map_err(|_| NetError::BadString)?;
            let max = match MetricKind::get(c)? {
                MetricKind::Counter | MetricKind::Gauge => 1,
                MetricKind::Histogram => MAX_METRIC_VALUES,
            };
            let n = c.count("metric value count", max, u64::MIN_BYTES)?;
            values.clear();
            for _ in 0..n {
                values.push(u64::get(c)?);
            }
            if !io.set_metric(name, &values) {
                server.set_metric(name, &values);
            }
        }
        Ok((io, server))
    }
}

/// Structs: each one's fields, in order.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident: $fty:ty),* })*) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty as Wire>::MIN_BYTES)*;
            #[inline]
            fn put(&self, out: &mut Vec<u8>) -> Result<()> {
                $(self.$field.put(out)?;)*
                Ok(())
            }
            #[inline]
            fn get(c: &mut Cursor<'_>) -> Result<Self> {
                Ok($ty { $($field: <$fty>::get(c)?),* })
            }
        }
    )*};
}

/// An enum: a `u8` tag, then the variant's fields in order. A field
/// written `field: Codec` goes through `Codec::{put, get}` instead of
/// its type's `Wire` impl; a variant ending `by Codec` is coded as a
/// whole by `Codec::put(fields.., out)` and `Codec::get` (a tuple).
macro_rules! wire_enum {
    ($ty:ident, $context:literal {
        $($tag:literal => $var:ident { $($field:ident $(: $via:ident)?),* } $(by $by:ident)?),* $(,)?
    }) => {
        impl Wire for $ty {
            const MIN_BYTES: usize = 1;
            fn put(&self, out: &mut Vec<u8>) -> Result<()> {
                match self {
                    $($ty::$var { $($field),* } => {
                        out.push($tag);
                        wire_enum!(@put out [$($by)?] $($field $($via)?),*);
                    })*
                }
                Ok(())
            }
            fn get(c: &mut Cursor<'_>) -> Result<Self> {
                Ok(match u8::get(c)? {
                    $($tag => wire_enum!(@get c $ty $var [$($by)?] $($field $($via)?),*),)*
                    tag => return Err(NetError::UnknownTag { context: $context, tag }),
                })
            }
        }
    };
    (@put $out:ident [$by:ident] $($field:ident $($via:ident)?),*) => {
        $by::put($($field,)* $out)?
    };
    (@put $out:ident [] $($field:ident $($via:ident)?),*) => {
        $(wire_enum!(@put1 $out $field $($via)?);)*
    };
    (@put1 $out:ident $field:ident) => { Wire::put($field, $out)? };
    (@put1 $out:ident $field:ident $via:ident) => { $via::put($field, $out)? };
    (@get $c:ident $ty:ident $var:ident [$by:ident] $($field:ident $($via:ident)?),*) => {{
        let ($($field,)*) = $by::get($c)?;
        $ty::$var { $($field),* }
    }};
    (@get $c:ident $ty:ident $var:ident [] $($field:ident $($via:ident)?),*) => {
        $ty::$var { $($field: wire_enum!(@get1 $c $($via)?)),* }
    };
    (@get1 $c:ident) => { Wire::get($c)? };
    (@get1 $c:ident $via:ident) => { $via::get($c)? };
}

wire_enum!(Operator, "operator" {
    0 => Udf {},
    1 => Lsm {},
});

wire_enum!(MetricKind, "metric kind" {
    0 => Counter {},
    1 => Gauge {},
    2 => Histogram {},
});

// Structs, then the messages: one row per variant, its tag and its
// fields in order.
wire_struct! {
    Point { t: i64, v: f64 }
    SpanRepr { first: Point, last: Point, bottom: Point, top: Point }
    RequestEnvelope { request_id: u64, deadline_ms: u32, body: Request }
    ResponseEnvelope { request_id: u64, body: Response }
}

wire_enum!(Request, "request" {
    0 => Ping { delay_ms },
    1 => WriteBatch { entries },
    2 => M4Query { series, op, t_qs, t_qe, w },
    3 => Delete { series, start, end },
    4 => Stats {},
    5 => FlushSeal { series, compact },
    6 => Subscribe { series, t_qs, t_qe, w },
    7 => Unsubscribe { sub_id },
});

wire_enum!(Response, "response" {
    0 => Pong {},
    1 => Written { points },
    2 => M4 { spans },
    3 => Deleted {},
    4 => Stats { io, server } by Metrics,
    5 => Flushed { series_flushed },
    6 => Error { code, detail: Detail },
    7 => SubAck { sub_id, spans },
    8 => Unsubscribed {},
});

wire_enum!(Push, "push" {
    0 => SpanDelta { sub_id, seq, resync, deltas },
    1 => Lagged { sub_id },
    2 => SubError { sub_id, code, detail: Detail },
});

/// The largest `w` a subscription may ask for: its full-state
/// [`Push::SpanDelta`], every span present, still fits in one frame of
/// [`MAX_PAYLOAD_BYTES`]. Derived from the codec's sizes: the frame's
/// head (tag, `sub_id`, `seq`, `resync`, delta count), then per span its
/// index, presence flag and four points.
pub const MAX_SUB_SPANS: u32 = {
    let head = u8::MIN_BYTES
        + 2 * u64::MIN_BYTES
        + bool::MIN_BYTES
        + Vec::<(u32, Option<SpanRepr>)>::MIN_BYTES;
    let delta = <(u32, Option<SpanRepr>)>::MIN_BYTES + SpanRepr::MIN_BYTES;
    ((MAX_PAYLOAD_BYTES as usize - head) / delta) as u32
};

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

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
    0u32.put(&mut out)?;
    encode_payload(&mut out)?;
    let payload_len = out.len().saturating_sub(HEADER_LEN);
    let len = bounded("payload", payload_len, MAX_PAYLOAD_BYTES)?;
    for (dst, src) in out.iter_mut().skip(HEADER_LEN - 4).zip(len.to_le_bytes()) {
        *dst = src;
    }
    crc32(out.get(HEADER_LEN..).unwrap_or(&[])).put(&mut out)?;
    Ok(out)
}

/// Encode a request envelope into one complete frame.
pub fn encode_request(env: &RequestEnvelope) -> Result<Vec<u8>> {
    frame_bytes(KIND_REQUEST, |out| env.put(out))
}

/// Encode a response envelope into one complete frame.
pub fn encode_response(env: &ResponseEnvelope) -> Result<Vec<u8>> {
    frame_bytes(KIND_RESPONSE, |out| env.put(out))
}

/// Encode a push payload into one complete frame.
pub fn encode_push(push: &Push) -> Result<Vec<u8>> {
    frame_bytes(KIND_PUSH, |out| push.put(out))
}

/// Decode a whole payload as one `T`; bytes left over are an error.
fn decode_all<T: Wire>(payload: &[u8], trailing: &'static str) -> Result<T> {
    let mut c = Cursor { buf: payload };
    let value = T::get(&mut c)?;
    if !c.buf.is_empty() {
        return Err(NetError::TooLarge {
            context: trailing,
            len: c.buf.len() as u64,
            max: 0,
        });
    }
    Ok(value)
}

/// Decode a request payload (the bytes between header and CRC).
pub fn decode_request_payload(payload: &[u8]) -> Result<RequestEnvelope> {
    decode_all(payload, "request payload trailing bytes")
}

/// Decode a response payload (the bytes between header and CRC).
pub fn decode_response_payload(payload: &[u8]) -> Result<ResponseEnvelope> {
    decode_all(payload, "response payload trailing bytes")
}

/// Decode a push payload (the bytes between header and CRC).
pub fn decode_push_payload(payload: &[u8]) -> Result<Push> {
    decode_all(payload, "push payload trailing bytes")
}

/// Parse and validate a frame header. Returns `(kind, payload_len)`.
fn decode_header(header: &[u8]) -> Result<(u8, usize)> {
    let mut c = Cursor { buf: header };
    let magic = c.array()?;
    if magic != MAGIC {
        return Err(NetError::BadMagic(magic));
    }
    let version = u8::get(&mut c)?;
    if version != VERSION {
        return Err(NetError::UnsupportedVersion(version));
    }
    let kind = u8::get(&mut c)?;
    if kind != KIND_REQUEST && kind != KIND_RESPONSE && kind != KIND_PUSH {
        return Err(NetError::UnknownTag {
            context: "frame kind",
            tag: kind,
        });
    }
    let len = bounded("payload", u32::get(&mut c)? as usize, MAX_PAYLOAD_BYTES)?;
    Ok((kind, len as usize))
}

/// Check a payload against the CRC its frame carried, then decode it
/// as `kind`.
fn decode_payload(kind: u8, payload: &[u8], expected: u32) -> Result<Frame> {
    let actual = crc32(payload);
    if expected != actual {
        return Err(NetError::ChecksumMismatch { expected, actual });
    }
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
    let mut c = Cursor { buf };
    let header = c.take(HEADER_LEN)?;
    let (kind, len) = decode_header(header)?;
    let payload = c.take(len)?;
    let frame = decode_payload(kind, payload, u32::get(&mut c)?)?;
    Ok((frame, HEADER_LEN + len + TRAILER_LEN))
}

/// The most payload bytes [`read_frame`] commits before they arrive: a
/// header's claimed length is grown into this much at a time, so a peer
/// that claims [`MAX_PAYLOAD_BYTES`] and stalls holds one step, not its
/// claim. The buffer pool's largest retained buffer.
const READ_STEP: usize = tsfile::bufpool::MAX_POOLED_CAP;

/// Read one frame off a blocking stream. [`MAX_PAYLOAD_BYTES`] bounds
/// the payload a peer can send, and the staging buffer grows at most
/// [`READ_STEP`] ahead of the bytes that arrived. The buffer comes from
/// the tsfile buffer pool: a server worker thread decoding one frame
/// per request reuses the same warm allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Frame> {
    tsfile::lockcheck::check_block();
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (kind, len) = decode_header(&header)?;
    let mut payload = tsfile::bufpool::take(0);
    while payload.len() < len {
        let at = payload.len();
        payload.resize(at + (len - at).min(READ_STEP), 0);
        r.read_exact(payload.get_mut(at..).unwrap_or_default())?;
    }
    let mut crc_bytes = [0u8; TRAILER_LEN];
    r.read_exact(&mut crc_bytes)?;
    decode_payload(kind, &payload, u32::from_le_bytes(crc_bytes))
}

/// A socket reader that holds a whole frame to one deadline: `limit`
/// from its first byte. Before each read the socket's timeout is
/// lowered to the time left, so a peer that trickles a frame a byte at
/// a time cannot stretch it past `limit` by keeping each read short of
/// it. Before the first byte a read waits up to `limit`. Server and
/// client read every frame through one of these.
pub(crate) struct FrameReader<'a> {
    stream: &'a TcpStream,
    limit: Duration,
    deadline: Option<Instant>,
    bytes: u64,
}

impl<'a> FrameReader<'a> {
    /// A reader for one frame off `stream`.
    pub(crate) fn new(stream: &'a TcpStream, limit: Duration) -> Self {
        FrameReader {
            stream,
            limit,
            deadline: None,
            bytes: 0,
        }
    }

    /// Bytes delivered so far.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether the frame's deadline has passed.
    pub(crate) fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

impl Read for FrameReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = match self.deadline {
            None => self.limit,
            Some(d) => d
                .checked_duration_since(Instant::now())
                .filter(|left| !left.is_zero())
                .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "frame deadline passed"))?,
        };
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        let n = stream.read(buf)?;
        if n > 0 && self.deadline.is_none() {
            self.deadline = Some(Instant::now() + self.limit);
        }
        self.bytes += n as u64;
        Ok(n)
    }
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
            0u64.put(payload)?; // request id
            0u32.put(payload)?; // deadline
            payload.push(1); // WriteBatch
            1u32.put(payload)?; // one series
            "s".to_owned().put(payload)?;
            u32::MAX.put(payload) // absurd point count
        })
        .unwrap();
        assert!(matches!(
            decode_frame(&frame),
            Err(NetError::TooLarge { .. })
        ));

        // A push frame claiming u32::MAX span deltas but holding none.
        let frame = frame_bytes(KIND_PUSH, |payload| {
            payload.push(0); // SpanDelta
            1u64.put(payload)?; // sub id
            0u64.put(payload)?; // seq
            payload.push(0); // resync
            u32::MAX.put(payload) // absurd delta count
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
            1u64.put(payload)?; // request id
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
        let mut out = count.to_le_bytes().to_vec();
        out.push(name.len() as u8);
        out.extend_from_slice(name);
        out.push(kind);
        out.extend_from_slice(&claimed.to_le_bytes());
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    #[test]
    fn stats_fill_by_name_ignoring_unknown_and_zeroing_missing() {
        let mut body = Vec::new();
        Metrics::put_list(
            &[
                ("tsnet.resyncs", MetricKind::Counter, &[3]),
                ("tskv.from_a_newer_peer", MetricKind::Gauge, &[9]),
                ("tsnet.latency_counts", MetricKind::Histogram, &[1, 2]),
                ("elsewhere.histogram", MetricKind::Histogram, &[]),
                ("tskv.wal_bytes", MetricKind::Counter, &[4096]),
            ],
            &mut body,
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
        let too_large = |metrics: &[(&str, MetricKind, &[u64])], want: &str| match Metrics::put_list(
            metrics,
            &mut Vec::new(),
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
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame, Frame::Request(env));

        let push = Push::Lagged { sub_id: 8 };
        let bytes = encode_push(&push).unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, &bytes).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
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
            read_frame(&mut &b""[..]).err();
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
