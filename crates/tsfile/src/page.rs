//! Page-structured chunk bodies.
//!
//! A chunk body is a sequence of fixed-size **pages**, each an
//! independently decodable unit with its own CRC and its own
//! [`PageStatistics`] recorded in the footer's per-chunk page index.
//! Readers that need a narrow time slice decode only the overlapping
//! pages; pages whose statistics already answer a probe are never
//! touched at all (the paper's cost model is I/O + decompression, so
//! skipped decode is the win).
//!
//! ```text
//! chunk body = page 0 body ‖ page 1 body ‖ …
//! page body:
//!   varint n (point count, 1 ..= MAX_PAGE_POINTS)
//!   u8     modes: timestamps  bit 0 constant delta, bit 2 packed deltas,
//!                             neither: the chunk's timestamp encoding
//!                 values      bit 1 decimal block, bit 3 packed deltas,
//!                             neither: the chunk's value encoding
//!                 (bits 0 and 2, or 1 and 3, together, or any other
//!                 bit: Corrupt)
//!   varint len(ts_bytes)   ts_bytes
//!   varint len(val_bytes)  val_bytes
//!   u32    crc32 of everything above (LE)
//! ```
//!
//! Both forms ([`PageForms`]) are chosen per page from the page's own
//! columns, by exact size, never by a setting. The constant-delta
//! timestamp form: sensor timestamps are mostly regular (the paper's
//! §3.5 step observation), so a page whose deltas are all equal stores
//! just `varint_i(first) varint_i(delta)` and is reconstructed
//! arithmetically — no per-point varint decode. The decimal value form
//! ([`encoding::decimal`]): a page whose values have few decimals stores
//! them as scaled, bit-packed integers — framed from their minimum, or,
//! on a page with no exception where it is smaller, as the first integer
//! and the deltas after it (a counter or a ramp, at a few bits a value
//! or none); the block's header says which, so to this layer, to
//! compaction and to the inspector both are one form. The packed forms
//! ([`encoding::packed`]): the first point, then its column's deltas —
//! of the timestamps, or of the values' order-preserving integer keys —
//! bit-packed at one width with the outliers listed apart; jittered
//! timestamps and full-precision walks take it. A form is written only
//! when it is strictly smaller than the one a page would hold without
//! it, so a page no new form shrinks is byte-identical to what earlier
//! writers wrote.
//! The column encodings themselves live in the footer's
//! [`PagedChunkInfo`] (CRC-protected there), so a chunk body has no
//! unprotected header bytes. That page index stores no offset: pages
//! tile their chunk body, so a page starts where the lengths before it
//! sum to, and each entry's statistics are coded against the entry
//! before it in file order ([`ChunkStatistics::encode_after`]).

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]

use crate::bufpool;
use crate::checksum::crc32;
use crate::encoding::decimal::{self, Exponents};
use crate::encoding::packed::{self, Packing};
use crate::encoding::{self, EncodingKind};
use crate::statistics::ChunkStatistics;
use crate::types::{Point, TimeRange};
use crate::varint;
use crate::{cast, Result, TsFileError};

/// Default number of points per page (`EngineConfig::page_points`).
pub const DEFAULT_PAGE_POINTS: usize = 1024;

/// The most points one page may hold. A constant-delta timestamp column
/// or an equal-valued decimal block is a few bytes for any count, so
/// the bytes of a page do not bound what decoding it allocates; this
/// does. The writer clamps its page size to it and a page claiming more
/// is `Corrupt`.
pub const MAX_PAGE_POINTS: usize = 1 << 20;

/// Per-page statistics carry the same fields as chunk statistics
/// (FP/LP/BP/TP/count), just at page granularity.
pub type PageStatistics = ChunkStatistics;

/// Mode bit: the timestamps are a constant delta, reconstructed
/// arithmetically from `(first, delta)`.
const MODE_CONST_DELTA: u8 = 1;
/// Mode bit: the values are a decimal block.
const MODE_DECIMAL: u8 = 2;
/// Mode bit: the timestamps are packed deltas.
const MODE_PACKED_TS: u8 = 4;
/// Mode bit: the values are packed key deltas.
const MODE_PACKED_VALUES: u8 = 8;

/// How a page stores its timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsForm {
    /// The chunk's timestamp encoding (a ts2diff or plain stream).
    Stream,
    /// `(first, delta)`, reconstructed arithmetically.
    Constant,
    /// The first timestamp and bit-packed deltas ([`encoding::packed`]).
    Packed,
}

/// How a page stores its values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueForm {
    /// The chunk's value encoding (a Gorilla or plain stream).
    Stream,
    /// A decimal block ([`encoding::decimal`]), in either of its frames
    /// ([`decimal_framing`]).
    Decimal,
    /// The first value and bit-packed key deltas ([`encoding::packed`]).
    Packed,
}

/// A page's two forms, as its modes byte records them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageForms {
    pub timestamps: TsForm,
    pub values: ValueForm,
}

impl PageForms {
    fn modes(self) -> u8 {
        let ts = match self.timestamps {
            TsForm::Stream => 0,
            TsForm::Constant => MODE_CONST_DELTA,
            TsForm::Packed => MODE_PACKED_TS,
        };
        let values = match self.values {
            ValueForm::Stream => 0,
            ValueForm::Decimal => MODE_DECIMAL,
            ValueForm::Packed => MODE_PACKED_VALUES,
        };
        ts | values
    }

    fn of_modes(modes: u8) -> Result<Self> {
        let timestamps = match modes & (MODE_CONST_DELTA | MODE_PACKED_TS) {
            0 => Some(TsForm::Stream),
            MODE_CONST_DELTA => Some(TsForm::Constant),
            MODE_PACKED_TS => Some(TsForm::Packed),
            _ => None,
        };
        let values = match modes & (MODE_DECIMAL | MODE_PACKED_VALUES) {
            0 => Some(ValueForm::Stream),
            MODE_DECIMAL => Some(ValueForm::Decimal),
            MODE_PACKED_VALUES => Some(ValueForm::Packed),
            _ => None,
        };
        let known = MODE_CONST_DELTA | MODE_DECIMAL | MODE_PACKED_TS | MODE_PACKED_VALUES;
        match (timestamps, values) {
            (Some(timestamps), Some(values)) if modes & !known == 0 => {
                Ok(PageForms { timestamps, values })
            }
            _ => Err(TsFileError::Corrupt(format!(
                "unknown page modes {modes:#x}"
            ))),
        }
    }
}

/// Location and statistics of one page inside a chunk body.
#[derive(Debug, Clone, PartialEq)]
pub struct PageMeta {
    /// Byte offset of the page body relative to the chunk body start.
    /// Pages tile the body, so the footer stores no offset: a reader
    /// sums the lengths before it.
    pub offset: u64,
    /// Length of the page body in bytes (including its CRC).
    pub byte_len: u64,
    /// Precomputed FP/LP/BP/TP/count of this page.
    pub stats: PageStatistics,
}

impl PageMeta {
    /// The page's time interval `[FP.t, LP.t]`.
    #[inline]
    pub fn time_range(&self) -> TimeRange {
        self.stats.time_range()
    }

    /// Append the entry: its length, then its statistics against `prev`
    /// ([`ChunkStatistics::encode_after`]).
    pub(crate) fn encode(&self, prev: Point, same_chunk: bool, out: &mut Vec<u8>) {
        varint::write_u64(out, self.byte_len);
        self.stats.encode_after(prev, same_chunk, out);
    }

    /// Decode the entry of the page that starts `offset` bytes into its
    /// chunk body, coded against `prev`.
    pub(crate) fn decode(
        buf: &[u8],
        pos: &mut usize,
        offset: u64,
        prev: Point,
        same_chunk: bool,
    ) -> Result<Self> {
        let byte_len = varint::read_u64(buf, pos)?;
        let stats = PageStatistics::decode_after(buf, pos, prev, same_chunk)?;
        Ok(PageMeta {
            offset,
            byte_len,
            stats,
        })
    }
}

/// The page index of one chunk: column encodings plus the ordered
/// page list.
#[derive(Debug, Clone, PartialEq)]
pub struct PagedChunkInfo {
    /// Timestamp column encoding (shared by every page of the chunk).
    pub ts_encoding: EncodingKind,
    /// Value column encoding (shared by every page of the chunk).
    pub val_encoding: EncodingKind,
    /// Pages in time order (equivalently: ascending byte offset).
    pub pages: Vec<PageMeta>,
}

impl PagedChunkInfo {
    /// Indices of the pages whose time range overlaps `range`.
    /// Pages are time-ordered and disjoint, so the result is a
    /// contiguous index range.
    pub fn pages_overlapping(&self, range: TimeRange) -> std::ops::Range<usize> {
        let start = self.pages.partition_point(|p| p.stats.last.t < range.start);
        let end = self.pages.partition_point(|p| p.stats.first.t <= range.end);
        start..end.max(start)
    }

    /// The page whose time range contains `t`, if any. `None` means `t`
    /// falls in an inter-page gap (or outside the chunk entirely) — a
    /// metadata-only negative existence answer.
    pub fn page_containing(&self, t: i64) -> Option<u32> {
        let i = self.pages.partition_point(|p| p.stats.last.t < t);
        let page = self.pages.get(i)?;
        if page.stats.first.t <= t {
            cast::u32_checked(cast::u64_from_usize(i))
        } else {
            None
        }
    }

    /// Append the page index: both encoding tags in one byte (timestamps
    /// in the low nibble), the page count, then each page's entry coded
    /// against the one before it, starting from `prev` — the last point
    /// of the previous chunk in the file — which is left at this chunk's.
    pub(crate) fn encode(&self, prev: &mut Point, out: &mut Vec<u8>) {
        out.push((self.val_encoding as u8) << 4 | self.ts_encoding as u8);
        varint::write_u64(out, cast::u64_from_usize(self.pages.len()));
        for (i, p) in self.pages.iter().enumerate() {
            p.encode(*prev, i > 0, out);
            *prev = p.stats.last;
        }
    }

    /// Decode what [`Self::encode`] wrote from the same `prev`, which is
    /// left at this chunk's last point. Page offsets are the running sum
    /// of the page lengths.
    pub(crate) fn decode(buf: &[u8], pos: &mut usize, prev: &mut Point) -> Result<Self> {
        let tags = *buf.get(*pos).ok_or(TsFileError::UnexpectedEof {
            what: "page index encodings",
        })?;
        *pos += 1;
        let ts_encoding = EncodingKind::from_u8(tags & 0xf)?;
        let val_encoding = EncodingKind::from_u8(tags >> 4)?;
        let n = varint::read_u64(buf, pos)?;
        if n > cast::u64_from_usize(buf.len()) {
            // Each page meta takes well over one byte; a count larger
            // than the remaining body is certainly corrupt.
            return Err(TsFileError::Corrupt(format!("page index claims {n} pages")));
        }
        let n = cast::usize_checked(n)
            .ok_or_else(|| TsFileError::Corrupt("page count unaddressable".into()))?;
        let mut pages = Vec::with_capacity(n.min(buf.len()));
        let mut offset = 0u64;
        for i in 0..n {
            let page = PageMeta::decode(buf, pos, offset, *prev, i > 0)?;
            offset = offset
                .checked_add(page.byte_len)
                .ok_or_else(|| TsFileError::Corrupt("page extent overflows".into()))?;
            *prev = page.stats.last;
            pages.push(page);
        }
        Ok(PagedChunkInfo {
            ts_encoding,
            val_encoding,
            pages,
        })
    }

    /// Structural invariants of a decoded page index: there is a page,
    /// each holds at most [`MAX_PAGE_POINTS`], and pages are
    /// time-ordered and disjoint. Returns the byte length of the chunk
    /// body the pages tile, which is what the footer does not store.
    pub(crate) fn validate(&self) -> Result<u64> {
        let last = self
            .pages
            .last()
            .ok_or_else(|| TsFileError::Corrupt("paged chunk with no pages".into()))?;
        let mut prev_last: Option<i64> = None;
        for p in &self.pages {
            if p.stats.count > cast::u64_from_usize(MAX_PAGE_POINTS) {
                return Err(TsFileError::Corrupt(format!(
                    "page index claims {} points in one page",
                    p.stats.count
                )));
            }
            if let Some(last) = prev_last {
                if p.stats.first.t <= last {
                    return Err(TsFileError::Corrupt(format!(
                        "page time ranges overlap: {} after {last}",
                        p.stats.first.t
                    )));
                }
            }
            prev_last = Some(p.stats.last.t);
        }
        last.offset
            .checked_add(last.byte_len)
            .ok_or_else(|| TsFileError::Corrupt("page extent overflows".into()))
    }

    /// The chunk's statistics: its pages', folded in time order with
    /// [`ChunkStatistics::absorb_later`]. What a writer records and
    /// what a reader derives, so the footer does not store them.
    pub fn chunk_stats(&self) -> Result<ChunkStatistics> {
        let (first, rest) = self.pages.split_first().ok_or(TsFileError::EmptyChunk)?;
        let mut stats = first.stats;
        for p in rest {
            stats.absorb_later(&p.stats);
        }
        Ok(stats)
    }
}

/// Encode one page body (points must be non-empty and time-sorted;
/// callers enforce this at the chunk level). Appends to `out`.
pub fn encode_page(
    points: &[Point],
    ts_encoding: EncodingKind,
    val_encoding: EncodingKind,
    out: &mut Vec<u8>,
) {
    let ts: Vec<i64> = points.iter().map(|p| p.t).collect();
    let deltas = packed::deltas(&ts);
    let vs: Vec<f64> = points.iter().map(|p| p.v).collect();
    encode_page_columns(
        &ts,
        &deltas,
        &vs,
        ts_encoding,
        val_encoding,
        &mut ValueCarry::default(),
        out,
    );
}

/// What a writer carries from one page's value column to the next.
#[derive(Debug, Default)]
pub(crate) struct ValueCarry {
    /// The decimal pair the last plan chose ([`decimal::plan`]).
    pair: Option<Exponents>,
    /// The last planned page's stream beat its block, so the next page
    /// writes its stream first (a writer starts by trying the block).
    stream_first: bool,
    /// Scratch for the page's key deltas ([`packed::key_deltas`]).
    keys: Vec<i64>,
}

/// [`encode_page`] over a page already split into its two columns
/// (equal length) and its timestamps' deltas (`ts[i + 1] - ts[i]`) —
/// the writer splits a chunk once and hands each page its slices, and
/// carries `values` from page to page.
pub(crate) fn encode_page_columns(
    ts: &[i64],
    deltas: &[i64],
    vs: &[f64],
    ts_encoding: EncodingKind,
    val_encoding: EncodingKind,
    values: &mut ValueCarry,
    out: &mut Vec<u8>,
) {
    let start = out.len();
    varint::write_u64(out, cast::u64_from_usize(ts.len()));
    // Pooled column scratch: page encode runs once per page on every
    // flush/compaction; reusing the scratch keeps the write path free
    // of heap round-trips per page.
    let mut ts_bytes = bufpool::take(0);
    let timestamps = ts_column(ts, deltas, ts_encoding, &mut ts_bytes);
    let mut val_bytes = bufpool::take(0);
    let (value_form, val_col) = value_column(vs, val_encoding, values, &mut val_bytes);
    out.push(
        PageForms {
            timestamps,
            values: value_form,
        }
        .modes(),
    );
    varint::write_u64(out, cast::u64_from_usize(ts_bytes.len()));
    out.extend_from_slice(&ts_bytes);
    varint::write_u64(out, cast::u64_from_usize(val_col.len()));
    out.extend_from_slice(val_col);
    let crc = crc32(out.get(start..).unwrap_or(&[]));
    out.extend_from_slice(&crc.to_le_bytes());
}

/// A page's timestamp column, written to the empty `buf`: the constant
/// delta when there is one, else the smaller of the chunk's stream and
/// the packed deltas, ties to the stream. The packed size is exact
/// before a byte is written, so the stream is written only when a lower
/// bound on its size does not already lose.
fn ts_column(ts: &[i64], deltas: &[i64], ts_encoding: EncodingKind, buf: &mut Vec<u8>) -> TsForm {
    let first = ts.first().copied().unwrap_or(0);
    if let Some(delta) = constant_delta(deltas) {
        varint::write_i64(buf, first);
        varint::write_i64(buf, delta);
        return TsForm::Constant;
    }
    let packing = Packing::of(deltas);
    let packed = packed::timestamps_len(first, &packing);
    if packed >= encoding::timestamps_len_at_least(ts_encoding, ts) {
        encoding::encode_timestamps(ts_encoding, ts, buf);
        if buf.len() <= packed {
            return TsForm::Stream;
        }
        buf.clear();
    }
    packed::write_timestamps(first, deltas, &packing, buf);
    TsForm::Packed
}

/// A page's value column, as `(its form, its bytes in buf)`: the packed
/// key deltas when they are smaller than what the page would hold
/// without them, else that — the decimal block when the sample admits
/// one and it is smaller than the configured stream, else the stream.
/// Every tie goes to the form without packing, and between those to
/// the stream. The packed size is exact
/// before a byte is written, so a page with no decimal plan writes its
/// stream only when a lower bound on the stream does not already lose.
fn value_column<'a>(
    vs: &[f64],
    val_encoding: EncodingKind,
    carry: &mut ValueCarry,
    buf: &'a mut Vec<u8>,
) -> (ValueForm, &'a [u8]) {
    packed::key_deltas(vs, &mut carry.keys);
    let packing = Packing::of(&carry.keys);
    let packed = packed::values_len(&packing);
    // What the page would hold without the packed form, unless a lower
    // bound on it already loses.
    let without = match decimal::plan(vs, &mut carry.pair) {
        Some(plan) => Some(block_or_stream(vs, val_encoding, plan, carry, buf)),
        None if packed < encoding::values_len_at_least(val_encoding, vs) => None,
        None => {
            encoding::encode_values(val_encoding, vs, buf);
            Some((ValueForm::Stream, 0..buf.len()))
        }
    };
    match without {
        Some((form, range)) if range.len() <= packed => (form, buf.get(range).unwrap_or(&[])),
        _ => {
            buf.clear();
            let first = vs.first().copied().unwrap_or(0.0);
            packed::write_values(first, &carry.keys, &packing, buf);
            (ValueForm::Packed, buf)
        }
    }
}

/// The decimal block `plan` describes when it is smaller than the
/// configured stream, else the stream (ties go to the stream), as
/// `(form, range of its bytes in buf)`. The one likelier to win is
/// written first, and the other only while it can still win: a block
/// below a lower bound on the stream's size needs no stream, and a
/// stream no larger than the block's sampled estimate needs no block.
fn block_or_stream(
    vs: &[f64],
    val_encoding: EncodingKind,
    plan: decimal::Plan,
    carry: &mut ValueCarry,
    buf: &mut Vec<u8>,
) -> (ValueForm, std::ops::Range<usize>) {
    // Block first only after a block won and while the sample's
    // estimate is below a lower bound on the stream.
    let floor = (!carry.stream_first).then(|| encoding::values_len_at_least(val_encoding, vs));
    let (is_block, range) = match floor {
        Some(floor) if plan.estimate() < floor && decimal::encode(vs, &plan, buf) => {
            let block = buf.len();
            if block < floor {
                (true, 0..block)
            } else {
                encoding::encode_values(val_encoding, vs, buf);
                match block < buf.len() - block {
                    true => (true, 0..block),
                    false => (false, block..buf.len()),
                }
            }
        }
        _ => {
            encoding::encode_values(val_encoding, vs, buf);
            let stream = buf.len();
            let wins = plan.estimate() < stream
                && decimal::encode(vs, &plan, buf)
                && buf.len() - stream < stream;
            match wins {
                true => (true, stream..buf.len()),
                false => (false, 0..stream),
            }
        }
    };
    carry.stream_first = !is_block;
    let form = match is_block {
        true => ValueForm::Decimal,
        false => ValueForm::Stream,
    };
    (form, range)
}

/// `Some(delta)` when every delta is that one (trivially true for a
/// single timestamp, whose delta is 0).
fn constant_delta(deltas: &[i64]) -> Option<i64> {
    let Some((&delta, rest)) = deltas.split_first() else {
        return Some(0);
    };
    rest.iter().all(|&d| d == delta).then_some(delta)
}

/// Split a CRC-carrying page body into `(payload, expected_crc)`,
/// verifying the checksum.
fn checked_payload<'a>(body: &'a [u8], what: &'static str) -> Result<&'a [u8]> {
    if body.len() < 4 {
        return Err(TsFileError::UnexpectedEof { what });
    }
    let (payload, crc_bytes) = body.split_at(body.len() - 4);
    let mut arr = [0u8; 4];
    for (dst, src) in arr.iter_mut().zip(crc_bytes) {
        *dst = *src;
    }
    let expected = u32::from_le_bytes(arr);
    let actual = crc32(payload);
    if actual != expected {
        return Err(TsFileError::ChecksumMismatch {
            expected,
            actual,
            what,
        });
    }
    Ok(payload)
}

/// Verify a raw page body without decoding it: checksum over the
/// payload, the header point count against the page index entry, and
/// the structure of a bit-packed column (a decimal block or packed
/// deltas). This is the integrity gate for byte-for-byte page copies —
/// the compactor revalidates every page it moves verbatim, whatever its
/// forms, so silent corruption can never be propagated into a new file.
pub fn verify_page_body(body: &[u8], meta: &PageMeta) -> Result<()> {
    let cols = open_page(body, meta)?;
    if cols.forms.timestamps == TsForm::Packed {
        packed::verify_timestamps(cols.ts_col, cols.n)?;
    }
    match cols.forms.values {
        ValueForm::Stream => Ok(()),
        ValueForm::Decimal => decimal::verify(cols.val_col, cols.n),
        ValueForm::Packed => packed::verify_values(cols.val_col, cols.n),
    }
}

/// How a page stores its two columns. Verifies the page CRC; no column
/// is decoded.
pub fn forms(body: &[u8]) -> Result<PageForms> {
    Ok(split_page(checked_payload(body, "page body")?)?.forms)
}

/// How a page's decimal block frames its integers, from the block's
/// header (`None` for a page whose values are not a decimal block).
/// Verifies the page CRC; no column is decoded.
pub fn decimal_framing(body: &[u8]) -> Result<Option<decimal::Framing>> {
    let cols = split_page(checked_payload(body, "page body")?)?;
    match cols.forms.values {
        ValueForm::Decimal => decimal::framing(cols.val_col).map(Some),
        ValueForm::Stream | ValueForm::Packed => Ok(None),
    }
}

/// Parsed page header: count, forms, and the two column slices.
struct PageColumns<'a> {
    n: usize,
    forms: PageForms,
    ts_col: &'a [u8],
    val_col: &'a [u8],
}

fn split_page(payload: &[u8]) -> Result<PageColumns<'_>> {
    let mut pos = 0usize;
    let n = varint::read_u64(payload, &mut pos)?;
    let n = cast::usize_checked(n)
        .filter(|&n| n <= MAX_PAGE_POINTS)
        .ok_or_else(|| {
            TsFileError::Corrupt(format!(
                "page claims {n} points, above the {MAX_PAGE_POINTS}-point ceiling"
            ))
        })?;
    let modes = *payload
        .get(pos)
        .ok_or(TsFileError::UnexpectedEof { what: "page modes" })?;
    let forms = PageForms::of_modes(modes)?;
    pos += 1;
    let ts_len = cast::usize_checked(varint::read_u64(payload, &mut pos)?)
        .ok_or_else(|| TsFileError::Corrupt("page ts length unaddressable".into()))?;
    let ts_end = pos
        .checked_add(ts_len)
        .filter(|&e| e <= payload.len())
        .ok_or(TsFileError::UnexpectedEof {
            what: "page timestamp column",
        })?;
    let ts_col = payload.get(pos..ts_end).ok_or(TsFileError::UnexpectedEof {
        what: "page timestamp column",
    })?;
    pos = ts_end;
    let val_len = cast::usize_checked(varint::read_u64(payload, &mut pos)?)
        .ok_or_else(|| TsFileError::Corrupt("page val length unaddressable".into()))?;
    let val_end = pos
        .checked_add(val_len)
        .filter(|&e| e <= payload.len())
        .ok_or(TsFileError::UnexpectedEof {
            what: "page value column",
        })?;
    let val_col = payload
        .get(pos..val_end)
        .ok_or(TsFileError::UnexpectedEof {
            what: "page value column",
        })?;
    Ok(PageColumns {
        n,
        forms,
        ts_col,
        val_col,
    })
}

/// Check a page body's CRC, split it, and match its point count against
/// the page index entry.
fn open_page<'a>(body: &'a [u8], meta: &PageMeta) -> Result<PageColumns<'a>> {
    let cols = split_page(checked_payload(body, "page body")?)?;
    if cast::u64_from_usize(cols.n) != meta.stats.count {
        return Err(TsFileError::Corrupt(format!(
            "page body holds {} points but page index says {}",
            cols.n, meta.stats.count
        )));
    }
    Ok(cols)
}

/// Decode the timestamp column of an already-split page.
fn decode_ts_column(
    cols: &PageColumns<'_>,
    ts_encoding: EncodingKind,
    until: Option<i64>,
) -> Result<Vec<i64>> {
    match (cols.forms.timestamps, ts_encoding, until) {
        (TsForm::Constant, ..) => {
            let mut pos = 0usize;
            let first = varint::read_i64(cols.ts_col, &mut pos)?;
            let delta = varint::read_i64(cols.ts_col, &mut pos)?;
            let mut out = Vec::with_capacity(cols.n);
            let mut cur = first;
            for i in 0..cols.n {
                if i > 0 {
                    cur = cur.wrapping_add(delta);
                }
                out.push(cur);
                if until.is_some_and(|limit| cur > limit) {
                    break;
                }
            }
            Ok(out)
        }
        (TsForm::Packed, ..) => packed::decode_timestamps(cols.ts_col, cols.n, until),
        (TsForm::Stream, EncodingKind::Plain, _) => {
            encoding::plain::decode_i64(cols.ts_col, cols.n)
        }
        (TsForm::Stream, _, Some(limit)) => {
            encoding::ts2diff::decode_until(cols.ts_col, cols.n, limit)
        }
        (TsForm::Stream, _, None) => encoding::ts2diff::decode(cols.ts_col, cols.n),
    }
}

/// Decode one page body into points, verifying its CRC and that the
/// decoded count matches the page index entry.
pub fn decode_page(
    body: &[u8],
    ts_encoding: EncodingKind,
    val_encoding: EncodingKind,
    meta: &PageMeta,
) -> Result<Vec<Point>> {
    crate::lockcheck::check_io();
    let cols = open_page(body, meta)?;
    let ts = decode_ts_column(&cols, ts_encoding, None)?;
    let vs = match cols.forms.values {
        ValueForm::Stream => encoding::decode_values(val_encoding, cols.val_col, cols.n)?,
        ValueForm::Decimal => decimal::decode(cols.val_col, cols.n)?,
        ValueForm::Packed => packed::decode_values(cols.val_col, cols.n)?,
    };
    if ts.len() != cols.n || vs.len() != cols.n {
        return Err(TsFileError::Corrupt(format!(
            "page decoded {} timestamps / {} values, expected {}",
            ts.len(),
            vs.len(),
            cols.n
        )));
    }
    Ok(ts
        .into_iter()
        .zip(vs)
        .map(|(t, v)| Point::new(t, v))
        .collect())
}

/// Decode only a page's timestamp column, optionally stopping once past
/// `until` (the crossing value is included, mirroring the chunk-level
/// partial scan). Verifies the page CRC.
pub fn decode_page_timestamps(
    body: &[u8],
    ts_encoding: EncodingKind,
    meta: &PageMeta,
    until: Option<i64>,
) -> Result<Vec<i64>> {
    crate::lockcheck::check_io();
    let cols = open_page(body, meta)?;
    decode_ts_column(&cols, ts_encoding, until)
}

#[cfg(test)]
mod tests {
    // The module-level deny is for the parsing code above; tests
    // assert by panicking.
    #![allow(clippy::indexing_slicing)]

    use super::*;

    fn pts(n: i64, step: i64) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(i * step, (i % 13) as f64))
            .collect()
    }

    fn page_meta(points: &[Point], offset: u64, byte_len: u64) -> Result<PageMeta> {
        Ok(PageMeta {
            offset,
            byte_len,
            stats: PageStatistics::from_points(points)?,
        })
    }

    #[test]
    fn page_roundtrip_regular_and_irregular() -> Result<()> {
        for points in [pts(100, 7), {
            let mut p = pts(100, 7);
            if let Some(last) = p.last_mut() {
                last.t += 3; // break the constant delta
            }
            p
        }] {
            let mut body = Vec::new();
            encode_page(
                &points,
                EncodingKind::Ts2Diff,
                EncodingKind::Gorilla,
                &mut body,
            );
            let meta = page_meta(&points, 0, body.len() as u64)?;
            let back = decode_page(&body, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta)?;
            assert_eq!(back, points);
        }
        Ok(())
    }

    #[test]
    fn constant_delta_page_is_tiny() -> Result<()> {
        let points = pts(1000, 50);
        let mut body = Vec::new();
        encode_page(
            &points,
            EncodingKind::Ts2Diff,
            EncodingKind::Gorilla,
            &mut body,
        );
        // Same values, same timestamps except one: breaking the constant
        // delta packs the deltas with one exception (a dozen bytes), so
        // the regular page is smaller still (two varints), and both are
        // far below the per-point stream (~1 byte/point).
        let mut irregular = points.clone();
        if let Some(last) = irregular.last_mut() {
            last.t += 1;
        }
        let mut packed_body = Vec::new();
        encode_page(
            &irregular,
            EncodingKind::Ts2Diff,
            EncodingKind::Gorilla,
            &mut packed_body,
        );
        assert_eq!(forms(&body)?.timestamps, TsForm::Constant);
        assert_eq!(forms(&packed_body)?.timestamps, TsForm::Packed);
        let mut stream = Vec::new();
        let ts: Vec<i64> = irregular.iter().map(|p| p.t).collect();
        encoding::ts2diff::encode(&ts, &mut stream);
        assert!(
            body.len() < packed_body.len() && packed_body.len() + 900 < body.len() + stream.len(),
            "constant {} vs packed {} bytes, a {}-byte stream",
            body.len(),
            packed_body.len(),
            stream.len()
        );
        let meta = page_meta(&points, 0, body.len() as u64)?;
        let back = decode_page(&body, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta)?;
        assert_eq!(back, points);
        let ts = decode_page_timestamps(&body, EncodingKind::Ts2Diff, &meta, None)?;
        assert!(ts.iter().zip(&points).all(|(t, p)| *t == p.t));
        Ok(())
    }

    #[test]
    fn singleton_page_roundtrip() -> Result<()> {
        let points = vec![Point::new(42, 6.5)];
        let mut body = Vec::new();
        encode_page(
            &points,
            EncodingKind::Ts2Diff,
            EncodingKind::Gorilla,
            &mut body,
        );
        let meta = page_meta(&points, 0, body.len() as u64)?;
        assert_eq!(
            decode_page(&body, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta)?,
            points
        );
        Ok(())
    }

    #[test]
    fn page_crc_detects_flip() -> Result<()> {
        let points = pts(50, 10);
        let mut body = Vec::new();
        encode_page(
            &points,
            EncodingKind::Ts2Diff,
            EncodingKind::Gorilla,
            &mut body,
        );
        let meta = page_meta(&points, 0, body.len() as u64)?;
        let mid = body.len() / 2;
        if let Some(b) = body.get_mut(mid) {
            *b ^= 0x10;
        }
        assert!(matches!(
            decode_page(&body, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta),
            Err(TsFileError::ChecksumMismatch { .. })
        ));
        Ok(())
    }

    #[test]
    fn verify_page_body_checks_crc_and_count() -> Result<()> {
        let points = pts(80, 5);
        let mut body = Vec::new();
        encode_page(
            &points,
            EncodingKind::Ts2Diff,
            EncodingKind::Gorilla,
            &mut body,
        );
        let meta = page_meta(&points, 0, body.len() as u64)?;
        verify_page_body(&body, &meta)?;
        // Count mismatch against the index entry.
        let mut wrong = meta.clone();
        wrong.stats.count += 1;
        assert!(verify_page_body(&body, &wrong).is_err());
        // Flipped byte breaks the CRC.
        let mut flipped = body.clone();
        if let Some(b) = flipped.get_mut(10) {
            *b ^= 0x40;
        }
        assert!(matches!(
            verify_page_body(&flipped, &meta),
            Err(TsFileError::ChecksumMismatch { .. })
        ));
        Ok(())
    }

    #[test]
    fn timestamps_until_stops_early_in_const_delta() -> Result<()> {
        let points = pts(1000, 10);
        let mut body = Vec::new();
        encode_page(
            &points,
            EncodingKind::Ts2Diff,
            EncodingKind::Gorilla,
            &mut body,
        );
        let meta = page_meta(&points, 0, body.len() as u64)?;
        let some = decode_page_timestamps(&body, EncodingKind::Ts2Diff, &meta, Some(205))?;
        assert_eq!(some.last().copied(), Some(210));
        assert_eq!(some.len(), 22);
        Ok(())
    }

    #[test]
    fn pages_overlapping_selects_contiguous_window() -> Result<()> {
        let chunks: Vec<Vec<Point>> = vec![
            pts(10, 10),
            pts(10, 10)
                .iter()
                .map(|p| Point::new(p.t + 200, p.v))
                .collect(),
        ];
        let mut info = PagedChunkInfo {
            ts_encoding: EncodingKind::Ts2Diff,
            val_encoding: EncodingKind::Gorilla,
            pages: Vec::new(),
        };
        let mut offset = 0u64;
        for c in &chunks {
            let mut body = Vec::new();
            encode_page(c, info.ts_encoding, info.val_encoding, &mut body);
            info.pages.push(page_meta(c, offset, body.len() as u64)?);
            offset += body.len() as u64;
        }
        // Page 0 covers [0, 90], page 1 covers [200, 290].
        assert_eq!(info.pages_overlapping(TimeRange::new(0, 90)), 0..1);
        assert_eq!(info.pages_overlapping(TimeRange::new(95, 150)), 1..1);
        assert_eq!(info.pages_overlapping(TimeRange::new(50, 250)), 0..2);
        assert_eq!(info.pages_overlapping(TimeRange::new(300, 400)), 2..2);
        assert_eq!(info.page_containing(45), Some(0));
        assert_eq!(info.page_containing(150), None);
        assert_eq!(info.page_containing(200), Some(1));
        assert_eq!(info.page_containing(-5), None);
        assert_eq!(info.page_containing(291), None);
        Ok(())
    }

    #[test]
    fn validate_rejects_bad_tiling_counts_and_order() -> Result<()> {
        let points = pts(20, 5);
        let mut body = Vec::new();
        encode_page(
            &points,
            EncodingKind::Ts2Diff,
            EncodingKind::Gorilla,
            &mut body,
        );
        let len = body.len() as u64;
        let good = PagedChunkInfo {
            ts_encoding: EncodingKind::Ts2Diff,
            val_encoding: EncodingKind::Gorilla,
            pages: vec![page_meta(&points, 0, len)?],
        };
        assert_eq!(good.validate()?, len, "the pages tile the body");
        let mut past_end = good.clone();
        past_end.pages[0].offset = u64::MAX;
        assert!(past_end.validate().is_err(), "a page past u64::MAX");
        let mut huge = good.clone();
        huge.pages[0].stats.count = MAX_PAGE_POINTS as u64 + 1;
        assert!(huge.validate().is_err(), "page above the ceiling");
        let mut twice = good.clone();
        twice.pages.push(page_meta(&points, len, len)?);
        assert!(twice.validate().is_err(), "pages overlap in time");
        let empty = PagedChunkInfo {
            pages: Vec::new(),
            ..good
        };
        assert!(empty.validate().is_err());
        Ok(())
    }

    /// A page of few-decimal values stores them as a decimal block, a
    /// page of a full-precision walk as packed key deltas, and a page of
    /// values flipping sign keeps the XOR stream; jittered timestamps
    /// pack. Each decodes bit-exactly and passes the copy gate.
    #[test]
    fn value_mode_is_chosen_from_the_page() -> Result<()> {
        let decimal: Vec<Point> = (0..500)
            .map(|i| Point::new(i * 10, ((i * 7919) % 300) as f64 / 100.0 + 20.0))
            .collect();
        let walk: Vec<Point> = (0..500)
            .map(|i| Point::new(i * 10 + i % 3, 225.0 + (i as f64 * 0.01).sin()))
            .collect();
        // XOR spends three bits on a sign flip; its key delta spans 64.
        let flips: Vec<Point> = (0..500)
            .map(|i| {
                let pi = std::f64::consts::PI;
                Point::new(i * 10, if i % 2 == 0 { pi } else { -pi })
            })
            .collect();
        for (points, ts, values) in [
            (decimal, TsForm::Constant, ValueForm::Decimal),
            (walk, TsForm::Packed, ValueForm::Packed),
            (flips, TsForm::Constant, ValueForm::Stream),
        ] {
            let mut body = Vec::new();
            encode_page(
                &points,
                EncodingKind::Ts2Diff,
                EncodingKind::Gorilla,
                &mut body,
            );
            let want = PageForms {
                timestamps: ts,
                values,
            };
            assert_eq!(forms(&body)?, want);
            let meta = page_meta(&points, 0, body.len() as u64)?;
            verify_page_body(&body, &meta)?;
            let back = decode_page(&body, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta)?;
            let bits = |p: &[Point]| p.iter().map(|p| (p.t, p.v.to_bits())).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&points));
        }
        Ok(())
    }

    /// Two pages round-trip, offsets derived; the index leaves `prev` at
    /// the chunk's last point, where the next chunk's index starts; and
    /// the two encodings share one byte.
    #[test]
    fn info_encode_decode_roundtrip() -> Result<()> {
        let points = pts(30, 3);
        let mut info = PagedChunkInfo {
            ts_encoding: EncodingKind::Plain,
            val_encoding: EncodingKind::Gorilla,
            pages: Vec::new(),
        };
        let mut offset = 0;
        for slice in points.chunks(20) {
            let mut body = Vec::new();
            encode_page(slice, info.ts_encoding, info.val_encoding, &mut body);
            info.pages
                .push(page_meta(slice, offset, body.len() as u64)?);
            offset += body.len() as u64;
        }
        let start = Point::new(-40, 1.5);
        let mut buf = Vec::new();
        let mut written = start;
        info.encode(&mut written, &mut buf);
        assert_eq!(buf[0], 0x20, "Gorilla values over plain timestamps");
        let (mut pos, mut read) = (0usize, start);
        assert_eq!(PagedChunkInfo::decode(&buf, &mut pos, &mut read)?, info);
        assert_eq!(pos, buf.len());
        assert_eq!((written, read), (points[29], points[29]));
        Ok(())
    }

    #[test]
    fn decode_rejects_absurd_page_count() {
        let mut buf = vec![(EncodingKind::Gorilla as u8) << 4 | EncodingKind::Ts2Diff as u8];
        varint::write_u64(&mut buf, u64::MAX);
        let mut pos = 0usize;
        let got = PagedChunkInfo::decode(&buf, &mut pos, &mut Point::new(0, 0.0));
        assert!(matches!(got, Err(TsFileError::Corrupt(_))), "{got:?}");
    }
}
