//! Page bodies: the encoded form of one chunk.
//!
//! A chunk body is exactly one **page**: an independently decodable
//! unit with its own CRC, whose statistics are the chunk's, recorded in
//! the footer. The paper runs IoTDB with `page_size_in_byte` at 1 GiB,
//! so each of its chunks is one page too; a narrow query decodes fewer
//! points by reading smaller chunks, not pages within one.
//!
//! ```text
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
//! The column encodings themselves live in the footer's chunk entry
//! ([`crate::ChunkMeta`], CRC-protected there), so a chunk body has no
//! unprotected header bytes.

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

/// A page size for callers that slice points into pages themselves
/// (microbenchmarks of the page kernels).
pub const DEFAULT_PAGE_POINTS: usize = 1024;

/// The most points one page may hold. A constant-delta timestamp column
/// or an equal-valued decimal block is a few bytes for any count, so
/// the bytes of a page do not bound what decoding it allocates; this
/// does. The writer refuses a chunk of more points, and a page or
/// footer entry claiming more is `Corrupt`.
pub const MAX_PAGE_POINTS: usize = 1 << 20;

/// A page's statistics are its chunk's (FP/LP/BP/TP/count).
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

/// Location and statistics of one page: what decoding checks a page
/// body against. A chunk's is [`crate::ChunkMeta::page`].
#[derive(Debug, Clone, PartialEq)]
pub struct PageMeta {
    /// Byte offset of the page body relative to the chunk body start
    /// (0: a chunk body is one page).
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

/// What a writer carries from one page's value column to the next —
/// from one chunk to the next of the file it writes.
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
/// the writer splits a chunk once into its columns, and carries
/// `values` from chunk to chunk.
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
/// payload, the header point count against the footer entry, and
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
/// the footer entry.
fn open_page<'a>(body: &'a [u8], meta: &PageMeta) -> Result<PageColumns<'a>> {
    let cols = split_page(checked_payload(body, "page body")?)?;
    if cast::u64_from_usize(cols.n) != meta.stats.count {
        return Err(TsFileError::Corrupt(format!(
            "page body holds {} points but the footer says {}",
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
/// decoded count matches the footer entry.
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
}
