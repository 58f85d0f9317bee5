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
//!   u8     modes: timestamps  bit 0 constant delta, bit 2 packed deltas
//!                 values      bit 1 decimal block, bit 3 packed deltas,
//!                             bit 4 implied (no bytes)
//!                 (one bit of each column; neither, two bits of a
//!                 column, or any higher bit: Corrupt)
//!   varint len(ts_bytes)   ts_bytes    (neither when the timestamps
//!                                       are a constant delta)
//!   val_bytes                          (the rest, up to the CRC)
//!   u32    crc32 of everything above (LE)
//! bodiless page (constant delta, implied values): no byte at all
//! ```
//!
//! A page stores nothing its chunk's statistics hold ([`PageMeta`]:
//! FP/LP/BP/TP and the count, CRC-protected in the footer, handed to
//! every decoder). The point count is the footer's. A constant-delta
//! timestamp column is no bytes at all: `t_i = FP.t + i·Δ` with
//! `Δ = (LP.t − FP.t)/(n − 1)`, so the form is written only when that
//! division is exact and `LP.t − FP.t` does not overflow, and a footer
//! whose statistics do not split into `n − 1` equal steps makes such a
//! page `Corrupt`. A packed column ([`packed`]) is its block
//! of deltas alone: its head is FP (`FP.v` bit-exact) and its running
//! sum must land on LP. A packed timestamp column may instead hold its
//! residuals from a least-squares cadence line (the line frame, flagged
//! in its width byte, [`ts_framing`]), whose last point must be LP. The
//! value column runs to the CRC, so the body's own length (the footer's)
//! bounds it. Implied values are no bytes: FP.v repeated, or a decimal
//! ramp to LP.v ([`decimal::implied`]), taken only where every value has
//! those bits; a reader re-derives them, `Corrupt` where the entry
//! implies none or BP or TP is not an end point.
//!
//! Both forms ([`PageForms`]) are chosen per page from the page's own
//! columns, by exact size, never by a setting; the packed forms take
//! any column, so every page has one. The constant-delta
//! timestamp form: sensor timestamps are mostly regular (the paper's
//! §3.5 step observation), so a page whose deltas are all equal is
//! reconstructed arithmetically from its statistics — no per-point
//! varint decode. The decimal value form ([`decimal`]): a page
//! whose values have few decimals stores them as scaled, bit-packed
//! integers — framed from their minimum; or, on a page with no
//! exception where it is smaller, as the first integer and the deltas
//! after it (a counter or a ramp, at a few bits a value or none); or,
//! where smaller, around their trend line (a register that drifts while
//! it jitters); the block's header says which, so to this layer, to
//! compaction and to the inspector all three are one form. A sample of
//! the page chooses the block's scale and turns a full-precision page
//! away; it sizes nothing. The packed forms: the deltas of a
//! column — of the timestamps, or of the values' order-preserving
//! integer keys — bit-packed at one width with the outliers listed
//! apart; full-precision walks take it, and so do jittered timestamps,
//! as their residuals from their cadence line where that is strictly
//! smaller than their deltas. The packed value column is written only
//! when it is strictly smaller, sized exactly, than the decimal block;
//! where the sample admits no block, the values pack. The modes byte
//! sits under the page's CRC, so a chunk body has no unprotected header
//! bytes.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]

use crate::bufpool;
use crate::checksum::crc32;
use crate::encoding::decimal::{self, Exponents};
use crate::encoding::packed::{self, Framing, Packing, TsPacking};
use crate::encoding::EncodingKind;
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
/// arithmetically from the statistics.
const MODE_CONST_DELTA: u8 = 1;
/// Mode bit: the values are a decimal block.
const MODE_DECIMAL: u8 = 2;
/// Mode bit: the timestamps are packed deltas.
const MODE_PACKED_TS: u8 = 4;
/// Mode bit: the values are packed key deltas.
const MODE_PACKED_VALUES: u8 = 8;
/// Mode bit: the values are no bytes, implied by the statistics.
const MODE_IMPLIED_VALUES: u8 = 16;

/// How a page stores its timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsForm {
    /// No bytes: `FP.t + i·Δ`, `Δ` the statistics' span over `n − 1`.
    Constant,
    /// Bit-packed deltas from FP.t ([`packed`]).
    Packed,
}

/// How a page stores its values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueForm {
    /// A decimal block ([`decimal`]), in any of its frames
    /// ([`decimal_framing`]).
    Decimal,
    /// Bit-packed key deltas from FP.v ([`packed`]).
    Packed,
    /// No bytes: what FP.v and LP.v imply ([`decimal::implied`]).
    Implied,
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
            TsForm::Constant => MODE_CONST_DELTA,
            TsForm::Packed => MODE_PACKED_TS,
        };
        let values = match self.values {
            ValueForm::Decimal => MODE_DECIMAL,
            ValueForm::Packed => MODE_PACKED_VALUES,
            ValueForm::Implied => MODE_IMPLIED_VALUES,
        };
        ts | values
    }

    fn of_modes(modes: u8) -> Result<Self> {
        let timestamps = match modes & (MODE_CONST_DELTA | MODE_PACKED_TS) {
            MODE_CONST_DELTA => Some(TsForm::Constant),
            MODE_PACKED_TS => Some(TsForm::Packed),
            _ => None,
        };
        let values = match modes & (MODE_DECIMAL | MODE_PACKED_VALUES | MODE_IMPLIED_VALUES) {
            MODE_DECIMAL => Some(ValueForm::Decimal),
            MODE_PACKED_VALUES => Some(ValueForm::Packed),
            MODE_IMPLIED_VALUES => Some(ValueForm::Implied),
            _ => None,
        };
        match (timestamps, values) {
            (Some(timestamps), Some(values)) if modes < 2 * MODE_IMPLIED_VALUES => {
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
/// callers enforce this at the chunk level). Appends to `out`. The two
/// encodings are inert ([`EncodingKind`]).
pub fn encode_page(
    points: &[Point],
    _ts_encoding: EncodingKind,
    _val_encoding: EncodingKind,
    out: &mut Vec<u8>,
) {
    let ts: Vec<i64> = points.iter().map(|p| p.t).collect();
    let deltas = packed::deltas(&ts);
    let vs: Vec<f64> = points.iter().map(|p| p.v).collect();
    encode_page_columns(&ts, &deltas, &vs, &mut ValueCarry::default(), out);
}

/// What a writer carries from one page's value column to the next —
/// from one chunk to the next of the file it writes.
#[derive(Debug, Default)]
pub(crate) struct ValueCarry {
    /// The decimal pair the last plan chose ([`decimal::plan`]).
    pair: Option<Exponents>,
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
    values: &mut ValueCarry,
    out: &mut Vec<u8>,
) {
    let start = out.len();
    // Pooled column scratch: page encode runs once per page on every
    // flush/compaction; reusing the scratch keeps the write path free
    // of heap round-trips per page.
    let mut ts_bytes = bufpool::take(0);
    let timestamps = ts_column(ts, deltas, &mut ts_bytes);
    let mut val_bytes = bufpool::take(0);
    let (value_form, val_col) = value_column(vs, values, &mut val_bytes);
    if timestamps == TsForm::Constant && value_form == ValueForm::Implied {
        return; // bodiless: the footer entry holds it all
    }
    out.push(
        PageForms {
            timestamps,
            values: value_form,
        }
        .modes(),
    );
    if timestamps != TsForm::Constant {
        varint::write_u64(out, cast::u64_from_usize(ts_bytes.len()));
        out.extend_from_slice(&ts_bytes);
    }
    out.extend_from_slice(val_col);
    let crc = crc32(out.get(start..).unwrap_or(&[]));
    out.extend_from_slice(&crc.to_le_bytes());
}

/// A page's timestamp column, written to the empty `buf`: nothing when
/// the deltas are one constant the statistics give back, else the
/// packed column (the smaller of its delta and line frames).
fn ts_column(ts: &[i64], deltas: &[i64], buf: &mut Vec<u8>) -> TsForm {
    let (first, last) = (ts.first().copied(), ts.last().copied());
    let derived = first
        .zip(last)
        .and_then(|(f, l)| derived_delta(f, l, ts.len()));
    if derived.is_some() && derived == constant_delta(deltas) {
        return TsForm::Constant;
    }
    TsPacking::of(ts, deltas).write(deltas, buf);
    TsForm::Packed
}

/// A page's value column, as `(its form, its bytes in buf)`: none where
/// its ends imply it, else the decimal block when the sample admits a
/// pair and the block is no larger than the packed key deltas, else
/// those. Both sizes are exact; the key deltas are sized only when the
/// block is above their floor ([`Packing::floor`]).
fn value_column<'a>(
    vs: &[f64],
    carry: &mut ValueCarry,
    buf: &'a mut Vec<u8>,
) -> (ValueForm, &'a [u8]) {
    // Planned on every page, so the carried pair is as without the form.
    let pair = decimal::plan(vs, &mut carry.pair);
    let ends = vs.first().zip(vs.last());
    let line = ends.and_then(|(&first, &last)| decimal::implied(first, last, vs.len()));
    let bits = vs.iter().map(|v| v.to_bits());
    if line.is_some_and(|line| bits.eq((0..vs.len()).map(|i| line(i).to_bits()))) {
        return (ValueForm::Implied, buf);
    }
    packed::key_deltas(vs, &mut carry.keys);
    let block = pair.is_some_and(|pair| decimal::encode(vs, pair, buf));
    // A block no larger than the packed column's floor keeps the page
    // (a tie goes to it) without sizing the packed column.
    if block && buf.len() <= Packing::floor(&carry.keys) {
        return (ValueForm::Decimal, buf);
    }
    let packing = Packing::of(&carry.keys);
    if block && buf.len() <= packing.len() {
        return (ValueForm::Decimal, buf);
    }
    buf.clear();
    packing.write(&carry.keys, buf);
    (ValueForm::Packed, buf)
}

/// `Some(delta)` when every delta is that one (trivially true for a
/// single timestamp, whose delta is 0).
fn constant_delta(deltas: &[i64]) -> Option<i64> {
    let Some((&delta, rest)) = deltas.split_first() else {
        return Some(0);
    };
    rest.iter().all(|&d| d == delta).then_some(delta)
}

/// The step `Δ` of `n` timestamps from `first` to `last` in equal
/// steps: `(last − first)/(n − 1)` when that span fits an `i64` and
/// divides exactly (0 for one point at `first == last`), else `None`.
/// Then every `first + i·Δ`, `i < n`, lies between the two, so building
/// the column cannot overflow.
fn derived_delta(first: i64, last: i64, n: usize) -> Option<i64> {
    let span = last.checked_sub(first)?;
    match i64::try_from(n.checked_sub(1)?).ok()? {
        0 => (span == 0).then_some(0),
        steps => (span % steps == 0).then(|| span / steps),
    }
}

/// Split a CRC-carrying page body into `(payload, expected_crc)`,
/// verifying the checksum.
fn checked_payload<'a>(body: &'a [u8], what: &'static str) -> Result<&'a [u8]> {
    if body.len() < 4 {
        return Err(TsFileError::UnexpectedEof { what });
    }
    let (payload, crc_bytes) = body.split_at(body.len() - 4);
    let expected = u32::from_le_bytes(crc_bytes.try_into().unwrap_or_default());
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

/// Verify a raw page body against its footer entry without decoding a
/// column: checksum over the payload, the point count under the
/// ceiling, statistics that split into equal steps for a constant-delta
/// column, the structure of a decimal block, and a packed column's
/// deltas running from the statistics' FP to their LP. This is the
/// integrity gate for byte-for-byte page copies — the compactor
/// revalidates every page it moves verbatim, whatever its forms, so
/// silent corruption can never be propagated into a new file.
pub fn verify_page_body(body: &[u8], meta: &PageMeta) -> Result<()> {
    let (cols, n) = open_page(body, meta)?;
    let stats = &meta.stats;
    match cols.forms.timestamps {
        TsForm::Constant => constant_step(stats, n).map(drop)?,
        TsForm::Packed => {
            packed::verify_page_timestamps(cols.ts_col, n, (stats.first.t, stats.last.t))?;
        }
    }
    match cols.forms.values {
        ValueForm::Decimal => decimal::verify(cols.val_col, n, Some((stats.first.v, stats.last.v))),
        ValueForm::Packed => {
            packed::verify_page_values(cols.val_col, n, (stats.first.v, stats.last.v))
        }
        ValueForm::Implied => Ok(()),
    }
}

/// How a page stores its two columns. Verifies the page CRC; no column
/// is decoded.
pub fn forms(body: &[u8]) -> Result<PageForms> {
    Ok(page_columns(body)?.forms)
}

/// How a page's decimal block frames its integers, from the block's
/// header (`None` for a page whose values are not a decimal block).
/// Verifies the page CRC; no column is decoded.
pub fn decimal_framing(body: &[u8]) -> Result<Option<decimal::Framing>> {
    let cols = page_columns(body)?;
    match cols.forms.values {
        ValueForm::Decimal => decimal::framing(cols.val_col).map(Some),
        ValueForm::Packed | ValueForm::Implied => Ok(None),
    }
}

/// How a page's packed timestamp column frames its points, delta or
/// line, from its width byte (`None` for a page whose timestamps are not
/// packed). Verifies the page CRC; no column is decoded.
pub fn ts_framing(body: &[u8]) -> Result<Option<Framing>> {
    let cols = page_columns(body)?;
    match cols.forms.timestamps {
        TsForm::Packed if packed::is_line(cols.ts_col) => Ok(Some(Framing::Line)),
        TsForm::Packed => Ok(Some(Framing::Delta)),
        TsForm::Constant => Ok(None),
    }
}

/// A page's window exceptions — the outliers its packed columns and a
/// decimal delta frame list by their distance — as `[count, bytes of
/// their entries, bytes of the head a decimal delta frame leaves to
/// FP.v]`. Verifies the page CRC; decodes no column.
pub fn window_exceptions(body: &[u8], meta: &PageMeta) -> Result<[usize; 3]> {
    let (cols, n) = open_page(body, meta)?;
    let ts = match cols.forms.timestamps {
        TsForm::Packed => packed::window_list(cols.ts_col, n)?,
        TsForm::Constant => (0, 0),
    };
    let (values, head) = match (cols.forms.values, decimal::framing(cols.val_col).ok()) {
        (ValueForm::Packed, _) => (packed::window_list(cols.val_col, n)?, 0),
        (ValueForm::Decimal, Some(Framing::Delta)) => {
            let (head, block) = decimal::page_delta(cols.val_col, meta.stats.first.v)?;
            (packed::window_list(block, n)?, head)
        }
        _ => ((0, 0), 0),
    };
    Ok([ts.0 + values.0, ts.1 + values.1, head])
}

/// Parsed page header: forms and the two column slices.
struct PageColumns<'a> {
    forms: PageForms,
    ts_col: &'a [u8],
    val_col: &'a [u8],
}

/// Check a page body's CRC and split it: a zero-length body is the
/// modes byte of constant-delta timestamps and implied values alone.
fn page_columns(body: &[u8]) -> Result<PageColumns<'_>> {
    match body.is_empty() {
        true => split_page(&[MODE_CONST_DELTA | MODE_IMPLIED_VALUES]),
        false => split_page(checked_payload(body, "page body")?),
    }
}

fn split_page(payload: &[u8]) -> Result<PageColumns<'_>> {
    let (&modes, rest) = payload
        .split_first()
        .ok_or(TsFileError::UnexpectedEof { what: "page modes" })?;
    let forms = PageForms::of_modes(modes)?;
    if forms.timestamps == TsForm::Constant {
        return Ok(PageColumns {
            forms,
            ts_col: &[],
            val_col: rest,
        });
    }
    let mut pos = 0usize;
    let ts_len = cast::usize_checked(varint::read_u64(rest, &mut pos)?)
        .ok_or_else(|| TsFileError::Corrupt("page ts length unaddressable".into()))?;
    let ts_end =
        pos.checked_add(ts_len)
            .filter(|&e| e <= rest.len())
            .ok_or(TsFileError::UnexpectedEof {
                what: "page timestamp column",
            })?;
    let (head, val_col) = rest.split_at(ts_end);
    Ok(PageColumns {
        forms,
        ts_col: head.get(pos..).unwrap_or(&[]),
        val_col,
    })
}

/// Check a page body's CRC and split it; with it, the point count the
/// footer entry gives it, under the ceiling; implied values are checked
/// whichever column is read.
fn open_page<'a>(body: &'a [u8], meta: &PageMeta) -> Result<(PageColumns<'a>, usize)> {
    let cols = page_columns(body)?;
    let count = meta.stats.count;
    let n = cast::usize_checked(count)
        .filter(|&n| n <= MAX_PAGE_POINTS)
        .ok_or_else(|| {
            TsFileError::Corrupt(format!(
                "page of {count} points, above the {MAX_PAGE_POINTS}-point ceiling"
            ))
        })?;
    if cols.forms.values == ValueForm::Implied {
        implied_values(&meta.stats, n).map(drop)?;
    }
    Ok((cols, n))
}

/// The values an `n`-point page's statistics imply, with BP and TP at
/// its ends: else `Corrupt`.
fn implied_values(stats: &PageStatistics, n: usize) -> Result<impl Fn(usize) -> f64> {
    let (first, last) = (stats.first.v, stats.last.v);
    let line = decimal::implied(first, last, n).filter(|_| stats.extremes_at_ends());
    line.ok_or_else(|| TsFileError::Corrupt(format!("no {n} values implied by {first}, {last}")))
}

/// The step of a constant-delta column of `n` points, from its
/// statistics: `Corrupt` when they do not split into `n − 1` equal
/// steps.
fn constant_step(stats: &PageStatistics, n: usize) -> Result<i64> {
    let (first, last) = (stats.first.t, stats.last.t);
    derived_delta(first, last, n).ok_or_else(|| {
        TsFileError::Corrupt(format!(
            "a constant-delta page of {n} points cannot run from {first} to {last}"
        ))
    })
}

/// Decode the timestamp column of an already-split page of `n` points
/// whose statistics are `stats`.
fn decode_ts_column(
    cols: &PageColumns<'_>,
    n: usize,
    stats: &PageStatistics,
    until: Option<i64>,
) -> Result<Vec<i64>> {
    match cols.forms.timestamps {
        TsForm::Constant => {
            let delta = constant_step(stats, n)?;
            let mut out = Vec::with_capacity(n);
            let mut cur = stats.first.t;
            for i in 0..n {
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
        TsForm::Packed => {
            packed::decode_page_timestamps(cols.ts_col, n, (stats.first.t, stats.last.t), until)
        }
    }
}

/// Decode one page body into points, verifying its CRC, against the
/// footer entry that gives its count and what else the body leaves to
/// the statistics. The two encodings are inert ([`EncodingKind`]).
pub fn decode_page(
    body: &[u8],
    _ts_encoding: EncodingKind,
    _val_encoding: EncodingKind,
    meta: &PageMeta,
) -> Result<Vec<Point>> {
    crate::lockcheck::check_io();
    let (cols, n) = open_page(body, meta)?;
    let stats = &meta.stats;
    let ts = decode_ts_column(&cols, n, stats, None)?;
    let vs = match cols.forms.values {
        ValueForm::Decimal => {
            decimal::decode(cols.val_col, n, Some((stats.first.v, stats.last.v)))?
        }
        ValueForm::Packed => {
            packed::decode_page_values(cols.val_col, n, (stats.first.v, stats.last.v))?
        }
        ValueForm::Implied => (0..n).map(implied_values(stats, n)?).collect(),
    };
    if ts.len() != n || vs.len() != n {
        return Err(TsFileError::Corrupt(format!(
            "page decoded {} timestamps / {} values, expected {n}",
            ts.len(),
            vs.len(),
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
/// partial scan). Verifies the page CRC. The encoding is inert
/// ([`EncodingKind`]).
pub fn decode_page_timestamps(
    body: &[u8],
    _ts_encoding: EncodingKind,
    meta: &PageMeta,
    until: Option<i64>,
) -> Result<Vec<i64>> {
    crate::lockcheck::check_io();
    let (cols, n) = open_page(body, meta)?;
    decode_ts_column(&cols, n, &meta.stats, until)
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
        // the regular page is smaller still (no timestamp byte).
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
        assert!(
            body.len() < packed_body.len() && packed_body.len() <= body.len() + 16,
            "constant {} vs packed {} bytes",
            body.len(),
            packed_body.len(),
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

    /// A staircase of tenths whose first value is NaN stores its decimal
    /// block, framed around its line (147 B a page).
    #[test]
    fn a_staircase_behind_an_exception_keeps_its_block() -> Result<()> {
        let points: Vec<Point> = (0..1000)
            .map(|i| match i {
                0 => Point::new(0, f64::NAN),
                _ => Point::new(i * 10, (20 + i / 10) as f64 / 10.0),
            })
            .collect();
        let mut body = Vec::new();
        encode_page(
            &points,
            EncodingKind::Ts2Diff,
            EncodingKind::Gorilla,
            &mut body,
        );
        assert_eq!(forms(&body)?.values, ValueForm::Decimal);
        assert_eq!(decimal_framing(&body)?, Some(decimal::Framing::Line));
        assert!(body.len() <= 150, "{} bytes", body.len());
        let meta = page_meta(&points, 0, body.len() as u64)?;
        verify_page_body(&body, &meta)?;
        let back = decode_page(&body, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta)?;
        let bits = |p: &[Point]| p.iter().map(|p| (p.t, p.v.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&points));
        Ok(())
    }

    /// A page of few-decimal values stores them as a decimal block, a
    /// page of a full-precision walk as packed key deltas, and so does a
    /// page of values flipping sign; jittered timestamps pack. Each decodes bit-exactly and passes the copy gate.
    #[test]
    fn value_mode_is_chosen_from_the_page() -> Result<()> {
        let decimal: Vec<Point> = (0..500)
            .map(|i| Point::new(i * 10, ((i * 7919) % 300) as f64 / 100.0 + 20.0))
            .collect();
        let walk: Vec<Point> = (0..500)
            .map(|i| Point::new(i * 10 + i % 3, 225.0 + (i as f64 * 0.01).sin()))
            .collect();
        // A sign flip's key delta spans 64 bits.
        let flips: Vec<Point> = (0..500)
            .map(|i| {
                let pi = std::f64::consts::PI;
                Point::new(i * 10, if i % 2 == 0 { pi } else { -pi })
            })
            .collect();
        for (points, ts, values) in [
            (decimal, TsForm::Constant, ValueForm::Decimal),
            (walk, TsForm::Packed, ValueForm::Packed),
            (flips, TsForm::Constant, ValueForm::Packed),
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
