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
//!   u8     modes: timestamps  bit 0 constant delta, bit 2 a block
//!                 values      bit 1 a decimal block, bit 3 a key block,
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
//! page `Corrupt`. Implied values are no bytes: FP.v repeated, or a
//! decimal ramp to LP.v ([`decimal::implied`]), taken only where every
//! value has those bits; a reader re-derives them, `Corrupt` where the
//! entry implies none or BP or TP is not an end point. Every other
//! column is one packed block ([`packed`], which states its layout and
//! its corruption rules): the timestamps themselves, the values as
//! decimal integers or as their order-preserving keys, in whichever
//! frame the block's one chooser finds smallest by exact size, never by
//! a setting. A block takes any column, so every page has a form. The
//! value column runs to the CRC, so the body's own length (the
//! footer's) bounds it. The modes byte sits under the page's CRC, so a
//! chunk body has no unprotected header bytes.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]

use crate::bufpool;
use crate::checksum::crc32;
use crate::encoding::decimal::{self, Exponents};
use crate::encoding::packed::{self, Ends, Framing, Ints, Transform};
use crate::encoding::EncodingKind;
use crate::statistics::{ChunkStatistics, Extremes};
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
/// Mode bit: the timestamps are a packed block.
const MODE_PACKED_TS: u8 = 4;
/// Mode bit: the values are a packed block of their keys.
const MODE_PACKED_VALUES: u8 = 8;
/// Mode bit: the values are no bytes, implied by the statistics.
const MODE_IMPLIED_VALUES: u8 = 16;

/// How a page stores its timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsForm {
    /// No bytes: `FP.t + i·Δ`, `Δ` the statistics' span over `n − 1`.
    Constant,
    /// A packed block of the timestamps ([`packed`]).
    Packed,
}

/// How a page stores its values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueForm {
    /// A packed block of the values' decimal integers ([`decimal`]).
    Decimal,
    /// A packed block of the values' keys ([`packed`]).
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

    /// The transform of each column's block (`None` for no bytes).
    fn transforms(self) -> [Option<Transform>; 2] {
        let ts = (self.timestamps == TsForm::Packed).then_some(Transform::Timestamp);
        let values = match self.values {
            ValueForm::Decimal => Some(Transform::Decimal),
            ValueForm::Packed => Some(Transform::Key),
            ValueForm::Implied => None,
        };
        [ts, values]
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
    let mut columns = Columns::default();
    columns.split(points);
    encode_page_columns(&mut columns, out);
}

/// A page's two columns, split on one pass over its points with what
/// that pass learns on the way, and what a writer carries from one
/// page's value column to the next — from one chunk to the next of the
/// file it writes. The buffers are refilled page by page.
#[derive(Debug, Default)]
pub(crate) struct Columns {
    ts: Vec<i64>,
    /// `ts[i + 1] − ts[i]`, wrapping.
    deltas: Vec<i64>,
    vs: Vec<f64>,
    /// Every delta is the first (so also with none).
    one_step: bool,
    /// The decimal pair the last plan chose ([`decimal::plan`]).
    pair: Option<Exponents>,
    /// Scratch for the page's key deltas ([`packed::key_deltas`]).
    keys: Vec<i64>,
}

impl Columns {
    /// Split `points` into the columns, gathering on the same pass the
    /// timestamps' deltas and whether they are one step, the statistics
    /// and the first two timestamps out of time order, if any (`None`
    /// for no point).
    pub(crate) fn split(
        &mut self,
        points: &[Point],
    ) -> Option<(ChunkStatistics, Option<(i64, i64)>)> {
        let n = points.len();
        self.ts.resize(n, 0);
        self.vs.resize(n, 0.0);
        self.deltas.resize(n.saturating_sub(1), 0);
        self.one_step = true;
        let (&first, rest) = points.split_first()?;
        let step = rest.first().map_or(0, |p| p.t.wrapping_sub(first.t));
        let (mut prev, mut one_step, mut late) = (first.t, true, None);
        let mut extremes = Extremes::NONE;
        extremes.add(0, first.v);
        let mut ts = self.ts.iter_mut();
        let mut vs = self.vs.iter_mut();
        if let (Some(t), Some(v)) = (ts.next(), vs.next()) {
            (*t, *v) = (first.t, first.v);
        }
        let columns = ts.zip(vs).zip(self.deltas.iter_mut());
        for (i, (p, ((t, v), d))) in (1..).zip(rest.iter().zip(columns)) {
            let delta = p.t.wrapping_sub(prev);
            if p.t <= prev && late.is_none() {
                late = Some((prev, p.t));
            }
            one_step &= delta == step;
            (*t, *v, *d) = (p.t, p.v, delta);
            prev = p.t;
            extremes.add(i, p.v);
        }
        self.one_step = one_step;
        Some((extremes.statistics(points), late))
    }
}

/// [`encode_page`] over a page already split into its columns.
pub(crate) fn encode_page_columns(columns: &mut Columns, out: &mut Vec<u8>) {
    let start = out.len();
    // Pooled column scratch: page encode runs once per page on every
    // flush/compaction; reusing the scratch keeps the write path free
    // of heap round-trips per page.
    let mut ts_bytes = bufpool::take(0);
    let timestamps = ts_column(columns, &mut ts_bytes);
    let mut val_bytes = bufpool::take(0);
    let (value_form, val_col) = value_column(columns, &mut val_bytes);
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
/// the deltas are one constant the statistics give back, else its block.
fn ts_column(columns: &Columns, buf: &mut Vec<u8>) -> TsForm {
    let (ts, deltas) = (&columns.ts, &columns.deltas);
    let (first, last) = (ts.first().copied(), ts.last().copied());
    let derived = first
        .zip(last)
        .and_then(|(f, l)| derived_delta(f, l, ts.len()));
    let step = deltas.first().copied().unwrap_or(0);
    if columns.one_step && derived == Some(step) {
        return TsForm::Constant;
    }
    if let Some(plan) = packed::choose([&Ints::timestamps(ts, deltas)], None) {
        plan.write(buf);
    }
    TsForm::Packed
}

/// A page's value column, as `(its form, its bytes in buf)`: none where
/// its ends imply it, else the block the chooser takes of the decimal
/// integers (where the sample admits a pair), the keys, and the decimal
/// integers again at the scale the pair's exceptions show.
fn value_column<'a>(columns: &mut Columns, buf: &'a mut Vec<u8>) -> (ValueForm, &'a [u8]) {
    let vs = &columns.vs;
    // Planned on every page, so the carried pair is as without the form.
    let pair = decimal::plan(vs, &mut columns.pair);
    let line = (vs.first().zip(vs.last()))
        .and_then(|(&first, &last)| decimal::implied(first, last, vs.len()));
    let bits = vs.iter().map(|v| v.to_bits());
    if line.is_some_and(|line| bits.eq((0..vs.len()).map(|i| line(i).to_bits()))) {
        return (ValueForm::Implied, buf);
    }
    packed::key_deltas(vs, &mut columns.keys);
    let decimal = pair.and_then(|pair| Ints::decimal(vs, pair));
    let replanned = decimal.as_ref().and_then(Ints::replanned);
    let keys = Ints::keys(vs, &columns.keys);
    let columns = decimal.iter().chain([&keys]).chain(&replanned);
    let form = packed::choose(columns, None).map(|plan| {
        plan.write(buf);
        plan.transform()
    });
    match form {
        Some(Transform::Decimal) => (ValueForm::Decimal, buf),
        _ => (ValueForm::Packed, buf),
    }
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
/// column where a block's frame allows ([`packed::verify`]): checksum
/// over the payload, the point count under the ceiling, statistics that
/// split into equal steps for a constant-delta column or imply the
/// values, and each block against the statistics' ends. This is the
/// integrity gate for byte-for-byte page copies — the compactor
/// revalidates every page it moves verbatim, whatever its forms, so
/// silent corruption can never be propagated into a new file.
pub fn verify_page_body(body: &[u8], meta: &PageMeta) -> Result<()> {
    let (cols, n) = open_page(body, meta)?;
    if cols.forms.timestamps == TsForm::Constant {
        constant_step(&meta.stats, n)?;
    }
    for ((col, transform), ends) in cols.blocks().into_iter().zip(ends(&meta.stats)) {
        if let Some(transform) = transform {
            packed::verify(col, n, transform, ends)?;
        }
    }
    Ok(())
}

/// A page's FP and LP as words, for each column.
fn ends(stats: &PageStatistics) -> [Ends; 2] {
    let (first, last) = (&stats.first, &stats.last);
    [
        (cast::u64_bits(first.t), cast::u64_bits(last.t)),
        (first.v.to_bits(), last.v.to_bits()),
    ]
}

/// How a page stores its two columns. Verifies the page CRC; no column
/// is decoded.
pub fn forms(body: &[u8]) -> Result<PageForms> {
    Ok(page_columns(body)?.forms)
}

/// The frame of each column's block, timestamps then values (`None`
/// for a column of no bytes), from its header. Verifies the page CRC;
/// no column is decoded.
pub fn framings(body: &[u8]) -> Result<[Option<Framing>; 2]> {
    let cols = page_columns(body)?;
    let [ts, values] = cols.blocks();
    let framing = |(col, t): (&[u8], Option<Transform>)| t.map(|t| packed::framing(col, t));
    Ok([framing(ts).transpose()?, framing(values).transpose()?])
}

/// A page's window exceptions — the outliers its anchored blocks list
/// by their distance — as `[count, bytes of their entries, bytes of the
/// head a decimal delta frame leaves to FP.v]`. Verifies the page CRC;
/// decodes no column.
pub fn window_exceptions(body: &[u8], meta: &PageMeta) -> Result<[usize; 3]> {
    let (cols, n) = open_page(body, meta)?;
    let mut sum = [0; 3];
    for ((col, transform), (first, _)) in cols.blocks().into_iter().zip(ends(&meta.stats)) {
        if let Some(transform) = transform {
            let one = packed::window_list(col, n, transform, first)?;
            for (total, part) in sum.iter_mut().zip(one) {
                *total += part;
            }
        }
    }
    Ok(sum)
}

/// Parsed page header: forms and the two column slices.
struct PageColumns<'a> {
    forms: PageForms,
    ts_col: &'a [u8],
    val_col: &'a [u8],
}

impl<'a> PageColumns<'a> {
    /// Each column's bytes and its block's transform.
    fn blocks(&self) -> [(&'a [u8], Option<Transform>); 2] {
        let [ts, values] = self.forms.transforms();
        [(self.ts_col, ts), (self.val_col, values)]
    }
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
fn decode_ts_column(cols: &PageColumns<'_>, n: usize, stats: &PageStatistics) -> Result<Vec<i64>> {
    match cols.forms.timestamps {
        TsForm::Constant => {
            let delta = constant_step(stats, n)?;
            let mut out = Vec::with_capacity(n);
            let mut t = stats.first.t;
            for _ in 0..n {
                out.push(t);
                t = t.wrapping_add(delta);
            }
            Ok(out)
        }
        TsForm::Packed => {
            let ends = ends(stats)[0];
            packed::decode_as(cols.ts_col, n, Transform::Timestamp, ends, cast::i64_bits)
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
    let ts = decode_ts_column(&cols, n, stats)?;
    let vs: Vec<f64> = match cols.blocks()[1] {
        (col, Some(transform)) => {
            packed::decode_as(col, n, transform, ends(stats)[1], f64::from_bits)?
        }
        (_, None) => (0..n).map(implied_values(stats, n)?).collect(),
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

/// Decode only a page's timestamp column, whole, and with `until` cut
/// after the first timestamp past it (the crossing value is included).
/// Verifies the page CRC. The encoding is inert ([`EncodingKind`]).
pub fn decode_page_timestamps(
    body: &[u8],
    _ts_encoding: EncodingKind,
    meta: &PageMeta,
    until: Option<i64>,
) -> Result<Vec<i64>> {
    crate::lockcheck::check_io();
    let (cols, n) = open_page(body, meta)?;
    let mut ts = decode_ts_column(&cols, n, &meta.stats)?;
    if let Some(at) = until.and_then(|limit| ts.iter().position(|&t| t > limit)) {
        ts.truncate(at + 1);
    }
    Ok(ts)
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

    /// A value column whose period divides the decimal sample's stride
    /// (63 on 1 000 points) shows the sample one phase: `(i % 7)` halves
    /// or quarters sample as integers. The exceptions' decimals re-plan
    /// the pair, and the page packs in a few hundred bytes where the
    /// sampled scale took 4 491 and 7 180.
    #[test]
    fn a_period_the_sample_aliases_is_replanned() -> Result<()> {
        for (step, aliased) in [(0.5, 4_491), (0.25, 7_180)] {
            let points: Vec<Point> = (0..1000)
                .map(|i| Point::new(i * 10, (i % 7) as f64 * step))
                .collect();
            let mut body = Vec::new();
            encode_page(
                &points,
                EncodingKind::Ts2Diff,
                EncodingKind::Gorilla,
                &mut body,
            );
            assert_eq!(forms(&body)?.values, ValueForm::Decimal);
            assert!(body.len() < aliased / 4, "{step}: {} bytes", body.len());
            let meta = page_meta(&points, 0, body.len() as u64)?;
            let back = decode_page(&body, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta)?;
            assert_eq!(back, points);
        }
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
        // A limit at the page's last timestamp has no crossing value
        // inside it: the whole column, and no further.
        let whole = decode_page_timestamps(&body, EncodingKind::Ts2Diff, &meta, Some(9_990))?;
        assert_eq!(whole.len(), 1000);
        assert_eq!(whole.last().copied(), Some(9_990));
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
        assert_eq!(framings(&body)?, [None, Some(Framing::Line)]);
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
