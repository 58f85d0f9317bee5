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
//!   u8     modes: bit 0 = timestamps (0 encoded stream, 1 constant delta)
//!                 bit 1 = values (0 the chunk's value encoding, 1 decimal)
//!   varint len(ts_bytes)   ts_bytes
//!   varint len(val_bytes)  val_bytes
//!   u32    crc32 of everything above (LE)
//! ```
//!
//! Both modes are chosen per page from the page's own column. The
//! constant-delta timestamp mode: sensor timestamps are mostly regular
//! (the paper's §3.5 step observation), so a page whose deltas are all
//! equal stores just `varint_i(first) varint_i(delta)` and is
//! reconstructed arithmetically — no per-point varint decode. The
//! decimal value mode ([`encoding::decimal`]): a page whose values have
//! few decimals stores them as scaled, bit-packed integers, whenever
//! that block is smaller than the chunk's XOR or plain stream.
//! The column encodings themselves live in the footer's
//! [`PagedChunkInfo`] (CRC-protected there), so a chunk body has no
//! unprotected header bytes.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]

use crate::bufpool;
use crate::checksum::crc32;
use crate::encoding::decimal::{self, Exponents};
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
/// arithmetically from `(first, delta)` (clear: an encoded stream).
const MODE_CONST_DELTA: u8 = 1;
/// Mode bit: the values are a decimal block (clear: the chunk's value
/// encoding).
const MODE_DECIMAL: u8 = 2;

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

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.byte_len);
        self.stats.encode(out);
    }

    /// Decode the entry of the page that starts `offset` bytes into its
    /// chunk body.
    pub(crate) fn decode(buf: &[u8], pos: &mut usize, offset: u64) -> Result<Self> {
        let byte_len = varint::read_u64(buf, pos)?;
        let stats = PageStatistics::decode(buf, pos)?;
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

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.ts_encoding as u8);
        out.push(self.val_encoding as u8);
        varint::write_u64(out, cast::u64_from_usize(self.pages.len()));
        for p in &self.pages {
            p.encode(out);
        }
    }

    pub(crate) fn decode(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let ts_tag = *buf.get(*pos).ok_or(TsFileError::UnexpectedEof {
            what: "page index ts encoding",
        })?;
        let val_tag = *buf.get(*pos + 1).ok_or(TsFileError::UnexpectedEof {
            what: "page index val encoding",
        })?;
        *pos += 2;
        let ts_encoding = EncodingKind::from_u8(ts_tag)?;
        let val_encoding = EncodingKind::from_u8(val_tag)?;
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
        for _ in 0..n {
            let page = PageMeta::decode(buf, pos, offset)?;
            offset = offset
                .checked_add(page.byte_len)
                .ok_or_else(|| TsFileError::Corrupt("page extent overflows".into()))?;
            pages.push(page);
        }
        Ok(PagedChunkInfo {
            ts_encoding,
            val_encoding,
            pages,
        })
    }

    /// Structural invariants of a decoded page index, cross-checked
    /// against the owning chunk's byte length: there is a page, each
    /// holds at most [`MAX_PAGE_POINTS`], pages are time-ordered and
    /// disjoint, and their lengths sum to the chunk body's.
    pub(crate) fn validate(&self, chunk_byte_len: u64) -> Result<()> {
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
        let covered = last.offset.saturating_add(last.byte_len);
        if covered != chunk_byte_len {
            return Err(TsFileError::Corrupt(format!(
                "pages cover {covered} bytes of a {chunk_byte_len}-byte chunk"
            )));
        }
        Ok(())
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
    let vs: Vec<f64> = points.iter().map(|p| p.v).collect();
    encode_page_columns(
        &ts,
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
}

/// [`encode_page`] over a page already split into its two columns
/// (equal length) — the writer splits a chunk once and hands each page
/// its slices, and carries `values` from page to page.
pub(crate) fn encode_page_columns(
    ts: &[i64],
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
    let mut modes = 0;
    match constant_delta(ts) {
        Some((first, delta)) => {
            modes |= MODE_CONST_DELTA;
            varint::write_i64(&mut ts_bytes, first);
            varint::write_i64(&mut ts_bytes, delta);
        }
        None => encoding::encode_timestamps(ts_encoding, ts, &mut ts_bytes),
    }
    let mut val_bytes = bufpool::take(0);
    let (is_block, val_col) = value_column(vs, val_encoding, values, &mut val_bytes);
    if is_block {
        modes |= MODE_DECIMAL;
    }
    out.push(modes);
    varint::write_u64(out, cast::u64_from_usize(ts_bytes.len()));
    out.extend_from_slice(&ts_bytes);
    varint::write_u64(out, cast::u64_from_usize(val_col.len()));
    out.extend_from_slice(val_col);
    let crc = crc32(out.get(start..).unwrap_or(&[]));
    out.extend_from_slice(&crc.to_le_bytes());
}

/// A page's value column: the decimal block when the sample admits one
/// and it is smaller than the configured stream, else the stream (ties
/// go to the stream), as `(is the block, its bytes in buf)`. The one
/// likelier to win is written first, and the other only while it can
/// still win: a block below a lower bound on the stream's size needs no
/// stream, and a stream no larger than the block's sampled estimate
/// needs no block.
fn value_column<'a>(
    vs: &[f64],
    val_encoding: EncodingKind,
    carry: &mut ValueCarry,
    buf: &'a mut Vec<u8>,
) -> (bool, &'a [u8]) {
    let Some(plan) = decimal::plan(vs, &mut carry.pair) else {
        encoding::encode_values(val_encoding, vs, buf);
        return (false, buf);
    };
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
    (is_block, buf.get(range).unwrap_or(&[]))
}

/// `Some((first, delta))` when the sequence advances by one constant
/// delta (trivially true for a single timestamp).
fn constant_delta(ts: &[i64]) -> Option<(i64, i64)> {
    let (&first, rest) = ts.split_first()?;
    let Some(&second) = rest.first() else {
        return Some((first, 0));
    };
    let delta = second.wrapping_sub(first);
    let mut prev = second;
    for &t in rest.iter().skip(1) {
        if t.wrapping_sub(prev) != delta {
            return None;
        }
        prev = t;
    }
    Some((first, delta))
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
/// the structure of a decimal value block. This is the integrity gate
/// for byte-for-byte page copies — the compactor revalidates every page
/// it moves verbatim, whatever its modes, so silent corruption can
/// never be propagated into a new file.
pub fn verify_page_body(body: &[u8], meta: &PageMeta) -> Result<()> {
    let cols = open_page(body, meta)?;
    if cols.modes & MODE_DECIMAL != 0 {
        decimal::verify(cols.val_col, cols.n)?;
    }
    Ok(())
}

/// Whether a page stores its values as a decimal block. Verifies the
/// page CRC; no column is decoded.
pub fn is_decimal(body: &[u8]) -> Result<bool> {
    let cols = split_page(checked_payload(body, "page body")?)?;
    Ok(cols.modes & MODE_DECIMAL != 0)
}

/// Parsed page header: count, modes, and the two column slices.
struct PageColumns<'a> {
    n: usize,
    modes: u8,
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
    if modes & !(MODE_CONST_DELTA | MODE_DECIMAL) != 0 {
        return Err(TsFileError::Corrupt(format!(
            "unknown page modes {modes:#x}"
        )));
    }
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
        modes,
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
    if cols.modes & MODE_CONST_DELTA != 0 {
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
        return Ok(out);
    }
    match (ts_encoding, until) {
        (EncodingKind::Plain, _) => encoding::plain::decode_i64(cols.ts_col, cols.n),
        (_, Some(limit)) => encoding::ts2diff::decode_until(cols.ts_col, cols.n, limit),
        (_, None) => encoding::ts2diff::decode(cols.ts_col, cols.n),
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
    let vs = if cols.modes & MODE_DECIMAL != 0 {
        decimal::decode(cols.val_col, cols.n)?
    } else {
        encoding::decode_values(val_encoding, cols.val_col, cols.n)?
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
        // delta forces the full per-point stream, so the regular page
        // must be dramatically smaller (two varints vs ~1 byte/point).
        let mut irregular = points.clone();
        if let Some(last) = irregular.last_mut() {
            last.t += 1;
        }
        let mut stream_body = Vec::new();
        encode_page(
            &irregular,
            EncodingKind::Ts2Diff,
            EncodingKind::Gorilla,
            &mut stream_body,
        );
        assert!(
            body.len() + 500 < stream_body.len(),
            "constant-delta path not taken: {} vs {}",
            body.len(),
            stream_body.len()
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
        good.validate(len)?;
        assert!(good.validate(len + 1).is_err(), "gap after last page");
        let mut huge = good.clone();
        huge.pages[0].stats.count = MAX_PAGE_POINTS as u64 + 1;
        assert!(huge.validate(len).is_err(), "page above the ceiling");
        let mut twice = good.clone();
        twice.pages.push(page_meta(&points, len, len)?);
        assert!(twice.validate(2 * len).is_err(), "pages overlap in time");
        let empty = PagedChunkInfo {
            pages: Vec::new(),
            ..good
        };
        assert!(empty.validate(0).is_err());
        Ok(())
    }

    /// A page of few-decimal values stores them as a decimal block, a
    /// page of full-precision values keeps the XOR stream; both decode
    /// bit-exactly and pass the copy gate.
    #[test]
    fn value_mode_is_chosen_from_the_page() -> Result<()> {
        let decimal: Vec<Point> = (0..500)
            .map(|i| Point::new(i * 10, ((i * 37) % 300) as f64 / 100.0 + 20.0))
            .collect();
        let full: Vec<Point> = (0..500)
            .map(|i| Point::new(i * 10, (i as f64 * 0.7).sin() * 20.0))
            .collect();
        for (points, want) in [(decimal, true), (full, false)] {
            let mut body = Vec::new();
            encode_page(
                &points,
                EncodingKind::Ts2Diff,
                EncodingKind::Gorilla,
                &mut body,
            );
            assert_eq!(is_decimal(&body)?, want);
            let meta = page_meta(&points, 0, body.len() as u64)?;
            verify_page_body(&body, &meta)?;
            let back = decode_page(&body, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta)?;
            let bits = |p: &[Point]| p.iter().map(|p| (p.t, p.v.to_bits())).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&points));
        }
        Ok(())
    }

    #[test]
    fn info_encode_decode_roundtrip() -> Result<()> {
        let points = pts(30, 3);
        let mut body = Vec::new();
        encode_page(&points, EncodingKind::Plain, EncodingKind::Plain, &mut body);
        let info = PagedChunkInfo {
            ts_encoding: EncodingKind::Plain,
            val_encoding: EncodingKind::Plain,
            pages: vec![page_meta(&points, 0, body.len() as u64)?],
        };
        let mut buf = Vec::new();
        info.encode(&mut buf);
        let mut pos = 0usize;
        assert_eq!(PagedChunkInfo::decode(&buf, &mut pos)?, info);
        assert_eq!(pos, buf.len());
        Ok(())
    }

    #[test]
    fn decode_rejects_absurd_page_count() {
        let mut buf = Vec::new();
        buf.push(EncodingKind::Ts2Diff as u8);
        buf.push(EncodingKind::Gorilla as u8);
        varint::write_u64(&mut buf, u64::MAX);
        let mut pos = 0usize;
        assert!(PagedChunkInfo::decode(&buf, &mut pos).is_err());
    }
}
