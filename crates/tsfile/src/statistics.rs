//! Per-chunk statistics: the paper's chunk metadata
//! `{G(C^κ) | G ∈ {FP, LP, BP, TP}}` (§2.2.1), plus the point count.
//!
//! These are computed once at flush time, per chunk, and stored in the
//! footer. M4-LSM's merge-free candidate generation works entirely off
//! this structure.
//!
//! The footer stores each chunk's statistics against a prediction from
//! the entry before it, `prev` (`encode_after`, `StatsCarry`): a run of
//! regular chunks pays a residual byte where it repeats its count,
//! cadence or value slope. FP is predicted one cadence past prev's LP;
//! at a run's first entry, where prev is the previous run's first, at
//! prev's FP, as series flushed together start together. Cadence `c`
//! and slope `s` are the span and the decimal `LP.d − FP.d` over the
//! `n − 1` steps, rounded, ties away from 0 (0 below two points). The tag
//! (`EntryTag`, beside the chunk's encodings in one byte) holds BP's and
//! TP's positions — interior, or the whole point of FP or of LP, so not
//! written — and the values' form. Arithmetic wraps; `validate` judges.
//!
//! ```text
//! varint_i  count − prev.count
//! varint_i  FP.t − (prev.FP.t at a run start, else prev.LP.t + prev.c)
//! varint_i  (LP.t − FP.t) − (count − 1) · prev.c
//! varint    each interior extreme's time: 2i + 1 at FP.t + i·c on
//!           this entry's cadence grid, else 2 · (t − FP.t); plain
//!           t − FP.t where LP.t − FP.t passes i64::MAX
//! values of FP, LP and each interior extreme, in one of three forms:
//!   XOR:               FP.v xor (prev.FP.v at a run start, else
//!                      prev.LP.v), then the others each xor FP.v,
//!                      trimmed: u8 control (high nibble: leading zero
//!                      bytes, low nibble: trailing zero bytes, their
//!                      sum ≤ 8), then the bytes between
//!   decimal, carried:  integers under the carried pair
//!                      (`encoding::decimal`): varint_i FP.d − (prev.FP.d
//!                      at a run start, else prev.LP.d + prev.s; 0 where
//!                      it has none), varint_i (LP.d − FP.d) − (count −
//!                      1) · prev.s, then varint_i (d − FP.d) of each
//!                      interior extreme
//!   decimal, new pair: u8 e, u8 f, then the integers as above
//! ```
//!
//! `prev` is `(0, 0.0)` with no points for the file's first entry. The
//! pair is [`decimal`]'s choice, trying the carried pair first; the
//! writer keeps the strictly smaller form, ties to XOR. A control byte
//! whose nibbles add past 8, a tag past 26, a pair out of range or an
//! integer at or past 2^53 is `Corrupt`.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]

use crate::encoding::decimal::{self, Exponents};
use crate::encoding::packed;
use crate::format::FooterCensus;
use crate::types::{Point, TimeRange};
use crate::varint;
use crate::{cast, Result, TsFileError};

/// An extreme's position: written in full, or the whole point of FP or
/// of LP.
const INTERIOR: u8 = 0;
const AT_FIRST: u8 = 1;
const AT_LAST: u8 = 2;

/// The values' form: XOR, or integers under the carried or a new pair.
const XOR: u8 = 0;
const DECIMAL: u8 = 1;
const DECIMAL_NEW_PAIR: u8 = 2;

/// The three choices an entry's statistics make, each one of three —
/// BP's position, TP's and the values' form — as the digits of one
/// base-3 number, BP's least significant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EntryTag(pub(crate) u8);

impl EntryTag {
    /// The largest tag: 26, every digit 2.
    pub(crate) const MAX: u8 = 26;

    fn of(bottom: u8, top: u8, form: u8) -> Self {
        EntryTag(bottom + 3 * top + 9 * form)
    }

    /// The tag as stored; `Corrupt` past [`Self::MAX`].
    pub(crate) fn from_u8(v: u8) -> Result<Self> {
        match v <= Self::MAX {
            true => Ok(EntryTag(v)),
            false => Err(TsFileError::Corrupt(format!("statistics tag {v}"))),
        }
    }
}

/// What one footer entry leaves for the next: its FP, LP, count and
/// cadence, and the last decimal pair written. The default is what a
/// file's first entry is coded against: `(0, 0.0)`, no points or pair.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StatsCarry {
    first: Point,
    last: Point,
    count: u64,
    cadence: u64,
    /// The next entry starts a run: it is predicted at this one's FP.
    pub(crate) restart: bool,
    pair: Option<Exponents>,
}

impl StatsCarry {
    /// The point the next FP is predicted from, FP at a run start or
    /// else LP, and the steps on from it, 0 or 1.
    fn anchor(&self) -> (Point, u64) {
        match self.restart {
            true => (self.first, 0),
            false => (self.last, 1),
        }
    }

    fn first_t(&self) -> i64 {
        let (anchor, on) = self.anchor();
        anchor.t.wrapping_add(cast::i64_bits(on * self.cadence))
    }

    /// The next FP.d under `pair`, and the slope; 0 where an end has
    /// no integer.
    fn first_d(&self, pair: Exponents) -> (i64, i64) {
        let (first, last) = (pair.integer(self.first.v), pair.integer(self.last.v));
        let slope = match (first, last) {
            (Some(f), Some(l)) => slope(l - f, self.count),
            _ => 0,
        };
        let base = match self.restart {
            true => first,
            false => last.map(|l| l + slope),
        };
        (base.unwrap_or(0), slope)
    }

    fn advance(&mut self, s: &ChunkStatistics) {
        (self.first, self.last, self.count, self.restart) = (s.first, s.last, s.count, false);
        self.cadence = per_step(cast::u64_bits(s.last.t.wrapping_sub(s.first.t)), s.count);
    }
}

/// `total` over the `count − 1` steps of `count` points, rounded to the
/// nearest, ties away from zero; 0 below two points.
fn per_step(total: u64, count: u64) -> u64 {
    match count.saturating_sub(1) {
        0 => 0,
        steps => total / steps + u64::from(total % steps >= steps - total % steps),
    }
}

/// `total`, a signed integer span, over the `count − 1` steps.
fn slope(total: i64, count: u64) -> i64 {
    total.signum() * cast::i64_bits(per_step(total.unsigned_abs(), count))
}

/// The grid of interior extremes, where the span leaves a flag bit.
fn grid(span: u64, count: u64) -> Option<u64> {
    (span <= cast::u64_bits(i64::MAX)).then(|| per_step(span, count))
}

/// BP and TP as one forward scan finds them: the earliest points of the
/// least and the greatest value in [`f64::total_cmp`]'s order (its
/// key), which gives NaN and signed zero a place, so every component
/// (statistics, oracle, operators) agrees on the extremes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extremes {
    /// Key and position of each.
    bottom: (i64, usize),
    top: (i64, usize),
}

impl Extremes {
    /// No value scanned: the first one takes both places (or holds them).
    pub(crate) const NONE: Extremes = Extremes {
        bottom: (i64::MAX, 0),
        top: (i64::MIN, 0),
    };

    /// The value at position `i`, past every one scanned.
    #[inline]
    pub(crate) fn add(&mut self, i: usize, v: f64) {
        // Selects, not branches: a trending column moves an extreme often.
        let key = packed::key(v);
        self.bottom = if key < self.bottom.0 {
            (key, i)
        } else {
            self.bottom
        };
        self.top = if key > self.top.0 { (key, i) } else { self.top };
    }

    /// The statistics of the non-empty `points` whose values were
    /// scanned.
    pub(crate) fn statistics(self, points: &[Point]) -> ChunkStatistics {
        let at = |i: usize| points.get(i).copied().unwrap_or_default();
        ChunkStatistics {
            first: at(0),
            last: at(points.len().saturating_sub(1)),
            bottom: at(self.bottom.1),
            top: at(self.top.1),
            count: cast::u64_from_usize(points.len()),
        }
    }
}

/// Statistics of one chunk: first/last/bottom/top points and count.
///
/// Invariants (enforced by [`ChunkStatistics::from_points`] and checked
/// on decode): `first.t <= last.t`, `bottom.v <= top.v`, and all four
/// points lie inside the time interval `[first.t, last.t]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkStatistics {
    /// FP(C): the point with minimal time.
    pub first: Point,
    /// LP(C): the point with maximal time.
    pub last: Point,
    /// BP(C): a point with minimal value (earliest such point).
    pub bottom: Point,
    /// TP(C): a point with maximal value (earliest such point).
    pub top: Point,
    /// Number of points in the chunk.
    pub count: u64,
}

impl ChunkStatistics {
    /// Compute statistics over a non-empty, time-sorted point slice.
    ///
    /// Ties on value resolve to the earliest point, matching a single
    /// forward scan (any tie choice is valid for M4, Definition 2.1).
    pub fn from_points(points: &[Point]) -> Result<Self> {
        let mut extremes = Extremes::NONE;
        for (i, p) in points.iter().enumerate() {
            extremes.add(i, p.v);
        }
        let nonempty = (!points.is_empty()).then_some(points);
        Ok(extremes.statistics(nonempty.ok_or(TsFileError::EmptyChunk)?))
    }

    /// The chunk's time interval `[FP(C).t, LP(C).t]`.
    #[inline]
    pub fn time_range(&self) -> TimeRange {
        TimeRange::new(self.first.t, self.last.t)
    }

    /// BP's and TP's positions, each the whole point of FP or of LP, or
    /// interior (FP wins in a chunk of one point).
    fn ends(&self) -> (u8, u8) {
        let at = |p: Point| {
            let same = |q: Point| q.t == p.t && q.v.to_bits() == p.v.to_bits();
            match (same(self.first), same(self.last)) {
                (true, _) => AT_FIRST,
                (_, true) => AT_LAST,
                _ => INTERIOR,
            }
        };
        (at(self.bottom), at(self.top))
    }

    /// Whether BP and TP are each the whole point of FP or of LP.
    pub(crate) fn extremes_at_ends(&self) -> bool {
        !matches!(self.ends(), (INTERIOR, _) | (_, INTERIOR))
    }

    /// Serialize against `carry` (module docs), advance it, and count
    /// the bytes by part into `census`. Returns the tag the footer
    /// stores beside the chunk's encodings: what the bytes leave out.
    pub(crate) fn encode_after(
        &self,
        carry: &mut StatsCarry,
        out: &mut Vec<u8>,
        census: &mut FooterCensus,
    ) -> EntryTag {
        let (bottom_at, top_at) = self.ends();
        let interior: Vec<Point> = [(self.bottom, bottom_at), (self.top, top_at)]
            .into_iter()
            .filter_map(|(p, at)| (at == INTERIOR).then_some(p))
            .collect();
        let (start, steps) = (out.len(), self.count.wrapping_sub(1));
        varint::write_i64(out, cast::i64_bits(self.count.wrapping_sub(carry.count)));
        let counted = out.len();
        let span = cast::u64_bits(self.last.t.wrapping_sub(self.first.t));
        varint::write_i64(out, self.first.t.wrapping_sub(carry.first_t()));
        let predicted = carry.cadence.wrapping_mul(steps);
        varint::write_i64(out, cast::i64_bits(span.wrapping_sub(predicted)));
        let timed = out.len();
        for p in &interior {
            let offset = cast::u64_bits(p.t.wrapping_sub(self.first.t));
            let code = match grid(span, self.count) {
                None => offset,
                Some(c) if c != 0 && offset.is_multiple_of(c) => (offset / c) << 1 | 1,
                Some(_) => offset << 1,
            };
            varint::write_u64(out, code);
        }
        let xor_at = out.len();
        let mut values = vec![self.first.v, self.last.v];
        values.extend(interior.iter().map(|p| p.v));
        for (i, &v) in values.iter().enumerate() {
            let reference = if i == 0 { carry.anchor().0 } else { self.first };
            write_xor(out, v, reference.v);
        }
        let pair = decimal::pair_for(&values, carry.pair);
        let decimal = pair
            .and_then(|pair| write_decimal(&values, steps, pair, carry))
            .filter(|(_, bytes)| bytes.len() < out.len() - xor_at);
        let form = match decimal {
            Some((form, bytes)) => {
                out.truncate(xor_at);
                out.extend_from_slice(&bytes);
                carry.pair = pair;
                form
            }
            None => XOR,
        };
        carry.advance(self);
        census.counts += counted - start;
        census.times += timed - counted;
        census.extremes += xor_at - timed;
        census.values += out.len() - xor_at;
        census.extremes_at_an_end += usize::from(interior.len() < 2);
        census.decimal += usize::from(form != XOR);
        EntryTag::of(bottom_at, top_at, form)
    }

    /// Deserialize what [`Self::encode_after`] wrote against the same
    /// `carry` under `tag`, from `*pos`, advancing both, and validate.
    pub(crate) fn decode_after(
        buf: &[u8],
        pos: &mut usize,
        tag: EntryTag,
        carry: &mut StatsCarry,
    ) -> Result<Self> {
        let (bottom_at, top_at, form) = (tag.0 % 3, tag.0 / 3 % 3, tag.0 / 9);
        let (bottom_in, top_in) = (bottom_at == INTERIOR, top_at == INTERIOR);
        let count = cast::u64_bits(varint::read_i64(buf, pos)?).wrapping_add(carry.count);
        let steps = count.wrapping_sub(1);
        let first_t = carry.first_t().wrapping_add(varint::read_i64(buf, pos)?);
        let residual = cast::u64_bits(varint::read_i64(buf, pos)?);
        let span = residual.wrapping_add(carry.cadence.wrapping_mul(steps));
        // LP, then BP and TP where interior, as offsets from FP.t.
        let mut offsets = [span; 3];
        let written = [false, bottom_in, top_in];
        for (offset, _) in offsets.iter_mut().zip(written).filter(|(_, w)| *w) {
            let code = varint::read_u64(buf, pos)?;
            *offset = match grid(span, count) {
                None => code,
                Some(c) if code & 1 == 1 => (code >> 1).wrapping_mul(c),
                Some(_) => code >> 1,
            };
        }
        // FP, LP, then BP and TP where interior.
        let mut values = [0.0; 4];
        let n = 2 + usize::from(bottom_in) + usize::from(top_in);
        let (first_v, rest) = values
            .get_mut(..n)
            .unwrap_or_default()
            .split_first_mut()
            .ok_or(TsFileError::UnexpectedEof {
                what: "statistics values",
            })?;
        match form {
            XOR => {
                *first_v = read_xor(buf, pos, carry.anchor().0.v)?;
                for v in rest.iter_mut() {
                    *v = read_xor(buf, pos, *first_v)?;
                }
            }
            _ => {
                let pair = match form == DECIMAL {
                    true => carry.pair.ok_or_else(|| {
                        TsFileError::Corrupt("statistics carry a decimal pair before any".into())
                    })?,
                    false => read_pair(buf, pos)?,
                };
                let (base, slope) = carry.first_d(pair);
                let first_d;
                (first_d, *first_v) = read_integer(buf, pos, pair, base)?;
                // LP.d against its slope from FP.d, the others against FP.d.
                let mut reference = first_d.wrapping_add(slope.wrapping_mul(cast::i64_bits(steps)));
                for v in rest {
                    *v = read_integer(buf, pos, pair, reference)?.1;
                    reference = first_d;
                }
                carry.pair = Some(pair);
            }
        }
        // BP's value is the third where written; TP's follows it, or is
        // the third.
        let [first_v, last_v, bottom_v, fourth] = values;
        let top_v = if bottom_in { fourth } else { bottom_v };
        let [last_t, bottom_t, top_t] = offsets.map(|o| first_t.wrapping_add(cast::i64_bits(o)));
        let (first, last) = (Point::new(first_t, first_v), Point::new(last_t, last_v));
        let at = |code, p| match code {
            AT_FIRST => first,
            AT_LAST => last,
            _ => p,
        };
        let stats = ChunkStatistics {
            first,
            last,
            bottom: at(bottom_at, Point::new(bottom_t, bottom_v)),
            top: at(top_at, Point::new(top_t, top_v)),
            count,
        };
        stats.validate()?;
        carry.advance(&stats);
        Ok(stats)
    }

    /// Check structural invariants; used on decode to catch corruption.
    pub fn validate(&self) -> Result<()> {
        if self.count == 0 {
            return Err(TsFileError::Corrupt("statistics with zero count".into()));
        }
        if self.first.t > self.last.t {
            return Err(TsFileError::Corrupt(format!(
                "statistics first.t {} > last.t {}",
                self.first.t, self.last.t
            )));
        }
        let range = self.time_range();
        for (name, p) in [("bottom", self.bottom), ("top", self.top)] {
            if !range.contains(p.t) {
                return Err(TsFileError::Corrupt(format!(
                    "{name} point time {} outside chunk range {range}",
                    p.t
                )));
            }
        }
        if self.bottom.v.total_cmp(&self.top.v).is_gt() {
            return Err(TsFileError::Corrupt(format!(
                "bottom value {} > top value {}",
                self.bottom.v, self.top.v
            )));
        }
        Ok(())
    }
}

/// `values` — FP's, LP's, then the interior extremes' — of an entry of
/// `steps + 1` points in a decimal form under `pair` against `carry`,
/// and which form; `None` when a value has no integer under it.
fn write_decimal(
    values: &[f64],
    steps: u64,
    pair: Exponents,
    carry: &StatsCarry,
) -> Option<(u8, Vec<u8>)> {
    let carried = carry.pair == Some(pair);
    let mut out = Vec::with_capacity(16);
    if !carried {
        out.extend_from_slice(&pair.bytes());
    }
    let (base, slope) = carry.first_d(pair);
    let mut ints = values.iter().map(|&v| pair.integer(v));
    let first_d = ints.next()??;
    varint::write_i64(&mut out, first_d.wrapping_sub(base));
    let mut reference = first_d.wrapping_add(slope.wrapping_mul(cast::i64_bits(steps)));
    for d in ints {
        varint::write_i64(&mut out, d?.wrapping_sub(reference));
        reference = first_d;
    }
    Some((if carried { DECIMAL } else { DECIMAL_NEW_PAIR }, out))
}

/// Read a pair's two bytes, `e` then `f`.
fn read_pair(buf: &[u8], pos: &mut usize) -> Result<Exponents> {
    let (Some(&e), Some(&f)) = (buf.get(*pos), buf.get(*pos + 1)) else {
        return Err(TsFileError::UnexpectedEof {
            what: "statistics decimal pair",
        });
    };
    *pos += 2;
    Exponents::of(e, f).ok_or_else(|| {
        TsFileError::Corrupt(format!("statistics decimal pair ({e}, {f}) out of range"))
    })
}

/// Read an integer coded as its difference from `reference`, and its
/// value under `pair`; `Corrupt` at or past 2^53.
fn read_integer(
    buf: &[u8],
    pos: &mut usize,
    pair: Exponents,
    reference: i64,
) -> Result<(i64, f64)> {
    let delta = varint::read_i64(buf, pos)?;
    let d = reference.wrapping_add(delta);
    pair.value(d).map(|v| (d, v)).ok_or_else(|| {
        TsFileError::Corrupt(format!("statistics decimal integer {d} at or past 2^53"))
    })
}

/// Append `v` as its XOR with `reference`, trimmed to its significant
/// bytes behind a control byte (a zero XOR is `0x80`: eight leading
/// zero bytes, nothing after).
fn write_xor(out: &mut Vec<u8>, v: f64, reference: f64) {
    let x = v.to_bits() ^ reference.to_bits();
    let lead = x.leading_zeros() / 8;
    let trail = if x == 0 { 0 } else { x.trailing_zeros() / 8 };
    out.push(cast::low8(u64::from(lead << 4 | trail)));
    let bytes = x.to_be_bytes();
    let kept = cast::usize_from_u32(lead)..cast::usize_from_u32(8 - trail);
    out.extend_from_slice(bytes.get(kept).unwrap_or(&[]));
}

/// Read what [`write_xor`] wrote against the same `reference`.
fn read_xor(buf: &[u8], pos: &mut usize, reference: f64) -> Result<f64> {
    let control = *buf.get(*pos).ok_or(TsFileError::UnexpectedEof {
        what: "statistics value control byte",
    })?;
    *pos += 1;
    let (lead, trail) = (usize::from(control >> 4), usize::from(control & 0xf));
    let kept = 8usize.checked_sub(lead + trail).ok_or_else(|| {
        TsFileError::Corrupt(format!("statistics value control byte {control:#04x}"))
    })?;
    let end = *pos + kept;
    let src = buf.get(*pos..end).ok_or(TsFileError::UnexpectedEof {
        what: "statistics value",
    })?;
    *pos = end;
    let mut bytes = [0u8; 8];
    for (dst, s) in bytes.iter_mut().skip(lead).zip(src) {
        *dst = *s;
    }
    Ok(f64::from_bits(
        u64::from_be_bytes(bytes) ^ reference.to_bits(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(raw: &[(i64, f64)]) -> Vec<Point> {
        raw.iter().map(|&(t, v)| Point::new(t, v)).collect()
    }

    #[test]
    fn from_points_basic() -> Result<()> {
        let points = pts(&[(1, 5.0), (2, -3.0), (3, 9.0), (4, 0.0)]);
        let s = ChunkStatistics::from_points(&points)?;
        assert_eq!(s.first, Point::new(1, 5.0));
        assert_eq!(s.last, Point::new(4, 0.0));
        assert_eq!(s.bottom, Point::new(2, -3.0));
        assert_eq!(s.top, Point::new(3, 9.0));
        assert_eq!(s.count, 4);
        Ok(())
    }

    #[test]
    fn from_points_single() -> Result<()> {
        let points = pts(&[(7, 1.5)]);
        let s = ChunkStatistics::from_points(&points)?;
        assert_eq!(s.first, s.last);
        assert_eq!(s.bottom, s.top);
        assert_eq!(s.count, 1);
        Ok(())
    }

    #[test]
    fn from_points_empty_is_error() {
        assert!(ChunkStatistics::from_points(&[]).is_err());
    }

    #[test]
    fn value_ties_resolve_to_earliest() -> Result<()> {
        let points = pts(&[(1, 2.0), (2, 2.0), (3, 2.0)]);
        let s = ChunkStatistics::from_points(&points)?;
        assert_eq!(s.bottom.t, 1);
        assert_eq!(s.top.t, 1);
        Ok(())
    }

    /// A carry from a one-point entry at `(t, v)`: FP is predicted at
    /// `t`, its value against `v`.
    fn carry(t: i64, v: f64) -> StatsCarry {
        let p = Point::new(t, v);
        StatsCarry {
            first: p,
            last: p,
            count: 1,
            cadence: 0,
            restart: false,
            pair: None,
        }
    }

    /// Encode against `before`, decode against it again, check every
    /// bit came back and both sides carry the same, and return the
    /// bytes and the tag.
    fn roundtrip(s: &ChunkStatistics, before: StatsCarry) -> Result<(Vec<u8>, EntryTag)> {
        let (mut buf, mut written) = (Vec::new(), before);
        let tag = s.encode_after(&mut written, &mut buf, &mut FooterCensus::default());
        let (mut pos, mut read) = (0, before);
        let back = ChunkStatistics::decode_after(&buf, &mut pos, tag, &mut read)?;
        let bits =
            |s: &ChunkStatistics| [s.first, s.last, s.bottom, s.top].map(|p| (p.t, p.v.to_bits()));
        assert_eq!((bits(&back), back.count), (bits(s), s.count));
        assert_eq!(pos, buf.len());
        assert_eq!(
            (read.last.t, read.last.v.to_bits(), read.pair),
            (written.last.t, written.last.v.to_bits(), written.pair)
        );
        Ok((buf, tag))
    }

    /// Round trip against predecessors of either sign and extreme, and
    /// what it costs: a value equal to its reference is one control
    /// byte, and an extreme at an end is no byte at all.
    #[test]
    fn encode_decode_roundtrip() -> Result<()> {
        let points = pts(&[(100, -1.25), (200, 4.5), (305, 4.5), (400, 0.0)]);
        let s = ChunkStatistics::from_points(&points)?;
        assert_eq!(s.ends(), (AT_FIRST, INTERIOR));
        for before in [
            carry(0, 0.0),
            carry(90, 3.0),
            carry(i64::MIN, f64::NAN),
            carry(i64::MAX, -0.0),
        ] {
            roundtrip(&s, before)?;
        }
        let flat = ChunkStatistics::from_points(&pts(&[(7, 2.5)]))?;
        assert_eq!(
            roundtrip(&flat, carry(5, 2.5))?,
            (
                vec![0, 4, 0, 0x80, 0x80],
                EntryTag::of(AT_FIRST, AT_FIRST, XOR)
            )
        );
        Ok(())
    }

    /// BP and TP at an end take the whole point of FP or LP; a tie in
    /// value at another time, or in time with other value bits, stays
    /// interior.
    #[test]
    fn extremes_at_an_end_are_whole_points() -> Result<()> {
        type Case<'a> = (&'a [(i64, f64)], (u8, u8));
        let cases: [Case; 4] = [
            // A rise: BP is FP, TP is LP.
            (&[(1, 1.0), (2, 2.0), (3, 3.0)], (AT_FIRST, AT_LAST)),
            // A fall: TP is FP, BP is LP.
            (&[(1, 3.0), (2, 2.0), (3, 1.0)], (AT_LAST, AT_FIRST)),
            // TP ties LP's value earlier: the earliest, interior.
            (&[(1, 1.0), (2, 5.0), (3, 5.0)], (AT_FIRST, INTERIOR)),
            // −0.0 and 0.0 compare apart: BP is FP, TP interior.
            (&[(1, -0.0), (2, 0.0), (3, -0.0)], (AT_FIRST, INTERIOR)),
        ];
        for (raw, ends) in cases {
            let s = ChunkStatistics::from_points(&pts(raw))?;
            assert_eq!(s.ends(), ends, "{raw:?}");
            assert!(!roundtrip(&s, carry(0, 0.0))?.1 .0.is_multiple_of(9));
        }
        Ok(())
    }

    /// Values with a few decimals take the decimal form when it is
    /// strictly smaller: the pair is written once, then carried — also
    /// past an entry that kept XOR — and FP is coded against the
    /// previous LP's integer. A NaN keeps XOR.
    #[test]
    fn decimal_values_carry_their_pair() -> Result<()> {
        let a = ChunkStatistics::from_points(&pts(&[
            (0, 21.37),
            (10, 19.02),
            (20, 23.91),
            (30, 20.5),
        ]))?;
        let (first, tag) = roundtrip(&a, carry(0, 0.0))?;
        assert_eq!(tag.0 / 9, DECIMAL_NEW_PAIR);
        let mut after_a = carry(0, 0.0);
        a.encode_after(&mut after_a, &mut Vec::new(), &mut FooterCensus::default());
        assert_eq!(after_a.pair, Exponents::of(2, 0));
        let b = ChunkStatistics::from_points(&pts(&[
            (40, 20.55),
            (50, 18.75),
            (60, 24.0),
            (70, 20.25),
        ]))?;
        let (second, tag) = roundtrip(&b, after_a)?;
        assert_eq!(tag.0 / 9, DECIMAL);
        assert!(second.len() + 2 < first.len(), "{second:?} vs {first:?}");
        let nan = ChunkStatistics::from_points(&pts(&[(80, 20.5), (90, f64::NAN)]))?;
        let mut after_nan = after_a;
        let mut census = FooterCensus::default();
        nan.encode_after(&mut after_nan, &mut Vec::new(), &mut census);
        assert_eq!(census.decimal, 0);
        assert_eq!(after_nan.pair, after_a.pair);
        assert_eq!(roundtrip(&b, after_nan)?.1 .0 / 9, DECIMAL);
        Ok(())
    }

    /// Statistics that break an invariant, a span that wraps LP.t below
    /// FP.t, a control byte whose nibbles add past 8, a tag past the largest, a
    /// pair out of range, a pair carried before any, and an integer at
    /// or past 2^53 are `Corrupt`.
    #[test]
    fn decode_rejects_invalid() {
        let corrupt = |buf: &[u8], tag: EntryTag, before: StatsCarry| {
            let got = ChunkStatistics::decode_after(buf, &mut 0, tag, &mut before.clone());
            assert!(
                matches!(got, Err(TsFileError::Corrupt(_))),
                "{buf:?}: {got:?}"
            );
        };
        // bottom.t past last.t
        let mut bad = Vec::new();
        let s = ChunkStatistics {
            first: Point::new(0, 0.0),
            last: Point::new(5, 0.0),
            bottom: Point::new(7, 0.0),
            top: Point::new(2, 0.0),
            count: 2,
        };
        let tag = s.encode_after(&mut carry(0, 0.0), &mut bad, &mut FooterCensus::default());
        corrupt(&bad, tag, carry(0, 0.0));
        let interior = EntryTag::of(INTERIOR, INTERIOR, XOR);
        // A span whose residual wraps LP.t below FP.t.
        let mut long = vec![0, 0];
        varint::write_i64(&mut long, i64::MAX);
        long.extend_from_slice(&[0x80, 0x80]);
        corrupt(&long, EntryTag::of(AT_FIRST, AT_FIRST, XOR), carry(1, 0.0));
        // Lead 5 + trail 4 bytes.
        corrupt(&[0, 0, 0, 0, 0, 0x54], interior, carry(0, 0.0));
        // Tags past the largest.
        for v in [EntryTag::MAX + 1, u8::MAX] {
            assert!(matches!(EntryTag::from_u8(v), Err(TsFileError::Corrupt(_))));
        }
        // e past 18, f past e.
        let ends = |form| EntryTag::of(AT_FIRST, AT_FIRST, form);
        corrupt(
            &[0, 0, 0, 19, 0, 0, 0],
            ends(DECIMAL_NEW_PAIR),
            carry(0, 0.0),
        );
        corrupt(
            &[0, 0, 0, 2, 3, 0, 0],
            ends(DECIMAL_NEW_PAIR),
            carry(0, 0.0),
        );
        // The carried pair with none carried.
        corrupt(&[0, 0, 0, 0, 0], ends(DECIMAL), carry(0, 0.0));
        // FP's integer 2^53, and LP's past it from FP.
        let mut big = vec![0, 0, 0, 0, 0];
        varint::write_i64(&mut big, 1 << 53);
        big.push(0);
        corrupt(&big, ends(DECIMAL_NEW_PAIR), carry(0, 0.0));
        let mut past = vec![0, 0, 0, 0, 0];
        varint::write_i64(&mut past, (1 << 53) - 1);
        varint::write_i64(&mut past, 1);
        corrupt(&past, ends(DECIMAL_NEW_PAIR), carry(0, 0.0));
    }

    #[test]
    fn validate_catches_out_of_range_extreme() {
        let bad = ChunkStatistics {
            first: Point::new(0, 0.0),
            last: Point::new(10, 0.0),
            bottom: Point::new(99, -1.0),
            top: Point::new(5, 1.0),
            count: 3,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn time_range_matches_first_last() -> Result<()> {
        let points = pts(&[(3, 1.0), (9, 2.0)]);
        let s = ChunkStatistics::from_points(&points)?;
        assert_eq!(s.time_range(), TimeRange::new(3, 9));
        Ok(())
    }
}
