//! Per-chunk statistics: the paper's chunk metadata
//! `{G(C^κ) | G ∈ {FP, LP, BP, TP}}` (§2.2.1), plus the point count.
//!
//! These are computed once at flush time, per chunk, and stored in the
//! footer. M4-LSM's merge-free candidate generation works entirely off
//! this structure.
//!
//! The footer stores each chunk's statistics against what the entry
//! already holds and what the entry before it in file order left
//! (`ChunkStatistics::encode_after`, `StatsCarry`): that entry's LP,
//! and the pair of the last entry written in a decimal form. Three
//! choices per entry go into its tag (`EntryTag`, beside the chunk's
//! encodings in one byte): BP's and TP's positions — interior, or the
//! whole point, time and value bits, of FP or of LP; an extreme at an
//! end writes neither its time nor its value — and the values' form.
//!
//! ```text
//! varint count
//! FP.t  varint_i (FP.t − prev.t), wrapping
//!       (prev = (0, 0.0) for the file's first chunk: FP.t is absolute)
//! varint (LP.t − FP.t), then (BP.t − FP.t) and (TP.t − FP.t) of each
//!       interior extreme, unsigned
//! values of FP, LP and each interior extreme, in one of three forms:
//!   XOR:               FP.v xor prev.v, then the others each xor FP.v,
//!                      trimmed: u8 control (high nibble: leading zero
//!                      bytes, low nibble: trailing zero bytes, their
//!                      sum ≤ 8), then the bytes between, most
//!                      significant first
//!   decimal, carried:  each value's integer under the carried pair
//!                      (`encoding::decimal`): varint_i (FP.d − r), r
//!                      the previous LP's integer under the pair (0 when
//!                      it has none), then varint_i (d − FP.d) of each
//!                      of the others
//!   decimal, new pair: u8 e, u8 f, then the integers as above with r = 0
//! ```
//!
//! XOR is Gorilla's at byte granularity: neighbouring statistics share
//! their sign, exponent and high mantissa, so a value costs a control
//! byte and a few bytes rather than eight. A register read to a few
//! decimals keeps few of those bytes equal; as integers its values are
//! a few units apart. The pair is [`decimal`]'s choice for the entry's
//! values, trying the carried pair first, and is written only when it
//! changes. The writer keeps the strictly smaller form, ties to XOR: an
//! entry is never larger than its XOR form, and a value with no integer
//! under one pair — NaN, −0.0, ±inf, a full-precision value — keeps the
//! entry in XOR. An unsigned sum past `i64::MAX`, a control byte whose
//! nibbles add past 8, a tag past 26, a pair out of range
//! or an integer at or past 2^53 is `Corrupt`.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]

use crate::encoding::decimal::{self, Exponents};
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
pub(crate) struct EntryTag(u8);

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

    /// The tag's value, at most [`Self::MAX`].
    pub(crate) fn get(self) -> u8 {
        self.0
    }

    /// Whether BP or TP is the whole point of FP or LP, so not written.
    pub(crate) fn extreme_at_an_end(self) -> bool {
        !self.0.is_multiple_of(9)
    }

    /// Whether the values took a decimal form.
    pub(crate) fn decimal(self) -> bool {
        self.0 / 9 != XOR
    }
}

/// What the statistics of one footer entry leave for the next: its LP
/// and the pair of the last entry written in a decimal form. The
/// default is what a file's first entry is coded against: `(0, 0.0)`
/// and no pair.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StatsCarry {
    last: Point,
    pair: Option<Exponents>,
}

impl Default for StatsCarry {
    fn default() -> Self {
        StatsCarry {
            last: Point::new(0, 0.0),
            pair: None,
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
        let (&first, rest) = points.split_first().ok_or(TsFileError::EmptyChunk)?;
        let last = rest.last().copied().unwrap_or(first);
        let mut bottom = first;
        let mut top = first;
        for p in rest {
            // total_cmp gives NaN and signed zero a consistent order,
            // so every component (statistics, oracle, operators) agrees
            // on which point is the extreme.
            if p.v.total_cmp(&bottom.v).is_lt() {
                bottom = *p;
            }
            if p.v.total_cmp(&top.v).is_gt() {
                top = *p;
            }
        }
        Ok(ChunkStatistics {
            first,
            last,
            bottom,
            top,
            count: points.len() as u64,
        })
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

    /// Serialize against `carry`, what the entry before these
    /// statistics in file order left, and advance it. Returns the tag
    /// the footer stores beside the chunk's encodings, which says what
    /// the bytes leave out. See the module docs for the layout.
    pub(crate) fn encode_after(&self, carry: &mut StatsCarry, out: &mut Vec<u8>) -> EntryTag {
        let (bottom_at, top_at) = self.ends();
        let interior = [(self.bottom, bottom_at), (self.top, top_at)]
            .into_iter()
            .filter(|&(_, at)| at == INTERIOR);
        let rest: Vec<Point> = std::iter::once(self.last)
            .chain(interior.map(|(p, _)| p))
            .collect();
        varint::write_u64(out, self.count);
        varint::write_i64(out, self.first.t.wrapping_sub(carry.last.t));
        for p in &rest {
            varint::write_u64(out, cast::u64_bits(p.t.wrapping_sub(self.first.t)));
        }
        let xor_at = out.len();
        write_xor(out, self.first.v, carry.last.v);
        for p in &rest {
            write_xor(out, p.v, self.first.v);
        }
        let values: Vec<f64> = std::iter::once(self.first.v)
            .chain(rest.iter().map(|p| p.v))
            .collect();
        let pair = decimal::pair_for(&values, carry.pair);
        let decimal = pair
            .and_then(|pair| write_decimal(&values, pair, carry))
            .filter(|(_, bytes)| bytes.len() < out.len() - xor_at);
        carry.last = self.last;
        let form = match decimal {
            Some((form, bytes)) => {
                out.truncate(xor_at);
                out.extend_from_slice(&bytes);
                carry.pair = pair;
                form
            }
            None => XOR,
        };
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
        let count = varint::read_u64(buf, pos)?;
        let first_t = carry.last.t.wrapping_add(varint::read_i64(buf, pos)?);
        // LP, then BP and TP where interior.
        let mut times = [first_t; 3];
        for (t, _) in times
            .iter_mut()
            .zip([true, bottom_in, top_in])
            .filter(|(_, w)| *w)
        {
            *t = after(first_t, varint::read_u64(buf, pos)?)?;
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
                *first_v = read_xor(buf, pos, carry.last.v)?;
                for v in rest.iter_mut() {
                    *v = read_xor(buf, pos, *first_v)?;
                }
            }
            _ => {
                let carried = form == DECIMAL;
                let pair = match carried {
                    true => carry.pair.ok_or_else(|| {
                        TsFileError::Corrupt("statistics carry a decimal pair before any".into())
                    })?,
                    false => read_pair(buf, pos)?,
                };
                let base = decimal_base(pair, carried, carry.last.v);
                let first_d;
                (first_d, *first_v) = read_integer(buf, pos, pair, base)?;
                for v in rest {
                    *v = read_integer(buf, pos, pair, first_d)?.1;
                }
                carry.pair = Some(pair);
            }
        }
        // BP's value is the third where written; TP's follows it, or is
        // the third.
        let [first_v, last_v, bottom_v, fourth] = values;
        let top_v = if bottom_in { fourth } else { bottom_v };
        let [last_t, bottom_t, top_t] = times;
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
        carry.last = last;
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

/// `base + delta`, `Corrupt` past `i64::MAX`.
fn after(base: i64, delta: u64) -> Result<i64> {
    base.checked_add_unsigned(delta).ok_or_else(|| {
        TsFileError::Corrupt(format!("statistics time {base} + {delta} overflows i64"))
    })
}

/// What FP's integer is coded against: the previous LP's integer under
/// the pair when the pair is carried and the value has one, else 0.
fn decimal_base(pair: Exponents, carried: bool, last: f64) -> i64 {
    match carried {
        true => pair.integer(last).unwrap_or(0),
        false => 0,
    }
}

/// `values` — FP's, then the others' — in a decimal form under `pair`
/// against `carry`, and which form; `None` when a value has no integer
/// under it.
fn write_decimal(values: &[f64], pair: Exponents, carry: &StatsCarry) -> Option<(u8, Vec<u8>)> {
    let carried = carry.pair == Some(pair);
    let mut out = Vec::with_capacity(16);
    if !carried {
        out.extend_from_slice(&pair.bytes());
    }
    let (first, rest) = values.split_first()?;
    let first_d = pair.integer(*first)?;
    varint::write_i64(
        &mut out,
        first_d - decimal_base(pair, carried, carry.last.v),
    );
    for &v in rest {
        varint::write_i64(&mut out, pair.integer(v)? - first_d);
    }
    let form = match carried {
        true => DECIMAL,
        false => DECIMAL_NEW_PAIR,
    };
    Some((form, out))
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
    reference
        .checked_add(delta)
        .and_then(|d| Some((d, pair.value(d)?)))
        .ok_or_else(|| {
            TsFileError::Corrupt(format!(
                "statistics decimal integer {reference} + {delta} at or past 2^53"
            ))
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

    fn carry(t: i64, v: f64) -> StatsCarry {
        StatsCarry {
            last: Point::new(t, v),
            pair: None,
        }
    }

    /// Encode against `before`, decode against it again, check every
    /// bit came back and both sides carry the same, and return the
    /// bytes and the tag.
    fn roundtrip(s: &ChunkStatistics, before: StatsCarry) -> Result<(Vec<u8>, EntryTag)> {
        let (mut buf, mut written) = (Vec::new(), before);
        let tag = s.encode_after(&mut written, &mut buf);
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
                vec![1, 4, 0, 0x80, 0x80],
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
            assert!(roundtrip(&s, carry(0, 0.0))?.1.extreme_at_an_end());
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
        a.encode_after(&mut after_a, &mut Vec::new());
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
        assert!(!nan.encode_after(&mut after_nan, &mut Vec::new()).decimal());
        assert_eq!(after_nan.pair, after_a.pair);
        assert_eq!(roundtrip(&b, after_nan)?.1 .0 / 9, DECIMAL);
        Ok(())
    }

    /// Statistics that break an invariant, a time past `i64::MAX`, a
    /// control byte whose nibbles add past 8, a tag past the largest, a
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
        let tag = s.encode_after(&mut carry(0, 0.0), &mut bad);
        corrupt(&bad, tag, carry(0, 0.0));
        let interior = EntryTag::of(INTERIOR, INTERIOR, XOR);
        // LP.t past i64::MAX from FP.t.
        let mut long = vec![1, 0];
        varint::write_u64(&mut long, u64::MAX);
        corrupt(&long, interior, carry(1, 0.0));
        // Lead 5 + trail 4 bytes.
        corrupt(&[1, 0, 0, 0, 0, 0x54], interior, carry(0, 0.0));
        // Tags past the largest.
        for v in [EntryTag::MAX + 1, u8::MAX] {
            assert!(matches!(EntryTag::from_u8(v), Err(TsFileError::Corrupt(_))));
        }
        // e past 18, f past e.
        let ends = |form| EntryTag::of(AT_FIRST, AT_FIRST, form);
        corrupt(
            &[1, 0, 0, 19, 0, 0, 0],
            ends(DECIMAL_NEW_PAIR),
            carry(0, 0.0),
        );
        corrupt(
            &[1, 0, 0, 2, 3, 0, 0],
            ends(DECIMAL_NEW_PAIR),
            carry(0, 0.0),
        );
        // The carried pair with none carried.
        corrupt(&[1, 0, 0, 0, 0], ends(DECIMAL), carry(0, 0.0));
        // FP's integer 2^53, and LP's past it from FP.
        let mut big = vec![1, 0, 0, 0, 0];
        varint::write_i64(&mut big, 1 << 53);
        big.push(0);
        corrupt(&big, ends(DECIMAL_NEW_PAIR), carry(0, 0.0));
        let mut past = vec![1, 0, 0, 0, 0];
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
