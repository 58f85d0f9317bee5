//! Per-chunk statistics: the paper's chunk metadata
//! `{G(C^κ) | G ∈ {FP, LP, BP, TP}}` (§2.2.1), plus the point count.
//!
//! These are computed once at flush time, per chunk, and stored in the
//! footer. M4-LSM's merge-free candidate generation works entirely off
//! this structure.
//!
//! The footer stores each chunk's statistics against the last point of
//! the chunk before it in file order ([`ChunkStatistics::encode_after`]):
//!
//! ```text
//! varint count
//! FP.t  varint_i (FP.t − prev.t), wrapping
//!       (prev = (0, 0.0) for the file's first chunk: FP.t is absolute)
//! varint (LP.t − FP.t), (BP.t − FP.t), (TP.t − FP.t), each unsigned
//! FP.v  xor prev.v, then LP.v, BP.v, TP.v each xor FP.v, trimmed:
//!       u8 control (high nibble: leading zero bytes, low nibble:
//!       trailing zero bytes, their sum ≤ 8), then the bytes between,
//!       most significant first
//! ```
//!
//! This is Gorilla's XOR at byte granularity: neighbouring statistics
//! share their sign, exponent and high mantissa, so a value costs a
//! control byte and a few bytes rather than eight. An unsigned sum past
//! `i64::MAX` or a control byte whose nibbles add past 8 is `Corrupt`.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]

use crate::types::{Point, TimeRange};
use crate::varint;
use crate::{cast, Result, TsFileError};

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

    /// Serialize against `prev`, the last point of the chunk before
    /// these statistics in file order (`(0, 0.0)` for the first). See
    /// the module docs for the layout.
    pub fn encode_after(&self, prev: Point, out: &mut Vec<u8>) {
        varint::write_u64(out, self.count);
        varint::write_i64(out, self.first.t.wrapping_sub(prev.t));
        let rest = [self.last, self.bottom, self.top];
        for p in rest {
            varint::write_u64(out, cast::u64_bits(p.t.wrapping_sub(self.first.t)));
        }
        write_xor(out, self.first.v, prev.v);
        for p in rest {
            write_xor(out, p.v, self.first.v);
        }
    }

    /// Deserialize what [`Self::encode_after`] wrote against the same
    /// `prev`, from `*pos`, advancing it, and validate.
    pub fn decode_after(buf: &[u8], pos: &mut usize, prev: Point) -> Result<Self> {
        let count = varint::read_u64(buf, pos)?;
        let first_t = prev.t.wrapping_add(varint::read_i64(buf, pos)?);
        let mut times = [first_t; 3];
        for t in &mut times {
            *t = after(first_t, varint::read_u64(buf, pos)?)?;
        }
        let first_v = read_xor(buf, pos, prev.v)?;
        let mut values = [first_v; 3];
        for v in &mut values {
            *v = read_xor(buf, pos, first_v)?;
        }
        let ([last_t, bottom_t, top_t], [last_v, bottom_v, top_v]) = (times, values);
        let stats = ChunkStatistics {
            first: Point::new(first_t, first_v),
            last: Point::new(last_t, last_v),
            bottom: Point::new(bottom_t, bottom_v),
            top: Point::new(top_t, top_v),
            count,
        };
        stats.validate()?;
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

    /// Round trip against predecessors of either sign and extreme, and
    /// what it costs: a value equal to its reference is one control
    /// byte.
    #[test]
    fn encode_decode_roundtrip() -> Result<()> {
        let points = pts(&[(100, -1.25), (200, 4.5), (305, 4.5), (400, 0.0)]);
        let s = ChunkStatistics::from_points(&points)?;
        for prev in [
            Point::new(0, 0.0),
            Point::new(90, 3.0),
            Point::new(i64::MIN, f64::NAN),
            Point::new(i64::MAX, -0.0),
        ] {
            let mut buf = Vec::new();
            s.encode_after(prev, &mut buf);
            let mut pos = 0;
            let back = ChunkStatistics::decode_after(&buf, &mut pos, prev)?;
            assert_eq!(back, s);
            assert_eq!(pos, buf.len());
        }
        let flat = ChunkStatistics::from_points(&pts(&[(7, 2.5)]))?;
        let mut buf = Vec::new();
        flat.encode_after(Point::new(5, 2.5), &mut buf);
        assert_eq!(buf, [1, 4, 0, 0, 0, 0x80, 0x80, 0x80, 0x80]);
        Ok(())
    }

    /// Statistics that break an invariant, a time past `i64::MAX` and a
    /// control byte whose nibbles add past 8 are `Corrupt`.
    #[test]
    fn decode_rejects_invalid() {
        let corrupt = |buf: &[u8], prev: Point| {
            let got = ChunkStatistics::decode_after(buf, &mut 0, prev);
            assert!(matches!(got, Err(TsFileError::Corrupt(_))), "{got:?}");
        };
        // bottom.t past last.t
        let mut bad = Vec::new();
        ChunkStatistics {
            first: Point::new(0, 0.0),
            last: Point::new(5, 0.0),
            bottom: Point::new(7, 0.0),
            top: Point::new(2, 0.0),
            count: 2,
        }
        .encode_after(Point::new(0, 0.0), &mut bad);
        corrupt(&bad, Point::new(0, 0.0));
        // LP.t past i64::MAX from FP.t.
        let mut long = vec![1, 0];
        varint::write_u64(&mut long, u64::MAX);
        corrupt(&long, Point::new(1, 0.0));
        // Lead 5 + trail 4 bytes.
        corrupt(&[1, 0, 0, 0, 0, 0x54], Point::new(0, 0.0));
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
