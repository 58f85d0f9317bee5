//! Per-chunk statistics: the paper's chunk metadata
//! `{G(C^κ) | G ∈ {FP, LP, BP, TP}}` (§2.2.1), plus the point count.
//!
//! These are computed once at flush time and serialized next to the
//! chunk. M4-LSM's merge-free candidate generation works entirely off
//! this structure.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]

use crate::types::{Point, TimeRange};
use crate::varint;
use crate::{Result, TsFileError};

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

    /// Extend these statistics with those of a run of points lying
    /// strictly later in time (the next page of a chunk). Value ties
    /// keep the earlier point, as [`ChunkStatistics::from_points`]
    /// over the concatenation would.
    pub fn absorb_later(&mut self, later: &ChunkStatistics) {
        self.last = later.last;
        if later.bottom.v.total_cmp(&self.bottom.v).is_lt() {
            self.bottom = later.bottom;
        }
        if later.top.v.total_cmp(&self.top.v).is_gt() {
            self.top = later.top;
        }
        self.count += later.count;
    }

    /// The chunk's time interval `[FP(C).t, LP(C).t]`.
    #[inline]
    pub fn time_range(&self) -> TimeRange {
        TimeRange::new(self.first.t, self.last.t)
    }

    /// Serialize to bytes (fixed order, varint times, raw f64 values).
    pub fn encode(&self, out: &mut Vec<u8>) {
        for p in [self.first, self.last, self.bottom, self.top] {
            varint::write_i64(out, p.t);
            out.extend_from_slice(&p.v.to_le_bytes());
        }
        varint::write_u64(out, self.count);
    }

    /// Deserialize from bytes at `*pos`, advancing `*pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let read_point = |pos: &mut usize| -> Result<Point> {
            let t = varint::read_i64(buf, pos)?;
            let end = *pos + 8;
            let bytes = buf.get(*pos..end).ok_or(TsFileError::UnexpectedEof {
                what: "statistics value",
            })?;
            *pos = end;
            let mut arr = [0u8; 8];
            for (dst, src) in arr.iter_mut().zip(bytes) {
                *dst = *src;
            }
            Ok(Point::new(t, f64::from_le_bytes(arr)))
        };
        let first = read_point(pos)?;
        let last = read_point(pos)?;
        let bottom = read_point(pos)?;
        let top = read_point(pos)?;
        let count = varint::read_u64(buf, pos)?;
        let stats = ChunkStatistics {
            first,
            last,
            bottom,
            top,
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

    #[test]
    fn encode_decode_roundtrip() -> Result<()> {
        let points = pts(&[(100, -1.25), (200, 4.5), (305, 4.5), (400, 0.0)]);
        let s = ChunkStatistics::from_points(&points)?;
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let mut pos = 0;
        let back = ChunkStatistics::decode(&buf, &mut pos)?;
        assert_eq!(back, s);
        assert_eq!(pos, buf.len());
        Ok(())
    }

    #[test]
    fn decode_rejects_invalid() {
        // first.t > last.t
        let bad = ChunkStatistics {
            first: Point::new(10, 0.0),
            last: Point::new(5, 0.0),
            bottom: Point::new(7, 0.0),
            top: Point::new(7, 0.0),
            count: 2,
        };
        let mut buf = Vec::new();
        bad.encode(&mut buf);
        let mut pos = 0;
        assert!(ChunkStatistics::decode(&buf, &mut pos).is_err());
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
