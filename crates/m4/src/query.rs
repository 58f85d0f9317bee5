//! The M4 representation query (Definition 2.3).
//!
//! A query is a half-open time range `[t_qs, t_qe)` divided into `w`
//! equal time spans `I_1 … I_w`; each span yields the four
//! representation points of the subsequence falling inside it.
//!
//! Span boundaries follow the paper's SQL semantics (Appendix A.1):
//! point `t` belongs to span `floor(w·(t−t_qs)/(t_qe−t_qs))`. We use
//! exact integer arithmetic, all of it in `i128` (a difference of two
//! timestamps needs 64 bits unsigned, and `w ≤` [`MAX_SPANS`] times it
//! fits with room to spare), so every timestamp in `[t_qs, t_qe)` maps
//! to exactly one span and the span ranges tile the query range, for
//! any range `i64` can express.

use tsfile::types::{TimeRange, Timestamp};

use crate::{M4Error, Result};

/// The most time spans a query may ask for. At ~65 bytes a span on
/// the wire, the fullest reply fits one 64 MiB frame; the widest
/// query anything here issues asks for 10 000.
pub const MAX_SPANS: usize = 1_000_000;

/// An M4 representation query: range `[t_qs, t_qe)` and span count `w`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct M4Query {
    /// Inclusive start of the query range.
    pub t_qs: Timestamp,
    /// Exclusive end of the query range.
    pub t_qe: Timestamp,
    /// Number of time spans (pixel columns), in `1..=MAX_SPANS`.
    pub w: usize,
}

impl M4Query {
    /// Construct and validate a query.
    pub fn new(t_qs: Timestamp, t_qe: Timestamp, w: usize) -> Result<Self> {
        if t_qs >= t_qe {
            return Err(M4Error::EmptyQueryRange { t_qs, t_qe });
        }
        if w == 0 {
            return Err(M4Error::ZeroSpans);
        }
        if w > MAX_SPANS {
            return Err(M4Error::TooManySpans { w, max: MAX_SPANS });
        }
        Ok(M4Query { t_qs, t_qe, w })
    }

    /// Length of the query range `t_qe − t_qs`: up to `2^64 − 1`, so
    /// unsigned.
    #[inline]
    pub fn range_len(&self) -> u64 {
        self.t_qe.abs_diff(self.t_qs)
    }

    /// The whole query range as an inclusive [`TimeRange`]
    /// (`[t_qs, t_qe − 1]`; timestamps are integral milliseconds).
    #[inline]
    pub fn full_range(&self) -> TimeRange {
        TimeRange::new(self.t_qs, self.t_qe - 1)
    }

    /// The 0-based span index of timestamp `t`, or `None` if `t` is
    /// outside `[t_qs, t_qe)`.
    #[inline]
    pub fn span_of(&self, t: Timestamp) -> Option<usize> {
        if t < self.t_qs || t >= self.t_qe {
            return None;
        }
        let num = (self.w as i128) * (i128::from(t) - i128::from(self.t_qs));
        Some((num / i128::from(self.range_len())) as usize)
    }

    /// The inclusive time range of span `i` (0-based): all integral
    /// timestamps `t` with `span_of(t) == i`. May be empty when
    /// `w > range_len` (more pixel columns than milliseconds).
    pub fn span_range(&self, i: usize) -> TimeRange {
        debug_assert!(i < self.w);
        let len = i128::from(self.range_len());
        let w = self.w as i128;
        // First t with w·(t − t_qs) ≥ i·len  →  t − t_qs = ceil(i·len/w).
        let start = i128::from(self.t_qs) + (i as i128 * len + w - 1) / w;
        // Last t with w·(t − t_qs) < (i+1)·len → t − t_qs = ceil((i+1)·len/w) − 1.
        let end = i128::from(self.t_qs) + ((i as i128 + 1) * len + w - 1) / w - 1;
        TimeRange::new(start as i64, end as i64)
    }

    /// Iterate all span ranges in order.
    pub fn spans(&self) -> impl Iterator<Item = TimeRange> + '_ {
        (0..self.w).map(|i| self.span_range(i))
    }
}

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets library code.
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )]

    use super::*;

    #[test]
    fn validation() {
        assert!(M4Query::new(0, 100, 4).is_ok());
        assert!(matches!(
            M4Query::new(100, 100, 4),
            Err(M4Error::EmptyQueryRange { .. })
        ));
        assert!(matches!(
            M4Query::new(100, 50, 4),
            Err(M4Error::EmptyQueryRange { .. })
        ));
        assert!(matches!(M4Query::new(0, 100, 0), Err(M4Error::ZeroSpans)));
        assert!(M4Query::new(0, 100, MAX_SPANS).is_ok());
        assert!(matches!(
            M4Query::new(0, 100, MAX_SPANS + 1),
            Err(M4Error::TooManySpans { .. })
        ));
    }

    #[test]
    fn spans_tile_the_range_exactly() {
        for (qs, qe, w) in [(0i64, 100i64, 4usize), (0, 7, 3), (-50, 37, 10), (0, 3, 7)] {
            let q = M4Query::new(qs, qe, w).unwrap();
            // Every t maps to exactly one span, and that span's range
            // contains it.
            for t in qs..qe {
                let i = q.span_of(t).unwrap();
                assert!(i < w);
                assert!(q.span_range(i).contains(t), "t={t} span={i} q={q:?}");
                // No other span contains it.
                for j in 0..w {
                    if j != i {
                        assert!(!q.span_range(j).contains(t), "t={t} in spans {i} and {j}");
                    }
                }
            }
            // Outside the range: no span.
            assert_eq!(q.span_of(qs - 1), None);
            assert_eq!(q.span_of(qe), None);
        }
    }

    #[test]
    fn even_division_gives_equal_spans() {
        let q = M4Query::new(0, 100, 4).unwrap();
        assert_eq!(q.span_range(0), TimeRange::new(0, 24));
        assert_eq!(q.span_range(1), TimeRange::new(25, 49));
        assert_eq!(q.span_range(2), TimeRange::new(50, 74));
        assert_eq!(q.span_range(3), TimeRange::new(75, 99));
    }

    #[test]
    fn more_spans_than_milliseconds() {
        let q = M4Query::new(0, 3, 7).unwrap();
        // Some spans are empty; the non-empty ones cover {0, 1, 2}.
        let mut covered = Vec::new();
        for r in q.spans() {
            if !r.is_empty() {
                for t in r.start..=r.end {
                    covered.push(t);
                }
            }
        }
        assert_eq!(covered, vec![0, 1, 2]);
    }

    #[test]
    fn epoch_millis_no_overflow() {
        // 1 year of milliseconds at w = 10000 would overflow i64 in the
        // naive w·(t−t_qs) product near the end of the range.
        let qs = 1_600_000_000_000i64;
        let qe = qs + 365 * 24 * 3600 * 1000;
        let q = M4Query::new(qs, qe, 10_000).unwrap();
        assert_eq!(q.span_of(qe - 1), Some(9999));
        assert_eq!(q.span_of(qs), Some(0));
        let last = q.span_range(9999);
        assert_eq!(last.end, qe - 1);
    }

    #[test]
    fn full_range_inclusive() {
        let q = M4Query::new(10, 20, 2).unwrap();
        assert_eq!(q.full_range(), TimeRange::new(10, 19));
        assert_eq!(q.range_len(), 10);
    }
}
