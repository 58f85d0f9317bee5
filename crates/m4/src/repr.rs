//! Representation functions and result types (Definition 2.1).

use tsfile::types::Point;

/// The four M4 representation points of one time span's subsequence.
///
/// `bottom`/`top` may be any point attaining the extreme value
/// (Definition 2.1 allows ties to resolve arbitrarily); equality of two
/// results therefore compares bottom/top by *value* and first/last by
/// full point — see [`SpanRepr::equivalent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRepr {
    /// FP(Tᵢ): the point with minimal time.
    pub first: Point,
    /// LP(Tᵢ): the point with maximal time.
    pub last: Point,
    /// BP(Tᵢ): a point with minimal value.
    pub bottom: Point,
    /// TP(Tᵢ): a point with maximal value.
    pub top: Point,
}

impl SpanRepr {
    /// The representation of a span holding the one point `p`.
    pub fn point(p: Point) -> Self {
        SpanRepr {
            first: p,
            last: p,
            bottom: p,
            top: p,
        }
    }

    /// Compute the representation of a non-empty, time-sorted slice.
    /// Ties on value resolve to the earliest point.
    pub fn from_sorted_points(points: &[Point]) -> Option<Self> {
        let mut acc = None;
        for &p in points {
            SpanRepr::fold(&mut acc, SpanRepr::point(p));
        }
        acc
    }

    /// Fold `later`, the representation of points that all come after
    /// those `acc` has taken, into `acc` (`None` when it has taken
    /// none). A value tie keeps the earlier point, as [`crate::oracle`]
    /// does.
    pub fn fold(acc: &mut Option<SpanRepr>, later: SpanRepr) {
        let Some(r) = acc else {
            *acc = Some(later);
            return;
        };
        r.last = later.last;
        if later.bottom.v.total_cmp(&r.bottom.v).is_lt() {
            r.bottom = later.bottom;
        }
        if later.top.v.total_cmp(&r.top.v).is_gt() {
            r.top = later.top;
        }
    }

    /// Representation equivalence: identical first/last points and
    /// equal bottom/top *values* (Definition 2.1: any point attaining
    /// the extreme value is a valid BP/TP; only values drive the
    /// inner-column pixels).
    pub fn equivalent(&self, other: &SpanRepr) -> bool {
        point_eq(self.first, other.first)
            && point_eq(self.last, other.last)
            && self.bottom.v.total_cmp(&other.bottom.v).is_eq()
            && self.top.v.total_cmp(&other.top.v).is_eq()
    }
}

/// Point equality under total value ordering (NaN == NaN; -0.0 ≠ 0.0).
fn point_eq(a: Point, b: Point) -> bool {
    a.t == b.t && a.v.total_cmp(&b.v).is_eq()
}

/// The result of an M4 query: one optional [`SpanRepr`] per span
/// (`None` for spans holding no points).
#[derive(Debug, Clone, PartialEq)]
pub struct M4Result {
    pub spans: Vec<Option<SpanRepr>>,
}

impl M4Result {
    /// Number of spans (the query's `w`).
    pub fn width(&self) -> usize {
        self.spans.len()
    }

    /// Number of non-empty spans.
    pub fn non_empty(&self) -> usize {
        self.spans.iter().filter(|s| s.is_some()).count()
    }

    /// Representation equivalence across all spans (see
    /// [`SpanRepr::equivalent`]).
    pub fn equivalent(&self, other: &M4Result) -> bool {
        self.spans.len() == other.spans.len()
            && self
                .spans
                .iter()
                .zip(&other.spans)
                .all(|(a, b)| match (a, b) {
                    (None, None) => true,
                    (Some(a), Some(b)) => a.equivalent(b),
                    _ => false,
                })
    }

    /// Flatten to the at-most-4w representation points, in span order
    /// (first, last, bottom, top per span), deduplicated per span.
    pub fn points(&self) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.non_empty() * 4);
        for s in self.spans.iter().flatten() {
            let mut span_pts = [s.first, s.bottom, s.top, s.last];
            span_pts.sort_by(|a, b| a.t.cmp(&b.t).then(a.v.total_cmp(&b.v)));
            for (i, p) in span_pts.iter().enumerate() {
                if i == 0 || span_pts[i - 1] != *p {
                    out.push(*p);
                }
            }
        }
        out
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

    fn pts(raw: &[(i64, f64)]) -> Vec<Point> {
        raw.iter().map(|&(t, v)| Point::new(t, v)).collect()
    }

    #[test]
    fn from_sorted_points_basic() {
        let points = pts(&[(1, 5.0), (2, -3.0), (3, 9.0), (4, 0.0)]);
        let r = SpanRepr::from_sorted_points(&points).unwrap();
        assert_eq!(r.first, Point::new(1, 5.0));
        assert_eq!(r.last, Point::new(4, 0.0));
        assert_eq!(r.bottom, Point::new(2, -3.0));
        assert_eq!(r.top, Point::new(3, 9.0));
        // Folding a later run whose extremes only tie keeps the earlier
        // points, as the oracle's scan does.
        let mut acc = Some(r);
        let later = pts(&[(5, 9.0), (6, -3.0)]);
        SpanRepr::fold(&mut acc, SpanRepr::from_sorted_points(&later).unwrap());
        let r = acc.unwrap();
        assert_eq!((r.first, r.last), (Point::new(1, 5.0), Point::new(6, -3.0)));
        assert_eq!((r.bottom, r.top), (Point::new(2, -3.0), Point::new(3, 9.0)));
    }

    #[test]
    fn empty_slice_gives_none() {
        assert!(SpanRepr::from_sorted_points(&[]).is_none());
    }

    #[test]
    fn single_point_is_all_four() {
        let r = SpanRepr::from_sorted_points(&pts(&[(7, 3.0)])).unwrap();
        assert_eq!(r.first, r.last);
        assert_eq!(r.bottom, r.top);
        assert_eq!(r.first, Point::new(7, 3.0));
    }

    #[test]
    fn equivalence_ignores_extreme_tie_times() {
        let a = SpanRepr {
            first: Point::new(1, 0.0),
            last: Point::new(9, 0.0),
            bottom: Point::new(3, -5.0),
            top: Point::new(4, 5.0),
        };
        let mut b = a;
        b.bottom = Point::new(7, -5.0); // same value, different time
        assert!(a.equivalent(&b));
        b.top = Point::new(4, 6.0); // different value
        assert!(!a.equivalent(&b));
    }

    #[test]
    fn result_points_dedup() {
        let r = M4Result {
            spans: vec![
                Some(SpanRepr::from_sorted_points(&pts(&[(7, 3.0)])).unwrap()),
                None,
                Some(SpanRepr::from_sorted_points(&pts(&[(10, 1.0), (11, 2.0)])).unwrap()),
            ],
        };
        assert_eq!(r.width(), 3);
        assert_eq!(r.non_empty(), 2);
        // Span 0 collapses to one point; span 2 to two.
        assert_eq!(r.points(), pts(&[(7, 3.0), (10, 1.0), (11, 2.0)]));
    }
}
