//! Streaming (incremental) M4: maintain a live representation as
//! points arrive, without re-running the query.
//!
//! The paper's operators answer one-shot queries over a storage
//! snapshot; a live dashboard additionally wants the *current* window
//! to refresh as data streams in. For in-order appends the M4
//! representation is incrementally maintainable in O(1) per point
//! (each point can only extend LP and the extremes of its own span) —
//! this module provides that, plus the fallback rule: out-of-order or
//! overwriting input invalidates the affected span, which is then
//! recomputed from storage on demand.

use tsfile::types::Point;

use crate::query::M4Query;
use crate::repr::{M4Result, SpanRepr};

/// Incrementally maintained M4 representation of a fixed query window.
#[derive(Debug, Clone)]
pub struct StreamingM4 {
    query: M4Query,
    spans: Vec<Option<SpanRepr>>,
    /// Spans whose contents may be stale (received out-of-order or
    /// duplicate input) and need recomputation from storage.
    dirty: Vec<bool>,
    /// Largest timestamp ingested so far.
    watermark: Option<i64>,
}

impl StreamingM4 {
    /// Empty representation for `query`.
    pub fn new(query: M4Query) -> Self {
        StreamingM4 {
            spans: vec![None; query.w],
            dirty: vec![false; query.w],
            query,
            watermark: None,
        }
    }

    /// The query this stream maintains.
    pub fn query(&self) -> &M4Query {
        &self.query
    }

    /// Ingest one point. In-order points (strictly beyond the
    /// watermark) update the representation exactly; anything else
    /// marks its span dirty. Points outside the window are ignored.
    pub fn ingest(&mut self, p: Point) {
        let Some(i) = self.query.span_of(p.t) else {
            if self.watermark.is_none_or(|w| p.t > w) {
                self.watermark = Some(p.t);
            }
            return;
        };
        let in_order = self.watermark.is_none_or(|w| p.t > w);
        if in_order {
            self.watermark = Some(p.t);
            SpanRepr::fold(&mut self.spans[i], SpanRepr::point(p));
        } else {
            // A duplicate timestamp overwrites; an earlier timestamp
            // changes FP/extremes in unknown ways. Either way the span
            // can no longer be maintained incrementally.
            self.dirty[i] = true;
        }
    }

    /// Ingest a batch (see [`Self::ingest`]).
    pub fn ingest_all(&mut self, points: &[Point]) {
        for p in points {
            self.ingest(*p);
        }
    }

    /// Spans currently marked dirty (need [`Self::repair`]).
    pub fn dirty_spans(&self) -> Vec<usize> {
        self.dirty
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| i)
            .collect()
    }

    /// Replace a dirty span with an authoritative recomputation (e.g.
    /// one span of an [`crate::M4Lsm`] execution over the store).
    pub fn repair(&mut self, span: usize, authoritative: Option<SpanRepr>) {
        self.spans[span] = authoritative;
        self.dirty[span] = false;
    }

    /// Current representation. Dirty spans are returned as-is (stale);
    /// consult [`Self::dirty_spans`] to know which.
    pub fn current(&self) -> M4Result {
        M4Result {
            spans: self.spans.clone(),
        }
    }

    /// Whether every span is exact (no dirty spans).
    pub fn is_exact(&self) -> bool {
        !self.dirty.iter().any(|&d| d)
    }

    /// Largest timestamp observed so far (in- or out-of-window).
    pub fn watermark(&self) -> Option<i64> {
        self.watermark
    }

    /// Advance the watermark without ingesting a point. Used after a
    /// [`Self::repair`] from an authoritative store snapshot: points the
    /// snapshot already covered must not be treated as fresh in-order
    /// input when their (older) notifications are replayed later.
    pub fn observe_watermark(&mut self, t: i64) {
        if self.watermark.is_none_or(|w| t > w) {
            self.watermark = Some(t);
        }
    }

    /// Mark every span overlapping `[start, end]` (inclusive, in
    /// timestamp space) dirty. This is the reaction to a range delete:
    /// affected spans can shrink in ways incremental maintenance
    /// cannot express, so they must be repaired from storage.
    pub fn invalidate_range(&mut self, start: i64, end: i64) {
        if start > end {
            return;
        }
        let (t_qs, t_qe) = (self.query.t_qs, self.query.t_qe);
        if end < t_qs || start >= t_qe {
            return;
        }
        let lo = self.query.span_of(start.max(t_qs)).unwrap_or(0);
        let hi = self
            .query
            .span_of(end.min(t_qe - 1))
            .unwrap_or(self.query.w.saturating_sub(1));
        for i in lo..=hi.min(self.query.w.saturating_sub(1)) {
            if let Some(d) = self.dirty.get_mut(i) {
                *d = true;
            }
        }
    }

    /// Mark every span dirty: the maintained state can no longer be
    /// trusted at all (e.g. the feeding notification channel reported
    /// lost events) and must be rebuilt from an authoritative snapshot.
    pub fn invalidate_all(&mut self) {
        for d in &mut self.dirty {
            *d = true;
        }
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
    use crate::oracle::m4_scan;

    fn q(w: usize) -> M4Query {
        M4Query::new(0, 1_000, w).unwrap()
    }

    #[test]
    fn in_order_stream_matches_oracle() {
        let query = q(10);
        let mut s = StreamingM4::new(query);
        let points: Vec<Point> = (0..1_000)
            .map(|t| Point::new(t, ((t * 37) % 101) as f64))
            .collect();
        s.ingest_all(&points);
        assert!(s.is_exact());
        let expected = m4_scan(&points, &query);
        assert!(s.current().equivalent(&expected));
    }

    #[test]
    fn incremental_prefix_always_matches() {
        let query = q(7);
        let mut s = StreamingM4::new(query);
        let points: Vec<Point> = (0..500)
            .map(|t| Point::new(t * 2, (t % 13) as f64))
            .collect();
        for (i, p) in points.iter().enumerate() {
            s.ingest(*p);
            if i % 97 == 0 {
                let expected = m4_scan(&points[..=i], &query);
                assert!(s.current().equivalent(&expected), "after {} points", i + 1);
            }
        }
    }

    #[test]
    fn out_of_order_marks_dirty_and_repair_fixes() {
        let query = q(4);
        let mut s = StreamingM4::new(query);
        s.ingest(Point::new(100, 1.0));
        s.ingest(Point::new(500, 2.0));
        assert!(s.is_exact());
        // Late arrival into span 0.
        s.ingest(Point::new(50, 9.0));
        assert_eq!(s.dirty_spans(), vec![0]);
        // Span 2 (the in-order one) is still exact.
        let all = vec![
            Point::new(50, 9.0),
            Point::new(100, 1.0),
            Point::new(500, 2.0),
        ];
        let expected = m4_scan(&all, &query);
        s.repair(0, expected.spans[0]);
        assert!(s.is_exact());
        assert!(s.current().equivalent(&expected));
    }

    #[test]
    fn duplicate_timestamp_marks_dirty() {
        let query = q(2);
        let mut s = StreamingM4::new(query);
        s.ingest(Point::new(10, 1.0));
        s.ingest(Point::new(10, 2.0)); // overwrite
        assert_eq!(s.dirty_spans(), vec![0]);
    }

    #[test]
    fn out_of_window_points_ignored() {
        let query = q(2);
        let mut s = StreamingM4::new(query);
        s.ingest(Point::new(-5, 1.0));
        s.ingest(Point::new(1_000, 1.0));
        s.ingest(Point::new(2_000, 1.0));
        assert_eq!(s.current().non_empty(), 0);
        assert!(s.is_exact());
        // Watermark still advanced: a later in-window point is in-order.
        s.ingest(Point::new(500, 3.0));
        assert_eq!(s.dirty_spans(), vec![1]); // 500 < watermark 2000 → dirty
    }

    #[test]
    fn invalidate_range_marks_overlapping_spans() {
        let query = q(4); // spans of 250 each over [0, 1000)
        let mut s = StreamingM4::new(query);
        s.ingest(Point::new(100, 1.0));
        s.ingest(Point::new(600, 2.0));
        assert!(s.is_exact());
        // A delete over [200, 300] touches spans 0 and 1.
        s.invalidate_range(200, 300);
        assert_eq!(s.dirty_spans(), vec![0, 1]);
        // Ranges fully outside the window are no-ops.
        let mut t = StreamingM4::new(query);
        t.invalidate_range(-50, -1);
        t.invalidate_range(1_000, 2_000);
        t.invalidate_range(10, 5); // inverted
        assert!(t.is_exact());
        // A range straddling the window edges clamps to valid spans.
        t.invalidate_range(-100, 10_000);
        assert_eq!(t.dirty_spans(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn invalidate_all_then_repair_rebuilds() {
        let query = q(2);
        let mut s = StreamingM4::new(query);
        s.ingest(Point::new(10, 1.0));
        s.invalidate_all();
        assert_eq!(s.dirty_spans(), vec![0, 1]);
        let all = vec![Point::new(10, 1.0)];
        let expected = m4_scan(&all, &query);
        s.repair(0, expected.spans[0]);
        s.repair(1, expected.spans[1]);
        assert!(s.is_exact());
        assert!(s.current().equivalent(&expected));
    }

    #[test]
    fn observe_watermark_guards_replayed_input() {
        let query = q(2);
        let mut s = StreamingM4::new(query);
        assert_eq!(s.watermark(), None);
        // A repair covered data up to t=700; record that.
        s.observe_watermark(700);
        assert_eq!(s.watermark(), Some(700));
        // Replayed notification for an already-covered point must not
        // take the in-order fast path (it would corrupt LP).
        s.ingest(Point::new(600, 1.0));
        assert_eq!(s.dirty_spans(), vec![1]);
        // Observing an older timestamp never regresses the watermark.
        s.observe_watermark(10);
        assert_eq!(s.watermark(), Some(700));
    }

    #[test]
    fn empty_stream_is_empty_exact() {
        let s = StreamingM4::new(q(3));
        assert!(s.is_exact());
        assert_eq!(s.current().non_empty(), 0);
        assert_eq!(s.query().w, 3);
    }
}
