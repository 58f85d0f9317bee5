//! The in-memory write buffer of one series.
//!
//! Sensor data arrives almost entirely in time order, so the buffer is
//! an append-ordered run plus a small overlay for the exceptions (the
//! shape IoTDB's own memtable has):
//!
//! * `run` — a `Vec<Point>` **strictly increasing in time**. A point
//!   past its tail is pushed in O(1); a point whose timestamp is
//!   already in the run overwrites it in place (binary search).
//! * `overlay` — a `BTreeMap` holding only late points: timestamps
//!   **below the run's tail and not in the run**.
//!
//! The two stay key-disjoint, so every timestamp is buffered once,
//! `len()` is exact, and re-inserting a timestamp overwrites (an
//! in-memory update needs no version bookkeeping — only flushed,
//! immutable chunks do). Because the overlay never reaches past the
//! run's tail, the append path never looks at it. Deletes covering
//! buffered points remove them immediately, so the memtable always
//! holds only latest points.

use std::collections::BTreeMap;

use tsfile::types::{Point, TimeRange, Timestamp, Value};

/// Sorted in-memory buffer of one series' unflushed points.
#[derive(Debug, Default)]
pub struct MemTable {
    run: Vec<Point>,
    overlay: BTreeMap<Timestamp, Value>,
}

impl MemTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `t` lies past everything buffered.
    fn past_tail(&self, t: Timestamp) -> bool {
        self.run.last().is_none_or(|last| t > last.t)
    }

    /// The buffered value at `t`, which is not past the tail.
    fn held(&mut self, t: Timestamp) -> Option<&mut Value> {
        let hit = self.run.binary_search_by_key(&t, |p| p.t).ok();
        match hit.and_then(|i| self.run.get_mut(i)) {
            Some(p) => Some(&mut p.v),
            None => self.overlay.get_mut(&t),
        }
    }

    /// Insert or overwrite a point. Returns `true` if the timestamp was
    /// new, `false` if it overwrote a buffered point.
    pub fn insert(&mut self, p: Point) -> bool {
        if self.past_tail(p.t) {
            self.run.push(p);
            return true;
        }
        match self.held(p.t) {
            Some(v) => {
                *v = p.v;
                false
            }
            None => self.overlay.insert(p.t, p.v).is_none(),
        }
    }

    /// Insert a point only if its timestamp is not already buffered.
    /// Used when returning points to the buffer after a failed flush:
    /// anything re-written in the meantime is newer and must win.
    pub fn insert_if_absent(&mut self, p: Point) -> bool {
        if self.past_tail(p.t) {
            self.run.push(p);
            return true;
        }
        self.held(p.t).is_none() && self.overlay.insert(p.t, p.v).is_none()
    }

    /// Insert or overwrite a batch, in order. A batch that is strictly
    /// increasing and wholly past the tail — the in-order sensor case —
    /// is one `memcpy` onto the run.
    pub fn extend(&mut self, points: &[Point]) {
        let Some(first) = points.first() else {
            return;
        };
        let in_order = self.past_tail(first.t)
            && points
                .iter()
                .zip(points.iter().skip(1))
                .all(|(a, b)| a.t < b.t);
        if in_order {
            self.run.extend_from_slice(points);
        } else {
            for p in points {
                self.insert(*p);
            }
        }
    }

    /// Remove all buffered points covered by `range`; returns how many
    /// were removed.
    pub fn delete_range(&mut self, range: TimeRange) -> usize {
        if range.is_empty() {
            return 0;
        }
        let lo = self.run.partition_point(|p| p.t < range.start);
        let hi = self.run.partition_point(|p| p.t <= range.end);
        let from_run = self.run.drain(lo..hi).count();
        let doomed: Vec<Timestamp> = self
            .overlay
            .range(range.start..=range.end)
            .map(|(&t, _)| t)
            .collect();
        for t in &doomed {
            self.overlay.remove(t);
        }
        // A cut-back tail may now sit below overlay keys; those move
        // onto the run (they are sorted and past it), which keeps the
        // overlay below the tail.
        let stranded = match self.run.last() {
            Some(last) => match last.t.checked_add(1) {
                Some(above) => self.overlay.split_off(&above),
                None => BTreeMap::new(),
            },
            None => std::mem::take(&mut self.overlay),
        };
        self.run
            .extend(stranded.into_iter().map(|(t, v)| Point::new(t, v)));
        from_run + doomed.len()
    }

    /// Number of buffered points.
    pub fn len(&self) -> usize {
        self.run.len() + self.overlay.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Time range spanned by buffered points, if any.
    pub fn time_range(&self) -> Option<TimeRange> {
        let (first, last) = self.run.first().zip(self.run.last())?;
        let first = match self.overlay.keys().next() {
            Some(&late) => late.min(first.t),
            None => first.t,
        };
        Some(TimeRange::new(first, last.t))
    }

    /// Copy the buffered points in time order without draining.
    pub fn to_points(&self) -> Vec<Point> {
        if self.overlay.is_empty() {
            return self.run.clone();
        }
        merge(&self.run, &self.overlay)
    }

    /// Drain all buffered points in time order (the flush path).
    pub fn drain_sorted(&mut self) -> Vec<Point> {
        let run = std::mem::take(&mut self.run);
        if self.overlay.is_empty() {
            return run;
        }
        merge(&run, &std::mem::take(&mut self.overlay))
    }
}

/// Merge the run and the overlay (each sorted, key-disjoint) into one
/// time-ordered vector.
fn merge(run: &[Point], overlay: &BTreeMap<Timestamp, Value>) -> Vec<Point> {
    let mut out = Vec::with_capacity(run.len() + overlay.len());
    let mut run = run.iter().peekable();
    for (&t, &v) in overlay {
        while let Some(p) = run.next_if(|p| p.t < t) {
            out.push(*p);
        }
        out.push(Point::new(t, v));
    }
    out.extend(run);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_sorted_and_dedups() {
        let mut m = MemTable::new();
        assert!(m.insert(Point::new(30, 3.0)));
        assert!(m.insert(Point::new(10, 1.0)));
        assert!(m.insert(Point::new(20, 2.0)));
        assert!(!m.insert(Point::new(20, 9.0))); // overwrite
        assert_eq!(m.len(), 3);
        let pts = m.to_points();
        assert_eq!(
            pts,
            vec![
                Point::new(10, 1.0),
                Point::new(20, 9.0),
                Point::new(30, 3.0)
            ]
        );
    }

    #[test]
    fn insert_if_absent_never_overwrites() {
        let mut m = MemTable::new();
        assert!(m.insert_if_absent(Point::new(10, 1.0)));
        m.insert(Point::new(20, 2.0));
        assert!(!m.insert_if_absent(Point::new(20, 9.0)));
        assert_eq!(
            m.to_points(),
            vec![Point::new(10, 1.0), Point::new(20, 2.0)]
        );
    }

    #[test]
    fn delete_range_inclusive() {
        let mut m = MemTable::new();
        for t in [10, 20, 30, 40] {
            m.insert(Point::new(t, t as f64));
        }
        assert_eq!(m.delete_range(TimeRange::new(20, 30)), 2);
        assert_eq!(
            m.to_points(),
            vec![Point::new(10, 10.0), Point::new(40, 40.0)]
        );
        assert_eq!(m.delete_range(TimeRange::new(100, 200)), 0);
        assert_eq!(m.delete_range(TimeRange::new(30, 20)), 0); // empty range
    }

    #[test]
    fn drain_empties() {
        let mut m = MemTable::new();
        m.insert(Point::new(5, 1.0));
        m.insert(Point::new(1, 2.0));
        let pts = m.drain_sorted();
        assert_eq!(pts, vec![Point::new(1, 2.0), Point::new(5, 1.0)]);
        assert!(m.is_empty());
        assert!(m.time_range().is_none());
    }

    #[test]
    fn time_range_tracks_extremes() {
        let mut m = MemTable::new();
        assert!(m.time_range().is_none());
        m.insert(Point::new(50, 0.0));
        m.insert(Point::new(-10, 0.0));
        assert_eq!(m.time_range(), Some(TimeRange::new(-10, 50)));
    }
}
