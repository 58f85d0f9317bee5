//! Multi-series write batches.
//!
//! A [`WriteBatch`] accumulates points for any number of series and is
//! applied in one [`crate::TsKv::write_batch`] call: the engine groups
//! the touched series by shard, takes each shard's write lock once,
//! and drains the shard's WAL frames in a single group-commit
//! syscall. Building the batch does no I/O and takes no locks, so
//! producers can assemble batches concurrently and hand them to the
//! engine at their own cadence.
//!
//! Within one series, points keep insertion order (later duplicates
//! overwrite, same as [`crate::TsKv::insert_batch`]). Order *between*
//! series in a batch is not meaningful: each series' points are applied
//! atomically under its shard lock, but two series in different shards
//! may be applied in either order relative to concurrent writers.

use std::collections::HashMap;

use tsfile::types::Point;

/// A buffered set of writes across one or more series.
#[derive(Debug, Default, Clone)]
pub struct WriteBatch {
    /// Per-series point runs, in first-touch order.
    entries: Vec<(String, Vec<Point>)>,
    /// Series name → index into `entries`.
    index: HashMap<String, usize>,
    /// Total points across all series.
    len: usize,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue one point for `series`.
    pub fn insert(&mut self, series: &str, p: Point) {
        self.insert_many(series, std::slice::from_ref(&p));
    }

    /// Queue a run of points for `series` (any time order; duplicates
    /// overwrite at apply time). Empty runs are ignored.
    pub fn insert_many(&mut self, series: &str, points: &[Point]) {
        if points.is_empty() {
            return;
        }
        let idx = match self.index.get(series) {
            Some(&i) => i,
            None => {
                self.entries.push((series.to_string(), Vec::new()));
                let i = self.entries.len() - 1;
                self.index.insert(series.to_string(), i);
                i
            }
        };
        if let Some((_, run)) = self.entries.get_mut(idx) {
            run.extend_from_slice(points);
            self.len += points.len();
        }
    }

    /// Total queued points across all series.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no points are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct series touched.
    pub fn series_count(&self) -> usize {
        self.entries.len()
    }

    /// Iterate the queued `(series, points)` runs in first-touch order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &[Point])> {
        self.entries.iter().map(|(n, p)| (n.as_str(), p.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_groups_points_by_series_in_first_touch_order() {
        let mut b = WriteBatch::new();
        assert!(b.is_empty());
        b.insert("b", Point::new(1, 1.0));
        b.insert_many("a", &[Point::new(2, 2.0), Point::new(3, 3.0)]);
        b.insert("b", Point::new(4, 4.0));
        b.insert_many("a", &[]);
        assert_eq!(b.len(), 4);
        assert_eq!(b.series_count(), 2);
        let runs: Vec<(&str, usize)> = b.entries().map(|(n, p)| (n, p.len())).collect();
        assert_eq!(runs, vec![("b", 2), ("a", 2)]);
        let b_pts: Vec<i64> = b
            .entries()
            .find(|(n, _)| *n == "b")
            .map(|(_, p)| p.iter().map(|p| p.t).collect())
            .unwrap_or_default();
        assert_eq!(b_pts, vec![1, 4]);
    }
}
