//! The fragment table: everything one M4-LSM query knows about each
//! fragment it can touch, in one row.
//!
//! A fragment is one chunk ([`tskv::ChunkHandle`]: a chunk is one page).
//! Its row borrows what is known without I/O — statistics, version,
//! time range — and owns the two things a query may pay for: the
//! decoded chunk and its decoded timestamp column. A chunk split by a
//! span boundary is needed by two adjacent spans and a chunk probed for
//! one candidate may be probed for another; both find the row filled,
//! so in one query a chunk's timestamps are read at most once and its
//! body is loaded at most once (Figure 7(b)).
//!
//! The table sits on the engine's cross-query decoded-chunk LRU: full
//! loads go through the snapshot's loaders, which consult the LRU
//! first, so a row only pins the chunk for this query. Timestamp
//! columns the LRU deliberately does not cache. Both slots are
//! `OnceLock`s: a filled slot is read with no lock at all, and a miss
//! reads and decodes before it publishes.

use std::sync::{Arc, OnceLock};

use tsfile::statistics::ChunkStatistics;
use tsfile::types::{Point, TimeRange, Timestamp, Version};
use tskv::{ChunkHandle, SeriesSnapshot};

use crate::Result;

/// One row: a chunk and this query's state for it.
#[derive(Debug)]
pub(crate) struct Fragment<'a> {
    chunk: &'a ChunkHandle,
    /// The decoded chunk, raw (not clipped to a span, deletes not
    /// applied). Filled once; "already paid for" is `get().is_some()`.
    points: OnceLock<Arc<Vec<Point>>>,
    /// The chunk's whole timestamp column, read by the first probe that
    /// finds `points` empty.
    timestamps: OnceLock<Vec<Timestamp>>,
}

impl Fragment<'_> {
    /// The version `κ` of the fragment.
    pub fn version(&self) -> Version {
        self.chunk.version
    }

    /// The chunk's statistics; they describe the fragment's points in a
    /// span only when the span contains the whole fragment.
    pub fn stats(&self) -> &ChunkStatistics {
        &self.chunk.stats
    }

    /// The fragment's (unclipped) time interval.
    pub fn range(&self) -> TimeRange {
        self.chunk.time_range()
    }

    /// The decoded chunk, if this query has loaded it already.
    pub fn loaded(&self) -> Option<&[Point]> {
        self.points.get().map(|p| p.as_slice())
    }
}

/// The rows of one query, in snapshot (= version) order, shared by
/// its span executors.
#[derive(Debug)]
pub(crate) struct FragmentTable<'a> {
    snapshot: &'a SeriesSnapshot,
    rows: Vec<Fragment<'a>>,
}

impl<'a> FragmentTable<'a> {
    /// One row per chunk overlapping `range`: chunks outside the query
    /// are never looked at, let alone touched.
    pub fn new(snapshot: &'a SeriesSnapshot, range: TimeRange) -> Self {
        let rows = snapshot
            .chunks_overlapping(range)
            .into_iter()
            .map(|chunk| Fragment {
                chunk,
                points: OnceLock::new(),
                timestamps: OnceLock::new(),
            })
            .collect();
        FragmentTable { snapshot, rows }
    }

    pub fn rows(&self) -> &[Fragment<'a>] {
        &self.rows
    }

    /// Load `rows` in one batch and keep each in its row.
    pub fn load(&self, rows: &[&Fragment<'a>]) -> Result<()> {
        let chunks: Vec<&ChunkHandle> = rows.iter().map(|f| f.chunk).collect();
        for (f, pts) in rows.iter().zip(self.snapshot.read_points_many(&chunks)?) {
            self.snapshot.io().record_lsm_points(pts.len() as u64);
            f.points.get_or_init(|| pts);
        }
        Ok(())
    }

    /// Full load of a fragment (raw points, unfiltered), through the
    /// one loader; kept in the row.
    pub fn points<'t>(&self, f: &'t Fragment<'_>) -> Result<&'t [Point]> {
        if let Some(pts) = f.loaded() {
            return Ok(pts);
        }
        let pts = self.snapshot.read_points(f.chunk)?;
        self.snapshot.io().record_lsm_points(pts.len() as u64);
        Ok(f.points.get_or_init(|| pts))
    }

    /// Count a fragment answered from its statistics alone (no chunk
    /// body read) toward the engine's I/O counters.
    pub fn note_stat_answered(&self) {
        self.snapshot.io().record_page_stat_answered();
    }

    /// Timestamp-membership probe: does the fragment contain a point at
    /// exactly `t`? Binary searches the loaded points when available;
    /// otherwise the chunk's timestamp column, read whole by the first
    /// probe of the row and kept.
    pub fn contains_timestamp(&self, f: &Fragment<'_>, t: Timestamp) -> Result<bool> {
        self.snapshot.io().record_lsm_probe();
        if let Some(pts) = f.loaded() {
            return Ok(pts.binary_search_by_key(&t, |p| p.t).is_ok());
        }
        let ts = match f.timestamps.get() {
            Some(ts) => ts,
            None => {
                let ts = self.snapshot.read_timestamps(f.chunk)?;
                f.timestamps.get_or_init(|| ts)
            }
        };
        Ok(ts.binary_search(&t).is_ok())
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
    use testdir::TestDir;
    use tsfile::types::Point;
    use tskv::config::EngineConfig;
    use tskv::TsKv;

    fn fixture() -> (TestDir, TsKv) {
        let dir = TestDir::new("m4-cache");
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 1000,
                memtable_threshold: 1000,
                ..Default::default()
            },
        )
        .unwrap();
        for t in 0..1000i64 {
            kv.insert("s", Point::new(t * 100, t as f64)).unwrap();
        }
        kv.flush_all().unwrap();
        (dir, kv)
    }

    /// The table of the whole fixture series: one row, its one chunk.
    fn whole(snap: &SeriesSnapshot) -> FragmentTable<'_> {
        let table = FragmentTable::new(snap, TimeRange::new(Timestamp::MIN, Timestamp::MAX));
        assert_eq!(table.rows().len(), 1);
        table
    }

    #[test]
    fn points_loaded_once() {
        let (_dir, kv) = fixture();
        let snap = kv.snapshot("s").unwrap();
        let table = whole(&snap);
        let row = &table.rows()[0];
        assert!(row.loaded().is_none());
        let before = snap.io().snapshot();
        let a = table.points(row).unwrap();
        let b = table.points(row).unwrap();
        assert!(std::ptr::eq(a, b));
        let delta = snap.io().snapshot() - before;
        assert_eq!(delta.chunks_loaded, 1, "second call must hit the row");
        assert!(row.loaded().is_some());
    }

    /// Probes past, beyond and below the first one's timestamp are all
    /// answered from the one column the first probe read.
    #[test]
    fn probes_read_a_chunk_once() {
        let (_dir, kv) = fixture();
        let snap = kv.snapshot("s").unwrap();
        let table = whole(&snap);
        let row = &table.rows()[0];
        let before = snap.io().snapshot();
        // Grid is t*100: 5_000 is a hit.
        assert!(table.contains_timestamp(row, 5_000).unwrap());
        assert!(table.contains_timestamp(row, 90_000).unwrap());
        assert!(table.contains_timestamp(row, 4_900).unwrap());
        assert!(!table.contains_timestamp(row, 4_901).unwrap());
        let delta = snap.io().snapshot() - before;
        assert_eq!(delta.chunks_loaded, 1, "one timestamp read for every probe");
        assert_eq!((delta.timestamps_decoded, delta.points_decoded), (1000, 0));
        assert!(row.loaded().is_none());
    }

    #[test]
    fn loaded_points_answer_probes_without_new_io() {
        let (_dir, kv) = fixture();
        let snap = kv.snapshot("s").unwrap();
        let table = whole(&snap);
        let row = &table.rows()[0];
        table.points(row).unwrap();
        let before = snap.io().snapshot();
        assert!(table.contains_timestamp(row, 5_000).unwrap());
        assert!(!table.contains_timestamp(row, 5_001).unwrap());
        assert_eq!((snap.io().snapshot() - before).chunks_loaded, 0);
    }
}
