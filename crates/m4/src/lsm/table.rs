//! The fragment table: everything one M4-LSM query knows about each
//! fragment it can touch, in one row.
//!
//! A fragment is one chunk ([`tskv::ChunkHandle`]: a chunk is one page).
//! Its row borrows what is known without I/O — statistics, version,
//! time range — and owns the two things a query may pay for: the
//! decoded chunk and a decoded prefix of its timestamp column. A chunk
//! split by a span boundary is needed by two adjacent spans and a chunk
//! probed for one candidate may be probed for another; both find the
//! row filled, so a chunk body is decoded at most once per query and
//! probes reuse the longest prefix decoded so far (Figure 7(b)).
//!
//! The table sits on the engine's cross-query decoded-chunk LRU: full
//! loads go through the snapshot's loaders, which consult the LRU
//! first, so a row only pins the chunk for this query. Timestamp
//! prefixes the LRU deliberately does not cache. Lock discipline: the
//! chunk slot is a `OnceLock` (a filled slot is read with no lock at
//! all) and the prefix guard is never held across a read or decode — a
//! hit is answered under a short guard, a miss decodes unlocked and
//! then publishes.

use std::sync::{Arc, OnceLock};

use tsfile::lockcheck::Mutex;
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
    /// Decoded prefix of the chunk's timestamp column: everything up to
    /// (and one past) the largest probe timestamp seen so far.
    prefix: Mutex<Vec<Timestamp>>,
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
                prefix: Mutex::default(),
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
        Ok(f.points.get_or_init(|| pts))
    }

    /// Count a fragment answered from its statistics alone (no chunk
    /// body read) toward the engine's I/O counters.
    pub fn note_stat_answered(&self) {
        self.snapshot.io().record_page_stat_answered();
    }

    /// Timestamp-membership probe: does the fragment contain a point at
    /// exactly `t`? Binary searches the loaded points when available;
    /// otherwise decodes (and keeps) the chunk's timestamp prefix up to
    /// `t` and searches that.
    pub fn contains_timestamp(&self, f: &Fragment<'_>, t: Timestamp) -> Result<bool> {
        if let Some(pts) = f.loaded() {
            return Ok(pts.binary_search_by_key(&t, |p| p.t).is_ok());
        }
        // Answer from the kept prefix if it provably covers `t`; the
        // guard must end before any fetch below.
        if let Some(answer) = f.prefix_hit(t) {
            return Ok(answer);
        }
        // The new prefix reaches past `t`, beyond the kept one.
        let ts = self.snapshot.read_timestamps(f.chunk, Some(t))?;
        let answer = ts.binary_search(&t).is_ok();
        *f.prefix.lock() = ts;
        Ok(answer)
    }
}

impl Fragment<'_> {
    /// Answer a probe from the prefix decoded so far, if it provably
    /// covers `t`. No guard survives the call.
    fn prefix_hit(&self, t: Timestamp) -> Option<bool> {
        let prefix = self.prefix.lock();
        let complete = prefix.len() as u64 == self.chunk.count();
        (complete || prefix.last().is_some_and(|&last| last >= t))
            .then(|| prefix.binary_search(&t).is_ok())
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
    use tsfile::types::Point;
    use tskv::config::EngineConfig;
    use tskv::TsKv;

    fn fixture() -> (std::path::PathBuf, TsKv) {
        // pid + a process-wide counter: tests of one binary run in
        // parallel and must not share (and delete) each other's store.
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("m4-cache-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
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
        let (dir, kv) = fixture();
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
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn probe_prefix_extends_monotonically() {
        let (dir, kv) = fixture();
        let snap = kv.snapshot("s").unwrap();
        let table = whole(&snap);
        let row = &table.rows()[0];
        let before = snap.io().snapshot();
        // Grid is t*100: 5_000 is a hit.
        assert!(table.contains_timestamp(row, 5_000).unwrap());
        let delta = snap.io().snapshot() - before;
        assert_eq!(delta.chunks_loaded, 1, "one prefix read for the probe");
        // A later probe beyond the cached prefix refetches.
        assert!(table.contains_timestamp(row, 90_000).unwrap());
        let delta = snap.io().snapshot() - before;
        assert_eq!(delta.chunks_loaded, 2);
        // Probes below the prefix reuse it.
        assert!(table.contains_timestamp(row, 4_900).unwrap());
        assert_eq!((snap.io().snapshot() - before).chunks_loaded, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loaded_points_answer_probes_without_new_io() {
        let (dir, kv) = fixture();
        let snap = kv.snapshot("s").unwrap();
        let table = whole(&snap);
        let row = &table.rows()[0];
        table.points(row).unwrap();
        let before = snap.io().snapshot();
        assert!(table.contains_timestamp(row, 5_000).unwrap());
        assert!(!table.contains_timestamp(row, 5_001).unwrap());
        assert_eq!((snap.io().snapshot() - before).chunks_loaded, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
