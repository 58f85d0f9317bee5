//! The fragment table: everything one M4-LSM query knows about each
//! fragment it can touch, in one row.
//!
//! A fragment is one page of one chunk ([`tskv::ChunkHandle`] decides
//! which chunks have one page and which many). Its row borrows what is
//! known without I/O — statistics, version, time range — and owns the
//! two things a query may pay for: the decoded page and a decoded
//! prefix of its timestamp column. A page split by a span boundary is
//! needed by two adjacent spans and a page probed for one candidate may
//! be probed for another; both find the row filled, so a page body is
//! decoded at most once per query and probes reuse the longest prefix
//! decoded so far (Figure 7(b)).
//!
//! The table is `Sync` — span executors on different worker-pool
//! threads share it — and sits on the engine's cross-query decoded-page
//! LRU: full loads go through [`SeriesSnapshot::read_page_points`],
//! which consults the LRU first, so a row only pins the page for this
//! query. Timestamp prefixes the LRU deliberately does not cache. Lock
//! discipline: the page slot is a `OnceLock` (a filled slot is read
//! with no lock at all) and the prefix guard is never held across a
//! read or decode — a hit is answered under a short guard, a miss
//! decodes unlocked and then publishes. Racing misses on one page may
//! decode twice; the LRU makes that a cheap memory copy, never wrong
//! data.

use std::sync::{Arc, OnceLock};

use tsfile::index::binary_search_ops;
use tsfile::lockcheck::Mutex;
use tsfile::statistics::ChunkStatistics;
use tsfile::types::{Point, TimeRange, Timestamp, Version};
use tskv::{ChunkHandle, SeriesSnapshot};

use crate::Result;

/// One row: a page of a chunk and this query's state for it.
#[derive(Debug)]
pub(crate) struct Fragment<'a> {
    chunk: &'a ChunkHandle,
    page: u32,
    /// The page's statistics; they describe the fragment's points in a
    /// span only when the span contains the whole fragment.
    pub stats: &'a ChunkStatistics,
    /// The decoded page, raw (not clipped to a span, deletes not
    /// applied). Filled once; "already paid for" is `get().is_some()`.
    points: OnceLock<Arc<Vec<Point>>>,
    /// Decoded prefix of the page's timestamp column: everything up to
    /// (and one past) the largest probe timestamp seen so far.
    prefix: Mutex<Vec<Timestamp>>,
}

impl Fragment<'_> {
    /// The version `κ` of the fragment's chunk.
    pub fn version(&self) -> Version {
        self.chunk.version
    }

    /// The fragment's (unclipped) time interval.
    pub fn range(&self) -> TimeRange {
        self.stats.time_range()
    }

    /// The decoded page, if this query has loaded it already.
    pub fn loaded(&self) -> Option<&[Point]> {
        self.points.get().map(|p| p.as_slice())
    }
}

/// The rows of one query, in snapshot (= version) order, pages of a
/// chunk in time order. `Sync`: shared by the span executors running
/// on the worker pool.
#[derive(Debug)]
pub(crate) struct FragmentTable<'a> {
    snapshot: &'a SeriesSnapshot,
    rows: Vec<Fragment<'a>>,
}

impl<'a> FragmentTable<'a> {
    /// One row per page overlapping `range`: pages outside the query
    /// are never looked at, let alone touched.
    pub fn new(snapshot: &'a SeriesSnapshot, range: TimeRange) -> Self {
        let mut rows = Vec::new();
        for chunk in snapshot.chunks_overlapping(range) {
            for page in chunk.pages_overlapping(range) {
                // `pages_overlapping` only names pages the chunk has.
                let Some(stats) = chunk.page_stats(page) else {
                    continue;
                };
                rows.push(Fragment {
                    chunk,
                    page,
                    stats,
                    points: OnceLock::new(),
                    prefix: Mutex::default(),
                });
            }
        }
        FragmentTable { snapshot, rows }
    }

    pub fn rows(&self) -> &[Fragment<'a>] {
        &self.rows
    }

    /// Full load of a fragment (raw points, unfiltered), through the
    /// one loader; kept in the row.
    pub fn points<'t>(&self, f: &'t Fragment<'_>) -> Result<&'t [Point]> {
        if let Some(pts) = f.loaded() {
            return Ok(pts);
        }
        let pts = self.snapshot.read_page_points(f.chunk, f.page)?;
        Ok(f.points.get_or_init(|| pts))
    }

    /// Count a fragment answered from its statistics alone (no page
    /// body read) toward the engine's I/O counters.
    pub fn note_stat_answered(&self) {
        self.snapshot.io().record_page_stat_answered();
    }

    /// Timestamp-membership probe: does the fragment contain a point at
    /// exactly `t`? The caller knows from page statistics that only
    /// this page of its chunk could hold `t`. Uses already-loaded
    /// points when available; otherwise decodes (and keeps) the page's
    /// timestamp prefix up to `t`.
    pub fn contains_timestamp(
        &self,
        f: &Fragment<'_>,
        t: Timestamp,
        use_step_index: bool,
    ) -> Result<bool> {
        // Merge-free fast path: an exact step model can *prove* the
        // absence of a point at an off-grid timestamp from metadata
        // alone — no page body, no timestamp prefix. The model is
        // chunk-global, so its answer holds for a probe into any page.
        if use_step_index {
            if let Some(answer) = f.chunk.index().and_then(|i| i.exists_at_meta(t)) {
                return Ok(answer);
            }
        }
        if let Some(pts) = f.loaded() {
            // Binary search the points directly: projecting a timestamp
            // column for the step index would allocate.
            return Ok(pts.binary_search_by_key(&t, |p| p.t).is_ok());
        }
        // The model predicts positions counted from the chunk's first
        // point, so only page 0's column can be searched with it; a
        // later page starts mid-chunk and is binary searched.
        let step = use_step_index && f.page == 0;
        // Answer from the kept prefix if it provably covers `t`; the
        // guard must end before any fetch below.
        if let Some(answer) = f.prefix_hit(t, step) {
            return Ok(answer);
        }
        let ts = self
            .snapshot
            .read_page_timestamps(f.chunk, f.page, Some(t))?;
        let answer = f.search(&ts, t, step);
        f.publish_prefix(ts);
        Ok(answer)
    }
}

impl Fragment<'_> {
    /// Answer a probe from the prefix decoded so far, if it provably
    /// covers `t`. No guard survives the call.
    fn prefix_hit(&self, t: Timestamp, step: bool) -> Option<bool> {
        let prefix = self.prefix.lock();
        let complete = prefix.len() as u64 == self.stats.count;
        (complete || prefix.last().is_some_and(|&last| last >= t))
            .then(|| self.search(&prefix, t, step))
    }

    /// Keep the longer prefix if a racing probe published first — a
    /// prefix only ever answers timestamps it provably covers, so
    /// monotone growth is a performance property, not correctness.
    fn publish_prefix(&self, ts: Vec<Timestamp>) {
        let mut prefix = self.prefix.lock();
        if prefix.len() < ts.len() {
            *prefix = ts;
        }
    }

    fn search(&self, ts: &[Timestamp], t: Timestamp, step: bool) -> bool {
        match (self.chunk.index(), step) {
            (Some(idx), true) => idx.exists_at(ts, t),
            _ => binary_search_ops::exists_at(ts, t),
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

    /// The table of the whole fixture series: one row, its one page.
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
        // Grid is t*100: 5_000 is a hit; 5_050 is off-grid. With the
        // step index enabled and an exact model, the off-grid probe is
        // answered from metadata (no read at all).
        assert!(table.contains_timestamp(row, 5_000, true).unwrap());
        assert!(!table.contains_timestamp(row, 5_050, true).unwrap());
        let delta = snap.io().snapshot() - before;
        assert_eq!(
            delta.chunks_loaded, 1,
            "one prefix read for the on-grid probe"
        );
        // A later probe beyond the cached prefix refetches.
        assert!(table.contains_timestamp(row, 90_000, true).unwrap());
        let delta = snap.io().snapshot() - before;
        assert_eq!(delta.chunks_loaded, 2);
        // Probes below the prefix reuse it.
        assert!(table.contains_timestamp(row, 4_900, true).unwrap());
        assert_eq!((snap.io().snapshot() - before).chunks_loaded, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn meta_only_negative_probe_costs_no_io() {
        let (dir, kv) = fixture();
        let snap = kv.snapshot("s").unwrap();
        let table = whole(&snap);
        let row = &table.rows()[0];
        assert!(row.chunk.index().is_some_and(|i| i.epsilon() == 0));
        let before = snap.io().snapshot();
        for probe in [1, 99, 101, 12_345, 54_321] {
            assert!(!table.contains_timestamp(row, probe, true).unwrap());
        }
        let delta = snap.io().snapshot() - before;
        assert_eq!(
            delta.chunks_loaded, 0,
            "off-grid probes must be metadata-only"
        );
        // With the index disabled the same probes need a data read.
        assert!(!table.contains_timestamp(row, 12_345, false).unwrap());
        assert_eq!((snap.io().snapshot() - before).chunks_loaded, 1);
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
        assert!(table.contains_timestamp(row, 5_000, false).unwrap());
        assert!(!table.contains_timestamp(row, 5_001, false).unwrap());
        assert_eq!((snap.io().snapshot() - before).chunks_loaded, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
