//! Query-scoped page cache for the M4-LSM operator.
//!
//! A page split by one span boundary is needed by two adjacent spans;
//! a page probed for an overwrite at one candidate may be probed again
//! for another. The cache ensures each page body is read and decoded
//! at most once per query (full loads), and that timestamp-only probes
//! reuse previously decoded prefixes (partial loads, Figure 7(b)).
//! Entries are keyed `(chunk idx, page)`; which chunks have one page
//! and which many is [`tskv::ChunkHandle`]'s business, not this one's.
//!
//! The cache is `Sync` — span executors on different worker-pool
//! threads share one instance — and layers on the engine's cross-query
//! decoded-page LRU: full loads go through
//! [`SeriesSnapshot::read_page_points`], which consults the shared LRU
//! first, so this layer only deduplicates work *within* one query and
//! pins the per-query `Arc`s (plus the timestamp prefixes, which the
//! shared LRU deliberately does not cache). Lock discipline: no guard
//! is ever held across a read or decode — hits are `Arc`-cloned out
//! under a short guard, misses decode unlocked and then publish.
//! Racing misses on one page may decode twice; the engine-level LRU
//! makes that a cheap memory copy, never wrong data.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use tsfile::index::binary_search_ops;
use tsfile::types::{Point, Timestamp};
use tskv::{ChunkHandle, SeriesSnapshot};

use crate::Result;

/// Decoded timestamp prefix of a page: everything up to (and one past)
/// the largest probe timestamp seen so far.
#[derive(Debug)]
struct TsPrefix {
    ts: Vec<Timestamp>,
    complete: bool,
}

/// Decoded points keyed `(chunk idx, page)`.
pub(crate) type PageKeyedPoints = HashMap<(usize, u32), Arc<Vec<Point>>>;

/// Per-query cache of decoded page data, keyed `(chunk idx, page)`.
/// `Sync`: shared by the span executors running on the worker pool.
#[derive(Debug)]
pub(crate) struct ChunkCache<'a> {
    snapshot: &'a SeriesSnapshot,
    points: Mutex<PageKeyedPoints>,
    ts: Mutex<HashMap<(usize, u32), TsPrefix>>,
}

impl<'a> ChunkCache<'a> {
    pub fn new(snapshot: &'a SeriesSnapshot) -> Self {
        ChunkCache {
            snapshot,
            points: Mutex::new(HashMap::new()),
            ts: Mutex::new(HashMap::new()),
        }
    }

    /// Full load of page `page` of chunk `idx` (raw points,
    /// unfiltered), cached.
    pub fn points(&self, idx: usize, page: u32, chunk: &ChunkHandle) -> Result<Arc<Vec<Point>>> {
        // Copy the hit out so no guard is held across the read.
        let cached = self.points.lock().get(&(idx, page)).map(Arc::clone);
        if let Some(p) = cached {
            return Ok(p);
        }
        let pts = self.snapshot.read_page_points(chunk, page)?;
        self.points.lock().insert((idx, page), Arc::clone(&pts));
        Ok(pts)
    }

    /// Whether page `page` of chunk `idx` is already decoded.
    pub fn is_loaded(&self, idx: usize, page: u32) -> bool {
        self.points.lock().contains_key(&(idx, page))
    }

    /// Count a fragment answered from its statistics alone (no page
    /// body read) toward the engine's I/O counters.
    pub fn note_page_stat_answered(&self) {
        self.snapshot.io().record_page_stat_answered();
    }

    /// Timestamp-membership probe: does page `page` of chunk `idx`
    /// contain a point at exactly `t`? The caller knows from page
    /// statistics that only this page could hold `t`. Uses
    /// already-loaded points when available; otherwise decodes (and
    /// caches) the page's timestamp prefix up to `t`.
    pub fn contains_timestamp(
        &self,
        idx: usize,
        page: u32,
        chunk: &ChunkHandle,
        t: Timestamp,
        use_step_index: bool,
    ) -> Result<bool> {
        // Merge-free fast path: an exact step model can *prove* the
        // absence of a point at an off-grid timestamp from metadata
        // alone — no page body, no timestamp prefix. The model is
        // chunk-global, so its answer holds for a probe into any page.
        if use_step_index {
            if let Some(answer) = chunk.index.as_ref().and_then(|i| i.exists_at_meta(t)) {
                return Ok(answer);
            }
        }
        let loaded = self.points.lock().get(&(idx, page)).map(Arc::clone);
        if let Some(pts) = loaded {
            return Ok(search_points(&pts, t));
        }
        // The model predicts positions counted from the chunk's first
        // point, so only page 0's column can be searched with it; a
        // later page starts mid-chunk and is binary searched.
        let step = use_step_index && page == 0;
        // Answer from the cached prefix if it provably covers `t`; the
        // guard must end before any fetch below.
        if let Some(answer) = self.ts_prefix_hit(idx, page, chunk, t, step) {
            return Ok(answer);
        }
        let ts = self.snapshot.read_page_timestamps(chunk, page, Some(t))?;
        let complete = chunk
            .page_stats(page)
            .is_some_and(|s| ts.len() as u64 == s.count);
        let answer = search_ts(&ts, chunk, t, step);
        self.publish_prefix(idx, page, ts, complete);
        Ok(answer)
    }

    /// Answer a probe from an already-cached timestamp prefix, if it
    /// provably covers `t`. No guard survives the call.
    fn ts_prefix_hit(
        &self,
        idx: usize,
        page: u32,
        chunk: &ChunkHandle,
        t: Timestamp,
        step: bool,
    ) -> Option<bool> {
        let ts_map = self.ts.lock();
        match ts_map.get(&(idx, page)) {
            Some(prefix) if prefix.complete || prefix.ts.last().is_some_and(|&last| last >= t) => {
                Some(search_ts(&prefix.ts, chunk, t, step))
            }
            _ => None,
        }
    }

    /// Keep the longer prefix if a racing probe published first — a
    /// prefix only ever answers timestamps it provably covers, so
    /// monotone growth is a performance property, not correctness.
    fn publish_prefix(&self, idx: usize, page: u32, ts: Vec<Timestamp>, complete: bool) {
        let mut ts_map = self.ts.lock();
        match ts_map.get(&(idx, page)) {
            Some(existing) if existing.complete || existing.ts.len() >= ts.len() => {}
            _ => {
                ts_map.insert((idx, page), TsPrefix { ts, complete });
            }
        }
    }
}

fn search_ts(ts: &[Timestamp], chunk: &ChunkHandle, t: Timestamp, step: bool) -> bool {
    match (&chunk.index, step) {
        (Some(idx), true) => idx.exists_at(ts, t),
        _ => binary_search_ops::exists_at(ts, t),
    }
}

fn search_points(pts: &[Point], t: Timestamp) -> bool {
    // Points are sorted by time; search over a lazily projected column
    // would allocate, so binary search the points directly. The step
    // index is only a win for the (cheaply projected) prefix case.
    pts.binary_search_by_key(&t, |p| p.t).is_ok()
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

    #[test]
    fn points_loaded_once() {
        let (dir, kv) = fixture();
        let snap = kv.snapshot("s").unwrap();
        let cache = ChunkCache::new(&snap);
        let chunk = &snap.chunks()[0];
        let before = snap.io().snapshot();
        let a = cache.points(0, 0, chunk).unwrap();
        let b = cache.points(0, 0, chunk).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let delta = snap.io().snapshot() - before;
        assert_eq!(delta.chunks_loaded, 1, "second call must hit the cache");
        assert!(cache.is_loaded(0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn probe_prefix_extends_monotonically() {
        let (dir, kv) = fixture();
        let snap = kv.snapshot("s").unwrap();
        let cache = ChunkCache::new(&snap);
        let chunk = &snap.chunks()[0];
        let before = snap.io().snapshot();
        // Grid is t*100: 5_000 is a hit; 5_050 is off-grid. With the
        // step index enabled and an exact model, the off-grid probe is
        // answered from metadata (no read at all).
        assert!(cache.contains_timestamp(0, 0, chunk, 5_000, true).unwrap());
        assert!(!cache.contains_timestamp(0, 0, chunk, 5_050, true).unwrap());
        let delta = snap.io().snapshot() - before;
        assert_eq!(
            delta.chunks_loaded, 1,
            "one prefix read for the on-grid probe"
        );
        // A later probe beyond the cached prefix refetches.
        assert!(cache.contains_timestamp(0, 0, chunk, 90_000, true).unwrap());
        let delta = snap.io().snapshot() - before;
        assert_eq!(delta.chunks_loaded, 2);
        // Probes below the prefix reuse it.
        assert!(cache.contains_timestamp(0, 0, chunk, 4_900, true).unwrap());
        assert_eq!((snap.io().snapshot() - before).chunks_loaded, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn meta_only_negative_probe_costs_no_io() {
        let (dir, kv) = fixture();
        let snap = kv.snapshot("s").unwrap();
        let cache = ChunkCache::new(&snap);
        let chunk = &snap.chunks()[0];
        assert!(chunk.index.as_ref().is_some_and(|i| i.epsilon() == 0));
        let before = snap.io().snapshot();
        for probe in [1, 99, 101, 12_345, 54_321] {
            assert!(!cache.contains_timestamp(0, 0, chunk, probe, true).unwrap());
        }
        let delta = snap.io().snapshot() - before;
        assert_eq!(
            delta.chunks_loaded, 0,
            "off-grid probes must be metadata-only"
        );
        // With the index disabled the same probes need a data read.
        assert!(!cache
            .contains_timestamp(0, 0, chunk, 12_345, false)
            .unwrap());
        assert_eq!((snap.io().snapshot() - before).chunks_loaded, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loaded_points_answer_probes_without_new_io() {
        let (dir, kv) = fixture();
        let snap = kv.snapshot("s").unwrap();
        let cache = ChunkCache::new(&snap);
        let chunk = &snap.chunks()[0];
        cache.points(0, 0, chunk).unwrap();
        let before = snap.io().snapshot();
        assert!(cache.contains_timestamp(0, 0, chunk, 5_000, false).unwrap());
        assert!(!cache.contains_timestamp(0, 0, chunk, 5_001, false).unwrap());
        assert_eq!((snap.io().snapshot() - before).chunks_loaded, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
