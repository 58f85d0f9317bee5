//! Query-scoped chunk cache for the M4-LSM operator.
//!
//! A chunk split by one span boundary is needed by two adjacent spans;
//! a chunk probed for an overwrite at one candidate may be probed again
//! for another. The cache ensures each chunk body — or, for paged
//! chunks, each *page* body — is read and decoded at most once per
//! query (full loads), and that timestamp-only probes reuse previously
//! decoded prefixes (partial loads, Figure 7(b)). Entries are keyed
//! `(chunk idx, page)`; whole-chunk loads use a sentinel page number.
//!
//! The cache is `Sync` — span executors on different worker-pool
//! threads share one instance — and layers on the engine's cross-query
//! decoded-chunk LRU: full loads go through
//! [`SeriesSnapshot::read_points`], which consults the shared LRU
//! first, so this layer only deduplicates work *within* one query and
//! pins the per-query `Arc`s (plus the timestamp prefixes, which the
//! shared LRU deliberately does not cache). Lock discipline: no guard
//! is ever held across a read or decode — hits are `Arc`-cloned out
//! under a short guard, misses decode unlocked and then publish.
//! Racing misses on one chunk may decode twice; the engine-level LRU
//! makes that a cheap memory copy, never wrong data.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use tsfile::index::binary_search_ops;
use tsfile::types::{Point, Timestamp};
use tskv::{ChunkHandle, SeriesSnapshot};

use crate::Result;

/// Decoded timestamp prefix of a chunk or page: everything up to (and
/// one past) the largest probe timestamp seen so far.
#[derive(Debug)]
struct TsPrefix {
    ts: Vec<Timestamp>,
    complete: bool,
}

/// Sentinel page number keying whole-chunk entries; real page numbers
/// of a paged chunk never reach it.
const WHOLE: u32 = u32::MAX;

/// Decoded points keyed `(chunk idx, page-or-[`WHOLE`])`.
pub(crate) type PageKeyedPoints = HashMap<(usize, u32), Arc<Vec<Point>>>;

/// Per-query cache of decoded chunk data, keyed `(chunk idx, page)` so
/// fragments of a paged chunk load independently. `Sync`: shared by
/// the span executors running on the worker pool.
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

    /// Full load of chunk `idx` (raw points, unfiltered), cached.
    pub fn points(&self, idx: usize, chunk: &ChunkHandle) -> Result<Arc<Vec<Point>>> {
        // Copy the hit out so no guard is held across the read.
        let cached = self.points.lock().get(&(idx, WHOLE)).map(Arc::clone);
        if let Some(p) = cached {
            return Ok(p);
        }
        let pts = self.snapshot.read_points(chunk)?;
        self.points.lock().insert((idx, WHOLE), Arc::clone(&pts));
        Ok(pts)
    }

    /// Load of one page of chunk `idx` (raw points of that page only),
    /// cached per page.
    pub fn points_page(
        &self,
        idx: usize,
        page: u32,
        chunk: &ChunkHandle,
    ) -> Result<Arc<Vec<Point>>> {
        let cached = self.points.lock().get(&(idx, page)).map(Arc::clone);
        if let Some(p) = cached {
            return Ok(p);
        }
        let pts = self.snapshot.read_page_points(chunk, page)?;
        self.points.lock().insert((idx, page), Arc::clone(&pts));
        Ok(pts)
    }

    /// Whether chunk `idx` has already been fully loaded.
    pub fn is_loaded(&self, idx: usize) -> bool {
        self.points.lock().contains_key(&(idx, WHOLE))
    }

    /// Whether page `page` of chunk `idx` is already decoded — either
    /// as its own entry or covered by a whole-chunk load.
    pub fn is_loaded_page(&self, idx: usize, page: u32) -> bool {
        let map = self.points.lock();
        map.contains_key(&(idx, page)) || map.contains_key(&(idx, WHOLE))
    }

    /// Count a probe or candidate answered from page statistics alone
    /// (no page body read) toward the engine's I/O counters.
    pub fn note_page_stat_answered(&self) {
        self.snapshot.io().record_page_stat_answered();
    }

    /// Timestamp-membership probe: does chunk `idx` contain a point at
    /// exactly `t`? Uses already-loaded points when available;
    /// otherwise decodes (and caches) a timestamp prefix up to `t`,
    /// searching it with the chunk's step-regression index when enabled.
    pub fn contains_timestamp(
        &self,
        idx: usize,
        chunk: &ChunkHandle,
        t: Timestamp,
        use_step_index: bool,
    ) -> Result<bool> {
        // Merge-free fast path: an exact step model can *prove* the
        // absence of a point at an off-grid timestamp from metadata
        // alone — no chunk body, no timestamp prefix.
        if use_step_index {
            if let Some(answer) = chunk.index.as_ref().and_then(|i| i.exists_at_meta(t)) {
                return Ok(answer);
            }
        }
        let loaded = self.points.lock().get(&(idx, WHOLE)).map(Arc::clone);
        if let Some(pts) = loaded {
            return Ok(search_points(&pts, t));
        }
        // Answer from the cached prefix if it provably covers `t`; the
        // guard must end before any fetch below.
        if let Some(answer) = self.ts_prefix_hit(idx, WHOLE, chunk, t, use_step_index) {
            return Ok(answer);
        }
        let ts = self.snapshot.read_timestamps(chunk, Some(t))?;
        let complete = ts.len() as u64 == chunk.count();
        let answer = search_ts(&ts, chunk, t, use_step_index);
        self.publish_prefix(idx, WHOLE, ts, complete);
        Ok(answer)
    }

    /// Page-targeted membership probe: does *page* `page` of chunk
    /// `idx` contain a point at exactly `t`? Used when the caller
    /// already knows (from page statistics) which page could hold `t`;
    /// decodes at most that page's timestamp prefix instead of the
    /// chunk prefix up to `t`.
    pub fn contains_timestamp_page(
        &self,
        idx: usize,
        page: u32,
        chunk: &ChunkHandle,
        t: Timestamp,
        use_step_index: bool,
    ) -> Result<bool> {
        // The step-regression model is chunk-global, so its
        // metadata-only answer remains valid for any in-page probe.
        if use_step_index {
            if let Some(answer) = chunk.index.as_ref().and_then(|i| i.exists_at_meta(t)) {
                return Ok(answer);
            }
        }
        let loaded = {
            let map = self.points.lock();
            map.get(&(idx, page))
                .or_else(|| map.get(&(idx, WHOLE)))
                .map(Arc::clone)
        };
        if let Some(pts) = loaded {
            return Ok(search_points(&pts, t));
        }
        // NOTE: page timestamp slices start mid-chunk, so the step
        // index's position predictions do not apply — plain binary
        // search only below this point.
        if let Some(answer) = self.ts_prefix_hit(idx, page, chunk, t, false) {
            return Ok(answer);
        }
        let ts = self.snapshot.read_page_timestamps(chunk, page, Some(t))?;
        let page_count = chunk
            .paged()
            .and_then(|i| i.pages.get(page as usize))
            .map_or(0, |p| p.stats.count);
        let complete = ts.len() as u64 == page_count;
        let answer = binary_search_ops::exists_at(&ts, t);
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
        use_step_index: bool,
    ) -> Option<bool> {
        let ts_map = self.ts.lock();
        match ts_map.get(&(idx, page)) {
            Some(prefix) if prefix.complete || prefix.ts.last().is_some_and(|&last| last >= t) => {
                if page == WHOLE {
                    Some(search_ts(&prefix.ts, chunk, t, use_step_index))
                } else {
                    Some(binary_search_ops::exists_at(&prefix.ts, t))
                }
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

fn search_ts(ts: &[Timestamp], chunk: &ChunkHandle, t: Timestamp, use_step_index: bool) -> bool {
    match (&chunk.index, use_step_index) {
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
        let a = cache.points(0, chunk).unwrap();
        let b = cache.points(0, chunk).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let delta = snap.io().snapshot() - before;
        assert_eq!(delta.chunks_loaded, 1, "second call must hit the cache");
        assert!(cache.is_loaded(0));
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
        assert!(cache.contains_timestamp(0, chunk, 5_000, true).unwrap());
        assert!(!cache.contains_timestamp(0, chunk, 5_050, true).unwrap());
        let delta = snap.io().snapshot() - before;
        assert_eq!(
            delta.chunks_loaded, 1,
            "one prefix read for the on-grid probe"
        );
        // A later probe beyond the cached prefix refetches.
        assert!(cache.contains_timestamp(0, chunk, 90_000, true).unwrap());
        let delta = snap.io().snapshot() - before;
        assert_eq!(delta.chunks_loaded, 2);
        // Probes below the prefix reuse it.
        assert!(cache.contains_timestamp(0, chunk, 4_900, true).unwrap());
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
            assert!(!cache.contains_timestamp(0, chunk, probe, true).unwrap());
        }
        let delta = snap.io().snapshot() - before;
        assert_eq!(
            delta.chunks_loaded, 0,
            "off-grid probes must be metadata-only"
        );
        // With the index disabled the same probes need a data read.
        assert!(!cache.contains_timestamp(0, chunk, 12_345, false).unwrap());
        assert_eq!((snap.io().snapshot() - before).chunks_loaded, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loaded_points_answer_probes_without_new_io() {
        let (dir, kv) = fixture();
        let snap = kv.snapshot("s").unwrap();
        let cache = ChunkCache::new(&snap);
        let chunk = &snap.chunks()[0];
        cache.points(0, chunk).unwrap();
        let before = snap.io().snapshot();
        assert!(cache.contains_timestamp(0, chunk, 5_000, false).unwrap());
        assert!(!cache.contains_timestamp(0, chunk, 5_001, false).unwrap());
        assert_eq!((snap.io().snapshot() - before).chunks_loaded, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
