//! Point-in-time read view of one series.
//!
//! A [`SeriesSnapshot`] captures the set of chunks ℂ (sealed + the
//! memtable image) and the set of deletes 𝔻 at snapshot time, plus the
//! file handles needed to load chunk bodies. It is the input both the
//! M4-UDF baseline (via `MergeReader`) and the M4-LSM operator consume;
//! all chunk-body reads go through it so the [`crate::IoStats`]
//! counters see every load.

use std::sync::Arc;

use tsfile::types::{Point, TimeRange, Timestamp};
use tsfile::{ModEntry, TsFileReader};

use crate::cache::{CacheKey, DecodedChunkCache};
use crate::chunk::{ChunkData, ChunkHandle};
use crate::stats::IoStats;
use crate::Result;

/// On-disk size of one page, for the load counters. The page read
/// that precedes every call has already rejected an out-of-range
/// `page_no`.
fn page_byte_len(meta: &tsfile::format::ChunkMeta, page_no: u32) -> u64 {
    meta.paged
        .pages
        .get(page_no as usize)
        .map_or(0, |p| p.byte_len)
}

/// The memtable chunk has exactly one page.
fn mem_page_no(page: u32) -> Result<()> {
    if page == 0 {
        return Ok(());
    }
    Err(tsfile::TsFileError::Corrupt(format!("page {page} out of range")).into())
}

/// Immutable read view of one series.
///
/// Holds one shared immutable [`TsFileReader`] handle per TsFile for
/// its whole lifetime — chunk loads never reopen files, and because
/// the handles do positional reads, any number of threads may load
/// chunks through one snapshot concurrently.
#[derive(Debug)]
pub struct SeriesSnapshot {
    files: Vec<Arc<TsFileReader>>,
    chunks: Vec<ChunkHandle>,
    deletes: Vec<ModEntry>,
    io: Arc<IoStats>,
    /// Engine-wide decoded-chunk LRU; `None` when disabled by config.
    cache: Option<Arc<DecodedChunkCache>>,
    /// Engine-configured fan-out for parallel chunk loads.
    read_threads: usize,
}

impl SeriesSnapshot {
    /// Assemble a snapshot. `chunks` must reference `files` by index;
    /// `deletes` must be deduplicated by version.
    pub(crate) fn new(
        files: Vec<Arc<TsFileReader>>,
        chunks: Vec<ChunkHandle>,
        deletes: Vec<ModEntry>,
        io: Arc<IoStats>,
        cache: Option<Arc<DecodedChunkCache>>,
        read_threads: usize,
    ) -> Self {
        SeriesSnapshot {
            files,
            chunks,
            deletes,
            io,
            cache,
            read_threads: read_threads.max(1),
        }
    }

    /// All chunks visible to this snapshot, in version order.
    pub fn chunks(&self) -> &[ChunkHandle] {
        &self.chunks
    }

    /// All deletes visible to this snapshot, in version order.
    pub fn deletes(&self) -> &[ModEntry] {
        &self.deletes
    }

    /// Shared I/O counters for this snapshot.
    pub fn io(&self) -> &Arc<IoStats> {
        &self.io
    }

    /// The engine's decoded-chunk cache, if enabled.
    pub fn cache(&self) -> Option<&Arc<DecodedChunkCache>> {
        self.cache.as_ref()
    }

    /// Engine-configured worker-thread count for parallel chunk loads
    /// (always at least 1).
    pub fn pool_threads(&self) -> usize {
        self.read_threads
    }

    /// Process-unique reader handle ids of the sealed files backing
    /// this snapshot. Decoded-chunk cache keys are scoped by these ids,
    /// so after a compaction the engine cache must only hold ids that
    /// some live snapshot can still produce.
    pub fn file_handle_ids(&self) -> Vec<u64> {
        self.files.iter().map(|f| f.handle_id()).collect()
    }

    /// Chunks whose time interval overlaps `range`.
    pub fn chunks_overlapping(&self, range: TimeRange) -> Vec<&ChunkHandle> {
        self.chunks
            .iter()
            .filter(|c| c.time_range().overlaps(&range))
            .collect()
    }

    /// Total points across all chunks (before merge/deletes).
    pub fn raw_point_count(&self) -> u64 {
        self.chunks.iter().map(|c| c.count()).sum()
    }

    /// The one points loader: page `page` of `chunk`, in time order.
    ///
    /// A sealed page is served from the engine's decoded-page cache
    /// when possible; a miss reads and decodes outside any lock, then
    /// publishes the result. The memtable chunk is its own page 0: an
    /// `Arc` clone, no cache key. The returned `Arc` is shared with
    /// the cache — callers must not mutate through it.
    pub fn read_page_points(&self, chunk: &ChunkHandle, page: u32) -> Result<Arc<Vec<Point>>> {
        match &chunk.data {
            ChunkData::Mem { points } => {
                mem_page_no(page)?;
                self.io.record_mem_read(points.len() as u64);
                Ok(Arc::clone(points))
            }
            ChunkData::File { file_idx, meta } => {
                let file = &self.files[*file_idx];
                let key = CacheKey {
                    file_id: file.handle_id(),
                    offset: meta.offset,
                    page_no: page,
                    version: meta.version.0,
                };
                if let Some(cache) = &self.cache {
                    if let Some(points) = cache.get(key) {
                        return Ok(points);
                    }
                }
                let pts = Arc::new(file.read_page_points(meta, page)?);
                self.io
                    .record_chunk_load(page_byte_len(meta, page), pts.len() as u64);
                self.io.record_pages_decoded(1);
                if let Some(cache) = &self.cache {
                    cache.insert(key, Arc::clone(&pts));
                }
                Ok(pts)
            }
        }
    }

    /// Load only the pages of `chunk` overlapping `range`, as
    /// `(page, points)` runs in page order. Each page is a sorted,
    /// time-disjoint slice of the chunk, so the runs can be merged
    /// independently. Non-overlapping pages of the visited chunk are
    /// counted as skipped.
    pub fn read_points_in(
        &self,
        chunk: &ChunkHandle,
        range: TimeRange,
    ) -> Result<Vec<(u32, Arc<Vec<Point>>)>> {
        let window = chunk.pages_overlapping(range);
        self.io
            .record_pages_skipped(u64::from(chunk.page_count()) - window.len() as u64);
        window
            .map(|page| Ok((page, self.read_page_points(chunk, page)?)))
            .collect()
    }

    /// All points of a chunk, in time order: the page itself for a
    /// one-page chunk, else the pages concatenated (nothing cached
    /// beyond the per-page entries).
    pub fn read_points(&self, chunk: &ChunkHandle) -> Result<Arc<Vec<Point>>> {
        let first = self.read_page_points(chunk, 0)?;
        if chunk.page_count() == 1 {
            return Ok(first);
        }
        let mut all = first.to_vec();
        for page in 1..chunk.page_count() {
            all.extend_from_slice(&self.read_page_points(chunk, page)?);
        }
        Ok(Arc::new(all))
    }

    /// The one timestamp loader: the timestamp column of page `page`
    /// of `chunk`, optionally stopping once past `until` (the paper's
    /// partial scan) — the crossing value is the last one returned.
    pub fn read_page_timestamps(
        &self,
        chunk: &ChunkHandle,
        page: u32,
        until: Option<Timestamp>,
    ) -> Result<Vec<Timestamp>> {
        match &chunk.data {
            ChunkData::Mem { points } => {
                mem_page_no(page)?;
                let upto = until.map_or(points.len(), |limit| {
                    (points.partition_point(|p| p.t <= limit) + 1).min(points.len())
                });
                self.io.record_mem_read(upto as u64);
                Ok(points.iter().take(upto).map(|p| p.t).collect())
            }
            ChunkData::File { file_idx, meta } => {
                let ts = self.files[*file_idx].read_page_timestamps(meta, page, until)?;
                self.io
                    .record_timestamp_load(page_byte_len(meta, page), ts.len() as u64);
                Ok(ts)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::EngineConfig;
    use crate::engine::TsKv;
    use tsfile::types::{Point, TimeRange};

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    fn fresh(name: &str) -> crate::Result<(std::path::PathBuf, TsKv)> {
        let dir = std::env::temp_dir().join(format!("tskv-snap-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 100,
                memtable_threshold: 400,
                ..Default::default()
            },
        )?;
        Ok((dir, kv))
    }

    #[test]
    fn mem_chunk_included_and_versioned_last() -> TestResult {
        let (dir, kv) = fresh("mem")?;
        for t in 0..400i64 {
            kv.insert("s", Point::new(t, 1.0))?;
        }
        kv.flush_all()?;
        for t in 400..450i64 {
            kv.insert("s", Point::new(t, 2.0))?;
        }
        let snap = kv.snapshot("s")?;
        let chunks = snap.chunks();
        assert_eq!(chunks.len(), 5); // 4 sealed + 1 mem
        let mem = chunks.last().ok_or("no chunks")?;
        assert!(mem.is_mem());
        assert!(chunks[..4].iter().all(|c| c.version < mem.version));
        assert_eq!(mem.count(), 50);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn mem_chunk_is_page_zero_and_its_timestamp_read_stops_early() -> TestResult {
        let (dir, kv) = fresh("mem-until")?;
        for t in 0..50i64 {
            kv.insert("s", Point::new(t * 10, 0.0))?;
        }
        let snap = kv.snapshot("s")?;
        let mem = snap.chunks().last().ok_or("no mem chunk")?;
        assert!(mem.is_mem());
        let ts = snap.read_page_timestamps(mem, 0, Some(105))?;
        assert_eq!(ts.last().copied(), Some(110)); // first value past the limit
        assert_eq!(ts.len(), 12);
        let all = snap.read_page_timestamps(mem, 0, None)?;
        assert_eq!(all.len(), 50);
        assert_eq!(snap.read_page_points(mem, 0)?.len(), 50);
        assert!(snap.read_page_points(mem, 1).is_err());
        assert!(snap.read_page_timestamps(mem, 1, None).is_err());
        assert_eq!(snap.cache().ok_or("cache off")?.len(), 0, "no cache key");
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn whole_chunk_read_of_a_paged_chunk_caches_nothing_twice() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-snap-twice-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 400,
                memtable_threshold: 400,
                page_points: 100,
                ..Default::default()
            },
        )?;
        for t in 0..400i64 {
            kv.insert("s", Point::new(t, t as f64))?;
        }
        kv.flush_all()?;
        let snap = kv.snapshot("s")?;
        let chunk = snap.chunks().first().ok_or("no chunk")?;
        assert_eq!(chunk.page_count(), 4);
        let cache = snap.cache().ok_or("cache off")?;

        let pages = snap.read_points_in(chunk, chunk.time_range())?;
        assert_eq!(pages.len(), 4);
        let (len, bytes) = (cache.len(), cache.bytes());
        assert_eq!(len, 4);

        let before = snap.io().snapshot();
        let all = snap.read_points(chunk)?;
        let delta = snap.io().snapshot() - before;
        assert_eq!(all.len(), 400);
        assert!(all.iter().zip(0..).all(|(p, t)| p.t == t));
        assert_eq!((cache.len(), cache.bytes()), (len, bytes));
        assert_eq!((delta.cache_hits, delta.cache_misses), (4, 0));
        assert_eq!(delta.chunks_loaded, 0);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn chunks_overlapping_respects_boundaries() -> TestResult {
        let (dir, kv) = fresh("overlap")?;
        for t in 0..400i64 {
            kv.insert("s", Point::new(t, 0.0))?;
        }
        kv.flush_all()?;
        let snap = kv.snapshot("s")?;
        // Chunks: [0,99] [100,199] [200,299] [300,399].
        assert_eq!(snap.chunks_overlapping(TimeRange::new(99, 100)).len(), 2);
        assert_eq!(snap.chunks_overlapping(TimeRange::new(150, 160)).len(), 1);
        assert_eq!(snap.chunks_overlapping(TimeRange::new(-50, -1)).len(), 0);
        assert_eq!(snap.chunks_overlapping(TimeRange::new(0, 399)).len(), 4);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn raw_point_count_sums_all_chunks() -> TestResult {
        let (dir, kv) = fresh("count")?;
        for t in 0..250i64 {
            kv.insert("s", Point::new(t, 0.0))?;
        }
        // Overwrite 50 points → extra chunk with 50 points after flush.
        kv.flush_all()?;
        for t in 0..50i64 {
            kv.insert("s", Point::new(t, 9.0))?;
        }
        kv.flush_all()?;
        let snap = kv.snapshot("s")?;
        assert_eq!(snap.raw_point_count(), 300); // raw, not deduplicated
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }
}
