//! Point-in-time read view of one series.
//!
//! A [`SeriesSnapshot`] captures the set of chunks ℂ (sealed + the
//! memtable image) and the set of deletes 𝔻 at snapshot time, plus the
//! file handles needed to load chunk bodies. It is the input both the
//! M4-UDF baseline (via `MergeReader`) and the M4-LSM operator consume;
//! all chunk-body reads go through it so the [`crate::IoStats`]
//! counters see every load.
//! It is also the one place a query fans out: only the cache misses of
//! a batch ([`SeriesSnapshot::read_points_many`]) are spread across
//! threads.

use std::sync::Arc;

use tsfile::types::{Point, TimeRange, Timestamp};
use tsfile::{ChunkMeta, ModEntry, TsFileReader};

use crate::cache::{CacheKey, DecodedChunkCache};
use crate::chunk::{ChunkData, ChunkHandle};
use crate::stats::IoStats;
use crate::{pool, Result};

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
    /// How many threads may load the cache misses of one batch.
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

    /// All points of `chunk`, in time order: a batch of one, on the
    /// calling thread.
    pub fn read_points(&self, chunk: &ChunkHandle) -> Result<Arc<Vec<Point>>> {
        self.lookup(chunk).map_or_else(|| self.load(chunk), Ok)
    }

    /// The one points loader: the points of each of `chunks`, in
    /// request order. Memtable chunks and cache hits are answered on the
    /// calling thread; the misses are read and decoded outside any lock,
    /// across up to `read_threads` workers, and published to the cache.
    /// The `Arc`s are shared with the cache — do not mutate through them.
    pub fn read_points_many(&self, chunks: &[&ChunkHandle]) -> Result<Vec<Arc<Vec<Point>>>> {
        let mut points: Vec<_> = chunks.iter().map(|c| self.lookup(c)).collect();
        let misses: Vec<usize> = (0..chunks.len()).filter(|&i| points[i].is_none()).collect();
        let loaded = pool::run_indexed(self.read_threads, misses.len(), |j| {
            self.load(chunks[misses[j]])
        })?;
        for (i, pts) in misses.into_iter().zip(loaded) {
            points[i] = Some(pts);
        }
        // Every miss was filled just above: nothing is dropped here.
        Ok(points.into_iter().flatten().collect())
    }

    /// The memtable image, or a cache hit; `None` is a cache miss.
    fn lookup(&self, chunk: &ChunkHandle) -> Option<Arc<Vec<Point>>> {
        match &chunk.data {
            ChunkData::Mem { points } => {
                self.io.record_mem_read(points.len() as u64);
                Some(Arc::clone(points))
            }
            ChunkData::File { file_idx, meta } => {
                self.cache.as_ref()?.get(self.cache_key(*file_idx, meta))
            }
        }
    }

    /// Read and decode a chunk [`Self::lookup`] missed, and publish it.
    fn load(&self, chunk: &ChunkHandle) -> Result<Arc<Vec<Point>>> {
        match &chunk.data {
            ChunkData::Mem { points } => Ok(Arc::clone(points)),
            ChunkData::File { file_idx, meta } => {
                let pts = Arc::new(self.files[*file_idx].read_chunk(meta)?);
                self.io.record_chunk_load(meta.byte_len, pts.len() as u64);
                self.io.record_pages_decoded(1);
                if let Some(cache) = &self.cache {
                    cache.insert(self.cache_key(*file_idx, meta), Arc::clone(&pts));
                }
                Ok(pts)
            }
        }
    }

    fn cache_key(&self, file_idx: usize, meta: &ChunkMeta) -> CacheKey {
        CacheKey {
            file_id: self.files[file_idx].handle_id(),
            offset: meta.offset,
            version: meta.version.0,
        }
    }

    /// The one timestamp loader: the timestamp column of `chunk`,
    /// optionally stopping once past `until` (the paper's partial scan)
    /// — the crossing value is the last one returned.
    pub fn read_timestamps(
        &self,
        chunk: &ChunkHandle,
        until: Option<Timestamp>,
    ) -> Result<Vec<Timestamp>> {
        match &chunk.data {
            ChunkData::Mem { points } => {
                let upto = until.map_or(points.len(), |limit| {
                    (points.partition_point(|p| p.t <= limit) + 1).min(points.len())
                });
                self.io.record_mem_read(upto as u64);
                Ok(points.iter().take(upto).map(|p| p.t).collect())
            }
            ChunkData::File { file_idx, meta } => {
                let ts = self.files[*file_idx].read_timestamps(meta, until)?;
                self.io
                    .record_timestamp_load(meta.byte_len, ts.len() as u64);
                Ok(ts)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::chunk::ChunkHandle;
    use crate::config::EngineConfig;
    use crate::engine::TsKv;
    use tsfile::types::{Point, TimeRange};

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    fn fresh(name: &str) -> crate::Result<(std::path::PathBuf, TsKv)> {
        fresh_with(name, 4, 64 << 20)
    }

    fn fresh_with(
        name: &str,
        read_threads: usize,
        cache_capacity_bytes: u64,
    ) -> crate::Result<(std::path::PathBuf, TsKv)> {
        let dir = std::env::temp_dir().join(format!("tskv-snap-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 100,
                memtable_threshold: 400,
                read_threads,
                cache_capacity_bytes,
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
        let ts = snap.read_timestamps(mem, Some(105))?;
        assert_eq!(ts.last().copied(), Some(110)); // first value past the limit
        assert_eq!(ts.len(), 12);
        let all = snap.read_timestamps(mem, None)?;
        assert_eq!(all.len(), 50);
        assert_eq!(snap.read_points(mem)?.len(), 50);
        assert_eq!(snap.cache().ok_or("cache off")?.len(), 0, "no cache key");
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    /// A sealed chunk is one cache entry: the first read decodes it,
    /// the second is a hit that loads nothing.
    #[test]
    fn whole_chunk_read_of_a_paged_chunk_caches_nothing_twice() -> TestResult {
        let (dir, kv) = fresh("twice")?;
        for t in 0..400i64 {
            kv.insert("s", Point::new(t, t as f64))?;
        }
        kv.flush_all()?;
        let snap = kv.snapshot("s")?;
        let chunk = snap.chunks().first().ok_or("no chunk")?;
        let cache = snap.cache().ok_or("cache off")?;

        let first = snap.read_points(chunk)?;
        assert_eq!(first.len(), 100);
        let (len, bytes) = (cache.len(), cache.bytes());
        assert_eq!(len, 1);

        let before = snap.io().snapshot();
        let again = snap.read_points(chunk)?;
        let delta = snap.io().snapshot() - before;
        assert!(std::sync::Arc::ptr_eq(&first, &again));
        assert_eq!((cache.len(), cache.bytes()), (len, bytes));
        assert_eq!((delta.cache_hits, delta.cache_misses), (1, 0));
        assert_eq!(delta.chunks_loaded, 0);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    /// The memtable chunk, two cached and two uncached sealed chunks in
    /// one batch, at one and at four threads: results come back in
    /// request order, each miss is loaded once, and the sealed chunks
    /// again are all hits that load nothing. A zero capacity builds no
    /// cache: every sealed chunk loads and no cache counter moves.
    #[test]
    fn batch_loads_each_miss_once_in_request_order() -> TestResult {
        for (threads, capacity) in [(1, 64 << 20), (4, 64 << 20), (4, 0)] {
            let cached = capacity > 0;
            let (dir, kv) = fresh_with(&format!("batch{threads}-{capacity}"), threads, capacity)?;
            for t in 0..450i64 {
                kv.insert("s", Point::new(t, t as f64))?; // the 400th flushes
            }
            let snap = kv.snapshot("s")?;
            assert_eq!(snap.cache().is_some(), cached);
            let chunks = snap.chunks();
            assert!(chunks.len() == 5 && chunks[4].is_mem());
            snap.read_points(&chunks[1])?;
            snap.read_points(&chunks[3])?;

            let batch: Vec<&ChunkHandle> = [4, 3, 0, 1, 2].iter().map(|&i| &chunks[i]).collect();
            let before = snap.io().snapshot();
            let got = snap.read_points_many(&batch)?;
            let delta = snap.io().snapshot() - before;
            let firsts: Vec<i64> = got
                .iter()
                .filter_map(|pts| pts.first())
                .map(|p| p.t)
                .collect();
            assert_eq!(firsts, [400, 300, 0, 100, 200], "{threads} threads");
            let hits = if cached { 2 } else { 0 };
            assert_eq!((delta.chunks_loaded, delta.mem_chunks_read), (4 - hits, 1));
            assert_eq!((delta.cache_hits, delta.cache_misses), (hits, hits));

            let before = snap.io().snapshot();
            let again = snap.read_points_many(&batch[1..])?;
            let delta = snap.io().snapshot() - before;
            let hits = 2 * hits;
            assert_eq!(
                (delta.cache_hits, delta.cache_misses, delta.chunks_loaded),
                (hits, 0, 4 - hits)
            );
            let shared = again.iter().zip(&got[1..]).all(|(a, b)| Arc::ptr_eq(a, b));
            assert_eq!(shared, cached);
            std::fs::remove_dir_all(&dir).ok();
        }
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
