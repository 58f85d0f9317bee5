//! Engine observability counters.
//!
//! The paper's claims are about *avoided work* — chunks not loaded,
//! points not merged. These counters let tests and the benchmark
//! harness assert that M4-LSM actually touched fewer chunks, instead of
//! inferring it from wall-clock time alone. The write side mirrors
//! that philosophy: WAL group-commit counters expose how many syscalls
//! and fsyncs a batch actually paid, and the compaction scheduler's
//! scheduled/completed/skipped counts make its hands-free behavior
//! assertable.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic counters for one snapshot's read activity.
#[derive(Debug, Default)]
pub struct IoStats {
    chunks_loaded: AtomicU64,
    bytes_read: AtomicU64,
    points_decoded: AtomicU64,
    timestamps_decoded: AtomicU64,
    mem_chunks_read: AtomicU64,
    pages_decoded: AtomicU64,
    pages_skipped: AtomicU64,
    pages_stat_answered: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    cache_invalidations: AtomicU64,
    points_written: AtomicU64,
    wal_batches: AtomicU64,
    wal_bytes: AtomicU64,
    wal_syncs: AtomicU64,
    compactions_scheduled: AtomicU64,
    compactions_completed: AtomicU64,
    compactions_skipped: AtomicU64,
    compaction_bytes_read: AtomicU64,
    compaction_bytes_rewritten: AtomicU64,
    compaction_pages_copied: AtomicU64,
    compaction_pages_recoded: AtomicU64,
    catalog_hits: AtomicU64,
    catalog_misses: AtomicU64,
    stores_instantiated: AtomicU64,
}

/// Plain-value snapshot of [`IoStats`], subtractable for deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Chunk bodies read from disk.
    pub chunks_loaded: u64,
    /// Bytes of chunk bodies read from disk.
    pub bytes_read: u64,
    /// Points fully decoded (timestamp + value).
    pub points_decoded: u64,
    /// Timestamps decoded in timestamp-only (partial) reads.
    pub timestamps_decoded: u64,
    /// In-memory (memtable) chunk reads, which cost no I/O.
    pub mem_chunks_read: u64,
    /// On-disk pages actually decoded.
    pub pages_decoded: u64,
    /// Pages of visited chunks that overlapped no queried range and
    /// were skipped without decode.
    pub pages_skipped: u64,
    /// Probes answered from page statistics alone — the page body was
    /// never read or decoded.
    pub pages_stat_answered: u64,
    /// Chunk-body reads served from the decoded-chunk cache (no I/O,
    /// no decode).
    pub cache_hits: u64,
    /// Chunk-body reads that missed the cache and went to disk.
    pub cache_misses: u64,
    /// Decoded chunks evicted to stay within the cache capacity.
    pub cache_evictions: u64,
    /// Decoded chunks dropped because their file was retired
    /// (compaction).
    pub cache_invalidations: u64,
    /// Points accepted into a memtable (insert or write_batch).
    pub points_written: u64,
    /// WAL group-commit batches written through to a log file (each is
    /// one `write_all` syscall covering every frame of the batch).
    pub wal_batches: u64,
    /// Bytes appended to WAL files across all group commits.
    pub wal_bytes: u64,
    /// Explicit WAL fsyncs (`fdatasync`) issued by the commit path.
    pub wal_syncs: u64,
    /// Compactions queued by the background scheduler.
    pub compactions_scheduled: u64,
    /// Scheduled compactions that merged at least one file.
    pub compactions_completed: u64,
    /// Scheduled compactions that found nothing to do (lost a race
    /// with a manual compact or an in-flight one) or failed.
    pub compactions_skipped: u64,
    /// Input chunk-body bytes read by compaction merges (kept out of
    /// `bytes_read`, which meters the query read path).
    pub compaction_bytes_read: u64,
    /// Output bytes produced by compaction's re-encode path. Clean
    /// pages copied byte-for-byte are *excluded*: the gap between this
    /// and `compaction_bytes_read` is the write amplification avoided.
    pub compaction_bytes_rewritten: u64,
    /// Clean pages compaction copied raw (CRC-revalidated, never
    /// decoded).
    pub compaction_pages_copied: u64,
    /// Input pages compaction decoded and re-encoded.
    pub compaction_pages_recoded: u64,
    /// Pooled read-buffer takes served from a thread freelist
    /// (process-wide: the pool in `tsfile::bufpool` is shared by every
    /// store in the process, so deltas — not absolutes — are the
    /// meaningful per-workload reading).
    pub pool_hits: u64,
    /// Pooled read-buffer takes that had to allocate (process-wide,
    /// see `pool_hits`).
    pub pool_misses: u64,
    /// Series-catalog lookups that found an existing id (one striped
    /// read-lock probe, no allocation).
    pub catalog_hits: u64,
    /// Series-catalog lookups for a name with no interned id (first
    /// touch of a series, or a probe for an unknown name).
    pub catalog_misses: u64,
    /// Lazy `SeriesStore` instantiations: registered series that were
    /// first *touched* (written, deleted, or recovered with data).
    /// `registered − instantiated` series cost no memtable, no file
    /// handle, and no directory entry.
    pub stores_instantiated: u64,
}

impl IoStats {
    pub(crate) fn record_chunk_load(&self, bytes: u64, points: u64) {
        self.chunks_loaded.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.points_decoded.fetch_add(points, Ordering::Relaxed);
    }

    pub(crate) fn record_timestamp_load(&self, bytes: u64, timestamps: u64) {
        self.chunks_loaded.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.timestamps_decoded
            .fetch_add(timestamps, Ordering::Relaxed);
    }

    pub(crate) fn record_mem_read(&self, points: u64) {
        self.mem_chunks_read.fetch_add(1, Ordering::Relaxed);
        self.points_decoded.fetch_add(points, Ordering::Relaxed);
    }

    /// Record `n` on-disk pages decoded. Public: the query layer (m4)
    /// drives page-granular loads and reports what it decoded.
    pub fn record_pages_decoded(&self, n: u64) {
        self.pages_decoded.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` pages skipped without decode (no overlap with the
    /// queried range).
    pub fn record_pages_skipped(&self, n: u64) {
        self.pages_skipped.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a probe answered purely from page statistics.
    pub fn record_page_stat_answered(&self) {
        self.pages_stat_answered.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_cache_evictions(&self, n: u64) {
        self.cache_evictions.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_cache_invalidations(&self, n: u64) {
        self.cache_invalidations.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_points_written(&self, n: u64) {
        self.points_written.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_wal_batch(&self, bytes: u64) {
        self.wal_batches.fetch_add(1, Ordering::Relaxed);
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_wal_sync(&self) {
        self.wal_syncs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_compaction_scheduled(&self) {
        self.compactions_scheduled.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_compaction_completed(&self) {
        self.compactions_completed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_compaction_skipped(&self) {
        self.compactions_skipped.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one compaction run's write-amplification tallies: input
    /// bytes read, bytes re-encoded (copied bytes excluded), and the
    /// clean/dirty page split.
    pub(crate) fn record_compaction_io(
        &self,
        bytes_read: u64,
        bytes_rewritten: u64,
        pages_copied: u64,
        pages_recoded: u64,
    ) {
        self.compaction_bytes_read
            .fetch_add(bytes_read, Ordering::Relaxed);
        self.compaction_bytes_rewritten
            .fetch_add(bytes_rewritten, Ordering::Relaxed);
        self.compaction_pages_copied
            .fetch_add(pages_copied, Ordering::Relaxed);
        self.compaction_pages_recoded
            .fetch_add(pages_recoded, Ordering::Relaxed);
    }

    pub(crate) fn record_catalog_hit(&self) {
        self.catalog_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_catalog_miss(&self) {
        self.catalog_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_store_instantiated(&self) {
        self.stores_instantiated.fetch_add(1, Ordering::Relaxed);
    }

    /// Capture current counter values. The buffer-pool counters come
    /// from the process-wide pool in `tsfile::bufpool` rather than
    /// per-engine atomics, so every snapshot carries them without the
    /// read path having to thread a stats handle into `tsfile`.
    pub fn snapshot(&self) -> IoSnapshot {
        let (pool_hits, pool_misses) = tsfile::bufpool::pool_counters();
        IoSnapshot {
            chunks_loaded: self.chunks_loaded.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            points_decoded: self.points_decoded.load(Ordering::Relaxed),
            timestamps_decoded: self.timestamps_decoded.load(Ordering::Relaxed),
            mem_chunks_read: self.mem_chunks_read.load(Ordering::Relaxed),
            pages_decoded: self.pages_decoded.load(Ordering::Relaxed),
            pages_skipped: self.pages_skipped.load(Ordering::Relaxed),
            pages_stat_answered: self.pages_stat_answered.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            cache_invalidations: self.cache_invalidations.load(Ordering::Relaxed),
            points_written: self.points_written.load(Ordering::Relaxed),
            wal_batches: self.wal_batches.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            wal_syncs: self.wal_syncs.load(Ordering::Relaxed),
            compactions_scheduled: self.compactions_scheduled.load(Ordering::Relaxed),
            compactions_completed: self.compactions_completed.load(Ordering::Relaxed),
            compactions_skipped: self.compactions_skipped.load(Ordering::Relaxed),
            compaction_bytes_read: self.compaction_bytes_read.load(Ordering::Relaxed),
            compaction_bytes_rewritten: self.compaction_bytes_rewritten.load(Ordering::Relaxed),
            compaction_pages_copied: self.compaction_pages_copied.load(Ordering::Relaxed),
            compaction_pages_recoded: self.compaction_pages_recoded.load(Ordering::Relaxed),
            pool_hits,
            pool_misses,
            catalog_hits: self.catalog_hits.load(Ordering::Relaxed),
            catalog_misses: self.catalog_misses.load(Ordering::Relaxed),
            stores_instantiated: self.stores_instantiated.load(Ordering::Relaxed),
        }
    }
}

impl std::ops::Sub for IoSnapshot {
    type Output = IoSnapshot;
    fn sub(self, rhs: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            chunks_loaded: self.chunks_loaded - rhs.chunks_loaded,
            bytes_read: self.bytes_read - rhs.bytes_read,
            points_decoded: self.points_decoded - rhs.points_decoded,
            timestamps_decoded: self.timestamps_decoded - rhs.timestamps_decoded,
            mem_chunks_read: self.mem_chunks_read - rhs.mem_chunks_read,
            pages_decoded: self.pages_decoded - rhs.pages_decoded,
            pages_skipped: self.pages_skipped - rhs.pages_skipped,
            pages_stat_answered: self.pages_stat_answered - rhs.pages_stat_answered,
            cache_hits: self.cache_hits - rhs.cache_hits,
            cache_misses: self.cache_misses - rhs.cache_misses,
            cache_evictions: self.cache_evictions - rhs.cache_evictions,
            cache_invalidations: self.cache_invalidations - rhs.cache_invalidations,
            points_written: self.points_written - rhs.points_written,
            wal_batches: self.wal_batches - rhs.wal_batches,
            wal_bytes: self.wal_bytes - rhs.wal_bytes,
            wal_syncs: self.wal_syncs - rhs.wal_syncs,
            compactions_scheduled: self.compactions_scheduled - rhs.compactions_scheduled,
            compactions_completed: self.compactions_completed - rhs.compactions_completed,
            compactions_skipped: self.compactions_skipped - rhs.compactions_skipped,
            compaction_bytes_read: self.compaction_bytes_read - rhs.compaction_bytes_read,
            compaction_bytes_rewritten: self.compaction_bytes_rewritten
                - rhs.compaction_bytes_rewritten,
            compaction_pages_copied: self.compaction_pages_copied - rhs.compaction_pages_copied,
            compaction_pages_recoded: self.compaction_pages_recoded - rhs.compaction_pages_recoded,
            pool_hits: self.pool_hits - rhs.pool_hits,
            pool_misses: self.pool_misses - rhs.pool_misses,
            catalog_hits: self.catalog_hits - rhs.catalog_hits,
            catalog_misses: self.catalog_misses - rhs.catalog_misses,
            stores_instantiated: self.stores_instantiated - rhs.stores_instantiated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::default();
        s.record_chunk_load(100, 10);
        s.record_chunk_load(50, 5);
        s.record_timestamp_load(30, 7);
        s.record_mem_read(3);
        s.record_pages_decoded(4);
        s.record_pages_skipped(6);
        s.record_page_stat_answered();
        let snap = s.snapshot();
        assert_eq!(snap.chunks_loaded, 3);
        assert_eq!(snap.bytes_read, 180);
        assert_eq!(snap.points_decoded, 18);
        assert_eq!(snap.timestamps_decoded, 7);
        assert_eq!(snap.mem_chunks_read, 1);
        assert_eq!(snap.pages_decoded, 4);
        assert_eq!(snap.pages_skipped, 6);
        assert_eq!(snap.pages_stat_answered, 1);
    }

    #[test]
    fn write_side_counters_accumulate() {
        let s = IoStats::default();
        s.record_points_written(100);
        s.record_wal_batch(4096);
        s.record_wal_batch(1024);
        s.record_wal_sync();
        s.record_compaction_scheduled();
        s.record_compaction_completed();
        s.record_compaction_skipped();
        s.record_compaction_io(1000, 200, 7, 3);
        s.record_compaction_io(500, 0, 2, 0);
        let snap = s.snapshot();
        assert_eq!(snap.points_written, 100);
        assert_eq!(snap.wal_batches, 2);
        assert_eq!(snap.wal_bytes, 5120);
        assert_eq!(snap.wal_syncs, 1);
        assert_eq!(snap.compactions_scheduled, 1);
        assert_eq!(snap.compactions_completed, 1);
        assert_eq!(snap.compactions_skipped, 1);
        assert_eq!(snap.compaction_bytes_read, 1500);
        assert_eq!(snap.compaction_bytes_rewritten, 200);
        assert_eq!(snap.compaction_pages_copied, 9);
        assert_eq!(snap.compaction_pages_recoded, 3);
    }

    #[test]
    fn catalog_counters_accumulate() {
        let s = IoStats::default();
        s.record_catalog_hit();
        s.record_catalog_hit();
        s.record_catalog_miss();
        s.record_store_instantiated();
        let snap = s.snapshot();
        assert_eq!(snap.catalog_hits, 2);
        assert_eq!(snap.catalog_misses, 1);
        assert_eq!(snap.stores_instantiated, 1);
    }

    #[test]
    fn snapshot_carries_pool_counters() {
        // Exercise the pool, then check the process-wide counters flow
        // into the snapshot.
        drop(tsfile::bufpool::take(64));
        let _warm = tsfile::bufpool::take(64);
        let snap = IoStats::default().snapshot();
        assert!(snap.pool_hits + snap.pool_misses > 0);
    }

    #[test]
    fn snapshot_diff() {
        let s = IoStats::default();
        s.record_chunk_load(10, 1);
        let before = s.snapshot();
        s.record_chunk_load(20, 2);
        let delta = s.snapshot() - before;
        assert_eq!(delta.chunks_loaded, 1);
        assert_eq!(delta.bytes_read, 20);
        assert_eq!(delta.points_decoded, 2);
    }
}
