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
//!
//! Each counter is declared exactly once, in the registry below (see
//! [`crate::registry`]); adding one is that line plus its `record_*`
//! increment.

use std::sync::atomic::Ordering;

crate::metric_registry! {
    namespace "tskv";
    /// Shared atomic counters for one snapshot's read activity.
    #[derive(Debug)]
    pub struct IoStats;
    /// Plain-value snapshot of [`IoStats`], subtractable for deltas.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct IoSnapshot;
    snapshot();

    /// Chunk bodies read from disk.
    counter chunks_loaded;
    /// Bytes of chunk bodies read from disk.
    counter bytes_read;
    /// Points fully decoded (timestamp + value).
    counter points_decoded;
    /// Timestamps decoded in timestamp-only reads, each a chunk's whole
    /// timestamp column (its values never decoded).
    counter timestamps_decoded;
    /// In-memory (memtable) chunk reads, which cost no I/O.
    counter mem_chunks_read;
    /// On-disk pages actually decoded: a chunk is one page, so these
    /// are the `chunks_loaded` that decoded values, not only timestamps.
    counter pages_decoded;
    /// Answers M4-LSM took from chunk (= page) statistics alone, the
    /// body never read or decoded: a candidate an executed span
    /// verified, or a whole clean chunk a folded span took.
    counter pages_stat_answered;
    /// M4-LSM spans no dirty or dropped chunk reaches, answered by
    /// folding clean chunks' statistics and in-span slices.
    counter spans_folded;
    /// M4-LSM spans a dirty or dropped chunk reaches, answered by the
    /// span executor's candidate verification.
    counter spans_executed;
    /// Chunk-body reads served from the decoded-chunk cache (no I/O,
    /// no decode).
    counter cache_hits;
    /// Chunk-body reads that missed the cache and went to disk (with no
    /// cache, every read of a sealed chunk): with `cache_hits`, the
    /// loads a reader asked for, whatever the cache held.
    counter cache_misses;
    /// Decoded chunks evicted to stay within the cache capacity.
    counter cache_evictions;
    /// Decoded chunks dropped because their file was retired
    /// (compaction).
    counter cache_invalidations;
    /// Points accepted into a memtable (insert or write_batch).
    counter points_written;
    /// WAL group-commit batches written through to a log file (each is
    /// one `write_all` syscall covering every frame of the batch).
    counter wal_batches;
    /// Bytes appended to WAL files across all group commits.
    counter wal_bytes;
    /// Explicit WAL fsyncs (`fdatasync`) issued by the commit path.
    counter wal_syncs;
    /// Sealed TsFiles written by flushes: one per shard per
    /// flush group, however many series it holds.
    counter files_sealed;
    /// Series flushes those files carried: `flush_members ÷
    /// files_sealed` is the mean group size.
    counter flush_members;
    /// Compactions queued by the background scheduler.
    counter compactions_scheduled;
    /// Scheduled compactions that merged at least one file.
    counter compactions_completed;
    /// Scheduled compactions that found nothing to do (lost a race
    /// with a manual compact or an in-flight one) or failed.
    counter compactions_skipped;
    /// Input chunk-body bytes read by compaction merges (kept out of
    /// `bytes_read`, which meters the query read path).
    counter compaction_bytes_read;
    /// Output bytes produced by compaction's re-encode path. Chunks
    /// copied byte-for-byte are *excluded*: the gap between this and
    /// `compaction_bytes_read` is the write amplification avoided.
    counter compaction_bytes_rewritten;
    /// Clean chunks (one page each) compaction copied raw
    /// (CRC-revalidated, never decoded): the full ones, and under-full
    /// ones between two full clean chunks.
    counter compaction_pages_copied;
    /// Input chunks (one page each) compaction decoded and re-encoded:
    /// the dirty ones and every clean one not copied.
    counter compaction_pages_recoded;
    /// Pooled read-buffer takes served from a thread freelist. Sampled
    /// from the process-wide pool in `tsfile::bufpool`, which every
    /// store in the process shares — so the read path never threads a
    /// stats handle into `tsfile`, and deltas, not absolutes, are the
    /// meaningful per-workload reading.
    counter pool_hits = tsfile::bufpool::pool_counters().0;
    /// Pooled read-buffer takes that had to allocate (process-wide,
    /// see `pool_hits`).
    counter pool_misses = tsfile::bufpool::pool_counters().1;
    /// Series-catalog lookups that found an existing id (one striped
    /// read-lock probe, no allocation).
    counter catalog_hits;
    /// Series-catalog lookups for a name with no interned id (first
    /// touch of a series, or a probe for an unknown name).
    counter catalog_misses;
    /// Lazy `SeriesStore` instantiations: registered series that were
    /// first *touched* (written, deleted, or recovered with data).
    /// `registered − instantiated` series cost no memtable, no file
    /// handle, and no directory entry.
    counter stores_instantiated;
    /// Points M4-LSM took from the chunk loaders (cache hits included):
    /// a decision of the operator, which the cache cannot move.
    counter lsm_points_consumed;
    /// Timestamp-membership probes M4-LSM issued, however answered.
    counter lsm_probes;
    /// Nanoseconds opens spent reading the catalog log.
    counter open_catalog_ns;
    /// Nanoseconds opens spent replaying shard WALs into memtables
    /// (reading the logs and recovering each series).
    counter open_replay_ns;
    /// Nanoseconds opens spent opening data files, footers decoded.
    counter open_files_ns;
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

    /// A timestamp probe of a memtable chunk: no I/O, and `timestamps`
    /// taken, counted as a file probe counts them.
    pub(crate) fn record_mem_timestamps(&self, timestamps: u64) {
        self.mem_chunks_read.fetch_add(1, Ordering::Relaxed);
        self.timestamps_decoded
            .fetch_add(timestamps, Ordering::Relaxed);
    }

    /// A timestamp probe of a sealed chunk the decoded-chunk cache
    /// holds: no I/O, and `timestamps` taken from its points.
    pub(crate) fn record_cached_timestamps(&self, timestamps: u64) {
        self.timestamps_decoded
            .fetch_add(timestamps, Ordering::Relaxed);
    }

    /// Record `n` on-disk pages decoded.
    pub(crate) fn record_pages_decoded(&self, n: u64) {
        self.pages_decoded.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a probe answered purely from chunk statistics. Public: the
    /// query layer (m4) decides what it answers without a load.
    pub fn record_page_stat_answered(&self) {
        self.pages_stat_answered.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` M4-LSM spans answered by the clean-chunk fold. Public:
    /// the query layer (m4) picks the path of each span.
    pub fn record_spans_folded(&self, n: u64) {
        self.spans_folded.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` M4-LSM spans answered by the span executor.
    pub fn record_spans_executed(&self, n: u64) {
        self.spans_executed.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `points` M4-LSM took from the loaders. Public, as the
    /// span counters are.
    pub fn record_lsm_points(&self, points: u64) {
        self.lsm_points_consumed
            .fetch_add(points, Ordering::Relaxed);
    }

    /// Record one timestamp probe M4-LSM issued.
    pub fn record_lsm_probe(&self) {
        self.lsm_probes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the phases of one open: catalog read, WAL replay and data
    /// file opens.
    pub(crate) fn record_open(&self, [catalog, replay, files]: [std::time::Duration; 3]) {
        let ns = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.open_catalog_ns
            .fetch_add(ns(catalog), Ordering::Relaxed);
        self.open_replay_ns.fetch_add(ns(replay), Ordering::Relaxed);
        self.open_files_ns.fetch_add(ns(files), Ordering::Relaxed);
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

    /// Record one flush group sealed into one file holding `members`
    /// series.
    pub(crate) fn record_file_sealed(&self, members: u64) {
        self.files_sealed.fetch_add(1, Ordering::Relaxed);
        self.flush_members.fetch_add(members, Ordering::Relaxed);
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
    /// clean/dirty chunk split.
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
        s.record_mem_timestamps(2);
        s.record_pages_decoded(4);
        s.record_page_stat_answered();
        s.record_spans_folded(5);
        s.record_spans_executed(2);
        let snap = s.snapshot();
        assert_eq!(snap.chunks_loaded, 3);
        assert_eq!(snap.bytes_read, 180);
        assert_eq!(snap.points_decoded, 18);
        assert_eq!(snap.timestamps_decoded, 9);
        assert_eq!(snap.mem_chunks_read, 2);
        assert_eq!(snap.pages_decoded, 4);
        assert_eq!(snap.pages_stat_answered, 1);
        assert_eq!((snap.spans_folded, snap.spans_executed), (5, 2));
    }

    #[test]
    fn write_side_counters_accumulate() {
        let s = IoStats::default();
        s.record_points_written(100);
        s.record_wal_batch(4096);
        s.record_wal_batch(1024);
        s.record_wal_sync();
        s.record_file_sealed(3);
        s.record_file_sealed(1);
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
        assert_eq!((snap.files_sealed, snap.flush_members), (2, 4));
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
    fn subtracting_a_newer_snapshot_saturates_at_zero() {
        let s = IoStats::default();
        s.record_chunk_load(10, 1);
        let older = s.snapshot();
        s.record_chunk_load(20, 2);
        s.record_wal_sync();
        let newer = s.snapshot();
        let delta = older - newer;
        assert_eq!(delta.chunks_loaded, 0);
        assert_eq!(delta.bytes_read, 0);
        assert_eq!(delta.wal_syncs, 0);
    }

    #[test]
    fn metrics_and_set_metric_are_inverse_by_name() {
        let s = IoStats::default();
        s.record_wal_batch(4096);
        let snap = s.snapshot();
        let mut rebuilt = IoSnapshot::default();
        for (name, kind, values) in snap.metrics() {
            assert!(name.starts_with("tskv."), "{name}");
            assert_eq!(kind, crate::registry::MetricKind::Counter);
            assert!(rebuilt.set_metric(name, values), "{name}");
        }
        assert_eq!(rebuilt, snap);
        assert!(!rebuilt.set_metric("tskv.no_such_metric", &[1]));
        assert!(!rebuilt.set_metric("wal_bytes", &[1]));
        assert_eq!(rebuilt, snap);
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
