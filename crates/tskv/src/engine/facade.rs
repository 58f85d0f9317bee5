//! The public API: [`TsKv`] resolves each request's series name to its
//! id once and hands it to the engine.

use super::*;

/// The LSM time series store.
///
/// See the crate docs for the data model. All methods are `&self`;
/// internal state is sharded behind per-shard
/// [`tsfile::lockcheck::RwLock`]s.
#[derive(Debug)]
pub struct TsKv {
    /// Declared before `inner` so drop order joins the scheduler
    /// thread while the engine state it references is still alive.
    scheduler: Option<CompactionScheduler>,
    pub(super) inner: Arc<EngineInner>,
}

impl TsKv {
    /// Open (or create) a store rooted at `dir`, recovering whatever
    /// is found there: the series catalog is replayed first (interned
    /// names get the same dense ids back), then each shard's
    /// data files are opened — every series with a run in one gets a
    /// view of it — and its shared WAL is replayed, and only series with
    /// actual state get an in-memory store — a million registered but
    /// cold series recover in catalog-replay time and occupy no file
    /// handles. The per-series work (the delete log, WAL replay) fans
    /// out across up to one thread per shard, one series at a time per
    /// thread.
    ///
    /// A directory with no `SHARDS` file but with series- or
    /// shard-named sub-directories holding `series.wal` or `*.tsfile`
    /// (the retired pre-sharding layout, or a store that lost its
    /// `SHARDS` file) is refused with [`TsKvError::Corrupt`] before
    /// anything is written to it, and so is a store holding a data file
    /// of the retired `s<id>-<fileno>.tsfile` shape, a per-run delete
    /// log `<fileno>.s<id>.mods`, or a data file numbered above
    /// `u64::MAX / 2`.
    ///
    /// A crash mid-flush or mid-compaction leaves the file it was
    /// writing under its in-flight name `<fileno>.tsfile.tmp`. Cut
    /// short, it is quarantined (renamed `<fileno>.tsfile.corrupt`)
    /// rather than failing recovery: its points are still in the shard
    /// WAL (flush — no durable run outranks the members' records, so
    /// they replay) or in the older generation (compaction). Complete,
    /// it only lost its rename and is adopted. A `*.tsfile` that does
    /// not verify was damaged after it was sealed: that is genuine
    /// corruption and surfaces as an error, and so does a file with a
    /// foreign magic (e.g. the retired `TSF1` or `TSF2`) under either name: it is
    /// left in place and the open fails with `BadMagic`.
    ///
    /// A run that a compaction output on disk supersedes is not read
    /// again: its series retired it, and it is still there only because
    /// other series read the file, or because of a crash before the
    /// unlink — which the open then finishes.
    ///
    /// When `compaction_auto` is set, a background scheduler thread
    /// starts here and stops (joined) when the store drops.
    pub fn open<P: AsRef<Path>>(dir: P, config: EngineConfig) -> Result<Self> {
        let inner = Arc::new(EngineInner::open(dir.as_ref().to_path_buf(), config)?);
        let spawn = || CompactionScheduler::spawn(Arc::clone(&inner));
        let scheduler = inner.config.compaction_auto.then(spawn).transpose()?;
        Ok(TsKv { scheduler, inner })
    }

    /// The engine configuration the store runs with: the one it was
    /// opened with, normalized, and with the shard count it was pinned
    /// at when it was created.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.config
    }

    /// Root directory of the store.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Names of all registered series (sorted).
    pub fn series_names(&self) -> Vec<String> {
        let names = self.inner.catalog.names_snapshot();
        let mut names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        names.sort();
        names
    }

    /// The interned id of `name`, if registered. One striped hash
    /// probe — resolve once, then drive every per-series call through
    /// the `*_by_id` variants.
    pub fn series_id(&self, name: &str) -> Option<SeriesId> {
        self.inner.catalog.resolve(name)
    }

    /// The name interned as `id`, if registered. Cheap (`Arc` clone).
    pub fn series_name(&self, id: SeriesId) -> Option<Arc<str>> {
        self.inner.catalog.name_of(id)
    }

    /// Number of registered series (ids are dense: `0..count`).
    pub fn series_count(&self) -> usize {
        self.inner.catalog.len()
    }

    /// Register a series (idempotent), returning its interned id.
    /// Costs one catalog-log append the first time and nothing on
    /// disk afterwards — no directories or files until data arrives.
    pub fn create_series(&self, name: &str) -> Result<SeriesId> {
        self.inner.create_series(name)
    }

    /// Insert one point; may trigger an automatic flush when the
    /// memtable reaches the configured threshold.
    pub fn insert(&self, name: &str, p: Point) -> Result<()> {
        self.insert_batch(name, std::slice::from_ref(&p))
    }

    /// Insert a batch of points into one series (any time order;
    /// duplicates overwrite). Registers the series if needed.
    pub fn insert_batch(&self, name: &str, points: &[Point]) -> Result<()> {
        let id = self.inner.create_series(name)?;
        self.insert_batch_by_id(id, points)
    }

    /// [`insert_batch`](TsKv::insert_batch) keyed by an interned id
    /// (from [`series_id`](TsKv::series_id) or
    /// [`create_series`](TsKv::create_series)): zero name hashing on
    /// the hot path.
    pub fn insert_batch_by_id(&self, id: SeriesId, points: &[Point]) -> Result<()> {
        self.inner.write(&[(id, points)]).map(|_| ())
    }

    /// Apply a multi-series [`WriteBatch`]: names resolved (and new
    /// ones registered) once up front, then one shard-lock acquisition
    /// and one WAL group-commit syscall per shard touched, fsync per
    /// the configured [`FsyncPolicy`]. Returns the number of points
    /// written.
    pub fn write_batch(&self, batch: &WriteBatch) -> Result<usize> {
        let mut entries = Vec::with_capacity(batch.series_count());
        for (name, points) in batch.entries() {
            entries.push((self.inner.create_series(name)?, points));
        }
        self.inner.write(&entries)
    }

    /// Flush one series' memtable to a new sealed TsFile.
    pub fn flush(&self, name: &str) -> Result<()> {
        let id = self.inner.resolve(name)?;
        self.inner.flush_group(&[id], true)
    }

    /// [`flush`](TsKv::flush) keyed by an interned id.
    pub fn flush_by_id(&self, id: SeriesId) -> Result<()> {
        self.inner.flush_group(&[id], true)
    }

    /// Flush every series.
    pub fn flush_all(&self) -> Result<()> {
        self.inner.flush_all()
    }

    /// Delete all points of `name` in `[start, end]` (inclusive), as an
    /// append-only versioned tombstone. Memtable points are removed
    /// eagerly; sealed chunks are filtered at read time.
    pub fn delete(&self, name: &str, start: Timestamp, end: Timestamp) -> Result<()> {
        let id = self.inner.resolve(name)?;
        self.inner.delete(id, start, end)
    }

    /// [`delete`](TsKv::delete) keyed by an interned id.
    pub fn delete_by_id(&self, id: SeriesId, start: Timestamp, end: Timestamp) -> Result<()> {
        self.inner.delete(id, start, end)
    }

    /// Capture a point-in-time read view of one series. See
    /// [`SeriesSnapshot`].
    pub fn snapshot(&self, name: &str) -> Result<SeriesSnapshot> {
        let id = self.inner.resolve(name)?;
        self.inner.snapshot(id)
    }

    /// [`snapshot`](TsKv::snapshot) keyed by an interned id.
    pub fn snapshot_by_id(&self, id: SeriesId) -> Result<SeriesSnapshot> {
        self.inner.snapshot(id)
    }

    /// Fully compact one series: merge every sealed file (applying
    /// deletes and overwrites; clean chunks are copied byte-for-byte,
    /// only dirty chunks re-encode), write the result as a single fresh
    /// TsFile, unlink the old files and trim the delete log. The
    /// memtable and WAL are untouched. Returns an empty report if a
    /// compaction is already running for the series.
    /// See [`crate::compaction`].
    pub fn compact(&self, name: &str) -> Result<CompactionReport> {
        let id = self.inner.resolve(name)?;
        self.inner.compact_run(id, 1)
    }

    /// [`compact`](TsKv::compact) keyed by an interned id.
    pub fn compact_by_id(&self, id: SeriesId) -> Result<CompactionReport> {
        self.inner.compact_run(id, 1)
    }

    /// Subscribe to change notifications: every write, delete, and
    /// flush publishes a [`ChangeEvent`] (keyed by [`SeriesId`]) to
    /// each listener over a bounded queue of `depth` events.
    /// Publishing never blocks the write path — when a listener's
    /// queue is full the event is dropped and the listener's *missed*
    /// flag raised, telling it to resynchronize from a fresh
    /// [`TsKv::snapshot`]. See [`crate::notify`].
    pub fn subscribe_changes(&self, depth: usize) -> ChangeRx {
        self.inner.changes.register(depth)
    }

    /// Engine-wide I/O counters (shared by all snapshots).
    pub fn io(&self) -> &Arc<IoStats> {
        &self.inner.io
    }

    /// The cross-query decoded-chunk cache, if enabled by config.
    pub fn cache(&self) -> Option<&Arc<DecodedChunkCache>> {
        self.inner.cache.as_ref()
    }

    /// Total points currently buffered in memory and not yet durable in
    /// a sealed file (the memtable plus any in-flight flush image).
    pub fn unflushed_points(&self, name: &str) -> Result<usize> {
        let id = self.inner.resolve(name)?;
        let map = self.inner.shard(id).series.read();
        let Some(store) = map.get(&id) else {
            return Ok(0);
        };
        let in_flight = store.flushing.as_ref().map(|f| f.points.len()).unwrap_or(0);
        Ok(store.memtable.len() + in_flight)
    }

    /// Number of sealed TsFiles currently backing `name`.
    pub fn sealed_file_count(&self, name: &str) -> Result<usize> {
        let id = self.inner.resolve(name)?;
        let map = self.inner.shard(id).series.read();
        Ok(map.get(&id).map(|s| s.files.len()).unwrap_or(0))
    }

    /// Whether the background compaction scheduler is running.
    pub fn compaction_scheduler_running(&self) -> bool {
        self.scheduler.is_some()
    }
}
