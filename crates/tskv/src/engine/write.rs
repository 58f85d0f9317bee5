//! The write path, deletes and snapshots: one shard guard per request,
//! held over in-memory state and the shard's durability writers only.

use super::*;

impl EngineInner {
    /// The series' in-memory store, instantiated lazily on first
    /// touch. Requires the shard's write guard (passed as `map`).
    fn store_entry<'a>(&self, map: &'a mut SeriesMap, id: SeriesId) -> &'a mut SeriesStore {
        map.entry(id).or_insert_with(|| {
            self.io.record_store_instantiated();
            // No log on disk: the open instantiates every series with one.
            let log = disk::delete_log_path(&self.shard(id).dir, id);
            SeriesStore::new(ModsFile::new(log))
        })
    }

    /// Drain a shard WAL's group-commit buffer in one syscall,
    /// fsyncing when `sync` (or always under [`FsyncPolicy::Always`]).
    /// Called before the shard lock is released, so every
    /// acknowledged write is in the OS first.
    fn commit_wal_with(&self, shard: &Shard, sync: bool) -> Result<()> {
        let sync = sync || matches!(self.config.fsync_policy, FsyncPolicy::Always);
        if sync {
            // WAL records are id-tagged; the catalog record binding
            // the id must reach disk before (or with) any durable
            // record that uses it, or a power loss could leave a
            // replayable record whose id the catalog forgot — open
            // then refuses the store outright.
            self.catalog.sync_if_dirty()?;
        }
        let bytes = shard.wal.commit(sync)?;
        if bytes > 0 {
            self.io.record_wal_batch(bytes);
            if sync {
                self.io.record_wal_sync();
            }
        }
        Ok(())
    }

    /// The write path: apply `entries` — runs of points, any time
    /// order, later duplicates overwrite — and return the number of
    /// points written. Entries are grouped by shard, and each shard's
    /// write guard is taken once: every entry's WAL record and memtable
    /// insert, then one group commit of the shard's log (fsync per
    /// [`FsyncPolicy`]) before the guard drops. After every guard has
    /// dropped, listeners are notified and the memtables that crossed
    /// the flush threshold flush — as one group, so that those sharing
    /// a shard share a file. Empty runs are skipped.
    pub(super) fn write(&self, entries: &[(SeriesId, &[Point])]) -> Result<usize> {
        let mut by_shard: Vec<Vec<(SeriesId, &[Point])>> = vec![Vec::new(); self.shards.len()];
        for &(id, points) in entries.iter().filter(|(_, p)| !p.is_empty()) {
            self.known(id)?;
            if let Some(group) = by_shard.get_mut(id.index() % self.shards.len()) {
                group.push((id, points));
            }
        }
        let mut total = 0usize;
        let mut need_flush: Vec<SeriesId> = Vec::new();
        for (shard, group) in self.shards.iter().zip(&by_shard) {
            if group.is_empty() {
                continue;
            }
            let mut map = shard.series.write();
            let applied = group.iter().try_for_each(|&(id, points)| {
                let store = self.store_entry(&mut map, id);
                // The record carries the highest version allocated so
                // far: the flush that drains these points claims the
                // series under this lock, so its versions are higher.
                shard.wal.append_inserts(id, self.alloc.current(), points)?;
                store.memtable.extend(points);
                self.io.record_points_written(points.len() as u64);
                total += points.len();
                if store.memtable.len() >= self.config.memtable_threshold
                    && store.flushing.is_none()
                {
                    need_flush.push(id);
                }
                Ok(())
            });
            // One commit, also when an entry failed: what did reach a
            // memtable is in the OS before the guard drops.
            let committed = self.commit_wal_with(shard, false);
            applied.and(committed)?;
        }
        if self.changes.active() {
            for &(id, points) in by_shard.iter().flatten() {
                self.changes.publish(&ChangeEvent::Write {
                    series: id,
                    points: Arc::new(points.to_vec()),
                });
            }
        }
        self.flush_group(&need_flush, false)?;
        Ok(total)
    }

    /// Delete all points of `id` in `[start, end]` (inclusive), as an
    /// append-only versioned tombstone. Memtable points are removed
    /// eagerly; sealed chunks are filtered at read time (one log entry).
    pub(super) fn delete(&self, id: SeriesId, start: Timestamp, end: Timestamp) -> Result<()> {
        if start > end {
            return Err(TsKvError::InvalidDeleteRange { start, end });
        }
        self.known(id)?;
        {
            let shard = self.shard(id);
            let mut map = shard.series.write();
            // A tombstone on a cold series still instantiates it: the
            // delete must be durable and visible to later writes.
            let store = self.store_entry(&mut map, id);
            let version = self.alloc.next();
            let range = TimeRange::new(start, end);
            // Tombstones are rare and dangerous to lose: commit (and,
            // unless the policy is Never, fsync) the delete record
            // immediately. One bound for the series' delete log syncs
            // under every policy: the log's entry is durable once
            // appended, so the records before it must be too — a power
            // loss that kept the entry and lost them would read as no
            // prefix of the history. The sync carries the catalog too,
            // whose binding the log's name needs.
            let logged = store.sealed_overlaps(&range);
            let sync = logged || !matches!(self.config.fsync_policy, FsyncPolicy::Never);
            shard.wal.append_delete(id, version, range)?;
            self.commit_wal_with(shard, sync)?;
            store.memtable.delete_range(range);
            if logged {
                store.log.append(ModEntry::new(version, start, end))?;
            }
        }
        if self.changes.active() {
            self.changes.publish(&ChangeEvent::Delete {
                series: id,
                start,
                end,
            });
        }
        Ok(())
    }

    /// Capture a point-in-time read view of one series: all sealed
    /// chunks, any in-flight flush image, the memtable image (as a
    /// high-version in-memory chunk), and all deletes, each sorted by
    /// version. A registered-but-cold series yields an empty snapshot
    /// without instantiating anything.
    pub(super) fn snapshot(&self, id: SeriesId) -> Result<SeriesSnapshot> {
        self.known(id)?;
        let (mut files, mut chunks, mut deletes) = (Vec::new(), Vec::new(), Vec::new());
        let map = self.shard(id).series.read();
        if let Some(store) = map.get(&id) {
            // Sealed metadata is the open file's, shared by count: the
            // lock is held for a count per chunk, not a footer copy.
            for res in &store.files {
                let metas = res.metas().iter();
                chunks.extend(metas.map(|m| ChunkHandle::from_file(files.len(), Arc::clone(m))));
                files.push(Arc::clone(&res.file.reader));
            }
            deletes = store.log.entries().to_vec();
            // Points being sealed by an in-flight flush: visible as a mem
            // chunk carrying the last version reserved for that flush, so
            // later deletes (higher version) apply to it and the live
            // memtable chunk (below, strictly higher again) overrides it.
            if let Some(fl) = &store.flushing {
                chunks.extend(ChunkHandle::from_mem(
                    Arc::clone(&fl.points),
                    fl.last_version,
                ));
            }
            if !store.memtable.is_empty() {
                let points = Arc::new(store.memtable.to_points());
                let version = Version(self.alloc.current().0 + 1);
                chunks.extend(ChunkHandle::from_mem(points, version));
            }
        }
        drop(map);
        chunks.sort_by_key(|c| c.version);
        Ok(SeriesSnapshot::new(
            files,
            chunks,
            deletes,
            Arc::clone(&self.io),
            self.cache.clone(),
            self.config.read_threads,
        ))
    }
}
