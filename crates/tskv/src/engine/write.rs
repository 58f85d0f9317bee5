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
    pub(super) fn commit_wal_with(&self, shard: &Shard, sync: bool) -> Result<()> {
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
    /// order, later duplicates overwrite ([`apply`]) — then seal the
    /// memtables they filled, those sharing a shard into one file,
    /// through the flush group's [`write_group`] and [`finish_group`],
    /// and return the number of points written. Empty runs are skipped.
    ///
    /// [`apply`]: EngineInner::apply
    /// [`write_group`]: EngineInner::write_group
    /// [`finish_group`]: EngineInner::finish_group
    pub(super) fn write(&self, entries: &[(SeriesId, &[Point])]) -> Result<usize> {
        let (applied, seals) = self.apply(entries);
        // Claimed members are sealed (or put back and logged) whatever
        // else failed: a claim holds its series' in-flight slot.
        let mut outcome = applied;
        for (shard, members) in seals {
            let sealed = self.write_group(shard, &members);
            let finished = self.finish_group(shard, &members, sealed);
            outcome = outcome.and_then(|n| finished.map(|()| n));
        }
        outcome
    }

    /// The write path up to its seals. Entries are grouped by shard, and
    /// each shard's write guard is taken once: every entry's memtable
    /// insert and WAL record, then one group commit of the shard's log
    /// (fsync per [`FsyncPolicy`]) before the guard drops. Once every
    /// guard has dropped, listeners are notified.
    ///
    /// An entry that fills its series' memtable (to
    /// `memtable_threshold`) while no flush of the series is in flight
    /// appends no record: under the same guard, the filled series are
    /// claimed ([`claim_member`]) — ascending, in groups capped as
    /// [`claim_group`]'s are — and handed back for the caller to seal.
    /// The sealed file's `sync_all` is then the write's durability under
    /// every policy, and a failed seal logs the points it puts back.
    /// Until the seal installs its file, the claimed points are readable
    /// from the in-flight slot, as they were from the memtable. Returns
    /// the points written (or the first error) and the groups to seal,
    /// whatever the outcome.
    ///
    /// [`claim_member`]: EngineInner::claim_member
    /// [`claim_group`]: EngineInner::claim_group
    pub(super) fn apply<'a>(
        &'a self,
        entries: &[(SeriesId, &[Point])],
    ) -> (Result<usize>, Vec<(&'a Shard, Vec<FlushMember>)>) {
        let mut seals: Vec<(&Shard, Vec<FlushMember>)> = Vec::new();
        let mut by_shard: Vec<Vec<(SeriesId, &[Point])>> = vec![Vec::new(); self.shards.len()];
        for &(id, points) in entries.iter().filter(|(_, p)| !p.is_empty()) {
            if let Err(e) = self.known(id) {
                return (Err(e), seals);
            }
            if let Some(group) = by_shard.get_mut(id.index() % self.shards.len()) {
                group.push((id, points));
            }
        }
        let threshold = self.config.memtable_threshold;
        let mut total = 0usize;
        for (shard, group) in self.shards.iter().zip(&by_shard) {
            if group.is_empty() {
                continue;
            }
            let mut filled = Vec::new();
            let mut map = shard.series.write();
            let applied = group.iter().try_for_each(|&(id, points)| {
                let store = self.store_entry(&mut map, id);
                // The record carries the highest version allocated so
                // far: the flush that drains these points claims the
                // series under this lock, so its versions are higher.
                // A run that may fill the memtable is logged after its
                // insert, and only if overwrites kept it from filling.
                let may_fill =
                    store.flushing.is_none() && store.memtable.len() + points.len() >= threshold;
                if !may_fill {
                    shard.wal.append_inserts(id, self.alloc.current(), points)?;
                }
                store.memtable.extend(points);
                self.io.record_points_written(points.len() as u64);
                total += points.len();
                if may_fill && store.memtable.len() >= threshold {
                    filled.push(id);
                } else if may_fill {
                    shard.wal.append_inserts(id, self.alloc.current(), points)?;
                }
                Ok(())
            });
            filled.sort_unstable();
            filled.dedup();
            let mut held = FLUSH_GROUP_MAX_POINTS;
            for id in filled {
                let store = map.get_mut(&id);
                let Some(member) = store.and_then(|s| self.claim_member(id, s, false)) else {
                    continue;
                };
                if held >= FLUSH_GROUP_MAX_POINTS {
                    seals.push((shard, Vec::new()));
                    held = 0;
                }
                held += member.points.len();
                if let Some((_, members)) = seals.last_mut() {
                    members.push(member);
                }
            }
            // One commit, also when an entry failed: what did reach a
            // memtable is in the OS before the guard drops.
            let committed = self.commit_wal_with(shard, false);
            if let Err(e) = applied.and(committed) {
                return (Err(e), seals);
            }
        }
        if self.changes.active() {
            for &(id, points) in by_shard.iter().flatten() {
                self.changes.publish(&ChangeEvent::Write {
                    series: id,
                    points: Arc::new(points.to_vec()),
                });
            }
        }
        (Ok(total), seals)
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
                let metas = res.run.chunks.clone().zip(res.metas());
                chunks.extend(
                    metas.map(|(i, m)| ChunkHandle::from_file(files.len(), i, Arc::clone(m))),
                );
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
