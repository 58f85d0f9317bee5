//! The flush group: claimed under one shard guard, sealed into one file
//! with no lock held, installed (or put back) under one guard again.

use super::*;

/// Points a flush group may park in `flushing` slots before it is
/// sealed and the next group of the same shard begins: what bounds how
/// much a `flush_all` over many full memtables holds outside them —
/// readable, not yet sealed, while new writes refill the memtables — at
/// once (16 MiB of points). A fixed property of the engine, not a knob.
pub(super) const FLUSH_GROUP_MAX_POINTS: usize = 1 << 20;

/// Points drained from the memtable by a flush that is still in its
/// unlocked sealing phase. Kept visible to snapshots (as a mem chunk
/// carrying the last reserved version) until the sealed file replaces
/// it.
#[derive(Debug)]
pub(super) struct FlushInFlight {
    pub(super) points: Arc<Vec<Point>>,
    pub(super) last_version: Version,
}

/// One series' share of a flush group: the points drained from its
/// memtable (parked in its `flushing` slot meanwhile) and the chunk
/// versions reserved for them.
#[derive(Debug)]
pub(super) struct FlushMember {
    pub(super) id: SeriesId,
    pub(super) points: Arc<Vec<Point>>,
    versions: Vec<Version>,
    /// Whether the shard WAL holds the points: not when the write that
    /// filled the memtable seals them itself, and logs them only if the
    /// seal fails ([`abort_group`](EngineInner::abort_group)).
    logged: bool,
}

impl EngineInner {
    /// Flush every series with buffered points, as one group. The
    /// members come from the instantiated stores — a short read guard
    /// per shard — so a million registered-but-cold series cost
    /// nothing here. A series mid-flush is a member too: the group
    /// waits for that flush and seals whatever is buffered after it.
    pub(super) fn flush_all(&self) -> Result<()> {
        let mut ids = Vec::new();
        for shard in &self.shards {
            let map = shard.series.read();
            ids.extend(
                map.iter()
                    .filter(|(_, store)| !store.memtable.is_empty() || store.flushing.is_some())
                    .map(|(id, _)| *id),
            );
        }
        self.flush_group(&ids)
    }

    /// The flush state machine. Its unit is the shard: the members of
    /// `ids` that share one are sealed into **one** file, a run of
    /// chunks per member, for one catalog sync, one create, one
    /// `sync_all`, one reopen and at most one WAL sync, however many.
    /// A single series is the one-member case of the same path.
    ///
    /// A member another flush holds is waited for, and then whatever it
    /// has buffered since is flushed.
    ///
    /// Per group: phase A claims every member under one guard of the
    /// shard lock ([`claim_group`]); phase B writes the file with no
    /// lock held ([`write_group`]); phase C ([`finish_group`]) installs
    /// a view of it in every member under one guard — or, on failure,
    /// puts every member's points back ([`abort_group`]).
    ///
    /// [`claim_group`]: EngineInner::claim_group
    /// [`write_group`]: EngineInner::write_group
    /// [`finish_group`]: EngineInner::finish_group
    /// [`abort_group`]: EngineInner::abort_group
    pub(super) fn flush_group(&self, ids: &[SeriesId]) -> Result<()> {
        let mut by_shard: Vec<Vec<SeriesId>> = vec![Vec::new(); self.shards.len()];
        for &id in ids {
            self.known(id)?;
            if let Some(members) = by_shard.get_mut(id.index() % self.shards.len()) {
                members.push(id);
            }
        }
        for (shard, mut todo) in self.shards.iter().zip(by_shard) {
            // Ascending id: the order of the file's run directory.
            todo.sort_unstable();
            todo.dedup();
            while !todo.is_empty() {
                let (members, later) = self.claim_group(shard, &todo);
                if members.is_empty() {
                    // Only members that another flush holds are left.
                    std::thread::yield_now();
                } else {
                    let sealed = self.write_group(shard, &members);
                    self.finish_group(shard, &members, sealed)?;
                }
                todo = later;
            }
        }
        Ok(())
    }

    /// Flush phase A for one group, under one write guard of `shard`:
    /// claim members of `ids` (ascending, [`claim_member`]) until the
    /// group holds [`FLUSH_GROUP_MAX_POINTS`]. Writes nothing. Returns
    /// the members and the ids still to do — busy ones, and everything
    /// past the cap — still ascending.
    ///
    /// [`claim_member`]: EngineInner::claim_member
    pub(super) fn claim_group(
        &self,
        shard: &Shard,
        ids: &[SeriesId],
    ) -> (Vec<FlushMember>, Vec<SeriesId>) {
        let mut members = Vec::new();
        let mut later = Vec::new();
        let mut held = 0usize;
        let mut ids = ids.iter();
        let mut map = shard.series.write();
        while held < FLUSH_GROUP_MAX_POINTS {
            let Some(&id) = ids.next() else {
                break;
            };
            // Never touched (nothing to flush, and no reason to
            // instantiate it): not a member.
            let Some(store) = map.get_mut(&id) else {
                continue;
            };
            if store.flushing.is_some() {
                later.push(id);
                continue;
            }
            if let Some(member) = self.claim_member(id, store, true) {
                held += member.points.len();
                members.push(member);
            }
        }
        later.extend(ids);
        (members, later)
    }

    /// Claim one series with no flush in flight, under its shard's
    /// write guard: take its in-flight slot, drain its memtable and
    /// reserve its chunk versions. The drain and the reservation are
    /// one step under the lock, so every WAL record of the series with
    /// a κ below the versions holds a drained point and every later
    /// write or delete carries a κ at or above them. `None`, taking
    /// nothing, when nothing is buffered; `logged` says whether the WAL
    /// holds what is drained.
    pub(super) fn claim_member(
        &self,
        id: SeriesId,
        store: &mut SeriesStore,
        logged: bool,
    ) -> Option<FlushMember> {
        if store.memtable.is_empty() {
            return None;
        }
        let points = Arc::new(store.memtable.drain_sorted());
        // Reserving every chunk version while still locked guarantees
        // that any later delete orders after every chunk of this flush.
        let n_chunks = points.len().div_ceil(self.config.points_per_chunk).max(1);
        let versions: Vec<Version> = (0..n_chunks).map(|_| self.alloc.next()).collect();
        let last_version = versions
            .last()
            .copied()
            .unwrap_or_else(|| self.alloc.current());
        store.flushing = Some(FlushInFlight {
            points: Arc::clone(&points),
            last_version,
        });
        Some(FlushMember {
            id,
            points,
            versions,
            logged,
        })
    }

    /// Flush phase B (no lock held): make the group durable as one
    /// sealed file and hand back every member's view of it. The
    /// durability order of a flush is the statement order here and in
    /// [`finish_group`](EngineInner::finish_group):
    ///
    /// 1. the catalog, so that no durable id-tagged byte — WAL record
    ///    or data-file run — can outlive the binding of its id;
    /// 2. the file, `sync_all`ed before it gets its name;
    /// 3. the shard WAL: reclaimed by the members' sealed versions, then
    ///    synced if a replay still needs it (`finish_group`).
    ///
    /// Syncing the log ahead of the file would write back exactly the
    /// records the file makes redundant. The price: a power loss can
    /// keep the file and only a prefix of the members' records, which
    /// is *older* than the file — replayed, it would outrank it. Every
    /// record carries the version it was appended after, and replay
    /// skips one that lies below a durable run of its series (these
    /// runs' versions were reserved after it): see [`crate::shard_wal`].
    pub(super) fn write_group(
        &self,
        shard: &Shard,
        members: &[FlushMember],
    ) -> Result<Vec<SeriesView>> {
        self.catalog.sync_if_dirty()?;
        let path = shard.next_data_path();
        let file = seal_file(&self.config, &path, |w| {
            for member in members {
                w.begin_series(member.id.0, 0)?;
                let chunks = member.points.chunks(self.config.points_per_chunk);
                for (chunk, version) in chunks.zip(&member.versions) {
                    w.write_chunk(chunk, version.0)?;
                }
            }
            Ok(())
        })?;
        Ok(file.views().collect())
    }

    /// Flush phase C: with the group's file durable, report every
    /// member's sealed version to the WAL and install its view; with the
    /// file failed, put every member's points back.
    pub(super) fn finish_group(
        &self,
        shard: &Shard,
        members: &[FlushMember],
        sealed: Result<Vec<SeriesView>>,
    ) -> Result<()> {
        let views = match sealed {
            Ok(views) => views,
            Err(e) => {
                self.abort_group(shard, members)?;
                return Err(e);
            }
        };
        // The log learns what the file holds (each member's last chunk
        // version), reclaims what that covers and syncs what is left. A
        // failure leaves records whose versions the file outranks — a
        // reopen skips them — so the views are installed anyway.
        let sealed: Vec<(SeriesId, Version)> = members
            .iter()
            .filter_map(|m| Some((m.id, *m.versions.last()?)))
            .collect();
        let sync = !matches!(self.config.fsync_policy, FsyncPolicy::Never);
        let mut outcome = shard.wal.end_flushes(&sealed, sync).map(|synced| {
            if synced {
                self.io.record_wal_sync();
            }
        });
        // Every member drained at least one point, so the file's runs
        // are the members, in order. One guard installs them all and
        // releases their slots.
        {
            let mut map = shard.series.write();
            for (member, view) in members.iter().zip(views) {
                let store = map
                    .get_mut(&member.id)
                    .ok_or_else(|| self.not_found(member.id));
                outcome = outcome.and(store.map(|store| {
                    store.flushing = None;
                    store.files.push(view);
                }));
            }
        }
        self.io.record_file_sealed(members.len() as u64);
        if self.changes.active() {
            for member in members {
                self.changes
                    .publish(&ChangeEvent::Flush { series: member.id });
            }
        }
        outcome
    }

    /// The group's file could not be written: put every member's points
    /// back, under one guard. They stay buffered, and in the log, which
    /// never learnt a sealed version for them; a member the log never
    /// held is logged now, with exactly the points put back. Writes and
    /// deletes that landed mid-flush are newer and must win — hence the
    /// absent-only reinsert and the tombstone filter (the log's entries
    /// above the flush's reserved versions). An error is the WAL's: the
    /// points are back, but not all of them in the log.
    fn abort_group(&self, shard: &Shard, members: &[FlushMember]) -> Result<()> {
        let mut map = shard.series.write();
        let mut logged = Ok(());
        for member in members {
            let Some(store) = map.get_mut(&member.id) else {
                continue;
            };
            let reserved = store.flushing.take().map(|f| f.last_version);
            let entries = store.log.entries();
            let newer = &entries[entries.partition_point(|m| Some(m.version) <= reserved)..];
            let mut back = Vec::new();
            for p in member.points.iter() {
                if !newer.iter().any(|m| m.covers(p.t)) && store.memtable.insert_if_absent(*p) {
                    back.push(*p);
                }
            }
            if !member.logged {
                let appended = shard
                    .wal
                    .append_inserts(member.id, self.alloc.current(), &back);
                logged = logged.and(appended);
            }
        }
        if members.iter().all(|m| m.logged) {
            return logged;
        }
        logged.and(self.commit_wal_with(shard, false))
    }
}
