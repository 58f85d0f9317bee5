//! Compaction by shard sweep, in the phases of a flush group: capture
//! the members' sealed runs under one shard guard, merge every member
//! into its run of **one** output file with no lock held, install the
//! file and retire the inputs under one guard again. A series'
//! compaction is the one-member sweep.

use super::flush::FLUSH_GROUP_MAX_POINTS;
use super::*;

/// One series' share of a sweep: what was captured of it.
#[derive(Debug)]
struct SweepMember {
    id: SeriesId,
    /// Its sealed runs: a prefix of its version-ordered file list.
    inputs: Vec<SeriesView>,
    /// Its delete log.
    deletes: Vec<ModEntry>,
    /// The highest version its inputs speak for: what every output
    /// chunk carries and what its output run supersedes.
    version: u64,
}

/// A captured sweep: the members in ascending id order (the order of
/// the output's run directory), the output's name and the version
/// ceiling of the capture.
#[derive(Debug)]
pub(super) struct Sweep {
    members: Vec<SweepMember>,
    path: PathBuf,
    ceiling: Version,
}

impl EngineInner {
    /// Compact the whole store behind [`TsKv::compact_all`]: one sweep
    /// of every shard, the twin of [`flush_all`](EngineInner::flush_all).
    /// Each shard's sweep takes every series with sealed runs — found
    /// under a short read guard, so a million registered-but-cold
    /// series cost nothing. It ends by checkpointing the catalog: the
    /// log is rewritten as one head frame of every name
    /// ([`SeriesCatalog::checkpoint`]).
    pub(super) fn compact_all(&self) -> Result<CompactionReport> {
        let mut report = CompactionReport::default();
        for shard in &self.shards {
            let mut ids: Vec<SeriesId> = {
                let map = shard.series.read();
                let with_runs = map.iter().filter(|(_, store)| !store.files.is_empty());
                with_runs.map(|(id, _)| *id).collect()
            };
            ids.sort_unstable();
            report += self.sweep(shard, &ids, 1)?;
        }
        self.catalog.checkpoint()?;
        Ok(report)
    }

    /// The compaction behind [`TsKv::compact`] and the background
    /// scheduler: the one-member sweep, run only if the series has at
    /// least `min_files` (≥ 1) sealed runs — `1` from the manual entry
    /// points, `compaction_threshold` from the scheduler.
    pub(crate) fn compact_run(&self, id: SeriesId, min_files: usize) -> Result<CompactionReport> {
        self.known(id)?;
        self.sweep(self.shard(id), &[id], min_files)
    }

    /// The sweep over the members of `ids` (ascending), one output file
    /// per [`FLUSH_GROUP_MAX_POINTS`] captured: `capture_sweep`,
    /// `write_sweep`, `install_sweep`, retire the inputs, `trim_sweep`.
    fn sweep(&self, shard: &Shard, ids: &[SeriesId], min_files: usize) -> Result<CompactionReport> {
        let mut report = CompactionReport::default();
        let mut todo = ids.to_vec();
        while !todo.is_empty() {
            let (sweep, later) = self.capture_sweep(shard, &todo, min_files);
            if let Some(sweep) = sweep {
                let written = self.write_sweep(&sweep);
                let (retired, merged) = self.install_sweep(shard, &sweep, written)?;
                for view in retired {
                    // An input left on disk is still superseded by the output.
                    view.retire(self.cache.as_deref()).ok();
                }
                self.trim_sweep(shard, &sweep);
                report += merged;
            }
            todo = later;
        }
        Ok(report)
    }

    /// Sweep phase A, under one write guard of `shard`: capture members
    /// of `ids` (ascending) until the sweep holds
    /// [`FLUSH_GROUP_MAX_POINTS`] — each series with `min_files` (≥ 1)
    /// sealed runs that no flush (whose versions are for points not yet
    /// in `files`) and no compaction holds: its runs (Arc'd readers and
    /// metas, no bodies) and delete log, marking it `compacting`. The
    /// count is checked under the guard that marks it: a scheduler tick
    /// that lost a race to a manual compaction declines. Returns the
    /// sweep and the ids past the cap.
    pub(super) fn capture_sweep(
        &self,
        shard: &Shard,
        ids: &[SeriesId],
        min_files: usize,
    ) -> (Option<Sweep>, Vec<SeriesId>) {
        let mut members = Vec::new();
        let mut held = 0usize;
        let mut ids = ids.iter();
        let mut map = shard.series.write();
        while held < FLUSH_GROUP_MAX_POINTS {
            let Some(&id) = ids.next() else {
                break;
            };
            let Some(store) = map.get(&id) else {
                continue;
            };
            let busy = store.compacting || store.flushing.is_some();
            if store.files.is_empty() || store.files.len() < min_files || busy {
                continue;
            }
            let metas = store.files.iter().flat_map(SeriesView::metas);
            held += metas.map(|m| m.stats.count as usize).sum::<usize>();
            members.push(SweepMember {
                id,
                inputs: store.files.clone(),
                deletes: store.log.entries().to_vec(),
                // Anything that outranked an input (a later file, a later
                // delete) still outranks the output. A fresh version would
                // order the merged data after deletes it never saw.
                version: store.files.iter().map(SeriesView::rank).max().unwrap_or(0),
            });
        }
        let later = ids.copied().collect();
        // Only chunkless runs (each the whole output of an earlier
        // compaction that found every point deleted) are no work of
        // their own; they ride along so that their file can go.
        let chunks = |m: &SweepMember| m.inputs.iter().any(|v| !v.metas().is_empty());
        if !members.iter().any(chunks) {
            return (None, later);
        }
        for member in &members {
            if let Some(store) = map.get_mut(&member.id) {
                store.compacting = true;
            }
        }
        let sweep = Sweep {
            members,
            // Deletes issued after this point get versions above the
            // ceiling, where `trim_sweep` cuts each log: a member's
            // `version` can be below a delete the merge saw.
            ceiling: self.alloc.current(),
            // The output takes its file number here, before any flush
            // that will outrank it takes one: file order stays version
            // order, which is what lets recovery read `supersedes` as
            // "replaces the runs in the files before me".
            path: shard.next_data_path(),
        };
        (Some(sweep), later)
    }

    /// Sweep phase B (no lock held): merge each member's inputs into
    /// its run of one sealed file (see [`execute`]) and hand back the
    /// file with the merge's counts. An empty merge gets its run too:
    /// its chunkless run is the series' floor.
    pub(super) fn write_sweep(&self, sweep: &Sweep) -> Result<(Arc<SealedFile>, CompactionReport)> {
        let mut report = CompactionReport::default();
        let file = seal_file(&self.config, &sweep.path, |w| {
            for member in &sweep.members {
                // The member's chunks in capture (= version) order, each
                // with the reader its body is behind.
                let chunks: Vec<(&TsFileReader, &ChunkMeta)> = member
                    .inputs
                    .iter()
                    .flat_map(|v| v.metas().iter().map(move |m| (&*v.file.reader, &**m)))
                    .collect();
                let run = execute::OutputRun {
                    series: member.id.0,
                    version: member.version,
                };
                report += execute::merge_run(w, &self.config, &chunks, &member.deletes, run)?;
            }
            Ok(())
        })?;
        Ok((file, report))
    }

    /// Sweep phase C, under one guard: put each member's output run in
    /// place of its captured runs and hand back the retired ones; on a
    /// failed write, release the members. Only appends happened while
    /// `compacting` was set (flush installs push at the tail), so a
    /// member's first runs are still its inputs and replacing them in
    /// place keeps its file list version-ordered.
    pub(super) fn install_sweep(
        &self,
        shard: &Shard,
        sweep: &Sweep,
        written: Result<(Arc<SealedFile>, CompactionReport)>,
    ) -> Result<(Vec<SeriesView>, CompactionReport)> {
        let mut map = shard.series.write();
        let (file, mut report) = match written {
            Ok(written) => written,
            Err(e) => {
                for member in &sweep.members {
                    if let Some(store) = map.get_mut(&member.id) {
                        store.compacting = false;
                    }
                }
                return Err(e);
            }
        };
        let mut retired = Vec::new();
        // The file's runs are the members, in order; `compacting` stays
        // set for the trim.
        for (member, view) in sweep.members.iter().zip(file.views()) {
            let store = map
                .get_mut(&member.id)
                .ok_or_else(|| self.not_found(member.id))?;
            retired.extend(store.files.splice(..member.inputs.len(), [view]));
            report.deletes_applied += member.deletes.len();
        }
        report.files_removed = retired.len();
        self.io.record_compaction_io(
            report.bytes_read,
            report.bytes_rewritten,
            report.pages_copied,
            report.pages_recoded,
        );
        Ok((retired, report))
    }

    /// Sweep phase D (locked, as appends are), once the inputs are
    /// retired (the output in place first: a crash in between leaves
    /// both, and its `supersedes` tells the reopen which to read): trim
    /// each member's log to its entries above the ceiling, issued during
    /// the merge, and release it. Data before log: the inputs the
    /// dropped entries applied to can no longer be read. A crash before
    /// the trim leaves a superset, which is harmless — a delete at or
    /// below the ceiling re-applied to the output erases nothing — so a
    /// failing trim is left to the next compaction.
    pub(super) fn trim_sweep(&self, shard: &Shard, sweep: &Sweep) {
        let mut map = shard.series.write();
        for member in &sweep.members {
            if let Some(store) = map.get_mut(&member.id) {
                store.log.trim_through(sweep.ceiling).ok();
                store.compacting = false;
            }
        }
    }

    /// Series whose sealed-file count reached `compaction_threshold`
    /// and that no compaction currently owns. Takes each shard's read
    /// guard only for the map walk — never across I/O — so the
    /// background scheduler can poll this cheaply. Returns ids: a
    /// sweep over a million series allocates one `Vec<u32>`-sized
    /// list, never a name.
    pub(crate) fn compaction_candidates(&self) -> Vec<SeriesId> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let map = shard.series.read();
            for (id, store) in map.iter() {
                if store.files.len() >= self.config.compaction_threshold && !store.compacting {
                    out.push(*id);
                }
            }
        }
        out.sort_unstable();
        out
    }
}
