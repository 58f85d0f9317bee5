//! A series' compaction: capture its sealed runs under the shard guard,
//! merge them with no lock held, swap the output in, retire the inputs.

use super::*;

impl EngineInner {
    /// The phased compaction behind [`TsKv::compact`], run only if the
    /// series has at least `min_files` (≥ 1) sealed runs: `1` from the
    /// manual entry points, `compaction_threshold` from the background
    /// scheduler.
    pub(crate) fn compact_run(&self, id: SeriesId, min_files: usize) -> Result<CompactionReport> {
        self.known(id)?;
        // Phase A (locked): capture the input's metadata (chunk metas,
        // log entries, and Arc'd readers only — no chunk bodies).
        // `min_files` is checked under the same guard that sets
        // `compacting`, so a scheduler tick that lost a race to a
        // manual compact declines instead of rewriting a single file.
        let (inputs, deletes, header, capture_ceiling, path) = {
            let mut map = self.shard(id).series.write();
            let Some(store) = map.get_mut(&id) else {
                // Cold series: nothing sealed, nothing to merge.
                return Ok(CompactionReport::default());
            };
            // An in-flight flush holds versions for points not yet
            // visible in `files`; merging around it risks ordering
            // confusion for no gain. Back off and let the scheduler
            // retry once the flush installs.
            if store.files.len() < min_files || store.compacting || store.flushing.is_some() {
                return Ok(CompactionReport::default());
            }
            if store.files.iter().all(|v| v.metas().is_empty()) {
                // Only chunkless runs (each the whole output of an
                // earlier compaction that found every point deleted):
                // nothing to merge.
                return Ok(CompactionReport::default());
            }
            let inputs = store.files.clone();
            let deletes = store.log.entries().to_vec();
            store.compacting = true;
            // Every output chunk carries the maximum input version.
            // The inputs are a prefix of the version-ordered file
            // list, so anything that outranked an input (a later file,
            // a later delete) still outranks the output.
            // No fresh versions are allocated: a reserved version would
            // order the merged (older) data after concurrent deletes
            // that the merge never saw.
            // The same version is what the output says it supersedes:
            // every input, and everything the inputs superseded.
            let out_version = store.files.iter().map(SeriesView::rank).max().unwrap_or(0);
            let header = execute::OutputRun {
                series: id.0,
                version: out_version,
            };
            // Deletes issued after this point get versions above the
            // ceiling; phase E trims the log there, keeping the ones
            // the merge missed. (`out_version` can be older than a
            // pre-capture delete that postdates the last flush — the
            // ceiling is the only version that cleanly splits "seen"
            // from "missed".)
            let capture_ceiling = self.alloc.current();
            // The output takes its file number here, before any flush
            // that will outrank it takes one: file order stays version
            // order, which is what lets recovery read `supersedes` as
            // "replaces the runs in the files before me".
            let path = self.shard(id).next_data_path();
            (inputs, deletes, header, capture_ceiling, path)
        };
        let captured = inputs.len();
        // The inputs' chunks, in capture (= version) order, each with
        // the reader its body is behind.
        let chunks: Vec<(&TsFileReader, &ChunkMeta)> = inputs
            .iter()
            .flat_map(|v| v.metas().iter().map(move |m| (&*v.file.reader, &**m)))
            .collect();
        let deletes_applied = deletes.len();

        // Phase B (unlocked): classify every input page clean/dirty
        // from footer metadata, then merge-and-write — clean pages
        // copied raw (CRC-revalidated, never decoded), dirty pages
        // decoded, k-way merged and re-encoded. The dirty merge reads
        // through a detached snapshot (no shared cache, detached
        // counters): compaction I/O is reported via the explicit
        // `compaction_*` counters instead of polluting the read-path
        // ones, and the input generation is about to be retired — not
        // worth caching.
        let views: Vec<ChunkView> = chunks
            .iter()
            .map(|(_, meta)| ChunkView {
                version: meta.version.0,
                range: meta.time_range(),
                pages: meta.paged.pages.iter().map(|p| p.time_range()).collect(),
            })
            .collect();
        let cplan = plan::classify(&views, &deletes);
        let tmp = disk::in_flight_path(&path);
        // The output is written even when the merge comes up empty: its
        // chunkless run is the series' floor (see `merge_to_file`).
        let outcome = execute::merge_to_file(&self.config, &tmp, &chunks, deletes, &cplan, header)
            .and_then(|o| {
                disk::publish(&tmp, &path)?;
                let view = SealedFile::open(&path)?.views().next().ok_or_else(|| {
                    TsKvError::Corrupt(format!("{}: compaction output has no run", path.display()))
                })?;
                Ok((o, view))
            });
        if outcome.is_err() {
            disk::discard(&tmp, &path);
        }

        // Phase C (locked): swap the new generation in for the captured
        // runs and collect the retired views. Only appends happened
        // while `compacting` was set (flush installs push at the tail),
        // so the first `captured` entries are still the inputs and
        // replacing them in place keeps the file list version-ordered.
        let (retired, outcome) = {
            let mut map = self.shard(id).series.write();
            let store = map.get_mut(&id).ok_or_else(|| self.not_found(id))?;
            store.compacting = outcome.is_ok(); // held for the trim below
            let (outcome, sealed) = outcome?;
            let retired: Vec<SeriesView> = store.files.splice(..captured, [sealed]).collect();
            (retired, outcome)
        };
        self.io.record_compaction_io(
            outcome.bytes_read,
            outcome.bytes_rewritten,
            outcome.pages_copied,
            outcome.pages_recoded,
        );

        // Phase D (unlocked): retire the old generation — each run's
        // cache entries, and each file whose last live run this was.
        // The new file was in place before this (a crash in
        // between leaves both generations on disk, and the output's
        // `supersedes` tells the reopen which one to read), and
        // snapshots still holding the old readers keep working — POSIX
        // unlink semantics. Such a straggler snapshot may re-populate a
        // retired run's cache entries after this invalidation; that is
        // benign (handle ids are never reused, so the entries can only
        // ever serve that same straggler) and the LRU ages them out.
        let files_removed = retired.len();
        for view in retired {
            // An input left on disk is still superseded by the output.
            view.retire(self.cache.as_deref()).ok();
        }

        // Phase E (locked, as appends are): trim the log to its entries
        // above the ceiling — the ones issued during the merge, which
        // outrank every output chunk. Data before log: the inputs the
        // dropped entries applied to can no longer be read — the output
        // has its name and supersedes them, unlinked or not. A crash
        // before the trim leaves a superset, which is harmless: a
        // delete at or below the ceiling re-applied to the output
        // erases nothing, because every lower-versioned point it covers
        // was merged away, and what was sealed since outranks it. So a
        // failing trim is not a failed compaction: it is left to the
        // next one. `compacting` stays set up to here: one compaction
        // of a series at a time, trim included.
        {
            let mut map = self.shard(id).series.write();
            let store = map.get_mut(&id).ok_or_else(|| self.not_found(id))?;
            store.log.trim_through(capture_ceiling).ok();
            store.compacting = false;
        }
        Ok(CompactionReport {
            files_removed,
            deletes_applied,
            ..outcome
        })
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
