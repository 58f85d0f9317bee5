//! File ownership: a sealed file, each series' view of its run in one,
//! how a view is retired, and how a file is sealed.

use super::*;

/// One sealed TsFile on disk. Every series with a run in it holds a
/// [`SeriesView`] of it; the file belongs to those views together and
/// is unlinked by whichever retirement takes `live_runs` to zero.
#[derive(Debug)]
pub(super) struct SealedFile {
    pub(super) reader: Arc<TsFileReader>,
    /// Runs of the file's directory that some series still reads.
    live_runs: AtomicUsize,
}

impl SealedFile {
    /// Open the sealed file at `path`; every run of its directory
    /// starts out live.
    pub(super) fn open(path: &Path) -> Result<Arc<SealedFile>> {
        let reader = Arc::new(TsFileReader::open(path)?);
        let live_runs = AtomicUsize::new(reader.series_runs().len());
        Ok(Arc::new(SealedFile { reader, live_runs }))
    }

    /// A view of each run of the file's directory, in its order.
    pub(super) fn views(self: &Arc<Self>) -> impl Iterator<Item = SeriesView> + '_ {
        let runs = self.reader.series_runs().iter().cloned();
        runs.map(|run| SeriesView {
            file: Arc::clone(self),
            run,
        })
    }
}

/// One series' view of a sealed file: the file (shared with the other
/// series flushed into it) and this series' run of its chunks.
#[derive(Debug, Clone)]
pub(super) struct SeriesView {
    pub(super) file: Arc<SealedFile>,
    pub(super) run: SeriesRun,
}

impl SeriesView {
    /// Metadata of the run's chunks.
    pub(super) fn metas(&self) -> &[Arc<ChunkMeta>] {
        self.file.reader.run_chunks(&self.run)
    }

    /// Time interval spanned by the run's chunks, if any.
    pub(super) fn time_range(&self) -> Option<TimeRange> {
        let metas = self.metas();
        let start = metas.iter().map(|m| m.stats.first.t).min()?;
        let end = metas.iter().map(|m| m.stats.last.t).max()?;
        Some(TimeRange::new(start, end))
    }

    /// The highest version the run speaks for: of its chunks, or of the
    /// chunks it replaced. A run in a later file whose `supersedes`
    /// reaches this has replaced the run.
    pub(super) fn rank(&self) -> u64 {
        let newest = self.metas().iter().map(|m| m.version.0).max();
        newest.unwrap_or(0).max(self.run.supersedes.0)
    }

    /// Retire the view: its series no longer reads the run, because the
    /// compaction that merged it is done. Drops the run's decoded-chunk
    /// cache entries (the file's other runs keep theirs) and unlinks
    /// the file if this was its last live run (the only error). A run
    /// that stays on disk as dead bytes (other series still read the
    /// file, or the unlink failed) has an output in place, whose
    /// `supersedes` keeps a reopen from reading it again.
    pub(super) fn retire(self, cache: Option<&DecodedChunkCache>) -> std::io::Result<()> {
        tsfile::lockcheck::check_io();
        if let Some(cache) = cache {
            cache.invalidate_run(self.file.reader.handle_id(), self.run.chunks.clone());
        }
        // AcqRel: whoever takes the count to zero does so after every
        // other view's cache cleanup is done.
        if self.file.live_runs.fetch_sub(1, Ordering::AcqRel) == 1 {
            disk::unlink(self.file.reader.path())?;
        }
        Ok(())
    }
}

/// Seal one data file at `path`: `fill` writes its series runs through
/// a writer on the in-flight name, which is then finished (`sync_all`),
/// renamed into place and reopened for reading. On an error nothing is
/// left at either name.
pub(super) fn seal_file(
    config: &EngineConfig,
    path: &Path,
    fill: impl FnOnce(&mut TsFileWriter) -> Result<()>,
) -> Result<Arc<SealedFile>> {
    let tmp = disk::in_flight_path(path);
    let sealed = config
        .tsfile_writer(&tmp)
        .and_then(|mut w| {
            fill(&mut w)?;
            Ok(w.finish()?)
        })
        .and_then(|()| disk::publish(&tmp, path))
        .and_then(|()| SealedFile::open(path));
    if sealed.is_err() {
        disk::discard(&tmp, path);
    }
    sealed
}
