//! The unlocked merge-and-write phase of a compaction run.
//!
//! Consumes the input captured under the shard lock (readers, chunk
//! handles, deletes) plus the [`classification
//! plan`](crate::compaction::plan) and produces the output TsFile:
//!
//! * **Clean pages** move byte-for-byte: one pooled pread per
//!   contiguous page window
//!   ([`TsFileReader::read_page_window_raw`]), per-page CRC
//!   revalidation, and a raw append that carries the page statistics
//!   straight into the new footer
//!   ([`tsfile::TsFileWriter::write_chunk_raw`]) — no decode, no
//!   re-encode.
//! * **Dirty pages** decode (one pooled pread per contiguous dirty
//!   window), k-way merge through the same [`MergeReader`] the read
//!   path uses — latest version wins, later-versioned deletes drop
//!   points — and re-encode chunked by `points_per_chunk`.
//!
//! Clean pages and merged dirty points interleave on the time axis;
//! [`merge_to_file`] walks both in time order so output chunks are
//! emitted time-sorted and mutually disjoint. A clean page is an atomic
//! unit: no merged dirty point can fall strictly inside its time range
//! (that would imply an overlapping input chunk or an applicable
//! delete, contradicting cleanliness), so the walk only ever splits a
//! *run* of clean pages, never a page. Consecutive clean pages of the
//! same chunk coalesce back into one raw output chunk unless a dirty
//! point lands in the gap between them — the "gap dweller" case, where
//! a whole other chunk sits between two pages without overlapping
//! either.
//!
//! Every output chunk — copied or re-encoded — carries the **maximum
//! input chunk version**. Inputs are a contiguous run in version
//! order, so anything that outranked an input still outranks the
//! output, and raising a clean page's version only sheds deletes that
//! classification already proved don't touch it. The output file is the
//! one-run case of the shard-file shape: its single series run declares
//! that same version as what it *supersedes*, which is how a reopen
//! that finds an input still on disk (inside a file other series read,
//! or after a crash before the unlink) knows the input is dead. The internal dirty
//! merge reads through a detached [`IoStats`] and no cache: compaction
//! I/O is reported through the explicit `compaction_*` counters, not
//! smeared into the read-path ones.

use std::path::Path;
use std::sync::Arc;

use tsfile::types::{Point, TimeRange};
use tsfile::{ModEntry, RawPage, TsFileReader, TsFileWriter};

use crate::chunk::{ChunkData, ChunkHandle};
use crate::compaction::plan::CompactionPlan;
use crate::config::EngineConfig;
use crate::readers::MergeReader;
use crate::snapshot::SeriesSnapshot;
use crate::stats::IoStats;
use crate::Result;

/// What the unlocked phase produced, for the report and the counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MergeOutcome {
    /// Live points in the output file (copied + re-encoded).
    pub points_written: usize,
    /// Clean pages copied byte-for-byte.
    pub pages_copied: u64,
    /// Input pages decoded and re-encoded.
    pub pages_recoded: u64,
    /// Input chunk-body bytes read.
    pub bytes_read: u64,
    /// Output bytes produced by the re-encode path (copied bytes are
    /// *not* rewritten — that is the whole point).
    pub bytes_rewritten: u64,
    /// Whether an output file exists at `path` (false when every input
    /// point was deleted/overwritten away and [`OutputRun::always`] did
    /// not ask for the chunkless run).
    pub wrote_file: bool,
}

/// One clean page, flattened out of the plan's per-chunk runs so the
/// interleave walk can treat pages as atomic time-ordered units.
#[derive(Debug, Clone, Copy)]
struct CleanUnit {
    chunk: usize,
    page: usize,
    start: i64,
}

fn corrupt(msg: &str) -> crate::TsKvError {
    tsfile::TsFileError::Corrupt(msg.into()).into()
}

/// The one series run a compaction output consists of.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OutputRun {
    /// The series being compacted.
    pub series: u32,
    /// The maximum input version: what every output chunk carries and
    /// what the run declares it supersedes.
    pub version: u64,
    /// Write the file even when the merge comes up empty (a chunkless
    /// run): a reopen needs its `supersedes` to know the inputs that
    /// stay on disk are dead.
    pub always: bool,
}

/// Output side of the merge walk: the lazily created writer plus the
/// knobs it is created from and the counters it feeds.
struct Output<'a> {
    slot: Option<TsFileWriter>,
    config: &'a EngineConfig,
    path: &'a Path,
    run: OutputRun,
    out: MergeOutcome,
}

impl<'a> Output<'a> {
    fn new(config: &'a EngineConfig, path: &'a Path, run: OutputRun, out: MergeOutcome) -> Self {
        Self {
            slot: None,
            config,
            path,
            run,
            out,
        }
    }

    /// Lazily create the output writer: a compaction whose merge comes
    /// up empty (fully deleted series) must not leave an empty file
    /// behind, unless [`OutputRun::always`] asks for it.
    fn writer_mut(&mut self) -> Result<&mut TsFileWriter> {
        match &mut self.slot {
            Some(w) => Ok(w),
            slot @ None => {
                let mut w = self.config.tsfile_writer(self.path)?;
                w.begin_series(self.run.series, self.run.version)?;
                Ok(slot.insert(w))
            }
        }
    }

    /// Re-encode a run of merged dirty points, chunked by
    /// `points_per_chunk`, all under the output version.
    fn flush_points(&mut self, points: &[Point], version: u64) -> Result<()> {
        for slice in points.chunks(self.config.points_per_chunk.max(1)) {
            let meta = self.writer_mut()?.write_chunk(slice, version)?;
            self.out.bytes_rewritten += meta.byte_len;
            self.out.points_written += slice.len();
        }
        Ok(())
    }

    /// Copy one contiguous window of clean pages as a single raw chunk:
    /// one pooled pread, per-page CRC revalidation, statistics carried
    /// into the new footer unchanged.
    fn flush_raw_run(
        &mut self,
        files: &[Arc<TsFileReader>],
        chunks: &[ChunkHandle],
        run: (usize, std::ops::Range<usize>),
        version: u64,
    ) -> Result<()> {
        let (ci, window) = run;
        let handle = chunks
            .get(ci)
            .ok_or_else(|| corrupt("clean run chunk out of range"))?;
        let ChunkData::File { file_idx, meta } = &handle.data else {
            return Err(corrupt("clean run on in-memory chunk"));
        };
        let reader = files
            .get(*file_idx)
            .ok_or_else(|| corrupt("clean run file out of range"))?;
        let info = &meta.paged;
        let (buf, base) = reader.read_page_window_raw(meta, window.clone())?;
        let metas = info
            .pages
            .get(window.clone())
            .ok_or_else(|| corrupt("clean run window out of range"))?;
        let mut raws = Vec::with_capacity(metas.len());
        for pm in metas {
            raws.push(RawPage {
                bytes: tsfile::reader::page_body_slice(&buf, pm, base)?,
                stats: pm.stats,
            });
            self.out.points_written += pm.stats.count as usize;
        }
        self.writer_mut()?
            .write_chunk_raw(&raws, info.ts_encoding, info.val_encoding, version)?;
        self.out.pages_copied += window.len() as u64;
        Ok(())
    }
}

/// Merge the captured inputs into one TsFile at `path` per `plan`: the
/// single run `run`, every output chunk under `run.version` (the
/// maximum input version). `path` is the file's in-flight name — the
/// caller renames it into place. No engine lock may be held.
pub(crate) fn merge_to_file(
    config: &EngineConfig,
    path: &Path,
    files: &[Arc<TsFileReader>],
    chunks: &[ChunkHandle],
    deletes: Vec<ModEntry>,
    plan: &CompactionPlan,
    run: OutputRun,
) -> Result<MergeOutcome> {
    let out_version = run.version;
    let mut out = MergeOutcome {
        pages_recoded: plan.pages_dirty,
        ..MergeOutcome::default()
    };

    // 1. Load the dirty pages (as in-memory runs carrying their source
    // chunk's version) and flatten the clean pages into time-ordered
    // atomic units. Every input page is read exactly once — clean ones
    // later, raw, per window — so bytes_read is the input body total.
    let mut units: Vec<CleanUnit> = Vec::new();
    let mut dirty: Vec<ChunkHandle> = Vec::new();
    for (ci, handle) in chunks.iter().enumerate() {
        let runs = plan
            .clean_runs
            .get(ci)
            .ok_or_else(|| corrupt("plan shorter than chunk list"))?;
        match &handle.data {
            ChunkData::File { file_idx, meta } => {
                out.bytes_read += meta.byte_len;
                let reader = files
                    .get(*file_idx)
                    .ok_or_else(|| corrupt("chunk file out of range"))?;
                let info = &meta.paged;
                let mut clean = vec![false; info.pages.len()];
                for r in runs {
                    for j in r.clone() {
                        if let Some(c) = clean.get_mut(j) {
                            *c = true;
                        }
                        let Some(pm) = info.pages.get(j) else {
                            return Err(corrupt("clean run page out of range"));
                        };
                        units.push(CleanUnit {
                            chunk: ci,
                            page: j,
                            start: pm.stats.first.t,
                        });
                    }
                }
                // Decode each maximal window of dirty pages with one
                // pooled pread (the window's exact time range selects
                // exactly those pages — pages are disjoint and ordered).
                let mut j = 0;
                while j < info.pages.len() {
                    if clean.get(j).copied().unwrap_or(true) {
                        j += 1;
                        continue;
                    }
                    let a = j;
                    while j < info.pages.len() && !clean.get(j).copied().unwrap_or(true) {
                        j += 1;
                    }
                    let (first, last) = match (info.pages.get(a), info.pages.get(j - 1)) {
                        (Some(f), Some(l)) => (f, l),
                        _ => return Err(corrupt("dirty window out of range")),
                    };
                    let range = TimeRange::new(first.stats.first.t, last.stats.last.t);
                    let mut pts = Vec::new();
                    for (_, page_pts) in reader.read_pages_overlapping(meta, range)? {
                        pts.extend(page_pts);
                    }
                    dirty.extend(ChunkHandle::from_mem(Arc::new(pts), handle.version));
                }
            }
            // Compaction inputs are sealed chunks; tolerate a mem chunk
            // defensively by recoding it whole.
            ChunkData::Mem { points } => {
                dirty.extend(ChunkHandle::from_mem(Arc::clone(points), handle.version));
            }
        }
    }
    units.sort_by_key(|u| u.start);

    // 2. K-way merge the dirty runs — latest version wins, deletes
    // apply version-aware — through a detached snapshot so none of
    // this I/O lands in the read-path counters.
    let detached = Arc::new(IoStats::default());
    let snapshot = SeriesSnapshot::new(Vec::new(), dirty, deletes, detached, None, 1);
    let merged = MergeReader::new(&snapshot).collect_merged()?;

    // 3. Interleave: walk clean pages in time order, spilling merged
    // dirty points that precede each page, re-coalescing consecutive
    // same-chunk pages into single raw chunks when nothing intervened.
    let mut output = Output::new(config, path, run, out);
    let mut merged_iter = merged.into_iter().peekable();
    let mut pending: Vec<Point> = Vec::new();
    let mut open: Option<(usize, std::ops::Range<usize>)> = None;
    for unit in units {
        let mut consumed = false;
        while merged_iter.peek().is_some_and(|p| p.t < unit.start) {
            pending.extend(merged_iter.next());
            consumed = true;
        }
        let coalesce = !consumed
            && open
                .as_ref()
                .is_some_and(|(c, w)| *c == unit.chunk && w.end == unit.page);
        if coalesce {
            if let Some((_, w)) = &mut open {
                w.end = unit.page + 1;
            }
            continue;
        }
        if let Some(run) = open.take() {
            output.flush_raw_run(files, chunks, run, out_version)?;
        }
        if !pending.is_empty() {
            output.flush_points(&pending, out_version)?;
            pending.clear();
        }
        open = Some((unit.chunk, unit.page..unit.page + 1));
    }
    if let Some(run) = open.take() {
        output.flush_raw_run(files, chunks, run, out_version)?;
    }
    pending.extend(merged_iter);
    if !pending.is_empty() {
        output.flush_points(&pending, out_version)?;
        pending.clear();
    }

    if run.always {
        output.writer_mut()?;
    }
    let Output { slot, mut out, .. } = output;
    if let Some(mut w) = slot {
        w.finish()?;
        out.wrote_file = true;
    }
    Ok(out)
}
