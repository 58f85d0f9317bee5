//! The unlocked merge-and-write phase of a compaction run.
//!
//! Consumes the input captured under the shard lock (readers, chunk
//! metadata, deletes) plus the [`classification
//! plan`](crate::compaction::plan) and produces the output TsFile:
//!
//! * **Clean pages** move byte-for-byte, decimal or XOR value mode
//!   and all: one pooled pread per contiguous page window
//!   ([`TsFileReader::read_page_window_raw`]) and a raw append that
//!   re-checks each page's CRC — once, at the writer's gate — and
//!   carries the page statistics straight into the new footer
//!   ([`tsfile::TsFileWriter::write_chunk_raw`]) — no decode, no
//!   re-encode.
//! * **Dirty pages** decode (one pooled pread per contiguous dirty
//!   window), k-way merge through the same [`MergeReader`] the read
//!   path uses — latest version wins, later-versioned deletes drop
//!   points — and re-encode chunked by `points_per_chunk`, each new
//!   page choosing its value mode again from its own values.
//! * **Dropped pages** — wholly inside one newer delete — are not read.
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

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use tsfile::types::{Point, TimeRange, Version};
use tsfile::{ChunkMeta, ModEntry, RawPage, TsFileReader, TsFileWriter};

use crate::compaction::plan::{CompactionPlan, PageFate};
use crate::compaction::CompactionReport;
use crate::config::EngineConfig;
use crate::readers::MergeReader;
use crate::snapshot::SeriesSnapshot;
use crate::stats::IoStats;
use crate::Result;

/// A window of consecutive clean pages of one input chunk — one page
/// as the plan lists them (the interleave walk's atomic, time-ordered
/// unit), more once the walk coalesced neighbours.
#[derive(Debug, Clone)]
struct CleanRun<'a> {
    reader: &'a TsFileReader,
    meta: &'a ChunkMeta,
    pages: Range<usize>,
    /// First timestamp of the first page.
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
}

/// Output side of the merge walk: the writer plus the knobs and the
/// counters it feeds.
struct Output<'a> {
    w: TsFileWriter,
    config: &'a EngineConfig,
    out: CompactionReport,
}

impl Output<'_> {
    /// Re-encode a run of merged dirty points, chunked by
    /// `points_per_chunk`, all under the output version.
    fn flush_points(&mut self, points: &[Point], version: u64) -> Result<()> {
        for slice in points.chunks(self.config.points_per_chunk.max(1)) {
            let byte_len = self.w.write_chunk(slice, version)?.byte_len;
            self.out.bytes_rewritten += byte_len;
            self.out.points_written += slice.len();
        }
        Ok(())
    }

    /// Copy one contiguous window of clean pages as a single raw chunk:
    /// one pooled pread, statistics carried into the new footer
    /// unchanged; the writer revalidates each page's CRC.
    fn flush_raw_run(&mut self, run: CleanRun<'_>, version: u64) -> Result<()> {
        let info = &run.meta.paged;
        let (buf, base) = run
            .reader
            .read_page_window_raw(run.meta, run.pages.clone())?;
        let metas = info
            .pages
            .get(run.pages.clone())
            .ok_or_else(|| corrupt("clean run window out of range"))?;
        let mut raws = Vec::with_capacity(metas.len());
        for pm in metas {
            raws.push(RawPage {
                bytes: tsfile::reader::page_body_slice(&buf, pm, base)?,
                stats: pm.stats,
            });
            self.out.points_written += pm.stats.count as usize;
        }
        self.w
            .write_chunk_raw(&raws, info.ts_encoding, info.val_encoding, version)?;
        self.out.pages_copied += run.pages.len() as u64;
        Ok(())
    }
}

/// Merge the captured input chunks (capture order, each with the
/// reader its body is behind) into one TsFile at `path` per `plan`: the
/// single run `run`, every output chunk under `run.version` (the
/// maximum input version). `path` is the file's in-flight name — the
/// caller renames it into place. A merge that comes up empty (every
/// input point deleted) still writes its chunkless run: its
/// `supersedes` is the series' floor, the sealed version a reopen hands
/// the shard log and the mark that keeps an input still on disk unread.
/// The report's retirement and delete counts are the caller's to fill
/// in. No engine lock may be held.
pub(crate) fn merge_to_file(
    config: &EngineConfig,
    path: &Path,
    chunks: &[(&TsFileReader, &ChunkMeta)],
    deletes: Vec<ModEntry>,
    plan: &CompactionPlan,
    run: OutputRun,
) -> Result<CompactionReport> {
    tsfile::lockcheck::check_io();
    let out_version = run.version;
    let mut out = CompactionReport {
        chunks_merged: chunks.len(),
        pages_recoded: plan.pages_dirty(),
        ..CompactionReport::default()
    };
    if plan.fates.len() != chunks.len() {
        return Err(corrupt("plan does not match the chunk list"));
    }

    // 1. Decode the dirty pages — each a sorted run carrying its
    // source chunk's version — and list the clean ones as time-ordered
    // atomic units. Every input page but a dropped one is read exactly
    // once — clean ones later, raw, per window.
    let mut units: Vec<CleanRun<'_>> = Vec::new();
    let mut dirty: Vec<(Version, Arc<Vec<Point>>)> = Vec::new();
    for (&(reader, meta), fates) in chunks.iter().zip(&plan.fates) {
        let pages = &meta.paged.pages;
        if fates.len() != pages.len() {
            return Err(corrupt("plan does not match the chunk's pages"));
        }
        // Each maximal window of dirty pages is one pooled pread (the
        // window's exact time range selects exactly those pages —
        // pages are disjoint and ordered).
        let mut window: Option<TimeRange> = None;
        for (j, (pm, fate)) in pages.iter().zip(fates).enumerate() {
            match fate {
                PageFate::Dropped => {}
                PageFate::Clean => {
                    out.bytes_read += pm.byte_len;
                    units.push(CleanRun {
                        reader,
                        meta,
                        pages: j..j + 1,
                        start: pm.stats.first.t,
                    });
                }
                PageFate::Dirty => {
                    out.bytes_read += pm.byte_len;
                    window.get_or_insert(pm.time_range()).end = pm.stats.last.t;
                }
            }
            if *fate != PageFate::Dirty || j + 1 == pages.len() {
                if let Some(range) = window.take() {
                    for (_, pts) in reader.read_pages_overlapping(meta, range)? {
                        dirty.push((meta.version, Arc::new(pts)));
                    }
                }
            }
        }
    }
    units.sort_by_key(|u| u.start);

    // 2. K-way merge the dirty runs — latest version wins, deletes
    // apply version-aware — with the read path's own merge, over a
    // detached snapshot that holds nothing but the deletes.
    let detached = Arc::new(IoStats::default());
    let snapshot = SeriesSnapshot::new(Vec::new(), Vec::new(), deletes, detached, None, 1);
    let merged = MergeReader::new(&snapshot).merge_runs(&dirty);

    // 3. Interleave: walk clean pages in time order, spilling the
    // merged dirty points that precede each page, re-coalescing
    // consecutive same-chunk pages into single raw chunks when nothing
    // intervened.
    let mut w = config.tsfile_writer(path)?;
    w.begin_series(run.series, run.version)?;
    let mut output = Output { w, config, out };
    let mut rest = merged.as_slice();
    let mut open: Option<CleanRun<'_>> = None;
    for unit in units {
        let (before, after) = rest.split_at(rest.partition_point(|p| p.t < unit.start));
        rest = after;
        if let Some(run) = open.as_mut().filter(|run| {
            before.is_empty()
                && std::ptr::eq(run.meta, unit.meta)
                && run.pages.end == unit.pages.start
        }) {
            run.pages.end = unit.pages.end;
            continue;
        }
        if let Some(run) = open.replace(unit) {
            output.flush_raw_run(run, out_version)?;
        }
        output.flush_points(before, out_version)?;
    }
    if let Some(run) = open.take() {
        output.flush_raw_run(run, out_version)?;
    }
    output.flush_points(rest, out_version)?;
    output.w.finish()?;
    Ok(output.out)
}
