//! The unlocked merge-and-write phase of a shard sweep.
//!
//! Consumes one member's input captured under the shard lock (readers,
//! chunk metadata, deletes), classifies it by the
//! [`plan`](crate::readers::plan) and writes the member's run of the
//! sweep's output file:
//!
//! * **Full clean chunks** move byte-for-byte, decimal or XOR value
//!   mode and all: one pooled pread of the body
//!   ([`TsFileReader::read_chunk_raw`]) and a raw append that re-checks
//!   its CRC — once, at the writer's gate — and carries its statistics
//!   straight into the new footer
//!   ([`tsfile::TsFileWriter::write_chunk_raw`]) — no decode, no
//!   re-encode. A clean chunk is full when it holds `points_per_chunk`
//!   points; one short of that is copied too when both its
//!   time-neighbours (among the non-dropped inputs, by first
//!   timestamp) are full clean chunks, and is otherwise recoded.
//! * **Dirty and recoded clean chunks** decode, k-way merge through the
//!   same [`MergeReader`] the read path uses — latest version wins,
//!   later-versioned deletes drop points — and re-encode chunked by
//!   `points_per_chunk`, each new chunk choosing its value mode again
//!   from its own values: under-full chunks come out full.
//! * **Dropped chunks** — wholly inside one newer delete — are not read.
//!
//! Copied chunks and merged points interleave on the time axis;
//! [`merge_run`] walks both in time order so output chunks are
//! emitted time-sorted and mutually disjoint. No merged point can fall
//! inside a clean chunk's time range (that would imply an overlapping
//! input chunk or an applicable delete, contradicting cleanliness), so
//! the walk spills the merged points before each copied chunk and
//! copies the chunk whole.
//!
//! Every output chunk — copied or re-encoded — carries the member's
//! **maximum input chunk version**. Inputs are a contiguous run in
//! version order, so anything that outranked an input still outranks
//! the output, and raising a clean chunk's version only sheds deletes
//! that classification already proved don't touch it. The member's run
//! declares that same version as what it *supersedes*, which is how a
//! reopen that finds an input still on disk (inside a file a member
//! left out of the sweep still reads, or after a crash before the
//! unlink) knows the input is dead. The internal dirty merge reads
//! through a detached [`IoStats`] and no cache: compaction I/O is
//! reported through the explicit `compaction_*` counters, not smeared
//! into the read-path ones.

use std::sync::Arc;

use tsfile::types::{Point, Version};
use tsfile::{ChunkMeta, ModEntry, TsFileReader, TsFileWriter};

use crate::compaction::CompactionReport;
use crate::config::EngineConfig;
use crate::readers::plan::{self, ChunkView, Fate};
use crate::readers::MergeReader;
use crate::snapshot::SeriesSnapshot;
use crate::stats::IoStats;
use crate::Result;

/// A member's run of a sweep's output file.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OutputRun {
    /// The member's series.
    pub series: u32,
    /// The maximum input version: what every output chunk carries and
    /// what the run declares it supersedes.
    pub version: u64,
}

/// Output side of the merge walk: the writer plus the knobs and the
/// counters it feeds.
struct Output<'a> {
    w: &'a mut TsFileWriter,
    config: &'a EngineConfig,
    out: CompactionReport,
}

impl Output<'_> {
    /// Re-encode a run of merged dirty points, chunked by
    /// `points_per_chunk`, all under the output version.
    fn flush_points(&mut self, points: &[Point], version: u64) -> Result<()> {
        for slice in points.chunks(self.config.points_per_chunk) {
            let byte_len = self.w.write_chunk(slice, version)?.byte_len;
            self.out.bytes_rewritten += byte_len;
            self.out.points_written += slice.len();
        }
        Ok(())
    }

    /// Copy one clean chunk whole: one pooled pread, statistics carried
    /// into the new footer unchanged; the writer revalidates its CRC.
    fn copy_chunk(&mut self, reader: &TsFileReader, meta: &ChunkMeta, version: u64) -> Result<()> {
        let body = reader.read_chunk_raw(meta)?;
        self.w.write_chunk_raw(
            &body,
            meta.stats,
            meta.ts_encoding,
            meta.val_encoding,
            version,
        )?;
        self.out.points_written += meta.stats.count as usize;
        self.out.pages_copied += 1;
        Ok(())
    }
}

/// Merge one member's captured input chunks (capture order, each with
/// the reader its body is behind) into its run of the output file `w`
/// is writing: classified by [`plan::classify`], then the single run
/// `run`, every output chunk under `run.version` (the maximum input
/// version). A merge that comes up empty (every input point deleted)
/// still writes its chunkless run: its `supersedes` is the series'
/// floor, the sealed version a reopen hands the shard log and the mark
/// that keeps an input still on disk unread. The report's retirement
/// and delete counts are the caller's to fill in. No engine lock may be
/// held.
pub(crate) fn merge_run(
    w: &mut TsFileWriter,
    config: &EngineConfig,
    chunks: &[(&TsFileReader, &ChunkMeta)],
    deletes: &[ModEntry],
    run: OutputRun,
) -> Result<CompactionReport> {
    tsfile::lockcheck::check_io();
    let out_version = run.version;
    let views: Vec<ChunkView> = chunks
        .iter()
        .map(|(_, meta)| ChunkView {
            version: meta.version.0,
            range: meta.time_range(),
        })
        .collect();
    let mut fates = plan::classify(&views, deletes);
    // A clean chunk short of `points_per_chunk` stays whole only between
    // two full clean time-neighbours; any other is decoded and
    // re-chunked with the merged points around it.
    let mut order: Vec<usize> = (0..chunks.len())
        .filter(|&i| fates[i] != Fate::Dropped)
        .collect();
    order.sort_by_key(|&i| chunks[i].1.stats.first.t);
    let full: Vec<bool> = order
        .iter()
        .map(|&i| {
            fates[i] == Fate::Clean && chunks[i].1.stats.count as usize >= config.points_per_chunk
        })
        .collect();
    for (k, &i) in order.iter().enumerate() {
        let flanked = k > 0 && full[k - 1] && full.get(k + 1) == Some(&true);
        if fates[i] == Fate::Clean && !full[k] && !flanked {
            fates[i] = Fate::Dirty;
        }
    }
    let mut out = CompactionReport {
        chunks_merged: chunks.len(),
        ..CompactionReport::default()
    };

    // 1. Decode the dirty chunks — each a sorted run carrying its
    // version — and list the clean ones left, to be copied in time order.
    // Every input chunk but a dropped one is read exactly once.
    let mut clean: Vec<(&TsFileReader, &ChunkMeta)> = Vec::new();
    let mut dirty: Vec<(Version, Arc<Vec<Point>>)> = Vec::new();
    for (&(reader, meta), fate) in chunks.iter().zip(&fates) {
        match fate {
            Fate::Dropped => continue,
            Fate::Clean => clean.push((reader, meta)),
            Fate::Dirty => {
                dirty.push((meta.version, Arc::new(reader.read_chunk(meta)?)));
                out.pages_recoded += 1;
            }
        }
        out.bytes_read += meta.byte_len;
    }
    clean.sort_by_key(|(_, meta)| meta.stats.first.t);

    // 2. K-way merge the dirty runs — latest version wins, deletes
    // apply version-aware — with the read path's own merge, over a
    // detached snapshot that holds nothing but the deletes.
    let detached = Arc::new(IoStats::default());
    let snapshot = SeriesSnapshot::new(Vec::new(), Vec::new(), deletes.to_vec(), detached, None, 1);
    let merged = MergeReader::new(&snapshot).merge_runs(&dirty);

    // 3. Interleave: walk the clean chunks in time order, spilling the
    // merged dirty points that precede each before copying it.
    w.begin_series(run.series, run.version)?;
    let mut output = Output { w, config, out };
    let mut rest = merged.as_slice();
    for (reader, meta) in clean {
        let (before, after) = rest.split_at(rest.partition_point(|p| p.t < meta.stats.first.t));
        rest = after;
        output.flush_points(before, out_version)?;
        output.copy_chunk(reader, meta, out_version)?;
    }
    output.flush_points(rest, out_version)?;
    Ok(output.out)
}
