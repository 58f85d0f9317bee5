//! Sequential TsFile writer: append encoded chunks, then a footer.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

use crate::checksum::crc32;
use crate::encoding::EncodingKind;
use crate::format::{ChunkMeta, FileFooter, SeriesRun, MAGIC};
use crate::index::StepIndex;
use crate::page::{self, PageMeta, PageStatistics, PagedChunkInfo};
use crate::types::{Point, Version};
use crate::Result;
use crate::TsFileError;

/// Bytes buffered before a `write(2)`: under `BufWriter`'s 8 KiB default
/// every chunk body (a few KiB) is its own syscall.
const WRITE_BUFFER_BYTES: usize = 64 * 1024;

/// One already-encoded page destined for byte-for-byte reuse: the raw
/// body bytes (trailing CRC included) plus the footer statistics that
/// travel with them into the new chunk's page index.
#[derive(Debug, Clone, Copy)]
pub struct RawPage<'a> {
    /// Complete page body as stored on disk.
    pub bytes: &'a [u8],
    /// The page's FP/LP/BP/TP/count, carried from the source footer.
    pub stats: PageStatistics,
}

/// Writes one TsFile: magic, page-structured chunk bodies,
/// footer with a per-chunk page index. Columns are encoded with
/// configurable codecs (defaults: TS_2DIFF timestamps + Gorilla values,
/// IoTDB's defaults for DOUBLE series).
///
/// Chunks are grouped into series runs: call
/// [`begin_series`](Self::begin_series) before the chunks of each
/// series, in ascending series id. Writing a chunk with no run begun is
/// an error ([`TsFileError::NoSeriesBegun`]).
#[derive(Debug)]
pub struct TsFileWriter {
    out: BufWriter<File>,
    pos: u64,
    footer: FileFooter,
    ts_encoding: EncodingKind,
    val_encoding: EncodingKind,
    build_index: bool,
    page_points: usize,
    /// Carried from page to page: the last decimal pair chosen and
    /// which value column won (see [`crate::encoding::decimal`]).
    values: page::ValueCarry,
    finished: bool,
    /// Column and body buffers, reused from chunk to chunk.
    scratch: Scratch,
}

/// What sealing one chunk fills on its pass over the points: the
/// chunk's timestamps, their deltas (`ts[i + 1] - ts[i]`, what the step
/// index learns from), the values of the page being encoded, and the
/// encoded pages.
#[derive(Debug, Default)]
struct Scratch {
    ts: Vec<i64>,
    deltas: Vec<i64>,
    vs: Vec<f64>,
    body: Vec<u8>,
}

impl TsFileWriter {
    /// Create a new TsFile at `path` (truncating any existing file) with
    /// default encodings.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        Self::create_with_encodings(path, EncodingKind::Ts2Diff, EncodingKind::Gorilla)
    }

    /// Create a new TsFile with explicit column encodings.
    pub fn create_with_encodings<P: AsRef<Path>>(
        path: P,
        ts_encoding: EncodingKind,
        val_encoding: EncodingKind,
    ) -> Result<Self> {
        crate::lockcheck::check_io();
        let file = File::create(path)?;
        let mut out = BufWriter::with_capacity(WRITE_BUFFER_BYTES, file);
        out.write_all(MAGIC)?;
        Ok(TsFileWriter {
            out,
            pos: MAGIC.len() as u64,
            footer: FileFooter::default(),
            ts_encoding,
            val_encoding,
            build_index: true,
            page_points: page::DEFAULT_PAGE_POINTS,
            values: page::ValueCarry::default(),
            finished: false,
            scratch: Scratch::default(),
        })
    }

    /// Enable or disable learning a step-regression index per chunk
    /// (paper §3.5). On by default; disabling is the index ablation.
    pub fn set_build_index(&mut self, enabled: bool) {
        self.build_index = enabled;
    }

    /// Set the number of points per page, clamped to
    /// `1..=`[`page::MAX_PAGE_POINTS`]. Smaller pages decode in finer
    /// slices at the cost of a larger page index; `usize::MAX` makes
    /// every chunk of up to the ceiling one page.
    pub fn set_page_points(&mut self, n: usize) {
        self.page_points = n.clamp(1, page::MAX_PAGE_POINTS);
    }

    /// Start the run of `series`: every chunk written until the next
    /// call belongs to it. `supersedes` is the run's
    /// [`SeriesRun::supersedes`] — `0` for freshly flushed points, the
    /// highest merged version for a compaction output. Ids must ascend
    /// from run to run.
    pub fn begin_series(&mut self, series: u32, supersedes: u64) -> Result<()> {
        if self.finished {
            return Err(TsFileError::WriterFinished);
        }
        if let Some(prev) = self.footer.runs.last().filter(|r| r.series >= series) {
            return Err(TsFileError::SeriesOutOfOrder {
                prev: prev.series,
                next: series,
            });
        }
        let at = self.footer.chunks.len();
        self.footer.runs.push(SeriesRun {
            series,
            supersedes: Version(supersedes),
            chunks: at..at,
        });
        Ok(())
    }

    /// Whether a chunk may be written now: not after `finish`, and
    /// only into a run.
    fn check_writable(&self) -> Result<()> {
        if self.finished {
            return Err(TsFileError::WriterFinished);
        }
        if self.footer.runs.is_empty() {
            return Err(TsFileError::NoSeriesBegun);
        }
        Ok(())
    }

    /// Record a written chunk in the footer, extending the open run.
    fn push_chunk(&mut self, meta: ChunkMeta) -> &ChunkMeta {
        let at = self.footer.chunks.len();
        self.footer.chunks.push(Arc::new(meta));
        if let Some(run) = self.footer.runs.last_mut() {
            run.chunks.end = at + 1;
        }
        &self.footer.chunks[at]
    }

    /// Encode and append one chunk of time-sorted points with version
    /// `κ = version`. Returns the metadata recorded in the footer.
    ///
    /// Errors if `points` is empty or not strictly increasing in time
    /// (a chunk is a sorted run of distinct timestamps by construction).
    pub fn write_chunk(&mut self, points: &[Point], version: u64) -> Result<&ChunkMeta> {
        self.check_writable()?;
        if points.is_empty() {
            return Err(TsFileError::EmptyChunk);
        }
        // One pass over the points splits them into columns — the
        // timestamps of the whole chunk and their deltas (the step
        // index learns from both), the values page by page — while
        // checking time order and gathering each page's statistics; the
        // chunk's are their fold. Each `page_points`-sized slice
        // becomes an independently decodable (and independently CRC'd)
        // page with its own statistics in the footer's page index.
        let s = &mut self.scratch;
        s.ts.clear();
        s.deltas.clear();
        s.body.clear();
        let mut pages = Vec::with_capacity(points.len() / self.page_points + 1);
        for slice in points.chunks(self.page_points) {
            let page_start = s.ts.len();
            s.vs.clear();
            let page_stats = split_page(slice, &mut s.ts, &mut s.deltas, &mut s.vs)?;
            let offset = s.body.len() as u64;
            // `deltas[i]` is `ts[i + 1] - ts[i]`, so the page's own
            // deltas start where its timestamps do, one fewer of them.
            let page_deltas = page_start..page_start + slice.len() - 1;
            page::encode_page_columns(
                s.ts.get(page_start..).unwrap_or(&[]),
                s.deltas.get(page_deltas).unwrap_or(&[]),
                &s.vs,
                self.ts_encoding,
                self.val_encoding,
                &mut self.values,
                &mut s.body,
            );
            pages.push(PageMeta {
                offset,
                byte_len: s.body.len() as u64 - offset,
                stats: page_stats,
            });
        }
        let paged = PagedChunkInfo {
            ts_encoding: self.ts_encoding,
            val_encoding: self.val_encoding,
            pages,
        };

        let index = if self.build_index {
            StepIndex::learn_with_deltas(&s.ts, &mut s.deltas)
        } else {
            None
        };
        let meta = ChunkMeta {
            offset: self.pos,
            byte_len: s.body.len() as u64,
            version: Version(version),
            stats: paged.chunk_stats()?,
            index,
            paged,
        };
        self.out.write_all(&s.body)?;
        self.pos += meta.byte_len;
        Ok(self.push_chunk(meta))
    }

    /// Append one chunk assembled from already-encoded page bodies,
    /// byte for byte — the compactor's clean-page fast path. Every page
    /// is revalidated ([`page::verify_page_body`]: CRC, count, decimal
    /// block structure) before a single byte is written, page offsets
    /// are retiled from zero, and the chunk statistics are the fold of
    /// the page statistics (earliest point wins value ties, matching
    /// [`crate::ChunkStatistics::from_points`]).
    ///
    /// The pages must be time-ordered and disjoint and share the given
    /// column encodings (pages of one chunk always do); each keeps its
    /// own value mode, decimal or not. No step
    /// index is learned — that would require decoding the timestamps
    /// this path exists to avoid.
    pub fn write_chunk_raw(
        &mut self,
        pages: &[RawPage<'_>],
        ts_encoding: EncodingKind,
        val_encoding: EncodingKind,
        version: u64,
    ) -> Result<&ChunkMeta> {
        self.check_writable()?;
        let (first_page, rest) = pages.split_first().ok_or(TsFileError::EmptyChunk)?;
        let mut prev_last = first_page.stats.last.t;
        for p in rest {
            if p.stats.first.t <= prev_last {
                return Err(TsFileError::UnsortedPoints {
                    prev: prev_last,
                    next: p.stats.first.t,
                });
            }
            prev_last = p.stats.last.t;
        }

        let mut metas = Vec::with_capacity(pages.len());
        let mut offset = 0u64;
        for p in pages {
            p.stats.validate()?;
            let pm = PageMeta {
                offset,
                byte_len: p.bytes.len() as u64,
                stats: p.stats,
            };
            page::verify_page_body(p.bytes, &pm)?;
            offset += pm.byte_len;
            metas.push(pm);
        }
        let paged = PagedChunkInfo {
            ts_encoding,
            val_encoding,
            pages: metas,
        };
        let meta = ChunkMeta {
            offset: self.pos,
            byte_len: offset,
            version: Version(version),
            stats: paged.chunk_stats()?,
            index: None,
            paged,
        };
        for p in pages {
            self.out.write_all(p.bytes)?;
        }
        self.pos += offset;
        Ok(self.push_chunk(meta))
    }

    /// Number of chunks written so far.
    pub fn chunk_count(&self) -> usize {
        self.footer.chunks.len()
    }

    /// Write the footer and flush. The writer cannot be used afterwards.
    pub fn finish(&mut self) -> Result<()> {
        crate::lockcheck::check_io();
        if self.finished {
            return Err(TsFileError::WriterFinished);
        }
        // A run begun and never written to says nothing unless it
        // supersedes older chunks.
        self.footer
            .runs
            .retain(|r| !r.chunks.is_empty() || r.supersedes.0 > 0);
        let body = self.footer.encode_body();
        let crc = crc32(&body);
        self.out.write_all(&body)?;
        self.out.write_all(&crc.to_le_bytes())?;
        self.out.write_all(&(body.len() as u64).to_le_bytes())?;
        self.out.write_all(MAGIC)?;
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        self.finished = true;
        Ok(())
    }
}

/// Append one page's points to the column buffers — and, from the
/// chunk's second point on, each timestamp's delta to its predecessor —
/// checking that time strictly increases (from the previous page's last
/// timestamp on) and gathering the page's statistics.
fn split_page(
    page: &[Point],
    ts: &mut Vec<i64>,
    deltas: &mut Vec<i64>,
    vs: &mut Vec<f64>,
) -> Result<PageStatistics> {
    let stats = PageStatistics::from_points(page)?;
    let from = ts.len().saturating_sub(1);
    ts.extend(page.iter().map(|p| p.t));
    vs.extend(page.iter().map(|p| p.v));
    let fresh = ts.get(from..).unwrap_or(&[]);
    if let Some(w) = fresh.windows(2).find(|w| w[1] <= w[0]) {
        return Err(TsFileError::UnsortedPoints {
            prev: w[0],
            next: w[1],
        });
    }
    deltas.extend(fresh.windows(2).map(|w| w[1].wrapping_sub(w[0])));
    Ok(stats)
}

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets library code.
    #![allow(clippy::indexing_slicing)]

    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tsfile-writer-tests");
        std::fs::create_dir_all(&dir).ok();
        dir.join(name)
    }

    fn pts(range: std::ops::Range<i64>) -> Vec<Point> {
        range.map(|i| Point::new(i * 10, i as f64)).collect()
    }

    #[test]
    fn empty_chunk_rejected() -> Result<()> {
        let p = tmp("empty.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        assert!(matches!(
            w.write_chunk(&[], 1),
            Err(TsFileError::EmptyChunk)
        ));
        Ok(())
    }

    #[test]
    fn unsorted_chunk_rejected() -> Result<()> {
        let p = tmp("unsorted.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        let points = vec![Point::new(5, 0.0), Point::new(5, 1.0)];
        assert!(matches!(
            w.write_chunk(&points, 1),
            Err(TsFileError::UnsortedPoints { .. })
        ));
        Ok(())
    }

    #[test]
    fn double_finish_rejected() -> Result<()> {
        let p = tmp("double-finish.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        w.write_chunk(&pts(0..5), 1)?;
        w.finish()?;
        assert!(matches!(w.finish(), Err(TsFileError::WriterFinished)));
        assert!(matches!(
            w.write_chunk(&pts(5..9), 2),
            Err(TsFileError::WriterFinished)
        ));
        Ok(())
    }

    #[test]
    fn chunk_count_tracks_writes() -> Result<()> {
        let p = tmp("count.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        assert_eq!(w.chunk_count(), 0);
        w.write_chunk(&pts(0..5), 1)?;
        w.write_chunk(&pts(10..15), 2)?;
        assert_eq!(w.chunk_count(), 2);
        Ok(())
    }

    #[test]
    fn chunks_split_into_pages() -> Result<()> {
        let p = tmp("paged.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        w.set_page_points(64);
        let meta = w.write_chunk(&pts(0..300), 1)?.clone();
        w.finish()?;
        let info = &meta.paged;
        assert_eq!(info.pages.len(), 5); // 64*4 + 44
        assert_eq!(info.pages.iter().map(|pg| pg.stats.count).sum::<u64>(), 300);
        assert_eq!(meta.page_count(), 5);
        // Pages tile the body: offset 0, contiguous, ending at byte_len.
        assert_eq!(info.pages[0].offset, 0);
        let end = info.pages.last().map(|pg| pg.offset + pg.byte_len);
        assert_eq!(end, Some(meta.byte_len));
        // Page stats cover disjoint, increasing time ranges.
        for w2 in info.pages.windows(2) {
            assert!(w2[0].stats.last.t < w2[1].stats.first.t);
        }
        Ok(())
    }

    #[test]
    fn raw_chunk_roundtrips_through_copy() -> Result<()> {
        use crate::reader::{page_body_slice, TsFileReader};

        // Source file: one chunk split into small pages.
        let src = tmp("raw-src.tsfile");
        let mut w = TsFileWriter::create(&src)?;
        w.begin_series(0, 0)?;
        w.set_page_points(50);
        let points = pts(0..200);
        w.write_chunk(&points, 3)?;
        w.finish()?;
        let r = TsFileReader::open(&src)?;
        let meta = &r.chunk_metas()[0];
        let info = &meta.paged;
        let (buf, base) = r.read_page_window_raw(meta, 0..info.pages.len())?;
        let raw: Vec<RawPage<'_>> = info
            .pages
            .iter()
            .map(|pm| {
                Ok(RawPage {
                    bytes: page_body_slice(&buf, pm, base)?,
                    stats: pm.stats,
                })
            })
            .collect::<Result<_>>()?;

        // Destination: copy the pages byte for byte under a new version.
        let dst = tmp("raw-dst.tsfile");
        let mut w2 = TsFileWriter::create(&dst)?;
        w2.begin_series(0, 0)?;
        let m2 = w2
            .write_chunk_raw(&raw, info.ts_encoding, info.val_encoding, 9)?
            .clone();
        w2.finish()?;
        assert_eq!(m2.version.0, 9);
        assert_eq!(m2.stats, meta.stats);
        assert!(m2.index.is_none(), "raw copy learns no step index");
        let r2 = TsFileReader::open(&dst)?;
        assert_eq!(r2.read_chunk(&r2.chunk_metas()[0])?, points);
        Ok(())
    }

    #[test]
    fn raw_chunk_rejects_bad_pages() -> Result<()> {
        use crate::page::{encode_page, PageStatistics};

        let p = tmp("raw-bad.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        assert!(matches!(
            w.write_chunk_raw(&[], EncodingKind::Ts2Diff, EncodingKind::Gorilla, 1),
            Err(TsFileError::EmptyChunk)
        ));

        let a = pts(0..10);
        let b = pts(5..15); // overlaps a in time
        let mut body_a = Vec::new();
        encode_page(
            &a,
            EncodingKind::Ts2Diff,
            EncodingKind::Gorilla,
            &mut body_a,
        );
        let mut body_b = Vec::new();
        encode_page(
            &b,
            EncodingKind::Ts2Diff,
            EncodingKind::Gorilla,
            &mut body_b,
        );
        let pa = RawPage {
            bytes: &body_a,
            stats: PageStatistics::from_points(&a)?,
        };
        let pb = RawPage {
            bytes: &body_b,
            stats: PageStatistics::from_points(&b)?,
        };
        assert!(matches!(
            w.write_chunk_raw(&[pa, pb], EncodingKind::Ts2Diff, EncodingKind::Gorilla, 1),
            Err(TsFileError::UnsortedPoints { .. })
        ));

        // Corrupted body fails CRC revalidation before any write.
        let mut flipped = body_a.clone();
        flipped[3] ^= 0x20;
        let bad = RawPage {
            bytes: &flipped,
            stats: pa.stats,
        };
        assert!(matches!(
            w.write_chunk_raw(&[bad], EncodingKind::Ts2Diff, EncodingKind::Gorilla, 1),
            Err(TsFileError::ChecksumMismatch { .. })
        ));
        assert_eq!(w.chunk_count(), 0, "failed raw writes record nothing");
        Ok(())
    }

    #[test]
    fn series_runs_roundtrip_through_the_footer() -> Result<()> {
        use crate::reader::TsFileReader;

        let p = tmp("runs.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(3, 0)?;
        w.write_chunk(&pts(0..40), 1)?;
        w.write_chunk(&pts(40..90), 2)?;
        w.begin_series(5, 0)?; // begun, never written: dropped
        w.begin_series(7, 0)?;
        w.write_chunk(&pts(0..25), 3)?;
        w.begin_series(9, 6)?; // empty, but it supersedes: kept
        assert!(matches!(
            w.begin_series(9, 0),
            Err(TsFileError::SeriesOutOfOrder { prev: 9, next: 9 })
        ));
        w.finish()?;

        let r = TsFileReader::open(&p)?;
        let runs: Vec<(u32, u64, std::ops::Range<usize>)> = r
            .series_runs()
            .iter()
            .map(|run| (run.series, run.supersedes.0, run.chunks.clone()))
            .collect();
        assert_eq!(runs, vec![(3, 0, 0..2), (7, 0, 2..3), (9, 6, 3..3)]);
        let of_7 = r.run_chunks(&r.series_runs()[1]);
        assert_eq!(of_7.len(), 1);
        assert_eq!(r.read_chunk(&of_7[0])?, pts(0..25));
        assert!(r.run_chunks(&r.series_runs()[2]).is_empty());
        Ok(())
    }

    #[test]
    fn chunk_before_any_series_is_rejected_and_writes_nothing() -> Result<()> {
        use crate::reader::TsFileReader;

        let p = tmp("no-run.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        assert!(matches!(
            w.write_chunk(&pts(0..10), 1),
            Err(TsFileError::NoSeriesBegun)
        ));
        assert!(matches!(
            w.write_chunk_raw(&[], EncodingKind::Ts2Diff, EncodingKind::Gorilla, 1),
            Err(TsFileError::NoSeriesBegun)
        ));
        assert_eq!(w.chunk_count(), 0);
        w.finish()?;
        let r = TsFileReader::open(&p)?;
        assert!(r.series_runs().is_empty());
        assert!(r.chunk_metas().is_empty());
        Ok(())
    }

    #[test]
    fn meta_offsets_are_monotonic() -> Result<()> {
        let p = tmp("offsets.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        let m1 = w.write_chunk(&pts(0..100), 1)?.clone();
        let m2 = w.write_chunk(&pts(100..200), 2)?;
        assert_eq!(m1.offset, MAGIC.len() as u64);
        assert_eq!(m2.offset, m1.offset + m1.byte_len);
        w.finish()
    }
}
