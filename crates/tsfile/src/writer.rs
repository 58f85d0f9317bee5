//! Sequential TsFile writer: append encoded chunks, then a footer.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

use crate::checksum::crc32;
use crate::format::{ChunkMeta, FileFooter, SeriesRun, MAGIC};
use crate::page::{self, MAX_PAGE_POINTS};
use crate::statistics::ChunkStatistics;
use crate::types::{Point, Version};
use crate::Result;
use crate::TsFileError;

/// Bytes buffered before a `write(2)`: under `BufWriter`'s 8 KiB default
/// every chunk body (a few KiB) is its own syscall.
const WRITE_BUFFER_BYTES: usize = 64 * 1024;

/// Writes one TsFile: magic, chunk bodies (one page each), footer.
/// Each page chooses its columns' forms from its own data
/// ([`crate::page`]).
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
    /// The columns a chunk splits into, and what one chunk's value
    /// column carries to the next (see [`crate::encoding::decimal`]).
    columns: page::Columns,
    finished: bool,
    /// The encoded body, reused from chunk to chunk.
    body: Vec<u8>,
}

impl TsFileWriter {
    /// Create a new TsFile at `path` (truncating any existing file).
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        crate::lockcheck::check_io();
        let file = File::create(path)?;
        let mut out = BufWriter::with_capacity(WRITE_BUFFER_BYTES, file);
        out.write_all(MAGIC)?;
        Ok(TsFileWriter {
            out,
            pos: MAGIC.len() as u64,
            footer: FileFooter::default(),
            columns: page::Columns::default(),
            finished: false,
            body: Vec::new(),
        })
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
        self.pos += meta.byte_len;
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
    /// Errors if `points` is empty, holds more than
    /// [`MAX_PAGE_POINTS`] (a chunk is one page), or is not strictly
    /// increasing in time (a chunk is a sorted run of distinct
    /// timestamps by construction).
    pub fn write_chunk(&mut self, points: &[Point], version: u64) -> Result<&ChunkMeta> {
        self.check_writable()?;
        if points.len() > MAX_PAGE_POINTS {
            return Err(TsFileError::ChunkTooLarge {
                points: points.len(),
            });
        }
        // One pass over the points splits them into columns, gathering
        // the statistics and checking time order.
        let (stats, late) = self.columns.split(points).ok_or(TsFileError::EmptyChunk)?;
        if let Some((prev, next)) = late {
            return Err(TsFileError::UnsortedPoints { prev, next });
        }
        self.body.clear();
        page::encode_page_columns(&mut self.columns, &mut self.body);
        let meta = ChunkMeta {
            offset: self.pos,
            byte_len: self.body.len() as u64,
            version: Version(version),
            stats,
        };
        self.out.write_all(&self.body)?;
        Ok(self.push_chunk(meta))
    }

    /// Append one chunk from an already-encoded body, byte for byte —
    /// the compactor's clean-chunk fast path. The body is revalidated
    /// ([`page::verify_page_body`]: CRC, count, the structure of a
    /// packed column) before a single byte is written; `stats` travel
    /// into the new footer unchanged.
    pub fn write_chunk_raw(
        &mut self,
        body: &[u8],
        stats: ChunkStatistics,
        version: u64,
    ) -> Result<&ChunkMeta> {
        self.check_writable()?;
        stats.validate()?;
        let meta = ChunkMeta {
            offset: self.pos,
            byte_len: body.len() as u64,
            version: Version(version),
            stats,
        };
        page::verify_page_body(body, &meta.page())?;
        self.out.write_all(body)?;
        Ok(self.push_chunk(meta))
    }

    /// Number of chunks written so far.
    #[cfg(test)]
    pub(crate) fn chunk_count(&self) -> usize {
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

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets library code.
    #![allow(clippy::indexing_slicing)]

    use super::*;
    use testdir::TestDir;

    fn pts(range: std::ops::Range<i64>) -> Vec<Point> {
        range.map(|i| Point::new(i * 10, i as f64)).collect()
    }

    #[test]
    fn empty_chunk_rejected() -> Result<()> {
        let dir = TestDir::new("tsfile-writer");
        let p = dir.join("empty.tsfile");
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
        let dir = TestDir::new("tsfile-writer");
        let p = dir.join("unsorted.tsfile");
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
        let dir = TestDir::new("tsfile-writer");
        let p = dir.join("double-finish.tsfile");
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
        let dir = TestDir::new("tsfile-writer");
        let p = dir.join("count.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        assert_eq!(w.chunk_count(), 0);
        w.write_chunk(&pts(0..5), 1)?;
        w.write_chunk(&pts(10..15), 2)?;
        assert_eq!(w.chunk_count(), 2);
        Ok(())
    }

    /// A chunk is one page, so it holds at most [`MAX_PAGE_POINTS`]:
    /// one point more is a typed error that writes nothing.
    #[test]
    fn chunk_above_the_page_ceiling_is_rejected() -> Result<()> {
        let dir = TestDir::new("tsfile-writer");
        let p = dir.join("ceiling.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        let n = MAX_PAGE_POINTS as i64;
        assert!(matches!(
            w.write_chunk(&pts(0..n + 1), 1),
            Err(TsFileError::ChunkTooLarge { points }) if points == MAX_PAGE_POINTS + 1
        ));
        assert_eq!(w.chunk_count(), 0);
        assert_eq!(w.write_chunk(&pts(0..n), 2)?.stats.count, n as u64);
        Ok(())
    }

    #[test]
    fn raw_chunk_roundtrips_through_copy() -> Result<()> {
        use crate::reader::TsFileReader;

        let dir = TestDir::new("tsfile-writer");
        let src = dir.join("raw-src.tsfile");
        let mut w = TsFileWriter::create(&src)?;
        w.begin_series(0, 0)?;
        let points = pts(0..200);
        w.write_chunk(&points, 3)?;
        w.finish()?;
        let r = TsFileReader::open(&src)?;
        let meta = &r.chunk_metas()[0];
        let body = r.read_chunk_raw(meta)?;

        // Destination: copy the body byte for byte under a new version.
        let dst = dir.join("raw-dst.tsfile");
        let mut w2 = TsFileWriter::create(&dst)?;
        w2.begin_series(0, 0)?;
        let m2 = w2.write_chunk_raw(&body, meta.stats, 9)?.clone();
        w2.finish()?;
        assert_eq!(m2.version.0, 9);
        assert_eq!(m2.stats, meta.stats);
        let r2 = TsFileReader::open(&dst)?;
        assert_eq!(r2.read_chunk(&r2.chunk_metas()[0])?, points);
        Ok(())
    }

    #[test]
    fn raw_chunk_rejects_bad_pages() -> Result<()> {
        use crate::encoding::EncodingKind;
        use crate::page::encode_page;

        let dir = TestDir::new("tsfile-writer");
        let p = dir.join("raw-bad.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        let (ts, val) = (EncodingKind::Ts2Diff, EncodingKind::Gorilla);
        // Not a ramp, so the page has a body to corrupt.
        let mut a = pts(0..10);
        a[4].v = -1.0;
        let stats = ChunkStatistics::from_points(&a)?;
        let mut body = Vec::new();
        encode_page(&a, ts, val, &mut body);

        // Statistics that break an invariant, or that the body's
        // constant-delta column cannot run along: 12 points from t = 0
        // to t = 90 are not 11 equal steps. (The body holds no count of
        // its own: 11 points at t = 0, 9, …, 90 would be read from it.)
        let mut inverted = stats;
        inverted.bottom.v = stats.top.v + 1.0;
        assert!(matches!(
            w.write_chunk_raw(&body, inverted, 1),
            Err(TsFileError::Corrupt(_))
        ));
        let mut miscounted = stats;
        miscounted.count += 2;
        assert!(matches!(
            w.write_chunk_raw(&body, miscounted, 1),
            Err(TsFileError::Corrupt(_))
        ));

        // Corrupted body fails CRC revalidation before any write.
        let mut flipped = body.clone();
        flipped[3] ^= 0x20;
        assert!(matches!(
            w.write_chunk_raw(&flipped, stats, 1),
            Err(TsFileError::ChecksumMismatch { .. })
        ));
        assert_eq!(w.chunk_count(), 0, "failed raw writes record nothing");
        Ok(())
    }

    #[test]
    fn series_runs_roundtrip_through_the_footer() -> Result<()> {
        use crate::reader::TsFileReader;

        let dir = TestDir::new("tsfile-writer");
        let p = dir.join("runs.tsfile");
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

        let dir = TestDir::new("tsfile-writer");
        let p = dir.join("no-run.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        assert!(matches!(
            w.write_chunk(&pts(0..10), 1),
            Err(TsFileError::NoSeriesBegun)
        ));
        let stats = ChunkStatistics::from_points(&pts(0..10))?;
        assert!(matches!(
            w.write_chunk_raw(&[], stats, 1),
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
        let dir = TestDir::new("tsfile-writer");
        let p = dir.join("offsets.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        let m1 = w.write_chunk(&pts(0..100), 1)?.clone();
        let m2 = w.write_chunk(&pts(100..200), 2)?;
        assert_eq!(m1.offset, MAGIC.len() as u64);
        assert_eq!(m2.offset, m1.offset + m1.byte_len);
        w.finish()
    }
}
