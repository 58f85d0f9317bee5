//! Byte-level layout of a TsFile and its in-memory metadata structures.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ magic "TSF2\0\0" (6 bytes)                                 │
//! ├────────────────────────────────────────────────────────────┤
//! │ chunk 0 body: concatenated page bodies (see `page`         │
//! │   module); column encodings live in the footer's page      │
//! │   index                                                    │
//! ├────────────────────────────────────────────────────────────┤
//! │ chunk 1 body …                                             │
//! ├────────────────────────────────────────────────────────────┤
//! │ footer                                                     │
//! │   varint #chunks                                           │
//! │   per chunk: varint offset, varint byte_len,               │
//! │              varint version,                               │
//! │              PagedChunkInfo (encodings, per page: varint   │
//! │              byte_len, page statistics)                    │
//! │   series-run directory:                                    │
//! │     varint #runs                                           │
//! │     per run: varint series id, varint #chunks,             │
//! │              varint supersedes                             │
//! │   u32 crc32 of footer body (LE)                            │
//! │   u64 footer body length (LE)                              │
//! │   magic (same as head)                                     │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! The trailing length + magic let a reader locate the footer without a
//! separate index file; the leading magic rejects non-TsFiles (and the
//! retired `TSF1` generation) early. This mirrors IoTDB's TsFile
//! (data, then pages with per-page statistics,
//! then a metadata index and tail magic) at the granularity the paper's
//! operators need.
//!
//! A file holds the chunks of one *or many* series: the chunks of one
//! series sit back to back (a [`SeriesRun`]) and the directory at the
//! end of the footer says which run is whose, as IoTDB's chunk groups
//! under one metadata index do. A single-series file is the one-run
//! case of the same shape. Runs are listed in strictly ascending series
//! id, in chunk order, and cover every chunk exactly once.

use std::ops::Range;
use std::sync::Arc;

use crate::page::PagedChunkInfo;
use crate::statistics::ChunkStatistics;
use crate::types::{TimeRange, Version};
use crate::varint;
use crate::{Result, TsFileError};

/// File magic, also used as the tail sentinel.
pub const MAGIC: &[u8; 6] = b"TSF2\0\0";

/// Metadata describing one chunk inside a TsFile: where it lives, its
/// version `κ`, and its precomputed statistics. This is the unit
/// M4-LSM's `MetadataReader` returns without touching chunk bodies.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMeta {
    /// Byte offset of the chunk body from file start.
    pub offset: u64,
    /// Length of the chunk body in bytes (including per-page CRCs).
    pub byte_len: u64,
    /// Global version number κ of the chunk.
    pub version: Version,
    /// Precomputed FP/LP/BP/TP/count: the fold of the page statistics
    /// (derived, not stored, when a footer is read).
    pub stats: ChunkStatistics,
    /// Page index of the chunk (column encodings + per-page byte
    /// ranges and statistics).
    pub paged: PagedChunkInfo,
}

impl ChunkMeta {
    /// The chunk's time interval `[FP(C).t, LP(C).t]`.
    #[inline]
    pub fn time_range(&self) -> TimeRange {
        self.stats.time_range()
    }

    /// Number of pages in this chunk.
    #[inline]
    pub fn page_count(&self) -> usize {
        self.paged.pages.len()
    }

    /// The chunk's statistics are not written: they are the fold of
    /// its page statistics ([`PagedChunkInfo::chunk_stats`]), which is
    /// how the writer computed them, so [`Self::decode`] derives them.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.offset);
        varint::write_u64(out, self.byte_len);
        varint::write_u64(out, self.version.0);
        self.paged.encode(out);
    }

    pub(crate) fn decode(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let offset = varint::read_u64(buf, pos)?;
        let byte_len = varint::read_u64(buf, pos)?;
        let version = Version(varint::read_u64(buf, pos)?);
        let paged = PagedChunkInfo::decode(buf, pos)?;
        paged.validate(byte_len)?;
        let stats = paged.chunk_stats()?;
        Ok(ChunkMeta {
            offset,
            byte_len,
            version,
            stats,
            paged,
        })
    }
}

/// One series' contiguous run of chunks inside a TsFile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesRun {
    /// The series every chunk of the run belongs to.
    pub series: u32,
    /// The run replaces every chunk of this series, in a file written
    /// before this one, whose version is at or below this. `0` for a
    /// run that replaces nothing (a flush); a compaction output names
    /// the highest version it merged, which is what lets a reader that
    /// finds both generations on disk tell the live one from the stale.
    pub supersedes: Version,
    /// The run's chunks, as an index range into [`FileFooter::chunks`].
    /// Empty only for a run that exists to supersede (every merged
    /// point was deleted).
    pub chunks: Range<usize>,
}

/// The decoded footer of a TsFile: the chunk metadata index and the
/// series-run directory over it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FileFooter {
    /// Behind a count each: a reader hands its chunks' metadata to
    /// every query by reference, so a footer is in memory once.
    pub chunks: Vec<Arc<ChunkMeta>>,
    pub runs: Vec<SeriesRun>,
}

impl FileFooter {
    /// Serialize the footer body (without CRC/length/magic trailer).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.chunks.len() * 64);
        varint::write_u64(&mut out, self.chunks.len() as u64);
        for c in &self.chunks {
            c.encode(&mut out);
        }
        varint::write_u64(&mut out, self.runs.len() as u64);
        for run in &self.runs {
            varint::write_u64(&mut out, u64::from(run.series));
            varint::write_u64(&mut out, run.chunks.len() as u64);
            varint::write_u64(&mut out, run.supersedes.0);
        }
        out
    }

    /// Parse a footer body previously produced by [`Self::encode_body`].
    pub fn decode_body(buf: &[u8]) -> Result<Self> {
        let mut pos = 0usize;
        let n = varint::read_u64(buf, &mut pos)?;
        if n > (buf.len() as u64) {
            // Each chunk meta takes well over 1 byte; a count larger than
            // the body length is certainly corrupt.
            return Err(TsFileError::Corrupt(format!("footer claims {n} chunks")));
        }
        let mut chunks = Vec::with_capacity(n as usize);
        for _ in 0..n {
            chunks.push(Arc::new(ChunkMeta::decode(buf, &mut pos)?));
        }
        let runs = decode_runs(buf, &mut pos, chunks.len())?;
        if pos != buf.len() {
            return Err(TsFileError::Corrupt(format!(
                "footer has {} trailing bytes",
                buf.len() - pos
            )));
        }
        Ok(FileFooter { chunks, runs })
    }
}

/// Parse the series-run directory: strictly ascending series ids, runs
/// tiling `0..n_chunks` in order, no run that is both empty and
/// supersedes nothing.
fn decode_runs(buf: &[u8], pos: &mut usize, n_chunks: usize) -> Result<Vec<SeriesRun>> {
    let corrupt = |msg: String| TsFileError::Corrupt(format!("series-run directory: {msg}"));
    let n = varint::read_u64(buf, pos)?;
    if n > (buf.len() as u64) {
        return Err(corrupt(format!("claims {n} runs")));
    }
    let mut runs: Vec<SeriesRun> = Vec::with_capacity(n as usize);
    let mut next_chunk = 0usize;
    for _ in 0..n {
        let series = u32::try_from(varint::read_u64(buf, pos)?)
            .map_err(|_| corrupt("series id exceeds u32".into()))?;
        let len = varint::read_u64(buf, pos)?;
        let supersedes = Version(varint::read_u64(buf, pos)?);
        if runs.last().is_some_and(|prev| prev.series >= series) {
            return Err(corrupt(format!("series {series} out of order")));
        }
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| next_chunk.checked_add(len))
            .filter(|&end| end <= n_chunks)
            .ok_or_else(|| corrupt(format!("run of series {series} passes the last chunk")))?;
        if end == next_chunk && supersedes.0 == 0 {
            return Err(corrupt(format!("run of series {series} is empty")));
        }
        runs.push(SeriesRun {
            series,
            supersedes,
            chunks: next_chunk..end,
        });
        next_chunk = end;
    }
    if next_chunk != n_chunks {
        return Err(corrupt(format!("covers {next_chunk} of {n_chunks} chunks")));
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::EncodingKind;
    use crate::page::{encode_page, PageMeta, PageStatistics};
    use crate::types::Point;

    fn meta(version: u64, t0: i64, t1: i64) -> crate::Result<Arc<ChunkMeta>> {
        let pts = vec![Point::new(t0, 1.0), Point::new(t1, 2.0)];
        let mut body = Vec::new();
        encode_page(
            &pts,
            EncodingKind::Ts2Diff,
            EncodingKind::Gorilla,
            &mut body,
        );
        Ok(Arc::new(ChunkMeta {
            offset: 6,
            byte_len: body.len() as u64,
            version: Version(version),
            stats: ChunkStatistics::from_points(&pts)?,
            paged: PagedChunkInfo {
                ts_encoding: EncodingKind::Ts2Diff,
                val_encoding: EncodingKind::Gorilla,
                pages: vec![PageMeta {
                    offset: 0,
                    byte_len: body.len() as u64,
                    stats: PageStatistics::from_points(&pts)?,
                }],
            },
        }))
    }

    #[test]
    fn chunk_meta_roundtrip() -> crate::Result<()> {
        let m = meta(3, 0, 999)?;
        let mut buf = Vec::new();
        m.encode(&mut buf);
        let mut pos = 0;
        assert_eq!(ChunkMeta::decode(&buf, &mut pos)?, *m);
        assert_eq!(pos, buf.len());
        // Every strict prefix is a typed error, never a panic.
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(
                ChunkMeta::decode(&buf[..cut], &mut pos).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        Ok(())
    }

    fn run(series: u32, supersedes: u64, chunks: Range<usize>) -> SeriesRun {
        SeriesRun {
            series,
            supersedes: Version(supersedes),
            chunks,
        }
    }

    #[test]
    fn footer_roundtrip() -> crate::Result<()> {
        let f = FileFooter {
            chunks: vec![meta(1, 0, 10)?, meta(2, 50, 70)?, meta(3, 100, 110)?],
            runs: vec![run(4, 0, 0..2), run(9, 3, 2..3), run(12, 7, 3..3)],
        };
        assert_eq!(FileFooter::decode_body(&f.encode_body())?, f);
        Ok(())
    }

    /// The directory must tile the chunk list with ascending series
    /// ids; each way of not doing so is `Corrupt`, naming the directory.
    #[test]
    fn run_directory_that_does_not_tile_the_chunks_is_corrupt() -> crate::Result<()> {
        let chunks = vec![meta(1, 0, 10)?, meta(2, 50, 70)?];
        let bad: [(&str, Vec<SeriesRun>); 5] = [
            ("no runs for two chunks", vec![]),
            ("a chunk short", vec![run(1, 0, 0..1)]),
            ("a chunk over", vec![run(1, 0, 0..2), run(2, 0, 2..3)]),
            ("ids descending", vec![run(5, 0, 0..1), run(5, 0, 1..2)]),
            (
                "empty and superseding nothing",
                vec![run(1, 0, 0..2), run(2, 0, 2..2)],
            ),
        ];
        for (what, runs) in bad {
            let f = FileFooter {
                chunks: chunks.clone(),
                runs,
            };
            let got = FileFooter::decode_body(&f.encode_body());
            assert!(
                matches!(&got, Err(TsFileError::Corrupt(msg)) if msg.contains("series-run directory")),
                "{what}: {got:?}"
            );
        }
        Ok(())
    }

    #[test]
    fn empty_footer_roundtrip() -> crate::Result<()> {
        let f = FileFooter::default();
        assert_eq!(FileFooter::decode_body(&f.encode_body())?, f);
        Ok(())
    }

    #[test]
    fn footer_rejects_trailing_garbage() -> crate::Result<()> {
        let f = FileFooter {
            chunks: vec![meta(1, 0, 10)?],
            runs: vec![run(0, 0, 0..1)],
        };
        let mut body = f.encode_body();
        body.push(0xAB);
        assert!(FileFooter::decode_body(&body).is_err());
        Ok(())
    }

    #[test]
    fn footer_rejects_absurd_count() {
        let mut body = Vec::new();
        varint::write_u64(&mut body, u64::MAX);
        assert!(FileFooter::decode_body(&body).is_err());
    }

    /// What the footer no longer stores it derives: page offsets are
    /// the running sum of page lengths, chunk statistics the fold of the
    /// page statistics.
    #[test]
    fn offsets_and_chunk_statistics_are_derived() -> crate::Result<()> {
        let pts: Vec<Point> = (0..30)
            .map(|i| Point::new(i * 10, (i % 7) as f64))
            .collect();
        let mut pages = Vec::new();
        let mut offset = 0;
        for slice in pts.chunks(10) {
            let mut body = Vec::new();
            encode_page(
                slice,
                EncodingKind::Ts2Diff,
                EncodingKind::Gorilla,
                &mut body,
            );
            pages.push(PageMeta {
                offset,
                byte_len: body.len() as u64,
                stats: PageStatistics::from_points(slice)?,
            });
            offset += body.len() as u64;
        }
        let m = ChunkMeta {
            offset: 6,
            byte_len: offset,
            version: Version(4),
            stats: ChunkStatistics::from_points(&pts)?,
            paged: PagedChunkInfo {
                ts_encoding: EncodingKind::Ts2Diff,
                val_encoding: EncodingKind::Gorilla,
                pages,
            },
        };
        let mut buf = Vec::new();
        m.encode(&mut buf);
        let mut pos = 0;
        assert_eq!(ChunkMeta::decode(&buf, &mut pos)?, m);
        Ok(())
    }
}
