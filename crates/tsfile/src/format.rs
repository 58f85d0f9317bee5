//! Byte-level layout of a TsFile and its in-memory metadata structures.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ magic "TSF4\0\0" (6 bytes)                                 │
//! ├────────────────────────────────────────────────────────────┤
//! │ chunk 0 body: one page body (see `page` module); column    │
//! │   encodings live in the footer                             │
//! ├────────────────────────────────────────────────────────────┤
//! │ chunk 1 body …                                             │
//! ├────────────────────────────────────────────────────────────┤
//! │ footer                                                     │
//! │   varint #chunks                                           │
//! │   per chunk: varint_i version − previous chunk's version,  │
//! │              u8 encodings (values << 4 | timestamps),      │
//! │              varint byte_len,                              │
//! │              statistics against the previous chunk's LP    │
//! │              (see `statistics`)                            │
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
//! retired `TSF1`–`TSF3` generations) early. This mirrors IoTDB's
//! TsFile (data, then per-chunk statistics, then a metadata index and
//! tail magic) as the paper runs it: with `page_size_in_byte` at 1 GiB,
//! every chunk is one page, and so it is here by construction.
//!
//! What the footer derives instead of storing: a chunk's offset (chunk
//! bodies tile the file from the head magic on, so it is the sum of the
//! lengths before it). The first chunk's version, and its FP, are coded
//! against zero. A reader checks the tiling once: the head magic and the
//! chunk bodies must end exactly where the footer begins.
//!
//! A file holds the chunks of one *or many* series: the chunks of one
//! series sit back to back (a [`SeriesRun`]) and the directory at the
//! end of the footer says which run is whose, as IoTDB's chunk groups
//! under one metadata index do. A single-series file is the one-run
//! case of the same shape. Runs are listed in strictly ascending series
//! id, in chunk order, and cover every chunk exactly once.

use std::ops::Range;
use std::sync::Arc;

use crate::encoding::EncodingKind;
use crate::page::{PageMeta, MAX_PAGE_POINTS};
use crate::statistics::ChunkStatistics;
use crate::types::{Point, TimeRange, Version};
use crate::{cast, varint};
use crate::{Result, TsFileError};

/// File magic, also used as the tail sentinel. Bumped with every footer
/// layout, so a file of an earlier layout is refused as foreign
/// (`BadMagic`) rather than read as a torn file of this one.
pub const MAGIC: &[u8; 6] = b"TSF4\0\0";

/// Metadata describing one chunk inside a TsFile: where its body lives,
/// how its columns are encoded, its version `κ`, and its precomputed
/// statistics. This is the unit M4-LSM's `MetadataReader` returns
/// without touching chunk bodies. The body is one page
/// ([`crate::page`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMeta {
    /// Byte offset of the chunk body from file start.
    pub offset: u64,
    /// Length of the chunk body in bytes (its page CRC included).
    pub byte_len: u64,
    /// Global version number κ of the chunk.
    pub version: Version,
    /// Precomputed FP/LP/BP/TP/count.
    pub stats: ChunkStatistics,
    /// Timestamp column encoding.
    pub ts_encoding: EncodingKind,
    /// Value column encoding.
    pub val_encoding: EncodingKind,
}

impl ChunkMeta {
    /// The chunk's time interval `[FP(C).t, LP(C).t]`.
    #[inline]
    pub fn time_range(&self) -> TimeRange {
        self.stats.time_range()
    }

    /// The chunk body as the one page it is: what
    /// [`crate::page::decode_page`] checks a body against.
    pub fn page(&self) -> PageMeta {
        PageMeta {
            offset: 0,
            byte_len: self.byte_len,
            stats: self.stats,
        }
    }

    /// Append the chunk's entry, coded against `prev`, and advance
    /// `prev` past it. Its offset is not written: the body starts where
    /// the previous one ends, so [`Self::decode`] derives it.
    pub(crate) fn encode(&self, prev: &mut Predecessor, out: &mut Vec<u8>) {
        let step = self.version.0.wrapping_sub(prev.version.0);
        varint::write_i64(out, cast::i64_bits(step));
        out.push((self.val_encoding as u8) << 4 | self.ts_encoding as u8);
        varint::write_u64(out, self.byte_len);
        self.stats.encode_after(prev.last, out);
        prev.version = self.version;
        prev.last = self.stats.last;
    }

    pub(crate) fn decode(buf: &[u8], pos: &mut usize, prev: &mut Predecessor) -> Result<Self> {
        let step = cast::u64_bits(varint::read_i64(buf, pos)?);
        let version = Version(prev.version.0.wrapping_add(step));
        let tags = *buf.get(*pos).ok_or(TsFileError::UnexpectedEof {
            what: "chunk encodings",
        })?;
        *pos += 1;
        let ts_encoding = EncodingKind::from_u8(tags & 0xf)?;
        let val_encoding = EncodingKind::from_u8(tags >> 4)?;
        let byte_len = varint::read_u64(buf, pos)?;
        let stats = ChunkStatistics::decode_after(buf, pos, prev.last)?;
        if stats.count > cast::u64_from_usize(MAX_PAGE_POINTS) {
            return Err(TsFileError::Corrupt(format!(
                "footer claims {} points in one chunk",
                stats.count
            )));
        }
        let offset = prev.end;
        prev.end = offset
            .checked_add(byte_len)
            .ok_or_else(|| TsFileError::Corrupt("chunk extent overflows".into()))?;
        prev.version = version;
        prev.last = stats.last;
        Ok(ChunkMeta {
            offset,
            byte_len,
            version,
            stats,
            ts_encoding,
            val_encoding,
        })
    }
}

/// What the footer codes a chunk's entry against: the chunk before it
/// in file order, or, for the first, a version of 0, a last point of
/// `(0, 0.0)` and a body ending at the head magic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Predecessor {
    version: Version,
    last: Point,
    /// Where its body ends: where the next chunk's begins.
    end: u64,
}

impl Default for Predecessor {
    fn default() -> Self {
        Predecessor {
            version: Version(0),
            last: Point::new(0, 0.0),
            end: cast::u64_from_usize(MAGIC.len()),
        }
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
        let mut prev = Predecessor::default();
        for c in &self.chunks {
            c.encode(&mut prev, &mut out);
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
        let mut prev = Predecessor::default();
        for _ in 0..n {
            chunks.push(Arc::new(ChunkMeta::decode(buf, &mut pos, &mut prev)?));
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

    /// Where the chunk bodies end: the byte a file's footer must start
    /// at (the head magic's length when there is no chunk).
    pub fn data_end(&self) -> u64 {
        self.chunks.last().map_or(Predecessor::default().end, |c| {
            c.offset.saturating_add(c.byte_len)
        })
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
    use crate::page::encode_page;
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
            ts_encoding: EncodingKind::Ts2Diff,
            val_encoding: EncodingKind::Gorilla,
        }))
    }

    #[test]
    fn chunk_meta_roundtrip() -> crate::Result<()> {
        let m = meta(3, 0, 999)?;
        let mut buf = Vec::new();
        m.encode(&mut Predecessor::default(), &mut buf);
        let mut pos = 0;
        let decode =
            |buf: &[u8], pos: &mut usize| ChunkMeta::decode(buf, pos, &mut Predecessor::default());
        assert_eq!(decode(&buf, &mut pos)?, *m);
        assert_eq!(pos, buf.len());
        // Every strict prefix is a typed error, never a panic.
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(
                decode(&buf[..cut], &mut pos).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        Ok(())
    }

    /// A footer over `chunks`, their bodies laid end to end after the
    /// head magic, as a writer lays them.
    fn footer(chunks: &[Arc<ChunkMeta>], runs: Vec<SeriesRun>) -> FileFooter {
        let mut end = MAGIC.len() as u64;
        let chunks = chunks
            .iter()
            .map(|c| {
                let mut c = ChunkMeta::clone(c);
                c.offset = end;
                end += c.byte_len;
                Arc::new(c)
            })
            .collect();
        FileFooter { chunks, runs }
    }

    fn run(series: u32, supersedes: u64, chunks: Range<usize>) -> SeriesRun {
        SeriesRun {
            series,
            supersedes: Version(supersedes),
            chunks,
        }
    }

    /// Versions that fall from chunk to chunk and timestamps that go
    /// back from one run to the next round-trip; offsets are derived.
    #[test]
    fn footer_roundtrip() -> crate::Result<()> {
        let f = footer(
            &[meta(5, 0, 10)?, meta(2, 50, 70)?, meta(9, -100, 110)?],
            vec![run(4, 0, 0..2), run(9, 3, 2..3), run(12, 7, 3..3)],
        );
        let back = FileFooter::decode_body(&f.encode_body())?;
        assert_eq!(back, f);
        assert_eq!(back.data_end(), f.chunks[2].offset + f.chunks[2].byte_len);
        assert_eq!(FileFooter::default().data_end(), MAGIC.len() as u64);
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

    /// Offsets are derived: a chunk starts where the one before it
    /// ends, and the bodies end where the footer begins.
    #[test]
    fn offsets_are_derived() -> crate::Result<()> {
        let (a, b) = (meta(4, 0, 10)?, meta(5, 20, 30)?);
        let f = footer(&[a.clone(), b.clone()], vec![run(1, 0, 0..2)]);
        let back = FileFooter::decode_body(&f.encode_body())?;
        assert_eq!(back.chunks[0].offset, 6);
        assert_eq!(back.chunks[1].offset, 6 + a.byte_len);
        assert_eq!(back.data_end(), 6 + a.byte_len + b.byte_len);
        Ok(())
    }

    /// A chunk is at most one page: an entry claiming more than
    /// [`MAX_PAGE_POINTS`] points, or a body whose extent passes
    /// `u64::MAX`, is `Corrupt`.
    #[test]
    fn chunk_above_the_point_ceiling_or_past_u64_is_corrupt() -> crate::Result<()> {
        let mut huge = ChunkMeta::clone(&*meta(1, 0, 10)?);
        huge.stats.count = MAX_PAGE_POINTS as u64 + 1;
        let mut long = ChunkMeta::clone(&*meta(1, 0, 10)?);
        long.byte_len = u64::MAX;
        for bad in [huge, long] {
            let mut buf = Vec::new();
            bad.encode(&mut Predecessor::default(), &mut buf);
            let got = ChunkMeta::decode(&buf, &mut 0, &mut Predecessor::default());
            assert!(matches!(got, Err(TsFileError::Corrupt(_))), "{got:?}");
        }
        Ok(())
    }
}
