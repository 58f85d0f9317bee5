//! Byte-level layout of a TsFile and its in-memory metadata structures.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ magic "TSF9\0\0" (6 bytes)                                 │
//! ├────────────────────────────────────────────────────────────┤
//! │ chunk 0 body: one page body (see `page` module)            │
//! ├────────────────────────────────────────────────────────────┤
//! │ chunk 1 body …                                             │
//! ├────────────────────────────────────────────────────────────┤
//! │ footer                                                     │
//! │   varint #chunks                                           │
//! │   series-run directory:                                    │
//! │     varint #runs                                           │
//! │     per run: varint series id − previous run's (the first  │
//! │              absolute), varint #chunks,                    │
//! │              varint_i supersedes − previous run's          │
//! │   per chunk: varint_i version − previous chunk's version,  │
//! │              u8 9 · statistics tag (below 243; the two     │
//! │                 digits below 9 are 0, free for a later     │
//! │                 layout),                                   │
//! │              varint byte_len,                              │
//! │              statistics against a prediction from the      │
//! │              previous chunk, or at a run's first chunk     │
//! │              from the previous run's first (`statistics`)  │
//! │   u32 crc32 of footer body (LE)                            │
//! │   u64 footer body length (LE)                              │
//! │   magic (same as head)                                     │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! The trailing length + magic let a reader locate the footer without a
//! separate index file; the leading magic rejects non-TsFiles (and the
//! retired `TSF1`–`TSF8` generations) early: `TSF4` is the last whose
//! page bodies repeated what the footer's statistics hold (the point
//! count, a constant-delta column's first timestamp and step, a packed
//! column's first point), `TSF5` the last whose footer wrote every
//! extreme in full, every value as an XOR, and absolute series ids and
//! `supersedes` in its run directory, `TSF6` the last whose entries
//! were coded against the previous LP alone, and `TSF7` the last whose
//! window exceptions were raw words and whose decimal delta frames
//! repeated FP.v's integer, and `TSF8` the last whose pages could hold a
//! configured stream (delta-of-delta timestamps, XOR or raw values) and
//! whose entries named the chunk's two encodings; its pages and footers
//! are this layout's but for that. This mirrors IoTDB's TsFile (data, then
//! per-chunk statistics, then a metadata index and tail magic) as the
//! paper runs it: with `page_size_in_byte` at 1 GiB, every chunk is one
//! page, and so it is here by construction.
//!
//! What the footer derives instead of storing: a chunk's offset (chunk
//! bodies tile the file from the head magic on), a BP or TP that is the
//! whole point of the chunk's FP or LP (the statistics tag says which),
//! and a decimal pair that is the one before. A reader checks the
//! tiling once: the chunk bodies must end exactly where the footer
//! begins.
//!
//! A file holds the chunks of one *or many* series: the chunks of one
//! series sit back to back (a [`SeriesRun`]) and the directory, ahead
//! of the entries so a reader knows where each run starts, says which
//! run is whose, as IoTDB's chunk groups under one metadata index do.
//! Runs are listed in strictly ascending series id (each a gap of at
//! least 1 from the one before), in chunk order, and cover every chunk
//! exactly once.

use std::ops::Range;
use std::sync::Arc;

use crate::page::{PageMeta, MAX_PAGE_POINTS};
use crate::statistics::{ChunkStatistics, EntryTag, StatsCarry};
use crate::types::{TimeRange, Version};
use crate::{cast, varint};
use crate::{Result, TsFileError};

/// File magic, also used as the tail sentinel. Bumped with every footer
/// or page layout, so a file of an earlier layout is refused as foreign
/// (`BadMagic`) rather than read as a torn file of this one.
pub const MAGIC: &[u8; 6] = b"TSF9\0\0";

/// Metadata describing one chunk inside a TsFile: where its body lives,
/// its version `κ`, and its precomputed
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

    /// Append the chunk's entry, coded against `prev`, advance `prev`
    /// past it, and count its bytes by part into its census. Its offset
    /// is not written: the body starts where the previous one ends, so
    /// [`Self::decode`] derives it.
    pub(crate) fn encode(&self, prev: &mut Predecessor, out: &mut Vec<u8>) {
        let start = out.len();
        let step = self.version.0.wrapping_sub(prev.version.0);
        varint::write_i64(out, cast::i64_bits(step));
        let tags_at = out.len();
        out.push(0);
        varint::write_u64(out, self.byte_len);
        prev.census.heads += out.len() - start;
        prev.version = self.version;
        let tag = self
            .stats
            .encode_after(&mut prev.stats, out, &mut prev.census);
        if let Some(tags) = out.get_mut(tags_at) {
            *tags = 9 * tag.0;
        }
    }

    pub(crate) fn decode(buf: &[u8], pos: &mut usize, prev: &mut Predecessor) -> Result<Self> {
        let step = cast::u64_bits(varint::read_i64(buf, pos)?);
        let version = Version(prev.version.0.wrapping_add(step));
        let tags = *buf.get(*pos).ok_or(TsFileError::UnexpectedEof {
            what: "chunk entry tags",
        })?;
        *pos += 1;
        if tags % 9 != 0 {
            return Err(TsFileError::Corrupt(format!(
                "chunk entry tags {tags}: a digit below 9 is not 0"
            )));
        }
        let tag = EntryTag::from_u8(tags / 9)?;
        let byte_len = varint::read_u64(buf, pos)?;
        let stats = ChunkStatistics::decode_after(buf, pos, tag, &mut prev.stats)?;
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
        Ok(ChunkMeta {
            offset,
            byte_len,
            version,
            stats,
        })
    }
}

/// What the footer codes a chunk's entry against: the chunk before it
/// in file order (its statistics: at a run's first, the previous run's
/// first's), or, for the first, version 0, [`StatsCarry`]'s default and
/// a body ending at the head magic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Predecessor {
    version: Version,
    stats: StatsCarry,
    /// What the last run's first entry left.
    run_head: StatsCarry,
    /// The bytes coded so far, by part.
    census: FooterCensus,
    /// Where its body ends: where the next chunk's begins.
    end: u64,
}

impl Default for Predecessor {
    fn default() -> Self {
        Predecessor {
            version: Version(0),
            stats: StatsCarry::default(),
            run_head: StatsCarry::default(),
            census: FooterCensus::default(),
            end: cast::u64_from_usize(MAGIC.len()),
        }
    }
}

impl Predecessor {
    /// Code one entry with `code`, against the previous run's first
    /// entry where it `starts_run`, and keep it as the run's first.
    fn entry<T>(&mut self, starts_run: bool, code: impl FnOnce(&mut Self) -> T) -> T {
        if starts_run {
            self.stats = self.run_head;
            self.stats.restart = true;
        }
        let coded = code(self);
        if starts_run {
            self.run_head = self.stats;
        }
        coded
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

/// Where a footer's bytes go, as [`FileFooter::census`] counts them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FooterCensus {
    /// The chunk index: the chunk count and every chunk's entry.
    pub index_bytes: usize,
    /// The chunk count and every entry's version, tags and length.
    pub heads: usize,
    /// Every entry's point count.
    pub counts: usize,
    /// Every entry's FP.t and span.
    pub times: usize,
    /// Every interior BP's and TP's time.
    pub extremes: usize,
    /// Every entry's values and decimal pairs.
    pub values: usize,
    /// The series-run directory: the run count and every run.
    pub directory_bytes: usize,
    /// Entries whose BP or TP is the whole point of their FP or LP, so
    /// not written.
    pub extremes_at_an_end: usize,
    /// Entries whose statistics' values took the decimal form.
    pub decimal: usize,
}

impl FileFooter {
    /// Serialize the footer body (without CRC/length/magic trailer).
    pub fn encode_body(&self) -> Vec<u8> {
        self.encode().0
    }

    /// Where the bytes of this footer's body go: what
    /// [`Self::encode_body`] writes, counted.
    pub fn census(&self) -> FooterCensus {
        self.encode().1
    }

    fn encode(&self) -> (Vec<u8>, FooterCensus) {
        let mut out = Vec::with_capacity(16 + self.chunks.len() * 16);
        varint::write_u64(&mut out, self.chunks.len() as u64);
        let mut prev = Predecessor::default();
        prev.census.heads = out.len();
        varint::write_u64(&mut out, self.runs.len() as u64);
        let (mut series, mut supersedes) = (0u32, 0u64);
        for run in &self.runs {
            varint::write_u64(&mut out, u64::from(run.series.wrapping_sub(series)));
            varint::write_u64(&mut out, run.chunks.len() as u64);
            let step = run.supersedes.0.wrapping_sub(supersedes);
            varint::write_i64(&mut out, cast::i64_bits(step));
            (series, supersedes) = (run.series, run.supersedes.0);
        }
        prev.census.directory_bytes = out.len() - prev.census.heads;
        for run in &self.runs {
            let chunks = self.chunks.get(run.chunks.clone()).unwrap_or_default();
            for (i, c) in chunks.iter().enumerate() {
                prev.entry(i == 0, |prev| c.encode(prev, &mut out));
            }
        }
        prev.census.index_bytes = out.len() - prev.census.directory_bytes;
        (out, prev.census)
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
        let runs = decode_runs(buf, &mut pos, n as usize)?;
        let mut chunks = Vec::with_capacity(n as usize);
        let mut prev = Predecessor::default();
        for run in &runs {
            for i in run.chunks.clone() {
                let starts_run = i == run.chunks.start;
                let c = prev.entry(starts_run, |prev| ChunkMeta::decode(buf, &mut pos, prev))?;
                chunks.push(Arc::new(c));
            }
        }
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

/// Parse the series-run directory: strictly ascending series ids (each
/// after the first a gap of at least 1 from the one before), runs
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
    let (mut series, mut supersedes) = (0u32, 0u64);
    for _ in 0..n {
        let gap = varint::read_u64(buf, pos)?;
        if gap == 0 && !runs.is_empty() {
            return Err(corrupt(format!("series {series} out of order")));
        }
        series = u64::from(series)
            .checked_add(gap)
            .and_then(cast::u32_checked)
            .ok_or_else(|| corrupt("series id exceeds u32".into()))?;
        let len = varint::read_u64(buf, pos)?;
        supersedes = supersedes.wrapping_add(cast::u64_bits(varint::read_i64(buf, pos)?));
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| next_chunk.checked_add(len))
            .filter(|&end| end <= n_chunks)
            .ok_or_else(|| corrupt(format!("run of series {series} passes the last chunk")))?;
        if end == next_chunk && supersedes == 0 {
            return Err(corrupt(format!("run of series {series} is empty")));
        }
        runs.push(SeriesRun {
            series,
            supersedes: Version(supersedes),
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

    /// A 1 000-point ramp of quarter units — a fleet register between
    /// two wraps — has BP at FP and TP at LP: its entry writes neither
    /// extreme's time nor its value, 22 bytes of footer where writing
    /// them took 31. The ramp's next 1 000 points continue its count,
    /// cadence and slope: their entry is its head, a residual byte for
    /// each of the count, FP.t, the span, FP.d and LP.d, and the pair
    /// the first entry's XOR values did not carry — 10 bytes, where
    /// coding them against the first's LP alone took 15; the 1 000
    /// after those take 8, where they took 15.
    #[test]
    fn a_quarter_unit_ramp_entry_shrinks() -> crate::Result<()> {
        let pts: Vec<Point> = (0..3_000)
            .map(|i| Point::new(1_000 * i, -125.0 + 0.25 * i as f64))
            .collect();
        let ramps = |n: usize| -> crate::Result<FileFooter> {
            let mut chunks = Vec::new();
            for (i, points) in pts.chunks(1_000).take(n).enumerate() {
                chunks.push(Arc::new(ChunkMeta {
                    offset: 6,
                    byte_len: 12,
                    version: Version(1 + i as u64),
                    stats: ChunkStatistics::from_points(points)?,
                }));
            }
            Ok(footer(&chunks, vec![run(0, 0, 0..n)]))
        };
        let mut sizes = Vec::new();
        for n in 1..=3 {
            let f = ramps(n)?;
            let body = f.encode_body();
            assert_eq!(FileFooter::decode_body(&body)?, f);
            sizes.push(body.len());
        }
        // Chunk count and the run directory; version, tags and length;
        // count, FP.t and LP.t; FP.v and LP.v.
        assert_eq!(sizes, [1 + 4 + 3 + 6 + 8, 22 + 3 + 5 + 2, 32 + 3 + 5]);
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
