//! TsFile reader: footer parsing (metadata-only) and chunk body reads.
//!
//! The split between [`TsFileReader::chunk_metas`] (cheap, in-memory
//! after open) and [`TsFileReader::read_chunk`] (real file I/O + decode)
//! is the substrate for the paper's `MetadataReader` / `DataReader`
//! distinction — M4-LSM wins precisely when it can answer from the
//! former without touching the latter.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::bufpool;
use crate::checksum::crc32;
use crate::format::{ChunkMeta, FileFooter, SeriesRun, MAGIC};
use crate::page::{self, PageMeta};
use crate::pread::PositionalFile;
use crate::types::{Point, TimeRange};
use crate::{Result, TsFileError};

/// Process-wide allocator for [`TsFileReader::handle_id`]. Starts at 1
/// so 0 can serve as an "unkeyed" sentinel for callers that need one.
static NEXT_HANDLE_ID: AtomicU64 = AtomicU64::new(1);

/// Read-side handle to one TsFile. Thread-safe without interior
/// locking: the file is immutable once sealed and all chunk reads are
/// positional (`pread`-style), so concurrent loads through one shared
/// handle never contend on a cursor.
#[derive(Debug)]
pub struct TsFileReader {
    path: PathBuf,
    file: PositionalFile,
    footer: FileFooter,
    /// Process-unique identity of this open handle; never reused, even
    /// when the same path is reopened. Cache layers key decoded chunk
    /// bodies by it so entries from a retired (compacted-away) file can
    /// never alias a newer file's chunks.
    handle_id: u64,
    /// Total chunk bodies read through this handle (observability for
    /// the benchmark harness: "how many chunks did this query load?").
    chunks_read: AtomicU64,
    bytes_read: AtomicU64,
}

impl TsFileReader {
    /// Open a TsFile and parse its footer. Verifies head magic, tail
    /// magic, the footer CRC, and that the chunk bodies the footer lists
    /// end where it begins.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        crate::lockcheck::check_io();
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;

        let mut head = [0u8; 6];
        file.read_exact(&mut head)?;
        if &head != MAGIC {
            return Err(TsFileError::BadMagic { found: head });
        }

        let file_len = file.metadata()?.len();
        let trailer_len = (4 + 8 + MAGIC.len()) as u64; // crc + len + magic
        if file_len < MAGIC.len() as u64 + trailer_len {
            return Err(TsFileError::Corrupt("file too short for trailer".into()));
        }
        file.seek(SeekFrom::End(-(trailer_len as i64)))?;
        let mut trailer = bufpool::take(trailer_len as usize);
        file.read_exact(&mut trailer)?;
        // The head already matched, so this is our format cut short (a
        // torn or truncated write), not a foreign file: `Corrupt`, and
        // `BadMagic` stays reserved for a file not of this generation.
        if !trailer.ends_with(MAGIC) {
            return Err(TsFileError::Corrupt(
                "trailer magic missing: file is truncated or torn".into(),
            ));
        }
        let too_short = || TsFileError::Corrupt("trailer too short".into());
        let expected_crc = le_u32(&trailer).ok_or_else(too_short)?;
        let body_len = trailer.get(4..).and_then(le_u64).ok_or_else(too_short)?;
        let footer_start = file_len
            .checked_sub(trailer_len + body_len)
            .ok_or_else(|| TsFileError::Corrupt("footer length exceeds file".into()))?;
        if footer_start < MAGIC.len() as u64 {
            return Err(TsFileError::Corrupt("footer overlaps head magic".into()));
        }
        file.seek(SeekFrom::Start(footer_start))?;
        let mut body = bufpool::take(body_len as usize);
        file.read_exact(&mut body)?;
        let actual_crc = crc32(&body);
        if actual_crc != expected_crc {
            return Err(TsFileError::ChecksumMismatch {
                expected: expected_crc,
                actual: actual_crc,
                what: "footer",
            });
        }
        let footer = FileFooter::decode_body(&body)?;
        // The footer stores no chunk offset: the bodies it lists must
        // tile the file from the head magic to the footer exactly.
        let data_end = footer.data_end();
        if data_end != footer_start {
            return Err(TsFileError::Corrupt(format!(
                "chunk bodies end at byte {data_end}, the footer starts at {footer_start}"
            )));
        }
        Ok(TsFileReader {
            path,
            file: PositionalFile::new(file),
            footer,
            handle_id: NEXT_HANDLE_ID.fetch_add(1, Ordering::Relaxed),
            chunks_read: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        })
    }

    /// Process-unique identity of this open handle (stable for its
    /// lifetime, never reused by later opens).
    pub fn handle_id(&self) -> u64 {
        self.handle_id
    }

    /// All chunk metadata in file order (ascending offset). No I/O.
    pub fn chunk_metas(&self) -> &[Arc<ChunkMeta>] {
        &self.footer.chunks
    }

    /// The series-run directory: which chunks belong to which series,
    /// in ascending series id (and chunk order). No I/O.
    pub fn series_runs(&self) -> &[SeriesRun] {
        &self.footer.runs
    }

    /// The chunk metadata of one run of [`series_runs`](Self::series_runs).
    pub fn run_chunks(&self, run: &SeriesRun) -> &[Arc<ChunkMeta>] {
        self.footer.chunks.get(run.chunks.clone()).unwrap_or(&[])
    }

    /// Path this reader was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read and decode one chunk body. Verifies the body CRC(s).
    /// Lock-free: safe to call from many threads concurrently. Decodes
    /// page by page and concatenates.
    pub fn read_chunk(&self, meta: &ChunkMeta) -> Result<Vec<Point>> {
        let info = &meta.paged;
        let body = self
            .file
            .read_pooled_at(meta.byte_len as usize, meta.offset)?;
        self.chunks_read.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(meta.byte_len, Ordering::Relaxed);
        let mut out = Vec::with_capacity((meta.stats.count as usize).min(body.len()));
        for pm in &info.pages {
            let slice = page_body_slice(&body, pm, 0)?;
            out.extend(page::decode_page(
                slice,
                info.ts_encoding,
                info.val_encoding,
                pm,
            )?);
        }
        if out.len() as u64 != meta.stats.count {
            return Err(TsFileError::Corrupt(format!(
                "chunk pages decoded {} points but metadata says {}",
                out.len(),
                meta.stats.count
            )));
        }
        Ok(out)
    }

    /// Read and decode one page of a chunk (by index into its page
    /// list). A single page-sized pread — the finest read unit.
    pub fn read_page_points(&self, meta: &ChunkMeta, page_no: u32) -> Result<Vec<Point>> {
        let info = &meta.paged;
        let pm = info
            .pages
            .get(page_no as usize)
            .ok_or_else(|| TsFileError::Corrupt(format!("page {page_no} out of range")))?;
        let body = self
            .file
            .read_pooled_at(pm.byte_len as usize, meta.offset + pm.offset)?;
        self.chunks_read.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(pm.byte_len, Ordering::Relaxed);
        page::decode_page(&body, info.ts_encoding, info.val_encoding, pm)
    }

    /// Read and decode only the pages of a chunk whose time range
    /// overlaps `range`, as `(page_no, points)` pairs in time order.
    /// One contiguous pread covers the whole overlapping window (pages
    /// tile the body, so the window is a single byte range).
    ///
    /// Returns an empty vec — with no I/O at all — when no page
    /// overlaps.
    pub fn read_pages_overlapping(
        &self,
        meta: &ChunkMeta,
        range: TimeRange,
    ) -> Result<Vec<(u32, Vec<Point>)>> {
        let info = &meta.paged;
        let window = info.pages_overlapping(range);
        if window.is_empty() {
            return Ok(Vec::new());
        }
        let first = info
            .pages
            .get(window.start)
            .ok_or_else(|| TsFileError::Corrupt("page window out of range".into()))?;
        let last = info
            .pages
            .get(window.end - 1)
            .ok_or_else(|| TsFileError::Corrupt("page window out of range".into()))?;
        let base = first.offset;
        let len = last.offset + last.byte_len - base;
        let buf = self.file.read_pooled_at(len as usize, meta.offset + base)?;
        self.chunks_read.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(len, Ordering::Relaxed);
        let mut out = Vec::with_capacity(window.len());
        for (i, pm) in info
            .pages
            .iter()
            .enumerate()
            .take(window.end)
            .skip(window.start)
        {
            let slice = page_body_slice(&buf, pm, base)?;
            let pts = page::decode_page(slice, info.ts_encoding, info.val_encoding, pm)?;
            let page_no = u32::try_from(i)
                .map_err(|_| TsFileError::Corrupt("page index exceeds u32".into()))?;
            out.push((page_no, pts));
        }
        Ok(out)
    }

    /// Read the raw (still-encoded) bodies of a contiguous page window
    /// of a chunk in one pooled pread. Returns the buffer plus the
    /// chunk-relative byte offset it starts at; individual pages slice
    /// out via [`page_body_slice`] with that base.
    ///
    /// This is the compactor's clean-page copy source: bytes move from
    /// file to file without ever being decoded. They are **not verified
    /// here** — [`crate::TsFileWriter::write_chunk_raw`], the only place
    /// they can go, checks every page's CRC and count before it writes
    /// a byte.
    pub fn read_page_window_raw(
        &self,
        meta: &ChunkMeta,
        window: std::ops::Range<usize>,
    ) -> Result<(bufpool::PooledBuf, u64)> {
        let info = &meta.paged;
        let first = info
            .pages
            .get(window.start)
            .ok_or_else(|| TsFileError::Corrupt("page window out of range".into()))?;
        let last = window
            .end
            .checked_sub(1)
            .filter(|&e| e >= window.start)
            .and_then(|e| info.pages.get(e))
            .ok_or_else(|| TsFileError::Corrupt("page window out of range".into()))?;
        let base = first.offset;
        let len = last.offset + last.byte_len - base;
        let buf = self.file.read_pooled_at(len as usize, meta.offset + base)?;
        self.chunks_read.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(len, Ordering::Relaxed);
        Ok((buf, base))
    }

    /// Read one page of a chunk and decode only its timestamp column.
    /// The value column is never decoded, and with `until` the decode
    /// stops at the first timestamp past it, which is the last value
    /// returned — the paper's partial scan (Figure 7(b)). The caller
    /// names the page ([`crate::PagedChunkInfo::page_containing`]), so
    /// no byte of another page is read.
    pub fn read_page_timestamps(
        &self,
        meta: &ChunkMeta,
        page_no: u32,
        until: Option<i64>,
    ) -> Result<Vec<i64>> {
        let info = &meta.paged;
        let pm = info
            .pages
            .get(page_no as usize)
            .ok_or_else(|| TsFileError::Corrupt(format!("page {page_no} out of range")))?;
        let body = self
            .file
            .read_pooled_at(pm.byte_len as usize, meta.offset + pm.offset)?;
        self.chunks_read.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(pm.byte_len, Ordering::Relaxed);
        page::decode_page_timestamps(&body, info.ts_encoding, pm, until)
    }

    /// Number of chunk bodies read through this handle so far.
    pub fn chunks_read(&self) -> u64 {
        self.chunks_read.load(Ordering::Relaxed)
    }

    /// Number of chunk-body bytes read through this handle so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }
}

/// Slice one page's body out of a buffer that starts at chunk-relative
/// byte offset `base`. All bounds come from the (CRC-verified) footer,
/// but are re-checked here so a logic error can never index wild.
/// Public so the compactor can carve pages out of a raw window read.
pub fn page_body_slice<'a>(buf: &'a [u8], pm: &PageMeta, base: u64) -> Result<&'a [u8]> {
    let start = pm
        .offset
        .checked_sub(base)
        .and_then(|o| usize::try_from(o).ok())
        .ok_or(TsFileError::UnexpectedEof { what: "page body" })?;
    let end = usize::try_from(pm.byte_len)
        .ok()
        .and_then(|l| start.checked_add(l))
        .filter(|&e| e <= buf.len())
        .ok_or(TsFileError::UnexpectedEof { what: "page body" })?;
    buf.get(start..end)
        .ok_or(TsFileError::UnexpectedEof { what: "page body" })
}

/// First four bytes of `bytes` as a little-endian `u32`, if present.
fn le_u32(bytes: &[u8]) -> Option<u32> {
    let src = bytes.get(..4)?;
    let mut arr = [0u8; 4];
    for (dst, s) in arr.iter_mut().zip(src) {
        *dst = *s;
    }
    Some(u32::from_le_bytes(arr))
}

/// First eight bytes of `bytes` as a little-endian `u64`, if present.
fn le_u64(bytes: &[u8]) -> Option<u64> {
    let src = bytes.get(..8)?;
    let mut arr = [0u8; 8];
    for (dst, s) in arr.iter_mut().zip(src) {
        *dst = *s;
    }
    Some(u64::from_le_bytes(arr))
}

#[cfg(test)]
mod tests {
    // The module-level deny is for the parsing code above; tests
    // assert by panicking.
    #![allow(clippy::indexing_slicing)]

    use super::*;
    use crate::writer::TsFileWriter;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tsfile-reader-tests");
        std::fs::create_dir_all(&dir).ok();
        dir.join(name)
    }

    fn series(n: i64, step: i64) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(i * step, (i as f64 * 0.1).sin() * 50.0))
            .collect()
    }

    #[test]
    fn write_read_roundtrip_multi_chunk() -> Result<()> {
        let p = tmp("roundtrip.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        let c1 = series(1000, 9000);
        let c2: Vec<Point> = (0..500).map(|i| Point::new(i * 7 + 3, i as f64)).collect();
        w.write_chunk(&c1, 1)?;
        w.write_chunk(&c2, 2)?;
        w.finish()?;

        let r = TsFileReader::open(&p)?;
        assert_eq!(r.chunk_metas().len(), 2);
        assert_eq!(r.read_chunk(&r.chunk_metas()[0])?, c1);
        assert_eq!(r.read_chunk(&r.chunk_metas()[1])?, c2);
        assert_eq!(r.chunks_read(), 2);
        assert!(r.bytes_read() > 0);
        Ok(())
    }

    #[test]
    fn metadata_matches_points() -> Result<()> {
        let p = tmp("meta.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        let pts = vec![
            Point::new(10, 5.0),
            Point::new(20, -2.0),
            Point::new(30, 8.0),
        ];
        w.write_chunk(&pts, 7)?;
        w.finish()?;
        let r = TsFileReader::open(&p)?;
        let m = &r.chunk_metas()[0];
        assert_eq!(m.version.0, 7);
        assert_eq!(m.stats.first, pts[0]);
        assert_eq!(m.stats.last, pts[2]);
        assert_eq!(m.stats.bottom, pts[1]);
        assert_eq!(m.stats.top, pts[2]);
        assert_eq!(m.stats.count, 3);
        Ok(())
    }

    #[test]
    fn timestamps_only_partial_decode() -> Result<()> {
        let p = tmp("partial.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        let pts = series(1000, 9000);
        w.write_chunk(&pts, 1)?;
        w.finish()?;
        let r = TsFileReader::open(&p)?;
        let meta = &r.chunk_metas()[0];
        assert_eq!(meta.page_count(), 1);
        let all = r.read_page_timestamps(meta, 0, None)?;
        assert_eq!(all.len(), 1000);
        assert!(all.iter().zip(&pts).all(|(t, p)| *t == p.t));
        let some = r.read_page_timestamps(meta, 0, Some(45_000))?;
        assert!(some.len() < 20, "early stop expected, got {}", some.len());
        assert!(some.last().is_some_and(|&t| t > 45_000));
        Ok(())
    }

    #[test]
    fn concurrent_chunk_reads_share_one_handle() -> Result<()> {
        let p = tmp("concurrent.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        let chunks: Vec<Vec<Point>> = (0..8)
            .map(|c| {
                (0..500)
                    .map(|i| Point::new(c * 10_000 + i, (c + i) as f64))
                    .collect()
            })
            .collect();
        for (i, c) in chunks.iter().enumerate() {
            w.write_chunk(c, i as u64 + 1)?;
        }
        w.finish()?;
        let r = TsFileReader::open(&p)?;
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..4 {
                let r = &r;
                let chunks = &chunks;
                handles.push(s.spawn(move || -> Result<()> {
                    for _ in 0..20 {
                        for (meta, expect) in r.chunk_metas().iter().zip(chunks) {
                            if r.read_chunk(meta)? != *expect {
                                return Err(TsFileError::Corrupt(
                                    "concurrent read returned wrong chunk".into(),
                                ));
                            }
                        }
                    }
                    Ok(())
                }));
            }
            for h in handles {
                h.join()
                    .map_err(|_| TsFileError::Corrupt("reader thread panicked".into()))??;
            }
            Ok::<(), TsFileError>(())
        })?;
        assert_eq!(r.chunks_read(), 4 * 20 * 8);
        Ok(())
    }

    #[test]
    fn paged_chunk_selective_reads() -> Result<()> {
        let p = tmp("paged-selective.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        w.set_page_points(100);
        // Irregular-ish: break constant delta so the stream path is hit too.
        let pts: Vec<Point> = (0..1000)
            .map(|i| Point::new(i * 10 + (i % 7), i as f64))
            .collect();
        w.write_chunk(&pts, 1)?;
        w.finish()?;
        let r = TsFileReader::open(&p)?;
        let meta = &r.chunk_metas()[0];
        assert_eq!(meta.page_count(), 10);

        // Whole-chunk read still returns everything, in order.
        assert_eq!(r.read_chunk(meta)?, pts);

        // A narrow range decodes only the overlapping pages.
        let span = TimeRange::new(2_500, 3_500); // pages 2 and 3 (t ≈ idx*10)
        let pages = r.read_pages_overlapping(meta, span)?;
        assert_eq!(
            pages.iter().map(|(no, _)| *no).collect::<Vec<_>>(),
            vec![2, 3]
        );
        let decoded: usize = pages.iter().map(|(_, p)| p.len()).sum();
        assert_eq!(decoded, 200, "exactly two 100-point pages");
        for (no, page_pts) in &pages {
            assert_eq!(page_pts, &pts[*no as usize * 100..(*no as usize + 1) * 100]);
        }

        // Disjoint range: no pages, no I/O.
        let before = r.chunks_read();
        assert!(r
            .read_pages_overlapping(meta, TimeRange::new(20_000, 30_000))?
            .is_empty());
        assert_eq!(r.chunks_read(), before);

        // Single-page read and its timestamp-only variant.
        assert_eq!(r.read_page_points(meta, 5)?, &pts[500..600]);
        let ts = r.read_page_timestamps(meta, 5, None)?;
        assert!(ts.iter().zip(&pts[500..600]).all(|(t, p)| *t == p.t));
        assert!(
            r.read_page_points(meta, 10).is_err(),
            "page_no out of range"
        );
        assert!(r.read_page_timestamps(meta, 10, None).is_err());
        Ok(())
    }

    #[test]
    fn raw_page_window_matches_decoded_pages() -> Result<()> {
        let p = tmp("raw-window.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        w.set_page_points(100);
        let pts: Vec<Point> = (0..1000)
            .map(|i| Point::new(i * 10 + (i % 3), i as f64))
            .collect();
        w.write_chunk(&pts, 1)?;
        w.finish()?;
        let r = TsFileReader::open(&p)?;
        let meta = &r.chunk_metas()[0];
        let info = &meta.paged;

        let (buf, base) = r.read_page_window_raw(meta, 3..6)?;
        assert_eq!(base, info.pages[3].offset);
        for pm in &info.pages[3..6] {
            let slice = page_body_slice(&buf, pm, base)?;
            let decoded = page::decode_page(slice, info.ts_encoding, info.val_encoding, pm)?;
            assert_eq!(decoded.len() as u64, pm.stats.count);
            assert_eq!(decoded.first().map(|p| p.t), Some(pm.stats.first.t));
        }

        // Out-of-range and empty windows are rejected.
        assert!(r.read_page_window_raw(meta, 8..11).is_err());
        assert!(r.read_page_window_raw(meta, 4..4).is_err());

        // A corrupt body inside the window is read as it is — and
        // stopped at the one gate every raw page passes, the writer's.
        let mut data = std::fs::read(&p)?;
        let idx = (meta.offset + info.pages[4].offset + 5) as usize;
        data[idx] ^= 0x08;
        std::fs::write(&p, &data)?;
        let r2 = TsFileReader::open(&p)?;
        let m2 = &r2.chunk_metas()[0];
        let (buf, base) = r2.read_page_window_raw(m2, 3..6)?;
        let raw: Vec<crate::RawPage<'_>> = m2.paged.pages[3..6]
            .iter()
            .map(|pm| {
                Ok(crate::RawPage {
                    bytes: page_body_slice(&buf, pm, base)?,
                    stats: pm.stats,
                })
            })
            .collect::<Result<_>>()?;
        let mut w2 = TsFileWriter::create(tmp("raw-window-copy.tsfile"))?;
        w2.begin_series(0, 0)?;
        assert!(matches!(
            w2.write_chunk_raw(&raw, info.ts_encoding, info.val_encoding, 2),
            Err(TsFileError::ChecksumMismatch { .. })
        ));
        assert_eq!(w2.chunk_count(), 0);
        Ok(())
    }

    #[test]
    fn paged_timestamp_probe_reads_one_page_prefix_only() -> Result<()> {
        let p = tmp("paged-probe.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        w.set_page_points(100);
        let pts = series(1000, 10);
        w.write_chunk(&pts, 1)?;
        w.finish()?;
        let r = TsFileReader::open(&p)?;
        let meta = &r.chunk_metas()[0];
        let bytes_before = r.bytes_read();
        // Page statistics name the page that could hold the probe.
        assert_eq!(meta.paged.page_containing(1_505), Some(1));
        let some = r.read_page_timestamps(meta, 1, Some(1_505))?;
        // Crossing value included, nothing decoded past it.
        assert_eq!(some.first().copied(), Some(1_000));
        assert_eq!(some.last().copied(), Some(1_510));
        assert_eq!(some.len(), 52);
        assert_eq!(r.bytes_read() - bytes_before, meta.paged.pages[1].byte_len);
        // A limit at or past the page's last timestamp has no crossing
        // value inside the page: the whole column, and no further.
        let whole = r.read_page_timestamps(meta, 1, Some(1_990))?;
        assert_eq!(whole.len(), 100);
        assert_eq!(whole.last().copied(), Some(1_990));
        // Unbounded probes still yield the full column, page by page.
        let mut all = Vec::new();
        for page in 0..meta.page_count() as u32 {
            all.extend(r.read_page_timestamps(meta, page, None)?);
        }
        assert!(all.iter().zip(&pts).all(|(t, p)| *t == p.t));
        assert_eq!(all.len(), 1000);
        Ok(())
    }

    #[test]
    fn handle_ids_unique_across_reopens() -> Result<()> {
        let p = tmp("handleid.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        w.write_chunk(&series(10, 5), 1)?;
        w.finish()?;
        let a = TsFileReader::open(&p)?;
        let b = TsFileReader::open(&p)?;
        assert_ne!(a.handle_id(), b.handle_id(), "same path, distinct handles");
        assert_ne!(a.handle_id(), 0, "0 is reserved as an unkeyed sentinel");
        Ok(())
    }

    #[test]
    fn rejects_non_tsfile() -> Result<()> {
        let p = tmp("garbage.bin");
        // The others carry a retired generation's magic at both ends:
        // rejected at the head like any other foreign file.
        let inputs: [&[u8]; 3] = [
            b"this is definitely not a tsfile at all",
            b"TSF1\0\0\0\0\0\0\0\0\0\0\0\0\0\0TSF1\0\0",
            b"TSF2\0\0\0\0\0\0\0\0\0\0\0\0\0\0TSF2\0\0",
        ];
        for bytes in inputs {
            std::fs::write(&p, bytes)?;
            match TsFileReader::open(&p) {
                Err(TsFileError::BadMagic { found }) => assert_eq!(found[..], bytes[..6]),
                other => return Err(TsFileError::Corrupt(format!("opened as {other:?}"))),
            }
        }
        Ok(())
    }

    #[test]
    fn rejects_truncated_file() -> Result<()> {
        let p = tmp("trunc.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        w.write_chunk(&series(100, 10), 1)?;
        w.finish()?;
        let data = std::fs::read(&p)?;
        std::fs::write(&p, &data[..data.len() - 3])?;
        // Our own head, no tail: a cut-short file, not a foreign one.
        match TsFileReader::open(&p) {
            Err(TsFileError::Corrupt(msg)) => assert!(msg.contains("trailer magic"), "{msg}"),
            other => return Err(TsFileError::Corrupt(format!("opened as {other:?}"))),
        }
        Ok(())
    }

    #[test]
    fn detects_chunk_body_corruption() -> Result<()> {
        let p = tmp("flip.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        let meta = w.write_chunk(&series(200, 10), 1)?.clone();
        w.finish()?;
        let mut data = std::fs::read(&p)?;
        // Flip one bit in the middle of the chunk body.
        let idx = (meta.offset + meta.byte_len / 2) as usize;
        data[idx] ^= 0x01;
        std::fs::write(&p, &data)?;
        let r = TsFileReader::open(&p)?;
        assert!(matches!(
            r.read_chunk(&r.chunk_metas()[0]),
            Err(TsFileError::ChecksumMismatch { .. })
        ));
        Ok(())
    }

    #[test]
    fn detects_footer_corruption() -> Result<()> {
        let p = tmp("footerflip.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        w.write_chunk(&series(50, 10), 1)?;
        w.finish()?;
        let mut data = std::fs::read(&p)?;
        let n = data.len();
        // Footer body sits just before the 18-byte trailer; flip a bit in it.
        data[n - 20] ^= 0x80;
        std::fs::write(&p, &data)?;
        assert!(TsFileReader::open(&p).is_err());
        Ok(())
    }

    #[test]
    fn empty_file_with_footer_only() -> Result<()> {
        let p = tmp("nochunks.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        w.finish()?;
        let r = TsFileReader::open(&p)?;
        assert!(r.chunk_metas().is_empty());
        Ok(())
    }
}
