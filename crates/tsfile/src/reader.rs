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
// Inert: a page's forms are in its modes byte.
use crate::encoding::EncodingKind::Plain;
use crate::format::{ChunkMeta, FileFooter, SeriesRun, MAGIC};
use crate::page;
use crate::pread::PositionalFile;
use crate::types::Point;
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

    /// Read and decode one chunk body. Verifies the body CRC.
    /// Lock-free: safe to call from many threads concurrently.
    pub fn read_chunk(&self, meta: &ChunkMeta) -> Result<Vec<Point>> {
        let body = self.read_chunk_raw(meta)?;
        page::decode_page(&body, Plain, Plain, &meta.page())
    }

    /// Read the raw (still-encoded) body of a chunk in one pooled pread.
    ///
    /// This is the compactor's clean-chunk copy source: bytes move from
    /// file to file without ever being decoded. They are **not verified
    /// here** — [`crate::TsFileWriter::write_chunk_raw`], the only place
    /// they can go, checks the CRC and count before it writes a byte.
    pub fn read_chunk_raw(&self, meta: &ChunkMeta) -> Result<bufpool::PooledBuf> {
        let len = usize::try_from(meta.byte_len)
            .map_err(|_| TsFileError::Corrupt("chunk length unaddressable".into()))?;
        Ok(self.file.read_pooled_at(len, meta.offset)?)
    }

    /// Read one chunk and decode only its timestamp column, whole. The
    /// value column is never decoded.
    pub fn read_timestamps(&self, meta: &ChunkMeta) -> Result<Vec<i64>> {
        let body = self.read_chunk_raw(meta)?;
        page::decode_page_timestamps(&body, Plain, &meta.page(), None)
    }
}

/// First four bytes of `bytes` as a little-endian `u32`, if present.
fn le_u32(bytes: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?))
}

/// First eight bytes of `bytes` as a little-endian `u64`, if present.
fn le_u64(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?))
}

#[cfg(test)]
mod tests {
    // The module-level deny is for the parsing code above; tests
    // assert by panicking.
    #![allow(clippy::indexing_slicing)]

    use super::*;
    use crate::writer::TsFileWriter;
    use testdir::TestDir;

    fn series(n: i64, step: i64) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(i * step, (i as f64 * 0.1).sin() * 50.0))
            .collect()
    }

    #[test]
    fn write_read_roundtrip_multi_chunk() -> Result<()> {
        let dir = TestDir::new("tsfile-reader");
        let p = dir.join("roundtrip.tsfile");
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
        Ok(())
    }

    #[test]
    fn metadata_matches_points() -> Result<()> {
        let dir = TestDir::new("tsfile-reader");
        let p = dir.join("meta.tsfile");
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

    /// A timestamp read is a partial decode of the chunk: its timestamp
    /// column, whole, and no value.
    #[test]
    fn timestamps_only_partial_decode() -> Result<()> {
        let dir = TestDir::new("tsfile-reader");
        let p = dir.join("partial.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        let pts = series(1000, 9000);
        w.write_chunk(&pts, 1)?;
        w.finish()?;
        let r = TsFileReader::open(&p)?;
        let meta = &r.chunk_metas()[0];
        let all = r.read_timestamps(meta)?;
        assert_eq!(all, pts.iter().map(|p| p.t).collect::<Vec<_>>());
        Ok(())
    }

    #[test]
    fn concurrent_chunk_reads_share_one_handle() -> Result<()> {
        let dir = TestDir::new("tsfile-reader");
        let p = dir.join("concurrent.tsfile");
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
        Ok(())
    }

    /// The raw read of a chunk is its one page body: it decodes to
    /// the chunk. A corrupt body is read as it is — and stopped at the
    /// one gate every raw body passes, the writer's.
    #[test]
    fn raw_page_window_matches_decoded_pages() -> Result<()> {
        let dir = TestDir::new("tsfile-reader");
        let p = dir.join("raw-window.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        let pts: Vec<Point> = (0..1000)
            .map(|i| Point::new(i * 10 + (i % 3), i as f64))
            .collect();
        for (v, chunk) in pts.chunks(100).enumerate() {
            w.write_chunk(chunk, v as u64 + 1)?;
        }
        w.finish()?;
        let r = TsFileReader::open(&p)?;
        let meta = &r.chunk_metas()[3];
        let raw = r.read_chunk_raw(meta)?;
        assert_eq!(raw.len() as u64, meta.byte_len);
        let decoded = page::decode_page(&raw, Plain, Plain, &meta.page())?;
        assert_eq!(decoded, &pts[300..400]);

        let mut data = std::fs::read(&p)?;
        data[(meta.offset + 5) as usize] ^= 0x08;
        std::fs::write(&p, &data)?;
        let r2 = TsFileReader::open(&p)?;
        let m2 = &r2.chunk_metas()[3];
        let raw = r2.read_chunk_raw(m2)?;
        let mut w2 = TsFileWriter::create(dir.join("raw-window-copy.tsfile"))?;
        w2.begin_series(0, 0)?;
        assert!(matches!(
            w2.write_chunk_raw(&raw, m2.stats, 2),
            Err(TsFileError::ChecksumMismatch { .. })
        ));
        assert_eq!(w2.chunk_count(), 0);
        Ok(())
    }

    /// A probe reads one chunk of the file and decodes its timestamp
    /// column whole: that chunk's timestamps and no other's.
    #[test]
    fn paged_timestamp_probe_reads_one_chunk_whole() -> Result<()> {
        let dir = TestDir::new("tsfile-reader");
        let p = dir.join("paged-probe.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        let pts = series(1000, 10);
        for (v, chunk) in pts.chunks(100).enumerate() {
            w.write_chunk(chunk, v as u64 + 1)?;
        }
        w.finish()?;
        let r = TsFileReader::open(&p)?;
        let one = r.read_timestamps(&r.chunk_metas()[1])?;
        assert_eq!(one, pts[100..200].iter().map(|p| p.t).collect::<Vec<_>>());
        // Chunk by chunk, the whole series.
        let mut all = Vec::new();
        for meta in r.chunk_metas() {
            all.extend(r.read_timestamps(meta)?);
        }
        assert!(all.iter().zip(&pts).all(|(t, p)| *t == p.t));
        assert_eq!(all.len(), 1000);
        Ok(())
    }

    #[test]
    fn handle_ids_unique_across_reopens() -> Result<()> {
        let dir = TestDir::new("tsfile-reader");
        let p = dir.join("handleid.tsfile");
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
        let dir = TestDir::new("tsfile-reader");
        let p = dir.join("garbage.bin");
        // The others carry a retired generation's magic at both ends:
        // rejected at the head like any other foreign file.
        let inputs: [&[u8]; 9] = [
            b"this is definitely not a tsfile at all",
            b"TSF1\0\0\0\0\0\0\0\0\0\0\0\0\0\0TSF1\0\0",
            b"TSF2\0\0\0\0\0\0\0\0\0\0\0\0\0\0TSF2\0\0",
            b"TSF3\0\0\0\0\0\0\0\0\0\0\0\0\0\0TSF3\0\0",
            b"TSF5\0\0\0\0\0\0\0\0\0\0\0\0\0\0TSF5\0\0",
            b"TSF6\0\0\0\0\0\0\0\0\0\0\0\0\0\0TSF6\0\0",
            b"TSF7\0\0\0\0\0\0\0\0\0\0\0\0\0\0TSF7\0\0",
            b"TSF8\0\0\0\0\0\0\0\0\0\0\0\0\0\0TSF8\0\0",
            b"TSF9\0\0\0\0\0\0\0\0\0\0\0\0\0\0TSF9\0\0",
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
        let dir = TestDir::new("tsfile-reader");
        let p = dir.join("trunc.tsfile");
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
        let dir = TestDir::new("tsfile-reader");
        let p = dir.join("flip.tsfile");
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
        let dir = TestDir::new("tsfile-reader");
        let p = dir.join("footerflip.tsfile");
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
        let dir = TestDir::new("tsfile-reader");
        let p = dir.join("nochunks.tsfile");
        let mut w = TsFileWriter::create(&p)?;
        w.begin_series(0, 0)?;
        w.finish()?;
        let r = TsFileReader::open(&p)?;
        assert!(r.chunk_metas().is_empty());
        Ok(())
    }
}
