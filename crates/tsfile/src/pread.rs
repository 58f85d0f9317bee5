//! Positional ("pread"-style) file reads.
//!
//! A sealed TsFile is immutable, so one open handle can serve any
//! number of concurrent chunk loads — *if* reads do not share a file
//! cursor. [`PositionalFile`] provides exactly that: `read_exact_at`
//! reads a byte range at an absolute offset without moving any shared
//! position, so the reader needs no mutex around chunk I/O and parallel
//! queries never serialize on the descriptor.
//!
//! On Unix this maps to `pread(2)` via [`std::os::unix::fs::FileExt`].
//! Other platforms fall back to a mutex-guarded `seek` + `read`, which
//! is correct but serializes concurrent loads on that one file.

use std::fs::File;
use std::io;

/// A read-only file handle supporting concurrent positional reads.
#[derive(Debug)]
pub struct PositionalFile {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: std::sync::Mutex<File>,
}

impl PositionalFile {
    /// Wrap an open file. The handle's own cursor is never used again
    /// on Unix; on the fallback path it is owned by the internal mutex.
    pub fn new(file: File) -> Self {
        #[cfg(unix)]
        {
            PositionalFile { file }
        }
        #[cfg(not(unix))]
        {
            PositionalFile {
                file: std::sync::Mutex::new(file),
            }
        }
    }

    /// Read exactly `len` bytes at the absolute byte `offset` into a
    /// pooled buffer (see [`crate::bufpool`]): the steady-state form of
    /// `read_exact_at` that reuses a warm allocation per thread instead
    /// of `vec![0u8; len]` per call.
    pub fn read_pooled_at(&self, len: usize, offset: u64) -> io::Result<crate::bufpool::PooledBuf> {
        let mut buf = crate::bufpool::take(len);
        self.read_exact_at(&mut buf, offset)?;
        Ok(buf)
    }

    /// Fill `buf` from the absolute byte `offset`. Does not perturb any
    /// other in-flight read on the same handle.
    pub fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        crate::lockcheck::check_io();
        #[cfg(unix)]
        {
            std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut file = self
                .file
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(buf)
        }
    }
}

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets library code.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use testdir::TestDir;

    #[test]
    fn concurrent_positional_reads_do_not_interfere() {
        let dir = TestDir::new("tsfile-pread-tests");
        let path = dir.join("interleave.bin");
        let data: Vec<u8> = (0..255u8).cycle().take(64 * 1024).collect();
        std::fs::write(&path, &data).unwrap();
        let f = PositionalFile::new(File::open(&path).unwrap());
        std::thread::scope(|s| {
            for start in [0usize, 1_000, 30_000, 63_000] {
                let f = &f;
                let data = &data;
                s.spawn(move || {
                    for _ in 0..200 {
                        let mut buf = vec![0u8; 512];
                        f.read_exact_at(&mut buf, start as u64).unwrap();
                        assert_eq!(&buf, &data[start..start + 512]);
                    }
                });
            }
        });
    }

    #[test]
    fn pooled_read_matches_plain_read() {
        let dir = TestDir::new("tsfile-pread-tests");
        let path = dir.join("pooled.bin");
        let data: Vec<u8> = (0..255u8).cycle().take(4096).collect();
        std::fs::write(&path, &data).unwrap();
        let f = PositionalFile::new(File::open(&path).unwrap());
        for (len, off) in [(512usize, 0u64), (100, 700), (4096, 0)] {
            let pooled = f.read_pooled_at(len, off).unwrap();
            let mut plain = vec![0u8; len];
            f.read_exact_at(&mut plain, off).unwrap();
            assert_eq!(&pooled[..], &plain[..]);
        }
        assert!(f.read_pooled_at(8, 4094).is_err());
    }

    #[test]
    fn short_read_past_eof_errors() {
        let dir = TestDir::new("tsfile-pread-tests");
        let path = dir.join("eof.bin");
        std::fs::write(&path, [1u8, 2, 3, 4]).unwrap();
        let f = PositionalFile::new(File::open(&path).unwrap());
        let mut buf = [0u8; 8];
        assert!(f.read_exact_at(&mut buf, 2).is_err());
    }
}
