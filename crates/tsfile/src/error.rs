//! Error type for the tsfile crate.

use std::fmt;
use std::io;

/// Errors produced while reading or writing TsFiles and mods files.
#[derive(Debug)]
pub enum TsFileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the expected magic bytes or has an
    /// unsupported format version.
    BadMagic { found: [u8; 6] },
    /// A checksum mismatch was detected while decoding a block.
    ChecksumMismatch {
        expected: u32,
        actual: u32,
        what: &'static str,
    },
    /// The byte stream ended before a complete value could be decoded.
    UnexpectedEof { what: &'static str },
    /// A decoded quantity is out of its legal range (corrupt file or bug).
    Corrupt(String),
    /// Attempted to write an empty chunk; chunks must hold ≥ 1 point.
    EmptyChunk,
    /// Attempted to write a chunk of more points than one page holds
    /// ([`crate::page::MAX_PAGE_POINTS`]): a chunk is one page.
    ChunkTooLarge { points: usize },
    /// Points handed to the chunk writer were not strictly increasing in
    /// time. Chunks are sorted runs by construction (Definition 2.4).
    UnsortedPoints { prev: i64, next: i64 },
    /// Operation attempted on a writer that was already finished.
    WriterFinished,
    /// A series run was begun with an id not above the previous run's:
    /// the run directory lists each series once, in ascending id.
    SeriesOutOfOrder { prev: u32, next: u32 },
    /// A chunk was written before any series run was begun: every chunk
    /// belongs to the run of one series.
    NoSeriesBegun,
}

impl fmt::Display for TsFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsFileError::Io(e) => write!(f, "i/o error: {e}"),
            TsFileError::BadMagic { found } => {
                write!(f, "bad magic bytes: {found:?} (not a tsfile?)")
            }
            TsFileError::ChecksumMismatch {
                expected,
                actual,
                what,
            } => write!(
                f,
                "checksum mismatch in {what}: expected {expected:#010x}, got {actual:#010x}"
            ),
            TsFileError::UnexpectedEof { what } => {
                write!(f, "unexpected end of input while decoding {what}")
            }
            TsFileError::Corrupt(msg) => write!(f, "corrupt file: {msg}"),
            TsFileError::EmptyChunk => write!(f, "refusing to write an empty chunk"),
            TsFileError::ChunkTooLarge { points } => write!(
                f,
                "refusing to write a chunk of {points} points, above the {}-point ceiling",
                crate::page::MAX_PAGE_POINTS
            ),
            TsFileError::UnsortedPoints { prev, next } => write!(
                f,
                "chunk points must be strictly increasing in time: {next} after {prev}"
            ),
            TsFileError::WriterFinished => write!(f, "writer already finished"),
            TsFileError::SeriesOutOfOrder { prev, next } => write!(
                f,
                "series runs must be written in ascending id: {next} after {prev}"
            ),
            TsFileError::NoSeriesBegun => {
                write!(f, "chunk written before any series run was begun")
            }
        }
    }
}

impl std::error::Error for TsFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TsFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TsFileError {
    fn from(e: io::Error) -> Self {
        TsFileError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = TsFileError::UnsortedPoints { prev: 10, next: 5 };
        assert!(e.to_string().contains("strictly increasing"));
        let e = TsFileError::ChecksumMismatch {
            expected: 1,
            actual: 2,
            what: "chunk",
        };
        assert!(e.to_string().contains("chunk"));
        let e = TsFileError::BadMagic { found: *b"NOTTSF" };
        assert!(e.to_string().contains("magic"));
    }

    #[test]
    fn io_error_source_preserved() {
        let e: TsFileError = io::Error::new(io::ErrorKind::NotFound, "nope").into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
