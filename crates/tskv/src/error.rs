//! Error type for the tskv engine.

use std::fmt;
use std::io;

use tsfile::TsFileError;

/// Errors produced by the storage engine.
#[derive(Debug)]
pub enum TsKvError {
    /// Error from the underlying TsFile layer.
    TsFile(TsFileError),
    /// Filesystem-level failure outside a TsFile operation.
    Io(io::Error),
    /// The named series does not exist.
    SeriesNotFound(String),
    /// A delete range had `start > end`.
    InvalidDeleteRange { start: i64, end: i64 },
    /// A series name contained characters unusable as a directory name.
    InvalidSeriesName(String),
    /// A configuration knob held a zero/absurd value.
    InvalidConfig {
        /// Name of the offending `EngineConfig` field.
        field: &'static str,
        /// The rejected value.
        value: u64,
        /// Why the value is unusable.
        reason: &'static str,
    },
    /// The series catalog reached its configured capacity.
    CatalogFull {
        /// The ceiling the catalog was opened with (the engine passes
        /// `config::CATALOG_MAX_SERIES`).
        limit: u64,
    },
    /// On-disk state is internally inconsistent (e.g. a data file tagged
    /// with a series id the catalog never allocated).
    Corrupt(String),
}

impl fmt::Display for TsKvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsKvError::TsFile(e) => write!(f, "tsfile error: {e}"),
            TsKvError::Io(e) => write!(f, "i/o error: {e}"),
            TsKvError::SeriesNotFound(name) => write!(f, "series not found: {name:?}"),
            TsKvError::InvalidDeleteRange { start, end } => {
                write!(f, "invalid delete range: start {start} > end {end}")
            }
            TsKvError::InvalidSeriesName(name) => {
                write!(f, "invalid series name: {name:?}")
            }
            TsKvError::InvalidConfig {
                field,
                value,
                reason,
            } => {
                write!(f, "invalid config: {field} = {value}: {reason}")
            }
            TsKvError::CatalogFull { limit } => {
                write!(f, "series catalog full: {limit} series registered")
            }
            TsKvError::Corrupt(reason) => write!(f, "corrupt store: {reason}"),
        }
    }
}

impl std::error::Error for TsKvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TsKvError::TsFile(e) => Some(e),
            TsKvError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TsFileError> for TsKvError {
    fn from(e: TsFileError) -> Self {
        TsKvError::TsFile(e)
    }
}

impl From<io::Error> for TsKvError {
    fn from(e: io::Error) -> Self {
        TsKvError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = TsKvError::SeriesNotFound("a.b".into());
        assert!(e.to_string().contains("a.b"));
        let e: TsKvError = TsFileError::EmptyChunk.into();
        assert!(std::error::Error::source(&e).is_some());
        let e = TsKvError::InvalidDeleteRange { start: 5, end: 1 };
        assert!(e.to_string().contains('5'));
    }
}
