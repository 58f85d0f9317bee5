//! # tsfile — a TsFile-like on-disk format for time series chunks
//!
//! This crate implements the storage substrate that the M4-LSM paper
//! ("Time Series Representation for Visualization in Apache IoTDB",
//! SIGMOD 2024) assumes from Apache IoTDB: a read-only, chunked,
//! encoded file format for a single time series, plus the append-only
//! *mods* (modification/delete) side file.
//!
//! The design mirrors the aspects of IoTDB's TsFile that matter to the
//! paper's cost model:
//!
//! * **Chunks** are immutable segments of one series, each carrying its
//!   own precomputed [`statistics::ChunkStatistics`] (first / last /
//!   bottom / top point and count). Reading the statistics is cheap;
//!   reading the data requires real file I/O *and* real decode CPU.
//! * **Encodings**: each page picks its columns' forms from its own data
//!   and by exact size, never by a setting: timestamps as a constant
//!   delta (no bytes) or bit-packed deltas with outliers listed apart
//!   ([`encoding::packed`], IoTDB's TS_2DIFF layout), which jittered
//!   timestamps take; values as scaled, bit-packed integers
//!   ([`encoding::decimal`], ALP) when they have few decimals, as packed
//!   deltas of their order-preserving keys, which full-precision walks
//!   take, or as no bytes where the statistics imply them. Decoding cost is what
//!   makes "merge free" worthwhile, exactly as in the paper (§2.3: "not
//!   only for the heavy cost of I/O but also for the decompression of
//!   data").
//! * **Mods file** ([`mods`]): append-only delete records, each with a
//!   global version number, applied lazily at read time (the paper's
//!   `D^κ`).
//!
//! The format is self-describing and checksummed; see the `format` module for the
//! byte-level layout.
//!
//! ## Quick example
//!
//! ```
//! use tsfile::{TsFileWriter, TsFileReader, types::Point};
//!
//! # fn main() -> tsfile::Result<()> {
//! let dir = std::env::temp_dir().join("tsfile-doc-example");
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("doc.tsfile");
//!
//! let mut w = TsFileWriter::create(&path)?;
//! w.begin_series(0, 0)?;
//! let points: Vec<Point> = (0..100).map(|i| Point::new(i * 1000, i as f64)).collect();
//! w.write_chunk(&points, 1)?;
//! w.finish()?;
//!
//! let r = TsFileReader::open(&path)?;
//! assert_eq!(r.chunk_metas().len(), 1);
//! let back = r.read_chunk(&r.chunk_metas()[0])?;
//! assert_eq!(back, points);
//! # std::fs::remove_file(&path).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod bufpool;
pub mod cast;
pub mod checksum;
pub mod encoding;
pub mod error;
pub mod format;
pub mod index;
pub mod lockcheck;
pub mod mods;
pub mod page;
pub mod pread;
pub mod reader;
pub mod statistics;
pub mod types;
pub mod varint;
pub mod writer;

pub use error::TsFileError;
pub use format::{ChunkMeta, FileFooter, FooterCensus, SeriesRun};
pub use index::StepIndex;
pub use mods::{ModEntry, ModsFile};
pub use page::{PageMeta, PageStatistics};
pub use reader::TsFileReader;
pub use statistics::ChunkStatistics;
pub use types::{Point, Timestamp, Value, Version};
pub use writer::TsFileWriter;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TsFileError>;
