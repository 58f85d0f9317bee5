//! # tskv — an LSM-based time series storage engine
//!
//! The storage substrate assumed by the M4-LSM paper ("Time Series
//! Representation for Visualization in Apache IoTDB", SIGMOD 2024),
//! modeled on Apache IoTDB's write path at the granularity the paper's
//! operators interact with:
//!
//! * **Write path**: inserts land in a per-series in-memory
//!   [`memtable::MemTable`]; when it reaches the configured point
//!   threshold it is flushed — sorted, split into chunks of
//!   `points_per_chunk` points (IoTDB's
//!   `avg_series_point_number_threshold`, 1000 in the paper's Table 4),
//!   and sealed into a TsFile: one per shard per flush, holding
//!   a run of chunks for every series flushed together (as an IoTDB
//!   memtable of many series becomes one TsFile). Every chunk gets a
//!   fresh global [`tsfile::Version`] `κ`.
//! * **Deletes** (`D^κ`) are append-only range tombstones written once,
//!   with their own version, to the series' mods log; they are never
//!   eagerly applied to sealed files — only [`compaction`] folds them in, and
//!   it is opt-in (off by default, as in the paper's experimental
//!   setup).
//! * **Read path**: [`readers::MetadataReader`] serves chunk metadata
//!   (statistics + version) without touching chunk bodies;
//!   [`readers::DataReader`] loads and decodes chunk bodies (the
//!   snapshot's loaders beneath it also do the paper's "partial
//!   scan", an early-terminating timestamp decode);
//!   [`readers::MergeReader`] assembles the merged,
//!   latest-points-only series `M(ℂ, 𝔻)` of Definition 2.7 — this is
//!   what the M4-UDF baseline consumes and what M4-LSM avoids.
//!
//! Out-of-order arrivals produce time-overlapping chunks whenever write
//! batches straddle flushes, which is exactly the overlap structure the
//! paper's §4.3 experiment varies. There is no seq/unseq file split,
//! and compaction is off by default: the paper disables it (Table 4:
//! `compaction_strategy = NO_COMPACTION`), so the default on-disk state
//! is the raw append history — the hardest case for a merge-based
//! reader and the case M4-LSM is designed for. Beyond the paper, the
//! [`compaction`] module provides chunk-aware compaction (a series'
//! sealed runs merged into one file, clean chunks copied byte-for-byte
//! without decode), run manually via `compact` or by the background
//! [`scheduler`] when `compaction_auto` is set.
//!
//! ## Quick example
//!
//! ```
//! use tskv::{TsKv, config::EngineConfig};
//! use tsfile::types::Point;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("tskv-doc-{}", std::process::id()));
//! let kv = TsKv::open(&dir, EngineConfig::default())?;
//! for i in 0..5000i64 {
//!     kv.insert("sensor.speed", Point::new(i * 1000, i as f64))?;
//! }
//! kv.delete("sensor.speed", 1_000_000, 2_000_000)?;
//! let snap = kv.snapshot("sensor.speed")?;
//! let merged = tskv::readers::MergeReader::new(&snap).collect_merged()?;
//! assert!(merged.iter().all(|p| p.t < 1_000_000 || p.t > 2_000_000));
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
// Test fixtures make, corrupt and remove their own files.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod batch;
pub mod cache;
pub mod catalog;
pub mod chunk;
pub mod compaction;
pub mod config;
pub mod delete;
pub mod engine;
pub mod error;
pub mod memtable;
pub mod notify;
pub(crate) mod pool;
pub mod readers;
pub mod registry;
pub mod scheduler;
pub(crate) mod shard_wal;
pub mod snapshot;
pub mod stats;
pub mod version;

pub use batch::WriteBatch;
pub use cache::{CacheKey, DecodedChunkCache};
pub use catalog::SeriesId;
pub use chunk::ChunkHandle;
pub use compaction::CompactionReport;
pub use config::FsyncPolicy;
pub use engine::TsKv;
pub use error::TsKvError;
pub use notify::{ChangeEvent, ChangeObserver, ChangeRx};
pub use snapshot::SeriesSnapshot;
pub use stats::IoStats;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TsKvError>;
