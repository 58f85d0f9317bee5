//! The storage engine: series management, write path, flush, delete,
//! snapshot, and recovery from disk.
//!
//! ## Identity and layout
//!
//! Every series is interned once into a dense [`SeriesId`] by the
//! persistent [`SeriesCatalog`] at the store root; all internal state
//! — shard maps, flush bookkeeping, compaction candidate lists,
//! change events — is keyed on that id, so the steady-state ingest and
//! query paths never hash or clone a series *name*. Names survive only
//! at the [`TsKv`] facade, where each request resolves its name to an
//! id exactly once.
//!
//! The store is hash-sharded, not one-directory-per-series: series `id`
//! lives in shard `id % write_shards`, and a shard is one lock, one log
//! and one directory — the `RwLock` over its series map, one shared,
//! per-record-tagged [`ShardWal`], and `shard-NNNN/` (the count is
//! pinned by the `SHARDS` meta file at first open, so a later config
//! change cannot orphan data). The unit on disk is the shard, not the
//! series: data files `<fileno>.tsfile` each hold a run of chunks for
//! **every** series flushed together (the footer's series-run directory
//! says whose is whose; the file name carries a per-shard creation
//! number and nothing else). A flush of many series therefore costs one
//! file per shard, not one per series, and a registered-but-cold series
//! costs two map entries and zero files or directories — a million
//! registered series open in catalog-replay time, and in-memory
//! [`SeriesStore`] state is instantiated lazily on first touch.
//!
//! Each series reads a shared file through its own [`SeriesView`]: the
//! shared reader and its run. A file belongs to its views together: a
//! compaction *retires* its members' views of the inputs, and the
//! retirement that leaves a file with no live run unlinks it. A sweep
//! of a whole shard takes every member with sealed runs, so each input
//! file goes; a one-series compaction, or a sweep that had to leave a
//! flushing member out, leaves retired runs as dead bytes in a file
//! other series still read. The compaction output that replaced such a
//! run says so durably ([`tsfile::SeriesRun::supersedes`]), which is
//! how a reopen knows not to read it again.
//!
//! A delete applies to a chunk by version alone (PAPER §2), so it has
//! one home whatever it overlaps: the series' delete log `s<id>.mods`
//! ([`SeriesStore::log`]), created by the first delete logged and
//! trimmed by each compaction of what its merge applied.
//!
//! ## Modules
//!
//! This module holds the state every phase shares ([`EngineInner`],
//! [`Shard`], [`SeriesStore`]), and each phase is a module over it:
//! `open` recovers a store; `write` holds the write path, deletes and
//! snapshots; `flush` the flush group; `compact` the shard sweep
//! (a series' compaction is its one-member case) and the scheduler's
//! candidates; `files` file ownership
//! ([`SealedFile`], [`SeriesView`], `seal_file`); `facade` the public
//! [`TsKv`]. `disk` is the only one that names a path or calls
//! `std::fs`.
//!
//! ## Lock discipline
//!
//! Each shard's series map sits behind its own `RwLock`, so writers to
//! series in different shards never contend. No shard guard may be held
//! across data-file I/O or page decode — the lock is a
//! [`tsfile::lockcheck::RwLock`], and in a debug build every such entry
//! point panics under one of its guards — so a flush and a compaction
//! are each short locked phases around an unlocked I/O phase (their
//! modules say what each phase does), and the background scheduler
//! ([`crate::scheduler`]) finds its candidates under short read guards.
//!
//! Shard-WAL appends of writes and deletes, the group-commit drain, and
//! the delete log's append and trim stay under the shard lock on
//! purpose: serializing durability writes against the state they
//! describe is what the lock is *for* (see DESIGN.md): these writers do
//! not check for a live guard. A flush writes nothing to the WAL; its
//! reclamation and fsync run with no shard lock held. The WAL's own
//! short mutex nests strictly inside the shard lock and shard locks are
//! never nested with each other (a checked lock is never taken under
//! another checked guard), so the order is acyclic.

mod compact;
mod disk;
mod facade;
mod files;
mod flush;
mod open;
mod write;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use tsfile::lockcheck::RwLock;
use tsfile::types::{Point, TimeRange, Timestamp, Version};
use tsfile::{ChunkMeta, ModEntry, ModsFile, SeriesRun, TsFileError, TsFileReader, TsFileWriter};

use crate::batch::WriteBatch;
use crate::cache::DecodedChunkCache;
use crate::catalog::{SeriesCatalog, SeriesId};
use crate::chunk::ChunkHandle;
use crate::compaction::{execute, CompactionReport};
use crate::config::{
    EngineConfig, FsyncPolicy, CATALOG_MAX_SERIES, MAX_WRITE_SHARDS, WAL_BATCH_BYTES,
    WAL_SEGMENT_BYTES,
};
use crate::memtable::MemTable;
use crate::notify::{ChangeEvent, ChangeRx, ChangeSink};
use crate::pool;
use crate::scheduler::CompactionScheduler;
use crate::shard_wal::{ShardWal, WalRecord};
use crate::snapshot::SeriesSnapshot;
use crate::stats::IoStats;
use crate::version::VersionAllocator;
use crate::{Result, TsKvError};

pub use facade::TsKv;
use files::{seal_file, SealedFile, SeriesView};
use flush::{FlushInFlight, FlushMember, FLUSH_GROUP_MAX_POINTS};

/// Per-series in-memory state: the memtable, the sealed-file list and
/// the delete log. Directories and WAL handles live at the shard
/// level, so a cold series is exactly this struct's
/// footprint — and not even that until the series is first touched.
#[derive(Debug)]
struct SeriesStore {
    memtable: MemTable,
    files: Vec<SeriesView>,
    /// The deletes that may still hide a sealed point, in version
    /// order: appended under the lock their version was taken under.
    log: ModsFile,
    /// Set while a flush's unlocked sealing phase runs.
    flushing: Option<FlushInFlight>,
    /// Set while a compaction's unlocked merge phase runs.
    compacting: bool,
}

impl SeriesStore {
    fn new(log: ModsFile) -> Self {
        SeriesStore {
            memtable: MemTable::new(),
            files: Vec::new(),
            log,
            flushing: None,
            compacting: false,
        }
    }

    /// Whether a delete over `range` may meet something sealed or
    /// being sealed, and so goes to the log. Whatever else it hides is
    /// in the memtable and is removed there, now and at every replay.
    fn sealed_overlaps(&self, range: &TimeRange) -> bool {
        let mut sealed = self.files.iter().filter_map(SeriesView::time_range);
        self.flushing.is_some() || sealed.any(|r| r.overlaps(range))
    }
}

/// One shard of the store: the series with `id % write_shards ==
/// index`. One lock, one log, one directory — the `RwLock` over the
/// series map serializes every write, delete, flush claim and install
/// of those series against the shard's WAL, and `dir` holds their
/// sealed files, delete logs and WAL segments.
#[derive(Debug)]
struct Shard {
    dir: PathBuf,
    wal: ShardWal,
    /// Number of the next data file of this shard. Numbers only record
    /// creation order; they are never reused, not even a quarantined
    /// file's.
    next_fileno: AtomicU64,
    series: RwLock<SeriesMap>,
}

/// A shard's instantiated series.
type SeriesMap = HashMap<SeriesId, SeriesStore>;

/// Shared engine state. [`TsKv`] and the background compaction
/// scheduler both hold this behind an `Arc`, so the scheduler thread
/// can run phased compactions without borrowing the facade.
#[derive(Debug)]
pub(crate) struct EngineInner {
    dir: PathBuf,
    pub(crate) config: EngineConfig,
    alloc: VersionAllocator,
    /// Persistent name↔id interning table (see [`crate::catalog`]).
    pub(crate) catalog: SeriesCatalog,
    shards: Vec<Shard>,
    /// Engine-wide I/O counters (shared by all snapshots).
    pub(crate) io: Arc<IoStats>,
    /// Cross-query decoded-chunk LRU; `None` when disabled by config.
    cache: Option<Arc<DecodedChunkCache>>,
    /// Change-notification fan-out (see [`crate::notify`]). Publishes
    /// happen after the owning shard lock is released, so a slow
    /// listener can never extend lock hold times; cross-thread event
    /// order is therefore best-effort, and consumers reconcile via
    /// their dirty-span repair path.
    changes: ChangeSink,
}

fn validate_series_name(name: &str) -> Result<()> {
    let allowed = |c: char| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-');
    if name.is_empty() || name.len() > 200 || !name.chars().all(allowed) {
        return Err(TsKvError::InvalidSeriesName(name.to_string()));
    }
    Ok(())
}

impl EngineInner {
    /// The shard owning `id`: its lock, log and directory. The pinned
    /// count is at least 1 and the index is modulo it, so it is always
    /// in bounds.
    fn shard(&self, id: SeriesId) -> &Shard {
        &self.shards[id.index() % self.shards.len()]
    }

    /// Error if `id` was never registered. Ids are dense, so the check
    /// is one bound comparison — no map probe.
    fn known(&self, id: SeriesId) -> Result<()> {
        if id.index() < self.catalog.len() {
            Ok(())
        } else {
            Err(TsKvError::SeriesNotFound(id.to_string()))
        }
    }

    /// A `SeriesNotFound` for `id`, named when the catalog knows it.
    fn not_found(&self, id: SeriesId) -> TsKvError {
        let name = self.catalog.name_of(id);
        TsKvError::SeriesNotFound(name.map_or_else(|| id.to_string(), |n| n.to_string()))
    }

    /// Resolve a name to its interned id (boundary use only: one hash
    /// per external request, never per internal operation).
    fn resolve(&self, name: &str) -> Result<SeriesId> {
        self.catalog
            .resolve(name)
            .ok_or_else(|| TsKvError::SeriesNotFound(name.to_string()))
    }

    /// Register `name` (idempotent), returning its id. No directories
    /// or files are created beyond the catalog-log append — a
    /// registered-but-unwritten series costs nothing on disk.
    fn create_series(&self, name: &str) -> Result<SeriesId> {
        validate_series_name(name)?;
        self.catalog.intern(name)
    }
}

// The engine's tests, all under `tests/`, keep their module paths
// (`engine::crash_tests` is CI's crash-property filter).
#[path = "tests/crash_tests.rs"]
#[cfg(test)]
mod crash_tests;

#[path = "tests/group_tests.rs"]
#[cfg(test)]
mod group_tests;

#[cfg(test)]
mod tests;
