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
//! series' compaction *retires* its views of the inputs, and the
//! retirement that leaves a file with no live run unlinks it. Until
//! then a retired run is dead bytes in a file other series still read;
//! the compaction output that replaced it says so durably
//! ([`tsfile::SeriesRun::supersedes`]), which is how a reopen knows not
//! to read it again.
//!
//! A delete applies to a chunk by version alone (PAPER §2), so it has
//! one home whatever it overlaps: the series' delete log `s<id>.mods`
//! ([`SeriesStore::log`]), created by the first delete logged and
//! trimmed by each compaction of what its merge applied.
//!
//! A data file is written under `<fileno>.tsfile.tmp` and renamed after
//! its `sync_all`, so a `*.tsfile` is complete by construction however
//! many flushes and compactions of one shard were in flight at a crash.
//! A directory laid out the retired ways — one directory per series
//! with no `SHARDS` file, `s<id>-<fileno>.tsfile` files, or per-run
//! delete logs `<fileno>.s<id>.mods` — is refused at open, untouched.
//!
//! ## Lock discipline
//!
//! Each shard's series map sits behind its own `RwLock`, so writers to
//! series in different shards never contend. No shard guard may be held
//! across data-file I/O or page decode — the lock is a
//! [`tsfile::lockcheck::RwLock`], and in a debug build every such entry
//! point panics under one of its guards — so every heavy operation is
//! split into short locked phases around an unlocked I/O phase:
//!
//! * **Flush** — the members of one flush that share a shard form a
//!   group (a lone series is a group of one). Phase A (under one shard
//!   lock): mark each member's drain point in the shard WAL, drain its
//!   memtable, reserve chunk versions, and park the drained points in
//!   [`SeriesStore::flushing`] so concurrent snapshots still see them.
//!   Phase B (unlocked): sync the catalog, then encode and seal the
//!   group's one TsFile. Phase C: append every member's end marker in
//!   one write, sync the shard WAL if a replay still needs it, then
//!   (under one shard lock) install each member's view of the file — or,
//!   on failure, return every member's points to its memtable (anything
//!   newer that landed meanwhile wins). A delete mid-flush is a log
//!   entry above the reserved versions.
//! * **Compaction** — same shape, per series; the input (every sealed
//!   run the series has when the lock is taken) is captured as
//!   metadata, merged and written off-lock as a one-run file (clean
//!   pages copied raw, dirty pages re-encoded — see
//!   [`crate::compaction`]), and swapped in under the lock again.
//!   Output chunks carry the maximum input chunk version; deletes
//!   issued during the merge have versions above the capture ceiling,
//!   which is where the delete log is trimmed once the inputs are gone.
//! * Shard-WAL appends of writes, deletes and begin markers, the
//!   group-commit drain, and the delete log's append and trim stay
//!   under the shard lock on purpose: serializing durability writes
//!   against the state they describe is what the lock is *for* (see
//!   DESIGN.md): these writers do not check for a live guard. A flush's
//!   WAL fsync and end markers run with no shard lock held. The WAL's
//!   own short mutex nests strictly inside the shard lock and shard
//!   locks are never nested with each other (a checked lock is never
//!   taken under another checked guard), so the order is acyclic.
//! * **Background compaction** — when `compaction_auto` is on, a
//!   scheduler thread ([`crate::scheduler`]) scans the shards with
//!   short read guards for series whose sealed-file count crossed
//!   `compaction_threshold`, then runs the same phased [`compact`]
//!   entirely off-lock.
//!
//! [`compact`]: TsKv::compact

use std::collections::HashMap;
use std::ops::Range;
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
use crate::compaction::plan::{self, ChunkView};
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

/// Meta file at the store root pinning the shard count.
const SHARDS_META: &str = "SHARDS";

/// Points a flush group may park in `flushing` slots before it is
/// sealed and the next group of the same shard begins: what bounds how
/// much a `flush_all` over many full memtables holds outside them —
/// readable, not yet sealed, while new writes refill the memtables — at
/// once (16 MiB of points). A fixed property of the engine, not a knob.
const FLUSH_GROUP_MAX_POINTS: usize = 1 << 20;

/// One sealed TsFile on disk. Every series with a run in it holds a
/// [`SeriesView`] of it; the file belongs to those views together and
/// is unlinked by whichever retirement takes `live_runs` to zero.
#[derive(Debug)]
struct SealedFile {
    reader: Arc<TsFileReader>,
    /// Runs of the file's directory that some series still reads.
    live_runs: AtomicUsize,
}

impl SealedFile {
    /// Open the sealed file at `path`; every run of its directory
    /// starts out live.
    fn open(path: &Path) -> Result<Arc<SealedFile>> {
        let reader = Arc::new(TsFileReader::open(path)?);
        let live_runs = AtomicUsize::new(reader.series_runs().len());
        Ok(Arc::new(SealedFile { reader, live_runs }))
    }

    /// A view of each run of the file's directory, in its order.
    fn views(self: &Arc<Self>) -> impl Iterator<Item = SeriesView> + '_ {
        let runs = self.reader.series_runs().iter().cloned();
        runs.map(|run| SeriesView {
            file: Arc::clone(self),
            run,
        })
    }
}

/// Path of series `id`'s delete log in its shard directory `sdir`. It
/// exists only once a delete has been logged.
fn delete_log_path(sdir: &Path, id: SeriesId) -> PathBuf {
    sdir.join(format!("s{}.mods", id.0))
}

/// One series' view of a sealed file: the file (shared with the other
/// series flushed into it) and this series' run of its chunks.
#[derive(Debug, Clone)]
struct SeriesView {
    file: Arc<SealedFile>,
    run: SeriesRun,
}

impl SeriesView {
    /// Metadata of the run's chunks.
    fn metas(&self) -> &[Arc<ChunkMeta>] {
        self.file.reader.run_chunks(&self.run)
    }

    /// Time interval spanned by the run's chunks, if any.
    fn time_range(&self) -> Option<TimeRange> {
        let metas = self.metas();
        let start = metas.iter().map(|m| m.stats.first.t).min()?;
        let end = metas.iter().map(|m| m.stats.last.t).max()?;
        Some(TimeRange::new(start, end))
    }

    /// The highest version the run speaks for: of its chunks, or of the
    /// chunks it replaced. A run in a later file whose `supersedes`
    /// reaches this has replaced the run.
    fn rank(&self) -> u64 {
        let newest = self.metas().iter().map(|m| m.version.0).max();
        newest.unwrap_or(0).max(self.run.supersedes.0)
    }

    /// Byte range of the file the run's chunk bodies occupy.
    fn byte_range(&self) -> Range<u64> {
        let metas = self.metas();
        match (metas.first(), metas.last()) {
            (Some(first), Some(last)) => first.offset..last.offset + last.byte_len,
            _ => 0..0,
        }
    }

    /// Whether the file holds runs of other series too.
    fn shares_file(&self) -> bool {
        self.file.reader.series_runs().len() > 1
    }

    /// Retire the view: its series no longer reads the run, because the
    /// compaction that merged it is done. Drops the run's decoded-chunk
    /// cache entries (the file's other runs keep theirs) and unlinks
    /// the file if this was its last live run (the only error). A run
    /// that stays on disk as dead bytes (other series still read the
    /// file) always has an output in place, whose `supersedes` keeps a
    /// reopen from reading it again.
    // Its one raw call, the unlink, follows the check.
    #[allow(clippy::disallowed_methods)]
    fn retire(self, cache: Option<&DecodedChunkCache>) -> std::io::Result<()> {
        tsfile::lockcheck::check_io();
        if let Some(cache) = cache {
            cache.invalidate_run(self.file.reader.handle_id(), self.byte_range());
        }
        // AcqRel: whoever takes the count to zero does so after every
        // other view's cache cleanup is done.
        if self.file.live_runs.fetch_sub(1, Ordering::AcqRel) == 1 {
            std::fs::remove_file(self.file.reader.path())?;
        }
        Ok(())
    }
}

/// Points drained from the memtable by a flush that is still in its
/// unlocked sealing phase. Kept visible to snapshots (as a mem chunk
/// carrying the last reserved version) until the sealed file replaces
/// it.
#[derive(Debug)]
struct FlushInFlight {
    points: Arc<Vec<Point>>,
    last_version: Version,
}

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

/// One series' share of a flush group: the points drained from its
/// memtable (parked in its `flushing` slot meanwhile) and the chunk
/// versions reserved for them.
#[derive(Debug)]
struct FlushMember {
    id: SeriesId,
    points: Arc<Vec<Point>>,
    versions: Vec<Version>,
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
    series: RwLock<HashMap<SeriesId, SeriesStore>>,
}

impl Shard {
    /// Path of a data file of this shard that no file has had yet.
    fn next_data_path(&self) -> PathBuf {
        let no = self.next_fileno.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!("{no:08}.tsfile"))
    }
}

/// `path` with `suffix` appended to its file name.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

/// Where a data file is written before it is complete. A `*.tsfile` in
/// a shard directory is therefore always a finished, synced file: the
/// name appears by rename, after `sync_all`.
fn in_flight_path(path: &Path) -> PathBuf {
    with_suffix(path, ".tmp")
}

/// Seal one data file at `path`: `fill` writes its series runs through
/// a writer on the in-flight name, which is then finished (`sync_all`),
/// renamed into place and reopened for reading. On an error nothing is
/// left at either name.
fn seal_file(
    config: &EngineConfig,
    path: &Path,
    fill: impl FnOnce(&mut TsFileWriter) -> Result<()>,
) -> Result<Arc<SealedFile>> {
    let tmp = in_flight_path(path);
    let sealed = config
        .tsfile_writer(&tmp)
        .and_then(|mut w| {
            fill(&mut w)?;
            Ok(w.finish()?)
        })
        .and_then(|()| publish_file(&tmp, path));
    if sealed.is_err() {
        discard(&tmp, path);
    }
    sealed
}

/// Remove whatever a failed seal left at the in-flight name `tmp` or the
/// data-file name `path`.
// Its raw calls follow the check.
#[allow(clippy::disallowed_methods)]
fn discard(tmp: &Path, path: &Path) {
    tsfile::lockcheck::check_io();
    std::fs::remove_file(tmp).ok();
    std::fs::remove_file(path).ok();
}

/// Give the finished in-flight file `tmp` its data-file name and open
/// it. No directory sync follows the rename: a crash that loses it
/// leaves the complete file under its in-flight name, and the next open
/// adopts it ([`settle_in_flight`]).
// Its one raw call, the rename, follows the check.
#[allow(clippy::disallowed_methods)]
fn publish_file(tmp: &Path, path: &Path) -> Result<Arc<SealedFile>> {
    tsfile::lockcheck::check_io();
    std::fs::rename(tmp, path)?;
    SealedFile::open(path)
}

/// Shared engine state. [`TsKv`] and the background compaction
/// scheduler both hold this behind an `Arc`, so the scheduler thread
/// can run phased compactions without borrowing the facade.
#[derive(Debug)]
pub(crate) struct EngineInner {
    dir: PathBuf,
    config: EngineConfig,
    alloc: VersionAllocator,
    /// Persistent name↔id interning table (see [`crate::catalog`]).
    catalog: SeriesCatalog,
    shards: Vec<Shard>,
    io: Arc<IoStats>,
    /// Cross-query decoded-chunk LRU; `None` when disabled by config.
    cache: Option<Arc<DecodedChunkCache>>,
    /// Change-notification fan-out (see [`crate::notify`]). Publishes
    /// happen after the owning shard lock is released, so a slow
    /// listener can never extend lock hold times; cross-thread event
    /// order is therefore best-effort, and consumers reconcile via
    /// their dirty-span repair path.
    changes: ChangeSink,
}

/// The LSM time series store.
///
/// See the crate docs for the data model. All methods are `&self`;
/// internal state is sharded behind per-shard
/// [`tsfile::lockcheck::RwLock`]s.
#[derive(Debug)]
pub struct TsKv {
    /// Declared before `inner` so drop order joins the scheduler
    /// thread while the engine state it references is still alive.
    scheduler: Option<CompactionScheduler>,
    inner: Arc<EngineInner>,
}

fn validate_series_name(name: &str) -> Result<()> {
    let ok = !name.is_empty()
        && name.len() <= 200
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(())
    } else {
        Err(TsKvError::InvalidSeriesName(name.to_string()))
    }
}

/// Directory name of shard `i`. Four digits cover [`MAX_WRITE_SHARDS`]
/// and keep lexicographic order equal to numeric order.
fn shard_dir_name(i: usize) -> String {
    format!("shard-{i:04}")
}

/// What a shard directory holds besides WAL segments: the finished
/// data files (in ascending number once [`settle_in_flight`] has run),
/// files still under their in-flight name, the first number no file
/// has had, and the series with a delete log.
#[derive(Debug, Default)]
struct ShardListing {
    data: Vec<(u64, PathBuf)>,
    in_flight: Vec<(u64, PathBuf)>,
    next_fileno: u64,
    logged: Vec<SeriesId>,
}

/// List shard directory `sdir` without touching it. The retired shapes
/// — `s<id>-<fileno>.tsfile`, one file per series, whose footer has no
/// series-run directory, and `<fileno>.s<id>.mods`, one delete log per
/// run — are refused here, before anything in the store is written:
/// this build reads one shape of each.
// The open path: no engine, and so no shard lock, exists yet.
#[allow(clippy::disallowed_methods)]
fn list_shard(sdir: &Path) -> Result<ShardListing> {
    let number = |stem: &str| -> Option<u64> {
        stem.bytes()
            .all(|b| b.is_ascii_digit())
            .then(|| stem.parse().ok())
            .flatten()
    };
    let series =
        |s: &str| -> Option<u32> { u32::try_from(s.strip_prefix('s').and_then(number)?).ok() };
    let mut listing = ShardListing::default();
    for entry in std::fs::read_dir(sdir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let no = if let Some(stem) = name.strip_suffix(".mods") {
            let per_run = |(no, id)| number(no).is_some() && series(id).is_some();
            if stem.split_once('.').is_some_and(per_run) {
                return Err(TsKvError::Corrupt(format!(
                    "{} is a per-run delete log of the retired `<fileno>.s<id>.mods` shape; \
                     this build reads one log per series, `s<id>.mods`",
                    path.display()
                )));
            }
            listing.logged.extend(series(stem).map(SeriesId));
            continue; // a log's name carries no file number
        } else if let Some(stem) = name.strip_suffix(".tsfile") {
            let per_series = |(id, no)| series(id).is_some() && number(no).is_some();
            if stem.split_once('-').is_some_and(per_series) {
                return Err(TsKvError::Corrupt(format!(
                    "{} is a per-series data file of the retired `s<id>-<fileno>` shape; \
                     this build reads shard files `<fileno>.tsfile` only",
                    path.display()
                )));
            }
            let Some(no) = number(stem) else {
                continue; // foreign file; ignore
            };
            listing.data.push((no, path));
            no
        } else if let Some(no) = name.strip_suffix(".tsfile.tmp").and_then(number) {
            listing.in_flight.push((no, path));
            no
        } else if let Some(no) = name.strip_suffix(".tsfile.corrupt").and_then(number) {
            no // quarantined by an earlier open: only its number matters
        } else {
            continue;
        };
        listing.next_fileno = listing.next_fileno.max(no + 1);
    }
    Ok(listing)
}

/// Settle what a crash left under in-flight names. A file cut short
/// never had an end marker or an unlinked input depend on it — those
/// follow the rename — so it is quarantined (`<fileno>.tsfile.corrupt`)
/// and its points come back from the shard WAL (flush) or are still in
/// the older generation (compaction). A complete one only lost its
/// rename and takes its place among the data files.
// The open path: no engine, and so no shard lock, exists yet.
#[allow(clippy::disallowed_methods)]
fn settle_in_flight(listing: &mut ShardListing) -> Result<()> {
    for (no, tmp) in std::mem::take(&mut listing.in_flight) {
        let path = tmp.with_extension("");
        match TsFileReader::open(&tmp) {
            Ok(_) => {
                std::fs::rename(&tmp, &path)?;
                listing.data.push((no, path));
            }
            Err(e) if is_torn_write(&e) => {
                std::fs::rename(&tmp, with_suffix(&path, ".corrupt"))?;
            }
            Err(e) => return Err(e.into()),
        }
    }
    listing.data.sort();
    Ok(())
}

/// Write the `SHARDS` meta file pinning the shard count the way data
/// files are written: under an in-flight name, synced, then renamed, so
/// a crash leaves either no pin or a whole one.
// The open path: no engine, and so no shard lock, exists yet.
#[allow(clippy::disallowed_methods)]
fn write_shards_meta(dir: &Path, n: usize) -> Result<()> {
    use std::io::Write as _;
    let path = dir.join(SHARDS_META);
    let tmp = with_suffix(&path, ".tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(format!("{n}\n").as_bytes())?;
    f.sync_data()?;
    std::fs::rename(&tmp, &path)?;
    Ok(())
}

/// The shard count this store was created with. The first open pins the
/// configured value into the `SHARDS` meta file; every later open uses
/// the pinned value (the configured one only seeds new stores — data
/// placement must never move under a config edit). An empty `SHARDS` —
/// what a crash mid-write left before the pin was written atomically —
/// pins nothing, like a missing one.
// The open path: no engine, and so no shard lock, exists yet.
#[allow(clippy::disallowed_methods)]
fn pinned_shards(dir: &Path, configured: usize) -> Result<usize> {
    let pinned = match std::fs::read_to_string(dir.join(SHARDS_META)) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e.into()),
    };
    if pinned.is_empty() {
        reject_unpinned_data(dir)?;
        write_shards_meta(dir, configured)?;
        return Ok(configured);
    }
    let n: usize = pinned.trim().parse().map_err(|_| {
        TsKvError::Corrupt(format!("SHARDS meta: unparseable shard count {pinned:?}"))
    })?;
    if n == 0 || n > MAX_WRITE_SHARDS {
        return Err(TsKvError::Corrupt(format!(
            "SHARDS meta: shard count {n} out of range (1..={MAX_WRITE_SHARDS})"
        )));
    }
    Ok(n)
}

/// Refuse a store root that holds data but no `SHARDS` pin: the
/// pre-sharding layout (`<series>/series.wal`, `<series>/NNNNNNNN.tsfile`),
/// which nothing reads any more, or a sharded store whose `SHARDS` file
/// was lost. Pinning a shard count over either would serve an empty
/// store beside the user's data. Only directories a store could have
/// created are looked into (series and shard names both pass
/// `validate_series_name`; a volume's `lost+found` does not). Runs
/// before the first byte is written, so a refused directory is left as
/// it was found.
// The open path: no engine, and so no shard lock, exists yet.
#[allow(clippy::disallowed_methods)]
fn reject_unpinned_data(dir: &Path) -> Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let ours = entry
            .file_name()
            .to_str()
            .is_some_and(|n| validate_series_name(n).is_ok());
        if !ours || !entry.file_type()?.is_dir() {
            continue;
        }
        for inner in std::fs::read_dir(entry.path())? {
            let path = inner?.path();
            let is_wal = path.file_name().is_some_and(|f| f == "series.wal");
            let is_data = path.extension().is_some_and(|e| e == "tsfile");
            if is_wal || is_data {
                return Err(TsKvError::Corrupt(format!(
                    "data present but no SHARDS meta file: {} exists (the pre-sharding \
                     one-directory-per-series layout is no longer readable)",
                    path.display()
                )));
            }
        }
    }
    Ok(())
}

/// Recovery input for one series: the path of its delete log, its runs
/// in the shard's sealed files (ascending file number) and the WAL
/// records a restart must re-apply.
type RecoveryWork = (SeriesId, PathBuf, Vec<SeriesView>, Vec<WalRecord>);

/// Whether `e` is what a crash mid-write leaves behind: a file cut short
/// (even before its head magic) or whose footer does not verify. A
/// foreign magic is not — the writer emits `TSF2` first, so such a file
/// was never ours to rename — and neither is a failing disk.
fn is_torn_write(e: &TsFileError) -> bool {
    match e {
        TsFileError::Io(io) => io.kind() == std::io::ErrorKind::UnexpectedEof,
        TsFileError::UnexpectedEof { .. }
        | TsFileError::ChecksumMismatch { .. }
        | TsFileError::Corrupt(_) => true,
        _ => false,
    }
}

/// Recover one series from its delete log, its runs in the shard's
/// files and its replayed WAL records. Runs with no engine lock held —
/// recovery parallelizes these calls across series.
fn recover_series(
    (_, log, runs, records): &RecoveryWork,
    alloc: &VersionAllocator,
) -> Result<SeriesStore> {
    let mut store = SeriesStore::new(ModsFile::open(log)?);
    for e in store.log.entries() {
        alloc.observe(e.version);
    }
    // Newest file first, so that each run meets the highest
    // `supersedes` of the files written after it. A run at or below
    // that was an input of a compaction whose output is on disk: its
    // series retired it (the file outlived that only for the other
    // series in it, or for a crash before the unlink), the deletes
    // that applied to it may be trimmed, and reading it again would
    // resurrect what they hid. It is retired again instead (if the
    // unlink fails, the output still stands between it and a reader).
    let mut superseded_to = 0u64;
    for view in runs.iter().rev().cloned() {
        for m in view.metas() {
            alloc.observe(m.version);
        }
        let supersedes = view.run.supersedes.0;
        alloc.observe(view.run.supersedes);
        if view.rank() <= superseded_to {
            view.retire(None).ok();
        } else {
            store.files.push(view);
        }
        superseded_to = superseded_to.max(supersedes);
    }
    // Back to file order, which is version order — the engine's
    // invariant for `files`: a compaction takes its number when it
    // captures its inputs, before any flush that outranks it takes one.
    store.files.reverse();
    // Replay the WAL records into the fresh memtable, restoring
    // unflushed state in operation order. A delete newer than the whole
    // log missed it (crash between the WAL append and the log append).
    for record in records {
        match record {
            WalRecord::Insert { after, points } => {
                // The next flush must take its versions above the
                // record's, or the sealed run could not vouch for it.
                alloc.observe(*after);
                store.memtable.extend(points);
            }
            WalRecord::Delete { version, range } => {
                store.memtable.delete_range(*range);
                alloc.observe(*version);
                let unlogged = store.log.entries().iter().all(|e| e.version < *version);
                if unlogged && store.sealed_overlaps(range) {
                    store
                        .log
                        .append(ModEntry::new(*version, range.start, range.end))?;
                }
            }
        }
    }
    Ok(store)
}

impl EngineInner {
    /// Open (or create) the shared engine state rooted at `dir`. See
    /// [`TsKv::open`] for recovery semantics.
    // The open path: no engine, and so no shard lock, exists yet.
    #[allow(clippy::disallowed_methods)]
    fn open(dir: PathBuf, config: EngineConfig) -> Result<Self> {
        let config = config.normalized();
        config.validate()?;
        std::fs::create_dir_all(&dir)?;
        let io = Arc::new(IoStats::default());

        // The store runs with its pinned count, and says so.
        let n_shards = pinned_shards(&dir, config.write_shards)?;
        let config = EngineConfig {
            write_shards: n_shards,
            ..config
        };
        let catalog = SeriesCatalog::open(&dir, CATALOG_MAX_SERIES, Arc::clone(&io))?;
        let alloc = VersionAllocator::default();

        // List every shard before anything in it is touched: a store
        // holding a data file this build does not read is refused as it
        // was found.
        let mut listings: Vec<(PathBuf, ShardListing)> = Vec::with_capacity(n_shards);
        for i in 0..n_shards {
            let sdir = dir.join(shard_dir_name(i));
            std::fs::create_dir_all(&sdir)?;
            let listing = list_shard(&sdir)?;
            listings.push((sdir, listing));
        }

        // Open each shard's sealed files and hand every series its runs
        // (the series id comes from the file's run directory), then
        // replay the shard's WAL. A series with only a delete log is
        // recovered for the log's versions. Cold series (registered,
        // nothing on disk) never appear here and cost nothing.
        let mut shards: Vec<Shard> = Vec::with_capacity(n_shards);
        let mut work: HashMap<SeriesId, (Vec<SeriesView>, Vec<WalRecord>)> = HashMap::new();
        for (sdir, mut listing) in listings {
            settle_in_flight(&mut listing)?;
            for (_, path) in &listing.data {
                for view in SealedFile::open(path)?.views() {
                    let runs = &mut work.entry(SeriesId(view.run.series)).or_default().0;
                    runs.push(view);
                }
            }
            // What the files hold the log need not replay: a record
            // older than a durable run of its series was drained into it.
            let sealed = |id: SeriesId| {
                let runs = work.get(&id).map_or(&[][..], |(runs, _)| runs);
                Version(runs.iter().map(SeriesView::rank).max().unwrap_or(0))
            };
            let (wal, records) = ShardWal::open(&sdir, WAL_BATCH_BYTES, WAL_SEGMENT_BYTES, sealed)?;
            for (id, recs) in records {
                work.entry(id).or_default().1.extend(recs);
            }
            for id in listing.logged {
                work.entry(id).or_default();
            }
            shards.push(Shard {
                dir: sdir,
                wal,
                next_fileno: AtomicU64::new(listing.next_fileno),
                series: RwLock::new(HashMap::new()),
            });
        }

        // Every id tagged on disk must be registered: an unknown id
        // means the catalog log was lost or truncated past data that
        // references it — refuse to guess which series owns what.
        let registered = catalog.len();
        if let Some(id) = work.keys().find(|id| id.index() >= registered) {
            return Err(TsKvError::Corrupt(format!(
                "data tagged with unregistered series id {id} (catalog has {registered})"
            )));
        }

        // Recover the series one job each, across up to one worker per
        // shard; the first error in id order wins, as it would in a
        // sequential recovery.
        let mut work: Vec<RecoveryWork> = work
            .into_iter()
            .map(|(id, (runs, recs))| {
                let sdir = dir.join(shard_dir_name(id.index() % n_shards));
                (id, delete_log_path(&sdir, id), runs, recs)
            })
            .collect();
        work.sort_by_key(|(id, ..)| *id);
        let recovered =
            pool::run_indexed(n_shards, work.len(), |i| recover_series(&work[i], &alloc))?;
        for ((id, ..), store) in work.iter().zip(recovered) {
            io.record_store_instantiated();
            if let Some(shard) = shards.get_mut(id.index() % n_shards) {
                shard.series.get_mut().insert(*id, store);
            }
        }

        let cache = if config.enable_read_cache {
            Some(Arc::new(DecodedChunkCache::new(
                config.cache_capacity_bytes,
                Arc::clone(&io),
            )))
        } else {
            None
        };
        Ok(EngineInner {
            dir,
            config,
            alloc,
            catalog,
            shards,
            io,
            cache,
            changes: ChangeSink::default(),
        })
    }

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
        let label = self
            .catalog
            .name_of(id)
            .map(|n| n.to_string())
            .unwrap_or_else(|| id.to_string());
        TsKvError::SeriesNotFound(label)
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

    /// The series' in-memory store, instantiated lazily on first
    /// touch. Requires the shard's write guard (passed as `map`).
    fn store_entry<'a>(
        &self,
        map: &'a mut HashMap<SeriesId, SeriesStore>,
        id: SeriesId,
    ) -> &'a mut SeriesStore {
        map.entry(id).or_insert_with(|| {
            self.io.record_store_instantiated();
            // No log on disk: the open instantiates every series with one.
            SeriesStore::new(ModsFile::new(delete_log_path(&self.shard(id).dir, id)))
        })
    }

    /// Drain a shard WAL's group-commit buffer in one syscall,
    /// fsyncing when `sync` (or always under [`FsyncPolicy::Always`]).
    /// Called before the shard lock is released, so every
    /// acknowledged write is in the OS first.
    fn commit_wal_with(&self, shard: &Shard, sync: bool) -> Result<()> {
        let sync = sync || matches!(self.config.fsync_policy, FsyncPolicy::Always);
        if sync {
            // WAL records are id-tagged; the catalog record binding
            // the id must reach disk before (or with) any durable
            // record that uses it, or a power loss could leave a
            // replayable record whose id the catalog forgot — open
            // then refuses the store outright.
            self.catalog.sync_if_dirty()?;
        }
        let bytes = shard.wal.commit(sync)?;
        if bytes > 0 {
            self.io.record_wal_batch(bytes);
            if sync {
                self.io.record_wal_sync();
            }
        }
        Ok(())
    }

    /// The write path: apply `entries` — runs of points, any time
    /// order, later duplicates overwrite — and return the number of
    /// points written. Entries are grouped by shard, and each shard's
    /// write guard is taken once: every entry's WAL record and memtable
    /// insert, then one group commit of the shard's log (fsync per
    /// [`FsyncPolicy`]) before the guard drops. After every guard has
    /// dropped, listeners are notified and the memtables that crossed
    /// the flush threshold flush — as one group, so that those sharing
    /// a shard share a file. Empty runs are skipped.
    fn write(&self, entries: &[(SeriesId, &[Point])]) -> Result<usize> {
        let mut by_shard: Vec<Vec<(SeriesId, &[Point])>> = vec![Vec::new(); self.shards.len()];
        for &(id, points) in entries.iter().filter(|(_, p)| !p.is_empty()) {
            self.known(id)?;
            if let Some(group) = by_shard.get_mut(id.index() % self.shards.len()) {
                group.push((id, points));
            }
        }
        let mut total = 0usize;
        let mut need_flush: Vec<SeriesId> = Vec::new();
        for (shard, group) in self.shards.iter().zip(&by_shard) {
            if group.is_empty() {
                continue;
            }
            let mut map = shard.series.write();
            let applied = group.iter().try_for_each(|&(id, points)| {
                let store = self.store_entry(&mut map, id);
                // The record carries the highest version allocated so
                // far: the flush that drains these points claims the
                // series under this lock, so its versions are higher.
                shard.wal.append_inserts(id, self.alloc.current(), points)?;
                store.memtable.extend(points);
                self.io.record_points_written(points.len() as u64);
                total += points.len();
                if store.memtable.len() >= self.config.memtable_threshold
                    && store.flushing.is_none()
                {
                    need_flush.push(id);
                }
                Ok(())
            });
            // One commit, also when an entry failed: what did reach a
            // memtable is in the OS before the guard drops.
            let committed = self.commit_wal_with(shard, false);
            applied.and(committed)?;
        }
        if self.changes.active() {
            for &(id, points) in by_shard.iter().flatten() {
                self.changes.publish(&ChangeEvent::Write {
                    series: id,
                    points: Arc::new(points.to_vec()),
                });
            }
        }
        self.flush_group(&need_flush, false)?;
        Ok(total)
    }

    /// Flush every series with buffered points, as one group. The
    /// members come from the instantiated stores — a short read guard
    /// per shard — so a million registered-but-cold series cost
    /// nothing here. A series mid-flush is a member too: the group
    /// waits for that flush and seals whatever is buffered after it.
    fn flush_all(&self) -> Result<()> {
        let mut ids = Vec::new();
        for shard in &self.shards {
            let map = shard.series.read();
            ids.extend(
                map.iter()
                    .filter(|(_, store)| !store.memtable.is_empty() || store.flushing.is_some())
                    .map(|(id, _)| *id),
            );
        }
        self.flush_group(&ids, true)
    }

    /// The flush state machine. Its unit is the shard: the members of
    /// `ids` that share one are sealed into **one** file, a run of
    /// chunks per member, for one catalog sync, one create, one
    /// `sync_all`, one reopen and at most one WAL sync, however many.
    /// A single series is the one-member case of the same path.
    ///
    /// `wait` controls behavior when another flush holds a member's
    /// in-flight slot: explicit flushes wait and then flush whatever is
    /// buffered; the auto-flush on the insert path skips the member
    /// (the running flush is making room, and the next insert re-checks
    /// the threshold).
    ///
    /// Per group: phase A claims every member under one guard of the
    /// shard lock ([`claim_group`]); phase B writes the file with no
    /// lock held ([`write_group`]); phase C ([`finish_group`]) installs
    /// a view of it in every member under one guard — or, on failure,
    /// puts every member's points back ([`abort_group`]).
    ///
    /// [`claim_group`]: EngineInner::claim_group
    /// [`write_group`]: EngineInner::write_group
    /// [`finish_group`]: EngineInner::finish_group
    /// [`abort_group`]: EngineInner::abort_group
    fn flush_group(&self, ids: &[SeriesId], wait: bool) -> Result<()> {
        let mut by_shard: Vec<Vec<SeriesId>> = vec![Vec::new(); self.shards.len()];
        for &id in ids {
            self.known(id)?;
            if let Some(members) = by_shard.get_mut(id.index() % self.shards.len()) {
                members.push(id);
            }
        }
        for (shard, mut todo) in self.shards.iter().zip(by_shard) {
            // Ascending id: the order of the file's run directory.
            todo.sort_unstable();
            todo.dedup();
            while !todo.is_empty() {
                let (members, later) = self.claim_group(shard, &todo, wait)?;
                if members.is_empty() {
                    // Only members that another flush holds are left.
                    std::thread::yield_now();
                } else {
                    let sealed = self.write_group(shard, &members);
                    self.finish_group(shard, &members, sealed)?;
                }
                todo = later;
            }
        }
        Ok(())
    }

    /// Flush phase A for one group, under one write guard of `shard`:
    /// claim members of `ids` (ascending) until the group holds
    /// [`FLUSH_GROUP_MAX_POINTS`]. A claim takes the series' in-flight
    /// slot, marks the WAL drain point, drains the memtable and reserves
    /// chunk versions; the marker and the drain are one step under the
    /// lock, so every record of the series before the marker covers a
    /// drained point and every later write or delete lands after it.
    /// Returns the members and the ids still to do — busy ones when
    /// `wait`, and everything past the cap — still ascending.
    fn claim_group(
        &self,
        shard: &Shard,
        ids: &[SeriesId],
        wait: bool,
    ) -> Result<(Vec<FlushMember>, Vec<SeriesId>)> {
        let mut members = Vec::new();
        let mut later = Vec::new();
        let mut held = 0usize;
        let mut ids = ids.iter();
        let mut claimed = Ok(());
        let mut map = shard.series.write();
        while held < FLUSH_GROUP_MAX_POINTS {
            let Some(&id) = ids.next() else {
                break;
            };
            // Never touched (nothing to flush, and no reason to
            // instantiate it) or nothing buffered: not a member.
            let Some(store) = map.get_mut(&id) else {
                continue;
            };
            if store.flushing.is_some() {
                if wait {
                    later.push(id);
                }
                continue;
            }
            if store.memtable.is_empty() {
                continue;
            }
            if let Err(e) = shard.wal.begin_flush(id) {
                claimed = Err(e);
                break;
            }
            let points = Arc::new(store.memtable.drain_sorted());
            // Reserving every chunk version while still locked guarantees
            // that any later delete orders after every chunk of this flush.
            let n_chunks = points.len().div_ceil(self.config.points_per_chunk).max(1);
            let versions: Vec<Version> = (0..n_chunks).map(|_| self.alloc.next()).collect();
            let last_version = versions
                .last()
                .copied()
                .unwrap_or_else(|| self.alloc.current());
            store.flushing = Some(FlushInFlight {
                points: Arc::clone(&points),
                last_version,
            });
            held += points.len();
            members.push(FlushMember {
                id,
                points,
                versions,
            });
        }
        // `abort_group` takes the guard itself (the lock is not
        // re-entrant).
        drop(map);
        if let Err(e) = claimed {
            self.abort_group(shard, &members);
            return Err(e);
        }
        later.extend(ids);
        Ok((members, later))
    }

    /// Flush phase B (no lock held): make the group durable as one
    /// sealed file and hand back every member's view of it. The
    /// durability order of a flush is the statement order here and in
    /// [`finish_group`](EngineInner::finish_group):
    ///
    /// 1. the catalog, so that no durable id-tagged byte — WAL record
    ///    or data-file run — can outlive the binding of its id;
    /// 2. the file, `sync_all`ed before it gets its name;
    /// 3. the end markers, then the shard WAL's sync (`finish_group`).
    ///
    /// Syncing the log ahead of the file would write back exactly the
    /// records the file makes redundant. The price: a power loss can
    /// keep the file and only a prefix of the members' records, which
    /// is *older* than the file — replayed, it would outrank it. Every
    /// record carries the version it was appended after, and replay
    /// skips one that lies below a durable run of its series (these
    /// runs' versions were reserved after it): see [`crate::shard_wal`].
    fn write_group(&self, shard: &Shard, members: &[FlushMember]) -> Result<Vec<SeriesView>> {
        self.catalog.sync_if_dirty()?;
        let path = shard.next_data_path();
        let file = seal_file(&self.config, &path, |w| {
            for member in members {
                w.begin_series(member.id.0, 0)?;
                let chunks = member.points.chunks(self.config.points_per_chunk);
                for (chunk, version) in chunks.zip(&member.versions) {
                    w.write_chunk(chunk, version.0)?;
                }
            }
            Ok(())
        })?;
        Ok(file.views().collect())
    }

    /// Flush phase C: with the group's file durable, end every member's
    /// flush in the WAL and install its view; with the file failed, put
    /// every member's points back.
    fn finish_group(
        &self,
        shard: &Shard,
        members: &[FlushMember],
        sealed: Result<Vec<SeriesView>>,
    ) -> Result<()> {
        let views = match sealed {
            Ok(views) => views,
            Err(e) => {
                self.abort_group(shard, members);
                return Err(e);
            }
        };
        // The end markers go first, in one write, while every member
        // still holds its in-flight slot (`end_flushes` needs that), and
        // the log's sync behind them. A failure leaves records whose
        // versions the file outranks — a reopen skips them — so the
        // views are installed anyway.
        let ids: Vec<SeriesId> = members.iter().map(|m| m.id).collect();
        let sync = !matches!(self.config.fsync_policy, FsyncPolicy::Never);
        let mut outcome = shard.wal.end_flushes(&ids, sync).map(|synced| {
            if synced {
                self.io.record_wal_sync();
            }
        });
        // Every member drained at least one point, so the file's runs
        // are the members, in order. One guard installs them all and
        // releases their slots.
        {
            let mut map = shard.series.write();
            for (member, view) in members.iter().zip(views) {
                let store = map
                    .get_mut(&member.id)
                    .ok_or_else(|| self.not_found(member.id));
                outcome = outcome.and(store.map(|store| {
                    store.flushing = None;
                    store.files.push(view);
                }));
            }
        }
        self.io.record_file_sealed(members.len() as u64);
        if self.changes.active() {
            for member in members {
                self.changes
                    .publish(&ChangeEvent::Flush { series: member.id });
            }
        }
        outcome
    }

    /// The group's file could not be written (or a later member could
    /// not be claimed): abort every member's begin marker and put its
    /// points back, under one guard. They stay buffered, and covered by
    /// the log, whose begin marker is never matched. Writes and deletes
    /// that landed mid-flush are newer and must win — hence the
    /// absent-only reinsert and the tombstone filter (the log's entries
    /// above the flush's reserved versions).
    fn abort_group(&self, shard: &Shard, members: &[FlushMember]) {
        let mut map = shard.series.write();
        for member in members {
            let Some(store) = map.get_mut(&member.id) else {
                continue;
            };
            let reserved = store.flushing.take().map(|f| f.last_version);
            shard.wal.abort_flush(member.id);
            let logged = store.log.entries();
            let newer = &logged[logged.partition_point(|m| Some(m.version) <= reserved)..];
            for p in member.points.iter() {
                if !newer.iter().any(|m| m.covers(p.t)) {
                    store.memtable.insert_if_absent(*p);
                }
            }
        }
    }

    /// Delete all points of `id` in `[start, end]` (inclusive), as an
    /// append-only versioned tombstone. Memtable points are removed
    /// eagerly; sealed chunks are filtered at read time (one log entry).
    fn delete(&self, id: SeriesId, start: Timestamp, end: Timestamp) -> Result<()> {
        if start > end {
            return Err(TsKvError::InvalidDeleteRange { start, end });
        }
        self.known(id)?;
        {
            let shard = self.shard(id);
            let mut map = shard.series.write();
            // A tombstone on a cold series still instantiates it: the
            // delete must be durable and visible to later writes.
            let store = self.store_entry(&mut map, id);
            let version = self.alloc.next();
            let range = TimeRange::new(start, end);
            // Tombstones are rare and dangerous to lose: commit (and,
            // unless the policy is Never, fsync) the delete record
            // immediately.
            let sync_deletes = !matches!(self.config.fsync_policy, FsyncPolicy::Never);
            shard.wal.append_delete(id, version, range)?;
            self.commit_wal_with(shard, sync_deletes)?;
            store.memtable.delete_range(range);
            if store.sealed_overlaps(&range) {
                // The log's name is id-tagged like a WAL record: the
                // catalog first (synced already, bar policy `Never`).
                self.catalog.sync_if_dirty()?;
                store.log.append(ModEntry::new(version, start, end))?;
            }
        }
        if self.changes.active() {
            self.changes.publish(&ChangeEvent::Delete {
                series: id,
                start,
                end,
            });
        }
        Ok(())
    }

    /// Capture a point-in-time read view of one series: all sealed
    /// chunks, any in-flight flush image, the memtable image (as a
    /// high-version in-memory chunk), and all deletes, each sorted by
    /// version. A registered-but-cold series yields an empty snapshot
    /// without instantiating anything.
    fn snapshot(&self, id: SeriesId) -> Result<SeriesSnapshot> {
        self.known(id)?;
        let (mut files, mut chunks, mut deletes) = (Vec::new(), Vec::new(), Vec::new());
        let map = self.shard(id).series.read();
        if let Some(store) = map.get(&id) {
            // Sealed metadata is the open file's, shared by count: the
            // lock is held for a count per chunk, not a footer copy.
            for res in &store.files {
                let metas = res.metas().iter();
                chunks.extend(metas.map(|m| ChunkHandle::from_file(files.len(), Arc::clone(m))));
                files.push(Arc::clone(&res.file.reader));
            }
            deletes = store.log.entries().to_vec();
            // Points being sealed by an in-flight flush: visible as a mem
            // chunk carrying the last version reserved for that flush, so
            // later deletes (higher version) apply to it and the live
            // memtable chunk (below, strictly higher again) overrides it.
            if let Some(fl) = &store.flushing {
                chunks.extend(ChunkHandle::from_mem(
                    Arc::clone(&fl.points),
                    fl.last_version,
                ));
            }
            if !store.memtable.is_empty() {
                let points = Arc::new(store.memtable.to_points());
                let version = Version(self.alloc.current().0 + 1);
                chunks.extend(ChunkHandle::from_mem(points, version));
            }
        }
        drop(map);
        chunks.sort_by_key(|c| c.version);
        Ok(SeriesSnapshot::new(
            files,
            chunks,
            deletes,
            Arc::clone(&self.io),
            self.cache.clone(),
            self.config.read_threads,
        ))
    }

    /// Fully compact one series: merge every sealed run it has (copying
    /// clean pages byte-for-byte, re-encoding dirty ones), write the
    /// result as a single fresh one-run TsFile, retire the old runs — a
    /// file goes with its last live run — and trim the delete log. The
    /// memtable and WAL are untouched. Returns an empty report if a
    /// compaction is already running for the series. See
    /// [`crate::compaction`].
    pub(crate) fn compact(&self, id: SeriesId) -> Result<CompactionReport> {
        self.compact_run(id, 1)
    }

    /// The phased compaction state machine: merge every sealed run of
    /// the series, provided it has at least `min_files` (≥ 1) of them —
    /// `1` from the manual entry points, `compaction_threshold` from
    /// the background scheduler.
    pub(crate) fn compact_run(&self, id: SeriesId, min_files: usize) -> Result<CompactionReport> {
        self.known(id)?;
        // Phase A (locked): capture the input's metadata (chunk metas,
        // log entries, and Arc'd readers only — no chunk bodies).
        // `min_files` is checked under the same guard that sets
        // `compacting`, so a scheduler tick that lost a race to a
        // manual compact declines instead of rewriting a single file.
        let (inputs, deletes, header, capture_ceiling, path) = {
            let mut map = self.shard(id).series.write();
            let Some(store) = map.get_mut(&id) else {
                // Cold series: nothing sealed, nothing to merge.
                return Ok(CompactionReport::default());
            };
            // An in-flight flush holds versions for points not yet
            // visible in `files`; merging around it risks ordering
            // confusion for no gain. Back off and let the scheduler
            // retry once the flush installs.
            if store.files.len() < min_files || store.compacting || store.flushing.is_some() {
                return Ok(CompactionReport::default());
            }
            if store.files.iter().all(|v| v.metas().is_empty()) {
                // Only chunkless runs (each the whole output of an
                // earlier compaction that found every point deleted):
                // nothing to merge.
                return Ok(CompactionReport::default());
            }
            let inputs = store.files.clone();
            let deletes = store.log.entries().to_vec();
            store.compacting = true;
            // Every output chunk carries the maximum input version.
            // The inputs are a prefix of the version-ordered file
            // list, so anything that outranked an input (a later file,
            // a later delete) still outranks the output.
            // No fresh versions are allocated: a reserved version would
            // order the merged (older) data after concurrent deletes
            // that the merge never saw.
            // The same version is what the output says it supersedes:
            // every input, and everything the inputs superseded.
            let out_version = store.files.iter().map(SeriesView::rank).max().unwrap_or(0);
            let header = execute::OutputRun {
                series: id.0,
                version: out_version,
                // A merge that comes up empty normally leaves no file.
                // It must leave its (chunkless) run when an input will
                // stay on disk after this series retires it — inside a
                // file other series still read — or when an input was
                // itself such a run: without the output's `supersedes`
                // a reopen would read that input again.
                always: store
                    .files
                    .iter()
                    .any(|v| v.shares_file() || v.run.supersedes.0 > 0),
            };
            // Deletes issued after this point get versions above the
            // ceiling; phase E trims the log there, keeping the ones
            // the merge missed. (`out_version` can be older than a
            // pre-capture delete that postdates the last flush — the
            // ceiling is the only version that cleanly splits "seen"
            // from "missed".)
            let capture_ceiling = self.alloc.current();
            // The output takes its file number here, before any flush
            // that will outrank it takes one: file order stays version
            // order, which is what lets recovery read `supersedes` as
            // "replaces the runs in the files before me".
            let path = self.shard(id).next_data_path();
            (inputs, deletes, header, capture_ceiling, path)
        };
        let captured = inputs.len();
        // The inputs' chunks, in capture (= version) order, each with
        // the reader its body is behind.
        let chunks: Vec<(&TsFileReader, &ChunkMeta)> = inputs
            .iter()
            .flat_map(|v| v.metas().iter().map(move |m| (&*v.file.reader, &**m)))
            .collect();
        let deletes_applied = deletes.len();

        // Phase B (unlocked): classify every input page clean/dirty
        // from footer metadata, then merge-and-write — clean pages
        // copied raw (CRC-revalidated, never decoded), dirty pages
        // decoded, k-way merged and re-encoded. The dirty merge reads
        // through a detached snapshot (no shared cache, detached
        // counters): compaction I/O is reported via the explicit
        // `compaction_*` counters instead of polluting the read-path
        // ones, and the input generation is about to be retired — not
        // worth caching.
        let views: Vec<ChunkView> = chunks
            .iter()
            .map(|(_, meta)| ChunkView {
                version: meta.version.0,
                range: meta.time_range(),
                pages: meta.paged.pages.iter().map(|p| p.time_range()).collect(),
            })
            .collect();
        let cplan = plan::classify(&views, &deletes);
        let tmp = in_flight_path(&path);
        let outcome = execute::merge_to_file(&self.config, &tmp, &chunks, deletes, &cplan, header)
            .and_then(|o| {
                let sealed = if o.points_written > 0 || header.always {
                    let file = publish_file(&tmp, &path)?;
                    let view = file.views().next().ok_or_else(|| {
                        TsKvError::Corrupt(format!(
                            "{}: compaction output has no run",
                            path.display()
                        ))
                    })?;
                    Some(view)
                } else {
                    None
                };
                Ok((o, sealed))
            });
        if outcome.is_err() {
            discard(&tmp, &path);
        }

        // Phase C (locked): swap the new generation in for the captured
        // runs and collect the retired views. Only appends happened
        // while `compacting` was set (flush installs push at the tail),
        // so the first `captured` entries are still the inputs and
        // replacing them in place keeps the file list version-ordered.
        let (retired, outcome) = {
            let mut map = self.shard(id).series.write();
            let store = map.get_mut(&id).ok_or_else(|| self.not_found(id))?;
            store.compacting = outcome.is_ok(); // held for the trim below
            let (outcome, sealed) = outcome?;
            let retired: Vec<SeriesView> = store.files.splice(..captured, sealed).collect();
            (retired, outcome)
        };
        self.io.record_compaction_io(
            outcome.bytes_read,
            outcome.bytes_rewritten,
            outcome.pages_copied,
            outcome.pages_recoded,
        );

        // Phase D (unlocked): retire the old generation — each run's
        // cache entries, and each file whose last live run this was.
        // The new file was in place before this (a crash in
        // between leaves both generations on disk, and the output's
        // `supersedes` tells the reopen which one to read), and
        // snapshots still holding the old readers keep working — POSIX
        // unlink semantics. Such a straggler snapshot may re-populate a
        // retired run's cache entries after this invalidation; that is
        // benign (handle ids are never reused, so the entries can only
        // ever serve that same straggler) and the LRU ages them out.
        let files_removed = retired.len();
        let mut unlinked = true;
        for view in retired {
            unlinked &= view.retire(self.cache.as_deref()).is_ok();
        }

        // Phase E (locked, as appends are): trim the log to its entries
        // above the ceiling — the ones issued during the merge, which
        // outrank every output chunk. Data before log: the inputs the
        // dropped entries applied to can no longer be read — the output
        // has its name and supersedes them, or, with no output, they
        // are unlinked (if that failed, the log stays whole). A crash
        // before the trim leaves a superset, which is harmless: a
        // delete at or below the ceiling re-applied to the output
        // erases nothing, because every lower-versioned point it covers
        // was merged away, and what was sealed since outranks it. So a
        // failing trim is not a failed compaction: it is left to the
        // next one. `compacting` stays set up to here, or a later merge
        // could trim, at its higher ceiling, deletes whose inputs this
        // one has not unlinked yet.
        {
            let mut map = self.shard(id).series.write();
            let store = map.get_mut(&id).ok_or_else(|| self.not_found(id))?;
            if unlinked {
                store.log.trim_through(capture_ceiling).ok();
            }
            store.compacting = false;
        }
        Ok(CompactionReport {
            files_removed,
            deletes_applied,
            ..outcome
        })
    }

    /// Engine-wide I/O counters (shared by all snapshots).
    pub(crate) fn io(&self) -> &Arc<IoStats> {
        &self.io
    }

    /// Total points currently buffered in memory and not yet durable in
    /// a sealed file (the memtable plus any in-flight flush image).
    fn unflushed_points(&self, id: SeriesId) -> Result<usize> {
        self.known(id)?;
        let map = self.shard(id).series.read();
        let Some(store) = map.get(&id) else {
            return Ok(0);
        };
        let in_flight = store.flushing.as_ref().map(|f| f.points.len()).unwrap_or(0);
        Ok(store.memtable.len() + in_flight)
    }

    /// Number of sealed TsFiles currently backing `id`.
    fn sealed_file_count(&self, id: SeriesId) -> Result<usize> {
        self.known(id)?;
        let map = self.shard(id).series.read();
        Ok(map.get(&id).map(|s| s.files.len()).unwrap_or(0))
    }

    /// Series whose sealed-file count reached `compaction_threshold`
    /// and that no compaction currently owns. Takes each shard's read
    /// guard only for the map walk — never across I/O — so the
    /// background scheduler can poll this cheaply. Returns ids: a
    /// sweep over a million series allocates one `Vec<u32>`-sized
    /// list, never a name.
    pub(crate) fn compaction_candidates(&self) -> Vec<SeriesId> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let map = shard.series.read();
            for (id, store) in map.iter() {
                if store.files.len() >= self.config.compaction_threshold && !store.compacting {
                    out.push(*id);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Scheduler poll interval.
    pub(crate) fn compaction_interval_ms(&self) -> u64 {
        self.config.compaction_interval_ms
    }

    /// Sealed-file count at which the scheduler compacts a series.
    pub(crate) fn compaction_threshold(&self) -> usize {
        self.config.compaction_threshold
    }
}

impl TsKv {
    /// Open (or create) a store rooted at `dir`, recovering whatever
    /// is found there: the series catalog is replayed first (interned
    /// names get the same dense ids back), then each shard's
    /// data files are opened — every series with a run in one gets a
    /// view of it — and its shared WAL is replayed, and only series with
    /// actual state get an in-memory store — a million registered but
    /// cold series recover in catalog-replay time and occupy no file
    /// handles. The per-series work (the delete log, WAL replay) fans
    /// out across up to one thread per shard, one series at a time per
    /// thread.
    ///
    /// A directory with no `SHARDS` file but with series- or
    /// shard-named sub-directories holding `series.wal` or `*.tsfile`
    /// (the retired pre-sharding layout, or a store that lost its
    /// `SHARDS` file) is refused with [`TsKvError::Corrupt`] before
    /// anything is written to it, and so is a store holding a data file
    /// of the retired `s<id>-<fileno>.tsfile` shape or a per-run delete
    /// log `<fileno>.s<id>.mods`.
    ///
    /// A crash mid-flush or mid-compaction leaves the file it was
    /// writing under its in-flight name `<fileno>.tsfile.tmp`. Cut
    /// short, it is quarantined (renamed `<fileno>.tsfile.corrupt`)
    /// rather than failing recovery: its points are still covered by
    /// the shard WAL (flush — every member replays from its unmatched
    /// begin marker) or by the older generation (compaction). Complete,
    /// it only lost its rename and is adopted. A `*.tsfile` that does
    /// not verify was damaged after it was sealed: that is genuine
    /// corruption and surfaces as an error, and so does a file with a
    /// foreign magic (e.g. the retired `TSF1`) under either name: it is
    /// left in place and the open fails with `BadMagic`.
    ///
    /// A run that a compaction output on disk supersedes is not read
    /// again: its series retired it, and it is still there only because
    /// other series read the file, or because of a crash before the
    /// unlink — which the open then finishes.
    ///
    /// When `compaction_auto` is set, a background scheduler thread
    /// starts here and stops (joined) when the store drops.
    pub fn open<P: AsRef<Path>>(dir: P, config: EngineConfig) -> Result<Self> {
        let inner = Arc::new(EngineInner::open(dir.as_ref().to_path_buf(), config)?);
        let scheduler = if inner.config.compaction_auto {
            Some(CompactionScheduler::spawn(Arc::clone(&inner))?)
        } else {
            None
        };
        Ok(TsKv { scheduler, inner })
    }

    /// The engine configuration the store runs with: the one it was
    /// opened with, normalized, and with the shard count it was pinned
    /// at when it was created.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.config
    }

    /// Root directory of the store.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Names of all registered series (sorted).
    pub fn series_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .catalog
            .names_snapshot()
            .iter()
            .map(|n| n.to_string())
            .collect();
        names.sort();
        names
    }

    /// The interned id of `name`, if registered. One striped hash
    /// probe — resolve once, then drive every per-series call through
    /// the `*_by_id` variants.
    pub fn series_id(&self, name: &str) -> Option<SeriesId> {
        self.inner.catalog.resolve(name)
    }

    /// The name interned as `id`, if registered. Cheap (`Arc` clone).
    pub fn series_name(&self, id: SeriesId) -> Option<Arc<str>> {
        self.inner.catalog.name_of(id)
    }

    /// Number of registered series (ids are dense: `0..count`).
    pub fn series_count(&self) -> usize {
        self.inner.catalog.len()
    }

    /// Register a series (idempotent), returning its interned id.
    /// Costs one catalog-log append the first time and nothing on
    /// disk afterwards — no directories or files until data arrives.
    pub fn create_series(&self, name: &str) -> Result<SeriesId> {
        self.inner.create_series(name)
    }

    /// Insert one point; may trigger an automatic flush when the
    /// memtable reaches the configured threshold.
    pub fn insert(&self, name: &str, p: Point) -> Result<()> {
        self.insert_batch(name, std::slice::from_ref(&p))
    }

    /// Insert a batch of points into one series (any time order;
    /// duplicates overwrite). Registers the series if needed.
    pub fn insert_batch(&self, name: &str, points: &[Point]) -> Result<()> {
        let id = self.inner.create_series(name)?;
        self.insert_batch_by_id(id, points)
    }

    /// [`insert_batch`](TsKv::insert_batch) keyed by an interned id
    /// (from [`series_id`](TsKv::series_id) or
    /// [`create_series`](TsKv::create_series)): zero name hashing on
    /// the hot path.
    pub fn insert_batch_by_id(&self, id: SeriesId, points: &[Point]) -> Result<()> {
        self.inner.write(&[(id, points)]).map(|_| ())
    }

    /// Apply a multi-series [`WriteBatch`]: names resolved (and new
    /// ones registered) once up front, then one shard-lock acquisition
    /// and one WAL group-commit syscall per shard touched, fsync per
    /// the configured [`FsyncPolicy`]. Returns the number of points
    /// written.
    pub fn write_batch(&self, batch: &WriteBatch) -> Result<usize> {
        let mut entries = Vec::with_capacity(batch.series_count());
        for (name, points) in batch.entries() {
            entries.push((self.inner.create_series(name)?, points));
        }
        self.inner.write(&entries)
    }

    /// Flush one series' memtable to a new sealed TsFile.
    pub fn flush(&self, name: &str) -> Result<()> {
        let id = self.inner.resolve(name)?;
        self.inner.flush_group(&[id], true)
    }

    /// [`flush`](TsKv::flush) keyed by an interned id.
    pub fn flush_by_id(&self, id: SeriesId) -> Result<()> {
        self.inner.flush_group(&[id], true)
    }

    /// Flush every series.
    pub fn flush_all(&self) -> Result<()> {
        self.inner.flush_all()
    }

    /// Delete all points of `name` in `[start, end]` (inclusive), as an
    /// append-only versioned tombstone. Memtable points are removed
    /// eagerly; sealed chunks are filtered at read time.
    pub fn delete(&self, name: &str, start: Timestamp, end: Timestamp) -> Result<()> {
        let id = self.inner.resolve(name)?;
        self.inner.delete(id, start, end)
    }

    /// [`delete`](TsKv::delete) keyed by an interned id.
    pub fn delete_by_id(&self, id: SeriesId, start: Timestamp, end: Timestamp) -> Result<()> {
        self.inner.delete(id, start, end)
    }

    /// Capture a point-in-time read view of one series. See
    /// [`SeriesSnapshot`].
    pub fn snapshot(&self, name: &str) -> Result<SeriesSnapshot> {
        let id = self.inner.resolve(name)?;
        self.inner.snapshot(id)
    }

    /// [`snapshot`](TsKv::snapshot) keyed by an interned id.
    pub fn snapshot_by_id(&self, id: SeriesId) -> Result<SeriesSnapshot> {
        self.inner.snapshot(id)
    }

    /// Fully compact one series: merge every sealed file (applying
    /// deletes and overwrites; clean pages are copied byte-for-byte,
    /// only dirty pages re-encode), write the result as a single fresh
    /// TsFile, unlink the old files and trim the delete log. The
    /// memtable and WAL are untouched. Returns an empty report if a
    /// compaction is already running for the series.
    /// See [`crate::compaction`].
    pub fn compact(&self, name: &str) -> Result<CompactionReport> {
        let id = self.inner.resolve(name)?;
        self.inner.compact(id)
    }

    /// [`compact`](TsKv::compact) keyed by an interned id.
    pub fn compact_by_id(&self, id: SeriesId) -> Result<CompactionReport> {
        self.inner.compact(id)
    }

    /// Subscribe to change notifications: every write, delete, and
    /// flush publishes a [`ChangeEvent`] (keyed by [`SeriesId`]) to
    /// each listener over a bounded queue of `depth` events.
    /// Publishing never blocks the write path — when a listener's
    /// queue is full the event is dropped and the listener's *missed*
    /// flag raised, telling it to resynchronize from a fresh
    /// [`TsKv::snapshot`]. See [`crate::notify`].
    pub fn subscribe_changes(&self, depth: usize) -> ChangeRx {
        self.inner.changes.register(depth)
    }

    /// Engine-wide I/O counters (shared by all snapshots).
    pub fn io(&self) -> &Arc<IoStats> {
        self.inner.io()
    }

    /// The cross-query decoded-chunk cache, if enabled by config.
    pub fn cache(&self) -> Option<&Arc<DecodedChunkCache>> {
        self.inner.cache.as_ref()
    }

    /// Total points currently buffered in memory and not yet durable in
    /// a sealed file (the memtable plus any in-flight flush image).
    pub fn unflushed_points(&self, name: &str) -> Result<usize> {
        let id = self.inner.resolve(name)?;
        self.inner.unflushed_points(id)
    }

    /// Number of sealed TsFiles currently backing `name`.
    pub fn sealed_file_count(&self, name: &str) -> Result<usize> {
        let id = self.inner.resolve(name)?;
        self.inner.sealed_file_count(id)
    }

    /// Whether the background compaction scheduler is running.
    pub fn compaction_scheduler_running(&self) -> bool {
        self.scheduler.is_some()
    }
}

#[cfg(test)]
mod group_tests;

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets
    // library code.
    #![allow(clippy::panic)]

    use super::*;
    use crate::readers::MergeReader;

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    fn fresh(name: &str) -> Result<(PathBuf, TsKv)> {
        let dir = std::env::temp_dir().join(format!("tskv-engine-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 100,
                memtable_threshold: 250,
                ..Default::default()
            },
        )?;
        Ok((dir, kv))
    }

    #[test]
    fn change_notifications_cover_write_delete_flush() -> TestResult {
        let (dir, kv) = fresh("notify")?;
        let rx = kv.subscribe_changes(64);
        kv.insert_batch("s", &[Point::new(1, 1.0), Point::new(2, 2.0)])?;
        kv.delete("s", 1, 1)?;
        kv.flush("s")?;
        let mut batch = WriteBatch::new();
        batch.insert("s", Point::new(3, 3.0));
        batch.insert("t", Point::new(4, 4.0));
        kv.write_batch(&batch)?;
        let sid = kv.series_id("s").ok_or("s not registered")?;
        match rx.try_recv() {
            Some(ChangeEvent::Write { series, points }) => {
                assert_eq!(series, sid);
                assert_eq!(points.len(), 2);
            }
            other => panic!("expected write event, got {other:?}"),
        }
        match rx.try_recv() {
            Some(ChangeEvent::Delete { series, start, end }) => {
                assert_eq!(series, sid);
                assert_eq!((start, end), (1, 1));
            }
            other => panic!("expected delete event, got {other:?}"),
        }
        match rx.try_recv() {
            Some(ChangeEvent::Flush { series }) => assert_eq!(series, sid),
            other => panic!("expected flush event, got {other:?}"),
        }
        let mut batch_series: Vec<String> = Vec::new();
        while let Some(e) = rx.try_recv() {
            match e {
                ChangeEvent::Write { series, points } => {
                    assert_eq!(points.len(), 1);
                    batch_series.push(kv.series_name(series).ok_or("unknown id")?.to_string());
                }
                other => panic!("expected write events, got {other:?}"),
            }
        }
        batch_series.sort();
        assert_eq!(batch_series, vec!["s".to_string(), "t".to_string()]);
        assert!(!rx.missed());
        // Dropping the receiver detaches it; later writes are no-ops.
        drop(rx);
        kv.insert("s", Point::new(9, 9.0))?;
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn auto_flush_on_threshold() -> TestResult {
        let (dir, kv) = fresh("autoflush")?;
        for t in 0..600i64 {
            kv.insert("s", Point::new(t, 0.0))?;
        }
        // Two auto-flushes (at 250 and 500); 100 points remain buffered.
        assert_eq!(kv.unflushed_points("s")?, 100);
        let snap = kv.snapshot("s")?;
        // 250/100 → 3 chunks per flush (100+100+50), ×2 files, + mem chunk.
        assert_eq!(snap.chunks().len(), 7);
        assert_eq!(snap.raw_point_count(), 600);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn chunk_versions_strictly_increase() -> TestResult {
        let (dir, kv) = fresh("versions")?;
        for t in 0..500i64 {
            kv.insert("s", Point::new(t, 0.0))?;
        }
        kv.flush_all()?;
        let snap = kv.snapshot("s")?;
        let versions: Vec<u64> = snap.chunks().iter().map(|c| c.version.0).collect();
        assert!(versions.windows(2).all(|w| w[0] < w[1]), "{versions:?}");
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn delete_validates_range() -> TestResult {
        let (dir, kv) = fresh("badrange")?;
        kv.create_series("s")?;
        assert!(matches!(
            kv.delete("s", 10, 5),
            Err(TsKvError::InvalidDeleteRange { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn unknown_series_errors() -> TestResult {
        let (dir, kv) = fresh("unknown")?;
        assert!(matches!(
            kv.snapshot("nope"),
            Err(TsKvError::SeriesNotFound(_))
        ));
        assert!(matches!(
            kv.delete("nope", 0, 1),
            Err(TsKvError::SeriesNotFound(_))
        ));
        assert!(matches!(
            kv.flush("nope"),
            Err(TsKvError::SeriesNotFound(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn unregistered_id_errors() -> TestResult {
        let (dir, kv) = fresh("badid")?;
        kv.create_series("s")?;
        let bogus = SeriesId(99);
        assert!(matches!(
            kv.snapshot_by_id(bogus),
            Err(TsKvError::SeriesNotFound(_))
        ));
        assert!(matches!(
            kv.delete_by_id(bogus, 0, 1),
            Err(TsKvError::SeriesNotFound(_))
        ));
        assert!(matches!(
            kv.flush_by_id(bogus),
            Err(TsKvError::SeriesNotFound(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn invalid_series_name_rejected() -> TestResult {
        let (dir, kv) = fresh("badname")?;
        assert!(kv.create_series("../evil").is_err());
        assert!(kv.create_series("").is_err());
        assert!(kv.create_series("a/b").is_err());
        assert!(kv.create_series("room1.sensor_2-x").is_ok());
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn cold_series_cost_no_stores_or_files() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-cold-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = EngineConfig::default();
        {
            let kv = TsKv::open(&dir, config.clone())?;
            for i in 0..1000 {
                kv.create_series(&format!("cold-{i:04}"))?;
            }
            assert_eq!(kv.series_count(), 1000);
            // Registration touches only the catalog: no in-memory
            // stores, no directories beyond the fixed shard set.
            assert_eq!(kv.io().snapshot().stores_instantiated, 0);
            let snap = kv.snapshot("cold-0042")?;
            assert_eq!(snap.raw_point_count(), 0);
            kv.flush_all()?;
            assert_eq!(kv.io().snapshot().stores_instantiated, 0);
            // A write instantiates exactly the series written.
            kv.insert("cold-0007", Point::new(1, 1.0))?;
            kv.flush_all()?;
            assert_eq!(kv.io().snapshot().stores_instantiated, 1);
        }
        let mut dirs = 0usize;
        for entry in std::fs::read_dir(&dir)? {
            if entry?.file_type()?.is_dir() {
                dirs += 1;
            }
        }
        assert_eq!(dirs, config.write_shards, "only shard dirs on disk");
        // Reopen: all names come back from the catalog alone, and
        // only the series holding data gets a store.
        let kv = TsKv::open(&dir, config)?;
        assert_eq!(kv.series_count(), 1000);
        assert_eq!(kv.io().snapshot().stores_instantiated, 1);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn ids_stable_across_reopen() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-ids-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = EngineConfig::default();
        let (a, b) = {
            let kv = TsKv::open(&dir, config.clone())?;
            let a = kv.create_series("a")?;
            let b = kv.create_series("b")?;
            assert_ne!(a, b);
            assert_eq!(kv.create_series("a")?, a, "intern is idempotent");
            kv.insert_batch_by_id(b, &[Point::new(1, 1.0)])?;
            (a, b)
        };
        let kv = TsKv::open(&dir, config)?;
        assert_eq!(kv.series_id("a"), Some(a));
        assert_eq!(kv.series_id("b"), Some(b));
        assert_eq!(kv.series_name(b).as_deref(), Some("b"));
        let merged = MergeReader::new(&kv.snapshot_by_id(b)?).collect_merged()?;
        assert_eq!(merged, vec![Point::new(1, 1.0)]);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn recovery_reloads_files_and_mods() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-recover-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = EngineConfig {
            points_per_chunk: 50,
            memtable_threshold: 100,
            ..Default::default()
        };
        {
            let kv = TsKv::open(&dir, config.clone())?;
            for t in 0..300i64 {
                kv.insert("s", Point::new(t, t as f64))?;
            }
            kv.flush_all()?;
            kv.delete("s", 100, 150)?;
        }
        // Reopen: sealed data + deletes must be back; versions must
        // continue past the recovered maximum.
        let kv = TsKv::open(&dir, config)?;
        assert_eq!(kv.series_names(), vec!["s".to_string()]);
        let snap = kv.snapshot("s")?;
        assert_eq!(snap.raw_point_count(), 300);
        assert_eq!(snap.deletes().len(), 1);
        let merged = MergeReader::new(&snap).collect_merged()?;
        assert_eq!(merged.len(), 300 - 51);

        // New writes get versions above everything recovered.
        let max_recovered = snap
            .chunks()
            .iter()
            .map(|c| c.version.0)
            .chain(snap.deletes().iter().map(|d| d.version.0))
            .max()
            .ok_or("recovered snapshot is empty")?;
        kv.insert("s", Point::new(1000, 1.0))?;
        kv.flush_all()?;
        let snap2 = kv.snapshot("s")?;
        let new_max = snap2
            .chunks()
            .iter()
            .map(|c| c.version.0)
            .max()
            .ok_or("no chunks after flush")?;
        assert!(new_max > max_recovered);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn out_of_order_batches_create_overlapping_chunks() -> TestResult {
        let (dir, kv) = fresh("overlap")?;
        let batch1: Vec<Point> = (0..200).map(|t| Point::new(t, 1.0)).collect();
        kv.insert_batch("s", &batch1)?;
        kv.flush_all()?;
        let batch2: Vec<Point> = (100..300).map(|t| Point::new(t, 2.0)).collect();
        kv.insert_batch("s", &batch2)?;
        kv.flush_all()?;
        let snap = kv.snapshot("s")?;
        let overlapping = snap.chunks_overlapping(TimeRange::new(100, 199));
        assert!(
            overlapping.len() >= 2,
            "expected overlap, got {}",
            overlapping.len()
        );
        let merged = MergeReader::new(&snap).collect_merged()?;
        assert_eq!(merged.len(), 300);
        assert!(merged
            .iter()
            .filter(|p| (100..200).contains(&p.t))
            .all(|p| p.v == 2.0));
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn delete_future_range_affects_nothing() -> TestResult {
        let (dir, kv) = fresh("futuredel")?;
        for t in 0..100i64 {
            kv.insert("s", Point::new(t, 1.0))?;
        }
        kv.flush_all()?;
        kv.delete("s", 10_000, 20_000)?;
        // Points written after the delete, inside its range: unaffected.
        for t in 10_000..10_010i64 {
            kv.insert("s", Point::new(t, 2.0))?;
        }
        kv.flush_all()?;
        let snap = kv.snapshot("s")?;
        let merged = MergeReader::new(&snap).collect_merged()?;
        assert_eq!(merged.len(), 110);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn wal_recovers_unflushed_data() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-walrec-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = EngineConfig {
            points_per_chunk: 50,
            memtable_threshold: 1_000,
            ..Default::default()
        };
        {
            let kv = TsKv::open(&dir, config.clone())?;
            for t in 0..300i64 {
                kv.insert("s", Point::new(t, t as f64))?;
            }
            // Delete part of the buffered range, then add more — all
            // without ever flushing.
            kv.delete("s", 100, 199)?;
            for t in 300..400i64 {
                kv.insert("s", Point::new(t, 7.0))?;
            }
            // Simulated crash: drop without flushing.
        }
        let kv = TsKv::open(&dir, config)?;
        assert_eq!(kv.unflushed_points("s")?, 300);
        let snap = kv.snapshot("s")?;
        let merged = MergeReader::new(&snap).collect_merged()?;
        assert_eq!(merged.len(), 300);
        assert!(merged.iter().all(|p| !(100..=199).contains(&p.t)));
        assert!(merged.iter().filter(|p| p.t >= 300).all(|p| p.v == 7.0));
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn wal_truncated_by_flush() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-waltrunc-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = EngineConfig {
            points_per_chunk: 50,
            memtable_threshold: 100,
            ..Default::default()
        };
        {
            let kv = TsKv::open(&dir, config.clone())?;
            // 250 points: two auto-flushes, 50 left in WAL + memtable.
            for t in 0..250i64 {
                kv.insert("s", Point::new(t, 1.0))?;
            }
        }
        let kv = TsKv::open(&dir, config)?;
        assert_eq!(kv.unflushed_points("s")?, 50);
        let snap = kv.snapshot("s")?;
        assert_eq!(snap.raw_point_count(), 250);
        let merged = MergeReader::new(&snap).collect_merged()?;
        assert_eq!(merged.len(), 250);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn flush_resets_shard_wal() -> TestResult {
        let (dir, kv) = fresh("wal-clean")?;
        for t in 0..10i64 {
            kv.insert("s", Point::new(t, 1.0))?;
        }
        kv.flush_all()?;
        // Every record in s's shard WAL is now covered by the sealed
        // file: the log must collapse to a single empty active segment.
        let sid = kv.series_id("s").ok_or("s not registered")?;
        let sdir = dir.join(shard_dir_name(sid.index() % kv.config().write_shards));
        let mut wal_files: Vec<PathBuf> = Vec::new();
        for f in std::fs::read_dir(&sdir)? {
            let p = f?.path();
            let is_wal = p
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"));
            if is_wal {
                wal_files.push(p);
            }
        }
        assert_eq!(wal_files.len(), 1, "sealed segments must be reclaimed");
        let len = wal_files
            .first()
            .map(std::fs::metadata)
            .transpose()?
            .map(|m| m.len());
        assert_eq!(len, Some(0), "active segment must be truncated empty");
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    /// With nothing to replay, an open must leave every shard directory
    /// as it found it: no WAL segment created, renumbered or unlinked.
    #[test]
    fn idle_reopen_leaves_shard_dirs_unchanged() -> TestResult {
        let (dir, kv) = fresh("idle-reopen")?;
        for t in 0..600i64 {
            kv.insert("s", Point::new(t, 1.0))?;
        }
        kv.flush_all()?;
        drop(kv);
        let listing = || -> Result<Vec<(PathBuf, u64)>> {
            let mut files = Vec::new();
            for shard in std::fs::read_dir(&dir)? {
                let shard = shard?.path();
                if shard.is_dir() {
                    for file in std::fs::read_dir(&shard)? {
                        let file = file?;
                        files.push((file.path(), file.metadata()?.len()));
                    }
                }
            }
            files.sort();
            Ok(files)
        };
        let before = listing()?;
        assert!(before.len() > EngineConfig::default().write_shards);
        for _ in 0..3 {
            drop(TsKv::open(&dir, EngineConfig::default())?);
            assert_eq!(listing()?, before);
        }
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn recovery_reattaches_wal_delete_to_missing_mods() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-reattach-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = EngineConfig {
            points_per_chunk: 50,
            memtable_threshold: 1_000,
            ..Default::default()
        };
        {
            let kv = TsKv::open(&dir, config.clone())?;
            let batch: Vec<Point> = (0..100).map(|t| Point::new(t, 1.0)).collect();
            kv.insert_batch("s", &batch)?;
            kv.flush_all()?;
            kv.delete("s", 10, 20)?;
        }
        // Simulate a crash between the WAL append and the log append:
        // drop the delete log ("s" is id 0, in shard 0); the
        // delete now lives only in the WAL.
        std::fs::remove_file(delete_log_path(&dir.join(shard_dir_name(0)), SeriesId(0)))?;
        let kv = TsKv::open(&dir, config.clone())?;
        let snap = kv.snapshot("s")?;
        assert_eq!(snap.deletes().len(), 1, "WAL delete must be re-attached");
        let merged = MergeReader::new(&snap).collect_merged()?;
        assert_eq!(merged.len(), 89);
        // Once: the next open finds it logged.
        drop(kv);
        let kv = TsKv::open(&dir, config)?;
        assert_eq!(kv.snapshot("s")?.deletes(), snap.deletes());
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    /// A `*.tsfile` got its name after its `sync_all`, so one that does
    /// not verify was damaged later, not cut short by a crash: the open
    /// fails and the file stays. (What a crash cuts short is a
    /// `*.tsfile.tmp` — see `group_tests`.)
    #[test]
    fn damaged_data_file_fails_open_and_stays_in_place() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-damaged-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = EngineConfig {
            points_per_chunk: 50,
            memtable_threshold: 1_000,
            ..Default::default()
        };
        {
            let kv = TsKv::open(&dir, config.clone())?;
            let batch: Vec<Point> = (0..100).map(|t| Point::new(t, 1.0)).collect();
            kv.insert_batch("s", &batch)?;
            kv.flush_all()?;
            let batch: Vec<Point> = (100..200).map(|t| Point::new(t, 2.0)).collect();
            kv.insert_batch("s", &batch)?;
            kv.flush_all()?;
        }
        // "s" is the first series interned → id 0 → shard 0.
        let sdir = dir.join(shard_dir_name(0));
        let damaged = sdir.join("00000001.tsfile");
        let bytes = b"TSF2\0\0 cut short";
        std::fs::write(&damaged, bytes)?;
        match TsKv::open(&dir, config) {
            Err(TsKvError::TsFile(e)) => assert!(is_torn_write(&e), "{e:?}"),
            other => return Err(format!("opened as {other:?}").into()),
        }
        assert_eq!(std::fs::read(&damaged)?, bytes);
        assert!(!sdir.join("00000001.tsfile.corrupt").exists());
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn foreign_magic_data_file_fails_open_and_stays_in_place() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-tsf1-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let kv = TsKv::open(&dir, EngineConfig::default())?;
            kv.insert("s", Point::new(1, 1.0))?;
            kv.flush_all()?;
        }
        // A retired-format file where the series' only (hence newest)
        // data file should be: never a torn write of ours, so it is
        // neither renamed nor skipped.
        let path = dir.join(shard_dir_name(0)).join("00000000.tsfile");
        let tsf1 = b"TSF1\0\0 a whole file of the retired format TSF1\0\0";
        std::fs::write(&path, tsf1)?;
        match TsKv::open(&dir, EngineConfig::default()) {
            Err(TsKvError::TsFile(TsFileError::BadMagic { found })) => {
                assert_eq!(&found, b"TSF1\0\0");
            }
            other => return Err(format!("opened as {other:?}").into()),
        }
        assert_eq!(std::fs::read(&path)?, tsf1);
        assert!(!path.with_extension("tsfile.corrupt").exists());
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn delete_on_empty_series_is_recorded_but_harmless() -> TestResult {
        let (dir, kv) = fresh("empty-del")?;
        kv.create_series("s")?;
        kv.delete("s", 0, 100)?;
        let snap = kv.snapshot("s")?;
        // Nothing sealed → nothing for a logged tombstone to hide; the
        // op is a no-op beyond consuming a version.
        assert!(snap.deletes().is_empty());
        kv.insert("s", Point::new(50, 1.0))?;
        kv.flush_all()?;
        let merged = MergeReader::new(&kv.snapshot("s")?).collect_merged()?;
        assert_eq!(
            merged.len(),
            1,
            "later write must not be hit by the earlier delete"
        );
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn repeated_identical_deletes_are_idempotent() -> TestResult {
        let (dir, kv) = fresh("dup-del")?;
        for t in 0..100i64 {
            kv.insert("s", Point::new(t, 1.0))?;
        }
        kv.flush_all()?;
        kv.delete("s", 10, 20)?;
        kv.delete("s", 10, 20)?;
        kv.delete("s", 10, 20)?;
        let snap = kv.snapshot("s")?;
        assert_eq!(snap.deletes().len(), 3); // three ops, distinct versions
        let merged = MergeReader::new(&snap).collect_merged()?;
        assert_eq!(merged.len(), 89);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn single_point_series_lifecycle() -> TestResult {
        let (dir, kv) = fresh("single")?;
        kv.insert("s", Point::new(i64::MAX - 1, f64::MAX))?;
        kv.flush_all()?;
        let snap = kv.snapshot("s")?;
        assert_eq!(snap.raw_point_count(), 1);
        let merged = MergeReader::new(&snap).collect_merged()?;
        assert_eq!(merged, vec![Point::new(i64::MAX - 1, f64::MAX)]);
        kv.delete("s", i64::MAX - 1, i64::MAX)?;
        let merged = MergeReader::new(&kv.snapshot("s")?).collect_merged()?;
        assert!(merged.is_empty());
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn negative_timestamps_supported() -> TestResult {
        let (dir, kv) = fresh("negative")?;
        for t in -500..-400i64 {
            kv.insert("s", Point::new(t, t as f64))?;
        }
        kv.flush_all()?;
        kv.delete("s", -480, -460)?;
        let snap = kv.snapshot("s")?;
        let merged = MergeReader::new(&snap).collect_merged()?;
        assert_eq!(merged.len(), 100 - 21);
        assert_eq!(merged.first().map(|p| p.t), Some(-500));
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn write_batch_spans_series_and_shards() -> TestResult {
        let (dir, kv) = fresh("wbatch")?;
        let mut batch = WriteBatch::new();
        for s in 0..48 {
            let pts: Vec<Point> = (0..50).map(|t| Point::new(t, s as f64)).collect();
            batch.insert_many(&format!("series-{s}"), &pts);
        }
        assert_eq!(kv.write_batch(&batch)?, 48 * 50);
        assert_eq!(kv.series_names().len(), 48);
        for s in 0..48 {
            let merged =
                MergeReader::new(&kv.snapshot(&format!("series-{s}"))?).collect_merged()?;
            assert_eq!(merged.len(), 50);
            assert!(merged.iter().all(|p| p.v == s as f64));
        }
        let io = kv.io().snapshot();
        assert_eq!(io.points_written, 48 * 50);
        // One WAL group-commit batch per shard touched (three series
        // each) — not per series or per point.
        assert_eq!(io.wal_batches, kv.config().write_shards as u64);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn write_batch_auto_flushes_past_threshold() -> TestResult {
        let (dir, kv) = fresh("wbatch-flush")?;
        let mut batch = WriteBatch::new();
        let pts: Vec<Point> = (0..300).map(|t| Point::new(t, 1.0)).collect();
        batch.insert_many("s", &pts); // memtable_threshold is 250
        kv.write_batch(&batch)?;
        assert_eq!(
            kv.unflushed_points("s")?,
            0,
            "batch must flush past the threshold"
        );
        assert_eq!(kv.sealed_file_count("s")?, 1);
        let merged = MergeReader::new(&kv.snapshot("s")?).collect_merged()?;
        assert_eq!(merged.len(), 300);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn fsync_always_records_syncs() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-fsync-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                fsync_policy: FsyncPolicy::Always,
                ..Default::default()
            },
        )?;
        kv.insert("s", Point::new(1, 1.0))?;
        kv.insert("s", Point::new(2, 2.0))?;
        let io = kv.io().snapshot();
        assert_eq!(io.wal_batches, 2);
        assert_eq!(io.wal_syncs, 2);
        // A batch commits each log it touched once, and syncs it before
        // the call returns: ids 0, 16 and 32 share a log, id 1 has its own.
        for s in 1..33 {
            kv.create_series(&format!("s{s}"))?;
        }
        let mut batch = WriteBatch::new();
        for name in ["s", "s16", "s32", "s1"] {
            batch.insert_many(name, &[Point::new(3, 3.0)]);
        }
        kv.write_batch(&batch)?;
        let io = kv.io().snapshot() - io;
        assert_eq!((io.wal_batches, io.wal_syncs), (2, 2));
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn background_scheduler_bounds_sealed_files() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-sched-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 50,
                memtable_threshold: 1_000,
                compaction_auto: true,
                compaction_threshold: 3,
                compaction_interval_ms: 2,
                ..Default::default()
            },
        )?;
        assert!(kv.compaction_scheduler_running());
        // Create sealed files faster than the threshold allows.
        for round in 0..8i64 {
            let pts: Vec<Point> = (0..40)
                .map(|t| Point::new(round * 40 + t, round as f64))
                .collect();
            kv.insert_batch("s", &pts)?;
            kv.flush("s")?;
        }
        // The scheduler must merge the pile back under the threshold.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let n = kv.sealed_file_count("s")?;
            if n <= 3 {
                break;
            }
            if std::time::Instant::now() > deadline {
                return Err(format!("sealed files stuck at {n}").into());
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        // The file-count poll can observe the spliced list before the
        // scheduler thread returns from compact_run and bumps its
        // counters — wait for those too.
        loop {
            let io = kv.io().snapshot();
            if io.compactions_scheduled > 0 && io.compactions_completed > 0 {
                break;
            }
            if std::time::Instant::now() > deadline {
                return Err(format!("compaction counters stuck at {io:?}").into());
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        // Nothing lost or duplicated by background merging.
        let merged = MergeReader::new(&kv.snapshot("s")?).collect_merged()?;
        assert_eq!(merged.len(), 8 * 40);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn scheduler_entry_declines_below_threshold_manual_compact_does_not() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-minfiles-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 50,
                memtable_threshold: 1_000,
                compaction_threshold: 3,
                ..Default::default()
            },
        )?;
        for round in 0..2i64 {
            let pts: Vec<Point> = (0..40)
                .map(|t| Point::new(round * 40 + t, round as f64))
                .collect();
            kv.insert_batch("s", &pts)?;
            kv.flush("s")?;
        }
        let id = kv.series_id("s").ok_or("s not registered")?;
        // What a scheduler tick that lost a race to a manual compact
        // sees: fewer files than the threshold, so nothing to do.
        let declined = kv.inner.compact_run(id, kv.inner.compaction_threshold())?;
        assert_eq!(declined, CompactionReport::default());
        assert_eq!(kv.sealed_file_count("s")?, 2);
        assert_eq!(kv.io().snapshot().compaction_bytes_read, 0);
        // The manual entry point merges at any file count.
        let report = kv.compact("s")?;
        assert_eq!(report.files_removed, 2);
        assert_eq!(kv.sealed_file_count("s")?, 1);
        assert!(kv.io().snapshot().compaction_bytes_read > 0);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn open_with_invalid_config_creates_nothing() {
        let dir = std::env::temp_dir().join(format!("tskv-badconfig-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let err = TsKv::open(
            &dir,
            EngineConfig {
                read_threads: 0,
                ..Default::default()
            },
        );
        assert!(
            matches!(err, Err(TsKvError::InvalidConfig { .. })),
            "{err:?}"
        );
        assert!(!dir.exists(), "a refused open must not create the store");
    }

    #[test]
    fn parallel_recovery_restores_every_series_in_write_order() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-precover-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = EngineConfig {
            points_per_chunk: 20,
            memtable_threshold: 1_000,
            ..Default::default()
        };
        let n_series = 12usize;
        {
            let kv = TsKv::open(&dir, config.clone())?;
            for s in 0..n_series {
                let name = format!("series-{s}");
                // Sealed data…
                let pts: Vec<Point> = (0..60).map(|t| Point::new(t, 1.0)).collect();
                kv.insert_batch(&name, &pts)?;
                kv.flush(&name)?;
                // …then unflushed WAL-only state: an overwrite (later
                // write must win after replay), a delete, new points.
                kv.insert(&name, Point::new(10, 99.0))?;
                kv.delete(&name, 20, 29)?;
                kv.insert_batch(&name, &[Point::new(100, 2.0), Point::new(101, 2.0)])?;
            }
            // Simulated crash: drop without flushing.
        }
        let kv = TsKv::open(&dir, config)?;
        assert_eq!(kv.series_names().len(), n_series);
        for s in 0..n_series {
            let name = format!("series-{s}");
            let merged = MergeReader::new(&kv.snapshot(&name)?).collect_merged()?;
            // 60 sealed + 2 new − 10 deleted (20..=29).
            assert_eq!(merged.len(), 52, "{name}");
            // WAL replay preserved write order: the overwrite of t=10
            // (appended after the original) must win.
            let at10 = merged.iter().find(|p| p.t == 10).map(|p| p.v);
            assert_eq!(at10, Some(99.0), "{name}");
            assert!(merged.iter().all(|p| !(20..=29).contains(&p.t)), "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn single_shard_config_still_works() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-oneshard-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                write_shards: 1,
                ..Default::default()
            },
        )?;
        let mut batch = WriteBatch::new();
        for s in 0..4 {
            batch.insert_many(&format!("s{s}"), &[Point::new(1, s as f64)]);
        }
        assert_eq!(kv.write_batch(&batch)?, 4);
        assert_eq!(kv.series_names().len(), 4);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn shard_count_is_pinned_at_creation() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-pinned-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let kv = TsKv::open(
                &dir,
                EngineConfig {
                    write_shards: 4,
                    ..Default::default()
                },
            )?;
            kv.insert("s", Point::new(1, 1.0))?;
            kv.flush_all()?;
        }
        // Reopening with a different configured count must keep the
        // pinned layout (otherwise existing data would be orphaned).
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                write_shards: 32,
                ..Default::default()
            },
        )?;
        let merged = MergeReader::new(&kv.snapshot("s")?).collect_merged()?;
        assert_eq!(merged, vec![Point::new(1, 1.0)]);
        // The store runs with the pinned count, and reports it.
        assert_eq!(kv.config().write_shards, 4);
        assert_eq!(kv.inner.shards.len(), 4);
        let mut dirs = 0usize;
        for entry in std::fs::read_dir(&dir)? {
            if entry?.file_type()?.is_dir() {
                dirs += 1;
            }
        }
        assert_eq!(dirs, 4, "pinned shard count must win over config");
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    /// What a crash while pinning can leave in an otherwise empty root:
    /// an empty `SHARDS` (the non-atomic write of earlier builds) or a
    /// torn `SHARDS.tmp`. Neither pinned anything.
    #[test]
    fn a_crash_while_pinning_leaves_a_store_that_opens() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-torn-pin-{}", std::process::id()));
        for (file, bytes) in [(SHARDS_META, &b""[..]), ("SHARDS.tmp", &b"1"[..])] {
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir)?;
            std::fs::write(dir.join(file), bytes)?;
            let config = EngineConfig {
                write_shards: 4,
                ..Default::default()
            };
            let kv = TsKv::open(&dir, config)?;
            assert_eq!(kv.config().write_shards, 4, "{file}");
            assert_eq!(std::fs::read_to_string(dir.join(SHARDS_META))?, "4\n");
            assert!(!dir.join("SHARDS.tmp").exists(), "{file}");
        }
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn pre_sharding_layout_is_refused_untouched() -> TestResult {
        // No SHARDS file, one directory per series: WAL-only "hum",
        // sealed-file-only "temp"; and a sharded store that lost its
        // SHARDS file. The contents are never parsed.
        for (case, file) in [
            ("wal", "hum/series.wal"),
            ("file", "temp/00000000.tsfile"),
            ("unpinned", "shard-0000/s0-00000000.tsfile"),
        ] {
            let dir = std::env::temp_dir()
                .join(format!("tskv-presharding-{case}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let path = dir.join(file);
            std::fs::create_dir_all(path.parent().ok_or("no parent")?)?;
            std::fs::write(&path, b"old bytes")?;
            match TsKv::open(&dir, EngineConfig::default()) {
                Err(TsKvError::Corrupt(msg)) => assert!(msg.contains("no SHARDS"), "{msg}"),
                other => return Err(format!("opened as {other:?}").into()),
            }
            assert_eq!(std::fs::read(&path)?, b"old bytes");
            let mut root: Vec<_> = std::fs::read_dir(&dir)?
                .map(|e| e.map(|e| e.file_name()))
                .collect::<std::io::Result<_>>()?;
            root.sort();
            let series_dir = path.parent().and_then(|p| p.file_name()).ok_or("no name")?;
            assert_eq!(root, vec![series_dir.to_os_string()], "nothing created");
            std::fs::remove_dir_all(&dir).ok();
        }
        Ok(())
    }

    #[test]
    fn new_store_ignores_directories_it_could_not_have_created() -> TestResult {
        // A fresh volume root: `lost+found` is not a series or shard
        // name, so the unpinned-data check never looks inside it.
        let dir = std::env::temp_dir().join(format!("tskv-lostfound-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("lost+found"))?;
        std::fs::write(dir.join("lost+found/00000000.tsfile"), b"not ours")?;
        let kv = TsKv::open(&dir, EngineConfig::default())?;
        assert!(kv.series_names().is_empty());
        assert!(dir.join(SHARDS_META).exists());
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn multiple_series_are_independent() -> TestResult {
        let (dir, kv) = fresh("multi")?;
        kv.insert("a", Point::new(1, 1.0))?;
        kv.insert("b", Point::new(2, 2.0))?;
        kv.flush_all()?;
        kv.delete("a", 0, 10)?;
        let a = MergeReader::new(&kv.snapshot("a")?).collect_merged()?;
        let b = MergeReader::new(&kv.snapshot("b")?).collect_merged()?;
        assert!(a.is_empty());
        assert_eq!(b, vec![Point::new(2, 2.0)]);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    /// Whether `f` panics.
    #[cfg(debug_assertions)]
    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    #[cfg(debug_assertions)]
    #[test]
    fn durability_writers_run_under_the_shard_guard() -> TestResult {
        let (dir, kv) = fresh("durable-under-guard")?;
        kv.insert_batch("s", &[Point::new(1, 1.0)])?;
        kv.flush("s")?;
        let id = kv.series_id("s").ok_or("s not registered")?;
        let inner = &kv.inner;
        let shard = inner.shard(id);
        let mut map = shard.series.write();
        // The writers that serialize durability against the state the
        // guard protects do not check...
        shard
            .wal
            .append_inserts(id, inner.alloc.current(), &[Point::new(2, 2.0)])?;
        shard.wal.begin_flush(id)?;
        shard.wal.commit(true)?;
        inner.catalog.sync_if_dirty()?;
        let store = map.get_mut(&id).ok_or("s not instantiated")?;
        store.log.append(ModEntry::new(inner.alloc.next(), 5, 6))?;
        store.log.trim_through(inner.alloc.current())?;
        // ... and a data file's entry points do.
        let path = store.files[0].file.reader.path().to_path_buf();
        assert!(panics(|| {
            SealedFile::open(&path).ok();
        }));
        drop(map);
        assert!(!panics(|| {
            SealedFile::open(&path).ok();
        }));
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }
}
