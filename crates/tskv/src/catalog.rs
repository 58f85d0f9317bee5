//! Interned series identities.
//!
//! Production deployments scale *series count*, not points-per-series:
//! a fleet of devices each exporting a handful of signals easily
//! reaches 10⁵–10⁶ distinct series. Keying every engine map on the
//! series name means a full string hash (and often a clone) on every
//! hot-path lookup, and a `Vec<String>` materialization on every
//! scheduler sweep. The catalog fixes the unit of identity instead:
//! each name is interned exactly once into a dense [`SeriesId`] (a
//! `u32`), and every internal structure — shard maps, flush queues,
//! compaction candidate lists, change events, the decoded-chunk cache —
//! is keyed on that id. Names survive only at the API boundary, where
//! they are resolved once per request.
//!
//! ## Persistence
//!
//! The name↔id mapping must survive restarts: sealed data files and
//! shared-WAL records are tagged with ids, so losing the mapping orphans
//! the data. Interning appends one CRC-framed record to `catalog.log`
//! at the store root *before* the id is published; recovery replays the
//! log and rebuilds both directions of the map. Ids are allocated
//! densely (`0, 1, 2, …` in intern order), which recovery verifies — a
//! gap or out-of-order id means the log was tampered with or torn
//! mid-file, and the store refuses to open rather than silently
//! re-binding data to the wrong series.
//!
//! Record layout: `u32 id (LE) | u16 name_len (LE) | name bytes |
//! u32 crc` where the CRC covers everything before it. A torn tail
//! (incomplete or CRC-failing final record) is dropped on open, the
//! same contract as the data WAL: a crash mid-intern loses only the
//! never-acknowledged registration. Opening is read-only, as a delete
//! log's is ([`tsfile::ModsFile`]): the open remembers where the torn
//! bytes start and the first intern cuts them off before it appends, so
//! a store whose open is refused later on is left exactly as it was.
//!
//! Appends are written through to the OS immediately (a crash loses
//! nothing acknowledged short of power failure) but fsynced lazily:
//! [`SeriesCatalog::sync_if_dirty`] runs on the flush path before any
//! data file referencing a new id is sealed, so a power loss can never
//! leave a data file whose id the catalog forgot. Interning a million
//! series therefore costs a million buffered appends and *one* fsync.
//!
//! ## Concurrency
//!
//! Lookups ([`SeriesCatalog::resolve`]) take one striped read lock —
//! no allocation, no global point of contention. Interning serializes
//! on the log mutex (appends must hit the file in id order) with a
//! double-check so racing interners of the same name agree on one id.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]
// A durability writer: `sync_if_dirty` runs under the engine's shard lock
// on purpose (no durable id-tagged record may outlive its id's binding),
// so the log's file calls are raw and do not check for a live guard.
#![allow(clippy::disallowed_methods)]

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use tsfile::checksum::crc32;

use crate::stats::IoStats;
use crate::{Result, TsKvError};

/// Dense interned identity of one series. Allocation order: the first
/// name interned into a store is id 0, the next id 1, and so on —
/// recovery re-derives the same ids from the catalog log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesId(pub u32);

impl SeriesId {
    /// The id as an array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SeriesId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Number of read-lock stripes in the name→id table. Fixed: stripes
/// bound contention, not capacity.
const NAME_STRIPES: usize = 64;

/// Name of the catalog log file at the store root.
pub const CATALOG_LOG: &str = "catalog.log";

struct LogState {
    path: PathBuf,
    /// Open for appending from the first intern on.
    file: Option<File>,
    /// Length of the valid prefix, when the open found a torn record
    /// behind it: the first intern cuts the file back to it.
    torn_at: Option<u64>,
}

impl LogState {
    /// The log, ready to append to: opened (created if absent) on
    /// first use, and cut back to its valid prefix if the open found a
    /// torn tail — a record written behind it would be dropped with it
    /// by the next open.
    fn appender(&mut self) -> Result<&mut File> {
        let file = match self.file.take() {
            Some(file) => file,
            None => OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)?,
        };
        if let Some(valid) = self.torn_at {
            file.set_len(valid)?;
            file.sync_data()?;
            self.torn_at = None;
        }
        Ok(self.file.insert(file))
    }
}

/// The interning table: name→id (striped), id→name (dense), and the
/// append-only persistence log.
pub struct SeriesCatalog {
    stripes: Vec<RwLock<HashMap<Arc<str>, SeriesId>>>,
    names: RwLock<Vec<Arc<str>>>,
    log: Mutex<LogState>,
    dirty: AtomicBool,
    limit: u64,
    io: Arc<IoStats>,
}

impl std::fmt::Debug for SeriesCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeriesCatalog")
            .field("len", &self.len())
            .field("limit", &self.limit)
            .finish()
    }
}

fn stripe_of(name: &str) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut h);
    (h.finish() as usize) % NAME_STRIPES
}

/// Encode one catalog record into `out`.
fn encode_record(out: &mut Vec<u8>, id: u32, name: &str) {
    let start = out.len();
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    let crc = crc32(out.get(start..).unwrap_or(&[]));
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Decode one record at `pos`; `None` on a torn or corrupt tail.
fn decode_record(buf: &[u8], pos: usize) -> Option<(u32, String, usize)> {
    let id_bytes = buf.get(pos..pos.checked_add(4)?)?;
    let id = u32::from_le_bytes(id_bytes.try_into().ok()?);
    let len_at = pos.checked_add(4)?;
    let len_bytes = buf.get(len_at..len_at.checked_add(2)?)?;
    let name_len = u16::from_le_bytes(len_bytes.try_into().ok()?) as usize;
    let name_at = len_at.checked_add(2)?;
    let name_end = name_at.checked_add(name_len)?;
    let name = std::str::from_utf8(buf.get(name_at..name_end)?).ok()?;
    let crc_end = name_end.checked_add(4)?;
    let crc_bytes = buf.get(name_end..crc_end)?;
    let expected = u32::from_le_bytes(crc_bytes.try_into().ok()?);
    if crc32(buf.get(pos..name_end)?) != expected {
        return None;
    }
    Some((id, name.to_string(), crc_end))
}

impl SeriesCatalog {
    /// Open the catalog backed by `root/catalog.log`, replaying every
    /// existing registration. Read-only: the file is created, or cut
    /// back past a torn final record, by the first intern. A non-dense
    /// id sequence is a hard error.
    pub fn open(root: &Path, limit: u64, io: Arc<IoStats>) -> Result<SeriesCatalog> {
        let path = root.join(CATALOG_LOG);
        let mut existing: Vec<(u32, String)> = Vec::new();
        let mut torn_at = None;
        if path.exists() {
            let mut buf = Vec::new();
            File::open(&path)?.read_to_end(&mut buf)?;
            let mut pos = 0usize;
            while pos < buf.len() {
                match decode_record(&buf, pos) {
                    Some((id, name, next)) => {
                        existing.push((id, name));
                        pos = next;
                    }
                    None => {
                        torn_at = Some(pos as u64);
                        break;
                    }
                }
            }
        }

        let mut stripes: Vec<RwLock<HashMap<Arc<str>, SeriesId>>> =
            Vec::with_capacity(NAME_STRIPES);
        for _ in 0..NAME_STRIPES {
            stripes.push(RwLock::new(HashMap::new()));
        }
        let mut names: Vec<Arc<str>> = Vec::with_capacity(existing.len());
        for (id, name) in existing {
            if id as usize != names.len() {
                return Err(TsKvError::Corrupt(format!(
                    "catalog log: expected id {}, found {id} ({name:?})",
                    names.len()
                )));
            }
            let arc: Arc<str> = Arc::from(name.as_str());
            let prev = stripes
                .get(stripe_of(&name))
                .map(|s| s.write().insert(Arc::clone(&arc), SeriesId(id)));
            if matches!(prev, Some(Some(_))) {
                return Err(TsKvError::Corrupt(format!(
                    "catalog log: name {name:?} registered twice"
                )));
            }
            names.push(arc);
        }
        Ok(SeriesCatalog {
            stripes,
            names: RwLock::new(names),
            log: Mutex::new(LogState {
                path,
                file: None,
                torn_at,
            }),
            dirty: AtomicBool::new(false),
            limit,
            io,
        })
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.names.read().len()
    }

    /// Whether no series is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up an existing id without interning. One striped read-lock
    /// hash probe; records a catalog hit or miss.
    pub fn resolve(&self, name: &str) -> Option<SeriesId> {
        let found = self
            .stripes
            .get(stripe_of(name))
            .and_then(|s| s.read().get(name).copied());
        match found {
            Some(id) => {
                self.io.record_catalog_hit();
                Some(id)
            }
            None => {
                self.io.record_catalog_miss();
                None
            }
        }
    }

    /// Intern `name`, appending to the log if it is new. Racing callers
    /// agree on one id; the record reaches the OS before the id is
    /// published.
    pub fn intern(&self, name: &str) -> Result<SeriesId> {
        if let Some(id) = self.resolve(name) {
            return Ok(id);
        }
        let mut log = self.log.lock();
        // Double-check: another interner may have won the race between
        // our miss and taking the log lock.
        if let Some(id) = self
            .stripes
            .get(stripe_of(name))
            .and_then(|s| s.read().get(name).copied())
        {
            return Ok(id);
        }
        let next = self.names.read().len() as u64;
        if next >= self.limit {
            return Err(TsKvError::CatalogFull { limit: self.limit });
        }
        let id = SeriesId(next as u32);
        let mut rec = Vec::with_capacity(10 + name.len());
        encode_record(&mut rec, id.0, name);
        log.appender()?.write_all(&rec)?;
        self.dirty.store(true, Ordering::Release);
        let arc: Arc<str> = Arc::from(name);
        // Publish id→name before name→id so a resolve that wins the
        // race can always map its id back to a name.
        self.names.write().push(Arc::clone(&arc));
        if let Some(stripe) = self.stripes.get(stripe_of(name)) {
            stripe.write().insert(arc, id);
        }
        Ok(id)
    }

    /// The name bound to `id`, if allocated.
    pub fn name_of(&self, id: SeriesId) -> Option<Arc<str>> {
        self.names.read().get(id.index()).cloned()
    }

    /// All registered names in id order (the facade's `series_names`).
    pub fn names_snapshot(&self) -> Vec<Arc<str>> {
        self.names.read().clone()
    }

    /// Fsync the log if any intern happened since the last sync. Called
    /// on the flush path before sealing a data file, so on-disk data
    /// never references an id the catalog could forget.
    pub fn sync_if_dirty(&self) -> Result<()> {
        if self.dirty.swap(false, Ordering::AcqRel) {
            if let Some(file) = &self.log.lock().file {
                file.sync_data()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets
    // library code.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tskv-catalog-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open(root: &Path) -> SeriesCatalog {
        SeriesCatalog::open(root, 1 << 20, Arc::new(IoStats::default())).unwrap()
    }

    #[test]
    fn intern_is_dense_and_idempotent() {
        let dir = tmp("dense");
        let c = open(&dir);
        assert_eq!(c.intern("a").unwrap(), SeriesId(0));
        assert_eq!(c.intern("b").unwrap(), SeriesId(1));
        assert_eq!(c.intern("a").unwrap(), SeriesId(0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.resolve("b"), Some(SeriesId(1)));
        assert_eq!(c.resolve("zzz"), None);
        assert_eq!(&*c.name_of(SeriesId(0)).unwrap(), "a");
        assert!(c.name_of(SeriesId(9)).is_none());
    }

    #[test]
    fn reopen_recovers_mapping() {
        let dir = tmp("reopen");
        {
            let c = open(&dir);
            for i in 0..100 {
                c.intern(&format!("series.{i}")).unwrap();
            }
        }
        let c = open(&dir);
        assert_eq!(c.len(), 100);
        assert_eq!(c.resolve("series.42"), Some(SeriesId(42)));
        // New interns continue the dense sequence.
        assert_eq!(c.intern("fresh").unwrap(), SeriesId(100));
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = tmp("torn");
        {
            let c = open(&dir);
            c.intern("a").unwrap();
            c.intern("b").unwrap();
        }
        let path = dir.join(CATALOG_LOG);
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, data.get(..data.len() - 3).unwrap()).unwrap();
        let c = open(&dir);
        assert_eq!(c.len(), 1);
        assert_eq!(c.resolve("a"), Some(SeriesId(0)));
        assert_eq!(c.resolve("b"), None);
        // The torn record is cut by the first intern; re-interning works.
        assert_eq!(c.intern("b").unwrap(), SeriesId(1));
        assert_eq!(std::fs::read(&path).unwrap(), data);
    }

    /// Opening behind a torn tail writes nothing — not the cut, not a
    /// sync — until the first intern.
    #[test]
    fn reopen_behind_a_torn_tail_writes_nothing_until_an_intern() {
        let dir = tmp("torn-readonly");
        {
            let c = open(&dir);
            c.intern("a").unwrap();
            c.intern("b").unwrap();
        }
        let path = dir.join(CATALOG_LOG);
        let data = std::fs::read(&path).unwrap();
        let torn = data.get(..data.len() - 3).unwrap();
        std::fs::write(&path, torn).unwrap();
        let c = open(&dir);
        assert_eq!(c.resolve("a"), Some(SeriesId(0)));
        c.sync_if_dirty().unwrap();
        drop(c);
        assert_eq!(std::fs::read(&path).unwrap(), torn);
        // A fresh root: no file until the first intern.
        let fresh = tmp("fresh-readonly");
        drop(open(&fresh));
        assert!(!fresh.join(CATALOG_LOG).exists());
    }

    /// A name interned behind a torn tail is read back by the next
    /// open: the intern cut the torn bytes before it appended.
    #[test]
    fn an_intern_behind_a_torn_tail_survives_reopen() {
        let dir = tmp("torn-intern");
        {
            let c = open(&dir);
            c.intern("a").unwrap();
            c.intern("b").unwrap();
        }
        let path = dir.join(CATALOG_LOG);
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, data.get(..data.len() - 3).unwrap()).unwrap();
        {
            let c = open(&dir);
            assert_eq!(c.intern("c").unwrap(), SeriesId(1));
            assert_eq!(c.intern("d").unwrap(), SeriesId(2));
            c.sync_if_dirty().unwrap();
        }
        let c = open(&dir);
        assert_eq!(c.len(), 3);
        assert_eq!(c.resolve("c"), Some(SeriesId(1)));
        assert_eq!(c.resolve("d"), Some(SeriesId(2)));
    }

    #[test]
    fn gapped_ids_refuse_to_open() {
        let dir = tmp("gap");
        let mut buf = Vec::new();
        encode_record(&mut buf, 0, "a");
        encode_record(&mut buf, 2, "c");
        std::fs::write(dir.join(CATALOG_LOG), &buf).unwrap();
        assert!(matches!(
            SeriesCatalog::open(&dir, 1 << 20, Arc::new(IoStats::default())),
            Err(TsKvError::Corrupt(_))
        ));
    }

    #[test]
    fn limit_is_enforced() {
        let dir = tmp("limit");
        let c = SeriesCatalog::open(&dir, 2, Arc::new(IoStats::default())).unwrap();
        c.intern("a").unwrap();
        c.intern("b").unwrap();
        assert!(matches!(
            c.intern("c"),
            Err(TsKvError::CatalogFull { limit: 2 })
        ));
        // Existing names still intern fine at the limit.
        assert_eq!(c.intern("a").unwrap(), SeriesId(0));
    }

    #[test]
    fn hit_miss_counters_flow_to_stats() {
        let dir = tmp("counters");
        let io = Arc::new(IoStats::default());
        let c = SeriesCatalog::open(&dir, 16, Arc::clone(&io)).unwrap();
        c.intern("a").unwrap();
        c.resolve("a");
        c.resolve("a");
        c.resolve("nope");
        let snap = io.snapshot();
        assert_eq!(snap.catalog_hits, 2);
        // intern's initial resolve missed once, plus the explicit miss.
        assert_eq!(snap.catalog_misses, 2);
    }

    #[test]
    fn sync_if_dirty_only_syncs_once() {
        let dir = tmp("sync");
        let c = open(&dir);
        c.intern("a").unwrap();
        c.sync_if_dirty().unwrap();
        // Second call is a no-op (dirty flag cleared) — just must not fail.
        c.sync_if_dirty().unwrap();
    }

    #[test]
    fn racing_interns_agree() {
        let dir = tmp("race");
        let c = Arc::new(open(&dir));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                (0..50)
                    .map(|i| c.intern(&format!("s.{i}")).unwrap())
                    .collect::<Vec<_>>()
            }));
        }
        let ids: Vec<Vec<SeriesId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let first = ids.first().unwrap();
        for w in ids.iter().skip(1) {
            assert_eq!(w, first);
        }
        assert_eq!(c.len(), 50);
    }
}
