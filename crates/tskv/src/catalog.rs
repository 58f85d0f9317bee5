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
//! log ([`read_log`], which the store inspector reads it with too) and
//! rebuilds both directions of the map.
//!
//! Layout: the magic [`CATALOG_MAGIC`], a head frame, then one record
//! per name interned since, in id order. Every name is front-coded
//! against the one before it (the first against the empty name):
//!
//! ```text
//! name   = varint shared     bytes the name shares with the one before it
//!        | varint suffix_len
//!        | suffix            the name's bytes after those
//! head   = varint k | k names | u32 crc (LE) of id 0 (u32 LE), then the
//!                               bytes before it
//! record = name | u32 crc (LE) of its id (u32 LE), then the name's bytes
//! ```
//!
//! Ids are dense (`0, 1, 2, …` in intern order), so a name's id is its
//! position and is not stored: a fleet's names differ in a digit or two,
//! so a record is ~7 bytes and a name in the head frame ~3. The id is
//! folded into each CRC, so a record read at a position it was not
//! written at — duplicated, or moved — fails its CRC, and when it passes
//! under another position's id, or a head frame passes where a record
//! belongs, the open refuses the store (`Corrupt`) rather than re-bind
//! data to the wrong series. A log without the magic (`TSC1`'s, with no
//! head frame, or an earlier one's) is refused the same way, untouched.
//!
//! The first intern writes the magic, an empty head frame (`k = 0`) and
//! its record. [`SeriesCatalog::checkpoint`], at the end of the
//! store-wide compaction sweep and of each background compaction pass,
//! rewrites the log as one head frame of
//! every name — `catalog.tmp` written, synced and renamed over the log —
//! so a crash leaves the old log or the new one, and at most a stray
//! `catalog.tmp` that no open reads.
//!
//! A torn tail (an incomplete final record, or one failing its CRC
//! under every id) is dropped on open, the same contract as the data
//! WAL: a crash mid-intern loses only the never-acknowledged
//! registration. Opening is read-only, as a delete log's is
//! ([`tsfile::ModsFile`]): the open remembers where the torn bytes
//! start and the first intern cuts them off before it appends, so a
//! store whose open is refused later on is left exactly as it was.
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

use tsfile::checksum::Crc32;
use tsfile::varint;

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

/// The first bytes of a catalog log of this layout (a head frame and
/// front-coded records, implicit ids).
pub const CATALOG_MAGIC: &[u8; 4] = b"TSC2";

/// The file a checkpoint writes before renaming it over the log.
pub const CATALOG_TMP: &str = "catalog.tmp";

/// Bytes of the shortest record: two one-byte varints and the CRC.
const MIN_RECORD: usize = 6;

struct LogState {
    path: PathBuf,
    /// Open for appending from the first intern on.
    file: Option<File>,
    /// Bytes of the valid prefix: the magic and whole records (0 before
    /// the first intern wrote the magic).
    valid_len: u64,
    /// Whether the open found torn bytes behind the valid prefix: the
    /// first intern cuts the file back to it.
    torn: bool,
    /// Records after the head frame: a checkpoint with none writes nothing.
    appended: usize,
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
        if self.torn {
            file.set_len(self.valid_len)?;
            file.sync_data()?;
            self.torn = false;
        }
        Ok(self.file.insert(file))
    }
}

/// What a catalog log holds, read without writing anything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CatalogLog {
    /// The registered names, the one of id `i` at index `i`.
    pub names: Vec<String>,
    /// Bytes of the valid prefix: the magic, the head frame and whole
    /// records.
    pub valid_len: u64,
    /// Names the head frame holds (the first `head` of `names`).
    pub head: usize,
    /// Bytes of the magic and the head frame.
    pub head_len: u64,
    /// Whether bytes follow the valid prefix: a torn final record, which
    /// the next intern cuts off.
    pub torn: bool,
}

/// Read `root/catalog.log` (an absent log is an empty catalog). Writes
/// nothing. A log that does not start with [`CATALOG_MAGIC`] and a whole
/// head frame, a record that passes its CRC only under another
/// position's id or is a head frame, and a name that does not decode are
/// `Corrupt`; a torn final record ends the names.
pub fn read_log(root: &Path) -> Result<CatalogLog> {
    let mut buf = Vec::new();
    match File::open(root.join(CATALOG_LOG)) {
        Ok(mut file) => {
            file.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }
    parse_log(&buf)
}

fn parse_log(buf: &[u8]) -> Result<CatalogLog> {
    let mut log = CatalogLog::default();
    // Nothing, or the magic and empty head frame cut short: a first
    // intern torn by a crash.
    if buf.len() < EMPTY_LOG_LEN && empty_log().starts_with(buf) {
        log.torn = !buf.is_empty();
        return Ok(log);
    }
    if buf.get(..CATALOG_MAGIC.len()) != Some(CATALOG_MAGIC) {
        return Err(TsKvError::Corrupt(format!(
            "{CATALOG_LOG} does not start with {:?}: a catalog of another layout",
            String::from_utf8_lossy(CATALOG_MAGIC)
        )));
    }
    let (names, mut pos) = decode_head(buf, CATALOG_MAGIC.len())?;
    (log.head, log.head_len, log.names) = (names.len(), pos as u64, names);
    while pos < buf.len() {
        let id = log.names.len();
        let prev = log.names.last().map_or("", String::as_str);
        match decode_record(buf, pos, id, prev)? {
            Some((name, next)) => {
                log.names.push(name);
                pos = next;
            }
            None => {
                log.torn = true;
                break;
            }
        }
    }
    log.valid_len = pos as u64;
    Ok(log)
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

/// The CRC of the record of `id` whose bytes before the CRC are `body`.
fn record_crc(id: usize, body: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&u32::try_from(id).unwrap_or(u32::MAX).to_le_bytes());
    crc.update(body);
    crc.finish()
}

/// Append `name` front-coded against `prev`.
fn encode_name(out: &mut Vec<u8>, prev: &str, name: &str) {
    let shared = prev
        .bytes()
        .zip(name.bytes())
        .take_while(|(a, b)| a == b)
        .count();
    let suffix = name.as_bytes().get(shared..).unwrap_or(&[]);
    varint::write_u64(out, shared as u64);
    varint::write_u64(out, suffix.len() as u64);
    out.extend_from_slice(suffix);
}

/// Append `crc32(id, out[start..])`, closing what starts at `start`.
fn seal(out: &mut Vec<u8>, start: usize, id: usize) {
    let crc = record_crc(id, out.get(start..).unwrap_or(&[]));
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Encode the record of `name`, id `id`, front-coded against `prev` (the
/// name of id `id − 1`, empty for id 0), into `out`.
fn encode_record(out: &mut Vec<u8>, id: usize, prev: &str, name: &str) {
    let start = out.len();
    encode_name(out, prev, name);
    seal(out, start, id);
}

/// Encode the head frame of `names` (ids `0..`) into `out`.
fn encode_head<S: AsRef<str>>(out: &mut Vec<u8>, names: &[S]) {
    let start = out.len();
    varint::write_u64(out, names.len() as u64);
    let mut prev = "";
    for name in names.iter().map(AsRef::as_ref) {
        encode_name(out, prev, name);
        prev = name;
    }
    seal(out, start, 0);
}

/// Bytes of a log of no name: the magic and an empty head frame.
const EMPTY_LOG_LEN: usize = CATALOG_MAGIC.len() + 5;

fn empty_log() -> Vec<u8> {
    let mut out = CATALOG_MAGIC.to_vec();
    encode_head::<&str>(&mut out, &[]);
    out
}

/// The name front-coded at `pos`: its shared count, its suffix and its
/// end, `None` where it is cut short.
fn read_name(buf: &[u8], pos: usize) -> Option<(u64, &[u8], usize)> {
    let mut at = pos;
    let shared = varint::read_u64(buf, &mut at).ok()?;
    let len = usize::try_from(varint::read_u64(buf, &mut at).ok()?).ok()?;
    let end = at.checked_add(len)?;
    Some((shared, buf.get(at..end)?, end))
}

/// The name of id `id` that shares `shared` bytes with `prev`.
fn join(prev: &str, shared: u64, suffix: &[u8], id: usize) -> Result<String> {
    usize::try_from(shared)
        .ok()
        .and_then(|shared| prev.as_bytes().get(..shared))
        .and_then(|head| String::from_utf8([head, suffix].concat()).ok())
        .ok_or_else(|| {
            TsKvError::Corrupt(format!(
                "{CATALOG_LOG}: id {id} shares {shared} bytes with {prev:?} or is not UTF-8"
            ))
        })
}

/// The names of the head frame at `pos` and where it ends: `Corrupt`
/// unless it is whole and passes its CRC.
fn decode_head(buf: &[u8], pos: usize) -> Result<(Vec<String>, usize)> {
    let bad = || TsKvError::Corrupt(format!("{CATALOG_LOG}: no whole head frame at byte {pos}"));
    let mut at = pos;
    let k = varint::read_u64(buf, &mut at).map_err(|_| bad())?;
    let mut names: Vec<String> = Vec::new();
    for id in 0..usize::try_from(k).map_err(|_| bad())? {
        let (shared, suffix, end) = read_name(buf, at).ok_or_else(bad)?;
        let prev = names.last().map_or("", String::as_str);
        names.push(join(prev, shared, suffix, id)?);
        at = end;
    }
    let crc = buf.get(at..at + 4).ok_or_else(bad)?;
    match record_crc(0, buf.get(pos..at).unwrap_or(&[])).to_le_bytes() == crc {
        true => Ok((names, at + 4)),
        false => Err(bad()),
    }
}

/// Decode the record at `pos` as the one of id `id`, whose predecessor's
/// name is `prev`: its name and where the next record starts, or `None`
/// for a torn tail — a record cut short, or one whose CRC fails under
/// every id it could have been written with and is no head frame.
fn decode_record(buf: &[u8], pos: usize, id: usize, prev: &str) -> Result<Option<(String, usize)>> {
    let Some((shared, suffix, end)) = read_name(buf, pos) else {
        return Ok(None);
    };
    let Some(crc_bytes) = end.checked_add(4).and_then(|crc_end| buf.get(end..crc_end)) else {
        return Ok(None);
    };
    let body = buf.get(pos..end).unwrap_or(&[]);
    let expected = u32::from_le_bytes(crc_bytes.try_into().unwrap_or_default());
    if record_crc(id, body) != expected {
        // A record of another id (duplicated or moved), or a head frame.
        let ids = id + 1 + buf.len().saturating_sub(pos) / MIN_RECORD;
        if let Some(other) =
            (0..ids).find(|&other| other != id && record_crc(other, body) == expected)
        {
            return Err(TsKvError::Corrupt(format!(
                "{CATALOG_LOG}: the record of id {other} sits where id {id}'s belongs"
            )));
        }
        return match decode_head(buf, pos) {
            Ok(_) => Err(TsKvError::Corrupt(format!(
                "{CATALOG_LOG}: a head frame sits where id {id}'s record belongs"
            ))),
            Err(_) => Ok(None),
        };
    }
    Ok(Some((join(prev, shared, suffix, id)?, end + 4)))
}

impl SeriesCatalog {
    /// Open the catalog backed by `root/catalog.log`, replaying every
    /// existing registration ([`read_log`]). Read-only: the file is
    /// created, or cut back past a torn final record, by the first
    /// intern. A record out of place, or a name registered twice, is a
    /// hard error.
    pub fn open(root: &Path, limit: u64, io: Arc<IoStats>) -> Result<SeriesCatalog> {
        let existing = read_log(root)?;
        let appended = existing.names.len() - existing.head;
        let mut stripes: Vec<RwLock<HashMap<Arc<str>, SeriesId>>> =
            Vec::with_capacity(NAME_STRIPES);
        for _ in 0..NAME_STRIPES {
            stripes.push(RwLock::new(HashMap::new()));
        }
        let mut names: Vec<Arc<str>> = Vec::with_capacity(existing.names.len());
        for name in existing.names {
            let id = SeriesId(names.len() as u32);
            let arc: Arc<str> = Arc::from(name.as_str());
            let prev = stripes
                .get(stripe_of(&name))
                .map(|s| s.write().insert(Arc::clone(&arc), id));
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
                path: root.join(CATALOG_LOG),
                file: None,
                valid_len: existing.valid_len,
                torn: existing.torn,
                appended,
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
        let mut rec = Vec::with_capacity(EMPTY_LOG_LEN + 14 + name.len());
        if log.valid_len == 0 {
            rec = empty_log();
        }
        {
            let names = self.names.read();
            let prev = names.last().map_or("", |prev| &**prev);
            encode_record(&mut rec, id.index(), prev, name);
        }
        log.appender()?.write_all(&rec)?;
        log.valid_len += rec.len() as u64;
        log.appended += 1;
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

    /// Rewrite the log as one head frame of every name, under the intern
    /// lock: `catalog.tmp` written and synced, renamed over the log, the
    /// directory synced. Writes nothing with no record and no torn tail.
    pub fn checkpoint(&self) -> Result<()> {
        let mut log = self.log.lock();
        if log.appended == 0 && !log.torn {
            return Ok(());
        }
        let mut buf = CATALOG_MAGIC.to_vec();
        encode_head(&mut buf, &self.names.read());
        let tmp = log.path.with_file_name(CATALOG_TMP);
        let mut file = File::create(&tmp)?;
        file.write_all(&buf)?;
        file.sync_all()?;
        std::fs::rename(&tmp, &log.path)?;
        if let Some(dir) = log.path.parent() {
            File::open(dir)?.sync_all()?;
        }
        log.file = None;
        (log.valid_len, log.torn, log.appended) = (buf.len() as u64, false, 0);
        Ok(())
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
    // Tests assert by panicking; the workspace deny-set and the
    // module-level indexing deny target library code.
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )]

    use super::*;
    use testdir::TestDir;

    fn open(root: &Path) -> SeriesCatalog {
        SeriesCatalog::open(root, 1 << 20, Arc::new(IoStats::default())).unwrap()
    }

    #[test]
    fn intern_is_dense_and_idempotent() {
        let dir = TestDir::new("tskv-catalog-dense");
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

    /// Every id ↔ name pair comes back, front coding or not: names that
    /// share nothing, names that extend or cut short the one before,
    /// multi-byte characters split by a shared prefix.
    #[test]
    fn reopen_recovers_mapping() {
        let dir = TestDir::new("tskv-catalog-reopen");
        let mut names: Vec<String> = (0..100).map(|i| format!("series.{i}")).collect();
        names.extend(
            [
                "",
                "s",
                "series.1x",
                "series.",
                "zz",
                "né",
                "nè",
                "n",
                "ééé",
                "éé",
            ]
            .map(String::from),
        );
        {
            let c = open(&dir);
            for (i, name) in names.iter().enumerate() {
                assert_eq!(c.intern(name).unwrap(), SeriesId(i as u32));
            }
        }
        let c = open(&dir);
        assert_eq!(c.len(), names.len());
        for (i, name) in names.iter().enumerate() {
            assert_eq!(c.resolve(name), Some(SeriesId(i as u32)), "{name:?}");
            assert_eq!(&*c.name_of(SeriesId(i as u32)).unwrap(), name.as_str());
        }
        // New interns continue the dense sequence.
        assert_eq!(c.intern("fresh").unwrap(), SeriesId(names.len() as u32));
        assert_eq!(read_log(&dir).unwrap().names.len(), names.len() + 1);
    }

    /// A fleet's names differ in their last digits: front-coded, 1 000
    /// of them take at most 8 bytes a series, magic included.
    #[test]
    fn a_fleet_of_names_takes_at_most_8_bytes_a_series() {
        let dir = TestDir::new("tskv-catalog-fleet");
        let c = open(&dir);
        for i in 0..1_000 {
            c.intern(&format!("card.{i:07}")).unwrap();
        }
        let bytes = std::fs::metadata(dir.join(CATALOG_LOG)).unwrap().len();
        assert!(bytes <= 8 * 1_000, "{bytes} bytes for 1 000 series");
    }

    /// The records of `names` in order, as `intern` writes them, behind
    /// the magic and an empty head frame.
    fn log_of(names: &[&str]) -> Vec<u8> {
        let mut buf = empty_log();
        for (id, name) in names.iter().enumerate() {
            let prev = id.checked_sub(1).map_or("", |p| names[p]);
            encode_record(&mut buf, id, prev, name);
        }
        buf
    }

    /// A record read where it was not written — duplicated after the
    /// last, duplicated in the middle, or two records swapped — passes
    /// its CRC only under its own id: the open is `Corrupt` and binds
    /// nothing, and the file is left as it was.
    #[test]
    fn a_duplicated_or_moved_record_refuses_to_open() {
        let dir = TestDir::new("tskv-catalog-moved");
        let log = log_of(&["a", "b", "c"]);
        let at = |id: usize| {
            let mut pos = EMPTY_LOG_LEN;
            for _ in 0..id {
                let mut at = pos;
                varint::read_u64(&log, &mut at).unwrap();
                let len = varint::read_u64(&log, &mut at).unwrap() as usize;
                pos = at + len + 4;
            }
            pos
        };
        let record = |id: usize| log[at(id)..at(id + 1)].to_vec();
        let head = log[..at(0)].to_vec();
        for (what, bytes) in [
            ("last duplicated", [&log[..], &record(2)].concat()),
            (
                "first duplicated",
                [&head[..], &record(0), &record(0)].concat(),
            ),
            (
                "middle duplicated",
                [&head[..], &record(0), &record(1), &record(1), &record(2)].concat(),
            ),
            (
                "swapped",
                [&head[..], &record(0), &record(2), &record(1)].concat(),
            ),
        ] {
            let path = dir.join(CATALOG_LOG);
            std::fs::write(&path, &bytes).unwrap();
            let got = SeriesCatalog::open(&dir, 1 << 20, Arc::new(IoStats::default()));
            assert!(matches!(got, Err(TsKvError::Corrupt(_))), "{what}: {got:?}");
            assert!(
                matches!(read_log(&dir), Err(TsKvError::Corrupt(_))),
                "{what}"
            );
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "{what}");
        }
    }

    /// A log an earlier build wrote — `u32 id | u16 len | name | crc`
    /// records, no magic — is refused as it is, every byte left alone;
    /// so is a log of foreign bytes. A log holding only the start of the
    /// magic is a first intern a crash cut: an empty catalog, and the
    /// first intern writes the magic over it.
    #[test]
    fn a_log_without_the_magic_is_refused_untouched() {
        let dir = TestDir::new("tskv-catalog-old-layout");
        let path = dir.join(CATALOG_LOG);
        let mut old = Vec::new();
        for (id, name) in [(0u32, "a"), (1, "b")] {
            let start = old.len();
            old.extend_from_slice(&id.to_le_bytes());
            old.extend_from_slice(&(name.len() as u16).to_le_bytes());
            old.extend_from_slice(name.as_bytes());
            let crc = tsfile::checksum::crc32(&old[start..]);
            old.extend_from_slice(&crc.to_le_bytes());
        }
        // The layout before head frames: `TSC1`, then records alone.
        let tsc1 = [&b"TSC1"[..], &log_of(&["a", "b"])[EMPTY_LOG_LEN..]].concat();
        for bytes in [old, tsc1, b"TSC0".to_vec(), b"X".to_vec()] {
            std::fs::write(&path, &bytes).unwrap();
            let got = SeriesCatalog::open(&dir, 1 << 20, Arc::new(IoStats::default()));
            assert!(matches!(got, Err(TsKvError::Corrupt(_))), "{got:?}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
        }
        std::fs::write(&path, &CATALOG_MAGIC[..2]).unwrap();
        {
            let c = open(&dir);
            assert!(c.is_empty());
            assert_eq!(std::fs::read(&path).unwrap(), &CATALOG_MAGIC[..2]);
            assert_eq!(c.intern("a").unwrap(), SeriesId(0));
        }
        assert_eq!(std::fs::read(&path).unwrap(), log_of(&["a"]));
    }

    /// A checkpoint rewrites the log as one head frame: 1 000 fleet
    /// names take at most 3.5 bytes a series; interns after it append
    /// records; all come back in order, and a second checkpoint folds
    /// those in.
    #[test]
    fn a_checkpoint_folds_every_record_into_the_head_frame() {
        let dir = TestDir::new("tskv-catalog-checkpoint");
        let path = dir.join(CATALOG_LOG);
        let names: Vec<String> = (0..1_000).map(|i| format!("card.{i:07}")).collect();
        {
            let c = open(&dir);
            for name in &names {
                c.intern(name).unwrap();
            }
            c.checkpoint().unwrap();
            let bytes = std::fs::metadata(&path).unwrap().len();
            assert!(bytes <= 3_500, "{bytes} bytes for 1 000 series");
            assert!(!dir.join(CATALOG_TMP).exists());
            c.intern("late.a").unwrap();
            c.intern("late.b").unwrap();
        }
        let log = read_log(&dir).unwrap();
        assert_eq!((log.head, log.names.len(), log.torn), (1_000, 1_002, false));
        assert_eq!(&log.names[..1_000], &names[..]);
        assert_eq!(&log.names[1_000..], ["late.a", "late.b"]);
        let c = open(&dir);
        c.checkpoint().unwrap();
        let log = read_log(&dir).unwrap();
        assert_eq!((log.head, log.names.len()), (1_002, 1_002));
        assert_eq!(log.valid_len, std::fs::metadata(&path).unwrap().len());
    }

    /// A stray `catalog.tmp` — torn, whole, or of foreign bytes — is not
    /// read: the open sees the log alone, and leaves both files as they
    /// were; the next checkpoint writes over it.
    #[test]
    fn a_stray_checkpoint_file_is_ignored() {
        let dir = TestDir::new("tskv-catalog-stray-tmp");
        {
            let c = open(&dir);
            c.intern("a").unwrap();
            c.intern("b").unwrap();
        }
        let log = std::fs::read(dir.join(CATALOG_LOG)).unwrap();
        let mut whole = CATALOG_MAGIC.to_vec();
        encode_head(&mut whole, &["x", "y", "z"]);
        for stray in [whole[..7].to_vec(), whole.clone(), b"junk".to_vec()] {
            std::fs::write(dir.join(CATALOG_TMP), &stray).unwrap();
            let c = open(&dir);
            assert_eq!(c.names_snapshot().len(), 2);
            assert_eq!(c.resolve("b"), Some(SeriesId(1)));
            drop(c);
            assert_eq!(std::fs::read(dir.join(CATALOG_LOG)).unwrap(), log);
            assert_eq!(std::fs::read(dir.join(CATALOG_TMP)).unwrap(), stray);
        }
        open(&dir).checkpoint().unwrap();
        assert!(!dir.join(CATALOG_TMP).exists());
        assert_eq!(read_log(&dir).unwrap().names, ["a", "b"]);
    }

    /// Interns racing checkpoints: every id is bound once, and all of
    /// them come back from a reopen in id order.
    #[test]
    fn interns_racing_a_checkpoint_all_survive_a_reopen() {
        let dir = TestDir::new("tskv-catalog-race-checkpoint");
        let c = Arc::new(open(&dir));
        let writers: Vec<_> = (0..3)
            .map(|w| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    (0..200)
                        .map(|i| (c.intern(&format!("w{w}.{i}")).unwrap(), format!("w{w}.{i}")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for _ in 0..20 {
            c.checkpoint().unwrap();
            std::thread::yield_now();
        }
        let bound: Vec<(SeriesId, String)> = writers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        drop(c);
        let c = open(&dir);
        assert_eq!(c.len(), 600);
        for (id, name) in bound {
            assert_eq!(c.resolve(&name), Some(id), "{name}");
        }
    }

    /// A head frame read where it was not written — duplicated after
    /// itself, moved behind the records, or a record moved in front of
    /// it — refuses the open, the file left as it was.
    #[test]
    fn a_head_frame_moved_or_duplicated_refuses_to_open() {
        let dir = TestDir::new("tskv-catalog-head-moved");
        let path = dir.join(CATALOG_LOG);
        let mut head = Vec::new();
        encode_head(&mut head, &["a", "b"]);
        let mut record = Vec::new();
        encode_record(&mut record, 2, "b", "c");
        let mut first = Vec::new();
        encode_record(&mut first, 0, "", "a");
        for (what, bytes) in [
            ("duplicated", [&CATALOG_MAGIC[..], &head, &head].concat()),
            (
                "moved behind a record",
                [&CATALOG_MAGIC[..], &head, &record, &head].concat(),
            ),
            (
                "a record in its place",
                [&CATALOG_MAGIC[..], &first, &head].concat(),
            ),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            let got = SeriesCatalog::open(&dir, 1 << 20, Arc::new(IoStats::default()));
            assert!(matches!(got, Err(TsKvError::Corrupt(_))), "{what}: {got:?}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "{what}");
        }
        // In place, the same bytes open.
        std::fs::write(&path, [&CATALOG_MAGIC[..], &head, &record].concat()).unwrap();
        assert_eq!(open(&dir).names_snapshot().len(), 3);
    }

    /// Opening a checkpointed log, using it, and checkpointing again
    /// with nothing new writes nothing.
    #[test]
    fn a_clean_open_of_a_checkpointed_log_writes_nothing() {
        let dir = TestDir::new("tskv-catalog-clean-open");
        let path = dir.join(CATALOG_LOG);
        {
            let c = open(&dir);
            c.intern("a").unwrap();
            c.checkpoint().unwrap();
        }
        let before = (
            std::fs::read(&path).unwrap(),
            std::fs::metadata(&path).unwrap().modified().unwrap(),
        );
        let c = open(&dir);
        assert_eq!(c.intern("a").unwrap(), SeriesId(0));
        c.sync_if_dirty().unwrap();
        c.checkpoint().unwrap();
        drop(c);
        let after = (
            std::fs::read(&path).unwrap(),
            std::fs::metadata(&path).unwrap().modified().unwrap(),
        );
        assert_eq!(before, after);
        assert!(!dir.join(CATALOG_TMP).exists());
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = TestDir::new("tskv-catalog-torn");
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

    /// A final record of full length whose CRC fails under every id —
    /// what a crash can leave where the file grew before its bytes
    /// landed — is a torn tail too: dropped, and cut by the next intern.
    #[test]
    fn a_final_record_failing_its_crc_is_a_torn_tail() {
        let dir = TestDir::new("tskv-catalog-torn-crc");
        let path = dir.join(CATALOG_LOG);
        let log = log_of(&["a", "b"]);
        let mut torn = log.clone();
        torn.extend_from_slice(&[0, 1, b'c', 0, 0, 0, 0]);
        std::fs::write(&path, &torn).unwrap();
        let c = open(&dir);
        assert_eq!(c.len(), 2);
        assert_eq!(std::fs::read(&path).unwrap(), torn);
        assert_eq!(c.intern("c").unwrap(), SeriesId(2));
        assert_eq!(std::fs::read(&path).unwrap(), log_of(&["a", "b", "c"]));
    }

    /// Opening behind a torn tail writes nothing — not the cut, not a
    /// sync — until the first intern.
    #[test]
    fn reopen_behind_a_torn_tail_writes_nothing_until_an_intern() {
        let dir = TestDir::new("tskv-catalog-torn-readonly");
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
        let fresh = TestDir::new("tskv-catalog-fresh-readonly");
        drop(open(&fresh));
        assert!(!fresh.join(CATALOG_LOG).exists());
    }

    /// A name interned behind a torn tail is read back by the next
    /// open: the intern cut the torn bytes before it appended.
    #[test]
    fn an_intern_behind_a_torn_tail_survives_reopen() {
        let dir = TestDir::new("tskv-catalog-torn-intern");
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

    /// Ids are positions: a record written for id 2 where id 1's belongs
    /// (id 1's missing) is refused, not bound to id 1.
    #[test]
    fn gapped_ids_refuse_to_open() {
        let dir = TestDir::new("tskv-catalog-gap");
        let mut buf = empty_log();
        encode_record(&mut buf, 0, "", "a");
        encode_record(&mut buf, 2, "b", "c");
        std::fs::write(dir.join(CATALOG_LOG), &buf).unwrap();
        assert!(matches!(
            SeriesCatalog::open(&dir, 1 << 20, Arc::new(IoStats::default())),
            Err(TsKvError::Corrupt(_))
        ));
    }

    #[test]
    fn limit_is_enforced() {
        let dir = TestDir::new("tskv-catalog-limit");
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
        let dir = TestDir::new("tskv-catalog-counters");
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
        let dir = TestDir::new("tskv-catalog-sync");
        let c = open(&dir);
        c.intern("a").unwrap();
        c.sync_if_dirty().unwrap();
        // Second call is a no-op (dirty flag cleared) — just must not fail.
        c.sync_if_dirty().unwrap();
    }

    #[test]
    fn racing_interns_agree() {
        let dir = TestDir::new("tskv-catalog-race");
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
