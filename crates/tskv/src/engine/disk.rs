//! The engine's one line to the disk: every raw `std::fs` call it makes
//! and every name it spells there — `SHARDS`, `shard-NNNN/`, and in a
//! shard `NNNNNNNN.tsfile`, its in-flight `.tmp` and quarantined
//! `.corrupt` forms, and `s<id>.mods`. The open path creates the
//! directories, reads or writes the `SHARDS` pin, refuses the retired
//! layouts, and lists and settles each shard; a seal publishes (renames)
//! or discards its file; a retirement unlinks one. Everything else the
//! engine does to a file goes through a tsfile entry point, which checks
//! the lock discipline itself.
//!
//! Every function here that touches the disk calls
//! [`tsfile::lockcheck::check_io`] first, so in a debug build it panics
//! under a live shard guard (on the open path no lock exists yet). The
//! ones that only spell a name touch nothing and may run under a guard.

// The engine's raw file I/O lives here and nowhere else, and each
// function below runs `check_io` before its first raw call.
#![allow(clippy::disallowed_methods)]

use super::*;

/// Meta file at the store root pinning the shard count.
pub(super) const SHARDS_META: &str = "SHARDS";

/// The largest data-file number an open accepts. Numbers grow by one
/// per sealed file and are never reused, so no store comes near it; a
/// larger one was planted or damaged, and the shard's next number would
/// have no successor (a debug build panics, a release build wraps and
/// renames a later flush over file 0).
const MAX_FILENO: u64 = u64::MAX / 2;

/// Directory name of shard `i`. Four digits cover [`MAX_WRITE_SHARDS`]
/// and keep lexicographic order equal to numeric order.
pub(super) fn shard_dir_name(i: usize) -> String {
    format!("shard-{i:04}")
}

impl Shard {
    /// Path of a data file of this shard that no file has had yet.
    pub(super) fn next_data_path(&self) -> PathBuf {
        let no = self.next_fileno.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!("{no:08}.tsfile"))
    }
}

/// Path of series `id`'s delete log in its shard directory `sdir`. It
/// exists only once a delete has been logged.
pub(super) fn delete_log_path(sdir: &Path, id: SeriesId) -> PathBuf {
    sdir.join(format!("s{}.mods", id.0))
}

/// `path` with `suffix` appended to its file name.
pub(super) fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

/// Where a data file is written before it is complete. A `*.tsfile` in
/// a shard directory is therefore always a finished, synced file: the
/// name appears by rename, after `sync_all`.
pub(super) fn in_flight_path(path: &Path) -> PathBuf {
    with_suffix(path, ".tmp")
}

/// Create `dir` and any missing parent.
pub(super) fn create_dir(dir: &Path) -> Result<()> {
    tsfile::lockcheck::check_io();
    Ok(std::fs::create_dir_all(dir)?)
}

/// Write the `SHARDS` meta file pinning the shard count the way data
/// files are written: under an in-flight name, synced, then renamed, so
/// a crash leaves either no pin or a whole one.
pub(super) fn write_shards_meta(dir: &Path, n: usize) -> Result<()> {
    use std::io::Write as _;
    tsfile::lockcheck::check_io();
    let path = dir.join(SHARDS_META);
    let tmp = in_flight_path(&path);
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
pub(super) fn pinned_shards(dir: &Path, configured: usize) -> Result<usize> {
    tsfile::lockcheck::check_io();
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
pub(super) fn reject_unpinned_data(dir: &Path) -> Result<()> {
    tsfile::lockcheck::check_io();
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

/// What a shard directory holds besides WAL segments: the finished
/// data files (in ascending number once [`settle_in_flight`] has run),
/// files still under their in-flight name, the first number no file
/// has had, and the series with a delete log.
#[derive(Debug, Default)]
pub(super) struct ShardListing {
    pub(super) data: Vec<(u64, PathBuf)>,
    in_flight: Vec<(u64, PathBuf)>,
    pub(super) next_fileno: u64,
    pub(super) logged: Vec<SeriesId>,
}

/// List shard directory `sdir` without touching it. The retired shapes
/// — `s<id>-<fileno>.tsfile`, one file per series, whose footer has no
/// series-run directory, and `<fileno>.s<id>.mods`, one delete log per
/// run — are refused here, before anything in the store is written:
/// this build reads one shape of each. So is a file number above
/// [`MAX_FILENO`].
pub(super) fn list_shard(sdir: &Path) -> Result<ShardListing> {
    tsfile::lockcheck::check_io();
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
        let (no, list) = if let Some(stem) = name.strip_suffix(".mods") {
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
            (no, Some(&mut listing.data))
        } else if let Some(no) = name.strip_suffix(".tsfile.tmp").and_then(number) {
            (no, Some(&mut listing.in_flight))
        } else if let Some(no) = name.strip_suffix(".tsfile.corrupt").and_then(number) {
            (no, None) // quarantined by an earlier open: only its number matters
        } else {
            continue;
        };
        if no > MAX_FILENO {
            return Err(TsKvError::Corrupt(format!(
                "{}: file number {no} is above {MAX_FILENO}, so the shard's next \
                 file would have no number",
                path.display()
            )));
        }
        listing.next_fileno = listing.next_fileno.max(no + 1);
        if let Some(list) = list {
            list.push((no, path));
        }
    }
    Ok(listing)
}

/// Settle what a crash left under in-flight names. A file cut short
/// never had a log reclamation or an unlinked input depend on it — those
/// follow the rename — so it is quarantined (`<fileno>.tsfile.corrupt`)
/// and its points come back from the shard WAL (flush) or are still in
/// the older generation (compaction). A complete one only lost its
/// rename and takes its place among the data files.
pub(super) fn settle_in_flight(listing: &mut ShardListing) -> Result<()> {
    tsfile::lockcheck::check_io();
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

/// Whether `e` is what a crash mid-write leaves behind: a file cut short
/// (even before its head magic) or whose footer does not verify. A
/// foreign magic is not — the writer emits `tsfile::format::MAGIC`
/// first, so such a file was never ours to rename — and neither is a
/// failing disk. Every footer layout bumps that magic, so a file of an
/// earlier layout is foreign here, never torn.
pub(super) fn is_torn_write(e: &TsFileError) -> bool {
    match e {
        TsFileError::Io(io) => io.kind() == std::io::ErrorKind::UnexpectedEof,
        TsFileError::UnexpectedEof { .. }
        | TsFileError::ChecksumMismatch { .. }
        | TsFileError::Corrupt(_) => true,
        _ => false,
    }
}

/// Give the finished in-flight file `tmp` its data-file name `path`. No
/// directory sync follows the rename: a crash that loses it leaves the
/// complete file under its in-flight name, and the next open adopts it
/// ([`settle_in_flight`]).
pub(super) fn publish(tmp: &Path, path: &Path) -> Result<()> {
    tsfile::lockcheck::check_io();
    Ok(std::fs::rename(tmp, path)?)
}

/// Remove whatever a failed seal left at the in-flight name `tmp` or the
/// data-file name `path`.
pub(super) fn discard(tmp: &Path, path: &Path) {
    tsfile::lockcheck::check_io();
    std::fs::remove_file(tmp).ok();
    std::fs::remove_file(path).ok();
}

/// Unlink the data file at `path`: its last live run was retired.
pub(super) fn unlink(path: &Path) -> std::io::Result<()> {
    tsfile::lockcheck::check_io();
    std::fs::remove_file(path)
}
