// Tests assert by panicking; the workspace deny-set targets
// library code.
#![allow(clippy::panic)]

use super::disk::{delete_log_path, is_torn_write, shard_dir_name, SHARDS_META};
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
    let bytes = [&tsfile::format::MAGIC[..], b" cut short"].concat();
    std::fs::write(&damaged, &bytes)?;
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
    // neither renamed nor skipped. `TSF2` is the generation whose
    // footer stored chunk offsets and absolute statistics, `TSF3` the
    // one whose chunk entries counted their pages, `TSF5` the one whose
    // entries wrote every extreme in full, `TSF6` the one whose entries
    // were coded against the previous LP alone, its run directory last,
    // `TSF8` the one whose pages could hold a configured stream:
    // under this layout's magic any of those footers would decode as
    // `Corrupt`, which is what a torn write of ours reads as.
    let path = dir.join(shard_dir_name(0)).join("00000000.tsfile");
    for retired in [
        &b"TSF1\0\0 a whole file of the retired format TSF1\0\0"[..],
        &b"TSF2\0\0 a whole file of the retired format TSF2\0\0"[..],
        &b"TSF3\0\0 a whole file of the retired format TSF3\0\0"[..],
        &b"TSF5\0\0 a whole file of the retired format TSF5\0\0"[..],
        &b"TSF6\0\0 a whole file of the retired format TSF6\0\0"[..],
        &b"TSF8\0\0 a whole file of the retired format TSF8\0\0"[..],
    ] {
        std::fs::write(&path, retired)?;
        match TsKv::open(&dir, EngineConfig::default()) {
            Err(TsKvError::TsFile(TsFileError::BadMagic { found })) => {
                assert_eq!(found[..], retired[..6]);
            }
            other => return Err(format!("opened as {other:?}").into()),
        }
        assert_eq!(std::fs::read(&path)?, retired);
        assert!(!path.with_extension("tsfile.corrupt").exists());
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// Every file under `dir` with its bytes, in path order.
fn store_bytes(dir: &Path) -> std::io::Result<Vec<(PathBuf, Vec<u8>)>> {
    let mut out = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = std::fs::read(&path)?;
                out.push((path, bytes));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// A store an earlier build wrote — its data file under the `TSF3`
/// magic, its catalog cut mid-record by a crash — is refused, and the
/// refused open writes nothing: not the catalog's cut, not a rename.
#[test]
fn a_refused_open_writes_nothing_the_catalog_included() -> TestResult {
    let dir = std::env::temp_dir().join(format!("tskv-refused-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    {
        let kv = TsKv::open(&dir, EngineConfig::default())?;
        for name in ["s", "t", "u"] {
            kv.insert(name, Point::new(1, 1.0))?;
        }
        kv.flush_all()?;
    }
    let data = dir.join(shard_dir_name(0)).join("00000000.tsfile");
    let mut old = std::fs::read(&data)?;
    let n = old.len();
    old[..4].copy_from_slice(b"TSF3");
    old[n - 6..n - 2].copy_from_slice(b"TSF3");
    std::fs::write(&data, &old)?;
    let catalog = dir.join("catalog.log");
    let mut torn = std::fs::read(&catalog)?;
    torn.extend_from_slice(&[3, 0, 0, 0, 9]);
    std::fs::write(&catalog, &torn)?;

    let before = store_bytes(&dir)?;
    match TsKv::open(&dir, EngineConfig::default()) {
        Err(TsKvError::TsFile(TsFileError::BadMagic { found })) => {
            assert_eq!(&found[..4], b"TSF3");
        }
        other => return Err(format!("opened as {other:?}").into()),
    }
    assert_eq!(store_bytes(&dir)?, before, "the refused open wrote");
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// A store whose catalog an earlier build wrote — `u32 id | u16 len |
/// name | crc` records, no magic — is refused before anything else is
/// read, and the refused open writes nothing anywhere in the store.
#[test]
fn an_old_layout_catalog_is_refused_and_the_store_left_as_it_was() -> TestResult {
    let dir = std::env::temp_dir().join(format!("tskv-old-catalog-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    {
        let kv = TsKv::open(&dir, EngineConfig::default())?;
        for name in ["s", "t", "u"] {
            kv.insert(name, Point::new(1, 1.0))?;
        }
        kv.flush_all()?;
        kv.insert("s", Point::new(2, 2.0))?;
    }
    let mut old = Vec::new();
    for (id, name) in ["s", "t", "u"].iter().enumerate() {
        let start = old.len();
        old.extend_from_slice(&(id as u32).to_le_bytes());
        old.extend_from_slice(&(name.len() as u16).to_le_bytes());
        old.extend_from_slice(name.as_bytes());
        let crc = tsfile::checksum::crc32(&old[start..]);
        old.extend_from_slice(&crc.to_le_bytes());
    }
    std::fs::write(dir.join("catalog.log"), &old)?;

    let before = store_bytes(&dir)?;
    match TsKv::open(&dir, EngineConfig::default()) {
        Err(TsKvError::Corrupt(msg)) => assert!(msg.contains("catalog"), "{msg}"),
        other => return Err(format!("opened as {other:?}").into()),
    }
    assert_eq!(store_bytes(&dir)?, before, "the refused open wrote");
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
        let merged = MergeReader::new(&kv.snapshot(&format!("series-{s}"))?).collect_merged()?;
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
        // Not a line, so each chunk has a body for the compaction to read.
        let pts: Vec<Point> = (0..40)
            .map(|t| Point::new(round * 40 + t, (round * 10 + t % 7) as f64))
            .collect();
        kv.insert_batch("s", &pts)?;
        kv.flush("s")?;
    }
    let id = kv.series_id("s").ok_or("s not registered")?;
    // What a scheduler tick that lost a race to a manual compact
    // sees: fewer files than the threshold, so nothing to do.
    let declined = kv
        .inner
        .compact_run(id, kv.inner.config.compaction_threshold)?;
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
        let dir =
            std::env::temp_dir().join(format!("tskv-presharding-{case}-{}", std::process::id()));
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

/// A data-file number with no successor is refused at open, naming the
/// file, before anything in the store is written: the next number of
/// its shard would overflow (and, wrapped, rename a later flush over
/// `00000000.tsfile`).
#[test]
fn a_file_number_with_no_successor_is_refused_untouched() -> TestResult {
    let dir = std::env::temp_dir().join(format!("tskv-fileno-ceiling-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    {
        let kv = TsKv::open(&dir, EngineConfig::default())?;
        kv.insert("s", Point::new(1, 1.0))?;
        kv.flush_all()?;
    }
    let listing = || -> Result<Vec<(PathBuf, Vec<u8>)>> {
        let mut files = Vec::new();
        for shard in std::fs::read_dir(&dir)? {
            let shard = shard?.path();
            if shard.is_dir() {
                for file in std::fs::read_dir(&shard)? {
                    let file = file?.path();
                    let bytes = std::fs::read(&file)?;
                    files.push((file, bytes));
                }
            }
        }
        files.sort();
        Ok(files)
    };
    for no in [u64::MAX, u64::MAX - 1] {
        let planted = dir.join(shard_dir_name(0)).join(format!("{no}.tsfile"));
        std::fs::write(&planted, b"planted")?;
        let before = listing()?;
        match TsKv::open(&dir, EngineConfig::default()) {
            Err(TsKvError::Corrupt(msg)) => assert!(msg.contains(&format!("{no}.tsfile")), "{msg}"),
            other => return Err(format!("opened as {other:?}").into()),
        }
        assert_eq!(listing()?, before);
        std::fs::remove_file(&planted)?;
    }
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

/// Every `disk` function that touches the disk checks the lock
/// discipline first: under a shard guard each one panics, with none it
/// runs.
#[cfg(debug_assertions)]
#[test]
fn disk_functions_check_for_a_live_shard_guard() -> TestResult {
    let (dir, kv) = fresh("disk-under-guard")?;
    kv.insert_batch("s", &[Point::new(1, 1.0)])?;
    kv.flush("s")?;
    let id = kv.series_id("s").ok_or("s not registered")?;
    let shard = kv.inner.shard(id);
    // The pin functions get a root of their own; the rest run on the
    // shard's directory and on a name nothing has.
    let bare = dir.with_extension("bare");
    std::fs::remove_dir_all(&bare).ok();
    std::fs::create_dir_all(&bare)?;
    let missing = shard.dir.join("missing");
    let calls: [(&str, &dyn Fn()); 9] = [
        ("create_dir", &|| drop(disk::create_dir(&shard.dir))),
        ("write_shards_meta", &|| {
            drop(disk::write_shards_meta(&bare, 4))
        }),
        ("pinned_shards", &|| drop(disk::pinned_shards(&bare, 4))),
        ("reject_unpinned_data", &|| {
            drop(disk::reject_unpinned_data(&bare))
        }),
        ("list_shard", &|| drop(disk::list_shard(&shard.dir))),
        ("settle_in_flight", &|| {
            drop(disk::settle_in_flight(&mut Default::default()))
        }),
        ("publish", &|| drop(disk::publish(&missing, &missing))),
        ("discard", &|| disk::discard(&missing, &missing)),
        ("unlink", &|| drop(disk::unlink(&missing))),
    ];
    let map = shard.series.write();
    for (name, call) in &calls {
        assert!(panics(call), "{name} ran under a shard guard");
    }
    drop(map);
    for (name, call) in &calls {
        assert!(!panics(call), "{name} panicked with no guard live");
    }
    std::fs::remove_dir_all(&bare).ok();
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
