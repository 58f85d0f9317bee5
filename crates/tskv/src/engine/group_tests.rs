//! The shapes a file shared by several series adds to the engine, each
//! checked against a model of the acknowledged points: crash images
//! around a group flush, one member compacted away from under the
//! others, the last member taking the file with it, operations racing
//! the group's unlocked phase — and the one delete log a series has
//! beside however many files.
//!
//! Crash images are directory copies taken between the flush phases,
//! which is why these tests live inside the crate and drive
//! `claim_group` / `write_group` / `finish_group` themselves.

// Tests assert by panicking; the workspace deny-set targets library
// code.
#![allow(clippy::panic)]

use std::collections::BTreeMap;

use super::disk::{delete_log_path, shard_dir_name, with_suffix, SHARDS_META};
use super::flush::FLUSH_GROUP_MAX_POINTS;
use super::*;
use crate::readers::MergeReader;

type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

/// What every series must read back as: acknowledged writes, minus
/// acknowledged deletes, latest value per timestamp.
#[derive(Debug, Default)]
struct Model(BTreeMap<String, BTreeMap<i64, f64>>);

impl Model {
    fn write(&mut self, kv: &TsKv, series: &str, points: &[Point]) -> TestResult {
        kv.insert_batch(series, points)?;
        let m = self.0.entry(series.to_string()).or_default();
        m.extend(points.iter().map(|p| (p.t, p.v)));
        Ok(())
    }

    fn delete(&mut self, kv: &TsKv, series: &str, lo: i64, hi: i64) -> TestResult {
        kv.delete(series, lo, hi)?;
        if let Some(m) = self.0.get_mut(series) {
            m.retain(|t, _| !(lo..=hi).contains(t));
        }
        Ok(())
    }

    /// Every series of the model reads back exactly as modelled.
    fn check(&self, kv: &TsKv) -> TestResult {
        for (series, want) in &self.0 {
            let got = MergeReader::new(&kv.snapshot(series)?).collect_merged()?;
            let want: Vec<Point> = want.iter().map(|(&t, &v)| Point::new(t, v)).collect();
            assert_eq!(got, want, "series {series}");
        }
        Ok(())
    }
}

fn ramp(range: std::ops::Range<i64>, v: f64) -> Vec<Point> {
    range.map(|t| Point::new(t, v)).collect()
}

/// One shard, so every series shares files and one lock; memtables that
/// never fill, so every flush is one the test asked for.
fn config() -> EngineConfig {
    EngineConfig {
        points_per_chunk: 40,
        memtable_threshold: 1_000_000,
        write_shards: 1,
        ..Default::default()
    }
}

fn fresh(name: &str) -> Result<(PathBuf, TsKv)> {
    let dir = std::env::temp_dir().join(format!("tskv-group-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(with_suffix(&dir, "-image")).ok();
    let kv = TsKv::open(&dir, config())?;
    Ok((dir, kv))
}

/// What `kill -9` now would leave of the store at `dir` (acknowledged
/// bytes are in the page cache, which a copy reads).
fn crash_image(dir: &Path) -> std::io::Result<PathBuf> {
    fn copy(from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(to)?;
        for entry in std::fs::read_dir(from)? {
            let entry = entry?;
            let target = to.join(entry.file_name());
            if entry.file_type()?.is_dir() {
                copy(&entry.path(), &target)?;
            } else {
                std::fs::copy(entry.path(), &target)?;
            }
        }
        Ok(())
    }
    let image = with_suffix(dir, "-image");
    std::fs::remove_dir_all(&image).ok();
    copy(dir, &image)?;
    Ok(image)
}

/// Names in shard 0 of the store at `dir`, sorted.
fn shard_listing(dir: &Path) -> std::io::Result<Vec<String>> {
    let mut names: Vec<String> = std::fs::read_dir(dir.join(shard_dir_name(0)))?
        .map(|e| e.map(|e| e.file_name().to_string_lossy().into_owned()))
        .collect::<std::io::Result<_>>()?;
    names.sort();
    Ok(names)
}

/// The delete log of the first series created (id 0) in the store at
/// `dir`.
fn first_log(dir: &Path) -> PathBuf {
    delete_log_path(&dir.join(shard_dir_name(0)), SeriesId(0))
}

fn ids(kv: &TsKv, names: &[&str]) -> Vec<SeriesId> {
    names.iter().filter_map(|n| kv.series_id(n)).collect()
}

/// Three series with data, flushed into one shared file.
fn shared_file(
    name: &str,
) -> std::result::Result<(PathBuf, TsKv, Model), Box<dyn std::error::Error>> {
    let (dir, kv) = fresh(name)?;
    let mut model = Model::default();
    model.write(&kv, "a", &ramp(0..100, 1.0))?;
    model.write(&kv, "b", &ramp(0..90, 2.0))?;
    model.write(&kv, "c", &ramp(50..130, 3.0))?;
    kv.flush_all()?;
    assert_eq!(
        shard_listing(&dir)?,
        ["00000000.tsfile", "wal-00000000.log"],
        "one file for the three members"
    );
    Ok((dir, kv, model))
}

fn cleanup(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
    std::fs::remove_dir_all(with_suffix(dir, "-image")).ok();
}

#[test]
fn flush_all_seals_one_file_per_shard_not_one_per_series() -> TestResult {
    let dir = std::env::temp_dir().join(format!("tskv-group-located-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let kv = TsKv::open(&dir, EngineConfig::default())?;
    let shards = kv.config().write_shards;
    assert_eq!(shards, 16);
    // 1 000 registered, 900 of them with a few hundred points each.
    let mut batch = WriteBatch::new();
    for s in 0..1_000usize {
        let name = format!("fleet.{s:04}");
        kv.create_series(&name)?;
        if s % 10 != 9 {
            batch.insert_many(&name, &ramp(0..200 + (s % 7) as i64 * 30, s as f64));
        }
    }
    kv.write_batch(&batch)?;
    let rx = kv.subscribe_changes(2_048);
    let before = kv.io().snapshot();
    kv.flush_all()?;
    let io = kv.io().snapshot() - before;
    assert!(io.files_sealed <= shards as u64, "{io:?}");
    assert_eq!(io.flush_members, 900);
    assert!(io.wal_syncs <= shards as u64, "{io:?}");
    let mut sealed = 0usize;
    for shard in std::fs::read_dir(&dir)? {
        let shard = shard?.path();
        if shard.is_dir() {
            for file in std::fs::read_dir(&shard)? {
                let name = file?.file_name();
                assert!(
                    !name.to_string_lossy().ends_with(".mods"),
                    "no delete log until a delete is logged"
                );
                sealed += usize::from(name.to_string_lossy().ends_with(".tsfile"));
            }
        }
    }
    assert!(sealed <= shards, "{sealed} data files");
    // Still one Flush event per member.
    let mut events = 0usize;
    while let Some(e) = rx.try_recv() {
        assert!(matches!(e, ChangeEvent::Flush { .. }), "{e:?}");
        events += 1;
    }
    assert_eq!(events, 900);
    for s in [0usize, 8, 9, 503, 999] {
        let name = format!("fleet.{s:04}");
        let merged = MergeReader::new(&kv.snapshot(&name)?).collect_merged()?;
        let want = if s % 10 == 9 { 0 } else { 200 + (s % 7) * 30 };
        assert_eq!(merged.len(), want, "{name}");
        assert_eq!(kv.unflushed_points(&name)?, 0);
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

#[test]
fn one_member_group_is_the_same_path_with_one_run() -> TestResult {
    let (dir, kv) = fresh("single")?;
    kv.insert_batch("only", &ramp(0..100, 1.0))?;
    let before = kv.io().snapshot();
    kv.flush("only")?;
    let io = kv.io().snapshot() - before;
    assert_eq!((io.files_sealed, io.flush_members), (1, 1));
    let reader = TsFileReader::open(dir.join(shard_dir_name(0)).join("00000000.tsfile"))?;
    assert_eq!(reader.series_runs().len(), 1);
    assert_eq!(reader.chunk_metas().len(), 3); // 100 points, 40 per chunk
    cleanup(&dir);
    Ok(())
}

/// (a) The crash image holds the members' records and a cut-short file
/// under its in-flight name.
#[test]
fn torn_in_flight_file_is_quarantined_once_and_every_member_replays() -> TestResult {
    let (dir, kv) = fresh("torn")?;
    let mut model = Model::default();
    model.write(&kv, "a", &ramp(0..100, 1.0))?;
    model.write(&kv, "b", &ramp(0..90, 2.0))?;
    model.write(&kv, "c", &ramp(50..130, 3.0))?;
    let shard = &kv.inner.shards[0];
    let (members, later) = kv
        .inner
        .claim_group(shard, &ids(&kv, &["a", "b", "c"]), true);
    assert_eq!((members.len(), later.len()), (3, 0));
    let image = crash_image(&dir)?;
    let torn = image.join(shard_dir_name(0)).join("00000000.tsfile.tmp");
    std::fs::write(
        &torn,
        [
            &tsfile::format::MAGIC[..],
            b" the first pages of a file that never got its footer",
        ]
        .concat(),
    )?;
    // The store the image was taken of carries on.
    let sealed = kv.inner.write_group(shard, &members);
    kv.inner.finish_group(shard, &members, sealed)?;
    model.check(&kv)?;
    drop(kv);

    let reopened = TsKv::open(&image, config())?;
    model.check(&reopened)?;
    assert_eq!(reopened.unflushed_points("a")?, 100, "back from the WAL");
    let listing = shard_listing(&image)?;
    assert!(
        listing.contains(&"00000000.tsfile.corrupt".to_string()),
        "{listing:?}"
    );
    assert!(!torn.exists());
    drop(reopened);
    // Once: the next open finds nothing in flight and changes nothing.
    let reopened = TsKv::open(&image, config())?;
    assert_eq!(shard_listing(&image)?, listing);
    model.check(&reopened)?;
    // The quarantined file's number is not reused.
    reopened.flush_all()?;
    assert!(shard_listing(&image)?.contains(&"00000001.tsfile".to_string()));
    model.check(&reopened)?;
    cleanup(&dir);
    Ok(())
}

/// A complete file whose rename was lost takes its place; a foreign one
/// under an in-flight name was never ours to rename.
#[test]
fn complete_in_flight_file_is_adopted_and_a_foreign_one_refused() -> TestResult {
    let (dir, kv, model) = shared_file("adopt")?;
    drop(kv);
    let sdir = dir.join(shard_dir_name(0));
    std::fs::rename(
        sdir.join("00000000.tsfile"),
        sdir.join("00000000.tsfile.tmp"),
    )?;
    let kv = TsKv::open(&dir, config())?;
    model.check(&kv)?;
    assert!(sdir.join("00000000.tsfile").exists());
    drop(kv);

    let foreign = sdir.join("00000007.tsfile.tmp");
    let tsf1 = b"TSF1\0\0 not a file this build ever wrote";
    std::fs::write(&foreign, tsf1)?;
    assert!(matches!(
        TsKv::open(&dir, config()),
        Err(TsKvError::TsFile(TsFileError::BadMagic { .. }))
    ));
    assert_eq!(std::fs::read(&foreign)?, tsf1);
    cleanup(&dir);
    Ok(())
}

/// The log is synced behind the file, so a crash can find the file in
/// place, under its final name, and the log not knowing: holding all
/// the members' records — or, after a power loss, a prefix of them:
/// here cut behind `a`'s first record, so that the log lacks the
/// overwrite of 90..110 and everything after it. Such a log is older
/// than the file and must not replay over it. In both the file vouches
/// for the records (their versions lie below its chunks') and none
/// replays.
#[test]
fn crash_with_the_file_in_place_and_no_end_marker_reads_every_point_once() -> TestResult {
    for power_loss in [false, true] {
        let (dir, kv) = fresh("fileonly")?;
        let mut model = Model::default();
        model.write(&kv, "a", &ramp(0..100, 1.0))?;
        model.write(&kv, "a", &ramp(90..110, 1.5))?; // overwrites: latest wins
        model.write(&kv, "b", &ramp(0..90, 2.0))?;
        let shard = &kv.inner.shards[0];
        let (members, _) = kv.inner.claim_group(shard, &ids(&kv, &["a", "b"]), true);
        let sealed = kv.inner.write_group(shard, &members);
        let image = crash_image(&dir)?;
        let (_, cuts) = shard.wal.crash_cuts()?;
        kv.inner.finish_group(shard, &members, sealed)?;
        model.check(&kv)?;
        drop(kv);

        assert_eq!(
            shard_listing(&image)?,
            ["00000000.tsfile", "wal-00000000.log"]
        );
        if power_loss {
            // Nothing synced the log: a cut at any frame, here the first.
            let first_frame_end = *cuts.get(1).ok_or("empty log")?;
            let log = image.join(shard_dir_name(0)).join("wal-00000000.log");
            let log = std::fs::OpenOptions::new().write(true).open(log)?;
            log.set_len(first_frame_end)?;
        }
        for _ in 0..2 {
            let reopened = TsKv::open(&image, config())?;
            model.check(&reopened)?;
            assert_eq!(reopened.sealed_file_count("a")?, 1);
            assert_eq!(reopened.unflushed_points("a")?, 0, "sealed, not replayed");
            // Nothing in the log is needed: the open dropped it.
            assert_eq!(
                shard_listing(&image)?,
                ["00000000.tsfile", "wal-00000001.log"]
            );
        }
        // What is written next is newer than the file and replays;
        // sealing it and merging leaves one copy of everything.
        let reopened = TsKv::open(&image, config())?;
        model.write(&reopened, "a", &ramp(100..120, 1.75))?;
        drop(reopened);
        let reopened = TsKv::open(&image, config())?;
        model.check(&reopened)?;
        assert_eq!(reopened.unflushed_points("a")?, 20);
        reopened.flush_all()?;
        assert_eq!(reopened.compact("a")?.points_written, 120);
        assert_eq!(reopened.compact("b")?.points_written, 90);
        model.check(&reopened)?;
        drop(reopened);
        model.check(&TsKv::open(&image, config())?)?;
        cleanup(&dir);
    }
    Ok(())
}

/// A replayed record can carry a version above everything else on disk
/// (what took that version — a flush that failed, a delete — did not
/// outlive the crash). The flush that seals it must still outrank it,
/// or its run could not vouch for the record after the next crash.
#[test]
fn a_flush_after_recovery_takes_its_versions_above_the_records_it_drains() -> TestResult {
    let (dir, kv) = fresh("outrank")?;
    let a = kv.create_series("a")?;
    drop(kv);
    let sdir = dir.join(shard_dir_name(0));
    let (wal, _) = ShardWal::open(&sdir, WAL_BATCH_BYTES, WAL_SEGMENT_BYTES, |_| Version(0))?;
    wal.append_inserts(a, Version(50), &ramp(0..100, 1.0))?;
    wal.commit(false)?;
    drop(wal);

    let kv = TsKv::open(&dir, config())?;
    assert_eq!(kv.unflushed_points("a")?, 100);
    let shard = &kv.inner.shards[0];
    let (members, _) = kv.inner.claim_group(shard, &[a], true);
    let sealed = kv.inner.write_group(shard, &members);
    let image = crash_image(&dir)?;
    kv.inner.finish_group(shard, &members, sealed)?;
    assert!(kv
        .snapshot("a")?
        .chunks()
        .iter()
        .all(|c| c.version > Version(50)));
    let reopened = TsKv::open(&image, config())?;
    assert_eq!(reopened.unflushed_points("a")?, 0, "sealed, not replayed");
    assert_eq!(
        MergeReader::new(&reopened.snapshot("a")?).collect_merged()?,
        ramp(0..100, 1.0)
    );
    cleanup(&dir);
    Ok(())
}

/// (c) + (d) One member compacted out of a shared file, then the rest.
#[test]
fn members_leave_a_shared_file_one_by_one_and_the_last_takes_it() -> TestResult {
    let (dir, kv, mut model) = shared_file("leave")?;
    // A delete before the compaction lands in a's own log.
    model.delete(&kv, "a", 10, 20)?;
    model.delete(&kv, "b", 0, 5)?;
    let a = kv.series_id("a").ok_or("a")?;
    let b = kv.series_id("b").ok_or("b")?;
    assert!(shard_listing(&dir)?.contains(&format!("s{}.mods", a.0)));
    model.write(&kv, "a", &ramp(200..250, 1.5))?;
    kv.flush("a")?; // 00000001: a alone
    let report = kv.compact("a")?; // 00000002 replaces a's two runs
    assert_eq!(report.files_removed, 2);
    assert_eq!(report.deletes_applied, 1);
    model.check(&kv)?;
    // The shared file stays for b and c; a's log, trimmed of its one
    // applied entry, and a's own file are gone.
    assert_eq!(
        shard_listing(&dir)?,
        [
            "00000000.tsfile".to_string(),
            "00000002.tsfile".to_string(),
            "s1.mods".to_string(),
            "wal-00000000.log".to_string(),
        ]
    );
    assert_eq!(b.0, 1);
    let output = TsFileReader::open(dir.join(shard_dir_name(0)).join("00000002.tsfile"))?;
    let run = output.series_runs().first().ok_or("no run")?;
    assert_eq!(run.series, a.0);
    assert!(
        run.supersedes.0 > 0,
        "a compaction output says what it replaced"
    );
    for other in ["b", "c"] {
        assert_eq!(kv.sealed_file_count(other)?, 1);
    }

    // A delete after the compaction is applied and dropped by the next
    // one. a's run of the shared file is still on disk; a reopen that
    // read it again would bring back what both deletes hid.
    model.delete(&kv, "a", 30, 40)?;
    kv.compact("a")?; // 00000003
    model.check(&kv)?;
    drop(kv);
    let kv = TsKv::open(&dir, config())?;
    model.check(&kv)?;
    assert_eq!(kv.sealed_file_count("a")?, 1);
    assert_eq!(kv.sealed_file_count("b")?, 1);
    assert_eq!(kv.snapshot("b")?.deletes().len(), 1);
    assert!(shard_listing(&dir)?.contains(&"00000000.tsfile".to_string()));

    // (d) b leaves, then c — the last: the file goes, and so do their
    // logs, every entry applied. (a's is back: the reopen replayed its
    // second delete from the WAL, over an output that does not say the
    // delete was merged into it. Harmless, and trimmed like any other.)
    kv.compact("b")?;
    assert!(shard_listing(&dir)?.contains(&"00000000.tsfile".to_string()));
    model.delete(&kv, "c", 60, 70)?;
    kv.compact("c")?;
    model.check(&kv)?;
    let listing = shard_listing(&dir)?;
    assert!(
        !listing
            .iter()
            .any(|n| n.starts_with("00000000.") || n == "s1.mods" || n == "s2.mods"),
        "{listing:?}"
    );
    // Every data file left is read by someone.
    assert_eq!(listing.iter().filter(|n| n.ends_with(".tsfile")).count(), 3);
    drop(kv);
    let kv = TsKv::open(&dir, config())?;
    model.check(&kv)?;
    cleanup(&dir);
    Ok(())
}

/// A crash after the compaction output got its name and before the
/// inputs were retired leaves both generations; the reopen reads the
/// output and finishes the retirement.
#[test]
fn reopen_after_a_crash_mid_retirement_reads_only_the_output() -> TestResult {
    let (dir, kv, mut model) = shared_file("midretire")?;
    model.delete(&kv, "a", 10, 20)?;
    model.write(&kv, "a", &ramp(200..250, 1.5))?;
    kv.flush("a")?; // 00000001
    let before = crash_image(&dir)?;
    kv.compact("a")?; // 00000002
    model.check(&kv)?;
    drop(kv);
    // The image of just before, plus the output: what a crash between
    // phases C and D leaves.
    let sdir = shard_dir_name(0);
    std::fs::copy(
        dir.join(&sdir).join("00000002.tsfile"),
        before.join(&sdir).join("00000002.tsfile"),
    )?;
    let kv = TsKv::open(&before, config())?;
    model.check(&kv)?;
    assert_eq!(kv.sealed_file_count("a")?, 1);
    assert_eq!(
        shard_listing(&before)?,
        [
            "00000000.tsfile",
            "00000002.tsfile",
            "s0.mods",
            "wal-00000000.log"
        ],
        "a's own input file is retired again; a's log, never trimmed, stays"
    );
    cleanup(&dir);
    Ok(())
}

/// A delete issued while a compaction merges goes where every delete
/// goes — the series' log, above the merge's ceiling — and a flush of
/// the series that ends before the compaction does covers its WAL
/// record. A crash once the output has its name, before the inputs are
/// retired and the log trimmed, leaves the log as the delete's only
/// copy: the reopen reads it with the output, whatever the merge saw.
#[test]
fn delete_during_a_merge_is_in_the_log_whenever_the_merge_ends() -> TestResult {
    let (dir, kv, mut model) = shared_file("midmerge")?;
    model.write(&kv, "a", &ramp(200..250, 1.5))?;
    kv.flush("a")?;
    // 00000001 is sealed: the store as the compaction captures it…
    let image = crash_image(&dir)?;
    kv.compact("a")?; // 00000002: merged without the delete below
    drop(kv);
    // …and what the merge does not see: a delete over points it keeps,
    // a write, and a flush whose run covers both in the WAL.
    let racing = TsKv::open(&image, config())?;
    model.delete(&racing, "a", 30, 210)?;
    model.write(&racing, "a", &ramp(300..310, 2.5))?;
    racing.flush("a")?;
    model.check(&racing)?;
    drop(racing);
    // The compaction took 00000002 when it captured, so that flush
    // sealed 00000003; then the output got its name, and the process
    // died before the inputs were retired.
    let sdir = shard_dir_name(0);
    std::fs::rename(
        image.join(&sdir).join("00000002.tsfile"),
        image.join(&sdir).join("00000003.tsfile"),
    )?;
    std::fs::copy(
        dir.join(&sdir).join("00000002.tsfile"),
        image.join(&sdir).join("00000002.tsfile"),
    )?;
    let kv = TsKv::open(&image, config())?;
    model.check(&kv)?;
    assert_eq!(kv.sealed_file_count("a")?, 2);
    assert_eq!(
        shard_listing(&image)?,
        [
            "00000000.tsfile",
            "00000002.tsfile",
            "00000003.tsfile",
            "s0.mods",
            "wal-00000000.log"
        ],
        "a's own input is retired; the log was never beside it"
    );
    drop(kv);
    let kv = TsKv::open(&image, config())?;
    model.check(&kv)?;
    // The next merge applies the delete and trims it.
    assert_eq!(kv.compact("a")?.deletes_applied, 1);
    model.check(&kv)?;
    assert!(!shard_listing(&image)?.contains(&"s0.mods".to_string()));
    cleanup(&dir);
    Ok(())
}

/// A member whose every point is deleted still has to say, durably,
/// that its run of the shared file is dead.
#[test]
fn fully_deleted_member_leaves_a_chunkless_superseding_run() -> TestResult {
    let (dir, kv, mut model) = shared_file("alldeleted")?;
    model.delete(&kv, "a", i64::MIN, i64::MAX)?;
    let report = kv.compact("a")?;
    assert_eq!((report.files_removed, report.points_written), (1, 0));
    model.check(&kv)?;
    let sdir = dir.join(shard_dir_name(0));
    let output = TsFileReader::open(sdir.join("00000001.tsfile"))?;
    assert!(output.chunk_metas().is_empty());
    assert_eq!(output.series_runs().len(), 1);
    // Nothing to merge in it; and on reopen it keeps the shared file's
    // run of a dead, with the tombstone long gone.
    assert_eq!(kv.compact("a")?, CompactionReport::default());
    drop(kv);
    let kv = TsKv::open(&dir, config())?;
    model.check(&kv)?;
    assert!(kv.snapshot("a")?.chunks().is_empty());
    // With new data the chunkless run is merged away like any input.
    model.write(&kv, "a", &ramp(0..10, 9.0))?;
    kv.flush("a")?;
    kv.compact("a")?;
    assert!(!sdir.join("00000001.tsfile").exists());
    drop(kv);
    let kv = TsKv::open(&dir, config())?;
    model.check(&kv)?;
    cleanup(&dir);
    Ok(())
}

/// A single-series file whose every point is deleted compacts to
/// nothing but its floor: a chunkless run superseding the flush's
/// version, which is what a reopen hands the shard log as the series'
/// sealed version.
#[test]
fn fully_deleted_unshared_file_compacts_to_nothing() -> TestResult {
    let (dir, kv) = fresh("alldeleted-alone")?;
    let mut model = Model::default();
    model.write(&kv, "a", &ramp(0..100, 1.0))?;
    kv.flush("a")?;
    let flushed = kv.snapshot("a")?.chunks().iter().map(|c| c.version).max();
    model.delete(&kv, "a", 0, 1_000)?;
    let untrimmed = std::fs::read(first_log(&dir))?;
    kv.compact("a")?;
    assert_eq!(
        shard_listing(&dir)?,
        ["00000001.tsfile", "wal-00000000.log"]
    );
    let output = TsFileReader::open(dir.join(shard_dir_name(0)).join("00000001.tsfile"))?;
    assert!(output.chunk_metas().is_empty());
    let floor = output.series_runs().first().map(|r| r.supersedes);
    assert_eq!(floor, flushed);
    model.check(&kv)?;
    drop(kv);
    // A crash after the input's unlink and before the trim. The entry
    // hides nothing, but its version counts: what is sealed next
    // outranks it.
    let image = crash_image(&dir)?;
    std::fs::write(first_log(&image), untrimmed)?;
    let kv = TsKv::open(&image, config())?;
    assert_eq!(kv.snapshot("a")?.deletes().len(), 1);
    model.write(&kv, "a", &ramp(0..10, 2.0))?;
    kv.flush("a")?;
    drop(kv);
    model.check(&TsKv::open(&image, config())?)?;
    cleanup(&dir);
    Ok(())
}

#[test]
fn retiring_one_member_keeps_the_others_cache_entries() -> TestResult {
    let (dir, kv, model) = shared_file("cache")?;
    model.check(&kv)?; // decodes every chunk of a, b and c into the cache
    let cache = kv.cache().ok_or("cache disabled")?;
    let cached = cache.len();
    let a_chunks = kv.snapshot("a")?.chunks().len();
    assert!(cached >= a_chunks + 2);
    let before = kv.io().snapshot();
    kv.compact("a")?;
    assert_eq!(cache.len(), cached - a_chunks, "only a's entries dropped");
    let after_compact = kv.io().snapshot();
    assert_eq!(
        (after_compact - before).cache_invalidations,
        a_chunks as u64
    );
    for other in ["b", "c"] {
        MergeReader::new(&kv.snapshot(other)?).collect_merged()?;
    }
    let reads = kv.io().snapshot() - after_compact;
    assert_eq!(reads.cache_misses, 0, "b and c still hit");
    assert!(reads.cache_hits > 0);
    cleanup(&dir);
    Ok(())
}

/// (e) Between a group's claim and its install the shard lock is free: a write and a delete that land there order after
/// the flush, in memory and in the log.
#[test]
fn write_and_delete_racing_a_group_flush_land_after_it() -> TestResult {
    let (dir, kv) = fresh("race")?;
    let mut model = Model::default();
    model.write(&kv, "a", &ramp(0..100, 1.0))?;
    model.write(&kv, "b", &ramp(0..90, 2.0))?;
    let shard = &kv.inner.shards[0];
    let (members, _) = kv.inner.claim_group(shard, &ids(&kv, &["a", "b"]), true);
    // Mid-flush: the drained points are still readable…
    model.check(&kv)?;
    // …an overwrite of one of them and a delete over others arrive…
    model.write(&kv, "a", &[Point::new(5, 99.0), Point::new(500, 99.0)])?;
    model.delete(&kv, "a", 40, 60)?;
    // A crash right here: the delete is acknowledged, so its record is
    // on disk, and everything before it.
    let image = crash_image(&dir)?;
    model.check(&TsKv::open(&image, config())?)?;
    model.delete(&kv, "b", 0, 9)?;
    model.check(&kv)?;
    // …and a second flush of a member just skips (auto) — its slot is
    // taken.
    kv.inner.flush_group(&ids(&kv, &["a"]), false)?;
    assert_eq!(kv.sealed_file_count("a")?, 0);
    let sealed = kv.inner.write_group(shard, &members);
    kv.inner.finish_group(shard, &members, sealed)?;
    model.check(&kv)?;
    // The racing write stayed in the memtable; the racing deletes were
    // logged against the file that did not exist when they were issued.
    assert_eq!(kv.unflushed_points("a")?, 2);
    assert_eq!(kv.snapshot("a")?.deletes().len(), 1);
    assert_eq!(kv.snapshot("b")?.deletes().len(), 1);
    drop(kv);
    let kv = TsKv::open(&dir, config())?;
    model.check(&kv)?;
    assert_eq!(
        kv.unflushed_points("a")?,
        2,
        "above the flush's versions: replayed"
    );
    cleanup(&dir);
    Ok(())
}

/// The WAL syncs one flush pays, per policy: none when it covered the
/// whole log (the reset's truncate + sync is its log sync), one when
/// another series' records keep the log alive, none ever under `Never`
/// — nor under `Always`, which synced every record as it was committed,
/// a flush appending nothing to the log. With a bystander keeping the
/// log alive, the flush leaves its bytes as they were.
#[test]
fn flush_syncs_the_log_only_if_a_replay_still_needs_it() -> TestResult {
    use FsyncPolicy::{Always, Never, OnFlush};
    for (fsync_policy, alone, sharing) in [(OnFlush, 0, 1), (Always, 0, 0), (Never, 0, 0)] {
        let (dir, kv) = fresh("budget")?;
        drop(kv);
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                fsync_policy,
                ..config()
            },
        )?;
        let flush_a = || -> Result<(u64, u64)> {
            let before = kv.io().snapshot();
            kv.flush("a")?;
            let io = kv.io().snapshot() - before;
            Ok((io.files_sealed, io.wal_syncs))
        };
        kv.insert_batch("a", &ramp(0..100, 1.0))?;
        assert_eq!(flush_a()?, (1, alone), "{fsync_policy:?}");
        kv.insert_batch("a", &ramp(100..200, 1.0))?;
        kv.insert_batch("b", &ramp(0..100, 2.0))?;
        let log = dir.join(shard_dir_name(0)).join("wal-00000000.log");
        let before = std::fs::metadata(&log)?.len();
        assert_eq!(flush_a()?, (1, sharing), "{fsync_policy:?}");
        assert_eq!(std::fs::metadata(&log)?.len(), before, "{fsync_policy:?}");
        cleanup(&dir);
    }
    Ok(())
}

/// The file could not be written: every member's points go back,
/// behind whatever landed meanwhile, and stay in the log.
#[test]
fn failed_group_write_puts_every_members_points_back() -> TestResult {
    let (dir, kv) = fresh("abort")?;
    let mut model = Model::default();
    model.write(&kv, "a", &ramp(0..100, 1.0))?;
    model.write(&kv, "b", &ramp(0..90, 2.0))?;
    let shard = &kv.inner.shards[0];
    let (members, _) = kv.inner.claim_group(shard, &ids(&kv, &["a", "b"]), true);
    model.write(&kv, "a", &[Point::new(5, 99.0)])?; // newer: must win
    model.delete(&kv, "b", 0, 9)?; // newer: must hide
    let failed = Err(TsKvError::Corrupt("injected: disk full".into()));
    assert!(kv.inner.finish_group(shard, &members, failed).is_err());
    model.check(&kv)?;
    assert_eq!(kv.unflushed_points("a")?, 100);
    assert_eq!(kv.unflushed_points("b")?, 80);
    assert_eq!(kv.io().snapshot().files_sealed, 0);
    // Both slots are free again, and the next flush seals them.
    let image = crash_image(&dir)?;
    kv.flush_all()?;
    model.check(&kv)?;
    assert_eq!(kv.unflushed_points("a")?, 0);
    drop(kv);
    // A crash before that flush: the log never learnt a sealed version
    // for them, so everything replays.
    let kv = TsKv::open(&image, config())?;
    model.check(&kv)?;
    cleanup(&dir);
    Ok(())
}

#[test]
fn group_is_capped_by_points_held_and_the_rest_follow_in_order() -> TestResult {
    let (dir, kv) = fresh("cap")?;
    drop(kv);
    // Memtables that can hold the cap, and chunks sized for it.
    let roomy = EngineConfig {
        points_per_chunk: 1 << 16,
        memtable_threshold: usize::MAX,
        ..config()
    };
    let kv = TsKv::open(&dir, roomy)?;
    let mut model = Model::default();
    model.write(&kv, "a", &ramp(0..FLUSH_GROUP_MAX_POINTS as i64, 0.0))?;
    model.write(&kv, "b", &ramp(0..100, 1.0))?;
    model.write(&kv, "c", &ramp(0..100, 2.0))?;
    let all = ids(&kv, &["a", "b", "c"]);
    // a alone reaches the cap; b and c wait for the next group.
    let shard = &kv.inner.shards[0];
    let (members, later) = kv.inner.claim_group(shard, &all, true);
    assert_eq!(members.iter().map(|m| m.id).collect::<Vec<_>>(), all[..1]);
    assert_eq!(later, all[1..]);
    let sealed = kv.inner.write_group(shard, &members);
    kv.inner.finish_group(shard, &members, sealed)?;
    kv.flush_all()?;
    assert_eq!(kv.io().snapshot().files_sealed, 2);
    model.check(&kv)?;
    cleanup(&dir);
    Ok(())
}

/// `file`, named the way a retired layout named it, in a pinned store:
/// the open fails on the name — the contents are never parsed — and
/// leaves the store as it was, `SHARDS` included.
fn refused_untouched(name: &str, file: &str, names: &str) -> TestResult {
    let (dir, kv, _) = shared_file(name)?;
    drop(kv);
    let old = dir.join(shard_dir_name(0)).join(file);
    let held = b"TSF2\0\0 whatever the retired shape held";
    std::fs::write(&old, held)?;
    let before = shard_listing(&dir)?;
    let pinned = std::fs::metadata(dir.join(SHARDS_META))?.modified()?;
    match TsKv::open(&dir, config()) {
        Err(TsKvError::Corrupt(msg)) => assert!(msg.contains(names), "{msg}"),
        other => return Err(format!("opened as {other:?}").into()),
    }
    assert_eq!(shard_listing(&dir)?, before);
    assert_eq!(std::fs::read(&old)?, held);
    let repinned = std::fs::metadata(dir.join(SHARDS_META))?.modified()?;
    assert_eq!(repinned, pinned);
    cleanup(&dir);
    Ok(())
}

#[test]
fn retired_per_series_file_shape_is_refused_untouched() -> TestResult {
    refused_untouched("oldshape", "s3-00000002.tsfile", "s<id>-<fileno>")
}

#[test]
fn per_run_delete_logs_of_the_retired_shape_are_refused_untouched() -> TestResult {
    refused_untouched("oldlogs", "00000000.s1.mods", "<fileno>.s<id>.mods")
}

/// 64 overlapping runs and one delete over all of them: one log, one
/// entry, one WAL sync.
#[test]
fn a_delete_is_logged_once_whatever_it_overlaps() -> TestResult {
    let (dir, kv) = fresh("once")?;
    let mut model = Model::default();
    for run in 0..64i64 {
        model.write(&kv, "a", &ramp(run..run + 100, run as f64))?;
        kv.flush("a")?;
    }
    assert_eq!(kv.sealed_file_count("a")?, 64);
    let before = kv.io().snapshot();
    model.delete(&kv, "a", 60, 110)?;
    assert_eq!((kv.io().snapshot() - before).wal_syncs, 1);
    let mut listing = shard_listing(&dir)?;
    listing.retain(|n| n.ends_with(".mods"));
    assert_eq!(listing, ["s0.mods"]);
    let logged = ModsFile::open(first_log(&dir))?;
    assert_eq!(logged.entries().len(), 1);
    assert_eq!(kv.snapshot("a")?.deletes(), logged.entries());
    model.check(&kv)?;
    cleanup(&dir);
    Ok(())
}

/// The trim is the one step of a compaction that may fail and leave
/// the compaction done: a directory squatting on the rewrite's
/// in-flight name makes it fail.
#[test]
fn a_failing_log_trim_leaves_the_series_as_it_was() -> TestResult {
    let (dir, kv) = fresh("trimfail")?;
    let mut model = Model::default();
    model.write(&kv, "a", &ramp(0..100, 1.0))?;
    kv.flush("a")?;
    model.write(&kv, "a", &ramp(50..150, 2.0))?;
    kv.flush("a")?;
    model.delete(&kv, "a", 10, 60)?;
    // Only a trim that keeps an entry rewrites, and the entry it keeps
    // is a delete issued while the merge ran. Standing in for one: an
    // entry above any ceiling, over a range nothing is written to.
    let during = ModEntry::new(Version(1 << 40), 5_000, 6_000);
    {
        let mut map = kv.inner.shard(SeriesId(0)).series.write();
        let store = map.get_mut(&SeriesId(0)).ok_or("no store")?;
        store.log.append(during)?;
    }
    let log = first_log(&dir);
    let untrimmed = std::fs::read(&log)?;
    std::fs::create_dir(with_suffix(&log, ".tmp"))?;
    let report = kv.compact("a")?;
    assert_eq!((report.files_removed, report.deletes_applied), (2, 2));
    assert_eq!(kv.sealed_file_count("a")?, 1);
    assert_eq!(std::fs::read(&log)?, untrimmed);
    assert_eq!(kv.snapshot("a")?.deletes().len(), 2);
    model.check(&kv)?;
    // The untrimmed log is the harmless superset, after a reopen too.
    model.check(&TsKv::open(crash_image(&dir)?, config())?)?;
    // With the name free, the next compaction trims what both applied.
    std::fs::remove_dir(with_suffix(&log, ".tmp"))?;
    kv.compact("a")?;
    assert_eq!(kv.snapshot("a")?.deletes(), [during]);
    assert_eq!(ModsFile::open(&log)?.entries(), [during]);
    model.check(&kv)?;
    cleanup(&dir);
    Ok(())
}
