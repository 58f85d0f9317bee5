//! Recovery round-trips for the sharded, id-keyed storage layout.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Property: crash recovery is exact at any shard count.** A
//!    random multi-series workload (inserts, flushes, deletes spread
//!    over several series) followed by a crash (drop without flush)
//!    and a reopen must restore every series bit-for-bit — the
//!    per-record series tags in the shared shard WALs, the catalog
//!    log, and the `s<id>-` file naming all have to cooperate. The
//!    reopen deliberately configures a *different* shard count: the
//!    `SHARDS` meta file pinned at first open must win.
//!
//! 2. **Fixture: the legacy layout migrates in place.** A committed
//!    pre-sharding store (one directory per series, per-series
//!    `series.wal`) opens under the current engine; contents, deletes
//!    and registered-but-empty series all survive, the legacy
//!    directories are gone afterwards, and a second open does not
//!    re-migrate.

// Tests assert by panicking; the workspace panic-freedom deny-set
// (root Cargo.toml) is aimed at library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use tsfile::types::Point;
use tskv::config::EngineConfig;
use tskv::readers::MergeReader;
use tskv::TsKv;

/// Series names of the workload; index = popularity rank.
const SERIES: [&str; 5] = ["a.one", "a.two", "b.one", "b.two", "c.cold"];

/// One step of a multi-series workload script.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a batch into series `0`: points as (t, v) pairs.
    Insert(usize, Vec<(i16, i8)>),
    /// Flush one series' memtable.
    Flush(usize),
    /// Delete an inclusive range from one series.
    Delete(usize, i16, i16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let sid = 0usize..SERIES.len();
    prop_oneof![
        4 => (sid.clone(), prop::collection::vec((any::<i16>(), any::<i8>()), 1..30))
            .prop_map(|(s, b)| Op::Insert(s, b)),
        1 => sid.clone().prop_map(Op::Flush),
        2 => (sid, any::<i16>(), 0i16..200).prop_map(|(s, lo, len)| {
            Op::Delete(s, lo, lo.saturating_add(len))
        }),
    ]
}

fn config(shards: usize) -> EngineConfig {
    EngineConfig {
        points_per_chunk: 7,
        memtable_threshold: 20,
        storage_shards: shards,
        ..Default::default()
    }
}

fn merged(kv: &TsKv, name: &str) -> Vec<Point> {
    let snap = kv.snapshot(name).unwrap();
    MergeReader::new(&snap).collect_merged().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sharded_recovery_is_exact(
        ops in prop::collection::vec(op_strategy(), 1..30),
        shards in 1usize..5,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "tskv-shrec-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let kv = TsKv::open(&dir, config(shards)).unwrap();
        let ids: Vec<_> = SERIES
            .iter()
            .map(|n| kv.create_series(n).unwrap())
            .collect();

        let mut model: Vec<BTreeMap<i64, f64>> = vec![BTreeMap::new(); SERIES.len()];
        for op in &ops {
            match op {
                Op::Insert(s, batch) => {
                    let pts: Vec<Point> = batch
                        .iter()
                        .map(|&(t, v)| Point::new(i64::from(t), f64::from(v)))
                        .collect();
                    kv.insert_batch_by_id(ids[*s], &pts).unwrap();
                    for p in &pts {
                        model[*s].insert(p.t, p.v);
                    }
                }
                Op::Flush(s) => kv.flush(SERIES[*s]).unwrap(),
                Op::Delete(s, lo, hi) => {
                    kv.delete(SERIES[*s], i64::from(*lo), i64::from(*hi)).unwrap();
                    let doomed: Vec<i64> = model[*s]
                        .range(i64::from(*lo)..=i64::from(*hi))
                        .map(|(&t, _)| t)
                        .collect();
                    for t in doomed {
                        model[*s].remove(&t);
                    }
                }
            }
        }
        let expected: Vec<Vec<Point>> = model
            .iter()
            .map(|m| m.iter().map(|(&t, &v)| Point::new(t, v)).collect())
            .collect();
        for (s, name) in SERIES.iter().enumerate() {
            prop_assert_eq!(&merged(&kv, name), &expected[s]);
        }

        // Crash: no flush, no clean shutdown. The reopen asks for a
        // different shard count — the SHARDS meta pin must override it.
        drop(kv);
        let kv2 = TsKv::open(&dir, config(shards + 2)).unwrap();
        prop_assert_eq!(kv2.series_count(), SERIES.len());
        for (s, name) in SERIES.iter().enumerate() {
            // Interned ids survive recovery verbatim.
            prop_assert_eq!(kv2.series_id(name), Some(ids[s]));
            prop_assert_eq!(&merged(&kv2, name), &expected[s]);
        }

        // Sealed-only recovery: flush everything, reopen, re-compare.
        kv2.flush_all().unwrap();
        drop(kv2);
        let kv3 = TsKv::open(&dir, config(shards)).unwrap();
        for (s, name) in SERIES.iter().enumerate() {
            prop_assert_eq!(&merged(&kv3, name), &expected[s]);
        }
        drop(kv3);
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// The committed fixture: a store written by the pre-sharding engine.
///
/// * `empty.sensor_1/` — registered series, empty WAL, no data.
/// * `hum/` — five unflushed points (t = 0,10,…,40, v = −t/10) living
///   only in the legacy per-series WAL.
/// * `temp/` — eight flushed points in `00000000.tsfile`, a delete of
///   \[2, 3\] in `00000000.mods`, and four unflushed WAL points;
///   merged: t ∈ 0..12 \ {2, 3} with v = 1.5·t.
fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy-v1")
}

fn expected_temp() -> Vec<Point> {
    (0..12i64)
        .filter(|t| *t != 2 && *t != 3)
        .map(|t| Point::new(t, 1.5 * t as f64))
        .collect()
}

fn expected_hum() -> Vec<Point> {
    (0..5i64).map(|i| Point::new(i * 10, -(i as f64))).collect()
}

/// The fixture's TsFiles, mods and WAL carry checksums written by the
/// byte-at-a-time CRC32 the slice-by-16 kernel replaced; they must
/// verify unchanged.
#[test]
fn legacy_fixture_with_checksums_from_the_old_crc_kernel_migrates_in_place() {
    let dir = std::env::temp_dir().join(format!("tskv-legacy-fix-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    copy_dir(&fixture_dir(), &dir);
    assert!(
        !dir.join("SHARDS").exists(),
        "fixture must be pre-migration"
    );
    assert!(dir.join("temp/series.wal").exists());

    let kv = TsKv::open(&dir, EngineConfig::default()).unwrap();
    assert_eq!(kv.series_count(), 3);
    // Sorted interning: ids are deterministic.
    let empty_id = kv.series_id("empty.sensor_1").unwrap();
    let hum_id = kv.series_id("hum").unwrap();
    let temp_id = kv.series_id("temp").unwrap();
    assert!(empty_id < hum_id && hum_id < temp_id);
    assert_eq!(merged(&kv, "empty.sensor_1"), Vec::new());
    assert_eq!(merged(&kv, "hum"), expected_hum());
    assert_eq!(merged(&kv, "temp"), expected_temp());
    let snap = kv.snapshot("temp").unwrap();
    assert_eq!(snap.deletes().len(), 1, "the mods entry survives migration");

    // The legacy directories are gone; the sharded layout replaced them.
    assert!(dir.join("SHARDS").exists());
    for legacy in ["empty.sensor_1", "hum", "temp"] {
        assert!(!dir.join(legacy).exists(), "{legacy}/ must be removed");
    }

    // Second open: no re-migration, same ids, same data.
    drop(kv);
    let before = std::fs::read_to_string(dir.join("SHARDS")).unwrap();
    let kv = TsKv::open(&dir, EngineConfig::default()).unwrap();
    assert_eq!(std::fs::read_to_string(dir.join("SHARDS")).unwrap(), before);
    assert_eq!(kv.series_id("hum"), Some(hum_id));
    assert_eq!(merged(&kv, "hum"), expected_hum());
    assert_eq!(merged(&kv, "temp"), expected_temp());

    // The recovered store is live, not read-only archaeology: new
    // writes land in the sharded layout next to migrated data.
    kv.insert_batch("temp", &[Point::new(100, 5.0)]).unwrap();
    kv.flush("temp").unwrap();
    let mut want = expected_temp();
    want.push(Point::new(100, 5.0));
    assert_eq!(merged(&kv, "temp"), want);

    drop(kv);
    std::fs::remove_dir_all(&dir).ok();
}
