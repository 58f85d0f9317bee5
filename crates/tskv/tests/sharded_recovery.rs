//! Recovery round-trips for the sharded, id-keyed storage layout.
//!
//! **Property: crash recovery is exact at any shard count.** A random
//! multi-series workload (inserts, deletes, single-series flushes,
//! `flush_all` group flushes that seal several series into one file,
//! compactions that take one series out of such a file, and sweeps
//! that compact every series of a shard into one file) followed
//! by a crash (drop without flush) and a reopen must restore every
//! series bit-for-bit — the per-record series tags in the shared shard
//! WALs, the catalog log, and the series-run directories of the shard
//! files all have to cooperate. The reopen deliberately configures a *different*
//! shard count: the `SHARDS` meta file pinned at first open must win.

// Tests assert by panicking; the workspace panic-freedom deny-set
// (root Cargo.toml) is aimed at library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
// Test fixtures make, corrupt and remove their own files.
#![allow(clippy::disallowed_methods)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use testdir::TestDir;

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
    /// Flush every series with buffered points: one file per shard.
    FlushAll,
    /// Compact one series (out of whatever files it shares).
    Compact(usize),
    /// Sweep every shard: one file per shard.
    CompactAll,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let sid = 0usize..SERIES.len();
    prop_oneof![
        4 => (sid.clone(), prop::collection::vec((any::<i16>(), any::<i8>()), 1..30))
            .prop_map(|(s, b)| Op::Insert(s, b)),
        1 => sid.clone().prop_map(Op::Flush),
        2 => (sid.clone(), any::<i16>(), 0i16..200).prop_map(|(s, lo, len)| {
            Op::Delete(s, lo, lo.saturating_add(len))
        }),
        1 => Just(Op::FlushAll),
        1 => sid.prop_map(Op::Compact),
        1 => Just(Op::CompactAll),
    ]
}

fn config(shards: usize) -> EngineConfig {
    EngineConfig {
        points_per_chunk: 7,
        memtable_threshold: 20,
        write_shards: shards,
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
        let dir = TestDir::new("tskv-shrec");
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
                Op::FlushAll => kv.flush_all().unwrap(),
                Op::Compact(s) => {
                    kv.compact(SERIES[*s]).unwrap();
                }
                Op::CompactAll => {
                    kv.compact_all().unwrap();
                }
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
    }
}

/// The `.tsfile`s of each shard directory of the store at `dir`.
fn data_files(dir: &Path) -> Vec<Vec<PathBuf>> {
    let mut shards: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .collect();
    shards.sort();
    shards
        .iter()
        .map(|shard| {
            let mut files: Vec<PathBuf> = std::fs::read_dir(shard)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|e| e == "tsfile"))
                .collect();
            files.sort();
            files
        })
        .collect()
}

/// Several series sharing flush files in one shard: `compact_all`
/// leaves the shard one data file, every flush file unlinked, and a
/// reopen reads each series exactly once — from its one run.
#[test]
fn compact_all_leaves_one_file_per_shard_and_each_series_once() {
    let dir = TestDir::new("tskv-shrec-sweep");
    let kv = TsKv::open(&dir, config(1)).unwrap();
    let mut model: Vec<BTreeMap<i64, f64>> = vec![BTreeMap::new(); SERIES.len()];
    // Overlapping rounds, each flushed into one file for every series,
    // and memtables small enough to flush on their own in between.
    for round in 0..4i64 {
        for (s, name) in SERIES.iter().enumerate() {
            let pts: Vec<Point> = (0..30)
                .map(|i| {
                    Point::new(
                        round * 20 + i * (s as i64 + 1),
                        (round * 10 + s as i64) as f64,
                    )
                })
                .collect();
            kv.insert_batch(name, &pts).unwrap();
            model[s].extend(pts.iter().map(|p| (p.t, p.v)));
        }
        kv.flush_all().unwrap();
    }
    kv.delete(SERIES[1], 10, 40).unwrap();
    model[1].retain(|t, _| !(10..=40).contains(t));
    let flushed = data_files(&dir);
    assert!(flushed[0].len() > 4, "{flushed:?}");

    let report = kv.compact_all().unwrap();
    assert_eq!(report.deletes_applied, 1);
    let swept = data_files(&dir);
    assert_eq!(swept[0].len(), 1, "{swept:?}");
    assert!(
        flushed[0].iter().all(|f| !f.exists()),
        "every flush file unlinked"
    );

    drop(kv);
    let kv = TsKv::open(&dir, config(1)).unwrap();
    for (s, name) in SERIES.iter().enumerate() {
        let want: Vec<Point> = model[s].iter().map(|(&t, &v)| Point::new(t, v)).collect();
        assert_eq!(merged(&kv, name), want, "{name}");
        assert_eq!(kv.sealed_file_count(name).unwrap(), 1, "{name}");
    }
    drop(kv);
}

/// An open names its phases: reopening a 1 000-series store — some of
/// it sealed into files, the rest in the shard logs — records a nonzero
/// time for the catalog read, the WAL replay and the data-file opens,
/// and the three add up to no more than the open's wall time.
#[test]
fn an_open_times_its_catalog_replay_and_file_phases() {
    let dir = TestDir::new("tskv-open-phases");
    let config = EngineConfig {
        write_shards: 4,
        ..Default::default()
    };
    {
        let kv = TsKv::open(&dir, config.clone()).unwrap();
        for i in 0..1_000i64 {
            let batch: Vec<Point> = (0..10)
                .map(|t| Point::new(t * 1_000, (i + t) as f64))
                .collect();
            kv.insert_batch(&format!("fleet.{i:04}"), &batch).unwrap();
        }
        kv.flush_all().unwrap();
        for i in 0..1_000i64 {
            kv.insert(&format!("fleet.{i:04}"), Point::new(20_000, 1.0))
                .unwrap();
        }
    }
    let clock = std::time::Instant::now();
    let kv = TsKv::open(&dir, config).unwrap();
    let wall = clock.elapsed().as_nanos() as u64;
    let io = kv.io().snapshot();
    let phases = [io.open_catalog_ns, io.open_replay_ns, io.open_files_ns];
    assert!(phases.iter().all(|&ns| ns > 0), "{phases:?}");
    assert!(phases.iter().sum::<u64>() <= wall, "{phases:?} > {wall} ns");
    assert_eq!(kv.series_count(), 1_000);
    drop(kv);
}
