//! Write-path stress: racing batched writers against the sequential
//! oracle, and the background compaction scheduler against manual
//! compaction.
//!
//! The sharded write path (one lock and one log per shard, group
//! commit, WAL batching) must be invisible to readers: N threads
//! draining a shared job queue of per-series batches must leave the
//! store byte-for-byte identical to one thread applying the same
//! batches in sequence — across flushes, reopen (WAL replay), and the
//! background compaction scheduler.

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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tsfile::types::Point;
use tskv::config::EngineConfig;
use tskv::readers::MergeReader;
use tskv::{TsKv, WriteBatch};

const SERIES: usize = 16;
const WRITERS: usize = 4;
const BATCHES_PER_SERIES: usize = 12;
const BATCH_POINTS: usize = 37;

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "tskv-ingest-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

/// Deterministic per-series batch: unique timestamps within a series,
/// values encoding (series, index) so any misrouted point is caught.
fn batch(series: usize, batch_idx: usize) -> Vec<Point> {
    (0..BATCH_POINTS)
        .map(|i| {
            let t = (batch_idx * BATCH_POINTS + i) as i64 * 10 + series as i64;
            Point::new(t, (series * 1_000_000 + batch_idx * 1_000 + i) as f64)
        })
        .collect()
}

fn small_store_config() -> EngineConfig {
    EngineConfig {
        points_per_chunk: 16,
        memtable_threshold: 64,
        cache_capacity_bytes: 0,
        read_threads: 1,
        write_shards: 8,
        ..Default::default()
    }
}

fn merged(kv: &TsKv, name: &str) -> Vec<Point> {
    let snap = kv.snapshot(name).unwrap();
    MergeReader::new(&snap).collect_merged().unwrap()
}

#[test]
fn racing_writers_match_sequential_oracle() {
    // Shared job queue: (series, batch) pairs interleaved round-robin,
    // claimed by atomic cursor — the same discipline `tskv::pool` uses.
    let mut jobs: Vec<(usize, usize)> = Vec::new();
    for b in 0..BATCHES_PER_SERIES {
        for s in 0..SERIES {
            jobs.push((s, b));
        }
    }
    let names: Vec<String> = (0..SERIES).map(|s| format!("s{s}")).collect();

    let racy_dir = scratch("racy");
    let kv = TsKv::open(&racy_dir, small_store_config()).unwrap();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..WRITERS {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(s, b)) = jobs.get(i) else { break };
                let mut wb = WriteBatch::new();
                wb.insert_many(&names[s], &batch(s, b));
                kv.write_batch(&wb).unwrap();
            });
        }
    });

    // Oracle: one thread, same batches, in sequence.
    let oracle_dir = scratch("oracle");
    let oracle = TsKv::open(&oracle_dir, small_store_config()).unwrap();
    for &(s, b) in &jobs {
        oracle.insert_batch(&names[s], &batch(s, b)).unwrap();
    }

    for name in &names {
        assert_eq!(
            merged(&kv, name),
            merged(&oracle, name),
            "series {name} diverged"
        );
        assert_eq!(merged(&kv, name).len(), BATCHES_PER_SERIES * BATCH_POINTS);
    }

    // Reopen: group-committed WAL frames must replay to the same state.
    drop(kv);
    let kv = TsKv::open(&racy_dir, small_store_config()).unwrap();
    for name in &names {
        assert_eq!(
            merged(&kv, name),
            merged(&oracle, name),
            "series {name} lost on replay"
        );
    }

    drop(kv);
    drop(oracle);
    std::fs::remove_dir_all(&racy_dir).ok();
    std::fs::remove_dir_all(&oracle_dir).ok();
}

#[test]
fn background_compaction_bounds_sealed_files_without_changing_results() {
    let dir = scratch("sched");
    let threshold = 3usize;
    let config = EngineConfig {
        points_per_chunk: 8,
        memtable_threshold: 16,
        cache_capacity_bytes: 0,
        read_threads: 1,
        compaction_auto: true,
        compaction_threshold: threshold,
        compaction_interval_ms: 5,
        ..Default::default()
    };
    let kv = TsKv::open(&dir, config.clone()).unwrap();
    assert!(kv.compaction_scheduler_running());

    // Interleave inserts, explicit flushes and deletes while the
    // scheduler compacts underneath; reads must always equal the model.
    let mut model: BTreeMap<i64, f64> = BTreeMap::new();
    for round in 0..30i64 {
        let pts: Vec<Point> = (0..20)
            .map(|i| Point::new(round * 20 + i, (round * 100 + i) as f64))
            .collect();
        kv.insert_batch("s", &pts).unwrap();
        for p in &pts {
            model.insert(p.t, p.v);
        }
        kv.flush("s").unwrap();
        if round % 7 == 3 {
            let (start, end) = (round * 20 - 15, round * 20 - 5);
            kv.delete("s", start, end).unwrap();
            let doomed: Vec<i64> = model.range(start..=end).map(|(&t, _)| t).collect();
            for t in doomed {
                model.remove(&t);
            }
        }
        let expected: Vec<Point> = model.iter().map(|(&t, &v)| Point::new(t, v)).collect();
        assert_eq!(
            merged(&kv, "s"),
            expected,
            "round {round} diverged mid-compaction"
        );
    }

    // The scheduler must drive the sealed-file count down to the
    // threshold (30 flushes happened; without it the count sits at 30
    // minus whatever raced through).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let sealed = kv.sealed_file_count("s").unwrap();
        // The count drops when a compaction installs its output; the
        // scheduler counts it completed once the inputs are retired too.
        if sealed <= threshold && kv.io().snapshot().compactions_completed > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "scheduler failed to bound sealed files: {sealed} > {threshold}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let snap = kv.io().snapshot();
    assert!(
        snap.compactions_scheduled > 0,
        "scheduler never ran: {snap:?}"
    );
    assert!(
        snap.compactions_completed > 0,
        "scheduler never completed: {snap:?}"
    );

    // Zero divergence after the dust settles, and again after reopen.
    let expected: Vec<Point> = model.iter().map(|(&t, &v)| Point::new(t, v)).collect();
    assert_eq!(merged(&kv, "s"), expected);
    drop(kv);
    let kv = TsKv::open(&dir, config).unwrap();
    assert_eq!(merged(&kv, "s"), expected, "state diverged across reopen");

    drop(kv);
    std::fs::remove_dir_all(&dir).ok();
}
