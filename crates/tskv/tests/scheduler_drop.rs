//! Dropping a store stops its background compactor: no thread named
//! `tskv-compactor` outlives the `TsKv` that spawned it, however many
//! stores came and went. A test binary of its own, so that no other
//! test's store runs a compactor beside it.

#![cfg(target_os = "linux")]
// Tests assert by panicking; the workspace panic-freedom deny-set
// (root Cargo.toml) is aimed at library code.
#![allow(clippy::unwrap_used, clippy::panic)]
// Test fixtures read `/proc` and remove their own files.
#![allow(clippy::disallowed_methods)]

use std::time::{Duration, Instant};
use testdir::TestDir;

use tsfile::types::Point;
use tskv::config::EngineConfig;
use tskv::TsKv;

/// Threads of this process named `tskv-compactor`, counted from each
/// task's `comm`.
fn compactors() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.trim_end() == "tskv-compactor")
        .count()
}

/// Wait (a bounded while) for `compactors()` to reach `want`.
fn settle(want: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while compactors() != want {
        assert!(
            Instant::now() < deadline,
            "{} compactor threads, want {want}",
            compactors()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn a_dropped_store_leaves_no_compactor_thread() {
    let dir = TestDir::new("tskv-drop");
    let config = EngineConfig {
        compaction_auto: true,
        compaction_threshold: 2,
        compaction_interval_ms: 1,
        write_shards: 2,
        ..Default::default()
    };
    settle(0);
    for round in 0..3i64 {
        let kv = TsKv::open(&dir, config.clone()).unwrap();
        settle(1);
        // Work for the compactor: files past the threshold in both shards.
        for flush in 0..3i64 {
            for name in ["a", "b", "c"] {
                let t0 = (round * 3 + flush) * 100;
                let points: Vec<Point> = (t0..t0 + 100).map(|t| Point::new(t, 1.0)).collect();
                kv.insert_batch(name, &points).unwrap();
            }
            kv.flush_all().unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while kv.io().snapshot().compactions_completed == 0 {
            assert!(Instant::now() < deadline, "the compactor never ran");
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(kv);
        settle(0);
    }
}
