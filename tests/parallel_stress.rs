//! Stress test for the parallel read path: concurrent M4-UDF and
//! M4-LSM queries (each fanning chunk loads across the worker pool and
//! sharing the cross-query decoded-chunk LRU) race a live writer that
//! keeps inserting, flushing, deleting and compacting.
//!
//! Every query thread takes its own snapshot and checks both parallel
//! operators against a *sequential* oracle computed over the same
//! snapshot (`MergeReader::collect_merged` + the naive M4 scan), so a
//! pool-ordering bug, a cache-staleness bug, or an invalidation race
//! during compaction all surface as an equivalence failure.

// Integration tests assert by panicking; the workspace panic-freedom
// deny-set (root Cargo.toml) is aimed at library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use testdir::TestDir;

use m4lsm::m4::{oracle, M4Lsm, M4Query, M4Udf};
use m4lsm::tsfile::types::Point;
use m4lsm::tskv::config::EngineConfig;
use m4lsm::tskv::readers::MergeReader;
use m4lsm::tskv::TsKv;

#[test]
fn parallel_queries_race_live_writer() {
    let dir = TestDir::new("par-stress");
    let kv = Arc::new(
        TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 50,
                memtable_threshold: 200,
                // Small capacity so the LRU evicts during the run.
                cache_capacity_bytes: 64 * 1024,
                read_threads: 4,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    // Seed enough history that early snapshots already span many chunks.
    for t in 0..3_000i64 {
        kv.insert("s", Point::new(t * 10, (t % 97) as f64)).unwrap();
    }
    kv.flush_all().unwrap();

    let done = Arc::new(AtomicBool::new(false));
    let queries_run = Arc::new(AtomicUsize::new(0));

    // Writer: keeps mutating the series — overwrites (overlap), new
    // tail data, range deletes, periodic flushes and compactions (which
    // retire files and invalidate their cache entries).
    let writer = {
        let kv = Arc::clone(&kv);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for round in 0..30i64 {
                let base = 3_000 + round * 100;
                for t in base..base + 100 {
                    kv.insert("s", Point::new(t * 10, (t % 13) as f64)).unwrap();
                }
                // Overwrite a stretch of old data to create overlap.
                for t in (round * 50)..(round * 50 + 40) {
                    kv.insert("s", Point::new(t * 10, 500.0 + round as f64))
                        .unwrap();
                }
                kv.flush_all().unwrap();
                kv.delete("s", round * 300, round * 300 + 150).unwrap();
                if round % 5 == 4 {
                    kv.compact("s").unwrap();
                }
            }
            done.store(true, Ordering::SeqCst);
        })
    };

    // Query threads: fresh snapshot per iteration; both parallel
    // operators must agree with the sequential oracle on that snapshot.
    let queriers: Vec<_> = (0..4)
        .map(|i| {
            let kv = Arc::clone(&kv);
            let done = Arc::clone(&done);
            let queries_run = Arc::clone(&queries_run);
            std::thread::spawn(move || {
                let w = [7, 16, 33, 64][i % 4];
                let mut iters = 0usize;
                while !done.load(Ordering::SeqCst) || iters < 3 {
                    let snap = kv.snapshot("s").unwrap();
                    let q = M4Query::new(0, 70_000, w).unwrap();
                    let merged = MergeReader::with_range(&snap, q.full_range())
                        .collect_merged()
                        .unwrap();
                    let expected = oracle::m4_scan(&merged, &q);
                    let udf = M4Udf::new().execute(&snap, &q).unwrap();
                    let lsm = M4Lsm::new().execute(&snap, &q).unwrap();
                    assert!(
                        udf.equivalent(&expected),
                        "parallel M4-UDF diverged from sequential oracle (w={w})"
                    );
                    assert!(
                        lsm.equivalent(&expected),
                        "parallel M4-LSM diverged from sequential oracle (w={w})"
                    );
                    iters += 1;
                    queries_run.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    writer.join().unwrap();
    for q in queriers {
        q.join().unwrap();
    }
    assert!(
        queries_run.load(Ordering::Relaxed) >= 12,
        "stress test must actually run queries"
    );

    // The cache stayed within capacity and only references live files.
    let cache = kv.cache().expect("cache enabled").clone();
    assert!(cache.bytes() <= cache.capacity_bytes());
    let io = kv.io().snapshot();
    assert!(
        io.cache_hits > 0,
        "stress run should have produced cache hits"
    );

    // Reopened (so the cache starts empty) with a capacity that holds
    // the whole series, the identical query repeated loads no chunk
    // body: the first run paid for all of them.
    drop(cache);
    kv.flush_all().unwrap();
    drop(kv);
    let q = M4Query::new(0, 70_000, 64).unwrap();
    for lsm in [false, true] {
        let kv = TsKv::open(&dir, EngineConfig::default()).unwrap();
        let snap = kv.snapshot("s").unwrap();
        let run = || {
            let before = snap.io().snapshot();
            let result = if lsm {
                M4Lsm::new().execute(&snap, &q).unwrap()
            } else {
                M4Udf::new().execute(&snap, &q).unwrap()
            };
            (result, (snap.io().snapshot() - before).chunks_loaded)
        };
        let (cold, cold_loads) = run();
        let (warm, warm_loads) = run();
        assert!(cold_loads > 0, "lsm={lsm}: first run must read from disk");
        assert_eq!(warm_loads, 0, "lsm={lsm}: warm run loaded chunk bodies");
        assert!(warm.equivalent(&cold));
    }
}
