//! Concurrency integration: snapshots are stable read views; writers
//! and readers do not interfere; parallel queries over one snapshot
//! agree.

// Integration tests assert by panicking; the workspace panic-freedom
// deny-set (root Cargo.toml) is aimed at library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::sync::Arc;
use testdir::TestDir;

use m4lsm::m4::{M4Lsm, M4Query, M4Udf};
use m4lsm::tsfile::types::Point;
use m4lsm::tskv::config::EngineConfig;
use m4lsm::tskv::TsKv;

/// A snapshot taken before further writes must answer from the old
/// state even while inserts, flushes and deletes continue.
#[test]
fn snapshot_isolation_under_writes() {
    let dir = TestDir::new("conc-isolation");
    let kv = Arc::new(
        TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 100,
                memtable_threshold: 400,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    for t in 0..2_000i64 {
        kv.insert("s", Point::new(t, 1.0)).unwrap();
    }
    kv.flush_all().unwrap();

    let snap = kv.snapshot("s").unwrap();
    let q = M4Query::new(0, 10_000, 8).unwrap();
    let baseline = M4Udf::new().execute(&snap, &q).unwrap();

    // Writer thread: keeps appending and deleting.
    let writer_kv = Arc::clone(&kv);
    let writer = std::thread::spawn(move || {
        for t in 2_000..6_000i64 {
            writer_kv.insert("s", Point::new(t, 9.0)).unwrap();
        }
        writer_kv.flush_all().unwrap();
        writer_kv.delete("s", 0, 500).unwrap();
    });

    // The old snapshot keeps answering identically throughout.
    for _ in 0..20 {
        let r = M4Lsm::new().execute(&snap, &q).unwrap();
        assert!(
            r.equivalent(&baseline),
            "snapshot must be stable under concurrent writes"
        );
    }
    writer.join().unwrap();

    // A fresh snapshot sees the new state.
    let snap2 = kv.snapshot("s").unwrap();
    let r2 = M4Udf::new().execute(&snap2, &q).unwrap();
    assert!(
        !r2.equivalent(&baseline),
        "new snapshot must observe the writes"
    );
    let l2 = M4Lsm::new().execute(&snap2, &q).unwrap();
    assert!(l2.equivalent(&r2));
}

/// Many threads hammer the same snapshot with different queries; every
/// result must match the baseline computed single-threaded.
#[test]
fn parallel_queries_agree() {
    let dir = TestDir::new("conc-parallel");
    let kv = TsKv::open(
        &dir,
        EngineConfig {
            points_per_chunk: 50,
            memtable_threshold: 200,
            ..Default::default()
        },
    )
    .unwrap();
    for t in 0..5_000i64 {
        kv.insert("s", Point::new(t * 3, ((t * 31) % 101) as f64))
            .unwrap();
    }
    kv.flush_all().unwrap();
    kv.delete("s", 3_000, 4_500).unwrap();
    let snap = Arc::new(kv.snapshot("s").unwrap());

    let queries: Vec<M4Query> = (1..=8)
        .map(|i| M4Query::new(0, 15_000, i * 7).unwrap())
        .collect();
    let baselines: Vec<_> = queries
        .iter()
        .map(|q| M4Udf::new().execute(&snap, q).unwrap())
        .collect();

    let handles: Vec<_> = (0..8)
        .map(|i| {
            let snap = Arc::clone(&snap);
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for (j, q) in queries.iter().enumerate() {
                    let r = if (i + j) % 2 == 0 {
                        M4Lsm::new().execute(&snap, q).unwrap()
                    } else {
                        M4Udf::new().execute(&snap, q).unwrap()
                    };
                    out.push(r);
                }
                out
            })
        })
        .collect();
    for h in handles {
        let results = h.join().unwrap();
        for (r, b) in results.iter().zip(&baselines) {
            assert!(r.equivalent(b));
        }
    }
}

/// Concurrent writers to distinct series must not corrupt each other.
#[test]
fn concurrent_writers_distinct_series() {
    let dir = TestDir::new("conc-writers");
    let kv = Arc::new(
        TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 64,
                memtable_threshold: 256,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let kv = Arc::clone(&kv);
            std::thread::spawn(move || {
                let series = format!("s{i}");
                for t in 0..3_000i64 {
                    kv.insert(&series, Point::new(t, i as f64)).unwrap();
                }
                kv.flush(&series).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    for i in 0..4 {
        let snap = kv.snapshot(&format!("s{i}")).unwrap();
        assert_eq!(snap.raw_point_count(), 3_000);
        let q = M4Query::new(0, 3_000, 4).unwrap();
        let r = M4Lsm::new().execute(&snap, &q).unwrap();
        assert_eq!(r.non_empty(), 4);
        assert!(r.spans.iter().flatten().all(|s| s.top.v == i as f64));
    }
}
