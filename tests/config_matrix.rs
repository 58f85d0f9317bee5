//! Configuration-matrix integration test: every setting of the engine's
//! configuration must produce identical query results over the same
//! operation history — configuration changes trade performance, never
//! correctness.

// Integration tests assert by panicking; the workspace panic-freedom
// deny-set (root Cargo.toml) is aimed at library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use m4lsm::m4::{M4Lsm, M4Query, M4Udf};
use m4lsm::tsfile::types::Point;
use m4lsm::tskv::config::{EngineConfig, FsyncPolicy};
use m4lsm::tskv::TsKv;

fn drive(kv: &TsKv) {
    // A representative history: in-order load, out-of-order overwrite,
    // deletes straddling chunk boundaries, trailing unflushed tail.
    for t in 0..5_000i64 {
        kv.insert("s", Point::new(t * 7, ((t * 31) % 113) as f64 - 50.0))
            .unwrap();
    }
    kv.flush_all().unwrap();
    let overwrite: Vec<Point> = (1_000..1_500).map(|t| Point::new(t * 7, 500.0)).collect();
    kv.insert_batch("s", &overwrite).unwrap();
    kv.flush_all().unwrap();
    kv.delete("s", 3_000, 4_500).unwrap();
    kv.delete("s", 20_000, 21_000).unwrap();
    for t in 5_000..5_200i64 {
        kv.insert("s", Point::new(t * 7, 7.0)).unwrap();
    }
}

#[test]
fn all_configurations_agree() {
    let base = EngineConfig {
        points_per_chunk: 128,
        memtable_threshold: 512,
        ..Default::default()
    };
    // One axis at a time away from the base.
    let configs = [
        ("base", base.clone()),
        (
            "7-point chunks",
            EngineConfig {
                points_per_chunk: 7,
                ..base.clone()
            },
        ),
        (
            "one chunk a flush",
            EngineConfig {
                points_per_chunk: 1_000,
                memtable_threshold: 1_000,
                ..base.clone()
            },
        ),
        (
            "no cache",
            EngineConfig {
                cache_capacity_bytes: 0,
                ..base.clone()
            },
        ),
        (
            "one read thread",
            EngineConfig {
                read_threads: 1,
                ..base.clone()
            },
        ),
        (
            "one shard",
            EngineConfig {
                write_shards: 1,
                ..base.clone()
            },
        ),
        (
            "fsync always",
            EngineConfig {
                fsync_policy: FsyncPolicy::Always,
                ..base.clone()
            },
        ),
        (
            "fsync never",
            EngineConfig {
                fsync_policy: FsyncPolicy::Never,
                ..base.clone()
            },
        ),
        (
            "auto compaction",
            EngineConfig {
                compaction_auto: true,
                compaction_threshold: 2,
                compaction_interval_ms: 1,
                ..base.clone()
            },
        ),
    ];
    let mut reference = None;
    for (i, (what, config)) in configs.into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("cfg-matrix-{i}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kv = TsKv::open(&dir, config).unwrap();
        drive(&kv);
        let snap = kv.snapshot("s").unwrap();
        let q = M4Query::new(0, 40_000, 37).unwrap();
        let lsm = M4Lsm::new().execute(&snap, &q).unwrap();
        let udf = M4Udf::new().execute(&snap, &q).unwrap();
        assert!(lsm.equivalent(&udf), "{what}");
        match &reference {
            None => reference = Some(udf),
            Some(r) => assert!(udf.equivalent(r), "{what} deviates from the base"),
        }
        drop(snap);
        drop(kv);
        std::fs::remove_dir_all(&dir).ok();
    }
}
