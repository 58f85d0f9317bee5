//! Configuration-matrix integration test: every combination of column
//! encodings and step-index on/off must produce identical
//! query results over the same operation history — configuration
//! changes trade performance, never correctness.

// Integration tests assert by panicking; the workspace panic-freedom
// deny-set (root Cargo.toml) is aimed at library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use m4lsm::m4::{M4Lsm, M4Query, M4Udf};
use m4lsm::tsfile::encoding::EncodingKind;
use m4lsm::tsfile::types::Point;
use m4lsm::tskv::config::EngineConfig;
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
    let encodings = [
        (EncodingKind::Ts2Diff, EncodingKind::Gorilla),
        (EncodingKind::Plain, EncodingKind::Plain),
        (EncodingKind::Ts2Diff, EncodingKind::Plain),
        (EncodingKind::Plain, EncodingKind::Gorilla),
    ];
    let mut reference = None;
    for (i, (ts_enc, val_enc)) in encodings.into_iter().enumerate() {
        for index in [true, false] {
            let dir =
                std::env::temp_dir().join(format!("cfg-matrix-{i}-{index}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let kv = TsKv::open(
                &dir,
                EngineConfig {
                    points_per_chunk: 128,
                    memtable_threshold: 512,
                    ts_encoding: ts_enc,
                    val_encoding: val_enc,
                    build_step_index: index,
                    ..Default::default()
                },
            )
            .unwrap();
            drive(&kv);
            let snap = kv.snapshot("s").unwrap();
            let q = M4Query::new(0, 40_000, 37).unwrap();
            let lsm = M4Lsm::new().execute(&snap, &q).unwrap();
            let udf = M4Udf::new().execute(&snap, &q).unwrap();
            assert!(
                lsm.equivalent(&udf),
                "cfg ({ts_enc:?},{val_enc:?},idx={index})"
            );
            match &reference {
                None => reference = Some(udf),
                Some(r) => assert!(
                    udf.equivalent(r),
                    "cfg ({ts_enc:?},{val_enc:?},idx={index}) deviates from reference"
                ),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn plain_encoding_roundtrips_through_recovery() {
    let dir = std::env::temp_dir().join(format!("cfg-plain-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = EngineConfig {
        ts_encoding: EncodingKind::Plain,
        val_encoding: EncodingKind::Plain,
        points_per_chunk: 100,
        memtable_threshold: 300,
        ..Default::default()
    };
    {
        let kv = TsKv::open(&dir, config.clone()).unwrap();
        for t in 0..1_000i64 {
            kv.insert("s", Point::new(t, t as f64)).unwrap();
        }
        kv.flush_all().unwrap();
    }
    let kv = TsKv::open(&dir, config).unwrap();
    let snap = kv.snapshot("s").unwrap();
    assert_eq!(snap.raw_point_count(), 1_000);
    let q = M4Query::new(0, 1_000, 4).unwrap();
    let r = M4Lsm::new().execute(&snap, &q).unwrap();
    assert_eq!(r.non_empty(), 4);
    std::fs::remove_dir_all(&dir).ok();
}
