//! Twin-store property for page-aware compaction: for ANY storage
//! history and ANY page geometry, a store compacted with the
//! clean-page raw-copy fast path enabled answers M4 queries
//! *byte-identically* (on the merge-based M4-UDF) to a twin store that
//! compacts by full decode-and-rewrite — and both stay
//! Definition-2.1-equivalent to the in-memory oracle on the merge-free
//! M4-LSM path.
//!
//! This is the acceptance property for the compaction rewrite: copying
//! a clean page's raw bytes instead of re-encoding it must be
//! observationally invisible at every query level.

// Tests assert by panicking; the workspace panic-freedom deny-set
// (root Cargo.toml) is aimed at library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::collections::BTreeMap;

use proptest::prelude::*;
use tsfile::types::Point;
use tskv::config::EngineConfig;
use tskv::TsKv;

use m4::oracle::m4_scan;
use m4::{M4Lsm, M4Query, M4Udf};

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<(i16, i8)>),
    Flush,
    Delete(i16, i16),
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => prop::collection::vec((any::<i16>(), any::<i8>()), 1..60).prop_map(Op::Insert),
        3 => Just(Op::Flush),
        2 => Just(Op::Compact),
        2 => (any::<i16>(), 0i16..300).prop_map(|(s, len)| Op::Delete(s, s.saturating_add(len))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn compaction_with_raw_copy_matches_full_rewrite_twin(
        ops in prop::collection::vec(op_strategy(), 1..20),
        chunk_size in 2usize..16,
        page_points in 2usize..8,
        qs in -40_000i64..40_000,
        qlen in 1i64..70_000,
        w in 1usize..40,
    ) {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos();
        let fast_dir = std::env::temp_dir().join(format!(
            "m4-twin-fast-{}-{stamp:x}", std::process::id()
        ));
        let slow_dir = std::env::temp_dir().join(format!(
            "m4-twin-slow-{}-{stamp:x}", std::process::id()
        ));
        let base = EngineConfig {
            points_per_chunk: chunk_size,
            memtable_threshold: chunk_size * 4,
            page_points,
            ..Default::default()
        };
        // Twin A: clean pages copied raw.
        let fast = TsKv::open(
            &fast_dir,
            EngineConfig {
                compaction_clean_page_copy: true,
                ..base.clone()
            },
        )
        .unwrap();
        // Twin B: every compaction decodes and re-encodes everything.
        let slow = TsKv::open(
            &slow_dir,
            EngineConfig {
                compaction_clean_page_copy: false,
                ..base
            },
        )
        .unwrap();
        fast.create_series("s").unwrap();
        slow.create_series("s").unwrap();

        let mut model: BTreeMap<i64, f64> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::Insert(batch) => {
                    let pts: Vec<Point> = batch
                        .iter()
                        .map(|&(t, v)| Point::new(i64::from(t), f64::from(v)))
                        .collect();
                    fast.insert_batch("s", &pts).unwrap();
                    slow.insert_batch("s", &pts).unwrap();
                    for p in &pts {
                        model.insert(p.t, p.v);
                    }
                }
                Op::Flush => {
                    fast.flush("s").unwrap();
                    slow.flush("s").unwrap();
                }
                Op::Compact => {
                    fast.compact("s").unwrap();
                    slow.compact("s").unwrap();
                }
                Op::Delete(s, e) => {
                    fast.delete("s", i64::from(*s), i64::from(*e)).unwrap();
                    slow.delete("s", i64::from(*s), i64::from(*e)).unwrap();
                    let doomed: Vec<i64> =
                        model.range(i64::from(*s)..=i64::from(*e)).map(|(&t, _)| t).collect();
                    for t in doomed {
                        model.remove(&t);
                    }
                }
            }
        }

        let query = M4Query::new(qs, qs + qlen, w).unwrap();
        let merged: Vec<Point> = model.iter().map(|(&t, &v)| Point::new(t, v)).collect();
        let expected = m4_scan(&merged, &query);

        let fast_snap = fast.snapshot("s").unwrap();
        let slow_snap = slow.snapshot("s").unwrap();

        // M4-UDF consumes the merged series: the raw-copy twin must be
        // byte-identical to the full-rewrite twin, not merely
        // equivalent — copied pages carry the exact original points.
        let udf_fast = M4Udf::new().execute(&fast_snap, &query).unwrap();
        let udf_slow = M4Udf::new().execute(&slow_snap, &query).unwrap();
        prop_assert_eq!(&udf_fast, &udf_slow, "raw-copy twin diverged from full-rewrite twin");
        prop_assert!(udf_fast.equivalent(&expected), "twins agree but deviate from oracle");

        // The merge-free path reads footer statistics that compaction
        // rebuilt (or carried verbatim for copied pages).
        let lsm_fast = M4Lsm::new().execute(&fast_snap, &query).unwrap();
        let lsm_slow = M4Lsm::new().execute(&slow_snap, &query).unwrap();
        prop_assert!(lsm_fast.equivalent(&expected), "M4-LSM on raw-copy store deviates");
        prop_assert!(lsm_slow.equivalent(&expected), "M4-LSM on full-rewrite store deviates");

        drop(fast);
        drop(slow);
        std::fs::remove_dir_all(&fast_dir).ok();
        std::fs::remove_dir_all(&slow_dir).ok();
    }
}
