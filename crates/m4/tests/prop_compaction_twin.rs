//! Oracle property for chunk-aware compaction: for ANY storage history
//! and ANY chunk geometry, a store whose compactions copy clean chunks
//! raw, drop delete-covered chunks unread and recode the rest holds —
//! after every compaction — exactly the points of the in-memory model
//! (a `BTreeMap` replay of the same operations), and answers M4
//! queries Definition-2.1-equivalently to `m4::oracle` on both the
//! merge-based M4-UDF and the merge-free M4-LSM path.
//!
//! This is the acceptance property for the compaction rewrite: what a
//! chunk's fate was must be observationally invisible at every query
//! level.

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
use testdir::TestDir;

use proptest::prelude::*;
use tsfile::types::Point;
use tskv::config::EngineConfig;
use tskv::readers::MergeReader;
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
    fn compaction_by_page_fate_matches_the_model_and_the_oracle(
        ops in prop::collection::vec(op_strategy(), 1..20),
        memtable in 2usize..16,
        chunk_size in 2usize..8,
        qs in -40_000i64..40_000,
        qlen in 1i64..70_000,
        w in 1usize..40,
    ) {
        let dir = TestDir::new("m4-compaction-oracle");
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: chunk_size,
                memtable_threshold: memtable * 4,
                ..Default::default()
            },
        )
        .unwrap();
        kv.create_series("s").unwrap();

        let mut model: BTreeMap<i64, f64> = BTreeMap::new();
        let live = |model: &BTreeMap<i64, f64>| -> Vec<Point> {
            model.iter().map(|(&t, &v)| Point::new(t, v)).collect()
        };
        for op in &ops {
            match op {
                Op::Insert(batch) => {
                    let pts: Vec<Point> = batch
                        .iter()
                        .map(|&(t, v)| Point::new(i64::from(t), f64::from(v)))
                        .collect();
                    kv.insert_batch("s", &pts).unwrap();
                    for p in &pts {
                        model.insert(p.t, p.v);
                    }
                }
                Op::Flush => kv.flush("s").unwrap(),
                Op::Compact => {
                    kv.compact("s").unwrap();
                    // Copied chunks carry the exact original points,
                    // recoded ones the exact merge: point for point.
                    let snap = kv.snapshot("s").unwrap();
                    let merged = MergeReader::new(&snap).collect_merged().unwrap();
                    prop_assert_eq!(merged, live(&model), "compaction changed the series");
                    // Compaction writes full chunks: no two time-adjacent
                    // sealed chunks are both short of `chunk_size`.
                    let mut sealed: Vec<_> = snap.chunks().iter().filter(|c| !c.is_mem()).collect();
                    sealed.sort_by_key(|c| c.time_range().start);
                    for pair in sealed.windows(2) {
                        prop_assert!(
                            pair.iter().any(|c| c.count() >= chunk_size as u64),
                            "adjacent under-full chunks at {:?} and {:?}",
                            pair[0].time_range(),
                            pair[1].time_range()
                        );
                    }
                }
                Op::Delete(s, e) => {
                    kv.delete("s", i64::from(*s), i64::from(*e)).unwrap();
                    let doomed: Vec<i64> =
                        model.range(i64::from(*s)..=i64::from(*e)).map(|(&t, _)| t).collect();
                    for t in doomed {
                        model.remove(&t);
                    }
                }
            }
        }

        let query = M4Query::new(qs, qs + qlen, w).unwrap();
        let expected = m4_scan(&live(&model), &query);
        let snap = kv.snapshot("s").unwrap();

        // M4-UDF consumes the merged series.
        let udf = M4Udf::new().execute(&snap, &query).unwrap();
        prop_assert!(udf.equivalent(&expected), "M4-UDF deviates from the oracle");
        // The merge-free path reads footer statistics that compaction
        // rebuilt (or carried verbatim for copied chunks).
        let lsm = M4Lsm::new().execute(&snap, &query).unwrap();
        prop_assert!(lsm.equivalent(&expected), "M4-LSM deviates from the oracle");

        drop(kv);
    }
}
