//! The core correctness property of the reproduction: for ANY storage
//! history (out-of-order inserts, overwrites, flushes, range deletes)
//! and ANY query geometry, the merge-free M4-LSM operator produces a
//! representation equivalent to the M4-UDF baseline, which in turn
//! equals a naive in-memory oracle replaying the same history.
//!
//! "Equivalent" is Definition 2.1's notion: identical FP/LP points and
//! identical BP/TP *values* (any point attaining the extreme value is a
//! valid representative).

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
        2 => Just(Op::Flush),
        1 => Just(Op::Compact),
        2 => (any::<i16>(), 0i16..300).prop_map(|(s, len)| Op::Delete(s, s.saturating_add(len))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn lsm_equals_udf_equals_oracle(
        ops in prop::collection::vec(op_strategy(), 1..20),
        chunk_size in 1usize..16,
        qs in -40_000i64..40_000,
        qlen in 1i64..70_000,
        w in 1usize..40,
    ) {
        let dir = TestDir::new("m4-prop");
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: chunk_size,
                memtable_threshold: chunk_size * 4,
                ..Default::default()
            },
        )
        .unwrap();
        kv.create_series("s").unwrap();

        let mut model: BTreeMap<i64, f64> = BTreeMap::new();
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
        let merged: Vec<Point> = model.iter().map(|(&t, &v)| Point::new(t, v)).collect();
        let expected = m4_scan(&merged, &query);

        let snap = kv.snapshot("s").unwrap();
        let udf = M4Udf::new().execute(&snap, &query).unwrap();
        prop_assert!(
            udf.equivalent(&expected),
            "UDF deviates from oracle\nudf: {:?}\noracle: {:?}", udf, expected
        );

        let lsm = M4Lsm::new().execute(&snap, &query).unwrap();
        prop_assert!(
            lsm.equivalent(&expected),
            "M4-LSM deviates from oracle\nlsm: {:?}\noracle: {:?}", lsm, expected
        );

    }

    /// Adversarial value bits: NaNs, infinities and signed zeros must
    /// not break the equivalence (all comparisons use total ordering).
    #[test]
    fn equivalence_with_adversarial_floats(
        raw in prop::collection::vec((any::<i16>(), any::<u64>()), 1..150),
        chunk_size in 1usize..12,
        w in 1usize..20,
    ) {
        let dir = TestDir::new("m4-prop-nan");
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: chunk_size,
                memtable_threshold: chunk_size * 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut model: BTreeMap<i64, f64> = BTreeMap::new();
        for batch in raw.chunks(20) {
            let pts: Vec<Point> = batch
                .iter()
                .map(|&(t, bits)| Point::new(i64::from(t), f64::from_bits(bits)))
                .collect();
            kv.insert_batch("s", &pts).unwrap();
            for p in &pts {
                model.insert(p.t, p.v);
            }
        }
        kv.flush_all().unwrap();

        let query = M4Query::new(-40_000, 40_000, w).unwrap();
        let merged: Vec<Point> = model.iter().map(|(&t, &v)| Point::new(t, v)).collect();
        let expected = m4_scan(&merged, &query);
        let snap = kv.snapshot("s").unwrap();
        let udf = M4Udf::new().execute(&snap, &query).unwrap();
        prop_assert!(udf.equivalent(&expected), "udf: {:?}\noracle: {:?}", udf, expected);
        let lsm = M4Lsm::new().execute(&snap, &query).unwrap();
        prop_assert!(lsm.equivalent(&expected), "lsm: {:?}\noracle: {:?}", lsm, expected);
    }
}
