//! Property test: the storage engine + MergeReader must agree with a
//! naive in-memory model (a `BTreeMap` replay of the same operations)
//! for every interleaving of inserts, flushes and deletes.
//!
//! This is the ground-truth oracle for Definition 2.7's merge function:
//! if this holds, any operator equivalent to `MergeReader` output is
//! correct with respect to the paper's semantics.

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

/// One step of a workload script.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a batch of points (possibly out of order / overwriting).
    Insert(Vec<(i16, i8)>),
    /// Flush the memtable.
    Flush,
    /// Delete an inclusive range.
    Delete(i16, i16),
    /// Fully compact the sealed files.
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => prop::collection::vec((any::<i16>(), any::<i8>()), 1..40).prop_map(Op::Insert),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
        2 => (any::<i16>(), 0i16..200).prop_map(|(s, len)| {
            let start = s;
            let end = s.saturating_add(len);
            Op::Delete(start, end)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn merge_reader_matches_naive_model(
        ops in prop::collection::vec(op_strategy(), 1..25),
        chunk_size in 1usize..20,
    ) {
        let dir = TestDir::new("tskv-prop");
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: chunk_size,
                memtable_threshold: chunk_size * 3,
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
                Op::Delete(start, end) => {
                    kv.delete("s", i64::from(*start), i64::from(*end)).unwrap();
                    let doomed: Vec<i64> = model
                        .range(i64::from(*start)..=i64::from(*end))
                        .map(|(&t, _)| t)
                        .collect();
                    for t in doomed {
                        model.remove(&t);
                    }
                }
            }
        }

        let snap = kv.snapshot("s").unwrap();
        let merged = MergeReader::new(&snap).collect_merged().unwrap();
        let expected: Vec<Point> =
            model.iter().map(|(&t, &v)| Point::new(t, v)).collect();
        prop_assert_eq!(&merged, &expected);

        // Crash-recovery path: reopen WITHOUT flushing — the WAL must
        // restore the memtable exactly.
        drop(kv);
        let kv2 = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: chunk_size,
                memtable_threshold: chunk_size * 3,
                ..Default::default()
            },
        )
        .unwrap();
        let snap2 = kv2.snapshot("s").unwrap();
        let merged2 = MergeReader::new(&snap2).collect_merged().unwrap();
        prop_assert_eq!(&merged2, &expected);

        // And again after a full flush + reopen (sealed-only recovery).
        kv2.flush_all().unwrap();
        drop(kv2);
        let kv3 = TsKv::open(
            &dir,
            EngineConfig { points_per_chunk: chunk_size, ..Default::default() },
        )
        .unwrap();
        let snap3 = kv3.snapshot("s").unwrap();
        let merged3 = MergeReader::new(&snap3).collect_merged().unwrap();
        prop_assert_eq!(&merged3, &expected);

    }
}
