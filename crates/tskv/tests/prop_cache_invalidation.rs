//! Property test for the cross-query decoded-chunk LRU: under any
//! interleaving of inserts, flushes, deletes and compactions,
//!
//! 1. reads served through the cache always equal the naive in-memory
//!    model (the cache never serves stale or wrong bytes),
//! 2. after a compaction, the cache holds no entry keyed by a retired
//!    file's handle id (invalidation is complete — checked with no
//!    concurrent readers, so there are no benign stragglers), and
//! 3. the cache never exceeds its configured byte capacity.
//!
//! Handle ids are process-unique and never reused, so (2) is a memory
//! hygiene property; (1) is the correctness property.

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
use std::collections::BTreeSet;
use testdir::TestDir;

use proptest::prelude::*;
use tsfile::types::Point;
use tskv::config::EngineConfig;
use tskv::readers::MergeReader;
use tskv::TsKv;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<(i16, i8)>),
    Flush,
    Delete(i16, i16),
    Compact,
    /// Full-range read through the cache (populates + bumps recency).
    Read,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => prop::collection::vec((any::<i16>(), any::<i8>()), 1..40).prop_map(Op::Insert),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
        2 => Just(Op::Read),
        2 => (any::<i16>(), 0i16..200).prop_map(|(s, len)| {
            Op::Delete(s, s.saturating_add(len))
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lru_never_serves_retired_files(
        ops in prop::collection::vec(op_strategy(), 1..25),
        chunk_size in 1usize..20,
        // Small capacities force evictions mid-script.
        capacity_kib in 1u64..64,
    ) {
        let dir = TestDir::new("tskv-cacheprop");
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: chunk_size,
                memtable_threshold: chunk_size * 3,
                cache_capacity_bytes: capacity_kib * 1024,
                read_threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        kv.create_series("s").unwrap();
        let cache = kv.cache().expect("cache enabled by default").clone();

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
                    // No snapshot is outstanding here, so invalidation
                    // must be complete: every cached file id belongs to
                    // a file the post-compaction snapshot still serves.
                    let live: BTreeSet<u64> =
                        kv.snapshot("s").unwrap().file_handle_ids().into_iter().collect();
                    for id in cache.file_ids() {
                        prop_assert!(
                            live.contains(&id),
                            "cache holds retired file id {id}; live = {live:?}"
                        );
                    }
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
                Op::Read => {
                    let snap = kv.snapshot("s").unwrap();
                    let merged = MergeReader::new(&snap).collect_merged().unwrap();
                    let expected: Vec<Point> =
                        model.iter().map(|(&t, &v)| Point::new(t, v)).collect();
                    prop_assert_eq!(&merged, &expected, "cached read diverges from model");
                }
            }
            prop_assert!(
                cache.bytes() <= cache.capacity_bytes(),
                "cache over capacity: {} > {}",
                cache.bytes(),
                cache.capacity_bytes()
            );
        }

        // Final read: warm or cold, the answer must match the model.
        let snap = kv.snapshot("s").unwrap();
        let merged = MergeReader::new(&snap).collect_merged().unwrap();
        let expected: Vec<Point> = model.iter().map(|(&t, &v)| Point::new(t, v)).collect();
        prop_assert_eq!(&merged, &expected);

    }
}
