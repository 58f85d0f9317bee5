//! Property test for the background compaction scheduler: under any
//! interleaving of inserts, flushes and deletes, a store whose
//! compactions are driven by the background scheduler answers every
//! read identically to (a) the naive in-memory model and (b) a twin
//! store running the same script with *manual* `kv.compact` calls —
//! scheduling is pure mechanism and never shows through query results.

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
    /// Full-range read, compared on both stores against the model.
    Read,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => prop::collection::vec((any::<i16>(), any::<i8>()), 1..40).prop_map(Op::Insert),
        2 => Just(Op::Flush),
        2 => Just(Op::Read),
        2 => (any::<i16>(), 0i16..200).prop_map(|(s, len)| {
            Op::Delete(s, s.saturating_add(len))
        }),
    ]
}

fn merged(kv: &TsKv) -> Vec<Point> {
    let snap = kv.snapshot("s").unwrap();
    MergeReader::new(&snap).collect_merged().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn background_compaction_never_changes_query_results(
        ops in prop::collection::vec(op_strategy(), 1..25),
        chunk_size in 1usize..16,
    ) {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let auto_dir = std::env::temp_dir().join(format!(
            "tskv-schedprop-auto-{}-{stamp:x}",
            std::process::id()
        ));
        let manual_dir = std::env::temp_dir().join(format!(
            "tskv-schedprop-man-{}-{stamp:x}",
            std::process::id()
        ));
        let base = EngineConfig {
            points_per_chunk: chunk_size,
            memtable_threshold: chunk_size * 2,
            cache_capacity_bytes: 0,
            read_threads: 1,
            ..Default::default()
        };
        // Twin A: scheduler on, aggressive cadence so compactions land
        // mid-script. Twin B: scheduler off, compacted by hand after
        // every flush.
        let auto = TsKv::open(
            &auto_dir,
            EngineConfig {
                compaction_auto: true,
                compaction_threshold: 2,
                compaction_interval_ms: 1,
                ..base.clone()
            },
        )
        .unwrap();
        let manual = TsKv::open(&manual_dir, base).unwrap();
        prop_assert!(auto.compaction_scheduler_running());
        prop_assert!(!manual.compaction_scheduler_running());
        auto.create_series("s").unwrap();
        manual.create_series("s").unwrap();

        let mut model: BTreeMap<i64, f64> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::Insert(batch) => {
                    let pts: Vec<Point> = batch
                        .iter()
                        .map(|&(t, v)| Point::new(i64::from(t), f64::from(v)))
                        .collect();
                    auto.insert_batch("s", &pts).unwrap();
                    manual.insert_batch("s", &pts).unwrap();
                    for p in &pts {
                        model.insert(p.t, p.v);
                    }
                }
                Op::Flush => {
                    auto.flush("s").unwrap();
                    manual.flush("s").unwrap();
                    manual.compact("s").unwrap();
                }
                Op::Delete(start, end) => {
                    auto.delete("s", i64::from(*start), i64::from(*end)).unwrap();
                    manual.delete("s", i64::from(*start), i64::from(*end)).unwrap();
                    let doomed: Vec<i64> = model
                        .range(i64::from(*start)..=i64::from(*end))
                        .map(|(&t, _)| t)
                        .collect();
                    for t in doomed {
                        model.remove(&t);
                    }
                }
                Op::Read => {
                    let expected: Vec<Point> =
                        model.iter().map(|(&t, &v)| Point::new(t, v)).collect();
                    prop_assert_eq!(&merged(&auto), &expected, "scheduled store diverged");
                    prop_assert_eq!(&merged(&manual), &expected, "manual store diverged");
                }
            }
        }

        // Final read on both twins, whatever the scheduler got to.
        let expected: Vec<Point> = model.iter().map(|(&t, &v)| Point::new(t, v)).collect();
        prop_assert_eq!(&merged(&auto), &expected);
        prop_assert_eq!(&merged(&manual), &expected);

        drop(auto);
        drop(manual);
        std::fs::remove_dir_all(&auto_dir).ok();
        std::fs::remove_dir_all(&manual_dir).ok();
    }
}
