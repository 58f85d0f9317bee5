//! Storage granularity must be invisible to query results: a store
//! writing small chunks (a few points each, so every flush and every
//! compaction output spans many chunks) and a twin store writing one
//! chunk per flush (`points_per_chunk = usize::MAX`, clamped to the
//! page ceiling) fed the same history must answer every M4 query
//! identically.
//!
//! The M4-UDF baseline is compared *byte-exactly* between the twins —
//! its k-way merge sees the same point multiset either way, so any
//! divergence is a chunking bug. M4-LSM is held to byte-exact FP/LP and
//! value-equal BP/TP (Definition 2.1): at chunk granularity a different
//! — equally extreme — representative may win a tie, which the paper's
//! equivalence explicitly allows. Both must also match the in-memory
//! oracle.

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
use tskv::TsKv;

use m4::oracle::m4_scan;
use m4::{M4Lsm, M4LsmConfig, M4Query, M4Udf};

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<(i16, i8)>),
    Flush,
    Delete(i16, i16),
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => prop::collection::vec((any::<i16>(), any::<i8>()), 1..80).prop_map(Op::Insert),
        2 => Just(Op::Flush),
        1 => Just(Op::Compact),
        2 => (any::<i16>(), 0i16..300).prop_map(|(s, len)| Op::Delete(s, s.saturating_add(len))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn paged_and_monolithic_stores_answer_identically(
        ops in prop::collection::vec(op_strategy(), 1..16),
        small_chunk in 2usize..12,
        qs in -40_000i64..40_000,
        qlen in 1i64..70_000,
        w in 1usize..24,
    ) {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let paged_dir = std::env::temp_dir()
            .join(format!("m4-pageprop-p-{}-{stamp:x}", std::process::id()));
        let mono_dir = std::env::temp_dir()
            .join(format!("m4-pageprop-m-{}-{stamp:x}", std::process::id()));
        // Tiny chunks: a flush of a full memtable seals many chunks, so
        // span assignment across chunks is exercised hard. The
        // monolithic twin differs ONLY in points_per_chunk.
        let base = EngineConfig {
            memtable_threshold: 128,
            ..Default::default()
        };
        let paged = TsKv::open(
            &paged_dir,
            EngineConfig { points_per_chunk: small_chunk, ..base.clone() },
        )
        .unwrap();
        let mono = TsKv::open(
            &mono_dir,
            EngineConfig { points_per_chunk: usize::MAX, ..base },
        )
        .unwrap();
        paged.create_series("s").unwrap();
        mono.create_series("s").unwrap();

        let mut model: BTreeMap<i64, f64> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::Insert(batch) => {
                    let pts: Vec<Point> = batch
                        .iter()
                        .map(|&(t, v)| Point::new(i64::from(t), f64::from(v)))
                        .collect();
                    paged.insert_batch("s", &pts).unwrap();
                    mono.insert_batch("s", &pts).unwrap();
                    for p in &pts {
                        model.insert(p.t, p.v);
                    }
                }
                Op::Flush => {
                    paged.flush("s").unwrap();
                    mono.flush("s").unwrap();
                }
                Op::Compact => {
                    paged.compact("s").unwrap();
                    mono.compact("s").unwrap();
                }
                Op::Delete(s, e) => {
                    paged.delete("s", i64::from(*s), i64::from(*e)).unwrap();
                    mono.delete("s", i64::from(*s), i64::from(*e)).unwrap();
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

        let snap_p = paged.snapshot("s").unwrap();
        let snap_m = mono.snapshot("s").unwrap();

        // UDF: byte-exact across the twins, and correct.
        let udf_p = M4Udf::new().execute(&snap_p, &query).unwrap();
        let udf_m = M4Udf::new().execute(&snap_m, &query).unwrap();
        prop_assert_eq!(&udf_p, &udf_m, "small-chunk vs monolithic UDF results differ");
        prop_assert!(
            udf_p.equivalent(&expected),
            "UDF deviates from oracle\nudf: {:?}\noracle: {:?}", udf_p, expected
        );

        // M4-LSM in every ablation: equivalent to the oracle on both
        // stores, with byte-exact FP/LP across the twins.
        for cfg in [
            M4LsmConfig { lazy_load: true },
            M4LsmConfig { lazy_load: false },
        ] {
            let lsm_p = M4Lsm::with_config(cfg).execute(&snap_p, &query).unwrap();
            let lsm_m = M4Lsm::with_config(cfg).execute(&snap_m, &query).unwrap();
            prop_assert!(
                lsm_p.equivalent(&expected),
                "small-chunk M4-LSM ({:?}) deviates from oracle\nlsm: {:?}\noracle: {:?}",
                cfg, lsm_p, expected
            );
            prop_assert!(
                lsm_m.equivalent(&expected),
                "monolithic M4-LSM ({:?}) deviates from oracle", cfg
            );
            for (sp, sm) in lsm_p.spans.iter().zip(lsm_m.spans.iter()) {
                match (sp, sm) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(a.first, b.first, "FP differs across twins ({:?})", cfg);
                        prop_assert_eq!(a.last, b.last, "LP differs across twins ({:?})", cfg);
                    }
                    _ => return Err(TestCaseError::fail(format!(
                        "span emptiness differs across twins ({cfg:?})"
                    ))),
                }
            }
        }

        drop(paged);
        drop(mono);
        std::fs::remove_dir_all(&paged_dir).ok();
        std::fs::remove_dir_all(&mono_dir).ok();
    }
}
