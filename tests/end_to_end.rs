//! End-to-end integration: the full pipeline from dataset generation
//! through LSM storage, both operators, rendering, and recovery.

// Integration tests assert by panicking; the workspace panic-freedom
// deny-set (root Cargo.toml) is aimed at library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use m4lsm::m4::render::{render_m4, render_series, value_range, PixelMap};
use m4lsm::m4::{M4Lsm, M4Query, M4Udf};
use m4lsm::tskv::config::EngineConfig;
use m4lsm::tskv::readers::MergeReader;
use m4lsm::tskv::TsKv;
use m4lsm::workload::{apply_random_deletes, load_with_overlap, overlap_fraction, Dataset};
use testdir::TestDir;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The full lifecycle on every dataset: generate → load with overlap →
/// delete → query at several widths → operators agree → render is
/// pixel-exact → survive reopen.
#[test]
fn full_lifecycle_all_datasets() {
    for dataset in Dataset::ALL {
        let dir = TestDir::new(&format!("e2e-life-{}", dataset.name()));
        // Small flush threshold so even the scaled-down datasets span
        // multiple files (needed for the overlap assertion below).
        let config = EngineConfig {
            points_per_chunk: 200,
            memtable_threshold: 1_000,
            ..Default::default()
        };
        let points = dataset.generate(0.003);
        let (t0, t1) = (points.first().unwrap().t, points.last().unwrap().t + 1);
        {
            let kv = TsKv::open(&dir, config.clone()).unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            // overlap = 1.0 deals every adjacent batch pair, so the
            // assertion is deterministic even for the small datasets.
            load_with_overlap(&kv, "s", &points, 1.0, &mut rng).unwrap();
            assert!(
                overlap_fraction(&kv.snapshot("s").unwrap()) > 0.0,
                "{}",
                dataset.name()
            );
            let span = (t1 - t0) / 100;
            apply_random_deletes(&kv, "s", 8, span, t0, t1, &mut rng).unwrap();

            let snap = kv.snapshot("s").unwrap();
            for w in [1usize, 13, 111, 1000] {
                let q = M4Query::new(t0, t1, w).unwrap();
                let lsm = M4Lsm::new().execute(&snap, &q).unwrap();
                let udf = M4Udf::new().execute(&snap, &q).unwrap();
                assert!(lsm.equivalent(&udf), "{} w={w}", dataset.name());
            }

            // Pixel-exact rendering at w = chart width.
            let q = M4Query::new(t0, t1, 200).unwrap();
            let lsm = M4Lsm::new().execute(&snap, &q).unwrap();
            let merged = MergeReader::with_range(&snap, q.full_range())
                .collect_merged()
                .unwrap();
            let (vmin, vmax) = value_range(&merged).unwrap();
            let map = PixelMap::new(&q, vmin, vmax, 200, 100);
            let full = render_series(&merged, &map).unwrap();
            let reduced = render_m4(&lsm, &map).unwrap();
            assert_eq!(full.diff_pixels(&reduced), 0, "{}", dataset.name());
        }
        // Recovery: reopen and re-verify one query.
        {
            let kv = TsKv::open(&dir, config).unwrap();
            let snap = kv.snapshot("s").unwrap();
            let q = M4Query::new(t0, t1, 50).unwrap();
            let lsm = M4Lsm::new().execute(&snap, &q).unwrap();
            let udf = M4Udf::new().execute(&snap, &q).unwrap();
            assert!(lsm.equivalent(&udf), "{} after reopen", dataset.name());
        }
    }
}

/// I/O accounting: on a no-overlap, no-delete store with w far below
/// the chunk count, M4-LSM answers mostly from metadata while M4-UDF
/// pays for every chunk.
#[test]
fn merge_free_saves_io() {
    let dir = TestDir::new("e2e-io");
    // Cold-read accounting: the cross-query LRU would let the UDF run
    // reuse chunks the LSM run already decoded, so turn it off here.
    let config = EngineConfig {
        cache_capacity_bytes: 0,
        ..Default::default()
    };
    let kv = TsKv::open(&dir, config).unwrap();
    let points = Dataset::Mf03.generate(0.02); // 200k points → 200 chunks
    m4lsm::workload::load_sequential(&kv, "s", &points).unwrap();
    let snap = kv.snapshot("s").unwrap();
    let (t0, t1) = (points.first().unwrap().t, points.last().unwrap().t + 1);
    let q = M4Query::new(t0, t1, 20).unwrap();

    let before = snap.io().snapshot();
    let lsm = M4Lsm::new().execute(&snap, &q).unwrap();
    let lsm_io = snap.io().snapshot() - before;

    let before = snap.io().snapshot();
    let udf = M4Udf::new().execute(&snap, &q).unwrap();
    let udf_io = snap.io().snapshot() - before;

    assert!(lsm.equivalent(&udf));
    assert_eq!(udf_io.chunks_loaded as usize, snap.chunks().len());
    assert!(
        lsm_io.chunks_loaded * 3 <= udf_io.chunks_loaded,
        "lsm {} vs udf {}",
        lsm_io.chunks_loaded,
        udf_io.chunks_loaded
    );
}

/// Cross-crate sanity: the facade crate re-exports everything needed
/// to write an application without naming internal crates.
#[test]
fn facade_surface() {
    let dir = TestDir::new("e2e-facade");
    let kv = m4lsm::tskv::TsKv::open(&dir, m4lsm::tskv::config::EngineConfig::default()).unwrap();
    kv.insert("x", m4lsm::tsfile::types::Point::new(1, 2.0))
        .unwrap();
    kv.flush_all().unwrap();
    let snap = kv.snapshot("x").unwrap();
    let q = m4lsm::m4::M4Query::new(0, 10, 2).unwrap();
    let r = m4lsm::m4::M4Lsm::new().execute(&snap, &q).unwrap();
    assert_eq!(r.non_empty(), 1);
}
