//! The I/O decisions of M4-LSM, pinned.
//!
//! A fixed store — overlapping flushes, overwrites of the bottom and
//! top points, deletes that clip span edges, multi-page chunks, a
//! memtable chunk — is queried with a fixed list at `read_threads = 1`
//! under all four `M4LsmConfig` ablations, and the `IoSnapshot` delta
//! of every execution is compared with [`GOLDEN`]. The table was printed
//! by this same test at the commit *before* the operator's per-query
//! state moved into one fragment table: equal rows say the rewrite reads
//! the same pages, decodes the same timestamp prefixes and answers the
//! same fragments from statistics. The engine's decoded-page cache is
//! on, so `cache_hits + cache_misses` is the number of page loads an
//! execution asked for, whatever earlier rows left cached.

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

use tsfile::types::Point;
use tskv::config::EngineConfig;
use tskv::TsKv;

use m4::{M4Lsm, M4LsmConfig, M4Query};

/// `(t_qs, t_qe, w)`: the full range at every `w`, then a misaligned
/// subrange.
const QUERIES: [(i64, i64, usize); 5] = [
    (0, 20_000, 1),
    (0, 20_000, 7),
    (0, 20_000, 40),
    (0, 20_000, 400),
    (1_234, 17_777, 7),
];

/// `(lazy_load, use_step_index)`, run in this order on every query.
const ABLATIONS: [(bool, bool); 4] = [(true, true), (false, true), (true, false), (false, false)];

/// One row per query per ablation, in execution order: `chunks_loaded`,
/// `pages_decoded`, `points_decoded`, `timestamps_decoded`,
/// `pages_stat_answered`, `pages_skipped`, `cache_hits`, `cache_misses`.
const GOLDEN: [[u64; 8]; 20] = [
    [2, 2, 316, 0, 2, 0, 0, 2],
    [1, 1, 216, 0, 2, 0, 2, 1],
    [3, 0, 116, 172, 2, 0, 2, 0],
    [3, 0, 116, 172, 2, 0, 3, 0],
    [15, 13, 1346, 36, 6, 0, 2, 13],
    [3, 1, 216, 36, 6, 0, 16, 1],
    [2, 0, 116, 36, 6, 0, 15, 0],
    [2, 0, 116, 36, 6, 0, 17, 0],
    [8, 7, 780, 2, 0, 0, 17, 7],
    [1, 0, 80, 2, 0, 0, 24, 0],
    [1, 0, 80, 2, 0, 0, 24, 0],
    [1, 0, 80, 2, 0, 0, 24, 0],
    [1, 1, 82, 0, 0, 0, 24, 1],
    [0, 0, 80, 0, 0, 0, 25, 0],
    [0, 0, 80, 0, 0, 0, 25, 0],
    [0, 0, 80, 0, 0, 0, 25, 0],
    [2, 0, 80, 42, 7, 0, 14, 0],
    [2, 0, 80, 42, 7, 0, 14, 0],
    [2, 0, 80, 42, 7, 0, 14, 0],
    [2, 0, 80, 42, 7, 0, 14, 0],
];

fn store() -> (std::path::PathBuf, TsKv) {
    let dir = std::env::temp_dir().join(format!("m4-golden-io-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let kv = TsKv::open(
        &dir,
        EngineConfig {
            points_per_chunk: 500,
            page_points: 100,
            memtable_threshold: 1_000_000,
            read_threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let put = |pts: Vec<Point>| kv.insert_batch("s", &pts).unwrap();
    // Four 5-page chunks on a 10 ms grid; every page's top is 100 and
    // most pages' bottom is 0.
    let v = |i: i64| ((i * 37) % 101) as f64;
    put((0..2000).map(|i| Point::new(i * 10, v(i))).collect());
    kv.flush_all().unwrap();
    // Every later write carries a middling value, so the extremes stay
    // in the first flush and have to be verified against what follows.
    // This one overwrites the tops and bottoms of six pages.
    put((300..900)
        .filter(|&i| v(i) == 100.0 || v(i) == 0.0 || i % 5 == 0)
        .map(|i| Point::new(i * 10, 50.0))
        .collect());
    kv.flush_all().unwrap();
    // Off the grid at a constant step: an exact step model answers a
    // probe for a grid timestamp from metadata.
    put((0..100)
        .map(|i| Point::new(12_005 + i * 70, (45 + i % 9) as f64))
        .collect());
    kv.flush_all().unwrap();
    kv.delete("s", 0, 450).unwrap();
    kv.delete("s", 4_990, 5_010).unwrap(); // a `w = 40` span edge
    kv.delete("s", 15_440, 15_460).unwrap(); // a page's top
    kv.delete("s", 19_500, 30_000).unwrap(); // clips the tail

    // Irregular timestamps (no exact model), plus a top and a bottom
    // of the first flush overwritten.
    let mut late: Vec<Point> = (0..100)
        .map(|i| Point::new(6_000 + i * 20 + i * i % 7, 55.0))
        .collect();
    late.extend([Point::new(10_100, 52.0), Point::new(10_400, 52.0)]);
    put(late);
    kv.flush_all().unwrap();
    kv.delete("s", 6_500, 6_520).unwrap();
    // Left in the memtable, over the deleted top.
    put((0..80)
        .map(|i| Point::new(15_000 + i * 25, (40 + i % 7) as f64))
        .collect());
    (dir, kv)
}

#[test]
fn io_decisions_match_the_recorded_table() {
    let (dir, kv) = store();
    let snap = kv.snapshot("s").unwrap();
    let pages: Vec<u32> = snap.chunks().iter().map(|c| c.page_count()).collect();
    assert_eq!(pages, [5, 5, 5, 5, 2, 1, 2, 1]);
    assert!(snap.chunks()[7].is_mem());

    let mut rows = Vec::new();
    for (t_qs, t_qe, w) in QUERIES {
        let q = M4Query::new(t_qs, t_qe, w).unwrap();
        for (lazy_load, use_step_index) in ABLATIONS {
            let cfg = M4LsmConfig {
                lazy_load,
                use_step_index,
            };
            let before = snap.io().snapshot();
            M4Lsm::with_config(cfg).execute(&snap, &q).unwrap();
            let d = snap.io().snapshot() - before;
            rows.push([
                d.chunks_loaded,
                d.pages_decoded,
                d.points_decoded,
                d.timestamps_decoded,
                d.pages_stat_answered,
                d.pages_skipped,
                d.cache_hits,
                d.cache_misses,
            ]);
        }
    }
    // A query over 2 % of the range keeps a row for exactly the pages
    // overlapping it — 2 of the store's 26.
    let q = M4Query::new(8_000, 8_400, 7).unwrap();
    let overlapping = |c: &tskv::ChunkHandle| c.pages_overlapping(q.full_range()).len();
    let expect: usize = snap.chunks().iter().map(overlapping).sum();
    assert_eq!((M4Lsm::fragments(&snap, &q), expect), (2, 2));
    let printed: String = rows.iter().map(|r| format!("    {r:?},\n")).collect();
    assert!(rows == GOLDEN, "I/O decisions moved; now:\n{printed}");
    std::fs::remove_dir_all(&dir).ok();
}
