//! The I/O decisions of M4-LSM, pinned.
//!
//! A fixed store — overlapping flushes, overwrites of the bottom and
//! top points, deletes that clip span edges, small chunks, a memtable
//! chunk — is queried with a fixed list at `read_threads = 1` under both
//! `M4LsmConfig` ablations, and the `IoSnapshot` delta of every
//! execution is compared with [`GOLDEN`]. The engine's decoded-chunk
//! cache is on, so `cache_hits + cache_misses` is the number of chunk
//! loads an execution asked for, whatever earlier rows left cached.
//!
//! The table was printed by this same test when a chunk became one
//! page: the fixture's 500-point chunks of 100-point pages became
//! 100-point chunks, and the `pages_skipped` column (always 0 since)
//! went. The fixture's fragments are the same intervals with the same
//! statistics as before; what changed is that each 100 points now has a
//! version of its own where five pages shared one — and BP/TP candidate
//! generation breaks a value tie by the larger version. Every chunk's
//! top is 100 and most chunks' bottom is 0, so the candidate a tie
//! picks moved, and with it the loads and probes verifying it: rows of
//! `(0, 20_000, 7)` decode 90 timestamps where they decoded 36, its lazy
//! `(0, 20_000, 40)` row 980 points where 780, and `(1_234, 17_777, 7)`
//! 92 timestamps where 42; the other rows decode no more. Checked, not
//! guessed: at the parent, with that tie-break removed, the old layout
//! and this one print the same table, and with it kept, the parent on
//! this layout prints exactly this table.

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

/// `lazy_load`, run in this order on every query.
const ABLATIONS: [bool; 2] = [true, false];

/// One row per query per ablation, in execution order: `chunks_loaded`,
/// `pages_decoded`, `points_decoded`, `timestamps_decoded`,
/// `pages_stat_answered`, `cache_hits`, `cache_misses`.
const GOLDEN: [[u64; 7]; 10] = [
    [2, 2, 200, 0, 0, 0, 2],
    [0, 0, 0, 0, 0, 2, 0],
    [14, 13, 1338, 90, 3, 2, 13],
    [1, 0, 108, 90, 3, 15, 0],
    [10, 9, 980, 2, 0, 15, 9],
    [1, 0, 80, 2, 0, 24, 0],
    [1, 1, 82, 0, 0, 24, 1],
    [0, 0, 80, 0, 0, 25, 0],
    [2, 0, 80, 92, 8, 14, 0],
    [2, 0, 80, 92, 8, 14, 0],
];

fn store() -> (std::path::PathBuf, TsKv) {
    let dir = std::env::temp_dir().join(format!("m4-golden-io-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let kv = TsKv::open(
        &dir,
        EngineConfig {
            points_per_chunk: 100,
            memtable_threshold: 1_000_000,
            read_threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let put = |pts: Vec<Point>| kv.insert_batch("s", &pts).unwrap();
    // Twenty 100-point chunks on a 10 ms grid; every chunk's top is 100
    // and most chunks' bottom is 0.
    let v = |i: i64| ((i * 37) % 101) as f64;
    put((0..2000).map(|i| Point::new(i * 10, v(i))).collect());
    kv.flush_all().unwrap();
    // Every later write carries a middling value, so the extremes stay
    // in the first flush and have to be verified against what follows.
    // This one overwrites the tops and bottoms of six chunks.
    put((300..900)
        .filter(|&i| v(i) == 100.0 || v(i) == 0.0 || i % 5 == 0)
        .map(|i| Point::new(i * 10, 50.0))
        .collect());
    kv.flush_all().unwrap();
    // Off the grid at a constant step: a probe for a grid timestamp
    // finds no point there.
    put((0..100)
        .map(|i| Point::new(12_005 + i * 70, (45 + i % 9) as f64))
        .collect());
    kv.flush_all().unwrap();
    kv.delete("s", 0, 450).unwrap();
    kv.delete("s", 4_990, 5_010).unwrap(); // a `w = 40` span edge
    kv.delete("s", 15_440, 15_460).unwrap(); // a chunk's top
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
    let counts: Vec<u64> = snap.chunks().iter().map(|c| c.count()).collect();
    let mut expect = vec![100; 20];
    expect.extend([100, 30, 100, 100, 2, 80]);
    assert_eq!(counts, expect);
    assert!(snap.chunks()[25].is_mem());

    let mut rows = Vec::new();
    for (t_qs, t_qe, w) in QUERIES {
        let q = M4Query::new(t_qs, t_qe, w).unwrap();
        for lazy_load in ABLATIONS {
            let cfg = M4LsmConfig { lazy_load };
            let before = snap.io().snapshot();
            M4Lsm::with_config(cfg).execute(&snap, &q).unwrap();
            let d = snap.io().snapshot() - before;
            rows.push([
                d.chunks_loaded,
                d.pages_decoded,
                d.points_decoded,
                d.timestamps_decoded,
                d.pages_stat_answered,
                d.cache_hits,
                d.cache_misses,
            ]);
        }
    }
    // A query over 2 % of the range keeps a row for exactly the chunks
    // overlapping it — 2 of the store's 26.
    let q = M4Query::new(8_000, 8_400, 7).unwrap();
    let expect = snap.chunks_overlapping(q.full_range()).len();
    assert_eq!((M4Lsm::fragments(&snap, &q), expect), (2, 2));
    let printed: String = rows.iter().map(|r| format!("    {r:?},\n")).collect();
    assert!(rows == GOLDEN, "I/O decisions moved; now:\n{printed}");
    std::fs::remove_dir_all(&dir).ok();
}
