//! The I/O decisions of M4-LSM, pinned.
//!
//! A fixed store — overlapping flushes, overwrites of the bottom and
//! top points, deletes that clip span edges, small chunks, a memtable
//! chunk — is queried with a fixed list at `read_threads = 1`, and the
//! `IoSnapshot` delta of every execution is compared with [`GOLDEN`].
//! The engine's decoded-chunk cache is on, so `cache_hits +
//! cache_misses` is the number of chunk loads an execution asked for,
//! whatever earlier rows left cached.
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
//! `(0, 20_000, 7)` decode 90 timestamps where they decoded 36, its
//! `(0, 20_000, 40)` row 980 points where 780, and `(1_234, 17_777, 7)`
//! 92 timestamps where 42; the other rows decode no more. Checked, not
//! guessed: at the parent, with that tie-break removed, the old layout
//! and this one print the same table, and with it kept, the parent on
//! this layout prints exactly this table.
//!
//! The two `(0, 20_000, 7)` rows changed once more, in their counters
//! only: a timestamp probe of the memtable chunk used to add what it
//! took to `points_decoded`, and now counts it in `timestamps_decoded`
//! as a file probe does. Those rows probe the memtable chunk for 108
//! timestamps, which moved from the one column to the other (lazy
//! 1 338/90 → 1 230/198, eager 108/90 → 0/198); no load, probe or
//! answer changed, and no other row probes the memtable chunk.
//!
//! The `timestamps_decoded` column changed once more, alone, when a
//! probe came to read a chunk's timestamp column whole and keep it for
//! every later probe of the query, where it had decoded a prefix up to
//! the probe and read the chunk again for a probe past that prefix.
//! `(0, 20_000, 7)` probes the 100-point chunk of version 28 and the
//! 80-point memtable chunk: 90 + 108 timestamps over the memtable
//! chunk's re-reads became 100 + 80, so 198 → 180. `(1_234, 17_777, 7)`
//! probes that 100-point chunk and the 2-point one: 90 + 2 became
//! 100 + 2, so 92 → 102. No other count of any row moved.
//!
//! The `chunks_loaded` column changed once more, alone, when a probe of
//! a sealed chunk the decoded-chunk cache holds came to take its
//! timestamps from the cached points instead of reading the body.
//! `(1_234, 17_777, 7)` probes the 100-point chunk of version 28 and the
//! 2-point one, both cached by the rows before it: 2 → 0 loads, and the
//! same 102 timestamps taken. The cache's hits and misses count point
//! loads only, so no other count of any row moved.
//!
//! The table had two rows a query, one per loading policy, until lazy
//! loading became the only one: the eager rows were dropped, the lazy
//! rows kept as they were. Every eager row loaded only chunks already
//! cached (`cache_misses = 0`), so it left the cache as it found it and
//! dropping it moves no count of the rows after it.

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

use testdir::TestDir;
use tsfile::types::Point;
use tskv::config::EngineConfig;
use tskv::TsKv;

use m4::{M4Lsm, M4Query};

/// `(t_qs, t_qe, w)`: the full range at every `w`, then a misaligned
/// subrange.
const QUERIES: [(i64, i64, usize); 5] = [
    (0, 20_000, 1),
    (0, 20_000, 7),
    (0, 20_000, 40),
    (0, 20_000, 400),
    (1_234, 17_777, 7),
];

/// One row per query, in execution order: `chunks_loaded`,
/// `pages_decoded`, `points_decoded`, `timestamps_decoded`,
/// `pages_stat_answered`, `cache_hits`, `cache_misses`.
const GOLDEN: [[u64; 7]; 5] = [
    [2, 2, 200, 0, 0, 0, 2],
    [14, 13, 1230, 180, 3, 2, 13],
    [10, 9, 980, 2, 0, 15, 9],
    [1, 1, 82, 0, 0, 24, 1],
    [0, 0, 80, 102, 8, 14, 0],
];

fn store() -> (TestDir, TsKv) {
    let dir = TestDir::new("m4-golden-io");
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
    let (_dir, kv) = store();
    let snap = kv.snapshot("s").unwrap();
    let counts: Vec<u64> = snap.chunks().iter().map(|c| c.count()).collect();
    let mut expect = vec![100; 20];
    expect.extend([100, 30, 100, 100, 2, 80]);
    assert_eq!(counts, expect);
    assert!(snap.chunks()[25].is_mem());

    let mut rows = Vec::new();
    for (t_qs, t_qe, w) in QUERIES {
        let q = M4Query::new(t_qs, t_qe, w).unwrap();
        let before = snap.io().snapshot();
        M4Lsm::new().execute(&snap, &q).unwrap();
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
    // A query over 2 % of the range meets 2 of the store's 26 chunks.
    let q = M4Query::new(8_000, 8_400, 7).unwrap();
    assert_eq!(snap.chunks_overlapping(q.full_range()).len(), 2);
    let printed: String = rows.iter().map(|r| format!("    {r:?},\n")).collect();
    assert!(rows == GOLDEN, "I/O decisions moved; now:\n{printed}");
}
