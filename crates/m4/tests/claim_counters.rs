//! The paper's claim, cell by cell, in counters rather than time:
//! M4-LSM answers what M4-UDF answers and decodes no more to do it.
//!
//! The grid: the four `workload::Dataset` analogues × `points_per_chunk`
//! ∈ {64, 256, 1024} × chunk overlap ∈ {0, 30 %} (`load_with_overlap`) ×
//! random deletes off/on (`apply_random_deletes`) × `w` ∈ {4, 100,
//! 1000}. Every store keeps an unflushed memtable tail, and the decoded
//! chunk cache is off, so each operator pays for every chunk it reads.
//! In every cell:
//!
//! * M4-LSM ≡ M4-UDF ≡ [`m4::oracle`];
//! * M4-LSM's `points_decoded` and `pages_decoded` are at most M4-UDF's;
//! * M4-LSM's `chunks_loaded` — full loads and timestamp reads alike —
//!   is at most M4-UDF's, and at most the number of sealed chunks
//!   overlapping the range, so no chunk is read twice;
//! * `spans_executed` is the number of spans reached by a row that this
//!   test's own brute-force check finds not clean — overlapping another
//!   row, or a newer delete — and the other spans are `spans_folded`.
//!
//! A delete-free store, once compacted, executes no span at all.

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

use rand::rngs::StdRng;
use rand::SeedableRng;
use testdir::TestDir;
use tsfile::types::Point;
use tskv::config::EngineConfig;
use tskv::stats::IoSnapshot;
use tskv::{FsyncPolicy, SeriesSnapshot, TsKv};
use workload::{apply_random_deletes, load_with_overlap, Dataset};

use m4::oracle::m4_scan;
use m4::{M4Lsm, M4Query, M4Result, M4Udf};

/// Points per store, of which the last `TAIL` stay in the memtable.
const POINTS: usize = 12_000;
const TAIL: usize = 300;
/// Points per flush, so a 30 % overlap deals a few pairs at every chunk
/// size.
const BATCH: usize = 1_024;

/// Run `query` on both operators, and return their answers and what
/// each one's execution cost.
fn run(snap: &SeriesSnapshot, query: &M4Query) -> [(M4Result, IoSnapshot); 2] {
    let measure = |f: &dyn Fn() -> M4Result| {
        let before = snap.io().snapshot();
        let r = f();
        (r, snap.io().snapshot() - before)
    };
    [
        measure(&|| M4Lsm::new().execute(snap, query).unwrap()),
        measure(&|| M4Udf::new().execute(snap, query).unwrap()),
    ]
}

/// The spans of `query` that a row which is not clean reaches, by the
/// definition: a row (a chunk overlapping the query range) is clean iff
/// no other row overlaps it and no newer delete does.
fn executed_spans(snap: &SeriesSnapshot, query: &M4Query) -> u64 {
    let rows = snap.chunks_overlapping(query.full_range());
    let spans: Vec<_> = query.spans().collect();
    let mut reached = vec![false; query.w];
    for (i, row) in rows.iter().enumerate() {
        let r = row.time_range();
        let overlapped = rows
            .iter()
            .enumerate()
            .any(|(k, other)| k != i && other.time_range().overlaps(&r));
        let deleted = snap
            .deletes()
            .iter()
            .any(|d| d.applies_to(row.version) && d.range.overlaps(&r));
        if overlapped || deleted {
            for (s, span) in spans.iter().enumerate() {
                reached[s] |= span.overlaps(&r);
            }
        }
    }
    reached.iter().filter(|&&e| e).count() as u64
}

/// Check every claim on one cell; `expected` is the merged series.
fn check(snap: &SeriesSnapshot, query: &M4Query, expected: &[Point], cell: &str) -> u64 {
    let [(lsm, l), (udf, u)] = run(snap, query);
    let oracle = m4_scan(expected, query);
    assert!(lsm.equivalent(&udf), "{cell}: M4-LSM and M4-UDF differ");
    assert!(
        udf.equivalent(&oracle),
        "{cell}: M4-UDF and the oracle differ"
    );
    assert!(
        l.points_decoded <= u.points_decoded && l.pages_decoded <= u.pages_decoded,
        "{cell}: M4-LSM decoded more\nlsm {l:?}\nudf {u:?}"
    );
    let sealed = snap
        .chunks_overlapping(query.full_range())
        .iter()
        .filter(|c| !c.is_mem())
        .count() as u64;
    assert!(
        l.chunks_loaded <= u.chunks_loaded && l.chunks_loaded <= sealed,
        "{cell}: M4-LSM read more chunks ({sealed} sealed ones overlap)\nlsm {l:?}\nudf {u:?}"
    );
    let executed = executed_spans(snap, query);
    assert_eq!(
        (l.spans_executed, l.spans_folded),
        (executed, query.w as u64 - executed),
        "{cell}: spans executed, folded"
    );
    executed
}

#[test]
fn m4_lsm_matches_and_decodes_no_more_than_m4_udf_in_every_cell() {
    let started = std::time::Instant::now();
    let (mut cells, mut executed, mut spans) = (0, 0, 0);
    for points_per_chunk in [64, 256, 1024] {
        let dir = TestDir::new(&format!("m4-claim-{points_per_chunk}"));
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk,
                memtable_threshold: BATCH,
                cache_capacity_bytes: 0,
                fsync_policy: FsyncPolicy::Never,
                ..Default::default()
            },
        )
        .unwrap();
        for dataset in Dataset::ALL {
            let spec = dataset.spec();
            let all = dataset.generate(POINTS as f64 / spec.points as f64);
            let (sealed, tail) = all.split_at(all.len() - TAIL);
            let (t_qs, t_qe) = (all[0].t, all[all.len() - 1].t + 1);
            for (overlap, deletes) in [(0.0, false), (0.0, true), (0.3, false), (0.3, true)] {
                let series = format!("{}-{overlap}-{deletes}", dataset.name());
                let mut rng = StdRng::seed_from_u64(points_per_chunk as u64);
                load_with_overlap(&kv, &series, sealed, overlap, &mut rng).unwrap();
                kv.insert_batch(&series, tail).unwrap();
                let mut expected = all.clone();
                if deletes {
                    let len = (t_qe - t_qs) / 100;
                    for (a, b) in
                        apply_random_deletes(&kv, &series, 6, len, t_qs, t_qe, &mut rng).unwrap()
                    {
                        expected.retain(|p| p.t < a || p.t > b);
                    }
                }
                let snap = kv.snapshot(&series).unwrap();
                assert!(snap.chunks().last().unwrap().is_mem(), "{series}: no tail");
                for w in [4, 100, 1000] {
                    let query = M4Query::new(t_qs, t_qe, w).unwrap();
                    let cell = format!("{series} ppc {points_per_chunk} w {w}");
                    executed += check(&snap, &query, &expected, &cell);
                    (cells, spans) = (cells + 1, spans + w as u64);
                }
                if !deletes {
                    kv.compact(&series).unwrap();
                    let snap = kv.snapshot(&series).unwrap();
                    for w in [4, 100, 1000] {
                        let query = M4Query::new(t_qs, t_qe, w).unwrap();
                        let cell = format!("{series} ppc {points_per_chunk} w {w}, compacted");
                        assert_eq!(check(&snap, &query, &expected, &cell), 0, "{cell}");
                    }
                }
            }
        }
    }
    assert_eq!(cells, 144);
    // Both paths ran: some spans were executed and most were folded.
    assert!(
        0 < executed && executed < spans / 2,
        "{executed} of {spans}"
    );
    let took = started.elapsed();
    assert!(took.as_secs() < 10, "took {took:?}");
}
