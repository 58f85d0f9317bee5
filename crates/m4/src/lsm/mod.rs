//! M4-LSM: the chunk-merge-free M4 operator (paper §3, Algorithm 1).
//!
//! Execution per query:
//!
//! 1. Build the query's fragment table ([`table::FragmentTable`]) from
//!    chunk metadata — in-memory only ([`tskv::readers::MetadataReader`]
//!    territory): one row per chunk overlapping the query range — a
//!    chunk is one page, so candidate generation, verification and lazy
//!    loading all work on chunk statistics and chunk loads.
//! 2. Classify the rows once with the chunk planner compaction uses
//!    ([`tskv::readers::plan::classify`]). A *clean* row overlaps no
//!    other row and no newer delete, so its statistics are exact
//!    (Proposition 3.3). A span a dirty or dropped row reaches is
//!    *executed*; every other span is *folded*.
//! 3. Load the rows no single span holds whole in one batch; only the
//!    cache misses fan out across the engine's `read_threads`.
//! 4. Fold: walk the clean rows in start order. Disjoint from every
//!    other row, a clean row reaches its spans in order and gives each
//!    its statistics, when the span holds it whole, or its in-span
//!    slice, through [`SpanRepr::fold`].
//! 5. Execute: per executed span, over all its rows in version order,
//!    run candidate generation + verification + lazy loading
//!    (`span::SpanExecutor`) for each of FP/LP/BP/TP; the span
//!    boundaries act as the paper's §3.1 *virtual deletes*, realized
//!    as interval clipping.
//!
//! Everything the query pays for lands in the fragment's row, so in one
//! query a chunk's timestamp column is read at most once and its body
//! is loaded at most once. A refuted candidate's chunk is loaded only
//! once it is the most extreme left (§3.3/§3.4); loading it at once
//! read up to 8 % more chunks and never fewer (DESIGN §4, A2). A
//! timestamp probe is a binary search over the chunk's timestamp
//! column, read whole by the row's first probe (from the decoded-chunk
//! cache where it holds the chunk), or over the loaded chunk. The
//! paper's §3.5 step regression is what a page stores: a constant
//! column, or a packed one whose delays are window exceptions; a learned
//! index beside it decoded the same prefixes and bought no time (DESIGN
//! §4, A1). All of it runs on the calling thread but the batch load of
//! step 3.

mod span;
mod table;

use std::ops::RangeInclusive;

use tsfile::types::TimeRange;
use tskv::readers::plan::{self, ChunkView, Fate};
use tskv::SeriesSnapshot;

use crate::query::M4Query;
use crate::repr::{M4Result, SpanRepr};
use crate::{M4Error, Result};
use span::{SpanExecutor, SpanFragment};
use table::FragmentTable;

/// The merge-free M4 operator.
#[derive(Debug, Clone, Copy, Default)]
pub struct M4Lsm;

impl M4Lsm {
    pub fn new() -> Self {
        M4Lsm
    }

    /// Execute an M4 query over a storage snapshot.
    pub fn execute(&self, snapshot: &SeriesSnapshot, query: &M4Query) -> Result<M4Result> {
        let table = FragmentTable::new(snapshot, query.full_range());
        let rows = table.rows();
        let deletes = snapshot.deletes();
        let views: Vec<ChunkView> = rows
            .iter()
            .map(|f| ChunkView {
                version: f.version().0,
                range: f.range(),
            })
            .collect();
        let fates = plan::classify(&views, deletes);
        let reach = rows
            .iter()
            .map(|f| reach(query, f.range()))
            .collect::<Result<Vec<_>>>()?;

        let mut executed = vec![false; query.w];
        for ((r, _), fate) in reach.iter().zip(&fates) {
            if *fate != Fate::Clean {
                executed[r.clone()].fill(true);
            }
        }
        let n = executed.iter().filter(|&&e| e).count() as u64;
        snapshot.io().record_spans_executed(n);
        snapshot.io().record_spans_folded(query.w as u64 - n);

        // Every span a split row reaches resolves it from its data, so
        // the split rows are loaded first, in one batch.
        let split: Vec<_> = rows
            .iter()
            .zip(&reach)
            .filter_map(|(f, (_, whole))| (!whole).then_some(f))
            .collect();
        table.load(&split)?;

        let mut spans: Vec<Option<SpanRepr>> = vec![None; query.w];
        let mut clean: Vec<_> = rows
            .iter()
            .zip(&reach)
            .zip(&fates)
            .filter_map(|(row, fate)| (*fate == Fate::Clean).then_some(row))
            .collect();
        clean.sort_by_key(|(f, _)| f.range().start);
        for (row, (r, whole)) in clean {
            if *whole {
                if !executed[*r.start()] {
                    let s = row.stats();
                    let repr = SpanRepr {
                        first: s.first,
                        last: s.last,
                        bottom: s.bottom,
                        top: s.top,
                    };
                    SpanRepr::fold(&mut spans[*r.start()], repr);
                    table.note_stat_answered();
                }
                continue;
            }
            // The spans tile the query range, so each slice begins where
            // the one before ended; a scan finds its end sooner than a
            // search when a span holds few points.
            let pts = table.points(row)?;
            let mut rest = &pts[pts.partition_point(|p| p.t < query.t_qs)..];
            for i in r.clone() {
                let end = query.span_range(i).end;
                let n = rest.iter().position(|p| p.t > end);
                let (part, tail) = rest.split_at(n.unwrap_or(rest.len()));
                rest = tail;
                if !executed[i] {
                    if let Some(part) = SpanRepr::from_sorted_points(part) {
                        SpanRepr::fold(&mut spans[i], part);
                    }
                }
            }
        }

        // The executed spans, in order, each over its rows in version
        // order (the sort is stable).
        let mut visits: Vec<(usize, SpanFragment<'_>)> = Vec::new();
        for (row, (r, whole)) in rows.iter().zip(&reach) {
            let executed = r.clone().filter(|&i| executed[i]);
            visits.extend(executed.map(|i| (i, (row, *whole))));
        }
        visits.sort_by_key(|&(i, _)| i);
        for visit in visits.chunk_by(|a, b| a.0 == b.0) {
            let i = visit[0].0;
            let frags: Vec<SpanFragment<'_>> = visit.iter().map(|&(_, f)| f).collect();
            spans[i] = SpanExecutor::new(&frags, &table, deletes, query.span_range(i)).compute()?;
        }
        Ok(M4Result { spans })
    }
}

/// The spans a fragment's time interval reaches, and whether the one
/// span holds it whole: only then do its statistics describe its points
/// in the span.
fn reach(query: &M4Query, range: TimeRange) -> Result<(RangeInclusive<usize>, bool)> {
    let clipped = range.intersect(&query.full_range());
    let left = || M4Error::Internal("clipped fragment interval left the query range");
    let lo = query.span_of(clipped.start).ok_or_else(left)?;
    let hi = query.span_of(clipped.end).ok_or_else(left)?;
    Ok((lo..=hi, lo == hi && clipped == range))
}

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets library code.
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )]

    use super::*;
    use testdir::TestDir;
    use tsfile::types::Point;
    use tskv::config::EngineConfig;
    use tskv::TsKv;

    use crate::udf::M4Udf;

    fn fresh(name: &str, chunk: usize) -> (TestDir, TsKv) {
        let dir = TestDir::new(&format!("m4-lsm-{name}"));
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: chunk,
                memtable_threshold: chunk * 4,
                ..Default::default()
            },
        )
        .unwrap();
        (dir, kv)
    }

    fn assert_matches_udf(kv: &TsKv, series: &str, q: &M4Query) {
        let snap = kv.snapshot(series).unwrap();
        let udf = M4Udf::new().execute(&snap, q).unwrap();
        let lsm = M4Lsm::new().execute(&snap, q).unwrap();
        assert!(lsm.equivalent(&udf), "lsm: {lsm:?}\nudf: {udf:?}");
    }

    #[test]
    fn clean_sequential_data() {
        let (_dir, kv) = fresh("clean", 100);
        for t in 0..2000i64 {
            kv.insert("s", Point::new(t, ((t * 37) % 101) as f64))
                .unwrap();
        }
        kv.flush_all().unwrap();
        assert_matches_udf(&kv, "s", &M4Query::new(0, 2000, 7).unwrap());
        assert_matches_udf(&kv, "s", &M4Query::new(0, 2000, 1).unwrap());
        assert_matches_udf(&kv, "s", &M4Query::new(0, 2000, 400).unwrap());
    }

    #[test]
    fn pure_metadata_path_loads_nothing() {
        let (_dir, kv) = fresh("meta-only", 100);
        for t in 0..1000i64 {
            kv.insert("s", Point::new(t, (t % 13) as f64)).unwrap();
        }
        kv.flush_all().unwrap();
        let snap = kv.snapshot("s").unwrap();
        // One span covering everything: all chunks whole, no deletes,
        // no overlap → zero chunk loads.
        let before = snap.io().snapshot();
        let q = M4Query::new(0, 1000, 1).unwrap();
        let r = M4Lsm::new().execute(&snap, &q).unwrap();
        let delta = snap.io().snapshot() - before;
        assert_eq!(
            delta.chunks_loaded, 0,
            "merge-free path must not load chunks"
        );
        // Each chunk answered from its statistics, by the fold.
        assert_eq!(delta.pages_stat_answered, 10, "{delta:?}");
        assert_eq!((delta.spans_folded, delta.spans_executed), (1, 0));
        let s = r.spans[0].unwrap();
        assert_eq!(s.first, Point::new(0, 0.0));
        assert_eq!(s.last.t, 999);
        assert_eq!(s.top.v, 12.0);
        assert_eq!(s.bottom.v, 0.0);
    }

    #[test]
    fn overlapping_chunks_with_overwrites() {
        let (_dir, kv) = fresh("overwrite", 50);
        for t in 0..1000i64 {
            kv.insert("s", Point::new(t, (t % 29) as f64)).unwrap();
        }
        kv.flush_all().unwrap();
        // Overwrite scattered ranges with extreme values.
        for t in (200..400).step_by(3) {
            kv.insert("s", Point::new(t, 1000.0)).unwrap();
        }
        kv.flush_all().unwrap();
        for t in (600..700).step_by(2) {
            kv.insert("s", Point::new(t, -1000.0)).unwrap();
        }
        kv.flush_all().unwrap();
        for w in [1, 3, 10, 100] {
            assert_matches_udf(&kv, "s", &M4Query::new(0, 1000, w).unwrap());
        }
    }

    #[test]
    fn deletes_at_edges_and_extremes() {
        let (_dir, kv) = fresh("deletes", 50);
        for t in 0..1000i64 {
            kv.insert("s", Point::new(t, (t % 29) as f64)).unwrap();
        }
        kv.flush_all().unwrap();
        kv.delete("s", 0, 99).unwrap(); // kills the first chunk span
        kv.delete("s", 950, 2000).unwrap(); // clips the tail
        kv.delete("s", 500, 504).unwrap(); // interior nibble
        for w in [1, 4, 20] {
            assert_matches_udf(&kv, "s", &M4Query::new(0, 1000, w).unwrap());
        }
    }

    #[test]
    fn delete_then_overwrite_then_delete() {
        let (_dir, kv) = fresh("interleaved", 25);
        for t in 0..500i64 {
            kv.insert("s", Point::new(t, 1.0)).unwrap();
        }
        kv.flush_all().unwrap();
        kv.delete("s", 100, 199).unwrap();
        for t in 150..250i64 {
            kv.insert("s", Point::new(t, 2.0)).unwrap();
        }
        kv.flush_all().unwrap();
        kv.delete("s", 220, 300).unwrap();
        for w in [1, 2, 5, 50] {
            assert_matches_udf(&kv, "s", &M4Query::new(0, 500, w).unwrap());
        }
    }

    #[test]
    fn query_subrange_and_misaligned_spans() {
        let (_dir, kv) = fresh("subrange", 30);
        for t in 0..900i64 {
            kv.insert("s", Point::new(t * 7, ((t * 13) % 97) as f64))
                .unwrap();
        }
        kv.flush_all().unwrap();
        assert_matches_udf(&kv, "s", &M4Query::new(500, 5000, 13).unwrap());
        assert_matches_udf(&kv, "s", &M4Query::new(1, 6300, 9).unwrap());
        assert_matches_udf(&kv, "s", &M4Query::new(6299, 6301, 2).unwrap());
    }

    #[test]
    fn empty_series_and_empty_range() {
        let (_dir, kv) = fresh("empty", 10);
        kv.create_series("s").unwrap();
        let snap = kv.snapshot("s").unwrap();
        let q = M4Query::new(0, 100, 4).unwrap();
        let r = M4Lsm::new().execute(&snap, &q).unwrap();
        assert_eq!(r.non_empty(), 0);
    }

    #[test]
    fn fp_bound_ties_exact_candidate() {
        // The subtle FP selection rule: a delete-clipped bound that
        // lands exactly on another chunk's first point time must be
        // resolved (loaded) before that exact candidate is answered,
        // because the bounded chunk may hold a later-versioned point at
        // the same timestamp.
        let (_dir, kv) = fresh("bound-tie", 10);
        // C¹: points at 100..190 step 10, value 1.
        let c1: Vec<Point> = (0..10).map(|t| Point::new(100 + t * 10, 1.0)).collect();
        kv.insert_batch("s", &c1).unwrap();
        kv.flush("s").unwrap();
        // D²: delete [0, 129] — clips C¹'s effective start to 130.
        kv.delete("s", 0, 129).unwrap();
        // C³: first point exactly at 130 — and C¹ ALSO has a live point
        // at 130 (survived the delete? no: 130 > 129, so C¹'s 130 is
        // live). C³'s 130 has the higher version and must win FP.
        let c3 = vec![Point::new(130, 9.0), Point::new(200, 9.0)];
        kv.insert_batch("s", &c3).unwrap();
        kv.flush("s").unwrap();

        let q = M4Query::new(0, 1_000, 1).unwrap();
        assert_matches_udf(&kv, "s", &q);
        let snap = kv.snapshot("s").unwrap();
        let r = M4Lsm::new().execute(&snap, &q).unwrap();
        assert_eq!(r.spans[0].unwrap().first, Point::new(130, 9.0));
    }

    #[test]
    fn lp_mirror_of_bound_tie() {
        let (_dir, kv) = fresh("lp-bound-tie", 10);
        let c1: Vec<Point> = (0..10).map(|t| Point::new(100 + t * 10, 1.0)).collect();
        kv.insert_batch("s", &c1).unwrap();
        kv.flush("s").unwrap();
        // Delete the tail: LP bound becomes 159.
        kv.delete("s", 160, 500).unwrap();
        // New chunk whose last point is exactly 159 with higher version.
        let c3 = vec![Point::new(50, 9.0), Point::new(159, 9.0)];
        kv.insert_batch("s", &c3).unwrap();
        kv.flush("s").unwrap();

        let q = M4Query::new(0, 1_000, 1).unwrap();
        assert_matches_udf(&kv, "s", &q);
        let snap = kv.snapshot("s").unwrap();
        let r = M4Lsm::new().execute(&snap, &q).unwrap();
        assert_eq!(r.spans[0].unwrap().last, Point::new(159, 9.0));
    }

    #[test]
    fn all_candidates_dirty_forces_batch_load() {
        // Every chunk's metadata top is overwritten by a later chunk,
        // so BP/TP must batch-load the dirty chunks and recompute.
        let (_dir, kv) = fresh("all-dirty", 10);
        let mut c1: Vec<Point> = (0..10).map(|t| Point::new(t * 10, 1.0)).collect();
        c1[5].v = 100.0; // top of C¹ at t=50
        kv.insert_batch("s", &c1).unwrap();
        kv.flush("s").unwrap();
        let mut c2: Vec<Point> = (0..10).map(|t| Point::new(200 + t * 10, 1.0)).collect();
        c2[3].v = 90.0; // top of C² at t=230
        kv.insert_batch("s", &c2).unwrap();
        kv.flush("s").unwrap();
        // C³ overwrites both tops with low values.
        kv.insert_batch("s", &[Point::new(50, 0.0), Point::new(230, 0.0)])
            .unwrap();
        kv.flush("s").unwrap();

        let q = M4Query::new(0, 1_000, 1).unwrap();
        assert_matches_udf(&kv, "s", &q);
        let snap = kv.snapshot("s").unwrap();
        let r = M4Lsm::new().execute(&snap, &q).unwrap();
        // True top is now 1.0 (all 100/90 overwritten).
        assert_eq!(r.spans[0].unwrap().top.v, 1.0);
    }

    #[test]
    fn unflushed_memtable_visible() {
        let (_dir, kv) = fresh("memtable", 40);
        for t in 0..100i64 {
            kv.insert("s", Point::new(t, 1.0)).unwrap();
        }
        kv.flush_all().unwrap();
        for t in 50..150i64 {
            kv.insert("s", Point::new(t, 5.0)).unwrap();
        }
        // No flush: memtable chunk must serve the query.
        assert_matches_udf(&kv, "s", &M4Query::new(0, 150, 6).unwrap());
    }

    #[test]
    fn mem_and_sealed_chunks_of_several_sizes_share_a_span() {
        let (_dir, kv) = fresh("mixed", 40);
        // 100 points seal as chunks of 40/40/20; the 30 overwrites after
        // them fit one chunk; the last writes stay in the memtable.
        for t in 0..100i64 {
            kv.insert("s", Point::new(t, (t % 17) as f64)).unwrap();
        }
        kv.flush_all().unwrap();
        for t in (30..90i64).step_by(2) {
            kv.insert("s", Point::new(t, (t % 3 - 1) as f64 * 500.0))
                .unwrap();
        }
        kv.flush_all().unwrap();
        kv.delete("s", 44, 47).unwrap();
        for t in (35..75).step_by(5) {
            kv.insert("s", Point::new(t, 7.0)).unwrap();
        }
        let snap = kv.snapshot("s").unwrap();
        let counts: Vec<u64> = snap.chunks().iter().map(|c| c.count()).collect();
        assert_eq!(counts, [40, 40, 20, 30, 8]);
        assert!(snap.chunks()[4].is_mem());
        for w in [1, 2, 3, 9] {
            assert_matches_udf(&kv, "s", &M4Query::new(0, 100, w).unwrap());
        }
    }

    #[test]
    fn paged_chunks_match_udf_and_decode_fewer_points() {
        // Small chunks (50 points) exercise the fragment path: many
        // fragments per span, statistics candidates and selective
        // decode.
        let dir = TestDir::new("m4-lsm-paged");
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 50,
                memtable_threshold: 2000,
                cache_capacity_bytes: 0,
                ..Default::default()
            },
        )
        .unwrap();
        for t in 0..4000i64 {
            kv.insert("s", Point::new(t, ((t * 37) % 101) as f64))
                .unwrap();
        }
        kv.flush_all().unwrap();
        // Overwrites across chunks, plus a range delete, so
        // verification probes cross chunk boundaries.
        for t in (1000..1200).step_by(3) {
            kv.insert("s", Point::new(t, 1000.0)).unwrap();
        }
        kv.flush_all().unwrap();
        kv.delete("s", 2500, 2600).unwrap();

        for w in [1usize, 7, 40] {
            assert_matches_udf(&kv, "s", &M4Query::new(0, 4000, w).unwrap());
        }

        // A narrow span touches a handful of 50-point chunks; the
        // merge-free path must decode far fewer points than 1000.
        let snap = kv.snapshot("s").unwrap();
        let before = snap.io().snapshot();
        let q = M4Query::new(100, 180, 2).unwrap();
        let r = M4Lsm::new().execute(&snap, &q).unwrap();
        let delta = snap.io().snapshot() - before;
        assert!(r.spans.iter().all(|s| s.is_some()));
        assert!(
            delta.points_decoded < 1000,
            "narrow span should decode a few small chunks: {} points",
            delta.points_decoded
        );
    }

    /// A re-sent backfill: a random walk on a 10 ms grid sealed 50 000
    /// points at a time, then six newer runs at the same timestamps with
    /// values in ±0.05, over 30 % of the range. Each older page under a
    /// run is loaded, and its points become candidates that are refuted
    /// one after another, so a solver that rescans its loaded pages
    /// after every refutation is quadratic here: over 30 s at `w = 100`
    /// in a debug build, where ranking a page once takes milliseconds.
    #[test]
    fn refuting_a_loaded_page_point_by_point_is_not_quadratic() {
        let started = std::time::Instant::now();
        let dir = TestDir::new("m4-lsm-backfill");
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                memtable_threshold: 1_000_000,
                ..Default::default()
            },
        )
        .unwrap();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let n = 100_000i64;
        let mut v = 0.0;
        let walk: Vec<Point> = (0..n)
            .map(|i| {
                v += unit() * 2.0 - 1.0;
                Point::new(i * 10, v)
            })
            .collect();
        for block in walk.chunks(50_000) {
            kv.insert_batch("s", block).unwrap();
            kv.flush("s").unwrap();
        }
        for k in 0..6 {
            let start = k * (n / 6);
            let run: Vec<Point> = (start..start + n / 20)
                .map(|i| Point::new(i * 10, unit() * 0.1 - 0.05))
                .collect();
            kv.insert_batch("s", &run).unwrap();
            kv.flush("s").unwrap();
        }
        for w in [10, 100, 1000] {
            assert_matches_udf(&kv, "s", &M4Query::new(0, n * 10, w).unwrap());
        }
        let took = started.elapsed();
        assert!(took.as_secs() < 5, "took {took:?}");
    }
}
