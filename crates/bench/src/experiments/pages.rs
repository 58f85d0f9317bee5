//! Page-structured chunks: decoded-point reduction from sub-chunk
//! statistics and selective page decode.
//!
//! Not a paper artifact — this measures the engine's page layer. The
//! same workload (base series + overlapping overwrites + range
//! deletes) is written into one store per `page_points` setting —
//! monolithic chunks (`usize::MAX`, serialized as `page_points: 0`)
//! and three page sizes — with deliberately large chunks so paged
//! stores hold many pages per chunk. Each cell runs both operators on
//! full-range and narrow-span queries, records latency, the page I/O
//! counters, and an `oracle_match` flag against an independent
//! in-memory replay of the workload. Narrow spans are where pages pay
//! off: a monolithic store must decode whole chunks, a paged store
//! only the overlapping pages.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;
use tsfile::types::Point;
use tskv::config::EngineConfig;
use tskv::stats::IoSnapshot;
use tskv::{SeriesSnapshot, TsKv};

use m4::oracle::m4_scan;
use m4::{M4Lsm, M4Query, M4Result, M4Udf};

use crate::harness::{BenchMeta, Harness};

/// Swept page sizes; `usize::MAX` is the monolithic baseline.
pub const PAGE_GRID: [usize; 4] = [usize::MAX, 4096, 1024, 256];
/// Points per sealed chunk — large, so paged stores see many pages.
pub const POINTS_PER_CHUNK: usize = 8192;

/// One measured cell of the pages grid.
#[derive(Debug, Clone, Serialize)]
pub struct PagesRow {
    pub dataset: String,
    pub operator: String,
    /// Page size in points; 0 means monolithic chunks.
    pub page_points: u64,
    /// Query shape: "full" (whole series) or "narrow" (~1% of points).
    pub query: String,
    pub w: usize,
    pub latency_ms: f64,
    /// Result equivalent (Definition 2.1) to the in-memory oracle.
    pub oracle_match: bool,
    pub chunks_loaded: u64,
    pub points_decoded: u64,
    pub pages_decoded: u64,
    pub pages_skipped: u64,
    pub pages_stat_answered: u64,
}

/// The document `repro --exp pages --out` writes.
#[derive(Debug, Serialize)]
pub struct PagesReport {
    pub meta: BenchMeta,
    pub rows: Vec<PagesRow>,
}

pub fn run(h: &Harness) -> Vec<PagesRow> {
    let mut rows = Vec::new();
    for dataset in h.datasets.iter() {
        let base = dataset.generate(h.scale);
        let n = base.len();

        // Deterministic workload derived from the base series: six
        // overwrite windows at odd sixteenths (each ~2% of points,
        // values shifted so overwrites are visible in extremes) and a
        // range delete — enough overlap that verification has real
        // work. A BTreeMap replays the same history as the oracle.
        let mut model: BTreeMap<i64, f64> = base.iter().map(|p| (p.t, p.v)).collect();
        let win = (n / 50).max(1);
        let overwrites: Vec<Vec<Point>> = (0..6)
            .map(|k| {
                let lo = n * (2 * k + 1) / 16;
                base.iter()
                    .skip(lo)
                    .take(win)
                    .map(|p| Point::new(p.t, p.v + 500.0))
                    .collect()
            })
            .collect();
        for w in &overwrites {
            for p in w {
                model.insert(p.t, p.v);
            }
        }
        let del_lo = base.get(n * 3 / 8).map_or(0, |p| p.t);
        let del_hi = base.get(n * 3 / 8 + win).map_or(del_lo, |p| p.t);
        let doomed: Vec<i64> = model.range(del_lo..=del_hi).map(|(&t, _)| t).collect();
        for t in doomed {
            model.remove(&t);
        }
        let merged: Vec<Point> = model.iter().map(|(&t, &v)| Point::new(t, v)).collect();

        // Narrow window: ~1% of the *merged* points, by index, so the
        // window is dense regardless of timestamp skew.
        let m = merged.len();
        let narrow_lo = merged.get(m / 2).map_or(0, |p| p.t);
        let narrow_hi = merged
            .get((m / 2 + (m / 100).max(1)).min(m - 1))
            .map_or(narrow_lo, |p| p.t);
        let t_min = merged.first().map_or(0, |p| p.t);
        let t_max = merged.last().map_or(0, |p| p.t);

        let queries: Vec<(&str, M4Query)> = vec![
            (
                "full",
                M4Query::new(t_min, t_max + 1, 100).expect("valid query"),
            ),
            (
                "full",
                M4Query::new(t_min, t_max + 1, 1000).expect("valid query"),
            ),
            (
                "narrow",
                M4Query::new(narrow_lo, narrow_hi + 1, 4).expect("valid query"),
            ),
            (
                "narrow",
                M4Query::new(narrow_lo, narrow_hi + 1, 16).expect("valid query"),
            ),
        ];

        for &page_points in &PAGE_GRID {
            let label = if page_points == usize::MAX {
                0
            } else {
                page_points as u64
            };
            let dir = h.root.join(format!("pages-{}-{label}", dataset.name()));
            std::fs::remove_dir_all(&dir).ok();
            let kv = TsKv::open(
                &dir,
                EngineConfig {
                    points_per_chunk: POINTS_PER_CHUNK,
                    memtable_threshold: POINTS_PER_CHUNK * 2,
                    page_points,
                    ..Harness::store_config()
                },
            )
            .expect("open store");
            kv.insert_batch("s", &base).expect("base load");
            kv.flush_all().expect("flush base");
            for w in &overwrites {
                kv.insert_batch("s", w).expect("overwrite load");
                kv.flush_all().expect("flush overwrite");
            }
            kv.delete("s", del_lo, del_hi).expect("delete");

            let snap = kv.snapshot("s").expect("snapshot");
            for (shape, q) in &queries {
                let oracle = m4_scan(&merged, q);
                for op in ["M4-UDF", "M4-LSM"] {
                    let (latency_ms, io, result) = measure(h, &snap, q, op);
                    rows.push(PagesRow {
                        dataset: dataset.name().to_string(),
                        operator: op.to_string(),
                        page_points: label,
                        query: (*shape).to_string(),
                        w: q.w,
                        latency_ms,
                        oracle_match: result.equivalent(&oracle),
                        chunks_loaded: io.chunks_loaded,
                        points_decoded: io.points_decoded,
                        pages_decoded: io.pages_decoded,
                        pages_skipped: io.pages_skipped,
                        pages_stat_answered: io.pages_stat_answered,
                    });
                }
            }
            drop(snap);
            drop(kv);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    rows
}

/// Median latency over `repeats` runs plus the last run's I/O delta.
fn measure(
    h: &Harness,
    snap: &SeriesSnapshot,
    q: &M4Query,
    op: &str,
) -> (f64, IoSnapshot, M4Result) {
    let mut latencies = Vec::with_capacity(h.repeats.max(1));
    let mut io = IoSnapshot::default();
    let mut result = None;
    for _ in 0..h.repeats.max(1) {
        let before = snap.io().snapshot();
        let start = Instant::now();
        let r = if op == "M4-UDF" {
            M4Udf::new().execute(snap, q)
        } else {
            M4Lsm::new().execute(snap, q)
        }
        .expect("query execution");
        latencies.push(start.elapsed().as_secs_f64() * 1e3);
        io = snap.io().snapshot() - before;
        result = Some(r);
    }
    latencies.sort_by(f64::total_cmp);
    (
        latencies[latencies.len() / 2],
        io,
        result.expect("at least one run"),
    )
}

/// Aligned table of all cells.
pub fn print(rows: &[PagesRow]) {
    if rows.is_empty() {
        return;
    }
    println!(
        "{:<10} {:<8} {:>6} {:<7} {:>5} {:>11} {:>7} {:>7} {:>11} {:>9} {:>9} {:>9}",
        "dataset",
        "op",
        "pagpts",
        "query",
        "w",
        "latency_ms",
        "oracle",
        "chunks",
        "pts_decoded",
        "pg_dec",
        "pg_skip",
        "pg_stat"
    );
    for r in rows {
        println!(
            "{:<10} {:<8} {:>6} {:<7} {:>5} {:>11.3} {:>7} {:>7} {:>11} {:>9} {:>9} {:>9}",
            r.dataset,
            r.operator,
            if r.page_points == 0 {
                "mono".to_string()
            } else {
                r.page_points.to_string()
            },
            r.query,
            r.w,
            r.latency_ms,
            r.oracle_match,
            r.chunks_loaded,
            r.points_decoded,
            r.pages_decoded,
            r.pages_skipped,
            r.pages_stat_answered
        );
    }
}

/// Headline: per dataset, decoded-point reduction of the smallest page
/// size vs the monolithic baseline on narrow-span queries.
pub fn summarize(rows: &[PagesRow]) {
    let datasets: Vec<String> = {
        let mut d: Vec<String> = rows.iter().map(|r| r.dataset.clone()).collect();
        d.dedup();
        d
    };
    let mismatches = rows.iter().filter(|r| !r.oracle_match).count();
    println!(
        "-- pages: {} cells, {} oracle mismatches",
        rows.len(),
        mismatches
    );
    for ds in datasets {
        let sum = |pp: u64| -> u64 {
            rows.iter()
                .filter(|r| r.dataset == ds && r.query == "narrow" && r.page_points == pp)
                .map(|r| r.points_decoded)
                .sum()
        };
        let mono = sum(0);
        let paged = sum(256);
        if paged > 0 {
            println!(
                "-- pages[{ds}]: narrow-span decoded points {mono} (mono) -> {paged} (256-pt pages), {:.1}x reduction",
                mono as f64 / paged as f64
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Dataset;

    #[test]
    fn pages_reduce_narrow_span_decoding() {
        let h = Harness::new(0.002, 1).with_datasets(vec![Dataset::RcvTime]);
        let rows = run(&h);
        h.cleanup();
        // 4 page settings x 4 queries x 2 operators.
        assert_eq!(rows.len(), PAGE_GRID.len() * 4 * 2);
        assert!(
            rows.iter().all(|r| r.oracle_match),
            "oracle mismatch: {rows:?}"
        );
        // Every narrow-span cell on a paged store must decode strictly
        // fewer points than the monolithic baseline for that operator.
        for op in ["M4-UDF", "M4-LSM"] {
            let decoded = |pp: u64| -> u64 {
                rows.iter()
                    .filter(|r| r.operator == op && r.query == "narrow" && r.page_points == pp)
                    .map(|r| r.points_decoded)
                    .sum()
            };
            let mono = decoded(0);
            assert!(
                decoded(256) < mono,
                "{op}: 256-pt pages should beat monolithic ({} vs {mono})",
                decoded(256)
            );
            // Monolithic stores never skip pages.
            assert!(rows
                .iter()
                .filter(|r| r.page_points == 0)
                .all(|r| r.pages_skipped == 0));
        }
    }
}
