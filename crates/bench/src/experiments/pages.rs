//! Chunk size: decoded-point reduction from finer chunk statistics and
//! smaller chunk decodes.
//!
//! Not a paper artifact — this measures the engine's storage unit (a
//! chunk is one page). The same workload (base series + overlapping
//! overwrites + range deletes) is written into one store per
//! `points_per_chunk` setting — a coarse 8192-point baseline and three
//! smaller sizes — under one memtable size, so the flushes are the
//! same and only the chunking differs. Each cell runs both operators on
//! full-range and narrow-span queries, records latency, the I/O
//! counters, and an `oracle_match` flag against an independent
//! in-memory replay of the workload. Narrow spans are where small
//! chunks pay off: a coarse store must decode whole 8192-point chunks,
//! a fine one only the small chunks the span overlaps.

use std::collections::BTreeMap;

use serde::Serialize;
use tsfile::types::Point;
use tskv::config::EngineConfig;
use tskv::TsKv;

use m4::oracle::m4_scan;
use m4::{M4Query, Operator};

use crate::harness::{BenchMeta, Harness};

/// Swept chunk sizes; the first is the coarse baseline.
pub const CHUNK_GRID: [usize; 4] = [8192, 4096, 1024, 256];
/// Points per flush, in every cell: two baseline chunks.
pub const MEMTABLE_POINTS: usize = 2 * CHUNK_GRID[0];

/// One measured cell of the chunk-size grid.
#[derive(Debug, Clone, Serialize)]
pub struct PagesRow {
    pub dataset: String,
    pub operator: String,
    /// Chunk size in points (a chunk is one page).
    pub points_per_chunk: u64,
    /// Query shape: "full" (whole series) or "narrow" (~1% of points).
    pub query: String,
    pub w: usize,
    pub latency_ms: f64,
    /// Result equivalent (Definition 2.1) to the in-memory oracle.
    pub oracle_match: bool,
    pub chunks_loaded: u64,
    pub points_decoded: u64,
    pub pages_decoded: u64,
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

        for &points_per_chunk in &CHUNK_GRID {
            let dir = h
                .root
                .join(format!("pages-{}-{points_per_chunk}", dataset.name()));
            std::fs::remove_dir_all(&dir).ok();
            let kv = TsKv::open(
                &dir,
                EngineConfig {
                    points_per_chunk,
                    memtable_threshold: MEMTABLE_POINTS,
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
                for op in [Operator::Udf, Operator::Lsm] {
                    let m = h.time_query(&snap, q, op);
                    rows.push(PagesRow {
                        dataset: dataset.name().to_string(),
                        operator: op.name().to_string(),
                        points_per_chunk: points_per_chunk as u64,
                        query: (*shape).to_string(),
                        w: q.w,
                        latency_ms: m.latency_ms,
                        oracle_match: m.result.equivalent(&oracle),
                        chunks_loaded: m.io.chunks_loaded,
                        points_decoded: m.io.points_decoded,
                        pages_decoded: m.io.pages_decoded,
                        pages_stat_answered: m.io.pages_stat_answered,
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

/// Aligned table of all cells.
pub fn print(rows: &[PagesRow]) {
    if rows.is_empty() {
        return;
    }
    println!(
        "{:<10} {:<8} {:>6} {:<7} {:>5} {:>11} {:>7} {:>7} {:>11} {:>9} {:>9}",
        "dataset",
        "op",
        "chkpts",
        "query",
        "w",
        "latency_ms",
        "oracle",
        "chunks",
        "pts_decoded",
        "pg_dec",
        "pg_stat"
    );
    for r in rows {
        println!(
            "{:<10} {:<8} {:>6} {:<7} {:>5} {:>11.3} {:>7} {:>7} {:>11} {:>9} {:>9}",
            r.dataset,
            r.operator,
            r.points_per_chunk,
            r.query,
            r.w,
            r.latency_ms,
            r.oracle_match,
            r.chunks_loaded,
            r.points_decoded,
            r.pages_decoded,
            r.pages_stat_answered
        );
    }
}

/// Headline: per dataset, decoded-point reduction of the smallest chunk
/// size vs the coarse baseline on narrow-span queries.
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
        let sum = |chunk: u64| -> u64 {
            rows.iter()
                .filter(|r| r.dataset == ds && r.query == "narrow" && r.points_per_chunk == chunk)
                .map(|r| r.points_decoded)
                .sum()
        };
        let coarse = sum(8192);
        let fine = sum(256);
        if fine > 0 {
            println!(
                "-- pages[{ds}]: narrow-span decoded points {coarse} (8192-pt chunks) -> {fine} (256-pt chunks), {:.1}x reduction",
                coarse as f64 / fine as f64
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
        // 4 chunk sizes x 4 queries x 2 operators.
        assert_eq!(rows.len(), CHUNK_GRID.len() * 4 * 2);
        assert!(
            rows.iter().all(|r| r.oracle_match),
            "oracle mismatch: {rows:?}"
        );
        // Every narrow-span cell on 256-point chunks must decode
        // strictly fewer points than the 8192-point baseline for that
        // operator.
        for op in ["M4-UDF", "M4-LSM"] {
            let decoded = |chunk: u64| -> u64 {
                rows.iter()
                    .filter(|r| {
                        r.operator == op && r.query == "narrow" && r.points_per_chunk == chunk
                    })
                    .map(|r| r.points_decoded)
                    .sum()
            };
            let coarse = decoded(8192);
            assert!(
                decoded(256) < coarse,
                "{op}: 256-pt chunks should beat 8192-pt chunks ({} vs {coarse})",
                decoded(256)
            );
        }
    }
}
