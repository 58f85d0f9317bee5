//! M4-UDF: the baseline operator (paper §1.1, Figure 2(b), §A.5.2).
//!
//! Exactly as the paper deploys it in IoTDB: read the *assembled* time
//! series from the storage engine's merging reader — which loads every
//! chunk overlapping the query range, decodes it fully, heap-merges by
//! (time, version) and applies deletes — then perform the original M4
//! grouping scan over the merged series. Chunk metadata is deliberately
//! not consulted beyond the engine's basic range pruning, matching
//! IoTDB's `SeriesRawDataBatchReader` path.
//!
//! Two of the three stages fan out across the engine-configured worker
//! pool: the chunk loads (positional reads + decode), and the k-way
//! merge itself — sharded into disjoint time segments aligned to span
//! boundaries, which is exact because a point's visibility depends only
//! on information at its own timestamp (see
//! [`MergeReader::merge_runs_in`]). Only the final M4 grouping scan (a
//! single linear pass) stays sequential. Semantics are unchanged; only
//! the wall-clock shrinks.

use std::sync::Arc;

use tsfile::types::{Point, TimeRange, Version};
use tskv::readers::MergeReader;
use tskv::{pool, SeriesSnapshot};

use crate::oracle::m4_scan;
use crate::query::M4Query;
use crate::repr::M4Result;
use crate::{M4Error, Result};

/// The merge-then-scan baseline operator.
#[derive(Debug, Clone, Copy, Default)]
pub struct M4Udf;

impl M4Udf {
    pub fn new() -> Self {
        M4Udf
    }

    /// Execute the query: load all overlapping chunks in parallel on
    /// the engine-configured pool, heap-merge in parallel time
    /// segments, then scan.
    pub fn execute(&self, snapshot: &SeriesSnapshot, query: &M4Query) -> Result<M4Result> {
        let threads = snapshot.pool_threads();
        let reader = MergeReader::with_range(snapshot, query.full_range());
        let plan = reader.plan();
        // One load job per chunk; each yields that chunk's overlapping
        // pages as independent runs (time-disjoint, same version), so
        // the k-way merge below is unchanged while out-of-range pages
        // are never decoded.
        let page_runs: Vec<Vec<(Version, Arc<Vec<Point>>)>> =
            pool::run_indexed(threads, plan.len(), |i| -> Result<_> {
                let chunk = plan
                    .get(i)
                    .ok_or(M4Error::Internal("udf load plan out of range"))?;
                let pages = snapshot.read_points_in(chunk, query.full_range())?;
                Ok(pages
                    .into_iter()
                    .map(|(_, pts)| (chunk.version, pts))
                    .collect())
            })?;
        let runs: Vec<(Version, Arc<Vec<Point>>)> = page_runs.into_iter().flatten().collect();
        // Shard the merge into contiguous groups of spans (disjoint
        // time segments); oversubscribe the pool a little so uneven
        // segments balance. Concatenation in span order is the exact
        // full merge.
        let jobs = (threads * 4).clamp(1, query.w);
        let segments = pool::run_indexed(threads, jobs, |j| {
            let a = j * query.w / jobs;
            let b = ((j + 1) * query.w / jobs).max(a + 1).min(query.w);
            let lo = query.span_range(a).start;
            let hi = query.span_range(b - 1).end;
            Ok::<_, M4Error>(reader.merge_runs_in(&runs, TimeRange::new(lo, hi)))
        })?;
        let merged = segments.concat();
        Ok(m4_scan(&merged, query))
    }
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
    use tsfile::types::Point;
    use tskv::config::EngineConfig;
    use tskv::TsKv;

    #[test]
    fn executes_over_overlapping_storage() {
        let dir = std::env::temp_dir().join(format!("m4-udf-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 50,
                memtable_threshold: 100,
                ..Default::default()
            },
        )
        .unwrap();
        for t in 0..400i64 {
            kv.insert("s", Point::new(t, (t % 17) as f64)).unwrap();
        }
        // Overwrite a middle stretch with large values.
        for t in 100..150i64 {
            kv.insert("s", Point::new(t, 100.0)).unwrap();
        }
        kv.flush_all().unwrap();
        kv.delete("s", 300, 349).unwrap();

        let snap = kv.snapshot("s").unwrap();
        let q = M4Query::new(0, 400, 8).unwrap();
        let r = M4Udf::new().execute(&snap, &q).unwrap();
        assert_eq!(r.width(), 8);
        // Span 2 = [100, 149]: fully overwritten to 100.0.
        let s2 = r.spans[2].unwrap();
        assert_eq!(s2.top.v, 100.0);
        assert_eq!(s2.bottom.v, 100.0);
        // Span 6 = [300, 349]: fully deleted.
        assert!(r.spans[6].is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
