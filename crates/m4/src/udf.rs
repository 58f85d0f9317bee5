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
//! The chunk loads are one batch through the snapshot
//! ([`SeriesSnapshot::read_points_many`]), which answers cache hits on
//! the calling thread and spreads only the misses across the engine's
//! `read_threads`. The k-way merge and the M4 grouping scan are single
//! linear passes on the calling thread.

use tskv::readers::MergeReader;
use tskv::SeriesSnapshot;

use crate::oracle::m4_scan;
use crate::query::M4Query;
use crate::repr::M4Result;
use crate::Result;

/// The merge-then-scan baseline operator.
#[derive(Debug, Clone, Copy, Default)]
pub struct M4Udf;

impl M4Udf {
    pub fn new() -> Self {
        M4Udf
    }

    /// Execute the query: load and merge every chunk overlapping the
    /// query range, then scan.
    pub fn execute(&self, snapshot: &SeriesSnapshot, query: &M4Query) -> Result<M4Result> {
        let merged = MergeReader::with_range(snapshot, query.full_range()).collect_merged()?;
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
