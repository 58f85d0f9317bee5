//! MetadataReader: chunk metadata access with zero chunk-body I/O.

use tsfile::types::TimeRange;

use crate::chunk::ChunkHandle;
use crate::snapshot::SeriesSnapshot;

/// Serves chunk metadata (version and statistics) from a
/// snapshot. Footers are parsed at file-open time, so every method here
/// is pure in-memory work — this is what makes M4-LSM's candidate
/// generation free of chunk loads.
#[derive(Debug, Clone, Copy)]
pub struct MetadataReader<'a> {
    snapshot: &'a SeriesSnapshot,
}

impl<'a> MetadataReader<'a> {
    pub fn new(snapshot: &'a SeriesSnapshot) -> Self {
        MetadataReader { snapshot }
    }

    /// All chunks in the snapshot.
    pub fn all(&self) -> &'a [ChunkHandle] {
        self.snapshot.chunks()
    }

    /// Chunks whose time interval overlaps `range` (Algorithm 1 line 5:
    /// "find the chunks ℂ'' ⊆ ℂ having time intervals overlapping
    /// with I_i").
    pub fn overlapping(&self, range: TimeRange) -> Vec<&'a ChunkHandle> {
        self.snapshot.chunks_overlapping(range)
    }

    /// All deletes in the snapshot.
    pub fn deletes(&self) -> &'a [tsfile::ModEntry] {
        self.snapshot.deletes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::TsKv;
    use tsfile::types::Point;

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    #[test]
    fn overlapping_filters_by_interval() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-mdr-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 10,
                memtable_threshold: 10,
                ..Default::default()
            },
        )?;
        for i in 0..100i64 {
            kv.insert("s", Point::new(i, i as f64))?;
        }
        kv.flush_all()?;
        let snap = kv.snapshot("s")?;
        let r = MetadataReader::new(&snap);
        assert_eq!(r.all().len(), 10);
        let hits = r.overlapping(TimeRange::new(25, 34));
        assert_eq!(hits.len(), 2); // chunks [20..29] and [30..39]
        assert!(r.overlapping(TimeRange::new(1000, 2000)).is_empty());
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }
}
