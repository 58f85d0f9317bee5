//! DataReader: whole-chunk body loads.

use std::sync::Arc;

use tsfile::types::Point;

use crate::chunk::ChunkHandle;
use crate::snapshot::SeriesSnapshot;
use crate::Result;

/// Loads chunk data through a snapshot, recording I/O counters.
///
/// The full load of the paper's Table 1 (case c, metadata
/// recalculation). The timestamp-only partial loads of cases a and b
/// are [`SeriesSnapshot::read_timestamps`].
#[derive(Debug, Clone, Copy)]
pub struct DataReader<'a> {
    snapshot: &'a SeriesSnapshot,
}

impl<'a> DataReader<'a> {
    pub fn new(snapshot: &'a SeriesSnapshot) -> Self {
        DataReader { snapshot }
    }

    /// Full load: all points of a chunk (Table 1 case c). The `Arc` may
    /// be shared with the engine's decoded-chunk cache.
    pub fn read_points(&self, chunk: &ChunkHandle) -> Result<Arc<Vec<Point>>> {
        self.snapshot.read_points(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::TsKv;

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    #[test]
    fn full_and_partial_reads_count_io() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-dr-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 1000,
                memtable_threshold: 1000,
                ..Default::default()
            },
        )?;
        for i in 0..1000i64 {
            kv.insert("s", Point::new(i * 100, i as f64))?;
        }
        kv.flush_all()?;
        let snap = kv.snapshot("s")?;
        let dr = DataReader::new(&snap);
        let chunk = snap.chunks().first().ok_or("no chunks")?;

        let pts = dr.read_points(chunk)?;
        assert_eq!(pts.len(), 1000);

        let ts = snap.read_timestamps(chunk, None)?;
        assert_eq!(ts.len(), 1000);

        let partial = snap.read_timestamps(chunk, Some(5_000))?;
        assert!(partial.len() < 100, "partial decode stops early");

        let io = snap.io().snapshot();
        assert_eq!(io.chunks_loaded, 3);
        assert_eq!(io.points_decoded, 1000);
        assert_eq!(io.timestamps_decoded, 1000 + partial.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }
}
