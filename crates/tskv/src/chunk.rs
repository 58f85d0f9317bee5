//! Query-time chunk handles.
//!
//! A [`ChunkHandle`] is the unit the readers and the M4 operators work
//! with: the chunk's version and statistics — everything knowable
//! without I/O — plus enough location information
//! to load the body on demand.
//!
//! A sealed chunk is one page of a TsFile; the memtable chunk is the
//! memtable's points. Both read whole, through the snapshot; nothing
//! above the snapshot asks which kind it holds.

use std::sync::Arc;

use tsfile::format::ChunkMeta;
use tsfile::statistics::ChunkStatistics;
use tsfile::types::{Point, TimeRange, Version};

/// Where a chunk's data lives.
#[derive(Debug, Clone)]
pub enum ChunkData {
    /// A sealed chunk inside a TsFile; `file_idx` indexes the
    /// snapshot's file list and `chunk` the file's chunk index. `meta`
    /// is the open file's own copy of the footer entry, shared by count
    /// with every handle made from it.
    File {
        file_idx: usize,
        chunk: usize,
        meta: Arc<ChunkMeta>,
    },
    /// The memtable, exposed as an ephemeral in-memory chunk so reads
    /// observe unflushed points. Its version is greater than any sealed
    /// chunk or delete in the snapshot (memtable points are always
    /// latest: in-memory updates overwrite in place and deletes are
    /// applied to the memtable eagerly).
    Mem { points: Arc<Vec<Point>> },
}

/// One chunk visible to a query.
#[derive(Debug, Clone)]
pub struct ChunkHandle {
    /// The chunk's version `κ`.
    pub version: Version,
    /// FP/LP/BP/TP/count — the paper's chunk metadata.
    pub stats: ChunkStatistics,
    /// Data location.
    pub data: ChunkData,
}

impl ChunkHandle {
    /// Build a handle for the sealed chunk `chunk` of its file.
    pub fn from_file(file_idx: usize, chunk: usize, meta: Arc<ChunkMeta>) -> Self {
        ChunkHandle {
            version: meta.version,
            stats: meta.stats,
            data: ChunkData::File {
                file_idx,
                chunk,
                meta,
            },
        }
    }

    /// Build a handle for the memtable's contents (must be time-sorted).
    /// `version` must exceed every sealed version. Returns `None` for an
    /// empty point set, which has no statistics to expose.
    pub fn from_mem(points: Arc<Vec<Point>>, version: Version) -> Option<Self> {
        let stats = ChunkStatistics::from_points(&points).ok()?;
        Some(ChunkHandle {
            version,
            stats,
            data: ChunkData::Mem { points },
        })
    }

    /// The chunk's (unclipped) time interval `[FP(C).t, LP(C).t]`.
    #[inline]
    pub fn time_range(&self) -> TimeRange {
        self.stats.time_range()
    }

    /// Number of points in the chunk.
    #[inline]
    pub fn count(&self) -> u64 {
        self.stats.count
    }

    /// Whether the chunk body lives in memory (no I/O to read).
    pub fn is_mem(&self) -> bool {
        matches!(self.data, ChunkData::Mem { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_handle_stats() -> std::result::Result<(), &'static str> {
        let pts = Arc::new(vec![
            Point::new(1, 5.0),
            Point::new(2, -1.0),
            Point::new(3, 2.0),
        ]);
        let h = ChunkHandle::from_mem(pts, Version(9)).ok_or("non-empty points")?;
        assert_eq!(h.version, Version(9));
        assert_eq!(h.count(), 3);
        assert_eq!(h.time_range(), TimeRange::new(1, 3));
        assert_eq!(h.stats.bottom, Point::new(2, -1.0));
        assert!(h.is_mem());
        Ok(())
    }

    /// The memtable chunk is one page like a sealed one: its statistics
    /// are those of all its points.
    #[test]
    fn mem_handle_is_one_page_with_the_chunk_statistics() -> std::result::Result<(), &'static str> {
        let raw = vec![
            Point::new(10, 1.0),
            Point::new(20, -2.0),
            Point::new(30, 0.5),
        ];
        let stats = ChunkStatistics::from_points(&raw).map_err(|_| "non-empty points")?;
        let h = ChunkHandle::from_mem(Arc::new(raw), Version(1)).ok_or("non-empty points")?;
        assert_eq!(h.stats, stats);
        assert_eq!(h.time_range(), TimeRange::new(10, 30));
        Ok(())
    }

    #[test]
    fn mem_handle_rejects_empty() {
        assert!(ChunkHandle::from_mem(Arc::new(Vec::new()), Version(1)).is_none());
    }
}
