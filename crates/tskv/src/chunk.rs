//! Query-time chunk handles.
//!
//! A [`ChunkHandle`] is the unit the readers and the M4 operators work
//! with: the chunk's version, statistics and (optional) step index —
//! everything knowable without I/O — plus enough location information
//! to load the body on demand.
//!
//! Every chunk reads as a run of *pages*, each with its own statistics:
//! a sealed chunk's pages are the ones in its footer, and the memtable
//! chunk is the single page 0 carrying the chunk's statistics. Nothing
//! above this module asks which kind it holds.

use std::sync::Arc;

use tsfile::format::ChunkMeta;
use tsfile::statistics::ChunkStatistics;
use tsfile::types::{Point, TimeRange, Version};
use tsfile::StepIndex;

/// Where a chunk's data lives.
#[derive(Debug, Clone)]
pub enum ChunkData {
    /// A sealed chunk inside a TsFile; `file_idx` indexes the
    /// snapshot's file list. `meta` is the open file's own copy of the
    /// footer entry, shared by count with every handle made from it.
    File {
        file_idx: usize,
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

/// A page index as a page number. A footer's page count is bounded by
/// its byte length, far below `u32::MAX`.
fn page_no(i: usize) -> u32 {
    u32::try_from(i).unwrap_or(u32::MAX)
}

impl ChunkHandle {
    /// Build a handle for a sealed chunk.
    pub fn from_file(file_idx: usize, meta: Arc<ChunkMeta>) -> Self {
        ChunkHandle {
            version: meta.version,
            stats: meta.stats,
            data: ChunkData::File { file_idx, meta },
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

    /// Step-regression index, if one was learned when the chunk was
    /// sealed (never for the memtable chunk).
    pub fn index(&self) -> Option<&StepIndex> {
        match &self.data {
            ChunkData::File { meta, .. } => meta.index.as_ref(),
            ChunkData::Mem { .. } => None,
        }
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

    /// Number of pages the chunk reads as (at least 1).
    pub fn page_count(&self) -> u32 {
        match &self.data {
            ChunkData::File { meta, .. } => page_no(meta.paged.pages.len()),
            ChunkData::Mem { .. } => 1,
        }
    }

    /// FP/LP/BP/TP/count of page `page`; `None` past the last page.
    pub fn page_stats(&self, page: u32) -> Option<&ChunkStatistics> {
        match &self.data {
            ChunkData::File { meta, .. } => meta.paged.pages.get(page as usize).map(|p| &p.stats),
            ChunkData::Mem { .. } => (page == 0).then_some(&self.stats),
        }
    }

    /// The pages whose time range overlaps `range`: pages are
    /// time-ordered and disjoint, so a contiguous run of page numbers.
    pub fn pages_overlapping(&self, range: TimeRange) -> std::ops::Range<u32> {
        match &self.data {
            ChunkData::File { meta, .. } => {
                let w = meta.paged.pages_overlapping(range);
                page_no(w.start)..page_no(w.end)
            }
            ChunkData::Mem { .. } => 0..u32::from(self.time_range().overlaps(&range)),
        }
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
        assert!(h.index().is_none());
        Ok(())
    }

    #[test]
    fn mem_handle_is_one_page_with_the_chunk_statistics() -> std::result::Result<(), &'static str> {
        let pts = Arc::new(vec![Point::new(10, 1.0), Point::new(20, 2.0)]);
        let h = ChunkHandle::from_mem(pts, Version(1)).ok_or("non-empty points")?;
        assert_eq!(h.page_count(), 1);
        assert_eq!(h.page_stats(0), Some(&h.stats));
        assert_eq!(h.page_stats(1), None);
        assert_eq!(h.pages_overlapping(TimeRange::new(20, 30)), 0..1);
        assert!(h.pages_overlapping(TimeRange::new(21, 30)).is_empty());
        Ok(())
    }

    #[test]
    fn mem_handle_rejects_empty() {
        assert!(ChunkHandle::from_mem(Arc::new(Vec::new()), Version(1)).is_none());
    }
}
