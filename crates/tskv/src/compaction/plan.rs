//! Clean/dirty page classification for page-aware compaction.
//!
//! Given the metadata of a merge's input chunks (footer statistics
//! only — no chunk body is touched), classify every page as **clean**
//! (its bytes can move to the output file verbatim) or **dirty** (its
//! points must flow through decode → k-way merge → re-encode). A page
//! is clean iff:
//!
//! 1. its time range overlaps **no other input chunk** (nothing to
//!    merge against: within its own chunk, pages are disjoint by
//!    format invariant), and
//! 2. no captured delete with a version newer than the chunk overlaps
//!    it (deletes at or below the chunk's version never apply to it).
//!
//! The classification is pure metadata arithmetic over what the shard
//! lock already holds in memory, so planning costs no I/O. Clean pages
//! are reported as **maximal runs of consecutive page indices** per
//! chunk — each run is one candidate raw output chunk, though the
//! execute layer may split a run further if merged dirty points land
//! in the time gap between two of its pages.

use std::ops::Range;

use tsfile::types::TimeRange;
use tsfile::ModEntry;

/// Metadata view of one input page.
#[derive(Debug, Clone, Copy)]
pub struct PageView {
    /// The page's `[FP.t, LP.t]` interval.
    pub range: TimeRange,
    /// Points in the page.
    pub count: u64,
}

/// Metadata view of one input chunk, in capture (= version) order.
#[derive(Debug, Clone)]
pub struct ChunkView {
    /// The chunk's version `κ`.
    pub version: u64,
    /// The chunk's `[FP.t, LP.t]` interval.
    pub range: TimeRange,
    /// Per-page views, in page order.
    pub pages: Vec<PageView>,
}

/// The classification outcome for one compaction run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionPlan {
    /// Per input chunk (parallel to the input slice): maximal runs of
    /// consecutive clean page indices, in page order.
    pub clean_runs: Vec<Vec<Range<usize>>>,
    /// Total clean pages across all chunks.
    pub pages_clean: u64,
    /// Total dirty pages across all chunks.
    pub pages_dirty: u64,
}

impl CompactionPlan {
    /// A plan that recodes everything (the full-rewrite baseline).
    fn all_dirty(chunks: &[ChunkView]) -> Self {
        let pages_dirty = chunks.iter().map(|c| c.pages.len() as u64).sum();
        CompactionPlan {
            clean_runs: vec![Vec::new(); chunks.len()],
            pages_clean: 0,
            pages_dirty,
        }
    }
}

/// Whether any delete newer than `version` overlaps `range`.
fn deleted_after(deletes: &[ModEntry], version: u64, range: TimeRange) -> bool {
    deletes
        .iter()
        .any(|d| d.version.0 > version && d.range.overlaps(&range))
}

/// Classify every page of every input chunk. `clean_copy` off yields
/// the all-dirty plan (`compaction_clean_page_copy = false`, the
/// benchmark's full-rewrite twin).
pub fn classify(chunks: &[ChunkView], deletes: &[ModEntry], clean_copy: bool) -> CompactionPlan {
    if !clean_copy {
        return CompactionPlan::all_dirty(chunks);
    }
    let mut clean_runs: Vec<Vec<Range<usize>>> = Vec::with_capacity(chunks.len());
    let mut pages_clean = 0u64;
    let mut pages_dirty = 0u64;
    for (i, chunk) in chunks.iter().enumerate() {
        let mut runs: Vec<Range<usize>> = Vec::new();
        for (j, page) in chunk.pages.iter().enumerate() {
            let overlapped = chunks
                .iter()
                .enumerate()
                .any(|(k, other)| k != i && other.range.overlaps(&page.range));
            let clean = !overlapped && !deleted_after(deletes, chunk.version, page.range);
            if clean {
                pages_clean += 1;
                match runs.last_mut() {
                    Some(run) if run.end == j => run.end = j + 1,
                    _ => runs.push(j..j + 1),
                }
            } else {
                pages_dirty += 1;
            }
        }
        clean_runs.push(runs);
    }
    CompactionPlan {
        clean_runs,
        pages_clean,
        pages_dirty,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsfile::types::Version;

    fn page(a: i64, b: i64) -> PageView {
        PageView {
            range: TimeRange::new(a, b),
            count: (b - a + 1) as u64,
        }
    }

    fn chunk(version: u64, pages: &[(i64, i64)]) -> ChunkView {
        let views: Vec<PageView> = pages.iter().map(|&(a, b)| page(a, b)).collect();
        let range = TimeRange::new(
            views.first().map_or(0, |p| p.range.start),
            views.last().map_or(0, |p| p.range.end),
        );
        ChunkView {
            version,
            range,
            pages: views,
        }
    }

    fn del(version: u64, a: i64, b: i64) -> ModEntry {
        ModEntry::new(Version(version), a, b)
    }

    #[test]
    fn disjoint_chunks_are_fully_clean() {
        let chunks = vec![
            chunk(1, &[(0, 9), (10, 19)]),
            chunk(2, &[(20, 29), (30, 39)]),
        ];
        let plan = classify(&chunks, &[], true);
        assert_eq!(plan.clean_runs, vec![vec![0..2], vec![0..2]]);
        assert_eq!(plan.pages_clean, 4);
        assert_eq!(plan.pages_dirty, 0);
    }

    #[test]
    fn overlap_dirties_only_touched_pages() {
        // Chunk 2 overlaps the tail of chunk 1: pages overlapping the
        // other chunk's range recode, the rest copy.
        let chunks = vec![
            chunk(1, &[(0, 9), (10, 19), (20, 29)]),
            chunk(2, &[(25, 34), (35, 44)]),
        ];
        let plan = classify(&chunks, &[], true);
        // Page (20,29) of chunk 1 overlaps chunk 2's [25,44]; both
        // pages of chunk 2... only (25,34) overlaps chunk 1's [0,29].
        assert_eq!(plan.clean_runs, vec![vec![0..2], vec![1..2]]);
        assert_eq!(plan.pages_clean, 3);
        assert_eq!(plan.pages_dirty, 2);
    }

    #[test]
    fn newer_delete_dirties_page_older_delete_does_not() {
        let chunks = vec![chunk(5, &[(0, 9), (10, 19), (20, 29)])];
        // Version 3 < 5: never applies to this chunk.
        let stale = [del(3, 10, 19)];
        assert_eq!(classify(&chunks, &stale, true).pages_clean, 3);
        // Version 7 > 5: the overlapped page recodes.
        let live = [del(7, 10, 19)];
        let plan = classify(&chunks, &live, true);
        assert_eq!(plan.clean_runs, vec![vec![0..1, 2..3]]);
        assert_eq!(plan.pages_clean, 2);
        assert_eq!(plan.pages_dirty, 1);
    }

    #[test]
    fn clean_copy_off_recodes_everything() {
        let chunks = vec![chunk(1, &[(0, 9), (10, 19)]), chunk(2, &[(100, 199)])];
        let plan = classify(&chunks, &[], false);
        assert_eq!(plan.clean_runs, vec![Vec::new(), Vec::new()]);
        assert_eq!(plan.pages_clean, 0);
        assert_eq!(plan.pages_dirty, 3);
    }

    #[test]
    fn runs_are_maximal_and_split_at_dirty_pages() {
        let chunks = vec![
            chunk(1, &[(0, 9), (10, 19), (20, 29), (30, 39), (40, 49)]),
            chunk(2, &[(20, 24)]), // dirties the middle page of chunk 1
        ];
        let plan = classify(&chunks, &[], true);
        assert_eq!(plan.clean_runs[0], vec![0..2, 3..5]);
        assert_eq!(plan.clean_runs[1], Vec::<Range<usize>>::new());
    }
}
