//! Page classification for page-aware compaction.
//!
//! Given the metadata of a merge's input chunks (footer statistics
//! only — no chunk body is touched), give every page its
//! [`PageFate`]. A page is **clean** (its bytes can move to the output
//! file verbatim) iff:
//!
//! 1. its time range overlaps **no other input chunk** (nothing to
//!    merge against: within its own chunk, pages are disjoint by
//!    format invariant), and
//! 2. no captured delete with a version newer than the chunk overlaps
//!    it (deletes at or below the chunk's version never apply to it).
//!
//! Otherwise it is **dirty** (its points must flow through decode →
//! k-way merge → re-encode) — unless one newer delete covers its whole
//! range, and then it is **dropped**, unread: every point in it is
//! erased, and a point it shadowed at the same timestamp is either
//! older (the same delete erases it too) or newer (it wins the
//! timestamp with or without the page) — DESIGN §12.2.
//!
//! The classification is pure metadata arithmetic over what the shard
//! lock already holds in memory, so planning costs no I/O: one sort of
//! the chunk intervals by start and a prefix maximum of their ends
//! answer "does any *other* chunk reach this page" by binary search.

use tsfile::types::{TimeRange, Timestamp};
use tsfile::ModEntry;

/// Metadata view of one input chunk, in capture (= version) order.
#[derive(Debug, Clone)]
pub struct ChunkView {
    /// The chunk's version `κ`.
    pub version: u64,
    /// The chunk's `[FP.t, LP.t]` interval.
    pub range: TimeRange,
    /// Each page's `[FP.t, LP.t]` interval, in page order.
    pub pages: Vec<TimeRange>,
}

/// What the merge does with one input page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageFate {
    /// Copied byte for byte.
    Clean,
    /// Decoded, merged, re-encoded.
    Dirty,
    /// Wholly covered by one newer delete: never read.
    Dropped,
}

/// The classification outcome for one compaction run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionPlan {
    /// Per input chunk (parallel to the input slice), per page.
    pub fates: Vec<Vec<PageFate>>,
}

impl CompactionPlan {
    /// Pages that will be decoded and re-encoded.
    pub fn pages_dirty(&self) -> u64 {
        let dirty = |f: &&PageFate| **f == PageFate::Dirty;
        self.fates.iter().flatten().filter(dirty).count() as u64
    }
}

/// The fate of a page of a chunk at `version` that some other chunk
/// overlaps or not.
fn fate(deletes: &[ModEntry], version: u64, range: TimeRange, overlapped: bool) -> PageFate {
    let mut newer = deletes
        .iter()
        .filter(|d| d.version.0 > version && d.range.overlaps(&range));
    if newer
        .clone()
        .any(|d| d.range.start <= range.start && range.end <= d.range.end)
    {
        PageFate::Dropped
    } else if overlapped || newer.next().is_some() {
        PageFate::Dirty
    } else {
        PageFate::Clean
    }
}

/// One step of the sweep over chunk intervals sorted by start: this
/// chunk's `start`, the furthest `end` among the chunks so far and its
/// `owner`, and the furthest among the others (`second`: what the
/// prefix reaches without `owner`).
#[derive(Clone, Copy)]
struct Reach {
    start: Timestamp,
    end: Timestamp,
    owner: usize,
    second: Timestamp,
}

/// Classify every page of every input chunk.
pub fn classify(chunks: &[ChunkView], deletes: &[ModEntry]) -> CompactionPlan {
    let mut order: Vec<(usize, &ChunkView)> = chunks.iter().enumerate().collect();
    order.sort_by_key(|(_, c)| c.range.start);
    let mut reach: Vec<Reach> = Vec::with_capacity(order.len());
    let mut at = Reach {
        start: Timestamp::MIN,
        end: Timestamp::MIN,
        owner: usize::MAX,
        second: Timestamp::MIN,
    };
    for (i, c) in order {
        at.start = c.range.start;
        if c.range.end > at.end {
            at.second = at.end;
            (at.end, at.owner) = (c.range.end, i);
        } else {
            at.second = at.second.max(c.range.end);
        }
        reach.push(at);
    }

    let fates = chunks
        .iter()
        .enumerate()
        .map(|(i, chunk)| {
            let fate_of = |page: &TimeRange| {
                // Of the chunks starting at or before the page's end,
                // does one other than `i` end at or after its start?
                let upto = reach.partition_point(|r| r.start <= page.end);
                let overlapped = upto
                    .checked_sub(1)
                    .and_then(|k| reach.get(k))
                    .is_some_and(|r| (if r.owner == i { r.second } else { r.end }) >= page.start);
                fate(deletes, chunk.version, *page, overlapped)
            };
            chunk.pages.iter().map(fate_of).collect()
        })
        .collect();
    CompactionPlan { fates }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsfile::types::Version;

    fn chunk(version: u64, pages: &[(i64, i64)]) -> ChunkView {
        let views: Vec<TimeRange> = pages.iter().map(|&(a, b)| TimeRange::new(a, b)).collect();
        let range = TimeRange::new(
            views.first().map_or(0, |p| p.start),
            views.last().map_or(0, |p| p.end),
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

    /// One string per chunk, one letter per page: `c`lean, `d`irty,
    /// dropped `x`.
    fn show(plan: &CompactionPlan) -> Vec<String> {
        let letter = |f: &PageFate| match f {
            PageFate::Clean => 'c',
            PageFate::Dirty => 'd',
            PageFate::Dropped => 'x',
        };
        plan.fates
            .iter()
            .map(|c| c.iter().map(letter).collect())
            .collect()
    }

    #[test]
    fn disjoint_chunks_are_fully_clean() {
        let chunks = vec![
            chunk(1, &[(0, 9), (10, 19)]),
            chunk(2, &[(20, 29), (30, 39)]),
        ];
        let plan = classify(&chunks, &[]);
        assert_eq!(show(&plan), ["cc", "cc"]);
        assert_eq!(plan.pages_dirty(), 0);
    }

    #[test]
    fn overlap_dirties_only_touched_pages() {
        // Chunk 2 overlaps the tail of chunk 1: pages overlapping the
        // other chunk's range recode, the rest copy.
        let chunks = vec![
            chunk(1, &[(0, 9), (10, 19), (20, 29)]),
            chunk(2, &[(25, 34), (35, 44)]),
        ];
        let plan = classify(&chunks, &[]);
        // Page (20,29) of chunk 1 overlaps chunk 2's [25,44]; of chunk
        // 2's pages only (25,34) overlaps chunk 1's [0,29].
        assert_eq!(show(&plan), ["ccd", "dc"]);
        assert_eq!(plan.pages_dirty(), 2);
    }

    #[test]
    fn newer_delete_dirties_or_drops_a_page_older_delete_does_neither() {
        let chunks = vec![chunk(5, &[(0, 9), (10, 19), (20, 29)])];
        // Version 3 < 5: never applies to this chunk.
        let stale = [del(3, 10, 19)];
        assert_eq!(show(&classify(&chunks, &stale)), ["ccc"]);
        // Version 7 > 5, part of a page: the page recodes.
        let plan = classify(&chunks, &[del(7, 12, 19)]);
        assert_eq!(show(&plan), ["cdc"]);
        assert_eq!(plan.pages_dirty(), 1);
        // The whole page, to the timestamp: nothing of it is left to read.
        let plan = classify(&chunks, &[del(7, 10, 19)]);
        assert_eq!(show(&plan), ["cxc"]);
        assert_eq!(plan.pages_dirty(), 0);
        // Two deletes that only together cover a page do not drop it.
        let halves = [del(7, 10, 14), del(8, 15, 19)];
        assert_eq!(show(&classify(&chunks, &halves)), ["cdc"]);
    }

    #[test]
    fn a_chunk_dwelling_in_a_gap_leaves_both_neighbour_pages_clean() {
        let chunks = vec![
            chunk(1, &[(0, 9), (10, 19), (20, 29), (30, 39), (40, 49)]),
            chunk(2, &[(20, 24)]), // dirties the middle page of chunk 1
            chunk(3, &[(100, 109), (200, 209)]),
            chunk(4, &[(150, 160)]), // inside chunk 3's range, on no page of it
        ];
        assert_eq!(show(&classify(&chunks, &[])), ["ccdcc", "d", "cc", "d"]);
    }

    /// `classify` against the definition, page by page, on random
    /// chunk sets: clean iff no *other* chunk's range overlaps the page
    /// and no newer delete does; dropped iff one newer delete covers it.
    #[test]
    fn classify_equals_the_brute_force_definition() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        for round in 0..400 {
            // Starts drawn from a span that shrinks and grows with the
            // round: from almost all chunks disjoint to almost all
            // stacked, ties on starts and ends included.
            let span = 20 + 40 * (round % 20);
            let chunks: Vec<ChunkView> = (0..1 + next(40))
                .map(|v| {
                    let mut t = next(span) as i64;
                    let pages: Vec<(i64, i64)> = (0..1 + next(5))
                        .map(|_| {
                            let a = t + next(3) as i64;
                            let b = a + next(6) as i64;
                            t = b + 1 + next(8) as i64;
                            (a, b)
                        })
                        .collect();
                    chunk(v + 1, &pages)
                })
                .collect();
            let deletes: Vec<ModEntry> = (0..next(6))
                .map(|_| {
                    let a = next(span) as i64;
                    del(next(45), a, a + next(12) as i64)
                })
                .collect();

            let plan = classify(&chunks, &deletes);
            for (i, c) in chunks.iter().enumerate() {
                for (j, p) in c.pages.iter().enumerate() {
                    let newer = |d: &&ModEntry| d.version.0 > c.version;
                    let want = if deletes
                        .iter()
                        .filter(newer)
                        .any(|d| d.range.start <= p.start && p.end <= d.range.end)
                    {
                        PageFate::Dropped
                    } else if chunks
                        .iter()
                        .enumerate()
                        .any(|(k, other)| k != i && other.range.overlaps(p))
                        || deletes.iter().filter(newer).any(|d| d.range.overlaps(p))
                    {
                        PageFate::Dirty
                    } else {
                        PageFate::Clean
                    };
                    assert_eq!(
                        plan.fates[i][j], want,
                        "round {round} chunk {i} page {j}: {chunks:?} {deletes:?}"
                    );
                }
            }
        }
    }
}
