//! The chunk planner: one classification for compaction and M4-LSM.
//!
//! From chunk metadata alone, give every chunk its [`Fate`]. A chunk is
//! **clean** iff no other chunk of the set overlaps its time range and
//! no delete newer than it does (deletes at or below its version never
//! apply to it). Its points are then all live and latest, so its
//! statistics are exact (Proposition 3.3): compaction copies its bytes
//! verbatim, and M4-LSM folds its statistics or in-span slices.
//!
//! Otherwise it is **dirty** — merged: compaction re-encodes it, M4-LSM
//! executes every span it reaches — unless one newer delete covers its
//! whole range; then it is **dropped**, unread: every point in it is
//! erased, and a point it shadowed at the same timestamp is either
//! older (the same delete erases it too) or newer (it wins the
//! timestamp with or without the chunk) — DESIGN §12.2.
//!
//! Overlap is the cluster rule: in start order, a chunk that starts at
//! or before the furthest end so far overlaps the chunk that reached
//! that end, and both are flagged. The chunks the sweep strings together
//! this way are the clusters of overlapping chunks, and each member of
//! a cluster of two or more is flagged, so one sort and one pass decide
//! every chunk.

use tsfile::types::{TimeRange, Timestamp};
use tsfile::ModEntry;

/// Metadata view of one chunk.
#[derive(Debug, Clone, Copy)]
pub struct ChunkView {
    /// The chunk's version `κ`.
    pub version: u64,
    /// The chunk's `[FP.t, LP.t]` interval.
    pub range: TimeRange,
}

/// What a merge, or a query, does with one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Exact from its statistics: copied byte for byte, or folded.
    Clean,
    /// Merged with what overlaps it.
    Dirty,
    /// Wholly covered by one newer delete: never read.
    Dropped,
}

/// The fate of a chunk at `version` over `range` that some other chunk
/// overlaps or not.
fn fate(deletes: &[ModEntry], version: u64, range: TimeRange, overlapped: bool) -> Fate {
    let mut newer = deletes
        .iter()
        .filter(|d| d.version.0 > version && d.range.overlaps(&range));
    if newer
        .clone()
        .any(|d| d.range.start <= range.start && range.end <= d.range.end)
    {
        Fate::Dropped
    } else if overlapped || newer.next().is_some() {
        Fate::Dirty
    } else {
        Fate::Clean
    }
}

/// Classify every chunk: one fate per chunk, parallel to `chunks`.
pub fn classify(chunks: &[ChunkView], deletes: &[ModEntry]) -> Vec<Fate> {
    let mut order: Vec<(usize, TimeRange)> = chunks.iter().map(|c| c.range).enumerate().collect();
    order.sort_by_key(|&(_, r)| r.start);
    let mut overlapped = vec![false; chunks.len()];
    // The furthest end so far, and the chunk that reached it.
    let mut reach: Option<(Timestamp, usize)> = None;
    for (i, r) in order {
        match reach {
            Some((end, owner)) if r.start <= end => {
                (overlapped[i], overlapped[owner]) = (true, true);
                if r.end > end {
                    reach = Some((r.end, i));
                }
            }
            _ => reach = Some((r.end, i)),
        }
    }
    chunks
        .iter()
        .zip(overlapped)
        .map(|(c, o)| fate(deletes, c.version, c.range, o))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsfile::types::Version;

    fn chunk(version: u64, start: i64, end: i64) -> ChunkView {
        ChunkView {
            version,
            range: TimeRange::new(start, end),
        }
    }

    fn del(version: u64, a: i64, b: i64) -> ModEntry {
        ModEntry::new(Version(version), a, b)
    }

    /// One letter per chunk: `c`lean, `d`irty, dropped `x`.
    fn show(fates: &[Fate]) -> String {
        fates
            .iter()
            .map(|f| match f {
                Fate::Clean => 'c',
                Fate::Dirty => 'd',
                Fate::Dropped => 'x',
            })
            .collect()
    }

    #[test]
    fn disjoint_chunks_are_fully_clean() {
        let chunks = [
            chunk(1, 0, 9),
            chunk(1, 10, 19),
            chunk(2, 20, 29),
            chunk(2, 30, 39),
        ];
        assert_eq!(show(&classify(&chunks, &[])), "cccc");
    }

    #[test]
    fn overlap_dirties_only_touched_pages() {
        // The last chunk of file 1 and the first of file 2 overlap:
        // those recode, the rest copy.
        let chunks = [
            chunk(1, 0, 9),
            chunk(1, 10, 19),
            chunk(1, 20, 29),
            chunk(2, 25, 34),
            chunk(2, 35, 44),
        ];
        assert_eq!(show(&classify(&chunks, &[])), "ccddc");
    }

    #[test]
    fn newer_delete_dirties_or_drops_a_page_older_delete_does_neither() {
        let chunks = [chunk(5, 0, 9), chunk(5, 10, 19), chunk(5, 20, 29)];
        // Version 3 < 5: never applies to these chunks.
        assert_eq!(show(&classify(&chunks, &[del(3, 10, 19)])), "ccc");
        // Version 7 > 5, part of a chunk: the chunk recodes.
        assert_eq!(show(&classify(&chunks, &[del(7, 12, 19)])), "cdc");
        // The whole chunk, to the timestamp: nothing of it is left to read.
        assert_eq!(show(&classify(&chunks, &[del(7, 10, 19)])), "cxc");
        // Two deletes that only together cover a chunk do not drop it.
        let halves = [del(7, 10, 14), del(8, 15, 19)];
        assert_eq!(show(&classify(&chunks, &halves)), "cdc");
    }

    #[test]
    fn a_chunk_dwelling_in_a_gap_leaves_both_neighbour_pages_clean() {
        let chunks = [
            chunk(1, 0, 9),
            chunk(1, 20, 29),
            chunk(2, 12, 18), // between the two, on neither
            chunk(3, 100, 109),
            chunk(3, 200, 209),
            chunk(4, 150, 160), // between the two, on neither
        ];
        assert_eq!(show(&classify(&chunks, &[])), "cccccc");
        // One that reaches into a neighbour dirties the pair.
        let reaching = [chunk(1, 0, 9), chunk(1, 20, 29), chunk(2, 12, 20)];
        assert_eq!(show(&classify(&reaching, &[])), "cdd");
    }

    /// `classify` against the definition, chunk by chunk, on random
    /// chunk sets: clean iff no *other* chunk's range overlaps it and
    /// no newer delete does; dropped iff one newer delete covers it.
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
            let chunks: Vec<ChunkView> = (0..1 + next(60))
                .map(|v| {
                    let a = next(span) as i64;
                    chunk(v / 3 + 1, a, a + next(12) as i64)
                })
                .collect();
            let deletes: Vec<ModEntry> = (0..next(6))
                .map(|_| {
                    let a = next(span) as i64;
                    del(next(25), a, a + next(12) as i64)
                })
                .collect();

            let fates = classify(&chunks, &deletes);
            for (i, c) in chunks.iter().enumerate() {
                let newer = |d: &&ModEntry| d.version.0 > c.version;
                let want = if deletes
                    .iter()
                    .filter(newer)
                    .any(|d| d.range.start <= c.range.start && c.range.end <= d.range.end)
                {
                    Fate::Dropped
                } else if chunks
                    .iter()
                    .enumerate()
                    .any(|(k, other)| k != i && other.range.overlaps(&c.range))
                    || deletes
                        .iter()
                        .filter(newer)
                        .any(|d| d.range.overlaps(&c.range))
                {
                    Fate::Dirty
                } else {
                    Fate::Clean
                };
                assert_eq!(
                    fates[i], want,
                    "round {round} chunk {i}: {chunks:?} {deletes:?}"
                );
            }
        }
    }
}
