//! Chunk classification for compaction.
//!
//! Given the metadata of a merge's input chunks (footer statistics
//! only — no chunk body is touched), give every chunk its [`Fate`]. A
//! chunk is **clean** (its bytes can move to the output file verbatim)
//! iff:
//!
//! 1. its time range overlaps **no other input chunk** (nothing to
//!    merge against), and
//! 2. no captured delete with a version newer than the chunk overlaps
//!    it (deletes at or below the chunk's version never apply to it).
//!
//! Otherwise it is **dirty** (its points must flow through decode →
//! k-way merge → re-encode) — unless one newer delete covers its whole
//! range, and then it is **dropped**, unread: every point in it is
//! erased, and a point it shadowed at the same timestamp is either
//! older (the same delete erases it too) or newer (it wins the
//! timestamp with or without the chunk) — DESIGN §12.2.
//!
//! The classification is pure metadata arithmetic over what the shard
//! lock already holds in memory, so planning costs no I/O: one sort of
//! the chunk intervals by start and a prefix maximum of their ends
//! answer "does any *other* chunk reach this one" by binary search.

use tsfile::types::{TimeRange, Timestamp};
use tsfile::ModEntry;

/// Metadata view of one input chunk, in capture (= version) order.
#[derive(Debug, Clone, Copy)]
pub struct ChunkView {
    /// The chunk's version `κ`.
    pub version: u64,
    /// The chunk's `[FP.t, LP.t]` interval.
    pub range: TimeRange,
}

/// What the merge does with one input chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Copied byte for byte.
    Clean,
    /// Decoded, merged, re-encoded.
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

/// Classify every input chunk: one fate per chunk, parallel to
/// `chunks`.
pub fn classify(chunks: &[ChunkView], deletes: &[ModEntry]) -> Vec<Fate> {
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

    chunks
        .iter()
        .enumerate()
        .map(|(i, chunk)| {
            // Of the chunks starting at or before this one's end, does
            // one other than `i` end at or after its start?
            let upto = reach.partition_point(|r| r.start <= chunk.range.end);
            let overlapped = upto
                .checked_sub(1)
                .and_then(|k| reach.get(k))
                .is_some_and(|r| {
                    (if r.owner == i { r.second } else { r.end }) >= chunk.range.start
                });
            fate(deletes, chunk.version, chunk.range, overlapped)
        })
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
