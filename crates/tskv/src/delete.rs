//! Delete semantics helpers.
//!
//! A delete `D^κ` (re-exported from [`tsfile::ModEntry`]) erases every
//! point whose chunk has a *smaller* version than the delete
//! (Definition 2.7). These helpers centralize that rule so the merge
//! reader and the M4-LSM verifier cannot drift apart.

use tsfile::types::{TimeRange, Timestamp, Version};
use tsfile::ModEntry;

/// Whether a point at `t` written with `chunk_version` is erased by any
/// delete in `deletes`.
#[inline]
pub fn is_deleted(t: Timestamp, chunk_version: Version, deletes: &[ModEntry]) -> bool {
    deletes
        .iter()
        .any(|d| d.applies_to(chunk_version) && d.covers(t))
}

/// Streaming delete filter for time-ascending point sequences.
///
/// The paper notes IoTDB's "CPU-efficient delete sort operation" keeps
/// the baseline's cost flat as deletes grow (§4.4). This is that
/// operation: deletes are sorted by range start once, and a two-pointer
/// sweep maintains the set of ranges covering the current timestamp, so
/// each `is_deleted` probe costs O(|active|) instead of O(|deletes|).
///
/// Probes must be issued with non-decreasing timestamps.
#[derive(Debug)]
pub struct DeleteSweep<'a> {
    /// All deletes, sorted by range start.
    sorted: Vec<&'a ModEntry>,
    /// Next delete to activate.
    next: usize,
    /// Deletes whose range might still cover current/future probes.
    active: Vec<&'a ModEntry>,
}

impl<'a> DeleteSweep<'a> {
    /// Build a sweep over a delete set (any order; empty ranges are
    /// dropped).
    pub fn new(deletes: &'a [ModEntry]) -> Self {
        let mut sorted: Vec<&'a ModEntry> =
            deletes.iter().filter(|d| !d.range.is_empty()).collect();
        sorted.sort_by_key(|d| d.range.start);
        DeleteSweep {
            sorted,
            next: 0,
            active: Vec::new(),
        }
    }

    /// Whether a point at `t` written at `chunk_version` is erased.
    /// `t` must be ≥ every previously probed timestamp (or range start).
    pub fn is_deleted(&mut self, t: Timestamp, chunk_version: Version) -> bool {
        self.any_in(TimeRange::new(t, t), chunk_version)
    }

    /// Whether an applicable delete overlaps `range`: a stretch of
    /// points probes once and, told no, is kept whole. `range.start`
    /// must be ≥ every previously probed timestamp (or range start).
    pub fn any_in(&mut self, range: TimeRange, chunk_version: Version) -> bool {
        // The common probe: nothing active, the next delete ahead.
        let next = self.sorted.get(self.next);
        if self.active.is_empty() && next.is_none_or(|d| d.range.start > range.end) {
            return false;
        }
        while let Some(d) = self
            .sorted
            .get(self.next)
            .filter(|d| d.range.start <= range.end)
        {
            self.active.push(d);
            self.next += 1;
        }
        self.active.retain(|d| d.range.end >= range.start);
        self.active
            .iter()
            .any(|d| d.applies_to(chunk_version) && d.range.overlaps(&range))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(version: u64, start: i64, end: i64) -> ModEntry {
        ModEntry::new(Version(version), start, end)
    }

    #[test]
    fn is_deleted_respects_versions() {
        let deletes = vec![d(5, 10, 20)];
        assert!(is_deleted(15, Version(4), &deletes));
        assert!(!is_deleted(15, Version(5), &deletes)); // same version: not applied
        assert!(!is_deleted(15, Version(6), &deletes)); // later chunk
        assert!(!is_deleted(25, Version(4), &deletes)); // outside range
    }

    #[test]
    fn sweep_matches_naive_on_ascending_probes() {
        let deletes = vec![d(2, 0, 20), d(5, 10, 40), d(3, 100, 100), d(9, 15, 18)];
        // One sweep per version (probes must ascend within a sweep).
        for v in [1u64, 2, 4, 6, 10] {
            let mut sweep = DeleteSweep::new(&deletes);
            for t in -5..=120 {
                assert_eq!(
                    sweep.is_deleted(t, Version(v)),
                    is_deleted(t, Version(v), &deletes),
                    "t={t} v={v}"
                );
            }
        }
    }

    #[test]
    fn sweep_empty_deletes() {
        let mut sweep = DeleteSweep::new(&[]);
        assert!(!sweep.is_deleted(5, Version(1)));
    }

    #[test]
    fn sweep_drops_empty_ranges() {
        let deletes = vec![ModEntry::new(Version(2), 10, 5)]; // empty
        let mut sweep = DeleteSweep::new(&deletes);
        assert!(!sweep.is_deleted(7, Version(1)));
    }
}
