//! MergeReader: the merge function `M(ℂ, 𝔻)` of Definition 2.7.
//!
//! Loads every chunk overlapping the requested range, k-way merges the
//! sorted runs by time, resolves same-timestamp collisions by highest
//! version (later writes overwrite earlier ones), and drops points
//! covered by a later-versioned delete. This is the full-cost path the
//! M4-UDF baseline sits on: all overlapping chunks are read, decoded
//! and heap-merged whether or not their points end up in the output.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use tsfile::types::{Point, TimeRange, Timestamp, Version};

use crate::delete::DeleteSweep;
use crate::snapshot::SeriesSnapshot;
use crate::Result;

/// K-way merging reader over a snapshot.
#[derive(Debug)]
pub struct MergeReader<'a> {
    snapshot: &'a SeriesSnapshot,
    range: TimeRange,
}

/// Heap entry — the head of one admitted run: min-heap by time,
/// tie-broken by *descending* version so the latest write at a
/// timestamp surfaces first.
struct HeapEntry<'r> {
    t: Timestamp,
    version: Version,
    /// The run's points from its head on (never empty; `rest[0].t == t`).
    rest: &'r [Point],
}

impl PartialEq for HeapEntry<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.version == other.version
    }
}
impl Eq for HeapEntry<'_> {}
impl PartialOrd for HeapEntry<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry<'_> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // BinaryHeap is a max-heap; invert time, keep version ascending
        // so the max-heap pops (smallest t, largest version) first.
        other.t.cmp(&self.t).then(self.version.cmp(&other.version))
    }
}

impl<'r> HeapEntry<'r> {
    fn new(version: Version, rest: &'r [Point]) -> Option<Self> {
        rest.first().map(|p| HeapEntry {
            t: p.t,
            version,
            rest,
        })
    }
}

/// Length of the prefix of `pts` (time-sorted) below `bound`: the whole
/// run at one comparison when runs are disjoint, else a scan no longer
/// than the copy that follows it.
fn prefix_below(pts: &[Point], bound: Timestamp) -> usize {
    if pts.last().is_some_and(|p| p.t < bound) {
        return pts.len();
    }
    pts.iter().position(|p| p.t >= bound).unwrap_or(pts.len())
}

impl<'a> MergeReader<'a> {
    /// Merge the whole series.
    pub fn new(snapshot: &'a SeriesSnapshot) -> Self {
        MergeReader {
            snapshot,
            range: TimeRange::new(Timestamp::MIN, Timestamp::MAX),
        }
    }

    /// Merge only points within `range` (inclusive). Chunks that do not
    /// overlap the range are skipped entirely (their metadata suffices
    /// to prune them — even the baseline gets this basic pruning, as
    /// IoTDB's SeriesReader does).
    pub fn with_range(snapshot: &'a SeriesSnapshot, range: TimeRange) -> Self {
        MergeReader { snapshot, range }
    }

    /// Materialize the merged, latest-points-only series in time order.
    pub fn collect_merged(&self) -> Result<Vec<Point>> {
        // Load every overlapping chunk in one batch: each is one sorted
        // run under its version; points outside the range are dropped
        // by the merge.
        let chunks = self.snapshot.chunks_overlapping(self.range);
        let points = self.snapshot.read_points_many(&chunks)?;
        let runs: Vec<_> = chunks.iter().map(|c| c.version).zip(points).collect();
        Ok(self.merge_runs(&runs))
    }

    /// K-way merge pre-loaded runs (one per chunk, any order) within
    /// the reader's range: latest version wins a same-timestamp
    /// collision, and points covered by a later-versioned delete are
    /// dropped. Pure CPU.
    pub fn merge_runs(&self, runs: &[(Version, Arc<Vec<Point>>)]) -> Vec<Point> {
        let (lo, hi) = (self.range.start, self.range.end);
        let mut deletes = DeleteSweep::new(self.snapshot.deletes());

        // Each run's slice inside the range, in the order the merge
        // front reaches them.
        let mut waiting: Vec<HeapEntry<'_>> = runs
            .iter()
            .filter_map(|(version, pts)| {
                let a = pts.partition_point(|p| p.t < lo);
                let b = pts.partition_point(|p| p.t <= hi);
                HeapEntry::new(*version, pts.get(a..b)?)
            })
            .collect();
        waiting.sort_by_key(|e| e.t);
        let mut out = Vec::with_capacity(waiting.iter().map(|e| e.rest.len()).sum());
        let mut waiting = waiting.into_iter().peekable();

        // The front: `lead`, the admitted run whose head goes next, and
        // in the heap the others the front has reached — the overlap
        // degree at the current timestamp, not the run count.
        let mut heap: BinaryHeap<HeapEntry<'_>> = BinaryHeap::new();
        let mut last_t: Option<Timestamp> = None;
        let Some(mut lead) = waiting.next() else {
            return out;
        };
        loop {
            // The heap's top leads if it goes before `lead`.
            if let Some(mut top) = heap.peek_mut().filter(|top| **top > lead) {
                std::mem::swap(&mut *top, &mut lead);
            }
            // Admit every run that starts at or before the front: at
            // the leader's very timestamp too, or an older point would
            // win a tie against a newer run not yet admitted.
            while let Some(e) = waiting.next_if(|e| e.t <= lead.t) {
                heap.push(if e > lead {
                    std::mem::replace(&mut lead, e)
                } else {
                    e
                });
            }
            // Nothing else has a point below the next competing
            // timestamp (the heap's top, or the next run waiting), so
            // the leader's stretch below it is in output order. Its
            // first point goes regardless: a tie is already decided.
            let bound = match (heap.peek(), waiting.peek()) {
                (Some(a), Some(b)) => a.t.min(b.t),
                (Some(e), None) | (None, Some(e)) => e.t,
                (None, None) => Timestamp::MAX,
            };
            let n = 1 + prefix_below(lead.rest.get(1..).unwrap_or(&[]), bound);
            let (mut stretch, rest) = lead.rest.split_at(n.min(lead.rest.len()));
            let version = lead.version;
            // Same timestamp as an already-decided (higher-version)
            // point: this one was overwritten.
            if last_t == Some(lead.t) {
                stretch = stretch.get(1..).unwrap_or(&[]);
            }
            if let (Some(first), Some(last)) = (stretch.first(), stretch.last()) {
                // A deleted point still consumes the timestamp slot: an
                // older-version point at the same timestamp must not
                // resurface (the delete covers it too, since it has an
                // even smaller version).
                last_t = Some(last.t);
                if deletes.any_in(TimeRange::new(first.t, last.t), version) {
                    out.extend(stretch.iter().filter(|p| !deletes.is_deleted(p.t, version)));
                } else {
                    out.extend_from_slice(stretch);
                }
            }
            // On to the rest of the run; a finished run hands over to
            // the heap, an empty heap to the next run waiting.
            match HeapEntry::new(version, rest)
                .or_else(|| heap.pop())
                .or_else(|| waiting.next())
            {
                Some(next) => lead = next,
                None => break,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::TsKv;

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    fn fresh(name: &str) -> crate::Result<(std::path::PathBuf, TsKv)> {
        let dir = std::env::temp_dir().join(format!("tskv-merge-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 100,
                memtable_threshold: 100,
                ..Default::default()
            },
        )?;
        Ok((dir, kv))
    }

    #[test]
    fn merges_overlapping_chunks_latest_wins() -> TestResult {
        let (dir, kv) = fresh("overwrite")?;
        // Batch 1: t in 0..100, v = 1.
        for t in 0..100i64 {
            kv.insert("s", Point::new(t, 1.0))?;
        }
        kv.flush_all()?;
        // Batch 2 overwrites t in 50..100 with v = 2 (overlapping chunk).
        for t in 50..100i64 {
            kv.insert("s", Point::new(t, 2.0))?;
        }
        kv.flush_all()?;

        let snap = kv.snapshot("s")?;
        let merged = MergeReader::new(&snap).collect_merged()?;
        assert_eq!(merged.len(), 100);
        assert!(merged.iter().take(50).all(|p| p.v == 1.0));
        assert!(merged.iter().skip(50).all(|p| p.v == 2.0));
        assert!(merged.windows(2).all(|w| w[0].t < w[1].t));
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn deletes_apply_only_to_older_versions() -> TestResult {
        let (dir, kv) = fresh("deletes")?;
        for t in 0..100i64 {
            kv.insert("s", Point::new(t, 1.0))?;
        }
        kv.flush_all()?;
        kv.delete("s", 20, 40)?;
        // Re-insert part of the deleted range afterwards (newer version).
        for t in 30..=35i64 {
            kv.insert("s", Point::new(t, 9.0))?;
        }
        kv.flush_all()?;

        let snap = kv.snapshot("s")?;
        let merged = MergeReader::new(&snap).collect_merged()?;
        // 0..20 (20) + 41..100 (59) + re-inserted 30..=35 (6)
        assert_eq!(merged.len(), 85);
        assert!(merged
            .iter()
            .all(|p| !(20..=40).contains(&p.t) || p.v == 9.0));
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn range_filter_prunes_chunks() -> TestResult {
        let (dir, kv) = fresh("range")?;
        for t in 0..1000i64 {
            kv.insert("s", Point::new(t, t as f64))?;
        }
        kv.flush_all()?;
        let snap = kv.snapshot("s")?;
        let before = snap.io().snapshot();
        let merged = MergeReader::with_range(&snap, TimeRange::new(250, 349)).collect_merged()?;
        assert_eq!(merged.len(), 100);
        assert_eq!(merged.first().map(|p| p.t), Some(250));
        let delta = snap.io().snapshot() - before;
        // Only 2 of the 10 chunks overlap [250, 349].
        assert_eq!(delta.chunks_loaded, 2);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn empty_snapshot_merges_empty() -> TestResult {
        let (dir, kv) = fresh("empty")?;
        kv.create_series("s")?;
        let snap = kv.snapshot("s")?;
        assert!(MergeReader::new(&snap).collect_merged()?.is_empty());
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn memtable_points_visible_and_latest() -> TestResult {
        let (dir, kv) = fresh("memtable")?;
        for t in 0..50i64 {
            kv.insert("s", Point::new(t, 1.0))?;
        }
        kv.flush_all()?;
        // Unflushed overwrites + fresh points.
        for t in 40..60i64 {
            kv.insert("s", Point::new(t, 7.0))?;
        }
        let snap = kv.snapshot("s")?;
        let merged = MergeReader::new(&snap).collect_merged()?;
        assert_eq!(merged.len(), 60);
        assert!(merged.iter().filter(|p| p.t >= 40).all(|p| p.v == 7.0));
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    type Run = (Version, Arc<Vec<Point>>);

    /// Sorted runs and deletes laid out by `rng`: mostly disjoint runs
    /// (some exactly adjacent), a share starting inside their
    /// predecessor, and every so often a group of three to five runs
    /// on the very same timestamps; deletes start and end on run
    /// boundaries, give or take one. Versions are distinct; a point's
    /// value names its run.
    fn runs_and_deletes(
        rng: &mut proptest::TestRng,
        n_runs: usize,
        overlap_pct: u64,
    ) -> (Vec<Run>, Vec<tsfile::ModEntry>) {
        let mut below = |n: u64| rng.next_u64() % n;
        let mut versions: Vec<u64> = (1..=n_runs as u64).map(|v| 2 * v).collect();
        for i in (1..versions.len()).rev() {
            versions.swap(i, below(i as u64 + 1) as usize);
        }
        let mut runs: Vec<Run> = Vec::new();
        let (mut start, mut end, mut twins) = (0i64, -1i64, 0u64);
        let (mut step, mut len) = (1, 1);
        for v in versions {
            if twins > 0 {
                twins -= 1; // same timestamps as the run before
            } else {
                start = if below(100) < overlap_pct {
                    start + below((end - start + 1).max(1) as u64) as i64
                } else {
                    end + 1 + below(3) as i64
                };
                (step, len) = (1 + below(3) as i64, 1 + below(12) as i64);
                if below(20) == 0 {
                    twins = 2 + below(3);
                }
            }
            let pts: Vec<Point> = (0..len)
                .map(|i| Point::new(start + i * step, (v * 1_000_000) as f64 + i as f64))
                .collect();
            end = end.max(start + (len - 1) * step);
            runs.push((Version(v), Arc::new(pts)));
        }
        let edge = |below: &mut dyn FnMut(u64) -> u64| {
            let (_, pts) = &runs[below(runs.len() as u64) as usize];
            let at = if below(2) == 0 {
                pts[0].t
            } else {
                pts[pts.len() - 1].t
            };
            at + below(3) as i64 - 1
        };
        let deletes = (0..below(12))
            .map(|_| {
                let (a, b) = (edge(&mut below), edge(&mut below));
                let version = Version(2 * below(n_runs as u64 + 2) + 1);
                tsfile::ModEntry::new(version, a.min(b), a.max(b))
            })
            .collect();
        for i in (1..runs.len()).rev() {
            runs.swap(i, below(i as u64 + 1) as usize);
        }
        (runs, deletes)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `merge_runs` against the definition replayed into a
        /// `BTreeMap`: the highest version at a timestamp holds it, and
        /// is gone if a newer delete covers it. Hundreds of runs, so
        /// that admission order and stretch bounds are exercised far
        /// from the heap-of-everything case; then a ranged reader must
        /// equal the model cut to its range.
        #[test]
        fn merge_runs_matches_the_btreemap_model(
            seed in proptest::prelude::any::<u64>(),
            n_runs in 100usize..400,
            overlap_pct in 0u64..60,
        ) {
            use std::collections::BTreeMap;
            let mut rng = proptest::TestRng::from_seed(seed);
            let (runs, deletes) = runs_and_deletes(&mut rng, n_runs, overlap_pct);

            let mut latest: BTreeMap<i64, (Version, f64)> = BTreeMap::new();
            for (version, pts) in &runs {
                for p in pts.iter() {
                    let slot = latest.entry(p.t).or_insert((*version, p.v));
                    if *version > slot.0 {
                        *slot = (*version, p.v);
                    }
                }
            }
            let model: Vec<Point> = latest
                .iter()
                .filter(|(&t, &(version, _))| !crate::delete::is_deleted(t, version, &deletes))
                .map(|(&t, &(_, v))| Point::new(t, v))
                .collect();

            let io = Arc::new(crate::stats::IoStats::default());
            let snap = SeriesSnapshot::new(Vec::new(), Vec::new(), deletes, io, None, 1);
            let reader = MergeReader::new(&snap);
            let full = reader.merge_runs(&runs);
            proptest::prop_assert_eq!(&full, &model);

            // A range whose ends fall on run starts, just past run
            // ends, or anywhere else.
            let (lo, hi) = (-2i64, latest.keys().next_back().map_or(0, |t| t + 2));
            let mut end = || {
                let (_, pts) = &runs[(rng.next_u64() % runs.len() as u64) as usize];
                match rng.next_u64() % 3 {
                    0 => pts[0].t,
                    1 => pts[pts.len() - 1].t + 1,
                    _ => lo + (rng.next_u64() % (hi - lo) as u64) as i64,
                }
            };
            let (a, b) = (end(), end());
            let range = TimeRange::new(a.min(b), a.max(b));
            let ranged = MergeReader::with_range(&snap, range).merge_runs(&runs);
            let want: Vec<Point> = model.iter().filter(|p| range.contains(p.t)).copied().collect();
            proptest::prop_assert_eq!(ranged, want);
        }
    }

    #[test]
    fn delete_does_not_resurrect_older_point() -> TestResult {
        let (dir, kv) = fresh("resurrect")?;
        // v1 chunk: point at t=10 value 1.
        kv.insert("s", Point::new(10, 1.0))?;
        kv.flush_all()?;
        // v2 chunk: overwrite t=10 with value 2.
        kv.insert("s", Point::new(10, 2.0))?;
        kv.flush_all()?;
        // v3 delete covering t=10: erases BOTH versions; the old value
        // must not resurface.
        kv.delete("s", 10, 10)?;
        let snap = kv.snapshot("s")?;
        let merged = MergeReader::new(&snap).collect_merged()?;
        assert!(merged.is_empty(), "got {merged:?}");
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }
}
