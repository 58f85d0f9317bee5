//! Step-regression model of a chunk's timestamps (paper §3.5).
//!
//! Sensor timestamps are mostly regular with occasional delays, so the
//! timestamp→position map of a chunk looks like alternating *tilt*
//! (fixed slope `K = 1/median(Δt)`) and *level* (slope 0) segments —
//! Figure 8 of the paper. [`StepIndex`] learns that piecewise function
//! from a sorted timestamp column (Definitions 3.5/3.6, learning rules
//! §3.5.2–§3.5.3).
//!
//! The model is an in-memory analysis: `repro --exp fig8` draws the
//! paper's Figure 8 from it and `examples/step_index_tour.rs` walks it.
//! It is not persisted. The paper stores it in the file beside the chunk
//! statistics so a timestamp probe can start near its answer, and this
//! reproduction did too, until the A1 ablation measured M4-LSM with and
//! without it (DESIGN §4, `results/results_final_ablation.txt`): the
//! same pages, prefixes and points decoded in every pair, and no latency
//! between the arms beyond noise. A probe decoded the timestamp prefix
//! it searched either way (now a chunk's whole column, once a query),
//! and a binary search over it costs less than the decode; the learn pass at every seal and the footer bytes bought
//! nothing.
//!
//! Over a loaded timestamp column the model answers the three data-read
//! operations of the paper's Table 1:
//!
//! * (a) does a point exist at `t*`? — [`StepIndex::exists_at`]
//! * (b-1) position of the closest point after `t*` — [`StepIndex::first_after`]
//! * (b-2) position of the closest point before `t*` — [`StepIndex::last_before`]
//!
//! Each op predicts a position from the model and then *gallops* (
//! exponential search) outward from the prediction, so the result is
//! exact even when the model is not, and costs O(log ε) comparisons
//! where ε is the model's verified maximum error (computed when it is
//! learned). The plain binary-search equivalents, which M4-LSM's probes
//! use, live in [`binary_search_ops`].
//!
//! Numerical note: the paper's canonical form `f(t) = K·t + b_i` is
//! numerically hostile for epoch-millisecond timestamps (`K·t ≈ 1e8`
//! computed from `t ≈ 1.6e12` loses the unit digits in f64). We store
//! each segment as an anchored line `f(t) = pos_a + (t - t_a)·K`, which
//! is algebraically identical (`b_i = pos_a − t_a·K`) and exact for
//! in-chunk spans.

use crate::types::Timestamp;

/// One learned segment of the step function.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Segment {
    /// Inclusive start timestamp of the segment (`t_i`).
    start: Timestamp,
    /// Anchor timestamp `t_a` on the segment's line.
    anchor_t: Timestamp,
    /// Anchor position `pos_a` (1-based, integer by construction).
    anchor_pos: u64,
    /// Tilt (slope `K`) or level (slope 0).
    tilt: bool,
}

/// Learned step-regression index of one chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct StepIndex {
    /// Median timestamp delta; the slope is `K = 1/median_delta`.
    median_delta: i64,
    /// Segments in time order; `segments[i].start` are the split
    /// timestamps `t_1..t_{m-1}`; the final split `t_m` is `end`.
    segments: Vec<Segment>,
    /// Last timestamp of the chunk (`t_m = LP(C).t`).
    end: Timestamp,
    /// Verified maximum absolute prediction error over all points,
    /// rounded up. 0 means the model maps every point exactly.
    epsilon: u32,
    /// Reciprocal slope `K = 1/median_delta`.
    inv_median: f64,
}

impl StepIndex {
    /// Learn a step-regression index from a chunk's (strictly
    /// increasing) timestamp column.
    ///
    /// Returns `None` when no useful model exists: fewer than 2 points,
    /// or a degenerate split sequence (non-monotone splits from highly
    /// irregular data).
    pub fn learn(ts: &[Timestamp]) -> Option<Self> {
        let n = ts.len();
        if n < 2 {
            return None;
        }
        let mut deltas: Vec<i64> = ts.windows(2).map(|w| w[1].wrapping_sub(w[0])).collect();
        // §3.5.3: changing points by the 3-sigma rule on deltas.
        // deltas[i] = ts[i+1] - ts[i]; point positions are 1-based.
        // The deltas telescope, so their sum needs no pass: while the
        // chunk spans less than 2^53 it is also, to the bit, what
        // adding them up one by one in f64 gives.
        let mean = ts[n - 1].wrapping_sub(ts[0]) as f64 / deltas.len() as f64;
        let var = deltas
            .iter()
            .map(|&d| {
                let diff = d as f64 - mean;
                diff * diff
            })
            .sum::<f64>()
            / deltas.len() as f64;
        let threshold = mean + 3.0 * var.sqrt();

        // Position j (1-based, 2 ≤ j ≤ n-1) is a changing point when the
        // in-delta (ts[j-1] - ts[j-2]) and the out-delta (ts[j] -
        // ts[j-1]) straddle the threshold.
        let mut changing: Vec<u64> = Vec::new();
        let mut gap_in = deltas[0] as f64 > threshold;
        for (i, &d) in deltas.iter().enumerate().skip(1) {
            let gap_out = d as f64 > threshold;
            if gap_in != gap_out {
                changing.push(i as u64 + 1);
            }
            gap_in = gap_out;
        }

        // §3.5.2: slope K = 1 / median(deltas). Selecting last: it is
        // what disorders the deltas.
        let mid = deltas.len() / 2;
        let (_, &mut median_delta, _) = deltas.select_nth_unstable(mid);
        if median_delta <= 0 {
            return None; // a delta past i64::MAX wrapped
        }

        let k = 1.0 / median_delta as f64;
        // Segments: tilt/level alternating, first is tilt (Def 3.6).
        // Interior segment i (2 ≤ i ≤ m-2) anchors on changing point
        // i-1; the first anchors on (t_1, 1); the last on (t_n, n) when
        // it is a tilt, or on the preceding changing point when level.
        let m = changing.len() + 2; // number of split timestamps
        let seg_count = m - 1;
        let mut segments: Vec<Segment> = Vec::with_capacity(seg_count);

        // Build anchors first, then derive split starts by intersecting
        // consecutive segments (§3.5.3 "Derive Split Timestamps").
        #[derive(Clone, Copy)]
        struct Anchor {
            t: Timestamp,
            pos: u64,
            tilt: bool,
        }
        let mut anchors: Vec<Anchor> = Vec::with_capacity(seg_count);
        anchors.push(Anchor {
            t: ts[0],
            pos: 1,
            tilt: true,
        });
        for (idx, &j) in changing.iter().enumerate() {
            let i = idx + 2; // segment number, 2-based interior
            if i > m - 2 {
                break; // last changing point handled by the final segment rule
            }
            let tilt = i % 2 == 1;
            anchors.push(Anchor {
                t: ts[(j - 1) as usize],
                pos: j,
                tilt,
            });
        }
        if seg_count >= 2 {
            anchors.push(Anchor {
                t: ts[n - 1],
                pos: n as u64,
                tilt: seg_count % 2 == 1,
            });
        }
        debug_assert_eq!(anchors.len(), seg_count);

        // Split t_i between segment i-1 and i: intersection of the two
        // lines. tilt∩level: solve pos_level = pos_a + (t - t_a)·K.
        let mut prev_start = ts[0];
        for i in 0..seg_count {
            let a = anchors[i];
            let start = if i == 0 {
                ts[0]
            } else {
                let p = anchors[i - 1];
                // Intersect segment i-1 (anchor p) with segment i (anchor a).
                let t = match (p.tilt, a.tilt) {
                    (true, false) => {
                        // K·t + b_prev = pos_a  →  t = t_p + (pos_a - pos_p)/K
                        p.t as f64 + (a.pos as f64 - p.pos as f64) / k
                    }
                    (false, true) => {
                        // pos_p = K·t + b_a  →  t = t_a + (pos_p - pos_a)/K
                        a.t as f64 + (p.pos as f64 - a.pos as f64) / k
                    }
                    // Same-kind neighbours should not arise from the
                    // alternating construction; fall back to the anchor.
                    _ => a.t as f64,
                };
                t.round() as i64
            };
            if start < prev_start {
                return None; // degenerate model; caller falls back
            }
            prev_start = start;
            segments.push(Segment {
                start,
                anchor_t: a.t,
                anchor_pos: a.pos,
                tilt: a.tilt,
            });
        }
        if segments
            .last()
            .map(|s| s.start > ts[n - 1])
            .unwrap_or(false)
        {
            return None;
        }

        let mut index = StepIndex {
            median_delta,
            segments,
            end: ts[n - 1],
            epsilon: 0,
            inv_median: 1.0 / median_delta as f64,
        };
        // Verify: ε = max_j |f(t_j) - j| (positions are 1-based). The
        // points ascend, so the segment a point falls on — the last one
        // starting at or before it, as `segment_at` answers — only ever
        // moves forward: one walk, no search per point.
        let mut max_err = 0.0f64;
        let (mut on, mut later) = index.segments.split_first()?;
        for (i, &t) in ts.iter().enumerate() {
            while let Some((next, rest)) = later.split_first().filter(|(s, _)| s.start <= t) {
                (on, later) = (next, rest);
            }
            let err = (index.on_segment(on, t) - (i + 1) as f64).abs();
            if err > max_err {
                max_err = err;
            }
        }
        if !max_err.is_finite() || max_err >= n as f64 {
            return None;
        }
        index.epsilon = max_err.ceil() as u32;
        Some(index)
    }

    /// The segment `t` falls on: the last one starting at or before it
    /// (the first, for a `t` before them all).
    fn segment_at(&self, t: Timestamp) -> &Segment {
        let after = self.segments.partition_point(|s| s.start <= t);
        &self.segments[after.saturating_sub(1)]
    }

    /// The line of segment `s` at `t`.
    #[inline]
    fn on_segment(&self, s: &Segment, t: Timestamp) -> f64 {
        if s.tilt {
            s.anchor_pos as f64 + (t - s.anchor_t) as f64 * self.inv_median
        } else {
            s.anchor_pos as f64
        }
    }

    /// Evaluate the step function `f(t)` — the predicted 1-based
    /// position of timestamp `t`. Clamped to the chunk's time range.
    pub fn predict(&self, t: Timestamp) -> f64 {
        let t = t.clamp(self.segments[0].start, self.end);
        self.on_segment(self.segment_at(t), t)
    }

    /// Verified maximum prediction error (in positions).
    pub fn epsilon(&self) -> u32 {
        self.epsilon
    }

    /// The learned slope denominator (median timestamp delta).
    pub fn median_delta(&self) -> i64 {
        self.median_delta
    }

    /// Number of learned segments (tilt + level).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The split timestamps `t_1 … t_m` (Definition 3.6's 𝕊).
    pub fn split_timestamps(&self) -> Vec<Timestamp> {
        let mut s: Vec<Timestamp> = self.segments.iter().map(|seg| seg.start).collect();
        s.push(self.end);
        s
    }

    /// Predicted 0-based array index for `t`, clamped to `[0, len)`.
    fn predicted_idx(&self, t: Timestamp, len: usize) -> usize {
        let p = self.predict(t) - 1.0;
        if p <= 0.0 {
            0
        } else {
            (p as usize).min(len.saturating_sub(1))
        }
    }

    /// Partition point of `ts` for predicate `ts[i] < t` (i.e. the
    /// number of elements `< t`), found by galloping outward from the
    /// model's prediction. `ts` must be the chunk's sorted timestamp
    /// column this index was learned from (or a prefix-consistent one).
    pub fn partition_lt(&self, ts: &[Timestamp], t: Timestamp) -> usize {
        gallop_partition(ts, self.predicted_idx(t, ts.len()), |x| x < t)
    }

    /// Partition point for predicate `ts[i] <= t`.
    pub fn partition_le(&self, ts: &[Timestamp], t: Timestamp) -> usize {
        gallop_partition(ts, self.predicted_idx(t, ts.len()), |x| x <= t)
    }

    /// Table 1 op (a): does a point exist at exactly `t`?
    pub fn exists_at(&self, ts: &[Timestamp], t: Timestamp) -> bool {
        let i = self.partition_lt(ts, t);
        ts.get(i) == Some(&t)
    }

    /// Table 1 op (b-1): 0-based position of the closest point with
    /// timestamp strictly greater than `t`, if any.
    pub fn first_after(&self, ts: &[Timestamp], t: Timestamp) -> Option<usize> {
        let i = self.partition_le(ts, t);
        (i < ts.len()).then_some(i)
    }

    /// Table 1 op (b-2): 0-based position of the closest point with
    /// timestamp strictly less than `t`, if any.
    pub fn last_before(&self, ts: &[Timestamp], t: Timestamp) -> Option<usize> {
        let i = self.partition_lt(ts, t);
        i.checked_sub(1)
    }
}

/// Gallop (exponential) search for the partition point of `pred` in the
/// sorted slice `ts`, starting from `hint`. Returns the smallest index
/// `i` such that `pred(ts[i])` is false (or `ts.len()`).
fn gallop_partition(ts: &[Timestamp], hint: usize, pred: impl Fn(Timestamp) -> bool) -> usize {
    let n = ts.len();
    if n == 0 {
        return 0;
    }
    let hint = hint.min(n - 1);
    let (mut lo, mut hi);
    if pred(ts[hint]) {
        // Partition point is right of hint; gallop right.
        lo = hint + 1;
        let mut step = 1usize;
        hi = hint + 1;
        while hi < n && pred(ts[hi]) {
            lo = hi + 1;
            hi += step;
            step *= 2;
        }
        hi = hi.min(n);
    } else {
        // Partition point is at or left of hint; gallop left.
        hi = hint;
        let mut step = 1usize;
        let mut probe = hint;
        loop {
            if probe == 0 {
                lo = 0;
                break;
            }
            probe = probe.saturating_sub(step);
            step *= 2;
            if pred(ts[probe]) {
                lo = probe + 1;
                break;
            }
            hi = probe;
        }
    }
    // Binary search within [lo, hi].
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(ts[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Plain binary-search implementations of the Table 1 operations — the
/// search M4-LSM's timestamp probes run — and the baseline the model's
/// ops are checked and timed against.
pub mod binary_search_ops {
    use crate::types::Timestamp;

    /// Op (a): membership by `slice::binary_search`.
    pub fn exists_at(ts: &[Timestamp], t: Timestamp) -> bool {
        ts.binary_search(&t).is_ok()
    }

    /// Op (b-1): first position strictly after `t`.
    pub fn first_after(ts: &[Timestamp], t: Timestamp) -> Option<usize> {
        let i = ts.partition_point(|&x| x <= t);
        (i < ts.len()).then_some(i)
    }

    /// Op (b-2): last position strictly before `t`.
    pub fn last_before(ts: &[Timestamp], t: Timestamp) -> Option<usize> {
        ts.partition_point(|&x| x < t).checked_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Example 3.8 dataset shape: 1000 points at 9 s
    /// cadence with one transmission gap after position 242.
    fn example_3_8() -> Vec<i64> {
        let mut ts = Vec::with_capacity(1000);
        let t0 = 1_639_966_606_000i64;
        for i in 0..242 {
            ts.push(t0 + i * 9000);
        }
        // Gap: positions 242..1000 resume much later.
        let resume = 1_639_972_630_000i64;
        for i in 0..758 {
            ts.push(resume + i * 9000);
        }
        ts
    }

    #[test]
    fn learns_paper_example() -> std::result::Result<(), &'static str> {
        let ts = example_3_8();
        let idx = StepIndex::learn(&ts).ok_or("model should fit")?;
        assert_eq!(idx.median_delta(), 9000);
        // tilt, level, tilt
        assert_eq!(idx.segment_count(), 3);
        assert_eq!(idx.epsilon(), 0, "regular steps should be exact");
        // Proposition 3.7: f(first)=1, f(last)=count.
        assert_eq!(idx.predict(ts[0]), 1.0);
        assert_eq!(idx.predict(*ts.last().ok_or("empty")?), 1000.0);
        // Mid-gap timestamps predict the level position.
        let mid_gap = ts[241] + 2 * 9000;
        let p = idx.predict(mid_gap);
        assert!((p - 242.0).abs() <= 1.0, "gap predicts plateau, got {p}");
        Ok(())
    }

    #[test]
    fn exact_on_all_points_when_regular() -> std::result::Result<(), &'static str> {
        let ts: Vec<i64> = (0..5000).map(|i| 1_000_000 + i * 100).collect();
        let idx = StepIndex::learn(&ts).ok_or("model should fit")?;
        assert_eq!(idx.segment_count(), 1);
        assert_eq!(idx.epsilon(), 0);
        for (i, &t) in ts.iter().enumerate() {
            assert_eq!(idx.predict(t), (i + 1) as f64);
        }
        Ok(())
    }

    #[test]
    fn epoch_millis_no_float_cancellation() -> std::result::Result<(), &'static str> {
        // Regression guard for the K·t + b numeric trap.
        let ts: Vec<i64> = (0..100_000).map(|i| 1_639_966_606_000 + i * 9000).collect();
        let idx = StepIndex::learn(&ts).ok_or("model should fit")?;
        assert_eq!(idx.epsilon(), 0);
        assert_eq!(idx.predict(ts[99_999]), 100_000.0);
        Ok(())
    }

    #[test]
    fn ops_match_binary_search_on_gappy_data() -> std::result::Result<(), &'static str> {
        let ts = example_3_8();
        let idx = StepIndex::learn(&ts).ok_or("model should fit")?;
        let probes: Vec<i64> = (0..2000)
            .map(|i| ts[0] - 5000 + i * 7001)
            .chain(ts.iter().copied())
            .chain(ts.iter().map(|t| t + 1))
            .collect();
        for t in probes {
            assert_eq!(
                idx.exists_at(&ts, t),
                binary_search_ops::exists_at(&ts, t),
                "exists_at({t})"
            );
            assert_eq!(
                idx.first_after(&ts, t),
                binary_search_ops::first_after(&ts, t),
                "first_after({t})"
            );
            assert_eq!(
                idx.last_before(&ts, t),
                binary_search_ops::last_before(&ts, t),
                "last_before({t})"
            );
        }
        Ok(())
    }

    #[test]
    fn jittered_timestamps_still_correct() -> std::result::Result<(), &'static str> {
        // ±3ms jitter: model inexact (ε>0) but lookups stay exact.
        let mut ts: Vec<i64> = Vec::new();
        let mut state = 0x12345u64;
        let mut t = 1_000_000i64;
        for _ in 0..3000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let jitter = (state >> 33) as i64 % 7 - 3;
            t += 1000 + jitter;
            ts.push(t);
        }
        let idx = StepIndex::learn(&ts).ok_or("model should fit")?;
        for probe in ts.iter().step_by(17) {
            assert!(idx.exists_at(&ts, *probe));
            assert!(!idx.exists_at(&ts, probe + 1) || ts.binary_search(&(probe + 1)).is_ok());
        }
        Ok(())
    }

    #[test]
    fn too_short_returns_none() {
        assert!(StepIndex::learn(&[]).is_none());
        assert!(StepIndex::learn(&[5]).is_none());
        assert!(StepIndex::learn(&[1, 2]).is_some());
    }

    #[test]
    fn multiple_gaps() -> std::result::Result<(), &'static str> {
        let mut ts = Vec::new();
        let mut t = 0i64;
        for block in 0..5 {
            for _ in 0..200 {
                t += 50;
                ts.push(t);
            }
            t += 100_000 * (block + 1); // widening gaps
        }
        let idx = StepIndex::learn(&ts).ok_or("model should fit")?;
        // 5 tilts + 4 levels
        assert_eq!(idx.segment_count(), 9);
        for (i, &tt) in ts.iter().enumerate() {
            let err = (idx.predict(tt) - (i + 1) as f64).abs();
            assert!(err <= idx.epsilon() as f64 + 1e-9, "pos {i} err {err}");
        }
        Ok(())
    }

    #[test]
    fn gallop_partition_edges() {
        let ts: Vec<i64> = vec![10, 20, 30, 40, 50];
        for hint in 0..5 {
            assert_eq!(gallop_partition(&ts, hint, |x| x < 5), 0);
            assert_eq!(gallop_partition(&ts, hint, |x| x < 10), 0);
            assert_eq!(gallop_partition(&ts, hint, |x| x < 35), 3);
            assert_eq!(gallop_partition(&ts, hint, |x| x < 55), 5);
            assert_eq!(gallop_partition(&ts, hint, |x| x <= 50), 5);
        }
        assert_eq!(gallop_partition(&[], 0, |x| x < 5), 0);
    }

    #[test]
    fn split_timestamps_bracket_chunk() -> std::result::Result<(), &'static str> {
        let ts = example_3_8();
        let idx = StepIndex::learn(&ts).ok_or("model should fit")?;
        let splits = idx.split_timestamps();
        assert_eq!(splits.first(), Some(&ts[0]));
        assert_eq!(splits.last().copied(), ts.last().copied());
        assert!(splits.windows(2).all(|w| w[0] <= w[1]));
        Ok(())
    }
}
