//! Timestamp-pattern generators.
//!
//! The paper's step regression (§3.5, Figure 8) exists because real
//! sensor timestamps are *mostly regular with occasional long delays*.
//! These generators reproduce the three patterns visible in the paper's
//! Figure 8:
//!
//! * [`regular`] — fixed cadence (BallSpeed/MF03-like, Figures 8(a,b)).
//! * [`regular_with_gaps`] — fixed cadence interrupted by transmission
//!   gaps, yielding the tilt/level steps (KOB-like, Figure 8(d)).
//! * [`skewed`] — bursts of dense collection separated by long idle
//!   stretches of randomized length (RcvTime-like, Figure 8(c)); this
//!   is what makes "chunks vary in time interval length" (§4.1).

use rand::rngs::StdRng;
use rand::Rng;

/// `n` timestamps at exactly `delta_ms` cadence starting at `start`.
pub fn regular(start: i64, delta_ms: i64, n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| start + i * delta_ms).collect()
}

/// Regular cadence with jitter of up to ±`jitter_ms` per step
/// (cumulative drift avoided by jittering around the grid).
pub fn regular_with_jitter(
    start: i64,
    delta_ms: i64,
    n: usize,
    jitter_ms: i64,
    rng: &mut StdRng,
) -> Vec<i64> {
    let mut out = Vec::with_capacity(n);
    let mut prev = i64::MIN;
    for i in 0..n as i64 {
        let jitter = if jitter_ms > 0 {
            rng.gen_range(-jitter_ms..=jitter_ms)
        } else {
            0
        };
        let t = (start + i * delta_ms + jitter).max(prev + 1);
        out.push(t);
        prev = t;
    }
    out
}

/// Regular cadence interrupted by gaps: after every geometric-ish run
/// of `mean_run` points, a gap of `gap_ms` is inserted with probability
/// implied by the run sampling. Produces Figure 8(d)-style steps.
pub fn regular_with_gaps(
    start: i64,
    delta_ms: i64,
    n: usize,
    mean_run: usize,
    gap_ms: i64,
    rng: &mut StdRng,
) -> Vec<i64> {
    let mut out = Vec::with_capacity(n);
    let mut t = start;
    let mut until_gap = sample_run(mean_run, rng);
    for _ in 0..n {
        out.push(t);
        t += delta_ms;
        until_gap -= 1;
        if until_gap == 0 {
            t += gap_ms + rng.gen_range(0..=gap_ms / 2);
            until_gap = sample_run(mean_run, rng);
        }
    }
    out
}

/// Skewed collection: bursts of `burst_len` points at `delta_ms`
/// cadence, separated by idle periods uniform in
/// `[min_idle_ms, max_idle_ms]`.
pub fn skewed(
    start: i64,
    delta_ms: i64,
    n: usize,
    burst_len: usize,
    min_idle_ms: i64,
    max_idle_ms: i64,
    rng: &mut StdRng,
) -> Vec<i64> {
    let mut out = Vec::with_capacity(n);
    let mut t = start;
    let mut in_burst = 0usize;
    let burst_len = burst_len.max(1);
    for _ in 0..n {
        out.push(t);
        in_burst += 1;
        if in_burst >= burst_len {
            t += rng.gen_range(min_idle_ms..=max_idle_ms);
            in_burst = 0;
        } else {
            t += delta_ms;
        }
    }
    out
}

fn sample_run(mean: usize, rng: &mut StdRng) -> usize {
    let mean = mean.max(2);
    rng.gen_range(mean / 2..=mean + mean / 2).max(1)
}

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets library code.
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )]

    use super::*;
    use rand::SeedableRng;

    fn strictly_increasing(ts: &[i64]) -> bool {
        ts.windows(2).all(|w| w[0] < w[1])
    }

    #[test]
    fn regular_cadence() {
        let ts = regular(1_000, 50, 100);
        assert_eq!(ts.len(), 100);
        assert!(ts.windows(2).all(|w| w[1] - w[0] == 50));
    }

    #[test]
    fn jitter_keeps_monotonicity() {
        let mut rng = StdRng::seed_from_u64(3);
        let ts = regular_with_jitter(0, 10, 5_000, 9, &mut rng);
        assert!(strictly_increasing(&ts));
        assert_eq!(ts.len(), 5_000);
    }

    #[test]
    fn gaps_create_large_deltas() {
        let mut rng = StdRng::seed_from_u64(11);
        let ts = regular_with_gaps(0, 1_000, 2_000, 200, 3_600_000, &mut rng);
        assert!(strictly_increasing(&ts));
        let deltas: Vec<i64> = ts.windows(2).map(|w| w[1] - w[0]).collect();
        // Every step is the cadence or a gap of one to one and a half hours.
        let gap = |d: i64| (3_601_000..=5_401_000).contains(&d);
        assert!(deltas.iter().all(|&d| d == 1_000 || gap(d)));
        let big = deltas.iter().filter(|&&d| gap(d)).count();
        assert!(big >= 5, "expected several gaps, got {big}");
        // A page of the first 1 000 holds a gap: Figure 8(d)'s tilt,
        // level and tilt.
        assert!(deltas[..999].iter().any(|&d| gap(d)));
    }

    #[test]
    fn skewed_has_bursts_and_idles() {
        let mut rng = StdRng::seed_from_u64(5);
        let ts = skewed(0, 1_000, 10_000, 100, 600_000, 7_200_000, &mut rng);
        assert!(strictly_increasing(&ts));
        let idles = ts.windows(2).filter(|w| w[1] - w[0] >= 600_000).count();
        assert!(
            (80..=120).contains(&idles),
            "one idle per burst, got {idles}"
        );
    }

    #[test]
    fn generators_deterministic() {
        let a = regular_with_gaps(0, 10, 500, 50, 10_000, &mut StdRng::seed_from_u64(1));
        let b = regular_with_gaps(0, 10, 500, 50, 10_000, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
    }
}
