//! Estimators. On a shared box interference only ever *adds* time, so a
//! timed phase is many statistically identical rounds and a timing
//! metric is its **best round**: the lowest per-round p50 for a latency,
//! the highest per-round points ÷ elapsed for a rate. The pooled
//! percentiles are printed beside them as information. See README.md for
//! the probe numbers.

/// Value at quantile `q` of an ascending slice (linear interpolation);
/// 0 for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The highest percentile a sample of `n` supports: the largest of
/// p50/p90/p95/p99/p99.9 with at least ten samples beyond it.
pub fn tail_percentile(n: usize) -> (&'static str, f64) {
    // (label, quantile, smallest sample with ten values beyond it)
    const LADDER: [(&str, f64, usize); 4] = [
        ("p99.9", 0.999, 10_000),
        ("p99", 0.99, 1_000),
        ("p95", 0.95, 200),
        ("p90", 0.90, 100),
    ];
    LADDER
        .into_iter()
        .find(|(_, _, least)| n >= *least)
        .map_or(("p50", 0.50), |(label, q, _)| (label, q))
}

/// Pooled view of every timed sample of a phase (information only).
#[derive(Debug, Clone, PartialEq)]
pub struct Pooled {
    pub n: usize,
    pub p50: f64,
    pub tail_label: &'static str,
    pub tail: f64,
}

/// Timed samples (ms) of one kind of op, one vector per round. Every
/// round runs the same number of the same kind of ops.
#[derive(Debug, Clone, Default)]
pub struct Rounds {
    pub rounds: Vec<Vec<f64>>,
}

impl Rounds {
    pub fn push(&mut self, round: Vec<f64>) {
        self.rounds.push(round);
    }

    pub fn append(&mut self, later: &mut Rounds) {
        self.rounds.append(&mut later.rounds);
    }

    /// Per-round medians, in round order.
    pub fn p50s(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| median(r))
            .collect()
    }

    /// The best round's p50: the latency estimator (0 without samples).
    pub fn best_p50(&self) -> f64 {
        lowest(&self.p50s()).unwrap_or(0.0)
    }

    pub fn pooled(&self) -> Pooled {
        let all = sorted(&self.rounds.concat());
        let (tail_label, q) = tail_percentile(all.len());
        Pooled {
            n: all.len(),
            p50: quantile_sorted(&all, 0.5),
            tail_label,
            tail: quantile_sorted(&all, q),
        }
    }
}

pub fn lowest(values: &[f64]) -> Option<f64> {
    values.iter().copied().min_by(f64::total_cmp)
}

pub fn highest(values: &[f64]) -> Option<f64> {
    values.iter().copied().max_by(f64::total_cmp)
}

/// Drift across rounds: median of the second half of `per_round` over
/// the median of the first half, minus one. A phase whose rounds are
/// statistically identical stays within ±5 % on a quiet box.
pub fn trend(per_round: &[f64]) -> f64 {
    let half = per_round.len() / 2;
    if half == 0 {
        return 0.0;
    }
    let (a, b) = per_round.split_at(half);
    let first = median(a);
    if first == 0.0 {
        return 0.0;
    }
    median(b) / first - 1.0
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the rule the driver applies), for at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    let m = data.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| -> f64 {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19).0, "p50");
        assert_eq!(tail_percentile(20).0, "p50");
        assert_eq!(tail_percentile(99).0, "p50");
        assert_eq!(tail_percentile(100).0, "p90");
        assert_eq!(tail_percentile(200).0, "p95");
        assert_eq!(tail_percentile(999).0, "p95");
        assert_eq!(tail_percentile(1_000).0, "p99");
        assert_eq!(tail_percentile(10_000).0, "p99.9");
    }

    #[test]
    fn a_latency_is_its_best_rounds_median() {
        let mut r = Rounds::default();
        r.push(vec![1.0, 2.2, 3.0]);
        r.push(vec![5.0, 6.0, 7.0]); // a neighbour woke up
        r.push(vec![1.3, 2.0, 3.1]);
        assert_eq!(r.p50s(), [2.2, 6.0, 2.0]);
        assert_eq!(r.best_p50(), 2.0);
        assert_eq!(r.pooled().n, 9);
        assert_eq!(r.pooled().p50, 3.0);
        // A round without samples (a failed run) is no round.
        r.push(vec![]);
        assert_eq!(r.best_p50(), 2.0);
        assert_eq!(Rounds::default().best_p50(), 0.0);
        assert_eq!(highest(&[1.0, 3.0, 2.0]), Some(3.0));
        assert_eq!(lowest(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn trend_compares_halves() {
        assert_eq!(trend(&[1.0, 1.0, 1.1, 1.1]), 1.1 / 1.0 - 1.0);
        assert_eq!(trend(&[2.0]), 0.0);
    }
}
