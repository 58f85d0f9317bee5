//! Figures 8 & 9: timestamp-position steps and the delta distribution,
//! plus the step regression each dataset's pages store — the §3.5
//! model as the format holds it. A constant timestamp column is one
//! tilt segment with ε = 0 and no bytes; a packed column frames the
//! cadence (from the delta before or from a line) and lists each delay
//! as one window exception, the paper's level segment.

use tsfile::encoding::packed::Framing;
use tsfile::encoding::EncodingKind;
use tsfile::page::{self, PageMeta, TsForm};
use tsfile::types::Point;
use tsfile::ChunkStatistics;
use workload::Dataset;

use crate::harness::Harness;

/// Points a page holds, and pages encoded per dataset.
const PAGE_POINTS: usize = 1000;
const PAGES: usize = 10;

/// Print, per dataset: the median and largest Δt, an ASCII sketch of
/// the timestamp-position curve of the first 1000 points, the Δt
/// histogram, and what the first ten 1 000-point pages store.
pub fn run(h: &Harness) {
    println!("Figure 8/9: timestamp-position structure per dataset (first 1000 points)");
    for d in Dataset::ALL {
        let pts = d.generate(h.scale.max(0.001));
        let n = pts.len().min(PAGE_POINTS);
        let ts: Vec<i64> = pts[..n].iter().map(|p| p.t).collect();
        let deltas: Vec<i64> = ts.windows(2).map(|w| w[1] - w[0]).collect();
        let mut sorted = deltas.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let max = *sorted.last().unwrap();
        println!(
            "{:<10} median Δt = {:>8} ms, max Δt = {:>10} ms",
            d.name(),
            median,
            max
        );
        let t: Vec<i64> = pts.iter().take(PAGES * PAGE_POINTS).map(|p| p.t).collect();
        let ([constant, delta, line], exceptions, bytes) = step_pages(&t);
        println!(
            "  {} pages {}: timestamps constant {constant}, packed delta {delta}, \
             packed line {line}; window exceptions {exceptions}; {:.3} B a timestamp",
            d.name(),
            constant + delta + line,
            bytes as f64 / t.len() as f64
        );
        println!("{}", ascii_curve(&ts, 60, 10));
        println!("{}", delta_histogram(&deltas, 10));
    }
}

/// How many of `ts`'s pages of [`PAGE_POINTS`] store their timestamps
/// constant, packed delta and packed line, their window exceptions and
/// their body bytes. Every value is one value, which a page implies, so
/// a body holds its timestamps alone.
fn step_pages(ts: &[i64]) -> ([usize; 3], usize, usize) {
    let (mut forms, mut exceptions, mut bytes) = ([0; 3], 0, 0);
    for chunk in ts.chunks(PAGE_POINTS) {
        let points: Vec<Point> = chunk.iter().map(|&t| Point::new(t, 0.0)).collect();
        let mut body = Vec::new();
        page::encode_page(
            &points,
            EncodingKind::Ts2Diff,
            EncodingKind::Plain,
            &mut body,
        );
        let stats = ChunkStatistics::from_points(&points).unwrap();
        let meta = PageMeta {
            offset: 0,
            byte_len: body.len() as u64,
            stats,
        };
        let timestamps = page::forms(&body).unwrap().timestamps;
        let form = match (timestamps, page::framings(&body).unwrap()[0]) {
            (TsForm::Constant, _) => 0,
            (_, Some(Framing::Line)) => 2,
            _ => 1,
        };
        forms[form] += 1;
        exceptions += page::window_exceptions(&body, &meta).unwrap()[0];
        bytes += body.len();
    }
    (forms, exceptions, bytes)
}

/// Figure 9(b): log-bucketed histogram of timestamp deltas.
fn delta_histogram(deltas: &[i64], max_rows: usize) -> String {
    use std::collections::BTreeMap;
    let mut buckets: BTreeMap<u32, usize> = BTreeMap::new();
    for &d in deltas {
        let bucket = 64 - (d.max(1) as u64).leading_zeros(); // log2 bucket
        *buckets.entry(bucket).or_default() += 1;
    }
    let total = deltas.len().max(1);
    let mut s = String::from("  Δt distribution (log2 buckets):\n");
    for (&bucket, &count) in buckets.iter().take(max_rows) {
        let lo = 1i64 << bucket.saturating_sub(1).min(62);
        let hi = (1i64 << bucket.min(62)) - 1;
        let bar_len = (count * 40 / total).max(usize::from(count > 0));
        s.push_str(&format!(
            "  [{:>10}, {:>10}] {:>7}  {}\n",
            lo,
            hi,
            count,
            "#".repeat(bar_len)
        ));
    }
    s
}

/// Sketch the timestamp→position curve in `width`×`height` characters.
fn ascii_curve(ts: &[i64], width: usize, height: usize) -> String {
    let n = ts.len();
    if n < 2 {
        return String::new();
    }
    let (t0, t1) = (ts[0], ts[n - 1]);
    let mut grid = vec![vec![' '; width]; height];
    for (i, &t) in ts.iter().enumerate() {
        let x = ((t - t0) as f64 / (t1 - t0).max(1) as f64 * (width - 1) as f64) as usize;
        let y = (i as f64 / (n - 1) as f64 * (height - 1) as f64) as usize;
        grid[height - 1 - y][x.min(width - 1)] = '*';
    }
    grid.into_iter()
        .map(|row| row.into_iter().collect::<String>() + "\n")
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_has_requested_shape() {
        let ts: Vec<i64> = (0..100).map(|i| i * 10).collect();
        let art = ascii_curve(&ts, 30, 5);
        assert_eq!(art.lines().count(), 5);
        assert!(art.lines().all(|l| l.chars().count() == 30));
        // A straight line touches both corners.
        assert_eq!(art.lines().last().unwrap().chars().next(), Some('*'));
    }

    /// Example 3.8's shape: one gap is one window exception of a packed
    /// delta column; without it the column is constant and bodiless.
    #[test]
    fn a_gap_is_one_window_exception() {
        let mut ts: Vec<i64> = (0..1000).map(|i| i * 9000).collect();
        for t in &mut ts[242..] {
            *t += 3_600_000;
        }
        assert_eq!(step_pages(&ts), ([0, 1, 0], 1, 17));
        let regular: Vec<i64> = (0..2000).map(|i| i * 9000).collect();
        assert_eq!(step_pages(&regular), ([2, 0, 0], 0, 0));
    }

    #[test]
    fn runs_at_tiny_scale() {
        run(&Harness::new(0.001, 1));
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_all_deltas() {
        let deltas = vec![1i64, 2, 3, 9000, 9000, 9000, 3_855_000];
        let h = delta_histogram(&deltas, 20);
        assert!(h.contains('#'));
        // Three distinct log2 buckets minimum: ~1-3, ~9000, ~3.8M.
        assert!(h.lines().count() >= 4, "{h}");
    }
}
