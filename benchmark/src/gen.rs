//! Seeded inputs. Everything a workload feeds the engine — points,
//! deletes, query lists, write plans — is a pure function of `--seed`,
//! and is *stratified*: a different seed picks different offsets, values
//! and orders but the same amount of work (same coverages, same number
//! of overlapped flush pairs, same delete share), so a metric's spread
//! across seeds measures the machine and not the draw.
//!
//! Generators stream (block by block, batch by batch): the benchmark
//! never holds a whole series, so `peak_rss_mb` is the engine's memory.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tsfile::types::Point;
use workload::multiseries::{series_name, MultiSeriesGen, MultiSeriesSpec, DELTA_MS};
use workload::signal::Signal;

/// Epoch base of every generated series (the workload crate's base).
pub const START: i64 = 1_600_000_000_000;
/// Sampling period of the wide and live series (Mf03: ~100 Hz).
pub const WIDE_DELTA_MS: i64 = 10;
/// Sampling period of the tail series (250 Hz).
pub const TAIL_DELTA_MS: i64 = 4;
/// Points each tail series receives per cycle: one second of data.
pub const TAIL_POINTS_PER_CYCLE: usize = 250;

/// Independent sub-stream seed for `tag` (splitmix64 finaliser).
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rng_for(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, tag))
}

/// FNV-1a over the generated inputs, printed as `input_digest`.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// An Mf03-shaped stream (paper Table 2): ~100 Hz cadence with ±2 ms
/// jitter, mains-power random walk plus a slow carrier. Used for the
/// wide series (jittered) and the live ingest series (regular).
#[derive(Debug)]
pub struct SensorStream {
    rng: StdRng,
    signal: Signal,
    jitter_ms: i64,
    next_index: i64,
}

impl SensorStream {
    pub fn new(seed: u64, tag: u64, jitter_ms: i64) -> Self {
        SensorStream {
            rng: rng_for(seed, tag),
            signal: Signal::new(210.0, 240.0, 0.4).with_carrier(5.0, 500_000.0),
            jitter_ms,
            next_index: 0,
        }
    }

    /// The next `n` points, strictly increasing in time.
    pub fn next_block(&mut self, n: usize) -> Vec<Point> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let jitter = if self.jitter_ms > 0 {
                self.rng.gen_range(-self.jitter_ms..=self.jitter_ms)
            } else {
                0
            };
            let t = START + self.next_index * WIDE_DELTA_MS + jitter;
            out.push(Point::new(t, self.signal.next_value(&mut self.rng)));
            self.next_index += 1;
        }
        out
    }
}

/// Stream tags, one per independent input.
pub const TAG_WIDE: u64 = 1;
pub const TAG_LIVE: u64 = 2;
const TAG_OVERLAP: u64 = 3;
const TAG_DELETES: u64 = 4;
const TAG_QUERIES: u64 = 5;
const TAG_FLEET_QUERIES: u64 = 6;
const TAG_TAIL: u64 = 7;

/// End (exclusive) of a series of `points` samples at the wide cadence.
pub fn wide_end(points: usize) -> i64 {
    START + points as i64 * WIDE_DELTA_MS
}

/// Which of the `pairs` adjacent flush pairs are dealt alternately into
/// two files that span the same range (chunk overlap): exactly
/// `round(share × pairs)` of them, one per equal stratum of the series
/// at a seeded place inside it, so that every long query range covers
/// the same share of overlapping chunks whatever the seed.
pub fn overlapped_pairs(seed: u64, pairs: usize, share: f64) -> Vec<bool> {
    let mut rng = rng_for(seed, TAG_OVERLAP);
    let want = (((pairs as f64) * share).round() as usize).min(pairs);
    let mut out = vec![false; pairs];
    for k in 0..want {
        let (lo, hi) = (k * pairs / want, (k + 1) * pairs / want);
        out[rng.gen_range(lo..hi)] = true;
    }
    out
}

/// `n` inclusive delete ranges covering `share` of `[START, end)`: one
/// per equal stratum, at a seeded offset inside it, so deletes never
/// overlap and every part of the series carries the same delete load.
pub fn delete_ranges(seed: u64, end: i64, n: usize, share: f64) -> Vec<(i64, i64)> {
    let mut rng = rng_for(seed, TAG_DELETES);
    let extent = end - START;
    let stratum = extent / n.max(1) as i64;
    let len = ((extent as f64) * share / n.max(1) as f64) as i64;
    (0..n as i64)
        .map(|k| {
            let s = START + k * stratum + rng.gen_range(0..(stratum - len).max(1));
            (s, s + len - 1)
        })
        .collect()
}

/// The shape of the wide series (PAPER Table 4): how many points, which
/// flush pairs overlap, what is deleted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WidePlan {
    /// Points per flush (the engine's memtable threshold).
    pub flush_points: usize,
    /// Per adjacent flush pair: dealt alternately (overlapping) or not.
    pub pairs: Vec<bool>,
    /// End (exclusive) of the series.
    pub end: i64,
    /// Inclusive delete ranges.
    pub deletes: Vec<(i64, i64)>,
}

impl WidePlan {
    /// `points` rounded down to whole flush pairs, 30 % of the pairs
    /// overlapping, `deletes` range deletes covering 5 %.
    pub fn new(seed: u64, points: usize, flush_points: usize, deletes: usize) -> Self {
        let pairs = points / (2 * flush_points.max(1));
        let end = wide_end(pairs * 2 * flush_points);
        WidePlan {
            flush_points,
            pairs: overlapped_pairs(seed, pairs, 0.30),
            end,
            deletes: delete_ranges(seed, end, deletes, 0.05),
        }
    }

    pub fn points(&self) -> usize {
        self.pairs.len() * 2 * self.flush_points
    }

    pub fn deleted(&self, t: i64) -> bool {
        self.deletes.iter().any(|(s, e)| (*s..=*e).contains(&t))
    }
}

/// One M4 query: a series, a half-open range and a width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    pub series: String,
    pub t_qs: i64,
    pub t_qe: i64,
    pub w: u32,
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `cold_wide` queries: `n` ranges whose coverage of the extent steps
/// evenly from 50 % to 100 %, each at a seeded offset, in seeded order.
pub fn cold_queries(seed: u64, series: &str, end: i64, n: usize, w: u32) -> Vec<QuerySpec> {
    let mut rng = rng_for(seed, TAG_QUERIES);
    let extent = end - START;
    let mut out: Vec<QuerySpec> = (0..n)
        .map(|k| {
            let cover = 0.5 + 0.5 * k as f64 / (n.max(2) - 1) as f64;
            let len = ((extent as f64) * cover) as i64;
            let t_qs = START + rng.gen_range(0..(extent - len).max(0) + 1);
            QuerySpec {
                series: series.to_string(),
                t_qs,
                t_qe: t_qs + len,
                w,
            }
        })
        .collect();
    shuffle(&mut rng, &mut out);
    out
}

/// `hot_zoom` queries: `n` ranges of 0.2–2 % of the extent (evenly
/// stepped) inside one seeded region of 2 %, in seeded order. The
/// region lies beside the delete of a seeded stratum, never across
/// one, so every seed zooms into the same amount of data.
pub fn hot_queries(seed: u64, series: &str, plan: &WidePlan, n: usize, w: u32) -> Vec<QuerySpec> {
    let mut rng = rng_for(seed, TAG_QUERIES);
    let extent = plan.end - START;
    let region = extent / 50;
    // Each delete sits in its own stratum of the series (see
    // `delete_ranges`); one side of it always has room for the region.
    let strata = plan.deletes.len().max(1);
    let k = rng.gen_range(0..strata);
    let stratum_end = START + (k as i64 + 1) * (extent / strata as i64);
    let region_start = match plan.deletes.get(k) {
        Some(&(_, e)) if e + 1 + region <= stratum_end => e + 1,
        Some(&(s, _)) => s - region,
        None => START,
    };
    let mut out: Vec<QuerySpec> = (0..n)
        .map(|k| {
            let share = 0.002 + 0.018 * k as f64 / (n.max(2) - 1) as f64;
            let len = (((extent as f64) * share) as i64).max(i64::from(w));
            let t_qs = region_start + rng.gen_range(0..(region - len).max(0) + 1);
            QuerySpec {
                series: series.to_string(),
                t_qs,
                t_qe: t_qs + len,
                w,
            }
        })
        .collect();
    shuffle(&mut rng, &mut out);
    out
}

/// The `ingest_fleet` write plan: SciTS-style multi-series requests.
/// Each request is `draws` Zipf-sampled series × `points_per_draw`
/// points (10 % of a series' adjacent batches arrive swapped).
#[derive(Debug)]
pub struct FleetPlan {
    gen: MultiSeriesGen,
    /// Per-rank end (exclusive) of the time range written so far.
    heads: Vec<i64>,
}

/// One write request, ready for `TsNetClient::write_batch`.
pub type Entries = Vec<(String, Vec<Point>)>;

/// Zipf exponent of fleet write and query popularity.
pub const FLEET_ZIPF_S: f64 = 1.0;
/// Share of a fleet series' adjacent batches that arrive swapped.
pub const FLEET_OUT_OF_ORDER: f64 = 0.10;
/// Points per (series, request) draw; 50 draws make a 500-point request.
pub const FLEET_POINTS_PER_DRAW: usize = 10;
pub const FLEET_DRAWS_PER_REQUEST: usize = 50;
/// The fleet series the ingest phase subscribes to: a mid-popularity
/// one (about a third of the requests extend it). Not the hottest: with
/// compaction off that series gains a file every few hundred requests,
/// its dashboard's repairs slow with every file, and the phase would
/// have no two rounds alike (README, "What the benchmark found").
pub const FLEET_SUBSCRIBED_RANK: usize = 15;

impl FleetPlan {
    pub fn new(seed: u64, series: usize) -> Self {
        let spec = MultiSeriesSpec {
            series_count: series,
            zipf_s: FLEET_ZIPF_S,
            batch_points: FLEET_POINTS_PER_DRAW,
            out_of_order_frac: FLEET_OUT_OF_ORDER,
            seed,
        };
        FleetPlan {
            gen: spec.generator(),
            heads: vec![0; series],
        }
    }

    /// The next request as (series rank, points) draws.
    pub fn next_request(&mut self) -> Vec<(usize, Vec<Point>)> {
        (0..FLEET_DRAWS_PER_REQUEST)
            .map(|_| {
                let (rank, points) = self.gen.next_batch();
                if let (Some(head), Some(last)) = (self.heads.get_mut(rank), points.last()) {
                    *head = (*head).max(last.t + DELTA_MS);
                }
                (rank, points)
            })
            .collect()
    }

    /// The share of all draws that series `rank` is expected to get.
    pub fn share(&self, rank: usize) -> f64 {
        let weight = |r: usize| ((r + 1) as f64).powf(-FLEET_ZIPF_S);
        weight(rank) / (0..self.heads.len()).map(weight).sum::<f64>()
    }

    /// End (exclusive) of what series `rank` has been sent so far.
    pub fn head(&self, rank: usize) -> i64 {
        self.heads.get(rank).copied().unwrap_or(0)
    }
}

/// Name a fleet request's draws for the wire.
pub fn fleet_entries(draws: &[(usize, Vec<Point>)]) -> Entries {
    draws
        .iter()
        .map(|(rank, pts)| (series_name(*rank), pts.clone()))
        .collect()
}

/// `ingest_fleet` queries: `n` series drawn from the Zipf popularity
/// by stratified sampling (one rank per equal slice of the CDF, at a
/// seeded place inside it — every seed asks the same mix of hot and
/// cold series), each over the whole history `plan` has written to it
/// so far, `w` spans, in seeded order.
pub fn fleet_queries(seed: u64, plan: &FleetPlan, n: usize, w: u32) -> Vec<QuerySpec> {
    let mut rng = rng_for(seed, TAG_FLEET_QUERIES);
    let weights: Vec<f64> = (1..=plan.heads.len())
        .map(|r| (r as f64).powf(-FLEET_ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut targets: Vec<f64> = (0..n)
        .map(|k| (k as f64 + rng.gen_range(0.0..1.0)) / n.max(1) as f64 * total)
        .collect();
    targets.reverse();
    let mut out = Vec::with_capacity(n);
    let mut acc = 0.0;
    for (rank, weight) in weights.iter().enumerate() {
        acc += weight;
        while targets.last().is_some_and(|t| *t < acc) {
            targets.pop();
            out.push(QuerySpec {
                series: series_name(rank),
                t_qs: 0,
                t_qe: plan.head(rank).max(i64::from(w)),
                w,
            });
        }
    }
    shuffle(&mut rng, &mut out);
    out
}

/// Time one draw covers on its series.
pub const FLEET_DRAW_MS: i64 = FLEET_POINTS_PER_DRAW as i64 * DELTA_MS;

/// Name of tail series `s`.
pub fn tail_name(s: usize) -> String {
    format!("tail.{s}")
}

/// Value of tail series `s` at sample `i`: pure in `(seed, s, i)`, so
/// the verifier can recompute any window without keeping the data.
pub fn tail_value(seed: u64, s: usize, i: i64) -> f64 {
    let noise = (sub_seed(seed ^ TAG_TAIL, (s as u64) << 40 ^ i as u64) % 2_001) as f64 / 1_000.0;
    let wave = 8.0 * ((i as f64) / 4_000.0 + s as f64).sin();
    // Two decimals, like a real sensor register.
    ((225.0 + wave + noise - 1.0) * 100.0).round() / 100.0
}

/// Samples `[from, from + n)` of tail series `s`.
pub fn tail_points(seed: u64, s: usize, from: i64, n: usize) -> Vec<Point> {
    (from..from + n as i64)
        .map(|i| Point::new(START + i * TAIL_DELTA_MS, tail_value(seed, s, i)))
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn strata_do_not_depend_on_the_seed() {
        for seed in [1, 2, 99] {
            let pairs = overlapped_pairs(seed, 15, 0.3);
            assert_eq!(pairs.iter().filter(|b| **b).count(), 5);
            assert!(pairs
                .chunks(3)
                .all(|stratum| stratum.iter().filter(|b| **b).count() == 1));
            let end = wide_end(1_000_000);
            let dels = delete_ranges(seed, end, 20, 0.05);
            let covered: i64 = dels.iter().map(|(s, e)| e - s + 1).sum();
            assert_eq!(covered, (end - START) / 20);
            assert!(dels.windows(2).all(|w| w[0].1 < w[1].0));
            let mut cover: Vec<i64> = cold_queries(seed, "s", end, 3, 1000)
                .iter()
                .map(|q| q.t_qe - q.t_qs)
                .collect();
            cover.sort_unstable();
            assert_eq!(cover[0], (end - START) / 2);
            assert_eq!(cover[2], end - START);
        }
        assert_ne!(overlapped_pairs(1, 15, 0.3), overlapped_pairs(3, 15, 0.3));
    }

    #[test]
    fn hot_queries_stay_inside_one_region_clear_of_deletes() {
        for seed in 1..20 {
            let plan = WidePlan::new(seed, 1_000_000, 10_000, 20);
            let qs = hot_queries(seed, "s", &plan, 40, 1000);
            let lo = qs.iter().map(|q| q.t_qs).min().unwrap();
            let hi = qs.iter().map(|q| q.t_qe).max().unwrap();
            assert!(hi - lo <= (plan.end - START) / 50);
            assert!(lo >= START && hi <= plan.end);
            assert!(!(lo..hi).step_by(97).any(|t| plan.deleted(t)));
        }
    }

    #[test]
    fn fleet_queries_ask_the_same_popularity_mix_for_every_seed() {
        let mut plan = FleetPlan::new(1, 500);
        for _ in 0..50 {
            plan.next_request();
        }
        let ranks = |seed| {
            let mut r: Vec<String> = fleet_queries(seed, &plan, 40, 100)
                .into_iter()
                .map(|q| q.series)
                .collect();
            r.sort();
            r
        };
        let (a, b) = (ranks(1), ranks(2));
        assert_eq!(a.len(), 40);
        // The hottest series owns the first slices of the CDF whatever the seed.
        assert_eq!(a[..5], b[..5]);
        assert_eq!(a[0], series_name(0));
        assert_ne!(a, b);
    }

    #[test]
    fn sensor_stream_is_increasing_and_seeded() {
        let a = SensorStream::new(3, TAG_WIDE, 2).next_block(5_000);
        let b = SensorStream::new(3, TAG_WIDE, 2).next_block(5_000);
        let c = SensorStream::new(4, TAG_WIDE, 2).next_block(5_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0].t < w[1].t));
    }

    #[test]
    fn tail_values_are_pure() {
        assert_eq!(tail_value(1, 2, 3).to_bits(), tail_value(1, 2, 3).to_bits());
        assert_ne!(tail_points(1, 0, 0, 100), tail_points(2, 0, 0, 100));
    }
}
