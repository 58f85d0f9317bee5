//! Phase `V` (untimed): are the program's answers right?
//!
//! Two M4 answers are *the same* when every span agrees bit-for-bit on
//! its first and last point and on its bottom and top **value**
//! (Definition 2.1 lets a tie on the extreme value resolve to any of
//! the tied points, and M4-LSM and M4-UDF may pick different ones).
//! The reference is `m4::oracle::m4_scan` over the generator's own
//! points — never the engine under test.

use m4::oracle::m4_scan;
use m4::{M4Query, M4Result, SpanRepr};
use tsfile::types::Point;

use crate::gen::{self, FleetPlan, QuerySpec, SensorStream, WidePlan};
use crate::workloads::{Sizes, Workload};
use crate::Result;

pub type Spans = Vec<Option<SpanRepr>>;

/// One query of the run and the answers the server gave.
#[derive(Debug, Clone)]
pub struct Answered {
    pub query: QuerySpec,
    pub lsm: Option<Spans>,
    pub udf: Option<Spans>,
}

pub fn same(a: &Spans, b: &Spans) -> bool {
    M4Result { spans: a.clone() }.equivalent(&M4Result { spans: b.clone() })
}

/// Fold the scan of a later block of a time-sorted series into `acc`,
/// exactly as one `m4_scan` over the concatenation would.
pub fn merge_scan(acc: &mut Spans, later: &Spans) {
    for (a, b) in acc.iter_mut().zip(later) {
        match (a.as_mut(), b) {
            (_, None) => {}
            (None, Some(b)) => *a = Some(*b),
            (Some(a), Some(b)) => {
                a.last = b.last;
                if b.bottom.v.total_cmp(&a.bottom.v).is_lt() {
                    a.bottom = b.bottom;
                }
                if b.top.v.total_cmp(&a.top.v).is_gt() {
                    a.top = b.top;
                }
            }
        }
    }
}

fn m4_query(q: &QuerySpec) -> Result<M4Query> {
    Ok(M4Query::new(q.t_qs, q.t_qe, q.w as usize)?)
}

/// Reference answers for `queries`, from the generator's points.
pub fn oracle(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    queries: &[QuerySpec],
) -> Result<Vec<Spans>> {
    let m4s: Vec<M4Query> = queries.iter().map(m4_query).collect::<Result<_>>()?;
    let mut out: Vec<Spans> = m4s.iter().map(|q| vec![None; q.w]).collect();
    match workload {
        Workload::ColdWide | Workload::HotZoom => {
            // Replay the wide stream block by block, without the
            // deleted ranges.
            const BLOCK: usize = 100_000;
            let flush_points = workload.engine_config().memtable_threshold;
            let plan = WidePlan::new(seed, sizes.wide_points, flush_points, sizes.wide_deletes);
            let mut stream = SensorStream::new(seed, gen::TAG_WIDE, 2);
            for _ in 0..plan.points().div_ceil(BLOCK) {
                let mut block = stream.next_block(BLOCK);
                block.retain(|p| !plan.deleted(p.t));
                let (Some(lo), Some(hi)) = (block.first().map(|p| p.t), block.last().map(|p| p.t))
                else {
                    continue;
                };
                for (q, acc) in m4s.iter().zip(&mut out) {
                    if q.t_qs <= hi && lo < q.t_qe {
                        merge_scan(acc, &m4_scan(&block, q).spans);
                    }
                }
            }
        }
        Workload::IngestFleet => {
            // Phase Q runs right after S: the store holds the initial
            // requests and nothing else.
            let mut plan = FleetPlan::new(seed, sizes.fleet_series);
            let mut per_query: Vec<Vec<Point>> = vec![Vec::new(); queries.len()];
            for _ in 0..sizes.fleet_initial_requests {
                for (rank, points) in plan.next_request() {
                    let name = workload::multiseries::series_name(rank);
                    for (q, mine) in queries.iter().zip(&mut per_query) {
                        if q.series == name {
                            mine.extend_from_slice(&points);
                        }
                    }
                }
            }
            for ((q, points), acc) in m4s.iter().zip(&mut per_query).zip(&mut out) {
                points.sort_by_key(|p| p.t);
                *acc = m4_scan(points, q).spans;
            }
        }
        Workload::LiveTail => {
            // Tail data is in order and never deleted, so a window's
            // contents are a pure function of (seed, series, range).
            for ((q, m4), acc) in queries.iter().zip(&m4s).zip(&mut out) {
                let s = (0..sizes.tail_series)
                    .find(|s| gen::tail_name(*s) == q.series)
                    .unwrap_or(0);
                let from = (q.t_qs - gen::START).div_euclid(gen::TAIL_DELTA_MS).max(0);
                let n = (q.t_qe - q.t_qs).div_euclid(gen::TAIL_DELTA_MS) + 2;
                *acc = m4_scan(&gen::tail_points(seed, s, from, n as usize), m4).spans;
            }
        }
    }
    Ok(out)
}

/// Every way `answers` are wrong: a missing answer, M4-LSM ≠ M4-UDF on
/// the same query, or either ≠ the reference.
pub fn wrong_answers(answers: &[Answered], reference: &[Spans]) -> Vec<String> {
    let mut bad = Vec::new();
    for (a, want) in answers.iter().zip(reference) {
        if let (Some(l), Some(u)) = (&a.lsm, &a.udf) {
            if !same(l, u) {
                bad.push(format!("M4-LSM != M4-UDF on {:?}", a.query));
            }
        }
        for (name, got) in [("M4-LSM", &a.lsm), ("M4-UDF", &a.udf)] {
            if let Some(got) = got {
                if !same(got, want) {
                    bad.push(format!("{name} != oracle on {:?}", a.query));
                }
            }
        }
        if a.lsm.is_none() && a.udf.is_none() {
            bad.push(format!("no answer for {:?}", a.query));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn series(n: i64) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(i * 10, ((i * 37) % 101) as f64))
            .collect()
    }

    #[test]
    fn blockwise_scan_equals_one_scan() {
        let pts = series(5_000);
        let q = M4Query::new(100, 49_000, 37).unwrap();
        let whole = m4_scan(&pts, &q).spans;
        let mut acc: Spans = vec![None; q.w];
        for block in pts.chunks(333) {
            merge_scan(&mut acc, &m4_scan(block, &q).spans);
        }
        assert_eq!(acc, whole);
    }

    #[test]
    fn a_flipped_span_is_a_wrong_answer() {
        let pts = series(2_000);
        let query = QuerySpec {
            series: "s".into(),
            t_qs: 0,
            t_qe: 20_000,
            w: 16,
        };
        let q = m4_query(&query).unwrap();
        let right = m4_scan(&pts, &q).spans;
        let good = Answered {
            query: query.clone(),
            lsm: Some(right.clone()),
            udf: Some(right.clone()),
        };
        let reference = [right.clone()];
        assert!(wrong_answers(std::slice::from_ref(&good), &reference).is_empty());

        let mut flipped = right.clone();
        flipped.swap(3, 4);
        let bad = Answered {
            lsm: Some(flipped),
            ..good.clone()
        };
        let errs = wrong_answers(&[bad], &reference);
        assert!(errs.iter().any(|e| e.contains("M4-LSM != M4-UDF")));
        assert!(errs.iter().any(|e| e.contains("M4-LSM != oracle")));

        // A tie on the extreme value may resolve to another point.
        let mut tied = right.clone();
        if let Some(s) = tied[0].as_mut() {
            s.top.t += 10;
        }
        assert!(same(&tied, &right));
        let unanswered = Answered {
            lsm: None,
            udf: None,
            ..good
        };
        assert_eq!(wrong_answers(&[unanswered], &[right]).len(), 1);
    }
}
