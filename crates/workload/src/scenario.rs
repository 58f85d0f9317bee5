//! Storage-scenario builders: control how a dataset lands in the LSM
//! store, reproducing the knobs of the paper's §4.3–§4.5 experiments.
//!
//! * **Write order → chunk overlap** ([`load_with_overlap`]): the paper
//!   "write\[s\] the points in different orders, leading to various chunk
//!   overlap rates". We partition the sorted series into flush-sized
//!   batches and, for a controlled fraction of adjacent batch pairs,
//!   interleave their points across two flushes so the two sealed files
//!   cover the same time range — their chunks overlap pairwise.
//! * **Deletes** ([`apply_random_deletes`]): `n` range tombstones of a
//!   given length at uniformly random positions (§4.4 delete
//!   percentage, §4.5 delete time range).

use rand::rngs::StdRng;
use rand::Rng;

use tsfile::types::Point;
use tskv::{SeriesSnapshot, TsKv};

/// Load a sorted series in time order: batches align with flushes, so
/// chunks never overlap (0% overlap baseline).
pub fn load_sequential(kv: &TsKv, series: &str, points: &[Point]) -> tskv::Result<()> {
    kv.insert_batch(series, points)?;
    kv.flush(series)
}

/// Load a sorted series such that roughly `overlap` (0.0–1.0) of the
/// resulting chunks overlap another chunk in time.
///
/// Mechanism: split into flush-sized batches; walk adjacent batch pairs
/// and, for a fraction of them, deal the pair's points alternately into
/// two flushes. Each dealt flush spans the whole pair range, so every
/// chunk of one file overlaps chunks of the other.
pub fn load_with_overlap(
    kv: &TsKv,
    series: &str,
    points: &[Point],
    overlap: f64,
    rng: &mut StdRng,
) -> tskv::Result<()> {
    let batch = kv.config().memtable_threshold;
    let overlap = overlap.clamp(0.0, 1.0);
    let mut i = 0usize;
    while i < points.len() {
        let pair_end = (i + 2 * batch).min(points.len());
        let have_pair = pair_end - i > batch;
        if have_pair && rng.gen_bool(overlap) {
            // Deal alternately: both flushes span [i, pair_end).
            let (mut a, mut b) = (Vec::with_capacity(batch), Vec::with_capacity(batch));
            for (k, p) in points[i..pair_end].iter().enumerate() {
                if k % 2 == 0 {
                    a.push(*p);
                } else {
                    b.push(*p);
                }
            }
            kv.insert_batch(series, &a)?;
            kv.flush(series)?;
            kv.insert_batch(series, &b)?;
            kv.flush(series)?;
            i = pair_end;
        } else {
            let end = (i + batch).min(points.len());
            kv.insert_batch(series, &points[i..end])?;
            kv.flush(series)?;
            i = end;
        }
    }
    Ok(())
}

/// Load a sorted series with roughly `frac` (0.0–1.0) of flush-sized
/// batch pairs arriving in swapped order: the later time range is
/// written and sealed first, then the earlier range lands behind it.
///
/// This is the out-of-order-heavy ingest scenario of the
/// high-cardinality experiments (the `out_of_order_frac` axis;
/// [`crate::multiseries`] generalizes the same adjacent-swap model to
/// many series). Unlike [`load_with_overlap`] the swapped files stay
/// time-disjoint — the structural signature is sealed-file *version*
/// order inverting against time order, which is what recovery,
/// compaction ordering and M4 chunk selection must absorb.
pub fn load_out_of_order(
    kv: &TsKv,
    series: &str,
    points: &[Point],
    frac: f64,
    rng: &mut StdRng,
) -> tskv::Result<()> {
    let batch = kv.config().memtable_threshold;
    let frac = frac.clamp(0.0, 1.0);
    let mut i = 0usize;
    while i < points.len() {
        let pair_end = (i + 2 * batch).min(points.len());
        let have_pair = pair_end - i > batch;
        if have_pair && rng.gen_bool(frac) {
            let mid = i + batch;
            kv.insert_batch(series, &points[mid..pair_end])?;
            kv.flush(series)?;
            kv.insert_batch(series, &points[i..mid])?;
            kv.flush(series)?;
            i = pair_end;
        } else {
            let end = (i + batch).min(points.len());
            kv.insert_batch(series, &points[i..end])?;
            kv.flush(series)?;
            i = end;
        }
    }
    Ok(())
}

/// Fraction of chunks in a snapshot whose time interval overlaps at
/// least one other chunk's interval (the paper's x-axis in Figure 12).
pub fn overlap_fraction(snapshot: &SeriesSnapshot) -> f64 {
    let chunks = snapshot.chunks();
    if chunks.is_empty() {
        return 0.0;
    }
    let ranges: Vec<_> = chunks.iter().map(|c| c.time_range()).collect();
    let mut overlapping = 0usize;
    for (i, r) in ranges.iter().enumerate() {
        if ranges
            .iter()
            .enumerate()
            .any(|(j, o)| i != j && r.overlaps(o))
        {
            overlapping += 1;
        }
    }
    overlapping as f64 / ranges.len() as f64
}

/// Apply `n` random range deletes of length `range_ms` within
/// `[t_min, t_max]`. Returns the deleted ranges.
pub fn apply_random_deletes(
    kv: &TsKv,
    series: &str,
    n: usize,
    range_ms: i64,
    t_min: i64,
    t_max: i64,
    rng: &mut StdRng,
) -> tskv::Result<Vec<(i64, i64)>> {
    let mut out = Vec::with_capacity(n);
    let span = (t_max - t_min - range_ms).max(1);
    for _ in 0..n {
        let start = t_min + rng.gen_range(0..span);
        let end = start + range_ms.max(0);
        kv.delete(series, start, end)?;
        out.push((start, end));
    }
    Ok(out)
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
    use testdir::TestDir;
    use tskv::config::EngineConfig;

    fn series(n: i64) -> Vec<Point> {
        (0..n)
            .map(|t| Point::new(t * 100, (t % 50) as f64))
            .collect()
    }

    fn open(name: &str) -> (TestDir, TsKv) {
        let dir = TestDir::new(&format!("wl-{name}"));
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 50,
                memtable_threshold: 200,
                ..Default::default()
            },
        )
        .unwrap();
        (dir, kv)
    }

    #[test]
    fn sequential_load_has_zero_overlap() {
        let (_dir, kv) = open("seq");
        load_sequential(&kv, "s", &series(2_000)).unwrap();
        let snap = kv.snapshot("s").unwrap();
        assert_eq!(overlap_fraction(&snap), 0.0);
        assert_eq!(snap.raw_point_count(), 2_000);
    }

    #[test]
    fn overlap_zero_equals_sequential() {
        let (_dir, kv) = open("ov0");
        let mut rng = StdRng::seed_from_u64(1);
        load_with_overlap(&kv, "s", &series(2_000), 0.0, &mut rng).unwrap();
        let snap = kv.snapshot("s").unwrap();
        assert_eq!(overlap_fraction(&snap), 0.0);
    }

    #[test]
    fn overlap_one_makes_most_chunks_overlap() {
        let (_dir, kv) = open("ov1");
        let mut rng = StdRng::seed_from_u64(2);
        load_with_overlap(&kv, "s", &series(4_000), 1.0, &mut rng).unwrap();
        let snap = kv.snapshot("s").unwrap();
        let f = overlap_fraction(&snap);
        assert!(f > 0.9, "expected near-total overlap, got {f}");
        assert_eq!(snap.raw_point_count(), 4_000);
    }

    #[test]
    fn overlap_is_monotonic_in_parameter() {
        let mut fractions = Vec::new();
        for (i, ov) in [0.0, 0.5, 1.0].iter().enumerate() {
            let (_dir, kv) = open(&format!("ovm{i}"));
            let mut rng = StdRng::seed_from_u64(7);
            load_with_overlap(&kv, "s", &series(8_000), *ov, &mut rng).unwrap();
            fractions.push(overlap_fraction(&kv.snapshot("s").unwrap()));
        }
        assert!(
            fractions[0] < fractions[1] && fractions[1] < fractions[2],
            "{fractions:?}"
        );
    }

    #[test]
    fn deletes_land_in_range() {
        let (_dir, kv) = open("del");
        load_sequential(&kv, "s", &series(2_000)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let ranges = apply_random_deletes(&kv, "s", 10, 500, 0, 200_000, &mut rng).unwrap();
        assert_eq!(ranges.len(), 10);
        let snap = kv.snapshot("s").unwrap();
        assert_eq!(snap.deletes().len(), 10);
        for (s, e) in ranges {
            assert!(s >= 0 && e <= 200_500 && e - s == 500);
        }
    }

    #[test]
    fn out_of_order_load_preserves_data_and_inverts_seal_order() {
        let (_dir, kv) = open("ooo");
        let pts = series(2_000);
        let mut rng = StdRng::seed_from_u64(5);
        load_out_of_order(&kv, "s", &pts, 1.0, &mut rng).unwrap();
        let snap = kv.snapshot("s").unwrap();
        // Swapped pairs stay time-disjoint...
        assert_eq!(overlap_fraction(&snap), 0.0);
        // ...but sealing order inverts against time order: some chunk
        // with a higher version starts earlier than its predecessor.
        let mut chunks: Vec<_> = snap
            .chunks()
            .iter()
            .map(|c| (c.version, c.time_range().start))
            .collect();
        chunks.sort_unstable_by_key(|(v, _)| *v);
        assert!(
            chunks.windows(2).any(|w| w[1].1 < w[0].1),
            "expected version order to invert against time order: {chunks:?}"
        );
        let merged = tskv::readers::MergeReader::new(&snap)
            .collect_merged()
            .unwrap();
        assert_eq!(merged, pts);
    }

    #[test]
    fn out_of_order_zero_is_sequential() {
        let (_dir, kv) = open("ooo0");
        let pts = series(1_000);
        let mut rng = StdRng::seed_from_u64(6);
        load_out_of_order(&kv, "s", &pts, 0.0, &mut rng).unwrap();
        let snap = kv.snapshot("s").unwrap();
        let mut chunks: Vec<_> = snap
            .chunks()
            .iter()
            .map(|c| (c.version, c.time_range().start))
            .collect();
        chunks.sort_unstable_by_key(|(v, _)| *v);
        assert!(chunks.windows(2).all(|w| w[1].1 > w[0].1));
    }

    #[test]
    fn overlap_load_preserves_data() {
        // Regardless of write order, the merged series must be intact.
        let (_dir, kv) = open("intact");
        let pts = series(3_000);
        let mut rng = StdRng::seed_from_u64(9);
        load_with_overlap(&kv, "s", &pts, 0.7, &mut rng).unwrap();
        let snap = kv.snapshot("s").unwrap();
        let merged = tskv::readers::MergeReader::new(&snap)
            .collect_merged()
            .unwrap();
        assert_eq!(merged, pts);
    }
}
