//! Span arithmetic on query ranges wider than `i64::MAX`: both
//! operators and `StreamingM4` put each point in the span
//! `floor(w·(t − t_qs)/(t_qe − t_qs))` gives, taken here in `i128`. A
//! debug build panics on an `i64` overflow there, but a release build
//! wraps into a wrong span, so CI also runs this file with `--release`.

// Tests assert by panicking; the workspace panic-freedom deny-set
// (root Cargo.toml) is aimed at library code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// Test fixtures make and remove their own files.
#![allow(clippy::disallowed_methods)]

use m4::stream::StreamingM4;
use m4::{M4Lsm, M4Query, M4Result, M4Udf, SpanRepr};
use testdir::TestDir;
use tsfile::types::Point;
use tskv::config::EngineConfig;
use tskv::TsKv;

#[test]
fn wide_ranges_put_each_point_in_the_span_the_definition_gives() {
    let dir = TestDir::new("m4-wide");
    let config = EngineConfig {
        points_per_chunk: 2,
        ..Default::default()
    };
    let kv = TsKv::open(&dir, config).unwrap();
    let q = 1i64 << 62;
    let points: Vec<Point> = [i64::MIN, -q - q / 2, -q, -1, 0, q / 2, q - 1, q, i64::MAX]
        .iter()
        .enumerate()
        .map(|(i, &t)| Point::new(t, (i * 7 % 11) as f64))
        .collect();
    // Sealed chunks, and the last two points in the memtable.
    kv.insert_batch("s", &points[..7]).unwrap();
    kv.flush("s").unwrap();
    kv.insert_batch("s", &points[7..]).unwrap();
    let snap = kv.snapshot("s").unwrap();

    for (t_qs, t_qe) in [(-q - q / 2, q), (i64::MIN, i64::MAX)] {
        for w in [1, 4, 7, 1000] {
            let mut spans: Vec<Vec<Point>> = vec![Vec::new(); w];
            for p in points.iter().filter(|p| (t_qs..t_qe).contains(&p.t)) {
                let num = w as i128 * (i128::from(p.t) - i128::from(t_qs));
                spans[(num / (i128::from(t_qe) - i128::from(t_qs))) as usize].push(*p);
            }
            let want = M4Result {
                spans: spans
                    .iter()
                    .map(|s| SpanRepr::from_sorted_points(s))
                    .collect(),
            };
            let query = M4Query::new(t_qs, t_qe, w).unwrap();
            let at = format!("[{t_qs}, {t_qe}) at w = {w}");
            let udf = M4Udf::new().execute(&snap, &query).unwrap();
            assert_eq!(udf, want, "M4-UDF on {at}");
            let lsm = M4Lsm::new().execute(&snap, &query).unwrap();
            assert_eq!(lsm, want, "M4-LSM on {at}");
            let mut stream = StreamingM4::new(query);
            stream.ingest_all(&points);
            assert_eq!(stream.current(), want, "StreamingM4 on {at}");
        }
    }
    drop(snap);
    drop(kv);
}
