//! Property-based tests: every codec and the full file format must
//! round-trip arbitrary inputs exactly (bitwise for floats).

// Tests assert by panicking; the workspace panic-freedom deny-set
// (root Cargo.toml) is aimed at library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use proptest::prelude::*;
use tsfile::encoding::{bitio, gorilla, plain, ts2diff};
use tsfile::statistics::ChunkStatistics;
use tsfile::types::Point;
use tsfile::varint;
use tsfile::{TsFileReader, TsFileWriter};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn zigzag_varint_roundtrip(v in any::<i64>()) {
        let mut buf = Vec::new();
        varint::write_i64(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(varint::read_i64(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn ts2diff_roundtrip(ts in prop::collection::vec(any::<i64>(), 0..300)) {
        let mut buf = Vec::new();
        ts2diff::encode(&ts, &mut buf);
        prop_assert_eq!(ts2diff::decode(&buf, ts.len()).unwrap(), ts);
    }

    #[test]
    fn gorilla_roundtrip_bitwise(vs in prop::collection::vec(any::<u64>(), 0..300)) {
        // Drive through raw bits so NaN payloads and -0.0 are covered.
        let floats: Vec<f64> = vs.iter().map(|&b| f64::from_bits(b)).collect();
        let mut buf = Vec::new();
        gorilla::encode(&floats, &mut buf);
        let back = gorilla::decode(&buf, floats.len()).unwrap();
        prop_assert_eq!(back.len(), floats.len());
        for (a, b) in floats.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn plain_roundtrip(ts in prop::collection::vec(any::<i64>(), 0..200),
                       vs in prop::collection::vec(any::<f64>(), 0..200)) {
        let mut tb = Vec::new();
        plain::encode_i64(&ts, &mut tb);
        prop_assert_eq!(plain::decode_i64(&tb, ts.len()).unwrap(), ts);
        let mut vb = Vec::new();
        plain::encode_f64(&vs, &mut vb);
        let back = plain::decode_f64(&vb, vs.len()).unwrap();
        for (a, b) in vs.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bitio_roundtrip(chunks in prop::collection::vec((any::<u64>(), 1u32..=64), 0..100)) {
        let mut w = bitio::BitWriter::new();
        for &(v, n) in &chunks {
            w.write_bits(v, n);
        }
        let bytes = w.into_bytes();
        let mut r = bitio::BitReader::new(&bytes);
        for &(v, n) in &chunks {
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            prop_assert_eq!(r.read_bits(n).unwrap(), v & mask);
        }
    }

    #[test]
    fn statistics_match_scan(raw in prop::collection::vec((any::<i64>(), -1e9f64..1e9), 1..200)) {
        // Deduplicate and sort timestamps to form a legal chunk.
        let mut pts: Vec<Point> = raw.into_iter().map(|(t, v)| Point::new(t, v)).collect();
        pts.sort_by_key(|p| p.t);
        pts.dedup_by_key(|p| p.t);
        let s = ChunkStatistics::from_points(&pts).unwrap();
        prop_assert_eq!(s.count as usize, pts.len());
        prop_assert_eq!(s.first, pts[0]);
        prop_assert_eq!(s.last, *pts.last().unwrap());
        let min = pts.iter().map(|p| p.v).fold(f64::INFINITY, f64::min);
        let max = pts.iter().map(|p| p.v).fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.bottom.v, min);
        prop_assert_eq!(s.top.v, max);
        // Statistics encode/decode round-trips.
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let mut pos = 0;
        prop_assert_eq!(ChunkStatistics::decode(&buf, &mut pos).unwrap(), s);
    }
}

proptest! {
    // File I/O cases are slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn file_roundtrip(chunks in prop::collection::vec(
        prop::collection::vec((any::<i32>(), -1e6f64..1e6), 1..100), 1..8)) {
        let dir = std::env::temp_dir().join("tsfile-prop-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("prop-{}.tsfile", std::process::id()));

        let mut norm: Vec<Vec<Point>> = Vec::new();
        for c in &chunks {
            let mut pts: Vec<Point> =
                c.iter().map(|&(t, v)| Point::new(i64::from(t), v)).collect();
            pts.sort_by_key(|p| p.t);
            pts.dedup_by_key(|p| p.t);
            norm.push(pts);
        }

        let mut w = TsFileWriter::create(&path).unwrap();
        w.begin_series(0, 0).unwrap();
        for (i, pts) in norm.iter().enumerate() {
            w.write_chunk(pts, i as u64 + 1).unwrap();
        }
        w.finish().unwrap();

        let r = TsFileReader::open(&path).unwrap();
        prop_assert_eq!(r.chunk_metas().len(), norm.len());
        for (meta, pts) in r.chunk_metas().iter().zip(&norm) {
            let back = r.read_chunk(meta).unwrap();
            prop_assert_eq!(&back, pts);
            prop_assert_eq!(meta.stats.count as usize, pts.len());
        }
        std::fs::remove_file(&path).ok();
    }
}
