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
use tsfile::encoding::{bitio, gorilla, plain, ts2diff, EncodingKind};
use tsfile::page::{decode_page, encode_page, is_decimal};
use tsfile::statistics::ChunkStatistics;
use tsfile::types::Point;
use tsfile::varint;
use tsfile::{PageMeta, TsFileReader, TsFileWriter};

/// Values no decimal block can hold: NaN payloads, −0.0, ±inf,
/// subnormals, and magnitudes at or beyond 2^53.
const SPECIALS: [u64; 12] = [
    0x7ff8_0000_0000_0000, // the canonical NaN
    0x7ff8_0000_0000_0001,
    0xfff8_dead_beef_0000,
    0x7ff0_0000_0000_0001, // signalling
    0x8000_0000_0000_0000, // −0.0
    0x7ff0_0000_0000_0000, // +inf
    0xfff0_0000_0000_0000, // −inf
    0x0000_0000_0000_0001, // smallest subnormal
    0x000f_ffff_ffff_ffff, // largest subnormal
    0x4340_0000_0000_0000, // 2^53
    0xc3c0_0000_0000_0000, // −2^61
    0x7fe0_0000_0000_0000, // 2^1023
];

/// A page of `len` values in one of six shapes, drawn from `seed`:
/// a decimal random walk at `precision` decimals, integers, a
/// full-precision walk, nothing but [`SPECIALS`], decimals with
/// specials sprinkled in, or decimal steps held for long runs (where
/// XOR's one bit a repeat beats any bit-packing).
fn page_values(shape: u8, precision: u32, len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 11
    };
    let scale = 10f64.powi(precision as i32);
    let mut level = (next() % 100_000) as i64 - 50_000;
    (0..len)
        .map(|_| {
            if shape != 5 || next() % 64 == 0 {
                level += (next() % 201) as i64 - 100;
            }
            let decimal = level as f64 / scale;
            let special = f64::from_bits(SPECIALS[(next() % 12) as usize]);
            match shape {
                0 => decimal,
                1 => level as f64,
                2 => level as f64 * std::f64::consts::E / 7.0 + (next() as f64).sqrt(),
                3 => special,
                4 if next() % 8 == 0 => special,
                _ => decimal,
            }
        })
        .collect()
}

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
        prop_assert!(gorilla::encoded_len_at_least(&floats) <= buf.len());
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
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever a page holds, it decodes to the same bits, and the
    /// value column the page chose is never larger than the configured
    /// stream (the mode costs no byte: it is a bit of the modes byte).
    #[test]
    fn pages_roundtrip_bitwise_and_never_outgrow_the_stream(
        shape in 0u8..6,
        precision in 0u32..=6,
        len in 1usize..1_200,
        seed in any::<u64>(),
        plain_values in any::<bool>(),
    ) {
        let vs = page_values(shape, precision, len, seed);
        let points: Vec<Point> = vs.iter().enumerate().map(|(i, &v)| Point::new(i as i64 * 10, v)).collect();
        let val_encoding = if plain_values { EncodingKind::Plain } else { EncodingKind::Gorilla };
        let mut body = Vec::new();
        encode_page(&points, EncodingKind::Ts2Diff, val_encoding, &mut body);
        let meta = PageMeta {
            offset: 0,
            byte_len: body.len() as u64,
            stats: ChunkStatistics::from_points(&points).unwrap(),
        };
        let back = decode_page(&body, EncodingKind::Ts2Diff, val_encoding, &meta).unwrap();
        prop_assert_eq!(back.len(), points.len());
        for (a, b) in points.iter().zip(&back) {
            prop_assert_eq!((a.t, a.v.to_bits()), (b.t, b.v.to_bits()));
        }

        // varint n, modes, varint ts_len, ts bytes, varint val_len.
        let mut pos = 0;
        varint::read_u64(&body, &mut pos).unwrap();
        pos += 1;
        let ts_len = varint::read_u64(&body, &mut pos).unwrap() as usize;
        pos += ts_len;
        let val_len = varint::read_u64(&body, &mut pos).unwrap() as usize;
        let mut stream = Vec::new();
        match val_encoding {
            EncodingKind::Plain => plain::encode_f64(&vs, &mut stream),
            _ => gorilla::encode(&vs, &mut stream),
        }
        prop_assert!(val_len <= stream.len(), "{} > {}", val_len, stream.len());
        if shape == 3 {
            prop_assert!(!is_decimal(&body).unwrap(), "an all-exception page went decimal");
        }
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
