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

use std::sync::Arc;

use proptest::prelude::*;
use tsfile::encoding::decimal::Framing;
use tsfile::encoding::{bitio, decimal, gorilla, plain, ts2diff, EncodingKind};
use tsfile::page::{
    decimal_framing, decode_page, decode_page_timestamps, encode_page, forms, verify_page_body,
    TsForm, ValueForm,
};
use tsfile::statistics::ChunkStatistics;
use tsfile::types::{Point, Version};
use tsfile::varint;
use tsfile::{ChunkMeta, FileFooter, PageMeta, SeriesRun, TsFileReader, TsFileWriter};

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

/// A 64-bit generator seeded by `seed` (splitmix64), so every bit of a
/// draw varies.
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A page of `len` values in one of ten shapes, drawn from `seed`:
/// a decimal random walk at `precision` decimals, integers, a
/// full-precision jittery walk, nothing but [`SPECIALS`], decimals with
/// specials sprinkled in, decimal steps held for long runs (where XOR's
/// one bit a repeat beats any bit-packing), a full-precision ramp that
/// wraps, a smooth full-precision walk, a decimal ramp that wraps at
/// most once, or a decimal counter.
fn page_values(shape: u8, precision: u32, len: usize, seed: u64) -> Vec<f64> {
    let mut next = splitmix(seed);
    let scale = 10f64.powi(precision as i32);
    let mut level = (next() % 100_000) as i64 - 50_000;
    // The ramp's own draws, so the other shapes draw as they did.
    let mut ramp = splitmix(seed ^ 0x5a17);
    let step = 1 + (ramp() % 50) as i64;
    let period = len + (ramp() % 4_000) as usize;
    let offset = (ramp() % period as u64) as usize;
    (0..len)
        .map(|i| {
            match shape {
                5 if !next().is_multiple_of(64) => {}
                9 => level += (next() % 4) as i64,
                _ => level += (next() % 201) as i64 - 100,
            }
            let decimal = level as f64 / scale;
            let special = f64::from_bits(SPECIALS[(next() % 12) as usize]);
            match shape {
                0 => decimal,
                1 => level as f64,
                2 => level as f64 * std::f64::consts::E / 7.0 + ((next() >> 11) as f64).sqrt(),
                3 => special,
                4 if next().is_multiple_of(8) => special,
                6 => (i % 97) as f64 * std::f64::consts::PI - 100.0,
                7 => level as f64 * std::f64::consts::E * 1e-3,
                8 => ((i + offset) % period) as f64 * step as f64 / scale - 100.0,
                _ => decimal,
            }
        })
        .collect()
}

/// A page of `len` timestamps in one of four shapes, drawn from `seed`:
/// regular (one delta), jittered (10 ± 2 ms), delayed (regular, with an
/// hour's gap now and then — the paper's §3.5 steps), or any deltas at
/// all, up to the `i64` extremes (wrapping).
fn page_timestamps(shape: u8, len: usize, seed: u64) -> Vec<i64> {
    let mut next = splitmix(seed ^ 0x7157);
    let mut t = next() as i64 >> 20;
    (0..len)
        .map(|_| {
            let now = t;
            let delta = match shape {
                0 => 10,
                1 => 8 + (next() % 5) as i64,
                2 if next().is_multiple_of(40) => 3_600_000,
                2 => 10,
                _ => match next() % 8 {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    _ => next() as i64,
                },
            };
            t = t.wrapping_add(delta);
            now
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
        // The statistics round-trip through the footer.
        let footer = footer_of(&[(0, 0, vec![(1, pts.clone())])]);
        let back = FileFooter::decode_body(&footer.encode_body()).unwrap();
        prop_assert_eq!(back.chunks[0].stats, s);
    }
}

/// A chunk as `(version, its points)`.
type Chunk = (u64, Vec<Point>);

/// A series run as `(series, supersedes, its chunks)`.
type Run = (u32, u64, Vec<Chunk>);

/// A footer over `runs` whose chunk bodies are each as long as their
/// point count plus 7 bytes, laid end to end after the head magic as a
/// writer lays them.
fn footer_of(runs: &[Run]) -> FileFooter {
    let mut footer = FileFooter::default();
    let mut end = tsfile::format::MAGIC.len() as u64;
    for (series, supersedes, chunks) in runs {
        let at = footer.chunks.len();
        for (version, points) in chunks {
            let byte_len = points.len() as u64 + 7;
            footer.chunks.push(Arc::new(ChunkMeta {
                offset: end,
                byte_len,
                version: Version(*version),
                stats: ChunkStatistics::from_points(points).unwrap(),
                ts_encoding: EncodingKind::Ts2Diff,
                val_encoding: EncodingKind::Gorilla,
            }));
            end += byte_len;
        }
        footer.runs.push(SeriesRun {
            series: *series,
            supersedes: Version(*supersedes),
            chunks: at..footer.chunks.len(),
        });
    }
    footer
}

/// Everything a footer holds, its values as bits, so NaN payloads and
/// −0.0 compare exactly.
fn footer_bits(footer: &FileFooter) -> Vec<String> {
    let stats = |s: &ChunkStatistics| {
        let [a, b, c, d] = [s.first, s.last, s.bottom, s.top].map(|p| (p.t, p.v.to_bits()));
        format!("n={} {a:?} {b:?} {c:?} {d:?}", s.count)
    };
    let mut out = Vec::new();
    for c in &footer.chunks {
        let (ts, vs) = (c.ts_encoding, c.val_encoding);
        out.push(format!(
            "chunk @{}+{} {:?} {ts:?}/{vs:?} {}",
            c.offset,
            c.byte_len,
            c.version,
            stats(&c.stats)
        ));
    }
    out.extend(footer.runs.iter().map(|r| format!("{r:?}")));
    out
}

/// A timestamp near one of the `i64` extremes, near zero, or anywhere.
fn any_time() -> impl Strategy<Value = i64> {
    prop_oneof![
        (0i64..4).prop_map(|d| i64::MIN + d),
        (0i64..4).prop_map(|d| i64::MAX - d),
        -1_000i64..1_000,
        any::<i64>(),
    ]
}

/// A value that is one of [`SPECIALS`] half the time, else any bits.
fn any_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<prop::sample::Index>()
            .prop_map(|i| f64::from_bits(SPECIALS[i.index(SPECIALS.len())])),
        any::<u64>().prop_map(f64::from_bits),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever the statistics, the footer codec gives back every bit:
    /// several runs whose chunks overlap one another in time, times at
    /// `i64::MIN` and `i64::MAX` side by side (within a chunk and across
    /// chunks), versions rising and falling, and NaN
    /// payloads, −0.0, ±inf and subnormals in every statistic.
    #[test]
    fn footer_roundtrips_bit_exactly(
        runs in prop::collection::vec(
            (
                1u32..1_000,
                0u64..3,
                prop::collection::vec(
                    (
                        any::<u64>(),
                        prop::collection::vec((any_time(), any_value()), 1..10),
                    ),
                    0..10,
                ),
            ),
            1..5,
        ),
    ) {
        let mut series = 0;
        let runs: Vec<Run> = runs
            .into_iter()
            .map(|(gap, supersedes, chunks)| {
                series += gap;
                let chunks: Vec<Chunk> = chunks
                    .into_iter()
                    .map(|(version, raw)| {
                        let mut points: Vec<Point> =
                            raw.into_iter().map(|(t, v)| Point::new(t, v)).collect();
                        points.sort_by_key(|p| p.t);
                        points.dedup_by_key(|p| p.t);
                        (version, points)
                    })
                    .collect();
                // A run with no chunk must supersede something.
                (series, supersedes + u64::from(chunks.is_empty()), chunks)
            })
            .collect();
        let footer = footer_of(&runs);
        let back = FileFooter::decode_body(&footer.encode_body()).unwrap();
        prop_assert_eq!(footer_bits(&back), footer_bits(&footer));
        prop_assert_eq!(back.data_end(), footer.data_end());
    }
}

/// A page body's two columns: `(ts bytes, value bytes)`.
fn columns(body: &[u8]) -> (&[u8], &[u8]) {
    // varint n, modes, varint ts_len, ts bytes, varint val_len, values.
    let mut pos = 0;
    varint::read_u64(body, &mut pos).unwrap();
    pos += 1;
    let ts_len = varint::read_u64(body, &mut pos).unwrap() as usize;
    let ts = &body[pos..pos + ts_len];
    pos += ts_len;
    let val_len = varint::read_u64(body, &mut pos).unwrap() as usize;
    (ts, &body[pos..pos + val_len])
}

/// Encode `points` as a page and check it decodes to the same bits.
fn page_roundtrip(points: &[Point], val_encoding: EncodingKind) -> (Vec<u8>, PageMeta) {
    let mut body = Vec::new();
    encode_page(points, EncodingKind::Ts2Diff, val_encoding, &mut body);
    let meta = PageMeta {
        offset: 0,
        byte_len: body.len() as u64,
        stats: ChunkStatistics::from_points(points).unwrap(),
    };
    verify_page_body(&body, &meta).unwrap();
    let back = decode_page(&body, EncodingKind::Ts2Diff, val_encoding, &meta).unwrap();
    assert_eq!(back.len(), points.len());
    for (a, b) in points.iter().zip(&back) {
        assert_eq!((a.t, a.v.to_bits()), (b.t, b.v.to_bits()));
    }
    (body, meta)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever a page holds, it decodes to the same bits, and neither
    /// column the page chose is larger than what a page without the
    /// packed forms holds — the constant delta or the ts2diff stream;
    /// the decimal block or the configured value stream, whichever the
    /// page picks between those two — computed here from the public
    /// kernels. A form costs no byte: it is a bit of the modes byte.
    #[test]
    fn pages_roundtrip_bitwise_and_never_outgrow_the_stream(
        shape in 0u8..10,
        ts_shape in 0u8..4,
        precision in 0u32..=6,
        len in 1usize..1_200,
        seed in any::<u64>(),
        plain_values in any::<bool>(),
    ) {
        let vs = page_values(shape, precision, len, seed);
        let ts = page_timestamps(ts_shape, len, seed);
        let points: Vec<Point> = ts.iter().zip(&vs).map(|(&t, &v)| Point::new(t, v)).collect();
        let val_encoding = if plain_values { EncodingKind::Plain } else { EncodingKind::Gorilla };
        let (body, meta) = page_roundtrip(&points, val_encoding);
        let (ts_col, val_col) = columns(&body);
        let forms = forms(&body).unwrap();

        // Timestamps: the constant delta when there is one, else the
        // ts2diff stream unless the packed deltas are smaller.
        let deltas: Vec<i64> = ts.windows(2).map(|w| w[1].wrapping_sub(w[0])).collect();
        let mut parent = Vec::new();
        if deltas.iter().all(|&d| d == deltas.first().copied().unwrap_or(0)) {
            varint::write_i64(&mut parent, ts[0]);
            varint::write_i64(&mut parent, deltas.first().copied().unwrap_or(0));
        } else {
            ts2diff::encode(&ts, &mut parent);
        }
        match forms.timestamps {
            TsForm::Packed => prop_assert!(ts_col.len() < parent.len(), "{} >= {}", ts_col.len(), parent.len()),
            _ => prop_assert_eq!(ts_col, &parent[..]),
        }

        // Values: the page without packed forms holds the block or the
        // stream; the packed deltas only when smaller than both.
        let mut stream = Vec::new();
        match val_encoding {
            EncodingKind::Plain => plain::encode_f64(&vs, &mut stream),
            _ => gorilla::encode(&vs, &mut stream),
        }
        let mut block = Vec::new();
        let has_block = decimal::encode_values(&vs, &mut block);
        match forms.values {
            ValueForm::Stream => prop_assert_eq!(val_col, &stream[..]),
            ValueForm::Decimal => {
                prop_assert_eq!(val_col, &block[..]);
                prop_assert!(block.len() < stream.len());
            }
            ValueForm::Packed => {
                prop_assert!(val_col.len() < stream.len(), "{} >= {}", val_col.len(), stream.len());
                prop_assert!(!has_block || val_col.len() < block.len(), "{} >= {}", val_col.len(), block.len());
            }
        }
        if shape == 3 {
            prop_assert!(forms.values != ValueForm::Decimal, "an all-exception page went decimal");
        }
        // A decimal ramp or counter stores its deltas, unless no pair
        // of its scale recovers every value (the delta frame holds no
        // exception).
        if shape >= 8 && len >= 64 && decimal::encode_values_in(&vs, Framing::Delta, &mut Vec::new()) {
            prop_assert_eq!(decimal_framing(&body).unwrap(), Some(Framing::Delta));
        }

        // A partial timestamp scan stops where the ts2diff stream's
        // does, whatever the page's form.
        let mut stream_ts = Vec::new();
        ts2diff::encode(&ts, &mut stream_ts);
        let step = (len / 16).max(1);
        let limits = ts.iter().step_by(step).flat_map(|&t| [t.wrapping_sub(1), t, t.wrapping_add(1)]);
        for limit in limits.chain([i64::MIN, i64::MAX]) {
            let got = decode_page_timestamps(&body, EncodingKind::Ts2Diff, &meta, Some(limit)).unwrap();
            let want = ts2diff::decode_until(&stream_ts, len, limit).unwrap();
            prop_assert_eq!(got, want, "limit {}", limit);
        }
    }
}

/// The packed forms' edge cases, each through a whole page: exceptions
/// at the first and last delta, width 0 and width 64, and a one-point
/// page.
#[test]
fn packed_edge_cases_round_trip() {
    let walk = page_values(7, 0, 300, 11);
    // Exceptions at both ends of otherwise equal deltas: width 0.
    let mut ts: Vec<i64> = (0..300).map(|i| 1_000 + i * 10).collect();
    ts[0] = i64::MIN;
    ts[299] = i64::MAX;
    let points: Vec<Point> = ts
        .iter()
        .zip(&walk)
        .map(|(&t, &v)| Point::new(t, v))
        .collect();
    let (body, _) = page_roundtrip(&points, EncodingKind::Gorilla);
    assert_eq!(forms(&body).unwrap().timestamps, TsForm::Packed);
    let (ts_col, _) = columns(&body);
    let mut pos = 0;
    varint::read_i64(ts_col, &mut pos).unwrap();
    assert_eq!(ts_col[pos], 0, "width");

    // Deltas of every magnitude: width 64, no exception.
    let mut next = splitmix(3);
    let wide: Vec<Point> = walk.iter().map(|&v| Point::new(next() as i64, v)).collect();
    let (body, _) = page_roundtrip(&wide, EncodingKind::Gorilla);
    assert_eq!(forms(&body).unwrap().timestamps, TsForm::Packed);
    let (ts_col, _) = columns(&body);
    let mut pos = 0;
    varint::read_i64(ts_col, &mut pos).unwrap();
    assert_eq!(ts_col[pos], 64, "width");

    // Equal full-precision values: width 0; a wild first and last one
    // are its exceptions.
    let mut flat: Vec<Point> = (0..300)
        .map(|i| Point::new(i * 10, std::f64::consts::PI))
        .collect();
    let (body, _) = page_roundtrip(&flat, EncodingKind::Gorilla);
    assert_eq!(forms(&body).unwrap().values, ValueForm::Packed);
    assert_eq!(columns(&body).1[8], 0, "width");
    flat[0].v = f64::from_bits(0xfff8_dead_beef_0000);
    flat[299].v = -0.0;
    let (body, _) = page_roundtrip(&flat, EncodingKind::Gorilla);
    assert_eq!(forms(&body).unwrap().values, ValueForm::Packed);
    assert_eq!(columns(&body).1[8], 0, "width");

    // One point: the constant delta and the stream, packing gains nothing.
    let (body, _) = page_roundtrip(&[Point::new(-7, f64::NAN)], EncodingKind::Gorilla);
    let forms = forms(&body).unwrap();
    assert_eq!(
        (forms.timestamps, forms.values),
        (TsForm::Constant, ValueForm::Stream)
    );
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
