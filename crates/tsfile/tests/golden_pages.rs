//! The bytes the page encoder writes, pinned over the shapes its
//! chooser meets: every value shape × timestamp shape of
//! `prop_roundtrip`'s generators at lengths around the page sizes a
//! store writes, and one chunk shaped like each benchmark workload's
//! data. Each page is encoded through `page::encode_page` and, where its
//! timestamps are sorted, through `TsFileWriter`, whose files (chunk
//! bodies and footer) are hashed whole. A change to the encoder that
//! keeps every byte leaves the hash alone; one that moves a byte does
//! not, and must say why here.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use testdir::TestDir;

use tsfile::checksum::crc32;
use tsfile::encoding::EncodingKind;
use tsfile::page::encode_page;
use tsfile::types::Point;
use tsfile::TsFileWriter;

/// Values no decimal block can hold (as in `prop_roundtrip`).
const SPECIALS: [u64; 12] = [
    0x7ff8_0000_0000_0000,
    0x7ff8_0000_0000_0001,
    0xfff8_dead_beef_0000,
    0x7ff0_0000_0000_0001,
    0x8000_0000_0000_0000,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x000f_ffff_ffff_ffff,
    0x4340_0000_0000_0000,
    0xc3c0_0000_0000_0000,
    0x7fe0_0000_0000_0000,
];

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

/// `prop_roundtrip`'s eleven value shapes.
fn page_values(shape: u8, precision: u32, len: usize, seed: u64) -> Vec<f64> {
    let mut next = splitmix(seed);
    let scale = 10f64.powi(precision as i32);
    let mut level = (next() % 100_000) as i64 - 50_000;
    let mut ramp = splitmix(seed ^ 0x5a17);
    let step = 1 + (ramp() % 50) as i64;
    let period = len + (ramp() % 4_000) as usize;
    let offset = (ramp() % period as u64) as usize;
    let (stair, start) = (1 + (ramp() % 20) as usize, level);
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
                10 if i == 0 => special,
                10 => (start + (i / stair) as i64) as f64 / scale,
                _ => decimal,
            }
        })
        .collect()
}

/// `prop_roundtrip`'s five timestamp shapes: regular, jittered deltas,
/// delayed, any deltas (wrapping, unsorted), a jittered cadence.
fn page_timestamps(shape: u8, len: usize, seed: u64) -> Vec<i64> {
    let mut next = splitmix(seed ^ 0x7157);
    let mut t = next() as i64 >> 20;
    if shape == 4 {
        return (0..len as i64)
            .map(|i| t + 10 * i + (next() % 5) as i64 - 2)
            .collect();
    }
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

/// One chunk shaped like each workload's data, 1 000 points (the
/// engine's chunk size): `cold_wide`'s full-precision walk at a 10 ms
/// cadence jittered ±2 ms, `live_tail`'s two-decimal register on a 4 ms
/// grid, `ingest_fleet`'s quarter-unit sawtooth on a 1 s grid, and a
/// constant chunk the footer holds whole.
fn workload_chunks() -> Vec<Vec<Point>> {
    const START: i64 = 1_600_000_000_000;
    let mut next = splitmix(60);
    let mut level = 225.0f64;
    let wide = (0..1000i64)
        .map(|i| {
            let jitter = (next() % 5) as i64 - 2;
            let step = (next() >> 11) as f64 / (1u64 << 53) as f64 * 0.8 - 0.4;
            level = (level + step).clamp(210.0, 240.0);
            let carrier = 5.0 * (i as f64 / 500_000.0 * std::f64::consts::TAU).sin();
            Point::new(START + i * 10 + jitter, level + carrier)
        })
        .collect();
    let tail = (0..1000i64)
        .map(|i| {
            let noise = (next() % 2_001) as f64 / 1_000.0;
            let wave = 8.0 * (i as f64 / 4_000.0).sin();
            let v = ((225.0 + wave + noise - 1.0) * 100.0).round() / 100.0;
            Point::new(START + i * 4, v)
        })
        .collect();
    let fleet = (0..1000i64)
        .map(|i| {
            let v = ((i + 1_479).rem_euclid(2_000) - 1_000) as f64 * 0.25;
            Point::new(START + i * 1_000, v)
        })
        .collect();
    let constant = (0..1000i64)
        .map(|i| Point::new(START + i * 1_000, 21.5))
        .collect();
    vec![wide, tail, fleet, constant]
}

/// Every page of the corpus, each grouped with the series it belongs to.
fn corpus() -> Vec<Vec<Vec<Point>>> {
    let mut series = Vec::new();
    for shape in 0u8..11 {
        for ts_shape in 0u8..5 {
            let pages = [1usize, 2, 3, 999, 1_000, 1_200]
                .iter()
                .map(|&len| {
                    let seed = u64::from(shape) << 40 | u64::from(ts_shape) << 32 | len as u64;
                    let precision = (seed % 7) as u32;
                    let vs = page_values(shape, precision, len, seed);
                    let ts = page_timestamps(ts_shape, len, seed);
                    ts.iter()
                        .zip(&vs)
                        .map(|(&t, &v)| Point::new(t, v))
                        .collect()
                })
                .collect();
            series.push(pages);
        }
    }
    series.push(workload_chunks());
    series
}

#[test]
fn the_encoder_writes_the_pinned_bytes() {
    let dir = TestDir::new("tsfile-golden-pages");
    let path = dir.join("corpus.tsfile");
    let mut all = Vec::new();
    let mut writer = TsFileWriter::create(&path).unwrap();
    let (mut pages, mut chunks) = (0, 0);
    for (id, series) in corpus().iter().enumerate() {
        writer.begin_series(id as u32, 0).unwrap();
        for (version, points) in series.iter().enumerate() {
            let mut body = Vec::new();
            encode_page(
                points,
                EncodingKind::Ts2Diff,
                EncodingKind::Gorilla,
                &mut body,
            );
            all.extend_from_slice(&(body.len() as u32).to_le_bytes());
            all.extend_from_slice(&body);
            pages += 1;
            if points.windows(2).all(|w| w[0].t < w[1].t) {
                writer.write_chunk(points, version as u64 + 1).unwrap();
                chunks += 1;
            } else {
                assert!(writer.write_chunk(points, 1).is_err());
            }
        }
    }
    writer.finish().unwrap();
    all.extend_from_slice(&std::fs::read(&path).unwrap());
    assert_eq!((pages, chunks), (334, 286));
    assert_eq!((all.len(), crc32(&all)), (1_347_312, 0xb290_487c));
}
