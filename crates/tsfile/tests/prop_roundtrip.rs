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
use tsfile::encoding::{decimal, packed, EncodingKind};
use tsfile::page::{
    decimal_framing, decode_page, decode_page_timestamps, encode_page, forms, ts_framing,
    verify_page_body, TsForm, ValueForm,
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

/// A page of `len` values in one of eleven shapes, drawn from `seed`:
/// a decimal random walk at `precision` decimals, integers, a
/// full-precision jittery walk, nothing but [`SPECIALS`], decimals with
/// specials sprinkled in, decimal steps held for long runs, a
/// full-precision ramp that
/// wraps, a smooth full-precision walk, a decimal ramp that wraps at
/// most once, a decimal counter, or a decimal staircase (one unit up
/// every few values) whose first value is a special.
fn page_values(shape: u8, precision: u32, len: usize, seed: u64) -> Vec<f64> {
    let mut next = splitmix(seed);
    let scale = 10f64.powi(precision as i32);
    let mut level = (next() % 100_000) as i64 - 50_000;
    // The ramp's own draws, so the other shapes draw as they did.
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

/// A page of `len` timestamps in one of five shapes, drawn from `seed`:
/// regular (one delta), jittered deltas (10 ± 2 ms, a random walk
/// around the grid), delayed (regular, with an hour's gap now and then —
/// the paper's §3.5 steps), any deltas at all, up to the `i64` extremes
/// (wrapping), or a cadence jittered around its grid (`t0 + 10·i` ± 2
/// ms, the benchmark's sensors).
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
        out.push(format!(
            "chunk @{}+{} {:?} {}",
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

/// A chunk's value drawn from `bits` in one of four shapes: any bits
/// (half the time one of [`SPECIALS`]), a decimal at `places` places,
/// one of a few values that tie one another — −0.0 beside 0.0, a NaN
/// payload among decimals — or a decimal with a special now and then.
fn stat_value(shape: u8, places: i32, bits: u64) -> f64 {
    let decimal = ((bits % 2_000_001) as i64 - 1_000_000) as f64 / 10f64.powi(places);
    let special = f64::from_bits(SPECIALS[(bits >> 40) as usize % SPECIALS.len()]);
    match shape {
        0 if bits.is_multiple_of(2) => special,
        0 => f64::from_bits(bits),
        1 => decimal,
        2 => [
            1.25,
            1.25,
            -0.0,
            0.0,
            f64::from_bits(0x7ff8_0000_0000_0001),
            2.5,
        ][bits as usize % 6],
        _ if bits.is_multiple_of(4) => special,
        _ => decimal,
    }
}

/// The shapes the footer property draws reach every form an entry
/// takes: extremes at an end, decimal values under a carried pair and
/// under a new one, and XOR where a NaN payload or −0.0 sits among
/// decimals.
#[test]
fn footer_shapes_reach_every_entry_form() {
    let chunk = |t0: i64, shape: u8, places: i32, seeds: &[u64]| -> Chunk {
        let points = (t0..)
            .zip(seeds)
            .map(|(t, &bits)| Point::new(t, stat_value(shape, places, bits)))
            .collect();
        (t0 as u64, points)
    };
    let runs: Vec<Run> = vec![
        (
            0,
            0,
            vec![
                chunk(0, 1, 2, &[7, 3_000, 12]),
                chunk(10, 1, 2, &[9, 5, 44_444]),
                chunk(20, 1, 5, &[123_456, 1]),
                chunk(30, 3, 1, &[0, 1, 2]),
            ],
        ),
        (
            9,
            2,
            vec![chunk(40, 2, 0, &[0, 2, 3, 4, 5]), chunk(50, 1, 0, &[8])],
        ),
    ];
    let footer = footer_of(&runs);
    let census = footer.census();
    assert!(
        census.extremes_at_an_end > 0 && census.decimal > 1,
        "{census:?}"
    );
    assert!(census.decimal < footer.chunks.len(), "{census:?}");
    assert_eq!(
        census.index_bytes + census.directory_bytes,
        footer.encode_body().len()
    );
    let back = FileFooter::decode_body(&footer.encode_body()).unwrap();
    assert_eq!(footer_bits(&back), footer_bits(&footer));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever the statistics, the footer codec gives back every bit:
    /// several runs whose chunks overlap one another in time, times at
    /// `i64::MIN` and `i64::MAX` side by side (within a chunk and across
    /// chunks), versions rising and falling, and NaN payloads, −0.0,
    /// ±inf and subnormals in every statistic; decimal extremes at 0 to
    /// 6 places, so the pair changes from entry to entry, with NaN
    /// payloads and −0.0 beside 0.0 among them; BP and TP at FP or LP,
    /// and value ties at another time (which stay interior); chunks of
    /// one point; series ids from 0 with gaps, and `supersedes` rising
    /// and falling from one run to the next.
    #[test]
    fn footer_roundtrips_bit_exactly(
        runs in prop::collection::vec(
            (
                0u32..1_000,
                prop_oneof![0u64..3, any::<u64>()],
                prop::collection::vec(
                    (
                        any::<u64>(),
                        0u8..4,
                        0i32..7,
                        prop::collection::vec((any_time(), any::<u64>()), 1..10),
                    ),
                    0..10,
                ),
            ),
            1..5,
        ),
    ) {
        let mut series = None;
        let runs: Vec<Run> = runs
            .into_iter()
            .map(|(gap, supersedes, chunks)| {
                let id = series.map_or(gap, |s: u32| s + 1 + gap);
                series = Some(id);
                let chunks: Vec<Chunk> = chunks
                    .into_iter()
                    .map(|(version, shape, places, raw)| {
                        let mut points: Vec<Point> = raw
                            .into_iter()
                            .map(|(t, bits)| Point::new(t, stat_value(shape, places, bits)))
                            .collect();
                        points.sort_by_key(|p| p.t);
                        points.dedup_by_key(|p| p.t);
                        (version, points)
                    })
                    .collect();
                // A run with no chunk must supersede something.
                (id, supersedes.max(u64::from(chunks.is_empty())), chunks)
            })
            .collect();
        let footer = footer_of(&runs);
        let back = FileFooter::decode_body(&footer.encode_body()).unwrap();
        prop_assert_eq!(footer_bits(&back), footer_bits(&footer));
        prop_assert_eq!(back.data_end(), footer.data_end());
    }
}

/// One chunk of a run that follows the chunk before it: `(count,
/// cadence, jitter, value shape, places, seed)`.
type Follower = (u64, i64, i64, u8, i32, u64);

/// A chunk count that often repeats the one before, or any up to 40.
fn follower_count() -> impl Strategy<Value = u64> {
    prop_oneof![Just(10u64), Just(20), 1u64..40]
}

/// A cadence that often repeats, is small, or is wide enough that
/// predicted spans and times wrap.
fn follower_cadence() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(1_000i64),
        1i64..10,
        1i64..1_000_000,
        (1i64 << 40)..i64::MAX,
    ]
}

/// The points of a run of `followers` from `start`: each chunk one
/// cadence past the last point of the one before, its points on its
/// own cadence give or take its jitter (times wrap at the `i64`
/// extremes, then are sorted and deduplicated); its values by shape —
/// a decimal ramp at `places` that continues across the run, a
/// quarter-unit sawtooth whose wraps are interior extremes, any
/// statistic value, one special repeated, or full-precision bits.
fn follower_run(start: i64, followers: &[Follower]) -> Vec<Chunk> {
    let (mut next, mut at) = (start, 0i64);
    let mut chunks = Vec::new();
    for (version, &(count, cadence, jitter, shape, places, seed)) in followers.iter().enumerate() {
        let mut draw = splitmix(seed);
        let mut points: Vec<Point> = (0..count as i64)
            .map(|i| {
                let wobble = (draw() % (2 * jitter as u64 + 1)) as i64 - jitter;
                let t = next
                    .wrapping_add(i.wrapping_mul(cadence))
                    .wrapping_add(wobble);
                let g = at + i;
                let v = match shape {
                    0 => (1_234 + 37 * g) as f64 / 10f64.powi(places),
                    1 => ((7 * g).rem_euclid(2_000) - 1_000) as f64 * 0.25,
                    2 => stat_value((seed % 4) as u8, places, draw()),
                    3 => f64::from_bits(SPECIALS[seed as usize % SPECIALS.len()]),
                    _ => f64::from_bits(draw()),
                };
                Point::new(t, v)
            })
            .collect();
        points.sort_by_key(|p| p.t);
        points.dedup_by_key(|p| p.t);
        next = points.last().map_or(next, |p| p.t.wrapping_add(cadence));
        at += count as i64;
        chunks.push((version as u64, points));
    }
    chunks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every prediction a footer entry is coded against gives back
    /// every bit: runs at a constant cadence and count, a cadence or a
    /// count that changes mid-run, jittered spans, runs that start
    /// before or after the run before them (or anywhere), times near
    /// `i64::MIN` and `i64::MAX` so predicted times and spans wrap,
    /// NaN payloads, ±inf, −0.0 and full-precision values (XOR), and
    /// decimal ramps whose pair changes from chunk to chunk.
    #[test]
    fn footer_predictions_roundtrip_bit_exactly(
        runs in prop::collection::vec(
            (
                prop_oneof![-1_000_000i64..1_000_000, any_time()],
                prop::collection::vec(
                    (follower_count(), follower_cadence(), 0i64..3, 0u8..5, 0i32..4, any::<u64>()),
                    1..6,
                ),
            ),
            1..5,
        ),
    ) {
        let mut start = 0i64;
        let runs: Vec<Run> = runs
            .iter()
            .enumerate()
            .map(|(id, (shift, followers))| {
                start = start.wrapping_add(*shift);
                (id as u32, 0, follower_run(start, followers))
            })
            .collect();
        let footer = footer_of(&runs);
        let back = FileFooter::decode_body(&footer.encode_body()).unwrap();
        prop_assert_eq!(footer_bits(&back), footer_bits(&footer));
    }

    /// An entry that continues its predecessor's count, cadence and
    /// slope, with its extremes at its ends, costs what a size model
    /// that knows nothing of the coder says: its head (the version step,
    /// the tags byte, the length) and one zero residual for each of the
    /// count, FP.t, the span, FP.d and LP.d — or two one-byte XORs where
    /// the values stand still — at most 8 bytes. That holds where the
    /// predecessor's values were decimal, so it carries their pair; an
    /// entry after XOR values pays the pair's two bytes at most on top.
    /// The values are integers, so every decimal entry takes one pair.
    #[test]
    fn a_continuing_entry_costs_at_most_eight_bytes(
        count in 2usize..=120,
        cadence in 1i64..1_000_000,
        t0 in -1_000_000_000i64..1_000_000_000,
        d0 in -1_000_000i64..1_000_000,
        slope in -1_000i64..1_000,
        chunks in 2usize..6,
    ) {
        let points: Vec<Point> = (0..(count * chunks) as i64)
            .map(|i| Point::new(t0 + i * cadence, (d0 + slope * i) as f64))
            .collect();
        let census = |n: usize| {
            let run: Vec<Chunk> = points
                .chunks(count)
                .take(n)
                .enumerate()
                .map(|(k, c)| (k as u64, c.to_vec()))
                .collect();
            footer_of(&[(0, 0, run)]).census()
        };
        // A varint's bytes, 7 bits to a byte; the step 1 zigzags to 2.
        let varint_len = |v: u64| (64 - v.leading_zeros()).max(1).div_ceil(7) as usize;
        let model = varint_len(2) + 1 + varint_len(count as u64 + 7) + 5;
        prop_assert!(model <= 8);
        for n in 2..=chunks {
            let (before, after, with) = (census(n - 2), census(n - 1), census(n));
            let cost = with.index_bytes - after.index_bytes;
            match slope == 0 || after.decimal > before.decimal {
                true => prop_assert_eq!(cost, model, "entry {}", n),
                false => prop_assert!(cost <= model + 2, "entry {}: {}", n, cost),
            }
        }
    }
}

/// A page body's two columns: `(ts bytes, value bytes)`.
fn columns(body: &[u8]) -> (&[u8], &[u8]) {
    // Modes; varint ts_len and the ts bytes, unless the timestamps are
    // a constant delta (bit 0: no bytes); the values up to the CRC. A
    // bodiless page has neither.
    if body.is_empty() {
        return (&[], &[]);
    }
    let values_end = body.len() - 4;
    if body[0] & 1 == 1 {
        return (&[], &body[1..values_end]);
    }
    let mut pos = 1;
    let ts_len = varint::read_u64(body, &mut pos).unwrap() as usize;
    (&body[pos..pos + ts_len], &body[pos + ts_len..values_end])
}

/// Whether `ts` runs in equal steps whose span `LP.t − FP.t` fits an
/// `i64`: the timestamps a page derives from its statistics.
fn derivable(ts: &[i64]) -> bool {
    let delta = ts.get(1).map_or(0, |t| t.wrapping_sub(ts[0]));
    let equal = ts.windows(2).all(|w| w[1].wrapping_sub(w[0]) == delta);
    let steps = ts.len() as i64 - 1;
    equal
        && ts[ts.len() - 1]
            .checked_sub(ts[0])
            .is_some_and(|span| Some(span) == delta.checked_mul(steps))
}

/// Whether `vs` are one bit pattern throughout, or the doubles nearest
/// `(d0 + i·δ) / 10^k` for some scale `k` and integers `d0`, `δ`: the
/// values a page may leave to its statistics.
fn a_decimal_line(vs: &[f64]) -> bool {
    let (first, last, steps) = (vs[0], vs[vs.len() - 1], vs.len() as i64 - 1);
    if vs.iter().all(|v| v.to_bits() == first.to_bits()) {
        return true;
    }
    (0..=18).any(|k| {
        let p: f64 = format!("1e{k}").parse().unwrap();
        let (d0, span) = (
            (first * p).round() as i64,
            (last * p).round() as i64 - (first * p).round() as i64,
        );
        steps > 0
            && span % steps == 0
            && vs
                .iter()
                .enumerate()
                .all(|(i, v)| ((d0 + span / steps * i as i64) as f64 / p).to_bits() == v.to_bits())
    })
}

/// Encode `points` as a page and check it decodes to the same bits.
/// The decimal block a page holds for `vs` (empty for none): of the
/// three standalone frames, the first of the smallest once the delta
/// frame's head (FP.v's integer, after the `e` and `f` bytes) is left
/// out.
fn page_block(vs: &[f64]) -> Vec<u8> {
    let frame = |f: Framing| {
        let mut b = Vec::new();
        decimal::encode_values_in(vs, f, &mut b).then_some(b)
    };
    let delta = frame(Framing::Delta).map(|b| {
        let mut pos = 2;
        varint::read_i64(&b, &mut pos).unwrap();
        [&b[..2], &b[pos..]].concat()
    });
    [frame(Framing::Reference), delta, frame(Framing::Line)]
        .into_iter()
        .flatten()
        .reduce(|best, next| if next.len() < best.len() { next } else { best })
        .unwrap_or_default()
}

fn page_roundtrip(points: &[Point]) -> (Vec<u8>, PageMeta) {
    let mut body = Vec::new();
    encode_page(
        points,
        EncodingKind::Ts2Diff,
        EncodingKind::Gorilla,
        &mut body,
    );
    let meta = PageMeta {
        offset: 0,
        byte_len: body.len() as u64,
        stats: ChunkStatistics::from_points(points).unwrap(),
    };
    verify_page_body(&body, &meta).unwrap();
    let back = decode_page(&body, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta).unwrap();
    assert_eq!(back.len(), points.len());
    for (a, b) in points.iter().zip(&back) {
        assert_eq!((a.t, a.v.to_bits()), (b.t, b.v.to_bits()));
    }
    (body, meta)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever a page holds, it decodes to the same bits, and neither
    /// column the page chose is larger than the packed form — no bytes
    /// for timestamps its statistics give back; the decimal block where
    /// it is no larger than the packed values — computed here from the
    /// public kernels. A form costs no byte: it is a bit of the modes
    /// byte.
    #[test]
    fn pages_roundtrip_bitwise_and_never_outgrow_the_stream(
        shape in 0u8..11,
        ts_shape in 0u8..5,
        precision in 0u32..=6,
        len in 1usize..1_200,
        seed in any::<u64>(),
    ) {
        let vs = page_values(shape, precision, len, seed);
        let ts = page_timestamps(ts_shape, len, seed);
        let points: Vec<Point> = ts.iter().zip(&vs).map(|(&t, &v)| Point::new(t, v)).collect();
        let (body, meta) = page_roundtrip(&points);
        let (ts_col, val_col) = columns(&body);
        let forms = forms(&body).unwrap();

        // Timestamps: nothing when the statistics give them back, else
        // the packed column, never larger than its delta frame (the
        // standalone column less its head), whichever frame it takes.
        let mut delta_frame = Vec::new();
        packed::encode_timestamps(&ts, &mut delta_frame);
        let delta_len = delta_frame.len() - varint::len_u64(varint::zigzag(ts[0]));
        match forms.timestamps {
            TsForm::Constant => prop_assert!(derivable(&ts) && ts_col.is_empty()),
            TsForm::Packed => {
                prop_assert!(!derivable(&ts));
                prop_assert!(ts_col.len() <= delta_len, "{} > {}", ts_col.len(), delta_len);
                if ts_framing(&body).unwrap() == Some(Framing::Delta) {
                    prop_assert_eq!(ts_col, &delta_frame[delta_frame.len() - delta_len..]);
                }
            }
        }

        // Values: the block, unless the packed deltas are smaller (the
        // standalone column less its 8-byte head).
        let mut standalone = Vec::new();
        packed::encode_values(&vs, &mut standalone);
        let packed_len = standalone.len() - 8;
        if forms.values != ValueForm::Packed {
            prop_assert!(val_col.len() <= packed_len, "{} > {}", val_col.len(), packed_len);
        }
        let block = page_block(&vs);
        let has_block = !block.is_empty();
        match forms.values {
            ValueForm::Decimal => prop_assert_eq!(val_col, &block[..]),
            ValueForm::Packed => {
                prop_assert!(!has_block || val_col.len() < block.len(), "{} >= {}", val_col.len(), block.len());
            }
            ValueForm::Implied => {
                // No bytes, where the page without the form held a
                // modes byte, a value column at least as large as the
                // smaller of the two others, and a CRC.
                prop_assert!(a_decimal_line(&vs) && val_col.is_empty());
                let without = packed_len.min(if has_block { block.len() } else { usize::MAX });
                let ts_part = if ts_col.is_empty() { 0 } else { varint::len_u64(ts_col.len() as u64) + ts_col.len() };
                prop_assert!(body.len() < 5 + ts_part + without, "{} bytes", body.len());
            }
        }
        // A page of constant timestamps and implied values has no body.
        let bodiless = forms.timestamps == TsForm::Constant && forms.values == ValueForm::Implied;
        prop_assert_eq!(body.is_empty(), bodiless);
        if shape == 3 {
            prop_assert!(forms.values != ValueForm::Decimal, "an all-exception page went decimal");
        }
        // A decimal ramp or counter stores its deltas, unless no pair
        // of its scale recovers every value (the delta frame holds no
        // exception), or its ends imply every value.
        let implied = forms.values == ValueForm::Implied;
        if (8..=9).contains(&shape) && len >= 64 && !implied && decimal::encode_values_in(&vs, Framing::Delta, &mut Vec::new()) {
            prop_assert_eq!(decimal_framing(&body).unwrap(), Some(Framing::Delta));
        }

        // A cadence jittered around its grid stores its residuals from
        // the cadence line, 3 bits a point after a header of at most
        // 7 B (width, slope, base, exception count), where its deltas
        // take 4.
        if ts_shape == 4 && len >= 100 {
            prop_assert_eq!(ts_framing(&body).unwrap(), Some(Framing::Line));
            prop_assert!(ts_col.len() <= (3 * (len - 1)).div_ceil(8) + 7, "{} bytes", ts_col.len());
        }

        partial_scans_stop_past_the_limit(&body, &meta, &ts)?;
    }

    /// Equal deltas from anywhere, up to the `i64` limits: the page
    /// derives its timestamps from its statistics — no bytes — exactly
    /// when the span `LP.t − FP.t` fits an `i64`, and past that stores
    /// the packed deltas, wrapping. Either way it decodes to the same
    /// bits, with a NaN payload, a signed zero, an infinity or another
    /// special as its first value, and a partial scan stops at the
    /// first timestamp past its limit — inside the derived column too.
    #[test]
    fn equal_deltas_derive_their_column_only_where_the_span_fits(
        n in 1usize..48,
        delta in prop_oneof![1i64..1_000, (i64::MAX / 64)..=i64::MAX, any::<i64>()],
        anchor in prop_oneof![Just(i64::MIN), Just(i64::MAX), any::<i64>(), -1_000i64..1_000],
        anchor_is_last in any::<bool>(),
        special in 0usize..12,
        seed in any::<u64>(),
    ) {
        let steps = delta.wrapping_mul(n as i64 - 1);
        let first = if anchor_is_last { anchor.wrapping_sub(steps) } else { anchor };
        let ts: Vec<i64> = (0..n as i64).map(|i| first.wrapping_add(delta.wrapping_mul(i))).collect();
        let mut vs = page_values(7, 0, n, seed);
        vs[0] = f64::from_bits(SPECIALS[special]);
        let points: Vec<Point> = ts.iter().zip(&vs).map(|(&t, &v)| Point::new(t, v)).collect();
        let (body, meta) = page_roundtrip(&points);
        let fits = ts[n - 1].checked_sub(ts[0]).is_some_and(|span| Some(span) == delta.checked_mul(n as i64 - 1));
        prop_assert_eq!(forms(&body).unwrap().timestamps == TsForm::Constant, fits);
        prop_assert_eq!(fits, derivable(&ts));
        partial_scans_stop_past_the_limit(&body, &meta, &ts)?;
    }
}

/// The most bytes a page body of `n` points takes. A column is at most
/// its packed block (the line frame is kept only where smaller than the
/// delta frame, the decimal block and implied values only where no
/// larger than the packed values). The block's window is chosen at the
/// least charge, and a charge is at most that of `n − 1` slots of 64
/// bits; the charge counts an exception's distance from the window's
/// centre, and its distance from the base takes at most one byte more.
/// So a block is at most `8·(n − 1)` bytes, one byte an exception (at
/// most `n − 1` of them), a width byte, a base of at most 10 varint
/// bytes and a count of at most 3: `9·(n − 1) + 14`. With the timestamp
/// column's length (at most 4 varint bytes: such a block of at most
/// 2^20 points is under 2^28 bytes), the modes byte and the CRC:
/// `18·(n − 1) + 37`.
fn page_bound(n: usize) -> usize {
    18 * (n - 1) + 2 * 14 + 4 + 1 + 4
}

/// A page whose value keys step by `±(2^62 − 1)` from a centre on 710
/// of their 1 000 deltas and sit at the centre or one below it on the
/// rest: the window at width 1 charges each far delta 9 bytes of
/// distance where its distance from the base takes 10, so its block
/// (8 205 B, 710 exceptions) outgrows its 1 000 64-bit slots and their
/// header (8 012 B) — and stays within [`page_bound`].
#[test]
fn a_window_that_outgrows_64_bit_slots_stays_within_the_bound() {
    let (n, far) = (1_000usize, 710usize); // deltas, and those far out
    let (centre, step) = (12_345i64, (1i64 << 62) - 1);
    let far_deltas = (0..far).map(|i| {
        if i % 2 == 0 {
            centre + step
        } else {
            centre - step
        }
    });
    let near_deltas = (0..n - far).map(|i| centre - (i % 2) as i64);
    let mut deltas: Vec<i64> = Vec::with_capacity(n);
    let (mut f, mut m) = (far_deltas, near_deltas);
    for i in 0..n {
        // Spread the near deltas through the column, so the sample
        // that centres the window sees them.
        let next = if (i * (n - far)) % n < n - far {
            m.next()
        } else {
            None
        };
        deltas.extend(next.or_else(|| f.next()).or_else(|| m.next()));
    }
    // A key's inverse is itself: its bits with the low 63 flipped when
    // the sign is set.
    let unkey = |k: i64| f64::from_bits(k as u64 ^ (((k >> 63) as u64) >> 1));
    let mut key = 0i64;
    let points: Vec<Point> = std::iter::once(0)
        .chain(deltas.iter().copied())
        .enumerate()
        .map(|(t, d)| {
            key = key.wrapping_add(d);
            Point::new(t as i64, unkey(key))
        })
        .collect();
    let (body, _) = page_roundtrip(&points);
    assert_eq!(forms(&body).unwrap().values, ValueForm::Packed);
    assert!(
        body.len() <= page_bound(points.len()),
        "{} bytes",
        body.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every page takes one of the forms — constant or packed
    /// timestamps; decimal, packed or implied values — whatever it
    /// holds: sorted timestamps over the whole `i64` range, repeats and
    /// deltas past `i64::MAX` included, and arbitrary value bits (NaN
    /// payloads, ±∞, −0.0, subnormals). It decodes bit for bit, passes
    /// the copy gate, and is no larger than [`page_bound`].
    #[test]
    fn every_page_takes_a_form_within_the_page_bound(
        mut ts in prop::collection::vec(
            prop_oneof![any::<i64>(), Just(i64::MIN), Just(i64::MAX), -4i64..4],
            1..300,
        ),
        bits in prop::collection::vec(
            prop_oneof![
                any::<u64>(),
                (0usize..12).prop_map(|i| SPECIALS[i]),
                0u64..4,
                Just(0x8000_0000_0000_0000u64),
            ],
            300,
        ),
    ) {
        ts.sort_unstable();
        let points: Vec<Point> = ts
            .iter()
            .zip(&bits)
            .map(|(&t, &b)| Point::new(t, f64::from_bits(b)))
            .collect();
        let (body, meta) = page_roundtrip(&points);
        let bound = page_bound(points.len());
        prop_assert!(body.len() <= bound, "{} bytes for {} points", body.len(), points.len());
        let stamps = decode_page_timestamps(&body, EncodingKind::Ts2Diff, &meta, None).unwrap();
        prop_assert_eq!(stamps, ts);
    }
}

/// A page of `len` values its ends imply, in one of four shapes: a ramp
/// in quarter steps or in hundredths (the first value showing the
/// ramp's two decimals, as a reading would), one repeated decimal, or
/// one repeated NaN, −0.0 or ±∞ (`special`).
fn implied_values(shape: u8, len: usize, start: i64, step: i64, special: usize) -> Vec<f64> {
    const REPEATED: [u64; 4] = [
        0x7ff8_0000_0000_0001,
        0x8000_0000_0000_0000,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
    ];
    (0..len as i64)
        .map(|i| match shape {
            0 => (2 * start + 1 + i * step) as f64 / 4.0,
            1 => (10 * start + 3 + i * step) as f64 / 100.0,
            2 => start as f64 / 100.0,
            _ => f64::from_bits(REPEATED[special]),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A page whose values are the ones its ends imply stores no value
    /// bytes — and on a regular cadence no body at all — and decodes
    /// to the same bits from the footer's statistics alone. With one
    /// value's lowest bit flipped (one ULP away, or another NaN) the
    /// page stores its values.
    #[test]
    fn implied_values_take_no_bytes_and_a_nudged_value_breaks_them(
        shape in 0u8..4,
        len in 2usize..1_200,
        start in -100_000i64..100_000,
        step in prop_oneof![1i64..400, -400i64..0],
        special in 0usize..4,
        ts_shape in 0u8..5,
        nudge in any::<prop::sample::Index>(),
        seed in any::<u64>(),
    ) {
        let vs = implied_values(shape, len, start, step, special);
        let ts = page_timestamps(ts_shape, len, seed);
        let points: Vec<Point> = ts.iter().zip(&vs).map(|(&t, &v)| Point::new(t, v)).collect();
        let (body, _) = page_roundtrip(&points);
        let got = forms(&body).unwrap();
        prop_assert_eq!(got.values, ValueForm::Implied);
        prop_assert_eq!(body.is_empty(), got.timestamps == TsForm::Constant);

        let mut nudged = points;
        let at = nudge.index(len);
        nudged[at].v = f64::from_bits(nudged[at].v.to_bits() ^ 1);
        let (body, _) = page_roundtrip(&nudged);
        prop_assert!(forms(&body).unwrap().values != ValueForm::Implied, "nudged at {}", at);
    }
}

/// Values a drifting register's page mixes in that no decimal block
/// holds as an integer: a NaN payload, −0.0, ±inf and a full-precision
/// value.
const DRIFT_EXCEPTIONS: [u64; 5] = [
    0x7ff8_0000_0000_0001,
    0x8000_0000_0000_0000,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x4069_1e6a_9b2f_1c3d,
];

/// A register that drifts while it jitters: `len` values at `decimals`
/// places, `⌊slope·i / 1000⌋ + noise` units from a level drawn from
/// `seed`, the noise uniform over `0..=noise` units, with `exceptions`
/// values replaced by [`DRIFT_EXCEPTIONS`] at positions drawn from
/// `seed`.
fn drifting(
    len: usize,
    decimals: u32,
    slope: i64,
    noise: u64,
    exceptions: usize,
    seed: u64,
) -> Vec<f64> {
    let mut next = splitmix(seed);
    let scale = 10f64.powi(decimals as i32);
    let level = (next() % 2_000_000) as i64 - 1_000_000;
    let mut vs: Vec<f64> = (0..len as i64)
        .map(|i| {
            let jitter = (next() % (noise + 1)) as i64;
            (level + (slope * i).div_euclid(1_000) + jitter) as f64 / scale
        })
        .collect();
    for k in 0..exceptions {
        let at = (next() % len as u64) as usize;
        vs[at] = f64::from_bits(DRIFT_EXCEPTIONS[k % DRIFT_EXCEPTIONS.len()]);
    }
    vs
}

/// `block` verifies and decodes to `vs`, bit for bit.
fn decodes_bit_exact(block: &[u8], vs: &[f64]) -> Result<(), TestCaseError> {
    decimal::verify(block, vs.len(), None).unwrap();
    let back = decimal::decode(block, vs.len(), None).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&back), bits(vs));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A drifting register's decimal block is the smallest of the three
    /// frames, each sized exactly — ties to the earlier of reference,
    /// delta, line — and every frame decodes bit-exact. A flat page
    /// keeps the frame of reference and an exception-free ramp the delta
    /// frame, byte for byte.
    #[test]
    fn drifting_registers_take_the_smallest_of_three_frames(
        len in 1usize..1_500,
        decimals in 2u32..=4,
        slope in prop_oneof![Just(0i64), -40_000i64..40_000, (-40i64..40).prop_map(|s| s * 1_000)],
        noise in prop_oneof![Just(0u64), 0u64..8, 0u64..2_000],
        exceptions in prop_oneof![Just(0usize), 0usize..4],
        seed in any::<u64>(),
    ) {
        let vs = drifting(len, decimals, slope, noise, exceptions, seed);
        let mut block = Vec::new();
        if !decimal::encode_values(&vs, &mut block) {
            // Only a page of exceptions, or one whose sample misses
            // too often, stays out of a block.
            prop_assert!(exceptions > 0);
            return Ok(());
        }
        decodes_bit_exact(&block, &vs)?;
        let framed = [Framing::Reference, Framing::Delta, Framing::Line].map(|f| {
            let mut b = Vec::new();
            decimal::encode_values_in(&vs, f, &mut b).then_some((f, b))
        });
        for (f, b) in framed.iter().flatten() {
            decodes_bit_exact(b, &vs)?;
            prop_assert_eq!(decimal::framing(b).unwrap(), *f);
        }
        // The plan's pair can fail a value its sample missed: then
        // that value is an exception, and no delta frame exists.
        let has_delta = framed[1].is_some();
        let smallest = framed
            .iter()
            .flatten()
            .reduce(|best, next| if next.1.len() < best.1.len() { next } else { best })
            .unwrap();
        prop_assert_eq!(&block, &smallest.1, "the first smallest is {:?}", smallest.0);
        let exact = exceptions == 0 || vs.iter().all(|v| v.is_finite() && v.to_bits() >> 63 == 0);
        if noise == 0 && slope == 0 && exact {
            prop_assert_eq!(decimal::framing(&block).unwrap(), Framing::Reference);
        }
        // A ramp: its deltas are one integer, zero bits.
        if noise == 0 && slope != 0 && slope % 1_000 == 0 && has_delta && len >= 64 {
            prop_assert_eq!(decimal::framing(&block).unwrap(), Framing::Delta);
        }
    }
}

/// A partial timestamp scan of the page returns its timestamps up to
/// the first past the limit, that one included, whatever the page's
/// form: at limits around every sixteenth of its timestamps and at the
/// `i64` extremes.
fn partial_scans_stop_past_the_limit(
    body: &[u8],
    meta: &PageMeta,
    ts: &[i64],
) -> Result<(), TestCaseError> {
    let step = (ts.len() / 16).max(1);
    let limits = ts
        .iter()
        .step_by(step)
        .flat_map(|&t| [t.wrapping_sub(1), t, t.wrapping_add(1)]);
    for limit in limits.chain([i64::MIN, i64::MAX]) {
        let got = decode_page_timestamps(body, EncodingKind::Ts2Diff, meta, Some(limit)).unwrap();
        let end = ts
            .iter()
            .position(|&t| t > limit)
            .map_or(ts.len(), |i| i + 1);
        let want = &ts[..end];
        prop_assert_eq!(got, want, "limit {}", limit);
    }
    Ok(())
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
    let (body, _) = page_roundtrip(&points);
    assert_eq!(forms(&body).unwrap().timestamps, TsForm::Packed);
    assert_eq!(columns(&body).0[0], 0, "width");

    // Deltas of every magnitude: width 64, no exception.
    let mut next = splitmix(3);
    let wide: Vec<Point> = walk.iter().map(|&v| Point::new(next() as i64, v)).collect();
    let (body, _) = page_roundtrip(&wide);
    assert_eq!(forms(&body).unwrap().timestamps, TsForm::Packed);
    assert_eq!(columns(&body).0[0], 64, "width");

    // Equal full-precision values: implied by FP.v, no bytes; with a
    // wild first and last one, packed at width 0, the two its
    // exceptions.
    let mut flat: Vec<Point> = (0..300)
        .map(|i| Point::new(i * 10, std::f64::consts::PI))
        .collect();
    let (body, _) = page_roundtrip(&flat);
    assert_eq!(forms(&body).unwrap().values, ValueForm::Implied);
    assert!(body.is_empty(), "{} bytes", body.len());
    flat[0].v = f64::from_bits(0xfff8_dead_beef_0000);
    flat[299].v = -0.0;
    let (body, _) = page_roundtrip(&flat);
    assert_eq!(forms(&body).unwrap().values, ValueForm::Packed);
    assert_eq!(columns(&body).1[0], 0, "width");

    // Every special as the first value of a packed value column: the
    // head is FP.v, bit-exact, from the statistics.
    for bits in SPECIALS {
        let mut points = points.clone();
        points[0].v = f64::from_bits(bits);
        let (body, _) = page_roundtrip(&points);
        assert_eq!(forms(&body).unwrap().values, ValueForm::Packed, "{bits:#x}");
    }

    // One point: its time and value are the statistics' FP, so the page
    // has no body, where its packed value column was an empty block
    // (3 bytes) beside a modes byte and a CRC.
    let (body, _) = page_roundtrip(&[Point::new(-7, f64::NAN)]);
    let forms = forms(&body).unwrap();
    assert_eq!(
        (forms.timestamps, forms.values),
        (TsForm::Constant, ValueForm::Implied)
    );
    assert!(body.is_empty(), "{} bytes", body.len());
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

/// The block the raw-word layout (`TSF7`) wrote for `deltas`, modelled:
/// the same window choice, charging each delta outside it 80 bits, each
/// listed as its position and its raw 8-byte word. Its size, its base,
/// and its exceptions.
fn tsf7_block(deltas: &[i64]) -> (usize, i64, Vec<i64>) {
    let n = deltas.len();
    let step = (n / 15) | 1;
    let mut sample: Vec<i64> = deltas.iter().step_by(step).take(15).copied().collect();
    sample.sort_unstable();
    let centre = sample.get(sample.len() / 2).copied().unwrap_or(0);
    let bits = |d: i64| 64 - varint::zigzag(d.saturating_sub(centre)).leading_zeros() as usize;
    let mut counts = [0usize; 65];
    for &d in deltas {
        counts[bits(d)] += 1;
    }
    let mut outside = n - counts[0];
    let mut best = (outside * 80, 0);
    for (w, &count) in counts.iter().enumerate().skip(1) {
        outside -= count;
        if n * w + outside * 80 < best.0 {
            best = (n * w + outside * 80, w);
        }
    }
    let kept: Vec<i64> = deltas
        .iter()
        .copied()
        .filter(|&d| bits(d) <= best.1)
        .collect();
    let (lo, hi) = (kept.iter().min(), kept.iter().max());
    let (base, width) = match lo.zip(hi) {
        Some((&lo, &hi)) => (
            lo,
            64 - (hi.wrapping_sub(lo) as u64).leading_zeros() as usize,
        ),
        None => (0, 0),
    };
    let mut list = 0;
    let mut exceptions = Vec::new();
    for (i, &d) in deltas
        .iter()
        .enumerate()
        .filter(|&(_, &d)| bits(d) > best.1)
    {
        list += varint::len_u64(i as u64) + 8;
        exceptions.push(d);
    }
    let size = 1
        + varint::len_u64(varint::zigzag(base))
        + (n * width).div_ceil(8)
        + varint::len_u64(exceptions.len() as u64)
        + list;
    (size, base, exceptions)
}

/// Deltas around a cadence, with outliers of any size (`i64::MIN` and
/// `i64::MAX` among them, whose distance from the base wraps) at drawn
/// positions (one in `every`, drawn), the first and the last delta
/// always among them.
fn outlier_deltas(cadence: i64, spread: u32, len: usize, every: usize, seed: u64) -> Vec<i64> {
    let mut next = splitmix(seed);
    (0..len)
        .map(|i| {
            match (
                i == 0 || i + 1 == len || next().is_multiple_of(every as u64),
                next() % 6,
            ) {
                (true, 0) => i64::MIN,
                (true, 1) => i64::MAX,
                (true, 2) => cadence.wrapping_add(next() as i64 >> (next() % 40)),
                (true, _) => cadence.wrapping_sub(1 << (20 + next() % 42)),
                (false, _) => cadence + (next() % (1 << spread)) as i64,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Window exceptions round-trip bit-exactly, standalone and in a
    /// page — at the first and the last delta, at `i64::MIN` and
    /// `i64::MAX` (distances from the base that wrap), and 128 or more
    /// of them (two-byte positions) — and the block is never larger than
    /// the raw-word layout's twin, but by up to 2 bytes for each of the
    /// twin's exceptions whose zigzagged distance from its base is 2^56
    /// or more (an entry of nine or ten varint bytes).
    #[test]
    fn window_exceptions_cost_their_distance(
        cadence in -1_000_000i64..1_000_000,
        spread in 0u32..12,
        len in 2usize..2_500,
        every in 2usize..20,
        seed in any::<u64>(),
    ) {
        let deltas = outlier_deltas(cadence, spread, len, every, seed);
        let t0 = 1_600_000_000_000i64;
        let ts: Vec<i64> = std::iter::once(t0)
            .chain(deltas.iter().scan(t0, |t, &d| { *t = t.wrapping_add(d); Some(*t) }))
            .collect();
        let mut col = Vec::new();
        packed::encode_timestamps(&ts, &mut col);
        prop_assert_eq!(packed::decode_timestamps(&col, ts.len(), None).unwrap(), ts.clone());
        let block = col.len() - varint::len_u64(varint::zigzag(t0));
        let (twin, base, exceptions) = tsf7_block(&deltas);
        let far = exceptions
            .iter()
            .filter(|&&e| varint::zigzag(e.wrapping_sub(base)) >= 1 << 56)
            .count();
        prop_assert!(block <= twin + 2 * far, "{block} B against {twin} B ({far} far)");
        if len / every >= 200 && every >= 8 {
            prop_assert!(exceptions.len() >= 128, "{} exceptions", exceptions.len());
        }
        // In a page (time-sorted, its timestamps' every form), the page
        // decodes bit-exactly and passes the copy gate.
        let points: Vec<Point> = ts.iter().map(|&t| Point::new(t, 2.5)).collect();
        if points.windows(2).all(|p| p[0].t < p[1].t) {
            page_roundtrip(&points);
        }
    }
}

/// A decimal delta frame in a page leaves its head to FP.v: the fleet's
/// register — quarter units rising 0.25 a point, one wrap — stores the
/// standalone block less FP.v's integer, and reads back bit-exactly;
/// the wrap is one exception: a position and a three-byte distance.
#[test]
fn a_decimal_delta_page_takes_its_head_from_fp() {
    for (start, n) in [(1_500i64, 1_024i64), (1_990, 20), (-3, 300)] {
        let points: Vec<Point> = (0..n)
            .map(|i| {
                Point::new(
                    i * 1_000,
                    (((start + i) % 2_000 + 2_000) % 2_000 - 1_000) as f64 * 0.25,
                )
            })
            .collect();
        let vs: Vec<f64> = points.iter().map(|p| p.v).collect();
        let (body, meta) = page_roundtrip(&points);
        assert_eq!(
            decimal_framing(&body).unwrap(),
            Some(Framing::Delta),
            "start {start}"
        );
        let mut standalone = Vec::new();
        assert!(decimal::encode_values_in(
            &vs,
            Framing::Delta,
            &mut standalone
        ));
        let mut pos = 2;
        let d0 = varint::read_i64(&standalone, &mut pos).unwrap();
        let (_, val_col) = columns(&body);
        assert_eq!(val_col, [&standalone[..2], &standalone[pos..]].concat());
        assert_eq!(d0, (vs[0] * 100.0) as i64, "the head is FP.v's integer");
        let [k, list, head] = tsfile::page::window_exceptions(&body, &meta).unwrap();
        assert_eq!((k, head), (1, pos - 2));
        assert!(list <= 2 + 3, "{list} B");
    }
}
