//! Decode-kernel microbenchmark: word-at-a-time codecs vs the retained
//! scalar references, plus buffer-pool effectiveness on real page reads.
//!
//! Not a paper artifact — this measures the substrate the read path
//! stands on. Each row decodes one encoded stream with the production
//! (batched) kernel and with the scalar reference oracle kept in
//! `tsfile::encoding::reference`, reporting decoded points/sec for
//! both, the ratio, and an `equivalent` flag (outputs compared
//! bit-exactly). The headline invariants are hardware-independent:
//! outputs must match, and the batched kernel must not be slower than
//! the reference *in the same run* — that pair is what the bench-smoke
//! CI gate checks. Plain-encoding rows are context: they share one
//! kernel, so their ratio is ~1 by construction.
//!
//! The pool section writes a small multi-chunk TsFile and re-reads its
//! chunks repeatedly, reporting the process-wide buffer-pool hit/miss
//! delta: a warm steady-state read path must show hits.
//!
//! The write path's two kernels ride along under the same rule (bit
//! equality, and not slower than the reference in the same run): the
//! slice-by-16 `tsfile::checksum::crc32` against a bitwise, table-free
//! CRC at three buffer sizes, and `tskv::memtable::MemTable` against
//! the plain `BTreeMap` it replaced, on in-order and 10 %-late input.
//!
//! The packed page forms (`tsfile::encoding::packed`) are measured
//! against the stream codecs they replace, page by page at the default
//! page size on the MF03-shaped stream: packed timestamps against
//! ts2diff on the jittered timestamps, packed values against Gorilla on
//! the sensor walk — bytes a point, encode and decode throughput, and a
//! bit-exact check. Their gate is bit-exactness and fewer bytes than
//! the stream codec. The decimal block's delta frame
//! (`tsfile::encoding::decimal`) is measured the same way on the
//! `ingest_fleet` register shape — a quarter-unit sawtooth that rises
//! one step a point and wraps every 2 000 — against Gorilla and against
//! the block's frame of reference, under the same gate; and its line
//! frame against its frame of reference on the `live_tail` register
//! shape, a slow sine under two decimals of noise.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use tsfile::checksum::crc32;
use tsfile::encoding::decimal::{self, Framing};
use tsfile::encoding::{gorilla, packed, plain, reference, ts2diff};
use tsfile::page::DEFAULT_PAGE_POINTS;
use tsfile::types::Point;
use tsfile::{TsFileReader, TsFileWriter};
use tskv::memtable::MemTable;
use workload::multiseries;
use workload::signal::Signal;
use workload::timestamps;

use crate::harness::{BenchMeta, Harness};

/// One codec/stream cell: batched vs reference decode throughput.
#[derive(Debug, Clone, Serialize)]
pub struct DecodeRow {
    pub codec: String,
    /// Stream shape ("sensor", "constant", "regular", "jitter", ...).
    pub dataset: String,
    pub n_points: usize,
    pub encoded_bytes: usize,
    /// Production kernel throughput, million points decoded per second.
    pub batched_mpoints_s: f64,
    /// Scalar reference oracle throughput in the same run.
    pub reference_mpoints_s: f64,
    /// batched / reference.
    pub speedup: f64,
    /// Batched output bit-identical to the reference output.
    pub equivalent: bool,
}

/// Buffer-pool effectiveness over the page-read exercise.
#[derive(Debug, Clone, Serialize)]
pub struct PoolSummary {
    /// Pool hit/miss deltas across the chunk re-read loop.
    pub pool_hits: u64,
    pub pool_misses: u64,
    /// hits / (hits + misses); a warm read path sits near 1.0.
    pub hit_rate: f64,
}

/// One buffer size: the production CRC32 kernel vs a bitwise reference.
#[derive(Debug, Clone, Serialize)]
pub struct CrcRow {
    pub len_bytes: usize,
    pub kernel_mb_s: f64,
    pub reference_mb_s: f64,
    /// kernel / reference.
    pub speedup: f64,
    /// Same checksum at every offset 0..16 of the shared buffer.
    pub equivalent: bool,
}

/// Insert-then-drain cost of the memtable vs a plain `BTreeMap`.
#[derive(Debug, Clone, Serialize)]
pub struct MemtableRow {
    pub n_points: usize,
    pub in_order_ns_per_point: f64,
    pub late10_ns_per_point: f64,
    pub btreemap_in_order_ns_per_point: f64,
    pub btreemap_late10_ns_per_point: f64,
    /// Drained contents equal the `BTreeMap`'s on both inputs.
    pub equivalent: bool,
}

/// One packed page form against the stream codec it replaces, both
/// coding the same stream page by page.
#[derive(Debug, Clone, Serialize)]
pub struct PackedRow {
    /// "packed-ts-i64", "packed-f64", "decimal-delta" or "decimal-line".
    pub form: String,
    /// The stream codec it is measured against.
    pub baseline: String,
    pub dataset: String,
    pub n_points: usize,
    pub bytes_per_point: f64,
    pub baseline_bytes_per_point: f64,
    /// Million points encoded / decoded per second.
    pub encode_mpoints_s: f64,
    pub baseline_encode_mpoints_s: f64,
    pub decode_mpoints_s: f64,
    pub baseline_decode_mpoints_s: f64,
    /// Both codecs decode every page to the bits it was given.
    pub bit_exact: bool,
}

/// Everything the decode experiment measures.
#[derive(Debug)]
pub struct DecodeResults {
    pub rows: Vec<DecodeRow>,
    pub packed: Vec<PackedRow>,
    pub crc32: Vec<CrcRow>,
    pub memtable: MemtableRow,
    pub pool: PoolSummary,
}

/// The document `repro --exp decode --out` writes.
#[derive(Debug, Serialize)]
pub struct DecodeReport {
    pub meta: BenchMeta,
    pub rows: Vec<DecodeRow>,
    pub packed: Vec<PackedRow>,
    pub crc32: Vec<CrcRow>,
    pub memtable: MemtableRow,
    pub pool: PoolSummary,
}

/// Median decode throughput in million points/sec. Small streams are
/// batched into enough inner iterations that each timed sample covers
/// at least ~2^16 points, keeping the timer resolution out of the
/// measurement.
fn throughput_mpoints_s<T>(h: &Harness, n: usize, mut decode_once: impl FnMut() -> T) -> f64 {
    let iters = (1usize << 16).div_ceil(n.max(1)).max(1);
    // Untimed warmup: fault in the output allocation path and let the
    // branch predictor settle, so the first timed sample is not
    // measuring the allocator instead of the kernel.
    std::hint::black_box(decode_once());
    let mut samples = Vec::with_capacity(h.repeats.max(1));
    for _ in 0..h.repeats.max(1) {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(decode_once());
        }
        let secs = start.elapsed().as_secs_f64();
        samples.push((n * iters) as f64 / secs / 1e6);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One `ingest_fleet` series' values at the harness scale: quarter
/// units rising one step a second, wrapping every 2 000.
fn fleet_stream(h: &Harness) -> Vec<f64> {
    let n = ((4_000_000.0 * h.scale) as usize).max(4096);
    (0..n as i64)
        .map(|i| multiseries::value_at(1, i * multiseries::DELTA_MS))
        .collect()
}

/// A standalone decimal block's values (its delta frame carries its head).
fn decode_standalone(block: &[u8], n: usize) -> tsfile::Result<Vec<f64>> {
    decimal::decode(block, n, None)
}

/// The decimal block in its delta frame.
fn decimal_delta(vs: &[f64], out: &mut Vec<u8>) {
    decimal::encode_values_in(vs, Framing::Delta, out);
}

/// The decimal block in its frame of reference.
fn decimal_reference(vs: &[f64], out: &mut Vec<u8>) {
    decimal::encode_values_in(vs, Framing::Reference, out);
}

/// The decimal block in its line frame.
fn decimal_line(vs: &[f64], out: &mut Vec<u8>) {
    decimal::encode_values_in(vs, Framing::Line, out);
}

/// A `live_tail` register at the harness scale: two decimals around
/// 225, drifting along a slow sine of ±8 under up to 2 of noise.
fn drift_stream(h: &Harness) -> Vec<f64> {
    let n = ((4_000_000.0 * h.scale) as usize).max(4096);
    let mut rng = StdRng::seed_from_u64(11);
    (0..n)
        .map(|i| {
            let wave = 8.0 * (i as f64 / 4_000.0).sin();
            let noise = rng.gen_range(0..=2_000u32) as f64 / 1_000.0;
            ((225.0 + wave + noise - 1.0) * 100.0).round() / 100.0
        })
        .collect()
}

/// Deterministic value/timestamp streams at the harness scale.
fn streams(h: &Harness) -> (Vec<f64>, Vec<f64>, Vec<i64>, Vec<i64>) {
    let n = ((4_000_000.0 * h.scale) as usize).max(4096);
    let mut rng = StdRng::seed_from_u64(7);
    let mut sig = Signal::new(210.0, 240.0, 0.4);
    let sensor: Vec<f64> = (0..n).map(|_| sig.next_value(&mut rng)).collect();
    let constant = vec![42.5f64; n];
    let regular = timestamps::regular(1_600_000_000_000, 10, n);
    let jitter = timestamps::regular_with_jitter(1_600_000_000_000, 10, n, 2, &mut rng);
    (sensor, constant, regular, jitter)
}

pub fn run(h: &Harness) -> DecodeResults {
    let (sensor, constant, regular, jitter) = streams(h);
    let fleet = fleet_stream(h);
    let drift = drift_stream(h);
    let mut rows = Vec::new();

    for (dataset, vs) in [("sensor", &sensor), ("constant", &constant)] {
        let mut buf = Vec::new();
        gorilla::encode(vs, &mut buf);
        let n = vs.len();
        let batched = gorilla::decode(&buf, n).expect("gorilla decode");
        let oracle = reference::gorilla_decode(&buf, n).expect("gorilla reference decode");
        let equivalent = batched.len() == oracle.len()
            && batched
                .iter()
                .zip(&oracle)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        let batched_mpoints_s =
            throughput_mpoints_s(h, n, || gorilla::decode(&buf, n).expect("decode"));
        let reference_mpoints_s =
            throughput_mpoints_s(h, n, || reference::gorilla_decode(&buf, n).expect("decode"));
        rows.push(DecodeRow {
            codec: "gorilla-f64".to_string(),
            dataset: dataset.to_string(),
            n_points: n,
            encoded_bytes: buf.len(),
            batched_mpoints_s,
            reference_mpoints_s,
            speedup: batched_mpoints_s / reference_mpoints_s,
            equivalent,
        });
    }

    for (dataset, ts) in [("regular", &regular), ("jitter", &jitter)] {
        let mut buf = Vec::new();
        ts2diff::encode(ts, &mut buf);
        let n = ts.len();
        let batched = ts2diff::decode(&buf, n).expect("ts2diff decode");
        let oracle = reference::ts2diff_decode(&buf, n).expect("ts2diff reference decode");
        let equivalent = batched == oracle;
        let batched_mpoints_s =
            throughput_mpoints_s(h, n, || ts2diff::decode(&buf, n).expect("decode"));
        let reference_mpoints_s =
            throughput_mpoints_s(h, n, || reference::ts2diff_decode(&buf, n).expect("decode"));
        rows.push(DecodeRow {
            codec: "ts2diff-i64".to_string(),
            dataset: dataset.to_string(),
            n_points: n,
            encoded_bytes: buf.len(),
            batched_mpoints_s,
            reference_mpoints_s,
            speedup: batched_mpoints_s / reference_mpoints_s,
            equivalent,
        });
    }

    // Context row: plain has one kernel, so "batched" and "reference"
    // time the same function and the ratio hovers around 1.
    {
        let mut buf = Vec::new();
        plain::encode_i64(&regular, &mut buf);
        let n = regular.len();
        let batched = plain::decode_i64(&buf, n).expect("plain decode");
        let equivalent = batched == regular;
        let batched_mpoints_s =
            throughput_mpoints_s(h, n, || plain::decode_i64(&buf, n).expect("decode"));
        let reference_mpoints_s =
            throughput_mpoints_s(h, n, || plain::decode_i64(&buf, n).expect("decode"));
        rows.push(DecodeRow {
            codec: "plain-i64".to_string(),
            dataset: "regular".to_string(),
            n_points: n,
            encoded_bytes: buf.len(),
            batched_mpoints_s,
            reference_mpoints_s,
            speedup: batched_mpoints_s / reference_mpoints_s,
            equivalent,
        });
    }

    let packed = vec![
        packed_row(
            h,
            ("packed-ts-i64", "ts2diff-i64", "jitter"),
            &jitter,
            (packed::encode_timestamps, |b, n| {
                packed::decode_timestamps(b, n, None)
            }),
            (ts2diff::encode, ts2diff::decode),
            |&t| t as u64,
        ),
        packed_row(
            h,
            ("packed-f64", "gorilla-f64", "sensor"),
            &sensor,
            (packed::encode_values, packed::decode_values),
            (gorilla::encode, gorilla::decode),
            |v| v.to_bits(),
        ),
        packed_row(
            h,
            ("decimal-delta", "gorilla-f64", "fleet"),
            &fleet,
            (decimal_delta, decode_standalone),
            (gorilla::encode, gorilla::decode),
            |v| v.to_bits(),
        ),
        packed_row(
            h,
            ("decimal-delta", "decimal-reference", "fleet"),
            &fleet,
            (decimal_delta, decode_standalone),
            (decimal_reference, decode_standalone),
            |v| v.to_bits(),
        ),
        packed_row(
            h,
            ("decimal-line", "decimal-reference", "drift"),
            &drift,
            (decimal_line, decode_standalone),
            (decimal_reference, decode_standalone),
            |v| v.to_bits(),
        ),
    ];

    DecodeResults {
        rows,
        packed,
        crc32: crc_rows(h),
        memtable: memtable_row(h),
        pool: exercise_pool(h),
    }
}

/// An encoder and a decoder of one column type.
type Codec<T> = (
    fn(&[T], &mut Vec<u8>),
    fn(&[u8], usize) -> tsfile::Result<Vec<T>>,
);

/// What one codec costs over a stream cut into pages.
struct PageCost {
    bytes_per_point: f64,
    encode_mpoints_s: f64,
    decode_mpoints_s: f64,
    bit_exact: bool,
}

/// Bytes a point, encode and decode throughput of `codec` over `data`
/// cut into default-size pages, and whether every page decodes to its
/// own bits.
fn per_page<T>(h: &Harness, data: &[T], codec: Codec<T>, bits: fn(&T) -> u64) -> PageCost {
    let (encode, decode) = codec;
    let pages: Vec<&[T]> = data.chunks(DEFAULT_PAGE_POINTS).collect();
    let encoded: Vec<Vec<u8>> = pages
        .iter()
        .map(|page| {
            let mut buf = Vec::new();
            encode(page, &mut buf);
            buf
        })
        .collect();
    let exact = pages.iter().zip(&encoded).all(|(page, buf)| {
        decode(buf, page.len()).is_ok_and(|back| {
            back.len() == page.len() && back.iter().zip(*page).all(|(a, b)| bits(a) == bits(b))
        })
    });
    let n = data.len();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let mut buf = Vec::new();
    let encode_mpoints_s = throughput_mpoints_s(h, n, || {
        for page in &pages {
            buf.clear();
            encode(page, &mut buf);
        }
        buf.len()
    });
    let decode_mpoints_s = throughput_mpoints_s(h, n, || {
        pages
            .iter()
            .zip(&encoded)
            .map(|(page, buf)| decode(buf, page.len()).map_or(0, |v| v.len()))
            .sum::<usize>()
    });
    PageCost {
        bytes_per_point: bytes as f64 / n as f64,
        encode_mpoints_s,
        decode_mpoints_s,
        bit_exact: exact,
    }
}

/// One packed form against its stream codec on the same stream.
fn packed_row<T>(
    h: &Harness,
    (form, baseline, dataset): (&str, &str, &str),
    data: &[T],
    packed: Codec<T>,
    stream: Codec<T>,
    bits: fn(&T) -> u64,
) -> PackedRow {
    let ours = per_page(h, data, packed, bits);
    let theirs = per_page(h, data, stream, bits);
    PackedRow {
        form: form.to_string(),
        baseline: baseline.to_string(),
        dataset: dataset.to_string(),
        n_points: data.len(),
        bytes_per_point: ours.bytes_per_point,
        baseline_bytes_per_point: theirs.bytes_per_point,
        encode_mpoints_s: ours.encode_mpoints_s,
        baseline_encode_mpoints_s: theirs.encode_mpoints_s,
        decode_mpoints_s: ours.decode_mpoints_s,
        baseline_decode_mpoints_s: theirs.decode_mpoints_s,
        bit_exact: ours.bit_exact && theirs.bit_exact,
    }
}

/// CRC32 (IEEE, reflected) one bit at a time: no table to get wrong.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

fn crc_rows(h: &Harness) -> Vec<CrcRow> {
    const LENS: [usize; 3] = [64, 4 << 10, 1 << 20];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let data: Vec<u8> = (0..(1 << 20) + 16)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 56) as u8
        })
        .collect();
    LENS.iter()
        .map(|&len| {
            let equivalent = (0..16).all(|off| {
                let window = &data[off..off + len];
                crc32(window) == crc32_bitwise(window)
            });
            // Bytes for points: "million points per second" is MB/s.
            let window = &data[1..1 + len];
            let kernel_mb_s = throughput_mpoints_s(h, len, || crc32(std::hint::black_box(window)));
            let reference_mb_s =
                throughput_mpoints_s(h, len, || crc32_bitwise(std::hint::black_box(window)));
            CrcRow {
                len_bytes: len,
                kernel_mb_s,
                reference_mb_s,
                speedup: kernel_mb_s / reference_mb_s,
                equivalent,
            }
        })
        .collect()
}

fn memtable_row(h: &Harness) -> MemtableRow {
    let n = ((4_000_000.0 * h.scale) as usize).max(4096);
    let in_order: Vec<Point> = (0..n as i64)
        .map(|i| Point::new(i * 10, i as f64))
        .collect();
    // Every tenth point arrives ten positions late, between two points
    // already buffered.
    let mut late10 = in_order.clone();
    for i in (10..n).step_by(10) {
        late10[i].t -= 95;
    }
    let via_memtable = |input: &[Point]| {
        let mut m = MemTable::new();
        for batch in input.chunks(2_000) {
            m.extend(batch);
        }
        m.drain_sorted()
    };
    let via_btreemap = |input: &[Point]| {
        let mut m: BTreeMap<i64, f64> = BTreeMap::new();
        for p in input {
            m.insert(p.t, p.v);
        }
        m.into_iter()
            .map(|(t, v)| Point::new(t, v))
            .collect::<Vec<_>>()
    };
    let equivalent = [&in_order, &late10]
        .iter()
        .all(|input| via_memtable(input) == via_btreemap(input));
    let ns_per_point = |f: &dyn Fn(&[Point]) -> Vec<Point>, input: &[Point]| {
        1e3 / throughput_mpoints_s(h, n, || f(std::hint::black_box(input)))
    };
    MemtableRow {
        n_points: n,
        in_order_ns_per_point: ns_per_point(&via_memtable, &in_order),
        late10_ns_per_point: ns_per_point(&via_memtable, &late10),
        btreemap_in_order_ns_per_point: ns_per_point(&via_btreemap, &in_order),
        btreemap_late10_ns_per_point: ns_per_point(&via_btreemap, &late10),
        equivalent,
    }
}

/// Write a multi-chunk TsFile, then re-read every chunk `h.repeats * 8`
/// times and report the buffer-pool counter delta. After the first
/// pass through the chunks the pool is warm, so steady-state reads must
/// land on the freelist.
fn exercise_pool(h: &Harness) -> PoolSummary {
    std::fs::create_dir_all(&h.root).expect("bench root");
    let path = h.root.join("decode-pool.tsfile");
    std::fs::remove_file(&path).ok();
    let mut w = TsFileWriter::create(&path).expect("create pool fixture");
    w.begin_series(0, 0).expect("begin series");
    let mut rng = StdRng::seed_from_u64(11);
    let mut sig = Signal::new(210.0, 240.0, 0.4);
    for c in 0..8i64 {
        let points: Vec<Point> = (0..2048)
            .map(|i| Point::new(c * 1_000_000 + i * 10, sig.next_value(&mut rng)))
            .collect();
        w.write_chunk(&points, 1).expect("write chunk");
    }
    w.finish().expect("finish pool fixture");

    let r = TsFileReader::open(&path).expect("open pool fixture");
    let metas: Vec<_> = r.chunk_metas().to_vec();
    let (h0, m0) = tsfile::bufpool::pool_counters();
    for _ in 0..h.repeats.max(1) * 8 {
        for meta in &metas {
            let pts = r.read_chunk(meta).expect("read chunk");
            std::hint::black_box(pts.len());
        }
    }
    let (h1, m1) = tsfile::bufpool::pool_counters();
    std::fs::remove_file(&path).ok();
    let (hits, misses) = (h1 - h0, m1 - m0);
    let total = hits + misses;
    PoolSummary {
        pool_hits: hits,
        pool_misses: misses,
        hit_rate: if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        },
    }
}

/// Aligned table of all cells plus the pool line.
pub fn print(results: &DecodeResults) {
    let DecodeResults {
        rows,
        packed,
        crc32,
        memtable,
        pool,
    } = results;
    if rows.is_empty() {
        return;
    }
    println!(
        "{:<12} {:<9} {:>9} {:>11} {:>12} {:>12} {:>8} {:>6}",
        "codec", "dataset", "n_points", "enc_bytes", "batched_Mps", "ref_Mps", "speedup", "equiv"
    );
    for r in rows {
        println!(
            "{:<12} {:<9} {:>9} {:>11} {:>12.2} {:>12.2} {:>7.2}x {:>6}",
            r.codec,
            r.dataset,
            r.n_points,
            r.encoded_bytes,
            r.batched_mpoints_s,
            r.reference_mpoints_s,
            r.speedup,
            r.equivalent
        );
    }
    for r in packed {
        println!(
            "{} vs {} on {} ({} points, {}-point pages): {:.3} vs {:.3} B/pt, \
             encode {:.1} vs {:.1} Mpts/s, decode {:.1} vs {:.1} Mpts/s, bit-exact {}",
            r.form,
            r.baseline,
            r.dataset,
            r.n_points,
            DEFAULT_PAGE_POINTS,
            r.bytes_per_point,
            r.baseline_bytes_per_point,
            r.encode_mpoints_s,
            r.baseline_encode_mpoints_s,
            r.decode_mpoints_s,
            r.baseline_decode_mpoints_s,
            r.bit_exact
        );
    }
    for r in crc32 {
        println!(
            "crc32 {:>8} B: kernel {:>8.1} MB/s, bitwise reference {:>6.1} MB/s ({:.1}x), equal {}",
            r.len_bytes, r.kernel_mb_s, r.reference_mb_s, r.speedup, r.equivalent
        );
    }
    println!(
        "memtable {} points: in-order {:.1} ns/pt (BTreeMap {:.1}), 10% late {:.1} ns/pt (BTreeMap {:.1}), equal {}",
        memtable.n_points,
        memtable.in_order_ns_per_point,
        memtable.btreemap_in_order_ns_per_point,
        memtable.late10_ns_per_point,
        memtable.btreemap_late10_ns_per_point,
        memtable.equivalent
    );
    println!(
        "pool: {} hits / {} misses (hit rate {:.1}%)",
        pool.pool_hits,
        pool.pool_misses,
        pool.hit_rate * 100.0
    );
}

/// Headline: worst-case speedup over the real codecs and the pool rate.
pub fn summarize(results: &DecodeResults) {
    let DecodeResults { rows, pool, .. } = results;
    let mismatches = rows.iter().filter(|r| !r.equivalent).count()
        + results.packed.iter().filter(|r| !r.bit_exact).count()
        + results.crc32.iter().filter(|r| !r.equivalent).count()
        + usize::from(!results.memtable.equivalent);
    let worst = rows
        .iter()
        .filter(|r| r.codec != "plain-i64")
        .map(|r| r.speedup)
        .fold(f64::INFINITY, f64::min);
    println!(
        "-- decode: {} cells, {} equivalence failures, worst codec speedup {worst:.2}x, pool hit rate {:.1}%",
        rows.len(),
        mismatches,
        pool.hit_rate * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_rows_are_equivalent_and_pool_warms() {
        // Tiny scale, one repeat: this asserts the hardware-independent
        // invariants (bit-exact equivalence, warm pool) — NOT the
        // speedup, which debug builds do not reproduce.
        let h = Harness::new(0.002, 1).with_datasets(vec![]);
        let DecodeResults {
            rows,
            packed,
            crc32,
            memtable,
            pool,
        } = run(&h);
        h.cleanup();
        assert_eq!(rows.len(), 5);
        assert_eq!(packed.len(), 5);
        assert!(
            packed
                .iter()
                .all(|r| r.bit_exact && r.bytes_per_point < r.baseline_bytes_per_point),
            "packed forms not exact or not smaller: {packed:?}"
        );
        assert_eq!(crc32.len(), 3);
        assert!(
            crc32.iter().all(|r| r.equivalent),
            "crc mismatch: {crc32:?}"
        );
        assert!(memtable.equivalent, "memtable mismatch: {memtable:?}");
        assert!(
            rows.iter().all(|r| r.equivalent),
            "kernel mismatch: {rows:?}"
        );
        assert!(rows.iter().all(|r| r.batched_mpoints_s > 0.0));
        assert!(
            pool.pool_hits > 0,
            "steady-state chunk reads never hit the pool: {pool:?}"
        );
    }
}
