//! Kernel microbenchmark. Not a paper artifact: it measures the
//! substrate the read and write paths stand on, each kernel against its
//! reference in the same run, which is what makes the CI gate
//! (bench-smoke) hardware-independent:
//!
//! - the slice-by-16 `tsfile::checksum::crc32` against a bitwise,
//!   table-free CRC at three buffer sizes, and `tskv::memtable::MemTable`
//!   against the `BTreeMap` it replaced on in-order and 10 %-late input:
//!   equal output, and not slower;
//! - the decimal block's delta frame on the `ingest_fleet` register (a
//!   quarter-unit sawtooth that wraps every 2 000) and its line frame on
//!   the `live_tail` register (a slow sine under two decimals of noise),
//!   page by page, against its frame of reference: bit-exact and fewer
//!   bytes a point;
//! - the buffer pool, over repeated reads of a small multi-chunk file:
//!   a warm steady-state read path must show hits;
//! - the two write-path kernels every ingest pays: the seal
//!   (`TsFileWriter::write_chunk`, statistics, chooser, page, CRC) on one
//!   1 000-point chunk shaped like each workload's data, which must read
//!   back bit-exact, and the engine's insert path (WAL record plus
//!   memtable) on a `live_tail` batch and an `ingest_fleet` request, with
//!   the log bytes each point costs. Each time is the least of
//!   [`WRITE_REPEATS`] calls.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::Serialize;

use tsfile::checksum::crc32;
use tsfile::encoding::packed::{self, Column, Framing, Transform};
use tsfile::page::DEFAULT_PAGE_POINTS;
use tsfile::types::Point;
use tsfile::{TsFileReader, TsFileWriter};
use tskv::batch::WriteBatch;
use tskv::config::{EngineConfig, FsyncPolicy};
use tskv::memtable::MemTable;
use tskv::TsKv;
use workload::multiseries::{self, MultiSeriesSpec};
use workload::signal::Signal;

use crate::harness::{BenchMeta, Harness};

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

/// One frame of the decimal block against another, both coding the
/// same stream page by page.
#[derive(Debug, Clone, Serialize)]
pub struct FrameRow {
    /// "decimal-delta" or "decimal-line".
    pub form: String,
    /// The frame it is measured against ("decimal-reference").
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
    /// Both frames decode every page to the bits it was given.
    pub bit_exact: bool,
}

/// Timed calls behind each write-path row: its time is their least.
pub const WRITE_REPEATS: usize = 200;

/// `TsFileWriter::write_chunk` on one workload-shaped chunk.
#[derive(Debug, Clone, Serialize)]
pub struct SealRow {
    /// "cold_wide", "live_tail", "ingest_fleet" or "constant".
    pub dataset: String,
    pub n_points: usize,
    pub ns_per_point: f64,
    /// Chunk body bytes a point (the footer entry aside).
    pub bytes_per_point: f64,
    /// Every chunk written reads back to the bits it was given.
    pub bit_exact: bool,
}

/// The engine's insert path on one write shape: the WAL record and the
/// memtable, into a memtable that never fills.
#[derive(Debug, Clone, Serialize)]
pub struct InsertRow {
    /// "live_tail" (one series' 5 000-point batch) or "ingest_fleet"
    /// (one request of 50 Zipf-drawn series × 10 points).
    pub dataset: String,
    pub n_points: usize,
    pub ns_per_point: f64,
    /// Log bytes a point, from the engine's `wal_bytes` counter.
    pub wal_bytes_per_point: f64,
}

/// Everything the kernels experiment measures: the document
/// `repro --exp kernels --out` writes.
#[derive(Debug, Serialize)]
pub struct KernelsReport {
    pub meta: BenchMeta,
    pub decimal: Vec<FrameRow>,
    pub crc32: Vec<CrcRow>,
    pub memtable: MemtableRow,
    pub pool: PoolSummary,
    pub seal: Vec<SealRow>,
    pub insert: Vec<InsertRow>,
}

/// Median throughput in million points/sec. Small streams are
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

/// Points in each of the experiment's streams at the harness scale.
fn stream_len(h: &Harness) -> usize {
    ((4_000_000.0 * h.scale) as usize).max(4096)
}

/// One `ingest_fleet` series' values: quarter units rising one step a
/// second, wrapping every 2 000.
fn fleet_stream(h: &Harness) -> Vec<f64> {
    (0..stream_len(h) as i64)
        .map(|i| multiseries::value_at(1, i * multiseries::DELTA_MS))
        .collect()
}

/// A `live_tail` register: two decimals around 225, drifting along a
/// slow sine of ±8 under up to 2 of noise.
fn drift_stream(h: &Harness) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(11);
    (0..stream_len(h))
        .map(|i| {
            let wave = 8.0 * (i as f64 / 4_000.0).sin();
            let noise = rng.gen_range(0..=2_000u32) as f64 / 1_000.0;
            ((225.0 + wave + noise - 1.0) * 100.0).round() / 100.0
        })
        .collect()
}

pub fn run(h: &Harness) -> KernelsReport {
    KernelsReport {
        meta: BenchMeta::new(h),
        decimal: vec![
            frame_row(h, Framing::Delta, "fleet", &fleet_stream(h)),
            frame_row(h, Framing::Line, "drift", &drift_stream(h)),
        ],
        crc32: crc_rows(h),
        memtable: memtable_row(h),
        pool: exercise_pool(h),
        seal: seal_rows(h),
        insert: insert_rows(h),
    }
}

/// The least time of `WRITE_REPEATS` calls of `f`, in nanoseconds.
fn least_ns(mut f: impl FnMut(usize)) -> f64 {
    (0..WRITE_REPEATS)
        .map(|r| {
            let start = Instant::now();
            f(r);
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// One 1 000-point chunk (the engine's chunk) shaped like each
/// workload's data: `cold_wide`'s full-precision walk at a 10 ms cadence
/// jittered ±2 ms, `live_tail`'s two-decimal register on a 4 ms grid,
/// `ingest_fleet`'s quarter-unit sawtooth on a 1 s grid, and a chunk of
/// one repeated value the footer holds whole.
fn workload_chunks() -> Vec<(&'static str, Vec<Point>)> {
    const N: i64 = 1_000;
    let mut rng = StdRng::seed_from_u64(60);
    let mut walk = Signal::new(210.0, 240.0, 0.4).with_carrier(5.0, 500_000.0);
    let wide = (0..N)
        .map(|i| {
            let jitter = rng.gen_range(-2..=2);
            Point::new(i * 10 + jitter, walk.next_value(&mut rng))
        })
        .collect();
    let tail = (0..N)
        .map(|i| {
            let wave = 8.0 * (i as f64 / 4_000.0).sin();
            let noise = rng.gen_range(0..=2_000u32) as f64 / 1_000.0;
            let v = ((225.0 + wave + noise - 1.0) * 100.0).round() / 100.0;
            Point::new(i * 4, v)
        })
        .collect();
    let at = |i: i64| i * multiseries::DELTA_MS;
    let fleet = (0..N)
        .map(|i| Point::new(at(i), multiseries::value_at(1, at(i))))
        .collect();
    let constant = (0..N).map(|i| Point::new(at(i), 21.5)).collect();
    vec![
        ("cold_wide", wide),
        ("live_tail", tail),
        ("ingest_fleet", fleet),
        ("constant", constant),
    ]
}

/// Each workload-shaped chunk written `WRITE_REPEATS` times into one
/// file, as a series' chunks are, then read back.
fn seal_rows(h: &Harness) -> Vec<SealRow> {
    std::fs::create_dir_all(&h.root).expect("bench root");
    let path = h.root.join("kernels-seal.tsfile");
    workload_chunks()
        .into_iter()
        .map(|(dataset, points)| {
            let mut w = TsFileWriter::create(&path).expect("create seal fixture");
            w.begin_series(0, 0).expect("begin series");
            let mut body_bytes = 0;
            let ns = least_ns(|r| {
                let meta = w.write_chunk(&points, r as u64 + 1).expect("write chunk");
                body_bytes = meta.byte_len;
            });
            w.finish().expect("finish seal fixture");
            let r = TsFileReader::open(&path).expect("open seal fixture");
            let bits = |p: &[Point]| p.iter().map(|p| (p.t, p.v.to_bits())).collect::<Vec<_>>();
            let bit_exact = r.chunk_metas().len() == WRITE_REPEATS
                && (r.chunk_metas().iter()).all(|m| {
                    r.read_chunk(m)
                        .is_ok_and(|back| bits(&back) == bits(&points))
                });
            std::fs::remove_file(&path).ok();
            let n = points.len();
            SealRow {
                dataset: dataset.to_string(),
                n_points: n,
                ns_per_point: ns / n as f64,
                bytes_per_point: body_bytes as f64 / n as f64,
                bit_exact,
            }
        })
        .collect()
}

/// The insert path into a fresh store whose memtables never fill,
/// under the benchmark's sync policy: a `live_tail` batch of 5 000
/// points on its 4 ms grid, each repeat the next 20 s of the series, and
/// an `ingest_fleet` request, each repeat the next one.
fn insert_rows(h: &Harness) -> Vec<InsertRow> {
    let dir = h.root.join("kernels-insert");
    std::fs::remove_dir_all(&dir).ok();
    let config = EngineConfig {
        memtable_threshold: usize::MAX,
        fsync_policy: FsyncPolicy::OnFlush,
        ..Harness::store_config()
    };
    let kv = TsKv::open(&dir, config).expect("open insert fixture");
    let row = |dataset: &str, n: usize, ns: f64, wal: u64| InsertRow {
        dataset: dataset.to_string(),
        n_points: n,
        ns_per_point: ns / n as f64,
        wal_bytes_per_point: wal as f64 / (n * WRITE_REPEATS) as f64,
    };
    let wal_bytes = || kv.io().snapshot().wal_bytes;

    const TAIL_BATCH: usize = 5_000;
    let id = kv.create_series("tail.0").expect("create tail series");
    let mut rng = StdRng::seed_from_u64(7);
    let tail: Vec<Vec<Point>> = (0..WRITE_REPEATS as i64)
        .map(|r| {
            (0..TAIL_BATCH as i64)
                .map(|i| {
                    let t = r * TAIL_BATCH as i64 + i;
                    let v = (22_400 + rng.gen_range(0..400)) as f64 / 100.0;
                    Point::new(1_600_000_000_000 + t * 4, v)
                })
                .collect()
        })
        .collect();
    let before = wal_bytes();
    let ns = least_ns(|r| kv.insert_batch_by_id(id, &tail[r]).expect("insert"));
    let tail_row = row("live_tail", TAIL_BATCH, ns, wal_bytes() - before);

    let spec = MultiSeriesSpec {
        series_count: 1_000,
        zipf_s: 1.0,
        batch_points: 10,
        out_of_order_frac: 0.1,
        seed: 1,
    };
    let mut gen = spec.generator();
    for rank in 0..spec.series_count {
        kv.create_series(&multiseries::series_name(rank))
            .expect("create fleet series");
    }
    let requests: Vec<WriteBatch> = (0..WRITE_REPEATS)
        .map(|_| {
            let mut batch = WriteBatch::new();
            for _ in 0..50 {
                let (rank, points) = gen.next_batch();
                batch.insert_many(&multiseries::series_name(rank), &points);
            }
            batch
        })
        .collect();
    let n = requests[0].len();
    let before = wal_bytes();
    let ns = least_ns(|r| {
        kv.write_batch(&requests[r]).expect("write request");
    });
    let fleet_row = row("ingest_fleet", n, ns, wal_bytes() - before);
    drop(kv);
    std::fs::remove_dir_all(&dir).ok();
    vec![tail_row, fleet_row]
}

/// `(bytes a point, encode and decode throughput, bit-exact)` of the
/// decimal block in `framing` over `data` cut into default-size pages,
/// each decoded from its first and last value as a page's are:
/// bit-exact when every page decodes to its own bits.
fn per_page(h: &Harness, data: &[f64], framing: Framing) -> (f64, f64, f64, bool) {
    let pages: Vec<&[f64]> = data.chunks(DEFAULT_PAGE_POINTS).collect();
    let encode = |page: &[f64], buf: &mut Vec<u8>| {
        packed::encode(Column::Decimal(page), Some(framing), buf).is_some()
    };
    let decode = |page: &[f64], buf: &[u8]| {
        let ends = (page[0].to_bits(), page[page.len() - 1].to_bits());
        packed::decode(buf, page.len(), Transform::Decimal, ends)
    };
    let mut encoded = vec![Vec::new(); pages.len()];
    for (page, buf) in pages.iter().zip(&mut encoded) {
        encode(page, buf);
    }
    let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let exact = (pages.iter().zip(&encoded))
        .all(|(page, buf)| decode(page, buf).is_ok_and(|back| back == bits(page)));
    let n = data.len();
    let bytes_per_point = encoded.iter().map(Vec::len).sum::<usize>() as f64 / n as f64;
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
            .map(|(page, buf)| decode(page, buf).map_or(0, |v| v.len()))
            .sum::<usize>()
    });
    (bytes_per_point, encode_mpoints_s, decode_mpoints_s, exact)
}

/// The decimal block in `framing` against its frame of reference on the
/// same stream.
fn frame_row(h: &Harness, framing: Framing, dataset: &str, data: &[f64]) -> FrameRow {
    let (bytes, encode, decode, exact) = per_page(h, data, framing);
    let (base_bytes, base_encode, base_decode, base_exact) = per_page(h, data, Framing::Reference);
    FrameRow {
        form: format!("decimal-{framing:?}").to_lowercase(),
        baseline: "decimal-reference".to_string(),
        dataset: dataset.to_string(),
        n_points: data.len(),
        bytes_per_point: bytes,
        baseline_bytes_per_point: base_bytes,
        encode_mpoints_s: encode,
        baseline_encode_mpoints_s: base_encode,
        decode_mpoints_s: decode,
        baseline_decode_mpoints_s: base_decode,
        bit_exact: exact && base_exact,
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
    let mut data = vec![0u8; (1 << 20) + 16];
    StdRng::seed_from_u64(0x9E37_79B9_7F4A_7C15).fill_bytes(&mut data);
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
                equivalent,
            }
        })
        .collect()
}

fn memtable_row(h: &Harness) -> MemtableRow {
    let n = stream_len(h);
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
    let path = h.root.join("kernels-pool.tsfile");
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
    PoolSummary {
        pool_hits: hits,
        pool_misses: misses,
        hit_rate: hits as f64 / (hits + misses).max(1) as f64,
    }
}

/// One line a row, then the count of equivalence failures.
pub fn print(report: &KernelsReport) {
    for r in &report.decimal {
        println!(
            "{} vs {} on {} ({} points, {DEFAULT_PAGE_POINTS}-point pages): {:.3} vs {:.3} B/pt, \
             encode {:.1} vs {:.1} Mpts/s, decode {:.1} vs {:.1} Mpts/s, bit-exact {}",
            r.form,
            r.baseline,
            r.dataset,
            r.n_points,
            r.bytes_per_point,
            r.baseline_bytes_per_point,
            r.encode_mpoints_s,
            r.baseline_encode_mpoints_s,
            r.decode_mpoints_s,
            r.baseline_decode_mpoints_s,
            r.bit_exact
        );
    }
    for r in &report.crc32 {
        let speedup = r.kernel_mb_s / r.reference_mb_s;
        println!(
            "crc32 {:>8} B: kernel {:>8.1} MB/s, bitwise reference {:>6.1} MB/s ({speedup:.1}x), equal {}",
            r.len_bytes, r.kernel_mb_s, r.reference_mb_s, r.equivalent
        );
    }
    let m = &report.memtable;
    println!(
        "memtable {} points: in-order {:.1} ns/pt (BTreeMap {:.1}), 10% late {:.1} ns/pt (BTreeMap {:.1}), equal {}",
        m.n_points,
        m.in_order_ns_per_point,
        m.btreemap_in_order_ns_per_point,
        m.late10_ns_per_point,
        m.btreemap_late10_ns_per_point,
        m.equivalent
    );
    let p = &report.pool;
    let hit_pct = p.hit_rate * 100.0;
    println!(
        "pool: {} hits / {} misses (hit rate {hit_pct:.1}%)",
        p.pool_hits, p.pool_misses
    );
    for r in &report.seal {
        println!(
            "seal {:>12} ({} points): {:.1} ns/pt, {:.3} B/pt, bit-exact {}",
            r.dataset, r.n_points, r.ns_per_point, r.bytes_per_point, r.bit_exact
        );
    }
    for r in &report.insert {
        println!(
            "insert {:>12} ({} points): {:.1} ns/pt, WAL {:.2} B/pt",
            r.dataset, r.n_points, r.ns_per_point, r.wal_bytes_per_point
        );
    }
    let mismatches = report.decimal.iter().filter(|r| !r.bit_exact).count()
        + report.crc32.iter().filter(|r| !r.equivalent).count()
        + report.seal.iter().filter(|r| !r.bit_exact).count()
        + usize::from(!m.equivalent);
    println!("-- kernels: {mismatches} equivalence failures");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_rows_are_equivalent_and_pool_warms() {
        // Tiny scale, one repeat: this asserts the hardware-independent
        // invariants (bit-exact equivalence, warm pool) — NOT the
        // speedup, which debug builds do not reproduce.
        let h = Harness::new(0.002, 1).with_datasets(vec![]);
        let KernelsReport {
            decimal,
            crc32,
            memtable,
            pool,
            seal,
            insert,
            ..
        } = run(&h);
        h.cleanup();
        assert_eq!(decimal.len(), 2);
        assert!(
            decimal
                .iter()
                .all(|r| r.bit_exact && r.bytes_per_point < r.baseline_bytes_per_point),
            "decimal frames not exact or not smaller: {decimal:?}"
        );
        assert_eq!(crc32.len(), 3);
        assert!(
            crc32.iter().all(|r| r.equivalent),
            "crc mismatch: {crc32:?}"
        );
        assert!(memtable.equivalent, "memtable mismatch: {memtable:?}");
        assert!(
            pool.pool_hits > 0,
            "steady-state chunk reads never hit the pool: {pool:?}"
        );
        assert_eq!(seal.len(), 4);
        assert!(seal.iter().all(|r| r.bit_exact), "seal: {seal:?}");
        assert_eq!(insert.len(), 2);
        assert!(
            insert.iter().all(|r| r.wal_bytes_per_point > 8.0),
            "a point's value alone is 8 log bytes: {insert:?}"
        );
    }
}
