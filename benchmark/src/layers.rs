//! Per-layer metrics (`--trace 1`), taken from outside.
//!
//! *Times* come from replaying a sample of the workload's own ops
//! through the crates' public functions, each call wrapped in a span:
//! beside the real RPC, the same op assembled in-process
//! (`encode_request` → `decode_request_payload` → `series_id` →
//! `snapshot_by_id` → `M4Lsm::execute` → `encode_response` →
//! `decode_response_payload`; for writes `WriteBatch` →
//! `TsKv::write_batch` → `flush_by_id` → `compact_by_id`).
//! *Counts* are `IoStats` / `ServerStats` deltas over the phases of the
//! run's two epochs (one without spans, one with), divided by ops;
//! absolute counts are per epoch.
//!
//! Each metric names the end-to-end metric it should move in
//! BENCHMARK.json's `per_layer` order; README.md has the table.

use std::path::Path;
use std::time::Duration;

use m4::stream::StreamingM4;
use m4::{M4Lsm, M4Query, M4Udf};
use tsfile::page::{
    decode_page, decode_page_timestamps, encode_page, PageMeta, DEFAULT_PAGE_POINTS,
};
use tsfile::statistics::ChunkStatistics;
use tsfile::types::Point;
use tsfile::TsFileReader;
use tskv::chunk::ChunkData;
use tskv::config::EngineConfig;
use tskv::readers::{DataReader, MergeReader, MetadataReader};
use tskv::stats::IoSnapshot;
use tskv::TsKv;
use tsnet::stats::ServerStatsSnapshot;
use tsnet::wire::{
    self, Request, RequestEnvelope, Response, ResponseEnvelope, HEADER_LEN, TRAILER_LEN,
};
use tsnet::Operator;

use crate::driver::{ms, Driver};
use crate::estim::{median, Rounds};
use crate::gen::QuerySpec;
use crate::phases::{CrashPhase, IngestPhase, QueryPhase};
use crate::store::{self, Built, Source};
use crate::trace::Tracer;
use crate::workloads::{Sizes, Workload};
use crate::Result;

/// Sampled ops per kind.
const SAMPLE_QUERIES: usize = 20;
/// Rounds over the sampled queries; like a phase, the in-process
/// latency is the best round's p50.
const QUERY_ROUNDS: usize = 3;
/// Catalog probes timed as one span (a single probe is too short).
const RESOLVE_BURST: u32 = 256;
const SAMPLE_WRITES: usize = 40;
const SAMPLE_CHUNKS: usize = 8;
const SAMPLE_FILES: usize = 50;
const PINGS: usize = 200;

/// What the replay reads from the run so far.
pub struct Context<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub sizes: &'a Sizes,
    pub query: &'a QueryPhase,
    pub ingest: &'a IngestPhase,
    pub crash: &'a CrashPhase,
    /// The last epoch's server's counters (every epoch has its own).
    pub server: ServerStatsSnapshot,
    pub home: &'a Path,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The payload of an encoded frame (what the server's decoder sees).
fn payload(frame: &[u8]) -> &[u8] {
    frame
        .get(HEADER_LEN..frame.len().saturating_sub(TRAILER_LEN))
        .unwrap_or(&[])
}

type Metrics = Vec<(&'static str, f64)>;

pub fn replay(ctx: &Context<'_>, driver: &mut Driver, built: &Built) -> Result<Metrics> {
    let mut out: Metrics = Vec::new();
    driver.tracer.set_enabled(true);
    counts(ctx, driver, &mut out);
    let pings: Vec<f64> = (0..PINGS).filter_map(|_| driver.ping()).collect();
    out.push(("tsnet.server.ping_rtt_p50_us", median(&pings) * 1e3));
    read_path(ctx, &mut driver.tracer, &built.kv, &mut out)?;
    write_path(ctx, &mut driver.tracer, &mut out)?;
    pages(ctx, &mut driver.tracer, built.kv.config(), &mut out)?;
    files(&mut driver.tracer, built, &mut out)?;
    Ok(out)
}

/// Counter deltas over the phases, per op (absolute ones per epoch).
fn counts(ctx: &Context<'_>, driver: &Driver, out: &mut Metrics) {
    let per_epoch = |n: u64| n as f64 / ctx.sizes.epochs.max(1) as f64;
    let (lsm, udf, ingest) = (&ctx.query.lsm, &ctx.query.udf, ctx.ingest);
    let queries = lsm.queries() + udf.queries();
    let both = |f: fn(&IoSnapshot) -> u64| lsm.io_sum(f) + udf.io_sum(f);
    let all = |f: fn(&IoSnapshot) -> u64| {
        // `live_tail` reads and writes in the same rounds: count once.
        if ctx.workload == Workload::LiveTail {
            ingest.io_sum(f)
        } else {
            both(f) + ingest.io_sum(f)
        }
    };
    let user_bytes = 16 * ingest.points;

    out.push((
        "tsnet.server.busy_rejections",
        ctx.server.rejected_busy as f64,
    ));
    let (deltas, lagged) = driver
        .sub
        .as_ref()
        .map_or((0, 0), |s| (s.deltas, s.lagged_events));
    out.push(("tsnet.sub.deltas_per_write", ratio(deltas, driver.writes)));
    out.push(("tsnet.sub.lagged_events", lagged as f64));
    out.push(("tsnet.sub.resyncs", ctx.server.resyncs as f64));

    let (hits, misses) = (all(|s| s.catalog_hits), all(|s| s.catalog_misses));
    out.push(("tskv.catalog.miss_ratio", ratio(misses, hits + misses)));
    out.push((
        "tskv.wal.bytes_per_user_byte",
        ratio(ingest.io_sum(|s| s.wal_bytes), user_bytes),
    ));
    out.push((
        "tskv.wal.batches_per_kpoint",
        ratio(ingest.io_sum(|s| s.wal_batches) * 1_000, ingest.points),
    ));
    out.push(("tskv.wal.syncs", per_epoch(ingest.io_sum(|s| s.wal_syncs))));
    out.push(("tskv.flush.count", per_epoch(ingest.flushes)));
    out.push((
        "tskv.compaction.bytes_rewritten_per_user_byte",
        ratio(all(|s| s.compaction_bytes_rewritten), user_bytes),
    ));
    let (copied, recoded) = (
        all(|s| s.compaction_pages_copied),
        all(|s| s.compaction_pages_recoded),
    );
    out.push((
        "tskv.compaction.pages_copied_ratio",
        ratio(copied, copied + recoded),
    ));
    out.push((
        "tskv.compaction.completed",
        per_epoch(all(|s| s.compactions_completed)),
    ));

    let open_ms = ctx
        .crash
        .open_ms
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    out.push(("tskv.recovery.open_ms", open_ms));
    out.push((
        "tskv.recovery.replay_ns_per_point",
        if ctx.crash.unflushed_points == 0 {
            0.0
        } else {
            open_ms * 1e6 / ctx.crash.unflushed_points as f64
        },
    ));
    out.push((
        "tskv.recovery.stores_instantiated",
        ctx.crash.stores_instantiated as f64,
    ));

    let (cache_hits, cache_misses) = (both(|s| s.cache_hits), both(|s| s.cache_misses));
    out.push((
        "tskv.cache.hit_ratio",
        ratio(cache_hits, cache_hits + cache_misses),
    ));
    out.push((
        "tskv.cache.evictions_per_query",
        ratio(both(|s| s.cache_evictions), queries),
    ));
    out.push((
        "tskv.cache.invalidations",
        per_epoch(all(|s| s.cache_invalidations)),
    ));
    out.push((
        "tskv.readers.mem_chunks_per_query",
        ratio(both(|s| s.mem_chunks_read), queries),
    ));
    out.push((
        "tsfile.pread.bytes_per_query",
        ratio(both(|s| s.bytes_read), queries),
    ));
    let (pool_hits, pool_misses) = (all(|s| s.pool_hits), all(|s| s.pool_misses));
    out.push((
        "tsfile.bufpool.hit_ratio",
        ratio(pool_hits, pool_hits + pool_misses),
    ));

    out.push((
        "m4.lsm.pages_decoded_per_query",
        ratio(lsm.io_sum(|s| s.pages_decoded), lsm.queries()),
    ));
    out.push((
        "m4.lsm.pages_stat_answered_per_query",
        ratio(lsm.io_sum(|s| s.pages_stat_answered), lsm.queries()),
    ));
    let decoded = lsm.io_sum(|s| s.points_decoded);
    out.push((
        "m4.lsm.points_decoded_per_query",
        ratio(decoded, lsm.queries()),
    ));
    // Every round asks the same list, so the last round's answers
    // stand for all of them.
    let answered = ctx.query.answers.iter().filter_map(|a| a.lsm.as_ref());
    let returned: usize = answered
        .clone()
        .map(|spans| 4 * spans.iter().flatten().count())
        .sum();
    out.push((
        "m4.lsm.useful_ratio",
        ratio(
            returned as u64 * lsm.queries(),
            decoded * answered.count().max(1) as u64,
        ),
    ));
    out.push((
        "m4.lsm.timestamps_decoded_per_query",
        ratio(lsm.io_sum(|s| s.timestamps_decoded), lsm.queries()),
    ));
    out.push((
        "m4.udf.chunks_loaded_per_query",
        ratio(udf.io_sum(|s| s.chunks_loaded), udf.queries()),
    ));
    out.push((
        "m4.udf.points_decoded_per_query",
        ratio(udf.io_sum(|s| s.points_decoded), udf.queries()),
    ));
}

/// The query op assembled in-process on the served store, plus probes
/// of the reader layers under it.
fn read_path(ctx: &Context<'_>, tracer: &mut Tracer, kv: &TsKv, out: &mut Metrics) -> Result<()> {
    let sample: Vec<&QuerySpec> = ctx
        .query
        .answers
        .iter()
        .map(|a| &a.query)
        .take(SAMPLE_QUERIES)
        .collect();
    let (mut lsm_ms, mut udf_ms, mut inproc_ms) =
        (Rounds::default(), Rounds::default(), Rounds::default());
    let (mut enc_resp, mut dec_resp, mut snap_us, mut resolve) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut overlapping_us, mut miss_us, mut hit_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut merge_ns, mut merged_points) = (0.0, 0u64);
    let (mut loaded, mut overlapping_chunks) = (0u64, 0u64);
    let (mut sealed_bytes, mut sealed_points) = (0u64, 0u64);

    for round in 0..QUERY_ROUNDS {
        let (mut lsm_round, mut udf_round, mut inproc_round) = (Vec::new(), Vec::new(), Vec::new());
        for (i, q) in sample.iter().enumerate() {
            let op_id = 1_000_000 + (round * SAMPLE_QUERIES + i) as u64;
            let query = M4Query::new(q.t_qs, q.t_qe, q.w as usize)?;
            for op in [Operator::Lsm, Operator::Udf] {
                let started = std::time::Instant::now();
                let whole = tracer.begin("inproc.m4_query", op_id);
                let request = RequestEnvelope {
                    request_id: op_id,
                    deadline_ms: 0,
                    body: Request::M4Query {
                        series: q.series.clone(),
                        op,
                        t_qs: q.t_qs,
                        t_qe: q.t_qe,
                        w: q.w,
                    },
                };
                let (frame, _) = tracer.time("tsnet.wire.encode_request", op_id, || {
                    wire::encode_request(&request)
                });
                let frame = frame?;
                let (decoded_req, _) = tracer.time("tsnet.wire.decode_request", op_id, || {
                    wire::decode_request_payload(payload(&frame))
                });
                decoded_req?;
                let (id, _) =
                    tracer.time("tskv.catalog.resolve", op_id, || kv.series_id(&q.series));
                let id = id.ok_or_else(|| format!("series {} vanished", q.series))?;
                let (snapshot, took) =
                    tracer.time("tskv.snapshot", op_id, || kv.snapshot_by_id(id));
                snap_us.push(us(took));
                let snapshot = snapshot?;
                let before = kv.io().snapshot();
                let (result, took) = match op {
                    Operator::Lsm => tracer.time("m4.lsm.execute", op_id, || {
                        M4Lsm::new().execute(&snapshot, &query)
                    }),
                    Operator::Udf => tracer.time("m4.udf.execute", op_id, || {
                        M4Udf::new().execute(&snapshot, &query)
                    }),
                };
                let result = result?;
                let io = kv.io().snapshot() - before;
                let response = ResponseEnvelope {
                    request_id: op_id,
                    body: Response::M4 {
                        spans: result.spans,
                    },
                };
                let (frame, took_enc) = tracer.time("tsnet.wire.encode_response", op_id, || {
                    wire::encode_response(&response)
                });
                let frame = frame?;
                let (back, took_dec) = tracer.time("tsnet.wire.decode_response", op_id, || {
                    wire::decode_response_payload(payload(&frame))
                });
                back?;
                tracer.end(whole);
                enc_resp.push(us(took_enc));
                dec_resp.push(us(took_dec));
                match op {
                    Operator::Lsm => {
                        lsm_round.push(ms(took));
                        inproc_round.push(ms(started.elapsed()));
                        loaded += io.chunks_loaded;
                        overlapping_chunks +=
                            snapshot.chunks_overlapping(query.full_range()).len() as u64;
                    }
                    Operator::Udf => udf_round.push(ms(took)),
                }
            }
        }
        lsm_ms.push(lsm_round);
        udf_ms.push(udf_round);
        inproc_ms.push(inproc_round);
    }

    for (i, q) in sample.iter().enumerate() {
        let op_id = 1_500_000 + i as u64;
        let query = M4Query::new(q.t_qs, q.t_qe, q.w as usize)?;

        // The layers under the operators, probed on the same snapshot.
        // One catalog probe is too short to time: a burst of them.
        let (id, took) = tracer.time("tskv.catalog.resolve_burst", op_id, || {
            (0..RESOLVE_BURST).fold(None, |_, _| kv.series_id(std::hint::black_box(&q.series)))
        });
        resolve.push(ns(took) / f64::from(RESOLVE_BURST));
        let Some(id) = id else {
            continue;
        };
        let snapshot = kv.snapshot_by_id(id)?;
        let range = query.full_range();
        let probes = tracer.begin("readers.probe", op_id);
        let (chunks, took) = tracer.time("tskv.readers.metadata.overlapping", op_id, || {
            MetadataReader::new(&snapshot).overlapping(range)
        });
        overlapping_us.push(us(took));
        let reader = DataReader::new(&snapshot);
        let step = (chunks.len() / SAMPLE_CHUNKS).max(1);
        for chunk in chunks.iter().step_by(step).take(SAMPLE_CHUNKS) {
            if let ChunkData::File { meta, .. } = &chunk.data {
                sealed_bytes += meta.byte_len;
                sealed_points += meta.stats.count;
            }
            // Twice: the first read misses unless a query left the
            // chunk cached, the second hits unless it does not fit.
            for _ in 0..2 {
                let before = kv.io().snapshot();
                let (points, took) = tracer.time("tskv.readers.data.read_points", op_id, || {
                    reader.read_points(chunk)
                });
                points?;
                let io = kv.io().snapshot() - before;
                if io.cache_hits > 0 {
                    hit_us.push(us(took));
                } else if io.cache_misses > 0 {
                    miss_us.push(us(took));
                }
            }
        }
        if i < 3 {
            let (merged, took) = tracer.time("tskv.readers.merge.collect_merged", op_id, || {
                MergeReader::with_range(&snapshot, range).collect_merged()
            });
            merge_ns += ns(took);
            merged_points += merged?.len() as u64;
        }
        tracer.end(probes);
    }

    let w = f64::from(ctx.workload.width());
    let inproc_p50 = inproc_ms.best_p50();
    out.push(("tsnet.wire.encode_response_us_per_query", median(&enc_resp)));
    out.push(("tsnet.wire.decode_response_us_per_query", median(&dec_resp)));
    out.push((
        "tsnet.server.query_overhead_p50_us",
        (ctx.query.lsm.latency.best_p50() - inproc_p50) * 1e3,
    ));
    out.push(("tskv.catalog.resolve_ns", median(&resolve)));
    out.push(("tskv.snapshot.us", median(&snap_us)));
    out.push((
        "tskv.readers.metadata.overlapping_us",
        median(&overlapping_us),
    ));
    out.push((
        "tskv.readers.data.read_points_us_per_chunk_miss",
        median(&miss_us),
    ));
    out.push((
        "tskv.readers.data.read_points_us_per_chunk_hit",
        median(&hit_us),
    ));
    out.push((
        "tskv.readers.merge.ns_per_point",
        if merged_points == 0 {
            0.0
        } else {
            merge_ns / merged_points as f64
        },
    ));
    out.push(("tsfile.bytes_per_point", ratio(sealed_bytes, sealed_points)));
    out.push(("m4.lsm.execute_p50_ms", lsm_ms.best_p50()));
    out.push(("m4.udf.execute_p50_ms", udf_ms.best_p50()));
    out.push(("m4.lsm.us_per_span", lsm_ms.best_p50() * 1e3 / w));
    out.push(("m4.lsm.load_ratio", ratio(loaded, overlapping_chunks)));
    Ok(())
}

/// The write op assembled in-process against a scratch store whose
/// memtables never fill (so `write_batch` is timed without flushes),
/// then flushed and compacted by hand.
fn write_path(ctx: &Context<'_>, tracer: &mut Tracer, out: &mut Metrics) -> Result<()> {
    const FRESH_SERIES: usize = 200;
    let dir = ctx.home.join("replay-store");
    let config = EngineConfig {
        memtable_threshold: usize::MAX / 2,
        compaction_auto: false,
        ..ctx.workload.engine_config()
    };
    let kv = TsKv::open(&dir, config)?;

    let (created, took) = tracer.time("tskv.catalog.create_series", 2_000_000, || {
        (0..FRESH_SERIES)
            .try_for_each(|i| kv.create_series(&format!("replay.fresh.{i:05}")).map(drop))
    });
    created?;
    out.push((
        "tskv.catalog.create_us_per_series",
        us(took) / FRESH_SERIES as f64,
    ));

    let mut source = Source::fresh(ctx.workload, ctx.seed, ctx.sizes);
    let sub = source.subscription(SAMPLE_WRITES, ctx.workload.width());
    let mut stream = StreamingM4::new(M4Query::new(sub.t_qs, sub.t_qe, sub.w as usize)?);
    let (mut enc_ns, mut dec_ns, mut write_ns, mut stream_ns) = (0.0, 0.0, 0.0, 0.0);
    let (mut points, mut stream_points) = (0u64, 0u64);
    let mut inproc_ms = Vec::new();
    let (mut flush_ms, mut flushed_points) = (0.0, 0u64);
    let mut touched: Vec<String> = Vec::new();

    for i in 0..SAMPLE_WRITES {
        let op_id = 2_000_001 + i as u64;
        let req = source.next_request();
        for (series, pts) in &req.entries {
            if *series == sub.series {
                let (_, took) =
                    tracer.time("m4.stream.ingest_all", op_id, || stream.ingest_all(pts));
                stream_ns += ns(took);
                stream_points += pts.len() as u64;
            }
            if !touched.contains(series) {
                touched.push(series.clone());
            }
        }
        let started = std::time::Instant::now();
        let whole = tracer.begin("inproc.write_batch", op_id);
        let request = RequestEnvelope {
            request_id: op_id,
            deadline_ms: 0,
            body: Request::WriteBatch {
                entries: req.entries,
            },
        };
        let (frame, took) = tracer.time("tsnet.wire.encode_request", op_id, || {
            wire::encode_request(&request)
        });
        enc_ns += ns(took);
        let frame = frame?;
        let (env, took) = tracer.time("tsnet.wire.decode_request", op_id, || {
            wire::decode_request_payload(payload(&frame))
        });
        dec_ns += ns(took);
        let Request::WriteBatch { entries } = env?.body else {
            return Err("a write request decoded as something else".into());
        };
        let (batch, _) = tracer.time("tskv.batch.build", op_id, || store::write_batch(&entries));
        let (written, took) = tracer.time("tskv.write_batch", op_id, || kv.write_batch(&batch));
        write_ns += ns(took);
        let response = ResponseEnvelope {
            request_id: op_id,
            body: Response::Written {
                points: written? as u64,
            },
        };
        let (frame, _) = tracer.time("tsnet.wire.encode_response", op_id, || {
            wire::encode_response(&response)
        });
        let (back, _) = tracer.time("tsnet.wire.decode_response", op_id, || {
            wire::decode_response_payload(payload(&frame?))
        });
        back?;
        tracer.end(whole);
        inproc_ms.push(ms(started.elapsed()));
        points += req.points;

        // Two generations of files, so that compaction has work.
        if i + 1 == SAMPLE_WRITES / 2 || i + 1 == SAMPLE_WRITES {
            for series in &touched {
                let Some(id) = kv.series_id(series) else {
                    continue;
                };
                let unflushed = kv.unflushed_points(series)? as u64;
                let (flushed, took) = tracer.time("tskv.flush_by_id", op_id, || kv.flush_by_id(id));
                flushed?;
                flush_ms += ms(took);
                flushed_points += unflushed;
            }
        }
    }
    let mut sealed = Vec::new();
    store::files_with_suffix(&dir, ".tsfile", &mut sealed)?;
    let sealed_bytes: u64 = sealed
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();

    let (mut compact_ms, mut compact_in) = (0.0, 0u64);
    for series in &touched {
        let Some(id) = kv.series_id(series) else {
            continue;
        };
        let (report, took) = tracer.time("tskv.compact_by_id", 2_999_999, || kv.compact_by_id(id));
        compact_ms += ms(took);
        compact_in += report?.bytes_read;
    }
    drop(kv);
    std::fs::remove_dir_all(&dir)?;

    let per_point = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    out.push((
        "tsnet.wire.encode_request_ns_per_point",
        per_point(enc_ns, points),
    ));
    out.push((
        "tsnet.wire.decode_request_ns_per_point",
        per_point(dec_ns, points),
    ));
    out.push((
        "tsnet.server.write_overhead_p50_us",
        (ctx.ingest.ack.best_p50() - median(&inproc_ms)) * 1e3,
    ));
    out.push((
        "m4.stream.ingest_ns_per_point",
        per_point(stream_ns, stream_points),
    ));
    out.push((
        "tskv.engine.write_batch_ns_per_point",
        per_point(write_ns, points),
    ));
    out.push((
        "tskv.flush.ms_per_mpoint",
        per_point(flush_ms * 1e6, flushed_points),
    ));
    out.push((
        "tskv.flush.bytes_per_user_byte",
        ratio(sealed_bytes, 16 * flushed_points),
    ));
    out.push((
        "tskv.compaction.ms_per_mb_in",
        if compact_in == 0 {
            0.0
        } else {
            compact_ms / (compact_in as f64 / (1 << 20) as f64)
        },
    ));
    Ok(())
}

/// Page encode and decode on pages of the workload's own main series.
fn pages(
    ctx: &Context<'_>,
    tracer: &mut Tracer,
    config: &EngineConfig,
    out: &mut Metrics,
) -> Result<()> {
    const PAGES: usize = 4;
    const REPEATS: usize = 25;
    let mut source = Source::fresh(ctx.workload, ctx.seed, ctx.sizes);
    let main = source.subscription(1, 1).series;
    let mut points: Vec<Point> = Vec::new();
    for _ in 0..10_000 {
        if points.len() >= PAGES * DEFAULT_PAGE_POINTS {
            break;
        }
        for (series, pts) in source.next_request().entries {
            if series == main {
                points.extend(pts);
            }
        }
    }
    points.sort_by_key(|p| p.t);
    let (ts, val) = (config.ts_encoding, config.val_encoding);
    let (mut enc, mut dec, mut dec_ts, mut n) = (0.0, 0.0, 0.0, 0u64);
    for page in points.chunks(DEFAULT_PAGE_POINTS).take(PAGES) {
        let stats = ChunkStatistics::from_points(page)?;
        for _ in 0..REPEATS {
            let mut body = Vec::new();
            let (_, took) = tracer.time("tsfile.page.encode_page", 3_000_000, || {
                encode_page(page, ts, val, &mut body)
            });
            enc += ns(took);
            let meta = PageMeta {
                offset: 0,
                byte_len: body.len() as u64,
                stats,
            };
            let (decoded, took) = tracer.time("tsfile.page.decode_page", 3_000_000, || {
                decode_page(&body, ts, val, &meta)
            });
            dec += ns(took);
            if decoded?.as_slice() != page {
                return Err("a page did not decode to what was encoded".into());
            }
            let (stamps, took) =
                tracer.time("tsfile.page.decode_page_timestamps", 3_000_000, || {
                    decode_page_timestamps(&body, ts, &meta, None)
                });
            dec_ts += ns(took);
            stamps?;
            n += page.len() as u64;
        }
    }
    let per_point = |total: f64| if n == 0 { 0.0 } else { total / n as f64 };
    out.push(("tsfile.page.encode_ns_per_point", per_point(enc)));
    out.push(("tsfile.page.decode_ns_per_point", per_point(dec)));
    out.push(("tsfile.page.decode_ts_ns_per_point", per_point(dec_ts)));
    Ok(())
}

/// Opening sealed files of the served store, as recovery does.
fn files(tracer: &mut Tracer, built: &Built, out: &mut Metrics) -> Result<()> {
    let mut sealed = Vec::new();
    store::files_with_suffix(&built.dir, ".tsfile", &mut sealed)?;
    let step = (sealed.len() / SAMPLE_FILES).max(1);
    let mut open_us = Vec::new();
    for path in sealed.iter().step_by(step).take(SAMPLE_FILES) {
        let (reader, took) =
            tracer.time("tsfile.reader.open", 4_000_000, || TsFileReader::open(path));
        reader?;
        open_us.push(us(took));
    }
    out.push(("tsfile.reader.open_us", median(&open_us)));
    Ok(())
}
