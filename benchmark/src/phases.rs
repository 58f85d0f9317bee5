//! The timed phases of an epoch. Every epoch builds the same store from
//! the same seed and runs the same rounds against it; a timing metric
//! is its phase's best round over all epochs (`estim::Rounds`). Nothing
//! is warmed up or discarded: a cold first round simply never is the
//! best one.
//!
//! `Q` runs the workload's fixed query list, M4-LSM then M4-UDF, round
//! after round on a quiescent store; `I` replays the workload's write
//! plan in rounds of equal size, waiting after each ack for the
//! subscription's push; `live_tail` runs both in one loop; `C` copies
//! the store at a quiescent point right after an ack and reopens fresh
//! copies.

use std::path::Path;
use std::time::{Duration, Instant};

use tskv::stats::IoSnapshot;
use tskv::TsKv;
use tsnet::Operator;

use crate::driver::Driver;
use crate::estim::{self, Rounds};
use crate::gen::{self, QuerySpec};
use crate::store::{self, Built, Expected, Source, WriteReq};
use crate::verify::Answered;
use crate::workloads::{Sizes, Workload};
use crate::Result;

/// What one operator did over its rounds: one round over the fixed
/// query list, or one `live_tail` round's queries.
#[derive(Debug, Clone, Default)]
pub struct OperatorRounds {
    /// Round-trip latencies (ms).
    pub latency: Rounds,
    /// Whether spans were being recorded during that round (the traced
    /// run has one epoch without and one with, to price the spans:
    /// `trace_overhead_pct`).
    pub traced: Vec<bool>,
    /// Engine counter deltas of the rounds.
    pub io: Vec<IoSnapshot>,
}

impl OperatorRounds {
    fn absorb(&mut self, mut later: OperatorRounds) {
        self.latency.append(&mut later.latency);
        self.traced.append(&mut later.traced);
        self.io.append(&mut later.io);
    }

    /// Queries timed, over all rounds.
    pub fn queries(&self) -> u64 {
        self.latency.rounds.iter().map(|r| r.len() as u64).sum()
    }

    pub fn io_sum(&self, field: impl Fn(&IoSnapshot) -> u64) -> u64 {
        self.io.iter().map(field).sum()
    }

    /// The latency estimate over the rounds recorded with spans on/off.
    pub fn best_p50_where(&self, traced: bool) -> Option<f64> {
        let picked = Rounds {
            rounds: self
                .latency
                .rounds
                .iter()
                .zip(&self.traced)
                .filter(|(_, t)| **t == traced)
                .map(|(r, _)| r.clone())
                .collect(),
        };
        (!picked.rounds.is_empty()).then(|| picked.best_p50())
    }
}

#[derive(Debug, Clone, Default)]
pub struct QueryPhase {
    pub lsm: OperatorRounds,
    pub udf: OperatorRounds,
    /// The last round's answers, for phase `V`.
    pub answers: Vec<Answered>,
}

impl QueryPhase {
    /// Add a later epoch's rounds; its answers replace these.
    pub fn absorb(&mut self, later: QueryPhase) {
        self.lsm.absorb(later.lsm);
        self.udf.absorb(later.udf);
        self.answers = later.answers;
    }

    fn side(&mut self, op: Operator) -> &mut OperatorRounds {
        match op {
            Operator::Lsm => &mut self.lsm,
            Operator::Udf => &mut self.udf,
        }
    }
}

/// Phase `Q` over a fixed query list: `rounds` rounds per operator.
pub fn query_phase(
    driver: &mut Driver,
    kv: &TsKv,
    queries: &[QuerySpec],
    rounds: usize,
) -> QueryPhase {
    let mut phase = QueryPhase {
        answers: queries
            .iter()
            .map(|q| Answered {
                query: q.clone(),
                lsm: None,
                udf: None,
            })
            .collect(),
        ..QueryPhase::default()
    };
    let traced = driver.tracer.enabled();
    for _ in 0..rounds {
        for op in [Operator::Lsm, Operator::Udf] {
            let before = kv.io().snapshot();
            let mut latencies = Vec::with_capacity(queries.len());
            for (q, answered) in queries.iter().zip(&mut phase.answers) {
                let (ms, spans) = driver.query(q, op);
                latencies.push(ms);
                match op {
                    Operator::Lsm => answered.lsm = spans,
                    Operator::Udf => answered.udf = spans,
                }
            }
            let side = phase.side(op);
            side.latency.push(latencies);
            side.traced.push(traced);
            side.io.push(kv.io().snapshot() - before);
        }
    }
    phase
}

#[derive(Debug, Clone, Default)]
pub struct IngestPhase {
    /// `write_batch` round trips (ms), by round.
    pub ack: Rounds,
    /// Write sent → matching `SpanDelta` held (ms), by round.
    pub lag: Rounds,
    /// Acked points ÷ elapsed of each round (flush stalls, push waits
    /// and, on `live_tail`, the round's queries included).
    pub points_per_s: Vec<f64>,
    /// Engine counter deltas, one per epoch.
    pub io: Vec<IoSnapshot>,
    /// Points acknowledged over all epochs.
    pub points: u64,
    /// Memtable flushes seen on the engine's change feed (traced runs
    /// only).
    pub flushes: u64,
}

impl IngestPhase {
    /// Add a later epoch's rounds.
    pub fn absorb(&mut self, mut later: IngestPhase) {
        self.ack.append(&mut later.ack);
        self.lag.append(&mut later.lag);
        self.points_per_s.append(&mut later.points_per_s);
        self.io.append(&mut later.io);
        self.points += later.points;
        self.flushes += later.flushes;
    }

    pub fn io_sum(&self, field: impl Fn(&IoSnapshot) -> u64) -> u64 {
        self.io.iter().map(field).sum()
    }

    /// The best round's rate: the throughput estimator.
    pub fn best_points_per_s(&self) -> f64 {
        estim::highest(&self.points_per_s).unwrap_or(0.0)
    }
}

/// One epoch's ingest in the making.
struct Ingest<'a> {
    kv: &'a TsKv,
    before: IoSnapshot,
    flushes_before: u64,
    phase: IngestPhase,
}

impl<'a> Ingest<'a> {
    fn begin(kv: &'a TsKv, driver: &Driver) -> Self {
        Ingest {
            kv,
            before: kv.io().snapshot(),
            flushes_before: driver.flushes,
            phase: IngestPhase::default(),
        }
    }

    /// The next `n` requests of the plan, generated before the clock
    /// starts: a round's elapsed time is the engine's, not the
    /// generator's.
    fn plan(&mut self, source: &mut Source, expected: &mut Expected, n: usize) -> Vec<WriteReq> {
        (0..n)
            .map(|_| {
                let req = source.next_request();
                expected.add_entries(&req.entries);
                self.phase.points += req.points;
                req
            })
            .collect()
    }

    /// One timed round: `each` runs one planned request (and whatever
    /// the workload does beside it) and returns its ack and push lag.
    fn round(
        &mut self,
        requests: Vec<WriteReq>,
        mut each: impl FnMut(usize, WriteReq) -> (f64, Option<f64>),
    ) {
        let points: u64 = requests.iter().map(|r| r.points).sum();
        let (mut acks, mut lags) = (Vec::with_capacity(requests.len()), Vec::new());
        let started = Instant::now();
        for (i, req) in requests.into_iter().enumerate() {
            let (ack, lag) = each(i, req);
            acks.push(ack);
            lags.extend(lag);
        }
        let elapsed = started.elapsed().as_secs_f64();
        self.phase.ack.push(acks);
        self.phase.lag.push(lags);
        if elapsed > 0.0 {
            self.phase.points_per_s.push(points as f64 / elapsed);
        }
    }

    fn finish(mut self, driver: &Driver) -> IngestPhase {
        self.phase.io = vec![self.kv.io().snapshot() - self.before];
        self.phase.flushes = driver.flushes - self.flushes_before;
        self.phase
    }
}

/// Phase `I`: `ingest_lead` untimed requests, then the timed rounds.
pub fn ingest_phase(
    driver: &mut Driver,
    kv: &TsKv,
    source: &mut Source,
    expected: &mut Expected,
    sizes: &Sizes,
) -> IngestPhase {
    let mut ingest = Ingest::begin(kv, driver);
    for req in ingest.plan(source, expected, sizes.ingest_lead) {
        driver.write(req.entries, req.expect_push);
    }
    for _ in 0..sizes.ingest_rounds {
        let requests = ingest.plan(source, expected, sizes.round_requests);
        ingest.round(requests, |_, req| {
            driver.write(req.entries, req.expect_push)
        });
    }
    ingest.finish(driver)
}

/// `live_tail`: reads beside writes in one deterministic loop. Each
/// cycle writes one second of data to every tail series and waits for
/// the push; every second cycle queries the last five minutes of one
/// series. M4-LSM rounds and M4-UDF rounds alternate.
pub fn tail_phase(
    driver: &mut Driver,
    kv: &TsKv,
    source: &mut Source,
    expected: &mut Expected,
    sizes: &Sizes,
) -> (QueryPhase, IngestPhase) {
    let mut queries = QueryPhase::default();
    let mut ingest = Ingest::begin(kv, driver);
    let traced = driver.tracer.enabled();
    let mut issued = 0usize;
    for round in 0..sizes.ingest_rounds {
        let op = if round % 2 == 0 {
            Operator::Lsm
        } else {
            Operator::Udf
        };
        let before = kv.io().snapshot();
        let (mut latencies, mut answers) = (Vec::new(), Vec::new());
        let requests = ingest.plan(source, expected, sizes.round_requests);
        ingest.round(requests, |cycle, req| {
            // Where series `s` stands once this cycle is written.
            let s = issued % sizes.tail_series.max(1);
            let head = req
                .entries
                .get(s)
                .and_then(|(_, points)| points.last())
                .map_or(0, |p| (p.t - gen::START) / gen::TAIL_DELTA_MS + 1);
            let timed = driver.write(req.entries, req.expect_push);
            if cycle % 2 == 1 {
                issued += 1;
                let q = QuerySpec {
                    series: gen::tail_name(s),
                    t_qs: gen::START
                        + (head - sizes.tail_window as i64).max(0) * gen::TAIL_DELTA_MS,
                    t_qe: gen::START + head * gen::TAIL_DELTA_MS,
                    w: Workload::LiveTail.width(),
                };
                let (ms, spans) = driver.query(&q, op);
                latencies.push(ms);
                let (lsm, udf) = match op {
                    Operator::Lsm => (spans, None),
                    Operator::Udf => (None, spans),
                };
                answers.push(Answered { query: q, lsm, udf });
            }
            timed
        });
        let side = queries.side(op);
        side.latency.push(latencies);
        side.traced.push(traced);
        side.io.push(kv.io().snapshot() - before);
        // Keep the answers of the last round of each operator.
        if round + 2 >= sizes.ingest_rounds {
            queries.answers.append(&mut answers);
        }
    }
    (queries, ingest.finish(driver))
}

#[derive(Debug, Clone, Default)]
pub struct CrashPhase {
    /// `TsKv::open` + a snapshot of every series, per fresh copy (s).
    pub recovery_s: Vec<f64>,
    /// The `TsKv::open` part alone (ms).
    pub open_ms: Vec<f64>,
    /// Points that were only in the WAL when the image was taken.
    pub unflushed_points: u64,
    pub stores_instantiated: u64,
    /// Acknowledged points the reopened image does not return.
    pub lost: Vec<String>,
    pub image_bytes: u64,
}

impl CrashPhase {
    /// Add a later epoch's recoveries; its image replaces this one's.
    pub fn absorb(&mut self, mut later: CrashPhase) {
        self.recovery_s.append(&mut later.recovery_s);
        self.open_ms.append(&mut later.open_ms);
        self.unflushed_points = later.unflushed_points;
        self.stores_instantiated = later.stores_instantiated;
        self.lost = later.lost;
        self.image_bytes = later.image_bytes;
    }
}

/// Wait until the background compaction scheduler has nothing queued
/// or running, so that a directory copy sees a stable set of files.
fn wait_compaction_idle(kv: &TsKv) {
    if !kv.config().compaction_auto {
        return;
    }
    let settle = Duration::from_millis(5 * kv.config().compaction_interval_ms);
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut idle_since = Instant::now();
    let mut last = kv.io().snapshot();
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(kv.config().compaction_interval_ms));
        let now = kv.io().snapshot();
        let busy = now.compactions_scheduled != now.compactions_completed + now.compactions_skipped;
        if busy || now.compactions_scheduled != last.compactions_scheduled {
            idle_since = Instant::now();
        }
        last = now;
        if idle_since.elapsed() >= settle {
            return;
        }
    }
}

/// Phase `C`: the store is quiescent (closed loop, last request
/// acknowledged, no compaction queued). Copy it — what `kill -9` now
/// would leave, since acknowledged bytes are in the page cache — and
/// recover the copy; `recoveries` times, each on a fresh copy, because
/// recovery tidies up what it finds. With `verify`, the last recovered
/// store is checked against every acked point.
pub fn crash_phase(
    driver: &mut Driver,
    built: &Built,
    workload: Workload,
    recoveries: usize,
    verify: bool,
    home: &Path,
) -> Result<CrashPhase> {
    wait_compaction_idle(&built.kv);
    let mut phase = CrashPhase::default();
    for series in built.expected.0.keys() {
        phase.unflushed_points += built.kv.unflushed_points(series).unwrap_or(0) as u64;
    }
    let image = home.join("crash-image");
    for recovery in 0..recoveries.max(1) {
        store::copy_dir(&built.dir, &image)?;
        phase.image_bytes = store::dir_bytes(&image)?;
        driver.attempted += 1;
        let op = driver.attempted;
        let span = driver.tracer.begin("recovery", op);
        let config = workload.engine_config();
        let (opened, open_took) = driver
            .tracer
            .time("tskv.open", op, || TsKv::open(&image, config));
        let kv = opened?;
        let (snapped, snap_took) = driver.tracer.time("tskv.snapshot_all", op, || {
            (0..kv.series_count())
                .try_for_each(|id| kv.snapshot_by_id(tskv::SeriesId(id as u32)).map(drop))
        });
        snapped?;
        driver.tracer.end(span);
        phase.recovery_s.push((open_took + snap_took).as_secs_f64());
        phase.open_ms.push(crate::driver::ms(open_took));
        phase.stores_instantiated = kv.io().snapshot().stores_instantiated;
        if verify && recovery + 1 == recoveries.max(1) {
            phase.lost = store::mismatches(&kv, &built.expected)?;
        }
        drop(kv);
        std::fs::remove_dir_all(&image)?;
    }
    Ok(phase)
}
