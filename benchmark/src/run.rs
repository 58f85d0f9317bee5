//! One run: epochs of set-up and timed phases, the checks, the metrics.
//!
//! Phase skeleton, the same in every workload so that every workload
//! reports every end-to-end metric: epochs of `S` set-up → `Q` query →
//! `I` ingest (`live_tail`: one loop for both) → `C` crash; then, on the
//! last epoch's store, the final `flush_seal` and `V` verify.

use std::path::{Path, PathBuf};

use tsnet::Operator;

use crate::driver::{Driver, Handicap};
use crate::estim;
use crate::gen::Digest;
use crate::layers;
use crate::phases::{self, CrashPhase, IngestPhase, QueryPhase};
use crate::report::{declared, Metric, Outcome};
use crate::store::{self, Built};
use crate::trace::Tracer;
use crate::verify;
use crate::workloads::{Sizes, Workload, END_TO_END, INFORMATIONAL, PER_LAYER};
use crate::Result;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    pub smoke: bool,
    /// Directory the run builds its stores under (created, and emptied
    /// of everything but `trace.jsonl` when the run ends).
    pub home: PathBuf,
    pub handicap: Handicap,
}

/// What the end-to-end metrics are computed from.
struct Measured<'a> {
    /// The build of phase `S`, per epoch (s).
    setup_s: Vec<f64>,
    /// `VmHWM` after the first epoch's timed phases (MB).
    peak_rss_mb: f64,
    query: &'a QueryPhase,
    ingest: &'a IngestPhase,
    crash: &'a CrashPhase,
    final_flush_seal_s: f64,
    store_bytes: u64,
    live_points: u64,
}

/// A fixed piece of arithmetic, timed before and after the run: when
/// the two differ the machine drifted, not the program.
fn calib_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let started = std::time::Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        best = best.min(crate::driver::ms(started.elapsed()));
    }
    best
}

fn info(out: &mut Vec<Metric>, name: impl Into<String>, unit: &'static str, value: f64) {
    out.push(Metric {
        name: name.into(),
        unit,
        value,
    });
}

/// Wall-clock seconds by phase, summed over the epochs (printed, so
/// that the sizes can be tuned to the time a run may take).
#[derive(Default)]
struct Wall {
    phases: Vec<(&'static str, f64)>,
}

impl Wall {
    fn add(&mut self, phase: &'static str, since: std::time::Instant) {
        let took = since.elapsed().as_secs_f64();
        match self.phases.iter_mut().find(|(p, _)| *p == phase) {
            Some((_, total)) => *total += took,
            None => self.phases.push((phase, took)),
        }
    }

    fn line(&self) -> String {
        let cells: Vec<String> = self
            .phases
            .iter()
            .map(|(p, s)| format!("{p} {s:.2}"))
            .collect();
        format!("wall by phase (s): {}", cells.join(", "))
    }
}

fn fresh_dir(path: &Path) -> Result<()> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)?;
    Ok(())
}

/// Stop serving a store and delete it.
fn tear_down(built: Built) -> Result<()> {
    let Built {
        server, kv, dir, ..
    } = built;
    server.shutdown();
    drop(server);
    drop(kv);
    std::fs::remove_dir_all(dir)?;
    Ok(())
}

/// The replayed subscription must equal a fresh query once the server
/// has pushed everything it owes.
fn check_subscription(
    driver: &mut Driver,
    built: &Built,
    problems: &mut Vec<String>,
) -> Result<()> {
    if !built
        .server
        .quiesce_subscriptions(std::time::Duration::from_secs(20))
    {
        problems.push("subscriptions did not quiesce".into());
    }
    driver.drain_pushes()?;
    let Some(spec) = driver.sub.as_ref().map(|s| s.spec.clone()) else {
        return Ok(());
    };
    let (_, fresh) = driver.query(&spec, Operator::Lsm);
    match (fresh, driver.sub.as_ref()) {
        (Some(fresh), Some(sub)) => {
            if !verify::same(&fresh, &sub.replay.spans().to_vec()) {
                problems.push("SubReplay state != fresh M4 query".into());
            }
            if sub.replay.has_seq_gap() || sub.replay.error().is_some() {
                problems.push("push stream had a sequence gap or an error".into());
            }
        }
        _ => problems.push("could not re-query the subscription".into()),
    }
    Ok(())
}

pub fn run(opts: &Options) -> Result<Outcome> {
    let mut sizes = Sizes::of(opts.workload, opts.smoke);
    if opts.trace {
        // The traced run spends its time on the per-layer replay: two
        // epochs, the same ops without spans and then with them.
        sizes.epochs = 2;
    }
    let workload = opts.workload;
    let calib_before = calib_ms();
    fresh_dir(&opts.home)?;
    let mut problems: Vec<String> = Vec::new();

    // Epochs: each builds the store afresh from the same seed (phase S)
    // and runs the same Q, I and C against it, so every phase's rounds
    // are spread over the whole run: a neighbour that is busy for ten
    // seconds spoils some rounds of every phase, not every round of
    // one. The last epoch's store goes on to the seal and verify phases.
    let (mut setup_s, mut peak_rss_mb) = (Vec::new(), 0.0);
    let (mut query, mut ingest) = (QueryPhase::default(), IngestPhase::default());
    let mut crash = CrashPhase::default();
    let (mut attempted, mut failed, mut failures) = (0, 0, Vec::new());
    let mut current: Option<(Built, Driver)> = None;
    let mut wall = Wall::default();
    for epoch in 0..sizes.epochs {
        let last = epoch + 1 == sizes.epochs;
        let started = std::time::Instant::now();
        if let Some((built, mut driver)) = current.take() {
            attempted += driver.attempted;
            failed += driver.failed;
            failures.append(&mut driver.failures);
            drop(driver);
            tear_down(built)?;
        }
        let dir = opts.home.join(format!("store-{epoch}"));
        fresh_dir(&dir)?;
        let mut built = store::build(workload, opts.seed, &sizes, &dir)?;
        setup_s.push(built.build_s);
        wall.add("S (and tear-down)", started);
        let started = std::time::Instant::now();
        let mut driver = Driver::connect(
            built.server.local_addr(),
            opts.handicap,
            Tracer::new(opts.trace && last),
        )?;
        if opts.trace {
            driver.watch_flushes(built.kv.subscribe_changes(1 << 14));
        }
        let subscription = built
            .source
            .subscription(sizes.requests(), workload.width());
        if workload == Workload::LiveTail {
            driver.subscribe(subscription)?;
            let (q, i) = phases::tail_phase(
                &mut driver,
                &built.kv,
                &mut built.source,
                &mut built.expected,
                &sizes,
            );
            query.absorb(q);
            ingest.absorb(i);
            wall.add("Q+I", started);
        } else {
            query.absorb(phases::query_phase(
                &mut driver,
                &built.kv,
                &built.queries,
                sizes.query_rounds,
            ));
            wall.add("Q", started);
            let started = std::time::Instant::now();
            driver.subscribe(subscription)?;
            ingest.absorb(phases::ingest_phase(
                &mut driver,
                &built.kv,
                &mut built.source,
                &mut built.expected,
                &sizes,
            ));
            wall.add("I", started);
        }
        let started = std::time::Instant::now();
        if epoch == 0 {
            // One build and the timed phases in a fresh process, before
            // the benchmark's own crash copies and checks: the engine's
            // memory (the generators stream).
            peak_rss_mb = store::peak_rss_mb();
        }
        if last {
            check_subscription(&mut driver, &built, &mut problems)?;
        }
        crash.absorb(phases::crash_phase(
            &mut driver,
            &built,
            workload,
            sizes.recoveries,
            last,
            &opts.home,
        )?);
        wall.add("C", started);
        current = Some((built, driver));
    }
    let Some((built, mut driver)) = current else {
        return Err("no epoch ran".into());
    };
    problems.extend(
        crash
            .lost
            .iter()
            .map(|l| format!("crash image lost data: {l}")),
    );
    if crash.unflushed_points == 0 {
        problems.push("the crash image held no points that were only in the WAL".into());
    }

    // In a traced run the per-layer replay comes here, while the store
    // still has the shape the phases saw; then seal everything for the
    // space measurement.
    let started = std::time::Instant::now();
    let per_layer = if opts.trace {
        let ctx = layers::Context {
            workload,
            seed: opts.seed,
            sizes: &sizes,
            query: &query,
            ingest: &ingest,
            crash: &crash,
            server: built.server.stats().snapshot(0),
            home: &opts.home,
        };
        Some(layers::replay(&ctx, &mut driver, &built)?)
    } else {
        None
    };
    if opts.trace {
        wall.add("per-layer replay", started);
    }
    let started = std::time::Instant::now();
    let final_flush_seal_s = driver.flush_seal(None, true).unwrap_or(0.0);
    let store_bytes = store::dir_bytes(&built.dir)?;
    wall.add("final seal", started);
    let started = std::time::Instant::now();

    // V.
    let asked: Vec<_> = query.answers.iter().map(|a| a.query.clone()).collect();
    let reference = verify::oracle(workload, opts.seed, &sizes, &asked)?;
    problems.extend(verify::wrong_answers(&query.answers, &reference));
    if query.answers.is_empty() {
        problems.push("no query was answered".into());
    }
    let final_problems = store::mismatches(&built.kv, &built.expected)?;
    problems.extend(
        final_problems
            .iter()
            .map(|l| format!("sealed store lost data: {l}")),
    );
    wall.add("V", started);

    let measured = Measured {
        setup_s,
        peak_rss_mb,
        query: &query,
        ingest: &ingest,
        crash: &crash,
        final_flush_seal_s,
        store_bytes,
        live_points: built.expected.live_points(),
    };
    let mut infos = Vec::new();
    let mut by_round = Vec::new();
    let mut span_report = Vec::new();
    // The user-visible metrics without a bound lead the information.
    let unbounded = INFORMATIONAL.map(|(name, unit, ..)| (name, unit));
    let (end_to_end, unbounded_seen): (Vec<_>, Vec<_>) =
        user_metrics(&measured, &mut infos, &mut by_round)
            .into_iter()
            .partition(|(name, _)| END_TO_END.iter().any(|(n, _)| n == name));
    infos.splice(0..0, declared(&unbounded, unbounded_seen, &mut problems));
    let metrics = if let Some(per_layer) = per_layer {
        // In a traced run what a user sees is information.
        infos.splice(0..0, declared(&END_TO_END, end_to_end, &mut problems));
        if let (Some(on), Some(off)) = (
            query.lsm.best_p50_where(true),
            query.lsm.best_p50_where(false),
        ) {
            info(
                &mut infos,
                "trace_overhead_pct",
                "%",
                (on / off - 1.0) * 100.0,
            );
        }
        driver.tracer.write_jsonl(&opts.home.join("trace.jsonl"))?;
        span_report
            .push("spans by name: count, total ms, self ms (span minus its children)".into());
        for (name, a) in driver.tracer.aggregate() {
            span_report.push(format!(
                "  {name:<40} {:>7} {:>12.3} {:>12.3}",
                a.count,
                a.total_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6
            ));
        }
        declared(&PER_LAYER, per_layer, &mut problems)
    } else {
        declared(&END_TO_END, end_to_end, &mut problems)
    };
    info(&mut infos, "calib_ms_before", "ms", calib_before);
    info(&mut infos, "calib_ms_after", "ms", calib_ms());

    let mut digest = Digest::default();
    for (series, tally) in &built.expected.0 {
        digest.u64(series.len() as u64);
        digest.u64(tally.count);
        digest.u64(tally.hash);
    }
    for q in asked.iter().chain(driver.sub.as_ref().map(|s| &s.spec)) {
        digest.i64(q.t_qs);
        digest.i64(q.t_qe);
        digest.u64(u64::from(q.w));
    }

    attempted += driver.attempted;
    failed += driver.failed;
    failures.append(&mut driver.failures);
    problems.extend(failures.iter().map(|f| format!("failed op: {f}")));
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }
    let config = workload.engine_config();
    let cpus_allowed = store::cpus_allowed().unwrap_or_else(|| "unknown".into());
    let mut setup = vec![
        format!(
            "loop: closed, 1 client thread, 2 connections (rpc + push); {} epochs, each {} rounds over the query list, {} untimed write requests then {} rounds of {}, {} recoveries; cpus allowed: {cpus_allowed}",
            sizes.epochs,
            sizes.query_rounds,
            sizes.ingest_lead,
            sizes.ingest_rounds,
            sizes.round_requests,
            sizes.recoveries,
        ),
        format!(
            "engine: cache_capacity_bytes={} read_threads={} fsync_policy={} memtable_threshold={} compaction_auto={} (rest: EngineConfig::default())",
            config.cache_capacity_bytes,
            config.read_threads,
            config.fsync_policy.as_str(),
            config.memtable_threshold,
            config.compaction_auto
        ),
        "server: ServerConfig::default()".to_string(),
        format!("sizes: {sizes:?}"),
        format!(
            "store: {} live points, {} bytes sealed; crash image {} bytes, {} points only in the WAL",
            measured.live_points, store_bytes, crash.image_bytes, crash.unflushed_points
        ),
    ];

    setup.push(wall.line());
    setup.append(&mut span_report);
    let outcome = Outcome {
        workload,
        seed: opts.seed,
        trace: opts.trace,
        cpus_allowed,
        setup,
        metrics,
        info: infos,
        by_round,
        input_digest: digest.finish(),
        attempted,
        failed,
        problems,
    };
    drop(driver);
    tear_down(built)?;
    Ok(outcome)
}

/// The nine user-visible metrics (and, into `infos`, the tails, ratios
/// and drift that are printed beside them; into `by_round`, what every
/// round, build and recovery measured).
fn user_metrics(
    m: &Measured<'_>,
    infos: &mut Vec<Metric>,
    by_round: &mut Vec<(&'static str, Vec<f64>)>,
) -> Vec<(&'static str, f64)> {
    let lsm = m.query.lsm.latency.best_p50();
    let udf = m.query.udf.latency.best_p50();
    let best = |values: &[f64]| estim::lowest(values).unwrap_or(0.0);
    let space_amp = m.store_bytes as f64 / (16.0 * m.live_points.max(1) as f64);
    let out = vec![
        ("setup_s", best(&m.setup_s)),
        ("query_lsm_p50_ms", lsm),
        ("query_udf_p50_ms", udf),
        ("ingest_points_per_s", m.ingest.best_points_per_s()),
        ("write_ack_p50_ms", m.ingest.ack.best_p50()),
        ("push_lag_p50_ms", m.ingest.lag.best_p50()),
        ("recovery_s", best(&m.crash.recovery_s)),
        ("space_amp", space_amp),
        ("peak_rss_mb", m.peak_rss_mb),
    ];

    // ROADMAP item 2: M4-LSM should stay within 1.1x of M4-UDF in
    // every cell. Not gated: it would reject a PR that only speeds up
    // M4-UDF.
    info(infos, "lsm_over_udf", "ratio", lsm / udf);
    // Names are the metric each series is the rounds of.
    let phases: [(&str, &'static str, &estim::Rounds); 4] = [
        ("query_lsm", "query_lsm_p50_ms", &m.query.lsm.latency),
        ("query_udf", "query_udf_p50_ms", &m.query.udf.latency),
        ("write_ack", "write_ack_p50_ms", &m.ingest.ack),
        ("push_lag", "push_lag_p50_ms", &m.ingest.lag),
    ];
    for (name, metric, rounds) in phases {
        let pooled = rounds.pooled();
        info(infos, format!("{name}_samples"), "count", pooled.n as f64);
        info(infos, format!("{name}_pooled_p50_ms"), "ms", pooled.p50);
        if pooled.tail_label != "p50" {
            info(
                infos,
                format!("{name}_pooled_{}_ms", pooled.tail_label),
                "ms",
                pooled.tail,
            );
        }
        info(
            infos,
            format!("{name}_round_trend_pct"),
            "%",
            estim::trend(&rounds.p50s()) * 100.0,
        );
        by_round.push((metric, rounds.p50s()));
    }
    info(
        infos,
        "ingest_round_trend_pct",
        "%",
        estim::trend(&m.ingest.points_per_s) * 100.0,
    );
    by_round.push(("ingest_points_per_s", m.ingest.points_per_s.clone()));
    by_round.push(("setup_s", m.setup_s.clone()));
    by_round.push(("recovery_s", m.crash.recovery_s.clone()));
    let query_ms: f64 = m.query.lsm.latency.rounds.concat().iter().sum::<f64>()
        + m.query.udf.latency.rounds.concat().iter().sum::<f64>();
    if query_ms > 0.0 {
        let queries = (m.query.lsm.queries() + m.query.udf.queries()) as f64;
        info(infos, "query_rps", "1/s", queries / (query_ms / 1e3));
    }
    info(infos, "setup_s_median", "s", estim::median(&m.setup_s));
    info(
        infos,
        "recovery_s_median",
        "s",
        estim::median(&m.crash.recovery_s),
    );
    info(infos, "peak_rss_mb_at_exit", "MB", store::peak_rss_mb());
    info(
        infos,
        "final_flush_seal_compact_s",
        "s",
        m.final_flush_seal_s,
    );
    out
}
