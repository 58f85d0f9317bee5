//! Shared experiment machinery: store construction, query timing,
//! result rows, and table printing.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use m4::{M4Query, M4Result, Operator};
use tskv::config::EngineConfig;
use tskv::stats::IoSnapshot;
use tskv::{SeriesSnapshot, TsKv};
use workload::{apply_random_deletes, load_sequential, load_with_overlap, Dataset};

/// One measured data point, serialized into the harness's JSON output
/// and printed as a table row.
#[derive(Debug, Clone, Serialize)]
pub struct ExpRow {
    pub experiment: String,
    pub dataset: String,
    pub operator: String,
    /// The swept parameter's name (e.g. "w", "range_ms", "overlap_pct").
    pub param: String,
    /// The swept parameter's value.
    pub value: f64,
    /// Median query latency in milliseconds.
    pub latency_ms: f64,
    /// Chunk bodies loaded from disk during one query.
    pub chunks_loaded: u64,
    /// Points fully decoded during one query.
    pub points_decoded: u64,
    /// Timestamps decoded in timestamp-only reads (whole columns).
    pub timestamps_decoded: u64,
}

/// Run provenance recorded at the top of every `--out` JSON file, so
/// BENCH artifacts are self-describing: the run size and the read-path
/// configuration every experiment's stores are opened with
/// ([`Harness::store_config`]). Experiments that sweep a knob say so in
/// their own rows.
#[derive(Debug, Clone, Serialize)]
pub struct BenchMeta {
    pub scale: f64,
    pub repeats: usize,
    pub read_threads: usize,
    pub enable_read_cache: bool,
}

impl BenchMeta {
    pub fn new(h: &Harness) -> Self {
        let config = Harness::store_config();
        BenchMeta {
            scale: h.scale,
            repeats: h.repeats,
            read_threads: config.read_threads,
            enable_read_cache: config.cache_capacity_bytes > 0,
        }
    }
}

/// The document `repro --out` writes: `{"meta": ..., "rows": [...]}`.
#[derive(Debug, Serialize)]
pub struct BenchReport {
    pub meta: BenchMeta,
    pub rows: Vec<ExpRow>,
}

/// Experiment context: scratch directory, scale, repetitions.
#[derive(Debug, Clone)]
pub struct Harness {
    pub scale: f64,
    pub repeats: usize,
    pub root: PathBuf,
    /// Datasets to run (defaults to all four).
    pub datasets: Vec<Dataset>,
}

impl Harness {
    /// Create a harness writing stores under `root` (created on use).
    pub fn new(scale: f64, repeats: usize) -> Self {
        // pid + a process-wide counter: harnesses of one process (the
        // experiments' tests run in parallel) must not share a root
        // that `cleanup` removes.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!("m4-bench-{}-{n}", std::process::id()));
        Harness {
            scale,
            repeats,
            root,
            datasets: Dataset::ALL.to_vec(),
        }
    }

    /// Restrict to a subset of datasets.
    pub fn with_datasets(mut self, datasets: Vec<Dataset>) -> Self {
        self.datasets = datasets;
        self
    }

    /// Remove all stores built by this harness.
    pub fn cleanup(&self) {
        std::fs::remove_dir_all(&self.root).ok();
    }

    /// The configuration every experiment opens its stores with. The
    /// paper measures *cold* single-threaded reads (its setup has
    /// neither a decoded-chunk cache nor a parallel read path), so the
    /// cross-query LRU is off (capacity 0) and chunk loads are pinned to
    /// one thread.
    pub fn store_config() -> EngineConfig {
        EngineConfig {
            cache_capacity_bytes: 0,
            read_threads: 1,
            ..Default::default()
        }
    }

    /// Build (or rebuild) a store containing `dataset` at this scale,
    /// written with the given overlap fraction and deletes.
    pub fn build_store(
        &self,
        tag: &str,
        dataset: Dataset,
        overlap: f64,
        n_deletes: usize,
        delete_range_ms: i64,
    ) -> StoreFixture {
        let dir = self.root.join(format!("{tag}-{}", dataset.name()));
        std::fs::remove_dir_all(&dir).ok();
        let points = dataset.generate(self.scale);
        let t_min = points.first().expect("non-empty dataset").t;
        let t_max = points.last().expect("non-empty dataset").t;
        let kv = TsKv::open(&dir, Self::store_config()).expect("open store");
        let mut rng = StdRng::seed_from_u64(0xBEEF ^ dataset as u64);
        if overlap > 0.0 {
            load_with_overlap(&kv, "s", &points, overlap, &mut rng).expect("load");
        } else {
            load_sequential(&kv, "s", &points).expect("load");
        }
        if n_deletes > 0 {
            apply_random_deletes(&kv, "s", n_deletes, delete_range_ms, t_min, t_max, &mut rng)
                .expect("deletes");
        }
        StoreFixture {
            kv,
            dir,
            t_min,
            t_max,
            n_points: points.len(),
        }
    }

    /// Time one operator over `repeats` runs; returns the median
    /// latency (ms), per-query I/O deltas, and the last result.
    pub fn time_query(
        &self,
        snapshot: &SeriesSnapshot,
        query: &M4Query,
        operator: Operator,
    ) -> Measured {
        let mut latencies = Vec::with_capacity(self.repeats.max(1));
        let mut io = IoSnapshot::default();
        let mut result = None;
        for _ in 0..self.repeats.max(1) {
            let before = snapshot.io().snapshot();
            let start = Instant::now();
            let r = operator.execute(snapshot, query).expect("query execution");
            latencies.push(start.elapsed().as_secs_f64() * 1e3);
            io = snapshot.io().snapshot() - before;
            result = Some(r);
        }
        latencies.sort_by(f64::total_cmp);
        Measured {
            latency_ms: latencies[latencies.len() / 2],
            io,
            result: result.expect("at least one run"),
        }
    }

    /// Convenience: run both operators and emit two rows.
    #[allow(clippy::too_many_arguments)]
    pub fn compare_row(
        &self,
        experiment: &str,
        dataset: Dataset,
        snapshot: &SeriesSnapshot,
        query: &M4Query,
        param: &str,
        value: f64,
        rows: &mut Vec<ExpRow>,
    ) {
        let udf = self.time_query(snapshot, query, Operator::Udf);
        let lsm = self.time_query(snapshot, query, Operator::Lsm);
        assert!(
            lsm.result.equivalent(&udf.result),
            "operators disagree in {experiment} on {} ({param}={value})",
            dataset.name()
        );
        for (op, m) in [(Operator::Udf, &udf), (Operator::Lsm, &lsm)] {
            rows.push(ExpRow {
                experiment: experiment.to_string(),
                dataset: dataset.name().to_string(),
                operator: op.name().to_string(),
                param: param.to_string(),
                value,
                latency_ms: m.latency_ms,
                chunks_loaded: m.io.chunks_loaded,
                points_decoded: m.io.points_decoded,
                timestamps_decoded: m.io.timestamps_decoded,
            });
        }
    }
}

/// Measurement of one operator on one query.
#[derive(Debug)]
pub struct Measured {
    /// Median latency in milliseconds.
    pub latency_ms: f64,
    /// The I/O counters of the last run.
    pub io: IoSnapshot,
    pub result: M4Result,
}

/// A store built for one experiment configuration.
pub struct StoreFixture {
    pub kv: TsKv,
    pub dir: PathBuf,
    pub t_min: i64,
    pub t_max: i64,
    pub n_points: usize,
}

impl StoreFixture {
    /// Full-range query with `w` spans.
    pub fn full_query(&self, w: usize) -> M4Query {
        M4Query::new(self.t_min, self.t_max + 1, w).expect("valid query")
    }
}

/// Pretty-print rows as an aligned table grouped by experiment.
pub fn print_table(rows: &[ExpRow]) {
    if rows.is_empty() {
        return;
    }
    println!(
        "{:<10} {:<10} {:<8} {:>14} {:>12} {:>10} {:>12} {:>12}",
        "exp", "dataset", "op", "param", "latency_ms", "chunks", "pts_decoded", "ts_decoded"
    );
    for r in rows {
        println!(
            "{:<10} {:<10} {:<8} {:>9}={:<6} {:>12.3} {:>10} {:>12} {:>12}",
            r.experiment,
            r.dataset,
            r.operator,
            r.param,
            trim_float(r.value),
            r.latency_ms,
            r.chunks_loaded,
            r.points_decoded,
            r.timestamps_decoded
        );
    }
}

fn trim_float(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_measure_smoke() {
        let h = Harness::new(0.0005, 2);
        let fx = h.build_store("smoke", Dataset::Kob, 0.5, 3, 10_000);
        assert!(fx.n_points >= 2);
        let snap = fx.kv.snapshot("s").unwrap();
        let q = fx.full_query(16);
        let mut rows = Vec::new();
        h.compare_row("smoke", Dataset::Kob, &snap, &q, "w", 16.0, &mut rows);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.latency_ms >= 0.0));
        // The UDF must decode at least as many points as LSM.
        assert!(rows[0].points_decoded >= rows[1].points_decoded);
        h.cleanup();
    }

    #[test]
    fn trim_float_formats() {
        assert_eq!(trim_float(16.0), "16");
        assert_eq!(trim_float(0.5), "0.500");
    }
}
