//! Phase `S` (set-up) and what the crash and verify phases need from
//! the file system. The initial store is loaded by direct `TsKv` calls;
//! everything after it goes through `tsnet`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tsfile::types::{Point, TimeRange};
use tskv::readers::MergeReader;
use tskv::{TsKv, WriteBatch};
use tsnet::{ServerConfig, TsNetServer};
use workload::multiseries::series_name;

use crate::gen::{self, Entries, FleetPlan, QuerySpec, SensorStream, WidePlan};
use crate::workloads::{Sizes, Workload};
use crate::Result;

/// Series names of the wide family.
pub const WIDE: &str = "wide";
pub const LIVE: &str = "live";

/// Order-independent fingerprint of a set of points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub count: u64,
    pub hash: u64,
}

impl Tally {
    pub fn add(&mut self, p: &Point) {
        self.count += 1;
        self.hash = self
            .hash
            .wrapping_add(gen::sub_seed(p.t as u64, p.v.to_bits()));
    }

    pub fn add_all(&mut self, points: &[Point]) {
        for p in points {
            self.add(p);
        }
    }
}

/// What the store must hold: per series, the live (acknowledged and
/// not deleted) points. Timestamps never repeat within a series, so a
/// count plus an order-independent hash pins the contents.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expected(pub BTreeMap<String, Tally>);

impl Expected {
    pub fn add(&mut self, series: &str, points: &[Point]) {
        if let Some(t) = self.0.get_mut(series) {
            t.add_all(points);
        } else {
            let mut t = Tally::default();
            t.add_all(points);
            self.0.insert(series.to_string(), t);
        }
    }

    pub fn add_entries(&mut self, entries: &Entries) {
        for (series, points) in entries {
            self.add(series, points);
        }
    }

    pub fn live_points(&self) -> u64 {
        self.0.values().map(|t| t.count).sum()
    }
}

/// One write request and what the benchmark knows about it.
#[derive(Debug)]
pub struct WriteReq {
    pub entries: Entries,
    pub points: u64,
    /// The newest timestamp this request adds to the subscribed series,
    /// when it extends that series (an in-order write always moves the
    /// last point of its span, so a `SpanDelta` must follow).
    pub expect_push: Option<i64>,
}

/// The write plan of a workload's ingest phase.
#[derive(Debug)]
pub enum Source {
    /// One in-order series, fixed-size batches (`cold_wide`, `hot_zoom`).
    Live { stream: SensorStream, batch: usize },
    /// Zipf multi-series requests; `FLEET_SUBSCRIBED_RANK` is subscribed
    /// and `newest` is the latest timestamp it has been sent.
    Fleet { plan: FleetPlan, newest: i64 },
    /// One second of data to every tail series per request.
    Tail {
        seed: u64,
        /// Next sample index of each series.
        heads: Vec<i64>,
    },
}

impl Source {
    /// The workload's write plan from its beginning (what phase `S`
    /// hands on, and what the per-layer replay samples).
    pub fn fresh(workload: Workload, seed: u64, sizes: &Sizes) -> Source {
        match workload {
            Workload::ColdWide | Workload::HotZoom => Source::Live {
                stream: SensorStream::new(seed, gen::TAG_LIVE, 0),
                batch: sizes.live_batch_points,
            },
            Workload::IngestFleet => Source::Fleet {
                plan: FleetPlan::new(seed, sizes.fleet_series),
                newest: -1,
            },
            Workload::LiveTail => {
                let stagger =
                    workload.engine_config().memtable_threshold / sizes.tail_series.max(1);
                Source::Tail {
                    seed,
                    heads: (0..sizes.tail_series)
                        .map(|s| (sizes.tail_history + s * stagger) as i64)
                        .collect(),
                }
            }
        }
    }

    pub fn next_request(&mut self) -> WriteReq {
        match self {
            Source::Live { stream, batch } => {
                let points = stream.next_block(*batch);
                WriteReq {
                    points: points.len() as u64,
                    expect_push: points.last().map(|p| p.t),
                    entries: vec![(LIVE.to_string(), points)],
                }
            }
            Source::Fleet { plan, newest } => {
                let draws = plan.next_request();
                let seen = draws
                    .iter()
                    .filter(|(rank, _)| *rank == gen::FLEET_SUBSCRIBED_RANK)
                    .filter_map(|(_, pts)| pts.last().map(|p| p.t))
                    .max();
                let expect_push = seen.filter(|t| *t > *newest);
                if let Some(t) = expect_push {
                    *newest = t;
                }
                WriteReq {
                    points: draws.iter().map(|(_, p)| p.len() as u64).sum(),
                    expect_push,
                    entries: gen::fleet_entries(&draws),
                }
            }
            Source::Tail { seed, heads } => {
                let entries: Entries = heads
                    .iter_mut()
                    .enumerate()
                    .map(|(s, head)| {
                        let pts = gen::tail_points(*seed, s, *head, gen::TAIL_POINTS_PER_CYCLE);
                        *head += gen::TAIL_POINTS_PER_CYCLE as i64;
                        (gen::tail_name(s), pts)
                    })
                    .collect();
                WriteReq {
                    points: entries.iter().map(|(_, p)| p.len() as u64).sum(),
                    expect_push: entries.first().and_then(|(_, p)| p.last()).map(|p| p.t),
                    entries,
                }
            }
        }
    }

    /// The subscription the ingest phase holds: the series every (or
    /// the most) requests extend, over a range that covers
    /// `requests` more requests.
    pub fn subscription(&self, requests: usize, w: u32) -> QuerySpec {
        match self {
            Source::Live { batch, .. } => QuerySpec {
                series: LIVE.to_string(),
                t_qs: gen::START,
                t_qe: gen::wide_end((requests + 1) * batch),
                w,
            },
            Source::Fleet { plan, .. } => {
                // Three times the draws the series expects, and some:
                // a write beyond the range simply shows no push.
                let rank = gen::FLEET_SUBSCRIBED_RANK;
                let draws = (requests * gen::FLEET_DRAWS_PER_REQUEST) as f64 * plan.share(rank);
                QuerySpec {
                    series: series_name(rank),
                    t_qs: 0,
                    t_qe: plan.head(rank) + (3.0 * draws + 20.0) as i64 * gen::FLEET_DRAW_MS,
                    w,
                }
            }
            Source::Tail { heads, .. } => {
                let head = heads.first().copied().unwrap_or(0);
                let ahead = ((requests + 1) * gen::TAIL_POINTS_PER_CYCLE) as i64;
                QuerySpec {
                    series: gen::tail_name(0),
                    t_qs: gen::START + head * gen::TAIL_DELTA_MS,
                    t_qe: gen::START + (head + ahead) * gen::TAIL_DELTA_MS,
                    w,
                }
            }
        }
    }
}

/// A built store, served.
pub struct Built {
    pub dir: PathBuf,
    pub kv: Arc<TsKv>,
    pub server: TsNetServer,
    pub expected: Expected,
    /// The fixed query list of phase `Q` (empty for `live_tail`, whose
    /// queries follow the data).
    pub queries: Vec<QuerySpec>,
    pub source: Source,
    pub build_s: f64,
}

/// Phase `S`: generate the inputs from `seed`, load the initial store
/// into the fresh directory `dir`, start the server.
pub fn build(workload: Workload, seed: u64, sizes: &Sizes, dir: &Path) -> Result<Built> {
    let started = Instant::now();
    let kv = Arc::new(TsKv::open(dir, workload.engine_config())?);
    let mut expected = Expected::default();
    let mut source = Source::fresh(workload, seed, sizes);
    let w = workload.width();
    let queries = match workload {
        Workload::ColdWide | Workload::HotZoom => {
            let plan = load_wide(&kv, seed, sizes, &mut expected)?;
            kv.create_series(LIVE)?;
            expected.add(LIVE, &[]);
            if workload == Workload::HotZoom {
                kv.compact(WIDE)?;
                gen::hot_queries(seed, WIDE, &plan, sizes.queries, w)
            } else {
                gen::cold_queries(seed, WIDE, plan.end, sizes.queries, w)
            }
        }
        Workload::IngestFleet => {
            for rank in 0..sizes.fleet_series {
                kv.create_series(&series_name(rank))?;
            }
            for _ in 0..sizes.fleet_initial_requests {
                let req = source.next_request();
                kv.write_batch(&write_batch(&req.entries))?;
                expected.add_entries(&req.entries);
            }
            // Every series with data gets a file: the queries of phase
            // Q then all read sealed chunks, not a mix of file-backed
            // and memtable-only series whose median flips with the seed.
            kv.flush_all()?;
            match &source {
                Source::Fleet { plan, .. } => gen::fleet_queries(seed, plan, sizes.queries, w),
                _ => Vec::new(),
            }
        }
        Workload::LiveTail => {
            load_tail(&kv, seed, &source, &mut expected)?;
            Vec::new()
        }
    };
    let server = TsNetServer::start(Arc::clone(&kv), ServerConfig::default())?;
    Ok(Built {
        dir: dir.to_path_buf(),
        kv,
        server,
        expected,
        queries,
        source,
        build_s: started.elapsed().as_secs_f64(),
    })
}

/// `entries` as the engine's own batch type (what the server builds
/// from a `WriteBatch` request).
pub fn write_batch(entries: &Entries) -> WriteBatch {
    let mut batch = WriteBatch::new();
    for (series, points) in entries {
        batch.insert_many(series, points);
    }
    batch
}

/// The paper's case (PAPER Table 4): one Mf03-shaped series written so
/// that 30 % of adjacent flush pairs overlap in time, then 20 range
/// deletes covering 5 %, no compaction.
fn load_wide(kv: &TsKv, seed: u64, sizes: &Sizes, expected: &mut Expected) -> Result<WidePlan> {
    let id = kv.create_series(WIDE)?;
    let plan = WidePlan::new(
        seed,
        sizes.wide_points,
        kv.config().memtable_threshold,
        sizes.wide_deletes,
    );
    let flush_points = plan.flush_points;
    let mut stream = SensorStream::new(seed, gen::TAG_WIDE, 2);
    let mut tally = Tally::default();
    for &dealt in &plan.pairs {
        let block = stream.next_block(2 * flush_points);
        for p in block.iter().filter(|p| !plan.deleted(p.t)) {
            tally.add(p);
        }
        let (first, second): (Vec<Point>, Vec<Point>) = if dealt {
            // Deal alternately: both files span the whole pair range,
            // so every chunk of one overlaps chunks of the other.
            (
                block.iter().step_by(2).copied().collect(),
                block.iter().skip(1).step_by(2).copied().collect(),
            )
        } else {
            let (a, b) = block.split_at(flush_points);
            (a.to_vec(), b.to_vec())
        };
        for half in [first, second] {
            kv.insert_batch_by_id(id, &half)?;
            kv.flush_by_id(id)?;
        }
    }
    for &(s, e) in &plan.deletes {
        kv.delete_by_id(id, s, e)?;
    }
    expected.0.insert(WIDE.to_string(), tally);
    Ok(plan)
}

/// `live_tail` history: every tail series preloaded in order up to its
/// head in `source` — heads are staggered by an eighth of the memtable,
/// so the count-triggered flushes spread evenly over a round.
fn load_tail(kv: &TsKv, seed: u64, source: &Source, expected: &mut Expected) -> Result<()> {
    const LOAD_BATCH: usize = 5_000;
    let Source::Tail { heads, .. } = source else {
        return Ok(());
    };
    for (s, head) in heads.iter().enumerate() {
        let name = gen::tail_name(s);
        let id = kv.create_series(&name)?;
        let mut from = 0i64;
        while from < *head {
            let n = LOAD_BATCH.min((*head - from) as usize);
            let points = gen::tail_points(seed, s, from, n);
            kv.insert_batch_by_id(id, &points)?;
            expected.add(&name, &points);
            from += n as i64;
        }
    }
    Ok(())
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Files under `dir` (recursively) whose name ends with `suffix`.
pub fn files_with_suffix(dir: &Path, suffix: &str, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.metadata()?.is_dir() {
            files_with_suffix(&path, suffix, out)?;
        } else if path.to_string_lossy().ends_with(suffix) {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

/// Copy a store directory: what `kill -9` right now would leave behind
/// (acknowledged writes are in the page cache, which a copy reads).
/// The copy is synced, so that reopening it is not billed for writing
/// back pages that the benchmark itself just dirtied.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    copy_tree(from, to)?;
    // One `syncfs` (coreutils `sync -f`) where there is one: a store of
    // a thousand small files otherwise pays a journal commit per file.
    let synced = std::process::Command::new("sync")
        .arg("-f")
        .arg(to)
        .status()
        .is_ok_and(|s| s.success());
    if synced {
        Ok(())
    } else {
        sync_tree(to)
    }
}

fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

fn sync_tree(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.metadata()?.is_dir() {
            sync_tree(&entry.path())?;
        } else {
            std::fs::File::open(entry.path())?.sync_all()?;
        }
    }
    std::fs::File::open(dir)?.sync_all()
}

/// The value of one `/proc/self/status` field (`None` off Linux).
pub fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    Some(value.trim().to_string())
}

/// The CPUs this process may run on (`Cpus_allowed_list`).
pub fn cpus_allowed() -> Option<String> {
    proc_status("Cpus_allowed_list")
}

/// `VmHWM` of this process in MB (0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fingerprint of what `kv` returns for `series`, read through the
/// engine's own merge reader in windows of about `WINDOW_POINTS` raw
/// points (so the check never holds a whole series).
pub fn stored_tally(kv: &TsKv, series: &str) -> Result<Tally> {
    const WINDOW_POINTS: u64 = 250_000;
    let snapshot = kv.snapshot(series)?;
    let mut tally = Tally::default();
    let Some(lo) = snapshot.chunks().iter().map(|c| c.time_range().start).min() else {
        return Ok(tally);
    };
    let hi = snapshot
        .chunks()
        .iter()
        .map(|c| c.time_range().end)
        .max()
        .unwrap_or(lo);
    let windows = snapshot.raw_point_count().div_ceil(WINDOW_POINTS).max(1) as i64;
    let step = ((hi - lo) / windows + 1).max(1);
    let mut start = lo;
    while start <= hi {
        let end = (start + step - 1).min(hi);
        let merged =
            MergeReader::with_range(&snapshot, TimeRange::new(start, end)).collect_merged()?;
        tally.add_all(&merged);
        start = end + 1;
    }
    Ok(tally)
}

/// Every series of `expected` whose stored contents differ from it.
pub fn mismatches(kv: &TsKv, expected: &Expected) -> Result<Vec<String>> {
    let mut bad = Vec::new();
    for (series, want) in &expected.0 {
        if kv.series_id(series).is_none() && want.count == 0 {
            continue;
        }
        let got = stored_tally(kv, series)?;
        if got != *want {
            bad.push(format!(
                "{series}: stored {} points, acknowledged {}",
                got.count, want.count
            ));
        }
    }
    Ok(bad)
}
