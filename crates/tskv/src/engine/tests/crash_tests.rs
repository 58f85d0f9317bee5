//! The crash-cut property: the durability order of the shard log, the
//! flush group and compaction, checked by a machine.
//!
//! Random multi-series histories — overwrites, deletes, `flush`,
//! `flush_all`, `compact`, `compact_all`, clean restarts, writes and
//! deletes that race a flush group's unlocked phase, and writes that
//! fill a memtable and seal it themselves — run against a
//! store in a real directory, under each [`FsyncPolicy`], with one or
//! two shards (so two or four series a shard). At every operation
//! boundary, between `claim_group`, `write_group` and `finish_group`,
//! between a sweep's published output and each of its inputs'
//! retirements, and before and after `compact_all`'s catalog checkpoint
//! (with a stray `catalog.tmp` before), the store is crashed: every image a power loss
//! could leave of its logs is built from the directory and reopened.
//! An image cuts each shard's active WAL segment at one frame boundary
//! at or past its synced length ([`ShardWal::crash_cuts`]); every cut is
//! taken as is and again with the newest published data file moved back
//! under its in-flight name (a publish does not sync the directory).
//! Each image must open, open again to the same contents, and read,
//! series by series, as a model holding every acknowledged-durable
//! operation plus a prefix of the rest: the restart-against-a-map check,
//! with adversarial restarts. And since replay and reclamation share one
//! coverage rule, each series' sealed version read off the image may be
//! no lower than the one the live log reclaims by: a reopen that counted
//! less as covered would replay records whose neighbours reclamation
//! may already have deleted.
//!
//! Durable, by the model: under `Always` every acknowledged write or
//! delete, and everything its shard's log held before it; under
//! `OnFlush` the same for a delete, and everything a shard's log held
//! when a flush group of the shard finished; under every policy what a
//! sealed file holds (a flush member's operations before its claim, once
//! `write_group` returned; a series' every operation, once a write of it
//! sealed its memtable) and everything before a clean restart. Not
//! modelled, for want of a simulated file system: torn or lost data-file
//! bytes, undone unlinks and renames of older files, reordering across
//! files.

// Tests assert by panicking; the workspace deny-set targets library
// code.
#![allow(clippy::panic, clippy::indexing_slicing)]

use std::collections::BTreeMap;
use std::rc::Rc;

use proptest::prelude::*;

use super::*;
use crate::readers::MergeReader;
use testdir::TestDir;

/// Series per history; each lives in shard `index % shards`.
const SERIES: usize = 4;

#[derive(Debug, Clone)]
enum Op {
    /// `n` points of `series` from `t`, overwriting what is there, each
    /// with a value no other write uses.
    Write {
        series: usize,
        t: i64,
        n: i64,
    },
    Delete {
        series: usize,
        lo: i64,
        hi: i64,
    },
    /// Flush one series, or every series (`None`, as `flush_all`), with
    /// `race` run between the first group's claim and its file write.
    Flush {
        series: Option<usize>,
        race: Vec<Op>,
    },
    Compact {
        series: usize,
    },
    /// Compact every series, as `compact_all`: a sweep of each shard.
    CompactAll,
    /// Drop the store and open it again (the OS wrote everything back).
    Restart,
}

/// An operation a flush group's unlocked phase can race with.
fn racing_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..SERIES, 0i64..12, 1i64..5).prop_map(|(series, t, n)| Op::Write { series, t, n }),
        2 => (0..SERIES, 0i64..12, 0i64..12).prop_map(|(series, lo, len)| Op::Delete {
            series,
            lo,
            hi: lo + len
        }),
        // Everything the series holds: what compacts it to nothing.
        1 => (0..SERIES).prop_map(|series| Op::Delete { series, lo: 0, hi: 99 }),
    ]
}

fn history() -> impl Strategy<Value = Vec<Op>> {
    let race = prop_oneof![
        3 => Just(Vec::new()),
        1 => prop::collection::vec(racing_op(), 1..3),
    ];
    let op = prop_oneof![
        6 => racing_op(),
        3 => (0..=SERIES, race).prop_map(|(series, race)| Op::Flush {
            series: (series < SERIES).then_some(series),
            race
        }),
        2 => (0..SERIES).prop_map(|series| Op::Compact { series }),
        1 => Just(Op::CompactAll),
        1 => Just(Op::Restart),
    ];
    prop::collection::vec(op, 1..20)
}

/// One acknowledged change to a series.
#[derive(Debug, Clone)]
enum Change {
    Write(Vec<Point>),
    Delete(TimeRange),
}

/// A series' acknowledged changes, of which the first `durable` must
/// survive any crash.
#[derive(Debug, Default)]
struct History {
    changes: Vec<Change>,
    durable: usize,
}

impl History {
    /// What the series may read as after a crash: its durable changes
    /// plus any prefix of the rest.
    fn admissible(&self) -> Vec<Vec<Point>> {
        let mut state: BTreeMap<i64, f64> = BTreeMap::new();
        let mut out = Vec::new();
        for k in 0..=self.changes.len() {
            if k >= self.durable {
                out.push(state.iter().map(|(&t, &v)| Point::new(t, v)).collect());
            }
            match self.changes.get(k) {
                Some(Change::Write(points)) => state.extend(points.iter().map(|p| (p.t, p.v))),
                Some(Change::Delete(range)) => state.retain(|t, _| !range.contains(*t)),
                None => {}
            }
        }
        out
    }
}

/// `result`, or a failure of the case naming `what`.
fn ctx<T, E: std::fmt::Display>(result: std::result::Result<T, E>, what: &str) -> TestResultOf<T> {
    result.map_err(|e| TestCaseError::fail(format!("{what}: {e}")))
}

type TestResultOf<T> = std::result::Result<T, TestCaseError>;

/// Every file under `dir`, relative, with its length.
fn listing(dir: &Path) -> std::io::Result<Vec<(PathBuf, u64)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            for (name, len) in listing(&entry.path())? {
                out.push((PathBuf::from(entry.file_name()).join(name), len));
            }
        } else {
            out.push((entry.file_name().into(), entry.metadata()?.len()));
        }
    }
    out.sort();
    Ok(out)
}

/// One history against one store.
struct Case {
    config: EngineConfig,
    kv: Rc<TsKv>,
    ids: Vec<SeriesId>,
    model: Vec<History>,
    /// The data file a publish last named, while no restart has passed.
    newest: Option<PathBuf>,
    next_value: f64,
    /// What the last crash point saw: an unchanged store and model make
    /// the same images.
    last_crash: String,
    /// The operations run so far, for the failure message.
    ran: Vec<String>,
    // Last, so that they outlive the store.
    dir: TestDir,
    image: TestDir,
}

impl Case {
    fn open(name: &str, policy: FsyncPolicy, shards: usize) -> TestResultOf<Case> {
        let dir = TestDir::new(&format!("tskv-crash-{name}"));
        let image = TestDir::new(&format!("tskv-crash-{name}-image"));
        let config = EngineConfig {
            points_per_chunk: 2,
            // Writes of 1–4 points over 15 timestamps: some fill a
            // memtable and seal it themselves.
            memtable_threshold: 6,
            write_shards: shards,
            fsync_policy: policy,
            ..Default::default()
        };
        let kv = ctx(TsKv::open(&dir, config.clone()), "open")?;
        let ids = (0..SERIES)
            .map(|s| kv.create_series(&format!("s{s}")))
            .collect::<Result<Vec<_>>>();
        Ok(Case {
            config,
            image,
            ids: ctx(ids, "create")?,
            kv: Rc::new(kv),
            dir,
            model: (0..SERIES).map(|_| History::default()).collect(),
            newest: None,
            next_value: 0.0,
            last_crash: String::new(),
            ran: Vec::new(),
        })
    }

    fn shard_of(&self, series: usize) -> usize {
        self.ids[series].index() % self.kv.inner.shards.len()
    }

    fn series_of(&self, id: SeriesId) -> usize {
        self.ids.iter().position(|&i| i == id).unwrap_or(0)
    }

    /// Everything the log of shard `shard` holds is durable.
    fn shard_durable(&mut self, shard: usize) {
        for series in 0..SERIES {
            if self.shard_of(series) == shard {
                let history = &mut self.model[series];
                history.durable = history.changes.len();
            }
        }
    }

    /// Run `op`, crashing the store after it (and inside it, for a
    /// flush).
    fn step(&mut self, op: &Op) -> TestResultOf<()> {
        self.ran.push(format!("{op:?}"));
        let kv = Rc::clone(&self.kv);
        let always = matches!(self.config.fsync_policy, FsyncPolicy::Always);
        let never = matches!(self.config.fsync_policy, FsyncPolicy::Never);
        match *op {
            Op::Write { series, t, n } => {
                let v = self.next_value;
                self.next_value += 1.0;
                let points: Vec<Point> = (t..t + n).map(|t| Point::new(t, v)).collect();
                let files = kv.io().snapshot().files_sealed;
                ctx(kv.insert_batch_by_id(self.ids[series], &points), "write")?;
                self.model[series].changes.push(Change::Write(points));
                if kv.io().snapshot().files_sealed > files {
                    // The write filled its memtable and sealed it: the
                    // file holds the series whole, and under `OnFlush`
                    // the seal synced the log behind it.
                    let history = &mut self.model[series];
                    history.durable = history.changes.len();
                    let shard = &kv.inner.shards[self.shard_of(series)];
                    let no = shard.next_fileno.load(Ordering::Relaxed) - 1;
                    self.newest = Some(shard.dir.join(format!("{no:08}.tsfile")));
                    if !never {
                        self.shard_durable(self.shard_of(series));
                    }
                }
                if always {
                    self.shard_durable(self.shard_of(series));
                }
            }
            Op::Delete { series, lo, hi } => {
                ctx(kv.delete_by_id(self.ids[series], lo, hi), "delete")?;
                let range = TimeRange::new(lo, hi);
                self.model[series].changes.push(Change::Delete(range));
                if !never {
                    self.shard_durable(self.shard_of(series));
                }
            }
            Op::Flush { series, ref race } => self.flush(series, race)?,
            Op::Compact { series } => {
                let report = ctx(kv.compact_by_id(self.ids[series]), "compact")?;
                if report != CompactionReport::default() {
                    let shard = &kv.inner.shards[self.shard_of(series)];
                    let no = shard.next_fileno.load(Ordering::Relaxed) - 1;
                    self.newest = Some(shard.dir.join(format!("{no:08}.tsfile")));
                }
            }
            Op::CompactAll => self.compact_all()?,
            Op::Restart => {
                // The old store writes nothing more, dropped or not.
                self.kv = Rc::new(self.reopen(&self.dir)?);
                for history in &mut self.model {
                    history.durable = history.changes.len();
                }
                self.newest = None;
            }
        }
        self.crash("after it")
    }

    /// A flush group by its phases, as `flush_group` runs them, with a
    /// crash between each two.
    fn flush(&mut self, series: Option<usize>, race: &[Op]) -> TestResultOf<()> {
        let kv = Rc::clone(&self.kv);
        let ids: Vec<SeriesId> = series.map_or(self.ids.clone(), |s| vec![self.ids[s]]);
        let mut race = Some(race);
        for (i, shard) in kv.inner.shards.iter().enumerate() {
            let todo: Vec<SeriesId> = ids
                .iter()
                .copied()
                .filter(|id| id.index() % kv.inner.shards.len() == i)
                .collect();
            let (members, later) = kv.inner.claim_group(shard, &todo);
            prop_assert!(
                later.is_empty(),
                "nothing else flushes, nothing hits the cap"
            );
            if members.is_empty() {
                continue;
            }
            let claimed: Vec<(usize, usize)> = members
                .iter()
                .map(|m| self.series_of(m.id))
                .map(|s| (s, self.model[s].changes.len()))
                .collect();
            self.crash("claimed")?;
            for op in race.take().unwrap_or_default() {
                self.step(op)?;
            }
            let sealed = kv.inner.write_group(shard, &members);
            if let Ok(views) = &sealed {
                self.newest = views.first().map(|v| v.file.reader.path().to_path_buf());
                for &(series, len) in &claimed {
                    let history = &mut self.model[series];
                    history.durable = history.durable.max(len);
                }
            }
            self.crash("written")?;
            ctx(kv.inner.finish_group(shard, &members, sealed), "finish")?;
            if !matches!(self.config.fsync_policy, FsyncPolicy::Never) {
                self.shard_durable(i);
            }
            self.crash("finished")?;
        }
        // Nothing to claim: the racing operations still run.
        for op in race.unwrap_or_default() {
            self.step(op)?;
        }
        Ok(())
    }

    /// A sweep of each shard by its phases, as `compact_all` runs them,
    /// with a crash once the output is published and after each input's
    /// retirement: the cuts between the output's rename and each unlink.
    fn compact_all(&mut self) -> TestResultOf<()> {
        let kv = Rc::clone(&self.kv);
        for (i, shard) in kv.inner.shards.iter().enumerate() {
            let todo: Vec<SeriesId> = (0..SERIES)
                .filter(|&s| self.shard_of(s) == i)
                .map(|s| self.ids[s])
                .collect();
            let (sweep, later) = kv.inner.capture_sweep(shard, &todo, 1);
            prop_assert!(later.is_empty(), "nothing hits the cap");
            let Some(sweep) = sweep else {
                continue;
            };
            let written = kv.inner.write_sweep(&sweep);
            if let Ok((file, _)) = &written {
                self.newest = Some(file.reader.path().to_path_buf());
            }
            self.crash("swept")?;
            let (retired, _) = ctx(kv.inner.install_sweep(shard, &sweep, written), "install")?;
            for view in retired {
                ctx(view.retire(kv.inner.cache.as_deref()), "retire")?;
                self.crash("retired")?;
            }
            kv.inner.trim_sweep(shard, &sweep);
        }
        // The catalog checkpoint: one torn before its rename leaves a
        // stray `catalog.tmp` beside the old log, which no open reads
        // (a checkpoint with a name to fold writes over it).
        let stray = self.dir.join(crate::catalog::CATALOG_TMP);
        ctx(std::fs::write(stray, b"TSC2\x02\x01"), "stray checkpoint")?;
        self.crash("checkpoint torn")?;
        ctx(kv.inner.catalog.checkpoint(), "checkpoint")?;
        self.crash("checkpointed")
    }

    fn reopen(&self, dir: &Path) -> TestResultOf<TsKv> {
        ctx(TsKv::open(dir, self.config.clone()), "reopen")
    }

    /// What every series reads as in the store at `dir`, opened afresh,
    /// and its sealed version there: the highest version of its runs.
    fn read(&self, dir: &Path) -> TestResultOf<Vec<(Vec<Point>, u64)>> {
        let kv = self.reopen(dir)?;
        let read = |&id| -> Result<(Vec<Point>, u64)> {
            let points = MergeReader::new(&kv.snapshot_by_id(id)?).collect_merged()?;
            let map = kv.inner.shard(id).series.read();
            let runs = map.get(&id).map(|s| s.files.iter().map(SeriesView::rank));
            Ok((points, runs.and_then(Iterator::max).unwrap_or(0)))
        };
        ctx(self.ids.iter().map(read).collect(), "read")
    }

    /// Crash the store here: build and check every image a power loss
    /// could leave of it.
    fn crash(&mut self, at: &str) -> TestResultOf<()> {
        let cuts = self.kv.inner.shards.iter().map(|s| s.wal.crash_cuts());
        let cuts = ctx(cuts.collect::<Result<Vec<_>>>(), "cuts")?;
        let newest = self.newest.clone().filter(|p| p.exists());
        let durable: Vec<(usize, usize)> = self
            .model
            .iter()
            .map(|h| (h.durable, h.changes.len()))
            .collect();
        let seen = format!("{cuts:?} {newest:?} {durable:?} {:?}", listing(&self.dir));
        if seen == self.last_crash {
            return Ok(());
        }
        self.last_crash = seen;
        // What the live logs reclaim by.
        let sealed: HashMap<SeriesId, Version> = self
            .kv
            .inner
            .shards
            .iter()
            .flat_map(|s| s.wal.sealed_versions())
            .collect();
        let images = cuts.iter().map(|(_, c)| c.len()).max().unwrap_or(1);
        for j in 0..images {
            for moved in [None, newest.as_deref()] {
                let what = format!(
                    "crash {at} {:?}, cut {j}, {moved:?} back in flight",
                    self.ran
                );
                ctx(self.build_image(&cuts, j, moved), &what)?;
                let first = self
                    .read(&self.image)
                    .map_err(|e| TestCaseError::fail(format!("{what}: first reopen: {e}")))?;
                for (series, ((got, rank), history)) in first.iter().zip(&self.model).enumerate() {
                    let admissible = history.admissible();
                    prop_assert!(
                        admissible.contains(got),
                        "{what}: s{series} reads {got:?}, admissible {admissible:?}"
                    );
                    let live = sealed.get(&self.ids[series]).map_or(0, |v| v.0);
                    prop_assert!(
                        live <= *rank,
                        "{what}: s{series} is sealed to {live} live, to {rank} on disk"
                    );
                }
                let second = self.read(&self.image)?;
                prop_assert_eq!(
                    &first,
                    &second,
                    "{}: the second reopen reads otherwise",
                    what
                );
                if newest.is_none() {
                    break;
                }
            }
        }
        Ok(())
    }

    /// The image at `self.image`: the store with each shard's active log
    /// cut at its `j`th cut (its last, if it has fewer), and `moved`
    /// renamed back to its in-flight name.
    fn build_image(
        &self,
        cuts: &[(PathBuf, Vec<u64>)],
        j: usize,
        moved: Option<&Path>,
    ) -> std::io::Result<()> {
        std::fs::remove_dir_all(&self.image).ok();
        for (rel, _) in listing(&self.dir)? {
            let to = self.image.join(&rel);
            if let Some(parent) = to.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::copy(self.dir.join(&rel), to)?;
        }
        let in_image = |path: &Path| {
            let rel = path.strip_prefix(&self.dir).unwrap_or(path);
            self.image.join(rel)
        };
        for (path, cuts) in cuts {
            if let Some(&cut) = cuts.get(j).or(cuts.last()) {
                let log = std::fs::OpenOptions::new()
                    .write(true)
                    .open(in_image(path))?;
                log.set_len(cut)?;
            }
        }
        if let Some(path) = moved {
            let path = in_image(path);
            std::fs::rename(&path, disk::in_flight_path(&path))?;
        }
        Ok(())
    }
}

/// Run `ops` under `policy` over `shards` shards, crashing everywhere.
fn check(name: &str, policy: FsyncPolicy, shards: usize, ops: &[Op]) -> TestResultOf<()> {
    let mut case = Case::open(name, policy, shards)?;
    case.crash("at the start")?;
    for op in ops {
        case.step(op)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn every_crash_cut_reopens_to_the_model_under_fsync_always(
        shards in 1usize..3,
        ops in history(),
    ) {
        check("always", FsyncPolicy::Always, shards, &ops)?;
    }

    #[test]
    fn every_crash_cut_reopens_to_the_model_under_fsync_on_flush(
        shards in 1usize..3,
        ops in history(),
    ) {
        check("onflush", FsyncPolicy::OnFlush, shards, &ops)?;
    }

    #[test]
    fn every_crash_cut_reopens_to_the_model_under_fsync_never(
        shards in 1usize..3,
        ops in history(),
    ) {
        check("never", FsyncPolicy::Never, shards, &ops)?;
    }
}
