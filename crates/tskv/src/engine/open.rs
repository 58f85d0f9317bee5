//! Open and recovery: pin the shard count, list and settle each shard,
//! then recover every series with state from its runs and WAL records.

use super::*;

/// Recovery input for one series: the path of its delete log, its runs
/// in the shard's sealed files (ascending file number) and the WAL
/// records a restart must re-apply.
type RecoveryWork = (SeriesId, PathBuf, Vec<SeriesView>, Vec<WalRecord>);

/// Recover one series from its delete log, its runs in the shard's
/// files and its replayed WAL records. Runs with no engine lock held —
/// recovery parallelizes these calls across series.
fn recover_series(
    (_, log, runs, records): &RecoveryWork,
    alloc: &VersionAllocator,
) -> Result<SeriesStore> {
    let mut store = SeriesStore::new(ModsFile::open(log)?);
    for e in store.log.entries() {
        alloc.observe(e.version);
    }
    // Newest file first, so that each run meets the highest
    // `supersedes` of the files written after it. A run at or below
    // that was an input of a compaction whose output is on disk: its
    // series retired it (the file outlived that only for the other
    // series in it, or for a crash before the unlink), the deletes
    // that applied to it may be trimmed, and reading it again would
    // resurrect what they hid. It is retired again instead (if the
    // unlink fails, the output still stands between it and a reader).
    let mut superseded_to = 0u64;
    for view in runs.iter().rev().cloned() {
        for m in view.metas() {
            alloc.observe(m.version);
        }
        let supersedes = view.run.supersedes.0;
        alloc.observe(view.run.supersedes);
        if view.rank() <= superseded_to {
            view.retire(None).ok();
        } else {
            store.files.push(view);
        }
        superseded_to = superseded_to.max(supersedes);
    }
    // Back to file order, which is version order — the engine's
    // invariant for `files`: a compaction takes its number when it
    // captures its inputs, before any flush that outranks it takes one.
    store.files.reverse();
    // Replay the WAL records into the fresh memtable, restoring
    // unflushed state in operation order. A delete newer than the whole
    // log missed it (crash between the WAL append and the log append).
    for record in records {
        match record {
            WalRecord::Insert { after, points } => {
                // The next flush must take its versions above the
                // record's, or the sealed run could not vouch for it.
                alloc.observe(*after);
                store.memtable.extend(points);
            }
            WalRecord::Delete { version, range } => {
                store.memtable.delete_range(*range);
                alloc.observe(*version);
                let unlogged = store.log.entries().iter().all(|e| e.version < *version);
                if unlogged && store.sealed_overlaps(range) {
                    let entry = ModEntry::new(*version, range.start, range.end);
                    store.log.append(entry)?;
                }
            }
        }
    }
    Ok(store)
}

impl EngineInner {
    /// Open (or create) the shared engine state rooted at `dir`. See
    /// [`TsKv::open`] for recovery semantics.
    pub(super) fn open(dir: PathBuf, config: EngineConfig) -> Result<Self> {
        let config = config.normalized();
        config.validate()?;
        disk::create_dir(&dir)?;
        let io = Arc::new(IoStats::default());

        // The store runs with its pinned count, and says so.
        let n_shards = disk::pinned_shards(&dir, config.write_shards)?;
        let config = EngineConfig {
            write_shards: n_shards,
            ..config
        };
        // The three phases, timed: catalog read, WAL replay, file opens.
        let (mut phases, clock) = ([std::time::Duration::ZERO; 3], std::time::Instant::now());
        let catalog = SeriesCatalog::open(&dir, CATALOG_MAX_SERIES, Arc::clone(&io))?;
        phases[0] = clock.elapsed();
        let alloc = VersionAllocator::default();

        // List every shard before anything in it is touched: a store
        // holding a data file this build does not read is refused as it
        // was found.
        let mut listings: Vec<(disk::ShardListing, PathBuf)> = Vec::with_capacity(n_shards);
        for i in 0..n_shards {
            let sdir = dir.join(disk::shard_dir_name(i));
            disk::create_dir(&sdir)?;
            listings.push((disk::list_shard(&sdir)?, sdir));
        }

        // Open each shard's sealed files and hand every series its runs
        // (the series id comes from the file's run directory), then
        // replay the shard's WAL. A series with only a delete log is
        // recovered for the log's versions. Cold series (registered,
        // nothing on disk) never appear here and cost nothing.
        let mut shards: Vec<Shard> = Vec::with_capacity(n_shards);
        let mut work: HashMap<SeriesId, (Vec<SeriesView>, Vec<WalRecord>)> = HashMap::new();
        for (mut listing, sdir) in listings {
            disk::settle_in_flight(&mut listing)?;
            let clock = std::time::Instant::now();
            for (_, path) in &listing.data {
                for view in SealedFile::open(path)?.views() {
                    let runs = &mut work.entry(SeriesId(view.run.series)).or_default().0;
                    runs.push(view);
                }
            }
            phases[2] += clock.elapsed();
            // What the files hold the log need not replay: a record
            // older than a durable run of its series was drained into it.
            let sealed = |id: SeriesId| {
                let runs = work.get(&id).map_or(&[][..], |(runs, _)| runs);
                Version(runs.iter().map(SeriesView::rank).max().unwrap_or(0))
            };
            let clock = std::time::Instant::now();
            let (wal, records) = ShardWal::open(&sdir, WAL_BATCH_BYTES, WAL_SEGMENT_BYTES, sealed)?;
            phases[1] += clock.elapsed();
            for (id, recs) in records {
                work.entry(id).or_default().1.extend(recs);
            }
            for id in listing.logged {
                work.entry(id).or_default();
            }
            shards.push(Shard {
                dir: sdir,
                wal,
                next_fileno: AtomicU64::new(listing.next_fileno),
                series: RwLock::new(HashMap::new()),
            });
        }

        // Every id tagged on disk must be registered: an unknown id
        // means the catalog log was lost or truncated past data that
        // references it — refuse to guess which series owns what.
        let registered = catalog.len();
        if let Some(id) = work.keys().find(|id| id.index() >= registered) {
            return Err(TsKvError::Corrupt(format!(
                "data tagged with unregistered series id {id} (catalog has {registered})"
            )));
        }

        // Recover the series one job each, across up to one worker per
        // shard; the first error in id order wins, as it would in a
        // sequential recovery.
        let mut work: Vec<RecoveryWork> = work
            .into_iter()
            .map(|(id, (runs, recs))| {
                let sdir = dir.join(disk::shard_dir_name(id.index() % n_shards));
                (id, disk::delete_log_path(&sdir, id), runs, recs)
            })
            .collect();
        work.sort_by_key(|(id, ..)| *id);
        let clock = std::time::Instant::now();
        let recovered =
            pool::run_indexed(n_shards, work.len(), |i| recover_series(&work[i], &alloc))?;
        phases[1] += clock.elapsed();
        io.record_open(phases);
        for ((id, ..), store) in work.iter().zip(recovered) {
            io.record_store_instantiated();
            if let Some(shard) = shards.get_mut(id.index() % n_shards) {
                shard.series.get_mut().insert(*id, store);
            }
        }

        let capacity = config.cache_capacity_bytes;
        let cache =
            (capacity > 0).then(|| Arc::new(DecodedChunkCache::new(capacity, Arc::clone(&io))));
        Ok(EngineInner {
            dir,
            config,
            alloc,
            catalog,
            shards,
            io,
            cache,
            changes: ChangeSink::default(),
        })
    }
}
