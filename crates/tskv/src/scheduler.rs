//! Background compaction scheduler.
//!
//! When `EngineConfig::compaction_auto` is on, [`crate::TsKv::open`]
//! spawns one `tskv-compactor` thread that keeps every series'
//! sealed-file count at or below `compaction_threshold` without any
//! caller involvement:
//!
//! 1. **Scan (short read guards)** — ask the engine for
//!    [`compaction candidates`]: series whose sealed-file count reached
//!    the threshold and that no compaction currently owns. Each shard's
//!    read lock is held only for the map walk, never across I/O (a
//!    compaction started under it panics in a debug build: a checked
//!    lock is never taken under another checked guard).
//! 2. **Compact (no locks held here)** — run the engine's phased
//!    compaction for each candidate: every sealed file of the series
//!    is merged into one, unless the count fell back under the
//!    threshold since the scan (the capture phase re-checks it). The
//!    compaction itself re-takes the shard lock only for its short
//!    capture/install phases; the merge and file writes run unlocked,
//!    so ingest and queries proceed concurrently.
//! 3. **Checkpoint** — fold the catalog log's records into its head
//!    frame ([`crate::catalog::SeriesCatalog::checkpoint`]), as
//!    `compact_all` ends; a pass after which no name was interned
//!    writes nothing.
//! 4. **Sleep** — park for `compaction_interval_ms` (interruptibly, so
//!    drop/shutdown never waits out the interval).
//!
//! Every decision is observable through `IoStats`: each candidate
//! bumps `compactions_scheduled`; a run that actually merged files
//! bumps `compactions_completed`; a run that found nothing to do (lost
//! a race with a manual `compact` or an in-flight one) or failed bumps
//! `compactions_skipped`. Scheduler errors are recorded, never
//! propagated — a failed compaction leaves the old generation in
//! place, which is always a correct (just less compact) state, and the
//! next tick retries.
//!
//! [`compaction candidates`]: crate::engine::EngineInner::compaction_candidates

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::engine::EngineInner;
use crate::Result;

/// Handle to the background compaction thread. Dropping it stops the
/// loop and joins the thread (any in-flight compaction finishes its
/// current phase sequence first).
#[derive(Debug)]
pub(crate) struct CompactionScheduler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl CompactionScheduler {
    /// Spawn the scheduler thread over the shared engine state.
    pub(crate) fn spawn(inner: Arc<EngineInner>) -> Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("tskv-compactor".to_string())
            .spawn(move || run_loop(&inner, &thread_stop))?;
        Ok(CompactionScheduler {
            stop,
            handle: Some(handle),
        })
    }
}

impl Drop for CompactionScheduler {
    // The dropping store waits for its compactor, which is parked or
    // finishing one phased compaction.
    #[allow(clippy::disallowed_methods)]
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            // A panic in the scheduler thread is impossible by the
            // workspace's no-panic discipline; if it ever happened,
            // surfacing it from drop would abort, so swallow the join
            // error instead.
            let _ = handle.join();
        }
    }
}

/// The scheduler loop: scan → compact each candidate → checkpoint → park.
fn run_loop(inner: &EngineInner, stop: &AtomicBool) {
    let interval = Duration::from_millis(inner.config.compaction_interval_ms);
    let threshold = inner.config.compaction_threshold;
    while !stop.load(Ordering::Relaxed) {
        // Phase 1: candidates are collected under short per-shard read
        // guards inside the engine; no guard survives the call. The
        // list is interned ids — a sweep over a million series never
        // clones a name.
        let candidates = inner.compaction_candidates();
        // Phase 2: compact off-lock, one series at a time.
        for id in candidates {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            inner.io.record_compaction_scheduled();
            match inner.compact_run(id, threshold) {
                Ok(report) if report.files_removed > 0 => {
                    inner.io.record_compaction_completed();
                }
                Ok(_) | Err(_) => inner.io.record_compaction_skipped(),
            }
        }
        // Phase 3: a failed checkpoint leaves the log as it was, which
        // the open reads.
        let _ = inner.catalog.checkpoint();
        if stop.load(Ordering::Relaxed) {
            return;
        }
        // Phase 4: interruptible sleep (drop unparks).
        std::thread::park_timeout(interval);
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};
    use testdir::TestDir;

    use tsfile::types::Point;

    use crate::catalog::read_log;
    use crate::config::EngineConfig;
    use crate::engine::TsKv;

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    /// A store only the scheduler compacts ends with no catalog record:
    /// a pass folds the names it finds interned into the head frame.
    #[test]
    fn a_pass_checkpoints_the_catalog() -> TestResult {
        let dir = TestDir::new("tskv-sched-ckpt");
        let config = EngineConfig {
            compaction_auto: true,
            compaction_threshold: 2,
            compaction_interval_ms: 1,
            ..Default::default()
        };
        let kv = TsKv::open(&dir, config)?;
        for flush in 0..3i64 {
            for name in ["a", "b", "c"] {
                let points: Vec<Point> =
                    (0..100).map(|t| Point::new(flush * 100 + t, 1.0)).collect();
                kv.insert_batch(name, &points)?;
            }
            kv.flush_all()?;
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let log = read_log(&dir)?;
            if kv.io().snapshot().compactions_completed > 0 && log.valid_len == log.head_len {
                assert_eq!((log.names.join(","), log.head), ("a,b,c".to_string(), 3));
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{} B of records",
                log.valid_len - log.head_len
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(kv);
        Ok(())
    }
}
