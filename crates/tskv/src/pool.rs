//! A small scoped worker pool for fanning independent jobs across
//! threads (std only — no external executor).
//!
//! Two loops use it: recovery rebuilds each series with state on disk
//! independently, and a snapshot's batch loader
//! ([`crate::SeriesSnapshot::read_points_many`]) reads and decodes the
//! cache misses of a batch of chunks. [`run_indexed`] runs such a loop
//! on `std::thread::scope` workers that claim job indices from a shared
//! atomic cursor, so cheap jobs never straddle a static partition
//! boundary next to expensive ones. One job or one thread runs on the
//! calling thread and spawns nothing.
//!
//! The pool holds no locks of its own, and a fan-out is never started
//! under a checked guard ([`run_indexed`] checks, like a file read). A
//! worker that fails flips a stop flag so the remaining workers drain
//! quickly; the first error in job order is returned. Workers are
//! assumed panic-free (the workspace denies panic paths); a job that no
//! worker reported — its worker panicked — is run again on the calling
//! thread rather than guessed at.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Run `f(0) .. f(jobs - 1)` across at most `threads` workers and
/// return the results in index order. `threads <= 1` (or a single job)
/// degenerates to a plain sequential loop on the calling thread with
/// zero spawn overhead.
///
/// On failure the error from the lowest-indexed failing job is
/// returned; jobs not yet claimed when the stop flag flips are never
/// started.
pub fn run_indexed<T, E, F>(threads: usize, jobs: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    tsfile::lockcheck::check_io();
    let threads = threads.max(1).min(jobs);
    if threads <= 1 {
        return (0..jobs).map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let gathered: Vec<Vec<(usize, Result<T, E>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break;
                        }
                        let r = f(i);
                        if r.is_err() {
                            stop.store(true, Ordering::Relaxed);
                        }
                        out.push((i, r));
                    }
                    out
                })
            })
            .collect();
        // A panicked worker yields an empty batch; its jobs are rerun
        // below.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });

    let mut slots: Vec<Option<Result<T, E>>> = (0..jobs).map(|_| None).collect();
    for (i, r) in gathered.into_iter().flatten() {
        if let Some(slot) = slots.get_mut(i) {
            *slot = Some(r);
        }
    }
    // First error in job order wins (deterministic regardless of
    // scheduling). Jobs the stop flag left unclaimed all lie past it,
    // so every empty slot reached here lost its worker.
    let mut out = Vec::with_capacity(jobs);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(r) => out.push(r?),
            None => out.push(f(i)?),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets library code.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn preserves_order_across_threads() {
        for threads in [1, 2, 4, 8] {
            let out = run_indexed(threads, 100, |i| Ok::<_, ()>(i * 3)).unwrap();
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<usize> = run_indexed(4, 0, |_| Ok::<_, ()>(0)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn first_error_in_job_order_wins() {
        let err = run_indexed(4, 50, |i| match i {
            7 => Err("seven"),
            30 => Err("thirty"),
            _ => Ok(i),
        })
        .unwrap_err();
        // 7 < 30; whichever thread hit which first, job order decides.
        assert_eq!(err, "seven");
    }

    #[test]
    fn uses_multiple_threads_when_asked() {
        use std::collections::HashSet;
        use tsfile::lockcheck::Mutex;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let barrier = std::sync::Barrier::new(4);
        run_indexed(4, 4, |_| {
            barrier.wait();
            seen.lock().insert(std::thread::current().id());
            Ok::<_, ()>(())
        })
        .unwrap();
        assert_eq!(seen.lock().len(), 4);
    }

    #[test]
    fn single_thread_runs_on_caller() {
        let caller = std::thread::current().id();
        run_indexed(1, 10, |_| {
            assert_eq!(std::thread::current().id(), caller);
            Ok::<_, ()>(())
        })
        .unwrap();
    }
}
