//! Pooled byte buffers for the hot read path.
//!
//! Every chunk/page read used to allocate `vec![0u8; len]`, decode,
//! and drop — one heap round-trip per read, directly on the paths the
//! pages benchmark showed are decode-bound. This module keeps a small
//! thread-local freelist of `Vec<u8>` so steady-state reads reuse a
//! warm buffer instead: [`take`] pops from the freelist (or allocates
//! on miss) and the returned [`PooledBuf`] guard gives the vector back
//! on drop.
//!
//! Sizing policy: at most [`MAX_POOLED_BUFS`] buffers are retained per
//! thread and no buffer larger than [`MAX_POOLED_CAP`] is ever kept,
//! so a one-off giant read cannot pin memory and an idle thread holds
//! at most a few MiB. Thread-local (rather than lock-striped) because
//! the readers that matter — engine read threads, tsnet workers — are
//! long-lived; buffers then never cross threads and no lock can be
//! held across I/O: the freelist's `RefCell` is borrowed only inside
//! [`take`] and the buffer's drop, so no borrow outlives either call.
//!
//! The hit/miss counters are process-wide and surface through
//! `IoStats` snapshots and the tsnet Stats RPC, so "is the pool
//! actually warm" is observable in benchmarks and over the wire.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Retain at most this many buffers per thread.
const MAX_POOLED_BUFS: usize = 8;
/// Never retain a buffer with more capacity than this (1 MiB).
pub const MAX_POOLED_CAP: usize = 1 << 20;

/// Process-wide pool counters. `pool_hits` counts takes served from a
/// thread's freelist; `pool_misses` counts takes that had to allocate.
#[derive(Debug, Default)]
pub struct BufPoolStats {
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
}

static POOL_STATS: BufPoolStats = BufPoolStats {
    pool_hits: AtomicU64::new(0),
    pool_misses: AtomicU64::new(0),
};

thread_local! {
    static FREELIST: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Process-wide `(pool_hits, pool_misses)` counter snapshot.
pub fn pool_counters() -> (u64, u64) {
    (
        POOL_STATS.pool_hits.load(Ordering::Relaxed),
        POOL_STATS.pool_misses.load(Ordering::Relaxed),
    )
}

/// A pooled, zero-filled byte buffer of exactly the requested length.
/// Dereferences to `Vec<u8>` (and on through to `[u8]`), so call sites
/// that previously took a `vec![0u8; len]` work unchanged. The vector
/// returns to the current thread's freelist on drop.
#[derive(Debug)]
pub struct PooledBuf {
    vec: Vec<u8>,
}

/// Take a zero-filled buffer of length `len`, reusing a pooled vector
/// when one is available on this thread.
pub fn take(len: usize) -> PooledBuf {
    let reused = FREELIST.try_with(|fl| fl.borrow_mut().pop()).ok().flatten();
    let mut vec = match reused {
        Some(v) => {
            POOL_STATS.pool_hits.fetch_add(1, Ordering::Relaxed);
            v
        }
        None => {
            POOL_STATS.pool_misses.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        }
    };
    vec.clear();
    // Within a warm buffer's capacity this is a memset, not an
    // allocation; the zero fill keeps the "buffer starts zeroed"
    // contract the vec![0u8; len] call sites relied on.
    vec.resize(len, 0);
    PooledBuf { vec }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        let vec = std::mem::take(&mut self.vec);
        if vec.capacity() == 0 || vec.capacity() > MAX_POOLED_CAP {
            return;
        }
        // try_with: during thread teardown the TLS slot may already be
        // gone; dropping the vector normally is the correct fallback.
        let _ = FREELIST.try_with(|fl| {
            let mut fl = fl.borrow_mut();
            if fl.len() < MAX_POOLED_BUFS {
                fl.push(vec);
            }
        });
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.vec
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.vec
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl AsMut<[u8]> for PooledBuf {
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_is_observable_in_counters() {
        let (h0, _) = pool_counters();
        {
            let b = take(100);
            assert_eq!(b.len(), 100);
            assert!(b.iter().all(|&x| x == 0));
        }
        // Same thread: the second take must reuse the returned vector.
        let b = take(64);
        assert_eq!(b.len(), 64);
        let (h1, _) = pool_counters();
        assert!(h1 > h0, "expected a pool hit after a return");
    }

    #[test]
    fn reused_buffers_are_rezeroed() {
        {
            let mut b = take(32);
            for x in b.iter_mut() {
                *x = 0xAA;
            }
        }
        let b = take(32);
        assert!(b.iter().all(|&x| x == 0), "stale bytes leaked through");
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        drop(take(MAX_POOLED_CAP + 1));
        let (_, m0) = pool_counters();
        // The giant buffer was dropped, so a same-thread take of the
        // same size may hit a smaller pooled vec but must reallocate
        // rather than find the giant one; either way nothing retained
        // exceeds the cap.
        FREELIST.with(|fl| {
            assert!(fl.borrow().iter().all(|v| v.capacity() <= MAX_POOLED_CAP));
        });
        let _ = m0;
    }

    #[test]
    fn freelist_is_depth_capped() {
        let bufs: Vec<PooledBuf> = (0..MAX_POOLED_BUFS + 4).map(|_| take(16)).collect();
        drop(bufs);
        FREELIST.with(|fl| {
            assert!(fl.borrow().len() <= MAX_POOLED_BUFS);
        });
    }

    #[test]
    fn deref_reaches_slice_apis() {
        let mut b = take(8);
        // &mut PooledBuf → &mut Vec<u8> → &mut [u8]
        let s: &mut [u8] = &mut b;
        s.fill(7);
        let s: &[u8] = &b;
        assert_eq!(s, &[7u8; 8]);
    }
}
