//! Lock discipline, checked where the I/O happens (debug builds only).
//!
//! Two rules keep the engine and the server responsive: no lock guard
//! is held across file I/O or page decode, and nothing blocks on a
//! thread that must not block (the server's accept loop, the
//! subscription broadcast). Both are checked at run time, at the
//! functions that do the work, rather than by reading the code:
//!
//! - [`Mutex`] and [`RwLock`] are `std::sync` locks with the
//!   poison-free API of the `parking_lot` shim; each guard they hand out
//!   marks itself live on its thread while it exists. A checked lock is
//!   never taken while another checked guard is live on the thread,
//!   which keeps the lock order trivially acyclic.
//! - Every function that reads or writes a data file or decodes a page
//!   calls [`check_io`] first, which panics if a checked guard is live
//!   on the calling thread, or if the thread is marked must-not-block.
//! - A thread that must not block holds a [`NoBlock`] mark
//!   ([`no_block`]); socket frame I/O calls [`check_block`], which
//!   panics under it. A spawned thread starts unmarked.
//!
//! The durability writers that run under a shard lock on purpose — the
//! shard WAL, the delete log's append and trim, the catalog's sync — do
//! not call [`check_io`]: serializing a durability write against the
//! state it describes is what that lock is for. Each says so where it
//! writes.
//!
//! The checks exist under `debug_assertions` only: every test run
//! exercises them, and in a release build the guards carry a zero-sized
//! token with no drop and the checks are empty.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

#[cfg(debug_assertions)]
thread_local! {
    /// Whether a checked guard is live on this thread (checked locks
    /// never nest, so there is at most one).
    static HELD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Whether this thread is marked must-not-block.
    static NO_BLOCK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Panic if a checked guard is live on this thread or the thread is
/// marked must-not-block. Called first by every function that does file
/// I/O or decodes a page.
#[track_caller]
pub fn check_io() {
    #[cfg(debug_assertions)]
    assert!(
        !HELD.with(std::cell::Cell::get),
        "file I/O or page decode with a checked lock guard live on this thread"
    );
    check_block();
}

/// Panic if this thread is marked must-not-block. Called by blocking
/// socket I/O.
#[track_caller]
pub fn check_block() {
    #[cfg(debug_assertions)]
    assert!(
        !NO_BLOCK.with(std::cell::Cell::get),
        "blocking call on a thread marked must-not-block"
    );
}

/// Mark this thread must-not-block until the returned value drops.
pub fn no_block() -> NoBlock {
    NoBlock {
        #[cfg(debug_assertions)]
        was: NO_BLOCK.with(|m| m.replace(true)),
        _thread: PhantomData,
    }
}

/// The must-not-block mark of [`no_block`]. Not `Send`: it marks the
/// thread that made it.
#[must_use = "the mark ends when this value drops"]
pub struct NoBlock {
    #[cfg(debug_assertions)]
    was: bool,
    _thread: PhantomData<*const ()>,
}

#[cfg(debug_assertions)]
impl Drop for NoBlock {
    fn drop(&mut self) {
        NO_BLOCK.with(|m| m.set(self.was));
    }
}

/// Carried by every checked guard: marks the guard live on its thread
/// (the guards are not `Send`, so the mark stays on one thread).
struct Token;

impl Token {
    /// Made just before its lock is taken, which must not be under
    /// another checked guard.
    #[track_caller]
    fn new() -> Token {
        #[cfg(debug_assertions)]
        {
            let nested = HELD.with(|held| held.replace(true));
            assert!(
                !nested,
                "checked lock taken with a checked lock guard live on this thread"
            );
        }
        Token
    }
}

#[cfg(debug_assertions)]
impl Drop for Token {
    fn drop(&mut self) {
        HELD.with(|held| held.set(false));
    }
}

/// A mutual-exclusion lock whose guards [`check_io`] sees.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard of a [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    guard: std::sync::MutexGuard<'a, T>,
    _token: Token,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let token = Token::new();
        MutexGuard {
            guard: self.0.lock().unwrap_or_else(PoisonError::into_inner),
            _token: token,
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A reader-writer lock whose guards [`check_io`] sees.
#[derive(Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Shared guard of an [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: std::sync::RwLockReadGuard<'a, T>,
    _token: Token,
}

/// Exclusive guard of an [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: std::sync::RwLockWriteGuard<'a, T>,
    _token: Token,
}

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let token = Token::new();
        RwLockReadGuard {
            guard: self.0.read().unwrap_or_else(PoisonError::into_inner),
            _token: token,
        }
    }

    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let token = Token::new();
        RwLockWriteGuard {
            guard: self.0.write().unwrap_or_else(PoisonError::into_inner),
            _token: token,
        }
    }

    /// The value, through exclusive access to the lock: no guard.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets library code.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::TsFileReader;

    /// Whether `f` panics.
    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    /// One of the I/O entry points: the open of a file that is not there
    /// fails with an error, or panics if the check fires first.
    fn open_missing() {
        TsFileReader::open("/nonexistent/lockcheck.tsfile").err();
    }

    #[test]
    fn a_live_guard_at_an_io_entry_point_panics() {
        let lock = RwLock::new(0u8);
        let guard = lock.read();
        assert!(panics(open_missing));
        assert!(panics(|| {
            crate::TsFileWriter::create("/nonexistent/lockcheck.tsfile").err();
        }));
        drop(guard);
    }

    #[test]
    fn a_dropped_guard_does_not() {
        let lock = Mutex::new(0u8);
        let guard = lock.lock();
        assert!(panics(open_missing));
        drop(guard);
        assert!(!panics(open_missing));
    }

    #[test]
    fn a_guard_held_on_another_thread_does_not() {
        let lock = Mutex::new(0u8);
        let (held, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = lock.lock();
                assert!(panics(open_missing));
                held.wait();
                release.wait();
            });
            held.wait();
            assert!(!panics(open_missing));
            release.wait();
        });
    }

    #[test]
    fn a_checked_lock_is_not_taken_under_another_guard() {
        let (a, b) = (Mutex::new(0u8), RwLock::new(0u8));
        let guard = a.lock();
        assert!(panics(|| drop(b.write())));
        drop(guard);
        drop(b.write());
    }
}
