//! A watchdog for the socket tests: [`within`] runs a test's body on a
//! thread of its own and fails the test once a deadline passes, so a
//! hang fails its test instead of waiting out CI's `timeout-minutes`.
//! The body's thread is left behind; it ends with the test binary.
//!
//! A test file takes it with `#[path = "support/watchdog.rs"] mod
//! watchdog;`; `tests/watchdog.rs` tests it.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// A socket test's deadline: the slowest body takes about a second in a
/// debug build.
pub const DEADLINE: Duration = Duration::from_secs(60);

/// What `body` returns, or its panic raised again; a panic of its own
/// when `body` has not returned within `deadline`.
pub fn within<T: Send + 'static>(
    deadline: Duration,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let name = thread::current().name().unwrap_or("test").to_string();
    let (done, finished) = mpsc::channel();
    thread::Builder::new()
        .name(format!("{name} (watched)"))
        .spawn(move || done.send(panic::catch_unwind(AssertUnwindSafe(body))))
        .expect("spawn the test body");
    match finished.recv_timeout(deadline) {
        Ok(Ok(value)) => value,
        Ok(Err(raised)) => panic::resume_unwind(raised),
        Err(_) => panic!("{name}: still running after {deadline:?}, so the watchdog fails it"),
    }
}
