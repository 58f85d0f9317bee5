//! The socket tests' watchdog (`support/watchdog.rs`): a body that never
//! returns fails within the watchdog's bound, and a body that returns
//! or panics does so through it.

// Tests assert by panicking; the workspace deny-set targets library
// code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

#[path = "support/watchdog.rs"]
mod watchdog;

use std::panic;
use std::thread;
use std::time::{Duration, Instant};

#[test]
fn a_body_that_never_returns_fails_within_the_bound() {
    let deadline = Duration::from_millis(300);
    let started = Instant::now();
    let got = panic::catch_unwind(|| {
        watchdog::within(deadline, move || {
            while started.elapsed() < Duration::MAX {
                thread::sleep(Duration::from_millis(50));
            }
        })
    });
    let took = started.elapsed();
    let message = got.expect_err("a body that never returns passed");
    let message = message.downcast_ref::<String>().unwrap();
    assert!(message.contains("still running after 300ms"), "{message}");
    assert!(
        took >= deadline && took < deadline + Duration::from_secs(1),
        "failed after {took:?}"
    );
}

#[test]
fn a_body_returns_or_panics_through_the_watchdog() {
    assert_eq!(watchdog::within(watchdog::DEADLINE, || 7), 7);
    let raised = panic::catch_unwind(|| watchdog::within(watchdog::DEADLINE, || panic!("boom")));
    assert_eq!(raised.unwrap_err().downcast_ref::<&str>(), Some(&"boom"));
}
