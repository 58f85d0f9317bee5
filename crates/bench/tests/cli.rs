//! `repro` through the process boundary: a name it does not know must
//! fail the run, not silently run nothing.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::process::Command;

#[test]
fn unknown_experiment_exits_2_and_lists_the_valid_names() {
    // `serve`, `ablation` and `decode` were experiments once: a retired
    // name is a typo too.
    for name in ["serve", "ablation", "decode", "fig1O"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--exp", name])
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "--exp {name}");
        let err = String::from_utf8_lossy(&out.stderr);
        for valid in ["table2", "fig10", "pages", "kernels", "all"] {
            assert!(err.contains(valid), "--exp {name}: {err}");
        }
    }
}
