//! Fixture self-tests: each file under `tests/fixtures/` violates
//! exactly one rule family, and the lint must (a) flag it through the
//! library API, (b) exit non-zero on it through the CLI, and (c) stay
//! clean — exit zero — on the real workspace.
//!
//! The `*_escape_*` tests pin the four shapes a token-level lint cannot
//! see — helper-returned guards, field-stored guards, local fn aliases,
//! and type-alias returns.

// Tests assert by panicking; the workspace panic-freedom deny-set
// (root Cargo.toml) is aimed at library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::path::{Path, PathBuf};
use std::process::Command;

use xtask::{lint_single_file, Rule, Violation};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lint a fixture and assert every violation belongs to `rule`.
fn lint_fixture(name: &str, rule: Rule) -> Vec<Violation> {
    let v = lint_single_file(&fixture(name)).unwrap();
    assert!(!v.is_empty(), "{name}: expected at least one violation");
    for violation in &v {
        assert_eq!(
            violation.rule,
            rule,
            "{name}: expected only {} violations, got {violation:?}",
            rule.code()
        );
    }
    v
}

#[test]
fn l2_fixture_flags_guard_across_chunk_load() {
    let v = lint_fixture("l2_guard_across_io.rs", Rule::L2);
    assert!(
        v.iter()
            .any(|v| v.message.contains("read_chunk") && v.message.contains("guard")),
        "{v:?}"
    );
    // The group flush holding a member's guard across the file sync.
    assert!(
        v.iter()
            .any(|v| v.message.contains("sync_all") && v.message.contains("guard")),
        "{v:?}"
    );
}

#[test]
fn l2_fixture_flags_guard_across_cache_decode_pool_and_page_load() {
    let v = lint_fixture("l2_guard_across_cache.rs", Rule::L2);
    assert!(
        v.iter()
            .any(|v| v.message.contains("decode_page") && v.message.contains("guard")),
        "{v:?}"
    );
    assert!(
        v.iter()
            .any(|v| v.message.contains("run_indexed") && v.message.contains("guard")),
        "{v:?}"
    );
    // A fragment row's `prefix` guard held across the timestamp loader.
    assert!(
        v.iter()
            .any(|v| v.message.contains("read_page_timestamps") && v.message.contains("guard")),
        "{v:?}"
    );
}

#[test]
fn l2_fixture_flags_scheduler_guard_across_compact() {
    let v = lint_fixture("l2_scheduler_lock_phase.rs", Rule::L2);
    assert!(
        v.iter()
            .any(|v| v.message.contains("compact") && v.message.contains("guard")),
        "{v:?}"
    );
}

#[test]
fn l2_fixture_flags_compaction_capture_guard_across_merge() {
    let v = lint_fixture("l2_compaction_capture_phase.rs", Rule::L2);
    assert!(
        v.iter()
            .any(|v| v.message.contains("merge_to_file") && v.message.contains("guard")),
        "{v:?}"
    );
    assert!(
        v.iter()
            .any(|v| v.message.contains("read_page_window_raw") && v.message.contains("guard")),
        "{v:?}"
    );
    // The delete log's own trim is sanctioned; a rewrite by hand under
    // the same guard is not.
    assert!(
        v.iter()
            .any(|v| v.message.contains("`fs`") && v.message.contains("guard")),
        "{v:?}"
    );
    assert!(
        !v.iter().any(|v| v.message.contains("trim_through")),
        "{v:?}"
    );
}

#[test]
fn l2_fixture_flags_conn_pool_guard_across_spawn_io() {
    let v = lint_fixture("l2_conn_pool_guard.rs", Rule::L2);
    assert!(
        v.iter()
            .any(|v| v.message.contains("File") && v.message.contains("guard")),
        "{v:?}"
    );
    assert!(
        v.iter()
            .any(|v| v.message.contains("create") && v.message.contains("guard")),
        "{v:?}"
    );
}

#[test]
fn l2_fixture_flags_bufpool_stripe_guard_across_read() {
    let v = lint_fixture("l2_bufpool_guard.rs", Rule::L2);
    assert!(
        v.iter()
            .any(|v| v.message.contains("read_exact_at") && v.message.contains("guard")),
        "{v:?}"
    );
}

#[test]
fn l3_fixture_flags_infallible_decode_entry_point() {
    let v = lint_fixture("l3_infallible_decode.rs", Rule::L3);
    assert!(
        v.iter().any(|v| v.message.contains("decode_frame")),
        "{v:?}"
    );
}

#[test]
fn l2_escape_helper_returned_guard() {
    // No acquire token at the call site: `lock_map` has a
    // returns-guard summary.
    let v = lint_fixture("l2_helper_guard.rs", Rule::L2);
    assert!(
        v.iter()
            .any(|v| v.message.contains("read_chunk") && v.message.contains("guard")),
        "{v:?}"
    );
}

#[test]
fn l2_escape_guard_stored_in_field() {
    // Not a statement temporary that dies at the `;`: assignment into
    // a field promotes the guard to function scope.
    let v = lint_fixture("l2_field_guard.rs", Rule::L2);
    assert!(
        v.iter()
            .any(|v| v.message.contains("read_chunk") && v.message.contains("guard")),
        "{v:?}"
    );
}

#[test]
fn l2_escape_local_fn_alias() {
    // No `File::open(` call-site token: the FnAlias dataflow carries
    // the I/O fact through the binding.
    let v = lint_fixture("l2_alias_call.rs", Rule::L2);
    assert!(
        v.iter()
            .any(|v| v.message.contains("File::open") && v.message.contains("guard")),
        "aliased File::open under a guard must be flagged: {v:?}"
    );
}

#[test]
fn l3_escape_type_alias_return() {
    // Alias resolves to Result (clean); Vec head flagged.
    let v = lint_fixture("l3_type_alias.rs", Rule::L3);
    assert!(
        v.iter().any(|v| v.message.contains("read_all_rows")),
        "{v:?}"
    );
    assert!(
        !v.iter().any(|v| v.message.contains("decode_frames")),
        "alias of Result must not be flagged: {v:?}"
    );
}

#[test]
fn l5_fixture_flags_blocking_call_on_accept_path() {
    let v = lint_fixture("l5_blocking_accept.rs", Rule::L5);
    assert!(
        v.iter().any(|v| v.message.contains("write_frame")),
        "direct blocking write must be flagged: {v:?}"
    );
    assert!(
        v.iter().any(|v| v.message.contains("accept_loop")),
        "transitive blocking through handle_connection must reach accept_loop: {v:?}"
    );
}

#[test]
fn l5_fixture_flags_blocking_call_on_push_path() {
    let v = lint_fixture("l5_blocking_push.rs", Rule::L5);
    assert!(
        v.iter()
            .any(|v| v.message.contains("write_frame") && v.message.contains("enqueue_push")),
        "direct blocking write in enqueue_push must be flagged: {v:?}"
    );
    assert!(
        v.iter().any(|v| v.message.contains("broadcast_delta")),
        "transitive blocking through enqueue_push must reach broadcast_delta: {v:?}"
    );
}

#[test]
fn phased_negative_fixture_is_clean() {
    let v = lint_single_file(&fixture("l2_phased_negative.rs")).unwrap();
    assert!(v.is_empty(), "false positive: {v:?}");
}

#[test]
fn workspace_lints_clean_through_library() {
    let root = xtask::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
    let v = xtask::run_lint(&root).unwrap();
    assert!(v.is_empty(), "workspace must lint clean: {v:#?}");
}

#[test]
fn cli_exits_nonzero_on_each_fixture() {
    for name in [
        "l2_guard_across_io.rs",
        "l2_guard_across_cache.rs",
        "l2_scheduler_lock_phase.rs",
        "l2_compaction_capture_phase.rs",
        "l2_conn_pool_guard.rs",
        "l2_bufpool_guard.rs",
        "l3_infallible_decode.rs",
        "l2_helper_guard.rs",
        "l2_field_guard.rs",
        "l2_alias_call.rs",
        "l3_type_alias.rs",
        "l5_blocking_accept.rs",
        "l5_blocking_push.rs",
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .arg("lint")
            .arg("--file")
            .arg(fixture(name))
            .status()
            .unwrap();
        assert!(
            !status.success(),
            "{name}: CLI must exit non-zero on a violating file"
        );
    }
}

#[test]
fn cli_exits_zero_on_negative_fixture() {
    let status = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .arg("--file")
        .arg(fixture("l2_phased_negative.rs"))
        .status()
        .unwrap();
    assert!(
        status.success(),
        "CLI must exit zero on the phase-disciplined negative fixture"
    );
}

#[test]
fn cli_exits_zero_on_workspace() {
    let root = xtask::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .arg("--root")
        .arg(&root)
        .status()
        .unwrap();
    assert!(
        status.success(),
        "CLI must exit zero on the clean workspace"
    );
}
