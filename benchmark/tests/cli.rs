//! The command the driver runs, as the driver runs it: the built
//! binary, from outside.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{}-{name}", std::process::id()))
}

/// The value of `"key": "..."` in a flat JSON line.
fn text_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.split_once(&format!("\"{key}\": \""))?.1;
    rest.split_once('"').map(|(value, _)| value)
}

#[test]
fn a_run_places_itself_on_one_cpu_and_ends_with_the_result_line() {
    let (home, out) = (scratch("home"), scratch("out.jsonl"));
    let run = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "run",
            "--workload",
            "hot_zoom",
            "--seed",
            "3",
            "--seconds",
            "20",
        ])
        .args(["--trace", "0", "--smoke", "--home"])
        .arg(&home)
        .arg("--out")
        .arg(&out)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{stderr}");
    let stdout = String::from_utf8(run.stdout).unwrap();
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "));

    // Pinned wherever `taskset` exists; where it does not, the run says so.
    let record = std::fs::read_to_string(&out).unwrap();
    let cpus = text_field(&record, "cpus_allowed").unwrap();
    let have_taskset = Command::new("taskset").arg("-V").output().is_ok();
    if have_taskset {
        assert!(cpus.parse::<u32>().is_ok(), "ran on CPUs {cpus}");
        assert!(!stderr.contains("WARNING"), "{stderr}");
    } else {
        assert!(
            stderr.contains("WARNING"),
            "unpinned run on CPUs {cpus} gave no warning"
        );
    }
    // The run leaves nothing but what it was asked to write.
    assert!(std::fs::read_dir(&home).unwrap().next().is_none());
    std::fs::remove_dir_all(&home).unwrap();
    std::fs::remove_file(&out).unwrap();
}

#[test]
fn a_run_that_cannot_start_prints_no_result() {
    for args in [
        &["run", "--workload", "nope", "--seed", "1"][..],
        &["run", "--workload", "hot_zoom", "--seconds", "soon"][..],
        &["frobnicate"][..],
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(run.status.code(), Some(1), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}");
    }
}
