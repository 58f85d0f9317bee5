//! Integration test for the `m4cli` binary: ingest → list → query →
//! delete → render → compact, end to end through the process boundary.

// Integration tests assert by panicking; the workspace panic-freedom
// deny-set (root Cargo.toml) is aimed at library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::process::Command;
use testdir::TestDir;

fn m4cli(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_m4cli"))
        .args(args)
        .output()
        .expect("spawn m4cli");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn cli_full_workflow() {
    let dir = TestDir::new("m4cli-test");
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    std::fs::create_dir_all(&dir).unwrap();

    // CSV with a comment, a malformed row, and 1000 good rows.
    let csv = dir.join("data.csv");
    let mut body = String::from("# sensor dump\nnot,a,number\n");
    for i in 0..1000 {
        body.push_str(&format!("{},{}\n", i * 100, (i % 50) as f64 / 2.0));
    }
    std::fs::write(&csv, body).unwrap();

    let (ok, out) = m4cli(&["ingest", store, "lab.sensor", csv.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("ingested 1000 points"), "{out}");
    assert!(out.contains("1 malformed"), "{out}");

    let (ok, out) = m4cli(&["list", store]);
    assert!(ok, "{out}");
    assert!(
        out.contains("lab.sensor") && out.contains("1000 raw points"),
        "{out}"
    );

    let (ok, out) = m4cli(&[
        "query",
        store,
        "SELECT FirstTime(T), TopValue(T) FROM lab.sensor GROUPBY floor(@w*(t-@tqs)/(@tqe-@tqs))",
        "--w",
        "4",
        "--tqs",
        "0",
        "--tqe",
        "100000",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("4 rows"), "{out}");
    assert!(out.contains("24.5"), "top value 24.5 expected: {out}");

    // The baseline operator must agree.
    let (ok, out_udf) = m4cli(&[
        "query",
        store,
        "SELECT TopValue(T) FROM lab.sensor GROUPBY floor(4*(t-0)/(100000-0))",
        "--udf",
    ]);
    assert!(ok, "{out_udf}");
    assert!(out_udf.contains("24.5"), "{out_udf}");

    let (ok, out) = m4cli(&["delete", store, "lab.sensor", "0", "9999"]);
    assert!(ok, "{out}");
    let (ok, out) = m4cli(&[
        "query",
        store,
        "SELECT FirstTime(T) FROM lab.sensor GROUPBY floor(1*(t-0)/(100000-0))",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("10000"), "first point after delete: {out}");

    let pbm = dir.join("chart.pbm");
    let (ok, out) = m4cli(&[
        "render",
        store,
        "lab.sensor",
        pbm.to_str().unwrap(),
        "--width",
        "64",
        "--height",
        "16",
    ]);
    assert!(ok, "{out}");
    let bytes = std::fs::read(&pbm).unwrap();
    assert!(bytes.starts_with(b"P4\n64 16\n"), "PBM header");

    let (ok, out) = m4cli(&["compact", store, "lab.sensor"]);
    assert!(ok, "{out}");
    assert!(out.contains("900 points written"), "{out}");

    // Errors are reported cleanly, not panics.
    let (ok, out) = m4cli(&[
        "query",
        store,
        "SELECT Nope(T) FROM lab.sensor GROUPBY floor(1*(t-0)/(9-0))",
    ]);
    assert!(!ok);
    assert!(out.contains("error"), "{out}");
    let (ok, _) = m4cli(&["bogus-subcommand", store]);
    assert!(!ok);
}
