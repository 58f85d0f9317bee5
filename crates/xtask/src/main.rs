//! CLI for the repo-specific lints: `cargo run -p xtask -- lint`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("lint") => {
            let mut root: Option<PathBuf> = None;
            let mut single_file: Option<PathBuf> = None;
            let mut json = false;
            let mut out: Option<PathBuf> = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--root" => match it.next() {
                        Some(p) => root = Some(PathBuf::from(p)),
                        None => return usage("--root needs a path"),
                    },
                    "--file" => match it.next() {
                        Some(p) => single_file = Some(PathBuf::from(p)),
                        None => return usage("--file needs a path"),
                    },
                    "--json" => json = true,
                    "--out" => match it.next() {
                        Some(p) => out = Some(PathBuf::from(p)),
                        None => return usage("--out needs a path"),
                    },
                    other => return usage(&format!("unknown flag `{other}`")),
                }
            }
            if out.is_some() && !json {
                return usage("--out only makes sense with --json");
            }
            run(root, single_file, json, out)
        }
        Some(other) => usage(&format!("unknown command `{other}`")),
        None => usage("missing command"),
    }
}

fn run(
    root: Option<PathBuf>,
    single_file: Option<PathBuf>,
    json: bool,
    out: Option<PathBuf>,
) -> ExitCode {
    let result = if let Some(file) = single_file {
        // Single-file runs skip the allowlist and workspace graph; the
        // report wraps the violations so --json works here too.
        xtask::lint_single_file(&file).map(|violations| xtask::LintReport {
            violations,
            files_analyzed: 1,
        })
    } else {
        let root =
            root.or_else(|| xtask::find_workspace_root(&PathBuf::from(env!("CARGO_MANIFEST_DIR"))));
        let Some(root) = root else {
            eprintln!("xtask lint: could not locate the workspace root; pass --root");
            return ExitCode::FAILURE;
        };
        xtask::run_lint_report(&root)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        let rendered = xtask::report::render_json(&report);
        match out {
            Some(path) => {
                if let Err(e) = std::fs::write(&path, &rendered) {
                    eprintln!("xtask lint: write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "xtask lint: wrote {} ({} violation(s), {} file(s) analyzed)",
                    path.display(),
                    report.violations.len(),
                    report.files_analyzed
                );
            }
            None => print!("{rendered}"),
        }
        return if report.clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if report.clean() {
        println!(
            "xtask lint: clean (L2 lock discipline, L3 fallible decode API, \
             L5 accept-path blocking ban; {} file(s))",
            report.files_analyzed
        );
        ExitCode::SUCCESS
    } else {
        for v in &report.violations {
            println!("{}:{}: [{}] {}", v.path, v.line, v.rule.code(), v.message);
            if !v.excerpt.is_empty() {
                println!("    > {}", v.excerpt);
            }
        }
        println!("xtask lint: {} violation(s)", report.violations.len());
        ExitCode::FAILURE
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("xtask: {problem}");
    eprintln!(
        "usage: cargo run -p xtask -- lint [--root <workspace-root>] [--file <file.rs>] \
         [--json [--out <report.json>]]"
    );
    ExitCode::FAILURE
}
