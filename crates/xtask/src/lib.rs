//! Repo-specific static analysis for the m4lsm workspace.
//!
//! Run as `cargo run -p xtask -- lint`. Three rule families (see
//! DESIGN.md for full contracts) — the ones no compiler lint can
//! express. Panic-freedom, the indexing ban in byte-parsing modules and
//! the codec cast audit are clippy's job (`[workspace.lints.clippy]`
//! plus per-module `#![deny(clippy::indexing_slicing)]` /
//! `#![deny(clippy::as_conversions)]`, whose presence
//! `tests/clippy_scope.rs` pins):
//!
//! - **L2** no lock/RefCell guard held across file I/O or chunk decode
//!   in `tskv::engine`, `tskv::snapshot`, `m4::lsm::table`, and the
//!   `tsnet::server` connection pool — guards tracked through
//!   bindings, shadowing, field stores, and helper returns; I/O facts
//!   propagated transitively through the workspace call graph;
//! - **L3** public decode/read entry points in the storage crates
//!   return `Result`/`Option`, judged after type-alias resolution;
//! - **L5** no blocking calls (file/socket I/O, unbounded waits) on
//!   the `tsnet::server` accept/dispatch path.
//!
//! The engine parses each file with the tolerant AST parser in
//! [`ast`]; a file it cannot bracket-balance is itself a finding (no
//! rule can vouch for it), so the run fails and names the file.
//!
//! Escapes go through `xtask-lint-allowlist.toml` at the workspace
//! root: fewer than ten entries, each carrying a written
//! justification, each keyed on the exact (normalized) violation
//! message, each required to still match a real site.

#![forbid(unsafe_code)]

pub mod allowlist;
pub mod ast;
pub mod callgraph;
pub mod dataflow;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod summaries;

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use ast::FileAst;
use summaries::Summaries;

pub use report::{LintReport, Rule, Violation};

/// Name of the allowlist file at the workspace root.
pub const ALLOWLIST_FILE: &str = "xtask-lint-allowlist.toml";

/// Per-file rule selection, derived from the path by [`rules_for`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FileRules {
    pub l2: bool,
    pub l3: bool,
    /// L5 accept/dispatch-path blocking-call ban.
    pub l5: bool,
}

impl FileRules {
    pub fn all() -> Self {
        FileRules {
            l2: true,
            l3: true,
            l5: true,
        }
    }
}

/// Crates whose `src/` trees feed the workspace call graph.
const LINTED_CRATES: &[&str] = &[
    "crates/tsfile/src",
    "crates/tskv/src",
    "crates/m4/src",
    "crates/tsnet/src",
];

/// Files subject to the L2 lock-discipline scan.
const L2_FILES: &[&str] = &[
    "crates/tskv/src/engine.rs",
    "crates/tskv/src/scheduler.rs",
    "crates/tskv/src/snapshot.rs",
    "crates/tskv/src/cache.rs",
    // Compaction execution is the unlocked phase of the engine's
    // capture/merge/install sequence; a guard reaching its I/O means
    // the phase discipline regressed.
    "crates/tskv/src/compaction/execute.rs",
    "crates/tskv/src/pool.rs",
    "crates/m4/src/lsm/table.rs",
    "crates/tsnet/src/server.rs",
    "crates/tsnet/src/client.rs",
];

/// Files whose public read/decode entry points must be fallible (L3).
const L3_FILES: &[&str] = &[
    "crates/tsfile/src/reader.rs",
    "crates/tsfile/src/page.rs",
    "crates/tsfile/src/varint.rs",
    "crates/tsfile/src/mods.rs",
    "crates/tsfile/src/statistics.rs",
    "crates/tsfile/src/index.rs",
    "crates/tsfile/src/format.rs",
    "crates/tsfile/src/encoding/bitio.rs",
    "crates/tsfile/src/encoding/gorilla.rs",
    "crates/tsfile/src/encoding/plain.rs",
    "crates/tsfile/src/encoding/ts2diff.rs",
    "crates/tsfile/src/encoding/reference.rs",
    "crates/tskv/src/chunk.rs",
    "crates/tskv/src/snapshot.rs",
    "crates/tskv/src/compaction/plan.rs",
    "crates/tskv/src/compaction/execute.rs",
    "crates/tsnet/src/wire.rs",
];

/// Files containing the accept/dispatch path — and the subscription
/// broadcast path — under the L5 blocking ban.
const L5_FILES: &[&str] = &["crates/tsnet/src/server.rs", "crates/tsnet/src/sub.rs"];

/// Rule selection for one workspace-relative path.
pub fn rules_for(rel_path: &str) -> FileRules {
    let in_any = |set: &[&str]| set.contains(&rel_path);
    FileRules {
        l2: in_any(L2_FILES),
        l3: in_any(L3_FILES),
        l5: in_any(L5_FILES),
    }
}

/// Locate the workspace root: walk up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(content) = std::fs::read_to_string(&manifest) {
            if content.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn walk_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            walk_rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn excerpt_of(src: &str, line: u32) -> String {
    src.lines()
        .nth(line.saturating_sub(1) as usize)
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}

/// Run every rule over one parsed file, pushing raw violations.
fn lint_parsed_file(
    rel: &str,
    src: &str,
    file: &FileAst,
    rules: FileRules,
    sums: &Summaries,
    aliases: &rules::l3::AliasTable,
    out: &mut Vec<Violation>,
) {
    let mut push = |rule: Rule, line: u32, message: String| {
        out.push(Violation {
            rule,
            path: rel.to_string(),
            line,
            message,
            excerpt: excerpt_of(src, line),
        });
    };
    if rules.l2 {
        rules::l2::check(file, sums, &mut |line, msg| push(Rule::L2, line, msg));
    }
    if rules.l3 {
        rules::l3::check(file, aliases, &mut |line, msg| push(Rule::L3, line, msg));
    }
    if rules.l5 {
        rules::l5::check(file, sums, &mut |line, msg| push(Rule::L5, line, msg));
    }
}

/// The finding for a file the tolerant parser rejected (delimiter
/// imbalance: macro soup, a mid-edit file). Filed under L2 because
/// every linted file feeds the call graph L2's I/O facts come from.
fn unparseable(path: &str, parse_error: &str) -> Violation {
    Violation {
        rule: Rule::L2,
        path: path.to_string(),
        line: 0,
        message: format!("file cannot be parsed, so no rule can be checked ({parse_error})"),
        excerpt: String::new(),
    }
}

/// Run every rule over the workspace at `root`, apply the allowlist,
/// and return the full report (violations empty = pass).
pub fn run_lint_report(root: &Path) -> Result<LintReport, String> {
    let mut raw: Vec<Violation> = Vec::new();

    let mut files: Vec<PathBuf> = Vec::new();
    for crate_src in LINTED_CRATES {
        walk_rs_files(&root.join(crate_src), &mut files);
    }

    let mut parsed: Vec<(String, FileAst)> = Vec::new();
    let mut sources: HashMap<String, String> = HashMap::new();

    for file in &files {
        let rel = file
            .strip_prefix(root)
            .map_err(|_| format!("{} escapes workspace root", file.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        let src =
            std::fs::read_to_string(file).map_err(|e| format!("read {}: {e}", file.display()))?;
        match ast::parse_file(&src) {
            Ok(fa) => {
                parsed.push((rel.clone(), fa));
                sources.insert(rel, src);
            }
            Err(e) => raw.push(unparseable(&rel, &e)),
        }
    }

    // Whole-workspace facts: call graph, transitive I/O + blocking
    // summaries, and the type-alias table.
    let graph = callgraph::build(&parsed);
    let sums = Summaries::compute(graph);
    let aliases = rules::l3::build_alias_table(&parsed);

    for (rel, fa) in &parsed {
        let rules = rules_for(rel);
        let src = sources.get(rel).map(String::as_str).unwrap_or("");
        lint_parsed_file(rel, src, fa, rules, &sums, &aliases, &mut raw);
    }

    // Apply the allowlist: matched violations are suppressed, unused
    // entries and structural problems are reported.
    let allow_path = root.join(ALLOWLIST_FILE);
    let (entries, mut problems) = match std::fs::read_to_string(&allow_path) {
        Ok(content) => allowlist::parse(ALLOWLIST_FILE, &content),
        Err(_) => (Vec::new(), Vec::new()),
    };

    let mut used = vec![false; entries.len()];
    let mut surviving: Vec<Violation> = Vec::new();
    for v in raw {
        let mut suppressed = false;
        for (e, used_flag) in entries.iter().zip(used.iter_mut()) {
            if e.matches(&v) {
                *used_flag = true;
                suppressed = true;
            }
        }
        if !suppressed {
            surviving.push(v);
        }
    }
    for (e, used_flag) in entries.iter().zip(&used) {
        if !used_flag {
            problems.push(Violation {
                rule: Rule::Allowlist,
                path: ALLOWLIST_FILE.to_string(),
                line: e.line,
                message: format!(
                    "stale allowlist entry (rule {}, path {}, message {:?}) matches no \
                     current violation; remove it",
                    e.rule, e.path, e.message
                ),
                excerpt: String::new(),
            });
        }
    }
    surviving.extend(problems);
    surviving.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(LintReport {
        violations: surviving,
        files_analyzed: parsed.len(),
    })
}

/// Run every rule over the workspace at `root`, apply the allowlist,
/// and return the surviving violations (empty = pass).
pub fn run_lint(root: &Path) -> Result<Vec<Violation>, String> {
    run_lint_report(root).map(|r| r.violations)
}

/// Lint one file with every rule enabled, ignoring the allowlist.
/// Used by the fixture self-tests and `xtask lint --file`.
pub fn lint_single_file(path: &Path) -> Result<Vec<Violation>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(lint_source_all(&path.to_string_lossy(), &src))
}

/// Lint one source string with every rule enabled. The single-file call builds its own one-file call graph, so
/// summaries only see helpers defined in the same file — exactly what
/// the fixtures exercise.
pub fn lint_source_all(path_label: &str, src: &str) -> Vec<Violation> {
    let fa = match ast::parse_file(src) {
        Ok(fa) => fa,
        Err(e) => return vec![unparseable(path_label, &e)],
    };
    let parsed = vec![(path_label.to_string(), fa)];
    let graph = callgraph::build(&parsed);
    let sums = Summaries::compute(graph);
    let aliases = rules::l3::build_alias_table(&parsed);
    let mut out = Vec::new();
    let (rel, fa) = match parsed.first() {
        Some(p) => (p.0.as_str(), &p.1),
        None => return out,
    };
    lint_parsed_file(rel, src, fa, FileRules::all(), &sums, &aliases, &mut out);
    out.sort_by(|a, b| (a.line, a.rule.code()).cmp(&(b.line, b.rule.code())));
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

    use super::*;

    #[test]
    fn rules_for_maps_paths() {
        let r = rules_for("crates/tsfile/src/encoding/bitio.rs");
        assert!(!r.l2 && r.l3 && !r.l5);
        let r = rules_for("crates/tskv/src/engine.rs");
        assert!(r.l2 && !r.l3 && !r.l5);
        let r = rules_for("crates/tskv/src/scheduler.rs");
        assert!(r.l2 && !r.l3);
        let r = rules_for("crates/tskv/src/catalog.rs");
        assert!(!r.l2 && !r.l3);
        let r = rules_for("crates/m4/src/lsm/table.rs");
        assert!(r.l2);
        let r = rules_for("crates/tskv/src/cache.rs");
        assert!(r.l2 && !r.l3);
        let r = rules_for("crates/tskv/src/pool.rs");
        assert!(r.l2 && !r.l3);
        let r = rules_for("crates/tsnet/src/wire.rs");
        assert!(!r.l2 && r.l3 && !r.l5);
        let r = rules_for("crates/tsnet/src/server.rs");
        assert!(r.l2 && !r.l3 && r.l5);
        let r = rules_for("crates/tsnet/src/client.rs");
        assert!(r.l2 && !r.l3 && !r.l5);
        let r = rules_for("crates/tskv/src/compaction/plan.rs");
        assert!(!r.l2 && r.l3);
        let r = rules_for("crates/tskv/src/compaction/execute.rs");
        assert!(r.l2 && r.l3);
        let r = rules_for("crates/tskv/src/compaction/mod.rs");
        assert!(!r.l2 && !r.l3);
        let r = rules_for("crates/workload/src/lib.rs");
        assert!(!r.l2 && !r.l3 && !r.l5);
    }

    #[test]
    fn workspace_root_found_from_nested_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).unwrap();
        assert!(root.join("crates/tsfile/src/lib.rs").exists());
    }

    #[test]
    fn single_source_runs_all_engines() {
        let v = lint_source_all("t.rs", "pub fn decode_x(b: &[u8]) -> u8 { 0 }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::L3);
        // Unbalanced source is itself the finding.
        let v = lint_source_all("t.rs", "fn f() { x.unwrap(); ");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("cannot be parsed"), "{v:?}");
    }
}
