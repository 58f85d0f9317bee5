//! Parser for `xtask-lint-allowlist.toml` at the workspace root.
//!
//! The file is a sequence of `[[allow]]` tables with four required
//! string keys: `rule`, `path`, `message`, `justification`. Parsed by
//! hand (this workspace builds offline; no toml crate), accepting only
//! that restricted shape.
//!
//! Matching is keyed on the *normalized violation message* — the
//! message with digit runs collapsed, exactly as
//! [`crate::report::Violation::normalized_message`] computes it — not
//! on a substring of the source line. Substring matching proved too
//! wide (one short `contains` could silence every future violation on
//! the file); message-keyed entries suppress exactly one finding shape
//! and go stale the moment the finding changes. Every entry must be
//! *used* by a current violation — stale entries are themselves lint
//! errors — and the whole file is capped below [`MAX_ENTRIES`] entries
//! so the list stays a short, audited document rather than a dumping
//! ground.

use crate::report::{normalize, Rule, Violation};

/// Hard cap (exclusive) on allowlist size.
pub const MAX_ENTRIES: usize = 10;

#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: String,
    /// Path suffix, forward slashes, relative to the workspace root.
    pub path: String,
    /// The violation message this entry suppresses, compared after
    /// normalization (digit runs collapse, whitespace squeezes) so
    /// line-number drift inside the message does not go stale.
    pub message: String,
    pub justification: String,
    /// Line in the allowlist file, for error reporting.
    pub line: u32,
}

impl AllowEntry {
    pub fn matches(&self, v: &Violation) -> bool {
        v.rule.code() == self.rule
            && v.path.ends_with(&self.path)
            && normalize(&self.message) == v.normalized_message()
    }
}

/// Parse the allowlist. Structural problems are returned as
/// `ALLOWLIST` violations (so they fail the lint run like anything
/// else) rather than aborting.
pub fn parse(path_label: &str, content: &str) -> (Vec<AllowEntry>, Vec<Violation>) {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut problems: Vec<Violation> = Vec::new();
    let mut current: Option<(AllowEntry, u32)> = None;

    let mut problem = |line: u32, msg: String, excerpt: &str| {
        problems.push(Violation {
            rule: Rule::Allowlist,
            path: path_label.to_string(),
            line,
            message: msg,
            excerpt: excerpt.trim().to_string(),
        });
    };

    let finalize = |entry: Option<(AllowEntry, u32)>,
                    entries: &mut Vec<AllowEntry>,
                    problem: &mut dyn FnMut(u32, String, &str)| {
        let Some((e, start_line)) = entry else { return };
        let missing: Vec<&str> = [
            ("rule", e.rule.is_empty()),
            ("path", e.path.is_empty()),
            ("message", e.message.is_empty()),
            ("justification", e.justification.is_empty()),
        ]
        .iter()
        .filter_map(|&(k, m)| m.then_some(k))
        .collect();
        if missing.is_empty() {
            if e.justification.trim().len() < 20 {
                problem(
                    start_line,
                    "allowlist justification is too short to be a real rationale \
                         (< 20 chars)"
                        .to_string(),
                    "",
                );
            }
            entries.push(e);
        } else {
            problem(
                start_line,
                format!(
                    "allowlist entry missing required keys: {}",
                    missing.join(", ")
                ),
                "",
            );
        }
    };

    for (idx, raw) in content.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            finalize(current.take(), &mut entries, &mut problem);
            current = Some((
                AllowEntry {
                    rule: String::new(),
                    path: String::new(),
                    message: String::new(),
                    justification: String::new(),
                    line: line_no,
                },
                line_no,
            ));
            continue;
        }
        let Some((key, value)) = parse_kv(line) else {
            problem(
                line_no,
                "unrecognized allowlist syntax; expected `[[allow]]` or `key = \"value\"`"
                    .to_string(),
                raw,
            );
            continue;
        };
        let Some((entry, _)) = current.as_mut() else {
            problem(line_no, "key outside an [[allow]] table".to_string(), raw);
            continue;
        };
        match key {
            "rule" => entry.rule = value,
            "path" => entry.path = value.replace('\\', "/"),
            "message" => entry.message = value,
            "contains" => {
                problem(
                    line_no,
                    "legacy `contains` key: allowlist entries now match on the normalized \
                     violation `message`; replace `contains = ...` with the exact message \
                     reported by `xtask lint`"
                        .to_string(),
                    raw,
                );
            }
            "justification" => entry.justification = value,
            other => {
                problem(line_no, format!("unknown allowlist key `{other}`"), raw);
            }
        }
    }
    finalize(current.take(), &mut entries, &mut problem);

    if entries.len() >= MAX_ENTRIES {
        problem(
            0,
            format!(
                "allowlist has {} entries; the budget is < {MAX_ENTRIES}. Fix code instead \
                 of growing the list",
                entries.len()
            ),
            "",
        );
    }
    (entries, problems)
}

/// Parse `key = "value"`; returns None on any other shape.
fn parse_kv(line: &str) -> Option<(&str, String)> {
    let (key, rest) = line.split_once('=')?;
    let key = key.trim();
    let rest = rest.trim();
    let inner = rest.strip_prefix('"')?.strip_suffix('"')?;
    // Unescape the two sequences the format needs.
    Some((key, inner.replace("\\\"", "\"").replace("\\\\", "\\")))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

    use super::*;

    const GOOD: &str = r#"
# comment
[[allow]]
rule = "L3"
path = "crates/tsfile/src/page.rs"
message = "pub fn `decode_page` returns `Vec<Point>`; decode/read entry points must return Result or Option"
justification = "an example entry: the parser only needs it well-formed"
"#;

    fn violation(rule: Rule, path: &str, message: &str) -> Violation {
        Violation {
            rule,
            path: path.to_string(),
            line: 7,
            message: message.to_string(),
            excerpt: String::new(),
        }
    }

    #[test]
    fn parses_valid_entry_and_matches_on_normalized_message() {
        let (entries, problems) = parse("allow.toml", GOOD);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(entries.len(), 1);
        let v = violation(
            Rule::L3,
            "crates/tsfile/src/page.rs",
            "pub fn `decode_page` returns `Vec<Point>`; decode/read entry points must \
             return Result or Option",
        );
        assert!(entries[0].matches(&v));
        // Different message on the same file does NOT match.
        let other = violation(
            Rule::L3,
            "crates/tsfile/src/page.rs",
            "pub fn `read_page` returns `Vec<Point>`",
        );
        assert!(!entries[0].matches(&other));
    }

    #[test]
    fn digit_drift_inside_message_still_matches() {
        let src = "[[allow]]\nrule = \"L2\"\npath = \"x.rs\"\n\
                   message = \"`open` reached while a `g: read` guard from line 10 is live; narrow the guard's scope\"\n\
                   justification = \"a justification that is long enough to pass\"\n";
        let (entries, problems) = parse("allow.toml", src);
        assert!(problems.is_empty(), "{problems:?}");
        let v = violation(
            Rule::L2,
            "crates/x.rs",
            "`open` reached while a `g: read` guard from line 42 is live; narrow the guard's scope",
        );
        assert!(
            entries[0].matches(&v),
            "line-number drift must not invalidate the entry"
        );
    }

    #[test]
    fn legacy_contains_key_is_a_problem() {
        let src = "[[allow]]\nrule = \"L2\"\npath = \"x.rs\"\ncontains = \"y\"\n\
                   justification = \"a justification that is long enough to pass\"\n";
        let (entries, problems) = parse("allow.toml", src);
        assert!(entries.is_empty(), "{entries:?}");
        assert!(
            problems
                .iter()
                .any(|p| p.message.contains("legacy `contains`")),
            "{problems:?}"
        );
        // The entry is also incomplete (no message), reported separately.
        assert!(problems
            .iter()
            .any(|p| p.message.contains("missing required keys")));
    }

    #[test]
    fn missing_justification_is_a_problem() {
        let src = "[[allow]]\nrule = \"L2\"\npath = \"x.rs\"\nmessage = \"y\"\n";
        let (entries, problems) = parse("allow.toml", src);
        assert!(entries.is_empty());
        assert_eq!(problems.len(), 1);
        assert!(problems[0].message.contains("justification"));
    }

    #[test]
    fn short_justification_rejected() {
        let src =
            "[[allow]]\nrule = \"L2\"\npath = \"x.rs\"\nmessage = \"y\"\njustification = \"ok\"\n";
        let (_, problems) = parse("allow.toml", src);
        assert!(problems.iter().any(|p| p.message.contains("too short")));
    }

    #[test]
    fn entry_budget_enforced() {
        let mut src = String::new();
        for i in 0..MAX_ENTRIES {
            src.push_str(&format!(
                "[[allow]]\nrule = \"L2\"\npath = \"f{i}.rs\"\nmessage = \"z\"\n\
                 justification = \"a justification that is long enough to pass\"\n"
            ));
        }
        let (_, problems) = parse("allow.toml", &src);
        assert!(problems.iter().any(|p| p.message.contains("budget")));
    }
}
