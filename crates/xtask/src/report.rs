//! Shared finding types: rules, violations, fingerprints, and the
//! machine-readable JSON report emitted by `xtask lint --json`.
//!
//! Fingerprints are stable across unrelated edits: they hash the rule,
//! the path and the *normalized* message (digit runs collapsed, so a
//! guard moving from line 41 to line 43 keeps its identity). The
//! allowlist keys on the same normalization, which is what makes its
//! entries robust to drift on the offending line.

/// Which rule fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Lock discipline: no lock/RefCell guard (however obtained —
    /// helper-returned, field-stored, rebound) held across file I/O or
    /// chunk decode.
    L2,
    /// Fallibility: public read/decode entry points return
    /// `Result`/`Option`, resolved through type aliases.
    L3,
    /// Blocking-call ban: designated server-loop functions must not
    /// reach blocking I/O or unbounded waits outside worker contexts.
    L5,
    /// Allowlist hygiene: stale or malformed allowlist entries.
    Allowlist,
}

impl Rule {
    pub fn code(self) -> &'static str {
        match self {
            Rule::L2 => "L2",
            Rule::L3 => "L3",
            Rule::L5 => "L5",
            Rule::Allowlist => "ALLOWLIST",
        }
    }

    pub fn from_code(code: &str) -> Option<Rule> {
        Some(match code {
            "L2" => Rule::L2,
            "L3" => Rule::L3,
            "L5" => Rule::L5,
            "ALLOWLIST" => Rule::Allowlist,
            _ => return None,
        })
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: Rule,
    /// Path relative to the workspace root, forward slashes.
    pub path: String,
    pub line: u32,
    pub message: String,
    /// Trimmed text of the offending source line (display only; the
    /// allowlist matches on the normalized message, not on this).
    pub excerpt: String,
}

impl Violation {
    /// The message with every digit run collapsed to `#`: stable under
    /// line-number drift inside messages ("guard from line 41").
    pub fn normalized_message(&self) -> String {
        normalize(&self.message)
    }

    /// Stable identity of this finding: `rule:path:hash(normalized
    /// message)`. Survives unrelated edits that move the site by a few
    /// lines; changes when the finding itself changes.
    pub fn fingerprint(&self) -> String {
        let mut h = Fnv::new();
        h.write(self.rule.code().as_bytes());
        h.write(b"\x1f");
        h.write(self.path.as_bytes());
        h.write(b"\x1f");
        h.write(self.normalized_message().as_bytes());
        format!(
            "{}-{:016x}",
            self.rule.code().to_ascii_lowercase(),
            h.finish()
        )
    }
}

/// Collapse every run of ASCII digits to a single `#` and squeeze
/// whitespace, so messages differing only in embedded line numbers or
/// counts normalize identically.
pub fn normalize(msg: &str) -> String {
    let mut out = String::with_capacity(msg.len());
    let mut in_digits = false;
    let mut in_space = false;
    for c in msg.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('#');
                in_digits = true;
            }
            in_space = false;
        } else if c.is_whitespace() {
            in_digits = false;
            if !in_space {
                out.push(' ');
                in_space = true;
            }
        } else {
            in_digits = false;
            in_space = false;
            out.push(c);
        }
    }
    out.trim().to_string()
}

/// 64-bit FNV-1a, enough for stable fingerprints without a dependency.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Summary of one lint run, serialized by [`render_json`].
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    pub violations: Vec<Violation>,
    /// Files parsed and analyzed.
    pub files_analyzed: usize,
}

impl LintReport {
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Render the report as deterministic JSON (keys in fixed order, no
/// dependency on a serializer crate).
pub fn render_json(report: &LintReport) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"rule\": {}, ", json_str(v.rule.code())));
        out.push_str(&format!("\"path\": {}, ", json_str(&v.path)));
        out.push_str(&format!("\"line\": {}, ", v.line));
        out.push_str(&format!("\"message\": {}, ", json_str(&v.message)));
        out.push_str(&format!("\"fingerprint\": {}", json_str(&v.fingerprint())));
        out.push('}');
    }
    if !report.violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str(&format!(
        "  \"violation_count\": {},\n",
        report.violations.len()
    ));
    out.push_str(&format!(
        "  \"files_analyzed\": {},\n",
        report.files_analyzed
    ));
    out.push_str(&format!(
        "  \"clean\": {}\n",
        if report.clean() { "true" } else { "false" }
    ));
    out.push_str("}\n");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

    use super::*;

    fn v(rule: Rule, path: &str, line: u32, message: &str) -> Violation {
        Violation {
            rule,
            path: path.to_string(),
            line,
            message: message.to_string(),
            excerpt: String::new(),
        }
    }

    #[test]
    fn normalization_collapses_digits_and_whitespace() {
        assert_eq!(
            normalize("guard from line 41  held across\tI/O"),
            "guard from line # held across I/O"
        );
        assert_eq!(
            normalize("wire has 19 u64s, struct has 20"),
            normalize("wire has 3 u64s, struct has 4")
        );
    }

    #[test]
    fn fingerprint_stable_under_line_drift() {
        let a = v(
            Rule::L2,
            "crates/tskv/src/engine.rs",
            41,
            "guard from line 41 held",
        );
        let b = v(
            Rule::L2,
            "crates/tskv/src/engine.rs",
            97,
            "guard from line 97 held",
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = v(
            Rule::L3,
            "crates/tskv/src/engine.rs",
            41,
            "guard from line 41 held",
        );
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let report = LintReport {
            violations: vec![v(Rule::L3, "a \"b\".rs", 3, "msg\nline")],
            files_analyzed: 7,
        };
        let json = render_json(&report);
        assert!(json.contains("\\\"b\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"violation_count\": 1"));
        assert!(json.contains("\"files_analyzed\": 7"));
        assert!(json.contains("\"clean\": false"));
    }
}
