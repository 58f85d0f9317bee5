//! A small Rust lexer, feeding the tolerant parser in [`crate::ast`].
//!
//! Produces a flat token stream with line numbers. Comments (including
//! doc comments) are dropped; string/char/number literals collapse to
//! a single [`TokKind::Lit`] so their contents can never trip a rule.
//! The lexer understands nested block comments, raw strings, byte
//! strings, and the lifetime-vs-char-literal ambiguity.

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident(String),
    /// Single punctuation character (`.`, `!`, `#`, `:`, ...).
    Punct(char),
    /// Opening delimiter: `(`, `[` or `{`.
    Open(char),
    /// Closing delimiter: `)`, `]` or `}`.
    Close(char),
    /// Any literal (string, char, number, lifetime).
    Lit,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub line: u32,
}

impl Tok {
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    pub fn is_open(&self, c: char) -> bool {
        self.kind == TokKind::Open(c)
    }

    pub fn is_close(&self, c: char) -> bool {
        self.kind == TokKind::Close(c)
    }
}

/// Lex `src` into tokens. Never fails: unknown bytes become punct
/// tokens, unterminated literals run to end of input.
pub fn lex(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0usize;

    let n = chars.len();
    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                let mut depth = 1u32;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let start_line = line;
                i = consume_cooked_string(&chars, i, &mut line);
                toks.push(Tok {
                    kind: TokKind::Lit,
                    line: start_line,
                });
            }
            '\'' => {
                let start_line = line;
                i = consume_quote(&chars, i, &mut line);
                toks.push(Tok {
                    kind: TokKind::Lit,
                    line: start_line,
                });
            }
            c if c.is_ascii_digit() => {
                let start_line = line;
                i = consume_number(&chars, i);
                toks.push(Tok {
                    kind: TokKind::Lit,
                    line: start_line,
                });
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                // Raw / byte string prefixes: r"", r#""#, b"", br"", b''.
                if i < n
                    && matches!(word.as_str(), "r" | "b" | "br" | "rb")
                    && (chars[i] == '"' || chars[i] == '#' || chars[i] == '\'')
                {
                    let start_line = line;
                    i = if chars[i] == '\'' {
                        consume_quote(&chars, i, &mut line)
                    } else {
                        consume_raw_string(&chars, i, &mut line)
                    };
                    toks.push(Tok {
                        kind: TokKind::Lit,
                        line: start_line,
                    });
                } else {
                    toks.push(Tok {
                        kind: TokKind::Ident(word),
                        line,
                    });
                }
            }
            '(' | '[' | '{' => {
                toks.push(Tok {
                    kind: TokKind::Open(c),
                    line,
                });
                i += 1;
            }
            ')' | ']' | '}' => {
                toks.push(Tok {
                    kind: TokKind::Close(c),
                    line,
                });
                i += 1;
            }
            c => {
                toks.push(Tok {
                    kind: TokKind::Punct(c),
                    line,
                });
                i += 1;
            }
        }
    }
    toks
}

/// Consume `"..."` starting at the opening quote; returns index past
/// the closing quote.
fn consume_cooked_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Consume a raw string starting at `#` or `"` (the `r`/`br` prefix is
/// already consumed); returns index past the closing delimiter.
fn consume_raw_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    let mut hashes = 0usize;
    while i < chars.len() && chars[i] == '#' {
        hashes += 1;
        i += 1;
    }
    if i >= chars.len() || chars[i] != '"' {
        return i; // not actually a raw string; bail without consuming more
    }
    i += 1;
    while i < chars.len() {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
        } else if chars[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < chars.len() && chars[j] == '#' && seen < hashes {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

/// Consume either a char/byte literal or a lifetime, starting at `'`.
fn consume_quote(chars: &[char], i: usize, line: &mut u32) -> usize {
    let n = chars.len();
    // Lifetime: 'ident not closed by a quote right after one char.
    if i + 1 < n && (chars[i + 1].is_alphabetic() || chars[i + 1] == '_') {
        // Peek: 'x' is a char literal; 'x anything-else is a lifetime.
        if !(i + 2 < n && chars[i + 2] == '\'') {
            let mut j = i + 1;
            while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            return j;
        }
    }
    // Char literal (possibly escaped).
    let mut j = i + 1;
    while j < n {
        match chars[j] {
            '\\' => j += 2,
            '\'' => return j + 1,
            '\n' => {
                *line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}

/// Consume a numeric literal. Loose: accepts suffixes, hex, exponents;
/// stops before `..` so ranges lex as two punct tokens.
fn consume_number(chars: &[char], mut i: usize) -> usize {
    let n = chars.len();
    while i < n {
        let c = chars[i];
        if c.is_alphanumeric() || c == '_' {
            // Exponent sign: 1e-9 / 1E+9.
            if (c == 'e' || c == 'E')
                && i + 1 < n
                && (chars[i + 1] == '+' || chars[i + 1] == '-')
                && i + 2 < n
                && chars[i + 2].is_ascii_digit()
            {
                i += 2;
            }
            i += 1;
        } else if c == '.' && i + 1 < n && chars[i + 1].is_ascii_digit() {
            i += 1; // decimal point, not a range
        } else {
            break;
        }
    }
    i
}

/// Remove test-only code from a token stream: items annotated with any
/// attribute mentioning `test` (`#[test]`, `#[cfg(test)]`,
/// `#[cfg(any(test, ...))]`, `#[tokio::test]`, ...) and everything in a
/// file carrying an inner `#![cfg(test)]`.
pub fn strip_test_code(toks: &[Tok]) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0usize;
    let n = toks.len();
    while i < n {
        if toks[i].is_punct('#') {
            let inner = i + 1 < n && toks[i + 1].is_punct('!');
            let bracket = i + if inner { 2 } else { 1 };
            if bracket < n && toks[bracket].is_open('[') {
                let close = match matching_delim(toks, bracket) {
                    Some(c) => c,
                    None => {
                        out.push(toks[i].clone());
                        i += 1;
                        continue;
                    }
                };
                let is_test = toks[bracket + 1..close]
                    .iter()
                    .any(|t| t.ident() == Some("test"));
                if is_test && inner {
                    // `#![cfg(test)]`: the rest of the scope is test-only.
                    return out;
                }
                if is_test {
                    i = skip_item(toks, close + 1);
                    continue;
                }
                // Non-test attribute: copy through.
                out.extend(toks[i..=close].iter().cloned());
                i = close + 1;
                continue;
            }
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

/// Index of the delimiter closing the one at `open`, tracking nesting
/// of the same delimiter class.
fn matching_delim(toks: &[Tok], open: usize) -> Option<usize> {
    let (oc, cc) = match toks.get(open)?.kind {
        TokKind::Open(c) => (c, close_of(c)),
        _ => return None,
    };
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_open(oc) {
            depth += 1;
        } else if t.is_close(cc) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

fn close_of(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    }
}

/// Skip one item starting at `i` (following a test attribute): any
/// further attributes, then either a braced item (fn/mod/impl) through
/// its closing brace, or a semicolon-terminated item.
fn skip_item(toks: &[Tok], mut i: usize) -> usize {
    let n = toks.len();
    // Skip stacked attributes.
    while i < n && toks[i].is_punct('#') && i + 1 < n && toks[i + 1].is_open('[') {
        match matching_delim(toks, i + 1) {
            Some(c) => i = c + 1,
            None => return n,
        }
    }
    while i < n {
        if toks[i].is_open('{') {
            return matching_delim(toks, i).map_or(n, |c| c + 1);
        }
        if toks[i].is_punct(';') {
            return i + 1;
        }
        i += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

    use super::*;

    fn idents(toks: &[Tok]) -> Vec<String> {
        toks.iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn comments_and_strings_do_not_leak_tokens() {
        let toks = lex(
            "// x.unwrap()\n/* panic! /* nested */ */\nlet s = \"a.unwrap()\"; let r = r#\"panic!\"#;",
        );
        assert!(!idents(&toks).iter().any(|s| s == "unwrap" || s == "panic"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let e = '\\n'; }");
        assert!(idents(&toks).contains(&"str".to_string()));
        // Two 'a lifetimes plus the 'x' and '\n' char literals.
        let lits = toks.iter().filter(|t| t.kind == TokKind::Lit).count();
        assert_eq!(lits, 4);
    }

    #[test]
    fn numbers_stop_before_range() {
        let toks = lex("for i in 0..10 {}");
        let puncts: Vec<char> = toks
            .iter()
            .filter_map(|t| match t.kind {
                TokKind::Punct(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(puncts, vec!['.', '.']);
    }

    #[test]
    fn strip_removes_cfg_test_mod() {
        let src = "fn live() { a.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { b.expect(\"x\"); } }\nfn live2() {}";
        let toks = strip_test_code(&lex(src));
        let ids = idents(&toks);
        assert!(ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"expect".to_string()));
        assert!(ids.contains(&"live2".to_string()));
    }

    #[test]
    fn strip_handles_test_attr_fn_and_use() {
        let src = "#[cfg(test)]\nuse foo::bar;\n#[test]\nfn t() { x.unwrap(); }\nfn keep() {}";
        let toks = strip_test_code(&lex(src));
        let ids = idents(&toks);
        assert!(!ids.contains(&"bar".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(ids.contains(&"keep".to_string()));
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let toks = lex("let a = \"x\ny\";\nlet b = 1;");
        let b = toks.iter().find(|t| t.ident() == Some("b")).unwrap();
        assert_eq!(b.line, 3);
    }
}
