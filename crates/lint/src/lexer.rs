//! A minimal Rust lexer for the lint engine.
//!
//! This is not a full grammar — it only needs to be *token-accurate*: the
//! lints match short token sequences (`.clone(`, `HashMap`, `panic!`), so
//! the lexer's job is to never mistake comment or string *contents* for
//! code, and to tell a lifetime (`'a`) from a char literal (`'a'`). It
//! handles line and (nested) block comments, string/byte-string literals
//! with escapes, raw strings with any hash count (`r##"…"##`), char
//! literals, raw identifiers (`r#type`), and numeric literals.
//!
//! Comments are not discarded blindly: `rowfpga-lint:` directives are
//! extracted during the scan (see [`Directive`]), because the allow-list
//! grammar lives in comments.

use std::fmt;

/// The coarse classification a lint rule needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// A single punctuation character (`::` is two `:` tokens).
    Punct,
    /// String, byte-string or raw-string literal (text includes quotes).
    Str,
    /// Character or byte literal.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`, `'_`, `'static`), text includes the quote.
    Lifetime,
}

/// One lexed token: a byte range into the source plus its 1-based line.
#[derive(Clone, Copy, Debug)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Byte offset of the token start.
    pub start: usize,
    /// Byte length.
    pub len: usize,
    /// 1-based source line of the token start.
    pub line: u32,
}

/// A `rowfpga-lint:` comment directive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Directive {
    /// `// rowfpga-lint: hot-path` — opts the whole file into the
    /// hot-path allocation lint.
    HotPath,
    /// `// rowfpga-lint: no-panic` — every non-test function in the file
    /// becomes a panic-reachability entry point (like hot-path files, but
    /// without the allocation lint — the daemon's scheduler loop uses it).
    NoPanic,
    /// `// rowfpga-lint: durable` — opts the whole file into the
    /// durability-ordering typestate check (write-temp → fsync → rename).
    Durable,
    /// `// rowfpga-lint: allow(<lint>) reason=<text>` — suppresses the
    /// named lint on this line and the next.
    Allow {
        /// Lint name being suppressed.
        lint: String,
        /// Mandatory human rationale.
        reason: String,
    },
    /// `// rowfpga-lint: begin-allow(<lint>) reason=<text>` — suppresses
    /// until the matching `end-allow`.
    BeginAllow {
        /// Lint name being suppressed.
        lint: String,
        /// Mandatory human rationale.
        reason: String,
    },
    /// `// rowfpga-lint: end-allow(<lint>)` — closes a `begin-allow`.
    EndAllow {
        /// Lint name whose region ends here.
        lint: String,
    },
    /// `// rowfpga-lint: allow-file(<lint>) reason=<text>` — suppresses
    /// the named lint for the entire file.
    AllowFile {
        /// Lint name being suppressed.
        lint: String,
        /// Mandatory human rationale.
        reason: String,
    },
    /// Anything after `rowfpga-lint:` that does not parse — itself a
    /// violation, so typos cannot silently disable a lint.
    Malformed {
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for Directive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Directive::HotPath => write!(f, "hot-path"),
            Directive::NoPanic => write!(f, "no-panic"),
            Directive::Durable => write!(f, "durable"),
            Directive::Allow { lint, .. } => write!(f, "allow({lint})"),
            Directive::BeginAllow { lint, .. } => write!(f, "begin-allow({lint})"),
            Directive::EndAllow { lint } => write!(f, "end-allow({lint})"),
            Directive::AllowFile { lint, .. } => write!(f, "allow-file({lint})"),
            Directive::Malformed { detail } => write!(f, "malformed: {detail}"),
        }
    }
}

/// A directive with the line its comment starts on.
#[derive(Clone, Debug)]
pub struct PlacedDirective {
    /// 1-based line of the comment.
    pub line: u32,
    /// The parsed directive.
    pub directive: Directive,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Token stream, comments and whitespace stripped.
    pub tokens: Vec<Token>,
    /// All `rowfpga-lint:` directives found in comments.
    pub directives: Vec<PlacedDirective>,
}

impl Lexed {
    /// The source text of token `i`.
    pub fn text<'a>(&self, src: &'a str, i: usize) -> &'a str {
        let t = &self.tokens[i];
        &src[t.start..t.start + t.len]
    }
}

/// Lexes `src` into tokens plus comment-borne directives.
///
/// The lexer never fails: unterminated strings or comments simply consume
/// the rest of the file, which is the most conservative behaviour for a
/// linter (nothing after the defect is mis-read as code).
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let n = b.len();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Count newlines in b[from..to] and advance the line counter.
    macro_rules! bump_lines {
        ($from:expr, $to:expr) => {
            line += b[$from..$to].iter().filter(|&&c| c == b'\n').count() as u32
        };
    }

    while i < n {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                let start = i;
                while i < n && b[i] != b'\n' {
                    i += 1;
                }
                scan_comment(&src[start..i], line, &mut out);
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                let start = i;
                let start_line = line;
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                scan_comment(&src[start..i], start_line, &mut out);
                bump_lines!(start, i);
            }
            b'"' => {
                let start = i;
                i = skip_string(b, i);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    start,
                    len: i - start,
                    line,
                });
                bump_lines!(start, i);
            }
            b'\'' => {
                let start = i;
                let (end, kind) = lex_quote(b, i);
                i = end;
                out.tokens.push(Token {
                    kind,
                    start,
                    len: i - start,
                    line,
                });
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                // Raw strings / byte strings / raw identifiers share the
                // `r`/`b` prefix with plain identifiers; disambiguate by
                // lookahead before committing to an identifier.
                if let Some((end, kind)) = lex_prefixed_literal(b, i) {
                    i = end;
                    out.tokens.push(Token {
                        kind,
                        start,
                        len: i - start,
                        line,
                    });
                    bump_lines!(start, i);
                    continue;
                }
                if c == b'r' && i + 1 < n && b[i + 1] == b'#' && ident_start(b.get(i + 2)) {
                    // Raw identifier `r#type`: emit the bare name so lint
                    // matching sees `type`, not `r#type`.
                    i += 2;
                    let id_start = i;
                    while i < n && ident_continue(b[i]) {
                        i += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Ident,
                        start: id_start,
                        len: i - id_start,
                        line,
                    });
                    continue;
                }
                while i < n && ident_continue(b[i]) {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    start,
                    len: i - start,
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < n {
                    let d = b[i];
                    if ident_continue(d) {
                        i += 1;
                    } else if d == b'.'
                        && i + 1 < n
                        && b[i + 1].is_ascii_digit()
                        && !src[start..i].contains('.')
                    {
                        // `1.5` continues the number; `0..10` does not.
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    kind: TokenKind::Num,
                    start,
                    len: i - start,
                    line,
                });
            }
            _ => {
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    start: i,
                    len: 1,
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

fn ident_start(c: Option<&u8>) -> bool {
    matches!(c, Some(&c) if c == b'_' || c.is_ascii_alphabetic())
}

fn ident_continue(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric() || !c.is_ascii()
}

/// Skips a `"…"` string starting at the opening quote; returns the index
/// one past the closing quote.
fn skip_string(b: &[u8], mut i: usize) -> usize {
    let n = b.len();
    i += 1;
    while i < n {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    n
}

/// Disambiguates `'a'` (char) from `'a` (lifetime) at a `'`.
fn lex_quote(b: &[u8], start: usize) -> (usize, TokenKind) {
    let n = b.len();
    let mut i = start + 1;
    if i >= n {
        return (n, TokenKind::Char);
    }
    if b[i] == b'\\' {
        // Escaped char literal: `'\n'`, `'\u{1F600}'`, `'\''`.
        i += 2;
        while i < n && b[i] != b'\'' {
            i += 1;
        }
        return ((i + 1).min(n), TokenKind::Char);
    }
    if ident_start(b.get(i)) {
        let mut j = i;
        while j < n && ident_continue(b[j]) {
            j += 1;
        }
        if j < n && b[j] == b'\'' {
            // `'a'` — a one-ident char literal.
            return (j + 1, TokenKind::Char);
        }
        // `'a`, `'static` — a lifetime.
        return (j, TokenKind::Lifetime);
    }
    // `'.'`, `'('` … any single char followed by a quote.
    if i + 1 < n && b[i + 1] == b'\'' {
        return (i + 2, TokenKind::Char);
    }
    (i + 1, TokenKind::Char)
}

/// Lexes `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'x'` if present at `i`.
fn lex_prefixed_literal(b: &[u8], i: usize) -> Option<(usize, TokenKind)> {
    let n = b.len();
    let (mut j, byte) = match b[i] {
        b'r' => (i + 1, false),
        b'b' if b.get(i + 1) == Some(&b'r') => (i + 2, true),
        b'b' => (i + 1, true),
        _ => return None,
    };
    if byte && b.get(i + 1) == Some(&b'\'') {
        // `b'x'` byte literal.
        let (end, _) = lex_quote(b, i + 1);
        return Some((end, TokenKind::Char));
    }
    if byte && j == i + 1 && b.get(j) == Some(&b'"') {
        // `b"…"` plain byte string.
        return Some((skip_string(b, j), TokenKind::Str));
    }
    // Raw (byte) string: hashes then a quote.
    let hash_start = j;
    while j < n && b[j] == b'#' {
        j += 1;
    }
    let hashes = j - hash_start;
    if b.get(j) != Some(&b'"') || (b[i] == b'b' && !byte) {
        return None;
    }
    if b[i] == b'r' && hashes == 0 && j == i + 1 {
        // `r"…"` with no hashes — fall through to the search below.
    }
    // Find `"` followed by `hashes` hashes.
    let mut k = j + 1;
    while k < n {
        if b[k] == b'"' {
            let mut h = 0usize;
            while k + 1 + h < n && b[k + 1 + h] == b'#' && h < hashes {
                h += 1;
            }
            if h == hashes {
                return Some((k + 1 + hashes, TokenKind::Str));
            }
        }
        k += 1;
    }
    Some((n, TokenKind::Str))
}

/// Extracts the directive, if any, from one comment's text.
fn scan_comment(text: &str, line: u32, out: &mut Lexed) {
    const KEY: &str = "rowfpga-lint:";
    // Doc comments are documentation: they may *mention* the directive
    // grammar (this crate's own docs do) but never carry directives.
    if (text.starts_with("///") && !text.starts_with("////"))
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!")
    {
        return;
    }
    // A directive must be the comment's entire leading content; a comment
    // whose prose merely mentions the marker mid-sentence is not one.
    let body = text.trim_start_matches(['/', '*']).trim_start();
    let Some(tail) = body.strip_prefix(KEY) else {
        return;
    };
    let rest = tail
        .trim_end_matches("*/")
        .lines()
        .next()
        .unwrap_or("")
        .trim();
    out.directives.push(PlacedDirective {
        line,
        directive: parse_directive(rest),
    });
}

/// The lint names that may appear in allow directives. `panic` and
/// `reachability` are deliberately absent: panic sites are governed by
/// the budget ratchet, never by inline allows.
const ALLOWABLE: &[&str] = &[
    "hot-path",
    "determinism",
    "cfg-hygiene",
    "taint",
    "durability",
    "locks",
];

fn parse_directive(rest: &str) -> Directive {
    if rest == "hot-path" {
        return Directive::HotPath;
    }
    if rest == "no-panic" {
        return Directive::NoPanic;
    }
    if rest == "durable" {
        return Directive::Durable;
    }
    for (verb, wants_reason) in [
        ("allow", true),
        ("begin-allow", true),
        ("end-allow", false),
        ("allow-file", true),
    ] {
        let Some(tail) = rest.strip_prefix(verb) else {
            continue;
        };
        let Some(tail) = tail.strip_prefix('(') else {
            continue;
        };
        let Some(close) = tail.find(')') else {
            return Directive::Malformed {
                detail: format!("unclosed lint name in `{verb}(`"),
            };
        };
        let lint = tail[..close].trim().to_string();
        if !ALLOWABLE.contains(&lint.as_str()) {
            return Directive::Malformed {
                detail: format!(
                    "unknown lint `{lint}` (expected one of {})",
                    ALLOWABLE.join(", ")
                ),
            };
        }
        let after = tail[close + 1..].trim();
        if !wants_reason {
            if !after.is_empty() {
                return Directive::Malformed {
                    detail: format!("unexpected text after `end-allow({lint})`"),
                };
            }
            return Directive::EndAllow { lint };
        }
        let Some(reason) = after.strip_prefix("reason=") else {
            return Directive::Malformed {
                detail: format!("`{verb}({lint})` is missing `reason=<text>`"),
            };
        };
        let reason = reason.trim().to_string();
        if reason.is_empty() {
            return Directive::Malformed {
                detail: format!("`{verb}({lint})` has an empty reason"),
            };
        }
        return match verb {
            "allow" => Directive::Allow { lint, reason },
            "begin-allow" => Directive::BeginAllow { lint, reason },
            _ => Directive::AllowFile { lint, reason },
        };
    }
    Directive::Malformed {
        detail: format!("unrecognized directive `{rest}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        let lx = lex(src);
        lx.tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TokenKind::Ident)
            .map(|(i, _)| lx.text(src, i).to_string())
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"
            let a = "call .clone() here"; // and .clone() here
            /* block .clone() */
            let r = r#"raw "quoted" .clone()"#;
            let c = '"'; let l: &'static str = "x";
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"clone".to_string()), "{ids:?}");
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'a' }";
        let lx = lex(src);
        let lifetimes = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let chars: Vec<_> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .collect();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars.len(), 1);
    }

    #[test]
    fn escaped_quote_char_does_not_derail() {
        let src = r"let q = '\''; let x = y.clone();";
        assert!(idents(src).contains(&"clone".to_string()));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment .clone() */ real()";
        let ids = idents(src);
        assert_eq!(ids, vec!["real"]);
    }

    #[test]
    fn raw_identifier_is_normalized() {
        assert!(idents("let r#type = 1;").contains(&"type".to_string()));
    }

    #[test]
    fn directive_parsing() {
        let src = "\
// rowfpga-lint: hot-path
x(); // rowfpga-lint: allow(determinism) reason=order independent
// rowfpga-lint: begin-allow(hot-path) reason=constructor
// rowfpga-lint: end-allow(hot-path)
// rowfpga-lint: allow-file(cfg-hygiene) reason=module gated in lib.rs
// rowfpga-lint: allow(nonsense) reason=nope
// rowfpga-lint: allow(determinism)
";
        let lx = lex(src);
        let kinds: Vec<_> = lx.directives.iter().map(|d| &d.directive).collect();
        assert!(matches!(kinds[0], Directive::HotPath));
        assert!(matches!(kinds[1], Directive::Allow { .. }));
        assert!(matches!(kinds[2], Directive::BeginAllow { .. }));
        assert!(matches!(kinds[3], Directive::EndAllow { .. }));
        assert!(matches!(kinds[4], Directive::AllowFile { .. }));
        assert!(matches!(kinds[5], Directive::Malformed { .. }));
        assert!(matches!(kinds[6], Directive::Malformed { .. }));
        assert_eq!(lx.directives[1].line, 2);
    }

    #[test]
    fn doc_comments_and_prose_mentions_are_not_directives() {
        let src = "\
//! rowfpga-lint: this doc line mentions the marker in prose.
/// Opt in with a leading `// rowfpga-lint: hot-path` comment.
// The rowfpga-lint: marker must lead the comment to count.
/* rowfpga-lint: hot-path */
";
        let lx = lex(src);
        assert_eq!(lx.directives.len(), 1, "{:?}", lx.directives);
        assert!(matches!(lx.directives[0].directive, Directive::HotPath));
        assert_eq!(lx.directives[0].line, 4);
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let src = "for i in 0..10 { }";
        let lx = lex(src);
        let nums: Vec<_> = lx
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TokenKind::Num)
            .map(|(i, _)| lx.text(src, i).to_string())
            .collect();
        assert_eq!(nums, vec!["0", "10"]);
    }
}
