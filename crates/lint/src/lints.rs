//! The lint library: pattern matchers over the token stream.
//!
//! Each lint protects one invariant the annealer's correctness or
//! performance story depends on (see DESIGN.md §11):
//!
//! * **hot-path** — modules carrying a `// rowfpga-lint: hot-path` marker
//!   must not allocate in steady state (`Vec::new`, `vec![`, `.clone()`,
//!   `.collect()`, `.to_vec()`, `Box::new`, `format!`, `String::from`).
//!   Constructors may opt out with a `begin-allow`/`end-allow` region.
//! * **panic** — `.unwrap()` / `.expect(` / `panic!` / `unreachable!` in
//!   non-test library code are counted per crate against the committed
//!   ratchet in `lint-budget.toml`.
//! * **cfg-hygiene** — fault-injection hooks (`FaultPlan`,
//!   `InjectedFault`, `inject_fault`, any `fault_*` identifier) must sit
//!   inside `#[cfg(feature = "fault-inject")]`.
//!
//! Every lib crate must also keep `#![forbid(unsafe_code)]`, which the
//! engine checks through [`FileAnalysis::has_forbid_unsafe`]. Clippy's
//! `undocumented_unsafe_blocks` lint requires the `// SAFETY:` comment on
//! the `unsafe` blocks elsewhere (the CLI binary's signal handler). The
//! direct determinism bans (`HashMap`/`HashSet`, clock reads) are
//! clippy's too, through the workspace's `clippy.toml`.

use crate::lexer::{lex, Directive, Lexed, TokenKind};
use crate::regions::{gated_mask, Gate};
use crate::report::Violation;

/// Everything the engine learns from one file.
#[derive(Clone, Debug, Default)]
pub struct FileAnalysis {
    /// Violations found (already filtered through allow directives).
    pub violations: Vec<Violation>,
    /// Non-test panic sites (unwrap/expect/panic!/unreachable!).
    pub panic_sites: usize,
    /// Whether the file contains `#![forbid(unsafe_code)]`.
    pub has_forbid_unsafe: bool,
    /// Whether the file opted into the hot-path lint.
    pub hot_path: bool,
    /// Whether the file is a panic-reachability entry (`no-panic` marker).
    pub no_panic: bool,
    /// Whether the file opted into the durability typestate check.
    pub durable: bool,
    /// The allow table, kept for the interprocedural passes (taint,
    /// durability, locks honor the same directives).
    pub allows: Allows,
}

/// Per-file allow state assembled from the comment directives.
#[derive(Clone, Debug, Default)]
pub struct Allows {
    /// (lint, line) pairs from single-line `allow` directives; each
    /// covers its own line and the next.
    lines: Vec<(String, u32)>,
    /// (lint, from, to) inclusive line ranges from begin/end pairs.
    ranges: Vec<(String, u32, u32)>,
    /// Lints suppressed for the whole file.
    whole_file: Vec<String>,
}

impl Allows {
    /// Whether an allow directive suppresses `lint` at `line`.
    pub fn permits(&self, lint: &str, line: u32) -> bool {
        self.whole_file.iter().any(|l| l == lint)
            || self
                .lines
                .iter()
                .any(|(l, at)| l == lint && (line == *at || line == at + 1))
            || self
                .ranges
                .iter()
                .any(|(l, from, to)| l == lint && (*from..=*to).contains(&line))
    }
}

/// Runs every per-file lint over one source file.
pub fn analyze_source(file: &str, src: &str) -> FileAnalysis {
    analyze_lexed(file, src, &lex(src))
}

/// [`analyze_source`] over an already-lexed file, so the engine can
/// share one token stream between the per-file lints and the
/// interprocedural passes.
pub fn analyze_lexed(file: &str, src: &str, lx: &Lexed) -> FileAnalysis {
    let test_mask = gated_mask(src, lx, Gate::Test);
    let gate_mask = gated_mask(src, lx, Gate::FaultInject);
    let mut out = FileAnalysis {
        has_forbid_unsafe: has_forbid_unsafe(src, lx),
        ..FileAnalysis::default()
    };
    let allows = collect_allows(file, lx, &mut out);
    out.hot_path = lx
        .directives
        .iter()
        .any(|d| matches!(d.directive, Directive::HotPath));
    out.no_panic = lx
        .directives
        .iter()
        .any(|d| matches!(d.directive, Directive::NoPanic));
    out.durable = lx
        .directives
        .iter()
        .any(|d| matches!(d.directive, Directive::Durable));

    let push = |violations: &mut Vec<Violation>, lint: &str, line: u32, message: String| {
        if !allows.permits(lint, line) {
            violations.push(Violation {
                lint: lint.to_string(),
                file: file.to_string(),
                line,
                message,
                chain: Vec::new(),
            });
        }
    };

    let mut violations = Vec::new();
    for i in 0..lx.tokens.len() {
        if test_mask[i] {
            continue;
        }
        let line = lx.tokens[i].line;

        if out.hot_path {
            if let Some(what) = hot_path_pattern(src, lx, i) {
                push(
                    &mut violations,
                    "hot-path",
                    line,
                    format!(
                        "`{what}` allocates in a hot-path module; reuse scratch buffers \
                         or move this to a begin-allow(hot-path) constructor region"
                    ),
                );
            }
        }

        if panic_pattern(src, lx, i).is_some() {
            out.panic_sites += 1;
        }

        if !gate_mask[i] {
            if let Some(what) = injection_hook(src, lx, i) {
                push(
                    &mut violations,
                    "cfg-hygiene",
                    line,
                    format!(
                        "fault hook `{what}` outside `#[cfg(feature = \"fault-inject\")]`; \
                         gate it so production builds cannot reach injection code"
                    ),
                );
            }
        }
    }
    out.violations.extend(violations);
    out.allows = allows;
    out
}

/// Builds the allow table, reporting malformed directives and unbalanced
/// begin/end pairs as violations in their own right.
fn collect_allows(file: &str, lx: &Lexed, out: &mut FileAnalysis) -> Allows {
    let mut allows = Allows::default();
    let mut open: Vec<(String, u32)> = Vec::new();
    for d in &lx.directives {
        match &d.directive {
            Directive::HotPath | Directive::NoPanic | Directive::Durable => {}
            Directive::Allow { lint, .. } => allows.lines.push((lint.clone(), d.line)),
            Directive::AllowFile { lint, .. } => allows.whole_file.push(lint.clone()),
            Directive::BeginAllow { lint, .. } => open.push((lint.clone(), d.line)),
            Directive::EndAllow { lint } => match open.iter().rposition(|(l, _)| l == lint) {
                Some(p) => {
                    let (l, from) = open.remove(p);
                    allows.ranges.push((l, from, d.line));
                }
                None => out.violations.push(Violation {
                    lint: "directive".to_string(),
                    file: file.to_string(),
                    line: d.line,
                    message: format!("`end-allow({lint})` without a matching begin-allow"),
                    chain: Vec::new(),
                }),
            },
            Directive::Malformed { detail } => out.violations.push(Violation {
                lint: "directive".to_string(),
                file: file.to_string(),
                line: d.line,
                message: format!("malformed rowfpga-lint directive: {detail}"),
                chain: Vec::new(),
            }),
        }
    }
    for (lint, line) in open {
        out.violations.push(Violation {
            lint: "directive".to_string(),
            file: file.to_string(),
            line,
            message: format!("`begin-allow({lint})` is never closed by end-allow"),
            chain: Vec::new(),
        });
    }
    allows
}

pub(crate) fn tok<'a>(src: &'a str, lx: &Lexed, i: usize) -> Option<(&'a str, TokenKind)> {
    lx.tokens.get(i).map(|t| (lx.text(src, i), t.kind))
}

pub(crate) fn seq(src: &str, lx: &Lexed, i: usize, want: &[&str]) -> bool {
    want.iter()
        .enumerate()
        .all(|(k, w)| matches!(tok(src, lx, i + k), Some((t, _)) if t == *w))
}

/// Allocation patterns denied in hot-path modules; returns a display name.
fn hot_path_pattern(src: &str, lx: &Lexed, i: usize) -> Option<&'static str> {
    if seq(src, lx, i, &["Vec", ":", ":", "new"]) {
        return Some("Vec::new");
    }
    if seq(src, lx, i, &["vec", "!"]) {
        return Some("vec![");
    }
    if seq(src, lx, i, &["Box", ":", ":", "new"]) {
        return Some("Box::new");
    }
    if seq(src, lx, i, &["String", ":", ":", "from"]) {
        return Some("String::from");
    }
    if seq(src, lx, i, &["format", "!"]) {
        return Some("format!");
    }
    if seq(src, lx, i, &[".", "clone", "("]) {
        return Some(".clone()");
    }
    if seq(src, lx, i, &[".", "to_vec", "("]) {
        return Some(".to_vec()");
    }
    if seq(src, lx, i, &[".", "collect"]) {
        return Some(".collect()");
    }
    None
}

/// Panic-site patterns counted by the budget ratchet (and, with slice
/// indexing, by the reachability pass).
pub(crate) fn panic_pattern(src: &str, lx: &Lexed, i: usize) -> Option<&'static str> {
    if seq(src, lx, i, &[".", "unwrap", "("]) {
        return Some(".unwrap()");
    }
    if seq(src, lx, i, &[".", "expect", "("]) {
        return Some(".expect(");
    }
    if seq(src, lx, i, &["panic", "!"]) {
        return Some("panic!");
    }
    if seq(src, lx, i, &["unreachable", "!"]) {
        return Some("unreachable!");
    }
    None
}

/// Fault-injection hook identifiers that must be feature-gated. Bare
/// variables named `fault` and the deliberately ungated checkpoint
/// crash-window type `WriteFault` are not hooks.
fn injection_hook<'a>(src: &'a str, lx: &Lexed, i: usize) -> Option<&'a str> {
    let (t, kind) = tok(src, lx, i)?;
    if kind != TokenKind::Ident {
        return None;
    }
    if t == "FaultPlan" || t == "InjectedFault" || t == "inject_fault" || t.starts_with("fault_") {
        return Some(t);
    }
    None
}

/// Whether the token stream contains `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(src: &str, lx: &Lexed) -> bool {
    (0..lx.tokens.len()).any(|i| {
        seq(
            src,
            lx,
            i,
            &["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"],
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_of(src: &str) -> Vec<String> {
        analyze_source("t.rs", src)
            .violations
            .iter()
            .map(|v| v.lint.clone())
            .collect()
    }

    #[test]
    fn hot_path_requires_the_marker() {
        let src = "fn f() { let v = Vec::new(); }";
        assert!(lints_of(src).is_empty());
        let marked = format!("// rowfpga-lint: hot-path\n{src}");
        assert_eq!(lints_of(&marked), vec!["hot-path"]);
    }

    #[test]
    fn hot_path_ignores_tests_strings_and_comments() {
        let src = r##"
// rowfpga-lint: hot-path
fn f() { step(); } // .clone() in a comment
fn msg() -> &'static str { "please .collect() calmly" }
#[cfg(test)]
mod tests {
    fn t() { let v: Vec<u32> = (0..4).collect(); let w = v.clone(); }
}
"##;
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn allow_region_covers_constructors() {
        let src = "
// rowfpga-lint: hot-path
// rowfpga-lint: begin-allow(hot-path) reason=one-time constructor
fn new() -> S { S { v: Vec::new() } }
// rowfpga-lint: end-allow(hot-path)
fn step(s: &S) { let t = s.v.clone(); }
";
        let v = analyze_source("t.rs", src).violations;
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn single_line_allow_covers_trailing_and_next_line() {
        let src = "
// rowfpga-lint: hot-path
// rowfpga-lint: allow(hot-path) reason=one-time setup
fn f() -> Vec<u32> { Vec::new() }
fn g() { let v: Vec<u32> = Vec::new(); let w = v.clone(); }
";
        // Only the directive's own+next line is covered; line 5 still fires.
        assert_eq!(lints_of(src).len(), 2);
    }

    #[test]
    fn panic_sites_counted_outside_tests_only() {
        let src = r#"
fn f(x: Option<u32>) -> u32 { x.unwrap() }
fn g() { panic!("boom"); }
fn s() -> &'static str { ".unwrap() in a string" }
#[cfg(test)]
mod tests {
    fn t() { None::<u32>.unwrap(); unreachable!(); }
}
"#;
        assert_eq!(analyze_source("t.rs", src).panic_sites, 2);
    }

    #[test]
    fn cfg_hygiene_requires_the_feature_gate() {
        let bad = "fn f(s: &mut S) { s.fault_skew_worst(3.0); }";
        assert_eq!(lints_of(bad), vec!["cfg-hygiene"]);
        let good =
            "#[cfg(feature = \"fault-inject\")]\nfn f(s: &mut S) { s.fault_skew_worst(3.0); }";
        assert!(lints_of(good).is_empty());
    }

    #[test]
    fn forbid_unsafe_detected() {
        assert!(analyze_source("t.rs", "#![forbid(unsafe_code)]\nfn f() {}").has_forbid_unsafe);
        assert!(!analyze_source("t.rs", "fn f() {}").has_forbid_unsafe);
    }

    #[test]
    fn malformed_and_unbalanced_directives_are_violations() {
        let src = "
// rowfpga-lint: allow(determinism)
// rowfpga-lint: begin-allow(hot-path) reason=never closed
// rowfpga-lint: end-allow(locks)
fn f() {}
";
        let lints = lints_of(src);
        assert_eq!(lints, vec!["directive", "directive", "directive"]);
    }
}
