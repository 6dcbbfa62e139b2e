//! Lint results: violations, the aggregate report, and its text/JSON
//! renderings.

use std::collections::BTreeMap;
use std::fmt;

/// One lint finding, anchored to a file and line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Violation {
    /// Lint id (`hot-path`, `taint`, `reachability`, `durability`,
    /// `locks`, `panic-budget`, `reachability-budget`, `cfg-hygiene`,
    /// `forbid-unsafe`, `directive`).
    pub lint: String,
    /// Workspace-relative file path (or `lint-budget.toml` for ratchet
    /// findings).
    pub file: String,
    /// 1-based line, 0 when the finding is file- or crate-scoped.
    pub line: u32,
    /// Human explanation with the suggested fix.
    pub message: String,
    /// Interprocedural call chain (empty for token-level findings). Each
    /// frame is a `crate::module::fn (file:line)` string, ordered from
    /// the flagged function toward the root cause.
    pub chain: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.lint, self.message
            )?;
        } else {
            write!(f, "{}: [{}] {}", self.file, self.lint, self.message)?;
        }
        for frame in &self.chain {
            write!(f, "\n    via {frame}")?;
        }
        Ok(())
    }
}

/// Everything one lint run produced.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All violations, sorted by (file, line, lint) for deterministic
    /// output.
    pub violations: Vec<Violation>,
    /// Observed non-test panic sites per crate.
    pub panic_counts: BTreeMap<String, usize>,
    /// Observed reachable panic sites per entry crate (hot-path and
    /// no-panic files).
    pub reach_counts: BTreeMap<String, usize>,
    /// Crates walked.
    pub crates: usize,
    /// Files lexed and linted.
    pub files: usize,
    /// Files carrying the hot-path marker.
    pub hot_path_files: usize,
}

impl LintReport {
    /// Whether the run is clean.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Sorts violations by (file, line, lint, message) so both renderings
    /// are byte-stable across runs and platforms.
    pub fn sort(&mut self) {
        self.violations.sort_by(|a, b| {
            (&a.file, a.line, &a.lint, &a.message).cmp(&(&b.file, b.line, &b.lint, &b.message))
        });
    }

    /// Human-readable summary for terminal output.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!("{v}\n"));
        }
        let total: usize = self.panic_counts.values().sum();
        let reach: usize = self.reach_counts.values().sum();
        out.push_str(&format!(
            "rowfpga-lint: {} crate(s), {} file(s), {} hot-path module(s), \
             {} budgeted panic site(s), {} reachable panic site(s): {}\n",
            self.crates,
            self.files,
            self.hot_path_files,
            total,
            reach,
            if self.ok() {
                "clean".to_string()
            } else {
                format!("{} violation(s)", self.violations.len())
            }
        ));
        out
    }

    /// Machine-readable report for CI artifacts. `violations` is always
    /// an array — `[]` on clean and budget-only runs, never `null`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"ok\": ");
        out.push_str(if self.ok() { "true" } else { "false" });
        out.push_str(&format!(
            ",\n  \"crates\": {},\n  \"files\": {},\n  \"hot_path_files\": {},\n",
            self.crates, self.files, self.hot_path_files
        ));
        for (key, counts) in [
            ("panic_counts", &self.panic_counts),
            ("reach_counts", &self.reach_counts),
        ] {
            out.push_str(&format!("  \"{key}\": {{"));
            for (i, (krate, count)) in counts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n    {}: {count}", json_str(krate)));
            }
            if !counts.is_empty() {
                out.push_str("\n  ");
            }
            out.push_str("},\n");
        }
        out.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"lint\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"chain\": [{}]}}",
                json_str(&v.lint),
                json_str(&v.file),
                v.line,
                json_str(&v.message),
                v.chain
                    .iter()
                    .map(|f| json_str(f))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Minimal JSON string escaping (the report contains no exotic content,
/// but backslashes and quotes do appear in messages quoting attributes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
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
    use super::*;

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn json_report_shape() {
        let mut r = LintReport::default();
        r.panic_counts.insert("rowfpga-route".to_string(), 3);
        r.violations.push(Violation {
            lint: "determinism".to_string(),
            file: "crates/x/src/lib.rs".to_string(),
            line: 4,
            message: "uses `HashMap`".to_string(),
            chain: vec!["x::f (crates/x/src/lib.rs:4)".to_string()],
        });
        let json = r.render_json();
        assert!(json.contains("\"ok\": false"));
        assert!(json.contains("\"rowfpga-route\": 3"));
        assert!(json.contains("\"line\": 4"));
        assert!(json.contains("\"chain\": [\"x::f (crates/x/src/lib.rs:4)\"]"));
    }

    #[test]
    fn clean_json_keeps_violations_an_empty_array() {
        let json = LintReport::default().render_json();
        assert!(json.contains("\"violations\": [\n  ]"), "{json}");
        assert!(!json.contains("null"), "{json}");
        assert!(json.contains("\"reach_counts\": {}"), "{json}");
    }

    #[test]
    fn sort_orders_by_file_line_lint() {
        let mut r = LintReport::default();
        let v = |file: &str, line: u32, lint: &str| Violation {
            lint: lint.to_string(),
            file: file.to_string(),
            line,
            ..Violation::default()
        };
        r.violations = vec![v("b.rs", 1, "x"), v("a.rs", 9, "x"), v("a.rs", 9, "a")];
        r.sort();
        let order: Vec<(String, u32, String)> = r
            .violations
            .iter()
            .map(|v| (v.file.clone(), v.line, v.lint.clone()))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs".to_string(), 9, "a".to_string()),
                ("a.rs".to_string(), 9, "x".to_string()),
                ("b.rs".to_string(), 1, "x".to_string()),
            ]
        );
    }
}
