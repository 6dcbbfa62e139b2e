//! The discipline ratchets: `lint-budget.toml`.
//!
//! The budget records two per-crate counts:
//!
//! * `[panics]` — non-test panic sites (`.unwrap()`, `.expect(`,
//!   `panic!`, `unreachable!`) in library code;
//! * `[reachability]` — panic sites (including slice indexing) reachable
//!   through any call path from hot-path / no-panic entry functions.
//!
//! Determinism taint is not budgeted: every leak is a violation of its
//! own. A `[taint]` table left in an old file is ignored, and
//! `--fix-budget` drops it.
//!
//! Both tables are strict in both directions:
//!
//! * a count **above** budget fails — new code must use typed errors (or
//!   restore the call-path guarantee);
//! * a count **below** budget also fails, telling you to run
//!   `rowfpga lint --fix-budget` — so improvements get locked in and the
//!   committed file never drifts from reality (a stale, slack budget
//!   would quietly absorb regressions).
//!
//! `--fix-budget` only ever writes counts **at or below** the committed
//! ones (or entries for new crates); it refuses to ratchet upward.
//!
//! The parser handles exactly the subset of TOML the file uses — named
//! tables of `name = integer` lines with `#` comments — so the lint
//! engine stays dependency-free.

use std::collections::BTreeMap;
use std::fmt;

/// The two budget tables, in file order.
const TABLES: &[&str] = &["panics", "reachability"];

/// Per-table counts, crate name → sites: the committed ceilings of
/// `lint-budget.toml`, or the counts one run observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Non-test panic sites per crate.
    pub panics: BTreeMap<String, usize>,
    /// Reachable panic sites per entry crate.
    pub reachability: BTreeMap<String, usize>,
}

/// Budget file problems.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BudgetError {
    /// A line that is neither a table header, a comment, nor `key = int`.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// `--fix-budget` refused because a count rose.
    RatchetUp {
        /// Table the increase is in.
        table: String,
        /// Crate whose count increased.
        krate: String,
        /// Committed ceiling.
        budget: usize,
        /// Observed count.
        actual: usize,
    },
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::Malformed { line, text } => {
                write!(f, "lint-budget.toml line {line}: cannot parse `{text}`")
            }
            BudgetError::RatchetUp {
                table,
                krate,
                budget,
                actual,
            } => write!(
                f,
                "refusing to ratchet upward: [{table}] {krate} has {actual} sites, \
                 budget {budget}; fix the regression instead"
            ),
        }
    }
}

impl std::error::Error for BudgetError {}

impl Budget {
    fn table(&self, name: &str) -> &BTreeMap<String, usize> {
        match name {
            "reachability" => &self.reachability,
            _ => &self.panics,
        }
    }

    fn table_mut(&mut self, name: &str) -> &mut BTreeMap<String, usize> {
        match name {
            "reachability" => &mut self.reachability,
            _ => &mut self.panics,
        }
    }

    /// Parses the budget file text.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetError::Malformed`] on any unrecognized line.
    pub fn parse(text: &str) -> Result<Budget, BudgetError> {
        let mut budget = Budget::default();
        let mut current: Option<&str> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                current = TABLES.iter().copied().find(|t| *t == name.trim());
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(BudgetError::Malformed {
                    line: idx + 1,
                    text: raw.to_string(),
                });
            };
            let count = value
                .trim()
                .parse::<usize>()
                .map_err(|_| BudgetError::Malformed {
                    line: idx + 1,
                    text: raw.to_string(),
                })?;
            if let Some(table) = current {
                budget
                    .table_mut(table)
                    .insert(key.trim().trim_matches('"').to_string(), count);
            }
        }
        Ok(budget)
    }

    /// Renders the budget back to file text.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# rowfpga-lint discipline budgets (see DESIGN.md \u{a7}11 and \u{a7}14).\n\
             #\n\
             # [panics]: non-test panic sites (.unwrap/.expect/panic!/unreachable!)\n\
             # per crate. [reachability]: panic sites (incl. slice indexing)\n\
             # reachable from hot-path / no-panic entry functions, per entry crate.\n\
             #\n\
             # Counts may only shrink: `rowfpga lint` fails when a crate exceeds its\n\
             # budget AND when it beats it (run `rowfpga lint --fix-budget` to lock\n\
             # an improvement in). Never edit a number upward by hand.\n",
        );
        for table in TABLES {
            out.push_str(&format!("\n[{table}]\n"));
            for (krate, count) in self.table(table) {
                out.push_str(&format!("{krate} = {count}\n"));
            }
        }
        out
    }

    /// Compares observed counts against the budget; returns one message
    /// per discrepancy (exceeded, improved-but-not-ratcheted, missing
    /// entry, stale entry).
    pub fn check(&self, observed: &Budget) -> Vec<String> {
        let mut problems = Vec::new();
        for table in TABLES {
            check_table(
                table,
                self.table(table),
                observed.table(table),
                &mut problems,
            );
        }
        problems
    }

    /// Produces the re-ratcheted budget for `--fix-budget`: counts may
    /// stay, shrink, or appear for new crates — never grow.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetError::RatchetUp`] if any crate's observed count
    /// exceeds its committed ceiling.
    pub fn ratcheted(&self, observed: &Budget) -> Result<Budget, BudgetError> {
        let mut next = Budget::default();
        for table in TABLES {
            for (krate, &count) in observed.table(table) {
                if let Some(&ceiling) = self.table(table).get(krate) {
                    if count > ceiling {
                        return Err(BudgetError::RatchetUp {
                            table: table.to_string(),
                            krate: krate.clone(),
                            budget: ceiling,
                            actual: count,
                        });
                    }
                }
                next.table_mut(table).insert(krate.clone(), count);
            }
        }
        Ok(next)
    }
}

/// The fix hint per table, used in check messages.
fn fix_hint(table: &str) -> &'static str {
    match table {
        "reachability" => "convert the reachable panic sites to typed errors or let-else",
        _ => "convert the new unwrap/expect/panic sites to typed errors",
    }
}

fn check_table(
    table: &str,
    budget: &BTreeMap<String, usize>,
    actual: &BTreeMap<String, usize>,
    problems: &mut Vec<String>,
) {
    for (krate, &count) in actual {
        match budget.get(krate) {
            None if count > 0 => problems.push(format!(
                "[{table}] {krate}: {count} sites but no budget entry; run \
                 `rowfpga lint --fix-budget` to record the baseline"
            )),
            None => {}
            Some(&ceiling) if count > ceiling => problems.push(format!(
                "[{table}] {krate}: {count} sites exceed the budget of {ceiling}; {}",
                fix_hint(table)
            )),
            Some(&ceiling) if count < ceiling => problems.push(format!(
                "[{table}] {krate}: {count} sites beat the budget of {ceiling}; \
                 run `rowfpga lint --fix-budget` to ratchet the budget down"
            )),
            Some(_) => {}
        }
    }
    for krate in budget.keys() {
        if !actual.contains_key(krate) {
            problems.push(format!(
                "[{table}] {krate}: budget entry for a crate the workspace no longer \
                 has; run `rowfpga lint --fix-budget` to drop it"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, usize)]) -> BTreeMap<String, usize> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    fn observed(panics: &[(&str, usize)]) -> Budget {
        Budget {
            panics: counts(panics),
            ..Budget::default()
        }
    }

    #[test]
    fn round_trips_both_tables() {
        let b = Budget {
            panics: counts(&[("rowfpga-route", 3), ("rowfpga-core", 10)]),
            reachability: counts(&[("rowfpga-route", 41)]),
        };
        let parsed = Budget::parse(&b.render()).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn parses_the_legacy_single_table_file() {
        let b = Budget::parse("[panics]\nrowfpga-route = 3\n").unwrap();
        assert_eq!(b.panics, counts(&[("rowfpga-route", 3)]));
        assert!(b.reachability.is_empty());
    }

    #[test]
    fn a_stale_taint_table_is_ignored_and_dropped() {
        let b = Budget::parse("[panics]\na = 1\n[taint]\na = 4\n[reachability]\na = 2\n").unwrap();
        assert_eq!(b.panics, counts(&[("a", 1)]));
        assert_eq!(b.reachability, counts(&[("a", 2)]));
        assert!(!b.render().contains("taint"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Budget::parse("[panics]\nroute three\n").is_err());
        assert!(Budget::parse("[panics]\nroute = many\n").is_err());
    }

    #[test]
    fn exceeding_and_beating_both_fail() {
        let b = Budget {
            panics: counts(&[("a", 5)]),
            ..Budget::default()
        };
        assert_eq!(b.check(&observed(&[("a", 5)])), Vec::<String>::new());
        assert_eq!(b.check(&observed(&[("a", 6)])).len(), 1);
        assert_eq!(b.check(&observed(&[("a", 4)])).len(), 1);
    }

    #[test]
    fn tables_are_checked_independently() {
        let b = Budget {
            panics: counts(&[("a", 5)]),
            reachability: counts(&[("a", 7)]),
        };
        let ob = Budget {
            panics: counts(&[("a", 5)]),
            reachability: counts(&[("a", 8)]),
        };
        let problems = b.check(&ob);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("[reachability] a: 8 sites exceed"));
    }

    #[test]
    fn missing_and_stale_entries_reported() {
        let b = Budget {
            panics: counts(&[("gone", 2)]),
            ..Budget::default()
        };
        let problems = b.check(&observed(&[("new", 1)]));
        assert_eq!(problems.len(), 2);
        // A new crate with zero sites needs no entry.
        let b2 = Budget::default();
        assert!(b2.check(&observed(&[("clean", 0)])).is_empty());
    }

    #[test]
    fn ratchet_shrinks_but_never_grows() {
        let b = Budget {
            panics: counts(&[("a", 5), ("gone", 1)]),
            ..Budget::default()
        };
        let next = b.ratcheted(&observed(&[("a", 3), ("fresh", 7)])).unwrap();
        assert_eq!(next.panics, counts(&[("a", 3), ("fresh", 7)]));
        assert!(matches!(
            b.ratcheted(&observed(&[("a", 6)])),
            Err(BudgetError::RatchetUp { .. })
        ));
    }

    #[test]
    fn ratchet_up_in_any_table_is_refused() {
        let b = Budget {
            reachability: counts(&[("a", 3)]),
            ..Budget::default()
        };
        let ob = Budget {
            reachability: counts(&[("a", 4)]),
            ..Budget::default()
        };
        match b.ratcheted(&ob) {
            Err(BudgetError::RatchetUp { table, .. }) => assert_eq!(table, "reachability"),
            other => panic!("expected RatchetUp, got {other:?}"),
        }
    }
}
