//! End-to-end fixture tests: tokenizer traps, whole-repo runs, and the
//! two-way budget ratchet.

use std::fs;
use std::path::{Path, PathBuf};

use rowfpga_lint::budget::BudgetError;
use rowfpga_lint::lints::analyze_source;
use rowfpga_lint::{run_repo, EngineError, Options};

fn fixture(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel)
}

fn read(rel: &str) -> String {
    let path = fixture(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn trap_fixture_is_clean() {
    let analysis = analyze_source("traps.rs", &read("traps.rs"));
    assert_eq!(
        analysis.violations,
        Vec::new(),
        "tokenizer was fooled by a trap"
    );
    assert_eq!(analysis.panic_sites, 0);
    assert!(analysis.hot_path);
}

#[test]
fn bad_fixture_fires_each_lint_at_the_expected_line() {
    let analysis = analyze_source("bad.rs", &read("bad.rs"));
    let got: Vec<(String, u32)> = analysis
        .violations
        .iter()
        .map(|v| (v.lint.clone(), v.line))
        .collect();
    // Lines 14 and 18 (a `HashMap`, a clock read) are clippy's to ban,
    // so the per-file lints pass over them.
    let expected = [("directive", 31), ("hot-path", 6), ("cfg-hygiene", 21)];
    for (lint, line) in expected {
        assert!(
            got.iter().any(|(l, n)| l == lint && *n == line),
            "missing {lint} at line {line}; got {got:?}"
        );
    }
    assert_eq!(got.len(), expected.len(), "extra violations: {got:?}");
    assert_eq!(analysis.panic_sites, 1);
}

#[test]
fn good_repo_passes_end_to_end() {
    let report = run_repo(&fixture("repo_good"), Options::default()).unwrap();
    assert!(
        report.ok(),
        "unexpected violations: {:?}",
        report.violations
    );
    assert_eq!(report.crates, 1);
    assert_eq!(report.panic_counts.get("demo"), Some(&0));
}

#[test]
fn bad_repo_fails_every_lint_family() {
    let report = run_repo(&fixture("repo_bad"), Options::default()).unwrap();
    assert!(!report.ok());
    let lints: Vec<&str> = report.violations.iter().map(|v| v.lint.as_str()).collect();
    for family in ["hot-path", "cfg-hygiene", "forbid-unsafe", "panic-budget"] {
        assert!(lints.contains(&family), "no {family} in {lints:?}");
    }
}

/// One seeded violation per interprocedural analysis, each reported
/// with the call chain that proves it.
#[test]
fn interproc_repo_fires_each_analysis_with_a_chain() {
    let report = run_repo(&fixture("repo_interproc"), Options::default()).unwrap();
    assert!(!report.ok());

    // Transitive clock read: the boundary is `helper` in the solver
    // crate; the chain walks into rowfpga-bench and down to the clock.
    let taint = report
        .violations
        .iter()
        .find(|v| v.lint == "taint")
        .unwrap_or_else(|| panic!("no taint finding in {:?}", report.violations));
    assert!(taint.file.ends_with("solver/src/lib.rs"), "{taint:?}");
    assert!(
        taint.chain.iter().any(|f| f.contains("stamp")),
        "chain misses the tainted helper: {:?}",
        taint.chain
    );
    assert!(
        taint.chain.iter().any(|f| f.contains("now_impl")),
        "chain misses the clock read: {:?}",
        taint.chain
    );

    // Hot-path unwrap two calls deep: drive -> step1 -> step2.
    let reach = report
        .violations
        .iter()
        .find(|v| v.lint == "reachability")
        .unwrap_or_else(|| panic!("no reachability finding in {:?}", report.violations));
    assert!(reach.message.contains("drive"), "{reach:?}");
    for hop in ["drive", "step1", "step2"] {
        assert!(
            reach.chain.iter().any(|f| f.contains(hop)),
            "chain misses {hop}: {:?}",
            reach.chain
        );
    }

    // Rename before fsync in the durable store crate.
    let durability = report
        .violations
        .iter()
        .find(|v| v.lint == "durability")
        .unwrap_or_else(|| panic!("no durability finding in {:?}", report.violations));
    assert!(
        durability.file.ends_with("store/src/lib.rs"),
        "{durability:?}"
    );
    assert!(
        durability.message.contains("never fsynced"),
        "{durability:?}"
    );

    // Inverted lock order between `forward` and `backward`.
    let locks = report
        .violations
        .iter()
        .find(|v| v.lint == "locks")
        .unwrap_or_else(|| panic!("no locks finding in {:?}", report.violations));
    assert!(locks.file.ends_with("svc/src/lib.rs"), "{locks:?}");
    assert!(
        locks.message.contains("jobs") && locks.message.contains("stats"),
        "{locks:?}"
    );
}

/// Builds a throwaway repo under the OS temp dir: one crate per
/// `(package name, lib.rs body)` pair, each in `crates/<name>`.
fn write_repo(tag: &str, crates: &[(&str, &str)], budget: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("rowfpga-lint-{}-{tag}", std::process::id()));
    for (name, body) in crates {
        let dir = root.join("crates").join(name);
        fs::create_dir_all(dir.join("src")).unwrap();
        fs::write(
            dir.join("Cargo.toml"),
            format!("[package]\nname = \"{name}\"\nversion = \"0.1.0\"\n"),
        )
        .unwrap();
        let lib = format!("#![forbid(unsafe_code)]\n//! Scratch fixture.\n{body}");
        fs::write(dir.join("src/lib.rs"), lib).unwrap();
    }
    fs::write(root.join("lint-budget.toml"), budget).unwrap();
    root
}

/// A one-crate repo whose `demo` crate holds `panic_sites` unwraps.
fn scratch_repo(tag: &str, panic_sites: usize, budget: &str) -> PathBuf {
    let body: String = (0..panic_sites)
        .map(|i| {
            format!("/// Site {i}.\npub fn site_{i}(x: Option<u32>) -> u32 {{ x.unwrap() }}\n")
        })
        .collect();
    write_repo(tag, &[("demo", &body)], budget)
}

/// A solver crate's `step` calls `util::stamp`, which reads the clock.
/// Taint reports that leak as one violation, whatever an old `[taint]`
/// budget table says, unless a directive blesses the read or the call.
#[test]
fn taint_is_reported_directly_and_honours_its_suppressions() {
    let taint_lints = |tag: &str, call: &str, read: &str, budget: &str| {
        let step =
            format!("/// A solver step.\npub fn step() -> u64 {{\n{call}    util::stamp()\n}}\n");
        let stamp = format!(
            "/// Reads the clock.\npub fn stamp() -> u64 {{\n{read}    \
             std::time::Instant::now().elapsed().as_millis() as u64\n}}\n"
        );
        let root = write_repo(tag, &[("rowfpga-core", &step), ("util", &stamp)], budget);
        let report = run_repo(&root, Options::default()).unwrap();
        fs::remove_dir_all(&root).unwrap();
        report
            .violations
            .iter()
            .map(|v| (v.lint.clone(), v.file.clone()))
            .collect::<Vec<_>>()
    };
    let leak = vec![(
        "taint".to_string(),
        "crates/rowfpga-core/src/lib.rs".to_string(),
    )];
    assert_eq!(taint_lints("leak", "", "", "[panics]\n"), leak);
    assert_eq!(
        taint_lints("old-table", "", "", "[panics]\n[taint]\nrowfpga-core = 1\n"),
        leak
    );
    let benign = "    // rowfpga-lint: allow(determinism) reason=telemetry only\n";
    assert_eq!(taint_lints("benign", "", benign, "[panics]\n"), vec![]);
    let blessed = "    // rowfpga-lint: allow(taint) reason=telemetry only\n";
    assert_eq!(taint_lints("blessed", blessed, "", "[panics]\n"), vec![]);
    // Blessing one call to `stamp` leaves the next call to it reported.
    let one_blessed = format!("{blessed}    let _ = util::stamp();\n");
    assert_eq!(
        taint_lints("one-blessed", &one_blessed, "", "[panics]\n"),
        leak
    );
}

/// `a.tick()` resolves to both `A::tick` and `B::tick`, which reach the
/// same clock read through `stamp`: one call, one finding.
#[test]
fn a_call_resolving_to_two_tainted_impls_is_one_finding() {
    let step = "/// A solver step.\npub fn step(a: &util::A) -> u64 {\n    a.tick()\n}\n";
    let util = "/// Reads the clock.\npub fn stamp() -> u64 {\n    \
                std::time::Instant::now().elapsed().as_millis() as u64\n}\n\
                /// One ticker.\npub struct A;\n/// Another.\npub struct B;\n\
                impl A {\n    /// Stamps.\n    pub fn tick(&self) -> u64 {\n        stamp()\n    }\n}\n\
                impl B {\n    /// Stamps.\n    pub fn tick(&self) -> u64 {\n        stamp()\n    }\n}\n";
    let root = write_repo(
        "two-impls",
        &[("rowfpga-core", step), ("util", util)],
        "[panics]\n",
    );
    let report = run_repo(&root, Options::default()).unwrap();
    fs::remove_dir_all(&root).unwrap();
    let taint: Vec<_> = (report.violations.iter())
        .filter(|v| v.lint == "taint")
        .collect();
    assert_eq!(taint.len(), 1, "{taint:?}");
    assert!(
        taint[0].chain.iter().any(|f| f.contains("stamp")),
        "{taint:?}"
    );
}

#[test]
fn hand_bumped_budget_is_rejected() {
    // Seeding slack into the budget (budget 5, actual 2) must fail just
    // like exceeding it would: the file may never drift from reality.
    let root = scratch_repo("bumped", 2, "[panics]\ndemo = 5\n");
    let report = run_repo(&root, Options::default()).unwrap();
    let budget_problems: Vec<&str> = report
        .violations
        .iter()
        .filter(|v| v.lint == "panic-budget")
        .map(|v| v.message.as_str())
        .collect();
    assert_eq!(budget_problems.len(), 1, "{budget_problems:?}");
    assert!(budget_problems[0].contains("beat the budget"));
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn fix_budget_refuses_an_upward_ratchet() {
    let root = scratch_repo("ratchet-up", 3, "[panics]\ndemo = 1\n");
    let err = run_repo(&root, Options { fix_budget: true }).unwrap_err();
    match err {
        EngineError::Budget(BudgetError::RatchetUp {
            table,
            krate,
            budget,
            actual,
        }) => {
            assert_eq!(table, "panics");
            assert_eq!(krate, "demo");
            assert_eq!((budget, actual), (1, 3));
        }
        other => panic!("expected RatchetUp, got {other:?}"),
    }
    // The refusal must leave the committed file untouched.
    assert_eq!(
        fs::read_to_string(root.join("lint-budget.toml")).unwrap(),
        "[panics]\ndemo = 1\n"
    );
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn fix_budget_locks_in_an_improvement() {
    let root = scratch_repo("ratchet-down", 1, "[panics]\ndemo = 4\n");
    run_repo(&root, Options { fix_budget: true }).unwrap();
    let rewritten = fs::read_to_string(root.join("lint-budget.toml")).unwrap();
    assert!(rewritten.contains("demo = 1"), "{rewritten}");
    // After the rewrite a plain run is clean.
    let report = run_repo(&root, Options::default()).unwrap();
    assert!(report.ok(), "{:?}", report.violations);
    fs::remove_dir_all(&root).unwrap();
}
