//! End-to-end fixture tests: tokenizer traps, whole-repo runs, and the
//! two-way budget ratchet.

use std::fs;
use std::path::{Path, PathBuf};

use rowfpga_lint::budget::BudgetError;
use rowfpga_lint::lints::{analyze_source, FileRules};
use rowfpga_lint::{run_repo, EngineError, Options};

const ALL: FileRules = FileRules {
    determinism_collections: true,
    determinism_time: true,
    count_panics: true,
    cfg_hygiene: true,
};

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
    let analysis = analyze_source("traps.rs", &read("traps.rs"), ALL);
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
    let analysis = analyze_source("bad.rs", &read("bad.rs"), ALL);
    let got: Vec<(String, u32)> = analysis
        .violations
        .iter()
        .map(|v| (v.lint.clone(), v.line))
        .collect();
    let expected = [
        ("directive", 31),
        ("hot-path", 6),
        ("determinism", 14),
        ("determinism", 18),
        ("cfg-hygiene", 21),
    ];
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
    for family in [
        "hot-path",
        "determinism",
        "cfg-hygiene",
        "forbid-unsafe",
        "panic-budget",
    ] {
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

/// Builds a throwaway one-crate repo under the OS temp dir.
fn scratch_repo(tag: &str, panic_sites: usize, budget: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("rowfpga-lint-{}-{tag}", std::process::id()));
    let src_dir = root.join("crates/demo/src");
    fs::create_dir_all(&src_dir).unwrap();
    fs::write(
        root.join("crates/demo/Cargo.toml"),
        "[package]\nname = \"demo\"\nversion = \"0.1.0\"\n",
    )
    .unwrap();
    let mut lib = String::from("#![forbid(unsafe_code)]\n//! Scratch fixture.\n");
    for i in 0..panic_sites {
        lib.push_str(&format!(
            "/// Site {i}.\npub fn site_{i}(x: Option<u32>) -> u32 {{ x.unwrap() }}\n"
        ));
    }
    fs::write(src_dir.join("lib.rs"), lib).unwrap();
    fs::write(root.join("lint-budget.toml"), budget).unwrap();
    root
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
