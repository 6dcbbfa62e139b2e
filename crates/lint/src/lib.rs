//! rowfpga-lint: the workspace's domain lint engine.
//!
//! `cargo clippy` enforces Rust idiom; this crate enforces *rowfpga*
//! invariants — the properties the annealer's performance and
//! replica-determinism guarantees rest on, which no general-purpose tool
//! knows about:
//!
//! * hot-path modules stay allocation-free ([`lints`] — the PR 3 move
//!   cascade speedup survives only if nobody reintroduces a `.clone()`);
//! * solver crates stay deterministic: no call path reaches a wall clock
//!   or hash-order iteration ([`taint`] — bit-identical K-replica
//!   annealing is a correctness property). Clippy bans the direct reads
//!   through the workspace's `clippy.toml`; this engine follows the calls;
//! * panic sites in library code only ever shrink ([`budget`]);
//! * fault-injection hooks stay feature-gated;
//! * every lib crate keeps `#![forbid(unsafe_code)]` (clippy's
//!   `undocumented_unsafe_blocks` audits the binary's `unsafe` blocks).
//!
//! On top of the per-file token lints sits a workspace-level analyzer: a
//! hand-rolled item parser ([`items`]) feeds a cross-crate call graph
//! ([`callgraph`]), over which four interprocedural passes run —
//! determinism taint and panic reachability ([`taint`]), durability
//! ordering ([`typestate`]), and lock discipline ([`locks`]).
//! Reachability gates through the two-way budget ratchet; taint,
//! durability and locks report directly.
//!
//! Like the rand/proptest/criterion shims, the engine is dependency-free
//! and offline-safe: its own lexer ([`lexer`]), no `syn`, no registry.
//! Run it as `rowfpga lint`; see DESIGN.md §11 and §14 for the lint
//! catalogue and the marker/allow-list grammar.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod callgraph;
pub mod items;
pub mod lexer;
pub mod lints;
pub mod locks;
pub mod model;
pub mod regions;
pub mod report;
pub mod taint;
pub mod typestate;

use std::fmt;
use std::fs;
use std::path::Path;

use budget::{Budget, BudgetError};
use callgraph::FileFns;
use items::ParsedFile;
use lexer::Lexed;
use lints::{analyze_lexed, Allows};
use model::WalkError;
use regions::{gated_mask, Gate};
use report::{LintReport, Violation};

/// The *sink domain* of the taint analysis: everything that runs inside
/// (or feeds state to) the anneal loop, where no call path may reach a
/// clock or hash-order iteration.
const DETERMINISTIC_CRATES: &[&str] = &[
    "rowfpga-anneal",
    "rowfpga-core",
    "rowfpga-netlist",
    "rowfpga-place",
    "rowfpga-route",
    "rowfpga-timing",
];

/// How many detailed chain violations to surface per over-budget crate
/// (the count tables carry the full totals).
const DETAIL_LIMIT: usize = 3;

/// Engine options.
#[derive(Clone, Copy, Debug, Default)]
pub struct Options {
    /// Rewrite `lint-budget.toml` with the observed (never higher)
    /// counts instead of failing on improvements.
    pub fix_budget: bool,
}

/// One source file with everything the interprocedural passes need.
#[derive(Debug)]
pub struct Unit {
    /// Owning crate package name.
    pub krate: String,
    /// Workspace-relative path label.
    pub label: String,
    /// File contents.
    pub src: String,
    /// Token stream.
    pub lx: Lexed,
    /// Per-token `#[cfg(test)]` mask.
    pub test_mask: Vec<bool>,
    /// Allow directives, shared with the interprocedural passes.
    pub allows: Allows,
    /// Panic-reachability entry file (`hot-path` or `no-panic` marker).
    pub entry: bool,
    /// Durability typestate opt-in (`durable` marker).
    pub durable: bool,
}

/// Fatal engine failures (I/O and upward ratchets). Lint *findings* are
/// not errors — they come back inside the [`LintReport`].
#[derive(Debug)]
pub enum EngineError {
    /// The workspace could not be walked or a file could not be read.
    Walk(WalkError),
    /// The budget file is unreadable or `--fix-budget` found an increase.
    Budget(BudgetError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Walk(e) => write!(f, "{e}"),
            EngineError::Budget(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Walk(e) => Some(e),
            EngineError::Budget(e) => Some(e),
        }
    }
}

impl From<WalkError> for EngineError {
    fn from(e: WalkError) -> Self {
        EngineError::Walk(e)
    }
}

impl From<BudgetError> for EngineError {
    fn from(e: BudgetError) -> Self {
        EngineError::Budget(e)
    }
}

/// Every lint family `explain` can describe, for `--explain` help text.
pub const EXPLAINABLE: &[&str] = &[
    "hot-path",
    "determinism",
    "taint",
    "reachability",
    "durability",
    "locks",
    "panic-budget",
    "cfg-hygiene",
];

/// One-paragraph explanations for `rowfpga lint --explain <LINT>`.
/// Returns `None` for unknown lint names.
pub fn explain(lint: &str) -> Option<&'static str> {
    Some(match lint {
        "hot-path" => {
            "Modules marked `// rowfpga-lint: hot-path` must not allocate in steady \
             state (Vec::new, vec![, .clone(), .collect(), .to_vec(), Box::new, \
             format!, String::from). The PR 3 move-cascade speedup exists because the \
             inner loop reuses scratch buffers; one stray .clone() erases it. \
             Constructors opt out with begin-allow(hot-path)/end-allow regions."
        }
        "determinism" => {
            "No crate may use HashMap/HashSet (run-varying order breaks bit-identical \
             K-replica annealing) or read a clock (Instant::now, SystemTime::now). \
             Clippy enforces both through the workspace's clippy.toml \
             (disallowed-types, disallowed-methods); a deliberate clock read carries \
             a reasoned #[expect(clippy::disallowed_methods, reason = …)] where it \
             happens. Thread time and randomness in from the caller. The call-graph \
             form of the rule is `taint`."
        }
        "taint" => {
            "The interprocedural form of `determinism`: a wall-clock read, entropy \
             source, or hash-order iteration anywhere in the workspace taints every \
             function that can reach it through the call graph. A finding fires at \
             the boundary — the solver/digest function whose call edge crosses into \
             tainted territory — with the full chain to the source, and every \
             finding is a violation. Bless deliberate sites with \
             `allow(taint) reason=…` at the call, or `allow(determinism)` at the \
             source if the source itself is benign."
        }
        "reachability" => {
            "Functions in `hot-path` and `no-panic` files are entry points; every \
             panic site (.unwrap/.expect/panic!/unreachable!/slice indexing) \
             reachable from them through any call path is counted per entry crate \
             against the [reachability] table in lint-budget.toml. There is no inline \
             allow — like the panic budget, the only path is the two-way ratchet: \
             counts may never rise, and improvements must be locked in with \
             --fix-budget."
        }
        "durability" => {
            "Files marked `// rowfpga-lint: durable` (the snapshot store, the job \
             spool) must follow write-temp → fsync → rename: a rename that publishes \
             an unsynced write can leave a torn file under the durable name after a \
             crash. Calls to transitively-fsyncing helpers (write_atomic) count as \
             sync events; pure renames (promote, quarantine) never trigger. fs::write \
             is flagged outright — it has no handle to sync."
        }
        "locks" => {
            "Lock acquisitions must form a consistent global order (a cycle in the \
             acquired-while-holding graph is a deadlock waiting for the right \
             interleaving), and no lock may be held across a blocking call — fsync, \
             socket I/O, thread join, sleep, barrier wait — directly or through any \
             callee. Condvar::wait(guard) is exempt (it releases the lock). \
             Deliberate hold-across-fsync sites carry `allow(locks) reason=…`."
        }
        "panic-budget" => {
            "Non-test panic sites per crate are counted against the [panics] table in \
             lint-budget.toml. The ratchet is two-way: exceeding the budget fails, \
             and beating it also fails until `rowfpga lint --fix-budget` locks the \
             improvement in — the committed file never drifts from reality."
        }
        "cfg-hygiene" => {
            "Fault-injection hooks (FaultPlan, InjectedFault, inject_fault, fault_*) \
             must sit inside #[cfg(feature = \"fault-inject\")] so production builds \
             cannot reach injection code."
        }
        _ => return None,
    })
}

/// Lints the whole workspace under `root`.
///
/// # Errors
///
/// Returns [`EngineError`] on I/O failures or (with
/// [`Options::fix_budget`]) an attempted upward ratchet. Lint violations
/// are reported in the returned [`LintReport`], not as errors.
pub fn run_repo(root: &Path, opts: Options) -> Result<LintReport, EngineError> {
    let ws = model::discover(root)?;
    let mut report = LintReport {
        crates: ws.crates.len(),
        ..LintReport::default()
    };

    // Pass 1: per-file token lints, while accumulating the parsed units
    // the interprocedural passes run over.
    let mut units: Vec<Unit> = Vec::new();
    let mut parsed: Vec<ParsedFile> = Vec::new();
    for krate in &ws.crates {
        let mut crate_panics = 0usize;
        for rel in &krate.src_files {
            let path = root.join(rel);
            let src = fs::read_to_string(&path).map_err(|source| WalkError {
                path: path.clone(),
                source,
            })?;
            let label = rel.to_string_lossy().replace('\\', "/");
            let lx = lexer::lex(&src);
            let analysis = analyze_lexed(&label, &src, &lx);
            report.files += 1;
            if analysis.hot_path {
                report.hot_path_files += 1;
            }
            crate_panics += analysis.panic_sites;
            if rel.file_name().is_some_and(|f| f == "lib.rs") && !analysis.has_forbid_unsafe {
                report.violations.push(Violation {
                    lint: "forbid-unsafe".to_string(),
                    file: label.clone(),
                    line: 0,
                    message: format!(
                        "crate {} has dropped `#![forbid(unsafe_code)]` from its lib.rs",
                        krate.name
                    ),
                    chain: Vec::new(),
                });
            }
            report.violations.extend(analysis.violations);

            let in_src = label.rsplit_once("src/").map_or(label.as_str(), |(_, t)| t);
            let mods = items::file_module_path(in_src);
            let test_mask = gated_mask(&src, &lx, Gate::Test);
            parsed.push(items::parse_file(&src, &lx, &mods));
            units.push(Unit {
                krate: krate.name.clone(),
                label,
                src,
                lx,
                test_mask,
                allows: analysis.allows,
                entry: analysis.hot_path || analysis.no_panic,
                durable: analysis.durable,
            });
        }
        report.panic_counts.insert(krate.name.clone(), crate_panics);
    }

    // Pass 2: the call graph and the four interprocedural analyses.
    let ffns: Vec<FileFns<'_>> = units
        .iter()
        .zip(&parsed)
        .enumerate()
        .map(|(i, (u, p))| FileFns {
            file: i,
            label: &u.label,
            krate: &u.krate,
            parsed: p,
            test_mask: &u.test_mask,
        })
        .collect();
    let graph = callgraph::build(&ffns);

    report
        .violations
        .extend(taint::taint(&graph, &units, DETERMINISTIC_CRATES));
    report.reach_counts = taint::reachability_counts(&graph, &units);
    report.violations.extend(typestate::check(&graph, &units));
    report.violations.extend(locks::check(&graph, &units));

    // Pass 3: the budget ratchet — compare against (or rewrite)
    // lint-budget.toml, then surface chain details for over-budget
    // reachability crates.
    let observed = Budget {
        panics: report.panic_counts.clone(),
        reachability: report.reach_counts.clone(),
    };
    let budget_path = root.join("lint-budget.toml");
    let committed = match fs::read_to_string(&budget_path) {
        Ok(text) => Some(Budget::parse(&text)?),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(source) => {
            return Err(WalkError {
                path: budget_path,
                source,
            }
            .into())
        }
    };
    if opts.fix_budget {
        let next = committed.unwrap_or_default().ratcheted(&observed)?;
        fs::write(&budget_path, next.render()).map_err(|source| WalkError {
            path: budget_path.clone(),
            source,
        })?;
        report.sort();
        return Ok(report);
    }
    match &committed {
        None => report.violations.push(Violation {
            lint: "panic-budget".to_string(),
            file: "lint-budget.toml".to_string(),
            line: 0,
            message: "missing lint-budget.toml; run `rowfpga lint --fix-budget` to create it"
                .to_string(),
            chain: Vec::new(),
        }),
        Some(b) => {
            for problem in b.check(&observed) {
                let (lint, message) = match problem.strip_prefix("[reachability] ") {
                    Some(m) => ("reachability-budget", m),
                    None => (
                        "panic-budget",
                        problem.strip_prefix("[panics] ").unwrap_or(&problem),
                    ),
                };
                report.violations.push(Violation {
                    lint: lint.to_string(),
                    file: "lint-budget.toml".to_string(),
                    line: 0,
                    message: message.to_string(),
                    chain: Vec::new(),
                });
            }
        }
    }
    // Chain details for crates over (or missing from) their reachability
    // ceilings, so the JSON and terminal output show *why*.
    for (krate, &count) in &report.reach_counts {
        let ceiling = committed
            .as_ref()
            .and_then(|b| b.reachability.get(krate).copied());
        if count > ceiling.unwrap_or(0) {
            report.violations.extend(taint::reachability_details(
                &graph,
                &units,
                krate,
                DETAIL_LIMIT,
            ));
        }
    }
    report.sort();
    Ok(report)
}
