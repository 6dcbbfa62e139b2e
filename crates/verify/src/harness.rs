//! The fuzzing harness: random cases, random scripts, the full oracle
//! suite, and shrinking of anything that fails.
//!
//! One *iteration* draws a random architecture + netlist (see
//! [`crate::gen`]), replays a random move script through the incremental
//! cascade with periodic rollback-identity probes, then runs the
//! differential audit, the checkpoint round trip and (periodically) the
//! K-replica determinism oracle. A failing iteration is reduced with
//! [`ddmin`] and written to the corpus directory as a minimal repro.
//!
//! Under the `fault-inject` feature, [`run_fuzz_with_faults`] instead
//! *plants* each corruption kind from the engine's fault hooks and proves
//! the oracle suite catches every one — the harness's own end-to-end test.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rowfpga_anneal::AnnealProblem;
use rowfpga_arch::Architecture;
use rowfpga_core::{CostConfig, LayoutProblem};
use rowfpga_netlist::Netlist;
use rowfpga_place::MoveWeights;
use rowfpga_route::RouterConfig;

use crate::gen::{random_case, CaseConfig, FuzzCase};
use crate::oracle;
use crate::repro::Repro;
use crate::script::{op_to_move, random_script, MoveScript, ScriptOp};
use crate::shrink::ddmin;

/// Replay ops between rollback-identity probes.
const ROLLBACK_PROBE_EVERY: usize = 16;
/// Iterations between (comparatively slow) replica-determinism checks.
const DETERMINISM_EVERY: u64 = 8;
/// Iterations run when neither `--iters` nor `--seconds` is given.
const DEFAULT_ITERS: u64 = 20;

/// Fuzzing campaign configuration.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Base seed; every iteration derives its case and script from it.
    pub seed: u64,
    /// Stop after this many iterations (both limits may be set; the first
    /// one reached wins). With neither set, runs [`DEFAULT_ITERS`].
    pub iters: Option<u64>,
    /// Stop after this wall-clock budget, checked between iterations.
    pub seconds: Option<u64>,
    /// Directory receiving shrunk repros (`.arch`, `.net` and
    /// `.repro.json` files).
    pub corpus: Option<PathBuf>,
    /// Netlist size range for generated cases.
    pub cells: CaseConfig,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 1,
            iters: None,
            seconds: None,
            corpus: None,
            cells: CaseConfig::default(),
        }
    }
}

/// One shrunk failure found by a campaign.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Iteration that tripped.
    pub iteration: u64,
    /// Seed that regenerates the case.
    pub case_seed: u64,
    /// The oracle's description of the violation.
    pub failure: String,
    /// Script length before shrinking.
    pub original_len: usize,
    /// The 1-minimal script.
    pub shrunk: MoveScript,
    /// Where the repro sidecar was written, when a corpus dir was given.
    pub repro_path: Option<PathBuf>,
}

/// Campaign summary.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Iterations completed.
    pub iterations: u64,
    /// Total script operations replayed (excluding shrinking replays).
    pub ops_replayed: u64,
    /// Every failure found, shrunk.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// Whether the campaign finished without a single violation.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

fn crash_window_scratch() -> PathBuf {
    std::env::temp_dir().join(format!("rowfpga-crash-scratch-{}", std::process::id()))
}

fn mix(seed: u64, i: u64) -> u64 {
    seed ^ i
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(0x6a09_e667_f3bc_c909)
}

fn build_problem<'a>(
    arch: &'a Architecture,
    netlist: &'a Netlist,
    seed: u64,
) -> Result<LayoutProblem<'a>, String> {
    LayoutProblem::new(
        arch,
        netlist,
        RouterConfig::default(),
        CostConfig::default(),
        MoveWeights::default(),
        seed,
    )
    .map_err(|e| format!("problem construction failed: {e}"))
}

/// Replays `ops` with periodic rollback-identity probes, then runs the
/// differential audit and the checkpoint round trip. Returns the first
/// violation's description, or `None` when the state survives everything.
///
/// This is both the campaign's per-iteration check and the shrinker's
/// failure predicate: it is deterministic in `(arch, netlist, seed, ops)`
/// and rebuilds the problem from scratch on every call.
pub fn check_script(
    arch: &Architecture,
    netlist: &Netlist,
    seed: u64,
    ops: &[ScriptOp],
) -> Option<String> {
    let mut problem = match build_problem(arch, netlist, seed) {
        Ok(p) => p,
        Err(e) => return Some(e),
    };
    for (i, op) in ops.iter().enumerate() {
        if i.is_multiple_of(ROLLBACK_PROBE_EVERY) {
            if let Some(mv) = op_to_move(op, &problem) {
                if let Err(f) = oracle::rollback_identity(&mut problem, mv) {
                    return Some(format!("after {i} ops: {f}"));
                }
            }
        }
        #[cfg(feature = "fault-inject")]
        if let ScriptOp::Fault(fault) = op {
            problem.inject_fault(fault);
            continue;
        }
        if let Some(mv) = op_to_move(op, &problem) {
            let (applied, _) = problem.apply_move(mv);
            if op.accepts() {
                problem.commit(applied);
            } else {
                problem.undo(applied);
            }
        }
    }
    if let Err(f) = oracle::differential_audit(arch, netlist, &problem) {
        return Some(f.to_string());
    }
    if let Err(f) = oracle::checkpoint_roundtrip(
        arch,
        netlist,
        &problem,
        RouterConfig::default(),
        CostConfig::default(),
        MoveWeights::default(),
        seed,
    ) {
        return Some(f.to_string());
    }
    None
}

fn shrink_and_save(
    case: &FuzzCase,
    seed: u64,
    ops: &[ScriptOp],
    failure: &str,
    corpus: Option<&PathBuf>,
    log: &mut impl FnMut(&str),
) -> (MoveScript, Option<PathBuf>) {
    let shrunk = MoveScript {
        ops: ddmin(ops, |sub| {
            check_script(&case.arch, &case.netlist, seed, sub).is_some()
        }),
    };
    log(&format!("  shrunk {} ops -> {}", ops.len(), shrunk.len()));
    let repro_path = corpus.and_then(|dir| {
        let stem = format!("repro-{seed:016x}");
        let repro = Repro {
            arch_file: format!("{stem}.arch"),
            netlist_file: format!("{stem}.net"),
            placement_seed: seed,
            script: shrunk.clone(),
            failure: failure.to_string(),
            original_len: ops.len(),
        };
        match repro.save(dir, &stem, &case.arch, &case.netlist) {
            Ok(path) => {
                log(&format!("  wrote {}", path.display()));
                Some(path)
            }
            Err(e) => {
                log(&format!("  failed to write repro: {e}"));
                None
            }
        }
    });
    (shrunk, repro_path)
}

/// Runs a fuzzing campaign. `log` receives one human-readable progress
/// line per notable event (iteration milestones, failures, shrinks).
#[expect(
    clippy::disallowed_methods,
    reason = "wall-clock bounds the fuzz campaign; case generation is seed-driven"
)]
pub fn run_fuzz(cfg: &FuzzConfig, mut log: impl FnMut(&str)) -> FuzzReport {
    let start = Instant::now();
    let mut report = FuzzReport::default();
    let done = |i: u64, start: &Instant| -> bool {
        if cfg.iters.is_some_and(|n| i >= n) {
            return true;
        }
        if let Some(s) = cfg.seconds {
            if start.elapsed() >= Duration::from_secs(s) {
                return true;
            }
        }
        cfg.iters.is_none() && cfg.seconds.is_none() && i >= DEFAULT_ITERS
    };
    let mut i = 0u64;
    while !done(i, &start) {
        let case_seed = mix(cfg.seed, i);
        let case = random_case(case_seed, &cfg.cells);
        let len = StdRng::seed_from_u64(case_seed ^ 0x5c41_0000_0000_00aa).gen_range(48..=192);
        let script = random_script(&case, case_seed ^ 1, len);
        log(&format!(
            "iter {i}: seed {case_seed:#018x}, {} cells, {} ops",
            case.netlist.num_cells(),
            script.len()
        ));
        if let Some(failure) = check_script(&case.arch, &case.netlist, case_seed, &script.ops) {
            log(&format!("iter {i}: FAIL: {failure}"));
            let (shrunk, repro_path) = shrink_and_save(
                &case,
                case_seed,
                &script.ops,
                &failure,
                cfg.corpus.as_ref(),
                &mut log,
            );
            report.failures.push(FuzzFailure {
                iteration: i,
                case_seed,
                failure,
                original_len: script.len(),
                shrunk,
                repro_path,
            });
        }
        if i.is_multiple_of(DETERMINISM_EVERY) {
            if let Err(f) = oracle::replica_determinism(&case.arch, &case.netlist, case_seed, 2) {
                log(&format!("iter {i}: FAIL: {f}"));
                report.failures.push(FuzzFailure {
                    iteration: i,
                    case_seed,
                    failure: f.to_string(),
                    original_len: 0,
                    shrunk: MoveScript::default(),
                    repro_path: None,
                });
            }
            // Scratch space only — never the corpus, which holds repros.
            let scratch = crash_window_scratch();
            let problem = build_problem(&case.arch, &case.netlist, case_seed);
            if let Ok(problem) = problem {
                if let Err(f) = oracle::checkpoint_crash_windows(
                    &case.arch,
                    &case.netlist,
                    &problem,
                    case_seed,
                    &scratch,
                ) {
                    log(&format!("iter {i}: FAIL: {f}"));
                    report.failures.push(FuzzFailure {
                        iteration: i,
                        case_seed,
                        failure: f.to_string(),
                        original_len: 0,
                        shrunk: MoveScript::default(),
                        repro_path: None,
                    });
                }
            }
        }
        report.ops_replayed += script.len() as u64;
        report.iterations += 1;
        i += 1;
    }
    report
}

/// Loads a repro from disk and re-runs the oracle suite over it.
/// Returns the reproduced failure description, or `None` when the repro no
/// longer fails (i.e. the bug is fixed).
///
/// # Errors
///
/// Returns a description when the repro files cannot be read or decoded.
pub fn replay_repro(path: &std::path::Path) -> Result<Option<String>, String> {
    let (repro, arch, netlist) = Repro::load(path)?;
    Ok(check_script(
        &arch,
        &netlist,
        repro.placement_seed,
        &repro.script.ops,
    ))
}

/// One planted-fault trial.
#[cfg(feature = "fault-inject")]
#[derive(Clone, Debug)]
pub struct FaultTrial {
    /// Debug rendering of the planted fault.
    pub fault: String,
    /// Whether the oracle suite flagged the corrupted run.
    pub detected: bool,
    /// The failure description (empty when undetected).
    pub failure: String,
    /// Script length including the fault op (0 for write faults, which
    /// carry no script).
    pub original_len: usize,
    /// Shrunk script length.
    pub shrunk_len: usize,
}

#[cfg(feature = "fault-inject")]
impl FaultTrial {
    /// Shrunk length as a fraction of the original (0 when no script).
    pub fn shrink_ratio(&self) -> f64 {
        if self.original_len == 0 {
            0.0
        } else {
            self.shrunk_len as f64 / self.original_len as f64
        }
    }
}

/// Planted-fault campaign summary.
#[cfg(feature = "fault-inject")]
#[derive(Clone, Debug, Default)]
pub struct FaultReport {
    /// One trial per fault kind.
    pub trials: Vec<FaultTrial>,
}

#[cfg(feature = "fault-inject")]
impl FaultReport {
    /// Whether every planted fault was detected.
    pub fn all_detected(&self) -> bool {
        self.trials.iter().all(|t| t.detected)
    }

    /// Worst shrink ratio across script-carrying trials.
    pub fn worst_shrink_ratio(&self) -> f64 {
        self.trials
            .iter()
            .map(FaultTrial::shrink_ratio)
            .fold(0.0, f64::max)
    }
}

/// Plants every state-corruption fault kind at the end of a random script
/// and proves the oracle suite detects each one and that the failure
/// shrinks; then exercises both checkpoint-write crash windows. This is
/// the harness's self-test: a fuzzer that cannot catch planted bugs cannot
/// be trusted to catch real ones.
#[cfg(feature = "fault-inject")]
pub fn run_fuzz_with_faults(cfg: &FuzzConfig, mut log: impl FnMut(&str)) -> FaultReport {
    use rowfpga_core::InjectedFault;

    const SCRIPT_LEN: usize = 64;
    let state_faults = [
        InjectedFault::RouteOwner { nth: 3 },
        InjectedFault::RouteRun { nth: 1 },
        InjectedFault::RouteCounter,
        InjectedFault::TimingWorst { delta_ps: 125.0 },
        InjectedFault::TimingArrival {
            cell: 5,
            delta_ps: 75.0,
        },
    ];
    let mut report = FaultReport::default();
    for (k, fault) in state_faults.iter().enumerate() {
        // Find a case where the fault actually lands (has something to
        // corrupt after the script replays). With >= 20 cells the initial
        // placement always routes something, so the first seed near-always
        // works; the retry loop keeps the trial deterministic regardless.
        let mut planted = None;
        for attempt in 0..8u64 {
            let case_seed = mix(cfg.seed, (k as u64) * 8 + attempt);
            let case = random_case(case_seed, &cfg.cells);
            let script = random_script(&case, case_seed ^ 1, SCRIPT_LEN);
            let mut probe = match build_problem(&case.arch, &case.netlist, case_seed) {
                Ok(p) => p,
                Err(_) => continue,
            };
            crate::script::replay(&mut probe, &script.ops);
            if probe.inject_fault(fault) {
                planted = Some((case, script, case_seed));
                break;
            }
        }
        let Some((case, mut script, case_seed)) = planted else {
            report.trials.push(FaultTrial {
                fault: format!("{fault:?}"),
                detected: false,
                failure: "fault found nothing to corrupt in 8 cases".into(),
                original_len: 0,
                shrunk_len: 0,
            });
            continue;
        };
        script.ops.push(ScriptOp::Fault(*fault));
        let failure = check_script(&case.arch, &case.netlist, case_seed, &script.ops);
        let detected = failure.is_some();
        let (shrunk_len, failure) = match failure {
            Some(f) => {
                log(&format!("{fault:?}: detected ({f})"));
                let (shrunk, _) = shrink_and_save(
                    &case,
                    case_seed,
                    &script.ops,
                    &f,
                    cfg.corpus.as_ref(),
                    &mut log,
                );
                (shrunk.len(), f)
            }
            None => {
                log(&format!("{fault:?}: NOT DETECTED"));
                (script.len(), String::new())
            }
        };
        report.trials.push(FaultTrial {
            fault: format!("{fault:?}"),
            detected,
            failure,
            original_len: script.len(),
            shrunk_len,
        });
    }

    // Checkpoint-write crash windows carry no move script; the oracle
    // drives both injected crashes and checks the recovery invariant.
    let case_seed = mix(cfg.seed, 0x77);
    let case = random_case(case_seed, &cfg.cells);
    let scratch = crash_window_scratch();
    let crash_result = build_problem(&case.arch, &case.netlist, case_seed)
        .map_err(|e| e.to_string())
        .and_then(|problem| {
            oracle::checkpoint_crash_windows(
                &case.arch,
                &case.netlist,
                &problem,
                case_seed,
                &scratch,
            )
            .map_err(|f| f.to_string())
        });
    for fault in ["CheckpointShortWrite", "CheckpointSkipRename"] {
        let trial = FaultTrial {
            fault: fault.to_string(),
            detected: crash_result.is_ok(),
            failure: crash_result.clone().err().unwrap_or_default(),
            original_len: 0,
            shrunk_len: 0,
        };
        log(&format!(
            "{fault}: {}",
            if trial.detected {
                "crash surfaced, last snapshot survived"
            } else {
                "RECOVERY VIOLATION"
            }
        ));
        report.trials.push(trial);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_clean_campaign_reports_no_failures() {
        let cfg = FuzzConfig {
            seed: 42,
            iters: Some(2),
            cells: CaseConfig {
                min_cells: 20,
                max_cells: 60,
            },
            ..FuzzConfig::default()
        };
        let mut lines = Vec::new();
        let report = run_fuzz(&cfg, |l| lines.push(l.to_string()));
        assert!(report.clean(), "unexpected failures: {:?}", report.failures);
        assert_eq!(report.iterations, 2);
        assert!(report.ops_replayed >= 96);
        assert!(!lines.is_empty());
    }

    #[test]
    fn replaying_a_saved_repro_reproduces_nothing_on_a_clean_engine() {
        // A repro whose script is legal but whose engine is healthy must
        // replay cleanly (used by triage to confirm a fix).
        let case = random_case(
            7,
            &CaseConfig {
                min_cells: 20,
                max_cells: 40,
            },
        );
        let script = random_script(&case, 8, 10);
        let repro = Repro {
            arch_file: "clean.arch".into(),
            netlist_file: "clean.net".into(),
            placement_seed: 7,
            script,
            failure: "none".into(),
            original_len: 10,
        };
        let dir = std::env::temp_dir().join(format!("rowfpga-replay-test-{}", std::process::id()));
        let path = repro
            .save(&dir, "clean", &case.arch, &case.netlist)
            .unwrap();
        assert_eq!(replay_repro(&path).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
