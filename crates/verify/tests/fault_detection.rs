//! Planted-fault detection: the fuzzing harness must catch 100% of the
//! corruption kinds the engine's `fault-inject` hooks can introduce, and
//! every script-carrying failure must shrink to at most a quarter of the
//! original move sequence.
//!
//! This is the harness's own end-to-end proof: a fuzzer that cannot catch
//! planted bugs cannot be trusted to catch real ones.

#![cfg(feature = "fault-inject")]

use rowfpga_verify::harness::{run_fuzz_with_faults, FuzzConfig};
use rowfpga_verify::{check_script, random_case, replay_repro, CaseConfig, Repro, ScriptOp};

fn fault_config(corpus: Option<std::path::PathBuf>) -> FuzzConfig {
    FuzzConfig {
        seed: 0xfau64 << 8,
        corpus,
        cells: CaseConfig {
            min_cells: 20,
            max_cells: 80,
        },
        ..FuzzConfig::default()
    }
}

#[test]
fn every_injected_fault_is_detected_and_shrinks() {
    let report = run_fuzz_with_faults(&fault_config(None), |_| {});
    // All five state-corruption kinds plus both checkpoint crash windows.
    assert_eq!(report.trials.len(), 7);
    for trial in &report.trials {
        assert!(
            trial.detected,
            "planted fault escaped the oracles: {} ({})",
            trial.fault, trial.failure
        );
    }
    for trial in report.trials.iter().filter(|t| t.original_len > 0) {
        assert!(
            trial.shrink_ratio() <= 0.25,
            "{}: shrunk {} of {} ops ({:.0}%), above the 25% bound",
            trial.fault,
            trial.shrunk_len,
            trial.original_len,
            100.0 * trial.shrink_ratio()
        );
    }
    assert!(report.all_detected());
    assert!(report.worst_shrink_ratio() <= 0.25);
}

#[test]
fn shrunk_fault_repros_replay_from_disk() {
    let dir = std::env::temp_dir().join(format!("rowfpga-fault-repro-{}", std::process::id()));
    let report = run_fuzz_with_faults(&fault_config(Some(dir.clone())), |_| {});
    // Each state-fault trial wrote a shrunk repro; loading and
    // replaying any of them must reproduce a failure.
    let mut replayed = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let reproduced =
                replay_repro(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(
                reproduced.is_some(),
                "{}: repro no longer fails",
                path.display()
            );
            replayed += 1;
        }
    }
    assert_eq!(
        replayed,
        report.trials.iter().filter(|t| t.original_len > 0).count(),
        "one repro per script-carrying trial"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_fault_only_script_still_fails_and_a_clean_one_does_not() {
    // The 1-minimal end state of shrinking: the fault op alone must still
    // trip the oracles, and the same script without it must not.
    use rowfpga_core::InjectedFault;
    let case = random_case(
        21,
        &CaseConfig {
            min_cells: 20,
            max_cells: 60,
        },
    );
    let fault_only = [ScriptOp::Fault(InjectedFault::TimingWorst {
        delta_ps: 200.0,
    })];
    assert!(check_script(&case.arch, &case.netlist, 21, &fault_only).is_some());
    assert!(check_script(&case.arch, &case.netlist, 21, &[]).is_none());
}

#[test]
fn repros_with_fault_ops_round_trip_through_json() {
    use rowfpga_core::InjectedFault;
    let script = rowfpga_verify::MoveScript {
        ops: vec![
            ScriptOp::Exchange {
                a: 1,
                b: 2,
                accept: true,
            },
            ScriptOp::Fault(InjectedFault::RouteOwner { nth: 3 }),
            ScriptOp::Fault(InjectedFault::TimingArrival {
                cell: 4,
                delta_ps: 62.5,
            }),
            ScriptOp::Fault(InjectedFault::CheckpointShortWrite),
        ],
    };
    let repro = Repro {
        arch_file: "f.arch".into(),
        netlist_file: "f.net".into(),
        placement_seed: 5,
        script: script.clone(),
        failure: "planted".into(),
        original_len: 4,
    };
    let back = Repro::from_json(&repro.to_json()).unwrap();
    assert_eq!(back.script, script);
    assert_eq!(back, repro);
}
