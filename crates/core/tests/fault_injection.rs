//! Fault-injection suite: proves the self-audit detects every injected
//! corruption, that repair restores verifiable state, and that checkpoint
//! write crashes never lose the last complete snapshot.
//!
//! Compiled only with `--features fault-inject`.

#![cfg(feature = "fault-inject")]

use rowfpga_arch::Architecture;
use rowfpga_core::{
    CostConfig, FaultPlan, InjectedFault, LayoutProblem, SimPrConfig, SimultaneousPlaceRoute,
    StopReason,
};
use rowfpga_netlist::{generate, GenerateConfig, Netlist};
use rowfpga_place::MoveWeights;
use rowfpga_route::{verify_routing, RouterConfig};

fn fixture() -> (Architecture, Netlist) {
    let nl = generate(&GenerateConfig {
        num_cells: 40,
        num_inputs: 5,
        num_outputs: 5,
        num_seq: 3,
        ..GenerateConfig::default()
    });
    let arch = Architecture::builder()
        .rows(5)
        .cols(12)
        .io_columns(2)
        .tracks_per_channel(16)
        .build()
        .unwrap();
    (arch, nl)
}

fn problem<'a>(arch: &'a Architecture, nl: &'a Netlist) -> LayoutProblem<'a> {
    LayoutProblem::new(
        arch,
        nl,
        RouterConfig::default(),
        CostConfig::default(),
        MoveWeights::default(),
        42,
    )
    .unwrap()
}

/// Every state fault is caught by the audit, and the tiered rebuild
/// restores a state the audit (and the routing verifier) accept.
#[test]
fn audit_detects_and_repair_clears_every_state_fault() {
    let (arch, nl) = fixture();
    let state_faults = [
        (InjectedFault::RouteOwner { nth: 0 }, "routing"),
        (InjectedFault::RouteRun { nth: 1 }, "routing"),
        (InjectedFault::RouteCounter, "routing"),
        (InjectedFault::TimingWorst { delta_ps: 321.0 }, "timing"),
        (
            InjectedFault::TimingArrival {
                cell: 17,
                delta_ps: 250.0,
            },
            "timing",
        ),
    ];
    for (fault, scope) in state_faults {
        let mut p = problem(&arch, &nl);
        p.audit().expect("fresh state must audit clean");
        assert!(p.inject_fault(&fault), "{fault:?} found nothing to corrupt");
        let detail = p
            .audit()
            .expect_err(&format!("audit missed injected {fault:?}"));
        assert!(
            detail.starts_with(scope),
            "{fault:?} should be reported as a {scope} divergence, got: {detail}"
        );
        // Tiered repair: timing divergences need only the timing rebuild;
        // routing divergences need the full routing+timing rebuild.
        match scope {
            "timing" => p.rebuild_timing().unwrap(),
            _ => p.rebuild_routing().unwrap(),
        }
        p.audit()
            .unwrap_or_else(|e| panic!("repair did not clear {fault:?}: {e}"));
        verify_routing(p.routing(), &arch, &nl, p.placement()).unwrap();
    }
}

/// A timing-only rebuild cannot clear a routing corruption — the repair
/// tiering in the engine escalates for exactly this reason.
#[test]
fn timing_rebuild_does_not_mask_a_routing_fault() {
    let (arch, nl) = fixture();
    let mut p = problem(&arch, &nl);
    assert!(p.inject_fault(&InjectedFault::RouteOwner { nth: 0 }));
    p.rebuild_timing().unwrap();
    assert!(
        p.audit().is_err(),
        "a routing corruption must survive a timing-only rebuild"
    );
    p.rebuild_routing().unwrap();
    p.audit().unwrap();
}

/// End to end: a seeded fault plan corrupts the run mid-anneal, the audit
/// catches it, repair restores state, and the run converges with the
/// repair recorded in the result and the journal.
#[test]
fn faulted_run_self_repairs_and_converges() {
    use rowfpga_obs::{json, Event, Obs, RunJournal};

    let (arch, nl) = fixture();
    let journal = std::env::temp_dir().join("rowfpga_fault_run_journal.jsonl");
    let file = std::fs::File::create(&journal).unwrap();
    let obs = Obs::with_sink(Box::new(RunJournal::new(std::io::BufWriter::new(file))));

    let mut cfg = SimPrConfig::fast().with_seed(6);
    cfg.resilience.audit_every = 1;
    cfg.resilience.faults = Some(FaultPlan::new(vec![
        (2, InjectedFault::TimingWorst { delta_ps: 400.0 }),
        (4, InjectedFault::RouteCounter),
    ]));
    let result = SimultaneousPlaceRoute::new(cfg)
        .run_observed(&arch, &nl, "faulted", &obs)
        .unwrap();

    assert_eq!(result.stop_reason, StopReason::Repaired);
    assert_eq!(result.repairs, 2);
    verify_routing(&result.routing, &arch, &nl, &result.placement).unwrap();

    let text = std::fs::read_to_string(&journal).unwrap();
    let _ = std::fs::remove_file(&journal);
    let events: Vec<Event> = json::parse_lines(&text)
        .unwrap()
        .iter()
        .filter_map(Event::from_json)
        .collect();
    let failed_audits = events
        .iter()
        .filter(|e| matches!(e, Event::Audit { ok: false, .. }))
        .count();
    assert_eq!(failed_audits, 2, "both injected faults must be detected");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::Repair { ok: true, .. })),
        "at least one successful repair must be journaled"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::Stop { reason, .. } if reason == "repaired")),
        "the stop record must carry the repaired reason"
    );
}

/// The same plan with two replicas: each replica takes both faults and
/// audits and repairs itself on its own thread, the merged journal records
/// all four detections, and the run stays deterministic.
#[test]
fn two_replica_faulted_run_self_repairs_on_every_replica() {
    use rowfpga_obs::{json, Event, EventMeta, Obs, RingSink};

    let (arch, nl) = fixture();
    let run = || {
        let ring = RingSink::new(1 << 16);
        let obs = Obs::with_sink(Box::new(ring.clone()));
        let mut cfg = SimPrConfig::fast().with_seed(6);
        cfg.threads = 2;
        cfg.resilience.audit_every = 1;
        cfg.resilience.faults = Some(FaultPlan::new(vec![
            (2, InjectedFault::TimingWorst { delta_ps: 400.0 }),
            (4, InjectedFault::RouteCounter),
        ]));
        let result = SimultaneousPlaceRoute::new(cfg)
            .run_observed(&arch, &nl, "faulted-k2", &obs)
            .unwrap();
        (result, ring.snapshot())
    };
    let (a, lines) = run();
    assert_eq!(a.stop_reason, StopReason::Repaired);
    assert_eq!(a.repairs, 4, "two repairs on each replica");
    verify_routing(&a.routing, &arch, &nl, &a.placement).unwrap();

    let mut failed_audits = Vec::new();
    for line in &lines {
        let doc = json::parse(line).unwrap();
        if matches!(Event::from_json(&doc), Some(Event::Audit { ok: false, .. })) {
            failed_audits.push(EventMeta::from_json(&doc).replica);
        }
    }
    assert_eq!(
        failed_audits,
        [1, 2, 1, 2],
        "both replicas detect both faults, merged in replica order"
    );

    let (b, _) = run();
    assert_eq!(a.worst_delay.to_bits(), b.worst_delay.to_bits());
    assert_eq!(a.total_moves, b.total_moves);
    assert_eq!(a.routing.occupancy_digest(), b.routing.occupancy_digest());
    for (id, _) in nl.cells() {
        assert_eq!(a.placement.site_of(id), b.placement.site_of(id));
    }
}

/// A seeded plan is deterministic: two identical faulted runs agree.
#[test]
fn seeded_fault_runs_are_deterministic() {
    let (arch, nl) = fixture();
    let run = || {
        let mut cfg = SimPrConfig::fast().with_seed(8);
        cfg.resilience.audit_every = 1;
        cfg.resilience.faults = Some(FaultPlan::seeded(33, 2, 6));
        SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.repairs, b.repairs);
    assert_eq!(a.total_moves, b.total_moves);
    assert_eq!(a.worst_delay, b.worst_delay);
    for (id, _) in nl.cells() {
        assert_eq!(a.placement.site_of(id), b.placement.site_of(id));
    }
}

/// Checkpoint write crashes (short write, missed rename) are non-fatal:
/// the run keeps going and the real path always holds the last complete
/// snapshot, which still resumes.
#[test]
fn checkpoint_write_faults_keep_the_last_complete_snapshot() {
    use rowfpga_core::Checkpoint;
    use rowfpga_obs::{json, Event, Obs, RunJournal};

    let (arch, nl) = fixture();
    let ckpt = std::env::temp_dir().join("rowfpga_fault_ckpt.json");
    let journal = std::env::temp_dir().join("rowfpga_fault_ckpt_journal.jsonl");
    let _ = std::fs::remove_file(&ckpt);
    let file = std::fs::File::create(&journal).unwrap();
    let obs = Obs::with_sink(Box::new(RunJournal::new(std::io::BufWriter::new(file))));

    let mut cfg = SimPrConfig::fast().with_seed(5);
    cfg.resilience.checkpoint_path = Some(ckpt.clone());
    cfg.resilience.checkpoint_every = 1;
    cfg.resilience.temp_budget = Some(6);
    cfg.resilience.faults = Some(FaultPlan::new(vec![
        (2, InjectedFault::CheckpointShortWrite),
        (4, InjectedFault::CheckpointSkipRename),
    ]));
    let result = SimultaneousPlaceRoute::new(cfg)
        .run_observed(&arch, &nl, "ckpt-faults", &obs)
        .unwrap();
    assert_eq!(result.stop_reason, StopReason::Deadline);

    // The surviving file is the last complete snapshot and still resumes.
    let ck = Checkpoint::load(&ckpt).unwrap();
    assert_eq!(ck.temp, 6, "final checkpoint wins");
    let mut cfg = SimPrConfig::fast().with_seed(5);
    cfg.resilience.resume_path = Some(ckpt.clone());
    let resumed = SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap();
    assert_eq!(resumed.stop_reason, StopReason::Converged);

    let text = std::fs::read_to_string(&journal).unwrap();
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&ckpt);
    let events: Vec<Event> = json::parse_lines(&text)
        .unwrap()
        .iter()
        .filter_map(Event::from_json)
        .collect();
    let failed_writes = events
        .iter()
        .filter(|e| matches!(e, Event::Checkpoint { ok: false, .. }))
        .count();
    assert_eq!(failed_writes, 2, "both injected write crashes journaled");
    assert!(
        events
            .iter()
            .filter(|e| matches!(e, Event::Checkpoint { ok: true, .. }))
            .count()
            >= 4,
        "the un-faulted writes must succeed"
    );
}
