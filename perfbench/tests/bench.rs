//! The benchmark's own code on a ~40-cell generated design: every flow
//! path, the traced run and its self-checks, the output check, and the
//! pinned inputs and `BENCHMARK.json` it is declared by.

use std::path::Path;

use rowfpga_arch::{write_architecture, Architecture};
use rowfpga_netlist::{generate, write_netlist, GenerateConfig};
use rowfpga_obs::Json;
use rowfpga_perfbench::check::{check_layout, check_parts, Quality, Tally};
use rowfpga_perfbench::inputs::{load_workload, parse_schedule, Design, Workload, WORKLOADS};
use rowfpga_perfbench::probe::{probe_cascade, replay, LayerSample};
use rowfpga_perfbench::run::{quality_metrics, run_design, run_untraced, END_TO_END, MIN_PASSES};
use rowfpga_perfbench::trace::{run_traced, traced_sim, Boundary, Tracer};
use rowfpga_route::RoutingState;

/// Small schedules with the same keys as the pinned ones.
const SCHEDULES: &str = "
[sim]
flow simultaneous
moves_factor 0.5
warmup_moves 20
initial_acceptance 0.85
lambda 0.7
max_decrement 0.5
stall_temps 3
min_acceptance 0.02
max_temps 8
anneal_seed_offset 40503
wastage_weight 1
segment_weight 3
max_vchain 32
exchange_weight 0.85
pinmap_weight 0.15
final_repair_passes 6
cleanup_moves 300
global_emphasis 1.5
detail_emphasis 1
timing_emphasis 0.6

[seq]
flow sequential
moves_factor 0.5
warmup_moves 20
initial_acceptance 0.85
lambda 0.7
max_decrement 0.5
stall_temps 3
min_acceptance 0.02
max_temps 8
anneal_seed_offset 40503
wastage_weight 1
segment_weight 3
max_vchain 32
exchange_weight 0.85
pinmap_weight 0.15
route_passes 8
congestion_weight 0.02
timing_factor 2
vertical_weight 2
";

fn small_workload(schedule: &str, tracks: usize) -> Workload {
    let netlist = generate(&GenerateConfig {
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
        .tracks_per_channel(tracks)
        .build()
        .unwrap();
    let design = Design::from_texts(
        "small40",
        write_netlist(&netlist),
        write_architecture(&arch),
    )
    .unwrap();
    Workload {
        name: format!("{schedule}-t{tracks}"),
        schedule: parse_schedule(SCHEDULES, schedule).unwrap(),
        designs: vec![design],
    }
}

/// The roomy simultaneous path (`table1-sim`, `fig7-sim`), the tight one
/// where cleanup and final repair run (`table2-sim`), and the sequential
/// one (`seq-baseline`).
fn every_path() -> Vec<Workload> {
    vec![
        small_workload("sim", 14),
        small_workload("sim", 3),
        small_workload("seq", 14),
    ]
}

fn names(metrics: &[rowfpga_perfbench::report::Metric]) -> Vec<String> {
    metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn every_workload_path_runs_checked_and_repeatable() {
    for w in every_path() {
        let a = run_untraced(&w, 3, 0.0).unwrap();
        assert!(a.correct, "{}: {}", w.name, a.table());
        // One operation per design and pass; every run makes two passes.
        assert_eq!(
            (a.attempted, a.failed),
            (MIN_PASSES as u64, 0),
            "{}",
            w.name
        );
        assert_eq!(names(&a.metrics), END_TO_END, "{}", w.name);
        for m in &a.metrics {
            assert!(m.value > 0.0, "{}: {} reads {}", w.name, m.name, m.value);
        }
        // Quality is deterministic at a seed.
        let b = run_untraced(&w, 3, 0.0).unwrap();
        for name in ["worst_delay_ps", "routed_nets_frac", "unrouted_nets"] {
            assert_eq!(a.get(name), b.get(name), "{}: {name}", w.name);
        }
    }
}

#[test]
fn the_traced_run_reproduces_the_untraced_entry_and_the_probe_matches() {
    let mut reference: Option<Vec<String>> = None;
    for w in every_path() {
        let r = run_traced(&w, 5, 30, None).unwrap();
        assert!(r.correct, "{}: {}", w.name, r.table());
        assert_eq!(r.get("trace.mismatches"), Some(0.0), "{}", w.name);
        assert!(r.get("anneal.moves").unwrap() > 0.0);
        // Every workload reports the same per-layer names.
        let got = names(&r.metrics);
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "{}", w.name),
        }
        if w.name == "sim-t3" {
            assert!(r.get("core.cleanup_moves").unwrap() > 0.0, "cleanup ran");
            assert!(r.get("route.batch_s").unwrap() > 0.0, "final repair ran");
            assert!(r.get("core.move_ns.cold").unwrap() > 0.0);
        }
        if w.name == "seq-t14" {
            assert!(r.get("baseline.anneal_s").unwrap() > 0.0);
            assert!(r.get("place.propose_ns.hot").unwrap() > 0.0);
            assert_eq!(r.get("core.move_ns.hot"), Some(0.0));
        }
    }
}

#[test]
fn the_output_check_rejects_a_tampered_layout_and_counts_it_failed() {
    let w = small_workload("sim", 14);
    let d = &w.designs[0];
    let result = run_design(&w.schedule, d, 1).unwrap();
    assert!(check_layout(&d.arch, &d.netlist, &result).is_ok());

    // Clear one segment owner: drop a horizontal segment from a route.
    let mut routes = result.routing.export_routes();
    let run = routes
        .iter_mut()
        .flat_map(|r| r.hsegs.iter_mut())
        .find(|(_, segs)| !segs.is_empty())
        .expect("a routed design has horizontal segments");
    run.1.pop();
    let tampered = RoutingState::restore(&d.arch, &d.netlist, &routes).unwrap();
    let outcome = check_parts(
        &d.arch,
        &d.netlist,
        &result.placement,
        &tampered,
        result.worst_delay,
        result.incomplete,
        result.fully_routed,
    );
    assert!(outcome.is_err());
    let mut tally = Tally::default();
    assert!(tally.record("tampered layout", outcome).is_none());
    assert_eq!(
        tally,
        Tally {
            attempted: 1,
            failed: 1
        }
    );
}

#[test]
fn the_probe_check_fails_on_a_mismatched_move() {
    let w = small_workload("sim", 3);
    let d = &w.designs[0];
    let cfg = w.schedule.sim_config(d.netlist.num_cells(), 2);
    let traced = traced_sim(&mut Tracer::new(), &d.arch, &d.netlist, &cfg).unwrap();
    let Boundary::Layout(snap, temperature) = &traced.boundaries[traced.boundaries.len() / 2]
    else {
        panic!("the simultaneous flow keeps layout snapshots");
    };
    let (mut sample, mut moves) =
        probe_cascade(&d.arch, &d.netlist, &cfg, snap, *temperature, 40, 9).unwrap();
    replay(&d.arch, &d.netlist, &cfg, snap, &moves, &mut sample).unwrap();
    assert_eq!((sample.replayed, sample.mismatches), (40, 0));

    let other = moves.iter().position(|m| m.mv != moves[5].mv).unwrap();
    moves[5].mv = moves[other].mv;
    let mut bad = LayerSample::default();
    replay(&d.arch, &d.netlist, &cfg, snap, &moves, &mut bad).unwrap();
    assert!(bad.mismatches > 0);
}

#[test]
fn quality_folds_take_the_geometric_mean_and_sums() {
    let q = |worst_delay: f64, unrouted: usize| {
        Some(Quality {
            worst_delay,
            unrouted,
            nets: 100,
            moves: 1,
            digest: 0,
        })
    };
    let metrics = quality_metrics(&[q(100.0, 0), q(400.0, 10), None]);
    let get = |n: &str| metrics.iter().find(|m| m.name == n).unwrap().value;
    assert!((get("worst_delay_ps") - 200.0).abs() < 1e-9);
    assert_eq!(get("unrouted_nets"), 10.0);
    assert!((get("fully_routed_frac") - 1.0 / 3.0).abs() < 1e-12);
    assert_eq!(get("routed_nets_frac"), 0.95);
}

#[test]
fn pinned_inputs_match_their_manifest() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("inputs");
    for spec in WORKLOADS {
        let w = load_workload(&dir, spec.name).unwrap();
        assert_eq!(w.designs.len(), spec.designs.len());
    }
    assert!(load_workload(&dir, "no-such-workload").is_err());
}

#[test]
fn benchmark_json_declares_what_the_runs_report() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let doc = rowfpga_obs::json::parse(&text).unwrap();
    let declared = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    let workloads = declared("workloads");
    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, known);
    assert_eq!(declared("end_to_end"), END_TO_END);
    let w = small_workload("sim", 14);
    let traced = run_traced(&w, 1, 5, None).unwrap();
    assert_eq!(declared("per_layer"), names(&traced.metrics));
}
