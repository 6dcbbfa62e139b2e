//! Move-evaluation throughput benchmark: times the full incremental move
//! cascade (propose → rip-up → global → detail → timing → commit/undo)
//! per move under a Metropolis acceptance rule at a fixed temperature, on
//! the mid-size synthetic design.
//!
//! Emits `results/BENCH_move_throughput.json` containing both the current
//! measurement and the pre-optimization baseline recorded when this
//! benchmark was introduced, so the speedup trajectory stays visible in
//! the repository.
//!
//! Usage: `move_throughput [--moves N] [--seed N] [--quick] [--out PATH]
//! [--check PATH]`
//!
//! `--check PATH` reads a previously committed JSON at PATH *before*
//! overwriting it and exits non-zero if the fresh run's move throughput
//! regressed by more than 20 % against it (the `scripts/check.sh` gate).
//! A PATH that does not read, parse, or hold `current.moves_per_sec`
//! exits 2 before anything runs, so the gate can never pass unchecked.

#![allow(
    clippy::disallowed_methods,
    reason = "a benchmark times wall-clock runs by nature"
)]

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rowfpga_anneal::AnnealProblem;
use rowfpga_core::{size_architecture, CostConfig, LayoutProblem, SizingConfig};
use rowfpga_netlist::{generate, GenerateConfig};
use rowfpga_obs::json::{parse, Json};
use rowfpga_place::MoveWeights;
use rowfpga_route::RouterConfig;

/// Pre-PR baseline, measured on the seed implementation (HashMap journal,
/// `BTreeSet` queues, per-commit `NetRoute` clones) at commit d31aebe with
/// the default 60k-move run on the 300-cell synthetic design. Kept in the
/// emitted JSON so the speedup against the original hot path stays on
/// record.
const BASELINE_PRE_PR: Measurement = Measurement {
    median_move_ns: 297_830.0,
    mean_move_ns: 301_978.4,
    p90_move_ns: 379_966.0,
    moves_per_sec: 3_310.0,
};

#[derive(Clone, Copy)]
struct Measurement {
    median_move_ns: f64,
    mean_move_ns: f64,
    p90_move_ns: f64,
    moves_per_sec: f64,
}

impl Measurement {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("median_move_ns", Json::Num(self.median_move_ns)),
            ("mean_move_ns", Json::Num(self.mean_move_ns)),
            ("p90_move_ns", Json::Num(self.p90_move_ns)),
            ("moves_per_sec", Json::Num(self.moves_per_sec)),
        ])
    }
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The committed throughput `--check PATH` compares against.
fn committed_throughput(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let json = parse(&text).map_err(|e| e.to_string())?;
    (json.get("current").and_then(|c| c.get("moves_per_sec")))
        .and_then(Json::as_f64)
        .ok_or_else(|| "no `current.moves_per_sec`".into())
}

/// The mid-size synthetic design: larger than the MCNC presets
/// (156–227 cells), smaller than the 529-cell Figure 7 design.
fn midsize_config() -> GenerateConfig {
    GenerateConfig {
        num_cells: 300,
        num_inputs: 12,
        num_outputs: 12,
        num_seq: 10,
        seed: 42,
        ..GenerateConfig::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let moves: usize = arg_value(&args, "--moves")
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick { 8_000 } else { 60_000 });
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let out = arg_value(&args, "--out");
    let check = arg_value(&args, "--check");

    let committed_moves_per_sec = check.map(|path| {
        committed_throughput(&path).unwrap_or_else(|e| {
            eprintln!("move_throughput: --check {path}: {e}");
            std::process::exit(2);
        })
    });

    let nl = generate(&midsize_config());
    let arch = size_architecture(&nl, &SizingConfig::default()).expect("sizing fits the preset");
    let mut problem = LayoutProblem::new(
        &arch,
        &nl,
        RouterConfig::default(),
        CostConfig::default(),
        MoveWeights::default(),
        seed,
    )
    .expect("synthetic design fits the sized chip");
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x9e37));

    // Warm up exactly like the annealer: a random walk that accepts every
    // move, deriving the temperature from the average uphill delta so the
    // measured acceptance mix is representative of early annealing.
    let warmup = 1_000.min(moves / 4).max(100);
    let mut uphill_sum = 0.0;
    let mut uphill_n = 0u32;
    for _ in 0..warmup {
        let (applied, delta) = problem.propose_and_apply(&mut rng);
        if delta > 0.0 {
            uphill_sum += delta;
            uphill_n += 1;
        }
        problem.commit(applied);
    }
    let temperature = if uphill_n > 0 {
        (uphill_sum / f64::from(uphill_n)) / (1.0f64 / 0.85).ln()
    } else {
        1.0
    };

    let mut samples: Vec<u64> = Vec::with_capacity(moves);
    let mut accepted = 0usize;
    let run_start = Instant::now();
    for _ in 0..moves {
        let t0 = Instant::now();
        let (applied, delta) = problem.propose_and_apply(&mut rng);
        let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp();
        if accept {
            problem.commit(applied);
            accepted += 1;
        } else {
            problem.undo(applied);
        }
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    let wall = run_start.elapsed();

    samples.sort_unstable();
    let median = samples[samples.len() / 2] as f64;
    let p90 = samples[samples.len() * 9 / 10] as f64;
    let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
    let moves_per_sec = moves as f64 / wall.as_secs_f64();
    let current = Measurement {
        median_move_ns: median,
        mean_move_ns: mean,
        p90_move_ns: p90,
        moves_per_sec,
    };

    println!(
        "move-eval throughput on {}-cell synthetic design:",
        nl.num_cells()
    );
    println!(
        "  moves measured    {moves} (acceptance {:.2})",
        accepted as f64 / moves as f64
    );
    println!("  median move       {median:.0} ns");
    println!("  mean move         {mean:.1} ns");
    println!("  p90 move          {p90:.0} ns");
    println!("  throughput        {moves_per_sec:.0} moves/sec");
    println!(
        "  speedup vs pre-PR {:.2}x (baseline median {:.0} ns)",
        BASELINE_PRE_PR.median_move_ns / median,
        BASELINE_PRE_PR.median_move_ns
    );

    let json = Json::obj(vec![
        ("schema", Json::Str("bench.move_throughput/v1".into())),
        (
            "design",
            Json::obj(vec![
                ("kind", Json::Str("synthetic-midsize".into())),
                ("cells", Json::Num(nl.num_cells() as f64)),
                ("nets", Json::Num(nl.num_nets() as f64)),
            ]),
        ),
        ("moves", Json::Num(moves as f64)),
        ("seed", Json::Num(seed as f64)),
        ("acceptance", Json::Num(accepted as f64 / moves as f64)),
        ("current", current.to_json()),
        ("baseline_pre_pr", BASELINE_PRE_PR.to_json()),
        (
            "speedup_vs_pre_pr",
            Json::Num(BASELINE_PRE_PR.median_move_ns / median),
        ),
    ]);
    if let Some(path) = out {
        std::fs::write(&path, json.to_string_pretty() + "\n").expect("write JSON artifact");
        println!("wrote {path}");
    }

    if let Some(committed) = committed_moves_per_sec {
        let floor = committed * 0.8;
        if moves_per_sec < floor {
            eprintln!(
                "FAIL: move throughput regressed >20%: {moves_per_sec:.0} moves/sec \
                 vs committed {committed:.0} (floor {floor:.0})"
            );
            std::process::exit(1);
        }
        println!(
            "throughput gate OK: {moves_per_sec:.0} moves/sec vs committed {committed:.0} \
             (floor {floor:.0})"
        );
    }
}
