//! End-to-end layout benchmark: full simultaneous place-and-route runs
//! (anneal → cleanup → final repair → STA) on MCNC-sized presets and the
//! mid-size synthetic design, at 1 and 2 annealing replicas, recording
//! wall clock and layout quality side by side.
//!
//! Emits `results/BENCH_e2e.json`. The interesting comparisons inside it:
//!
//! * wall clock across rows of the same design — the cost of running a
//!   second replica (bounded by ~1× when the two threads truly overlap);
//! * `worst_delay_ps` across the same rows — what the second replica and
//!   the exchange of best layouts buy in quality.
//!
//! Usage: `e2e [--quick] [--seed N] [--threads auto|N] [--out PATH]
//!              [--check PATH]`
//!
//! `--quick` switches to the smoke-effort annealing profile and drops the
//! largest design, for CI-speed runs.
//!
//! `--threads auto` (the default) benchmarks 1 replica, plus 2 replicas
//! only when the host actually has a second core — on a single-core host
//! a 2-replica row just measures time-slicing overhead and then trips the
//! throughput gate for no real regression. An explicit `--threads N`
//! benchmarks exactly that replica count.
//!
//! `--check PATH` reads a previously committed JSON at PATH *before*
//! overwriting anything and exits non-zero if, for any (design, threads)
//! pair present in both, the fresh run's move throughput
//! (`total_moves / wall_sec`) regressed by more than 20 %, or a design
//! that was fully routed no longer is. Rows are only compared when the
//! annealing profiles match (`--quick` vs full), so pointing the quick
//! smoke at a full-run artifact skips the gate instead of flagging noise.

#![allow(
    clippy::disallowed_methods,
    reason = "a benchmark times wall-clock runs by nature"
)]

use std::time::Instant;

use rowfpga_core::{size_architecture, SimPrConfig, SimultaneousPlaceRoute, SizingConfig};
use rowfpga_netlist::{generate, paper_preset, GenerateConfig, Netlist, PaperBenchmark};
use rowfpga_obs::json::{parse, Json};
use rowfpga_obs::Obs;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Same mid-size synthetic design as the move-throughput benchmark.
fn midsize() -> Netlist {
    generate(&GenerateConfig {
        num_cells: 300,
        num_inputs: 12,
        num_outputs: 12,
        num_seq: 10,
        seed: 42,
        ..GenerateConfig::default()
    })
}

struct Row {
    design: &'static str,
    cells: usize,
    nets: usize,
    threads: usize,
    wall_sec: f64,
    worst_delay_ps: f64,
    fully_routed: bool,
    incomplete: usize,
    temperatures: usize,
    total_moves: usize,
}

impl Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("design", Json::Str(self.design.into())),
            ("cells", Json::Num(self.cells as f64)),
            ("nets", Json::Num(self.nets as f64)),
            ("threads", Json::Num(self.threads as f64)),
            ("wall_sec", Json::Num(self.wall_sec)),
            ("worst_delay_ps", Json::Num(self.worst_delay_ps)),
            ("fully_routed", Json::Bool(self.fully_routed)),
            ("incomplete", Json::Num(self.incomplete as f64)),
            ("temperatures", Json::Num(self.temperatures as f64)),
            ("total_moves", Json::Num(self.total_moves as f64)),
        ])
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let out = arg_value(&args, "--out").unwrap_or_else(|| "results/BENCH_e2e.json".into());
    let baseline = arg_value(&args, "--check").map(|path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("--check {path}: {e}"));
        parse(&text).unwrap_or_else(|e| panic!("--check {path}: {e}"))
    });

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // `auto` skips the 2-replica rows on a single-core host, where they
    // would only measure time-slicing overhead (and then fail the
    // throughput gate against a multi-core baseline).
    let thread_counts: Vec<usize> = match arg_value(&args, "--threads").as_deref() {
        None | Some("auto") => {
            if host_cores >= 2 {
                vec![1, 2]
            } else {
                vec![1]
            }
        }
        Some(n) => vec![n.parse().unwrap_or_else(|_| {
            eprintln!("e2e: --threads {n}: expected a count or `auto`");
            std::process::exit(2);
        })],
    };

    let mut designs: Vec<(&'static str, Netlist)> = vec![
        ("cse", generate(&paper_preset(PaperBenchmark::Cse))),
        ("s1", generate(&paper_preset(PaperBenchmark::S1))),
    ];
    if !quick {
        designs.push(("midsize300", midsize()));
    }

    let mut rows: Vec<Row> = Vec::new();
    for (name, nl) in &designs {
        let arch = size_architecture(nl, &SizingConfig::default()).expect("preset fits sized chip");
        for &threads in &thread_counts {
            let base = if quick {
                SimPrConfig::fast()
            } else {
                SimPrConfig::default()
            };
            let mut cfg = base.with_seed(seed);
            cfg.threads = threads;
            let tool = SimultaneousPlaceRoute::new(cfg);
            let start = Instant::now();
            let result = tool
                .run_observed(&arch, nl, name, &Obs::disabled())
                .expect("benchmark design lays out");
            let wall = start.elapsed().as_secs_f64();
            println!(
                "{name:>10} threads={threads}  {wall:7.2}s  worst {:9.1} ps  routed={} \
                 ({} temps, {} moves)",
                result.worst_delay, result.fully_routed, result.temperatures, result.total_moves,
            );
            rows.push(Row {
                design: name,
                cells: nl.num_cells(),
                nets: nl.num_nets(),
                threads,
                wall_sec: wall,
                worst_delay_ps: result.worst_delay,
                fully_routed: result.fully_routed,
                incomplete: result.incomplete,
                temperatures: result.temperatures,
                total_moves: result.total_moves,
            });
        }
    }

    // Readers need host_cores to interpret the wall clocks: on a
    // single-core host, replicas time-slice and parallel rows measure
    // overhead plus the doubled move budget, not speedup.
    let json = Json::obj(vec![
        ("schema", Json::Str("bench.e2e/v1".into())),
        (
            "profile",
            Json::Str(if quick { "fast" } else { "default" }.into()),
        ),
        ("host_cores", Json::Num(host_cores as f64)),
        ("seed", Json::Num(seed as f64)),
        ("runs", Json::Arr(rows.iter().map(Row::to_json).collect())),
    ]);
    std::fs::write(&out, json.to_string_pretty() + "\n").expect("write JSON artifact");
    println!("wrote {out}");

    if let Some(base) = baseline {
        let profile = if quick { "fast" } else { "default" };
        let base_profile = base.get("profile").and_then(Json::as_str).unwrap_or("?");
        if base_profile != profile {
            println!(
                "e2e gate skipped: committed profile '{base_profile}' does not match \
                 this run's '{profile}'"
            );
            return;
        }
        let empty: Vec<Json> = Vec::new();
        let base_runs = base.get("runs").and_then(Json::as_arr).unwrap_or(&empty);
        let mut failed = false;
        for row in &rows {
            let Some(b) = base_runs.iter().find(|r| {
                r.get("design").and_then(Json::as_str) == Some(row.design)
                    && r.get("threads").and_then(Json::as_u64) == Some(row.threads as u64)
            }) else {
                continue;
            };
            let committed = match (
                b.get("total_moves").and_then(Json::as_f64),
                b.get("wall_sec").and_then(Json::as_f64),
            ) {
                (Some(moves), Some(wall)) if wall > 0.0 => moves / wall,
                _ => continue,
            };
            let fresh = row.total_moves as f64 / row.wall_sec;
            let floor = committed * 0.8;
            let tag = format!("{} threads={}", row.design, row.threads);
            if fresh < floor {
                eprintln!(
                    "FAIL: e2e {tag}: {fresh:.0} moves/sec regressed >20% vs committed \
                     {committed:.0} (floor {floor:.0})"
                );
                failed = true;
            } else {
                println!(
                    "e2e gate OK: {tag}: {fresh:.0} moves/sec vs committed {committed:.0} \
                     (floor {floor:.0})"
                );
            }
            if b.get("fully_routed").and_then(Json::as_bool) == Some(true) && !row.fully_routed {
                eprintln!("FAIL: e2e {tag}: design no longer fully routed");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
