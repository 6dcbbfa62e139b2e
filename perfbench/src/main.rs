//! `perfbench` — the rowfpga layout benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench pin-inputs
//! ```
//!
//! Run from the repository root: the inputs are read from
//! `perfbench/inputs`. The metrics table goes to standard error and the
//! one-line JSON result is the last line of standard output. A traced run
//! writes its spans under `$CARGO_TARGET_DIR/perfbench-trace/` (or
//! `.bench_build/perfbench-trace/`). Exit status: 0 with a result, 2 on
//! bad arguments or refused inputs (no result printed).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rowfpga_perfbench::inputs::{load_workload, pin_inputs, DEFAULT_DIR};
use rowfpga_perfbench::run::run_untraced;
use rowfpga_perfbench::trace::{run_traced, PROBE_MOVES};
use rowfpga_perfbench::BenchError;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, BenchError> {
    let usage = |m: &str| BenchError::Usage(m.to_string());
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| usage(&format!("{flag} needs a value")))?;
        let num = |what: &str| usage(&format!("{flag}: `{value}` is not {what}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| num("a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| num("a duration"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(num("a duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(num("0 or 1")),
                })
            }
            other => return Err(usage(&format!("unknown flag {other}"))),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| usage("--workload is required"))?,
        seed: seed.ok_or_else(|| usage("--seed is required"))?,
        seconds: seconds.ok_or_else(|| usage("--seconds is required"))?,
        trace: trace.ok_or_else(|| usage("--trace is required"))?,
    })
}

fn trace_out(workload: &str, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    target
        .join("perfbench-trace")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

fn run(argv: &[String]) -> Result<(), BenchError> {
    let inputs = Path::new(DEFAULT_DIR);
    if argv == ["pin-inputs"] {
        return pin_inputs(inputs);
    }
    let args = parse_args(argv)?;
    let workload = load_workload(inputs, &args.workload)?;
    let report = if args.trace {
        let out = trace_out(&args.workload, args.seed);
        run_traced(&workload, args.seed, PROBE_MOVES, Some(&out))?
    } else {
        run_untraced(&workload, args.seed, args.seconds)?
    };
    eprint!("{} seed {}: {}", args.workload, args.seed, report.table());
    println!("{}", report.json_line());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
