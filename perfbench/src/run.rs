//! The untraced run: the end-to-end metrics.
//!
//! Set-up is timed on its own, as the median of repeated warm in-process
//! builds. Then the workload's designs are laid out through the public
//! flow entry, pass after pass, until the run's time is spent (at least
//! [`MIN_PASSES`] passes); times are medians over passes, and every pass
//! must reproduce the first pass's layouts bit for bit.

use std::hint::black_box;
use std::time::Instant;

use rowfpga_arch::parse_architecture;
use rowfpga_baseline::{PlacerProblem, SequentialPlaceRoute};
use rowfpga_core::{LayoutProblem, LayoutResult, SimultaneousPlaceRoute};
use rowfpga_netlist::parse_netlist;

use crate::check::{check_layout, Quality, Tally};
use crate::fold;
use crate::inputs::{Design, FlowKind, Schedule, Workload};
use crate::report::{Metric, Report};
use crate::BenchError;

/// End-to-end metrics on the result line, in order.
pub const END_TO_END: &[&str] = &[
    "layout_s",
    "moves_per_s",
    "setup_s",
    "worst_delay_ps",
    "routed_nets_frac",
    "peak_rss_mib",
];

/// Passes every untraced run makes, however short its time: the second
/// pass checks that quality repeats exactly at the seed.
pub const MIN_PASSES: usize = 2;

/// Timed set-up rounds (after one untimed warm-up round).
pub const SETUP_ROUNDS: usize = 25;

/// Runs one design through its workload's public flow entry.
///
/// # Errors
///
/// Returns the flow's [`rowfpga_core::LayoutError`].
pub fn run_design(schedule: &Schedule, d: &Design, seed: u64) -> Result<LayoutResult, BenchError> {
    let cells = d.netlist.num_cells();
    let result = match schedule.flow {
        FlowKind::Simultaneous => {
            SimultaneousPlaceRoute::new(schedule.sim_config(cells, seed)).run(&d.arch, &d.netlist)
        }
        FlowKind::Sequential => {
            SequentialPlaceRoute::new(schedule.seq_config(cells, seed)).run(&d.arch, &d.netlist)
        }
    };
    Ok(result?)
}

/// One set-up of one design: parse the netlist text, parse the chip text,
/// build the annealing state.
///
/// # Errors
///
/// Returns [`BenchError::Input`] if a text does not parse and
/// [`BenchError::Layout`] if the problem cannot be built.
pub fn setup_design(schedule: &Schedule, d: &Design, seed: u64) -> Result<(), BenchError> {
    let netlist = parse_netlist(&d.netlist_text)
        .map_err(|e| BenchError::Input(format!("{} netlist: {e}", d.name)))?;
    let arch = parse_architecture(&d.arch_text)
        .map_err(|e| BenchError::Input(format!("{} chip: {e}", d.name)))?;
    let cells = netlist.num_cells();
    match schedule.flow {
        FlowKind::Simultaneous => {
            let c = schedule.sim_config(cells, seed);
            let p = LayoutProblem::new(&arch, &netlist, c.router, c.cost, c.move_weights, seed)?;
            black_box(&p);
        }
        FlowKind::Sequential => {
            let c = schedule.seq_config(cells, seed);
            let p = PlacerProblem::new(&arch, &netlist, c.placer, c.move_weights, seed)?;
            black_box(&p);
        }
    }
    Ok(())
}

/// Set-up time of the whole workload: the median over `rounds` warm
/// rounds of the round's summed per-design set-up time.
///
/// # Errors
///
/// Propagates [`setup_design`]'s errors.
pub fn measure_setup(w: &Workload, seed: u64, rounds: usize) -> Result<f64, BenchError> {
    for d in &w.designs {
        setup_design(&w.schedule, d, seed)?;
    }
    let mut sums = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut total = 0.0;
        for d in &w.designs {
            let t = Instant::now();
            setup_design(&w.schedule, d, seed)?;
            total += t.elapsed().as_secs_f64();
        }
        sums.push(total);
    }
    fold::median(&sums).ok_or_else(|| BenchError::Usage("no set-up rounds".into()))
}

/// The process's peak resident set (`VmHWM`) in MiB.
///
/// # Errors
///
/// Returns [`BenchError::Io`] when `/proc/self/status` cannot be read or
/// has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, BenchError> {
    let path = "/proc/self/status";
    let status = std::fs::read_to_string(path).map_err(|source| BenchError::Io {
        path: path.into(),
        source,
    })?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| BenchError::Io {
            path: path.into(),
            source: std::io::Error::other("no VmHWM line"),
        })
}

/// Quality metrics of one pass: geometric-mean worst delay, unrouted nets,
/// fully routed share, routed-net share. `None` entries are failed
/// operations; they count as attempted designs that did not route.
pub fn quality_metrics(qualities: &[Option<Quality>]) -> Vec<Metric> {
    let ok: Vec<&Quality> = qualities.iter().flatten().collect();
    let delays: Vec<f64> = ok.iter().map(|q| q.worst_delay).collect();
    let nets: usize = ok.iter().map(|q| q.nets).sum();
    let unrouted: usize = ok.iter().map(|q| q.unrouted).sum();
    let fully = ok.iter().filter(|q| q.fully_routed()).count();
    vec![
        Metric::new(
            "worst_delay_ps",
            fold::geomean(&delays).unwrap_or(0.0),
            "ps",
        ),
        Metric::new("unrouted_nets", unrouted as f64, "count"),
        Metric::new(
            "fully_routed_frac",
            fold::ratio(fully as f64, qualities.len() as f64),
            "frac",
        ),
        Metric::new(
            "routed_nets_frac",
            fold::ratio((nets - unrouted) as f64, nets as f64),
            "frac",
        ),
    ]
}

/// Splits measured metrics into the result line (in [`END_TO_END`] order)
/// and the rest.
fn split(all: Vec<Metric>, names: &[&str]) -> (Vec<Metric>, Vec<Metric>) {
    let (mut line, extra): (Vec<Metric>, Vec<Metric>) = all
        .into_iter()
        .partition(|m| names.contains(&m.name.as_str()));
    line.sort_by_key(|m| names.iter().position(|n| *n == m.name));
    (line, extra)
}

/// The untraced run of workload `w` at `seed`, measuring for at least
/// `seconds` seconds.
///
/// # Errors
///
/// Returns an error only when set-up itself fails; flow errors and check
/// failures are counted as failed operations.
pub fn run_untraced(w: &Workload, seed: u64, seconds: f64) -> Result<Report, BenchError> {
    let setup_s = measure_setup(w, seed, SETUP_ROUNDS)?;
    let mut tally = Tally::default();
    let mut layout_s = Vec::new();
    let mut moves_per_s = Vec::new();
    let mut first: Option<Vec<Option<Quality>>> = None;
    let mut repeats = true;
    let start = Instant::now();
    loop {
        let mut elapsed = 0.0;
        let mut moves = 0usize;
        let mut qualities = Vec::with_capacity(w.designs.len());
        for d in &w.designs {
            let t = Instant::now();
            let result = run_design(&w.schedule, d, seed);
            elapsed += t.elapsed().as_secs_f64();
            let checked = result
                .and_then(|r| check_layout(&d.arch, &d.netlist, &r).map_err(BenchError::Input));
            let q = tally.record(&format!("{} on {}", w.name, d.name), checked);
            moves += q.map_or(0, |q| q.moves);
            qualities.push(q);
        }
        layout_s.push(elapsed);
        moves_per_s.push(moves as f64 / elapsed);
        match &first {
            None => first = Some(qualities),
            Some(f) => {
                let same = f.len() == qualities.len()
                    && f.iter().zip(&qualities).all(|(a, b)| match (a, b) {
                        (Some(a), Some(b)) => a.same_bits(b),
                        _ => false,
                    });
                if !same {
                    eprintln!("perfbench: layout quality differs between passes at seed {seed}");
                    repeats = false;
                }
            }
        }
        if layout_s.len() >= MIN_PASSES && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let passes = layout_s.len();
    let mut all = vec![
        Metric::new("layout_s", fold::median(&layout_s).unwrap_or(0.0), "s"),
        Metric::new(
            "moves_per_s",
            fold::median(&moves_per_s).unwrap_or(0.0),
            "1/s",
        ),
        Metric::new("setup_s", setup_s, "s"),
    ];
    all.extend(quality_metrics(first.as_deref().unwrap_or(&[])));
    all.push(Metric::new("peak_rss_mib", peak_rss_mib()?, "MiB"));
    all.push(Metric::new("passes", passes as f64, "count"));
    let (metrics, extra) = split(all, END_TO_END);
    Ok(Report {
        correct: tally.failed == 0 && repeats,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        extra,
    })
}
