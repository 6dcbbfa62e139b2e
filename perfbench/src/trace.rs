//! The traced run: the per-layer metrics.
//!
//! The traced flow goes through the same public calls the engine makes
//! — simultaneous flow: `LayoutProblem::new`, `Annealer::start`,
//! `Annealer::step` per temperature, the cleanup loop over
//! `propose_and_apply`/`commit`/`undo`, `route_batch`, `Sta::analyze`;
//! sequential flow: `PlacerProblem::new`, the `Annealer` on it,
//! `route_batch`, `Sta::analyze` — and wraps each call in a span named as
//! the run journal names that phase. Spans (name, start, end, parent,
//! design) stay in memory and are written when the run ends; a span's
//! self time is its duration minus its children's.
//!
//! Each design is also laid out once through the untraced entry, checked,
//! and compared with the traced flow: same total moves, same worst
//! delay bits, same occupancy digest. At the first, middle and last
//! temperature the traced flow keeps a snapshot; after the run the
//! [`probe`](crate::probe) times the cascade's layers from it, outside
//! every phase span, so the traced layout is untouched. Any mismatch
//! marks the per-layer numbers stale (`trace.mismatches` > 0); the
//! end-to-end numbers come from the untraced run and are not affected.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rowfpga_anneal::{AnnealProblem, Annealer, TemperatureStats};
use rowfpga_arch::{parse_architecture, Architecture};
use rowfpga_baseline::{PlacerProblem, SeqPrConfig};
use rowfpga_core::{LayoutError, LayoutProblem, ProblemSnapshot, SimPrConfig};
use rowfpga_netlist::{parse_netlist, Netlist};
use rowfpga_obs::Obs;
use rowfpga_place::Placement;
use rowfpga_route::{route_batch, RoutingState};
use rowfpga_timing::{Sta, TimingState};

use crate::check::{check_layout, Tally};
use crate::fold;
use crate::inputs::{Design, FlowKind, Workload};
use crate::probe::{probe_cascade, probe_placement, replay, LayerSample};
use crate::report::{Metric, Report};
use crate::run::{run_design, SETUP_ROUNDS};
use crate::BenchError;

/// Probe moves per temperature band and design.
pub const PROBE_MOVES: usize = 400;

/// The engine seeds its zero-temperature cleanup stream at the annealing
/// seed plus this offset (`SimultaneousPlaceRoute::run_with_stop`).
const CLEANUP_SEED_OFFSET: u64 = 0x51ea9;

/// Probe bands: first, middle and last temperature.
pub const BANDS: [&str; 3] = ["hot", "mid", "cold"];

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Phase name.
    pub name: &'static str,
    /// Index of the design it belongs to.
    pub design: usize,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    design: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            design: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the design later spans belong to.
    pub fn set_design(&mut self, design: usize) {
        self.design = design;
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            design: self.design,
            parent: self.open.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let now = self.now();
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Durations (s) of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 * 1e-9)
            .collect()
    }

    /// Total duration (s) of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        fold::sum(&self.durations(name))
    }

    /// Total duration (s) of top-level spans: the traced phase time.
    pub fn top_level_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.ns() as f64 * 1e-9)
            .sum()
    }

    /// Self time (ns) of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Writes every span as one JSON line:
    /// `{"name","design","parent","start_ns","end_ns","self_ns"}`.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Io`] if the file cannot be written.
    pub fn write_jsonl(&self, path: &Path, designs: &[String]) -> Result<(), BenchError> {
        let mut out = String::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"design\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                designs.get(s.design).map_or("", String::as_str),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                own
            );
        }
        let io = |source| BenchError::Io {
            path: path.display().to_string(),
            source,
        };
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(io)?;
        }
        std::fs::write(path, out).map_err(io)
    }
}

/// A temperature boundary kept for the probe.
#[derive(Clone, Debug)]
pub enum Boundary {
    /// Simultaneous flow: the layout snapshot and the temperature the next
    /// step runs at.
    Layout(Box<ProblemSnapshot>, f64),
    /// Sequential flow: the placer's placement.
    Placement(Box<Placement>),
}

/// What the traced flow recorded for one design.
#[derive(Clone, Debug, Default)]
pub struct TracedLayout {
    /// Annealing moves, warmup included.
    pub total_moves: usize,
    /// Per-temperature statistics.
    pub temps: Vec<TemperatureStats>,
    /// Boundaries before each temperature.
    pub boundaries: Vec<Boundary>,
    /// Cleanup moves attempted and accepted.
    pub cleanup: (usize, usize),
    /// Detailed failures of the final repair or batch route.
    pub batch_detail_failures: usize,
    /// Final worst delay (ps).
    pub worst_delay: f64,
    /// Final occupancy digest.
    pub digest: u64,
}

/// The simultaneous flow through its public calls, as
/// `SimultaneousPlaceRoute::run` makes them with the resilience layer off.
///
/// # Errors
///
/// Propagates the problem constructor's and the analysis's errors.
pub fn traced_sim(
    tr: &mut Tracer,
    arch: &Architecture,
    netlist: &Netlist,
    cfg: &SimPrConfig,
) -> Result<TracedLayout, BenchError> {
    let obs = Obs::disabled();
    let mut out = TracedLayout::default();
    let mut problem = tr.span("problem.new", || {
        LayoutProblem::new(
            arch,
            netlist,
            cfg.router,
            cfg.cost,
            cfg.move_weights,
            cfg.placement_seed,
        )
    })?;
    let mut annealer = tr.span("anneal.warmup", || {
        Annealer::start(&mut problem, &cfg.anneal, &obs)
    });
    while !annealer.finished() {
        let boundary =
            Boundary::Layout(Box::new(problem.snapshot()), annealer.cursor().temperature);
        let Some(stats) = tr.span("anneal.temperature", || annealer.step(&mut problem, &obs))
        else {
            break;
        };
        out.boundaries.push(boundary);
        out.temps.push(stats);
    }
    if problem.routing().incomplete() > 0 && cfg.cleanup_moves > 0 {
        out.cleanup = tr.span("cleanup", || {
            let mut rng = StdRng::seed_from_u64(cfg.anneal.seed.wrapping_add(CLEANUP_SEED_OFFSET));
            let (mut tried, mut kept) = (0, 0);
            for _ in 0..cfg.cleanup_moves {
                let (applied, delta) = problem.propose_and_apply(&mut rng);
                tried += 1;
                if delta <= 0.0 {
                    problem.commit(applied);
                    kept += 1;
                } else {
                    problem.undo(applied);
                }
                if problem.routing().incomplete() == 0 {
                    break;
                }
            }
            (tried, kept)
        });
    }
    let (placement, mut routing, _) = problem.into_parts();
    if !routing.is_fully_routed() && cfg.final_repair_passes > 0 {
        let repair = tr.span("final_repair", || {
            route_batch(
                &mut routing,
                arch,
                netlist,
                &placement,
                &cfg.router,
                cfg.final_repair_passes,
            )
        });
        out.batch_detail_failures = repair.detail_failures;
    }
    let sta = tr
        .span("final_sta", || {
            Sta::analyze(arch, netlist, &placement, &routing)
        })
        .map_err(LayoutError::CombLoop)?;
    out.total_moves = annealer.total_moves();
    out.worst_delay = sta.worst_delay();
    out.digest = routing.occupancy_digest();
    Ok(out)
}

/// The sequential flow through its public calls, as
/// `SequentialPlaceRoute::run` makes them.
///
/// # Errors
///
/// Propagates the problem constructor's and the analysis's errors.
pub fn traced_seq(
    tr: &mut Tracer,
    arch: &Architecture,
    netlist: &Netlist,
    cfg: &SeqPrConfig,
) -> Result<TracedLayout, BenchError> {
    let obs = Obs::disabled();
    let mut out = TracedLayout::default();
    let mut problem = tr.span("problem.new", || {
        PlacerProblem::new(
            arch,
            netlist,
            cfg.placer,
            cfg.move_weights,
            cfg.placement_seed,
        )
    })?;
    tr.begin("place.anneal");
    let mut annealer = tr.span("anneal.warmup", || {
        Annealer::start(&mut problem, &cfg.anneal, &obs)
    });
    while !annealer.finished() {
        let boundary = Boundary::Placement(Box::new(problem.placement().clone()));
        let Some(stats) = tr.span("anneal.temperature", || annealer.step(&mut problem, &obs))
        else {
            break;
        };
        out.boundaries.push(boundary);
        out.temps.push(stats);
    }
    tr.end();
    let placement = problem.into_placement();
    let mut routing = RoutingState::new(arch, netlist);
    let batch = tr.span("route.batch", || {
        route_batch(
            &mut routing,
            arch,
            netlist,
            &placement,
            &cfg.router,
            cfg.route_passes,
        )
    });
    out.batch_detail_failures = batch.detail_failures;
    let sta = tr
        .span("final_sta", || {
            Sta::analyze(arch, netlist, &placement, &routing)
        })
        .map_err(LayoutError::CombLoop)?;
    out.total_moves = annealer.total_moves();
    out.worst_delay = sta.worst_delay();
    out.digest = routing.occupancy_digest();
    Ok(out)
}

/// Per-design medians of the set-up layers, in the order
/// `netlist.parse_s`, `arch.parse_s`, `place.init_s`, `route.init_s`,
/// `timing.init_s`, `baseline.init_s`. The simultaneous set-up is
/// `LayoutProblem::new`'s own sequence of public calls: a random
/// placement, an initial incremental routing pass, a full timing
/// analysis.
///
/// # Errors
///
/// Returns [`BenchError::Input`] or [`BenchError::Layout`] when a step
/// fails.
pub fn setup_layers(
    w: &Workload,
    d: &Design,
    seed: u64,
    rounds: usize,
) -> Result<[f64; 6], BenchError> {
    let cells = d.netlist.num_cells();
    let mut samples: [Vec<f64>; 6] = Default::default();
    let input = |what: &str, e: String| BenchError::Input(format!("{} {what}: {e}", d.name));
    for round in 0..=rounds {
        let mut t = [0.0f64; 6];
        let clock = Instant::now();
        let netlist =
            parse_netlist(&d.netlist_text).map_err(|e| input("netlist", e.to_string()))?;
        t[0] = clock.elapsed().as_secs_f64();
        let clock = Instant::now();
        let arch = parse_architecture(&d.arch_text).map_err(|e| input("chip", e.to_string()))?;
        t[1] = clock.elapsed().as_secs_f64();
        let clock = Instant::now();
        let placement = Placement::random(&arch, &netlist, seed)
            .map_err(|e| input("placement", e.to_string()))?;
        t[2] = clock.elapsed().as_secs_f64();
        match w.schedule.flow {
            FlowKind::Simultaneous => {
                let c = w.schedule.sim_config(cells, seed);
                let clock = Instant::now();
                let mut routing = RoutingState::new(&arch, &netlist);
                routing.route_incremental(&arch, &netlist, &placement, &c.router);
                t[3] = clock.elapsed().as_secs_f64();
                let clock = Instant::now();
                let timing = TimingState::new(&arch, &netlist, &placement, &routing)
                    .map_err(|e| input("timing", e.to_string()))?;
                t[4] = clock.elapsed().as_secs_f64();
                std::hint::black_box(&timing);
            }
            FlowKind::Sequential => {
                let c = w.schedule.seq_config(cells, seed);
                let clock = Instant::now();
                let p = PlacerProblem::new(&arch, &netlist, c.placer, c.move_weights, seed)?;
                t[5] = clock.elapsed().as_secs_f64();
                std::hint::black_box(&p);
            }
        }
        // Round 0 warms caches and the allocator.
        if round > 0 {
            for (s, v) in samples.iter_mut().zip(t) {
                s.push(v);
            }
        }
    }
    Ok(samples.map(|s| fold::median(&s).unwrap_or(0.0)))
}

/// Boundary indices of the hot, middle and cold band for `n` temperatures.
pub fn band_indices(n: usize) -> Option<[usize; 3]> {
    (n > 0).then(|| [0, n / 2, n - 1])
}

/// Everything the per-layer fold needs.
#[derive(Debug, Default)]
struct Ledger {
    setup: [f64; 6],
    bands: [LayerSample; 3],
    band_temps: [(usize, usize); 3],
    temps: Vec<TemperatureStats>,
    total_moves: usize,
    cleanup: (usize, usize),
    batch_detail_failures: usize,
    untraced_s: f64,
    mismatches: u64,
}

/// The traced run of workload `w` at `seed`, with `probe_moves` probe moves
/// per band and design. Spans are written to `trace_out` when given.
///
/// # Errors
///
/// Returns an error when set-up fails or a snapshot does not rebuild;
/// flow errors and check failures are counted as failed operations.
pub fn run_traced(
    w: &Workload,
    seed: u64,
    probe_moves: usize,
    trace_out: Option<&Path>,
) -> Result<Report, BenchError> {
    let mut tr = Tracer::new();
    let mut tally = Tally::default();
    let mut ledger = Ledger::default();
    for (i, d) in w.designs.iter().enumerate() {
        for (sum, v) in ledger
            .setup
            .iter_mut()
            .zip(setup_layers(w, d, seed, SETUP_ROUNDS)?)
        {
            *sum += v;
        }
        let cells = d.netlist.num_cells();

        let clock = Instant::now();
        let result = run_design(&w.schedule, d, seed);
        ledger.untraced_s += clock.elapsed().as_secs_f64();
        let checked =
            result.and_then(|r| check_layout(&d.arch, &d.netlist, &r).map_err(BenchError::Input));
        let untraced = tally.record(&format!("{} on {}", w.name, d.name), checked);

        tr.set_design(i);
        let traced = match w.schedule.flow {
            FlowKind::Simultaneous => traced_sim(
                &mut tr,
                &d.arch,
                &d.netlist,
                &w.schedule.sim_config(cells, seed),
            )?,
            FlowKind::Sequential => traced_seq(
                &mut tr,
                &d.arch,
                &d.netlist,
                &w.schedule.seq_config(cells, seed),
            )?,
        };
        let same = untraced.is_some_and(|q| {
            q.moves == traced.total_moves
                && q.worst_delay.to_bits() == traced.worst_delay.to_bits()
                && q.digest == traced.digest
        });
        if !same {
            eprintln!(
                "perfbench: traced flow diverged from the untraced entry on {}",
                d.name
            );
            ledger.mismatches += 1;
        }

        if let Some(idx) = band_indices(traced.boundaries.len()) {
            for (b, &k) in idx.iter().enumerate() {
                let probe_seed = seed ^ ((i as u64) << 32 | b as u64);
                let sample = match &traced.boundaries[k] {
                    Boundary::Layout(snap, temperature) => {
                        let cfg = w.schedule.sim_config(cells, seed);
                        let (mut s, moves) = probe_cascade(
                            &d.arch,
                            &d.netlist,
                            &cfg,
                            snap,
                            *temperature,
                            probe_moves,
                            probe_seed,
                        )?;
                        replay(&d.arch, &d.netlist, &cfg, snap, &moves, &mut s)?;
                        s
                    }
                    Boundary::Placement(p) => {
                        let cfg = w.schedule.seq_config(cells, seed);
                        probe_placement(
                            &d.arch,
                            &d.netlist,
                            cfg.move_weights,
                            p,
                            probe_moves,
                            probe_seed,
                        )
                    }
                };
                ledger.mismatches += sample.mismatches;
                ledger.bands[b].add(&sample);
                let stats = traced.temps[k];
                ledger.band_temps[b].0 += stats.accepted;
                ledger.band_temps[b].1 += stats.moves;
            }
        }
        ledger.temps.extend(traced.temps.iter().copied());
        ledger.total_moves += traced.total_moves;
        ledger.cleanup.0 += traced.cleanup.0;
        ledger.cleanup.1 += traced.cleanup.1;
        ledger.batch_detail_failures += traced.batch_detail_failures;
    }
    if ledger.mismatches > 0 {
        eprintln!(
            "perfbench: {} mismatches; the per-layer numbers are stale",
            ledger.mismatches
        );
    }
    if let Some(path) = trace_out {
        let names: Vec<String> = w.designs.iter().map(|d| d.name.clone()).collect();
        tr.write_jsonl(path, &names)?;
    }
    let metrics = per_layer(&tr, &ledger, w.schedule.flow);
    Ok(Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        extra: Vec::new(),
    })
}

/// Folds the spans, probe samples and counts into the per-layer metrics.
fn per_layer(tr: &Tracer, l: &Ledger, flow: FlowKind) -> Vec<Metric> {
    let mut m = Vec::new();
    for (b, band) in BANDS.iter().enumerate() {
        let s = &l.bands[b];
        let n = s.moves as f64;
        let per = |v: u64| fold::ratio(v as f64, n);
        let rows: [(&str, f64, &'static str); 20] = [
            ("place.propose_ns", per(s.propose_ns), "ns"),
            ("place.apply_ns", per(s.apply_ns), "ns"),
            ("place.undo_ns", per(s.undo_ns), "ns"),
            ("route.ripup_ns", per(s.ripup_ns), "ns"),
            ("route.nets_ripped", per(s.nets_ripped), "nets/move"),
            ("route.global_ns", per(s.global_ns), "ns"),
            ("route.global_nets", per(s.global_nets), "nets/move"),
            ("route.detail_ns", per(s.detail_ns), "ns"),
            (
                "route.detail_assignments",
                per(s.detail_assignments),
                "1/move",
            ),
            ("route.detail_failures", per(s.detail_failures), "1/move"),
            (
                "route.detail_success_ratio",
                fold::ratio(
                    s.detail_assignments as f64,
                    (s.detail_assignments + s.detail_failures) as f64,
                ),
                "frac",
            ),
            ("route.commit_ns", per(s.route_commit_ns), "ns"),
            ("route.rollback_ns", per(s.route_rollback_ns), "ns"),
            ("timing.update_ns", per(s.update_ns), "ns"),
            ("timing.frontier_cells", per(s.frontier_cells), "cells/move"),
            ("timing.commit_ns", per(s.timing_commit_ns), "ns"),
            ("timing.rollback_ns", per(s.timing_rollback_ns), "ns"),
            (
                "anneal.accept_ratio",
                fold::ratio(l.band_temps[b].0 as f64, l.band_temps[b].1 as f64),
                "frac",
            ),
            (
                "core.move_ns",
                fold::ratio(s.engine_ns as f64, s.replayed as f64),
                "ns",
            ),
            (
                "probe.coverage",
                fold::ratio(s.cascade_ns() as f64, s.engine_ns as f64),
                "frac",
            ),
        ];
        for (name, value, unit) in rows {
            m.push(Metric::new(format!("{name}.{band}"), value, unit));
        }
    }

    let temp_moves: usize = l.temps.iter().map(|t| t.moves).sum();
    let temp_accepted: usize = l.temps.iter().map(|t| t.accepted).sum();
    let temp_ms: Vec<f64> = tr
        .durations("anneal.temperature")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    m.push(Metric::new(
        "anneal.warmup_s",
        tr.total_s("anneal.warmup"),
        "s",
    ));
    m.push(Metric::new(
        "anneal.temperature_s",
        tr.total_s("anneal.temperature"),
        "s",
    ));
    m.push(Metric::new(
        "anneal.temperature_p90_ms",
        fold::quantile(&temp_ms, 0.9).unwrap_or(0.0),
        "ms",
    ));
    m.push(Metric::new("anneal.temps", l.temps.len() as f64, "count"));
    m.push(Metric::new("anneal.moves", l.total_moves as f64, "count"));
    m.push(Metric::new(
        "anneal.accept_ratio",
        fold::ratio(temp_accepted as f64, temp_moves as f64),
        "frac",
    ));

    m.push(Metric::new("core.cleanup_s", tr.total_s("cleanup"), "s"));
    m.push(Metric::new(
        "core.cleanup_moves",
        l.cleanup.0 as f64,
        "count",
    ));
    m.push(Metric::new(
        "core.cleanup_accept_ratio",
        fold::ratio(l.cleanup.1 as f64, l.cleanup.0 as f64),
        "frac",
    ));

    let seq = flow == FlowKind::Sequential;
    let anneal_s = if seq { tr.total_s("place.anneal") } else { 0.0 };
    m.push(Metric::new("baseline.anneal_s", anneal_s, "s"));
    m.push(Metric::new(
        "baseline.move_ns",
        if seq {
            fold::ratio(anneal_s * 1e9, l.total_moves as f64)
        } else {
            0.0
        },
        "ns",
    ));
    m.push(Metric::new(
        "baseline.accept_ratio",
        if seq {
            fold::ratio(temp_accepted as f64, temp_moves as f64)
        } else {
            0.0
        },
        "frac",
    ));

    let setup_names = [
        "netlist.parse_s",
        "arch.parse_s",
        "place.init_s",
        "route.init_s",
        "timing.init_s",
        "baseline.init_s",
    ];
    for (name, v) in setup_names.iter().zip(l.setup) {
        m.push(Metric::new(*name, v, "s"));
    }

    m.push(Metric::new(
        "route.batch_s",
        tr.total_s("final_repair") + tr.total_s("route.batch"),
        "s",
    ));
    m.push(Metric::new(
        "route.batch_detail_failures",
        l.batch_detail_failures as f64,
        "count",
    ));
    m.push(Metric::new("timing.sta_s", tr.total_s("final_sta"), "s"));
    m.push(Metric::new(
        "trace.overhead_frac",
        fold::ratio(tr.top_level_s(), l.untraced_s) - 1.0,
        "frac",
    ));
    m.push(Metric::new(
        "trace.mismatches",
        l.mismatches as f64,
        "count",
    ));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        tr.begin("outer");
        tr.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.end();
        let own = tr.self_ns();
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(own[0], tr.spans[0].ns() - tr.spans[1].ns());
        assert_eq!(own[1], tr.spans[1].ns());
        assert_eq!(tr.top_level_s(), tr.spans[0].ns() as f64 * 1e-9);
    }

    #[test]
    fn bands_pick_first_middle_and_last() {
        assert_eq!(band_indices(0), None);
        assert_eq!(band_indices(1), Some([0, 0, 0]));
        assert_eq!(band_indices(7), Some([0, 3, 6]));
    }
}
