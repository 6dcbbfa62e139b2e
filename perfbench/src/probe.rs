//! The per-move layer probe.
//!
//! From a `LayoutProblem::snapshot` taken at a temperature boundary, the
//! probe rebuilds the layout's parts with `Placement::from_parts`,
//! `RoutingState::restore` and `TimingState::new`, then drives a fixed
//! number of moves through the layer calls in the engine's order —
//! `propose_in_window` → `apply` → `rip_up_cell` → `global_route_pass` →
//! `detail_route_pass` → `update_nets` → commit, or rollback plus
//! `Move::undo` — timing each call. Acceptance is the annealer's
//! Metropolis test at the boundary's temperature.
//!
//! A separate pass then replays the same moves through
//! `LayoutProblem::restore(..).apply_move` — the engine's own cascade —
//! and compares every move's cost delta, occupancy digest and worst delay
//! bit for bit. (Interleaving the two states move by move would inflate
//! both through cache pressure.) The replay's time per move is the
//! engine's own per-move time on the probe's moves.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rowfpga_anneal::AnnealProblem;
use rowfpga_arch::Architecture;
use rowfpga_core::{LayoutProblem, ProblemSnapshot, SimPrConfig};
use rowfpga_netlist::Netlist;
use rowfpga_place::{Move, MoveGenerator, MoveWeights, Placement};
use rowfpga_route::{detail_route_pass, global_route_pass, RoutingState};
use rowfpga_timing::TimingState;

use crate::BenchError;

/// One probe move and what the cascade made of it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeMove {
    /// The move.
    pub mv: Move,
    /// Whether the Metropolis test accepted it.
    pub accept: bool,
    /// Bits of the weighted cost delta.
    pub delta_bits: u64,
    /// Occupancy digest right after the cascade.
    pub digest: u64,
    /// Bits of the worst delay right after the cascade.
    pub worst_bits: u64,
}

/// Layer times (ns) and counts summed over probe moves.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerSample {
    /// Probe moves.
    pub moves: u64,
    /// Probe moves accepted.
    pub accepted: u64,
    /// `MoveGenerator::propose_in_window`.
    pub propose_ns: u64,
    /// `Move::apply`.
    pub apply_ns: u64,
    /// `RoutingState::begin_txn` and `rip_up_cell` per affected cell.
    pub ripup_ns: u64,
    /// `global_route_pass`.
    pub global_ns: u64,
    /// `detail_route_pass`.
    pub detail_ns: u64,
    /// `TimingState::begin_txn` and `update_nets`.
    pub update_ns: u64,
    /// `RoutingState::commit`.
    pub route_commit_ns: u64,
    /// `TimingState::commit`.
    pub timing_commit_ns: u64,
    /// `RoutingState::rollback`.
    pub route_rollback_ns: u64,
    /// `TimingState::rollback`.
    pub timing_rollback_ns: u64,
    /// `Move::undo`.
    pub undo_ns: u64,
    /// Nets ripped up.
    pub nets_ripped: u64,
    /// Nets given a global route.
    pub global_nets: u64,
    /// Detailed (net, channel) assignments made.
    pub detail_assignments: u64,
    /// Detailed track assignments that failed.
    pub detail_failures: u64,
    /// Cells on the timing frontier.
    pub frontier_cells: u64,
    /// Replayed moves.
    pub replayed: u64,
    /// Engine time over the replayed moves (`apply_move` plus commit or
    /// undo).
    pub engine_ns: u64,
    /// Replayed moves that did not match the probe.
    pub mismatches: u64,
}

impl LayerSample {
    /// Adds another sample's sums into this one.
    pub fn add(&mut self, o: &LayerSample) {
        self.moves += o.moves;
        self.accepted += o.accepted;
        self.propose_ns += o.propose_ns;
        self.apply_ns += o.apply_ns;
        self.ripup_ns += o.ripup_ns;
        self.global_ns += o.global_ns;
        self.detail_ns += o.detail_ns;
        self.update_ns += o.update_ns;
        self.route_commit_ns += o.route_commit_ns;
        self.timing_commit_ns += o.timing_commit_ns;
        self.route_rollback_ns += o.route_rollback_ns;
        self.timing_rollback_ns += o.timing_rollback_ns;
        self.undo_ns += o.undo_ns;
        self.nets_ripped += o.nets_ripped;
        self.global_nets += o.global_nets;
        self.detail_assignments += o.detail_assignments;
        self.detail_failures += o.detail_failures;
        self.frontier_cells += o.frontier_cells;
        self.replayed += o.replayed;
        self.engine_ns += o.engine_ns;
        self.mismatches += o.mismatches;
    }

    /// Layer time the engine's `apply_move` plus commit or undo covers:
    /// everything but the proposal.
    pub fn cascade_ns(&self) -> u64 {
        self.apply_ns
            + self.ripup_ns
            + self.global_ns
            + self.detail_ns
            + self.update_ns
            + self.route_commit_ns
            + self.timing_commit_ns
            + self.route_rollback_ns
            + self.timing_rollback_ns
            + self.undo_ns
    }
}

/// Nanoseconds since `*t`, restarting the clock.
fn lap(t: &mut Instant) -> u64 {
    let now = Instant::now();
    let ns = now.duration_since(*t).as_nanos() as u64;
    *t = now;
    ns
}

fn window(snap: &ProblemSnapshot, mover: &MoveGenerator) -> Option<usize> {
    (snap.window < mover.max_window()).then_some(snap.window)
}

/// Runs `moves` probe moves from `snap` at `temperature` through the layer
/// calls, returning the summed layer sample and the moves made.
///
/// # Errors
///
/// Returns [`BenchError::Input`] if the snapshot does not rebuild.
pub fn probe_cascade(
    arch: &Architecture,
    netlist: &Netlist,
    cfg: &SimPrConfig,
    snap: &ProblemSnapshot,
    temperature: f64,
    moves: usize,
    seed: u64,
) -> Result<(LayerSample, Vec<ProbeMove>), BenchError> {
    let rebuild = |what: &str, e: String| BenchError::Input(format!("probe {what}: {e}"));
    let mut placement = Placement::from_parts(arch, netlist, &snap.sites, &snap.pinmaps)
        .map_err(|e| rebuild("placement", e.to_string()))?;
    let mut routing = RoutingState::restore(arch, netlist, &snap.routes)
        .map_err(|e| rebuild("routing", e.to_string()))?;
    let mut timing = TimingState::new(arch, netlist, &placement, &routing)
        .map_err(|e| rebuild("timing", e.to_string()))?;
    let mover = MoveGenerator::new(arch, netlist, cfg.move_weights);
    let window = window(snap, &mover);
    let weights = snap.weights;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = LayerSample::default();
    let mut made = Vec::with_capacity(moves);
    for _ in 0..moves {
        let mut t = Instant::now();
        let mv = mover.propose_in_window(netlist, &placement, &mut rng, window);
        s.propose_ns += lap(&mut t);
        let (g0, d0, w0) = (
            routing.globally_unrouted(),
            routing.incomplete(),
            timing.worst(),
        );
        t = Instant::now();
        routing.begin_txn();
        s.ripup_ns += lap(&mut t);
        timing.begin_txn();
        s.update_ns += lap(&mut t);
        mv.apply(arch, netlist, &mut placement);
        s.apply_ns += lap(&mut t);
        for cell in mv.affected_cells(&placement) {
            routing.rip_up_cell(netlist, cell);
        }
        s.ripup_ns += lap(&mut t);
        // As the engine counts them: nets the rip-up sent back to `U_G`.
        s.nets_ripped += routing.globally_unrouted().saturating_sub(g0) as u64;
        t = Instant::now();
        let global = global_route_pass(&mut routing, arch, netlist, &placement, &cfg.router);
        s.global_ns += lap(&mut t);
        let detail = detail_route_pass(&mut routing, arch, &cfg.router);
        s.detail_ns += lap(&mut t);
        timing.update_nets(arch, netlist, &placement, &routing, routing.touched_nets());
        s.update_ns += lap(&mut t);

        let (g1, d1, w1) = (
            routing.globally_unrouted(),
            routing.incomplete(),
            timing.worst(),
        );
        let delta = weights.cost(g1, d1, w1) - weights.cost(g0, d0, w0);
        let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature).exp();
        let record = ProbeMove {
            mv,
            accept,
            delta_bits: delta.to_bits(),
            digest: routing.occupancy_digest(),
            worst_bits: w1.to_bits(),
        };
        s.global_nets += global as u64;
        s.detail_assignments += detail.routed as u64;
        s.detail_failures += detail.failures as u64;
        s.frontier_cells += timing.last_frontier() as u64;

        t = Instant::now();
        if accept {
            routing.commit();
            s.route_commit_ns += lap(&mut t);
            timing.commit();
            s.timing_commit_ns += lap(&mut t);
            s.accepted += 1;
        } else {
            routing.rollback();
            s.route_rollback_ns += lap(&mut t);
            timing.rollback();
            s.timing_rollback_ns += lap(&mut t);
            mv.undo(arch, netlist, &mut placement);
            s.undo_ns += lap(&mut t);
        }
        s.moves += 1;
        made.push(record);
    }
    Ok((s, made))
}

/// Replays `moves` from `snap` through `LayoutProblem::restore(..)
/// .apply_move`, committing or undoing each as the probe did, and adds
/// the engine's time and the mismatch count to `sample`.
///
/// # Errors
///
/// Returns [`BenchError::Layout`] if the snapshot does not restore.
pub fn replay(
    arch: &Architecture,
    netlist: &Netlist,
    cfg: &SimPrConfig,
    snap: &ProblemSnapshot,
    moves: &[ProbeMove],
    sample: &mut LayerSample,
) -> Result<(), BenchError> {
    let mut problem =
        LayoutProblem::restore(arch, netlist, cfg.router, cfg.cost, cfg.move_weights, snap)?;
    for pm in moves {
        let t = Instant::now();
        let (applied, delta) = problem.apply_move(pm.mv);
        let cascade = t.elapsed().as_nanos() as u64;
        let matches = delta.to_bits() == pm.delta_bits
            && problem.routing().occupancy_digest() == pm.digest
            && problem.timing().worst().to_bits() == pm.worst_bits;
        let t = Instant::now();
        if pm.accept {
            problem.commit(applied);
        } else {
            problem.undo(applied);
        }
        sample.engine_ns += cascade + t.elapsed().as_nanos() as u64;
        sample.replayed += 1;
        sample.mismatches += u64::from(!matches);
    }
    Ok(())
}

/// Placement-layer probe for the sequential flow, whose placer state is
/// not reachable from outside: `moves` proposals on a copy of the
/// placement, each applied and undone, timing `propose_in_window`
/// (unwindowed), `Move::apply` and `Move::undo`.
pub fn probe_placement(
    arch: &Architecture,
    netlist: &Netlist,
    weights: MoveWeights,
    placement: &Placement,
    moves: usize,
    seed: u64,
) -> LayerSample {
    let mut placement = placement.clone();
    let mover = MoveGenerator::new(arch, netlist, weights);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = LayerSample::default();
    for _ in 0..moves {
        let mut t = Instant::now();
        let mv = mover.propose_in_window(netlist, &placement, &mut rng, None);
        s.propose_ns += lap(&mut t);
        mv.apply(arch, netlist, &mut placement);
        s.apply_ns += lap(&mut t);
        mv.undo(arch, netlist, &mut placement);
        s.undo_ns += lap(&mut t);
        s.moves += 1;
    }
    s
}
