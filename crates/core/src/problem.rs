//! The simultaneous layout problem driven by the annealing engine.
//!
//! Each move follows the paper's cascade (§3.2–3.5):
//!
//! 1. perturb the placement (cell exchange / translation, or pinmap
//!    reassignment) — there are **no** moves that alter nets directly;
//! 2. rip up every net connected to the moved cells, freeing their
//!    vertical *and* horizontal segments;
//! 3. incremental global rerouting over `U_G`, longest net first;
//! 4. incremental detailed rerouting over each dirty channel's `U_D`;
//! 5. incremental worst-case delay recalculation over the frontier of
//!    affected cells;
//! 6. score `ΔCost = Wg·δG + Wd·δD + Wt·δT` and let the annealer accept or
//!    reject; rejection rolls back routing, timing and placement exactly.

use rand::rngs::StdRng;

use rowfpga_anneal::{AnnealProblem, ReplicaProblem, TemperatureStats};
use rowfpga_arch::Architecture;
use rowfpga_netlist::Netlist;
use rowfpga_obs::{DynamicsRecord, Event, Obs};
use rowfpga_place::{Move, MoveGenerator, MoveWeights, Placement};
use rowfpga_route::{RouterConfig, RoutingState};
use rowfpga_timing::TimingState;

use crate::cost::{CostConfig, CostWeights, DeltaStats};
use crate::dynamics::{DynamicsSample, DynamicsTrace};
use crate::engine::LayoutError;
use crate::snapshot::{CheckpointError, ProblemSnapshot};

/// Record of one applied layout move (what the annealer needs to commit or
/// undo it).
#[derive(Debug)]
pub struct AppliedLayoutMove {
    mv: Move,
}

/// The evolving layout state: placement, routing and timing, scored by the
/// weighted cost `Wg·G + Wd·D + Wt·T`.
#[derive(Debug)]
pub struct LayoutProblem<'a> {
    arch: &'a Architecture,
    netlist: &'a Netlist,
    placement: Placement,
    routing: RoutingState,
    timing: TimingState,
    mover: MoveGenerator,
    router_cfg: RouterConfig,
    cost_cfg: CostConfig,
    weights: CostWeights,
    deltas: DeltaStats,
    perturbed: Vec<bool>,
    trace: DynamicsTrace,
    /// Current exchange-window half-width (TimberWolf-style range limiting;
    /// shrinks as acceptance falls).
    window: usize,
    obs: Obs,
}

impl<'a> LayoutProblem<'a> {
    /// Creates the starting state: a random legal placement, one initial
    /// routing pass (many nets find some — possibly poor — embedding) and a
    /// full timing analysis.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the design does not fit the chip or has a
    /// combinational loop.
    pub fn new(
        arch: &'a Architecture,
        netlist: &'a Netlist,
        router_cfg: RouterConfig,
        cost_cfg: CostConfig,
        move_weights: MoveWeights,
        seed: u64,
    ) -> Result<LayoutProblem<'a>, LayoutError> {
        let placement = Placement::random(arch, netlist, seed).map_err(LayoutError::Placement)?;
        let mut routing = RoutingState::new(arch, netlist);
        routing.route_incremental(arch, netlist, &placement, &router_cfg);
        let timing =
            TimingState::new(arch, netlist, &placement, &routing).map_err(LayoutError::CombLoop)?;
        let weights = CostWeights::initial(&cost_cfg, timing.worst(), netlist.num_nets());
        let mover = MoveGenerator::new(arch, netlist, move_weights);
        Ok(LayoutProblem {
            arch,
            netlist,
            placement,
            routing,
            timing,
            mover,
            router_cfg,
            cost_cfg,
            weights,
            deltas: DeltaStats::default(),
            perturbed: vec![false; netlist.num_cells()],
            trace: DynamicsTrace::new(),
            window: usize::MAX,
            obs: Obs::disabled(),
        })
    }

    /// Attaches an observability handle: per-move counters and histograms
    /// (move classes, reroute cascade sizes, nets ripped, detail failures,
    /// STA frontier sizes) and one [`Event::Dynamics`] per temperature. A
    /// disabled handle (the default) keeps every hook a no-op.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The current placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The current routing state.
    pub fn routing(&self) -> &RoutingState {
        &self.routing
    }

    /// The current timing state.
    pub fn timing(&self) -> &TimingState {
        &self.timing
    }

    /// The current cost weights.
    pub fn weights(&self) -> CostWeights {
        self.weights
    }

    /// The dynamics recorded so far (one sample per completed temperature).
    pub fn trace(&self) -> &DynamicsTrace {
        &self.trace
    }

    /// Decomposes the problem into its final placement, routing and
    /// dynamics trace.
    pub fn into_parts(self) -> (Placement, RoutingState, DynamicsTrace) {
        (self.placement, self.routing, self.trace)
    }

    /// Exports the checkpointable state as plain data. Meant to be taken
    /// at a temperature boundary, where the per-temperature accumulators
    /// (delta statistics, perturbation flags) have just been reset and
    /// need not be stored.
    pub fn snapshot(&self) -> ProblemSnapshot {
        ProblemSnapshot {
            sites: self.placement.export_sites(),
            pinmaps: self.placement.export_pinmaps(),
            routes: self.routing.export_routes(),
            weights: self.weights,
            window: self.window,
            trace: self.trace.clone(),
        }
    }

    /// Reconstructs a problem from a [`ProblemSnapshot`]: placement and
    /// routing are rebuilt through their checked constructors, the
    /// restored routing is verified against the placement, and timing is
    /// re-derived from scratch (it is deterministic in the rest, so it is
    /// never stored).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::Placement`] or [`LayoutError::Checkpoint`]
    /// when the snapshot does not reconstruct a legal layout, and
    /// [`LayoutError::CombLoop`] if the netlist cannot be levelized.
    pub fn restore(
        arch: &'a Architecture,
        netlist: &'a Netlist,
        router_cfg: RouterConfig,
        cost_cfg: CostConfig,
        move_weights: MoveWeights,
        snap: &ProblemSnapshot,
    ) -> Result<LayoutProblem<'a>, LayoutError> {
        let placement = Placement::from_parts(arch, netlist, &snap.sites, &snap.pinmaps)
            .map_err(LayoutError::Placement)?;
        let routing = RoutingState::restore(arch, netlist, &snap.routes).map_err(|e| {
            LayoutError::Checkpoint(CheckpointError::Restore {
                detail: format!("routing: {e}"),
            })
        })?;
        rowfpga_route::verify_routing(&routing, arch, netlist, &placement).map_err(|e| {
            LayoutError::Checkpoint(CheckpointError::Restore {
                detail: format!("restored routing fails verification: {e}"),
            })
        })?;
        let timing =
            TimingState::new(arch, netlist, &placement, &routing).map_err(LayoutError::CombLoop)?;
        let mover = MoveGenerator::new(arch, netlist, move_weights);
        Ok(LayoutProblem {
            arch,
            netlist,
            placement,
            routing,
            timing,
            mover,
            router_cfg,
            cost_cfg,
            weights: snap.weights,
            deltas: DeltaStats::default(),
            perturbed: vec![false; netlist.num_cells()],
            trace: snap.trace.clone(),
            window: snap.window,
            obs: Obs::disabled(),
        })
    }

    /// Re-verifies the incremental state against ground truth: the
    /// routing invariants ([`verify_routing`]) and a from-scratch timing
    /// analysis compared to the incrementally tracked one (worst delay
    /// and every cell arrival, to 1e-6 ps).
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence found.
    ///
    /// [`verify_routing`]: rowfpga_route::verify_routing
    pub fn audit(&self) -> Result<(), String> {
        rowfpga_route::verify_routing(&self.routing, self.arch, self.netlist, &self.placement)
            .map_err(|e| format!("routing: {e}"))?;
        let oracle = TimingState::new(self.arch, self.netlist, &self.placement, &self.routing)
            .map_err(|e| format!("timing oracle: {e}"))?;
        if (oracle.worst() - self.timing.worst()).abs() > 1e-6 {
            return Err(format!(
                "timing: worst delay diverged (incremental {} vs oracle {})",
                self.timing.worst(),
                oracle.worst()
            ));
        }
        for (id, _) in self.netlist.cells() {
            let tracked = self.timing.arrival(id);
            let truth = oracle.arrival(id);
            if (truth - tracked).abs() > 1e-6 {
                return Err(format!(
                    "timing: arrival diverged at cell {} (incremental {tracked} vs oracle {truth})",
                    id.index()
                ));
            }
        }
        Ok(())
    }

    /// Repair tier 1: re-derive the timing state from scratch off the
    /// current placement and routing.
    ///
    /// # Errors
    ///
    /// Returns a description if the netlist cannot be levelized (which
    /// cannot happen mid-run: it was levelized at construction).
    pub fn rebuild_timing(&mut self) -> Result<(), String> {
        self.timing = TimingState::new(self.arch, self.netlist, &self.placement, &self.routing)
            .map_err(|e| format!("timing rebuild: {e}"))?;
        Ok(())
    }

    /// Repair tier 2: discard the routing entirely, re-route every net
    /// from scratch against the current placement, and re-derive timing.
    ///
    /// # Errors
    ///
    /// Returns a description if the subsequent timing rebuild fails.
    pub fn rebuild_routing(&mut self) -> Result<(), String> {
        let mut routing = RoutingState::new(self.arch, self.netlist);
        routing.route_incremental(self.arch, self.netlist, &self.placement, &self.router_cfg);
        self.routing = routing;
        self.rebuild_timing()
    }

    /// Applies one *specific* move through the full incremental cascade
    /// (perturb → rip up → global reroute → detail reroute → STA frontier)
    /// and returns the applied record plus the weighted cost delta, exactly
    /// as [`AnnealProblem::propose_and_apply`] would for the same move.
    ///
    /// This is the scripted-replay entry point used by differential fuzzing
    /// and delta-debugging: a recorded move sequence can be re-executed
    /// independently of any RNG state. The caller must still
    /// [`commit`](AnnealProblem::commit) or [`undo`](AnnealProblem::undo)
    /// the returned record; the transaction discipline is identical to the
    /// annealer's.
    pub fn apply_move(&mut self, mv: Move) -> (AppliedLayoutMove, f64) {
        self.run_cascade(mv)
    }

    /// The shared move cascade body (steps 2–6 of the paper's recipe).
    fn run_cascade(&mut self, mv: Move) -> (AppliedLayoutMove, f64) {
        let g0 = self.routing.globally_unrouted();
        let d0 = self.routing.incomplete();
        let t0 = self.timing.worst();

        self.routing.begin_txn();
        self.timing.begin_txn();
        mv.apply(self.arch, self.netlist, &mut self.placement);
        for cell in mv.affected_cells(&self.placement) {
            self.routing.rip_up_cell(self.netlist, cell);
        }
        let ripped = self.routing.globally_unrouted().saturating_sub(g0);
        let reroute = self.obs.span_quiet("reroute.incremental", || {
            self.routing.route_incremental(
                self.arch,
                self.netlist,
                &self.placement,
                &self.router_cfg,
            )
        });
        let changed = self.routing.touched_nets();
        self.obs.span_quiet("sta.delay_update", || {
            self.timing.update_nets(
                self.arch,
                self.netlist,
                &self.placement,
                &self.routing,
                changed,
            )
        });
        if self.obs.enabled() {
            self.obs.observe("move.nets_ripped", ripped as f64);
            self.obs
                .observe("reroute.cascade_nets", reroute.cascade_size() as f64);
            self.obs
                .add("route.detail_failures", reroute.detail_failures as u64);
            self.obs
                .observe("sta.frontier_cells", self.timing.last_frontier() as f64);
        }

        let g1 = self.routing.globally_unrouted();
        let d1 = self.routing.incomplete();
        let t1 = self.timing.worst();
        self.deltas
            .record(g1 as f64 - g0 as f64, d1 as f64 - d0 as f64, t1 - t0);
        let delta = self.weights.cost(g1, d1, t1) - self.weights.cost(g0, d0, t0);
        (AppliedLayoutMove { mv }, delta)
    }
}

#[cfg(feature = "fault-inject")]
impl LayoutProblem<'_> {
    /// Applies one injected state corruption through the routing and
    /// timing crates' fault hooks. Returns `false` when the fault found
    /// nothing to corrupt (e.g. no claimed segments yet).
    pub fn inject_fault(&mut self, fault: &crate::fault::InjectedFault) -> bool {
        use crate::fault::InjectedFault;
        match *fault {
            InjectedFault::RouteOwner { nth } => self.routing.fault_clear_hseg_owner(nth),
            InjectedFault::RouteRun { nth } => self.routing.fault_truncate_run(nth),
            InjectedFault::RouteCounter => {
                self.routing.fault_skew_incomplete();
                true
            }
            InjectedFault::TimingWorst { delta_ps } => {
                self.timing.fault_skew_worst(delta_ps);
                true
            }
            InjectedFault::TimingArrival { cell, delta_ps } => {
                self.timing.fault_skew_arrival(cell, delta_ps);
                true
            }
            InjectedFault::CheckpointShortWrite | InjectedFault::CheckpointSkipRename => false,
        }
    }
}

impl AnnealProblem for LayoutProblem<'_> {
    type Applied = AppliedLayoutMove;

    fn propose_and_apply(&mut self, rng: &mut StdRng) -> (AppliedLayoutMove, f64) {
        let window = (self.window < self.mover.max_window()).then_some(self.window);
        let mv = self
            .mover
            .propose_in_window(self.netlist, &self.placement, rng, window);
        if self.obs.enabled() {
            self.obs.inc(match &mv {
                Move::Exchange { .. } => "move.proposed.exchange",
                Move::Pinmap { .. } => "move.proposed.pinmap",
            });
        }
        self.run_cascade(mv)
    }

    fn undo(&mut self, applied: AppliedLayoutMove) {
        if self.obs.enabled() {
            self.obs.inc(match &applied.mv {
                Move::Exchange { .. } => "move.undone.exchange",
                Move::Pinmap { .. } => "move.undone.pinmap",
            });
        }
        self.routing.rollback();
        self.timing.rollback();
        applied
            .mv
            .undo(self.arch, self.netlist, &mut self.placement);
    }

    fn commit(&mut self, applied: AppliedLayoutMove) {
        if self.obs.enabled() {
            self.obs.inc(match &applied.mv {
                Move::Exchange { .. } => "move.committed.exchange",
                Move::Pinmap { .. } => "move.committed.pinmap",
            });
        }
        self.routing.commit();
        self.timing.commit();
        for cell in applied.mv.affected_cells(&self.placement) {
            self.perturbed[cell.index()] = true;
        }
    }

    fn cost(&self) -> f64 {
        self.weights.cost(
            self.routing.globally_unrouted(),
            self.routing.incomplete(),
            self.timing.worst(),
        )
    }

    fn on_temperature(&mut self, stats: &TemperatureStats) {
        let n_cells = self.netlist.num_cells().max(1) as f64;
        let n_nets = self.netlist.num_nets().max(1) as f64;
        let cells_perturbed = self.perturbed.iter().filter(|p| **p).count();
        self.trace.push(DynamicsSample {
            index: stats.index,
            temperature: stats.temperature,
            cells_perturbed: cells_perturbed as f64 / n_cells,
            nets_globally_unrouted: self.routing.globally_unrouted() as f64 / n_nets,
            nets_unrouted: self.routing.incomplete() as f64 / n_nets,
            worst_delay: self.timing.worst(),
            cost: self.cost(),
        });
        self.obs.emit(Event::Dynamics(DynamicsRecord {
            index: stats.index,
            temperature: stats.temperature,
            cells_perturbed,
            nets_globally_unrouted: self.routing.globally_unrouted(),
            nets_unrouted: self.routing.incomplete(),
            worst_delay: self.timing.worst(),
            cost: self.cost(),
        }));
        self.perturbed.fill(false);
        self.weights.adapt(&self.cost_cfg, &self.deltas);
        self.deltas.reset();
        // Range limiting: once acceptance falls below the classic 44%
        // target, shrink the exchange window so cold-regime moves become
        // local refinements (TimberWolf; the paper's §5 names this family
        // of annealing-core improvements as ongoing work).
        if stats.acceptance_ratio() < 0.44 {
            let current = self.window.min(self.mover.max_window());
            self.window = ((current as f64 * 0.85) as usize).max(2);
        }
    }
}

impl ReplicaProblem for LayoutProblem<'_> {
    type Snapshot = ProblemSnapshot;

    fn snapshot(&self) -> ProblemSnapshot {
        LayoutProblem::snapshot(self)
    }

    /// Replaces this replica's layout with `snapshot`: placement and
    /// routing are rebuilt through their checked constructors and timing
    /// is re-derived, exactly as [`LayoutProblem::restore`] does, but in
    /// place — the replica keeps its own dynamics trace and observability
    /// handle, resets its per-temperature accumulators, and takes over the
    /// donor's adaptive weights and exchange window so the annealing
    /// schedule stays coherent with the adopted layout.
    ///
    /// A snapshot taken from a live replica of the same problem always
    /// reconstructs; one that does not leaves this replica untouched and
    /// returns `false`.
    fn adopt(&mut self, snap: &ProblemSnapshot) -> bool {
        let (arch, netlist) = (self.arch, self.netlist);
        let Ok(placement) = Placement::from_parts(arch, netlist, &snap.sites, &snap.pinmaps) else {
            return false;
        };
        let Ok(routing) = RoutingState::restore(arch, netlist, &snap.routes) else {
            return false;
        };
        let Ok(timing) = TimingState::new(arch, netlist, &placement, &routing) else {
            return false;
        };
        self.placement = placement;
        self.routing = routing;
        self.timing = timing;
        self.weights = snap.weights;
        self.window = snap.window;
        self.deltas = DeltaStats::default();
        self.perturbed.fill(false);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rowfpga_netlist::{generate, GenerateConfig};
    use rowfpga_route::verify_routing;
    use rowfpga_timing::TimingState as Oracle;

    fn problem_fixture<'a>(arch: &'a Architecture, netlist: &'a Netlist) -> LayoutProblem<'a> {
        LayoutProblem::new(
            arch,
            netlist,
            RouterConfig::default(),
            CostConfig::default(),
            MoveWeights::default(),
            42,
        )
        .unwrap()
    }

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
            .tracks_per_channel(14)
            .build()
            .unwrap();
        (arch, nl)
    }

    #[test]
    fn moves_apply_and_roll_back_the_whole_state() {
        let (arch, nl) = fixture();
        let mut p = problem_fixture(&arch, &nl);
        let cost0 = p.cost();
        let sites0: Vec<_> = nl
            .cells()
            .map(|(id, _)| p.placement().site_of(id))
            .collect();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let (applied, _) = p.propose_and_apply(&mut rng);
            p.undo(applied);
        }
        assert_eq!(p.cost(), cost0);
        for (i, (id, _)) in nl.cells().enumerate() {
            assert_eq!(p.placement().site_of(id), sites0[i]);
        }
        verify_routing(p.routing(), &arch, &nl, p.placement()).unwrap();
        // timing agrees with a from-scratch oracle
        let oracle = Oracle::new(&arch, &nl, p.placement(), p.routing()).unwrap();
        assert!((p.timing().worst() - oracle.worst()).abs() < 1e-6);
    }

    #[test]
    fn committed_moves_keep_state_consistent() {
        let (arch, nl) = fixture();
        let mut p = problem_fixture(&arch, &nl);
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..200 {
            let (applied, delta) = p.propose_and_apply(&mut rng);
            if delta <= 0.0 || i % 3 == 0 {
                p.commit(applied);
            } else {
                p.undo(applied);
            }
        }
        verify_routing(p.routing(), &arch, &nl, p.placement()).unwrap();
        let oracle = Oracle::new(&arch, &nl, p.placement(), p.routing()).unwrap();
        assert!(
            (p.timing().worst() - oracle.worst()).abs() < 1e-6,
            "incremental timing diverged: {} vs {}",
            p.timing().worst(),
            oracle.worst()
        );
        assert!(p.placement().check_invariants(&arch, &nl));
    }

    #[test]
    fn cost_reflects_weighted_components() {
        let (arch, nl) = fixture();
        let p = problem_fixture(&arch, &nl);
        let w = p.weights();
        let expect = w.cost(
            p.routing().globally_unrouted(),
            p.routing().incomplete(),
            p.timing().worst(),
        );
        assert_eq!(p.cost(), expect);
    }

    #[test]
    fn on_temperature_records_dynamics_and_resets_counters() {
        let (arch, nl) = fixture();
        let mut p = problem_fixture(&arch, &nl);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let (applied, _) = p.propose_and_apply(&mut rng);
            p.commit(applied);
        }
        let stats = TemperatureStats {
            index: 0,
            temperature: 5.0,
            moves: 50,
            accepted: 50,
            mean_cost: p.cost(),
            std_cost: 1.0,
            current_cost: p.cost(),
            best_cost: p.cost(),
        };
        p.on_temperature(&stats);
        assert_eq!(p.trace().len(), 1);
        let s = p.trace().samples()[0];
        assert!(s.cells_perturbed > 0.0);
        assert!(s.nets_unrouted >= s.nets_globally_unrouted);
        // second temperature with no accepted moves records zero
        p.on_temperature(&TemperatureStats { index: 1, ..stats });
        assert_eq!(p.trace().samples()[1].cells_perturbed, 0.0);
    }

    #[test]
    fn adopt_takes_a_donor_layout_and_refuses_one_that_does_not_rebuild() {
        let (arch, nl) = fixture();
        let mut p = problem_fixture(&arch, &nl);
        let donor = LayoutProblem::new(
            &arch,
            &nl,
            RouterConfig::default(),
            CostConfig::default(),
            MoveWeights::default(),
            7,
        )
        .unwrap();
        let mut broken = donor.snapshot();
        broken.sites.truncate(1);
        let before = p.snapshot();
        assert!(!ReplicaProblem::adopt(&mut p, &broken));
        assert_eq!(p.snapshot(), before, "a refused snapshot changes nothing");

        assert!(ReplicaProblem::adopt(&mut p, &donor.snapshot()));
        assert_eq!(
            p.placement().export_sites(),
            donor.placement().export_sites()
        );
        verify_routing(p.routing(), &arch, &nl, p.placement()).unwrap();
        assert_eq!(p.cost(), donor.cost());
    }
}
