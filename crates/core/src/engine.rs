//! Top-level simultaneous place-and-route driver.

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rowfpga_anneal::{
    anneal_replicas, replica_seed, AnnealConfig, AnnealCursor, Annealer, ReplicaHooks,
    ReplicaStatus, Verdict,
};
use rowfpga_arch::Architecture;
use rowfpga_netlist::{CombLoopError, Netlist};
use rowfpga_obs::{Event, Json, Obs, RerouteRecord};
use rowfpga_place::{CreatePlacementError, MoveWeights, Placement};
use rowfpga_route::{route_batch_observed, RouterConfig, RoutingState};
use rowfpga_timing::{CriticalPath, Sta};

use crate::cost::CostConfig;
use crate::dynamics::DynamicsTrace;
#[cfg(feature = "fault-inject")]
use crate::fault::FaultPlan;
use crate::problem::LayoutProblem;
use crate::snapshot::{
    arch_fingerprint, netlist_fingerprint, BestLayout, Checkpoint, CheckpointError,
    ProblemSnapshot, WriteFault, CHECKPOINT_VERSION,
};

/// Errors the layout engines can raise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayoutError {
    /// The design does not fit the chip.
    Placement(CreatePlacementError),
    /// The design has a combinational loop; timing is undefined.
    CombLoop(CombLoopError),
    /// Checkpoint I/O, decoding or validation failed.
    Checkpoint(CheckpointError),
    /// The self-audit found a divergence that bounded repair could not
    /// clear (repair rebuilds from ground truth, so this indicates a bug
    /// or active corruption, not a recoverable condition).
    Audit {
        /// The divergence that survived every repair attempt.
        detail: String,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::Placement(e) => write!(f, "placement failed: {e}"),
            LayoutError::CombLoop(e) => write!(f, "timing undefined: {e}"),
            LayoutError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
            LayoutError::Audit { detail } => write!(f, "unrepairable state divergence: {detail}"),
        }
    }
}

impl Error for LayoutError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LayoutError::Placement(e) => Some(e),
            LayoutError::CombLoop(e) => Some(e),
            LayoutError::Checkpoint(e) => Some(e),
            LayoutError::Audit { .. } => None,
        }
    }
}

/// Why a layout run returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The annealing schedule terminated normally.
    Converged,
    /// The wall-clock or temperature budget expired; the result is the
    /// best layout reached by then.
    Deadline,
    /// A stop was requested (e.g. SIGINT); the result is the best layout
    /// reached by then.
    Interrupted,
    /// The schedule converged, but only after at least one audit-triggered
    /// state repair along the way.
    Repaired,
}

impl StopReason {
    /// The journal spelling of the reason.
    pub fn as_str(&self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::Deadline => "deadline",
            StopReason::Interrupted => "interrupted",
            StopReason::Repaired => "repaired",
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A cooperative stop request, checked between temperature steps: the
/// current temperature always finishes, then the run writes its final
/// checkpoint and returns with [`StopReason::Interrupted`].
///
/// Cloning shares the flag; [`StopFlag::watching`] additionally observes a
/// `'static` atomic (the shape a signal handler can set).
#[derive(Clone, Debug)]
pub struct StopFlag {
    local: Arc<AtomicBool>,
    external: Option<&'static AtomicBool>,
    armed: bool,
}

impl StopFlag {
    /// A flag that can never fire — the zero-overhead default of
    /// [`SimultaneousPlaceRoute::run`].
    pub fn none() -> StopFlag {
        StopFlag {
            local: Arc::new(AtomicBool::new(false)),
            external: None,
            armed: false,
        }
    }

    /// A flag fired by calling [`StopFlag::request_stop`] on any clone.
    pub fn manual() -> StopFlag {
        StopFlag {
            armed: true,
            ..StopFlag::none()
        }
    }

    /// A flag that also observes `external` — typically a static the
    /// process's signal handler sets.
    pub fn watching(external: &'static AtomicBool) -> StopFlag {
        StopFlag {
            local: Arc::new(AtomicBool::new(false)),
            external: Some(external),
            armed: true,
        }
    }

    /// Requests a graceful stop.
    pub fn request_stop(&self) {
        self.local.store(true, Ordering::SeqCst);
    }

    /// Whether a stop has been requested.
    pub fn is_set(&self) -> bool {
        self.local.load(Ordering::SeqCst) || self.external.is_some_and(|f| f.load(Ordering::SeqCst))
    }

    /// Whether this flag could ever fire (false only for
    /// [`StopFlag::none`]); an armed flag turns on best-so-far tracking.
    pub fn armed(&self) -> bool {
        self.armed
    }
}

impl Default for StopFlag {
    fn default() -> Self {
        StopFlag::none()
    }
}

/// Resilience knobs of a run: checkpoint cadence, resume source, stop
/// budgets, and the self-audit/repair loop. The default disables
/// everything, keeping the engine's hot path untouched.
#[derive(Clone, Debug, PartialEq)]
pub struct ResilienceConfig {
    /// Write checkpoints here ([`None`] disables checkpointing).
    pub checkpoint_path: Option<PathBuf>,
    /// Write a checkpoint every this many temperatures (minimum 1); a
    /// final checkpoint is also written whenever a run stops early.
    pub checkpoint_every: usize,
    /// Retention depth: keep this many snapshot generations next to
    /// `checkpoint_path` (see [`crate::generation_path`]), deleting older
    /// ones after each successful write. The base path always holds the
    /// newest snapshot. `0` disables generations entirely (single-file
    /// checkpointing); GC never deletes the only valid snapshot.
    pub checkpoint_keep: usize,
    /// Resume from this checkpoint instead of a fresh random placement.
    /// When the file is missing or corrupt, the newest valid retention
    /// generation is loaded instead (corrupt generations are quarantined);
    /// only if no generation decodes either does the resume fail.
    pub resume_path: Option<PathBuf>,
    /// Wall-clock budget; the run finishes the current temperature,
    /// checkpoints, and returns [`StopReason::Deadline`].
    pub deadline: Option<Duration>,
    /// Whole-run temperature budget (counts resumed temperatures too);
    /// stopping on it is also tagged [`StopReason::Deadline`]. Unlike the
    /// wall-clock deadline it is deterministic, which makes it the lever
    /// the resume-equivalence tests use.
    pub temp_budget: Option<usize>,
    /// Run the self-audit every this many temperatures (0 disables).
    pub audit_every: usize,
    /// Repair attempts per failed audit before giving up.
    pub max_repairs: usize,
    /// Deterministic fault schedule delivered at temperature boundaries
    /// (test builds only).
    #[cfg(feature = "fault-inject")]
    pub faults: Option<FaultPlan>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            checkpoint_path: None,
            checkpoint_every: 5,
            checkpoint_keep: 3,
            resume_path: None,
            deadline: None,
            temp_budget: None,
            audit_every: 0,
            max_repairs: 3,
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }
}

impl ResilienceConfig {
    /// Whether any resilience feature is on (turns on best-so-far
    /// tracking).
    pub fn enabled(&self) -> bool {
        #[cfg(feature = "fault-inject")]
        if self.faults.is_some() {
            return true;
        }
        self.checkpoint_path.is_some()
            || self.resume_path.is_some()
            || self.deadline.is_some()
            || self.temp_budget.is_some()
            || self.audit_every > 0
    }
}

/// Configuration of the simultaneous flow.
#[derive(Clone, Debug, PartialEq)]
pub struct SimPrConfig {
    /// Incremental router weights.
    pub router: RouterConfig,
    /// Annealing schedule. A `moves_per_temp` of 0 selects the automatic
    /// `n^(4/3)` budget for `n` cells.
    pub anneal: AnnealConfig,
    /// Cost component emphasis.
    pub cost: CostConfig,
    /// Move class mix.
    pub move_weights: MoveWeights,
    /// Seed of the initial random placement.
    pub placement_seed: u64,
    /// Rip-up-and-retry rounds of the final repair pass (placement frozen),
    /// applied only if annealing ends with unrouted nets; 0 disables.
    pub final_repair_passes: usize,
    /// Greedy zero-temperature cleanup moves attempted when annealing
    /// freezes with unrouted nets left (only improving or neutral moves are
    /// accepted); 0 disables.
    pub cleanup_moves: usize,
    /// Checkpoint/resume, deadlines and the self-audit loop.
    pub resilience: ResilienceConfig,
    /// Annealing replicas (1 = sequential): replica 0 anneals on the
    /// calling thread and each further replica on its own thread, with
    /// best-layout exchanges at temperature boundaries.
    pub threads: usize,
}

impl Default for SimPrConfig {
    fn default() -> Self {
        Self {
            router: RouterConfig::default(),
            anneal: AnnealConfig {
                moves_per_temp: 0, // auto
                ..AnnealConfig::default()
            },
            cost: CostConfig::default(),
            move_weights: MoveWeights::default(),
            placement_seed: 1,
            final_repair_passes: 6,
            cleanup_moves: 20_000,
            resilience: ResilienceConfig::default(),
            threads: 1,
        }
    }
}

impl SimPrConfig {
    /// A low-effort profile for tests and smoke runs.
    pub fn fast() -> Self {
        Self {
            anneal: AnnealConfig {
                moves_per_temp: 0,
                max_temps: 40,
                ..AnnealConfig::fast()
            },
            ..Self::default()
        }
    }

    /// Sets the seeds (placement and annealing) together.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.placement_seed = seed;
        self.anneal.seed = seed.wrapping_add(0x9e37);
        self
    }
}

/// A finished layout with its quality metrics.
#[derive(Clone, Debug)]
pub struct LayoutResult {
    /// Final cell placement (and pinmaps).
    pub placement: Placement,
    /// Final routing state.
    pub routing: RoutingState,
    /// Whether every net was fully routed.
    pub fully_routed: bool,
    /// Nets without a global route at the end.
    pub globally_unrouted: usize,
    /// Nets without a complete detailed route at the end.
    pub incomplete: usize,
    /// Worst-case path delay (ps) from the final standalone analysis.
    pub worst_delay: f64,
    /// The critical path of the final layout.
    pub critical_path: CriticalPath,
    /// Per-temperature dynamics (paper Figure 6 data). A resumed run's
    /// trace includes the temperatures recorded before the checkpoint.
    pub dynamics: DynamicsTrace,
    /// Temperatures executed by the annealer over the whole run.
    pub temperatures: usize,
    /// Total annealing moves attempted over the whole run.
    pub total_moves: usize,
    /// Wall-clock time of this process's share of the run.
    pub runtime: Duration,
    /// Why the run returned.
    pub stop_reason: StopReason,
    /// Audit-triggered repairs performed during the run (carried across
    /// resume).
    pub repairs: usize,
}

/// The paper's simultaneous placement, global and detailed routing tool.
#[derive(Clone, Debug)]
pub struct SimultaneousPlaceRoute {
    config: SimPrConfig,
}

impl SimultaneousPlaceRoute {
    /// Creates a driver with the given configuration.
    pub fn new(config: SimPrConfig) -> SimultaneousPlaceRoute {
        SimultaneousPlaceRoute { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimPrConfig {
        &self.config
    }

    /// Lays out `netlist` on `arch`.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the design does not fit the chip or
    /// contains a combinational loop.
    pub fn run(&self, arch: &Architecture, netlist: &Netlist) -> Result<LayoutResult, LayoutError> {
        self.run_observed(arch, netlist, "design", &Obs::disabled())
    }

    /// Like [`SimultaneousPlaceRoute::run`], with an observability handle:
    /// the run emits a `run_start` header (seed and configuration), one
    /// `temperature` and one `dynamics` event per annealing temperature,
    /// `reroute` summaries, `audit`/`repair`/`checkpoint` events when the
    /// resilience layer is active, and a `stop` + `run_end` footer with a
    /// metrics snapshot; phase spans cover warmup, annealing, cleanup,
    /// final repair, and the final timing analysis. `label` names the
    /// design in the journal. A disabled handle makes this identical to
    /// `run`.
    pub fn run_observed(
        &self,
        arch: &Architecture,
        netlist: &Netlist,
        label: &str,
        obs: &Obs,
    ) -> Result<LayoutResult, LayoutError> {
        self.run_with_stop(arch, netlist, label, obs, &StopFlag::none())
    }

    /// Like [`SimultaneousPlaceRoute::run_observed`], with a cooperative
    /// [`StopFlag`]: when it fires, the run finishes the current
    /// temperature, writes a final checkpoint (if checkpointing is
    /// configured) and returns its best-so-far layout tagged
    /// [`StopReason::Interrupted`].
    ///
    /// The one layout driver for every [`SimPrConfig::threads`]: replica
    /// `r` starts from placement seed [`replica_seed`]`(placement_seed, r)`
    /// and anneals with `replica_seed(anneal.seed, r)`, replica 0 on the
    /// calling thread (see [`anneal_replicas`]; DESIGN.md §8 gives the order
    /// of work at a temperature boundary). The cheapest replica's final
    /// layout gets the cleanup, final repair and timing analysis. The result
    /// is deterministic in `(config, threads)`; `temperatures` and
    /// `dynamics` describe the winning replica's walk, `total_moves` counts
    /// every replica's.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the design does not fit the chip,
    /// contains a combinational loop, a configured resume checkpoint does
    /// not load or match this design, seeds and replica count, or the
    /// self-audit finds an unrepairable divergence.
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock is deadline/telemetry only and never steers the search"
    )]
    pub fn run_with_stop(
        &self,
        arch: &Architecture,
        netlist: &Netlist,
        label: &str,
        obs: &Obs,
        stop: &StopFlag,
    ) -> Result<LayoutResult, LayoutError> {
        // rowfpga-lint: allow(determinism) reason=wall-clock is deadline/telemetry only and never steers the search
        let start = Instant::now();
        let config = &self.config;
        let res = &config.resilience;
        let replicas = config.threads.max(1);
        if obs.enabled() {
            obs.emit(Event::RunStart {
                flow: "simultaneous".into(),
                benchmark: label.into(),
                seed: config.placement_seed,
                config: self.config_capture(netlist),
            });
        }
        let mut anneal_cfg = config.anneal.clone();
        if anneal_cfg.moves_per_temp == 0 {
            anneal_cfg.moves_per_temp = AnnealConfig::moves_for_cells(netlist.num_cells(), 1.0);
        }

        // Resume source is loaded and validated before any state is built:
        // a stale or foreign checkpoint must fail fast.
        let resumed: Option<Checkpoint> = match &res.resume_path {
            Some(path) => {
                // The base path holds the newest snapshot; when it is
                // missing or torn (crashed mid-promotion, disk fault),
                // fall back to the newest retention generation that still
                // decodes before giving up.
                let ck = match Checkpoint::load(path) {
                    Ok(ck) => ck,
                    Err(primary) => match crate::snapshot::load_newest_generation(path) {
                        Some((ck, source)) => {
                            if obs.enabled() {
                                obs.emit(Event::Warning {
                                    code: "checkpoint.fallback".into(),
                                    detail: format!(
                                        "{primary}; resumed from generation {}",
                                        source.display()
                                    ),
                                });
                            }
                            ck
                        }
                        None => return Err(LayoutError::Checkpoint(primary)),
                    },
                };
                ck.validate(
                    arch,
                    netlist,
                    config.placement_seed,
                    anneal_cfg.seed,
                    replicas,
                )
                .map_err(LayoutError::Checkpoint)?;
                Some(ck)
            }
            None => None,
        };

        let mut hooks = LayoutReplicas {
            arch,
            netlist,
            config,
            anneal: &anneal_cfg,
            resumed: resumed.as_ref(),
            stop,
            obs,
            start,
            // Fingerprints are stable over the run; hash once.
            checkpoint: res
                .checkpoint_path
                .as_deref()
                .map(|path| (path, (arch_fingerprint(arch), netlist_fingerprint(netlist)))),
            track_best: res.enabled() || stop.armed(),
            best: resumed.as_ref().and_then(|ck| ck.best.clone()),
            repairs: resumed.as_ref().map_or(0, |ck| ck.repairs),
            reason: StopReason::Converged,
            new_best: None,
            checkpoint_due: false,
        };
        obs.span_start("anneal");
        let first_temp = resumed.as_ref().map_or(0, |ck| ck.temp);
        let (problem, outcome) = anneal_replicas(&mut hooks, replicas, first_temp, obs)?;
        obs.span_end("anneal");
        let (winner, reports) = (outcome.best_replica, outcome.replicas);
        let mut problem = problem.with_obs(obs.clone());
        let LayoutReplicas {
            best,
            repairs: repairs_total,
            reason: mut stop_reason,
            ..
        } = hooks;

        // Zero-temperature cleanup: when the schedule froze with a few nets
        // still unrouted, a burst of greedy (improving-only) moves usually
        // shakes the last stragglers loose — the placement-level leverage of
        // §2.1 applied once more, without the stochastic uphill component.
        // Early-stopped runs skip it: they return promptly with what they
        // have.
        if stop_reason == StopReason::Converged
            && problem.routing().incomplete() > 0
            && config.cleanup_moves > 0
        {
            use rand::SeedableRng as _;
            use rowfpga_anneal::AnnealProblem as _;
            obs.span_start("cleanup");
            let seed = replica_seed(anneal_cfg.seed, winner).wrapping_add(0x51ea9);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for _ in 0..config.cleanup_moves {
                let (applied, delta) = problem.propose_and_apply(&mut rng);
                obs.inc("cleanup.moves");
                if delta <= 0.0 {
                    problem.commit(applied);
                    obs.inc("cleanup.accepted");
                } else {
                    problem.undo(applied);
                }
                if problem.routing().incomplete() == 0 {
                    break;
                }
            }
            obs.span_end("cleanup");
        }

        let final_cost = {
            use rowfpga_anneal::AnnealProblem as _;
            problem.cost()
        };
        let current_key = quality_key(&problem);
        let (mut placement, mut routing, dynamics) = problem.into_parts();
        if stop_reason == StopReason::Converged {
            if !routing.is_fully_routed() && config.final_repair_passes > 0 {
                // Placement is frozen now; a few rip-up-and-retry rounds often
                // recover the last stragglers, exactly as a sequential flow's
                // router would.
                let repair = obs.span("final_repair", || {
                    route_batch_observed(
                        &mut routing,
                        arch,
                        netlist,
                        &placement,
                        &config.router,
                        config.final_repair_passes,
                        obs,
                    )
                });
                if obs.enabled() {
                    obs.add("route.detail_failures", repair.detail_failures as u64);
                    obs.emit(Event::Reroute {
                        scope: "final_repair".into(),
                        stats: RerouteRecord {
                            globally_routed: repair.globally_routed,
                            detail_routed: repair.detail_routed,
                            detail_failures: repair.detail_failures,
                        },
                    });
                }
            }
        } else if let Some(b) = best.as_ref().filter(|b| b.key() < current_key) {
            // Degradation: the run is returning early, and a strictly
            // better layout was seen along the way — hand that one back.
            if let (Ok(p), Ok(r)) = (
                Placement::from_parts(arch, netlist, &b.sites, &b.pinmaps),
                RoutingState::restore(arch, netlist, &b.routes),
            ) {
                placement = p;
                routing = r;
            }
        }

        let sta = obs.span("final_sta", || {
            Sta::analyze_observed(arch, netlist, &placement, &routing, obs)
                .map_err(LayoutError::CombLoop)
        })?;
        let critical_path = sta.critical_path(netlist);
        if stop_reason == StopReason::Converged && repairs_total > 0 {
            stop_reason = StopReason::Repaired;
        }
        let result = LayoutResult {
            fully_routed: routing.is_fully_routed(),
            globally_unrouted: routing.globally_unrouted(),
            incomplete: routing.incomplete(),
            worst_delay: sta.worst_delay(),
            critical_path,
            dynamics,
            temperatures: reports.get(winner).map_or(0, |r| r.outcome.temperatures),
            total_moves: reports.iter().map(|r| r.outcome.total_moves).sum(),
            runtime: start.elapsed(),
            stop_reason,
            repairs: repairs_total,
            placement,
            routing,
        };
        if obs.enabled() {
            obs.emit(Event::Stop {
                reason: stop_reason.to_string(),
                temps: result.temperatures,
                repairs: repairs_total,
            });
            let metrics = obs
                .with_session(|s| s.metrics.to_json())
                .unwrap_or(Json::Null);
            obs.emit(Event::RunEnd {
                cost: final_cost,
                worst_delay: result.worst_delay,
                unrouted: result.incomplete,
                total_moves: result.total_moves,
                temperatures: result.temperatures,
                runtime_sec: result.runtime.as_secs_f64(),
                metrics,
            });
            obs.flush();
        }
        Ok(result)
    }

    /// Bounded repair after a failed audit: a timing-only divergence gets
    /// a tier-1 timing rebuild first; anything else (or a failed tier-1)
    /// discards and re-derives the routing too. Every attempt is
    /// re-audited before it counts as a success.
    fn repair(
        problem: &mut LayoutProblem<'_>,
        temp: usize,
        detail: &str,
        max_repairs: usize,
        obs: &Obs,
    ) -> Result<(), LayoutError> {
        let timing_only = detail.starts_with("timing");
        let attempts = max_repairs.max(1);
        for attempt in 1..=attempts {
            let scope = if timing_only && attempt == 1 {
                "timing"
            } else {
                "routing"
            };
            let rebuilt = obs.span("repair", || {
                if scope == "timing" {
                    problem.rebuild_timing()
                } else {
                    problem.rebuild_routing()
                }
            });
            let ok = rebuilt.is_ok() && problem.audit().is_ok();
            obs.inc("repair.attempts");
            if obs.enabled() {
                obs.emit(Event::Repair {
                    temp,
                    attempt,
                    scope: scope.into(),
                    ok,
                });
            }
            if ok {
                return Ok(());
            }
        }
        Err(LayoutError::Audit {
            detail: format!(
                "audit still failing after {attempts} repair attempts at temperature {temp}: {detail}"
            ),
        })
    }

    /// Key/value capture of the run configuration for the journal header.
    fn config_capture(&self, netlist: &Netlist) -> Vec<(String, Json)> {
        let c = &self.config;
        vec![
            ("cells".into(), netlist.num_cells().into()),
            ("nets".into(), netlist.num_nets().into()),
            ("placement_seed".into(), c.placement_seed.into()),
            ("anneal_seed".into(), c.anneal.seed.into()),
            ("moves_per_temp".into(), c.anneal.moves_per_temp.into()),
            ("warmup_moves".into(), c.anneal.warmup_moves.into()),
            ("max_temps".into(), c.anneal.max_temps.into()),
            ("lambda".into(), c.anneal.lambda.into()),
            ("global_emphasis".into(), c.cost.global_emphasis.into()),
            ("detail_emphasis".into(), c.cost.detail_emphasis.into()),
            ("timing_emphasis".into(), c.cost.timing_emphasis.into()),
            ("wastage_weight".into(), c.router.wastage_weight.into()),
            ("segment_weight".into(), c.router.segment_weight.into()),
            ("final_repair_passes".into(), c.final_repair_passes.into()),
            ("cleanup_moves".into(), c.cleanup_moves.into()),
            ("threads".into(), c.threads.into()),
            ("audit_every".into(), c.resilience.audit_every.into()),
            (
                "checkpoint_every".into(),
                c.resilience.checkpoint_every.into(),
            ),
        ]
    }
}

/// Best-so-far ranking of a layout: fewer incomplete nets first, then
/// fewer globally unrouted, then lower delay (see [`BestLayout::key`]).
type QualityKey = (usize, usize, f64);

fn quality_key(problem: &LayoutProblem<'_>) -> QualityKey {
    (
        problem.routing().incomplete(),
        problem.routing().globally_unrouted(),
        problem.timing().worst(),
    )
}

/// What a replica reports at a temperature boundary.
#[derive(Clone, Copy, Debug)]
struct Audited {
    key: QualityKey,
    repaired: bool,
}

/// How each replica of a layout run starts, fresh or from its checkpointed
/// state, and audits itself after each temperature; and, on the calling
/// thread at each temperature boundary, the run's stop decisions, the best
/// layout across replicas, and checkpoints.
struct LayoutReplicas<'r, 'a> {
    arch: &'a Architecture,
    netlist: &'a Netlist,
    config: &'r SimPrConfig,
    anneal: &'r AnnealConfig,
    resumed: Option<&'r Checkpoint>,
    stop: &'r StopFlag,
    obs: &'r Obs,
    start: Instant,
    /// Checkpoint path and (arch, netlist) fingerprints, when checkpointing.
    checkpoint: Option<(&'r Path, (u64, u64))>,
    track_best: bool,
    best: Option<BestLayout>,
    repairs: usize,
    reason: StopReason,
    /// This boundary's pending work: the replica holding a new best
    /// layout, and whether a checkpoint is due.
    new_best: Option<(usize, QualityKey)>,
    checkpoint_due: bool,
}

impl<'a> ReplicaHooks<LayoutProblem<'a>> for LayoutReplicas<'_, 'a> {
    type Error = LayoutError;
    type Report = Audited;

    fn start_replica(
        &self,
        replica: usize,
        obs: &Obs,
    ) -> Result<(LayoutProblem<'a>, Annealer), LayoutError> {
        let c = self.config;
        let anneal = AnnealConfig {
            seed: replica_seed(self.anneal.seed, replica),
            ..self.anneal.clone()
        };
        if let Some(ck) = self.resumed {
            let state = ck.replicas.get(replica).ok_or(LayoutError::Checkpoint(
                CheckpointError::Replicas {
                    found: ck.replicas.len(),
                    expected: replica + 1,
                },
            ))?;
            let (cursor, snap) = state;
            let problem = LayoutProblem::restore(
                self.arch,
                self.netlist,
                c.router,
                c.cost,
                c.move_weights,
                snap,
            )?
            .with_obs(obs.clone());
            return Ok((problem, Annealer::resume(&anneal, cursor)));
        }
        let mut problem = LayoutProblem::new(
            self.arch,
            self.netlist,
            c.router,
            c.cost,
            c.move_weights,
            replica_seed(c.placement_seed, replica),
        )?
        .with_obs(obs.clone());
        let annealer = Annealer::start(&mut problem, &anneal, obs);
        Ok((problem, annealer))
    }

    fn check_replica(
        &self,
        temp: usize,
        problem: &mut LayoutProblem<'a>,
        obs: &Obs,
    ) -> Result<Audited, LayoutError> {
        let res = &self.config.resilience;
        #[cfg(feature = "fault-inject")]
        for fault in res.faults.iter().flat_map(|plan| plan.at(temp)) {
            if fault.write_fault().is_none() {
                problem.inject_fault(&fault);
            }
        }
        let mut repaired = false;
        if res.audit_every > 0 && temp.is_multiple_of(res.audit_every) {
            let audit = obs.span("audit", || problem.audit());
            obs.inc(if audit.is_ok() {
                "audit.passed"
            } else {
                "audit.failed"
            });
            if obs.enabled() {
                let detail = audit.clone().err().unwrap_or_default();
                let ok = audit.is_ok();
                obs.emit(Event::Audit { temp, ok, detail });
            }
            if let Err(detail) = audit {
                repaired = true;
                SimultaneousPlaceRoute::repair(problem, temp, &detail, res.max_repairs, obs)?;
            }
        }
        Ok(Audited {
            key: quality_key(problem),
            repaired,
        })
    }

    fn plan_boundary(&mut self, temp: usize, replicas: &[ReplicaStatus<Audited>]) -> Verdict {
        let res = &self.config.resilience;
        let stepped = replicas.iter().any(|s| s.report.is_some());
        let mut leader: Option<(usize, QualityKey)> = None;
        for (r, report) in replicas
            .iter()
            .enumerate()
            .filter_map(|(r, s)| Some((r, s.report?)))
        {
            self.repairs += usize::from(report.repaired);
            if leader.is_none_or(|(_, key)| report.key < key) {
                leader = Some((r, report.key));
            }
        }
        self.new_best = leader.filter(|(_, key)| {
            self.track_best && self.best.as_ref().is_none_or(|b| *key < b.key())
        });
        self.reason = if replicas.iter().all(|s| s.finished) {
            StopReason::Converged
        } else if self.stop.is_set() {
            StopReason::Interrupted
        } else if res.deadline.is_some_and(|d| self.start.elapsed() >= d)
            || res.temp_budget.is_some_and(|b| temp >= b)
        {
            StopReason::Deadline
        } else {
            StopReason::Converged
        };
        let early = self.reason != StopReason::Converged;
        // Graceful shutdown: an early stop leaves one final checkpoint at
        // the boundary the run actually reached — unless no temperature
        // completed. The problem snapshot is only restorable at a true
        // temperature boundary (`on_temperature` has just reset the delta
        // statistics and perturbation flags); the post-warmup state is not
        // one, so a temp-0 checkpoint would resume into a run that diverges
        // from a fresh start. With zero progress there is nothing worth
        // resuming anyway: no file means the restart runs fresh, which is
        // bit-identical by definition.
        self.checkpoint_due = self.checkpoint.is_some()
            && ((stepped && temp.is_multiple_of(res.checkpoint_every.max(1)))
                || (early && temp > 0));
        Verdict {
            stop: early,
            share: self.checkpoint_due || self.new_best.is_some(),
        }
    }

    fn receive_states(&mut self, temp: usize, states: Vec<(AnnealCursor, ProblemSnapshot)>) {
        if let Some((r, key)) = self.new_best {
            if let Some((_, snap)) = states.get(r) {
                self.best = Some(BestLayout {
                    sites: snap.sites.clone(),
                    pinmaps: snap.pinmaps.clone(),
                    routes: snap.routes.clone(),
                    incomplete: key.0,
                    globally_unrouted: key.1,
                    worst_delay: key.2,
                });
            }
        }
        // Write failures are non-fatal: the run keeps going and the previous
        // complete snapshot stays in place.
        let (true, Some((path, fingerprints))) = (self.checkpoint_due, self.checkpoint) else {
            return;
        };
        let config = self.config;
        #[cfg(feature = "fault-inject")]
        let fault: Option<WriteFault> = config
            .resilience
            .faults
            .iter()
            .flat_map(|plan| plan.at(temp))
            .filter_map(|f| f.write_fault())
            .last();
        #[cfg(not(feature = "fault-inject"))]
        let fault: Option<WriteFault> = None;
        let ck = Checkpoint {
            version: CHECKPOINT_VERSION,
            arch_fingerprint: fingerprints.0,
            netlist_fingerprint: fingerprints.1,
            placement_seed: config.placement_seed,
            anneal_seed: config.anneal.seed,
            repairs: self.repairs,
            temp,
            replicas: states,
            best: self.best.clone(),
        };
        let keep = config.resilience.checkpoint_keep;
        let obs = self.obs;
        let written = obs.span("checkpoint", || {
            if keep == 0 {
                ck.save(path, fault)
            } else {
                ck.save_generation(path, temp, keep, fault)
            }
        });
        let (ok, detail) = match written {
            Ok(()) => {
                obs.inc("checkpoint.written");
                (true, String::new())
            }
            Err(e) => {
                obs.inc("checkpoint.failed");
                (false, e.to_string())
            }
        };
        if obs.enabled() {
            obs.emit(Event::Checkpoint {
                temp,
                path: path.display().to_string(),
                ok,
                detail,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowfpga_netlist::{generate, GenerateConfig};
    use rowfpga_route::{route_batch, verify_routing};

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

    fn temp_file(name: &str) -> PathBuf {
        std::env::temp_dir().join(name)
    }

    /// Removes a checkpoint together with its retention generations.
    fn remove_checkpoint_family(base: &Path) {
        let _ = std::fs::remove_file(base);
        for (_, path) in crate::list_generations(base) {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn fast_run_routes_a_small_design_fully() {
        let (arch, nl) = fixture();
        let result = SimultaneousPlaceRoute::new(SimPrConfig::fast())
            .run(&arch, &nl)
            .unwrap();
        assert!(result.fully_routed, "left {} incomplete", result.incomplete);
        assert_eq!(result.incomplete, 0);
        assert!(result.worst_delay > 0.0);
        assert!(!result.critical_path.elements.is_empty());
        assert!(!result.dynamics.is_empty());
        assert!(result.temperatures > 0);
        assert_eq!(result.stop_reason, StopReason::Converged);
        assert_eq!(result.repairs, 0);
        verify_routing(&result.routing, &arch, &nl, &result.placement).unwrap();
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let (arch, nl) = fixture();
        let run = |seed: u64| {
            SimultaneousPlaceRoute::new(SimPrConfig::fast().with_seed(seed))
                .run(&arch, &nl)
                .unwrap()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.worst_delay, b.worst_delay);
        assert_eq!(a.total_moves, b.total_moves);
        for (id, _) in nl.cells() {
            assert_eq!(a.placement.site_of(id), b.placement.site_of(id));
        }
    }

    #[test]
    fn one_replica_matches_a_hand_driven_annealer() {
        let (arch, nl) = fixture();
        let cfg = SimPrConfig::fast().with_seed(5);
        let result = SimultaneousPlaceRoute::new(cfg.clone())
            .run(&arch, &nl)
            .unwrap();
        assert_eq!(result.incomplete, 0, "no cleanup or final repair ran");

        let mut anneal = cfg.anneal.clone();
        anneal.moves_per_temp = AnnealConfig::moves_for_cells(nl.num_cells(), 1.0);
        let mut problem = LayoutProblem::new(
            &arch,
            &nl,
            cfg.router,
            cfg.cost,
            cfg.move_weights,
            cfg.placement_seed,
        )
        .unwrap();
        let obs = Obs::disabled();
        let mut annealer = Annealer::start(&mut problem, &anneal, &obs);
        while annealer.step(&mut problem, &obs).is_some() {}

        assert_eq!(result.total_moves, annealer.total_moves());
        assert_eq!(result.temperatures, annealer.temperatures_completed());
        assert_eq!(
            result.routing.occupancy_digest(),
            problem.routing().occupancy_digest()
        );
        for (id, _) in nl.cells() {
            assert_eq!(
                result.placement.site_of(id),
                problem.placement().site_of(id)
            );
        }
    }

    #[test]
    fn parallel_runs_are_deterministic_and_legal() {
        let (arch, nl) = fixture();
        let mut cfg = SimPrConfig::fast().with_seed(5);
        cfg.threads = 2;
        let tool = SimultaneousPlaceRoute::new(cfg);
        let a = tool.run(&arch, &nl).unwrap();
        let b = tool.run(&arch, &nl).unwrap();
        assert_eq!(a.worst_delay, b.worst_delay);
        assert_eq!(a.total_moves, b.total_moves);
        assert_eq!(a.incomplete, b.incomplete);
        for (id, _) in nl.cells() {
            assert_eq!(a.placement.site_of(id), b.placement.site_of(id));
        }
        verify_routing(&a.routing, &arch, &nl, &a.placement).unwrap();
        let sta = Sta::analyze(&arch, &nl, &a.placement, &a.routing).unwrap();
        assert_eq!(sta.worst_delay(), a.worst_delay);
    }

    fn two_replicas(seed: u64) -> SimPrConfig {
        let mut cfg = SimPrConfig::fast().with_seed(seed);
        cfg.threads = 2;
        cfg
    }

    fn assert_same_layout(a: &LayoutResult, b: &LayoutResult, nl: &Netlist) {
        assert_eq!(a.worst_delay.to_bits(), b.worst_delay.to_bits());
        assert_eq!(a.total_moves, b.total_moves);
        assert_eq!(a.temperatures, b.temperatures);
        assert_eq!(a.routing.occupancy_digest(), b.routing.occupancy_digest());
        assert_eq!(a.dynamics.samples(), b.dynamics.samples());
        for (id, _) in nl.cells() {
            assert_eq!(a.placement.site_of(id), b.placement.site_of(id));
        }
    }

    #[test]
    fn two_replica_checkpoint_then_resume_is_bit_identical() {
        let (arch, nl) = fixture();
        let full = SimultaneousPlaceRoute::new(two_replicas(7))
            .run(&arch, &nl)
            .unwrap();
        // 5 is a plain boundary; 8 is an exchange boundary, which the
        // resumed run re-plays from the pre-exchange states.
        for budget in [5, 8] {
            let ckpt = temp_file(&format!("rowfpga_engine_k2_resume_{budget}.json"));
            remove_checkpoint_family(&ckpt);
            let mut cfg = two_replicas(7);
            cfg.resilience.temp_budget = Some(budget);
            cfg.resilience.checkpoint_path = Some(ckpt.clone());
            cfg.resilience.checkpoint_every = 1;
            let partial = SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap();
            assert_eq!(partial.stop_reason, StopReason::Deadline);
            let ck = Checkpoint::load(&ckpt).unwrap();
            assert_eq!((ck.temp, ck.replicas.len()), (budget, 2));

            let mut cfg = two_replicas(7);
            cfg.resilience.resume_path = Some(ckpt.clone());
            let resumed = SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap();
            remove_checkpoint_family(&ckpt);
            assert_eq!(resumed.stop_reason, StopReason::Converged);
            assert_same_layout(&resumed, &full, &nl);
            verify_routing(&resumed.routing, &arch, &nl, &resumed.placement).unwrap();
        }
    }

    #[test]
    fn two_replica_runs_stop_early_with_a_verified_layout() {
        let (arch, nl) = fixture();
        let stop_with = |cfg: SimPrConfig, stop: &StopFlag| {
            let result = SimultaneousPlaceRoute::new(cfg)
                .run_with_stop(&arch, &nl, "fixture", &Obs::disabled(), stop)
                .unwrap();
            verify_routing(&result.routing, &arch, &nl, &result.placement).unwrap();
            let sta = Sta::analyze(&arch, &nl, &result.placement, &result.routing).unwrap();
            assert_eq!(sta.worst_delay(), result.worst_delay);
            result
        };
        let mut cfg = two_replicas(4);
        cfg.resilience.temp_budget = Some(3);
        let budgeted = stop_with(cfg, &StopFlag::none());
        assert_eq!(budgeted.stop_reason, StopReason::Deadline);
        assert_eq!(budgeted.temperatures, 3);

        let mut cfg = two_replicas(4);
        cfg.resilience.deadline = Some(Duration::ZERO);
        let late = stop_with(cfg, &StopFlag::none());
        assert_eq!(late.stop_reason, StopReason::Deadline);
        assert_eq!(late.temperatures, 0);

        let stop = StopFlag::manual();
        stop.request_stop();
        let interrupted = stop_with(two_replicas(4), &stop);
        assert_eq!(interrupted.stop_reason, StopReason::Interrupted);
        assert_eq!(interrupted.temperatures, 0);
    }

    #[test]
    fn two_replica_audits_change_nothing() {
        let (arch, nl) = fixture();
        let plain = SimultaneousPlaceRoute::new(two_replicas(3))
            .run(&arch, &nl)
            .unwrap();
        let mut cfg = two_replicas(3);
        cfg.resilience.audit_every = 2;
        let audited = SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap();
        assert_eq!(audited.stop_reason, StopReason::Converged);
        assert_eq!(audited.repairs, 0);
        assert_same_layout(&audited, &plain, &nl);
    }

    #[test]
    fn resume_rejects_a_checkpoint_with_another_replica_count() {
        let (arch, nl) = fixture();
        for (written, resumed) in [(2, 1), (1, 2)] {
            let ckpt = temp_file(&format!("rowfpga_engine_k{written}_to_k{resumed}.json"));
            remove_checkpoint_family(&ckpt);
            let mut cfg = SimPrConfig::fast().with_seed(6);
            cfg.threads = written;
            cfg.resilience.temp_budget = Some(2);
            cfg.resilience.checkpoint_path = Some(ckpt.clone());
            SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap();

            let mut cfg = SimPrConfig::fast().with_seed(6);
            cfg.threads = resumed;
            cfg.resilience.resume_path = Some(ckpt.clone());
            let err = SimultaneousPlaceRoute::new(cfg)
                .run(&arch, &nl)
                .unwrap_err();
            remove_checkpoint_family(&ckpt);
            assert_eq!(
                err,
                LayoutError::Checkpoint(CheckpointError::Replicas {
                    found: written,
                    expected: resumed
                })
            );
        }
    }

    /// Journal lines with wall-clock fields removed.
    fn normalized_journal(lines: &[String]) -> Vec<String> {
        lines
            .iter()
            .map(|line| match rowfpga_obs::json::parse(line).unwrap() {
                Json::Obj(pairs) => Json::Obj(
                    pairs
                        .into_iter()
                        .filter(|(k, _)| k != "elapsed_us" && k != "runtime_sec")
                        .collect(),
                )
                .to_string_compact(),
                other => other.to_string_compact(),
            })
            .collect()
    }

    #[test]
    fn two_replica_journals_carry_dynamics_and_are_deterministic() {
        let (arch, nl) = fixture();
        let journal = || {
            let ring = rowfpga_obs::RingSink::new(1 << 16);
            let obs = Obs::with_sink(Box::new(ring.clone()));
            SimultaneousPlaceRoute::new(two_replicas(5))
                .run_observed(&arch, &nl, "fixture", &obs)
                .unwrap();
            ring.snapshot()
        };
        let a = journal();
        assert_eq!(normalized_journal(&a), normalized_journal(&journal()));
        let count = |name: &str| {
            a.iter()
                .filter(|l| l.contains(&format!("\"event\":\"{name}\"")))
                .count()
        };
        assert!(count("temperature") > 0);
        assert_eq!(count("dynamics"), count("temperature"));
        assert!(count("exchange") > 0);
    }

    #[test]
    fn annealing_beats_the_initial_random_layout_on_delay() {
        let (arch, nl) = fixture();
        // initial: random placement + batch route
        let placement = Placement::random(&arch, &nl, 1).unwrap();
        let mut routing = RoutingState::new(&arch, &nl);
        route_batch(
            &mut routing,
            &arch,
            &nl,
            &placement,
            &RouterConfig::default(),
            6,
        );
        let initial = Sta::analyze(&arch, &nl, &placement, &routing).unwrap();

        let result = SimultaneousPlaceRoute::new(SimPrConfig::default())
            .run(&arch, &nl)
            .unwrap();
        assert!(
            result.worst_delay < initial.worst_delay(),
            "annealed {} not better than random {}",
            result.worst_delay,
            initial.worst_delay()
        );
    }

    #[test]
    fn observed_run_writes_a_parseable_journal() {
        use rowfpga_obs::{json, Event, Obs, RunJournal};

        let (arch, nl) = fixture();
        let path = temp_file("rowfpga_engine_journal_test.jsonl");
        let file = std::fs::File::create(&path).unwrap();
        let obs = Obs::with_sink(Box::new(RunJournal::new(std::io::BufWriter::new(file))));
        let result = SimultaneousPlaceRoute::new(SimPrConfig::fast())
            .run_observed(&arch, &nl, "fixture", &obs)
            .unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let docs = json::parse_lines(&text).unwrap();
        let events: Vec<Event> = docs.iter().filter_map(Event::from_json).collect();
        assert_eq!(
            events.len(),
            docs.len(),
            "every line must parse to an event"
        );

        assert!(
            matches!(&events[0], Event::JournalHeader { schema, .. }
                if *schema == rowfpga_obs::SCHEMA_VERSION),
            "first line must be the schema header"
        );
        assert!(
            matches!(&events[1], Event::RunStart { benchmark, .. } if benchmark == "fixture"),
            "run_start must follow the header"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::SpanStart { name, .. } if name == "anneal")),
            "phase spans are journaled"
        );
        let temps = events
            .iter()
            .filter(|e| matches!(e, Event::Temperature(_)))
            .count();
        assert_eq!(temps, result.temperatures);
        let dynamics = events
            .iter()
            .filter(|e| matches!(e, Event::Dynamics(_)))
            .count();
        assert_eq!(dynamics, result.dynamics.len());
        assert!(
            matches!(
                &events[events.len() - 2],
                Event::Stop { reason, .. } if reason == "converged"
            ),
            "second-to-last event must be the stop record"
        );
        match events.last().unwrap() {
            Event::RunEnd {
                total_moves,
                temperatures,
                metrics,
                ..
            } => {
                assert_eq!(*total_moves, result.total_moves);
                assert_eq!(*temperatures, result.temperatures);
                assert!(metrics.get("counters").is_some(), "metrics snapshot");
            }
            other => panic!("last event must be run_end, got {other:?}"),
        }

        // The metrics report renders with all three sections populated.
        let report = obs.render_report().unwrap();
        assert!(report.contains("phase breakdown"), "{report}");
        assert!(report.contains("anneal"), "{report}");
        assert!(report.contains("move.proposed.exchange"), "{report}");
        assert!(report.contains("sta.frontier_cells"), "{report}");
    }

    #[test]
    fn observation_does_not_change_the_layout() {
        use rowfpga_obs::Obs;

        let (arch, nl) = fixture();
        let driver = SimultaneousPlaceRoute::new(SimPrConfig::fast().with_seed(9));
        let plain = driver.run(&arch, &nl).unwrap();
        let observed = driver
            .run_observed(&arch, &nl, "fixture", &Obs::metrics_only())
            .unwrap();
        assert_eq!(plain.worst_delay, observed.worst_delay);
        assert_eq!(plain.total_moves, observed.total_moves);
        assert_eq!(plain.incomplete, observed.incomplete);
        for (id, _) in nl.cells() {
            assert_eq!(plain.placement.site_of(id), observed.placement.site_of(id));
        }
    }

    #[test]
    fn reports_failures_on_a_starved_fabric() {
        let (arch, nl) = fixture();
        let narrow = arch.with_tracks(1).unwrap();
        let result = SimultaneousPlaceRoute::new(SimPrConfig::fast())
            .run(&narrow, &nl)
            .unwrap();
        assert!(!result.fully_routed);
        assert!(result.incomplete > 0);
    }

    #[test]
    fn audits_on_a_clean_run_pass_and_change_nothing() {
        let (arch, nl) = fixture();
        let plain = SimultaneousPlaceRoute::new(SimPrConfig::fast().with_seed(3))
            .run(&arch, &nl)
            .unwrap();
        let mut cfg = SimPrConfig::fast().with_seed(3);
        cfg.resilience.audit_every = 2;
        let audited = SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap();
        assert_eq!(audited.stop_reason, StopReason::Converged);
        assert_eq!(audited.repairs, 0);
        // The audit is read-only: the trajectory is bit-identical.
        assert_eq!(audited.worst_delay, plain.worst_delay);
        assert_eq!(audited.total_moves, plain.total_moves);
        for (id, _) in nl.cells() {
            assert_eq!(audited.placement.site_of(id), plain.placement.site_of(id));
        }
    }

    #[test]
    fn zero_deadline_stops_immediately_and_leaves_no_temp0_checkpoint() {
        let (arch, nl) = fixture();
        let ckpt = temp_file("rowfpga_engine_zero_deadline.json");
        remove_checkpoint_family(&ckpt);
        let mut cfg = SimPrConfig::fast().with_seed(4);
        cfg.resilience.deadline = Some(Duration::ZERO);
        cfg.resilience.checkpoint_path = Some(ckpt.clone());
        let result = SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap();
        assert_eq!(result.stop_reason, StopReason::Deadline);
        assert_eq!(result.temperatures, 0, "no step may start past a deadline");
        // The post-warmup state is not a restorable temperature boundary
        // (delta statistics and perturbation flags are still live), so a
        // zero-progress stop must NOT leave a checkpoint: a restart runs
        // fresh, which is the only bit-identical continuation.
        assert!(
            !ckpt.exists(),
            "a stop before the first temperature must not checkpoint"
        );
        assert!(crate::snapshot::list_generations(&ckpt).is_empty());
        verify_routing(&result.routing, &arch, &nl, &result.placement).unwrap();
    }

    #[test]
    fn stop_flag_interrupts_before_the_first_step() {
        let (arch, nl) = fixture();
        let stop = StopFlag::manual();
        stop.request_stop();
        assert!(stop.is_set() && stop.armed());
        let result = SimultaneousPlaceRoute::new(SimPrConfig::fast())
            .run_with_stop(&arch, &nl, "fixture", &Obs::disabled(), &stop)
            .unwrap();
        assert_eq!(result.stop_reason, StopReason::Interrupted);
        assert_eq!(result.temperatures, 0);
    }

    #[test]
    fn checkpoint_then_resume_is_bit_identical_to_an_uninterrupted_run() {
        let (arch, nl) = fixture();
        let ckpt = temp_file("rowfpga_engine_resume_identity.json");
        remove_checkpoint_family(&ckpt);

        let full = SimultaneousPlaceRoute::new(SimPrConfig::fast().with_seed(7))
            .run(&arch, &nl)
            .unwrap();

        // Stop after 5 temperatures, checkpointing every temperature.
        let mut cfg = SimPrConfig::fast().with_seed(7);
        cfg.resilience.temp_budget = Some(5);
        cfg.resilience.checkpoint_path = Some(ckpt.clone());
        cfg.resilience.checkpoint_every = 1;
        let partial = SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap();
        assert_eq!(partial.stop_reason, StopReason::Deadline);
        assert_eq!(partial.temperatures, 5);

        // Resume to completion.
        let mut cfg = SimPrConfig::fast().with_seed(7);
        cfg.resilience.resume_path = Some(ckpt.clone());
        let resumed = SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap();
        remove_checkpoint_family(&ckpt);

        assert_eq!(resumed.stop_reason, StopReason::Converged);
        assert_eq!(resumed.worst_delay, full.worst_delay);
        assert_eq!(resumed.total_moves, full.total_moves);
        assert_eq!(resumed.temperatures, full.temperatures);
        assert_eq!(resumed.incomplete, full.incomplete);
        assert_eq!(resumed.dynamics.samples(), full.dynamics.samples());
        for (id, _) in nl.cells() {
            assert_eq!(resumed.placement.site_of(id), full.placement.site_of(id));
        }
        verify_routing(&resumed.routing, &arch, &nl, &resumed.placement).unwrap();
    }

    #[test]
    fn resume_rejects_a_checkpoint_for_a_different_design_or_seed() {
        let (arch, nl) = fixture();
        let ckpt = temp_file("rowfpga_engine_resume_mismatch.json");
        remove_checkpoint_family(&ckpt);
        let mut cfg = SimPrConfig::fast().with_seed(2);
        cfg.resilience.temp_budget = Some(2);
        cfg.resilience.checkpoint_path = Some(ckpt.clone());
        cfg.resilience.checkpoint_every = 1;
        SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap();

        let resume_cfg = |seed: u64| {
            let mut cfg = SimPrConfig::fast().with_seed(seed);
            cfg.resilience.resume_path = Some(ckpt.clone());
            cfg
        };

        // Wrong architecture.
        let wide = arch.with_tracks(17).unwrap();
        let err = SimultaneousPlaceRoute::new(resume_cfg(2))
            .run(&wide, &nl)
            .unwrap_err();
        assert!(matches!(
            err,
            LayoutError::Checkpoint(CheckpointError::ArchMismatch { .. })
        ));

        // Wrong seed.
        let err = SimultaneousPlaceRoute::new(resume_cfg(3))
            .run(&arch, &nl)
            .unwrap_err();
        assert!(matches!(
            err,
            LayoutError::Checkpoint(CheckpointError::SeedMismatch { .. })
        ));

        // Missing file.
        let mut cfg = SimPrConfig::fast().with_seed(2);
        cfg.resilience.resume_path = Some(temp_file("rowfpga_engine_no_such_ckpt.json"));
        let err = SimultaneousPlaceRoute::new(cfg)
            .run(&arch, &nl)
            .unwrap_err();
        assert!(matches!(
            err,
            LayoutError::Checkpoint(CheckpointError::Io { .. })
        ));
        remove_checkpoint_family(&ckpt);
    }

    #[test]
    fn resume_falls_back_to_a_generation_when_the_base_checkpoint_is_torn() {
        let (arch, nl) = fixture();
        let ckpt = temp_file("rowfpga_engine_gen_fallback.json");
        remove_checkpoint_family(&ckpt);

        let full = SimultaneousPlaceRoute::new(SimPrConfig::fast().with_seed(11))
            .run(&arch, &nl)
            .unwrap();

        let mut cfg = SimPrConfig::fast().with_seed(11);
        cfg.resilience.temp_budget = Some(5);
        cfg.resilience.checkpoint_path = Some(ckpt.clone());
        cfg.resilience.checkpoint_every = 1;
        SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap();

        let gens = crate::list_generations(&ckpt);
        assert_eq!(
            gens.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![3, 4, 5],
            "default retention keeps the three newest generations"
        );

        // Tear the base snapshot; the newest generation carries the run.
        std::fs::write(&ckpt, "{\"format\":\"rowfpga-checkpoint\"").unwrap();
        let mut cfg = SimPrConfig::fast().with_seed(11);
        cfg.resilience.resume_path = Some(ckpt.clone());
        let resumed = SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap();
        remove_checkpoint_family(&ckpt);

        assert_eq!(resumed.stop_reason, StopReason::Converged);
        assert_eq!(resumed.worst_delay, full.worst_delay);
        assert_eq!(resumed.total_moves, full.total_moves);
        assert_eq!(resumed.temperatures, full.temperatures);
        for (id, _) in nl.cells() {
            assert_eq!(resumed.placement.site_of(id), full.placement.site_of(id));
        }
        verify_routing(&resumed.routing, &arch, &nl, &resumed.placement).unwrap();
    }

    /// Pins the layouts of the fixture at seed 5: worst-delay bits, total
    /// moves, temperatures and occupancy digest, at one and two replicas
    /// and at 6 tracks, where cleanup and final repair both run. A change
    /// that is meant to alter layouts re-records these constants and says
    /// so in CHANGES.md; any other change must leave them alone.
    #[test]
    fn fixture_layouts_are_pinned() {
        let (arch, nl) = fixture();
        let cases = [
            (16, 1, 0x40e97da000000000, 3201, 23, 0x09f70aaf8f401101),
            (16, 2, 0x40e9c8f47ae147ae, 5717, 20, 0xb63607b8612af282),
            (6, 1, 0x40f0eb54fe629460, 2653, 19, 0x661482759c0fc581),
        ];
        for (tracks, threads, worst, moves, temps, digest) in cases {
            let arch = arch.with_tracks(tracks).unwrap();
            let mut cfg = SimPrConfig::fast().with_seed(5);
            cfg.threads = threads;
            let obs = Obs::metrics_only();
            let r = SimultaneousPlaceRoute::new(cfg)
                .run_observed(&arch, &nl, "fixture", &obs)
                .unwrap();
            let case = format!("{tracks} tracks, {threads} replicas");
            assert_eq!(r.worst_delay.to_bits(), worst, "{case}");
            assert_eq!(r.total_moves, moves, "{case}");
            assert_eq!(r.temperatures, temps, "{case}");
            assert_eq!(r.routing.occupancy_digest(), digest, "{case}");
            let (cleanup, repairs) = obs
                .with_session(|s| {
                    let repairs = s.profiler.total("final_repair").map_or(0, |t| t.calls);
                    (s.metrics.counter("cleanup.moves"), repairs)
                })
                .unwrap();
            let starved = tracks < 16;
            assert_eq!(cleanup > 0, starved, "cleanup ran: {case}");
            assert_eq!(repairs > 0, starved, "final repair ran: {case}");
        }
    }
}
