//! The complete sequential flow driver: place, then globally route, then
//! detail route, then analyze.

use std::time::Instant;

use rowfpga_anneal::{anneal_obs, AnnealConfig};
use rowfpga_arch::Architecture;
use rowfpga_netlist::Netlist;
use rowfpga_obs::{Event, Json, Obs, RerouteRecord};
use rowfpga_place::MoveWeights;
use rowfpga_route::{route_batch, RouterConfig, RoutingState};
use rowfpga_timing::Sta;

use rowfpga_core::{DynamicsTrace, LayoutError, LayoutResult, StopReason};

use crate::placer::{PlacerConfig, PlacerProblem};

/// Configuration of the sequential flow.
#[derive(Clone, Debug, PartialEq)]
pub struct SeqPrConfig {
    /// Placer cost knobs.
    pub placer: PlacerConfig,
    /// Annealing schedule of the placer. `moves_per_temp` of 0 selects the
    /// automatic `n^(4/3)` budget.
    pub anneal: AnnealConfig,
    /// Router weights (shared with the simultaneous flow for fairness).
    pub router: RouterConfig,
    /// Move class mix of the placer.
    pub move_weights: MoveWeights,
    /// Seed of the initial random placement.
    pub placement_seed: u64,
    /// Rip-up-and-retry rounds of the batch router.
    pub route_passes: usize,
}

impl Default for SeqPrConfig {
    fn default() -> Self {
        Self {
            placer: PlacerConfig::default(),
            anneal: AnnealConfig {
                moves_per_temp: 0,
                ..AnnealConfig::default()
            },
            router: RouterConfig::default(),
            move_weights: MoveWeights::default(),
            placement_seed: 1,
            route_passes: 8,
        }
    }
}

impl SeqPrConfig {
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

/// The traditional place-then-route flow (the paper's TI comparison
/// system, reconstructed).
#[derive(Clone, Debug)]
pub struct SequentialPlaceRoute {
    config: SeqPrConfig,
}

impl SequentialPlaceRoute {
    /// Creates a driver with the given configuration.
    pub fn new(config: SeqPrConfig) -> SequentialPlaceRoute {
        SequentialPlaceRoute { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SeqPrConfig {
        &self.config
    }

    /// Lays out `netlist` on `arch`: annealing placement on estimated
    /// wirelength and congestion, then batch global and detailed routing of
    /// the frozen placement, then timing analysis.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the design does not fit the chip or has a
    /// combinational loop.
    pub fn run(&self, arch: &Architecture, netlist: &Netlist) -> Result<LayoutResult, LayoutError> {
        self.run_observed(arch, netlist, "design", &Obs::disabled())
    }

    /// [`run`](Self::run) with an observability handle: the journal sees a
    /// `run_start` header, one event per placer temperature, a `reroute`
    /// event for the batch routing of the frozen placement, and a `run_end`
    /// footer; the batch-route and STA phases are span-timed.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the design does not fit the chip or has a
    /// combinational loop.
    pub fn run_observed(
        &self,
        arch: &Architecture,
        netlist: &Netlist,
        label: &str,
        obs: &Obs,
    ) -> Result<LayoutResult, LayoutError> {
        // rowfpga-lint: allow(determinism) reason=wall-clock is run telemetry only and never steers the search
        let start = Instant::now();
        obs.emit(Event::RunStart {
            flow: "sequential".into(),
            benchmark: label.into(),
            seed: self.config.placement_seed,
            config: vec![
                ("cells".into(), Json::Num(netlist.num_cells() as f64)),
                ("nets".into(), Json::Num(netlist.num_nets() as f64)),
                (
                    "placement_seed".into(),
                    Json::Num(self.config.placement_seed as f64),
                ),
                (
                    "anneal_seed".into(),
                    Json::Num(self.config.anneal.seed as f64),
                ),
                (
                    "route_passes".into(),
                    Json::Num(self.config.route_passes as f64),
                ),
            ],
        });
        let mut problem = PlacerProblem::new(
            arch,
            netlist,
            self.config.placer,
            self.config.move_weights,
            self.config.placement_seed,
        )?;
        let mut anneal_cfg = self.config.anneal.clone();
        if anneal_cfg.moves_per_temp == 0 {
            anneal_cfg.moves_per_temp = AnnealConfig::moves_for_cells(netlist.num_cells(), 1.0);
        }
        obs.span_start("place.anneal");
        let outcome = anneal_obs(&mut problem, &anneal_cfg, |_| {}, obs);
        obs.span_end("place.anneal");
        let placement = problem.into_placement();

        let mut routing = RoutingState::new(arch, netlist);
        let batch = obs.span("route.batch", || {
            route_batch(
                &mut routing,
                arch,
                netlist,
                &placement,
                &self.config.router,
                self.config.route_passes,
            )
        });
        obs.add("route.detail_failures", batch.detail_failures as u64);
        obs.emit(Event::Reroute {
            scope: "batch".into(),
            stats: RerouteRecord {
                globally_routed: batch.globally_routed,
                detail_routed: batch.detail_routed,
                detail_failures: batch.detail_failures,
            },
        });

        let sta = obs.span("final_sta", || {
            Sta::analyze(arch, netlist, &placement, &routing)
        });
        let sta = sta.map_err(LayoutError::CombLoop)?;
        let critical_path = sta.critical_path(netlist);
        let result = LayoutResult {
            fully_routed: routing.is_fully_routed(),
            globally_unrouted: routing.globally_unrouted(),
            incomplete: routing.incomplete(),
            worst_delay: sta.worst_delay(),
            critical_path,
            dynamics: DynamicsTrace::new(),
            temperatures: outcome.temperatures,
            total_moves: outcome.total_moves,
            runtime: start.elapsed(),
            stop_reason: StopReason::Converged,
            repairs: 0,
            placement,
            routing,
        };
        obs.emit(Event::RunEnd {
            cost: outcome.best_cost,
            worst_delay: result.worst_delay,
            unrouted: result.incomplete,
            total_moves: result.total_moves,
            temperatures: result.temperatures,
            runtime_sec: result.runtime.as_secs_f64(),
            metrics: obs
                .with_session(|s| s.metrics.to_json())
                .unwrap_or(Json::Null),
        });
        obs.flush();
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowfpga_netlist::{generate, GenerateConfig};
    use rowfpga_place::Placement;
    use rowfpga_route::verify_routing;

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

    #[test]
    fn sequential_flow_routes_a_small_design() {
        let (arch, nl) = fixture();
        let result = SequentialPlaceRoute::new(SeqPrConfig::fast())
            .run(&arch, &nl)
            .unwrap();
        assert!(result.fully_routed, "left {} incomplete", result.incomplete);
        assert!(result.worst_delay > 0.0);
        verify_routing(&result.routing, &arch, &nl, &result.placement).unwrap();
        assert!(
            result.dynamics.is_empty(),
            "sequential flow has no dynamics"
        );
    }

    #[test]
    fn placement_improves_over_random_on_wirelength() {
        let (arch, nl) = fixture();
        let random = Placement::random(&arch, &nl, 1).unwrap();
        let total_random: f64 = nl
            .nets()
            .map(|(id, _)| rowfpga_place::hpwl(&arch, &nl, &random, id))
            .sum();
        let result = SequentialPlaceRoute::new(SeqPrConfig::fast())
            .run(&arch, &nl)
            .unwrap();
        let total_placed: f64 = nl
            .nets()
            .map(|(id, _)| rowfpga_place::hpwl(&arch, &nl, &result.placement, id))
            .sum();
        assert!(
            total_placed < total_random,
            "placed {total_placed} vs random {total_random}"
        );
    }

    #[test]
    fn observed_sequential_run_journals_the_batch_route() {
        use rowfpga_obs::{Event, Recorder};
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Capture(Arc<Mutex<Vec<&'static str>>>);
        impl Recorder for Capture {
            fn record(&mut self, event: &Event) {
                self.0.lock().unwrap().push(match event {
                    Event::JournalHeader { .. } => "journal_header",
                    Event::RunStart { .. } => "run_start",
                    Event::Temperature(_) => "temperature",
                    Event::Dynamics(_) => "dynamics",
                    Event::Reroute { .. } => "reroute",
                    Event::RunEnd { .. } => "run_end",
                    _ => "other",
                });
            }
        }

        let (arch, nl) = fixture();
        let kinds = Arc::new(Mutex::new(Vec::new()));
        let obs = Obs::with_sink(Box::new(Capture(kinds.clone())));
        let observed = SequentialPlaceRoute::new(SeqPrConfig::fast())
            .run_observed(&arch, &nl, "fixture", &obs)
            .unwrap();
        let kinds = kinds.lock().unwrap();
        assert_eq!(kinds.first(), Some(&"journal_header"));
        assert_eq!(kinds.get(1), Some(&"run_start"));
        assert_eq!(kinds.last(), Some(&"run_end"));
        assert!(kinds.contains(&"temperature"));
        assert!(kinds.contains(&"reroute"));
        assert!(!kinds.contains(&"dynamics"), "no per-move routing dynamics");

        // Observation must not perturb the layout.
        let plain = SequentialPlaceRoute::new(SeqPrConfig::fast())
            .run(&arch, &nl)
            .unwrap();
        assert_eq!(plain.worst_delay, observed.worst_delay);
        assert_eq!(plain.total_moves, observed.total_moves);
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let (arch, nl) = fixture();
        let run = |seed| {
            SequentialPlaceRoute::new(SeqPrConfig::fast().with_seed(seed))
                .run(&arch, &nl)
                .unwrap()
        };
        let a = run(4);
        let b = run(4);
        assert_eq!(a.worst_delay, b.worst_delay);
        for (id, _) in nl.cells() {
            assert_eq!(a.placement.site_of(id), b.placement.site_of(id));
        }
    }
}
