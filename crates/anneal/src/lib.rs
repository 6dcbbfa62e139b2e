//! Generic simulated annealing with an adaptive cooling schedule.
//!
//! The engine implements the scheme of Huang, Romeo and
//! Sangiovanni-Vincentelli (*An Efficient Cooling Schedule for Simulated
//! Annealing*, ICCAD 1986), the schedule the paper's layout tool uses
//! (§3.2): the starting temperature, the temperature decrements and the
//! termination test are all derived at runtime from the observed cost
//! statistics rather than fixed a priori:
//!
//! * **T₀** is set so that the average uphill move observed during a warmup
//!   random walk is accepted with a target probability χ₀;
//! * **decrements** follow `T' = T · exp(−λ·T/σ_T)`, where `σ_T` is the
//!   cost standard deviation measured *at* temperature `T` — rough
//!   landscapes cool slowly, smooth ones quickly — clamped so `T'` never
//!   falls below a fixed fraction of `T`;
//! * **termination** fires when the acceptance ratio stays below a floor
//!   for several consecutive temperatures (the walk has frozen), when the
//!   cost variance vanishes, or at a temperature-count safety bound.
//!
//! Problems implement [`AnnealProblem`]: moves are *applied speculatively*,
//! then either committed or undone, which lets layout problems journal
//! arbitrarily complex side effects (rip-up and reroute cascades) per move.
//!
//! The engine comes in two shapes. [`anneal`] / [`anneal_obs`] run the whole
//! schedule in one call. The step-driven [`Annealer`] exposes one
//! temperature per [`Annealer::step`] call, with the complete schedule state
//! between steps captured as a plain-data [`AnnealCursor`] — the hook the
//! resilience layer uses for checkpointing, deadlines and mid-run audits.
//!
//! [`anneal_replicas`] steps `K` replicas of a [`ReplicaProblem`] in
//! lockstep, one fork-join per temperature — replica 0 on the calling
//! thread, the rest on scoped `std::thread`s — with the
//! [`ReplicaHooks`] boundary work and periodic best-layout exchange on the
//! calling thread between temperatures. It is deterministic in `(seed, K)`
//! and, at `K = 1`, the sequential engine itself; [`anneal_parallel`] is
//! its plain run-to-the-end form.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rowfpga_obs::{Event, Obs, TemperatureRecord};

mod parallel;

pub use parallel::{
    anneal_parallel, anneal_replicas, replica_seed, ParallelOutcome, ReplicaHooks, ReplicaProblem,
    ReplicaReport, ReplicaStatus, Verdict, EXCHANGE_EVERY,
};

/// A combinatorial problem optimizable by the annealing engine.
pub trait AnnealProblem {
    /// Record of one applied move, carrying whatever the problem needs to
    /// undo or finalize it.
    type Applied;

    /// Proposes a random move, applies it speculatively, and returns the
    /// applied-move record together with the cost delta it produced.
    fn propose_and_apply(&mut self, rng: &mut StdRng) -> (Self::Applied, f64);

    /// Reverts a speculatively applied move.
    fn undo(&mut self, applied: Self::Applied);

    /// Finalizes an accepted move (e.g. discards undo journals).
    fn commit(&mut self, applied: Self::Applied);

    /// The current total cost.
    fn cost(&self) -> f64;

    /// Hook invoked after every temperature with that temperature's
    /// statistics; problems use it to adapt cost weights or record
    /// dynamics traces.
    fn on_temperature(&mut self, _stats: &TemperatureStats) {}
}

/// Statistics of one temperature step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TemperatureStats {
    /// Index of the temperature step (0 = first after warmup).
    pub index: usize,
    /// The temperature.
    pub temperature: f64,
    /// Moves attempted at this temperature.
    pub moves: usize,
    /// Moves accepted.
    pub accepted: usize,
    /// Mean cost over the attempted moves.
    pub mean_cost: f64,
    /// Cost standard deviation over the attempted moves.
    pub std_cost: f64,
    /// Cost at the end of the temperature.
    pub current_cost: f64,
    /// Best cost seen so far in the whole run.
    pub best_cost: f64,
}

impl TemperatureStats {
    /// Fraction of attempted moves that were accepted.
    pub fn acceptance_ratio(&self) -> f64 {
        if self.moves == 0 {
            0.0
        } else {
            self.accepted as f64 / self.moves as f64
        }
    }
}

/// Engine configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct AnnealConfig {
    /// Moves attempted at every temperature.
    pub moves_per_temp: usize,
    /// Warmup moves used to derive T₀ (accepted unconditionally).
    pub warmup_moves: usize,
    /// Target acceptance probability of the average uphill warmup move.
    pub initial_acceptance: f64,
    /// Cooling aggressiveness λ of the HRSV decrement.
    pub lambda: f64,
    /// `T'` never falls below this fraction of `T` in one step.
    pub max_decrement: f64,
    /// Terminate after this many consecutive temperatures whose acceptance
    /// ratio is below [`AnnealConfig::min_acceptance`].
    pub stall_temps: usize,
    /// Acceptance-ratio floor for the frozen test.
    pub min_acceptance: f64,
    /// Safety bound on the number of temperatures.
    pub max_temps: usize,
    /// RNG seed; runs are deterministic in it.
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        Self {
            moves_per_temp: 1000,
            warmup_moves: 200,
            initial_acceptance: 0.85,
            lambda: 0.7,
            max_decrement: 0.5,
            stall_temps: 3,
            min_acceptance: 0.02,
            max_temps: 200,
            seed: 1,
        }
    }
}

impl AnnealConfig {
    /// A quick low-effort profile for tests and smoke runs.
    pub fn fast() -> Self {
        Self {
            moves_per_temp: 200,
            warmup_moves: 50,
            max_temps: 60,
            ..Self::default()
        }
    }

    /// A minimal profile for differential fuzzing: just enough schedule to
    /// exercise warmup, a handful of temperatures and the termination test,
    /// so determinism oracles can run complete anneals thousands of times.
    /// Solution quality is irrelevant at this effort level.
    pub fn smoke() -> Self {
        Self {
            moves_per_temp: 60,
            warmup_moves: 20,
            max_temps: 6,
            stall_temps: 2,
            ..Self::default()
        }
    }

    /// The classic TimberWolf guidance for the per-temperature move budget:
    /// proportional to `n^(4/3)` for `n` movable objects.
    pub fn moves_for_cells(n: usize, factor: f64) -> usize {
        ((n as f64).powf(4.0 / 3.0) * factor).ceil().max(32.0) as usize
    }
}

/// Result of an annealing run.
#[derive(Clone, Debug)]
pub struct AnnealOutcome {
    /// Temperatures executed over the whole run (excluding warmup).
    pub temperatures: usize,
    /// Total moves attempted (including warmup).
    pub total_moves: usize,
    /// Cost at termination.
    pub final_cost: f64,
    /// Best cost observed during the run.
    pub best_cost: f64,
    /// Per-temperature history.
    pub history: Vec<TemperatureStats>,
}

/// Serializable snapshot of the annealing schedule at a temperature
/// boundary: everything the engine — besides the problem state itself —
/// needs to continue the walk as if it had never stopped. Captured with
/// [`Annealer::cursor`] and fed back through [`Annealer::resume`].
#[derive(Clone, Debug, PartialEq)]
pub struct AnnealCursor {
    /// Raw xoshiro256++ state words of the move/acceptance RNG stream.
    pub rng_state: [u64; 4],
    /// Temperature the next step will run at.
    pub temperature: f64,
    /// Index of the next temperature step (= temperatures completed so far).
    pub next_index: usize,
    /// Consecutive below-floor-acceptance temperatures seen so far.
    pub stalled: usize,
    /// Total moves attempted so far (including warmup).
    pub total_moves: usize,
    /// Best cost observed so far.
    pub best_cost: f64,
    /// Whether the termination test has already fired.
    pub frozen: bool,
}

/// Step-driven annealing engine.
///
/// [`anneal`] and [`anneal_obs`] drive it to completion in one call; callers
/// that need to checkpoint, impose deadlines, or audit incremental state
/// between temperatures instead call [`Annealer::start`] (which runs the
/// warmup walk and derives T₀) and then [`Annealer::step`] once per
/// temperature until [`Annealer::finished`]. The schedule state between
/// steps is a plain-data [`AnnealCursor`]; [`Annealer::resume`] rebuilds an
/// engine from one so a stopped run continues bit-identically — provided
/// the caller has restored the problem state to the same boundary.
#[derive(Debug)]
pub struct Annealer {
    config: AnnealConfig,
    rng: StdRng,
    temperature: f64,
    next_index: usize,
    stalled: usize,
    total_moves: usize,
    best_cost: f64,
    frozen: bool,
    history: Vec<TemperatureStats>,
}

impl Annealer {
    /// Runs the warmup random walk on `problem`, derives the starting
    /// temperature, and returns an engine ready to [`step`](Self::step).
    pub fn start<P: AnnealProblem>(problem: &mut P, config: &AnnealConfig, obs: &Obs) -> Annealer {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut total_moves = 0usize;
        let mut best_cost = problem.cost();

        // Warmup random walk: accept everything, observe uphill deltas.
        obs.span_start("anneal.warmup");
        let mut uphill_sum = 0.0f64;
        let mut uphill_count = 0usize;
        let mut abs_sum = 0.0f64;
        for _ in 0..config.warmup_moves {
            let (applied, delta) = problem.propose_and_apply(&mut rng);
            problem.commit(applied);
            total_moves += 1;
            if delta > 0.0 {
                uphill_sum += delta;
                uphill_count += 1;
            }
            abs_sum += delta.abs();
            best_cost = best_cost.min(problem.cost());
        }
        obs.add("anneal.warmup_moves", config.warmup_moves as u64);
        obs.span_end("anneal.warmup");
        let avg_uphill = if uphill_count > 0 {
            uphill_sum / uphill_count as f64
        } else if config.warmup_moves > 0 {
            (abs_sum / config.warmup_moves as f64).max(1e-12)
        } else {
            1.0
        };
        let chi = config.initial_acceptance.clamp(0.01, 0.99);
        let temperature = (avg_uphill / (1.0 / chi).ln()).max(1e-12);

        Annealer {
            config: config.clone(),
            rng,
            temperature,
            next_index: 0,
            stalled: 0,
            total_moves,
            best_cost,
            frozen: false,
            history: Vec::new(),
        }
    }

    /// Rebuilds an engine from a [`cursor`](Self::cursor) snapshot, skipping
    /// warmup. The caller must restore the problem state to the same
    /// temperature boundary the cursor was captured at.
    pub fn resume(config: &AnnealConfig, cursor: &AnnealCursor) -> Annealer {
        Annealer {
            config: config.clone(),
            rng: StdRng::from_state(cursor.rng_state),
            temperature: cursor.temperature,
            next_index: cursor.next_index,
            stalled: cursor.stalled,
            total_moves: cursor.total_moves,
            best_cost: cursor.best_cost,
            frozen: cursor.frozen,
            history: Vec::new(),
        }
    }

    /// Snapshot of the schedule state at the current temperature boundary.
    pub fn cursor(&self) -> AnnealCursor {
        AnnealCursor {
            rng_state: self.rng.state(),
            temperature: self.temperature,
            next_index: self.next_index,
            stalled: self.stalled,
            total_moves: self.total_moves,
            best_cost: self.best_cost,
            frozen: self.frozen,
        }
    }

    /// Whether the schedule has terminated (frozen, flat, or at the
    /// temperature-count safety bound).
    pub fn finished(&self) -> bool {
        self.frozen || self.next_index >= self.config.max_temps
    }

    /// Temperatures completed over the whole run, including any before a
    /// [`resume`](Self::resume).
    pub fn temperatures_completed(&self) -> usize {
        self.next_index
    }

    /// Total moves attempted over the whole run (including warmup).
    pub fn total_moves(&self) -> usize {
        self.total_moves
    }

    /// Best cost observed over the whole run.
    pub fn best_cost(&self) -> f64 {
        self.best_cost
    }

    /// Per-temperature statistics recorded *this session* (a resumed engine
    /// starts with an empty history).
    pub fn history(&self) -> &[TemperatureStats] {
        &self.history
    }

    /// Runs one temperature: `moves_per_temp` Metropolis moves, the
    /// problem's [`AnnealProblem::on_temperature`] hook, obs counters and a
    /// structured [`Event::Temperature`], then the termination test and the
    /// clamped HRSV decrement. Returns `None` once the schedule has
    /// terminated.
    pub fn step<P: AnnealProblem>(
        &mut self,
        problem: &mut P,
        obs: &Obs,
    ) -> Option<TemperatureStats> {
        if self.finished() {
            return None;
        }
        obs.span_start("anneal.temperature");
        let temperature = self.temperature;
        let mut accepted = 0usize;
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for _ in 0..self.config.moves_per_temp {
            let (applied, delta) = problem.propose_and_apply(&mut self.rng);
            self.total_moves += 1;
            let accept = delta <= 0.0 || self.rng.gen::<f64>() < (-delta / temperature).exp();
            if accept {
                problem.commit(applied);
                accepted += 1;
            } else {
                problem.undo(applied);
            }
            let c = problem.cost();
            sum += c;
            sum_sq += c * c;
            if c < self.best_cost {
                self.best_cost = c;
            }
        }
        let n = self.config.moves_per_temp.max(1) as f64;
        let mean = sum / n;
        let var = (sum_sq / n - mean * mean).max(0.0);
        let std = var.sqrt();
        let stats = TemperatureStats {
            index: self.next_index,
            temperature,
            moves: self.config.moves_per_temp,
            accepted,
            mean_cost: mean,
            std_cost: std,
            current_cost: problem.cost(),
            best_cost: self.best_cost,
        };
        problem.on_temperature(&stats);
        obs.add("anneal.moves", stats.moves as u64);
        obs.add("anneal.accepted", stats.accepted as u64);
        obs.add("anneal.rejected", (stats.moves - stats.accepted) as u64);
        obs.emit(Event::Temperature(TemperatureRecord {
            index: stats.index,
            temperature: stats.temperature,
            moves: stats.moves,
            accepted: stats.accepted,
            mean_cost: stats.mean_cost,
            std_cost: stats.std_cost,
            current_cost: stats.current_cost,
            best_cost: stats.best_cost,
        }));
        self.history.push(stats);
        obs.span_end("anneal.temperature");
        self.next_index += 1;

        // Frozen test.
        if stats.acceptance_ratio() < self.config.min_acceptance {
            self.stalled += 1;
            if self.stalled >= self.config.stall_temps {
                self.frozen = true;
            }
        } else {
            self.stalled = 0;
        }
        if !self.frozen {
            if std <= f64::EPSILON {
                self.frozen = true;
            } else {
                // HRSV decrement, clamped.
                let next = temperature * (-self.config.lambda * temperature / std).exp();
                self.temperature = next.max(temperature * self.config.max_decrement);
            }
        }
        Some(stats)
    }

    /// Packages the run summary. `temperatures` and `total_moves` cover the
    /// whole run, including any before a [`resume`](Self::resume); `history`
    /// holds this session's temperatures only.
    pub fn outcome<P: AnnealProblem>(&self, problem: &P) -> AnnealOutcome {
        AnnealOutcome {
            temperatures: self.next_index,
            total_moves: self.total_moves,
            final_cost: problem.cost(),
            best_cost: self.best_cost,
            history: self.history.clone(),
        }
    }
}

/// Runs the annealing engine on `problem`.
///
/// `observer` is called once per temperature (after the problem's own
/// [`AnnealProblem::on_temperature`] hook) — useful for logging and for
/// recording dynamics traces.
pub fn anneal<P: AnnealProblem>(
    problem: &mut P,
    config: &AnnealConfig,
    observer: impl FnMut(&TemperatureStats),
) -> AnnealOutcome {
    anneal_obs(problem, config, observer, &Obs::disabled())
}

/// Like [`anneal`], with an observability handle: phase spans (`warmup`,
/// `temperature`), move counters and one structured
/// [`Event::Temperature`] per temperature flow into `obs`. A disabled
/// handle makes this identical to [`anneal`].
pub fn anneal_obs<P: AnnealProblem>(
    problem: &mut P,
    config: &AnnealConfig,
    mut observer: impl FnMut(&TemperatureStats),
    obs: &Obs,
) -> AnnealOutcome {
    let mut engine = Annealer::start(problem, config, obs);
    while let Some(stats) = engine.step(problem, obs) {
        observer(&stats);
    }
    engine.outcome(problem)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy problem: minimize the squared distance of a vector of integers
    /// from a target vector; moves tweak one coordinate by ±1.
    struct Toy {
        x: Vec<i64>,
        target: Vec<i64>,
    }

    impl Toy {
        fn new(n: usize) -> Toy {
            Toy {
                x: vec![0; n],
                target: (0..n as i64).collect(),
            }
        }
        fn cost_of(&self) -> f64 {
            self.x
                .iter()
                .zip(&self.target)
                .map(|(a, b)| ((a - b) * (a - b)) as f64)
                .sum()
        }
    }

    impl AnnealProblem for Toy {
        type Applied = (usize, i64);

        fn propose_and_apply(&mut self, rng: &mut StdRng) -> (Self::Applied, f64) {
            let i = rng.gen_range(0..self.x.len());
            let step = if rng.gen_bool(0.5) { 1 } else { -1 };
            let before = self.cost_of();
            self.x[i] += step;
            ((i, step), self.cost_of() - before)
        }

        fn undo(&mut self, (i, step): Self::Applied) {
            self.x[i] -= step;
        }

        fn commit(&mut self, _applied: Self::Applied) {}

        fn cost(&self) -> f64 {
            self.cost_of()
        }
    }

    #[test]
    fn toy_problem_converges_to_optimum() {
        let mut toy = Toy::new(8);
        let out = anneal(&mut toy, &AnnealConfig::default(), |_| {});
        assert_eq!(out.final_cost, 0.0, "x = {:?}", toy.x);
        assert_eq!(out.best_cost, 0.0);
        assert!(out.temperatures >= 2);
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let run = |seed| {
            let mut toy = Toy::new(6);
            let out = anneal(
                &mut toy,
                &AnnealConfig {
                    seed,
                    max_temps: 20,
                    ..AnnealConfig::fast()
                },
                |_| {},
            );
            (out.final_cost, out.total_moves, toy.x)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn temperature_decreases_monotonically() {
        let mut toy = Toy::new(10);
        let out = anneal(&mut toy, &AnnealConfig::fast(), |_| {});
        for w in out.history.windows(2) {
            assert!(w[1].temperature < w[0].temperature);
            assert!(
                w[1].temperature >= w[0].temperature * 0.5 - 1e-12,
                "decrement clamp violated"
            );
        }
    }

    #[test]
    fn observer_sees_every_temperature() {
        let mut toy = Toy::new(4);
        let mut seen = 0usize;
        let out = anneal(&mut toy, &AnnealConfig::fast(), |s| {
            assert_eq!(s.index, seen);
            seen += 1;
        });
        assert_eq!(seen, out.temperatures);
    }

    #[test]
    fn acceptance_starts_high_and_freezes() {
        let mut toy = Toy::new(12);
        let out = anneal(&mut toy, &AnnealConfig::default(), |_| {});
        let first = out.history.first().unwrap();
        let last = out.history.last().unwrap();
        assert!(
            first.acceptance_ratio() > 0.5,
            "hot regime should accept freely ({})",
            first.acceptance_ratio()
        );
        assert!(
            last.acceptance_ratio() < first.acceptance_ratio(),
            "acceptance must fall as the walk freezes"
        );
    }

    #[test]
    fn obs_handle_records_moves_spans_and_temperature_events() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        struct CountTemps(Arc<AtomicUsize>);
        impl rowfpga_obs::Recorder for CountTemps {
            fn record(&mut self, event: &Event) {
                if matches!(event, Event::Temperature(_)) {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        let temps_seen = Arc::new(AtomicUsize::new(0));
        let obs = Obs::with_sink(Box::new(CountTemps(temps_seen.clone())));
        let mut toy = Toy::new(6);
        let out = anneal_obs(&mut toy, &AnnealConfig::fast(), |_| {}, &obs);

        assert_eq!(temps_seen.load(Ordering::Relaxed), out.temperatures);
        obs.with_session(|s| {
            assert_eq!(
                s.metrics.counter("anneal.moves") + s.metrics.counter("anneal.warmup_moves"),
                out.total_moves as u64
            );
            assert_eq!(
                s.metrics.counter("anneal.accepted") + s.metrics.counter("anneal.rejected"),
                s.metrics.counter("anneal.moves")
            );
            assert_eq!(s.profiler.total("anneal.warmup").unwrap().calls, 1);
            assert_eq!(
                s.profiler.total("anneal.temperature").unwrap().calls,
                out.temperatures as u64
            );
        })
        .unwrap();
    }

    #[test]
    fn disabled_obs_changes_nothing() {
        let run = |obs: &Obs| {
            let mut toy = Toy::new(6);
            let out = anneal_obs(&mut toy, &AnnealConfig::fast(), |_| {}, obs);
            (out.final_cost, out.total_moves, toy.x)
        };
        assert_eq!(run(&Obs::disabled()), run(&Obs::metrics_only()));
    }

    #[test]
    fn moves_for_cells_scales_superlinearly() {
        let small = AnnealConfig::moves_for_cells(100, 1.0);
        let large = AnnealConfig::moves_for_cells(200, 1.0);
        assert!(large as f64 > 2.0 * small as f64 * 0.9);
        assert!(AnnealConfig::moves_for_cells(1, 1.0) >= 32);
    }

    #[test]
    fn rejected_moves_are_undone() {
        // With an ultra-cold start the run is a greedy descent: the final
        // cost can never exceed the starting cost.
        struct Watch(Toy);
        impl AnnealProblem for Watch {
            type Applied = (usize, i64);
            fn propose_and_apply(&mut self, rng: &mut StdRng) -> (Self::Applied, f64) {
                self.0.propose_and_apply(rng)
            }
            fn undo(&mut self, a: Self::Applied) {
                self.0.undo(a)
            }
            fn commit(&mut self, a: Self::Applied) {
                self.0.commit(a)
            }
            fn cost(&self) -> f64 {
                self.0.cost()
            }
        }
        let mut w = Watch(Toy::new(5));
        let out = anneal(
            &mut w,
            &AnnealConfig {
                warmup_moves: 0,
                initial_acceptance: 0.01, // ultra-cold start: greedy descent
                moves_per_temp: 500,
                max_temps: 10,
                ..AnnealConfig::default()
            },
            |_| {},
        );
        // greedy descent from x=0 toward the target strictly improves
        assert!(out.final_cost <= 140.0); // initial cost = 0²+1²+…+4² = 30… always ≤ start
        assert_eq!(out.final_cost, w.cost());
    }

    #[test]
    fn step_driven_engine_matches_monolithic_run() {
        let cfg = AnnealConfig {
            max_temps: 25,
            ..AnnealConfig::fast()
        };
        let mut a = Toy::new(7);
        let whole = anneal(&mut a, &cfg, |_| {});

        let mut b = Toy::new(7);
        let obs = Obs::disabled();
        let mut engine = Annealer::start(&mut b, &cfg, &obs);
        while engine.step(&mut b, &obs).is_some() {}
        let stepped = engine.outcome(&b);

        assert_eq!(whole.temperatures, stepped.temperatures);
        assert_eq!(whole.total_moves, stepped.total_moves);
        assert_eq!(whole.final_cost, stepped.final_cost);
        assert_eq!(whole.best_cost, stepped.best_cost);
        assert_eq!(whole.history, stepped.history);
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn cursor_resume_is_bit_identical_to_uninterrupted_run() {
        let cfg = AnnealConfig {
            max_temps: 30,
            ..AnnealConfig::fast()
        };
        let obs = Obs::disabled();

        // Uninterrupted reference run.
        let mut r = Toy::new(9);
        let mut reference = Annealer::start(&mut r, &cfg, &obs);
        while reference.step(&mut r, &obs).is_some() {}

        // Stop after 5 temperatures, capture the cursor, rebuild the
        // problem state (Toy state survives in place here; the layout
        // engine reconstructs it from the snapshot) and resume.
        let mut s = Toy::new(9);
        let mut first = Annealer::start(&mut s, &cfg, &obs);
        for _ in 0..5 {
            assert!(first.step(&mut s, &obs).is_some());
        }
        let cursor = first.cursor();
        drop(first);
        let mut second = Annealer::resume(&cfg, &cursor);
        while second.step(&mut s, &obs).is_some() {}

        assert_eq!(r.x, s.x);
        assert_eq!(
            reference.temperatures_completed(),
            second.temperatures_completed()
        );
        assert_eq!(reference.total_moves(), second.total_moves());
        assert_eq!(reference.best_cost(), second.best_cost());
        assert_eq!(reference.cursor(), second.cursor());
    }

    #[test]
    fn resuming_a_frozen_cursor_steps_zero_times() {
        let cfg = AnnealConfig::fast();
        let obs = Obs::disabled();
        let mut toy = Toy::new(5);
        let mut engine = Annealer::start(&mut toy, &cfg, &obs);
        while engine.step(&mut toy, &obs).is_some() {}
        assert!(engine.finished());
        let cursor = engine.cursor();
        let mut resumed = Annealer::resume(&cfg, &cursor);
        assert!(resumed.finished());
        assert!(resumed.step(&mut toy, &obs).is_none());
    }
}
