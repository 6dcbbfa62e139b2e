//! Multi-replica annealing: the one annealing loop.
//!
//! `K` replicas of one problem anneal in lockstep, a temperature at a time,
//! each with its own RNG stream ([`replica_seed`]). Every temperature is a
//! fork-join: replica 0 runs [`Annealer::step`] and then
//! [`ReplicaHooks::check_replica`] on the calling thread while replicas
//! `1..K` do the same on scoped threads, so `K = 1` spawns nothing and is
//! the sequential [`Annealer`] stepped one temperature at a time. Between
//! two temperatures the calling thread alone does the boundary's work, in
//! replica order: it merges the replicas' journals, lets
//! [`ReplicaHooks::plan_boundary`] decide whether the run stops and
//! whether the replicas hand over their `(cursor, snapshot)` states, and
//! every [`EXCHANGE_EVERY`] temperatures has each strictly worse,
//! unfinished replica adopt the cheapest replica's layout as the next
//! temperature starts ("parallel moves, serial exchange").
//!
//! The run is **deterministic in `(seed, K)`**: every decision is taken
//! after a join, from what the replicas left behind, so thread scheduling
//! is unobservable.

use std::convert::Infallible;

use rowfpga_obs::{Event, Obs, ReplaySink};

use crate::{AnnealConfig, AnnealCursor, AnnealOutcome, AnnealProblem, Annealer};

/// An annealing problem that can participate in multi-replica exchange:
/// its complete layout state can be exported as plain data and adopted by
/// another replica of the same problem.
pub trait ReplicaProblem: AnnealProblem + Send {
    /// Plain-data export of the layout state (read by adopting replicas on
    /// their own threads).
    type Snapshot: Sync;

    /// Exports the current layout state.
    fn snapshot(&self) -> Self::Snapshot;

    /// Replaces this replica's layout state with `snapshot`, taken from a
    /// replica of the *same* problem. Returns `false`, and leaves this
    /// replica untouched, if the snapshot does not reconstruct.
    fn adopt(&mut self, snapshot: &Self::Snapshot) -> bool;
}

/// Temperatures the replicas run between exchanges.
pub const EXCHANGE_EVERY: usize = 4;

/// The RNG seed of replica `r` for base seed `base`: replica 0 keeps the
/// base seed (so `K = 1` reproduces the sequential run bit-for-bit), and
/// later replicas decorrelate by a golden-ratio stride.
pub fn replica_seed(base: u64, replica: usize) -> u64 {
    base.wrapping_add((replica as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One replica's share of a parallel run.
#[derive(Clone, Debug)]
pub struct ReplicaReport {
    /// The replica's own annealing outcome (its history reflects its own
    /// walk; adopted layouts enter silently between temperatures).
    pub outcome: AnnealOutcome,
    /// How many exchanges ended with this replica adopting another's
    /// layout.
    pub adoptions: usize,
}

/// Result of a parallel multi-replica run.
#[derive(Clone, Debug)]
pub struct ParallelOutcome<S> {
    /// Index of the replica whose final cost was lowest (ties break to the
    /// lowest index).
    pub best_replica: usize,
    /// The best replica's final layout snapshot.
    pub best: S,
    /// The best replica's final cost.
    pub best_cost: f64,
    /// Exchange rounds performed (0 for a single replica).
    pub exchanges: usize,
    /// Per-replica outcomes, indexed by replica.
    pub replicas: Vec<ReplicaReport>,
}

/// What [`anneal_replicas`] returns: replica 0's problem, annealed in
/// place, and the outcome, whose `best` holds the winner's final snapshot
/// unless the winner is replica 0.
pub type ReplicaRun<P> = (P, ParallelOutcome<Option<<P as ReplicaProblem>::Snapshot>>);

/// How each replica starts and checks itself, on its own thread, and what
/// the calling thread does at each temperature boundary.
pub trait ReplicaHooks<P: ReplicaProblem>: Sync {
    /// An error that ends the run; the first one, in replica order, wins.
    type Error: Send;
    /// What a replica's check reports to [`ReplicaHooks::plan_boundary`].
    type Report: Copy + Send;

    /// Builds replica `replica`, journaling to `obs`: its problem and its
    /// annealing schedule, fresh or resumed.
    fn start_replica(&self, replica: usize, obs: &Obs) -> Result<(P, Annealer), Self::Error>;

    /// A replica's own work right after it ran temperature `temp`.
    fn check_replica(
        &self,
        temp: usize,
        problem: &mut P,
        obs: &Obs,
    ) -> Result<Self::Report, Self::Error>;

    /// Decides at boundary `temp`, given every replica's status. The run
    /// also ends once every replica's schedule has terminated; by default
    /// nothing else stops it.
    fn plan_boundary(
        &mut self,
        _temp: usize,
        _replicas: &[ReplicaStatus<Self::Report>],
    ) -> Verdict {
        Verdict::default()
    }

    /// Receives every replica's state, by replica, when the verdict shared.
    fn receive_states(&mut self, _temp: usize, _states: Vec<(AnnealCursor, P::Snapshot)>) {}
}

/// One replica as [`ReplicaHooks::plan_boundary`] sees it.
#[derive(Clone, Copy, Debug)]
pub struct ReplicaStatus<R> {
    /// The replica's current cost.
    pub cost: f64,
    /// Whether its schedule has terminated.
    pub finished: bool,
    /// Its check's report; `None` when it ran no temperature since the
    /// previous boundary (every replica, before a run's first temperature).
    pub report: Option<R>,
}

impl<R> ReplicaStatus<R> {
    /// Whether the replica adopts a layout of cost `winner_cost` offered at
    /// an exchange: only when it is unfinished and strictly worse, which
    /// the winner itself never is.
    fn adopts(&self, winner_cost: f64) -> bool {
        !self.finished && self.cost.total_cmp(&winner_cost).is_gt()
    }
}

/// The decision at a temperature boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// End the run after this boundary.
    pub stop: bool,
    /// Every replica hands [`ReplicaHooks::receive_states`] its
    /// `(cursor, snapshot)` state.
    pub share: bool,
}

/// One replica between temperatures.
struct Replica<P, R> {
    problem: P,
    annealer: Annealer,
    /// Its journal: a buffered session of its own when the run records,
    /// else the caller's.
    obs: Obs,
    buffer: Option<ReplaySink>,
    /// Its check's report on the temperature it ran last, if it ran one.
    report: Option<R>,
    adoptions: usize,
}

impl<P: ReplicaProblem, R: Copy> Replica<P, R> {
    fn status(&self) -> ReplicaStatus<R> {
        ReplicaStatus {
            cost: self.problem.cost(),
            finished: self.annealer.finished(),
            report: self.report,
        }
    }

    /// Runs the temperature after boundary `temp`, first adopting `offer`
    /// (the winner's layout and its cost) if the replica takes it.
    fn step<H>(
        &mut self,
        hooks: &H,
        temp: usize,
        offer: Option<(&P::Snapshot, f64)>,
    ) -> Result<(), H::Error>
    where
        H: ReplicaHooks<P, Report = R>,
    {
        if let Some((layout, _)) = offer.filter(|&(_, cost)| self.status().adopts(cost)) {
            // A layout that does not rebuild leaves the replica as it was;
            // only real adoptions count.
            if self.problem.adopt(layout) {
                self.adoptions += 1;
            } else {
                self.obs.inc("exchange.adopt_failed");
            }
        }
        self.report = None;
        if self.annealer.step(&mut self.problem, &self.obs).is_some() {
            self.report = Some(hooks.check_replica(temp + 1, &mut self.problem, &self.obs)?);
        }
        Ok(())
    }

    fn summary(&self) -> ReplicaReport {
        ReplicaReport {
            outcome: self.annealer.outcome(&self.problem),
            adoptions: self.adoptions,
        }
    }
}

/// Every replica, in replica order.
fn everyone<'t, T>(zero: &'t T, others: &'t [T]) -> impl Iterator<Item = &'t T> {
    std::iter::once(zero).chain(others)
}

/// Runs `work` on `first` on the calling thread and on each of `rest` on a
/// scoped thread of its own, and returns the results in order; with no
/// `rest`, nothing is spawned. A panic in any thread is re-raised here.
fn fork_join<T: Send, U: Send>(
    first: T,
    rest: impl IntoIterator<Item = T>,
    work: impl Fn(T) -> U + Sync,
) -> (U, Vec<U>) {
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (rest.into_iter())
            .map(|item| scope.spawn(move || work(item)))
            .collect();
        let first = work(first);
        let rest = (handles.into_iter())
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect();
        (first, rest)
    })
}

/// Replays the replicas' buffered journal events into the caller's
/// session, in replica order: sequence numbers are re-stamped, span ids
/// and replica ids survive.
fn merge<'t, P: 't, R: 't>(caller: &Obs, team: impl Iterator<Item = &'t Replica<P, R>>) {
    for batch in team.filter_map(|r| r.buffer.as_ref().map(ReplaySink::drain)) {
        caller.with_session(|s| {
            for (event, meta) in &batch {
                s.emit_replayed(event, meta);
            }
        });
    }
}

/// Anneals `replicas` replicas that `hooks` builds, from temperature
/// boundary `first_temp` (0 for a fresh run), until every schedule has
/// terminated or [`ReplicaHooks::plan_boundary`] stops the run (see the
/// module docs).
///
/// A single replica journals straight into `obs`. With `K > 1` and an
/// enabled `obs`, replica `r` records into its own buffered session (replica
/// id `r + 1`, span ids namespaced by `(r + 1) << 32`); the batches are
/// merged into `obs` in replica order at every boundary, each exchange is
/// journaled as one `exchange` event, and the replicas' metrics and phase
/// totals are absorbed at the end, so the merged journal is a pure function
/// of the inputs apart from wall-clock durations.
///
/// # Errors
///
/// Returns the first error, in replica order, that a replica raised while
/// starting or checking itself; the run ends at that boundary.
pub fn anneal_replicas<P, H>(
    hooks: &mut H,
    replicas: usize,
    first_temp: usize,
    obs: &Obs,
) -> Result<ReplicaRun<P>, H::Error>
where
    P: ReplicaProblem,
    H: ReplicaHooks<P>,
{
    let record = replicas > 1 && obs.enabled();
    let start = |r: usize| -> Result<Replica<P, H::Report>, H::Error> {
        let (obs, buffer) = if record {
            let buffer = ReplaySink::new();
            let id = u32::try_from(r + 1).unwrap_or(u32::MAX);
            (Obs::for_replica(id, Box::new(buffer.clone())), Some(buffer))
        } else {
            (obs.clone(), None)
        };
        let (problem, annealer) = hooks.start_replica(r, &obs)?;
        Ok(Replica {
            problem,
            annealer,
            obs,
            buffer,
            report: None,
            adoptions: 0,
        })
    };
    let (zero, others) = fork_join(0, 1..replicas, start);
    let mut zero = zero?;
    let mut others = others.into_iter().collect::<Result<Vec<_>, _>>()?;

    let (mut temp, mut exchanges) = (first_temp, 0);
    let ended = loop {
        merge(obs, everyone(&zero, &others));
        let status: Vec<_> = everyone(&zero, &others).map(Replica::status).collect();
        let verdict = hooks.plan_boundary(temp, &status);
        // The cheapest replica wins; ties break to the lowest index.
        let (winner, winner_cost) = (status.iter().enumerate())
            .min_by(|(_, a), (_, b)| a.cost.total_cmp(&b.cost))
            .map_or((0, f64::INFINITY), |(r, s)| (r, s.cost));
        let all_finished = status.iter().all(|s| s.finished);
        let stop = verdict.stop || all_finished;
        let exchange =
            status.len() > 1 && temp > 0 && (temp.is_multiple_of(EXCHANGE_EVERY) || all_finished);
        let adopters = if exchange && !stop {
            status.iter().filter(|s| s.adopts(winner_cost)).count()
        } else {
            0
        };
        if exchange {
            exchanges += 1;
            obs.emit(Event::Exchange {
                round: (temp - 1) / EXCHANGE_EVERY,
                winner,
                winner_cost,
                adopted: adopters,
            });
        }
        if verdict.share {
            let states = everyone(&zero, &others)
                .map(|r| (r.annealer.cursor(), r.problem.snapshot()))
                .collect();
            hooks.receive_states(temp, states);
        }
        if stop {
            break Ok((winner, winner_cost));
        }
        let offer = (everyone(&zero, &others).nth(winner))
            .filter(|_| adopters > 0)
            .map(|r| r.problem.snapshot());
        let offer = offer.as_ref().map(|layout| (layout, winner_cost));
        let (first, rest) = fork_join(&mut zero, others.iter_mut(), |replica| {
            replica.step(&*hooks, temp, offer)
        });
        temp += 1;
        if let Some(error) = std::iter::once(first).chain(rest).find_map(Result::err) {
            break Err(error);
        }
    };

    merge(obs, everyone(&zero, &others));
    if record {
        for replica in everyone(&zero, &others) {
            let session = replica.obs.with_session(|s| {
                (
                    std::mem::take(&mut s.metrics),
                    std::mem::take(&mut s.profiler),
                )
            });
            if let Some((metrics, profiler)) = session {
                obs.with_session(|s| {
                    s.metrics.absorb(&metrics);
                    s.profiler.absorb(&profiler);
                });
            }
        }
    }
    let (winner, best_cost) = ended?;
    let outcome = ParallelOutcome {
        best_replica: winner,
        best: (everyone(&zero, &others).nth(winner))
            .filter(|_| winner != 0)
            .map(|r| r.problem.snapshot()),
        best_cost,
        exchanges,
        replicas: everyone(&zero, &others).map(Replica::summary).collect(),
    };
    Ok((zero.problem, outcome))
}

/// Builds every replica fresh from a factory; replicas check nothing.
struct Fresh<'c, F> {
    factory: F,
    config: &'c AnnealConfig,
}

impl<P: ReplicaProblem, F: Fn(usize) -> P + Sync> ReplicaHooks<P> for Fresh<'_, F> {
    type Error = Infallible;
    type Report = ();

    fn start_replica(&self, replica: usize, obs: &Obs) -> Result<(P, Annealer), Infallible> {
        let mut problem = (self.factory)(replica);
        let config = AnnealConfig {
            seed: replica_seed(self.config.seed, replica),
            ..self.config.clone()
        };
        let annealer = Annealer::start(&mut problem, &config, obs);
        Ok((problem, annealer))
    }

    fn check_replica(&self, _: usize, _: &mut P, _: &Obs) -> Result<(), Infallible> {
        Ok(())
    }
}

/// Runs `replicas` annealing replicas of the problem `factory` builds,
/// exchanging best layouts every [`EXCHANGE_EVERY`] temperatures.
/// `factory(r)` is called once, on replica `r`'s thread, and must build
/// replica `r`'s starting state; replica `r` anneals with seed
/// [`replica_seed`]`(config.seed, r)`.
///
/// Deterministic in `(config, replicas)`; `replicas == 1` runs on the
/// calling thread and is bit-identical to the sequential [`Annealer`].
pub fn anneal_parallel<P, F>(
    factory: F,
    replicas: usize,
    config: &AnnealConfig,
) -> ParallelOutcome<P::Snapshot>
where
    P: ReplicaProblem,
    F: Fn(usize) -> P + Sync,
{
    let mut hooks = Fresh { factory, config };
    let Ok((problem, out)) = anneal_replicas(&mut hooks, replicas, 0, &Obs::disabled());
    ParallelOutcome {
        best: out.best.unwrap_or_else(|| problem.snapshot()),
        best_replica: out.best_replica,
        best_cost: out.best_cost,
        exchanges: out.exchanges,
        replicas: out.replicas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rowfpga_obs::EventMeta;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use crate::anneal;

    /// Toy replica problem: minimize squared distance from a target vector,
    /// with the vector itself as the exchanged snapshot.
    struct Toy {
        x: Vec<i64>,
        target: Vec<i64>,
        /// Whether `adopt` takes the offered layout.
        accepts: bool,
        /// The replica that built it.
        replica: usize,
    }

    impl Toy {
        fn new(n: usize) -> Toy {
            Toy {
                x: vec![0; n],
                target: (0..n as i64).collect(),
                accepts: true,
                replica: 0,
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

    impl ReplicaProblem for Toy {
        type Snapshot = Vec<i64>;

        fn snapshot(&self) -> Vec<i64> {
            self.x.clone()
        }

        fn adopt(&mut self, snapshot: &Vec<i64>) -> bool {
            if self.accepts {
                self.x.clone_from(snapshot);
            }
            self.accepts
        }
    }

    fn cfg(seed: u64) -> AnnealConfig {
        AnnealConfig {
            seed,
            max_temps: 20,
            ..AnnealConfig::fast()
        }
    }

    fn run(seed: u64, k: usize) -> ParallelOutcome<Vec<i64>> {
        anneal_parallel(|_| Toy::new(8), k, &cfg(seed))
    }

    /// A fresh `k`-replica run of 8-element toys, journaled to `obs`.
    fn observed(seed: u64, k: usize, obs: &Obs) -> ParallelOutcome<Vec<i64>> {
        let config = cfg(seed);
        let mut hooks = Fresh {
            factory: |_| Toy::new(8),
            config: &config,
        };
        let Ok((problem, out)) = anneal_replicas(&mut hooks, k, 0, obs);
        ParallelOutcome {
            best: out.best.unwrap_or_else(|| problem.snapshot()),
            best_replica: out.best_replica,
            best_cost: out.best_cost,
            exchanges: out.exchanges,
            replicas: out.replicas,
        }
    }

    #[test]
    fn single_replica_is_bit_identical_to_the_sequential_engine() {
        let mut seq = Toy::new(8);
        let sequential = anneal(&mut seq, &cfg(11), |_| {});
        let par = run(11, 1);
        assert_eq!(par.best_replica, 0);
        assert_eq!(par.exchanges, 0);
        assert_eq!(par.best, seq.x);
        assert_eq!(par.best_cost, sequential.final_cost);
        let rep = &par.replicas[0].outcome;
        assert_eq!(rep.total_moves, sequential.total_moves);
        assert_eq!(rep.history, sequential.history);
    }

    #[test]
    fn parallel_runs_are_deterministic_in_seed_and_replica_count() {
        for k in [2, 3] {
            let a = run(5, k);
            let b = run(5, k);
            assert_eq!(a.best_replica, b.best_replica);
            assert_eq!(a.best, b.best);
            assert_eq!(a.best_cost, b.best_cost);
            assert_eq!(a.exchanges, b.exchanges);
            for (x, y) in a.replicas.iter().zip(&b.replicas) {
                assert_eq!(x.adoptions, y.adoptions);
                assert_eq!(x.outcome.total_moves, y.outcome.total_moves);
                assert_eq!(x.outcome.final_cost, y.outcome.final_cost);
                assert_eq!(x.outcome.history, y.outcome.history);
            }
        }
    }

    #[test]
    fn replicas_use_distinct_rng_streams() {
        let out = run(5, 3);
        assert_eq!(out.replicas.len(), 3);
        // Different streams explore differently: the full per-temperature
        // histories cannot all coincide.
        let h0 = &out.replicas[0].outcome.history;
        assert!(
            out.replicas[1..].iter().any(|r| r.outcome.history != *h0),
            "replica walks are identical; streams are correlated"
        );
        assert_ne!(replica_seed(5, 0), replica_seed(5, 1));
        assert_eq!(replica_seed(5, 0), 5);
    }

    #[test]
    fn exchange_spreads_the_best_layout() {
        // On a convex toy landscape every replica converges to the
        // optimum; the point here is that the exchange machinery ran and
        // the reported best matches the best replica's final state.
        let out = run(9, 3);
        assert!(out.exchanges > 0);
        let best = &out.replicas[out.best_replica].outcome;
        assert_eq!(out.best_cost, best.final_cost);
        for r in &out.replicas {
            assert!(out.best_cost <= r.outcome.final_cost);
        }
    }

    /// Journal text with wall-clock fields removed, for determinism
    /// comparisons.
    fn normalized_journal(lines: &[String]) -> Vec<String> {
        lines
            .iter()
            .map(|line| rowfpga_obs::json::parse(line).expect("journal line parses"))
            .map(|doc| match doc {
                rowfpga_obs::Json::Obj(pairs) => rowfpga_obs::Json::Obj(
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
    fn observed_parallel_journals_merge_deterministically() {
        let observed_run = |seed: u64, k: usize| {
            let ring = rowfpga_obs::RingSink::new(1 << 16);
            let obs = Obs::with_sink(Box::new(ring.clone()));
            let out = obs.span("anneal", || observed(seed, k, &obs));
            (out, ring.snapshot())
        };

        let (out_a, lines_a) = observed_run(5, 3);
        let (_out_b, lines_b) = observed_run(5, 3);
        // The merged journal is a pure function of (seed, K) apart from
        // wall-clock durations.
        assert_eq!(normalized_journal(&lines_a), normalized_journal(&lines_b));

        // Recording must not perturb the search itself.
        let plain = run(5, 3);
        assert_eq!(out_a.best_replica, plain.best_replica);
        assert_eq!(out_a.best, plain.best);
        assert_eq!(out_a.best_cost, plain.best_cost);
        assert_eq!(out_a.exchanges, plain.exchanges);

        // Replica attribution, span namespacing, exchange rounds, and a
        // monotonic sequence all survive the merge.
        let docs: Vec<_> = lines_a
            .iter()
            .map(|l| rowfpga_obs::json::parse(l).unwrap())
            .collect();
        let metas: Vec<EventMeta> = docs.iter().map(EventMeta::from_json).collect();
        for (i, m) in metas.iter().enumerate() {
            assert_eq!(m.seq, i as u64 + 1, "merged seq is monotonic");
        }
        let replicas_seen: std::collections::BTreeSet<u32> =
            metas.iter().map(|m| m.replica).collect();
        assert!(
            replicas_seen.contains(&1) && replicas_seen.contains(&3),
            "replica streams attributed: {replicas_seen:?}"
        );
        for m in &metas {
            if m.replica > 0 && m.span != 0 {
                assert_eq!(m.span >> 32, u64::from(m.replica), "span namespacing");
            }
        }
        let exchange_count = docs
            .iter()
            .filter(|d| d.get("event").and_then(rowfpga_obs::Json::as_str) == Some("exchange"))
            .count();
        assert_eq!(exchange_count, out_a.exchanges);
    }

    #[test]
    fn observed_parallel_merges_replica_metrics() {
        let ring = rowfpga_obs::RingSink::new(1 << 16);
        let obs = Obs::with_sink(Box::new(ring.clone()));
        let out = observed(7, 2, &obs);
        let total_moves: usize = out.replicas.iter().map(|r| r.outcome.total_moves).sum();
        let counted = obs
            .with_session(|s| {
                s.metrics.counter("anneal.moves") + s.metrics.counter("anneal.warmup_moves")
            })
            .unwrap();
        assert_eq!(counted as usize, total_moves);
        let temp_calls = obs
            .with_session(|s| s.profiler.total("anneal.temperature").map(|t| t.calls))
            .unwrap()
            .unwrap_or(0);
        assert!(temp_calls > 0, "replica phase totals absorbed");
    }

    #[test]
    fn a_refused_adoption_is_counted_as_a_failure_not_an_adoption() {
        let ring = rowfpga_obs::RingSink::new(1 << 16);
        let obs = Obs::with_sink(Box::new(ring.clone()));
        let config = cfg(9);
        let mut hooks = Fresh {
            factory: |_| Toy {
                accepts: false,
                ..Toy::new(8)
            },
            config: &config,
        };
        let Ok((_, out)) = anneal_replicas(&mut hooks, 3, 0, &obs);
        assert!(out.replicas.iter().all(|r| r.adoptions == 0));
        let planned: u64 = ring
            .snapshot()
            .iter()
            .map(|l| rowfpga_obs::json::parse(l).unwrap())
            .filter(|d| d.get("event").and_then(rowfpga_obs::Json::as_str) == Some("exchange"))
            .filter_map(|d| d.get("adopted").and_then(rowfpga_obs::Json::as_u64))
            .sum();
        assert!(planned > 0, "the exchanges planned adoptions");
        let failed = obs.with_session(|s| s.metrics.counter("exchange.adopt_failed"));
        assert_eq!(failed, Some(planned));
    }

    /// Fails to build replica `bad`; the others anneal toys.
    struct FailingStart {
        bad: usize,
    }

    impl ReplicaHooks<Toy> for FailingStart {
        type Error = usize;
        type Report = ();

        fn start_replica(&self, replica: usize, obs: &Obs) -> Result<(Toy, Annealer), usize> {
            if replica == self.bad {
                return Err(replica);
            }
            let mut toy = Toy::new(8);
            let annealer = Annealer::start(&mut toy, &cfg(3), obs);
            Ok((toy, annealer))
        }

        fn check_replica(&self, _: usize, _: &mut Toy, _: &Obs) -> Result<(), usize> {
            Ok(())
        }
    }

    #[test]
    fn a_replica_that_fails_to_start_ends_the_run_with_its_error() {
        for (k, bad) in [(1, 0), (2, 0), (2, 1), (3, 2)] {
            let run = anneal_replicas(&mut FailingStart { bad }, k, 0, &Obs::disabled());
            assert_eq!(run.err(), Some(bad), "K={k}, replica {bad} fails");
        }
    }

    /// Replicas 2 and 1 fail their check at temperature `FAIL_AT`; every
    /// check records the highest temperature any replica ran.
    struct FailingCheck {
        highest: AtomicUsize,
    }

    const FAIL_AT: usize = 3;

    impl ReplicaHooks<Toy> for FailingCheck {
        type Error = usize;
        type Report = ();

        fn start_replica(&self, replica: usize, obs: &Obs) -> Result<(Toy, Annealer), usize> {
            let mut toy = Toy {
                replica,
                ..Toy::new(8)
            };
            let config = AnnealConfig {
                seed: replica_seed(3, replica),
                ..cfg(3)
            };
            let annealer = Annealer::start(&mut toy, &config, obs);
            Ok((toy, annealer))
        }

        fn check_replica(&self, temp: usize, toy: &mut Toy, _: &Obs) -> Result<(), usize> {
            self.highest.fetch_max(temp, Ordering::SeqCst);
            match toy.replica {
                2 | 1 if temp == FAIL_AT => Err(toy.replica),
                _ => Ok(()),
            }
        }
    }

    #[test]
    fn replicas_failing_mid_run_end_it_with_the_first_error_in_replica_order() {
        let mut hooks = FailingCheck {
            highest: AtomicUsize::new(0),
        };
        let run = anneal_replicas(&mut hooks, 3, 0, &Obs::disabled());
        assert_eq!(
            run.err(),
            Some(1),
            "replica 1's error wins over replica 2's"
        );
        assert_eq!(
            hooks.highest.into_inner(),
            FAIL_AT,
            "no replica runs a temperature after the failing one"
        );
    }

    #[test]
    fn best_replica_ties_break_to_the_lowest_index() {
        // All replicas reach cost 0 on this easy landscape.
        let out = anneal_parallel(
            |_| Toy::new(4),
            3,
            &AnnealConfig {
                seed: 3,
                ..AnnealConfig::default()
            },
        );
        if out
            .replicas
            .iter()
            .all(|r| r.outcome.final_cost == out.best_cost)
        {
            assert_eq!(out.best_replica, 0);
        }
    }
}
