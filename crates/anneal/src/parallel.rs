//! Multi-replica annealing: the one annealing loop.
//!
//! `K` replicas of one problem anneal in lockstep, a temperature at a time,
//! each with its own RNG stream ([`replica_seed`]). Replica 0 runs on the
//! calling thread, so `K = 1` spawns nothing and is the sequential
//! [`Annealer`] stepped one temperature at a time; replicas `1..K` run on
//! scoped threads. Every temperature boundary is a rendezvous at a
//! [`Barrier`]: each replica checks itself ([`ReplicaHooks::check_replica`])
//! and publishes its status, and the [`Coordinator`], on the calling
//! thread, decides whether the run stops and whether the replicas hand it
//! their `(cursor, snapshot)` states. Every
//! [`ParallelConfig::exchange_every`] temperatures each strictly worse,
//! unfinished replica adopts the cheapest replica's layout ("parallel
//! moves, serial exchange"). A boundary costs two barrier waits, and a
//! third when states or a layout change hands.
//!
//! The run is **deterministic in `(seed, K)`**: every decision reads only
//! what the replicas published before a barrier, so thread scheduling is
//! unobservable. Problems never cross threads — each replica is built
//! inside its own thread — so only the plain-data snapshot must be
//! [`Send`].

use std::convert::Infallible;
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

use rowfpga_obs::{Event, EventMeta, MetricsRegistry, Obs, PhaseProfiler, ReplaySink};

use crate::{AnnealConfig, AnnealCursor, AnnealOutcome, AnnealProblem, Annealer};

/// An annealing problem that can participate in multi-replica exchange:
/// its complete layout state can be exported as plain data and adopted by
/// another replica of the same problem.
pub trait ReplicaProblem: AnnealProblem {
    /// Plain-data export of the layout state (crosses threads).
    type Snapshot: Send;

    /// Exports the current layout state.
    fn snapshot(&self) -> Self::Snapshot;

    /// Replaces this replica's layout state with `snapshot`, taken from a
    /// replica of the *same* problem. Returns `false`, and leaves this
    /// replica untouched, if the snapshot does not reconstruct.
    fn adopt(&mut self, snapshot: &Self::Snapshot) -> bool;
}

/// Configuration of the exchange cadence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Temperatures each replica runs between exchanges (minimum 1).
    pub exchange_every: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig { exchange_every: 4 }
    }
}

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

/// How each replica starts and checks itself; shared with every replica
/// thread, and called on the replica's own thread.
pub trait ReplicaHooks<P: ReplicaProblem>: Sync {
    /// An error that ends the run; the first one, in replica order, wins.
    type Error: Send;
    /// What a replica's check tells the coordinator.
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
}

/// One replica as the coordinator sees it at a temperature boundary.
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

/// The coordinator's decision at a temperature boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// End the run after this boundary.
    pub stop: bool,
    /// Every replica hands the coordinator its `(cursor, snapshot)` state.
    pub share: bool,
}

/// The calling thread's side of a replica run; `()` runs every schedule to
/// its end.
pub trait Coordinator<S, R> {
    /// Decides at boundary `temp`, given every replica's status. The run
    /// also ends once every replica's schedule has terminated.
    fn plan_boundary(&mut self, temp: usize, replicas: &[ReplicaStatus<R>]) -> Verdict;

    /// Receives every replica's state, by replica, when the verdict shared.
    fn receive_states(&mut self, temp: usize, states: Vec<(AnnealCursor, S)>);
}

impl<S, R> Coordinator<S, R> for () {
    fn plan_boundary(&mut self, _: usize, _: &[ReplicaStatus<R>]) -> Verdict {
        Verdict::default()
    }

    fn receive_states(&mut self, _: usize, _: Vec<(AnnealCursor, S)>) {}
}

/// What every replica does after a boundary's decision.
#[derive(Clone, Copy, Default)]
struct Plan {
    verdict: Verdict,
    /// The boundary is an exchange round (journaled even if no one adopts).
    exchange: bool,
    /// The cheapest replica (ties break to the lowest index) and its cost.
    winner: usize,
    winner_cost: f64,
    /// How many replicas adopt the winner's layout.
    adopters: usize,
}

impl Plan {
    /// Whether replica `r`, published as `s`, adopts the winner's layout.
    fn adopts<R>(&self, r: usize, s: &ReplicaStatus<R>) -> bool {
        self.exchange
            && !self.verdict.stop
            && r != self.winner
            && !s.finished
            && s.cost.total_cmp(&self.winner_cost).is_gt()
    }

    /// Whether replica `r` offers its layout: to the adopters, or as the
    /// run's final winner when that is not replica 0.
    fn offers(&self, r: usize) -> bool {
        r == self.winner && (self.adopters > 0 || (self.verdict.stop && r != 0))
    }

    /// Whether states or a layout change hands after the decision.
    fn hands_over(&self) -> bool {
        self.verdict.share || self.offers(self.winner)
    }
}

/// One replica's journal events, as its own session buffered them.
type Batch = Vec<(Event, EventMeta)>;

/// A replica's place on the board; only that replica writes it.
struct Slot<S, R> {
    status: ReplicaStatus<R>,
    /// Journal events since the last boundary (at the end: its tail).
    batch: Batch,
    state: Option<(AnnealCursor, S)>,
    /// Its session's metrics and phase totals, left at the end.
    session: Option<(MetricsRegistry, PhaseProfiler)>,
}

/// What the replicas share at a boundary, behind one lock.
struct Board<S, R, E> {
    slots: Vec<Slot<S, R>>,
    error: Option<(usize, E)>,
    plan: Plan,
    exchanges: usize,
}

/// A poisoned lock means a replica thread panicked; that panic is re-raised
/// at join, so the state behind the lock is still safe to read here.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything the replicas of one run share.
struct Team<'h, P: ReplicaProblem, H: ReplicaHooks<P>> {
    hooks: &'h H,
    barrier: Barrier,
    board: Mutex<Board<P::Snapshot, H::Report, H::Error>>,
    /// The winner's layout, for the adopters or, at the end, the caller.
    offer: Mutex<Option<P::Snapshot>>,
    /// With `K > 1` and a recording caller, replicas journal into buffered
    /// sessions that the coordinator merges at every boundary.
    record: bool,
    first_temp: usize,
    exchange_every: usize,
}

impl<P: ReplicaProblem, H: ReplicaHooks<P>> Team<'_, P, H> {
    /// Replica `replica`'s journal: a buffered session of its own (replica
    /// id `replica + 1`) when the run records, else `fallback`.
    fn replica_obs(&self, replica: usize, fallback: Obs) -> (Obs, Option<ReplaySink>) {
        if !self.record {
            return (fallback, None);
        }
        let buffer = ReplaySink::new();
        let id = u32::try_from(replica + 1).unwrap_or(u32::MAX);
        (Obs::for_replica(id, Box::new(buffer.clone())), Some(buffer))
    }

    /// Updates replica `replica`'s slot.
    fn slot(&self, replica: usize, f: impl FnOnce(&mut Slot<P::Snapshot, H::Report>)) {
        if let Some(slot) = lock(&self.board).slots.get_mut(replica) {
            f(slot);
        }
    }

    fn fail(&self, replica: usize, error: H::Error) {
        let mut board = lock(&self.board);
        if board.error.as_ref().is_none_or(|(r, _)| replica < *r) {
            board.error = Some((replica, error));
        }
    }

    /// Boundary `temp` up to the decision: wait until every replica has
    /// published, let the coordinator decide, and read its plan.
    fn meet<C: Coordinator<P::Snapshot, H::Report>>(
        &self,
        temp: usize,
        coordinator: &mut Option<(&mut C, &Obs)>,
    ) -> Plan {
        self.barrier.wait();
        if let Some((coord, caller)) = coordinator {
            self.decide(&mut **coord, caller, temp);
        }
        self.barrier.wait();
        lock(&self.board).plan
    }

    /// Replica `replica`'s loop; replica 0 also carries the coordinator and
    /// the caller's journal.
    fn anneal<C: Coordinator<P::Snapshot, H::Report>>(
        &self,
        replica: usize,
        (mut problem, mut annealer): (P, Annealer),
        obs: &Obs,
        buffer: Option<&ReplaySink>,
        mut coordinator: Option<(&mut C, &Obs)>,
    ) -> (P, ReplicaReport) {
        let (mut temp, mut report, mut adoptions) = (self.first_temp, None, 0);
        loop {
            let status = ReplicaStatus {
                cost: problem.cost(),
                finished: annealer.finished(),
                report,
            };
            let batch = buffer.map(ReplaySink::drain).unwrap_or_default();
            self.slot(replica, |s| (s.status, s.batch) = (status, batch));
            let plan = self.meet(temp, &mut coordinator);
            if plan.hands_over() {
                if plan.verdict.share {
                    let state = (annealer.cursor(), problem.snapshot());
                    self.slot(replica, |s| s.state = Some(state));
                }
                if plan.offers(replica) {
                    *lock(&self.offer) = Some(problem.snapshot());
                }
                self.barrier.wait();
                if let (Some((coord, _)), true) = (coordinator.as_mut(), plan.verdict.share) {
                    let mut board = lock(&self.board);
                    let states = board.slots.iter_mut().filter_map(|s| s.state.take());
                    let states = states.collect();
                    drop(board);
                    coord.receive_states(temp, states);
                }
                if plan.adopts(replica, &status) {
                    // A snapshot that does not rebuild leaves the replica as
                    // it was; only real adoptions count.
                    match lock(&self.offer).as_ref().map(|s| problem.adopt(s)) {
                        Some(true) => adoptions += 1,
                        _ => obs.inc("exchange.adopt_failed"),
                    }
                }
            }
            if plan.verdict.stop {
                break;
            }
            let stepped = annealer.step(&mut problem, obs).is_some();
            temp += 1;
            report = None;
            if stepped {
                match self.hooks.check_replica(temp, &mut problem, obs) {
                    Ok(r) => report = Some(r),
                    Err(e) => self.fail(replica, e),
                }
            }
        }
        if let Some(buffer) = buffer {
            let session = obs.with_session(|s| {
                let metrics = std::mem::take(&mut s.metrics);
                (metrics, std::mem::take(&mut s.profiler))
            });
            self.slot(replica, |s| {
                (s.batch, s.session) = (buffer.drain(), session)
            });
        }
        let outcome = annealer.outcome(&problem);
        (problem, ReplicaReport { outcome, adoptions })
    }

    /// The coordinator's turn at boundary `temp`: merge the replicas'
    /// journal batches, then plan the rest of the boundary. An error raised
    /// by any replica stops the run here, with nothing handed over.
    fn decide<C: Coordinator<P::Snapshot, H::Report>>(
        &self,
        coordinator: &mut C,
        caller: &Obs,
        temp: usize,
    ) {
        let (status, batches, failed) = {
            let mut board = lock(&self.board);
            let status: Vec<_> = board.slots.iter().map(|s| s.status).collect();
            let batches: Vec<Batch> = (board.slots.iter_mut())
                .map(|s| std::mem::take(&mut s.batch))
                .collect();
            (status, batches, board.error.is_some())
        };
        merge(caller, &batches);
        let mut plan = Plan::default();
        plan.verdict.stop = true;
        if !failed {
            let verdict = coordinator.plan_boundary(temp, &status);
            for (r, s) in status.iter().enumerate() {
                if r == 0 || s.cost.total_cmp(&plan.winner_cost).is_lt() {
                    (plan.winner, plan.winner_cost) = (r, s.cost);
                }
            }
            let all_finished = status.iter().all(|s| s.finished);
            plan.verdict = Verdict {
                stop: verdict.stop || all_finished,
                share: verdict.share,
            };
            plan.exchange = status.len() > 1
                && temp > 0
                && (temp.is_multiple_of(self.exchange_every) || all_finished);
            let adopters = status.iter().enumerate();
            plan.adopters = adopters.filter(|&(r, s)| plan.adopts(r, s)).count();
            if plan.exchange {
                caller.emit(Event::Exchange {
                    round: (temp - 1) / self.exchange_every,
                    winner: plan.winner,
                    winner_cost: plan.winner_cost,
                    adopted: plan.adopters,
                });
            }
        }
        let mut board = lock(&self.board);
        board.plan = plan;
        board.exchanges += usize::from(plan.exchange);
    }
}

/// Replays replica journal batches into the caller's session, in order:
/// sequence numbers are re-stamped, span ids and replica ids survive.
fn merge<'b>(caller: &Obs, batches: impl IntoIterator<Item = &'b Batch>) {
    caller.with_session(|s| {
        for (event, meta) in batches.into_iter().flatten() {
            s.emit_replayed(event, meta);
        }
    });
}

/// Anneals `replicas` replicas that `hooks` builds, from temperature
/// boundary `first_temp` (0 for a fresh run), until every schedule has
/// terminated or `coordinator` stops the run (see the module docs).
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
pub fn anneal_replicas<P, H, C>(
    hooks: &H,
    coordinator: &mut C,
    replicas: usize,
    first_temp: usize,
    par: &ParallelConfig,
    obs: &Obs,
) -> Result<ReplicaRun<P>, H::Error>
where
    P: ReplicaProblem,
    H: ReplicaHooks<P>,
    C: Coordinator<P::Snapshot, H::Report>,
{
    let replicas = replicas.max(1);
    let idle = |_| Slot {
        status: ReplicaStatus {
            cost: f64::INFINITY,
            finished: true,
            report: None,
        },
        batch: Vec::new(),
        state: None,
        session: None,
    };
    let team = Team {
        hooks,
        barrier: Barrier::new(replicas),
        board: Mutex::new(Board {
            slots: (0..replicas).map(idle).collect(),
            error: None,
            plan: Plan::default(),
            exchanges: 0,
        }),
        offer: Mutex::new(None),
        record: replicas > 1 && obs.enabled(),
        first_temp,
        exchange_every: par.exchange_every.max(1),
    };
    let (obs0, buffer0) = team.replica_obs(0, obs.clone());
    let live = hooks.start_replica(0, &obs0)?;
    let ((problem, first), others) = std::thread::scope(|scope| {
        let team = &team;
        let handles: Vec<_> = (1..replicas)
            .map(|r| {
                scope.spawn(move || {
                    let (obs, buffer) = team.replica_obs(r, Obs::disabled());
                    match team.hooks.start_replica(r, &obs) {
                        Ok(live) => Some(team.anneal::<C>(r, live, &obs, buffer.as_ref(), None).1),
                        Err(e) => {
                            // Sit out the first boundary, where the error
                            // stops the run.
                            team.fail(r, e);
                            if team.meet::<C>(first_temp, &mut None).hands_over() {
                                team.barrier.wait();
                            }
                            None
                        }
                    }
                })
            })
            .collect();
        let zero = team.anneal(0, live, &obs0, buffer0.as_ref(), Some((coordinator, obs)));
        let others: Vec<Option<ReplicaReport>> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect();
        (zero, others)
    });

    let board = team
        .board
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if team.record {
        merge(obs, board.slots.iter().map(|s| &s.batch));
        obs.with_session(|s| {
            for (metrics, profiler) in board.slots.iter().filter_map(|s| s.session.as_ref()) {
                s.metrics.absorb(metrics);
                s.profiler.absorb(profiler);
            }
        });
    }
    if let Some((_, error)) = board.error {
        return Err(error);
    }
    let winner = board.plan.winner;
    let outcome = ParallelOutcome {
        best_replica: winner,
        best: (team.offer.into_inner())
            .unwrap_or_else(PoisonError::into_inner)
            .filter(|_| winner != 0),
        best_cost: board.plan.winner_cost,
        exchanges: board.exchanges,
        replicas: std::iter::once(first)
            .chain(others.into_iter().flatten())
            .collect(),
    };
    Ok((problem, outcome))
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
/// exchanging best layouts every [`ParallelConfig::exchange_every`]
/// temperatures. `factory(r)` is called once, inside replica `r`'s thread,
/// and must build replica `r`'s starting state; replica `r` anneals with
/// seed [`replica_seed`]`(config.seed, r)`.
///
/// Deterministic in `(config, replicas)`; `replicas == 1` runs on the
/// calling thread and is bit-identical to the sequential [`Annealer`].
pub fn anneal_parallel<P, F>(
    factory: F,
    replicas: usize,
    config: &AnnealConfig,
    par: &ParallelConfig,
) -> ParallelOutcome<P::Snapshot>
where
    P: ReplicaProblem,
    F: Fn(usize) -> P + Sync,
{
    let hooks = Fresh { factory, config };
    let Ok((problem, out)) = anneal_replicas(&hooks, &mut (), replicas, 0, par, &Obs::disabled());
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

    use crate::anneal;

    /// Toy replica problem: minimize squared distance from a target vector,
    /// with the vector itself as the exchanged snapshot.
    struct Toy {
        x: Vec<i64>,
        target: Vec<i64>,
        /// Whether `adopt` takes the offered layout.
        accepts: bool,
    }

    impl Toy {
        fn new(n: usize) -> Toy {
            Toy {
                x: vec![0; n],
                target: (0..n as i64).collect(),
                accepts: true,
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
        anneal_parallel(|_| Toy::new(8), k, &cfg(seed), &ParallelConfig::default())
    }

    /// A fresh `k`-replica run of 8-element toys, journaled to `obs`.
    fn observed(seed: u64, k: usize, obs: &Obs) -> ParallelOutcome<Vec<i64>> {
        let config = cfg(seed);
        let hooks = Fresh {
            factory: |_| Toy::new(8),
            config: &config,
        };
        let par = ParallelConfig::default();
        let Ok((problem, out)) = anneal_replicas(&hooks, &mut (), k, 0, &par, obs);
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
        let hooks = Fresh {
            factory: |_| Toy {
                accepts: false,
                ..Toy::new(8)
            },
            config: &config,
        };
        let par = ParallelConfig::default();
        let Ok((_, out)) = anneal_replicas(&hooks, &mut (), 3, 0, &par, &obs);
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
        let par = ParallelConfig::default();
        for (k, bad) in [(1, 0), (2, 0), (2, 1), (3, 2)] {
            let run = anneal_replicas(&FailingStart { bad }, &mut (), k, 0, &par, &Obs::disabled());
            assert_eq!(run.err(), Some(bad), "K={k}, replica {bad} fails");
        }
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
            &ParallelConfig::default(),
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
