//! Property test for multi-replica determinism: for any base seed and
//! replica count, two parallel runs produce identical outcomes — thread
//! scheduling must not be observable.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

use rowfpga_anneal::{
    anneal_parallel, AnnealConfig, AnnealProblem, ParallelOutcome, ReplicaProblem,
};

/// Minimize squared distance from a target vector; the vector itself is
/// the exchanged snapshot.
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

impl ReplicaProblem for Toy {
    type Snapshot = Vec<i64>;

    fn snapshot(&self) -> Vec<i64> {
        self.x.clone()
    }

    fn adopt(&mut self, snapshot: &Vec<i64>) -> bool {
        self.x.clone_from(snapshot);
        true
    }
}

/// The winner's final layout and the outcome.
fn run(seed: u64, k: usize) -> (Vec<i64>, ParallelOutcome) {
    let cfg = AnnealConfig {
        seed,
        max_temps: 15,
        ..AnnealConfig::fast()
    };
    let (winner, outcome) = anneal_parallel(|_| Toy::new(6), k, &cfg);
    (winner.snapshot(), outcome)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Two runs with the same (seed, K) are indistinguishable.
    #[test]
    fn parallel_outcome_is_a_pure_function_of_seed_and_replicas(
        seed in 0u64..10_000,
        k in 1usize..4,
    ) {
        let (a_best, a) = run(seed, k);
        let (b_best, b) = run(seed, k);
        prop_assert_eq!(a.best_replica, b.best_replica);
        prop_assert_eq!(a_best, b_best);
        prop_assert!(a.best_cost == b.best_cost);
        prop_assert_eq!(a.exchanges, b.exchanges);
        prop_assert_eq!(a.replicas.len(), k);
        for (x, y) in a.replicas.iter().zip(&b.replicas) {
            prop_assert_eq!(x.adoptions, y.adoptions);
            prop_assert_eq!(x.outcome.total_moves, y.outcome.total_moves);
            prop_assert_eq!(&x.outcome.history, &y.outcome.history);
        }
    }
}
