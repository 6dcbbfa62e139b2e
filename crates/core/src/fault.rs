// rowfpga-lint: allow-file(cfg-hygiene) reason=whole module sits behind the fault-inject feature gate in lib.rs
//! Deterministic fault injection for the resilience test suite.
//!
//! Only compiled under the `fault-inject` feature. A [`FaultPlan`] is a
//! seeded schedule mapping temperature indices to [`InjectedFault`]s; the
//! engine delivers it at each temperature boundary, corrupting the
//! incremental routing or timing state (through the crates' own
//! feature-gated hooks) or sabotaging the next checkpoint write. The
//! suite then proves that the self-audit detects every corruption, that
//! repair restores verifiable state, and that checkpoint crash windows
//! never lose the last complete snapshot.

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

use crate::snapshot::WriteFault;

/// One injectable corruption.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InjectedFault {
    /// Clear the `nth` claimed horizontal-segment owner without touching
    /// the owning net's route (an ownership bookkeeping divergence).
    RouteOwner {
        /// Which claimed segment to hit (wrapped over the claimed set).
        nth: usize,
    },
    /// Drop the tail segment of the `nth` non-empty horizontal run (a
    /// span-coverage divergence).
    RouteRun {
        /// Which run to hit (wrapped over the non-empty runs).
        nth: usize,
    },
    /// Skew the incomplete-net counter by one (a counter divergence).
    RouteCounter,
    /// Skew the incrementally tracked worst delay.
    TimingWorst {
        /// Picoseconds added to the tracked worst delay.
        delta_ps: f64,
    },
    /// Skew one cell's tracked arrival time (may leave the worst delay
    /// untouched — only the per-cell audit catches it).
    TimingArrival {
        /// Cell index to skew (wrapped over the cell count).
        cell: usize,
        /// Picoseconds added to the cell's arrival.
        delta_ps: f64,
    },
    /// Make the next checkpoint write die mid-stream.
    CheckpointShortWrite,
    /// Make the next checkpoint write die between write and rename.
    CheckpointSkipRename,
}

impl InjectedFault {
    /// The checkpoint-write crash window this fault maps to, if any.
    pub fn write_fault(&self) -> Option<WriteFault> {
        match self {
            InjectedFault::CheckpointShortWrite => Some(WriteFault::ShortWrite),
            InjectedFault::CheckpointSkipRename => Some(WriteFault::SkipRename),
            _ => None,
        }
    }
}

/// A deterministic schedule of faults, keyed by temperature index.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    entries: Vec<(usize, InjectedFault)>,
}

impl FaultPlan {
    /// Builds a plan from explicit `(temperature index, fault)` pairs.
    pub fn new(entries: Vec<(usize, InjectedFault)>) -> FaultPlan {
        FaultPlan { entries }
    }

    /// Derives a plan of `count` state faults from a seed, spread over
    /// temperatures `1..=max_temp`. Equal seeds give equal plans.
    pub fn seeded(seed: u64, count: usize, max_temp: usize) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let temp = 1 + rng.gen_range(0..max_temp.max(1));
            let fault = match rng.gen_range(0..5u32) {
                0 => InjectedFault::RouteOwner {
                    nth: rng.gen_range(0..64usize),
                },
                1 => InjectedFault::RouteRun {
                    nth: rng.gen_range(0..64usize),
                },
                2 => InjectedFault::RouteCounter,
                3 => InjectedFault::TimingWorst {
                    delta_ps: 50.0 + f64::from(rng.gen_range(0..1000u32)),
                },
                _ => InjectedFault::TimingArrival {
                    cell: rng.gen_range(0..4096usize),
                    delta_ps: 50.0 + f64::from(rng.gen_range(0..1000u32)),
                },
            };
            entries.push((temp, fault));
        }
        FaultPlan { entries }
    }

    /// The faults scheduled at temperature `temp`, in plan order.
    pub fn at(&self, temp: usize) -> impl Iterator<Item = InjectedFault> + '_ {
        self.entries
            .iter()
            .filter(move |(t, _)| *t == temp)
            .map(|&(_, fault)| fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_bounded() {
        let a = FaultPlan::seeded(11, 8, 20);
        let b = FaultPlan::seeded(11, 8, 20);
        assert_eq!(a, b);
        assert_eq!((1..=20).map(|t| a.at(t).count()).sum::<usize>(), 8);
        let c = FaultPlan::seeded(12, 8, 20);
        assert_ne!(a, c);
    }

    #[test]
    fn at_lists_matching_temps_in_order() {
        let plan = FaultPlan::new(vec![
            (3, InjectedFault::RouteCounter),
            (5, InjectedFault::TimingWorst { delta_ps: 100.0 }),
            (3, InjectedFault::RouteOwner { nth: 0 }),
        ]);
        assert_eq!(plan.at(1).count(), 0);
        assert_eq!(
            plan.at(3).collect::<Vec<_>>(),
            vec![
                InjectedFault::RouteCounter,
                InjectedFault::RouteOwner { nth: 0 }
            ]
        );
        assert_eq!(plan.at(5).count(), 1);
    }

    #[test]
    fn write_faults_map_to_crash_windows() {
        assert_eq!(
            InjectedFault::CheckpointShortWrite.write_fault(),
            Some(WriteFault::ShortWrite)
        );
        assert_eq!(
            InjectedFault::CheckpointSkipRename.write_fault(),
            Some(WriteFault::SkipRename)
        );
        assert_eq!(InjectedFault::RouteCounter.write_fault(), None);
    }
}
