//! Differential oracles: the incremental engine compared against
//! from-scratch ground truth.
//!
//! The paper's whole speedup rests on incremental rerouting and retiming
//! staying equivalent to full re-evaluation, so each oracle here re-derives
//! one slice of state the slow way and compares:
//!
//! * **state vs rebuild** — occupancy and queue bookkeeping re-derived from
//!   the per-net routes (export → restore), and a from-scratch static
//!   timing analysis, compared to the incrementally tracked values bit for
//!   bit;
//! * **rollback identity** — apply-then-undo leaves a bit-identical state
//!   digest;
//! * **checkpoint round trip** — serialize → parse → restore reproduces the
//!   layout exactly;
//! * **K-replica determinism** — parallel annealing is deterministic in
//!   (seed, K), and K = 1 is bit-identical to the sequential engine.

use std::fmt;

use rowfpga_anneal::{anneal_parallel, AnnealConfig, AnnealCursor, AnnealProblem};
use rowfpga_arch::Architecture;
use rowfpga_core::{
    arch_fingerprint, netlist_fingerprint, Checkpoint, CostConfig, LayoutProblem, WriteFault,
    CHECKPOINT_VERSION,
};
use rowfpga_netlist::Netlist;
use rowfpga_place::{Move, MoveWeights};
use rowfpga_route::{NetRouteSnapshot, RouterConfig, RoutingState};
use rowfpga_timing::TimingState;

/// A divergence found by one of the differential oracles.
#[derive(Clone, Debug, PartialEq)]
pub struct OracleFailure {
    /// Which oracle tripped.
    pub oracle: &'static str,
    /// What diverged.
    pub detail: String,
}

impl OracleFailure {
    pub(crate) fn new(oracle: &'static str, detail: String) -> OracleFailure {
        OracleFailure { oracle, detail }
    }
}

impl fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oracle '{}' diverged: {}", self.oracle, self.detail)
    }
}

impl std::error::Error for OracleFailure {}

/// A full bit-level digest of an evolving layout: everything a move could
/// touch. Two digests compare equal iff placement, routing occupancy,
/// per-net routes and tracked timing are identical, delays compared by
/// their bits.
#[derive(Clone, Debug, PartialEq)]
pub struct StateDigest {
    sites: Vec<usize>,
    pinmaps: Vec<u16>,
    routes: Vec<NetRouteSnapshot>,
    occupancy: u64,
    globally_unrouted: usize,
    incomplete: usize,
    worst_bits: u64,
    arrival_bits: Vec<u64>,
}

impl StateDigest {
    /// Captures the digest of a live problem.
    pub fn of(problem: &LayoutProblem) -> StateDigest {
        StateDigest {
            sites: problem.placement().export_sites(),
            pinmaps: problem.placement().export_pinmaps(),
            routes: problem.routing().export_routes(),
            occupancy: problem.routing().occupancy_digest(),
            globally_unrouted: problem.routing().globally_unrouted(),
            incomplete: problem.routing().incomplete(),
            worst_bits: problem.timing().worst().to_bits(),
            arrival_bits: problem
                .timing()
                .arrivals()
                .iter()
                .map(|a| a.to_bits())
                .collect(),
        }
    }

    /// Describes the first differing component between two digests.
    pub fn diff(&self, other: &StateDigest) -> Option<String> {
        if self.sites != other.sites {
            return Some("cell→site assignment differs".into());
        }
        if self.pinmaps != other.pinmaps {
            return Some("pinmap choices differ".into());
        }
        if self.routes != other.routes {
            let net = self
                .routes
                .iter()
                .zip(&other.routes)
                .position(|(a, b)| a != b);
            return Some(format!("per-net routes differ (first at net {net:?})"));
        }
        if self.occupancy != other.occupancy {
            return Some("segment-ownership digest differs".into());
        }
        if self.globally_unrouted != other.globally_unrouted || self.incomplete != other.incomplete
        {
            return Some(format!(
                "unrouted counters differ: G {} vs {}, D {} vs {}",
                self.globally_unrouted, other.globally_unrouted, self.incomplete, other.incomplete
            ));
        }
        if self.worst_bits != other.worst_bits {
            return Some(format!(
                "worst delay differs: {} vs {}",
                f64::from_bits(self.worst_bits),
                f64::from_bits(other.worst_bits)
            ));
        }
        if self.arrival_bits != other.arrival_bits {
            let cell = self
                .arrival_bits
                .iter()
                .zip(&other.arrival_bits)
                .position(|(a, b)| a != b);
            return Some(format!("cell arrivals differ (first at cell {cell:?})"));
        }
        None
    }
}

/// **State-vs-rebuild oracle.** Re-derives the routing occupancy, queue
/// bookkeeping and counters from the per-net routes alone (export →
/// restore, the checkpoint path), and a from-scratch timing analysis, and
/// compares both against the incrementally maintained state, timing bit
/// for bit. Also runs the full structural-invariant library.
pub fn differential_audit(
    arch: &Architecture,
    netlist: &Netlist,
    problem: &LayoutProblem,
) -> Result<(), OracleFailure> {
    const NAME: &str = "state-vs-rebuild";
    crate::invariants::check_all(arch, netlist, problem.placement(), problem.routing())
        .map_err(|v| OracleFailure::new(NAME, v.to_string()))?;

    // Routing: rebuild occupancy from the routes and compare wholesale.
    let rebuilt = RoutingState::restore(arch, netlist, &problem.routing().export_routes())
        .map_err(|e| OracleFailure::new(NAME, format!("routes do not restore: {e}")))?;
    if rebuilt.occupancy_digest() != problem.routing().occupancy_digest() {
        return Err(OracleFailure::new(
            NAME,
            "segment ownership diverged from the ownership re-derived from routes".into(),
        ));
    }
    if rebuilt.globally_unrouted() != problem.routing().globally_unrouted()
        || rebuilt.incomplete() != problem.routing().incomplete()
    {
        return Err(OracleFailure::new(
            NAME,
            format!(
                "counters diverged: incremental G={} D={}, rebuilt G={} D={}",
                problem.routing().globally_unrouted(),
                problem.routing().incomplete(),
                rebuilt.globally_unrouted(),
                rebuilt.incomplete()
            ),
        ));
    }

    // Timing: from-scratch analysis, compared by bits.
    let oracle = TimingState::new(arch, netlist, problem.placement(), problem.routing())
        .map_err(|e| OracleFailure::new(NAME, format!("timing oracle: {e}")))?;
    if oracle.worst().to_bits() != problem.timing().worst().to_bits() {
        return Err(OracleFailure::new(
            NAME,
            format!(
                "worst delay diverged: incremental {} vs from-scratch {}",
                problem.timing().worst(),
                oracle.worst()
            ),
        ));
    }
    for (cell, _) in netlist.cells() {
        let tracked = problem.timing().arrival(cell);
        let truth = oracle.arrival(cell);
        if tracked.to_bits() != truth.to_bits() {
            return Err(OracleFailure::new(
                NAME,
                format!(
                    "arrival diverged at {cell}: incremental {tracked} vs from-scratch {truth}"
                ),
            ));
        }
    }
    Ok(())
}

/// **Rollback identity oracle.** Applies `mv` through the full cascade and
/// immediately rolls it back; the complete state digest must be
/// bit-identical to before. Returns the digest so callers can amortize it.
pub fn rollback_identity(problem: &mut LayoutProblem, mv: Move) -> Result<(), OracleFailure> {
    let before = StateDigest::of(problem);
    let (applied, _) = problem.apply_move(mv);
    problem.undo(applied);
    let after = StateDigest::of(problem);
    match before.diff(&after) {
        None => Ok(()),
        Some(d) => Err(OracleFailure::new(
            "rollback-identity",
            format!("apply-then-undo changed state: {d}"),
        )),
    }
}

/// Builds a complete checkpoint of the live problem around a synthetic
/// anneal cursor (deterministic in `seed`), for exercising the
/// serialization and crash-recovery paths without running the annealer.
pub fn synthetic_checkpoint(
    arch: &Architecture,
    netlist: &Netlist,
    problem: &LayoutProblem,
    seed: u64,
) -> Checkpoint {
    Checkpoint {
        version: CHECKPOINT_VERSION,
        arch_fingerprint: arch_fingerprint(arch),
        netlist_fingerprint: netlist_fingerprint(netlist),
        placement_seed: seed,
        anneal_seed: seed ^ 0x9e37,
        repairs: 0,
        temp: 3,
        replicas: vec![(
            AnnealCursor {
                rng_state: [seed, seed ^ 0xdead, seed ^ 0xbeef, !seed],
                temperature: 12.5,
                next_index: 3,
                stalled: 1,
                total_moves: 4242,
                best_cost: 17.25,
                frozen: false,
            },
            problem.snapshot(),
        )],
        best: None,
    }
}

/// **Checkpoint round-trip oracle.** Serializes the live problem into a
/// full checkpoint (JSON text), parses it back, validates the header,
/// restores a fresh problem from it, and requires the restored problem's
/// [`StateDigest`] to equal the live one: the layout and the re-derived
/// timing, bit for bit.
pub fn checkpoint_roundtrip(
    arch: &Architecture,
    netlist: &Netlist,
    problem: &LayoutProblem,
    router_cfg: RouterConfig,
    cost_cfg: CostConfig,
    move_weights: MoveWeights,
    seed: u64,
) -> Result<(), OracleFailure> {
    const NAME: &str = "checkpoint-roundtrip";
    let ckpt = synthetic_checkpoint(arch, netlist, problem, seed);
    let text = ckpt.to_json().to_string_compact();
    let parsed = rowfpga_obs::json::parse(&text).map_err(|e| {
        OracleFailure::new(NAME, format!("serialized checkpoint does not parse: {e}"))
    })?;
    let back = Checkpoint::from_json(&parsed)
        .map_err(|e| OracleFailure::new(NAME, format!("checkpoint does not decode: {e}")))?;
    back.validate(arch, netlist, seed, seed ^ 0x9e37, 1)
        .map_err(|e| OracleFailure::new(NAME, format!("restored header fails validation: {e}")))?;
    let (Some((cursor, snap)), Some((cursor0, snap0))) =
        (back.replicas.first(), ckpt.replicas.first())
    else {
        return Err(OracleFailure::new(
            NAME,
            "replica state did not survive the round trip".into(),
        ));
    };
    if cursor != cursor0 {
        return Err(OracleFailure::new(
            NAME,
            "anneal cursor did not survive the round trip".into(),
        ));
    }
    if snap != snap0 {
        return Err(OracleFailure::new(
            NAME,
            "problem snapshot did not survive the round trip".into(),
        ));
    }
    let restored = LayoutProblem::restore(arch, netlist, router_cfg, cost_cfg, move_weights, snap)
        .map_err(|e| OracleFailure::new(NAME, format!("snapshot does not restore: {e}")))?;
    match StateDigest::of(&restored).diff(&StateDigest::of(problem)) {
        None => Ok(()),
        Some(d) => Err(OracleFailure::new(
            NAME,
            format!("restored problem differs from the live one: {d}"),
        )),
    }
}

/// **Checkpoint crash-window oracle.** Saves a complete snapshot, then
/// injects each of the two crash windows of the atomic write protocol on a
/// *subsequent* save of a newer snapshot. The injected crash must surface
/// as an error, and a reload must still yield the last complete snapshot —
/// never the torn or orphaned newer one.
pub fn checkpoint_crash_windows(
    arch: &Architecture,
    netlist: &Netlist,
    problem: &LayoutProblem,
    seed: u64,
    dir: &std::path::Path,
) -> Result<(), OracleFailure> {
    const NAME: &str = "checkpoint-crash-window";
    let io = |e: std::io::Error| OracleFailure::new(NAME, format!("scratch dir: {e}"));
    std::fs::create_dir_all(dir).map_err(io)?;
    let path = dir.join(format!("crash-window-{seed:016x}.ckpt.json"));
    let good = synthetic_checkpoint(arch, netlist, problem, seed);
    good.save(&path, None)
        .map_err(|e| OracleFailure::new(NAME, format!("clean save failed: {e}")))?;
    let mut newer = good.clone();
    newer.temp += 1;
    for (cursor, _) in &mut newer.replicas {
        cursor.total_moves += 1;
        cursor.temperature *= 0.9;
    }
    for fault in [WriteFault::ShortWrite, WriteFault::SkipRename] {
        if newer.save(&path, Some(fault)).is_ok() {
            return Err(OracleFailure::new(
                NAME,
                format!("injected {fault:?} crash was not surfaced as an error"),
            ));
        }
        let loaded = Checkpoint::load(&path).map_err(|e| {
            OracleFailure::new(
                NAME,
                format!("after injected {fault:?}, the previous snapshot is unreadable: {e}"),
            )
        })?;
        if loaded != good {
            return Err(OracleFailure::new(
                NAME,
                format!("after injected {fault:?}, reload returned a different snapshot"),
            ));
        }
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(rowfpga_core::checkpoint_temp_path(&path)).ok();
    Ok(())
}

/// **K-replica determinism oracle.** Runs K-replica parallel annealing
/// twice with the same (seed, K) — the winners must have the same
/// [`StateDigest`] — and additionally requires the single-replica parallel
/// path to reproduce the sequential [`anneal`](rowfpga_anneal::anneal)
/// engine bit-for-bit (replica 0 runs the base RNG stream).
pub fn replica_determinism(
    arch: &Architecture,
    netlist: &Netlist,
    seed: u64,
    replicas: usize,
) -> Result<(), OracleFailure> {
    const NAME: &str = "replica-determinism";
    let config = AnnealConfig {
        seed: seed ^ 0x9e37,
        ..AnnealConfig::smoke()
    };
    let factory = |_r: usize| {
        LayoutProblem::new(
            arch,
            netlist,
            RouterConfig::default(),
            CostConfig::default(),
            MoveWeights::default(),
            seed,
        )
        .expect("a generated fuzz case always constructs")
    };
    let (a, a_out) = anneal_parallel(factory, replicas, &config);
    let (b, b_out) = anneal_parallel(factory, replicas, &config);
    let layout = StateDigest::of(&a).diff(&StateDigest::of(&b));
    if a_out.best_replica != b_out.best_replica
        || a_out.best_cost.to_bits() != b_out.best_cost.to_bits()
        || layout.is_some()
    {
        return Err(OracleFailure::new(
            NAME,
            format!(
                "two {replicas}-replica runs with seed {seed} diverged \
                 (winner {} cost {} vs winner {} cost {}; {})",
                a_out.best_replica,
                a_out.best_cost,
                b_out.best_replica,
                b_out.best_cost,
                layout.as_deref().unwrap_or("same layout")
            ),
        ));
    }
    // K = 1 must reproduce the sequential engine exactly.
    let (single, _) = anneal_parallel(factory, 1, &config);
    let mut problem = factory(0);
    rowfpga_anneal::anneal(&mut problem, &config, |_| {});
    if let Some(d) = StateDigest::of(&single).diff(&StateDigest::of(&problem)) {
        return Err(OracleFailure::new(
            NAME,
            format!("1-replica parallel run differs from the sequential engine (seed {seed}): {d}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_case, CaseConfig};
    use crate::script::{op_to_move, random_script};
    use rowfpga_anneal::AnnealProblem;

    fn small_case(seed: u64) -> crate::gen::FuzzCase {
        random_case(
            seed,
            &CaseConfig {
                min_cells: 20,
                max_cells: 80,
            },
        )
    }

    fn problem<'a>(case: &'a crate::gen::FuzzCase, seed: u64) -> LayoutProblem<'a> {
        LayoutProblem::new(
            &case.arch,
            &case.netlist,
            RouterConfig::default(),
            CostConfig::default(),
            MoveWeights::default(),
            seed,
        )
        .unwrap()
    }

    #[test]
    fn fresh_and_replayed_problems_pass_the_audit() {
        let case = small_case(1);
        let mut p = problem(&case, 7);
        differential_audit(&case.arch, &case.netlist, &p).unwrap();
        let script = random_script(&case, 3, 60);
        crate::script::replay(&mut p, &script.ops);
        differential_audit(&case.arch, &case.netlist, &p).unwrap();
    }

    #[test]
    fn rollback_is_bit_identical_over_random_moves() {
        let case = small_case(2);
        let mut p = problem(&case, 3);
        let script = random_script(&case, 4, 40);
        for op in &script.ops {
            let mv = op_to_move(op, &p).unwrap();
            rollback_identity(&mut p, mv).unwrap();
            // advance the trajectory with the same move, honoring accept
            let (applied, _) = p.apply_move(op_to_move(op, &p).unwrap());
            if op.accepts() {
                p.commit(applied);
            } else {
                p.undo(applied);
            }
        }
    }

    #[test]
    fn checkpoints_round_trip_bit_identically() {
        let case = small_case(3);
        let mut p = problem(&case, 5);
        let script = random_script(&case, 6, 50);
        crate::script::replay(&mut p, &script.ops);
        checkpoint_roundtrip(
            &case.arch,
            &case.netlist,
            &p,
            RouterConfig::default(),
            CostConfig::default(),
            MoveWeights::default(),
            5,
        )
        .unwrap();
    }

    #[test]
    fn parallel_annealing_is_deterministic() {
        let case = random_case(
            4,
            &CaseConfig {
                min_cells: 20,
                max_cells: 40,
            },
        );
        replica_determinism(&case.arch, &case.netlist, 11, 2).unwrap();
    }
}
