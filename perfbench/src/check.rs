//! The output check every timed layout passes before its numbers count.
//!
//! The layout goes through `rowfpga_verify::invariants::check_all`, which
//! re-derives occupancy, segmentation, feedthroughs and Elmore delays from
//! the per-net route records instead of trusting the router's
//! bookkeeping; a fresh `Sta::analyze` must reproduce the reported worst
//! delay bit for bit; and the unrouted-net count and the fully-routed flag
//! are recomputed from the routing itself.

use rowfpga_arch::Architecture;
use rowfpga_core::LayoutResult;
use rowfpga_netlist::Netlist;
use rowfpga_place::Placement;
use rowfpga_route::{NetRouteState, RoutingState};
use rowfpga_timing::Sta;

/// The quality of one checked layout.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quality {
    /// Worst-case path delay (ps), as re-derived by a fresh analysis.
    pub worst_delay: f64,
    /// Nets without a complete detailed routing.
    pub unrouted: usize,
    /// Nets in the design.
    pub nets: usize,
    /// Annealing moves the flow attempted.
    pub moves: usize,
    /// `RoutingState::occupancy_digest` of the final routing.
    pub digest: u64,
}

impl Quality {
    /// Whether every net is fully routed.
    pub fn fully_routed(&self) -> bool {
        self.unrouted == 0
    }

    /// Bit-level equality: the same layout quality at the same seed.
    pub fn same_bits(&self, other: &Quality) -> bool {
        self.worst_delay.to_bits() == other.worst_delay.to_bits()
            && self.unrouted == other.unrouted
            && self.nets == other.nets
            && self.moves == other.moves
            && self.digest == other.digest
    }
}

/// Checks a placement and routing against what a flow reported for them.
///
/// # Errors
///
/// Returns a description of the first violation or disagreement.
pub fn check_parts(
    arch: &Architecture,
    netlist: &Netlist,
    placement: &Placement,
    routing: &RoutingState,
    reported_worst: f64,
    reported_unrouted: usize,
    reported_fully_routed: bool,
) -> Result<(f64, usize), String> {
    rowfpga_verify::invariants::check_all(arch, netlist, placement, routing)
        .map_err(|v| v.to_string())?;
    let sta = Sta::analyze(arch, netlist, placement, routing).map_err(|e| e.to_string())?;
    let worst = sta.worst_delay();
    if worst.to_bits() != reported_worst.to_bits() {
        return Err(format!(
            "worst delay {reported_worst} reported, fresh analysis gives {worst}"
        ));
    }
    let unrouted = netlist
        .nets()
        .filter(|(id, _)| routing.net_state(*id) != NetRouteState::Detailed)
        .count();
    if unrouted != reported_unrouted || unrouted != routing.incomplete() {
        return Err(format!(
            "{unrouted} nets lack a detailed route, {reported_unrouted} reported, \
             the router counts {}",
            routing.incomplete()
        ));
    }
    if (unrouted == 0) != reported_fully_routed {
        return Err(format!(
            "fully routed reported as {reported_fully_routed} with {unrouted} unrouted nets"
        ));
    }
    Ok((worst, unrouted))
}

/// Checks a flow's result.
///
/// # Errors
///
/// Returns a description of the first violation or disagreement.
pub fn check_layout(
    arch: &Architecture,
    netlist: &Netlist,
    result: &LayoutResult,
) -> Result<Quality, String> {
    let (worst_delay, unrouted) = check_parts(
        arch,
        netlist,
        &result.placement,
        &result.routing,
        result.worst_delay,
        result.incomplete,
        result.fully_routed,
    )?;
    Ok(Quality {
        worst_delay,
        unrouted,
        nets: netlist.num_nets(),
        moves: result.total_moves,
        digest: result.routing.occupancy_digest(),
    })
}

/// Operations attempted and failed. One operation is one flow on one
/// design; it fails when the flow returns an error or its layout fails
/// the check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; returns its success value, or `None` (after
    /// reporting the failure on standard error) when it failed.
    pub fn record<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        outcome: Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }
}
