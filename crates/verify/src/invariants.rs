//! Structural invariants of a layout, callable from any test.
//!
//! Each check inspects one facet of a (placement, routing) pair against the
//! architecture and netlist and reports the first violation with enough
//! context to act on. They deliberately *re-derive* everything from the
//! per-net route records rather than trusting the routing state's own
//! bookkeeping, so a divergence between the two is caught rather than
//! propagated.

use std::fmt;

use rowfpga_arch::{Architecture, ChannelId};
use rowfpga_netlist::{CellKind, NetId, Netlist};
use rowfpga_place::Placement;
use rowfpga_route::{net_requirements, NetRouteState, RoutingState};
use rowfpga_timing::TimingState;

/// A failed structural invariant.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: &'static str,
    /// What exactly went wrong.
    pub detail: String,
}

impl Violation {
    fn new(invariant: &'static str, detail: String) -> Violation {
        Violation { invariant, detail }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant '{}' violated: {}",
            self.invariant, self.detail
        )
    }
}

impl std::error::Error for Violation {}

/// **Track exclusivity.** Every horizontal and vertical segment is claimed
/// by at most one net, and the ownership derived from the per-net routes
/// agrees exactly with the state's owner arrays in both directions.
pub fn track_exclusivity(
    arch: &Architecture,
    netlist: &Netlist,
    routing: &RoutingState,
) -> Result<(), Violation> {
    const NAME: &str = "track-exclusivity";
    let mut hclaim: Vec<Option<NetId>> = vec![None; arch.num_hsegs()];
    let mut vclaim: Vec<Option<NetId>> = vec![None; arch.num_vsegs()];
    for (net, _) in netlist.nets() {
        let route = routing.route(net);
        for (_, run) in route.hsegs() {
            for &seg in run {
                if let Some(prev) = hclaim[seg.index()] {
                    return Err(Violation::new(
                        NAME,
                        format!("hseg {seg} appears in the routes of both {prev} and {net}"),
                    ));
                }
                hclaim[seg.index()] = Some(net);
            }
        }
        for &seg in route.vsegs() {
            if let Some(prev) = vclaim[seg.index()] {
                return Err(Violation::new(
                    NAME,
                    format!("vseg {seg} appears in the routes of both {prev} and {net}"),
                ));
            }
            vclaim[seg.index()] = Some(net);
        }
    }
    for (i, &derived) in hclaim.iter().enumerate() {
        let seg = rowfpga_arch::HSegId::new(i);
        let recorded = routing.hseg_owner(seg);
        if recorded != derived {
            return Err(Violation::new(
                NAME,
                format!("hseg {seg} owner array says {recorded:?} but routes derive {derived:?}"),
            ));
        }
    }
    for (i, &derived) in vclaim.iter().enumerate() {
        let seg = rowfpga_arch::VSegId::new(i);
        let recorded = routing.vseg_owner(seg);
        if recorded != derived {
            return Err(Violation::new(
                NAME,
                format!("vseg {seg} owner array says {recorded:?} but routes derive {derived:?}"),
            ));
        }
    }
    Ok(())
}

/// **Segmentation legality.** Every assigned horizontal run is a chain of
/// consecutive segments of one track of the recorded channel, and fully
/// covers the span the net was committed to at global-routing time.
pub fn segmentation_legality(
    arch: &Architecture,
    netlist: &Netlist,
    routing: &RoutingState,
) -> Result<(), Violation> {
    const NAME: &str = "segmentation-legality";
    for (net, _) in netlist.nets() {
        let route = routing.route(net);
        for (channel, run) in route.hsegs() {
            if run.is_empty() {
                return Err(Violation::new(
                    NAME,
                    format!("{net} records an empty run in {channel}"),
                ));
            }
            let track = arch.hseg_track(run[0]);
            for pair in run.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                if arch.hseg_channel(b) != *channel
                    || arch.hseg_track(b) != track
                    || arch.hseg_pos(b) != arch.hseg_pos(a) + 1
                {
                    return Err(Violation::new(
                        NAME,
                        format!(
                            "{net} run in {channel} is not consecutive on one track: \
                             {a} (track {:?}, pos {}) then {b} (track {:?}, pos {})",
                            arch.hseg_track(a),
                            arch.hseg_pos(a),
                            arch.hseg_track(b),
                            arch.hseg_pos(b)
                        ),
                    ));
                }
            }
            if arch.hseg_channel(run[0]) != *channel {
                return Err(Violation::new(
                    NAME,
                    format!(
                        "{net} run recorded in {channel} but its segments sit in {}",
                        arch.hseg_channel(run[0])
                    ),
                ));
            }
            let (span_lo, span_hi) = route.span_in(*channel).ok_or_else(|| {
                Violation::new(
                    NAME,
                    format!("{net} routed in {channel} without a recorded span"),
                )
            })?;
            let covered_lo = arch.hseg(run[0]).start();
            let covered_end = arch.hseg(*run.last().unwrap()).end(); // exclusive
            if covered_lo > span_lo || covered_end <= span_hi {
                return Err(Violation::new(
                    NAME,
                    format!(
                        "{net} run in {channel} covers columns {covered_lo}..{covered_end} \
                         but must span {span_lo}..={span_hi}"
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// **Pinmap/site consistency.** The placement is a legal cell↔site
/// bijection with kind-compatible sites and in-palette pinmap choices.
pub fn pinmap_site_consistency(
    arch: &Architecture,
    netlist: &Netlist,
    placement: &Placement,
) -> Result<(), Violation> {
    placement
        .check_invariants_detailed(arch, netlist)
        .map_err(|detail| Violation::new("pinmap-site-consistency", detail))
}

/// **Feedthrough conservation.** A globally routed net spanning several
/// channels owns exactly one vertical chain: all segments in one column,
/// pairwise chained bottom-up, reaching every channel its pins occupy.
/// Single-channel and unrouted nets own no vertical resources at all.
pub fn feedthrough_conservation(
    arch: &Architecture,
    netlist: &Netlist,
    placement: &Placement,
    routing: &RoutingState,
) -> Result<(), Violation> {
    const NAME: &str = "feedthrough-conservation";
    for (net, _) in netlist.nets() {
        let route = routing.route(net);
        let req = net_requirements(arch, netlist, placement, net);
        if route.state() == NetRouteState::Unrouted || !req.needs_vertical() {
            if !route.vsegs().is_empty() || route.vcol().is_some() {
                return Err(Violation::new(
                    NAME,
                    format!(
                        "{net} ({:?}, pins span channels {}..={}) holds {} vertical segment(s)",
                        route.state(),
                        req.chan_min,
                        req.chan_max,
                        route.vsegs().len()
                    ),
                ));
            }
            continue;
        }
        // Globally routed and multi-channel: a non-empty chain in one column.
        let vcol = route.vcol().ok_or_else(|| {
            Violation::new(
                NAME,
                format!(
                    "{net} spans channels {}..={} but has no feedthrough column",
                    req.chan_min, req.chan_max
                ),
            )
        })?;
        if route.vsegs().is_empty() {
            return Err(Violation::new(
                NAME,
                format!("{net} records feedthrough column {vcol} but owns no vertical segments"),
            ));
        }
        let segs: Vec<_> = route.vsegs().iter().map(|&id| arch.vseg(id)).collect();
        for seg in &segs {
            if seg.col() != vcol {
                return Err(Violation::new(
                    NAME,
                    format!(
                        "{net} vertical segment {} sits in column {} but the chain is in {vcol}",
                        seg.id(),
                        seg.col()
                    ),
                ));
            }
        }
        for pair in segs.windows(2) {
            if !pair[0].chains_with(pair[1]) {
                return Err(Violation::new(
                    NAME,
                    format!(
                        "{net} vertical chain breaks between {} and {}",
                        pair[0].id(),
                        pair[1].id()
                    ),
                ));
            }
        }
        for ch in req.chan_min..=req.chan_max {
            let ch = ChannelId::new(ch);
            if !segs.iter().any(|s| s.reaches(ch)) {
                return Err(Violation::new(
                    NAME,
                    format!("{net} vertical chain does not reach required channel {ch}"),
                ));
            }
        }
    }
    Ok(())
}

/// **Non-negative, monotone Elmore delays.** Re-derives a from-scratch
/// timing analysis of the layout and checks the Elmore model's basic sanity
/// properties: every net-sink delay is finite and non-negative, every
/// arrival is finite and non-negative, the worst-case delay is at least
/// every individual arrival involved in it, and arrivals are monotone along
/// combinational edges (a sink's output arrival is never earlier than any
/// of its drivers' arrivals plus the interconnect delay charged to that
/// edge).
pub fn elmore_delays(
    arch: &Architecture,
    netlist: &Netlist,
    placement: &Placement,
    routing: &RoutingState,
) -> Result<(), Violation> {
    const NAME: &str = "elmore-delays";
    let timing = TimingState::new(arch, netlist, placement, routing)
        .map_err(|e| Violation::new(NAME, format!("netlist not levelizable: {e}")))?;
    if !(timing.worst().is_finite() && timing.worst() >= 0.0) {
        return Err(Violation::new(
            NAME,
            format!("worst-case delay is {}", timing.worst()),
        ));
    }
    for (cell, _) in netlist.cells() {
        let arr = timing.arrival(cell);
        if !(arr.is_finite() && arr >= 0.0) {
            return Err(Violation::new(NAME, format!("arrival({cell}) is {arr}")));
        }
    }
    for (net, record) in netlist.nets() {
        let delays = timing.net_delays(net);
        if delays.len() != record.fanout() {
            return Err(Violation::new(
                NAME,
                format!(
                    "{net} charges {} sink delays for fanout {}",
                    delays.len(),
                    record.fanout()
                ),
            ));
        }
        let driver_arr = timing.arrival(record.driver().cell);
        for (k, sink) in record.sinks().iter().enumerate() {
            let d = delays[k];
            if !(d.is_finite() && d >= 0.0) {
                return Err(Violation::new(
                    NAME,
                    format!("{net} sink {k} has Elmore delay {d}"),
                ));
            }
            if matches!(netlist.cell(sink.cell).kind(), CellKind::Comb { .. }) {
                let sink_arr = timing.arrival(sink.cell);
                // Exact: the sink's arrival adds a non-negative intrinsic
                // delay to this very sum, and float addition is monotone.
                if sink_arr < driver_arr + d {
                    return Err(Violation::new(
                        NAME,
                        format!(
                            "arrival not monotone on {net}: driver {} arrives at {driver_arr} \
                             + delay {d} > sink {} arrival {sink_arr}",
                            record.driver().cell,
                            sink.cell
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Runs the full invariant library plus the router's own deep verification
/// over a layout, reporting the first violation.
pub fn check_all(
    arch: &Architecture,
    netlist: &Netlist,
    placement: &Placement,
    routing: &RoutingState,
) -> Result<(), Violation> {
    pinmap_site_consistency(arch, netlist, placement)?;
    track_exclusivity(arch, netlist, routing)?;
    segmentation_legality(arch, netlist, routing)?;
    feedthrough_conservation(arch, netlist, placement, routing)?;
    rowfpga_route::verify_routing(routing, arch, netlist, placement)
        .map_err(|e| Violation::new("route-bookkeeping", e.to_string()))?;
    elmore_delays(arch, netlist, placement, routing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_case, CaseConfig};
    use rowfpga_core::{CostConfig, LayoutProblem};
    use rowfpga_place::MoveWeights;
    use rowfpga_route::RouterConfig;

    #[test]
    fn fresh_layouts_satisfy_every_invariant() {
        for seed in 0..6 {
            let case = random_case(
                seed,
                &CaseConfig {
                    min_cells: 20,
                    max_cells: 120,
                },
            );
            let problem = LayoutProblem::new(
                &case.arch,
                &case.netlist,
                RouterConfig::default(),
                CostConfig::default(),
                MoveWeights::default(),
                seed,
            )
            .unwrap();
            check_all(
                &case.arch,
                &case.netlist,
                problem.placement(),
                problem.routing(),
            )
            .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }
}
