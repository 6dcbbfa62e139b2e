// rowfpga-lint: hot-path
//! Incremental global routing: feedthrough (vertical segment) assignment.
//!
//! Global routing for row-based FPGAs consists primarily of assigning
//! feedthroughs to nets that span several channels (paper §3.3). The
//! incremental router works down the queue `U_G`, longest estimated net
//! first, and assigns each net the available chain of vertical segments
//! closest to the center of its bounding box. The heuristic is deliberately
//! simple and fast: the annealer relies on *many* cheap routing attempts in
//! ever-better placements rather than one exhaustive search.

use rowfpga_arch::{Architecture, ChannelId, ColId, VSegId};
use rowfpga_netlist::{NetId, Netlist};
use rowfpga_place::Placement;

use crate::config::RouterConfig;
use crate::spans::{net_requirements_into, NetRequirements};
use crate::state::RoutingState;

/// Attempts to globally route every net in `U_G`, longest first. Returns
/// the number of nets that obtained a global routing decision.
///
/// The queue lives in the state's persistent scratch buffer and requirement
/// records are refilled in place, so a steady-state pass allocates nothing.
pub fn global_route_pass(
    state: &mut RoutingState,
    arch: &Architecture,
    netlist: &Netlist,
    placement: &Placement,
    cfg: &RouterConfig,
) -> usize {
    let mut gqueue = std::mem::take(&mut state.scratch.gqueue);
    let mut n = 0;
    // Retry skip: a net whose last attempt failed while the vertical
    // occupancy of its channel range was exactly as it is now would fail
    // identically (failed attempts have no side effects, and a net's
    // requirements cannot change while it sits in `U_G` — any route or
    // placement change re-enqueues it, clearing the stamp). Leave such
    // nets out of the queue entirely.
    for net in state.ug() {
        if state.global_retry_doomed(net) {
            continue;
        }
        if n < gqueue.len() {
            gqueue[n].0 = net;
            net_requirements_into(arch, netlist, placement, net, &mut gqueue[n].1);
        } else {
            let mut req = NetRequirements::default();
            net_requirements_into(arch, netlist, placement, net, &mut req);
            gqueue.push((net, req));
        }
        n += 1;
    }
    // Sort the live prefix by estimated net length, longest first (ties
    // broken by id for determinism); long nets have the fewest feasible
    // feedthrough choices, so they get first pick (paper §3.3). Entries
    // beyond `n` are stale records kept only for their allocations.
    gqueue[..n].sort_by(|a, b| {
        b.1.estimated_length()
            .cmp(&a.1.estimated_length())
            .then(a.0.cmp(&b.0))
    });

    let mut routed = 0;
    for (net, req) in &gqueue[..n] {
        let seen = state.vtick();
        if try_global_route(state, arch, *net, req, cfg) {
            routed += 1;
        } else {
            state.record_global_failure(*net, seen, req.chan_min, req.chan_max);
        }
    }
    state.scratch.gqueue = gqueue;
    routed
}

/// Attempts to globally route one net. On success, installs the decision
/// (vertical chain, per-channel spans, pending channels) and returns true.
pub(crate) fn try_global_route(
    state: &mut RoutingState,
    arch: &Architecture,
    net: NetId,
    req: &NetRequirements,
    cfg: &RouterConfig,
) -> bool {
    let mut shell = state.take_shell();
    if !req.needs_vertical() {
        // Trivially null global routing (paper §3.3: nets that no longer
        // need vertical resources).
        let (chan, lo, hi) = req.pin_channels[0];
        shell
            .spans
            .push((ChannelId::new(chan), lo as u32, hi as u32));
        shell.pending_channels.push(ChannelId::new(chan));
        shell.globally_routed = true;
        state.set_global(net, shell);
        return true;
    }

    let num_cols = arch.geometry().num_cols();
    let center = req.center_col();
    // Candidate columns in outward order from the bbox center: distance
    // d = 0, 1, 2, …, trying `center - d` before `center + d` — exactly the
    // (distance, column) sort order of the candidate list this scan
    // replaces, without materializing the list.
    for d in 0..num_cols {
        let below = center.checked_sub(d);
        let above = (d > 0).then_some(center + d).filter(|&c| c < num_cols);
        for col in below.into_iter().chain(above) {
            if !find_chain_into(
                state,
                col,
                req.chan_min,
                req.chan_max,
                cfg.max_vchain,
                &mut shell.vsegs,
            ) {
                continue;
            }
            for &(chan, _, _) in &req.pin_channels {
                let (lo, hi) = req
                    .span_in(chan, Some(col))
                    .expect("pin channel has a span");
                shell
                    .spans
                    .push((ChannelId::new(chan), lo as u32, hi as u32));
                shell.pending_channels.push(ChannelId::new(chan));
            }
            shell.vcol = Some(ColId::new(col));
            shell.globally_routed = true;
            state.set_global(net, shell);
            return true;
        }
    }
    state.give_back_shell(shell);
    false
}

/// Greedy minimum-segment chain of *free* vertical segments in `col`
/// covering channels `chan_min..=chan_max`, built into `out`. Consecutive
/// chain segments must touch or overlap (one vertical antifuse per
/// junction). Returns whether a covering chain was found; `out` is left
/// empty on failure.
///
/// Each greedy step — the free first-in-order max-reach segment tappable
/// at `chan_min` (first pick) or extending the covered range (later
/// picks) — is one masked lowest-bit query on the state's vertical-pick
/// bitmasks, whose ranking (`hi` descending, then scan order) reproduces
/// exactly the scan over the column's segments. A segment already in the
/// chain can never be re-picked: its top equals some earlier reach, which
/// no longer *extends* the reach.
fn find_chain_into(
    state: &RoutingState,
    col: usize,
    chan_min: usize,
    chan_max: usize,
    max_len: usize,
    out: &mut Vec<VSegId>,
) -> bool {
    out.clear();
    let mut reach: Option<usize> = None;
    while out.len() < max_len {
        let best = match reach {
            // First segment must be tappable in chan_min.
            None => state.best_cover(col, chan_min),
            // Later segments must touch the covered range and extend it.
            Some(r) => state.best_extend(col, r),
        };
        let Some((hi, seg)) = best else {
            out.clear();
            return false;
        };
        out.push(seg);
        reach = Some(hi);
        if hi >= chan_max {
            return true;
        }
    }
    out.clear();
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::net_requirements;
    use rowfpga_arch::{SegmentationScheme, VerticalScheme};
    use rowfpga_netlist::{generate, GenerateConfig};

    fn setup(rows: usize, cols: usize) -> (Architecture, Netlist, Placement, RoutingState) {
        let nl = generate(&GenerateConfig {
            num_cells: 40,
            num_inputs: 5,
            num_outputs: 5,
            num_seq: 3,
            ..GenerateConfig::default()
        });
        let arch = Architecture::builder()
            .rows(rows)
            .cols(cols)
            .io_columns(2)
            .tracks_per_channel(10)
            .segmentation(SegmentationScheme::Uniform { len: 4 })
            .verticals(VerticalScheme::Uniform {
                tracks_per_column: 3,
                span: 3,
            })
            .build()
            .unwrap();
        let p = Placement::random(&arch, &nl, 17).unwrap();
        let st = RoutingState::new(&arch, &nl);
        (arch, nl, p, st)
    }

    #[test]
    fn pass_routes_everything_on_a_roomy_chip() {
        let (arch, nl, p, mut st) = setup(5, 12);
        let routed = global_route_pass(&mut st, &arch, &nl, &p, &RouterConfig::default());
        assert_eq!(routed, nl.num_nets());
        assert_eq!(st.globally_unrouted(), 0);
        // every multi-channel net has a chain covering its channel range
        for (id, _) in nl.nets() {
            let req = net_requirements(&arch, &nl, &p, id);
            let route = st.route(id);
            assert!(route.is_globally_routed());
            if req.needs_vertical() {
                let vcol = route.vcol().expect("vertical net has a column");
                let mut covered_lo = usize::MAX;
                let mut covered_hi = 0;
                for v in route.vsegs() {
                    let seg = arch.vseg(*v);
                    assert_eq!(seg.col(), vcol);
                    covered_lo = covered_lo.min(seg.chan_lo().index());
                    covered_hi = covered_hi.max(seg.chan_hi().index());
                }
                assert!(covered_lo <= req.chan_min && covered_hi >= req.chan_max);
            } else {
                assert!(route.vsegs().is_empty());
            }
        }
    }

    #[test]
    fn pending_channels_match_pin_channels() {
        let (arch, nl, p, mut st) = setup(5, 12);
        global_route_pass(&mut st, &arch, &nl, &p, &RouterConfig::default());
        for (id, _) in nl.nets() {
            let req = net_requirements(&arch, &nl, &p, id);
            let route = st.route(id);
            let mut pending: Vec<usize> =
                route.pending_channels().iter().map(|c| c.index()).collect();
            pending.sort_unstable();
            let expected: Vec<usize> = req.pin_channels.iter().map(|x| x.0).collect();
            assert_eq!(pending, expected);
        }
    }

    #[test]
    fn chains_prefer_the_center_column() {
        let (arch, nl, p, mut st) = setup(5, 12);
        global_route_pass(&mut st, &arch, &nl, &p, &RouterConfig::default());
        // On an uncongested chip every net gets a feedthrough at (or next
        // to) its bbox center.
        for (id, _) in nl.nets() {
            let req = net_requirements(&arch, &nl, &p, id);
            if let Some(vcol) = st.route(id).vcol() {
                assert!(
                    vcol.index().abs_diff(req.center_col()) <= 4,
                    "net {id:?} feedthrough {vcol:?} far from center {}",
                    req.center_col()
                );
            }
        }
    }

    #[test]
    fn exhausted_columns_leave_nets_unrouted() {
        // 1 vertical track per column with span 2 on a 4-row chip: crossing
        // all 5 channels needs a 4-segment chain per net; capacity runs out.
        let nl = generate(&GenerateConfig {
            num_cells: 60,
            num_inputs: 10,
            num_outputs: 10,
            num_seq: 5,
            ..GenerateConfig::default()
        });
        let arch = Architecture::builder()
            .rows(6)
            .cols(12)
            .io_columns(2)
            .verticals(VerticalScheme::Uniform {
                tracks_per_column: 1,
                span: 2,
            })
            .build()
            .unwrap();
        let p = Placement::random(&arch, &nl, 3).unwrap();
        let mut st = RoutingState::new(&arch, &nl);
        global_route_pass(&mut st, &arch, &nl, &p, &RouterConfig::default());
        assert!(
            st.globally_unrouted() > 0,
            "expected vertical congestion on a starved fabric"
        );
    }

    #[test]
    fn rerouting_after_rip_up_reuses_freed_segments() {
        let (arch, nl, p, mut st) = setup(5, 12);
        let cfg = RouterConfig::default();
        global_route_pass(&mut st, &arch, &nl, &p, &cfg);
        let (cell, _) = nl.cells().find(|(_, c)| !c.kind().is_io()).unwrap();
        st.rip_up_cell(&nl, cell);
        let expected = nl.nets_of_cell(cell).len();
        assert_eq!(st.globally_unrouted(), expected);
        let routed = global_route_pass(&mut st, &arch, &nl, &p, &cfg);
        assert_eq!(routed, expected);
        assert_eq!(st.globally_unrouted(), 0);
    }
}
