//! Elmore delay over the RC tree of a physically embedded net.
//!
//! The electrical tree of a routed net follows its embedding exactly: the
//! driver's output resistance feeds (through a cross antifuse) the
//! horizontal segment run of its channel; for a multi-channel net that run
//! taps the vertical segment chain (cross antifuse) at the feedthrough
//! column, whose chained segments (vertical antifuses) tap the other
//! channels' runs; each sink loads its run through a cross antifuse. Every
//! segment contributes wire RC proportional to its length; every antifuse a
//! series resistance and a shunt capacitance.
//!
//! The Elmore delay to a sink is `Σ R_e · C_downstream(e)` over the edges on
//! the root-to-sink path — the first moment of the impulse response, the
//! same quantity an AWE evaluator like RICE [12] refines.

use rowfpga_arch::{Architecture, ChannelId};
use rowfpga_netlist::{NetId, Netlist};
use rowfpga_place::{pin_loc, Placement};
use rowfpga_route::{NetRouteState, RoutingState};

/// A node of the RC tree under construction.
#[derive(Clone, Debug)]
struct Node {
    /// Parent node index (root has none).
    parent: Option<usize>,
    /// Series resistance of the edge from the parent.
    r_edge: f64,
    /// Lumped capacitance at this node.
    cap: f64,
}

/// Reusable buffers for Elmore evaluation. One scratch serves any number of
/// sequential evaluations; in steady state no call allocates.
#[derive(Clone, Debug, Default)]
pub struct ElmoreScratch {
    /// RC tree nodes.
    nodes: Vec<Node>,
    /// Flat storage for per-run and per-chain node indices; each run (and
    /// the chain) occupies a contiguous range.
    idx: Vec<usize>,
    /// `(channel, start-of-run-range in idx)` for sink tap lookup.
    seg_ranges: Vec<(ChannelId, usize)>,
    /// Tree node of each sink, in sink order.
    sink_nodes: Vec<usize>,
    /// Downstream capacitance per node.
    down: Vec<f64>,
    /// Elmore delay per node.
    t: Vec<f64>,
}

fn add_node(nodes: &mut Vec<Node>, parent: Option<usize>, r_edge: f64, cap: f64) -> usize {
    debug_assert!(parent.is_none_or(|p| p < nodes.len()));
    nodes.push(Node {
        parent,
        r_edge,
        cap,
    });
    nodes.len() - 1
}

/// Computes the Elmore delay from the driver to every sink of a *fully
/// embedded* net, in sink order. Returns `None` if the net is not in the
/// [`NetRouteState::Detailed`] state (its tree is not fully known).
pub fn elmore_sink_delays(
    arch: &Architecture,
    netlist: &Netlist,
    placement: &Placement,
    routing: &RoutingState,
    net: NetId,
) -> Option<Vec<f64>> {
    let mut scratch = ElmoreScratch::default();
    let mut out = vec![0.0; netlist.net(net).fanout()];
    elmore_sink_delays_into(
        arch,
        netlist,
        placement,
        routing,
        net,
        &mut scratch,
        &mut out,
    )
    .then_some(out)
}

/// [`elmore_sink_delays`] writing into a caller's slice, one slot per sink,
/// with reusable internal scratch — the hot-path form. Returns whether the
/// net was fully embedded; `out` holds the sink delays (in sink order)
/// exactly when it returns true, and is untouched otherwise. A net whose
/// route violates the embedding invariants (a sink channel without a run,
/// a chain that reaches no routed channel) is reported as not embedded
/// rather than aborting the process.
pub fn elmore_sink_delays_into(
    arch: &Architecture,
    netlist: &Netlist,
    placement: &Placement,
    routing: &RoutingState,
    net: NetId,
    scratch: &mut ElmoreScratch,
    out: &mut [f64],
) -> bool {
    let route = routing.route(net);
    if route.state() != NetRouteState::Detailed {
        return false;
    }
    let p = arch.delay();
    let Some(driver_pin) = netlist.net(net).pins().next() else {
        return false; // a driverless net has no delay tree
    };
    let driver_loc = pin_loc(arch, netlist, placement, driver_pin);

    scratch.nodes.clear();
    scratch.idx.clear();
    scratch.seg_ranges.clear();
    scratch.sink_nodes.clear();
    let root = add_node(&mut scratch.nodes, None, 0.0, 0.0);

    // 1. The driver's channel run hangs off the driver through its output
    //    resistance and one cross antifuse.
    let driver_chan = driver_loc.channel;
    let Some(driver_run) = route.hsegs_in(driver_chan) else {
        return false; // detailed nets are routed in their driver channel
    };
    // Index of the run segment covering the driver's column.
    let Some(tap) = run_tap_index(arch, driver_run, driver_loc.col.index()) else {
        return false;
    };
    let dr_start = scratch.idx.len();
    scratch.idx.resize(dr_start + driver_run.len(), usize::MAX);
    scratch.idx[dr_start + tap] = add_node(
        &mut scratch.nodes,
        Some(root),
        p.r_driver + p.r_antifuse,
        seg_cap(arch, driver_run[tap], p) + p.c_antifuse,
    );
    grow_run(
        arch,
        p,
        &mut scratch.nodes,
        driver_run,
        &mut scratch.idx[dr_start..dr_start + driver_run.len()],
        tap,
    );
    scratch.seg_ranges.push((driver_chan, dr_start));

    // 2. The vertical chain (if any) hangs off the driver run at the
    //    feedthrough column; the remaining runs hang off the chain.
    if !route.vsegs().is_empty() {
        let Some(vcol) = route.vcol() else {
            return false; // vertical nets carry a feedthrough column
        };
        let Some(driver_tap) = run_tap_index(arch, driver_run, vcol.index()) else {
            return false;
        };
        // Chain node per vertical segment, wired in chain order; the parent
        // of the first chain node is the run segment at the feedthrough.
        // Which chain segment taps the driver channel: the first that
        // reaches it.
        let ch_start = scratch.idx.len();
        scratch
            .idx
            .resize(ch_start + route.vsegs().len(), usize::MAX);
        let Some(start) = route
            .vsegs()
            .iter()
            .position(|v| arch.vseg(*v).reaches(driver_chan))
        else {
            return false; // the chain always reaches the driver channel
        };
        scratch.idx[ch_start + start] = add_node(
            &mut scratch.nodes,
            Some(scratch.idx[dr_start + driver_tap]),
            p.r_antifuse,
            vseg_cap(arch, route.vsegs()[start], p) + p.c_antifuse,
        );
        // Grow outward along the chain in both directions (vertical
        // antifuse per junction).
        for i in (0..start).rev() {
            scratch.idx[ch_start + i] = add_node(
                &mut scratch.nodes,
                Some(scratch.idx[ch_start + i + 1]),
                p.r_antifuse + vseg_wire_r(arch, route.vsegs()[i + 1], p),
                vseg_cap(arch, route.vsegs()[i], p) + p.c_antifuse,
            );
        }
        for i in (start + 1)..route.vsegs().len() {
            scratch.idx[ch_start + i] = add_node(
                &mut scratch.nodes,
                Some(scratch.idx[ch_start + i - 1]),
                p.r_antifuse + vseg_wire_r(arch, route.vsegs()[i - 1], p),
                vseg_cap(arch, route.vsegs()[i], p) + p.c_antifuse,
            );
        }

        for (chan, run) in route.hsegs() {
            if *chan == driver_chan {
                continue;
            }
            let Some(chain_idx) = route
                .vsegs()
                .iter()
                .position(|v| arch.vseg(*v).reaches(*chan))
            else {
                return false; // the chain reaches every routed channel
            };
            let Some(tap) = run_tap_index(arch, run, vcol.index()) else {
                return false;
            };
            let r_start = scratch.idx.len();
            scratch.idx.resize(r_start + run.len(), usize::MAX);
            scratch.idx[r_start + tap] = add_node(
                &mut scratch.nodes,
                Some(scratch.idx[ch_start + chain_idx]),
                p.r_antifuse,
                seg_cap(arch, run[tap], p) + p.c_antifuse,
            );
            grow_run(
                arch,
                p,
                &mut scratch.nodes,
                run,
                &mut scratch.idx[r_start..r_start + run.len()],
                tap,
            );
            scratch.seg_ranges.push((*chan, r_start));
        }
    }

    // 3. Sinks load their channel's run through a cross antifuse.
    for pin in netlist.net(net).pins().skip(1) {
        let sink = pin_loc(arch, netlist, placement, pin);
        let Some(&(_, r_start)) = scratch.seg_ranges.iter().find(|(c, _)| *c == sink.channel)
        else {
            return false; // every sink channel carries a routed run
        };
        let Some(run) = route.hsegs_in(sink.channel) else {
            return false;
        };
        let Some(tap) = run_tap_index(arch, run, sink.col.index()) else {
            return false;
        };
        let node = add_node(
            &mut scratch.nodes,
            Some(scratch.idx[r_start + tap]),
            p.r_antifuse,
            p.c_input + p.c_antifuse,
        );
        scratch.sink_nodes.push(node);
    }

    // Downstream capacitance: children were always added after parents, so
    // a reverse sweep accumulates subtrees.
    let n = scratch.nodes.len();
    scratch.down.clear();
    scratch.down.extend(scratch.nodes.iter().map(|nd| nd.cap));
    for i in (0..n).rev() {
        if let Some(par) = scratch.nodes[i].parent {
            scratch.down[par] += scratch.down[i];
        }
    }
    // Forward sweep: T(child) = T(parent) + R_edge · C_down(child).
    scratch.t.clear();
    scratch.t.resize(n, 0.0);
    for i in 0..n {
        if let Some(par) = scratch.nodes[i].parent {
            scratch.t[i] = scratch.t[par] + scratch.nodes[i].r_edge * scratch.down[i];
        }
    }
    for (slot, &i) in out.iter_mut().zip(&scratch.sink_nodes) {
        *slot = scratch.t[i];
    }
    true
}

/// Index within `run` of the segment covering `col`, or `None` when the
/// run does not cover it (a broken embedding; the caller treats the net
/// as not fully embedded).
fn run_tap_index(arch: &Architecture, run: &[rowfpga_arch::HSegId], col: usize) -> Option<usize> {
    run.iter().position(|h| {
        let s = arch.hseg(*h);
        s.start() <= col && col < s.end()
    })
}

/// Adds the rest of a channel run to the tree, growing from the already
/// added segment at `from` toward both ends (horizontal antifuse plus wire
/// resistance per junction).
fn grow_run(
    arch: &Architecture,
    p: &rowfpga_arch::DelayParams,
    tree: &mut Vec<Node>,
    run: &[rowfpga_arch::HSegId],
    nodes: &mut [usize],
    from: usize,
) {
    for i in (0..from).rev() {
        nodes[i] = add_node(
            tree,
            Some(nodes[i + 1]),
            p.r_antifuse
                + seg_wire_r(arch, run[i + 1], p) / 2.0
                + seg_wire_r(arch, run[i], p) / 2.0,
            seg_cap(arch, run[i], p) + p.c_antifuse,
        );
    }
    for i in (from + 1)..run.len() {
        nodes[i] = add_node(
            tree,
            Some(nodes[i - 1]),
            p.r_antifuse
                + seg_wire_r(arch, run[i - 1], p) / 2.0
                + seg_wire_r(arch, run[i], p) / 2.0,
            seg_cap(arch, run[i], p) + p.c_antifuse,
        );
    }
}

fn seg_cap(arch: &Architecture, h: rowfpga_arch::HSegId, p: &rowfpga_arch::DelayParams) -> f64 {
    p.c_wire * arch.hseg(h).len() as f64
}

fn seg_wire_r(arch: &Architecture, h: rowfpga_arch::HSegId, p: &rowfpga_arch::DelayParams) -> f64 {
    p.r_wire * arch.hseg(h).len() as f64
}

fn vseg_cap(arch: &Architecture, v: rowfpga_arch::VSegId, p: &rowfpga_arch::DelayParams) -> f64 {
    p.c_wire * arch.vseg(v).span() as f64
}

fn vseg_wire_r(arch: &Architecture, v: rowfpga_arch::VSegId, p: &rowfpga_arch::DelayParams) -> f64 {
    p.r_wire * arch.vseg(v).span() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowfpga_arch::SegmentationScheme;
    use rowfpga_netlist::{generate, CellKind, GenerateConfig};
    use rowfpga_place::net_pin_locs;
    use rowfpga_route::{route_batch, RouterConfig};

    fn routed_problem() -> (Architecture, Netlist, Placement, RoutingState) {
        let nl = generate(&GenerateConfig {
            num_cells: 40,
            num_inputs: 5,
            num_outputs: 5,
            num_seq: 3,
            ..GenerateConfig::default()
        });
        let arch = Architecture::builder()
            .rows(5)
            .cols(14)
            .io_columns(2)
            .tracks_per_channel(24)
            .build()
            .unwrap();
        let p = Placement::random(&arch, &nl, 13).unwrap();
        let mut st = RoutingState::new(&arch, &nl);
        let out = route_batch(&mut st, &arch, &nl, &p, &RouterConfig::default(), 8);
        assert!(out.fully_routed, "test fixture must route fully");
        (arch, nl, p, st)
    }

    #[test]
    fn all_routed_nets_have_positive_delays() {
        let (arch, nl, p, st) = routed_problem();
        for (id, net) in nl.nets() {
            let d = elmore_sink_delays(&arch, &nl, &p, &st, id).expect("routed");
            assert_eq!(d.len(), net.fanout());
            for x in d {
                assert!(x.is_finite() && x > 0.0, "bad delay {x} on {id}");
            }
        }
    }

    #[test]
    fn unrouted_nets_yield_none() {
        let (arch, nl, p, mut st) = routed_problem();
        let net = rowfpga_netlist::NetId::new(0);
        st.rip_up(net);
        assert!(elmore_sink_delays(&arch, &nl, &p, &st, net).is_none());
    }

    #[test]
    fn more_antifuses_mean_more_delay() {
        // Two fabrics identical except for segmentation: length-2 segments
        // force many horizontal antifuses, full-length tracks need none.
        // The same (deterministic) placement and a long two-pin net must be
        // slower on the finely segmented fabric.
        let mut b = Netlist::builder();
        let a = b.add_cell("a", CellKind::Input);
        let q = b.add_cell("q", CellKind::Output);
        b.connect("n", a, [(q, 0)]).unwrap();
        let nl = b.build().unwrap();

        let mk = |scheme| {
            Architecture::builder()
                .rows(1)
                .cols(16)
                .io_columns(1)
                .tracks_per_channel(4)
                .segmentation(scheme)
                .build()
                .unwrap()
        };
        let fine = mk(SegmentationScheme::Uniform { len: 2 });
        let coarse = mk(SegmentationScheme::FullLength);

        let run = |arch: &Architecture| {
            let p = Placement::random(arch, &nl, 1).unwrap();
            let mut st = RoutingState::new(arch, &nl);
            let out = route_batch(&mut st, arch, &nl, &p, &RouterConfig::default(), 4);
            assert!(out.fully_routed);
            elmore_sink_delays(arch, &nl, &p, &st, rowfpga_netlist::NetId::new(0)).unwrap()[0]
        };
        let t_fine = run(&fine);
        let t_coarse = run(&coarse);
        assert!(
            t_fine > t_coarse,
            "finely segmented path ({t_fine}) must be slower than long-line path ({t_coarse})"
        );
    }

    #[test]
    fn farther_sinks_in_the_same_channel_are_slower() {
        // One driver and two sinks all tapping the same channel run on a
        // single-row chip: the sink more segment joints away from the
        // driver's tap must see strictly more Elmore delay.
        let mut b = Netlist::builder();
        let a = b.add_cell("a", CellKind::Input);
        let g1 = b.add_cell("g1", CellKind::comb(1));
        let g2 = b.add_cell("g2", CellKind::comb(1));
        let q1 = b.add_cell("q1", CellKind::Output);
        let q2 = b.add_cell("q2", CellKind::Output);
        b.connect("n", a, [(g1, 1), (g2, 1)]).unwrap();
        b.connect("m1", g1, [(q1, 0)]).unwrap();
        b.connect("m2", g2, [(q2, 0)]).unwrap();
        let nl = b.build().unwrap();
        let arch = Architecture::builder()
            .rows(1)
            .cols(12)
            .io_columns(2)
            .tracks_per_channel(6)
            .segmentation(SegmentationScheme::Uniform { len: 2 })
            .build()
            .unwrap();
        let mut p = Placement::random(&arch, &nl, 5).unwrap();
        // Force a deterministic geometry: driver at column 0, the near sink
        // at column 3, the far sink at column 9 (row 0 for all).
        let geom = arch.geometry();
        let place_at = |p: &mut Placement, cell, col: usize| {
            let target = geom
                .site_at(rowfpga_arch::RowId::new(0), rowfpga_arch::ColId::new(col))
                .id();
            let from = p.site_of(cell);
            p.swap_sites(&arch, from, target);
        };
        place_at(&mut p, a, 0);
        place_at(&mut p, g1, 3);
        place_at(&mut p, g2, 9);
        // Force every pin of the net onto the bottom side (channel 0).
        for cell in [a, g1, g2] {
            let kind = nl.cell(cell).kind();
            let idx = p
                .palette(kind)
                .iter()
                .position(|pm| {
                    pm.sides()
                        .iter()
                        .all(|s| *s == rowfpga_netlist::PortSide::Bottom)
                })
                .expect("all-bottom pinmap exists") as u16;
            p.set_pinmap(&nl, cell, idx);
        }
        let mut st = RoutingState::new(&arch, &nl);
        let out = route_batch(&mut st, &arch, &nl, &p, &RouterConfig::default(), 4);
        assert!(out.fully_routed);
        let net = nl.net_by_name("n").unwrap();
        let locs = net_pin_locs(&arch, &nl, &p, net);
        assert!(
            locs.iter().all(|l| l.channel.index() == 0),
            "all pins must share channel 0"
        );
        let d = elmore_sink_delays(&arch, &nl, &p, &st, net).unwrap();
        // sinks() order follows connect(): [g1 (col 3), g2 (col 9)]
        assert!(
            d[1] > d[0],
            "far sink ({}) must be slower than near sink ({})",
            d[1],
            d[0]
        );
    }
}

#[cfg(test)]
mod hand_computed {
    use super::*;
    use rowfpga_arch::{RowId, SegmentationScheme};
    use rowfpga_netlist::{CellKind, Netlist, PortSide};
    use rowfpga_route::{route_batch, RouterConfig};

    /// Builds X(input)@col0 → Y(comb1)@col5/6 on one row with every pin on
    /// channel 0, routes it, and returns the single sink's Elmore delay.
    fn two_pin_delay(scheme: SegmentationScheme, sink_col: usize) -> f64 {
        let mut b = Netlist::builder();
        let x = b.add_cell("x", CellKind::Input);
        let y = b.add_cell("y", CellKind::comb(1));
        let q = b.add_cell("q", CellKind::Output);
        b.connect("n", x, [(y, 1)]).unwrap();
        b.connect("m", y, [(q, 0)]).unwrap();
        let nl = b.build().unwrap();
        let arch = Architecture::builder()
            .rows(1)
            .cols(8)
            .io_columns(1)
            .tracks_per_channel(2)
            .segmentation(scheme)
            .build()
            .unwrap();
        let mut p = rowfpga_place::Placement::random(&arch, &nl, 1).unwrap();
        let geom = arch.geometry();
        for (cell, col) in [(x, 0usize), (y, sink_col)] {
            let target = geom
                .site_at(RowId::new(0), rowfpga_arch::ColId::new(col))
                .id();
            let from = p.site_of(cell);
            p.swap_sites(&arch, from, target);
        }
        for (cell, c) in nl.cells() {
            let idx = p
                .palette(c.kind())
                .iter()
                .position(|pm| pm.sides().iter().all(|s| *s == PortSide::Bottom))
                .unwrap() as u16;
            p.set_pinmap(&nl, cell, idx);
        }
        let mut st = RoutingState::new(&arch, &nl);
        let out = route_batch(&mut st, &arch, &nl, &p, &RouterConfig::default(), 4);
        assert!(out.fully_routed);
        elmore_sink_delays(&arch, &nl, &p, &st, nl.net_by_name("n").unwrap()).unwrap()[0]
    }

    #[test]
    fn single_segment_net_matches_hand_computation() {
        // Tree: driver -(r_drv + r_af)-> seg[0,8) -(r_af)-> sink.
        // caps: seg = 8*c_wire + c_af; sink = c_input + c_af.
        // T = (1500+500)*(0.48+0.01+0.02+0.01) + 500*(0.02+0.01)
        //   = 2000*0.52 + 500*0.03 = 1055.0 ps  (act_1um parameters)
        let t = two_pin_delay(SegmentationScheme::FullLength, 5);
        assert!((t - 1055.0).abs() < 1e-6, "got {t}");
    }

    #[test]
    fn two_segment_net_matches_hand_computation() {
        // Track split at column 4; driver at col 0, sink at col 6 forces a
        // 2-segment run. Joint edge R = r_af + r_wire*(4/2 + 4/2) = 508.
        // T = 2000*(0.25+0.25+0.03) + 508*(0.25+0.03) + 500*0.03
        //   = 1060 + 142.24 + 15 = 1217.24 ps
        let t = two_pin_delay(
            SegmentationScheme::Explicit {
                tracks: vec![vec![4], vec![4]],
            },
            6,
        );
        assert!((t - 1217.24).abs() < 1e-6, "got {t}");
    }

    #[test]
    fn extra_joints_cost_exactly_their_rc() {
        let one = two_pin_delay(SegmentationScheme::FullLength, 6);
        let two = two_pin_delay(
            SegmentationScheme::Explicit {
                tracks: vec![vec![4], vec![4]],
            },
            6,
        );
        assert!(two > one, "joint added no delay: {one} vs {two}");
    }
}
