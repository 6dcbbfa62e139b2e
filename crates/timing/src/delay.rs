//! Unified per-net delay evaluation and intrinsic cell delays.

use rowfpga_arch::Architecture;
use rowfpga_netlist::{CellKind, NetId, Netlist};
use rowfpga_place::Placement;
use rowfpga_route::RoutingState;

use crate::elmore::{elmore_sink_delays_into, ElmoreScratch};
use crate::estimate::estimate_sink_delay;

/// Driver-to-sink interconnect delay for every sink of `net`, in sink
/// order: the exact Elmore delay when the net is fully embedded, the
/// spatial-extent estimate otherwise (paper §3.5).
pub fn net_sink_delays(
    arch: &Architecture,
    netlist: &Netlist,
    placement: &Placement,
    routing: &RoutingState,
    net: NetId,
) -> Vec<f64> {
    let mut scratch = ElmoreScratch::default();
    let mut out = vec![0.0; netlist.net(net).fanout()];
    net_sink_delays_into(
        arch,
        netlist,
        placement,
        routing,
        net,
        &mut scratch,
        &mut out,
    );
    out
}

/// [`net_sink_delays`] writing into a caller's slice, one slot per sink in
/// sink order, with reusable Elmore scratch — the hot-path form.
pub fn net_sink_delays_into(
    arch: &Architecture,
    netlist: &Netlist,
    placement: &Placement,
    routing: &RoutingState,
    net: NetId,
    scratch: &mut ElmoreScratch,
    out: &mut [f64],
) {
    if elmore_sink_delays_into(arch, netlist, placement, routing, net, scratch, out) {
        return;
    }
    out.fill(estimate_sink_delay(arch, netlist, placement, net));
}

/// Intrinsic delay charged when a signal propagates *through* a cell to its
/// output: the module's combinational delay, a flip-flop's clock-to-output
/// delay, or the pad delay of a primary input.
pub fn cell_intrinsic_delay(arch: &Architecture, kind: CellKind) -> f64 {
    let p = arch.delay();
    match kind {
        CellKind::Input => p.t_io,
        CellKind::Output => 0.0,
        CellKind::Comb { .. } => p.t_comb,
        CellKind::Seq => p.t_seq,
    }
}

/// Intrinsic delay charged when a path *terminates* at a cell: the pad
/// delay of a primary output; zero at a flip-flop's data input.
pub fn endpoint_intrinsic_delay(arch: &Architecture, kind: CellKind) -> f64 {
    match kind {
        CellKind::Output => arch.delay().t_io,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowfpga_netlist::{generate, GenerateConfig};
    use rowfpga_route::{route_batch, RouterConfig};

    #[test]
    fn routed_and_unrouted_nets_both_get_delays() {
        let nl = generate(&GenerateConfig {
            num_cells: 30,
            num_inputs: 4,
            num_outputs: 4,
            num_seq: 2,
            ..GenerateConfig::default()
        });
        let arch = Architecture::builder()
            .rows(4)
            .cols(12)
            .io_columns(1)
            .tracks_per_channel(20)
            .build()
            .unwrap();
        let p = Placement::random(&arch, &nl, 2).unwrap();
        let mut st = RoutingState::new(&arch, &nl);
        // Unrouted: every net still gets a (uniform) estimate.
        for (id, net) in nl.nets() {
            let d = net_sink_delays(&arch, &nl, &p, &st, id);
            assert_eq!(d.len(), net.fanout());
            assert!(d.iter().all(|x| *x > 0.0));
            assert!(d.windows(2).all(|w| w[0] == w[1]), "estimate is uniform");
        }
        // Routed: per-sink delays generally differ.
        let out = route_batch(&mut st, &arch, &nl, &p, &RouterConfig::default(), 8);
        assert!(out.fully_routed);
        for (id, net) in nl.nets() {
            let d = net_sink_delays(&arch, &nl, &p, &st, id);
            assert_eq!(d.len(), net.fanout());
            assert!(d.iter().all(|x| *x > 0.0));
        }
    }

    #[test]
    fn intrinsic_delays_match_params() {
        let arch = Architecture::builder().build().unwrap();
        let p = arch.delay();
        assert_eq!(cell_intrinsic_delay(&arch, CellKind::Input), p.t_io);
        assert_eq!(cell_intrinsic_delay(&arch, CellKind::comb(3)), p.t_comb);
        assert_eq!(cell_intrinsic_delay(&arch, CellKind::Seq), p.t_seq);
        assert_eq!(cell_intrinsic_delay(&arch, CellKind::Output), 0.0);
        assert_eq!(endpoint_intrinsic_delay(&arch, CellKind::Output), p.t_io);
        assert_eq!(endpoint_intrinsic_delay(&arch, CellKind::Seq), 0.0);
    }
}
