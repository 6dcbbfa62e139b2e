//! Full static timing analysis and critical path extraction.
//!
//! Paths are bounded by primary inputs, primary outputs and sequential
//! cells (paper §3.5). The long-path problem is considered and all paths
//! are assumed sensitizable — a conservative simplification the paper makes
//! explicitly. The same analyzer scores layouts from both the simultaneous
//! and the sequential flow, so improvement numbers compare like with like.

use rowfpga_arch::Architecture;
use rowfpga_netlist::{CellId, CellKind, CombLoopError, Levels, NetId, Netlist, PinRef};
use rowfpga_place::Placement;
use rowfpga_route::RoutingState;

use crate::delay::{cell_intrinsic_delay, endpoint_intrinsic_delay, net_sink_delays};

/// One cell on a critical path, with the signal's arrival time at its
/// output (or, for the terminal endpoint, at the path's end).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathElement {
    /// The cell.
    pub cell: CellId,
    /// Arrival time at this element, in picoseconds.
    pub arrival: f64,
}

/// The worst (longest) register-to-register / boundary-to-boundary path.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalPath {
    /// Path cells from launching boundary to capturing endpoint.
    pub elements: Vec<PathElement>,
    /// Total path delay in picoseconds (equals the worst-case `T`).
    pub delay: f64,
}

/// A completed static timing analysis.
#[derive(Clone, Debug)]
pub struct Sta {
    arr: Vec<f64>,
    net_delays: Vec<Vec<f64>>,
    worst: f64,
    worst_endpoint: Option<CellId>,
}

impl Sta {
    /// Analyzes the design under the given placement and routing: computes
    /// every cell's output arrival time and the worst endpoint arrival.
    ///
    /// Interconnect delays are exact Elmore numbers for embedded nets and
    /// spatial-extent estimates otherwise, so the analysis is meaningful at
    /// any stage of layout.
    ///
    /// # Errors
    ///
    /// Returns [`CombLoopError`] if the netlist has a combinational cycle.
    pub fn analyze(
        arch: &Architecture,
        netlist: &Netlist,
        placement: &Placement,
        routing: &RoutingState,
    ) -> Result<Sta, CombLoopError> {
        Self::analyze_observed(
            arch,
            netlist,
            placement,
            routing,
            &rowfpga_obs::Obs::disabled(),
        )
    }

    /// Like [`analyze`](Self::analyze), with an observability handle: a
    /// `sta.full` span plus counters for the cells and endpoints visited
    /// and a histogram of the worst endpoint arrival.
    ///
    /// # Errors
    ///
    /// Returns [`CombLoopError`] if the netlist has a combinational cycle.
    pub fn analyze_observed(
        arch: &Architecture,
        netlist: &Netlist,
        placement: &Placement,
        routing: &RoutingState,
        obs: &rowfpga_obs::Obs,
    ) -> Result<Sta, CombLoopError> {
        obs.span_start("sta.full");
        let out = Self::analyze_inner(arch, netlist, placement, routing);
        if let Ok(sta) = &out {
            obs.inc("sta.full.passes");
            obs.add("sta.full.cells", netlist.num_cells() as u64);
            obs.observe("sta.full.worst_delay", sta.worst);
        }
        obs.span_end("sta.full");
        out
    }

    fn analyze_inner(
        arch: &Architecture,
        netlist: &Netlist,
        placement: &Placement,
        routing: &RoutingState,
    ) -> Result<Sta, CombLoopError> {
        let levels = Levels::compute(netlist)?;
        let net_delays: Vec<Vec<f64>> = netlist
            .nets()
            .map(|(id, _)| net_sink_delays(arch, netlist, placement, routing, id))
            .collect();

        let mut arr = vec![0.0f64; netlist.num_cells()];
        for (id, cell) in netlist.cells() {
            if matches!(cell.kind(), CellKind::Input | CellKind::Seq) {
                arr[id.index()] = cell_intrinsic_delay(arch, cell.kind());
            }
        }
        for &cell in levels.order() {
            let kind = netlist.cell(cell).kind();
            let worst_input = worst_input_arrival(netlist, &arr, &net_delays, cell).unwrap_or(0.0);
            arr[cell.index()] = worst_input + cell_intrinsic_delay(arch, kind);
        }

        let mut worst = 0.0f64;
        let mut worst_endpoint = None;
        for (id, cell) in netlist.cells() {
            if !is_endpoint(cell.kind()) {
                continue;
            }
            let ea = worst_input_arrival(netlist, &arr, &net_delays, id).unwrap_or(0.0)
                + endpoint_intrinsic_delay(arch, cell.kind());
            if ea > worst {
                worst = ea;
                worst_endpoint = Some(id);
            }
        }

        Ok(Sta {
            arr,
            net_delays,
            worst,
            worst_endpoint,
        })
    }

    /// The worst-case path delay `T`, in picoseconds.
    pub fn worst_delay(&self) -> f64 {
        self.worst
    }

    /// Arrival time at a cell's output (meaningful for signal-driving
    /// cells).
    pub fn arrival(&self, cell: CellId) -> f64 {
        self.arr[cell.index()]
    }

    /// The interconnect delay of a net to each sink, as used in this
    /// analysis.
    pub fn net_delays(&self, net: NetId) -> &[f64] {
        &self.net_delays[net.index()]
    }

    /// Extracts the worst path by backtracking from the worst endpoint
    /// through each cell's latest-arriving input.
    pub fn critical_path(&self, netlist: &Netlist) -> CriticalPath {
        let Some(endpoint) = self.worst_endpoint else {
            return CriticalPath {
                elements: Vec::new(),
                delay: 0.0,
            };
        };
        let mut elements = vec![PathElement {
            cell: endpoint,
            arrival: self.worst,
        }];
        let mut cursor = endpoint;
        while let Some((driver, _)) = argmax_input(netlist, &self.arr, &self.net_delays, cursor) {
            elements.push(PathElement {
                cell: driver,
                arrival: self.arr[driver.index()],
            });
            if netlist.cell(driver).kind().is_boundary() {
                break;
            }
            cursor = driver;
        }
        elements.reverse();
        CriticalPath {
            elements,
            delay: self.worst,
        }
    }
}

/// Whether paths terminate at this kind of cell.
pub(crate) fn is_endpoint(kind: CellKind) -> bool {
    matches!(kind, CellKind::Output | CellKind::Seq)
}

/// The latest input arrival of `cell`: max over its input pins of the
/// driver's arrival plus the net delay to that pin. `None` if the cell has
/// no connected inputs.
pub(crate) fn worst_input_arrival(
    netlist: &Netlist,
    arr: &[f64],
    net_delays: &[Vec<f64>],
    cell: CellId,
) -> Option<f64> {
    argmax_input(netlist, arr, net_delays, cell).map(|(_, a)| a)
}

/// The input driver achieving the latest arrival at `cell`, with that
/// arrival.
pub(crate) fn argmax_input(
    netlist: &Netlist,
    arr: &[f64],
    net_delays: &[Vec<f64>],
    cell: CellId,
) -> Option<(CellId, f64)> {
    let kind = netlist.cell(cell).kind();
    let first_input = u8::from(kind.has_output());
    let mut best: Option<(CellId, f64)> = None;
    for pin in first_input..kind.num_pins() as u8 {
        let pin_ref = PinRef::new(cell, pin);
        let Some(net) = netlist.net_of(pin_ref) else {
            continue;
        };
        let n = netlist.net(net);
        let sink_idx = n
            .sinks()
            .iter()
            .position(|s| *s == pin_ref)
            .expect("pin is a sink of its net");
        let a = arr[n.driver().cell.index()] + net_delays[net.index()][sink_idx];
        if best.is_none_or(|(_, b)| a > b) {
            best = Some((n.driver().cell, a));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowfpga_netlist::{generate, GenerateConfig};
    use rowfpga_route::{route_batch, RouterConfig};

    fn problem() -> (Architecture, Netlist, Placement, RoutingState) {
        let nl = generate(&GenerateConfig {
            num_cells: 50,
            num_inputs: 6,
            num_outputs: 6,
            num_seq: 4,
            ..GenerateConfig::default()
        });
        let arch = Architecture::builder()
            .rows(6)
            .cols(14)
            .io_columns(2)
            .tracks_per_channel(24)
            .build()
            .unwrap();
        let p = Placement::random(&arch, &nl, 7).unwrap();
        let mut st = RoutingState::new(&arch, &nl);
        let out = route_batch(&mut st, &arch, &nl, &p, &RouterConfig::default(), 8);
        assert!(out.fully_routed);
        (arch, nl, p, st)
    }

    #[test]
    fn worst_delay_exceeds_intrinsic_floor() {
        let (arch, nl, p, st) = problem();
        let sta = Sta::analyze(&arch, &nl, &p, &st).unwrap();
        // any path passes at least one module
        assert!(sta.worst_delay() > arch.delay().t_comb.min(arch.delay().t_io));
        assert!(sta.worst_delay().is_finite());
    }

    #[test]
    fn observed_analysis_records_span_and_metrics() {
        let (arch, nl, p, st) = problem();
        let obs = rowfpga_obs::Obs::metrics_only();
        let sta = Sta::analyze_observed(&arch, &nl, &p, &st, &obs).unwrap();
        let plain = Sta::analyze(&arch, &nl, &p, &st).unwrap();
        assert_eq!(sta.worst_delay(), plain.worst_delay());
        obs.with_session(|s| {
            assert_eq!(s.metrics.counter("sta.full.passes"), 1);
            assert_eq!(s.metrics.counter("sta.full.cells") as usize, nl.num_cells());
            assert_eq!(s.profiler.total("sta.full").expect("span").calls, 1);
        })
        .unwrap();
    }

    #[test]
    fn critical_path_is_consistent() {
        let (arch, nl, p, st) = problem();
        let sta = Sta::analyze(&arch, &nl, &p, &st).unwrap();
        let cp = sta.critical_path(&nl);
        assert!(!cp.elements.is_empty());
        assert_eq!(cp.delay, sta.worst_delay());
        // starts at a boundary, ends at an endpoint
        let first = nl.cell(cp.elements[0].cell).kind();
        let last = nl.cell(cp.elements.last().unwrap().cell).kind();
        assert!(first.is_boundary(), "path starts at {first:?}");
        assert!(is_endpoint(last), "path ends at {last:?}");
        // arrivals are non-decreasing along the path
        for w in cp.elements.windows(2) {
            assert!(w[0].arrival <= w[1].arrival + 1e-9);
        }
    }

    #[test]
    fn arrivals_are_monotone_in_level() {
        let (arch, nl, p, st) = problem();
        let sta = Sta::analyze(&arch, &nl, &p, &st).unwrap();
        let levels = Levels::compute(&nl).unwrap();
        // every comb cell arrives strictly after its input drivers
        for &cell in levels.order() {
            for net in nl.nets_of_cell(cell) {
                let n = nl.net(net);
                if n.driver().cell == cell {
                    continue;
                }
                assert!(
                    sta.arrival(cell) > sta.arrival(n.driver().cell),
                    "cell {cell:?} not after its driver"
                );
            }
        }
    }

    #[test]
    fn worse_interconnect_worsens_the_clock() {
        let (arch, nl, p, st) = problem();
        let base = Sta::analyze(&arch, &nl, &p, &st).unwrap().worst_delay();
        let slow_arch = {
            let mut b = Architecture::builder()
                .rows(6)
                .cols(14)
                .io_columns(2)
                .tracks_per_channel(24);
            b = b.delay(rowfpga_arch::DelayParams::slow_antifuse());
            b.build().unwrap()
        };
        // same placement/routing topology on the slow fabric
        let slow = Sta::analyze(&slow_arch, &nl, &p, &st)
            .unwrap()
            .worst_delay();
        assert!(slow > base);
    }

    #[test]
    fn unplaced_routing_still_analyzes_with_estimates() {
        let (arch, nl, p, _) = problem();
        let st = RoutingState::new(&arch, &nl); // all unrouted
        let sta = Sta::analyze(&arch, &nl, &p, &st).unwrap();
        assert!(sta.worst_delay() > 0.0);
    }
}

impl Sta {
    /// A human-readable critical-path report: one line per path element
    /// with the element's kind, its arrival time and the increment over the
    /// previous element (cell delay plus interconnect delay of the hop).
    pub fn report(&self, netlist: &Netlist) -> String {
        use std::fmt::Write as _;
        let cp = self.critical_path(netlist);
        let mut out = format!(
            "critical path: {:.2} ns over {} elements\n",
            cp.delay / 1000.0,
            cp.elements.len()
        );
        let mut prev: Option<f64> = None;
        for e in &cp.elements {
            let cell = netlist.cell(e.cell);
            let inc = prev.map(|p| e.arrival - p).unwrap_or(e.arrival);
            let _ = writeln!(
                out,
                "  {:<16} {:<8} arrives {:>9.2} ns  (+{:.2} ns)",
                cell.name(),
                cell.kind().to_string(),
                e.arrival / 1000.0,
                inc / 1000.0
            );
            prev = Some(e.arrival);
        }
        out
    }
}

#[cfg(test)]
mod report_tests {
    use super::*;
    use rowfpga_netlist::{generate, GenerateConfig};
    use rowfpga_route::{route_batch, RouterConfig};

    #[test]
    fn report_lists_every_path_element_with_monotone_arrivals() {
        let nl = generate(&GenerateConfig {
            num_cells: 30,
            num_inputs: 4,
            num_outputs: 4,
            num_seq: 2,
            ..GenerateConfig::default()
        });
        let arch = Architecture::builder()
            .rows(4)
            .cols(10)
            .io_columns(1)
            .tracks_per_channel(14)
            .build()
            .unwrap();
        let p = Placement::random(&arch, &nl, 2).unwrap();
        let mut st = RoutingState::new(&arch, &nl);
        route_batch(&mut st, &arch, &nl, &p, &RouterConfig::default(), 4);
        let sta = Sta::analyze(&arch, &nl, &p, &st).unwrap();
        let report = sta.report(&nl);
        let cp = sta.critical_path(&nl);
        assert_eq!(report.lines().count(), cp.elements.len() + 1);
        assert!(report.starts_with("critical path:"));
        assert!(
            !report.contains("(+-"),
            "negative increment in report:\n{report}"
        );
    }
}
