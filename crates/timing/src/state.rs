// rowfpga-lint: hot-path
//! The incremental worst-case delay engine (paper §3.5, Figure 5).
//!
//! Cells are levelized once (levels depend only on connectivity), which
//! fixes a topological order of the non-boundary cells. After a move
//! reroutes a set of nets, their interconnect delays are recomputed and the
//! change is propagated to the path boundaries through a *frontier* of
//! affected cells: a bitset over positions in that order, swept upward. A
//! cell's output arrival is refreshed from its inputs, and only if it
//! changed are its fanout cells added. Every fanout edge between
//! non-boundary cells lands at a higher position, so each queued cell is
//! processed exactly once, after all of its drivers. All mutations are
//! journaled so a rejected move can be undone exactly.

use rowfpga_arch::Architecture;
use rowfpga_netlist::{CellId, CellKind, CombLoopError, Levels, NetId, Netlist, PinRef};
use rowfpga_place::Placement;
use rowfpga_route::RoutingState;

use crate::delay::{cell_intrinsic_delay, endpoint_intrinsic_delay, net_sink_delays_into};
use crate::elmore::ElmoreScratch;
use crate::sta::is_endpoint;

/// Tag of an endpoint in an encoded sink list; an untagged entry is the
/// topological position of a non-boundary sink.
const ENDPOINT: u32 = 1 << 31;

/// One input connection of a cell: the driving cell and the flat index of
/// this pin's sink delay — everything `worst_input_arrival` re-derived per
/// call, resolved once.
#[derive(Clone, Copy, Debug)]
struct FaninEdge {
    driver: u32,
    delay: u32,
}

/// Lookup tables derived from connectivity and fabric delay parameters,
/// both immutable for the lifetime of the state: per-cell fanin edges,
/// intrinsic delays, the topological order, and every net's sinks encoded
/// for the frontier, in CSR form. These turn the frontier's inner loop into
/// flat array reads.
#[derive(Clone, Debug)]
struct CellTables {
    fanin_start: Vec<u32>,
    fanin_edges: Vec<FaninEdge>,
    intrinsic: Vec<f64>,
    endpoint_intrinsic: Vec<f64>,
    /// CSR offsets into the flat sink-delay array, one slice per net.
    net_sink_start: Vec<u32>,
    /// CSR offsets into `net_push`, one slice per net.
    net_push_start: Vec<u32>,
    /// Each net's sinks as the frontier queues them: the position of a
    /// non-boundary sink, or `ENDPOINT | cell` for a path endpoint (other
    /// boundaries end propagation and are left out).
    net_push: Vec<u32>,
    /// Per topological position, the cell and the net it drives
    /// (`u32::MAX` for none).
    order: Vec<(u32, u32)>,
}

impl CellTables {
    // rowfpga-lint: begin-allow(hot-path) reason=one-time table construction before annealing starts
    fn build(arch: &Architecture, netlist: &Netlist, levels: &Levels) -> CellTables {
        let n = netlist.num_cells();
        let mut position = vec![u32::MAX; n];
        for (pos, cell) in levels.order().iter().enumerate() {
            position[cell.index()] = pos as u32;
        }
        let mut t = CellTables {
            fanin_start: Vec::with_capacity(n + 1),
            fanin_edges: Vec::new(),
            intrinsic: Vec::with_capacity(n),
            endpoint_intrinsic: Vec::with_capacity(n),
            net_sink_start: Vec::with_capacity(netlist.num_nets() + 1),
            net_push_start: Vec::with_capacity(netlist.num_nets() + 1),
            net_push: Vec::new(),
            order: levels
                .order()
                .iter()
                .map(|&c| {
                    let driven = netlist.driven_net(c).map_or(u32::MAX, |n| n.index() as u32);
                    (c.index() as u32, driven)
                })
                .collect(),
        };
        let mut sinks = 0;
        for (_, net) in netlist.nets() {
            t.net_sink_start.push(sinks);
            sinks += net.sinks().len() as u32;
            t.net_push_start.push(t.net_push.len() as u32);
            for s in net.sinks() {
                let kind = netlist.cell(s.cell).kind();
                if !kind.is_boundary() {
                    t.net_push.push(position[s.cell.index()]);
                } else if is_endpoint(kind) {
                    t.net_push.push(ENDPOINT | s.cell.index() as u32);
                }
            }
        }
        t.net_sink_start.push(sinks);
        t.net_push_start.push(t.net_push.len() as u32);
        for (id, cell) in netlist.cells() {
            let kind = cell.kind();
            t.fanin_start.push(t.fanin_edges.len() as u32);
            // Same pin order as `sta::argmax_input`, so the max-fold visits
            // arrivals in the identical sequence.
            let first_input = u8::from(kind.has_output());
            for pin in first_input..kind.num_pins() as u8 {
                let pin_ref = PinRef::new(id, pin);
                let Some(net) = netlist.net_of(pin_ref) else {
                    continue;
                };
                let nref = netlist.net(net);
                let sink_idx = nref
                    .sinks()
                    .iter()
                    .position(|s| *s == pin_ref)
                    .expect("pin is a sink of its net");
                t.fanin_edges.push(FaninEdge {
                    driver: nref.driver().cell.index() as u32,
                    delay: t.net_sink_start[net.index()] + sink_idx as u32,
                });
            }
            t.intrinsic.push(cell_intrinsic_delay(arch, kind));
            t.endpoint_intrinsic
                .push(endpoint_intrinsic_delay(arch, kind));
        }
        t.fanin_start.push(t.fanin_edges.len() as u32);
        t
    }
    // rowfpga-lint: end-allow(hot-path)

    /// The flat sink-delay range of `net`.
    fn delay_range(&self, net: NetId) -> std::ops::Range<usize> {
        let i = net.index();
        match (self.net_sink_start.get(i), self.net_sink_start.get(i + 1)) {
            (Some(&lo), Some(&hi)) => lo as usize..hi as usize,
            _ => 0..0,
        }
    }

    /// The encoded sinks of `net` (empty if out of range).
    fn push_list(&self, net: usize) -> &[u32] {
        let (Some(&lo), Some(&hi)) = (
            self.net_push_start.get(net),
            self.net_push_start.get(net + 1),
        ) else {
            return &[];
        };
        self.net_push
            .get(lo as usize..hi as usize)
            .unwrap_or_default()
    }
}

/// Generation-stamped undo log: the first mutation of each quantity inside
/// a transaction records its prior value in a flat array; per-index stamps
/// make the first-touch test O(1) with nothing to clear between
/// transactions. A net's old sink delays are copied into one flat buffer,
/// in the order the nets are listed.
#[derive(Clone, Debug)]
struct UndoLog {
    active: bool,
    generation: u64,
    arr_stamp: Vec<u64>,
    endpoint_stamp: Vec<u64>,
    net_stamp: Vec<u64>,
    saved_arr: Vec<(CellId, f64)>,
    saved_endpoint: Vec<(CellId, f64)>,
    saved_nets: Vec<NetId>,
    saved_delays: Vec<f64>,
    worst: Option<f64>,
}

/// The propagation frontier of [`TimingState::update_nets`]: one bit per
/// position in the topological order (always emptied by the sweep) and
/// epoch-stamped endpoint marks (no per-call clearing).
#[derive(Clone, Debug, Default)]
struct Frontier {
    bits: Vec<u64>,
    /// Lowest and highest word set since the last sweep.
    lo: usize,
    hi: usize,
    epoch: u64,
    endpoint_dirty: Vec<u64>,
}

impl Frontier {
    /// Starts a new propagation: nothing queued, no endpoint dirty.
    fn begin(&mut self) {
        self.epoch += 1;
        self.lo = usize::MAX;
        self.hi = 0;
    }

    /// Queues every non-boundary sink of an encoded list (a set bit is
    /// queued once however often it is pushed) and marks every endpoint
    /// among them dirty.
    fn push(&mut self, sinks: &[u32]) {
        for &s in sinks {
            if s & ENDPOINT != 0 {
                if let Some(d) = self.endpoint_dirty.get_mut((s & !ENDPOINT) as usize) {
                    *d = self.epoch;
                }
                continue;
            }
            let w = s as usize / 64;
            if let Some(word) = self.bits.get_mut(w) {
                *word |= 1 << (s % 64);
                self.lo = self.lo.min(w);
                self.hi = self.hi.max(w);
            }
        }
    }

    /// Takes the lowest queued position at or above word `w`, advancing
    /// `w` past emptied words; `None` once the sweep passes the highest
    /// word set.
    fn pop(&mut self, w: &mut usize) -> Option<usize> {
        while *w <= self.hi {
            let word = self.bits.get_mut(*w)?;
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return Some(*w * 64 + bit);
            }
            *w += 1;
        }
        None
    }
}

/// Reusable buffers for [`TimingState::update_nets`]: the frontier and the
/// Elmore evaluation scratch.
#[derive(Clone, Debug, Default)]
struct UpdateScratch {
    frontier: Frontier,
    elmore: ElmoreScratch,
}

/// Incrementally maintained timing state: per-cell arrivals, per-net sink
/// delays (one flat array, sliced per net) and the worst endpoint arrival
/// (the cost term `T`).
#[derive(Clone, Debug)]
pub struct TimingState {
    tables: CellTables,
    arr: Vec<f64>,
    endpoint_arr: Vec<f64>,
    delays: Vec<f64>,
    endpoints: Vec<CellId>,
    worst: f64,
    undo: UndoLog,
    scratch: UpdateScratch,
    /// Cells popped off the frontier by the most recent
    /// [`TimingState::update_nets`] call (observability only; not
    /// journaled, since it never affects results).
    last_frontier: usize,
}

impl TimingState {
    /// Levelizes the netlist and computes the initial full analysis.
    ///
    /// # Errors
    ///
    /// Returns [`CombLoopError`] if the netlist has a combinational cycle.
    // rowfpga-lint: begin-allow(hot-path) reason=one-time constructor sizes every buffer for the whole run
    pub fn new(
        arch: &Architecture,
        netlist: &Netlist,
        placement: &Placement,
        routing: &RoutingState,
    ) -> Result<TimingState, CombLoopError> {
        let levels = Levels::compute(netlist)?;
        let tables = CellTables::build(arch, netlist, &levels);
        let num_sinks = tables.net_sink_start.last().map_or(0, |&n| n as usize);
        let endpoints = netlist
            .cells()
            .filter(|(_, c)| is_endpoint(c.kind()))
            .map(|(id, _)| id)
            .collect();
        let mut state = TimingState {
            arr: vec![0.0; netlist.num_cells()],
            endpoint_arr: vec![f64::NEG_INFINITY; netlist.num_cells()],
            delays: vec![0.0; num_sinks],
            endpoints,
            worst: 0.0,
            undo: UndoLog {
                active: false,
                generation: 0,
                arr_stamp: vec![0; netlist.num_cells()],
                endpoint_stamp: vec![0; netlist.num_cells()],
                net_stamp: vec![0; netlist.num_nets()],
                saved_arr: Vec::new(),
                saved_endpoint: Vec::new(),
                saved_nets: Vec::new(),
                saved_delays: Vec::new(),
                worst: None,
            },
            scratch: UpdateScratch {
                frontier: Frontier {
                    bits: vec![0; tables.order.len().div_ceil(64)],
                    endpoint_dirty: vec![0; netlist.num_cells()],
                    ..Frontier::default()
                },
                ..UpdateScratch::default()
            },
            tables,
            last_frontier: 0,
        };
        state.full_analyze(arch, netlist, placement, routing);
        Ok(state)
    }
    // rowfpga-lint: end-allow(hot-path)

    /// Recomputes everything from scratch (used at construction and as a
    /// test oracle against the incremental path).
    pub fn full_analyze(
        &mut self,
        arch: &Architecture,
        netlist: &Netlist,
        placement: &Placement,
        routing: &RoutingState,
    ) {
        assert!(
            !self.undo.active,
            "full analysis inside a transaction is not supported"
        );
        for (id, _) in netlist.nets() {
            let range = self.tables.delay_range(id);
            net_sink_delays_into(
                arch,
                netlist,
                placement,
                routing,
                id,
                &mut self.scratch.elmore,
                &mut self.delays[range],
            );
        }
        for (id, cell) in netlist.cells() {
            self.arr[id.index()] = match cell.kind() {
                CellKind::Input | CellKind::Seq => cell_intrinsic_delay(arch, cell.kind()),
                _ => 0.0,
            };
        }
        for pos in 0..self.tables.order.len() {
            let Some(&(cell, _)) = self.tables.order.get(pos) else {
                continue;
            };
            let cell = CellId::new(cell as usize);
            self.arr[cell.index()] =
                self.worst_fanin(cell).unwrap_or(0.0) + self.tables.intrinsic[cell.index()];
        }
        for i in 0..self.endpoints.len() {
            let e = self.endpoints[i];
            self.endpoint_arr[e.index()] =
                self.worst_fanin(e).unwrap_or(0.0) + self.tables.endpoint_intrinsic[e.index()];
        }
        self.worst = self.scan_worst();
    }

    /// The latest input arrival of `cell` over its precomputed fanin edges
    /// — the allocation- and lookup-free equivalent of
    /// [`crate::sta`]'s `worst_input_arrival`, folding arrivals in the same
    /// pin order.
    fn worst_fanin(&self, cell: CellId) -> Option<f64> {
        let lo = self.tables.fanin_start[cell.index()] as usize;
        let hi = self.tables.fanin_start[cell.index() + 1] as usize;
        let mut best: Option<f64> = None;
        for e in &self.tables.fanin_edges[lo..hi] {
            let a = self.arr[e.driver as usize] + self.delays[e.delay as usize];
            if best.is_none_or(|b| a > b) {
                best = Some(a);
            }
        }
        best
    }

    /// Worst-case path delay `T`, in picoseconds.
    pub fn worst(&self) -> f64 {
        self.worst
    }

    /// Arrival time at a cell's output.
    pub fn arrival(&self, cell: CellId) -> f64 {
        self.arr[cell.index()]
    }

    /// The interconnect delays currently charged to a net's sinks.
    pub fn net_delays(&self, net: NetId) -> &[f64] {
        &self.delays[self.tables.delay_range(net)]
    }

    /// Every cell's output arrival time, indexed by cell id — the dense
    /// view behind [`TimingState::arrival`]. Differential oracles digest
    /// this slice to compare an incremental state against a from-scratch
    /// analysis without one accessor call per cell.
    pub fn arrivals(&self) -> &[f64] {
        &self.arr
    }

    /// Cells processed by the propagation frontier of the most recent
    /// [`TimingState::update_nets`] call (0 if it had nothing to do). A
    /// cheap proxy for how far a move's timing disturbance traveled.
    pub fn last_frontier(&self) -> usize {
        self.last_frontier
    }

    /// Starts journaling for a speculative move.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already active.
    pub fn begin_txn(&mut self) {
        assert!(!self.undo.active, "timing transaction already active");
        debug_assert!(
            self.undo.saved_arr.is_empty()
                && self.undo.saved_endpoint.is_empty()
                && self.undo.saved_nets.is_empty()
                && self.undo.saved_delays.is_empty()
                && self.undo.worst.is_none()
        );
        self.undo.active = true;
        self.undo.generation += 1;
    }

    /// Makes all changes since [`TimingState::begin_txn`] permanent.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn commit(&mut self) {
        assert!(self.undo.active, "no timing transaction to commit");
        self.undo.active = false;
        self.undo.saved_arr.clear();
        self.undo.saved_endpoint.clear();
        self.undo.saved_nets.clear();
        self.undo.saved_delays.clear();
        self.undo.worst = None;
    }

    /// Restores the state at [`TimingState::begin_txn`].
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn rollback(&mut self) {
        assert!(self.undo.active, "no timing transaction to roll back");
        self.undo.active = false;
        for &(cell, v) in &self.undo.saved_arr {
            self.arr[cell.index()] = v;
        }
        self.undo.saved_arr.clear();
        for &(cell, v) in &self.undo.saved_endpoint {
            self.endpoint_arr[cell.index()] = v;
        }
        self.undo.saved_endpoint.clear();
        let mut saved = self.undo.saved_delays.as_slice();
        for &net in &self.undo.saved_nets {
            let range = self.tables.delay_range(net);
            let (old, rest) = saved.split_at(range.len().min(saved.len()));
            if let Some(current) = self.delays.get_mut(range) {
                current.copy_from_slice(old);
            }
            saved = rest;
        }
        self.undo.saved_nets.clear();
        self.undo.saved_delays.clear();
        if let Some(w) = self.undo.worst.take() {
            self.worst = w;
        }
    }

    /// Recomputes the delays of `changed` nets and propagates arrivals to
    /// the boundaries through the topological bitset frontier. Returns the
    /// new worst delay.
    pub fn update_nets(
        &mut self,
        arch: &Architecture,
        netlist: &Netlist,
        placement: &Placement,
        routing: &RoutingState,
        changed: &[NetId],
    ) -> f64 {
        self.last_frontier = 0;
        if changed.is_empty() {
            return self.worst;
        }
        self.save_worst();
        self.scratch.frontier.begin();

        for &net in changed {
            self.save_net(net);
            let Some(delays) = self.delays.get_mut(self.tables.delay_range(net)) else {
                continue;
            };
            net_sink_delays_into(
                arch,
                netlist,
                placement,
                routing,
                net,
                &mut self.scratch.elmore,
                delays,
            );
            self.scratch
                .frontier
                .push(self.tables.push_list(net.index()));
        }

        // Sweep the positions upward. A cell's fanout sits at strictly
        // higher positions, so every cell sees final arrivals on all of its
        // inputs, and a position is never set again once passed.
        let mut w = self.scratch.frontier.lo;
        while let Some(pos) = self.scratch.frontier.pop(&mut w) {
            self.last_frontier += 1;
            let Some(&(cell, driven)) = self.tables.order.get(pos) else {
                continue;
            };
            let i = cell as usize;
            let (Some(&intrinsic), Some(&old)) = (self.tables.intrinsic.get(i), self.arr.get(i))
            else {
                continue;
            };
            let new_arr = self.worst_fanin(CellId::new(i)).unwrap_or(0.0) + intrinsic;
            if new_arr == old {
                continue;
            }
            self.save_arr(CellId::new(i));
            if let Some(a) = self.arr.get_mut(i) {
                *a = new_arr;
            }
            self.scratch
                .frontier
                .push(self.tables.push_list(driven as usize));
        }

        let epoch = self.scratch.frontier.epoch;
        for i in 0..self.endpoints.len() {
            let e = self.endpoints[i];
            if self.scratch.frontier.endpoint_dirty[e.index()] != epoch {
                continue;
            }
            let ea = self.worst_fanin(e).unwrap_or(0.0) + self.tables.endpoint_intrinsic[e.index()];
            if ea != self.endpoint_arr[e.index()] {
                self.save_endpoint(e);
                self.endpoint_arr[e.index()] = ea;
            }
        }
        self.worst = self.scan_worst();
        self.worst
    }

    fn scan_worst(&self) -> f64 {
        self.endpoints
            .iter()
            .map(|e| self.endpoint_arr[e.index()])
            .fold(0.0f64, f64::max)
    }

    fn save_arr(&mut self, cell: CellId) {
        if !self.undo.active {
            return;
        }
        let i = cell.index();
        if self.undo.arr_stamp[i] == self.undo.generation {
            return;
        }
        self.undo.arr_stamp[i] = self.undo.generation;
        self.undo.saved_arr.push((cell, self.arr[i]));
    }

    fn save_endpoint(&mut self, cell: CellId) {
        if !self.undo.active {
            return;
        }
        let i = cell.index();
        if self.undo.endpoint_stamp[i] == self.undo.generation {
            return;
        }
        self.undo.endpoint_stamp[i] = self.undo.generation;
        self.undo.saved_endpoint.push((cell, self.endpoint_arr[i]));
    }

    /// Journals a net's current sink delays on first touch, copying its
    /// slice onto the end of the flat undo buffer.
    fn save_net(&mut self, net: NetId) {
        if !self.undo.active {
            return;
        }
        let i = net.index();
        if self.undo.net_stamp[i] == self.undo.generation {
            return;
        }
        self.undo.net_stamp[i] = self.undo.generation;
        self.undo.saved_nets.push(net);
        let old = self
            .delays
            .get(self.tables.delay_range(net))
            .unwrap_or_default();
        self.undo.saved_delays.extend_from_slice(old);
    }

    fn save_worst(&mut self) {
        if self.undo.active && self.undo.worst.is_none() {
            self.undo.worst = Some(self.worst);
        }
    }
}

/// Deterministic corruption hooks for the resilience layer's fault-injection
/// tests. Compiled only with the `fault-inject` feature; never called by
/// production code.
#[cfg(feature = "fault-inject")]
impl TimingState {
    /// Skews the cached worst-case delay by `delta_ps` — simulates a missed
    /// frontier propagation that left the cost term `T` stale.
    pub fn fault_skew_worst(&mut self, delta_ps: f64) {
        self.worst += delta_ps;
    }

    /// Skews the arrival time of the cell with index `cell % num_cells` by
    /// `delta_ps` — a silent mid-cone divergence that a worst-only check
    /// would miss.
    pub fn fault_skew_arrival(&mut self, cell: usize, delta_ps: f64) {
        let idx = cell % self.arr.len().max(1);
        if idx < self.arr.len() {
            self.arr[idx] += delta_ps;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowfpga_netlist::{generate, GenerateConfig};
    use rowfpga_route::{route_batch, RouterConfig};

    fn problem(seed: u64) -> (Architecture, Netlist, Placement, RoutingState) {
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
        let p = Placement::random(&arch, &nl, seed).unwrap();
        let mut st = RoutingState::new(&arch, &nl);
        route_batch(&mut st, &arch, &nl, &p, &RouterConfig::default(), 8);
        (arch, nl, p, st)
    }

    #[test]
    fn initial_state_matches_sta() {
        let (arch, nl, p, st) = problem(3);
        let ts = TimingState::new(&arch, &nl, &p, &st).unwrap();
        let sta = crate::Sta::analyze(&arch, &nl, &p, &st).unwrap();
        assert_eq!(ts.worst().to_bits(), sta.worst_delay().to_bits());
        for (id, c) in nl.cells() {
            if c.kind().has_output() {
                assert_eq!(ts.arrival(id).to_bits(), sta.arrival(id).to_bits());
            }
        }
    }

    #[test]
    fn incremental_update_matches_full_reanalysis() {
        let (arch, nl, mut p, mut st) = problem(5);
        let cfg = RouterConfig::default();
        let mut ts = TimingState::new(&arch, &nl, &p, &st).unwrap();

        let cells: Vec<CellId> = nl
            .cells()
            .filter(|(_, c)| !c.kind().is_io())
            .map(|(id, _)| id)
            .collect();
        for w in cells.windows(2).take(20) {
            // Move, rip up, reroute — then update incrementally and compare
            // against a from-scratch analysis.
            p.swap_sites(&arch, p.site_of(w[0]), p.site_of(w[1]));
            let mut changed: Vec<NetId> = nl.nets_of_cell(w[0]);
            changed.extend(nl.nets_of_cell(w[1]));
            changed.sort_unstable();
            changed.dedup();
            st.rip_up_cell(&nl, w[0]);
            st.rip_up_cell(&nl, w[1]);
            st.route_incremental(&arch, &nl, &p, &cfg);
            let worst = ts.update_nets(&arch, &nl, &p, &st, &changed);

            let oracle = TimingState::new(&arch, &nl, &p, &st).unwrap();
            assert_eq!(
                worst.to_bits(),
                oracle.worst().to_bits(),
                "incremental {worst} != full {}",
                oracle.worst()
            );
            for (id, c) in nl.cells() {
                if c.kind().has_output() {
                    assert_eq!(
                        ts.arrival(id).to_bits(),
                        oracle.arrival(id).to_bits(),
                        "arrival mismatch on {id:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn rollback_restores_timing_exactly() {
        let (arch, nl, mut p, mut st) = problem(9);
        let cfg = RouterConfig::default();
        let mut ts = TimingState::new(&arch, &nl, &p, &st).unwrap();
        let reference = ts.clone();

        let cells: Vec<CellId> = nl
            .cells()
            .filter(|(_, c)| !c.kind().is_io())
            .map(|(id, _)| id)
            .collect();
        let (a, b) = (cells[0], cells[1]);

        ts.begin_txn();
        st.begin_txn();
        p.swap_sites(&arch, p.site_of(a), p.site_of(b));
        let mut changed = nl.nets_of_cell(a);
        changed.extend(nl.nets_of_cell(b));
        changed.sort_unstable();
        changed.dedup();
        st.rip_up_cell(&nl, a);
        st.rip_up_cell(&nl, b);
        st.route_incremental(&arch, &nl, &p, &cfg);
        ts.update_nets(&arch, &nl, &p, &st, &changed);
        // reject
        ts.rollback();
        st.rollback();
        p.swap_sites(&arch, p.site_of(a), p.site_of(b)); // p.site_of(a) is b's old site now

        assert_eq!(ts.worst(), reference.worst());
        for (id, _) in nl.cells() {
            assert_eq!(ts.arrival(id), reference.arrival(id));
        }
        for (id, _) in nl.nets() {
            assert_eq!(ts.net_delays(id), reference.net_delays(id));
        }
    }

    /// Bit patterns of every output and endpoint arrival, plus `worst`.
    fn arrival_bits(ts: &TimingState) -> (Vec<u64>, Vec<u64>, u64) {
        (
            ts.arr.iter().map(|a| a.to_bits()).collect(),
            ts.endpoint_arr.iter().map(|a| a.to_bits()).collect(),
            ts.worst.to_bits(),
        )
    }

    #[test]
    fn reconvergent_frontier_processes_each_cell_once() {
        // inp reaches `join` twice: through the chain c1 → c2 → c3, and
        // directly. join then feeds tail → out.
        let mut b = Netlist::builder();
        let inp = b.add_cell("inp", CellKind::Input);
        let c1 = b.add_cell("c1", CellKind::comb(1));
        let c2 = b.add_cell("c2", CellKind::comb(1));
        let c3 = b.add_cell("c3", CellKind::comb(1));
        let join = b.add_cell("join", CellKind::comb(2));
        let tail = b.add_cell("tail", CellKind::comb(1));
        let out = b.add_cell("out", CellKind::Output);
        b.connect("n_in", inp, [(c1, 1), (join, 2)]).unwrap();
        b.connect("n1", c1, [(c2, 1)]).unwrap();
        b.connect("n2", c2, [(c3, 1)]).unwrap();
        b.connect("n3", c3, [(join, 1)]).unwrap();
        b.connect("nj", join, [(tail, 1)]).unwrap();
        b.connect("nt", tail, [(out, 0)]).unwrap();
        let nl = b.build().unwrap();
        let arch = Architecture::builder()
            .rows(4)
            .cols(8)
            .io_columns(1)
            .tracks_per_channel(12)
            .build()
            .unwrap();
        let cfg = RouterConfig::default();
        let mut p = Placement::random(&arch, &nl, 4).unwrap();
        let mut st = RoutingState::new(&arch, &nl);
        assert!(route_batch(&mut st, &arch, &nl, &p, &cfg, 4).fully_routed);
        let mut ts = TimingState::new(&arch, &nl, &p, &st).unwrap();
        let before = ts.clone();

        // Move the input to the farthest free I/O site and reroute its net.
        let geom = arch.geometry();
        let here = geom.site(p.site_of(inp));
        let far = geom
            .sites_of_kind(rowfpga_arch::SiteKind::Io)
            .filter(|s| p.cell_at(s.id()).is_none())
            .max_by_key(|s| {
                s.row().index().abs_diff(here.row().index())
                    + s.col().index().abs_diff(here.col().index())
            })
            .unwrap()
            .id();
        let from = p.site_of(inp);
        st.begin_txn();
        ts.begin_txn();
        p.swap_sites(&arch, from, far);
        st.rip_up_cell(&nl, inp);
        st.route_incremental(&arch, &nl, &p, &cfg);
        let changed = st.touched_nets().to_vec();
        assert_eq!(changed, vec![nl.net_by_name("n_in").unwrap()]);
        ts.update_nets(&arch, &nl, &p, &st, &changed);

        let full = TimingState::new(&arch, &nl, &p, &st).unwrap();
        assert_eq!(arrival_bits(&ts), arrival_bits(&full));

        // The non-boundary cells the change reaches: sinks of the rerouted
        // net, then the fanout of every reached cell whose arrival moved.
        let mut reached = vec![false; nl.num_cells()];
        let mut stack: Vec<CellId> = nl.net(changed[0]).sinks().iter().map(|s| s.cell).collect();
        while let Some(c) = stack.pop() {
            if nl.cell(c).kind().is_boundary() || reached[c.index()] {
                continue;
            }
            reached[c.index()] = true;
            if full.arrival(c) != before.arrival(c) {
                let net = nl.driven_net(c).unwrap();
                stack.extend(nl.net(net).sinks().iter().map(|s| s.cell));
            }
        }
        for c in [c1, c2, c3, join, tail] {
            assert!(reached[c.index()], "{c:?} not reached");
        }
        assert_ne!(full.arrival(c3), before.arrival(c3), "join reached twice");
        assert_eq!(
            ts.last_frontier(),
            reached.iter().filter(|&&r| r).count(),
            "each reached cell processed exactly once"
        );

        ts.rollback();
        st.rollback();
        p.swap_sites(&arch, far, from);
        assert_eq!(arrival_bits(&ts), arrival_bits(&before));
    }

    #[test]
    fn empty_update_is_free() {
        let (arch, nl, p, st) = problem(2);
        let mut ts = TimingState::new(&arch, &nl, &p, &st).unwrap();
        let w = ts.worst();
        assert_eq!(ts.update_nets(&arch, &nl, &p, &st, &[]), w);
        assert_eq!(ts.last_frontier(), 0);
    }

    #[test]
    #[should_panic(expected = "transaction already active")]
    fn nested_timing_transactions_are_rejected() {
        let (arch, nl, p, st) = problem(2);
        let mut ts = TimingState::new(&arch, &nl, &p, &st).unwrap();
        ts.begin_txn();
        ts.begin_txn();
    }
}
