// rowfpga-lint: hot-path
//! The incremental worst-case delay engine (paper §3.5, Figure 5).
//!
//! Cells are levelized once (levels depend only on connectivity). After a
//! move reroutes a set of nets, their interconnect delays are recomputed
//! and the change is propagated to the path boundaries through a *frontier*
//! of affected cells, bucketed by level and swept upward: a cell's output
//! arrival is refreshed from its inputs, and only if it changed are its
//! fanout cells added. Every fanout edge between non-boundary cells climbs
//! a level, so each queued cell is processed exactly once, after all of its
//! drivers. Expansion stops when the sweep passes the highest queued level.
//! All mutations are journaled so a rejected move can be undone exactly.

use rowfpga_arch::Architecture;
use rowfpga_netlist::{CellId, CellKind, CombLoopError, Levels, NetId, Netlist, PinRef};
use rowfpga_place::Placement;
use rowfpga_route::RoutingState;

use crate::delay::{cell_intrinsic_delay, endpoint_intrinsic_delay, net_sink_delays_into};
use crate::elmore::ElmoreScratch;
use crate::sta::is_endpoint;

/// Arrival changes smaller than this are not propagated.
const EPS: f64 = 1e-9;

/// A sink cell that is neither a boundary nor an endpoint: propagation
/// continues through it.
const SINK_INTERNAL: u8 = 0;
/// A path endpoint (primary output / flip-flop data input).
const SINK_ENDPOINT: u8 = 1;
/// A boundary that terminates propagation without being an endpoint.
const SINK_BOUNDARY: u8 = 2;

/// One input connection of a cell: the driving cell, the net, and this
/// pin's index in the net's sink list — everything `worst_input_arrival`
/// re-derived per call, resolved once.
#[derive(Clone, Copy, Debug)]
struct FaninEdge {
    driver: u32,
    net: u32,
    sink: u32,
}

/// Lookup tables derived from connectivity and fabric delay parameters,
/// both immutable for the lifetime of the state: per-cell fanin edges and
/// the sink cells of every net and of every cell's driven net, in CSR form,
/// plus intrinsic delays, levels and sink classification. These turn the
/// frontier's inner loop into flat array reads.
#[derive(Clone, Debug)]
struct CellTables {
    fanin_start: Vec<u32>,
    fanin_edges: Vec<FaninEdge>,
    intrinsic: Vec<f64>,
    endpoint_intrinsic: Vec<f64>,
    level: Vec<u32>,
    sink_class: Vec<u8>,
    /// CSR offsets into `net_sinks`, one slice per net.
    net_sink_start: Vec<u32>,
    /// Each net's sink cells.
    net_sinks: Vec<u32>,
    /// CSR offsets into `fanout`, one slice per cell.
    fanout_start: Vec<u32>,
    /// Each cell's driven-net sink cells (none for cells without one).
    fanout: Vec<u32>,
}

impl CellTables {
    // rowfpga-lint: begin-allow(hot-path) reason=one-time table construction before annealing starts
    fn build(arch: &Architecture, netlist: &Netlist, levels: &Levels) -> CellTables {
        let n = netlist.num_cells();
        let mut t = CellTables {
            fanin_start: Vec::with_capacity(n + 1),
            fanin_edges: Vec::new(),
            intrinsic: Vec::with_capacity(n),
            endpoint_intrinsic: Vec::with_capacity(n),
            level: Vec::with_capacity(n),
            sink_class: Vec::with_capacity(n),
            net_sink_start: Vec::with_capacity(netlist.num_nets() + 1),
            net_sinks: Vec::new(),
            fanout_start: Vec::with_capacity(n + 1),
            fanout: Vec::new(),
        };
        for (_, net) in netlist.nets() {
            t.net_sink_start.push(t.net_sinks.len() as u32);
            t.net_sinks
                .extend(net.sinks().iter().map(|s| s.cell.index() as u32));
        }
        t.net_sink_start.push(t.net_sinks.len() as u32);
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
                    net: net.index() as u32,
                    sink: sink_idx as u32,
                });
            }
            t.intrinsic.push(cell_intrinsic_delay(arch, kind));
            t.endpoint_intrinsic
                .push(endpoint_intrinsic_delay(arch, kind));
            t.level.push(levels.level(id));
            t.sink_class.push(if kind.is_boundary() {
                if is_endpoint(kind) {
                    SINK_ENDPOINT
                } else {
                    SINK_BOUNDARY
                }
            } else {
                SINK_INTERNAL
            });
            t.fanout_start.push(t.fanout.len() as u32);
            if let Some(net) = netlist.driven_net(id) {
                t.fanout.extend(
                    netlist
                        .net(net)
                        .sinks()
                        .iter()
                        .map(|s| s.cell.index() as u32),
                );
            }
        }
        t.fanin_start.push(t.fanin_edges.len() as u32);
        t.fanout_start.push(t.fanout.len() as u32);
        t
    }
    // rowfpga-lint: end-allow(hot-path)

    /// The sink cells of `net`.
    fn net_sinks(&self, net: NetId) -> &[u32] {
        csr_row(&self.net_sink_start, &self.net_sinks, net.index())
    }

    /// The sink cells of the net `cell` drives.
    fn fanout(&self, cell: usize) -> &[u32] {
        csr_row(&self.fanout_start, &self.fanout, cell)
    }
}

/// Row `i` of a CSR table (empty if out of range).
fn csr_row<'a>(start: &[u32], items: &'a [u32], i: usize) -> &'a [u32] {
    let (Some(&lo), Some(&hi)) = (start.get(i), start.get(i + 1)) else {
        return &[];
    };
    items.get(lo as usize..hi as usize).unwrap_or_default()
}

/// Generation-stamped undo log: the first mutation of each quantity inside
/// a transaction records its prior value in a flat array; per-index stamps
/// make the first-touch test O(1) with nothing to clear between
/// transactions.
#[derive(Clone, Debug)]
struct UndoLog {
    active: bool,
    generation: u64,
    arr_stamp: Vec<u64>,
    endpoint_stamp: Vec<u64>,
    net_stamp: Vec<u64>,
    saved_arr: Vec<(CellId, f64)>,
    saved_endpoint: Vec<(CellId, f64)>,
    saved_nets: Vec<(NetId, Vec<f64>)>,
    worst: Option<f64>,
}

const DELAY_POOL_CAP: usize = 256;

/// The propagation frontier of [`TimingState::update_nets`]: one bucket of
/// queued cells per level (always emptied by the sweep, so their
/// allocations persist) and epoch-stamped queued/dirty marks (no per-call
/// clearing).
#[derive(Clone, Debug, Default)]
struct Frontier {
    buckets: Vec<Vec<u32>>,
    /// Lowest and highest level queued since the last sweep.
    lo: usize,
    hi: usize,
    epoch: u64,
    queued: Vec<u64>,
    endpoint_dirty: Vec<u64>,
}

impl Frontier {
    /// Starts a new propagation: nothing queued, no endpoint dirty.
    fn begin(&mut self) {
        self.epoch += 1;
        self.lo = usize::MAX;
        self.hi = 0;
    }

    /// Queues each non-boundary cell of `sinks` in its level's bucket (once
    /// per propagation) and marks each endpoint among them dirty.
    fn push_sinks(&mut self, tables: &CellTables, sinks: &[u32]) {
        for &cell in sinks {
            let i = cell as usize;
            match tables.sink_class.get(i) {
                Some(&SINK_INTERNAL) => {
                    let (Some(q), Some(&level)) = (self.queued.get_mut(i), tables.level.get(i))
                    else {
                        continue;
                    };
                    if *q == self.epoch {
                        continue;
                    }
                    *q = self.epoch;
                    let level = level as usize;
                    if let Some(bucket) = self.buckets.get_mut(level) {
                        bucket.push(cell);
                        self.lo = self.lo.min(level);
                        self.hi = self.hi.max(level);
                    }
                }
                Some(&SINK_ENDPOINT) => {
                    if let Some(d) = self.endpoint_dirty.get_mut(i) {
                        *d = self.epoch;
                    }
                }
                _ => {}
            }
        }
    }

    /// Takes the cells queued at `level` out of its bucket.
    fn take_level(&mut self, level: usize) -> Vec<u32> {
        self.buckets
            .get_mut(level)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Returns a swept bucket's (cleared) allocation.
    fn put_level(&mut self, level: usize, mut cells: Vec<u32>) {
        if let Some(bucket) = self.buckets.get_mut(level) {
            cells.clear();
            *bucket = cells;
        }
    }
}

/// Reusable buffers for [`TimingState::update_nets`]: the frontier, a pool
/// of retired sink-delay vectors and the Elmore evaluation scratch.
#[derive(Clone, Debug, Default)]
struct UpdateScratch {
    frontier: Frontier,
    delay_pool: Vec<Vec<f64>>,
    elmore: ElmoreScratch,
}

/// Incrementally maintained timing state: per-cell arrivals, per-net sink
/// delays and the worst endpoint arrival (the cost term `T`).
#[derive(Clone, Debug)]
pub struct TimingState {
    levels: Levels,
    tables: CellTables,
    arr: Vec<f64>,
    endpoint_arr: Vec<f64>,
    net_delays: Vec<Vec<f64>>,
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
        let num_levels = levels.max_level() as usize + 1;
        let endpoints = netlist
            .cells()
            .filter(|(_, c)| is_endpoint(c.kind()))
            .map(|(id, _)| id)
            .collect();
        let mut state = TimingState {
            levels,
            tables,
            arr: vec![0.0; netlist.num_cells()],
            endpoint_arr: vec![f64::NEG_INFINITY; netlist.num_cells()],
            net_delays: vec![Vec::new(); netlist.num_nets()],
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
                worst: None,
            },
            scratch: UpdateScratch {
                frontier: Frontier {
                    buckets: vec![Vec::new(); num_levels],
                    queued: vec![0; netlist.num_cells()],
                    endpoint_dirty: vec![0; netlist.num_cells()],
                    ..Frontier::default()
                },
                ..UpdateScratch::default()
            },
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
            net_sink_delays_into(
                arch,
                netlist,
                placement,
                routing,
                id,
                &mut self.scratch.elmore,
                &mut self.net_delays[id.index()],
            );
        }
        for (id, cell) in netlist.cells() {
            self.arr[id.index()] = match cell.kind() {
                CellKind::Input | CellKind::Seq => cell_intrinsic_delay(arch, cell.kind()),
                _ => 0.0,
            };
        }
        for &cell in self.levels.order() {
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
            let a = self.arr[e.driver as usize] + self.net_delays[e.net as usize][e.sink as usize];
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
        &self.net_delays[net.index()]
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
        self.undo.worst = None;
        let mut saved = std::mem::take(&mut self.undo.saved_nets);
        for (_, old) in saved.drain(..) {
            self.recycle_delays(old);
        }
        self.undo.saved_nets = saved;
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
        let mut saved = std::mem::take(&mut self.undo.saved_nets);
        for (net, old) in saved.drain(..) {
            let current = std::mem::replace(&mut self.net_delays[net.index()], old);
            self.recycle_delays(current);
        }
        self.undo.saved_nets = saved;
        if let Some(w) = self.undo.worst.take() {
            self.worst = w;
        }
    }

    /// Retires a sink-delay vector into the pool for reuse.
    fn recycle_delays(&mut self, mut v: Vec<f64>) {
        if self.scratch.delay_pool.len() < DELAY_POOL_CAP {
            v.clear();
            self.scratch.delay_pool.push(v);
        }
    }

    /// Recomputes the delays of `changed` nets and propagates arrivals to
    /// the boundaries through a level-bucketed frontier. Returns the new
    /// worst delay.
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
            net_sink_delays_into(
                arch,
                netlist,
                placement,
                routing,
                net,
                &mut self.scratch.elmore,
                &mut self.net_delays[net.index()],
            );
            self.scratch
                .frontier
                .push_sinks(&self.tables, self.tables.net_sinks(net));
        }

        // Sweep the levels upward. A cell's fanout sits at strictly higher
        // levels, so the bucket being swept never grows and every cell sees
        // final arrivals on all of its inputs; the order within a level is
        // irrelevant, since same-level cells never feed each other.
        let mut level = self.scratch.frontier.lo;
        while level <= self.scratch.frontier.hi {
            let cells = self.scratch.frontier.take_level(level);
            for &cell in &cells {
                self.last_frontier += 1;
                let i = cell as usize;
                let (Some(&intrinsic), Some(&old)) =
                    (self.tables.intrinsic.get(i), self.arr.get(i))
                else {
                    continue;
                };
                let new_arr = self.worst_fanin(CellId::new(i)).unwrap_or(0.0) + intrinsic;
                if (new_arr - old).abs() <= EPS {
                    continue;
                }
                self.save_arr(CellId::new(i));
                if let Some(a) = self.arr.get_mut(i) {
                    *a = new_arr;
                }
                self.scratch
                    .frontier
                    .push_sinks(&self.tables, self.tables.fanout(i));
            }
            self.scratch.frontier.put_level(level, cells);
            level += 1;
        }

        let epoch = self.scratch.frontier.epoch;
        for i in 0..self.endpoints.len() {
            let e = self.endpoints[i];
            if self.scratch.frontier.endpoint_dirty[e.index()] != epoch {
                continue;
            }
            let ea = self.worst_fanin(e).unwrap_or(0.0) + self.tables.endpoint_intrinsic[e.index()];
            if (ea - self.endpoint_arr[e.index()]).abs() > EPS {
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

    /// Journals a net's current sink delays on first touch by *moving* the
    /// vector into the undo log and installing a pooled replacement for the
    /// caller to fill — no element copying either way.
    fn save_net(&mut self, net: NetId) {
        if !self.undo.active {
            return;
        }
        let i = net.index();
        if self.undo.net_stamp[i] == self.undo.generation {
            return;
        }
        self.undo.net_stamp[i] = self.undo.generation;
        let fresh = self.scratch.delay_pool.pop().unwrap_or_default();
        let old = std::mem::replace(&mut self.net_delays[i], fresh);
        self.undo.saved_nets.push((net, old));
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
        assert!((ts.worst() - sta.worst_delay()).abs() < 1e-6);
        for (id, c) in nl.cells() {
            if c.kind().has_output() {
                assert!((ts.arrival(id) - sta.arrival(id)).abs() < 1e-6);
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
            assert!(
                (worst - oracle.worst()).abs() < 1e-6,
                "incremental {worst} != full {}",
                oracle.worst()
            );
            for (id, c) in nl.cells() {
                if c.kind().has_output() {
                    assert!(
                        (ts.arrival(id) - oracle.arrival(id)).abs() < 1e-6,
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
