//! The mutable routing state: segment occupancy, per-net routes and the
//! unrouted-net queues, with transactional undo.
//!
//! The transaction machinery is built for the annealer's move loop, where
//! it runs once per proposed move: a flat, generation-stamped undo log
//! (first touch of a net moves or copies its prior route into two parallel
//! arrays) replaces a keyed journal, routes are edited in place with
//! copy-on-first-touch, and retired `NetRoute` shells and horizontal-run
//! vectors are recycled through small pools so steady-state operation does
//! not allocate.

use rowfpga_arch::{Architecture, ChannelId, ColId, HSegId, VSegId};
use rowfpga_netlist::{CellId, NetId, Netlist, PinRef, MAX_FANIN};

use crate::flatset::DenseSet;
use crate::route::{NetRoute, NetRouteState};
use crate::snapshot::{NetRouteSnapshot, RouteRestoreError};
use crate::spans::NetRequirements;

/// Generation-stamped undo log: the first mutation of a net inside a
/// transaction records `(net, prior route)` in two parallel arrays; the
/// stamp array makes the first-touch test O(1) without clearing anything
/// between transactions.
#[derive(Clone, Debug)]
struct UndoLog {
    active: bool,
    generation: u64,
    stamp: Vec<u64>,
    touched: Vec<NetId>,
    saved: Vec<NetRoute>,
}

/// Recycled allocations: cleared [`NetRoute`] shells and horizontal-run
/// vectors, harvested whenever a route is discarded.
#[derive(Clone, Debug, Default)]
struct RoutePool {
    shells: Vec<NetRoute>,
    runs: Vec<Vec<HSegId>>,
}

const SHELL_POOL_CAP: usize = 64;
const RUN_POOL_CAP: usize = 256;

/// Reusable buffers for the routing passes (queues, channel work lists).
/// Taken with `mem::take` for the duration of a pass and put back after,
/// so the passes allocate nothing in steady state.
#[derive(Clone, Debug, Default)]
pub(crate) struct PassScratch {
    /// Dirty-channel work list of the detailed pass.
    pub channels: Vec<ChannelId>,
    /// Per-channel detail queue: `(net, span_lo, span_hi)`.
    pub dqueue: Vec<(NetId, u32, u32)>,
    /// Global queue: `(net, requirements)`; requirement records are reused
    /// slot-by-slot across passes.
    pub gqueue: Vec<(NetId, NetRequirements)>,
}

/// Monotonic change counters for skipping doomed global-routing retries.
///
/// A failed chain search has no side effects, and its outcome is a
/// deterministic function of vertical-segment occupancy (plus the net's
/// channel range, which cannot change while the net stays queued: any route
/// or placement change re-enqueues it, clearing its stamp). So a failure
/// observed at clock value `c` is guaranteed to repeat while no vertical
/// segment over the net's range has been released since — the global pass
/// records the clock alongside each failure and skips the retry until then.
/// Counters start at 1 and stamps at 0, so nothing is skipped before its
/// first attempt; stale stamps can only cause harmless extra retries, never
/// a false skip.
#[derive(Clone, Debug)]
struct RetryStamps {
    /// Logical clock of vertical-segment *releases*, bumped once per
    /// release batch. Claims deliberately do not advance it: the greedy
    /// chain search is a complete interval-covering search, so its failure
    /// means no chain exists — a condition claims can only preserve.
    vtick: u64,
    /// Per-channel `vtick` of the last vertical-segment release whose span
    /// covers the channel. A failed chain search is a function of exactly
    /// the vertical segments intersecting the net's channel range, so
    /// these localize invalidation to that range.
    vchan_mod: Vec<u64>,
    /// Per-net `vtick` captured *before* the net's last failed global
    /// attempt; 0 = attempt normally. Cleared whenever the net's route
    /// changes (its requirements may differ after the move that ripped it).
    global_fail: Vec<u64>,
    /// The `(chan_min, chan_max)` requirement range at the net's last
    /// failed global attempt, valid while its `global_fail` stamp is.
    global_fail_range: Vec<(u32, u32)>,
    /// Per-vseg `(chan_lo, chan_hi)`, for stamping `vchan_mod` on release
    /// without consulting the architecture.
    vseg_span: Vec<(u32, u32)>,
}

impl RetryStamps {
    fn new(arch: &Architecture, num_nets: usize) -> RetryStamps {
        let num_channels = arch.geometry().num_channels();
        let vseg_span = (0..arch.num_vsegs())
            .map(|i| {
                let s = arch.vseg(VSegId::new(i));
                (s.chan_lo().index() as u32, s.chan_hi().index() as u32)
            })
            .collect();
        RetryStamps {
            vtick: 1,
            vchan_mod: vec![1; num_channels],
            global_fail: vec![0; num_nets],
            global_fail_range: vec![(0, 0); num_nets],
            vseg_span,
        }
    }

    /// Records the release of `vseg`: stamps its covered channels with the
    /// current tick (claims never invalidate failure stamps — they only
    /// shrink feasibility).
    fn free_vseg(&mut self, vseg: usize) {
        let (lo, hi) = self.vseg_span[vseg];
        self.vchan_mod[lo as usize..=hi as usize].fill(self.vtick);
    }
}

/// The detailed router's free tracks at every (channel, column), as
/// bitmasks.
///
/// Bit `t` of a column's mask is set while the segment of track `t` over
/// that column is free, so the tracks on which a span `lo..=hi` can be
/// routed are the AND of the masks of its columns: a run covering the span
/// consists of exactly the segments of one track over those columns. A
/// claim or release flips one bit in each column of one segment.
#[derive(Clone, Debug)]
struct TrackMasks {
    /// Mask words per (channel, column): `ceil(tracks / 64)` over the
    /// widest channel.
    words: usize,
    /// Column count, for indexing `free`.
    num_cols: usize,
    /// Free-track masks, flat `channel × column × words`.
    free: Vec<u64>,
    /// Per-hseg `(channel, track, start_col, end_col)`, end exclusive.
    span: Vec<(u32, u32, u32, u32)>,
}

impl TrackMasks {
    /// All segments free.
    fn new(arch: &Architecture) -> TrackMasks {
        let num_channels = arch.geometry().num_channels();
        let num_cols = arch.geometry().num_cols();
        let widest = (0..num_channels)
            .map(|c| arch.channel_tracks(ChannelId::new(c)).len())
            .max()
            .unwrap_or(0);
        let words = widest.div_ceil(64).max(1);
        let mut masks = TrackMasks {
            words,
            num_cols,
            free: vec![0; num_channels * num_cols * words],
            span: vec![(0, 0, 0, 0); arch.num_hsegs()],
        };
        for c in 0..num_channels {
            for (t, track) in arch.channel_tracks(ChannelId::new(c)).iter().enumerate() {
                for s in track.segments() {
                    masks.span[s.id().index()] =
                        (c as u32, t as u32, s.start() as u32, s.end() as u32);
                    masks.release(s.id().index());
                }
            }
        }
        masks
    }

    /// Sets (`free`) or clears the bit of `hseg` in every column it
    /// covers.
    fn mark(&mut self, hseg: usize, free: bool) {
        let Some(&(c, t, start, end)) = self.span.get(hseg) else {
            return;
        };
        let bit = 1u64 << (t % 64);
        let first = (c as usize * self.num_cols + start as usize) * self.words + t as usize / 64;
        let last = first + (end - start).saturating_sub(1) as usize * self.words;
        let Some(cols) = self.free.get_mut(first..=last) else {
            return;
        };
        for word in cols.iter_mut().step_by(self.words) {
            if free {
                *word |= bit;
            } else {
                *word &= !bit;
            }
        }
    }

    fn claim(&mut self, hseg: usize) {
        self.mark(hseg, false);
    }

    fn release(&mut self, hseg: usize) {
        self.mark(hseg, true);
    }

    /// Word `w` of the tracks free over every column of `lo..=hi` in
    /// `channel` (0 when the span leaves the channel).
    fn free_over(&self, channel: usize, lo: usize, hi: usize, w: usize) -> u64 {
        if hi >= self.num_cols {
            return 0;
        }
        let base = channel * self.num_cols;
        let first = (base + lo) * self.words + w;
        let last = (base + hi) * self.words + w;
        let Some(cols) = self.free.get(first..=last) else {
            return 0;
        };
        let mut feasible = !0u64;
        for &m in cols.iter().step_by(self.words) {
            feasible &= m;
            if feasible == 0 {
                break;
            }
        }
        feasible
    }

    /// The mask words of (`channel`, `col`).
    fn at(&self, channel: usize, col: usize) -> &[u64] {
        let first = (channel * self.num_cols + col) * self.words;
        self.free.get(first..first + self.words).unwrap_or_default()
    }
}

/// The greedy chain search's pick at every (column, channel), as
/// bitmasks over ranked segments.
///
/// Each column's vertical segments are ranked once by `hi` descending,
/// then by the architecture's scan order, so among any set of segments the
/// lowest rank is the one the greedy scan picks (first-in-order max-`hi`).
/// A per-column *free* mask and a per-(column, channel) *cover* mask of
/// the segments that can tap the channel then answer a pick with one AND
/// and a trailing-zero count, and a claim or release flips one bit.
#[derive(Clone, Debug)]
struct VerticalPicks {
    /// Mask words per column: `ceil(segments per column / 64)` over the
    /// widest column.
    words: usize,
    /// Channel count, for indexing `cover`.
    num_channels: usize,
    /// Per-column mask of the free segments by rank (`words` words per
    /// column).
    free: Vec<u64>,
    /// Per-(column, channel) mask of the segments with
    /// `lo <= channel <= hi`, by rank (flat `column × channel × words`).
    cover: Vec<u64>,
    /// `(hi, vseg)` per rank slot, `64 × words` slots per column; unused
    /// slots are never set in any mask.
    ranked: Vec<(u32, u32)>,
    /// Per-vseg rank slot, `column × 64 × words + rank` — also the
    /// segment's bit index into `free`.
    slot: Vec<u32>,
}

impl VerticalPicks {
    /// All segments free.
    fn new(arch: &Architecture) -> VerticalPicks {
        let num_cols = arch.geometry().num_cols();
        let num_channels = arch.geometry().num_channels();
        let widest = (0..num_cols)
            .map(|c| arch.vsegs_at(ColId::new(c)).len())
            .max()
            .unwrap_or(0);
        let words = widest.div_ceil(64).max(1);
        let mut picks = VerticalPicks {
            words,
            num_channels,
            free: vec![0; num_cols * words],
            cover: vec![0; num_cols * num_channels * words],
            ranked: vec![(0, u32::MAX); num_cols * words * 64],
            slot: vec![0; arch.num_vsegs()],
        };
        for col in 0..num_cols {
            let mut segs: Vec<_> = arch.vsegs_at(ColId::new(col)).iter().collect();
            // Stable, so equal `hi` keeps scan order.
            segs.sort_by_key(|s| std::cmp::Reverse(s.chan_hi()));
            for (rank, s) in segs.into_iter().enumerate() {
                let slot = col * words * 64 + rank;
                let bit = 1u64 << (rank % 64);
                picks.slot[s.id().index()] = slot as u32;
                picks.ranked[slot] = (s.chan_hi().index() as u32, s.id().index() as u32);
                picks.free[slot / 64] |= bit;
                for c in s.chan_lo().index()..=s.chan_hi().index() {
                    picks.cover[(col * num_channels + c) * words + rank / 64] |= bit;
                }
            }
        }
        picks
    }

    fn claim(&mut self, vseg: usize) {
        let slot = self.slot[vseg] as usize;
        self.free[slot / 64] &= !(1u64 << (slot % 64));
    }

    fn release(&mut self, vseg: usize) {
        let slot = self.slot[vseg] as usize;
        self.free[slot / 64] |= 1u64 << (slot % 64);
    }

    fn is_free(&self, vseg: usize) -> bool {
        let slot = self.slot[vseg] as usize;
        self.free[slot / 64] & (1u64 << (slot % 64)) != 0
    }

    /// The lowest-ranked free segment at `col` that taps `chan`, with its
    /// `hi`.
    fn best_cover(&self, col: usize, chan: usize) -> Option<(usize, VSegId)> {
        let words = self.words;
        let cover = self
            .cover
            .get((col * self.num_channels + chan) * words..)?
            .iter();
        let free = self.free.get(col * words..)?.iter();
        let (w, m) = cover
            .zip(free)
            .take(words)
            .map(|(c, f)| c & f)
            .enumerate()
            .find(|&(_, m)| m != 0)?;
        let slot = (col * words + w) * 64 + m.trailing_zeros() as usize;
        let &(hi, v) = self.ranked.get(slot)?;
        Some((hi as usize, VSegId::new(v as usize)))
    }
}

/// The complete routing disposition of a layout in progress.
///
/// Invariants maintained by every mutation:
///
/// * a segment's owner is exactly the net whose [`NetRoute`] lists it;
/// * the global queue `U_G` holds exactly the nets without a global routing
///   decision ([`NetRoute::is_globally_routed`] is false);
/// * the channel queue `U_D(R)` holds exactly the nets with `R` in their
///   [`NetRoute::pending_channels`], and the dirty-channel set holds
///   exactly the channels whose `U_D` is non-empty;
/// * [`RoutingState::incomplete`] equals the number of nets whose state is
///   not [`NetRouteState::Detailed`] (the paper's `D` cost term), and
///   [`RoutingState::globally_unrouted`] equals `|U_G|` (the `G` term).
#[derive(Clone, Debug)]
pub struct RoutingState {
    hseg_owner: Vec<Option<NetId>>,
    vseg_owner: Vec<Option<NetId>>,
    routes: Vec<NetRoute>,
    ug: DenseSet,
    ud: Vec<DenseSet>,
    dirty: DenseSet,
    incomplete: usize,
    undo: UndoLog,
    pool: RoutePool,
    retry: RetryStamps,
    vpicks: VerticalPicks,
    tracks: TrackMasks,
    pub(crate) scratch: PassScratch,
}

impl RoutingState {
    /// Creates the all-unrouted state: every net queued in `U_G`.
    pub fn new(arch: &Architecture, netlist: &Netlist) -> RoutingState {
        let num_channels = arch.geometry().num_channels();
        RoutingState {
            hseg_owner: vec![None; arch.num_hsegs()],
            vseg_owner: vec![None; arch.num_vsegs()],
            routes: vec![NetRoute::default(); netlist.num_nets()],
            ug: DenseSet::full(netlist.num_nets()),
            ud: (0..num_channels)
                .map(|_| DenseSet::new(netlist.num_nets()))
                .collect(),
            dirty: DenseSet::new(num_channels),
            incomplete: netlist.num_nets(),
            undo: UndoLog {
                active: false,
                generation: 0,
                stamp: vec![0; netlist.num_nets()],
                touched: Vec::new(),
                saved: Vec::new(),
            },
            pool: RoutePool::default(),
            retry: RetryStamps::new(arch, netlist.num_nets()),
            vpicks: VerticalPicks::new(arch),
            tracks: TrackMasks::new(arch),
            scratch: PassScratch::default(),
        }
    }

    /// The route record of `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn route(&self, net: NetId) -> &NetRoute {
        &self.routes[net.index()]
    }

    /// The routing state of `net`.
    pub fn net_state(&self, net: NetId) -> NetRouteState {
        self.routes[net.index()].state()
    }

    /// The owner of a horizontal segment.
    pub fn hseg_owner(&self, seg: HSegId) -> Option<NetId> {
        self.hseg_owner[seg.index()]
    }

    /// The owner of a vertical segment.
    pub fn vseg_owner(&self, seg: VSegId) -> Option<NetId> {
        self.vseg_owner[seg.index()]
    }

    /// Number of globally unrouted nets — the cost term `G` (paper §3.3).
    pub fn globally_unrouted(&self) -> usize {
        self.ug.len()
    }

    /// Number of nets lacking a complete detailed routing — the cost term
    /// `D` (paper §3.4). Globally unrouted nets count here too: a net that
    /// cannot be globally routed automatically cannot be detail routed.
    pub fn incomplete(&self) -> usize {
        self.incomplete
    }

    /// Whether every net is fully routed.
    pub fn is_fully_routed(&self) -> bool {
        self.incomplete == 0
    }

    /// The globally unrouted nets, in unspecified order. Consumers that
    /// need determinism impose their own total order (the global pass sorts
    /// longest-first with an id tiebreak).
    pub fn ug(&self) -> impl Iterator<Item = NetId> + '_ {
        self.ug.iter().map(NetId::new)
    }

    /// The detail-unrouted nets of one channel, in unspecified order (see
    /// [`RoutingState::ug`] on determinism).
    pub fn ud(&self, channel: ChannelId) -> impl Iterator<Item = NetId> + '_ {
        self.ud[channel.index()].iter().map(NetId::new)
    }

    /// Channels whose `U_D` queue is non-empty, in unspecified order — a
    /// live view over the persistent dirty-channel set, so iterating
    /// allocates nothing. Channel processing order never affects results:
    /// horizontal resources are disjoint between channels.
    pub fn dirty_channels(&self) -> impl Iterator<Item = ChannelId> + '_ {
        self.dirty.iter().map(ChannelId::new)
    }

    /// Starts journaling mutations so that [`RoutingState::rollback`] can
    /// restore the current state exactly.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already active.
    pub fn begin_txn(&mut self) {
        assert!(!self.undo.active, "routing transaction already active");
        debug_assert!(self.undo.touched.is_empty() && self.undo.saved.is_empty());
        self.undo.active = true;
        self.undo.generation += 1;
    }

    /// Discards the undo log, making all mutations since
    /// [`RoutingState::begin_txn`] permanent.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn commit(&mut self) {
        assert!(self.undo.active, "no routing transaction to commit");
        self.undo.active = false;
        self.undo.touched.clear();
        let mut saved = std::mem::take(&mut self.undo.saved);
        for route in saved.drain(..) {
            self.recycle_route(route);
        }
        self.undo.saved = saved;
    }

    /// Restores the state to the instant of [`RoutingState::begin_txn`].
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn rollback(&mut self) {
        assert!(self.undo.active, "no routing transaction to roll back");
        self.undo.active = false;
        let mut touched = std::mem::take(&mut self.undo.touched);
        let mut saved = std::mem::take(&mut self.undo.saved);
        // Phase 1: strip the current routes of every touched net, freeing
        // their segments and queue memberships. Two phases are required
        // because a segment freed from one net during the transaction may
        // currently be held by another touched net.
        for &net in &touched {
            let route = std::mem::take(&mut self.routes[net.index()]);
            self.release_segments(net, &route);
            self.update_queues(net, &route, &NetRoute::default());
            if route.state() == NetRouteState::Detailed {
                self.incomplete += 1;
            }
            self.recycle_route(route);
        }
        // Phase 2: reinstate the saved routes.
        for (&net, route) in touched.iter().zip(saved.drain(..)) {
            self.claim_segments(net, &route);
            self.update_queues(net, &NetRoute::default(), &route);
            if route.state() == NetRouteState::Detailed {
                self.incomplete -= 1;
            }
            self.routes[net.index()] = route;
        }
        touched.clear();
        self.undo.touched = touched;
        self.undo.saved = saved;
    }

    /// Whether a transaction is active.
    pub fn txn_active(&self) -> bool {
        self.undo.active
    }

    /// The nets whose routes have changed since [`RoutingState::begin_txn`],
    /// in first-touch order — a view over the undo log, so calling this
    /// allocates nothing. Layout engines use this as the exact set whose
    /// delays must be refreshed after the reroute cascade; the incremental
    /// timing update is order-independent, so first-touch order is as good
    /// as sorted. Empty when no transaction is active.
    pub fn touched_nets(&self) -> &[NetId] {
        if self.undo.active {
            &self.undo.touched
        } else {
            &[]
        }
    }

    /// Rips up `net`: frees its vertical and horizontal segments and
    /// re-queues it in `U_G` (paper §3.3: a moved cell's nets lose both
    /// their global and detailed routing).
    pub fn rip_up(&mut self, net: NetId) {
        self.set_route(net, NetRoute::default());
    }

    /// Rips up every net connected to `cell`, each once, in ascending id
    /// order (the order of [`Netlist::nets_of_cell`], which fixes the undo
    /// log's order). The nets are gathered on the stack, so a move's rip-up
    /// allocates nothing.
    pub fn rip_up_cell(&mut self, netlist: &Netlist, cell: CellId) {
        let mut nets = [NetId::default(); MAX_FANIN + 1];
        let pins = 0..netlist.cell(cell).kind().num_pins() as u8;
        let mut n = 0;
        for (slot, net) in nets
            .iter_mut()
            .zip(pins.filter_map(|pin| netlist.net_of(PinRef::new(cell, pin))))
        {
            *slot = net;
            n += 1;
        }
        let nets = nets.get_mut(..n).unwrap_or_default();
        nets.sort_unstable();
        let mut last = None;
        for &net in nets.iter() {
            if last != Some(net) {
                self.rip_up(net);
                last = Some(net);
            }
        }
    }

    /// A cleared horizontal-run vector from the pool (or a fresh one).
    pub(crate) fn take_run(&mut self) -> Vec<HSegId> {
        self.pool.runs.pop().unwrap_or_default()
    }

    /// A cleared [`NetRoute`] shell from the pool (or a fresh one).
    pub(crate) fn take_shell(&mut self) -> NetRoute {
        self.pool.shells.pop().unwrap_or_default()
    }

    /// Returns an unused shell (e.g. from a failed global-routing attempt)
    /// to the pool.
    pub(crate) fn give_back_shell(&mut self, shell: NetRoute) {
        self.recycle_route(shell);
    }

    /// Retires a route, harvesting its allocations into the pools. A
    /// shell that holds no capacity (every rip-up installs one) is dropped:
    /// pooling it would crowd out shells whose vectors are worth reusing.
    fn recycle_route(&mut self, mut route: NetRoute) {
        for (_, mut segs) in route.hsegs.drain(..) {
            if self.pool.runs.len() < RUN_POOL_CAP {
                segs.clear();
                self.pool.runs.push(segs);
            }
        }
        let holds_capacity = route.vsegs.capacity()
            + route.hsegs.capacity()
            + route.pending_channels.capacity()
            + route.spans.capacity()
            > 0;
        if holds_capacity && self.pool.shells.len() < SHELL_POOL_CAP {
            route.vsegs.clear();
            route.vcol = None;
            route.pending_channels.clear();
            route.spans.clear();
            route.globally_routed = false;
            self.pool.shells.push(route);
        }
    }

    /// Records `net` in the undo log if this is its first touch in the
    /// active transaction, *copying* its current route (used by the
    /// in-place edit path, where the route is about to be modified rather
    /// than replaced). No-op outside a transaction.
    fn save_first_touch_clone(&mut self, net: NetId) {
        if !self.undo.active {
            return;
        }
        let i = net.index();
        if self.undo.stamp[i] == self.undo.generation {
            return;
        }
        self.undo.stamp[i] = self.undo.generation;
        self.undo.touched.push(net);
        let src = &self.routes[i];
        let mut shell = self.pool.shells.pop().unwrap_or_default();
        shell.vsegs.clear();
        shell.vsegs.extend_from_slice(&src.vsegs);
        shell.vcol = src.vcol;
        shell.pending_channels.clear();
        shell
            .pending_channels
            .extend_from_slice(&src.pending_channels);
        shell.spans.clear();
        shell.spans.extend_from_slice(&src.spans);
        shell.globally_routed = src.globally_routed;
        for (_, mut segs) in shell.hsegs.drain(..) {
            if self.pool.runs.len() < RUN_POOL_CAP {
                segs.clear();
                self.pool.runs.push(segs);
            }
        }
        let src = &self.routes[i];
        for (c, run) in &src.hsegs {
            let mut v = self.pool.runs.pop().unwrap_or_default();
            v.extend_from_slice(run);
            shell.hsegs.push((*c, v));
        }
        self.undo.saved.push(shell);
    }

    /// Installs a global routing decision for `net`: the vertical chain (or
    /// the trivial empty chain for single-channel nets), the per-channel
    /// spans and the channels awaiting detailed routing, carried in a
    /// filled-in route shell.
    pub(crate) fn set_global(&mut self, net: NetId, shell: NetRoute) {
        debug_assert!(
            !self.routes[net.index()].globally_routed,
            "net must be ripped up before global rerouting"
        );
        debug_assert!(shell.globally_routed && shell.hsegs.is_empty());
        self.set_route(net, shell);
    }

    /// Records a successful detailed routing of `net` in `channel`, editing
    /// the route in place (copy-on-first-touch into the undo log replaces
    /// the full-route clone this operation used to pay).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the channel is not pending for the net.
    pub(crate) fn set_channel_routed(&mut self, net: NetId, channel: ChannelId, segs: Vec<HSegId>) {
        self.save_first_touch_clone(net);
        let i = net.index();
        {
            let route = &mut self.routes[i];
            let pos = route
                .pending_channels
                .iter()
                .position(|c| *c == channel)
                .expect("channel not pending for net");
            route.pending_channels.swap_remove(pos);
            debug_assert!(route.hsegs_in(channel).is_none());
        }
        for h in &segs {
            assert!(
                self.hseg_owner[h.index()].is_none(),
                "horizontal segment {h:?} already owned"
            );
            self.hseg_owner[h.index()] = Some(net);
            self.tracks.claim(h.index());
        }
        let done = {
            let route = &mut self.routes[i];
            route.hsegs.push((channel, segs));
            route.state() == NetRouteState::Detailed
        };
        let ci = channel.index();
        self.ud[ci].remove(i);
        if self.ud[ci].is_empty() {
            self.dirty.remove(ci);
        }
        if done {
            self.incomplete -= 1;
        }
    }

    /// Replaces `net`'s route, maintaining ownership, queues, counters and
    /// the undo log.
    fn set_route(&mut self, net: NetId, new: NetRoute) {
        // Take the old route by value so ownership, queues and counters can
        // be updated without cloning either route; the old value then moves
        // into the undo log (first touch only) or back into the pools.
        let old = std::mem::take(&mut self.routes[net.index()]);
        self.release_segments(net, &old);
        self.claim_segments(net, &new);
        self.update_queues(net, &old, &new);
        let was_done = old.state() == NetRouteState::Detailed;
        let is_done = new.state() == NetRouteState::Detailed;
        match (was_done, is_done) {
            (false, true) => self.incomplete -= 1,
            (true, false) => self.incomplete += 1,
            _ => {}
        }
        self.routes[net.index()] = new;
        let i = net.index();
        if self.undo.active && self.undo.stamp[i] != self.undo.generation {
            self.undo.stamp[i] = self.undo.generation;
            self.undo.touched.push(net);
            self.undo.saved.push(old);
        } else {
            self.recycle_route(old);
        }
    }

    fn release_segments(&mut self, net: NetId, route: &NetRoute) {
        if !route.vsegs.is_empty() {
            self.retry.vtick += 1;
        }
        for v in &route.vsegs {
            debug_assert_eq!(self.vseg_owner[v.index()], Some(net));
            self.vseg_owner[v.index()] = None;
            self.retry.free_vseg(v.index());
            self.vpicks.release(v.index());
        }
        for (_, segs) in &route.hsegs {
            for h in segs {
                debug_assert_eq!(self.hseg_owner[h.index()], Some(net));
                self.hseg_owner[h.index()] = None;
                self.tracks.release(h.index());
            }
        }
    }

    fn claim_segments(&mut self, net: NetId, route: &NetRoute) {
        for v in &route.vsegs {
            assert!(
                self.vseg_owner[v.index()].is_none(),
                "vertical segment {v:?} already owned"
            );
            self.vseg_owner[v.index()] = Some(net);
            self.vpicks.claim(v.index());
        }
        for (_, segs) in &route.hsegs {
            for h in segs {
                assert!(
                    self.hseg_owner[h.index()].is_none(),
                    "horizontal segment {h:?} already owned"
                );
                self.hseg_owner[h.index()] = Some(net);
                self.tracks.claim(h.index());
            }
        }
    }

    fn update_queues(&mut self, net: NetId, old: &NetRoute, new: &NetRoute) {
        let i = net.index();
        self.retry.global_fail[i] = 0;
        match (old.globally_routed, new.globally_routed) {
            (true, false) => {
                self.ug.insert(i);
            }
            (false, true) => {
                self.ug.remove(i);
            }
            _ => {}
        }
        for c in &old.pending_channels {
            if !new.pending_channels.contains(c) {
                let ci = c.index();
                if self.ud[ci].remove(i) && self.ud[ci].is_empty() {
                    self.dirty.remove(ci);
                }
            }
        }
        for c in &new.pending_channels {
            if !old.pending_channels.contains(c) {
                let ci = c.index();
                if self.ud[ci].insert(i) {
                    self.dirty.insert(ci);
                }
            }
        }
    }

    /// The current vertical-occupancy clock value.
    pub(crate) fn vtick(&self) -> u64 {
        self.retry.vtick
    }

    /// Whether `net`'s last failed global-routing attempt is guaranteed to
    /// repeat: no vertical segment intersecting the net's channel range has
    /// been *released* since the failure was observed. The chain search's
    /// outcome depends only on those segments (every candidate a greedy
    /// step can consider intersects the range); the greedy is a complete
    /// interval-covering search, so failure means no chain exists — a
    /// condition claims can only preserve — and a failed attempt has no
    /// side effects, so skipping it is bit-exact.
    pub(crate) fn global_retry_doomed(&self, net: NetId) -> bool {
        let stamp = self.retry.global_fail[net.index()];
        if stamp == 0 {
            return false;
        }
        let (lo, hi) = self.retry.global_fail_range[net.index()];
        self.retry.vchan_mod[lo as usize..=hi as usize]
            .iter()
            .all(|&m| m <= stamp)
    }

    /// Records a failed global-routing attempt of `net` over channel range
    /// `chan_min..=chan_max`, made when the release clock read `seen`
    /// (captured before the attempt; releases cannot happen mid-pass, so
    /// pre- and post-attempt values coincide).
    pub(crate) fn record_global_failure(
        &mut self,
        net: NetId,
        seen: u64,
        chan_min: usize,
        chan_max: usize,
    ) {
        self.retry.global_fail[net.index()] = seen;
        self.retry.global_fail_range[net.index()] = (chan_min as u32, chan_max as u32);
    }

    /// The free vertical segment the greedy chain search would pick as its
    /// *first* segment at `col` to tap channel `chan` (`lo <= chan <= hi`,
    /// first-in-order max-`hi`), with the channel it reaches.
    pub(crate) fn best_cover(&self, col: usize, chan: usize) -> Option<(usize, VSegId)> {
        self.vpicks.best_cover(col, chan)
    }

    /// The free vertical segment the greedy chain search would pick to
    /// extend reach `r` at `col` (`lo <= r < hi`, first-in-order max-`hi`),
    /// with the channel it reaches. The max-`hi` segment that taps `r` is
    /// also the max-`hi` extender of `r` whenever any extender exists, so
    /// this is the cover pick at `r` filtered by `hi > r`.
    pub(crate) fn best_extend(&self, col: usize, r: usize) -> Option<(usize, VSegId)> {
        self.vpicks.best_cover(col, r).filter(|&(hi, _)| hi > r)
    }

    /// Whether the vertical-pick mask marks `seg` free — an independent
    /// copy of `vseg_owner(seg).is_none()` that
    /// [`verify_routing`](crate::verify_routing) cross-checks.
    pub(crate) fn vseg_marked_free(&self, seg: VSegId) -> bool {
        self.vpicks.is_free(seg.index())
    }

    /// Word `w` of the tracks of `channel` whose segments are free over
    /// every column of `lo..=hi` (bit `t` = track `t`; 0 when the span
    /// leaves the channel).
    pub(crate) fn free_tracks(&self, channel: ChannelId, lo: usize, hi: usize, w: usize) -> u64 {
        self.tracks.free_over(channel.index(), lo, hi, w)
    }

    /// Mask words per (channel, column) of [`RoutingState::free_tracks`].
    pub(crate) fn track_words(&self) -> usize {
        self.tracks.words
    }

    /// The free-track mask words of (`channel`, `col`) — an independent
    /// copy of the horizontal owner array that
    /// [`verify_routing`](crate::verify_routing) cross-checks.
    pub(crate) fn free_track_words(&self, channel: ChannelId, col: usize) -> &[u64] {
        self.tracks.at(channel.index(), col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowfpga_arch::ColId;
    use rowfpga_netlist::{generate, GenerateConfig};

    fn setup() -> (Architecture, Netlist, RoutingState) {
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
            .build()
            .unwrap();
        let st = RoutingState::new(&arch, &nl);
        (arch, nl, st)
    }

    fn global_shell(
        st: &mut RoutingState,
        vsegs: Vec<VSegId>,
        vcol: Option<ColId>,
        spans: Vec<(ChannelId, u32, u32)>,
        pending: Vec<ChannelId>,
    ) -> NetRoute {
        let mut shell = st.take_shell();
        shell.vsegs = vsegs;
        shell.vcol = vcol;
        shell.spans = spans;
        shell.pending_channels = pending;
        shell.globally_routed = true;
        shell
    }

    #[test]
    fn initial_state_is_all_unrouted() {
        let (_, nl, st) = setup();
        assert_eq!(st.globally_unrouted(), nl.num_nets());
        assert_eq!(st.incomplete(), nl.num_nets());
        assert!(!st.is_fully_routed());
        assert!(st.dirty_channels().next().is_none());
        for (id, _) in nl.nets() {
            assert_eq!(st.net_state(id), NetRouteState::Unrouted);
        }
    }

    #[test]
    fn global_then_detailed_transitions_counters() {
        let (arch, nl, mut st) = setup();
        let net = NetId::new(0);
        let chan = ChannelId::new(1);
        let vseg = arch.vsegs_at(ColId::new(3))[0];
        assert!(vseg.reaches(chan));
        let shell = global_shell(
            &mut st,
            vec![vseg.id()],
            Some(ColId::new(3)),
            vec![(chan, 2, 5)],
            vec![chan],
        );
        st.set_global(net, shell);
        assert_eq!(st.net_state(net), NetRouteState::Global);
        assert_eq!(st.globally_unrouted(), nl.num_nets() - 1);
        assert_eq!(st.incomplete(), nl.num_nets());
        assert_eq!(st.dirty_channels().collect::<Vec<_>>(), vec![chan]);
        assert_eq!(st.vseg_owner(vseg.id()), Some(net));

        let hseg = arch.channel_tracks(chan)[0].segments()[0].id();
        st.set_channel_routed(net, chan, vec![hseg]);
        assert_eq!(st.net_state(net), NetRouteState::Detailed);
        assert_eq!(st.incomplete(), nl.num_nets() - 1);
        assert!(st.dirty_channels().next().is_none());
        assert_eq!(st.hseg_owner(hseg), Some(net));

        st.rip_up(net);
        assert_eq!(st.net_state(net), NetRouteState::Unrouted);
        assert_eq!(st.globally_unrouted(), nl.num_nets());
        assert_eq!(st.incomplete(), nl.num_nets());
        assert_eq!(st.vseg_owner(vseg.id()), None);
        assert_eq!(st.hseg_owner(hseg), None);
    }

    #[test]
    fn rollback_restores_routes_queues_and_ownership() {
        let (arch, _nl, mut st) = setup();
        let net_a = NetId::new(0);
        let net_b = NetId::new(1);
        let chan = ChannelId::new(0);
        let hseg = arch.channel_tracks(chan)[0].segments()[0].id();

        // Pre-transaction: net_a fully routed in channel 0.
        let shell = global_shell(&mut st, Vec::new(), None, vec![(chan, 0, 2)], vec![chan]);
        st.set_global(net_a, shell);
        st.set_channel_routed(net_a, chan, vec![hseg]);
        let g0 = st.globally_unrouted();
        let d0 = st.incomplete();

        // Transaction: rip up net_a, give its segment to net_b, then undo.
        st.begin_txn();
        st.rip_up(net_a);
        let shell = global_shell(&mut st, Vec::new(), None, vec![(chan, 0, 2)], vec![chan]);
        st.set_global(net_b, shell);
        st.set_channel_routed(net_b, chan, vec![hseg]);
        assert_eq!(st.hseg_owner(hseg), Some(net_b));
        st.rollback();

        assert_eq!(st.hseg_owner(hseg), Some(net_a));
        assert_eq!(st.net_state(net_a), NetRouteState::Detailed);
        assert_eq!(st.net_state(net_b), NetRouteState::Unrouted);
        assert_eq!(st.globally_unrouted(), g0);
        assert_eq!(st.incomplete(), d0);
        assert!(st.ug().any(|n| n == net_b));
        assert!(st.ud(chan).next().is_none());
    }

    #[test]
    fn commit_makes_changes_permanent() {
        let (arch, _nl, mut st) = setup();
        let net = NetId::new(2);
        let chan = ChannelId::new(0);
        let hseg = arch.channel_tracks(chan)[0].segments()[0].id();
        st.begin_txn();
        let shell = global_shell(&mut st, Vec::new(), None, vec![(chan, 0, 1)], vec![chan]);
        st.set_global(net, shell);
        st.set_channel_routed(net, chan, vec![hseg]);
        st.commit();
        assert!(!st.txn_active());
        assert_eq!(st.net_state(net), NetRouteState::Detailed);
        assert_eq!(st.hseg_owner(hseg), Some(net));
    }

    #[test]
    fn set_channel_routed_edits_in_place_and_journals_on_first_touch() {
        // The detail-commit path must not replace the whole route record:
        // spans and the vertical chain stay identical (same data), pending
        // channels shrink by exactly the routed channel, and a rollback
        // restores the exact prior record including pending-channel order.
        let (arch, _nl, mut st) = setup();
        let net = NetId::new(0);
        let (c0, c1) = (ChannelId::new(0), ChannelId::new(1));
        let vseg = arch.vsegs_at(ColId::new(3))[0];
        let shell = global_shell(
            &mut st,
            vec![vseg.id()],
            Some(ColId::new(3)),
            vec![(c0, 1, 3), (c1, 2, 5)],
            vec![c0, c1],
        );
        st.set_global(net, shell);
        let before = st.route(net).clone();

        st.begin_txn();
        let h0 = arch.channel_tracks(c0)[0].segments()[0].id();
        st.set_channel_routed(net, c0, vec![h0]);
        assert_eq!(st.touched_nets(), &[net]);
        {
            let r = st.route(net);
            assert_eq!(r.pending_channels(), &[c1], "c0 left pending (swap_remove)");
            assert_eq!(r.hsegs_in(c0), Some(&[h0][..]));
            assert_eq!(r.vsegs(), before.vsegs(), "vertical chain untouched");
            assert_eq!(
                r.spans().collect::<Vec<_>>(),
                before.spans().collect::<Vec<_>>(),
                "spans untouched"
            );
        }
        // Second touch of the same net in the same transaction must not
        // grow the undo log.
        let h1 = arch.channel_tracks(c1)[0].segments()[0].id();
        st.set_channel_routed(net, c1, vec![h1]);
        assert_eq!(st.touched_nets(), &[net]);
        assert_eq!(st.net_state(net), NetRouteState::Detailed);

        st.rollback();
        assert_eq!(st.route(net), &before, "rollback restores the exact record");
        assert_eq!(st.hseg_owner(h0), None);
        assert_eq!(st.hseg_owner(h1), None);
        assert_eq!(st.dirty_channels().count(), 2);
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn double_claim_is_detected() {
        let (arch, _nl, mut st) = setup();
        let chan = ChannelId::new(0);
        let hseg = arch.channel_tracks(chan)[0].segments()[0].id();
        let shell = global_shell(&mut st, Vec::new(), None, vec![(chan, 0, 1)], vec![chan]);
        st.set_global(NetId::new(0), shell);
        st.set_channel_routed(NetId::new(0), chan, vec![hseg]);
        let shell = global_shell(&mut st, Vec::new(), None, vec![(chan, 0, 1)], vec![chan]);
        st.set_global(NetId::new(1), shell);
        st.set_channel_routed(NetId::new(1), chan, vec![hseg]);
    }

    #[test]
    #[should_panic(expected = "transaction already active")]
    fn nested_transactions_are_rejected() {
        let (_, _, mut st) = setup();
        st.begin_txn();
        st.begin_txn();
    }

    #[test]
    fn rip_up_cell_rips_each_net_once_in_id_order() {
        // `g` sees net `na` on both inputs and drives `ng`; `na` is
        // created first, so pin order (`ng`, `na`, `na`) is not id order.
        let mut b = Netlist::builder();
        let a = b.add_cell("a", rowfpga_netlist::CellKind::Input);
        let g = b.add_cell("g", rowfpga_netlist::CellKind::comb(2));
        let q = b.add_cell("q", rowfpga_netlist::CellKind::Output);
        b.connect("na", a, [(g, 1), (g, 2)]).unwrap();
        b.connect("ng", g, [(q, 0)]).unwrap();
        let nl = b.build().unwrap();
        let arch = Architecture::builder()
            .rows(2)
            .cols(4)
            .io_columns(1)
            .build()
            .unwrap();
        let mut st = RoutingState::new(&arch, &nl);
        st.begin_txn();
        st.rip_up_cell(&nl, g);
        let (na, ng) = (nl.net_by_name("na").unwrap(), nl.net_by_name("ng").unwrap());
        assert!(na < ng);
        assert_eq!(st.touched_nets(), &[na, ng]);
        assert_eq!(st.touched_nets(), &nl.nets_of_cell(g)[..]);
        st.rollback();
    }

    #[test]
    fn rip_up_cell_requeues_all_its_nets() {
        let (_, nl, mut st) = setup();
        let (cell, _) = nl.cells().find(|(_, c)| !c.kind().is_io()).unwrap();
        let nets = nl.nets_of_cell(cell);
        assert!(!nets.is_empty());
        // route one of them trivially first
        let chan = ChannelId::new(0);
        let shell = global_shell(&mut st, Vec::new(), None, vec![(chan, 0, 1)], vec![chan]);
        st.set_global(nets[0], shell);
        st.rip_up_cell(&nl, cell);
        for n in nets {
            assert_eq!(st.net_state(n), NetRouteState::Unrouted);
            assert!(st.ug().any(|x| x == n));
        }
    }
}

impl RoutingState {
    /// Wire utilization of one channel: `(used, total)` column-units of
    /// horizontal segment claimed vs. available. Used by congestion reports
    /// and layout rendering.
    pub fn channel_wire_usage(&self, arch: &Architecture, channel: ChannelId) -> (usize, usize) {
        let mut total = 0usize;
        let mut used = 0usize;
        for track in arch.channel_tracks(channel) {
            for seg in track.segments() {
                total += seg.len();
                if self.hseg_owner(seg.id()).is_some() {
                    used += seg.len();
                }
            }
        }
        (used, total)
    }

    /// A per-channel wire utilization report, one line per channel.
    pub fn occupancy_report(&self, arch: &Architecture) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for c in 0..arch.geometry().num_channels() {
            let chan = ChannelId::new(c);
            let (used, total) = self.channel_wire_usage(arch, chan);
            let pct = (100 * used).checked_div(total).unwrap_or(0);
            let bars = pct / 5;
            let _ = writeln!(
                out,
                "{chan:<5} [{:<20}] {pct:>3}%  ({used}/{total} column-units)",
                "#".repeat(bars)
            );
        }
        out
    }
}

impl RoutingState {
    /// A 64-bit FNV-1a digest over the complete occupancy state: both
    /// segment-owner arrays plus the globally-unrouted and incomplete
    /// counters. Two states with equal digests hold (up to hash collision)
    /// identical segment ownership; the differential fuzzer uses this for
    /// cheap whole-state equality between an incremental state and a
    /// from-scratch rebuild.
    pub fn occupancy_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        for owner in self.hseg_owner.iter().chain(self.vseg_owner.iter()) {
            eat(match owner {
                Some(net) => net.index() as u64 + 1,
                None => 0,
            });
        }
        eat(self.ug.len() as u64);
        eat(self.incomplete as u64);
        h
    }

    /// Exports every net's route as plain data, in net-id order — the
    /// routing half of a layout checkpoint.
    pub fn export_routes(&self) -> Vec<NetRouteSnapshot> {
        self.routes
            .iter()
            .map(NetRouteSnapshot::from_route)
            .collect()
    }

    /// Rebuilds a complete routing state from exported snapshots.
    ///
    /// Every index is bounds-checked against `arch` and every segment claim
    /// is checked for conflicts before any typed id is constructed, so a
    /// corrupt or hand-edited checkpoint yields a typed
    /// [`RouteRestoreError`] instead of a panic. Queue and counter
    /// bookkeeping (`U_G`, `U_D`, `incomplete`) is re-derived from the
    /// restored routes; full semantic validation against a placement is the
    /// job of [`verify_routing`](crate::verify_routing).
    ///
    /// # Errors
    ///
    /// Returns the first structural problem found: wrong net count, an
    /// out-of-range index, a double-claimed segment, or an unrouted net
    /// that still lists resources.
    pub fn restore(
        arch: &Architecture,
        netlist: &Netlist,
        snapshots: &[NetRouteSnapshot],
    ) -> Result<RoutingState, RouteRestoreError> {
        if snapshots.len() != netlist.num_nets() {
            return Err(RouteRestoreError::WrongNetCount {
                found: snapshots.len(),
                expected: netlist.num_nets(),
            });
        }
        let num_channels = arch.geometry().num_channels();
        let mut st = RoutingState::new(arch, netlist);
        for (i, snap) in snapshots.iter().enumerate() {
            if !snap.globally_routed {
                if !snap.vsegs.is_empty()
                    || !snap.hsegs.is_empty()
                    || !snap.pending_channels.is_empty()
                    || !snap.spans.is_empty()
                    || snap.vcol.is_some()
                {
                    return Err(RouteRestoreError::UnroutedHoldsResources { net: i });
                }
                continue;
            }
            // Bounds.
            if let Some(col) = snap.vcol {
                if col >= arch.geometry().num_cols() {
                    return Err(RouteRestoreError::IndexOutOfRange {
                        net: i,
                        detail: format!("feedthrough column {col}"),
                    });
                }
            }
            for &v in &snap.vsegs {
                if v >= arch.num_vsegs() {
                    return Err(RouteRestoreError::IndexOutOfRange {
                        net: i,
                        detail: format!("vertical segment {v}"),
                    });
                }
            }
            for (c, segs) in &snap.hsegs {
                if *c >= num_channels {
                    return Err(RouteRestoreError::IndexOutOfRange {
                        net: i,
                        detail: format!("routed channel {c}"),
                    });
                }
                for &h in segs {
                    if h >= arch.num_hsegs() {
                        return Err(RouteRestoreError::IndexOutOfRange {
                            net: i,
                            detail: format!("horizontal segment {h}"),
                        });
                    }
                }
            }
            for c in snap
                .pending_channels
                .iter()
                .copied()
                .chain(snap.spans.iter().map(|s| s.0))
            {
                if c >= num_channels {
                    return Err(RouteRestoreError::IndexOutOfRange {
                        net: i,
                        detail: format!("channel {c}"),
                    });
                }
            }
            // Checked claiming: a second claim of the same segment (by this
            // or any earlier net) is a conflict, never a panic.
            let net = NetId::new(i);
            for &v in &snap.vsegs {
                if let Some(prev) = st.vseg_owner[v] {
                    return Err(RouteRestoreError::SegmentConflict {
                        net: i,
                        detail: format!("vertical segment {v} already owned by {prev}"),
                    });
                }
                st.vseg_owner[v] = Some(net);
                st.vpicks.claim(v);
            }
            for (_, segs) in &snap.hsegs {
                for &h in segs {
                    if let Some(prev) = st.hseg_owner[h] {
                        return Err(RouteRestoreError::SegmentConflict {
                            net: i,
                            detail: format!("horizontal segment {h} already owned by {prev}"),
                        });
                    }
                    st.hseg_owner[h] = Some(net);
                    st.tracks.claim(h);
                }
            }
            // Install the route and re-derive queue/counter bookkeeping,
            // preserving record order exactly (pending-channel order is
            // part of the deterministic resume contract).
            let route = snap.to_route();
            st.ug.remove(i);
            for c in &route.pending_channels {
                let ci = c.index();
                if st.ud[ci].insert(i) {
                    st.dirty.insert(ci);
                }
            }
            if route.state() == NetRouteState::Detailed {
                st.incomplete -= 1;
            }
            st.routes[i] = route;
        }
        Ok(st)
    }
}

/// Deterministic corruption hooks for the resilience layer's fault-injection
/// tests. Compiled only with the `fault-inject` feature; never called by
/// production code.
#[cfg(feature = "fault-inject")]
impl RoutingState {
    /// Clears the owner entry of the `nth` claimed horizontal segment
    /// (counting claimed entries in index order) *without* touching the
    /// route that lists it — the classic incremental-update divergence.
    /// Returns `false` if fewer than `nth + 1` segments are claimed.
    pub fn fault_clear_hseg_owner(&mut self, nth: usize) -> bool {
        let Some(idx) = self
            .hseg_owner
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_some())
            .map(|(i, _)| i)
            .nth(nth)
        else {
            return false;
        };
        self.hseg_owner[idx] = None;
        // The corruption frees a segment, so the free-track masks follow
        // it like any release.
        self.tracks.release(idx);
        true
    }

    /// Skews the `incomplete` counter by one — a silent bookkeeping drift.
    pub fn fault_skew_incomplete(&mut self) {
        self.incomplete += 1;
    }

    /// Pops the last segment of the `nth` non-empty horizontal run (counting
    /// runs across nets in id order), clearing its owner entry too, so the
    /// run no longer covers its span. Returns `false` if there is no such
    /// run.
    pub fn fault_truncate_run(&mut self, nth: usize) -> bool {
        let mut seen = 0usize;
        for route in &mut self.routes {
            for (_, segs) in &mut route.hsegs {
                if segs.is_empty() {
                    continue;
                }
                if seen == nth {
                    let h = segs.pop().expect("non-empty run");
                    self.hseg_owner[h.index()] = None;
                    self.tracks.release(h.index());
                    return true;
                }
                seen += 1;
            }
        }
        false
    }
}

#[cfg(test)]
mod pick_tests {
    use super::*;
    use crate::config::RouterConfig;
    use crate::verify::{verify_routing, RouteVerifyError};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rowfpga_arch::{HSegId, SegmentationScheme, VerticalScheme};
    use rowfpga_netlist::{generate, GenerateConfig};
    use rowfpga_place::Placement;

    /// The greedy scan the bitmask picks replace: over the free segments
    /// of `col` in `vsegs_at` order, the first with the strictly largest
    /// `hi` among those that tap `row` (`lo <= row <= hi`) or, when
    /// `extend`, that extend it (`lo <= row < hi`).
    fn reference_pick(
        st: &RoutingState,
        arch: &Architecture,
        col: usize,
        row: usize,
        extend: bool,
    ) -> Option<(usize, VSegId)> {
        let mut best: Option<(usize, VSegId)> = None;
        for s in arch.vsegs_at(ColId::new(col)) {
            if st.vseg_owner(s.id()).is_some() {
                continue;
            }
            let (lo, hi) = (s.chan_lo().index(), s.chan_hi().index());
            let eligible = lo <= row && if extend { row < hi } else { row <= hi };
            if eligible && best.is_none_or(|(b, _)| hi > b) {
                best = Some((hi, s.id()));
            }
        }
        best
    }

    /// The track scan the free-track masks replace: every track of the
    /// channel in order, scored from its segmentation, with ownership
    /// probed only on a track that would displace the incumbent.
    fn reference_track_run(
        st: &RoutingState,
        arch: &Architecture,
        channel: ChannelId,
        lo: usize,
        hi: usize,
        cfg: &RouterConfig,
    ) -> Option<(usize, usize, usize)> {
        let mut best: Option<(f64, usize, (usize, usize, usize))> = None;
        for (t, track) in arch.channel_tracks(channel).iter().enumerate() {
            let Some(i) = track.segment_at(ColId::new(lo)) else {
                continue;
            };
            let Some(j) = track.segment_at(ColId::new(hi)) else {
                continue;
            };
            let segs = &track.segments()[i..=j];
            let covered = segs[segs.len() - 1].end() - segs[0].start();
            let wastage = covered - (hi - lo + 1);
            let count = j - i + 1;
            let cost = cfg.wastage_weight * wastage as f64 + cfg.segment_weight * count as f64;
            let better = match &best {
                None => true,
                Some((bc, bcount, _)) => {
                    cost < *bc - 1e-12 || ((cost - *bc).abs() <= 1e-12 && count < *bcount)
                }
            };
            if !better {
                continue;
            }
            if segs.iter().any(|s| st.hseg_owner(s.id()).is_some()) {
                continue;
            }
            best = Some((cost, count, (t, i, j)));
        }
        best.map(|(_, _, run)| run)
    }

    /// The masked track search agrees with the reference scan on every span
    /// of every channel.
    fn assert_track_runs_match(st: &RoutingState, arch: &Architecture, when: &str) {
        let cfg = RouterConfig::default();
        let cols = arch.geometry().num_cols();
        for c in 0..arch.geometry().num_channels() {
            let chan = ChannelId::new(c);
            for lo in 0..cols {
                for hi in lo..cols {
                    assert_eq!(
                        crate::detail::find_track_run_idx(st, arch, chan, lo, hi, &cfg),
                        reference_track_run(st, arch, chan, lo, hi, &cfg),
                        "track run in {chan} over {lo}..={hi}, {when}"
                    );
                }
            }
        }
    }

    fn assert_picks_match(st: &RoutingState, arch: &Architecture, when: &str) {
        for col in 0..arch.geometry().num_cols() {
            for c in 0..arch.geometry().num_channels() {
                assert_eq!(
                    st.best_cover(col, c),
                    reference_pick(st, arch, col, c, false),
                    "cover pick at column {col}, channel {c}, {when}"
                );
                assert_eq!(
                    st.best_extend(col, c),
                    reference_pick(st, arch, col, c, true),
                    "extend pick at column {col}, channel {c}, {when}"
                );
            }
        }
        assert_track_runs_match(st, arch, when);
    }

    /// Random swap → rip-up → reroute → commit/rollback sequences, with the
    /// vertical picks and the track runs checked against the reference
    /// scans after every step.
    fn picks_follow_ownership(arch: &Architecture, nl: &Netlist, seed: u64) {
        let cfg = RouterConfig::default();
        let mut p = Placement::random(arch, nl, seed).unwrap();
        let mut st = RoutingState::new(arch, nl);
        assert_picks_match(&st, arch, "on a fresh state");
        st.route_incremental(arch, nl, &p, &cfg);
        assert_picks_match(&st, arch, "after the first routing pass");
        let claimed = (0..arch.num_vsegs())
            .filter(|&v| st.vseg_owner(VSegId::new(v)).is_some())
            .count();
        assert!(claimed > 0, "the fixture must claim vertical segments");
        let cells: Vec<CellId> = nl
            .cells()
            .filter(|(_, c)| !c.kind().is_io())
            .map(|(id, _)| id)
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for step in 0..40 {
            let a = cells[rng.gen_range(0..cells.len())];
            let b = cells[rng.gen_range(0..cells.len())];
            st.begin_txn();
            p.swap_sites(arch, p.site_of(a), p.site_of(b));
            st.rip_up_cell(nl, a);
            st.rip_up_cell(nl, b);
            assert_picks_match(&st, arch, &format!("after rip-up {step}"));
            st.route_incremental(arch, nl, &p, &cfg);
            assert_picks_match(&st, arch, &format!("after reroute {step}"));
            if rng.gen_bool(0.5) {
                st.commit();
            } else {
                st.rollback();
                p.swap_sites(arch, p.site_of(a), p.site_of(b));
            }
            assert_picks_match(&st, arch, &format!("after commit/rollback {step}"));
        }
        verify_routing(&st, arch, nl, &p).unwrap();
    }

    fn widest_column(arch: &Architecture) -> usize {
        (0..arch.geometry().num_cols())
            .map(|c| arch.vsegs_at(ColId::new(c)).len())
            .max()
            .unwrap()
    }

    #[test]
    fn picks_match_the_greedy_scan_on_an_actel_chip() {
        let nl = generate(&GenerateConfig {
            num_cells: 120,
            num_inputs: 6,
            num_outputs: 6,
            num_seq: 8,
            ..GenerateConfig::default()
        });
        let arch = Architecture::builder()
            .rows(10)
            .cols(16)
            .io_columns(1)
            .tracks_per_channel(36)
            .segmentation(SegmentationScheme::ActelLike { seed: 3 })
            .verticals(VerticalScheme::WithLongLines {
                tracks_per_column: 6,
                span: 3,
            })
            .build()
            .unwrap();
        assert!(widest_column(&arch) <= 64, "one mask word per column");
        picks_follow_ownership(&arch, &nl, 11);
    }

    #[test]
    fn picks_match_the_greedy_scan_across_two_mask_words() {
        let nl = generate(&GenerateConfig {
            num_cells: 90,
            num_inputs: 6,
            num_outputs: 6,
            num_seq: 6,
            ..GenerateConfig::default()
        });
        let arch = Architecture::builder()
            .rows(19)
            .cols(8)
            .io_columns(1)
            .tracks_per_channel(16)
            .segmentation(SegmentationScheme::ActelLike { seed: 3 })
            .verticals(VerticalScheme::WithLongLines {
                tracks_per_column: 10,
                span: 3,
            })
            .build()
            .unwrap();
        assert!(widest_column(&arch) > 64, "two mask words per column");
        picks_follow_ownership(&arch, &nl, 12);
    }

    #[test]
    fn track_runs_match_the_scan_across_two_mask_words() {
        let nl = generate(&GenerateConfig {
            num_cells: 60,
            num_inputs: 6,
            num_outputs: 6,
            num_seq: 4,
            ..GenerateConfig::default()
        });
        let arch = Architecture::builder()
            .rows(8)
            .cols(12)
            .io_columns(1)
            .tracks_per_channel(70)
            .segmentation(SegmentationScheme::ActelLike { seed: 5 })
            .build()
            .unwrap();
        let st = RoutingState::new(&arch, &nl);
        assert_eq!(st.track_words(), 2, "two mask words per column");
        picks_follow_ownership(&arch, &nl, 13);
    }

    #[test]
    fn verification_catches_a_stale_track_bit() {
        let nl = generate(&GenerateConfig {
            num_cells: 50,
            num_inputs: 6,
            num_outputs: 6,
            num_seq: 3,
            ..GenerateConfig::default()
        });
        let arch = Architecture::builder()
            .rows(5)
            .cols(14)
            .io_columns(2)
            .tracks_per_channel(16)
            .build()
            .unwrap();
        let p = Placement::random(&arch, &nl, 17).unwrap();
        let mut st = RoutingState::new(&arch, &nl);
        st.route_incremental(&arch, &nl, &p, &RouterConfig::default());
        verify_routing(&st, &arch, &nl, &p).unwrap();
        let owned = (0..arch.num_hsegs())
            .find(|&h| st.hseg_owner(HSegId::new(h)).is_some())
            .expect("some horizontal segment claimed");
        let free = (0..arch.num_hsegs())
            .find(|&h| st.hseg_owner(HSegId::new(h)).is_none())
            .expect("some horizontal segment free");

        let mut hides_free = st.clone();
        hides_free.tracks.claim(free);
        assert!(matches!(
            verify_routing(&hides_free, &arch, &nl, &p),
            Err(RouteVerifyError::OwnershipMismatch { .. })
        ));
        let mut offers_owned = st;
        offers_owned.tracks.release(owned);
        assert!(matches!(
            verify_routing(&offers_owned, &arch, &nl, &p),
            Err(RouteVerifyError::OwnershipMismatch { .. })
        ));
    }

    #[test]
    fn verification_catches_a_stale_free_bit() {
        let nl = generate(&GenerateConfig {
            num_cells: 50,
            num_inputs: 6,
            num_outputs: 6,
            num_seq: 3,
            ..GenerateConfig::default()
        });
        let arch = Architecture::builder()
            .rows(5)
            .cols(14)
            .io_columns(2)
            .tracks_per_channel(16)
            .build()
            .unwrap();
        let p = Placement::random(&arch, &nl, 17).unwrap();
        let mut st = RoutingState::new(&arch, &nl);
        st.route_incremental(&arch, &nl, &p, &RouterConfig::default());
        verify_routing(&st, &arch, &nl, &p).unwrap();
        let owned = (0..arch.num_vsegs())
            .find(|&v| st.vseg_owner(VSegId::new(v)).is_some())
            .expect("some vertical segment claimed");
        let free = (0..arch.num_vsegs())
            .find(|&v| st.vseg_owner(VSegId::new(v)).is_none())
            .expect("some vertical segment free");

        let mut skips_free = st.clone();
        skips_free.vpicks.claim(free);
        assert!(matches!(
            verify_routing(&skips_free, &arch, &nl, &p),
            Err(RouteVerifyError::OwnershipMismatch { .. })
        ));
        let mut takes_owned = st;
        takes_owned.vpicks.release(owned);
        assert!(matches!(
            verify_routing(&takes_owned, &arch, &nl, &p),
            Err(RouteVerifyError::OwnershipMismatch { .. })
        ));
    }
}

#[cfg(test)]
mod usage_tests {
    use super::*;
    use rowfpga_netlist::{generate, GenerateConfig};
    use rowfpga_place::Placement;

    #[test]
    fn wire_usage_tracks_claims() {
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
            .tracks_per_channel(12)
            .build()
            .unwrap();
        let p = Placement::random(&arch, &nl, 5).unwrap();
        let mut st = RoutingState::new(&arch, &nl);
        let chan = ChannelId::new(0);
        let (used0, total) = st.channel_wire_usage(&arch, chan);
        assert_eq!(used0, 0);
        assert_eq!(total, 12 * 10);
        crate::batch::route_batch(
            &mut st,
            &arch,
            &nl,
            &p,
            &crate::config::RouterConfig::default(),
            4,
        );
        let summed: usize = (0..arch.geometry().num_channels())
            .map(|c| st.channel_wire_usage(&arch, ChannelId::new(c)).0)
            .sum();
        let claimed: usize = (0..arch.num_hsegs())
            .filter(|i| st.hseg_owner(rowfpga_arch::HSegId::new(*i)).is_some())
            .map(|i| arch.hseg(rowfpga_arch::HSegId::new(i)).len())
            .sum();
        assert_eq!(summed, claimed);
        let report = st.occupancy_report(&arch);
        assert_eq!(report.lines().count(), 5);
        assert!(report.contains('%'));
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;
    use crate::verify::verify_routing;
    use rowfpga_netlist::{generate, GenerateConfig};
    use rowfpga_place::Placement;

    fn routed_fixture() -> (Architecture, Netlist, Placement, RoutingState) {
        let nl = generate(&GenerateConfig {
            num_cells: 50,
            num_inputs: 6,
            num_outputs: 6,
            num_seq: 3,
            ..GenerateConfig::default()
        });
        let arch = Architecture::builder()
            .rows(5)
            .cols(14)
            .io_columns(2)
            .tracks_per_channel(16)
            .build()
            .unwrap();
        let p = Placement::random(&arch, &nl, 17).unwrap();
        let mut st = RoutingState::new(&arch, &nl);
        crate::batch::route_batch(
            &mut st,
            &arch,
            &nl,
            &p,
            &crate::config::RouterConfig::default(),
            4,
        );
        (arch, nl, p, st)
    }

    #[test]
    fn export_restore_round_trips_and_verifies() {
        let (arch, nl, p, st) = routed_fixture();
        let snaps = st.export_routes();
        let restored = RoutingState::restore(&arch, &nl, &snaps).unwrap();
        assert_eq!(restored.export_routes(), snaps);
        assert_eq!(restored.incomplete(), st.incomplete());
        assert_eq!(restored.globally_unrouted(), st.globally_unrouted());
        for i in 0..arch.num_hsegs() {
            let id = HSegId::new(i);
            assert_eq!(restored.hseg_owner(id), st.hseg_owner(id));
        }
        for i in 0..arch.num_vsegs() {
            let id = VSegId::new(i);
            assert_eq!(restored.vseg_owner(id), st.vseg_owner(id));
        }
        verify_routing(&restored, &arch, &nl, &p).unwrap();
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        let (arch, nl, _, st) = routed_fixture();
        let snaps = st.export_routes();

        assert!(matches!(
            RoutingState::restore(&arch, &nl, &snaps[1..]),
            Err(RouteRestoreError::WrongNetCount { .. })
        ));

        let mut oob = snaps.clone();
        let routed = oob
            .iter()
            .position(|s| !s.hsegs.is_empty())
            .expect("some net detail-routed");
        oob[routed].hsegs[0].1[0] = arch.num_hsegs();
        assert!(matches!(
            RoutingState::restore(&arch, &nl, &oob),
            Err(RouteRestoreError::IndexOutOfRange { .. })
        ));

        let mut dup = snaps.clone();
        let seg = dup[routed].hsegs[0].1[0];
        let other = dup
            .iter()
            .position(|s| !s.globally_routed)
            .unwrap_or_else(|| (routed + 1) % dup.len());
        dup[other] = dup[routed].clone();
        let _ = seg;
        assert!(matches!(
            RoutingState::restore(&arch, &nl, &dup),
            Err(RouteRestoreError::SegmentConflict { .. })
        ));

        let mut bad = snaps.clone();
        bad[routed].globally_routed = false;
        assert!(matches!(
            RoutingState::restore(&arch, &nl, &bad),
            Err(RouteRestoreError::UnroutedHoldsResources { .. })
        ));
    }
}
