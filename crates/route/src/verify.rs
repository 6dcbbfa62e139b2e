//! Independent verification of a routing state.
//!
//! [`verify_routing`] re-derives every net's geometric requirements from the
//! placement and checks the routing state against them from first
//! principles: exclusive segment ownership (with the router's vertical and
//! horizontal free masks agreeing with it), single-track consecutive runs
//! covering every span, vertical chains that actually reach every pin
//! channel, and queue bookkeeping consistent with the route records. The
//! layout engines never call this in their inner loops — it exists so tests
//! (and paranoid users) can audit any state the optimizer produces.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use rowfpga_arch::{Architecture, ChannelId, ColId};
use rowfpga_netlist::{NetId, Netlist};
use rowfpga_place::Placement;

use crate::route::NetRouteState;
use crate::spans::net_requirements;
use crate::state::RoutingState;

/// A violation found by [`verify_routing`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteVerifyError {
    /// A segment's recorded owner disagrees with the routes.
    OwnershipMismatch {
        /// Human-readable description of the segment and parties.
        detail: String,
    },
    /// A horizontal run is not consecutive segments of one track.
    BrokenRun {
        /// The offending net.
        net: NetId,
        /// Description of the break.
        detail: String,
    },
    /// A routed channel's run does not cover the net's span there.
    SpanNotCovered {
        /// The offending net.
        net: NetId,
        /// Description of the uncovered span.
        detail: String,
    },
    /// A vertical chain does not connect or does not reach all channels.
    BrokenChain {
        /// The offending net.
        net: NetId,
        /// Description of the break.
        detail: String,
    },
    /// Route records disagree with the net's pin-derived requirements.
    RequirementMismatch {
        /// The offending net.
        net: NetId,
        /// Description of the disagreement.
        detail: String,
    },
    /// Queue or counter bookkeeping is inconsistent with the routes.
    BookkeepingMismatch {
        /// Description of the inconsistency.
        detail: String,
    },
}

impl fmt::Display for RouteVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteVerifyError::OwnershipMismatch { detail } => {
                write!(f, "segment ownership mismatch: {detail}")
            }
            RouteVerifyError::BrokenRun { net, detail } => {
                write!(f, "broken horizontal run on {net}: {detail}")
            }
            RouteVerifyError::SpanNotCovered { net, detail } => {
                write!(f, "span not covered for {net}: {detail}")
            }
            RouteVerifyError::BrokenChain { net, detail } => {
                write!(f, "broken vertical chain on {net}: {detail}")
            }
            RouteVerifyError::RequirementMismatch { net, detail } => {
                write!(f, "route disagrees with requirements of {net}: {detail}")
            }
            RouteVerifyError::BookkeepingMismatch { detail } => {
                write!(f, "bookkeeping mismatch: {detail}")
            }
        }
    }
}

impl Error for RouteVerifyError {}

/// Audits `state` against the placement-derived requirements of every net.
///
/// # Errors
///
/// Returns the first violation found (ownership, run continuity, span
/// coverage, chain connectivity, requirement agreement or queue
/// bookkeeping).
pub fn verify_routing(
    state: &RoutingState,
    arch: &Architecture,
    netlist: &Netlist,
    placement: &Placement,
) -> Result<(), RouteVerifyError> {
    let mut h_owners: BTreeMap<usize, NetId> = BTreeMap::new();
    let mut v_owners: BTreeMap<usize, NetId> = BTreeMap::new();
    let mut incomplete = 0usize;
    let mut globally_unrouted = 0usize;

    for (net, _) in netlist.nets() {
        let route = state.route(net);
        let req = net_requirements(arch, netlist, placement, net);

        match route.state() {
            NetRouteState::Unrouted => {
                globally_unrouted += 1;
                incomplete += 1;
                if !route.vsegs().is_empty() || !route.hsegs().is_empty() {
                    return Err(RouteVerifyError::RequirementMismatch {
                        net,
                        detail: "unrouted net holds segments".into(),
                    });
                }
                continue;
            }
            NetRouteState::Global => incomplete += 1,
            NetRouteState::Detailed => {}
        }

        // Claim bookkeeping for cross-checks below.
        for v in route.vsegs() {
            if let Some(prev) = v_owners.insert(v.index(), net) {
                return Err(RouteVerifyError::OwnershipMismatch {
                    detail: format!("vertical {v:?} in routes of {prev} and {net}"),
                });
            }
        }
        for (_, segs) in route.hsegs() {
            for h in segs {
                if let Some(prev) = h_owners.insert(h.index(), net) {
                    return Err(RouteVerifyError::OwnershipMismatch {
                        detail: format!("horizontal {h:?} in routes of {prev} and {net}"),
                    });
                }
            }
        }

        // Vertical chain connectivity and coverage.
        if req.needs_vertical() {
            let Some(vcol) = route.vcol() else {
                return Err(RouteVerifyError::BrokenChain {
                    net,
                    detail: "multi-channel net has no feedthrough column".into(),
                });
            };
            if route.vsegs().is_empty() {
                return Err(RouteVerifyError::BrokenChain {
                    net,
                    detail: "multi-channel net has no vertical segments".into(),
                });
            }
            let mut reach: Option<usize> = None;
            for v in route.vsegs() {
                let seg = arch.vseg(*v);
                if seg.col() != vcol {
                    return Err(RouteVerifyError::BrokenChain {
                        net,
                        detail: format!("segment {v:?} not in column {vcol:?}"),
                    });
                }
                let (lo, hi) = (seg.chan_lo().index(), seg.chan_hi().index());
                match reach {
                    None => {
                        if lo > req.chan_min {
                            return Err(RouteVerifyError::BrokenChain {
                                net,
                                detail: format!(
                                    "chain starts at channel {lo}, needs {}",
                                    req.chan_min
                                ),
                            });
                        }
                    }
                    Some(r) => {
                        if lo > r {
                            return Err(RouteVerifyError::BrokenChain {
                                net,
                                detail: format!("gap between channel {r} and {lo}"),
                            });
                        }
                    }
                }
                reach = Some(reach.unwrap_or(0).max(hi));
            }
            if reach.unwrap_or(0) < req.chan_max {
                return Err(RouteVerifyError::BrokenChain {
                    net,
                    detail: format!(
                        "chain reaches channel {}, needs {}",
                        reach.unwrap_or(0),
                        req.chan_max
                    ),
                });
            }
        } else if !route.vsegs().is_empty() {
            return Err(RouteVerifyError::RequirementMismatch {
                net,
                detail: "single-channel net holds vertical segments".into(),
            });
        }

        // Channel accounting: routed + pending must equal pin channels, and
        // recorded spans must match the pin-derived spans.
        let mut accounted: Vec<usize> = route
            .hsegs()
            .iter()
            .map(|(c, _)| c.index())
            .chain(route.pending_channels().iter().map(|c| c.index()))
            .collect();
        accounted.sort_unstable();
        let expected: Vec<usize> = req.pin_channels.iter().map(|x| x.0).collect();
        if accounted != expected {
            return Err(RouteVerifyError::RequirementMismatch {
                net,
                detail: format!("channels {accounted:?} != pin channels {expected:?}"),
            });
        }
        for (chan, lo, hi) in route.spans() {
            let want = req.span_in(chan.index(), route.vcol().map(|c| c.index()));
            if want != Some((lo, hi)) {
                return Err(RouteVerifyError::RequirementMismatch {
                    net,
                    detail: format!("span in {chan} recorded ({lo},{hi}), expected {want:?}"),
                });
            }
        }

        // Horizontal runs: one track, consecutive, covering the span.
        for (chan, segs) in route.hsegs() {
            let Some((lo, hi)) = route.span_in(*chan) else {
                return Err(RouteVerifyError::BrokenRun {
                    net,
                    detail: format!("routed channel {chan} has no recorded span"),
                });
            };
            let (Some(&first_seg), Some(&last_seg)) = (segs.first(), segs.last()) else {
                return Err(RouteVerifyError::BrokenRun {
                    net,
                    detail: format!("empty run in {chan}"),
                });
            };
            let track = arch.hseg_track(first_seg);
            for w in segs.windows(2) {
                if arch.hseg_track(w[1]) != track
                    || arch.hseg_channel(w[1]) != *chan
                    || arch.hseg_pos(w[1]) != arch.hseg_pos(w[0]) + 1
                {
                    return Err(RouteVerifyError::BrokenRun {
                        net,
                        detail: format!("{:?} does not follow {:?}", w[1], w[0]),
                    });
                }
            }
            if arch.hseg_channel(first_seg) != *chan {
                return Err(RouteVerifyError::BrokenRun {
                    net,
                    detail: format!("run segments not in channel {chan}"),
                });
            }
            let start = arch.hseg(first_seg).start();
            let end = arch.hseg(last_seg).end();
            if start > lo || end <= hi {
                return Err(RouteVerifyError::SpanNotCovered {
                    net,
                    detail: format!("run covers [{start},{end}), span is [{lo},{hi}]"),
                });
            }
        }
    }

    // Owner arrays agree with the routes.
    for i in 0..arch.num_hsegs() {
        let from_routes = h_owners.get(&i).copied();
        let recorded = state.hseg_owner(rowfpga_arch::HSegId::new(i));
        if from_routes != recorded {
            return Err(RouteVerifyError::OwnershipMismatch {
                detail: format!("hseg {i}: routes say {from_routes:?}, owner array {recorded:?}"),
            });
        }
    }
    // The detailed router picks tracks from free masks that duplicate the
    // horizontal owner array; a stale bit would double-book a segment or
    // hide a free track.
    let mut expected = Vec::new();
    for c in 0..arch.geometry().num_channels() {
        let chan = ChannelId::new(c);
        for col in 0..arch.geometry().num_cols() {
            expected.clear();
            expected.resize(state.free_track_words(chan, col).len(), 0u64);
            for (t, track) in arch.channel_tracks(chan).iter().enumerate() {
                let free = track
                    .segment_at(ColId::new(col))
                    .and_then(|i| track.segments().get(i))
                    .is_some_and(|s| state.hseg_owner(s.id()).is_none());
                if let (true, Some(word)) = (free, expected.get_mut(t / 64)) {
                    *word |= 1 << (t % 64);
                }
            }
            if state.free_track_words(chan, col) != expected.as_slice() {
                return Err(RouteVerifyError::OwnershipMismatch {
                    detail: format!(
                        "{chan} column {col}: free-track mask {:x?}, owner array {expected:x?}",
                        state.free_track_words(chan, col)
                    ),
                });
            }
        }
    }
    for i in 0..arch.num_vsegs() {
        let id = rowfpga_arch::VSegId::new(i);
        let from_routes = v_owners.get(&i).copied();
        let recorded = state.vseg_owner(id);
        if from_routes != recorded {
            return Err(RouteVerifyError::OwnershipMismatch {
                detail: format!("vseg {i}: routes say {from_routes:?}, owner array {recorded:?}"),
            });
        }
        // The global router picks from a free mask that duplicates the
        // owner array; a stale bit would take an owned segment or skip a
        // free one.
        if state.vseg_marked_free(id) != recorded.is_none() {
            return Err(RouteVerifyError::OwnershipMismatch {
                detail: format!(
                    "vseg {i}: free mask says free={}, owner array {recorded:?}",
                    state.vseg_marked_free(id)
                ),
            });
        }
    }

    // Counters and queues.
    if state.incomplete() != incomplete {
        return Err(RouteVerifyError::BookkeepingMismatch {
            detail: format!(
                "incomplete counter {} != derived {}",
                state.incomplete(),
                incomplete
            ),
        });
    }
    if state.globally_unrouted() != globally_unrouted {
        return Err(RouteVerifyError::BookkeepingMismatch {
            detail: format!(
                "U_G size {} != derived {}",
                state.globally_unrouted(),
                globally_unrouted
            ),
        });
    }
    for (net, _) in netlist.nets() {
        let route = state.route(net);
        let in_ug = state.ug().any(|n| n == net);
        if in_ug != (route.state() == NetRouteState::Unrouted) {
            return Err(RouteVerifyError::BookkeepingMismatch {
                detail: format!("{net} U_G membership inconsistent"),
            });
        }
        for chan in route.pending_channels() {
            if !state.ud(*chan).any(|n| n == net) {
                return Err(RouteVerifyError::BookkeepingMismatch {
                    detail: format!("{net} missing from U_D({chan})"),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::route_batch;
    use crate::config::RouterConfig;
    use rowfpga_netlist::{generate, GenerateConfig};

    fn setup(tracks: usize) -> (Architecture, Netlist, Placement, RoutingState) {
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
            .tracks_per_channel(tracks)
            .build()
            .unwrap();
        let p = Placement::random(&arch, &nl, 51).unwrap();
        let st = RoutingState::new(&arch, &nl);
        (arch, nl, p, st)
    }

    #[test]
    fn fresh_state_verifies() {
        let (arch, nl, p, st) = setup(10);
        verify_routing(&st, &arch, &nl, &p).unwrap();
    }

    #[test]
    fn fully_routed_state_verifies() {
        let (arch, nl, p, mut st) = setup(24);
        let out = route_batch(&mut st, &arch, &nl, &p, &RouterConfig::default(), 8);
        assert!(out.fully_routed);
        verify_routing(&st, &arch, &nl, &p).unwrap();
    }

    #[test]
    fn partially_routed_state_verifies() {
        let (arch, nl, p, mut st) = setup(2);
        route_batch(&mut st, &arch, &nl, &p, &RouterConfig::default(), 2);
        verify_routing(&st, &arch, &nl, &p).unwrap();
    }

    #[test]
    fn stale_routes_after_a_move_are_detected() {
        let (arch, nl, p, mut st) = setup(24);
        route_batch(&mut st, &arch, &nl, &p, &RouterConfig::default(), 8);
        // Move a cell *without* ripping up its nets: verification must
        // notice that recorded requirements no longer match.
        let mut p2 = p.clone();
        let cells: Vec<_> = nl
            .cells()
            .filter(|(_, c)| !c.kind().is_io())
            .map(|(id, _)| id)
            .collect();
        let mut detected = false;
        for w in cells.windows(2) {
            p2.swap_sites(&arch, p2.site_of(w[0]), p2.site_of(w[1]));
            if verify_routing(&st, &arch, &nl, &p2).is_err() {
                detected = true;
                break;
            }
        }
        assert!(detected, "no stale route detected across many swaps");
    }

    #[test]
    fn rollback_preserves_verifiability() {
        let (arch, nl, p, mut st) = setup(24);
        let cfg = RouterConfig::default();
        route_batch(&mut st, &arch, &nl, &p, &cfg, 4);
        st.begin_txn();
        let (cell, _) = nl.cells().find(|(_, c)| !c.kind().is_io()).unwrap();
        st.rip_up_cell(&nl, cell);
        st.route_incremental(&arch, &nl, &p, &cfg);
        st.rollback();
        verify_routing(&st, &arch, &nl, &p).unwrap();
    }
}
