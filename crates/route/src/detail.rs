// rowfpga-lint: hot-path
//! Incremental detailed routing: segmented channel track assignment.
//!
//! The detailed router assigns each net, in each channel it crosses, a run
//! of consecutive free segments on a single track covering the net's column
//! span (antifuse fabrics only allow adjacent segments on the *same* track
//! to be joined, so a connection cannot change tracks inside a channel —
//! paper §2.1). Track selection minimizes `wastage + segments-used`
//! (paper §3.4, after Roy [11]): wastage hoards wire other nets will need;
//! segment count puts horizontal antifuses — and therefore delay — on the
//! path. Minimizing both constructively prefers short, fast embeddings, in
//! lieu of any explicit wirelength term in the annealer's cost function.

#[cfg(test)]
use rowfpga_arch::HSegId;
use rowfpga_arch::{Architecture, ChannelId, ColId};

use crate::config::RouterConfig;
use crate::state::RoutingState;

/// Counts from one detailed routing pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetailPassStats {
    /// (net, channel) assignments completed.
    pub routed: usize,
    /// (net, channel) track-assignment attempts that found every feasible
    /// track blocked; the net stays queued in its channel's `U_D`.
    pub failures: usize,
}

/// Attempts to detail route every net in every dirty channel's `U_D`,
/// longest span first. Returns the number of (net, channel) assignments
/// completed and the number of failed attempts.
///
/// The channel work list and per-channel queue live in the state's
/// persistent scratch buffers, and the winning run is materialized exactly
/// once into a pooled segment vector, so a steady-state pass allocates
/// nothing. Channel processing order is irrelevant to the outcome:
/// horizontal resources are disjoint between channels.
pub fn detail_route_pass(
    state: &mut RoutingState,
    arch: &Architecture,
    cfg: &RouterConfig,
) -> DetailPassStats {
    let mut routed = 0;
    let mut failures = 0;
    let mut channels = std::mem::take(&mut state.scratch.channels);
    channels.clear();
    channels.extend(state.dirty_channels());
    let mut queue = std::mem::take(&mut state.scratch.dqueue);
    for &channel in &channels {
        // Longest spans first: they have the fewest feasible tracks.
        queue.clear();
        // A queued net always has a span in its channel; if that invariant
        // were ever broken the net simply stays in `U_D` and surfaces as an
        // incomplete route in the verifier, rather than panicking here.
        queue.extend(state.ud(channel).filter_map(|n| {
            let (lo, hi) = state.route(n).span_in(channel)?;
            Some((n, lo as u32, hi as u32))
        }));
        queue.sort_by(|a, b| (b.2 - b.1).cmp(&(a.2 - a.1)).then(a.0.cmp(&b.0)));

        for &(net, lo, hi) in &queue {
            let (lo, hi) = (lo as usize, hi as usize);
            if let Some((t, i, j)) = find_track_run_idx(state, arch, channel, lo, hi, cfg) {
                let mut run = state.take_run();
                run.extend(
                    arch.channel_tracks(channel)[t].segments()[i..=j]
                        .iter()
                        .map(|s| s.id()),
                );
                state.set_channel_routed(net, channel, run);
                routed += 1;
            } else {
                failures += 1;
            }
        }
    }
    state.scratch.channels = channels;
    state.scratch.dqueue = queue;
    DetailPassStats { routed, failures }
}

/// Finds the cheapest run of consecutive free segments on one track of
/// `channel` covering columns `lo..=hi`, returned as `(track index, first
/// segment index, last segment index)` so the caller materializes segment
/// ids exactly once — or `None` if every track is blocked.
///
/// The feasible tracks come from the state's free-track masks (one AND per
/// column of the span), so a blocked span costs no segment probe. They are
/// scored in ascending track order, and a track replaces the incumbent only
/// if it is cheaper by more than 1e-12 or ties with fewer segments: the
/// first winner stays.
pub(crate) fn find_track_run_idx(
    state: &RoutingState,
    arch: &Architecture,
    channel: ChannelId,
    lo: usize,
    hi: usize,
    cfg: &RouterConfig,
) -> Option<(usize, usize, usize)> {
    debug_assert!(lo <= hi);
    let tracks = arch.channel_tracks(channel);
    let mut best: Option<(f64, usize, (usize, usize, usize))> = None;
    for w in 0..state.track_words() {
        let mut feasible = state.free_tracks(channel, lo, hi, w);
        while feasible != 0 {
            let t = w * 64 + feasible.trailing_zeros() as usize;
            feasible &= feasible - 1;
            let Some(track) = tracks.get(t) else {
                break;
            };
            let (Some(i), Some(j)) = (
                track.segment_at(ColId::new(lo)),
                track.segment_at(ColId::new(hi)),
            ) else {
                continue;
            };
            let (Some(first), Some(last)) = (track.segments().get(i), track.segments().get(j))
            else {
                continue;
            };
            // Segments of a run are contiguous, so the covered width is
            // just the outer boundary difference.
            let wastage = last.end() - first.start() - (hi - lo + 1);
            let count = j - i + 1;
            let cost = cfg.wastage_weight * wastage as f64 + cfg.segment_weight * count as f64;
            let better = match &best {
                None => true,
                Some((bc, bcount, _)) => {
                    cost < *bc - 1e-12 || ((cost - *bc).abs() <= 1e-12 && count < *bcount)
                }
            };
            if better {
                best = Some((cost, count, (t, i, j)));
            }
        }
    }
    best.map(|(_, _, run)| run)
}

/// [`find_track_run_idx`] materialized into a fresh segment-id vector —
/// the test-friendly form.
#[cfg(test)]
pub(crate) fn find_track_run(
    state: &RoutingState,
    arch: &Architecture,
    channel: ChannelId,
    lo: usize,
    hi: usize,
    cfg: &RouterConfig,
) -> Option<Vec<HSegId>> {
    find_track_run_idx(state, arch, channel, lo, hi, cfg).map(|(t, i, j)| {
        arch.channel_tracks(channel)[t].segments()[i..=j]
            .iter()
            .map(|s| s.id())
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowfpga_arch::SegmentationScheme;
    use rowfpga_netlist::{generate, GenerateConfig, Netlist};
    use rowfpga_place::Placement;

    use crate::global::global_route_pass;

    fn setup() -> (Architecture, Netlist, Placement, RoutingState) {
        let nl = generate(&GenerateConfig {
            num_cells: 40,
            num_inputs: 5,
            num_outputs: 5,
            num_seq: 3,
            ..GenerateConfig::default()
        });
        let arch = Architecture::builder()
            .rows(5)
            .cols(12)
            .io_columns(2)
            .tracks_per_channel(20)
            .segmentation(SegmentationScheme::Uniform { len: 4 })
            .build()
            .unwrap();
        let p = Placement::random(&arch, &nl, 23).unwrap();
        let st = RoutingState::new(&arch, &nl);
        (arch, nl, p, st)
    }

    #[test]
    fn full_pass_routes_a_roomy_chip() {
        let (arch, nl, p, mut st) = setup();
        let cfg = RouterConfig::default();
        global_route_pass(&mut st, &arch, &nl, &p, &cfg);
        assert_eq!(st.globally_unrouted(), 0);
        let pass = detail_route_pass(&mut st, &arch, &cfg);
        assert_eq!(st.incomplete(), 0, "roomy chip must route fully");
        assert_eq!(pass.failures, 0);
        assert!(pass.routed > 0);
        // every routed run covers its span on a single track
        for (id, _) in nl.nets() {
            let route = st.route(id);
            for (chan, segs) in route.hsegs() {
                let (lo, hi) = route.span_in(*chan).unwrap();
                let first = arch.hseg(segs[0]);
                let last = arch.hseg(*segs.last().unwrap());
                assert!(first.start() <= lo && last.end() > hi);
                let track = arch.hseg_track(segs[0]);
                for (a, b) in segs.iter().zip(segs.iter().skip(1)) {
                    assert_eq!(arch.hseg_track(*b), track, "run changes tracks");
                    assert_eq!(arch.hseg(*a).end(), arch.hseg(*b).start());
                }
            }
        }
    }

    #[test]
    fn cost_prefers_snug_tracks() {
        // Channel with two tracks: one segmented 4+4+4, one full length.
        let arch = Architecture::builder()
            .rows(1)
            .cols(12)
            .io_columns(2)
            .segmentation(SegmentationScheme::Explicit {
                tracks: vec![vec![4, 8], vec![]],
            })
            .build()
            .unwrap();
        let nl = {
            let mut b = Netlist::builder();
            let a = b.add_cell("a", rowfpga_netlist::CellKind::Input);
            let q = b.add_cell("q", rowfpga_netlist::CellKind::Output);
            b.connect("n", a, [(q, 0)]).unwrap();
            b.build().unwrap()
        };
        let st = RoutingState::new(&arch, &nl);
        // span 1..2 fits in the first 4-wide segment: wastage 2, 1 segment
        // (cost 5) vs. the full-length track: wastage 10, 1 segment
        // (cost 13).
        let run = find_track_run(
            &st,
            &arch,
            ChannelId::new(0),
            1,
            2,
            &RouterConfig::default(),
        )
        .expect("fits");
        assert_eq!(run.len(), 1);
        assert_eq!(arch.hseg(run[0]).len(), 4);
    }

    #[test]
    fn segment_weight_avoids_many_joints() {
        // Track 0: 2+2+2+2+2+2 (covering span 0..=5 takes 3 segments,
        // wastage 0). Track 1: full 12 (1 segment, wastage 6).
        let arch = Architecture::builder()
            .rows(1)
            .cols(12)
            .io_columns(2)
            .segmentation(SegmentationScheme::Explicit {
                tracks: vec![vec![2, 4, 6, 8, 10], vec![]],
            })
            .build()
            .unwrap();
        let nl = {
            let mut b = Netlist::builder();
            let a = b.add_cell("a", rowfpga_netlist::CellKind::Input);
            let q = b.add_cell("q", rowfpga_netlist::CellKind::Output);
            b.connect("n", a, [(q, 0)]).unwrap();
            b.build().unwrap()
        };
        let st = RoutingState::new(&arch, &nl);
        // default weights (w=1, s=3): track0 cost 0+9=9, track1 cost 6+3=9
        // → tie broken toward fewer segments (track 1).
        let run = find_track_run(
            &st,
            &arch,
            ChannelId::new(0),
            0,
            5,
            &RouterConfig::default(),
        )
        .unwrap();
        assert_eq!(run.len(), 1, "tie must prefer fewer antifuses");
        // wirability-only weights pick the zero-wastage multi-segment run
        let run = find_track_run(
            &st,
            &arch,
            ChannelId::new(0),
            0,
            5,
            &RouterConfig::wirability_only(),
        )
        .unwrap();
        assert_eq!(run.len(), 3);
    }

    #[test]
    fn blocked_tracks_fail_gracefully() {
        let (arch, nl, p, mut st) = setup();
        let cfg = RouterConfig::default();
        global_route_pass(&mut st, &arch, &nl, &p, &cfg);
        detail_route_pass(&mut st, &arch, &cfg);
        // Rebuild on a 1-track chip: contention must leave failures.
        let narrow = arch.with_tracks(1).unwrap();
        let mut st2 = RoutingState::new(&narrow, &nl);
        global_route_pass(&mut st2, &narrow, &nl, &p, &cfg);
        let pass = detail_route_pass(&mut st2, &narrow, &cfg);
        assert!(st2.incomplete() > 0, "one track cannot carry everything");
        assert!(pass.failures > 0, "starved fabric must report failures");
        // failed nets remain queued in their channels
        let queued: usize = (0..narrow.geometry().num_channels())
            .map(|c| st2.ud(ChannelId::new(c)).count())
            .sum();
        assert!(queued > 0);
    }
}
