//! Wirelength and congestion estimation.
//!
//! These are the placement-level predictors the *sequential* baseline placer
//! optimizes (half-perimeter wirelength plus channel congestion, in the
//! TimberWolfSC tradition the paper's TI comparison flow is built on). The
//! paper argues such estimators are "especially prone to error" for
//! segmented row-based fabrics — reproducing that weakness faithfully is the
//! point of the baseline.

use rowfpga_arch::Architecture;
use rowfpga_netlist::{NetId, Netlist};

use crate::pins::pin_loc;
use crate::placement::Placement;

/// The bounding box of a net's pin locations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetBbox {
    /// Leftmost pin column.
    pub col_min: usize,
    /// Rightmost pin column.
    pub col_max: usize,
    /// Lowest pin channel.
    pub chan_min: usize,
    /// Highest pin channel.
    pub chan_max: usize,
}

impl NetBbox {
    /// Computes the bounding box of `net` under `placement`.
    ///
    /// # Panics
    ///
    /// Panics if the net has no pins (nets always have a driver and at least
    /// one sink by construction).
    pub fn compute(
        arch: &Architecture,
        netlist: &Netlist,
        placement: &Placement,
        net: NetId,
    ) -> NetBbox {
        let mut bbox = NetBbox {
            col_min: usize::MAX,
            col_max: 0,
            chan_min: usize::MAX,
            chan_max: 0,
        };
        for pin in netlist.net(net).pins() {
            let l = pin_loc(arch, netlist, placement, pin);
            bbox.col_min = bbox.col_min.min(l.col.index());
            bbox.col_max = bbox.col_max.max(l.col.index());
            bbox.chan_min = bbox.chan_min.min(l.channel.index());
            bbox.chan_max = bbox.chan_max.max(l.channel.index());
        }
        assert!(bbox.col_min != usize::MAX, "net has no pins");
        bbox
    }

    /// Horizontal extent in columns (0 for a single-column net).
    pub fn width(&self) -> usize {
        self.col_max - self.col_min
    }

    /// Vertical extent in channels (0 for a single-channel net).
    pub fn height(&self) -> usize {
        self.chan_max - self.chan_min
    }

    /// Half-perimeter wirelength, the classic placement estimator, with
    /// channel crossings weighted by `vertical_weight` (vertical hops cost
    /// antifuses, so they are weighted heavier than horizontal columns).
    pub fn hpwl(&self, vertical_weight: f64) -> f64 {
        self.width() as f64 + vertical_weight * self.height() as f64
    }
}

/// Half-perimeter wirelength of a net with the conventional vertical weight
/// of 2.0 (one channel hop demands vertical segments and two cross
/// antifuses).
pub fn hpwl(arch: &Architecture, netlist: &Netlist, placement: &Placement, net: NetId) -> f64 {
    NetBbox::compute(arch, netlist, placement, net).hpwl(2.0)
}

/// Incremental per-channel routing-demand tracker.
///
/// Each net contributes its column span to every channel in its channel
/// range (the usual uniform-probability congestion model). The cost is the
/// sum over channels of the *squared* overflow beyond the channel's track
/// capacity, so the baseline placer is only penalized where estimated demand
/// exceeds supply.
#[derive(Clone, Debug)]
pub struct CongestionMap {
    /// Estimated wire demand (column-units) per channel.
    demand: Vec<f64>,
    /// Capacity per channel: tracks × columns.
    capacity: f64,
}

impl CongestionMap {
    /// Creates an empty map for the chip.
    pub fn new(arch: &Architecture) -> CongestionMap {
        CongestionMap {
            demand: vec![0.0; arch.geometry().num_channels()],
            capacity: (arch.tracks_per_channel() * arch.geometry().num_cols()) as f64,
        }
    }

    /// Demand a single net adds to each channel of its bbox: its width,
    /// split evenly when the net spans several channels.
    fn per_channel_demand(bbox: &NetBbox) -> f64 {
        let span = (bbox.height() + 1) as f64;
        (bbox.width() as f64 + 1.0) / span.sqrt()
    }

    /// Adds a net's demand.
    pub fn add_net(&mut self, bbox: &NetBbox) {
        let d = Self::per_channel_demand(bbox);
        for c in bbox.chan_min..=bbox.chan_max {
            self.demand[c] += d;
        }
    }

    /// Removes a net's demand (inverse of [`CongestionMap::add_net`] with
    /// the same bbox).
    pub fn remove_net(&mut self, bbox: &NetBbox) {
        let d = Self::per_channel_demand(bbox);
        for c in bbox.chan_min..=bbox.chan_max {
            self.demand[c] -= d;
        }
    }

    /// Total squared overflow over all channels.
    pub fn cost(&self) -> f64 {
        self.demand
            .iter()
            .map(|&d| {
                let over = (d - self.capacity).max(0.0);
                over * over
            })
            .sum()
    }

    /// Estimated demand of one channel.
    pub fn demand_of(&self, channel: usize) -> f64 {
        self.demand[channel]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pins::net_pin_locs;
    use rowfpga_netlist::{generate, CellId, GenerateConfig};

    fn setup() -> (Architecture, Netlist, Placement) {
        let nl = generate(&GenerateConfig {
            num_cells: 50,
            num_inputs: 5,
            num_outputs: 5,
            num_seq: 3,
            ..GenerateConfig::default()
        });
        let arch = Architecture::builder()
            .rows(5)
            .cols(14)
            .io_columns(2)
            .build()
            .unwrap();
        let p = Placement::random(&arch, &nl, 11).unwrap();
        (arch, nl, p)
    }

    #[test]
    fn bbox_contains_all_pins() {
        let (arch, nl, p) = setup();
        for (id, _) in nl.nets() {
            let bbox = NetBbox::compute(&arch, &nl, &p, id);
            for l in net_pin_locs(&arch, &nl, &p, id) {
                assert!(bbox.col_min <= l.col.index() && l.col.index() <= bbox.col_max);
                assert!(bbox.chan_min <= l.channel.index() && l.channel.index() <= bbox.chan_max);
            }
        }
    }

    #[test]
    fn hpwl_is_nonnegative_and_move_sensitive() {
        let (arch, nl, mut p) = setup();
        let total: f64 = nl.nets().map(|(id, _)| hpwl(&arch, &nl, &p, id)).sum();
        assert!(total >= 0.0);
        // swapping some pair of logic cells must change total hpwl
        let cells: Vec<CellId> = nl
            .cells()
            .filter(|(_, c)| !c.kind().is_io())
            .map(|(id, _)| id)
            .collect();
        let mut changed = false;
        for pair in cells.windows(2) {
            p.swap_sites(&arch, p.site_of(pair[0]), p.site_of(pair[1]));
            let total2: f64 = nl.nets().map(|(id, _)| hpwl(&arch, &nl, &p, id)).sum();
            if (total2 - total).abs() > 1e-9 {
                changed = true;
                break;
            }
        }
        assert!(changed, "no swap changed total hpwl");
    }

    #[test]
    fn congestion_add_remove_is_identity() {
        let (arch, nl, p) = setup();
        let mut map = CongestionMap::new(&arch);
        let bboxes: Vec<NetBbox> = nl
            .nets()
            .map(|(id, _)| NetBbox::compute(&arch, &nl, &p, id))
            .collect();
        for b in &bboxes {
            map.add_net(b);
        }
        let full_cost = map.cost();
        for b in &bboxes {
            map.remove_net(b);
        }
        for c in 0..arch.geometry().num_channels() {
            assert!(map.demand_of(c).abs() < 1e-9);
        }
        assert_eq!(map.cost(), 0.0);
        // cost is monotone: fewer nets never cost more
        let mut partial = CongestionMap::new(&arch);
        for b in &bboxes[..bboxes.len() / 2] {
            partial.add_net(b);
        }
        assert!(partial.cost() <= full_cost + 1e-9);
    }

    #[test]
    fn congestion_cost_zero_until_overflow() {
        let arch = Architecture::builder()
            .rows(2)
            .cols(10)
            .io_columns(1)
            .tracks_per_channel(100)
            .build()
            .unwrap();
        let mut map = CongestionMap::new(&arch);
        map.add_net(&NetBbox {
            col_min: 0,
            col_max: 9,
            chan_min: 0,
            chan_max: 0,
        });
        assert_eq!(map.cost(), 0.0, "demand far below capacity must be free");
    }
}
