//! Seeded generation of random fuzz cases: an architecture (row count,
//! channel width, segmentation profile, vertical resources) paired with a
//! random netlist sized to fit it.
//!
//! Everything is deterministic in one `u64` seed. A repro saves the fabric
//! as an architecture file (`rowfpga_arch::write_architecture`), which
//! rebuilds it exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rowfpga_arch::{Architecture, DelayParams, SegmentationScheme, VerticalScheme};
use rowfpga_netlist::{generate, GenerateConfig, Netlist};

/// Bounds on the random netlists a fuzz run draws.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CaseConfig {
    /// Smallest netlist, in cells.
    pub min_cells: usize,
    /// Largest netlist, in cells.
    pub max_cells: usize,
}

impl Default for CaseConfig {
    fn default() -> Self {
        // The issue's fuzzing envelope: designs of 20–400 cells.
        Self {
            min_cells: 20,
            max_cells: 400,
        }
    }
}

/// One generated fuzz case: a fabric, a netlist that fits it, and the
/// recipe the netlist was generated from.
#[derive(Clone, Debug)]
pub struct FuzzCase {
    /// The seed this case was derived from.
    pub seed: u64,
    /// The netlist recipe.
    pub gen: GenerateConfig,
    /// The built fabric.
    pub arch: Architecture,
    /// The generated netlist.
    pub netlist: Netlist,
}

/// Generates a random (architecture, netlist) pair, deterministic in
/// `seed`. The netlist always fits the fabric: dimensions are derived from
/// the cell counts via the same sizing math the CLI uses, with utilization,
/// aspect ratio, channel width, segmentation and vertical resources all
/// drawn at random.
pub fn random_case(seed: u64, cfg: &CaseConfig) -> FuzzCase {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_ca5e_f022_1234);
    let num_cells = rng.gen_range(cfg.min_cells.max(8)..=cfg.max_cells.max(cfg.min_cells.max(8)));
    // IO and sequential population: enough slack that logic cells dominate.
    let io_budget = (num_cells / 4).max(4);
    let num_inputs = rng.gen_range(2..=(io_budget / 2).max(2));
    let num_outputs = rng.gen_range(2..=(io_budget / 2).max(2));
    let num_seq = rng.gen_range(0..=(num_cells / 8));
    let gen_cfg = GenerateConfig {
        num_cells,
        num_inputs,
        num_outputs,
        num_seq,
        max_fanin: rng.gen_range(2..=4),
        fanout_skew: rng.gen_range(0.5..2.5),
        locality: rng.gen_range(0.0..0.9),
        seed: rng.gen(),
    };
    let netlist = generate(&gen_cfg);

    let segmentation = match rng.gen_range(0..4) {
        0 => SegmentationScheme::FullLength,
        1 => SegmentationScheme::Uniform {
            len: rng.gen_range(2..=6),
        },
        2 => {
            let n = rng.gen_range(2..=3);
            SegmentationScheme::Mixed {
                lengths: (0..n).map(|_| rng.gen_range(2..=8)).collect(),
            }
        }
        _ => SegmentationScheme::ActelLike { seed: rng.gen() },
    };
    let verticals = {
        let tracks_per_column = rng.gen_range(3..=6);
        let span = rng.gen_range(2..=4);
        if rng.gen_bool(0.5) {
            VerticalScheme::Uniform {
                tracks_per_column,
                span,
            }
        } else {
            VerticalScheme::WithLongLines {
                tracks_per_column,
                span,
            }
        }
    };
    let sizing = rowfpga_core::SizingConfig {
        utilization: rng.gen_range(0.5..0.85),
        aspect: rng.gen_range(1.0..3.0),
        tracks_per_channel: rng.gen_range(10..=30),
        segmentation,
        verticals,
        delay: DelayParams::default(),
    };
    let arch = rowfpga_core::size_architecture(&netlist, &sizing)
        .expect("sized architecture is always buildable");
    FuzzCase {
        seed,
        gen: gen_cfg,
        arch,
        netlist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_in_the_seed() {
        let cfg = CaseConfig::default();
        let fabric = |case: &FuzzCase| rowfpga_arch::write_architecture(&case.arch);
        let a = random_case(7, &cfg);
        let b = random_case(7, &cfg);
        assert_eq!(fabric(&a), fabric(&b));
        assert_eq!(a.gen, b.gen);
        assert_eq!(a.netlist.num_cells(), b.netlist.num_cells());
        let c = random_case(8, &cfg);
        assert!(fabric(&a) != fabric(&c) || a.gen != c.gen);
    }

    #[test]
    fn generated_netlists_respect_size_bounds() {
        let cfg = CaseConfig {
            min_cells: 20,
            max_cells: 60,
        };
        for seed in 0..10 {
            let case = random_case(seed, &cfg);
            assert!(case.netlist.num_cells() >= 20 && case.netlist.num_cells() <= 60);
        }
    }
}
