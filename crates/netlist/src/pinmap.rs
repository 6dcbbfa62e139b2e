//! Pinmaps: legal assignments of logical pins to physical module ports.
//!
//! Because each logic module is built from programmable lookup structures,
//! the same cell-level function can be realized with many different pin
//! assignments (paper §3.2). The side a pin lands on decides which channel
//! the connection enters — a top-side port connects to the channel above the
//! cell's row, a bottom-side port to the channel below — so pinmap choice
//! shifts routing demand between channels and changes vertical feedthrough
//! needs. The paper's annealer treats pinmap reassignment as one of its two
//! move classes, selecting from a compile-time palette of legal alternatives
//! ([`pinmap_palette`]).

use crate::cell::CellKind;

/// Physical ports available on each edge (top/bottom) of a logic module.
const PORTS_PER_SIDE: usize = 4;

/// Cap on palette size; larger enumerations are subsampled deterministically.
const MAX_PALETTE: usize = 64;

/// Which module edge a physical port faces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PortSide {
    /// The port faces the channel above the cell's row.
    Top,
    /// The port faces the channel below the cell's row.
    Bottom,
}

impl PortSide {
    /// The opposite side.
    pub fn flipped(self) -> PortSide {
        match self {
            PortSide::Top => PortSide::Bottom,
            PortSide::Bottom => PortSide::Top,
        }
    }
}

/// One legal assignment of a cell's logical pins to port sides.
///
/// Pin indexing follows [`crate::PinRef`]: for signal-driving cells, pin 0 is
/// the output and pins `1..` are inputs; for primary-output cells, pin 0 is
/// the single input.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Pinmap {
    sides: Vec<PortSide>,
}

impl Pinmap {
    fn new(sides: Vec<PortSide>) -> Self {
        Self { sides }
    }

    /// The side pin `pin` is mapped to.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range for the cell kind this pinmap was
    /// generated for.
    pub fn pin_side(&self, pin: u8) -> PortSide {
        self.sides[pin as usize]
    }

    /// Number of pins covered by the pinmap.
    pub fn num_pins(&self) -> usize {
        self.sides.len()
    }

    /// Sides of all pins, in pin order.
    pub fn sides(&self) -> &[PortSide] {
        &self.sides
    }
}

/// Generates the palette of legal pinmaps for a cell kind.
///
/// Legality: at most four input pins per module edge; the
/// output pin (where present) may face either edge. I/O cells have a single
/// pin that may face either edge. The palette is deterministic, deduplicated
/// and capped at a fixed size (large fan-in cells enumerate combinatorially
/// many assignments; a deterministic stride subsample keeps move selection
/// cheap without biasing any particular side pattern).
///
/// The palette is never empty.
pub fn pinmap_palette(kind: CellKind) -> Vec<Pinmap> {
    let n_in = kind.num_inputs();
    let has_out = kind.has_output();

    // Enumerate input-side patterns as bitmasks: bit i set = input i on Top.
    let mut input_patterns = Vec::new();
    for mask in 0u32..(1 << n_in) {
        let top = mask.count_ones() as usize;
        let bottom = n_in - top;
        if top <= PORTS_PER_SIDE && bottom <= PORTS_PER_SIDE {
            input_patterns.push(mask);
        }
    }

    let mut palette = Vec::new();
    for &mask in &input_patterns {
        let inputs: Vec<PortSide> = (0..n_in)
            .map(|i| {
                if mask & (1 << i) != 0 {
                    PortSide::Top
                } else {
                    PortSide::Bottom
                }
            })
            .collect();
        if has_out {
            for out in [PortSide::Bottom, PortSide::Top] {
                let mut sides = Vec::with_capacity(1 + n_in);
                sides.push(out);
                sides.extend_from_slice(&inputs);
                palette.push(Pinmap::new(sides));
            }
        } else {
            palette.push(Pinmap::new(inputs.clone()));
        }
    }

    if palette.len() > MAX_PALETTE {
        // Deterministic stride subsample that always keeps the first entry.
        let stride = palette.len().div_ceil(MAX_PALETTE);
        palette = palette.into_iter().step_by(stride).collect();
    }
    debug_assert!(!palette.is_empty());
    palette
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::MAX_FANIN;

    #[test]
    fn io_cells_have_two_pinmaps() {
        // Input: single output pin, either side.
        let p = pinmap_palette(CellKind::Input);
        assert_eq!(p.len(), 2);
        assert_ne!(p[0].pin_side(0), p[1].pin_side(0));
        // Output: single input pin, either side.
        let p = pinmap_palette(CellKind::Output);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn seq_cells_enumerate_output_and_data_sides() {
        let p = pinmap_palette(CellKind::Seq);
        // 2 input patterns × 2 output sides
        assert_eq!(p.len(), 4);
        for pm in &p {
            assert_eq!(pm.num_pins(), 2);
        }
    }

    #[test]
    fn comb2_palette_size() {
        // 4 input patterns × 2 output sides
        assert_eq!(pinmap_palette(CellKind::comb(2)).len(), 8);
    }

    #[test]
    fn max_fanin_palette_respects_port_capacity() {
        let p = pinmap_palette(CellKind::comb(MAX_FANIN));
        assert!(!p.is_empty());
        assert!(p.len() <= 64);
        for pm in &p {
            let top = pm.sides()[1..]
                .iter()
                .filter(|s| **s == PortSide::Top)
                .count();
            let bottom = pm.num_pins() - 1 - top;
            assert!(top <= 4 && bottom <= 4, "port capacity violated: {pm:?}");
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "only membership is asked; the set is never iterated"
    )]
    fn palettes_are_deterministic_and_deduplicated() {
        let a = pinmap_palette(CellKind::comb(3));
        let b = pinmap_palette(CellKind::comb(3));
        assert_eq!(a, b);
        let mut seen = std::collections::HashSet::new();
        for pm in &a {
            assert!(seen.insert(pm.clone()), "duplicate pinmap {pm:?}");
        }
    }

    #[test]
    fn flipped_inverts() {
        assert_eq!(PortSide::Top.flipped(), PortSide::Bottom);
        assert_eq!(PortSide::Bottom.flipped(), PortSide::Top);
    }
}
