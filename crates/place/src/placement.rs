//! The placement data structure.

use std::error::Error;
use std::fmt;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use rowfpga_arch::{Architecture, SiteId, SiteKind};
use rowfpga_netlist::{pinmap_palette, CellId, CellKind, Netlist, Pinmap};

/// Errors raised while creating a [`Placement`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CreatePlacementError {
    /// The chip does not have enough sites of the required kind.
    NotEnoughSites {
        /// The site kind that ran out.
        kind: SiteKind,
        /// Cells needing that kind.
        needed: usize,
        /// Sites of that kind available.
        available: usize,
    },
    /// A restored assignment is malformed: wrong lengths, an out-of-range
    /// site or pinmap index, a doubly occupied site, or a kind-incompatible
    /// cell/site pairing.
    InvalidAssignment {
        /// Description of the violation.
        detail: String,
    },
}

impl fmt::Display for CreatePlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CreatePlacementError::NotEnoughSites {
                kind,
                needed,
                available,
            } => write!(
                f,
                "need {needed} {kind:?} sites but the chip provides only {available}"
            ),
            CreatePlacementError::InvalidAssignment { detail } => {
                write!(f, "invalid placement assignment: {detail}")
            }
        }
    }
}

impl Error for CreatePlacementError {}

/// A complete, always-legal assignment of cells to sites plus a pinmap
/// choice per cell.
///
/// Legality invariants maintained by construction:
///
/// * every cell occupies exactly one site and every site holds at most one
///   cell;
/// * I/O cells sit on I/O sites and logic cells on logic sites;
/// * every cell's pinmap index is valid for its kind's palette.
#[derive(Clone, Debug)]
pub struct Placement {
    site_of: Vec<SiteId>,
    cell_at: Vec<Option<CellId>>,
    pinmap_choice: Vec<u16>,
    /// Per cell, the slot of its kind's palette in `palettes`.
    palette_slot: Vec<u16>,
    /// One pinmap palette per cell kind of the netlist, in kind order,
    /// shared across cells of the same kind.
    palettes: Vec<(CellKind, Vec<Pinmap>)>,
}

/// The palette of every cell kind in `netlist`, in kind order, and each
/// cell's slot among them.
fn palettes_of(netlist: &Netlist) -> (Vec<(CellKind, Vec<Pinmap>)>, Vec<u16>) {
    let mut kinds: Vec<CellKind> = Vec::new();
    for (_, c) in netlist.cells() {
        if let Err(at) = kinds.binary_search(&c.kind()) {
            kinds.insert(at, c.kind());
        }
    }
    let slots = netlist
        .cells()
        .map(|(_, c)| kinds.binary_search(&c.kind()).unwrap_or_default() as u16)
        .collect();
    let palettes = kinds.into_iter().map(|k| (k, pinmap_palette(k))).collect();
    (palettes, slots)
}

impl Placement {
    /// Creates a uniformly random legal placement with default (index 0)
    /// pinmaps, deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`CreatePlacementError::NotEnoughSites`] if the chip cannot
    /// hold the design.
    pub fn random(
        arch: &Architecture,
        netlist: &Netlist,
        seed: u64,
    ) -> Result<Placement, CreatePlacementError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let geom = arch.geometry();

        let mut io_cells = Vec::new();
        let mut logic_cells = Vec::new();
        for (id, cell) in netlist.cells() {
            if cell.kind().is_io() {
                io_cells.push(id);
            } else {
                logic_cells.push(id);
            }
        }
        let mut io_sites: Vec<SiteId> = geom.sites_of_kind(SiteKind::Io).map(|s| s.id()).collect();
        let mut logic_sites: Vec<SiteId> = geom
            .sites_of_kind(SiteKind::Logic)
            .map(|s| s.id())
            .collect();
        if io_cells.len() > io_sites.len() {
            return Err(CreatePlacementError::NotEnoughSites {
                kind: SiteKind::Io,
                needed: io_cells.len(),
                available: io_sites.len(),
            });
        }
        if logic_cells.len() > logic_sites.len() {
            return Err(CreatePlacementError::NotEnoughSites {
                kind: SiteKind::Logic,
                needed: logic_cells.len(),
                available: logic_sites.len(),
            });
        }
        io_sites.shuffle(&mut rng);
        logic_sites.shuffle(&mut rng);

        let mut site_of = vec![SiteId::new(0); netlist.num_cells()];
        let mut cell_at = vec![None; geom.num_sites()];
        for (cell, site) in io_cells.iter().zip(io_sites.iter()) {
            site_of[cell.index()] = *site;
            cell_at[site.index()] = Some(*cell);
        }
        for (cell, site) in logic_cells.iter().zip(logic_sites.iter()) {
            site_of[cell.index()] = *site;
            cell_at[site.index()] = Some(*cell);
        }

        let (palettes, palette_slot) = palettes_of(netlist);
        Ok(Placement {
            site_of,
            cell_at,
            pinmap_choice: vec![0; netlist.num_cells()],
            palette_slot,
            palettes,
        })
    }

    /// Exports the cell→site assignment as bare site indices, in cell-id
    /// order — the placement half of a layout checkpoint (together with
    /// [`Placement::export_pinmaps`]).
    pub fn export_sites(&self) -> Vec<usize> {
        self.site_of.iter().map(|s| s.index()).collect()
    }

    /// Exports every cell's pinmap index, in cell-id order.
    pub fn export_pinmaps(&self) -> Vec<u16> {
        self.pinmap_choice.clone()
    }

    /// Rebuilds a placement from exported site and pinmap assignments,
    /// validating every legality invariant (bijection, kind compatibility,
    /// palette bounds) so a corrupt checkpoint yields a typed error rather
    /// than an illegal placement or a panic downstream.
    ///
    /// # Errors
    ///
    /// Returns [`CreatePlacementError::InvalidAssignment`] on any malformed
    /// input.
    pub fn from_parts(
        arch: &Architecture,
        netlist: &Netlist,
        sites: &[usize],
        pinmaps: &[u16],
    ) -> Result<Placement, CreatePlacementError> {
        let geom = arch.geometry();
        if sites.len() != netlist.num_cells() || pinmaps.len() != netlist.num_cells() {
            return Err(CreatePlacementError::InvalidAssignment {
                detail: format!(
                    "{} sites / {} pinmaps for {} cells",
                    sites.len(),
                    pinmaps.len(),
                    netlist.num_cells()
                ),
            });
        }
        let (palettes, palette_slot) = palettes_of(netlist);
        let mut site_of = vec![SiteId::new(0); netlist.num_cells()];
        let mut cell_at: Vec<Option<CellId>> = vec![None; geom.num_sites()];
        for (id, cell) in netlist.cells() {
            let s = sites[id.index()];
            if s >= geom.num_sites() {
                return Err(CreatePlacementError::InvalidAssignment {
                    detail: format!("cell {id} assigned to nonexistent site {s}"),
                });
            }
            let site = SiteId::new(s);
            let want = if cell.kind().is_io() {
                SiteKind::Io
            } else {
                SiteKind::Logic
            };
            if geom.site(site).kind() != want {
                return Err(CreatePlacementError::InvalidAssignment {
                    detail: format!(
                        "cell {id} ({:?}) on {:?} site {s}",
                        cell.kind(),
                        geom.site(site).kind()
                    ),
                });
            }
            if let Some(prev) = cell_at[s] {
                return Err(CreatePlacementError::InvalidAssignment {
                    detail: format!("site {s} assigned to both {prev} and {id}"),
                });
            }
            let palette_len = palettes[palette_slot[id.index()] as usize].1.len();
            if pinmaps[id.index()] as usize >= palette_len {
                return Err(CreatePlacementError::InvalidAssignment {
                    detail: format!(
                        "cell {id} pinmap index {} exceeds palette of {palette_len}",
                        pinmaps[id.index()]
                    ),
                });
            }
            site_of[id.index()] = site;
            cell_at[s] = Some(id);
        }
        Ok(Placement {
            site_of,
            cell_at,
            pinmap_choice: pinmaps.to_vec(),
            palette_slot,
            palettes,
        })
    }

    /// The site holding `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn site_of(&self, cell: CellId) -> SiteId {
        self.site_of[cell.index()]
    }

    /// The cell at `site`, if occupied.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn cell_at(&self, site: SiteId) -> Option<CellId> {
        self.cell_at[site.index()]
    }

    /// The index of `cell`'s current pinmap within its palette.
    pub fn pinmap_index(&self, cell: CellId) -> u16 {
        self.pinmap_choice[cell.index()]
    }

    /// The current pinmap of `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn pinmap<'a>(&'a self, netlist: &Netlist, cell: CellId) -> &'a Pinmap {
        let (kind, palette) = &self.palettes[self.palette_slot[cell.index()] as usize];
        debug_assert_eq!(*kind, netlist.cell(cell).kind());
        &palette[self.pinmap_choice[cell.index()] as usize]
    }

    /// The pinmap palette of a cell kind (empty for a kind the netlist
    /// does not use).
    pub fn palette(&self, kind: CellKind) -> &[Pinmap] {
        self.palettes
            .binary_search_by_key(&kind, |(k, _)| *k)
            .ok()
            .and_then(|i| self.palettes.get(i))
            .map_or(&[], |(_, palette)| palette.as_slice())
    }

    /// Sets `cell`'s pinmap and returns the previous index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the cell's palette.
    pub fn set_pinmap(&mut self, netlist: &Netlist, cell: CellId, index: u16) -> u16 {
        let kind = netlist.cell(cell).kind();
        assert!(
            (index as usize) < self.palette(kind).len(),
            "pinmap index {index} out of range for {kind:?}"
        );
        std::mem::replace(&mut self.pinmap_choice[cell.index()], index)
    }

    /// Exchanges the occupants of two sites. Either site may be empty, so
    /// this implements both cell swaps and single-cell translations
    /// (paper §3.2). The operation is its own inverse.
    ///
    /// # Panics
    ///
    /// Panics if the exchange would place a cell on an incompatible site
    /// kind. Callers (move generators) must propose kind-compatible
    /// exchanges.
    pub fn swap_sites(&mut self, arch: &Architecture, a: SiteId, b: SiteId) {
        if a == b {
            return;
        }
        let geom = arch.geometry();
        let (ka, kb) = (geom.site(a).kind(), geom.site(b).kind());
        let ca = self.cell_at[a.index()];
        let cb = self.cell_at[b.index()];
        if ca.is_some() || cb.is_some() {
            assert_eq!(
                ka, kb,
                "cannot exchange occupied sites of different kinds ({ka:?} vs {kb:?})"
            );
        }
        self.cell_at[a.index()] = cb;
        self.cell_at[b.index()] = ca;
        if let Some(c) = ca {
            self.site_of[c.index()] = b;
        }
        if let Some(c) = cb {
            self.site_of[c.index()] = a;
        }
    }

    /// Verifies all legality invariants against the architecture and
    /// netlist; used by tests and debug assertions.
    pub fn check_invariants(&self, arch: &Architecture, netlist: &Netlist) -> bool {
        self.check_invariants_detailed(arch, netlist).is_ok()
    }

    /// Like [`Placement::check_invariants`], but names the first broken
    /// invariant — the form the fuzzing oracles report and shrink against.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found: a broken
    /// cell↔site bijection, a stale occupant entry, a kind-incompatible
    /// site assignment, or an out-of-palette pinmap choice.
    pub fn check_invariants_detailed(
        &self,
        arch: &Architecture,
        netlist: &Netlist,
    ) -> Result<(), String> {
        let geom = arch.geometry();
        // bijection
        for (id, _) in netlist.cells() {
            let site = self.site_of[id.index()];
            if self.cell_at[site.index()] != Some(id) {
                return Err(format!(
                    "cell {id} maps to site {site}, but the site records occupant {:?}",
                    self.cell_at[site.index()]
                ));
            }
        }
        let occupied = self.cell_at.iter().flatten().count();
        if occupied != netlist.num_cells() {
            return Err(format!(
                "{occupied} sites record occupants but the netlist has {} cells",
                netlist.num_cells()
            ));
        }
        // kind compatibility + pinmap validity
        for (id, cell) in netlist.cells() {
            let site = geom.site(self.site_of[id.index()]);
            let want = if cell.kind().is_io() {
                SiteKind::Io
            } else {
                SiteKind::Logic
            };
            if site.kind() != want {
                return Err(format!(
                    "cell {id} ({:?}) sits on a {:?} site, needs {want:?}",
                    cell.kind(),
                    site.kind()
                ));
            }
            let palette_len = self.palette(cell.kind()).len();
            if self.pinmap_choice[id.index()] as usize >= palette_len {
                return Err(format!(
                    "cell {id} pinmap index {} out of palette (len {palette_len})",
                    self.pinmap_choice[id.index()]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowfpga_arch::SegmentationScheme;
    use rowfpga_netlist::{generate, GenerateConfig};

    fn setup() -> (Architecture, Netlist) {
        let netlist = generate(&GenerateConfig {
            num_cells: 60,
            num_inputs: 6,
            num_outputs: 6,
            num_seq: 4,
            ..GenerateConfig::default()
        });
        let arch = Architecture::builder()
            .rows(6)
            .cols(14)
            .io_columns(2)
            .tracks_per_channel(10)
            .segmentation(SegmentationScheme::Uniform { len: 4 })
            .build()
            .unwrap();
        (arch, netlist)
    }

    #[test]
    fn random_placement_is_legal() {
        let (arch, nl) = setup();
        let p = Placement::random(&arch, &nl, 42).unwrap();
        assert!(p.check_invariants(&arch, &nl));
    }

    #[test]
    fn random_placement_is_deterministic_in_seed() {
        let (arch, nl) = setup();
        let a = Placement::random(&arch, &nl, 7).unwrap();
        let b = Placement::random(&arch, &nl, 7).unwrap();
        let c = Placement::random(&arch, &nl, 8).unwrap();
        let same_ab = nl.cells().all(|(id, _)| a.site_of(id) == b.site_of(id));
        let same_ac = nl.cells().all(|(id, _)| a.site_of(id) == c.site_of(id));
        assert!(same_ab);
        assert!(!same_ac);
    }

    #[test]
    fn swap_is_involutive() {
        let (arch, nl) = setup();
        let mut p = Placement::random(&arch, &nl, 1).unwrap();
        let a = p.site_of(CellId::new(10));
        let b = p.site_of(CellId::new(11));
        let before = p.clone();
        p.swap_sites(&arch, a, b);
        assert!(p.check_invariants(&arch, &nl));
        p.swap_sites(&arch, a, b);
        for (id, _) in nl.cells() {
            assert_eq!(p.site_of(id), before.site_of(id));
        }
    }

    #[test]
    fn translate_to_empty_site_moves_one_cell() {
        let (arch, nl) = setup();
        let mut p = Placement::random(&arch, &nl, 3).unwrap();
        // find an empty logic site
        let empty = arch
            .geometry()
            .sites_of_kind(SiteKind::Logic)
            .map(|s| s.id())
            .find(|s| p.cell_at(*s).is_none())
            .expect("chip has spare capacity");
        // find a logic cell
        let (cell, _) = nl.cells().find(|(_, c)| !c.kind().is_io()).unwrap();
        let from = p.site_of(cell);
        p.swap_sites(&arch, from, empty);
        assert_eq!(p.site_of(cell), empty);
        assert_eq!(p.cell_at(from), None);
        assert!(p.check_invariants(&arch, &nl));
    }

    #[test]
    fn pinmap_updates_round_trip() {
        let (arch, nl) = setup();
        let mut p = Placement::random(&arch, &nl, 4).unwrap();
        let (cell, c) = nl.cells().find(|(_, c)| !c.kind().is_io()).unwrap();
        let palette_len = p.palette(c.kind()).len() as u16;
        assert!(palette_len >= 2);
        let old = p.set_pinmap(&nl, cell, 1);
        assert_eq!(old, 0);
        assert_eq!(p.pinmap_index(cell), 1);
        let _ = arch;
    }

    #[test]
    #[should_panic(expected = "pinmap index")]
    fn pinmap_out_of_range_panics() {
        let (_arch, nl) = setup();
        let arch = Architecture::builder()
            .rows(6)
            .cols(14)
            .io_columns(2)
            .build()
            .unwrap();
        let mut p = Placement::random(&arch, &nl, 4).unwrap();
        p.set_pinmap(&nl, CellId::new(0), 999);
    }

    #[test]
    fn export_from_parts_round_trips() {
        let (arch, nl) = setup();
        let mut p = Placement::random(&arch, &nl, 13).unwrap();
        let (cell, _) = nl.cells().find(|(_, c)| !c.kind().is_io()).unwrap();
        p.set_pinmap(&nl, cell, 1);
        let sites = p.export_sites();
        let pinmaps = p.export_pinmaps();
        let q = Placement::from_parts(&arch, &nl, &sites, &pinmaps).unwrap();
        assert!(q.check_invariants(&arch, &nl));
        for (id, _) in nl.cells() {
            assert_eq!(q.site_of(id), p.site_of(id));
            assert_eq!(q.pinmap_index(id), p.pinmap_index(id));
        }
        for s in 0..arch.geometry().num_sites() {
            assert_eq!(q.cell_at(SiteId::new(s)), p.cell_at(SiteId::new(s)));
        }
    }

    #[test]
    fn from_parts_rejects_malformed_assignments() {
        let (arch, nl) = setup();
        let p = Placement::random(&arch, &nl, 13).unwrap();
        let sites = p.export_sites();
        let pinmaps = p.export_pinmaps();
        let bad = |s: &[usize], m: &[u16]| {
            matches!(
                Placement::from_parts(&arch, &nl, s, m),
                Err(CreatePlacementError::InvalidAssignment { .. })
            )
        };
        assert!(bad(&sites[1..], &pinmaps));
        let mut oob = sites.clone();
        oob[0] = arch.geometry().num_sites();
        assert!(bad(&oob, &pinmaps));
        let mut dup = sites.clone();
        dup[1] = dup[0];
        assert!(bad(&dup, &pinmaps));
        let mut badmap = pinmaps.clone();
        badmap[0] = u16::MAX;
        assert!(bad(&sites, &badmap));
        // IO cell moved to a logic site
        let (io_cell, _) = nl.cells().find(|(_, c)| c.kind().is_io()).unwrap();
        let logic_site = arch
            .geometry()
            .sites_of_kind(SiteKind::Logic)
            .map(|s| s.id())
            .find(|s| p.cell_at(*s).is_none())
            .unwrap();
        let mut wrong_kind = sites.clone();
        wrong_kind[io_cell.index()] = logic_site.index();
        assert!(bad(&wrong_kind, &pinmaps));
    }

    #[test]
    fn rejects_overfull_designs() {
        let nl = generate(&GenerateConfig {
            num_cells: 200,
            num_inputs: 10,
            num_outputs: 10,
            num_seq: 10,
            ..GenerateConfig::default()
        });
        let arch = Architecture::builder()
            .rows(4)
            .cols(10)
            .io_columns(2)
            .build()
            .unwrap();
        assert!(matches!(
            Placement::random(&arch, &nl, 0).unwrap_err(),
            CreatePlacementError::NotEnoughSites { .. }
        ));
    }
}
