// rowfpga-lint: durable
//! Versioned, dependency-free checkpoints of a layout run.
//!
//! A checkpoint captures the full annealer state at a temperature boundary
//! — for every replica, its placement sites and pinmaps, every net's
//! routing record, the RNG stream words, the cooling-schedule cursor, the
//! adaptive cost weights and the dynamics trace; plus the boundary index
//! and the best layout seen so far — as one JSON document (the same
//! [`Json`] value the observability journal uses). A one-replica run
//! stores a one-element replica list.
//! Restoring it and stepping on is bit-identical to never having stopped:
//! timing is *not* stored because [`TimingState::new`] rebuilds it
//! deterministically from placement and routing.
//!
//! Checkpoints are written atomically: the document goes to a `.tmp`
//! sibling first, is fsynced, and is renamed over the real path, so a
//! crash mid-write leaves the previous complete snapshot intact (the
//! loader only ever reads the real path).
//!
//! The header carries a format marker, a version, FNV-1a fingerprints of
//! the architecture and the netlist, and the run seeds, so a resume
//! against the wrong design or configuration fails with a typed
//! [`CheckpointError`] instead of corrupting a run.
//!
//! [`TimingState::new`]: rowfpga_timing::TimingState::new

use std::error::Error;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use rowfpga_anneal::AnnealCursor;
use rowfpga_arch::Architecture;
use rowfpga_netlist::{write_netlist, Netlist};
use rowfpga_obs::Json;
use rowfpga_route::NetRouteSnapshot;

use crate::cost::CostWeights;
use crate::dynamics::{DynamicsSample, DynamicsTrace};

/// The `format` marker every checkpoint document carries.
pub const CHECKPOINT_FORMAT: &str = "rowfpga-checkpoint";

/// The current checkpoint format version (2: one state per replica).
pub const CHECKPOINT_VERSION: u64 = 2;

/// Errors of checkpoint I/O, decoding and validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Reading or writing the file failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error text.
        detail: String,
    },
    /// The file is not valid JSON.
    Parse {
        /// The parser's complaint.
        detail: String,
    },
    /// The document is JSON but not a well-formed checkpoint.
    Format {
        /// What was missing or malformed.
        detail: String,
    },
    /// The checkpoint is from an unsupported format version.
    Version {
        /// The version found in the file.
        found: u64,
    },
    /// The checkpoint was written for a different architecture.
    ArchMismatch {
        /// Fingerprint in the file.
        found: u64,
        /// Fingerprint of the architecture being resumed on.
        expected: u64,
    },
    /// The checkpoint was written for a different netlist.
    NetlistMismatch {
        /// Fingerprint in the file.
        found: u64,
        /// Fingerprint of the netlist being resumed on.
        expected: u64,
    },
    /// The checkpoint was written under different run seeds.
    SeedMismatch {
        /// Which seed disagrees (`placement` or `anneal`).
        which: &'static str,
        /// Seed in the file.
        found: u64,
        /// Seed of the resuming configuration.
        expected: u64,
    },
    /// The checkpoint holds a different number of replicas than the run
    /// anneals.
    Replicas {
        /// Replica states in the file.
        found: usize,
        /// Replicas of the resuming configuration.
        expected: usize,
    },
    /// The decoded state does not reconstruct a legal layout.
    Restore {
        /// What failed to restore.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, detail } => write!(f, "checkpoint io on {path}: {detail}"),
            CheckpointError::Parse { detail } => write!(f, "checkpoint is not JSON: {detail}"),
            CheckpointError::Format { detail } => write!(f, "malformed checkpoint: {detail}"),
            CheckpointError::Version { found } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads {CHECKPOINT_VERSION})"
            ),
            CheckpointError::ArchMismatch { found, expected } => write!(
                f,
                "checkpoint architecture fingerprint {found:#018x} does not match {expected:#018x}"
            ),
            CheckpointError::NetlistMismatch { found, expected } => write!(
                f,
                "checkpoint netlist fingerprint {found:#018x} does not match {expected:#018x}"
            ),
            CheckpointError::SeedMismatch {
                which,
                found,
                expected,
            } => write!(
                f,
                "checkpoint {which} seed {found} does not match configured seed {expected}"
            ),
            CheckpointError::Replicas { found, expected } => write!(
                f,
                "checkpoint holds {found} replica(s) but the run anneals {expected}"
            ),
            CheckpointError::Restore { detail } => write!(f, "checkpoint restore failed: {detail}"),
        }
    }
}

impl Error for CheckpointError {}

/// Injectable checkpoint-write failures, modelling the two crash windows
/// of the atomic write protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteFault {
    /// The process dies mid-write: the temp file holds a truncated
    /// document and the rename never happens.
    ShortWrite,
    /// The process dies after the write but before the rename: the temp
    /// file is complete, the real path still holds the previous snapshot.
    SkipRename,
}

/// FNV-1a 64-bit hash.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of the architecture dimensions a routing snapshot depends
/// on. Two architectures with equal fingerprints index the same site,
/// segment and channel spaces.
pub fn arch_fingerprint(arch: &Architecture) -> u64 {
    let g = arch.geometry();
    let text = format!(
        "rows={} cols={} io_columns={} tracks={} sites={} channels={} hsegs={} vsegs={}",
        g.num_rows(),
        g.num_cols(),
        g.io_columns(),
        arch.tracks_per_channel(),
        g.num_sites(),
        g.num_channels(),
        arch.num_hsegs(),
        arch.num_vsegs(),
    );
    fnv1a64(text.as_bytes())
}

/// Fingerprint of the netlist, taken over its canonical serialized text.
pub fn netlist_fingerprint(netlist: &Netlist) -> u64 {
    fnv1a64(write_netlist(netlist).as_bytes())
}

/// The layout-side state of a checkpoint: everything [`LayoutProblem`]
/// needs to reconstruct itself at a temperature boundary.
///
/// [`LayoutProblem`]: crate::LayoutProblem
#[derive(Clone, Debug, PartialEq)]
pub struct ProblemSnapshot {
    /// Site index per cell (dense, in cell-id order).
    pub sites: Vec<usize>,
    /// Pinmap palette index per cell.
    pub pinmaps: Vec<u16>,
    /// Routing record per net (dense, in net-id order).
    pub routes: Vec<NetRouteSnapshot>,
    /// Current adaptive cost weights.
    pub weights: CostWeights,
    /// Current exchange-window half-width (`usize::MAX` = unlimited).
    pub window: usize,
    /// Dynamics trace accumulated so far.
    pub trace: DynamicsTrace,
}

/// The best layout observed so far, kept as plain data so it survives a
/// checkpoint round trip.
#[derive(Clone, Debug, PartialEq)]
pub struct BestLayout {
    /// Site index per cell.
    pub sites: Vec<usize>,
    /// Pinmap palette index per cell.
    pub pinmaps: Vec<u16>,
    /// Routing record per net.
    pub routes: Vec<NetRouteSnapshot>,
    /// Globally unrouted nets of this layout.
    pub globally_unrouted: usize,
    /// Detail-incomplete nets of this layout.
    pub incomplete: usize,
    /// Incremental worst delay of this layout (ps).
    pub worst_delay: f64,
}

impl BestLayout {
    /// Quality key: fewer incomplete nets first, then fewer globally
    /// unrouted, then lower delay.
    pub fn key(&self) -> (usize, usize, f64) {
        (self.incomplete, self.globally_unrouted, self.worst_delay)
    }
}

/// One complete, versioned snapshot of a layout run.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u64,
    /// [`arch_fingerprint`] of the run's architecture.
    pub arch_fingerprint: u64,
    /// [`netlist_fingerprint`] of the run's netlist.
    pub netlist_fingerprint: u64,
    /// Seed of the initial random placement.
    pub placement_seed: u64,
    /// Seed of the annealing schedule.
    pub anneal_seed: u64,
    /// Repairs performed so far in the run.
    pub repairs: usize,
    /// The temperature boundary the checkpoint was taken at.
    pub temp: usize,
    /// Every replica's state, by replica: its annealing-schedule cursor
    /// (RNG words, temperature, indices) and its layout-side state.
    pub replicas: Vec<(AnnealCursor, ProblemSnapshot)>,
    /// Best layout seen so far, if tracking was active.
    pub best: Option<BestLayout>,
}

// --- JSON helpers ----------------------------------------------------------
//
// u64 values (RNG state words, fingerprints, seeds) are encoded as decimal
// strings: Json::Num is an f64 and cannot represent all 64-bit integers.

fn ju64(v: u64) -> Json {
    Json::Str(v.to_string())
}

fn get<'a>(j: &'a Json, key: &str, what: &str) -> Result<&'a Json, CheckpointError> {
    j.get(key).ok_or_else(|| CheckpointError::Format {
        detail: format!("{what}: missing key '{key}'"),
    })
}

fn get_u64(j: &Json, key: &str, what: &str) -> Result<u64, CheckpointError> {
    let v = get(j, key, what)?;
    match v {
        Json::Str(s) => s.parse::<u64>().map_err(|_| CheckpointError::Format {
            detail: format!("{what}: '{key}' is not a decimal u64"),
        }),
        _ => v.as_u64().ok_or_else(|| CheckpointError::Format {
            detail: format!("{what}: '{key}' is not a u64"),
        }),
    }
}

fn get_usize(j: &Json, key: &str, what: &str) -> Result<usize, CheckpointError> {
    get(j, key, what)?
        .as_u64()
        .map(|v| v as usize)
        .ok_or_else(|| CheckpointError::Format {
            detail: format!("{what}: '{key}' is not an unsigned integer"),
        })
}

fn get_f64(j: &Json, key: &str, what: &str) -> Result<f64, CheckpointError> {
    get(j, key, what)?
        .as_f64()
        .ok_or_else(|| CheckpointError::Format {
            detail: format!("{what}: '{key}' is not a number"),
        })
}

fn get_bool(j: &Json, key: &str, what: &str) -> Result<bool, CheckpointError> {
    get(j, key, what)?
        .as_bool()
        .ok_or_else(|| CheckpointError::Format {
            detail: format!("{what}: '{key}' is not a bool"),
        })
}

fn get_arr<'a>(j: &'a Json, key: &str, what: &str) -> Result<&'a [Json], CheckpointError> {
    get(j, key, what)?
        .as_arr()
        .ok_or_else(|| CheckpointError::Format {
            detail: format!("{what}: '{key}' is not an array"),
        })
}

fn usize_arr(values: &[Json], what: &str) -> Result<Vec<usize>, CheckpointError> {
    values
        .iter()
        .map(|v| {
            v.as_u64()
                .map(|n| n as usize)
                .ok_or_else(|| CheckpointError::Format {
                    detail: format!("{what}: non-integer array element"),
                })
        })
        .collect()
}

fn cursor_to_json(c: &AnnealCursor) -> Json {
    Json::obj(vec![
        (
            "rng_state",
            Json::Arr(c.rng_state.iter().map(|&w| ju64(w)).collect()),
        ),
        ("temperature", c.temperature.into()),
        ("next_index", c.next_index.into()),
        ("stalled", c.stalled.into()),
        ("total_moves", c.total_moves.into()),
        ("best_cost", c.best_cost.into()),
        ("frozen", c.frozen.into()),
    ])
}

fn cursor_from_json(j: &Json) -> Result<AnnealCursor, CheckpointError> {
    let what = "cursor";
    let words = get_arr(j, "rng_state", what)?;
    if words.len() != 4 {
        return Err(CheckpointError::Format {
            detail: "cursor: rng_state must have 4 words".into(),
        });
    }
    let mut rng_state = [0u64; 4];
    for (i, w) in words.iter().enumerate() {
        rng_state[i] = match w {
            Json::Str(s) => s.parse::<u64>().map_err(|_| CheckpointError::Format {
                detail: "cursor: rng_state word is not a decimal u64".into(),
            })?,
            _ => {
                return Err(CheckpointError::Format {
                    detail: "cursor: rng_state word is not a string".into(),
                })
            }
        };
    }
    Ok(AnnealCursor {
        rng_state,
        temperature: get_f64(j, "temperature", what)?,
        next_index: get_usize(j, "next_index", what)?,
        stalled: get_usize(j, "stalled", what)?,
        total_moves: get_usize(j, "total_moves", what)?,
        best_cost: get_f64(j, "best_cost", what)?,
        frozen: get_bool(j, "frozen", what)?,
    })
}

fn route_to_json(r: &NetRouteSnapshot) -> Json {
    Json::obj(vec![
        (
            "vsegs",
            Json::Arr(r.vsegs.iter().map(|&v| v.into()).collect()),
        ),
        (
            "vcol",
            match r.vcol {
                Some(c) => c.into(),
                None => Json::Null,
            },
        ),
        (
            "hsegs",
            Json::Arr(
                r.hsegs
                    .iter()
                    .map(|(chan, segs)| {
                        Json::Arr(vec![
                            (*chan).into(),
                            Json::Arr(segs.iter().map(|&s| s.into()).collect()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "pending",
            Json::Arr(r.pending_channels.iter().map(|&c| c.into()).collect()),
        ),
        (
            "spans",
            Json::Arr(
                r.spans
                    .iter()
                    .map(|&(chan, lo, hi)| {
                        Json::Arr(vec![
                            chan.into(),
                            u64::from(lo).into(),
                            u64::from(hi).into(),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("global", r.globally_routed.into()),
    ])
}

fn route_from_json(j: &Json) -> Result<NetRouteSnapshot, CheckpointError> {
    let what = "route";
    let vcol = match get(j, "vcol", what)? {
        Json::Null => None,
        v => Some(v.as_u64().ok_or_else(|| CheckpointError::Format {
            detail: "route: vcol is not an integer".into(),
        })? as usize),
    };
    let hsegs = get_arr(j, "hsegs", what)?
        .iter()
        .map(|run| {
            let pair =
                run.as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| CheckpointError::Format {
                        detail: "route: hseg run is not a [channel, segs] pair".into(),
                    })?;
            let chan = pair[0].as_u64().ok_or_else(|| CheckpointError::Format {
                detail: "route: hseg channel is not an integer".into(),
            })? as usize;
            let segs = usize_arr(
                pair[1].as_arr().ok_or_else(|| CheckpointError::Format {
                    detail: "route: hseg run segs is not an array".into(),
                })?,
                "route.hsegs",
            )?;
            Ok((chan, segs))
        })
        .collect::<Result<Vec<_>, CheckpointError>>()?;
    let spans = get_arr(j, "spans", what)?
        .iter()
        .map(|span| {
            let trip =
                span.as_arr()
                    .filter(|t| t.len() == 3)
                    .ok_or_else(|| CheckpointError::Format {
                        detail: "route: span is not a [channel, lo, hi] triple".into(),
                    })?;
            let nums = trip
                .iter()
                .map(|v| {
                    v.as_u64().ok_or_else(|| CheckpointError::Format {
                        detail: "route: span element is not an integer".into(),
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok((nums[0] as usize, nums[1] as u32, nums[2] as u32))
        })
        .collect::<Result<Vec<_>, CheckpointError>>()?;
    Ok(NetRouteSnapshot {
        vsegs: usize_arr(get_arr(j, "vsegs", what)?, "route.vsegs")?,
        vcol,
        hsegs,
        pending_channels: usize_arr(get_arr(j, "pending", what)?, "route.pending")?,
        spans,
        globally_routed: get_bool(j, "global", what)?,
    })
}

fn sample_to_json(s: &DynamicsSample) -> Json {
    Json::obj(vec![
        ("index", s.index.into()),
        ("temperature", s.temperature.into()),
        ("cells_perturbed", s.cells_perturbed.into()),
        ("nets_globally_unrouted", s.nets_globally_unrouted.into()),
        ("nets_unrouted", s.nets_unrouted.into()),
        ("worst_delay", s.worst_delay.into()),
        ("cost", s.cost.into()),
    ])
}

fn sample_from_json(j: &Json) -> Result<DynamicsSample, CheckpointError> {
    let what = "dynamics sample";
    Ok(DynamicsSample {
        index: get_usize(j, "index", what)?,
        temperature: get_f64(j, "temperature", what)?,
        cells_perturbed: get_f64(j, "cells_perturbed", what)?,
        nets_globally_unrouted: get_f64(j, "nets_globally_unrouted", what)?,
        nets_unrouted: get_f64(j, "nets_unrouted", what)?,
        worst_delay: get_f64(j, "worst_delay", what)?,
        cost: get_f64(j, "cost", what)?,
    })
}

fn pinmap_arr(values: &[Json], what: &str) -> Result<Vec<u16>, CheckpointError> {
    values
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| u16::try_from(n).ok())
                .ok_or_else(|| CheckpointError::Format {
                    detail: format!("{what}: pinmap out of u16 range"),
                })
        })
        .collect()
}

/// Serializes one layout triple as `(sites, pinmaps, routes)` JSON arrays.
fn layout_fields(
    sites: &[usize],
    pinmaps: &[u16],
    routes: &[NetRouteSnapshot],
) -> (Json, Json, Json) {
    (
        Json::Arr(sites.iter().map(|&s| s.into()).collect()),
        Json::Arr(pinmaps.iter().map(|&p| u64::from(p).into()).collect()),
        Json::Arr(routes.iter().map(route_to_json).collect()),
    )
}

fn replica_to_json((cursor, p): &(AnnealCursor, ProblemSnapshot)) -> Json {
    let (sites, pinmaps, routes) = layout_fields(&p.sites, &p.pinmaps, &p.routes);
    Json::obj(vec![
        ("cursor", cursor_to_json(cursor)),
        (
            "weights",
            Json::obj(vec![
                ("wg", p.weights.wg.into()),
                ("wd", p.weights.wd.into()),
                ("wt", p.weights.wt.into()),
            ]),
        ),
        (
            "window",
            if p.window == usize::MAX {
                Json::Null
            } else {
                p.window.into()
            },
        ),
        ("sites", sites),
        ("pinmaps", pinmaps),
        ("routes", routes),
        (
            "trace",
            Json::Arr(p.trace.samples().iter().map(sample_to_json).collect()),
        ),
    ])
}

fn replica_from_json(j: &Json) -> Result<(AnnealCursor, ProblemSnapshot), CheckpointError> {
    let what = "replica";
    let weights_j = get(j, "weights", what)?;
    let weights = CostWeights {
        wg: get_f64(weights_j, "wg", "weights")?,
        wd: get_f64(weights_j, "wd", "weights")?,
        wt: get_f64(weights_j, "wt", "weights")?,
    };
    let window = match get(j, "window", what)? {
        Json::Null => usize::MAX,
        v => v.as_u64().ok_or_else(|| CheckpointError::Format {
            detail: "window is not an integer or null".into(),
        })? as usize,
    };
    let mut trace = DynamicsTrace::new();
    for s in get_arr(j, "trace", what)? {
        trace.push(sample_from_json(s)?);
    }
    let routes = get_arr(j, "routes", what)?
        .iter()
        .map(route_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((
        cursor_from_json(get(j, "cursor", what)?)?,
        ProblemSnapshot {
            sites: usize_arr(get_arr(j, "sites", what)?, "sites")?,
            pinmaps: pinmap_arr(get_arr(j, "pinmaps", what)?, "pinmaps")?,
            routes,
            weights,
            window,
            trace,
        },
    ))
}

impl Checkpoint {
    /// Serializes the checkpoint as one JSON document.
    pub fn to_json(&self) -> Json {
        let best = match &self.best {
            None => Json::Null,
            Some(b) => {
                let (sites, pinmaps, routes) = layout_fields(&b.sites, &b.pinmaps, &b.routes);
                Json::obj(vec![
                    ("sites", sites),
                    ("pinmaps", pinmaps),
                    ("routes", routes),
                    ("globally_unrouted", b.globally_unrouted.into()),
                    ("incomplete", b.incomplete.into()),
                    ("worst_delay", b.worst_delay.into()),
                ])
            }
        };
        Json::obj(vec![
            ("format", CHECKPOINT_FORMAT.into()),
            ("version", self.version.into()),
            ("arch_fingerprint", ju64(self.arch_fingerprint)),
            ("netlist_fingerprint", ju64(self.netlist_fingerprint)),
            ("placement_seed", ju64(self.placement_seed)),
            ("anneal_seed", ju64(self.anneal_seed)),
            ("repairs", self.repairs.into()),
            ("temp", self.temp.into()),
            (
                "replicas",
                Json::Arr(self.replicas.iter().map(replica_to_json).collect()),
            ),
            ("best", best),
        ])
    }

    /// Decodes a checkpoint document.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Format`] on any missing or mistyped
    /// field and [`CheckpointError::Version`] on an unsupported version.
    pub fn from_json(j: &Json) -> Result<Checkpoint, CheckpointError> {
        let what = "checkpoint";
        match get(j, "format", what)?.as_str() {
            Some(CHECKPOINT_FORMAT) => {}
            _ => {
                return Err(CheckpointError::Format {
                    detail: format!("not a {CHECKPOINT_FORMAT} document"),
                })
            }
        }
        let version = get_u64(j, "version", what)?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version { found: version });
        }
        let best = match get(j, "best", what)? {
            Json::Null => None,
            b => Some(BestLayout {
                sites: usize_arr(get_arr(b, "sites", "best")?, "best.sites")?,
                pinmaps: pinmap_arr(get_arr(b, "pinmaps", "best")?, "best.pinmaps")?,
                routes: get_arr(b, "routes", "best")?
                    .iter()
                    .map(route_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
                globally_unrouted: get_usize(b, "globally_unrouted", "best")?,
                incomplete: get_usize(b, "incomplete", "best")?,
                worst_delay: get_f64(b, "worst_delay", "best")?,
            }),
        };
        Ok(Checkpoint {
            version,
            arch_fingerprint: get_u64(j, "arch_fingerprint", what)?,
            netlist_fingerprint: get_u64(j, "netlist_fingerprint", what)?,
            placement_seed: get_u64(j, "placement_seed", what)?,
            anneal_seed: get_u64(j, "anneal_seed", what)?,
            repairs: get_usize(j, "repairs", what)?,
            temp: get_usize(j, "temp", what)?,
            replicas: get_arr(j, "replicas", what)?
                .iter()
                .map(replica_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            best,
        })
    }

    /// Checks the header against the design, seeds and replica count of
    /// the resuming run.
    ///
    /// # Errors
    ///
    /// Returns the first mismatch: architecture, netlist, either seed, or
    /// the replica count.
    pub fn validate(
        &self,
        arch: &Architecture,
        netlist: &Netlist,
        placement_seed: u64,
        anneal_seed: u64,
        replicas: usize,
    ) -> Result<(), CheckpointError> {
        let expected = arch_fingerprint(arch);
        if self.arch_fingerprint != expected {
            return Err(CheckpointError::ArchMismatch {
                found: self.arch_fingerprint,
                expected,
            });
        }
        let expected = netlist_fingerprint(netlist);
        if self.netlist_fingerprint != expected {
            return Err(CheckpointError::NetlistMismatch {
                found: self.netlist_fingerprint,
                expected,
            });
        }
        if self.placement_seed != placement_seed {
            return Err(CheckpointError::SeedMismatch {
                which: "placement",
                found: self.placement_seed,
                expected: placement_seed,
            });
        }
        if self.anneal_seed != anneal_seed {
            return Err(CheckpointError::SeedMismatch {
                which: "anneal",
                found: self.anneal_seed,
                expected: anneal_seed,
            });
        }
        if self.replicas.len() != replicas {
            return Err(CheckpointError::Replicas {
                found: self.replicas.len(),
                expected: replicas,
            });
        }
        Ok(())
    }

    /// Writes the checkpoint atomically: serialize to `<path>.tmp`, fsync,
    /// rename over `path`. A crash at any point leaves either the previous
    /// complete snapshot or the new one at `path` — never a torn file.
    ///
    /// `fault` injects one of the crash windows (for the resilience test
    /// suite): the write returns an error and `path` is left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when any filesystem step fails.
    pub fn save(&self, path: &Path, fault: Option<WriteFault>) -> Result<(), CheckpointError> {
        let text = self.to_json().to_string_compact();
        write_atomic(path, &text, fault)
    }

    /// Reads and decodes a checkpoint. Only the real path is consulted —
    /// a leftover `.tmp` sibling from an interrupted write is ignored, so
    /// the last complete snapshot wins.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when the file cannot be read and
    /// [`CheckpointError::Parse`]/[`CheckpointError::Format`] when it does
    /// not decode.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let text = fs::read_to_string(path).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        let doc = rowfpga_obs::json::parse(&text).map_err(|e| CheckpointError::Parse {
            detail: e.to_string(),
        })?;
        Checkpoint::from_json(&doc)
    }
}

/// The temp-file sibling used by the atomic write.
pub fn temp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn io_err(path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

fn write_atomic(path: &Path, text: &str, fault: Option<WriteFault>) -> Result<(), CheckpointError> {
    let tmp = temp_path(path);
    let mut file = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    let bytes = text.as_bytes();
    match fault {
        Some(WriteFault::ShortWrite) => {
            file.write_all(&bytes[..bytes.len() / 2])
                .map_err(|e| io_err(&tmp, e))?;
            let _ = file.sync_all();
            return Err(CheckpointError::Io {
                path: tmp.display().to_string(),
                detail: "injected crash mid-write (temp file truncated, no rename)".into(),
            });
        }
        Some(WriteFault::SkipRename) | None => {
            file.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
            file.write_all(b"\n").map_err(|e| io_err(&tmp, e))?;
            file.sync_all().map_err(|e| io_err(&tmp, e))?;
            drop(file);
            if fault == Some(WriteFault::SkipRename) {
                return Err(CheckpointError::Io {
                    path: tmp.display().to_string(),
                    detail: "injected crash before rename (temp file complete, no rename)".into(),
                });
            }
        }
    }
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

// --- Retention generations -------------------------------------------------
//
// Long daemon runs checkpoint thousands of times; keeping every snapshot
// grows disk without bound, keeping only the latest loses the safety net
// against a corrupt newest file. Retention keeps the newest `keep`
// snapshots as sortable generation siblings of the base path
// (`ckpt.json.g00000042` for temperature 42) while the base path itself
// always names the newest complete snapshot, so every pre-retention
// consumer of the base path keeps working unchanged.

/// Generation sibling of `base` for the snapshot taken after `temp`
/// completed temperatures: `<base>.gNNNNNNNN`, zero-padded so
/// lexicographic and numeric order agree.
pub fn generation_path(base: &Path, temp: usize) -> std::path::PathBuf {
    let mut name = base.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".g{temp:08}"));
    base.with_file_name(name)
}

/// The generation files of `base` present on disk, oldest first.
pub fn list_generations(base: &Path) -> Vec<(usize, std::path::PathBuf)> {
    let Some(name) = base.file_name().and_then(|n| n.to_str()) else {
        return Vec::new();
    };
    let prefix = format!("{name}.g");
    let dir = match base.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(&dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let file_name = entry.file_name();
        let Some(file_name) = file_name.to_str() else {
            continue;
        };
        let Some(digits) = file_name.strip_prefix(prefix.as_str()) else {
            continue;
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let Ok(temp) = digits.parse::<usize>() else {
            continue;
        };
        out.push((temp, entry.path()));
    }
    out.sort_unstable();
    out
}

/// Quick structural probe of a snapshot file: the format marker near the
/// head and a closing brace at the tail. Cheaper than a full parse, which
/// is what retention GC wants when deciding whether a survivor exists.
pub fn probe_snapshot(path: &Path) -> bool {
    let Ok(text) = fs::read_to_string(path) else {
        return false;
    };
    let head_len = text.char_indices().nth(256).map_or(text.len(), |(i, _)| i);
    text[..head_len].contains(CHECKPOINT_FORMAT) && text.trim_end().ends_with('}')
}

/// Deletes the oldest generation files of `base` until at most
/// `keep.max(1)` remain. Refuses to delete the only valid snapshot: when
/// neither `base` nor any retained generation probes as valid, the newest
/// valid eviction candidate is spared. Returns the number of files
/// deleted; failures to delete are ignored (GC is best-effort).
pub fn gc_generations(base: &Path, keep: usize) -> usize {
    let keep = keep.max(1);
    let gens = list_generations(base);
    if gens.len() <= keep {
        return 0;
    }
    let (evict, retain) = gens.split_at(gens.len() - keep);
    let survivor_valid = probe_snapshot(base) || retain.iter().any(|(_, p)| probe_snapshot(p));
    let spared: Option<&Path> = if survivor_valid {
        None
    } else {
        evict
            .iter()
            .rev()
            .find(|(_, p)| probe_snapshot(p))
            .map(|(_, p)| p.as_path())
    };
    let mut deleted = 0;
    for (_, path) in evict {
        if Some(path.as_path()) == spared {
            continue;
        }
        if fs::remove_file(path).is_ok() {
            deleted += 1;
        }
    }
    deleted
}

/// Loads the newest generation of `base` that decodes, quarantining
/// corrupt generations along the way (renamed to a `.corrupt` sibling so
/// they are never retried). Returns `None` when no generation decodes.
pub fn load_newest_generation(base: &Path) -> Option<(Checkpoint, std::path::PathBuf)> {
    for (_, path) in list_generations(base).into_iter().rev() {
        match Checkpoint::load(&path) {
            Ok(ck) => return Some((ck, path)),
            Err(_) => {
                let mut name = path.file_name().unwrap_or_default().to_os_string();
                name.push(".corrupt");
                let _ = fs::rename(&path, path.with_file_name(name));
            }
        }
    }
    None
}

/// Repoints `base` at the freshly written generation file without a
/// second serialization: hard-link the generation onto the temp sibling
/// and rename it over `base`, falling back to an independent atomic write
/// on filesystems without hard links.
fn promote(generation: &Path, base: &Path, text: &str) -> Result<(), CheckpointError> {
    let tmp = temp_path(base);
    let _ = fs::remove_file(&tmp);
    if fs::hard_link(generation, &tmp).is_ok() {
        fs::rename(&tmp, base).map_err(|e| io_err(base, e))
    } else {
        write_atomic(base, text, None)
    }
}

impl Checkpoint {
    /// Writes the checkpoint as a retention generation: the document goes
    /// to [`generation_path`]`(base, temp)` atomically, `base` is
    /// repointed at the fresh document (so `base` always names the newest
    /// complete snapshot), and generations beyond `keep` are
    /// garbage-collected oldest-first.
    ///
    /// `fault` injects a crash window into the generation write; neither
    /// `base` nor any existing generation is touched when it fires.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when a filesystem step fails.
    pub fn save_generation(
        &self,
        base: &Path,
        temp: usize,
        keep: usize,
        fault: Option<WriteFault>,
    ) -> Result<(), CheckpointError> {
        let text = self.to_json().to_string_compact();
        let generation = generation_path(base, temp);
        write_atomic(&generation, &text, fault)?;
        promote(&generation, base, &text)?;
        gc_generations(base, keep);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_replica(seed: u64) -> (AnnealCursor, ProblemSnapshot) {
        (
            AnnealCursor {
                rng_state: [u64::MAX, seed, 0x8000_0000_0000_0001, 42],
                temperature: 3.25,
                next_index: 11,
                stalled: 1,
                total_moves: 12_345,
                best_cost: 98.765,
                frozen: false,
            },
            ProblemSnapshot {
                sites: vec![3, 1, 4, 1, 5],
                pinmaps: vec![0, 2, 0, 1, 7],
                routes: vec![
                    NetRouteSnapshot {
                        vsegs: vec![9, 2],
                        vcol: Some(4),
                        hsegs: vec![(0, vec![5, 6]), (3, vec![1])],
                        pending_channels: vec![2],
                        spans: vec![(0, 1, 7), (3, 2, 4), (2, 0, 3)],
                        globally_routed: true,
                    },
                    NetRouteSnapshot::default(),
                ],
                weights: CostWeights {
                    wg: 1.5,
                    wd: 1.0,
                    wt: 0.0123,
                },
                window: usize::MAX,
                trace: {
                    let mut t = DynamicsTrace::new();
                    t.push(DynamicsSample {
                        index: 0,
                        temperature: 10.5,
                        cells_perturbed: 0.75,
                        nets_globally_unrouted: 0.25,
                        nets_unrouted: 0.5,
                        worst_delay: 12_500.0,
                        cost: 200.25,
                    });
                    t
                },
            },
        )
    }

    /// A two-replica checkpoint whose replicas differ.
    fn sample_checkpoint() -> Checkpoint {
        let (mut cursor, mut problem) = sample_replica(2);
        problem.sites = vec![1, 3, 4, 0, 5];
        problem.window = 17;
        cursor.frozen = true;
        Checkpoint {
            version: CHECKPOINT_VERSION,
            arch_fingerprint: u64::MAX - 3,
            netlist_fingerprint: 0x1234_5678_9abc_def0,
            placement_seed: 7,
            anneal_seed: u64::MAX,
            repairs: 2,
            temp: 11,
            replicas: vec![sample_replica(1), (cursor, problem)],
            best: Some(BestLayout {
                sites: vec![1, 3, 4, 0, 5],
                pinmaps: vec![0, 0, 0, 0, 0],
                routes: vec![NetRouteSnapshot::default(), NetRouteSnapshot::default()],
                globally_unrouted: 0,
                incomplete: 1,
                worst_delay: 11_000.5,
            }),
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let ck = sample_checkpoint();
        let text = ck.to_json().to_string_compact();
        let back = Checkpoint::from_json(&rowfpga_obs::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, ck);

        // a single replica and no best layout survive too
        let mut ck2 = ck;
        ck2.replicas.truncate(1);
        ck2.best = None;
        let text = ck2.to_json().to_string_compact();
        let back = Checkpoint::from_json(&rowfpga_obs::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, ck2);
    }

    #[test]
    fn version_one_documents_fail_to_load() {
        // The single-replica layout: one top-level cursor and layout.
        let path = std::env::temp_dir().join("rowfpga_ckpt_version_one.json");
        fs::write(
            &path,
            r#"{"format":"rowfpga-checkpoint","version":1,"repairs":0,"cursor":{},"sites":[],"pinmaps":[],"routes":[],"trace":[],"best":null}"#,
        )
        .unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        let _ = fs::remove_file(&path);
        assert_eq!(err, CheckpointError::Version { found: 1 });
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let ck = sample_checkpoint();
        let path = std::env::temp_dir().join("rowfpga_ckpt_roundtrip.json");
        ck.save(&path, None).unwrap();
        assert!(!temp_path(&path).exists(), "temp file must be renamed away");
        let back = Checkpoint::load(&path).unwrap();
        let _ = fs::remove_file(&path);
        assert_eq!(back, ck);
    }

    #[test]
    fn short_write_crash_window_keeps_the_previous_snapshot() {
        let path = std::env::temp_dir().join("rowfpga_ckpt_shortwrite.json");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(temp_path(&path));
        let mut ck = sample_checkpoint();
        ck.save(&path, None).unwrap();

        // A later write dies mid-stream: temp file present and truncated,
        // real path still holds the first snapshot.
        ck.repairs = 99;
        let err = ck.save(&path, Some(WriteFault::ShortWrite)).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }));
        assert!(temp_path(&path).exists(), "truncated temp file remains");
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.repairs, sample_checkpoint().repairs);

        // The loader never looks at the temp file, and the torn temp file
        // is not even parseable JSON.
        let torn = fs::read_to_string(temp_path(&path)).unwrap();
        assert!(rowfpga_obs::json::parse(&torn).is_err());
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(temp_path(&path));
    }

    #[test]
    fn skipped_rename_crash_window_keeps_the_previous_snapshot() {
        let path = std::env::temp_dir().join("rowfpga_ckpt_norename.json");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(temp_path(&path));
        let mut ck = sample_checkpoint();
        ck.save(&path, None).unwrap();

        ck.repairs = 42;
        let err = ck.save(&path, Some(WriteFault::SkipRename)).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }));
        // The temp file is a complete document — the crash hit between
        // write and rename — but the real path wins on load.
        let tmp_text = fs::read_to_string(temp_path(&path)).unwrap();
        assert!(rowfpga_obs::json::parse(&tmp_text).is_ok());
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.repairs, sample_checkpoint().repairs);
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(temp_path(&path));
    }

    #[test]
    fn validation_rejects_wrong_design_and_seeds() {
        use rowfpga_netlist::{generate, GenerateConfig};
        let nl = generate(&GenerateConfig {
            num_cells: 30,
            num_inputs: 4,
            num_outputs: 4,
            num_seq: 2,
            ..GenerateConfig::default()
        });
        let other_nl = generate(&GenerateConfig {
            num_cells: 31,
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
        let other_arch = arch.with_tracks(13).unwrap();

        let mut ck = sample_checkpoint();
        ck.arch_fingerprint = arch_fingerprint(&arch);
        ck.netlist_fingerprint = netlist_fingerprint(&nl);
        ck.placement_seed = 5;
        ck.anneal_seed = 6;

        ck.validate(&arch, &nl, 5, 6, 2).unwrap();
        assert!(matches!(
            ck.validate(&other_arch, &nl, 5, 6, 2),
            Err(CheckpointError::ArchMismatch { .. })
        ));
        assert!(matches!(
            ck.validate(&arch, &other_nl, 5, 6, 2),
            Err(CheckpointError::NetlistMismatch { .. })
        ));
        assert!(matches!(
            ck.validate(&arch, &nl, 9, 6, 2),
            Err(CheckpointError::SeedMismatch {
                which: "placement",
                ..
            })
        ));
        assert!(matches!(
            ck.validate(&arch, &nl, 5, 9, 2),
            Err(CheckpointError::SeedMismatch {
                which: "anneal",
                ..
            })
        ));
        assert_eq!(
            ck.validate(&arch, &nl, 5, 6, 1),
            Err(CheckpointError::Replicas {
                found: 2,
                expected: 1
            })
        );
    }

    #[test]
    fn version_and_format_gates_reject_foreign_documents() {
        let ck = sample_checkpoint();
        let mut doc = ck.to_json();
        // a version-1 (single-replica) document is refused by version
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "version" {
                    *v = Json::Num(1.0);
                }
            }
        }
        assert!(matches!(
            Checkpoint::from_json(&doc),
            Err(CheckpointError::Version { found: 1 })
        ));
        let not_ours = Json::obj(vec![("format", "something-else".into())]);
        assert!(matches!(
            Checkpoint::from_json(&not_ours),
            Err(CheckpointError::Format { .. })
        ));
    }

    #[test]
    fn fingerprints_separate_designs_and_architectures() {
        use rowfpga_netlist::{generate, GenerateConfig};
        let a = generate(&GenerateConfig {
            num_cells: 30,
            num_inputs: 4,
            num_outputs: 4,
            num_seq: 2,
            ..GenerateConfig::default()
        });
        let b = generate(&GenerateConfig {
            num_cells: 30,
            num_inputs: 4,
            num_outputs: 4,
            num_seq: 2,
            seed: 99,
            ..GenerateConfig::default()
        });
        assert_eq!(netlist_fingerprint(&a), netlist_fingerprint(&a));
        assert_ne!(netlist_fingerprint(&a), netlist_fingerprint(&b));

        let arch = Architecture::builder()
            .rows(4)
            .cols(10)
            .io_columns(1)
            .tracks_per_channel(12)
            .build()
            .unwrap();
        assert_eq!(arch_fingerprint(&arch), arch_fingerprint(&arch));
        assert_ne!(
            arch_fingerprint(&arch),
            arch_fingerprint(&arch.with_tracks(13).unwrap())
        );
    }

    fn retention_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rowfpga-ret-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn generation_paths_sort_with_temperature() {
        let base = Path::new("/spool/job/ckpt.json");
        let g5 = generation_path(base, 5);
        let g40 = generation_path(base, 40);
        assert_eq!(
            g5.file_name().unwrap().to_str().unwrap(),
            "ckpt.json.g00000005"
        );
        assert!(g5.to_str() < g40.to_str(), "zero padding keeps order");
    }

    #[test]
    fn save_generation_promotes_base_and_gcs_oldest() {
        let dir = retention_dir("gc");
        let base = dir.join("ckpt.json");
        let mut ck = sample_checkpoint();
        for temp in 1..=5 {
            ck.repairs = temp;
            ck.save_generation(&base, temp, 2, None).unwrap();
        }
        let gens = list_generations(&base);
        assert_eq!(
            gens.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![4, 5],
            "keep=2 retains the two newest generations"
        );
        // The base path always holds the newest snapshot.
        assert_eq!(Checkpoint::load(&base).unwrap().repairs, 5);
        assert_eq!(Checkpoint::load(&gens[1].1).unwrap().repairs, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_refuses_to_delete_the_only_valid_snapshot() {
        let dir = retention_dir("guard");
        let base = dir.join("ckpt.json");
        let ck = sample_checkpoint();
        // One valid old generation; base and the newer generations are
        // corrupt (torn tails).
        ck.save(&generation_path(&base, 1), None).unwrap();
        for temp in [2usize, 3, 4] {
            fs::write(
                generation_path(&base, temp),
                "{\"format\":\"rowfpga-checkpoint\"",
            )
            .unwrap();
        }
        fs::write(&base, "{\"format\":\"rowfpga-checkpoint\"").unwrap();
        let deleted = gc_generations(&base, 2);
        let gens = list_generations(&base);
        assert_eq!(deleted, 1, "only the corrupt evictable generation goes");
        assert_eq!(
            gens.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![1, 3, 4],
            "the only valid snapshot (g1) is spared: {gens:?}"
        );
        assert!(probe_snapshot(&gens[0].1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_newest_generation_quarantines_corrupt_files() {
        let dir = retention_dir("quarantine");
        let base = dir.join("ckpt.json");
        let mut ck = sample_checkpoint();
        ck.repairs = 7;
        ck.save(&generation_path(&base, 3), None).unwrap();
        // A newer but torn generation must be skipped and quarantined.
        fs::write(
            generation_path(&base, 9),
            "{\"format\":\"rowfpga-checkpoint\"",
        )
        .unwrap();
        let (loaded, source) = load_newest_generation(&base).unwrap();
        assert_eq!(loaded.repairs, 7);
        assert_eq!(source, generation_path(&base, 3));
        assert!(!generation_path(&base, 9).exists());
        let corrupt = generation_path(&base, 9).with_file_name("ckpt.json.g00000009.corrupt");
        assert!(
            corrupt.exists(),
            "torn generation is quarantined, not deleted"
        );
        assert!(load_newest_generation(&base).is_some());
        let _ = fs::remove_dir_all(&dir);
    }
}
