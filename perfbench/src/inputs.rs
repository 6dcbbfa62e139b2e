//! The pinned inputs: netlists, chips, annealing schedules and the
//! manifest that fixes them.
//!
//! Every file a workload reads is listed in `MANIFEST` with the FNV-1a
//! digest of its bytes. Netlists also carry the `netlist_fingerprint` of
//! what they parse into, and chips the `arch_fingerprint` plus a digest of
//! every generated segment, because an `actel N` segmentation is
//! regenerated from its seed by library code. Loading refuses a workload
//! on any mismatch. Edits to the netlist generator, the chip sizing or the
//! library's default schedules leave the pinned files, and so the measured
//! work, unchanged. An edit that changes what a pinned file builds into
//! (a parser or the seeded segmentation generator) changes a fingerprint,
//! and the benchmark refuses to run rather than report it as a change in
//! speed.
//!
//! [`pin_inputs`] regenerates the files from the library (the way they
//! were first made); running it rewrites the manifest, which is a change
//! to the benchmark and belongs in a change of its own.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use rowfpga_anneal::AnnealConfig;
use rowfpga_arch::{parse_architecture, write_architecture, Architecture};
use rowfpga_baseline::{PlacerConfig, SeqPrConfig};
use rowfpga_core::{
    arch_fingerprint, netlist_fingerprint, size_architecture, CostConfig, SimPrConfig, SizingConfig,
};
use rowfpga_netlist::{
    generate, paper_preset, parse_netlist, write_netlist, Netlist, PaperBenchmark,
};
use rowfpga_place::MoveWeights;
use rowfpga_route::RouterConfig;

use crate::BenchError;

/// Where the pinned inputs live, relative to the repository root.
pub const DEFAULT_DIR: &str = "perfbench/inputs";

const MANIFEST: &str = "MANIFEST";
const SCHEDULES: &str = "schedules.txt";

/// One workload: which designs on which chips under which schedule.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Workload name (as passed to `--workload`).
    pub name: &'static str,
    /// Section of `schedules.txt` to run under.
    pub schedule: &'static str,
    /// `(design, netlist file, chip file)` triples, in run order.
    pub designs: &'static [(&'static str, &'static str, &'static str)],
}

/// The benchmark's workloads.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "table1-sim",
        schedule: "sim-fast",
        designs: &[
            ("s1", "netlists/s1.net", "arches/s1-t36.arch"),
            ("cse", "netlists/cse.net", "arches/cse-t36.arch"),
            ("ex1", "netlists/ex1.net", "arches/ex1-t36.arch"),
            ("bw", "netlists/bw.net", "arches/bw-t36.arch"),
            ("s1a", "netlists/s1a.net", "arches/s1a-t36.arch"),
        ],
    },
    WorkloadSpec {
        name: "table2-sim",
        schedule: "sim-fast",
        designs: &[
            ("s1", "netlists/s1.net", "arches/s1-t20.arch"),
            ("cse", "netlists/cse.net", "arches/cse-t19.arch"),
            ("bw", "netlists/bw.net", "arches/bw-t18.arch"),
        ],
    },
    WorkloadSpec {
        name: "fig7-sim",
        schedule: "fig7-quarter",
        designs: &[("big529", "netlists/big529.net", "arches/big529-t52.arch")],
    },
    WorkloadSpec {
        name: "seq-baseline",
        schedule: "seq-default",
        designs: &[
            ("s1", "netlists/s1.net", "arches/s1-t36.arch"),
            ("cse", "netlists/cse.net", "arches/cse-t36.arch"),
            ("ex1", "netlists/ex1.net", "arches/ex1-t36.arch"),
            ("bw", "netlists/bw.net", "arches/bw-t36.arch"),
            ("s1a", "netlists/s1a.net", "arches/s1a-t36.arch"),
            ("big529", "netlists/big529.net", "arches/big529-t52.arch"),
        ],
    },
];

/// Which flow a schedule drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowKind {
    /// `SimultaneousPlaceRoute`.
    Simultaneous,
    /// `SequentialPlaceRoute`.
    Sequential,
}

/// Keys every schedule carries.
const ANNEAL_KEYS: &[&str] = &[
    "moves_factor",
    "warmup_moves",
    "initial_acceptance",
    "lambda",
    "max_decrement",
    "stall_temps",
    "min_acceptance",
    "max_temps",
    "anneal_seed_offset",
    "wastage_weight",
    "segment_weight",
    "max_vchain",
    "exchange_weight",
    "pinmap_weight",
];
/// Keys only the simultaneous flow reads.
const SIM_KEYS: &[&str] = &[
    "final_repair_passes",
    "cleanup_moves",
    "global_emphasis",
    "detail_emphasis",
    "timing_emphasis",
];
/// Keys only the sequential flow reads.
const SEQ_KEYS: &[&str] = &[
    "route_passes",
    "congestion_weight",
    "timing_factor",
    "vertical_weight",
];

/// A pinned annealing schedule and flow configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Section name.
    pub name: String,
    /// The flow it configures.
    pub flow: FlowKind,
    values: BTreeMap<String, f64>,
}

impl Schedule {
    fn get(&self, key: &str) -> f64 {
        // Presence of every key was checked when the section was parsed.
        self.values.get(key).copied().unwrap_or_default()
    }

    fn count(&self, key: &str) -> usize {
        self.get(key) as usize
    }

    /// Moves per temperature for a design of `cells` cells:
    /// `ceil(cells^(4/3) · moves_factor)`, at least 32 — the engine's
    /// automatic budget scaled by the schedule's factor.
    pub fn moves_per_temp(&self, cells: usize) -> usize {
        ((cells as f64).powf(4.0 / 3.0) * self.get("moves_factor"))
            .ceil()
            .max(32.0) as usize
    }

    fn anneal(&self, cells: usize, seed: u64) -> AnnealConfig {
        AnnealConfig {
            moves_per_temp: self.moves_per_temp(cells),
            warmup_moves: self.count("warmup_moves"),
            initial_acceptance: self.get("initial_acceptance"),
            lambda: self.get("lambda"),
            max_decrement: self.get("max_decrement"),
            stall_temps: self.count("stall_temps"),
            min_acceptance: self.get("min_acceptance"),
            max_temps: self.count("max_temps"),
            seed: seed.wrapping_add(self.get("anneal_seed_offset") as u64),
        }
    }

    fn router(&self) -> RouterConfig {
        RouterConfig {
            wastage_weight: self.get("wastage_weight"),
            segment_weight: self.get("segment_weight"),
            max_vchain: self.count("max_vchain"),
        }
    }

    fn move_weights(&self) -> MoveWeights {
        MoveWeights {
            exchange: self.get("exchange_weight"),
            pinmap: self.get("pinmap_weight"),
        }
    }

    /// The simultaneous-flow configuration for a design of `cells` cells
    /// at layout seed `seed` (placement seed `seed`, annealing seed
    /// `seed + anneal_seed_offset`), one replica, no resilience layer.
    pub fn sim_config(&self, cells: usize, seed: u64) -> SimPrConfig {
        SimPrConfig {
            router: self.router(),
            anneal: self.anneal(cells, seed),
            cost: CostConfig {
                global_emphasis: self.get("global_emphasis"),
                detail_emphasis: self.get("detail_emphasis"),
                timing_emphasis: self.get("timing_emphasis"),
            },
            move_weights: self.move_weights(),
            placement_seed: seed,
            final_repair_passes: self.count("final_repair_passes"),
            cleanup_moves: self.count("cleanup_moves"),
            threads: 1,
            ..SimPrConfig::default()
        }
    }

    /// The sequential-flow configuration for a design of `cells` cells at
    /// layout seed `seed`.
    pub fn seq_config(&self, cells: usize, seed: u64) -> SeqPrConfig {
        SeqPrConfig {
            placer: PlacerConfig {
                congestion_weight: self.get("congestion_weight"),
                timing_factor: self.get("timing_factor"),
                vertical_weight: self.get("vertical_weight"),
            },
            anneal: self.anneal(cells, seed),
            router: self.router(),
            move_weights: self.move_weights(),
            placement_seed: seed,
            route_passes: self.count("route_passes"),
        }
    }
}

/// Parses one `[section]` of a schedules file.
///
/// # Errors
///
/// Returns [`BenchError::Input`] when the section is missing, a line is
/// malformed, or a key is missing, unknown or repeated.
pub fn parse_schedule(text: &str, name: &str) -> Result<Schedule, BenchError> {
    let bad = |msg: String| BenchError::Input(format!("{SCHEDULES} [{name}]: {msg}"));
    let mut in_section = false;
    let mut found = false;
    let mut flow = None;
    let mut values = BTreeMap::new();
    for (no, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(section) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            in_section = section == name;
            found |= in_section;
            continue;
        }
        if !in_section {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(key), Some(value), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(bad(format!("line {}: expected `key value`", no + 1)));
        };
        if key == "flow" {
            flow = Some(match value {
                "simultaneous" => FlowKind::Simultaneous,
                "sequential" => FlowKind::Sequential,
                other => return Err(bad(format!("unknown flow `{other}`"))),
            });
            continue;
        }
        let v: f64 = value
            .parse()
            .map_err(|_| bad(format!("line {}: `{value}` is not a number", no + 1)))?;
        if values.insert(key.to_string(), v).is_some() {
            return Err(bad(format!("key `{key}` repeated")));
        }
    }
    if !found {
        return Err(bad("section missing".into()));
    }
    let flow = flow.ok_or_else(|| bad("no `flow` line".into()))?;
    let extra = match flow {
        FlowKind::Simultaneous => SIM_KEYS,
        FlowKind::Sequential => SEQ_KEYS,
    };
    for key in ANNEAL_KEYS.iter().chain(extra) {
        if !values.contains_key(*key) {
            return Err(bad(format!("key `{key}` missing")));
        }
    }
    if let Some(key) = values
        .keys()
        .find(|k| !ANNEAL_KEYS.contains(&k.as_str()) && !extra.contains(&k.as_str()))
    {
        return Err(bad(format!("unknown key `{key}`")));
    }
    Ok(Schedule {
        name: name.to_string(),
        flow,
        values,
    })
}

/// One design of a workload, parsed from its pinned files.
#[derive(Clone, Debug)]
pub struct Design {
    /// Design name.
    pub name: String,
    /// The netlist file's text (parsed again by the set-up measurement).
    pub netlist_text: String,
    /// The chip file's text.
    pub arch_text: String,
    /// The parsed netlist.
    pub netlist: Netlist,
    /// The parsed chip.
    pub arch: Architecture,
}

impl Design {
    /// Parses a design from netlist and chip text.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Input`] if either text does not parse.
    pub fn from_texts(
        name: &str,
        netlist_text: String,
        arch_text: String,
    ) -> Result<Design, BenchError> {
        let netlist = parse_netlist(&netlist_text)
            .map_err(|e| BenchError::Input(format!("{name} netlist: {e}")))?;
        let arch = parse_architecture(&arch_text)
            .map_err(|e| BenchError::Input(format!("{name} chip: {e}")))?;
        Ok(Design {
            name: name.to_string(),
            netlist_text,
            arch_text,
            netlist,
            arch,
        })
    }
}

/// A loaded workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name.
    pub name: String,
    /// Its schedule.
    pub schedule: Schedule,
    /// Its designs, in run order.
    pub designs: Vec<Design>,
}

/// FNV-1a 64-bit digest.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of every generated routing segment of a chip: each horizontal
/// segment's channel, track and column span, then each vertical
/// segment's column and channel span, in id order.
pub fn segment_digest(arch: &Architecture) -> u64 {
    let mut bytes = Vec::with_capacity(16 * (arch.num_hsegs() + arch.num_vsegs()));
    for h in arch.hsegs() {
        for v in [
            arch.hseg_channel(h.id()).index(),
            arch.hseg_track(h.id()).index(),
            h.start(),
            h.end(),
        ] {
            bytes.extend_from_slice(&(v as u32).to_le_bytes());
        }
    }
    for v in arch.vsegs() {
        for x in [v.col().index(), v.chan_lo().index(), v.chan_hi().index()] {
            bytes.extend_from_slice(&(x as u32).to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

fn read(dir: &Path, rel: &str) -> Result<String, BenchError> {
    let path = dir.join(rel);
    fs::read_to_string(&path).map_err(|source| BenchError::Io {
        path: path.display().to_string(),
        source,
    })
}

/// Parses the manifest into `file -> {key -> value}`.
fn parse_manifest(text: &str) -> Result<BTreeMap<String, BTreeMap<String, String>>, BenchError> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        let mut tokens = line.split_whitespace();
        let Some(file) = tokens.next() else {
            continue;
        };
        let mut fields = BTreeMap::new();
        for token in tokens {
            let (k, v) = token
                .split_once('=')
                .ok_or_else(|| BenchError::Input(format!("{MANIFEST}: bad field `{token}`")))?;
            fields.insert(k.to_string(), v.to_string());
        }
        out.insert(file.to_string(), fields);
    }
    Ok(out)
}

fn expect_field(
    manifest: &BTreeMap<String, BTreeMap<String, String>>,
    file: &str,
    key: &str,
    actual: u64,
) -> Result<(), BenchError> {
    let recorded = manifest
        .get(file)
        .and_then(|f| f.get(key))
        .ok_or_else(|| BenchError::Input(format!("{MANIFEST} has no {key} for {file}")))?;
    let actual = format!("{actual:016x}");
    if *recorded != actual {
        return Err(BenchError::Input(format!(
            "{file}: {key} is {actual}, pinned {recorded}; the inputs changed, refusing to run"
        )));
    }
    Ok(())
}

/// Loads workload `name` from `dir`, verifying every file digest and
/// every fingerprint against the manifest.
///
/// # Errors
///
/// Returns [`BenchError::Usage`] for an unknown workload, and
/// [`BenchError::Io`] / [`BenchError::Input`] when a file is missing,
/// malformed or does not match the manifest.
pub fn load_workload(dir: &Path, name: &str) -> Result<Workload, BenchError> {
    let spec = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        BenchError::Usage(format!(
            "unknown workload `{name}` (one of {})",
            names.join(", ")
        ))
    })?;
    let manifest = parse_manifest(&read(dir, MANIFEST)?)?;
    let schedules = read(dir, SCHEDULES)?;
    expect_field(
        &manifest,
        SCHEDULES,
        "fnv1a64",
        fnv1a64(schedules.as_bytes()),
    )?;
    let schedule = parse_schedule(&schedules, spec.schedule)?;
    let mut designs = Vec::with_capacity(spec.designs.len());
    for &(design, net_file, arch_file) in spec.designs {
        let netlist_text = read(dir, net_file)?;
        let arch_text = read(dir, arch_file)?;
        expect_field(
            &manifest,
            net_file,
            "fnv1a64",
            fnv1a64(netlist_text.as_bytes()),
        )?;
        expect_field(
            &manifest,
            arch_file,
            "fnv1a64",
            fnv1a64(arch_text.as_bytes()),
        )?;
        let d = Design::from_texts(design, netlist_text, arch_text)?;
        expect_field(
            &manifest,
            net_file,
            "netlist_fingerprint",
            netlist_fingerprint(&d.netlist),
        )?;
        expect_field(
            &manifest,
            arch_file,
            "arch_fingerprint",
            arch_fingerprint(&d.arch),
        )?;
        expect_field(&manifest, arch_file, "segments", segment_digest(&d.arch))?;
        designs.push(d);
    }
    Ok(Workload {
        name: spec.name.to_string(),
        schedule,
        designs,
    })
}

fn schedule_section(out: &mut String, name: &str, note: &str, flow: &str, pairs: &[(&str, f64)]) {
    let _ = writeln!(out, "\n[{name}]  # {note}\nflow {flow}");
    for (k, v) in pairs {
        let _ = writeln!(out, "{k} {v}");
    }
}

fn anneal_pairs(a: &AnnealConfig, factor: f64, seed_offset: u64) -> Vec<(&'static str, f64)> {
    vec![
        ("moves_factor", factor),
        ("warmup_moves", a.warmup_moves as f64),
        ("initial_acceptance", a.initial_acceptance),
        ("lambda", a.lambda),
        ("max_decrement", a.max_decrement),
        ("stall_temps", a.stall_temps as f64),
        ("min_acceptance", a.min_acceptance),
        ("max_temps", a.max_temps as f64),
        ("anneal_seed_offset", seed_offset as f64),
    ]
}

fn common_pairs(r: &RouterConfig, m: &MoveWeights) -> Vec<(&'static str, f64)> {
    vec![
        ("wastage_weight", r.wastage_weight),
        ("segment_weight", r.segment_weight),
        ("max_vchain", r.max_vchain as f64),
        ("exchange_weight", m.exchange),
        ("pinmap_weight", m.pinmap),
    ]
}

fn sim_pairs(c: &SimPrConfig, factor: f64) -> Vec<(&'static str, f64)> {
    let offset = c.clone().with_seed(0).anneal.seed;
    let mut pairs = anneal_pairs(&c.anneal, factor, offset);
    pairs.extend(common_pairs(&c.router, &c.move_weights));
    pairs.extend([
        ("final_repair_passes", c.final_repair_passes as f64),
        ("cleanup_moves", c.cleanup_moves as f64),
        ("global_emphasis", c.cost.global_emphasis),
        ("detail_emphasis", c.cost.detail_emphasis),
        ("timing_emphasis", c.cost.timing_emphasis),
    ]);
    pairs
}

fn write_file(dir: &Path, rel: &str, text: &str) -> Result<(), BenchError> {
    let path = dir.join(rel);
    let io = |source| BenchError::Io {
        path: path.display().to_string(),
        source,
    };
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(io)?;
    }
    fs::write(&path, text).map_err(io)
}

/// Regenerates every pinned input from the library — the paper presets'
/// netlists, their chips at 36 tracks, at the Table 2 simultaneous
/// minimum widths and at Figure 7's 52 tracks, and the schedules taken
/// from `SimPrConfig::fast()` and `SeqPrConfig::default()` — and writes a
/// fresh manifest.
///
/// # Errors
///
/// Returns [`BenchError::Io`] if a file cannot be written and
/// [`BenchError::Input`] if a preset does not fit its chip.
pub fn pin_inputs(dir: &Path) -> Result<(), BenchError> {
    let sizing_err = |e| BenchError::Input(format!("chip sizing: {e}"));
    let mut files: Vec<(String, String)> = Vec::new();
    for bench in PaperBenchmark::all() {
        let netlist = generate(&paper_preset(bench));
        let name = bench.name();
        files.push((format!("netlists/{name}.net"), write_netlist(&netlist)));
        let (sizing, widths): (SizingConfig, &[usize]) = match bench {
            // Figure 7's fabric: taller, with wider channels.
            PaperBenchmark::Big529 => (
                SizingConfig {
                    aspect: 1.5,
                    tracks_per_channel: 52,
                    ..SizingConfig::default()
                },
                &[],
            ),
            // Table 2 simultaneous minimum widths (results/table2.txt).
            PaperBenchmark::S1 => (SizingConfig::default(), &[20]),
            PaperBenchmark::Cse => (SizingConfig::default(), &[19]),
            PaperBenchmark::Bw => (SizingConfig::default(), &[18]),
            PaperBenchmark::Ex1 | PaperBenchmark::S1a => (SizingConfig::default(), &[]),
        };
        let arch = size_architecture(&netlist, &sizing).map_err(sizing_err)?;
        let t = arch.tracks_per_channel();
        files.push((
            format!("arches/{name}-t{t}.arch"),
            write_architecture(&arch),
        ));
        for &w in widths {
            let narrow = arch.with_tracks(w).map_err(sizing_err)?;
            files.push((
                format!("arches/{name}-t{w}.arch"),
                write_architecture(&narrow),
            ));
        }
    }

    let mut sched = String::from(
        "# Annealing schedules and flow settings, pinned so that edits to the\n\
         # library's defaults do not change the measured work. Moves per\n\
         # temperature = ceil(cells^(4/3) * moves_factor), at least 32; the\n\
         # annealing seed is the layout seed plus anneal_seed_offset.\n",
    );
    let fast = SimPrConfig::fast();
    schedule_section(
        &mut sched,
        "sim-fast",
        "SimPrConfig::fast()",
        "simultaneous",
        &sim_pairs(&fast, 1.0),
    );
    schedule_section(
        &mut sched,
        "fig7-quarter",
        "SimPrConfig::fast() with a quarter of the move budget",
        "simultaneous",
        &sim_pairs(&fast, 0.25),
    );
    let seq = SeqPrConfig::default();
    let mut pairs = anneal_pairs(&seq.anneal, 1.0, seq.clone().with_seed(0).anneal.seed);
    pairs.extend(common_pairs(&seq.router, &seq.move_weights));
    pairs.extend([
        ("route_passes", seq.route_passes as f64),
        ("congestion_weight", seq.placer.congestion_weight),
        ("timing_factor", seq.placer.timing_factor),
        ("vertical_weight", seq.placer.vertical_weight),
    ]);
    schedule_section(
        &mut sched,
        "seq-default",
        "SeqPrConfig::default()",
        "sequential",
        &pairs,
    );
    files.push((SCHEDULES.to_string(), sched));

    let mut manifest = String::from(
        "# Pinned benchmark inputs: FNV-1a of each file's bytes, plus the\n\
         # fingerprints of what the file parses into. Regenerate with\n\
         # `perfbench pin-inputs` only in a change that re-pins the benchmark.\n",
    );
    for (rel, text) in &files {
        write_file(dir, rel, text)?;
        let _ = write!(manifest, "{rel} fnv1a64={:016x}", fnv1a64(text.as_bytes()));
        if rel.ends_with(".net") {
            let nl = parse_netlist(text).map_err(|e| BenchError::Input(format!("{rel}: {e}")))?;
            let _ = write!(
                manifest,
                " netlist_fingerprint={:016x}",
                netlist_fingerprint(&nl)
            );
        } else if rel.ends_with(".arch") {
            let arch =
                parse_architecture(text).map_err(|e| BenchError::Input(format!("{rel}: {e}")))?;
            let _ = write!(
                manifest,
                " arch_fingerprint={:016x} segments={:016x}",
                arch_fingerprint(&arch),
                segment_digest(&arch)
            );
        }
        manifest.push('\n');
    }
    write_file(dir, MANIFEST, &manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM: &str = "[a]\nflow simultaneous\nmoves_factor 0.5\nwarmup_moves 10\n\
        initial_acceptance 0.85\nlambda 0.7\nmax_decrement 0.5\nstall_temps 3\n\
        min_acceptance 0.02\nmax_temps 4\nanneal_seed_offset 7\nwastage_weight 1\n\
        segment_weight 3\nmax_vchain 32\nexchange_weight 0.85\npinmap_weight 0.15\n\
        final_repair_passes 6\ncleanup_moves 100\nglobal_emphasis 1.5\n\
        detail_emphasis 1\ntiming_emphasis 0.6\n";

    #[test]
    fn schedules_build_pinned_configs() {
        let s = parse_schedule(SIM, "a").unwrap();
        assert_eq!(s.flow, FlowKind::Simultaneous);
        let c = s.sim_config(40, 5);
        assert_eq!(c.placement_seed, 5);
        assert_eq!(c.anneal.seed, 12);
        assert_eq!(c.anneal.max_temps, 4);
        assert_eq!(c.cleanup_moves, 100);
        assert_eq!(c.threads, 1);
        assert_eq!(s.moves_per_temp(40), 69);
        assert_eq!(s.moves_per_temp(1), 32);
    }

    #[test]
    fn schedules_reject_missing_unknown_and_repeated_keys() {
        assert!(parse_schedule(SIM, "b").is_err());
        let missing = SIM.replace("lambda 0.7\n", "");
        assert!(parse_schedule(&missing, "a").is_err());
        let unknown = format!("{SIM}bogus 1\n");
        assert!(parse_schedule(&unknown, "a").is_err());
        let repeated = format!("{SIM}lambda 0.7\n");
        assert!(parse_schedule(&repeated, "a").is_err());
    }

    #[test]
    fn manifest_mismatch_is_refused() {
        let manifest = parse_manifest("x.net fnv1a64=00000000000000ff\n").unwrap();
        assert!(expect_field(&manifest, "x.net", "fnv1a64", 0xff).is_ok());
        assert!(expect_field(&manifest, "x.net", "fnv1a64", 0xfe).is_err());
        assert!(expect_field(&manifest, "y.net", "fnv1a64", 0xff).is_err());
    }
}
