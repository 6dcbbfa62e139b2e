//! Minimal-repro files: a failing (fabric, netlist, move-sequence) case
//! reduced by the shrinker and written as three sibling files: a `.arch`
//! architecture file, a `.net` netlist and a JSON sidecar holding the
//! shrunk script and the failure description.
//!
//! Triage workflow: `rowfpga fuzz --replay foo.repro.json` rebuilds the
//! exact fabric and placement, replays the script and re-runs the oracle
//! suite, reproducing the recorded failure deterministically; the fabric
//! and netlist also lay out on their own with
//! `rowfpga layout foo.net --arch foo.arch`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rowfpga_arch::{parse_architecture, write_architecture, Architecture};
use rowfpga_netlist::{parse_netlist, write_netlist, Netlist};
use rowfpga_obs::json::Json;

use crate::script::{MoveScript, ScriptOp};

/// Version tag of the repro JSON format.
pub const REPRO_FORMAT: &str = "rowfpga-repro";
/// Current repro format version. Version 1 embedded the fabric in the
/// sidecar; version 2 names a sibling `.arch` file instead.
pub const REPRO_VERSION: u64 = 2;

/// A self-contained failure reproduction.
#[derive(Clone, Debug, PartialEq)]
pub struct Repro {
    /// File name of the sibling `.arch` fabric (relative to the repro).
    pub arch_file: String,
    /// File name of the sibling `.net` netlist (relative to the repro).
    pub netlist_file: String,
    /// Seed of the initial random placement.
    pub placement_seed: u64,
    /// The (shrunk) operation sequence.
    pub script: MoveScript,
    /// Human-readable description of the failure the script triggers.
    pub failure: String,
    /// Length of the move sequence before shrinking.
    pub original_len: usize,
}

fn op_to_json(op: &ScriptOp) -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    match *op {
        ScriptOp::Exchange { a, b, accept } => Json::obj(vec![
            ("op", s("exchange")),
            ("a", Json::Num(a as f64)),
            ("b", Json::Num(b as f64)),
            ("accept", Json::Bool(accept)),
        ]),
        ScriptOp::Pinmap { cell, to, accept } => Json::obj(vec![
            ("op", s("pinmap")),
            ("cell", Json::Num(cell as f64)),
            ("to", Json::Num(to as f64)),
            ("accept", Json::Bool(accept)),
        ]),
        #[cfg(feature = "fault-inject")]
        ScriptOp::Fault(fault) => {
            use rowfpga_core::InjectedFault;
            let mut pairs = vec![("op", s("fault"))];
            match fault {
                InjectedFault::RouteOwner { nth } => {
                    pairs.push(("kind", s("route_owner")));
                    pairs.push(("nth", Json::Num(nth as f64)));
                }
                InjectedFault::RouteRun { nth } => {
                    pairs.push(("kind", s("route_run")));
                    pairs.push(("nth", Json::Num(nth as f64)));
                }
                InjectedFault::RouteCounter => pairs.push(("kind", s("route_counter"))),
                InjectedFault::TimingWorst { delta_ps } => {
                    pairs.push(("kind", s("timing_worst")));
                    pairs.push(("delta_ps", Json::Num(delta_ps)));
                }
                InjectedFault::TimingArrival { cell, delta_ps } => {
                    pairs.push(("kind", s("timing_arrival")));
                    pairs.push(("cell", Json::Num(cell as f64)));
                    pairs.push(("delta_ps", Json::Num(delta_ps)));
                }
                InjectedFault::CheckpointShortWrite => {
                    pairs.push(("kind", s("checkpoint_short_write")));
                }
                InjectedFault::CheckpointSkipRename => {
                    pairs.push(("kind", s("checkpoint_skip_rename")));
                }
            }
            Json::obj(pairs)
        }
    }
}

fn op_from_json(j: &Json) -> Result<ScriptOp, String> {
    let kind = j
        .get("op")
        .and_then(Json::as_str)
        .ok_or("script op missing 'op'")?;
    let num = |key: &str| -> Result<u64, String> {
        j.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("script op missing numeric '{key}'"))
    };
    let accept = || -> Result<bool, String> {
        j.get("accept")
            .and_then(Json::as_bool)
            .ok_or_else(|| "script op missing 'accept'".to_string())
    };
    match kind {
        "exchange" => Ok(ScriptOp::Exchange {
            a: num("a")? as usize,
            b: num("b")? as usize,
            accept: accept()?,
        }),
        "pinmap" => Ok(ScriptOp::Pinmap {
            cell: num("cell")? as usize,
            to: num("to")? as u16,
            accept: accept()?,
        }),
        "fault" => {
            #[cfg(feature = "fault-inject")]
            {
                use rowfpga_core::InjectedFault;
                let fkind = j
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or("fault op missing 'kind'")?;
                let delta = || {
                    j.get("delta_ps")
                        .and_then(Json::as_f64)
                        .ok_or("fault op missing 'delta_ps'")
                };
                let fault = match fkind {
                    "route_owner" => InjectedFault::RouteOwner {
                        nth: num("nth")? as usize,
                    },
                    "route_run" => InjectedFault::RouteRun {
                        nth: num("nth")? as usize,
                    },
                    "route_counter" => InjectedFault::RouteCounter,
                    "timing_worst" => InjectedFault::TimingWorst { delta_ps: delta()? },
                    "timing_arrival" => InjectedFault::TimingArrival {
                        cell: num("cell")? as usize,
                        delta_ps: delta()?,
                    },
                    "checkpoint_short_write" => InjectedFault::CheckpointShortWrite,
                    "checkpoint_skip_rename" => InjectedFault::CheckpointSkipRename,
                    other => return Err(format!("unknown fault kind '{other}'")),
                };
                Ok(ScriptOp::Fault(fault))
            }
            #[cfg(not(feature = "fault-inject"))]
            Err("repro contains a fault op; rebuild with --features fault-inject".to_string())
        }
        other => Err(format!("unknown script op '{other}'")),
    }
}

impl Repro {
    /// Serializes the sidecar (the fabric and netlist live in the sibling
    /// files it names).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("format", Json::Str(REPRO_FORMAT.to_string())),
            ("version", Json::Num(REPRO_VERSION as f64)),
            ("failure", Json::Str(self.failure.clone())),
            ("arch_file", Json::Str(self.arch_file.clone())),
            ("netlist_file", Json::Str(self.netlist_file.clone())),
            ("placement_seed", Json::Str(self.placement_seed.to_string())),
            ("original_len", Json::Num(self.original_len as f64)),
            (
                "script",
                Json::Arr(self.script.ops.iter().map(op_to_json).collect()),
            ),
        ])
    }

    /// Parses a repro sidecar.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field, including a
    /// version other than [`REPRO_VERSION`].
    pub fn from_json(j: &Json) -> Result<Repro, String> {
        match j.get("format").and_then(Json::as_str) {
            Some(REPRO_FORMAT) => {}
            other => return Err(format!("not a {REPRO_FORMAT} file (format: {other:?})")),
        }
        match j.get("version").and_then(Json::as_u64) {
            Some(REPRO_VERSION) => {}
            Some(v) => {
                return Err(format!(
                    "repro version {v} is not supported (expected version \
                     {REPRO_VERSION}; re-run the fuzzer to regenerate it)"
                ))
            }
            None => return Err("missing or non-numeric 'version'".to_string()),
        }
        let file = |key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing '{key}'"))
        };
        let ops = j
            .get("script")
            .and_then(Json::as_arr)
            .ok_or("missing 'script' array")?
            .iter()
            .map(op_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Repro {
            arch_file: file("arch_file")?,
            netlist_file: file("netlist_file")?,
            placement_seed: j
                .get("placement_seed")
                .and_then(Json::as_str)
                .ok_or("missing 'placement_seed'")?
                .parse::<u64>()
                .map_err(|e| format!("bad placement_seed: {e}"))?,
            script: MoveScript { ops },
            failure: j
                .get("failure")
                .and_then(Json::as_str)
                .unwrap_or("unrecorded failure")
                .to_string(),
            original_len: j.get("original_len").and_then(Json::as_u64).unwrap_or(0) as usize,
        })
    }

    /// Writes `arch` and `netlist` to the sibling files the repro names and
    /// the sidecar to `<dir>/<stem>.repro.json`, returning the sidecar path.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error.
    pub fn save(
        &self,
        dir: &Path,
        stem: &str,
        arch: &Architecture,
        netlist: &Netlist,
    ) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join(&self.arch_file), write_architecture(arch))?;
        fs::write(dir.join(&self.netlist_file), write_netlist(netlist))?;
        let sidecar = dir.join(format!("{stem}.repro.json"));
        fs::write(&sidecar, self.to_json().to_string_pretty())?;
        Ok(sidecar)
    }

    /// Loads a repro sidecar with its sibling fabric and netlist.
    ///
    /// # Errors
    ///
    /// Returns a description, naming the file, when any of the three is
    /// missing or malformed.
    pub fn load(path: &Path) -> Result<(Repro, Architecture, Netlist), String> {
        let read =
            |path: &Path| fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()));
        let j = rowfpga_obs::json::parse(&read(path)?)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let repro = Repro::from_json(&j).map_err(|e| format!("{}: {e}", path.display()))?;
        let dir = path.parent().unwrap_or_else(|| Path::new("."));
        let arch_path = dir.join(&repro.arch_file);
        let arch = parse_architecture(&read(&arch_path)?)
            .map_err(|e| format!("{}: {e}", arch_path.display()))?;
        let net_path = dir.join(&repro.netlist_file);
        let netlist =
            parse_netlist(&read(&net_path)?).map_err(|e| format!("{}: {e}", net_path.display()))?;
        Ok((repro, arch, netlist))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_case, CaseConfig};
    use crate::script::random_script;
    use rowfpga_arch::ChannelId;

    fn assert_same_fabric(a: &Architecture, b: &Architecture, what: &str) {
        assert_eq!(a.stats(), b.stats(), "{what}");
        assert_eq!(a.delay(), b.delay(), "{what}");
        for c in 0..a.geometry().num_channels() {
            let c = ChannelId::new(c);
            assert_eq!(a.channel_tracks(c), b.channel_tracks(c), "{what}");
        }
    }

    fn scratch_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rowfpga-{name}-{}", std::process::id()))
    }

    #[test]
    fn fuzz_fabrics_round_trip_through_arch_files() {
        for seed in 0..20 {
            let case = random_case(seed, &CaseConfig::default());
            let back = parse_architecture(&write_architecture(&case.arch)).unwrap();
            assert_same_fabric(&back, &case.arch, &format!("seed {seed}"));
        }
    }

    #[test]
    fn repros_round_trip_through_disk() {
        let case = random_case(
            1,
            &CaseConfig {
                min_cells: 20,
                max_cells: 40,
            },
        );
        let script = random_script(&case, 2, 12);
        let repro = Repro {
            arch_file: "case.arch".to_string(),
            netlist_file: "case.net".to_string(),
            placement_seed: 99,
            script: script.clone(),
            failure: "synthetic failure for the round-trip test".to_string(),
            original_len: 64,
        };
        let dir = scratch_dir("repro-test");
        let sidecar = repro.save(&dir, "case", &case.arch, &case.netlist).unwrap();
        let (back, arch, netlist) = Repro::load(&sidecar).unwrap();
        assert_eq!(back, repro);
        assert_same_fabric(&arch, &case.arch, "loaded fabric");
        assert_eq!(netlist.num_cells(), case.netlist.num_cells());
        assert_eq!(back.script, script);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn old_or_incomplete_repros_are_refused_with_the_reason() {
        let dir = scratch_dir("repro-refused");
        fs::create_dir_all(&dir).unwrap();
        // A version-1 sidecar embedded the fabric as an `arch` object.
        let v1 = dir.join("v1.repro.json");
        fs::write(
            &v1,
            r#"{"format": "rowfpga-repro", "version": 1, "netlist_file": "v1.net",
                "placement_seed": "1", "arch": {"rows": 2}, "script": []}"#,
        )
        .unwrap();
        let err = Repro::load(&v1).unwrap_err();
        assert!(err.contains("version 1"), "{err}");
        // A version-2 sidecar whose fabric file is gone.
        let case = random_case(3, &CaseConfig::default());
        let repro = Repro {
            arch_file: "gone.arch".to_string(),
            netlist_file: "gone.net".to_string(),
            placement_seed: 3,
            script: MoveScript::default(),
            failure: "none".to_string(),
            original_len: 0,
        };
        let sidecar = repro.save(&dir, "gone", &case.arch, &case.netlist).unwrap();
        fs::remove_file(dir.join("gone.arch")).unwrap();
        let err = Repro::load(&sidecar).unwrap_err();
        assert!(
            err.contains(&dir.join("gone.arch").display().to_string()),
            "{err}"
        );
        fs::remove_dir_all(&dir).ok();
    }
}
