//! Subcommand implementations.

use std::error::Error;
use std::fmt;

use rowfpga_arch::Architecture;
use rowfpga_baseline::{SeqPrConfig, SequentialPlaceRoute};
use rowfpga_core::{
    render_ascii, render_svg, size_architecture, LayoutError, LayoutResult, SimPrConfig,
    SimultaneousPlaceRoute, SizingConfig, StopFlag,
};
use rowfpga_netlist::{
    generate, paper_preset, parse_blif, parse_netlist, write_netlist, GenerateConfig, Netlist,
    PaperBenchmark,
};
use rowfpga_obs::{Event, Obs};
use rowfpga_timing::Sta;

use crate::args::{Command, CommonOpts, FlowChoice, ThreadsChoice, USAGE};

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// File I/O failed.
    Io(std::io::Error),
    /// Netlist parsing failed.
    Parse(String),
    /// Layout failed.
    Layout(LayoutError),
    /// Unknown benchmark name.
    UnknownBenchmark(String),
    /// The design could not be routed at any scanned track count.
    Unroutable {
        /// Scan start.
        start: usize,
    },
    /// The fuzzer found (or a replay reproduced) oracle violations.
    FuzzViolations {
        /// How many violations were found.
        count: usize,
    },
    /// The domain lint engine could not run (I/O, bad budget file,
    /// attempted upward ratchet).
    Lint(rowfpga_lint::EngineError),
    /// The domain lint engine found violations.
    LintViolations {
        /// How many violations were found.
        count: usize,
    },
    /// `--explain` named a lint family the engine does not know.
    UnknownLint {
        /// The name the user typed.
        lint: String,
    },
    /// A service command failed (daemon rejection, protocol error, wait
    /// timeout, or a platform without unix sockets).
    Service(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Parse(e) => write!(f, "parse error: {e}"),
            CliError::Layout(e) => write!(f, "layout error: {e}"),
            CliError::UnknownBenchmark(n) => {
                write!(
                    f,
                    "unknown benchmark `{n}` (try s1, cse, ex1, bw, s1a, big529)"
                )
            }
            CliError::Unroutable { start } => {
                write!(f, "design is unroutable even at {start} tracks/channel")
            }
            CliError::FuzzViolations { count } => {
                write!(f, "fuzzing found {count} oracle violation(s)")
            }
            CliError::Lint(e) => write!(f, "lint error: {e}"),
            CliError::LintViolations { count } => {
                write!(f, "lint found {count} violation(s)")
            }
            CliError::UnknownLint { lint } => {
                write!(
                    f,
                    "unknown lint `{lint}` (try {})",
                    rowfpga_lint::EXPLAINABLE.join(", ")
                )
            }
            CliError::Service(e) => write!(f, "service error: {e}"),
        }
    }
}

impl Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<LayoutError> for CliError {
    fn from(e: LayoutError) -> Self {
        CliError::Layout(e)
    }
}

fn load_netlist(path: &str, blif: bool) -> Result<Netlist, CliError> {
    let text = std::fs::read_to_string(path)?;
    if blif {
        parse_blif(&text).map_err(|e| CliError::Parse(e.to_string()))
    } else {
        parse_netlist(&text).map_err(|e| CliError::Parse(e.to_string()))
    }
}

fn sized_arch(netlist: &Netlist, opts: &CommonOpts) -> Result<Architecture, CliError> {
    if let Some(path) = &opts.arch {
        let text = std::fs::read_to_string(path)?;
        let arch =
            rowfpga_arch::parse_architecture(&text).map_err(|e| CliError::Parse(e.to_string()))?;
        return match opts.tracks {
            Some(t) => arch
                .with_tracks(t)
                .map_err(|e| CliError::Parse(e.to_string())),
            None => Ok(arch),
        };
    }
    let mut sizing = SizingConfig::default();
    if let Some(t) = opts.tracks {
        sizing.tracks_per_channel = t;
    }
    size_architecture(netlist, &sizing).map_err(|e| CliError::Parse(format!("sizing failed: {e}")))
}

/// The host's core count, used to resolve `--threads auto` and to warn
/// about oversubscribed explicit counts.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Builds the observability handle the common flags ask for: a JSONL
/// journal sink for `--journal` (a file path or a `unix:PATH` socket
/// spec), metrics-only for bare `--metrics`, and the zero-overhead
/// disabled handle otherwise.
fn build_obs(opts: &CommonOpts) -> Result<Obs, CliError> {
    if let Some(spec) = &opts.journal {
        Ok(Obs::with_sink(rowfpga_obs::open_sink(spec)?))
    } else if opts.metrics {
        Ok(Obs::metrics_only())
    } else {
        Ok(Obs::disabled())
    }
}

fn run_layout(
    arch: &Architecture,
    netlist: &Netlist,
    opts: &CommonOpts,
    label: &str,
    obs: &Obs,
    stop: &StopFlag,
) -> Result<LayoutResult, CliError> {
    Ok(match opts.flow {
        FlowChoice::Simultaneous => {
            let base = if opts.fast {
                SimPrConfig::fast()
            } else {
                SimPrConfig::default()
            };
            let mut cfg = base.with_seed(opts.seed);
            cfg.resilience.checkpoint_path = opts.checkpoint.as_ref().map(std::path::PathBuf::from);
            cfg.resilience.checkpoint_every = opts.checkpoint_every;
            cfg.resilience.checkpoint_keep = opts.checkpoint_keep;
            cfg.resilience.resume_path = opts.resume.as_ref().map(std::path::PathBuf::from);
            cfg.resilience.deadline = opts.deadline.map(std::time::Duration::from_secs_f64);
            cfg.resilience.audit_every = opts.audit_every;
            cfg.resilience.temp_budget = opts.temp_budget;
            let cores = host_cores();
            cfg.threads = opts.threads.resolve(cores);
            if let ThreadsChoice::Count(n) = opts.threads {
                // An explicit count always wins, but replicas beyond the
                // host's cores time-slice instead of running concurrently.
                if n > cores {
                    obs.emit(Event::Warning {
                        code: "oversubscribed".into(),
                        detail: format!("{n} replicas on {cores} host core(s)"),
                    });
                    eprintln!(
                        "warning: --threads {n} oversubscribes this {cores}-core host; \
                         replicas will time-slice (use --threads auto to cap at the cores)"
                    );
                }
            }
            SimultaneousPlaceRoute::new(cfg).run_with_stop(arch, netlist, label, obs, stop)?
        }
        FlowChoice::Sequential => {
            let base = if opts.fast {
                SeqPrConfig::fast()
            } else {
                SeqPrConfig::default()
            };
            SequentialPlaceRoute::new(base.with_seed(opts.seed))
                .run_observed(arch, netlist, label, obs)?
        }
    })
}

fn print_layout_outputs(
    arch: &Architecture,
    netlist: &Netlist,
    result: &LayoutResult,
    opts: &CommonOpts,
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    writeln!(
        out,
        "flow: {:?} | routed: {} (G={}, D={}) | worst path {:.2} ns | {} moves in {:.2?} | stop: {}{}",
        opts.flow,
        result.fully_routed,
        result.globally_unrouted,
        result.incomplete,
        result.worst_delay / 1000.0,
        result.total_moves,
        result.runtime,
        result.stop_reason,
        if result.repairs > 0 {
            format!(" | repairs: {}", result.repairs)
        } else {
            String::new()
        }
    )?;
    if opts.report {
        let sta = Sta::analyze(arch, netlist, &result.placement, &result.routing)
            .map_err(|e| CliError::Parse(e.to_string()))?;
        writeln!(out, "\n{}", sta.report(netlist))?;
        writeln!(out, "{}", result.routing.occupancy_report(arch))?;
    }
    if opts.ascii {
        writeln!(
            out,
            "\n{}",
            render_ascii(arch, netlist, &result.placement, &result.routing)
        )?;
    }
    if let Some(path) = &opts.svg {
        let svg = render_svg(arch, netlist, &result.placement, &result.routing);
        std::fs::write(path, svg)?;
        writeln!(out, "layout plot written to {path}")?;
    }
    Ok(())
}

/// Finishes the observability side of a run: prints the metrics report for
/// `--metrics` and notes where the journal went for `--journal`.
fn print_obs_outputs(
    obs: &Obs,
    opts: &CommonOpts,
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    if opts.metrics {
        if let Some(report) = obs.render_report() {
            writeln!(out, "\n{report}")?;
        }
    }
    if let Some(spec) = &opts.journal {
        if spec.starts_with(rowfpga_obs::SOCKET_SPEC_PREFIX) {
            writeln!(out, "run journal streamed to {spec}")?;
        } else {
            writeln!(out, "run journal written to {spec}")?;
        }
    }
    Ok(())
}

/// Implements `rowfpga analyze`: folds a journal into the convergence
/// report, writing the JSON / text / folded-stack artifacts under
/// `out_dir`.
fn run_analyze(
    journal: &str,
    out_dir: &str,
    quiet: bool,
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    let text = std::fs::read_to_string(journal)?;
    let analysis =
        rowfpga_obs::analyze_journal(&text).map_err(|e| CliError::Parse(e.to_string()))?;
    std::fs::create_dir_all(out_dir)?;
    let stem = std::path::Path::new(journal).file_stem().map_or_else(
        || "journal".to_owned(),
        |s| s.to_string_lossy().into_owned(),
    );
    let dir = std::path::Path::new(out_dir);
    let json_path = dir.join(format!("{stem}.analysis.json"));
    let txt_path = dir.join(format!("{stem}.analysis.txt"));
    let folded_path = dir.join(format!("{stem}.folded"));
    std::fs::write(&json_path, analysis.to_json().to_string_pretty() + "\n")?;
    std::fs::write(&txt_path, analysis.render_text())?;
    std::fs::write(&folded_path, analysis.folded_text())?;
    if !quiet {
        writeln!(out, "{}", analysis.render_text().trim_end())?;
    }
    writeln!(
        out,
        "analysis written to {} (+ .txt, .folded)",
        json_path.display()
    )?;
    Ok(())
}

/// Executes a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns a [`CliError`] describing any I/O, parse or layout failure.
pub fn run_command(command: &Command, out: &mut impl std::io::Write) -> Result<(), CliError> {
    run_command_with_stop(command, out, &StopFlag::none())
}

/// Like [`run_command`], but layout runs also stop gracefully — finishing
/// the current temperature and writing a final checkpoint — when `stop`
/// fires (the binary wires this to SIGINT).
///
/// # Errors
///
/// Returns a [`CliError`] describing any I/O, parse or layout failure.
pub fn run_command_with_stop(
    command: &Command,
    out: &mut impl std::io::Write,
    stop: &StopFlag,
) -> Result<(), CliError> {
    match command {
        Command::Help => {
            write!(out, "{USAGE}")?;
            Ok(())
        }
        Command::Generate {
            cells,
            inputs,
            outputs,
            seq,
            seed,
            output,
        } => {
            let netlist = generate(&GenerateConfig {
                num_cells: *cells,
                num_inputs: *inputs,
                num_outputs: *outputs,
                num_seq: *seq,
                seed: *seed,
                ..GenerateConfig::default()
            });
            let text = write_netlist(&netlist);
            if output == "-" {
                write!(out, "{text}")?;
            } else {
                std::fs::write(output, text)?;
                writeln!(
                    out,
                    "wrote {} cells / {} nets to {output}",
                    netlist.num_cells(),
                    netlist.num_nets()
                )?;
            }
            Ok(())
        }
        Command::Layout { input, blif, opts } => {
            let netlist = load_netlist(input, *blif)?;
            let arch = sized_arch(&netlist, opts)?;
            writeln!(
                out,
                "design: {} cells / {} nets on a {}x{} chip, {} tracks/channel",
                netlist.num_cells(),
                netlist.num_nets(),
                arch.geometry().num_rows(),
                arch.geometry().num_cols(),
                arch.tracks_per_channel()
            )?;
            let obs = build_obs(opts)?;
            let result = run_layout(&arch, &netlist, opts, input, &obs, stop)?;
            print_layout_outputs(&arch, &netlist, &result, opts, out)?;
            print_obs_outputs(&obs, opts, out)
        }
        Command::MinTracks {
            input,
            blif,
            start,
            opts,
        } => {
            let netlist = load_netlist(input, *blif)?;
            let base = sized_arch(
                &netlist,
                &CommonOpts {
                    tracks: Some(*start),
                    ..opts.clone()
                },
            )?;
            let mut best = None;
            let mut tracks = *start;
            loop {
                let arch = base
                    .with_tracks(tracks)
                    .map_err(|e| CliError::Parse(e.to_string()))?;
                let result = run_layout(&arch, &netlist, opts, input, &Obs::disabled(), stop)?;
                write!(out, "{}", if result.fully_routed { "." } else { "x" })?;
                out.flush()?;
                if !result.fully_routed || tracks == 1 || stop.is_set() {
                    break;
                }
                best = Some(tracks);
                tracks -= 1;
            }
            writeln!(out)?;
            match best {
                Some(t) => {
                    writeln!(
                        out,
                        "minimum tracks/channel for 100% wirability ({:?}): {t}",
                        opts.flow
                    )?;
                    Ok(())
                }
                None => Err(CliError::Unroutable { start: *start }),
            }
        }
        Command::Bench { name, opts } => {
            let bench = PaperBenchmark::all()
                .into_iter()
                .find(|b| b.name() == name)
                .ok_or_else(|| CliError::UnknownBenchmark(name.clone()))?;
            let netlist = generate(&paper_preset(bench));
            let arch = sized_arch(&netlist, opts)?;
            writeln!(
                out,
                "benchmark {}: {} cells / {} nets",
                bench.name(),
                netlist.num_cells(),
                netlist.num_nets()
            )?;
            let obs = build_obs(opts)?;
            let result = run_layout(&arch, &netlist, opts, bench.name(), &obs, stop)?;
            print_layout_outputs(&arch, &netlist, &result, opts, out)?;
            print_obs_outputs(&obs, opts, out)
        }
        Command::Serve {
            socket,
            spool,
            workers,
            queue,
            checkpoint_every,
            checkpoint_keep,
        } => crate::service::run_serve(
            &crate::service::ServeOpts {
                socket: socket.clone(),
                spool: spool.clone(),
                workers: *workers,
                queue: *queue,
                checkpoint_every: *checkpoint_every,
                checkpoint_keep: *checkpoint_keep,
            },
            out,
            stop,
        ),
        Command::Submit {
            input,
            socket,
            seed,
            priority,
            deadline,
            fast,
            tracks,
            arch,
            journal,
            wait,
            timeout,
        } => crate::service::run_submit(
            socket,
            &crate::service::SubmitOpts {
                input: input.clone(),
                seed: *seed,
                priority: *priority,
                deadline: *deadline,
                fast: *fast,
                tracks: *tracks,
                arch: arch.clone(),
                journal: journal.clone(),
                wait: *wait,
                timeout: *timeout,
            },
            out,
        ),
        Command::Jobs { socket, job } => crate::service::run_jobs(socket, job.as_deref(), out),
        Command::CancelJob { socket, job } => crate::service::run_cancel(socket, job, out),
        Command::Tail {
            source,
            listen,
            follow,
        } => crate::tail::run_tail(source, *listen, *follow, out),
        Command::Analyze {
            journal,
            out_dir,
            quiet,
        } => run_analyze(journal, out_dir, *quiet, out),
        Command::Lint {
            json,
            fix_budget,
            explain,
            root,
        } => {
            if let Some(lint) = explain {
                return match rowfpga_lint::explain(lint) {
                    Some(text) => {
                        writeln!(out, "{lint}: {text}")?;
                        Ok(())
                    }
                    None => Err(CliError::UnknownLint { lint: lint.clone() }),
                };
            }
            let root = std::path::PathBuf::from(root.as_deref().unwrap_or("."));
            let opts = rowfpga_lint::Options {
                fix_budget: *fix_budget,
            };
            let report = rowfpga_lint::run_repo(&root, opts).map_err(CliError::Lint)?;
            if *json {
                write!(out, "{}", report.render_json())?;
            } else {
                write!(out, "{}", report.render_text())?;
            }
            if report.ok() {
                Ok(())
            } else {
                Err(CliError::LintViolations {
                    count: report.violations.len(),
                })
            }
        }
        Command::Fuzz {
            seconds,
            iters,
            seed,
            corpus,
            min_cells,
            max_cells,
            replay,
        } => {
            if let Some(path) = replay {
                let reproduced = rowfpga_verify::replay_repro(std::path::Path::new(path))
                    .map_err(CliError::Parse)?;
                return match reproduced {
                    Some(failure) => {
                        writeln!(out, "reproduced: {failure}")?;
                        Err(CliError::FuzzViolations { count: 1 })
                    }
                    None => {
                        writeln!(out, "{path}: replays cleanly, no violation")?;
                        Ok(())
                    }
                };
            }
            let cfg = rowfpga_verify::FuzzConfig {
                seed: *seed,
                iters: *iters,
                seconds: *seconds,
                corpus: corpus.as_ref().map(std::path::PathBuf::from),
                cells: rowfpga_verify::CaseConfig {
                    min_cells: *min_cells,
                    max_cells: *max_cells,
                },
            };
            let report = rowfpga_verify::run_fuzz(&cfg, |line| {
                let _ = writeln!(out, "{line}");
            });
            writeln!(
                out,
                "fuzz: {} iterations, {} ops replayed, {} violation(s)",
                report.iterations,
                report.ops_replayed,
                report.failures.len()
            )?;
            if report.clean() {
                Ok(())
            } else {
                for f in &report.failures {
                    match &f.repro_path {
                        Some(p) => writeln!(
                            out,
                            "  iter {}: {} -> {}",
                            f.iteration,
                            f.failure,
                            p.display()
                        )?,
                        None => writeln!(out, "  iter {}: {}", f.iteration, f.failure)?,
                    }
                }
                Err(CliError::FuzzViolations {
                    count: report.failures.len(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn run(args: &[&str]) -> Result<String, CliError> {
        let cmd = parse_args(&v(args)).expect("args parse");
        let mut out = Vec::new();
        run_command(&cmd, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn fuzz_smoke_runs_clean() {
        let out = run(&[
            "fuzz",
            "--iters",
            "1",
            "--seed",
            "3",
            "--min-cells",
            "20",
            "--max-cells",
            "40",
        ])
        .unwrap();
        assert!(out.contains("fuzz: 1 iterations"));
        assert!(out.contains("0 violation(s)"));
    }

    #[test]
    fn fuzz_replay_of_a_missing_file_is_a_parse_error() {
        let err = run(&["fuzz", "--replay", "/nonexistent/x.repro.json"]).unwrap_err();
        assert!(matches!(err, CliError::Parse(_)));
    }

    #[test]
    fn a_saved_repro_replays_and_its_fabric_lays_out() {
        use rowfpga_verify::{random_case, random_script, CaseConfig, Repro};
        let case = random_case(
            3,
            &CaseConfig {
                min_cells: 20,
                max_cells: 30,
            },
        );
        let repro = Repro {
            arch_file: "r.arch".into(),
            netlist_file: "r.net".into(),
            placement_seed: 3,
            script: random_script(&case, 4, 8),
            failure: "none".into(),
            original_len: 8,
        };
        let dir = std::env::temp_dir().join(format!("rowfpga-cli-repro-{}", std::process::id()));
        let sidecar = repro.save(&dir, "r", &case.arch, &case.netlist).unwrap();
        let path = |p: &std::path::Path| p.to_str().unwrap().to_string();
        let out = run(&["fuzz", "--replay", &path(&sidecar)]).unwrap();
        assert!(out.contains("replays cleanly"), "{out}");
        let (net, arch) = (path(&dir.join("r.net")), path(&dir.join("r.arch")));
        let out = run(&["layout", &net, "--arch", &arch, "--fast"]).unwrap();
        let tracks = format!("{} tracks/channel", case.arch.tracks_per_channel());
        assert!(out.contains(&tracks), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_to_stdout_is_parseable() {
        let out = run(&["generate", "--cells", "40", "--seed", "9"]).unwrap();
        let nl = parse_netlist(&out).expect("generated netlist parses");
        assert_eq!(nl.num_cells(), 40);
    }

    #[test]
    fn generate_layout_roundtrip_via_files() {
        let dir = std::env::temp_dir().join("rowfpga_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let net_path = dir.join("d.net");
        let svg_path = dir.join("d.svg");
        run(&[
            "generate",
            "--cells",
            "40",
            "--inputs",
            "4",
            "--outputs",
            "4",
            "--seq",
            "3",
            "-o",
            net_path.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&[
            "layout",
            net_path.to_str().unwrap(),
            "--fast",
            "--report",
            "--ascii",
            "--svg",
            svg_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("routed: true"), "{out}");
        assert!(out.contains("critical path:"));
        assert!(out.contains("% wire used"));
        let svg = std::fs::read_to_string(&svg_path).unwrap();
        assert!(svg.starts_with("<svg"));
    }

    #[test]
    fn layout_with_threads_runs_and_is_deterministic() {
        let dir = std::env::temp_dir().join("rowfpga_cli_threads_test");
        std::fs::create_dir_all(&dir).unwrap();
        let net_path = dir.join("d.net");
        run(&[
            "generate",
            "--cells",
            "40",
            "--inputs",
            "4",
            "--outputs",
            "4",
            "--seq",
            "3",
            "-o",
            net_path.to_str().unwrap(),
        ])
        .unwrap();
        let go = || {
            run(&[
                "layout",
                net_path.to_str().unwrap(),
                "--fast",
                "--seed",
                "5",
                "--threads",
                "2",
            ])
            .unwrap()
        };
        // Wall clock varies run to run; everything else must not.
        let stable = |out: String| -> String {
            let cut = out.find(" moves in ").expect("summary line present");
            out[..cut].to_string()
        };
        let a = go();
        assert!(a.contains("routed: true"), "{a}");
        assert_eq!(
            stable(a),
            stable(go()),
            "two-replica layout must be reproducible"
        );
    }

    #[test]
    fn threads_honour_a_stop_request() {
        let dir = std::env::temp_dir().join("rowfpga_cli_threads_stop_test");
        std::fs::create_dir_all(&dir).unwrap();
        let net_path = dir.join("d.net");
        run(&[
            "generate",
            "--cells",
            "40",
            "-o",
            net_path.to_str().unwrap(),
        ])
        .unwrap();
        let cmd = parse_args(&v(&[
            "layout",
            net_path.to_str().unwrap(),
            "--fast",
            "--threads",
            "2",
        ]))
        .unwrap();
        let stop = StopFlag::manual();
        stop.request_stop();
        let mut out = Vec::new();
        run_command_with_stop(&cmd, &mut out, &stop).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("stop: interrupted"), "{text}");
    }

    #[test]
    fn layout_accepts_a_custom_architecture_file() {
        let dir = std::env::temp_dir().join("rowfpga_cli_arch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let net_path = dir.join("d.net");
        let arch_path = dir.join("f.arch");
        run(&[
            "generate",
            "--cells",
            "30",
            "--inputs",
            "4",
            "--outputs",
            "4",
            "--seq",
            "2",
            "--seed",
            "5",
            "-o",
            net_path.to_str().unwrap(),
        ])
        .unwrap();
        std::fs::write(
            &arch_path,
            "rows 4
cols 14
io_columns 1
tracks_per_channel 20
segmentation uniform 4
verticals longlines 4 3
",
        )
        .unwrap();
        let out = run(&[
            "layout",
            net_path.to_str().unwrap(),
            "--fast",
            "--arch",
            arch_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("4x14 chip, 20 tracks/channel"), "{out}");
        assert!(out.contains("routed: true"), "{out}");
    }

    #[test]
    fn bench_runs_a_preset() {
        let out = run(&["bench", "cse", "--fast", "--flow", "seq"]).unwrap();
        assert!(out.contains("benchmark cse: 156 cells"));
        assert!(out.contains("routed: true"));
    }

    #[test]
    fn journal_and_metrics_flags_produce_artifacts() {
        use rowfpga_obs::{json, Event};

        let dir = std::env::temp_dir().join("rowfpga_cli_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("run.jsonl");
        let out = run(&[
            "bench",
            "s1",
            "--fast",
            "--journal",
            journal_path.to_str().unwrap(),
            "--metrics",
        ])
        .unwrap();
        assert!(out.contains("phase breakdown"), "{out}");
        assert!(out.contains("run journal written to"), "{out}");

        let text = std::fs::read_to_string(&journal_path).unwrap();
        let _ = std::fs::remove_file(&journal_path);
        let docs = json::parse_lines(&text).expect("journal parses as JSONL");
        let events: Vec<Event> = docs.iter().filter_map(Event::from_json).collect();
        assert_eq!(events.len(), docs.len());
        assert!(
            matches!(&events[0], Event::JournalHeader { .. }),
            "journal opens with the schema header"
        );
        assert!(
            matches!(&events[1], Event::RunStart { benchmark, .. } if benchmark == "s1"),
            "run_start follows the header"
        );
        assert!(
            events.iter().any(|e| matches!(e, Event::Temperature(_))),
            "journal has at least one temperature event"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::SpanStart { name, .. } if name == "anneal")),
            "journal carries the causal span tree"
        );
        assert!(
            matches!(events.last(), Some(Event::RunEnd { .. })),
            "journal closes with run_end"
        );
    }

    #[test]
    fn journal_analyze_and_tail_work_end_to_end() {
        use rowfpga_obs::json;

        let dir = std::env::temp_dir().join("rowfpga_cli_analyze_test");
        std::fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("run.jsonl");
        run(&[
            "bench",
            "s1",
            "--fast",
            "--journal",
            journal_path.to_str().unwrap(),
        ])
        .unwrap();

        let out = run(&[
            "analyze",
            journal_path.to_str().unwrap(),
            "--out",
            dir.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("per-temperature"), "{out}");
        assert!(out.contains("analysis written to"), "{out}");
        let json_text = std::fs::read_to_string(dir.join("run.analysis.json")).unwrap();
        let doc = json::parse(&json_text).expect("analysis JSON parses");
        assert_eq!(
            doc.get("schema").and_then(json::Json::as_str),
            Some("rowfpga.analyze/v1")
        );
        let folded = std::fs::read_to_string(dir.join("run.folded")).unwrap();
        assert!(folded.contains("main;anneal"), "{folded}");

        let tail_out = run(&["tail", journal_path.to_str().unwrap(), "--no-follow"]).unwrap();
        assert!(tail_out.contains("done (converged)"), "{tail_out}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_flag_works_for_the_sequential_flow() {
        let out = run(&["bench", "s1", "--fast", "--flow", "seq", "--metrics"]).unwrap();
        assert!(out.contains("phase breakdown"), "{out}");
        assert!(out.contains("place.anneal"), "{out}");
        assert!(out.contains("route.batch"), "{out}");
    }

    #[test]
    fn deadline_checkpoint_and_resume_flow_works_end_to_end() {
        let dir = std::env::temp_dir().join("rowfpga_cli_resilience_test");
        std::fs::create_dir_all(&dir).unwrap();
        let net_path = dir.join("d.net");
        let ckpt = dir.join("d.ckpt.json");
        let _ = std::fs::remove_file(&ckpt);
        run(&[
            "generate",
            "--cells",
            "40",
            "--inputs",
            "4",
            "--outputs",
            "4",
            "--seq",
            "3",
            "-o",
            net_path.to_str().unwrap(),
        ])
        .unwrap();

        // A three-temperature budget stops deterministically mid-anneal
        // and leaves a loadable checkpoint behind. (A zero deadline would
        // stop before any temperature completes, which deliberately does
        // NOT checkpoint: the post-warmup state is not restorable.)
        let out = run(&[
            "layout",
            net_path.to_str().unwrap(),
            "--fast",
            "--temp-budget",
            "3",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "1",
            "--checkpoint-keep",
            "2",
        ])
        .unwrap();
        assert!(out.contains("stop: deadline"), "{out}");
        assert!(ckpt.exists(), "early stop must write a final checkpoint");
        // Retention: per-temperature snapshots left generation siblings,
        // pruned down to the two newest by `--checkpoint-keep 2`.
        let gens = rowfpga_core::list_generations(&ckpt);
        assert!(
            (1..=2).contains(&gens.len()),
            "expected at most 2 retained generations, found {gens:?}"
        );

        // Resuming that checkpoint runs to convergence.
        let out = run(&[
            "layout",
            net_path.to_str().unwrap(),
            "--fast",
            "--resume",
            ckpt.to_str().unwrap(),
            "--audit-every",
            "2",
        ])
        .unwrap();
        assert!(out.contains("stop: converged"), "{out}");
        assert!(out.contains("routed: true"), "{out}");

        // A checkpoint for one seed refuses to resume another.
        let err = run(&[
            "layout",
            net_path.to_str().unwrap(),
            "--fast",
            "--seed",
            "99",
            "--resume",
            ckpt.to_str().unwrap(),
        ])
        .unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("seed"), "mismatch must name the seed: {msg}");
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn unknown_benchmark_is_reported() {
        let err = run(&["bench", "s27", "--fast"]).unwrap_err();
        assert!(matches!(err, CliError::UnknownBenchmark(_)));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = run(&["layout", "/nonexistent/definitely.net", "--fast"]).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }
}
