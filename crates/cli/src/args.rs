//! Dependency-free argument parsing for the `rowfpga` tool.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Which layout flow to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowChoice {
    /// The paper's simultaneous place and route.
    Simultaneous,
    /// The traditional sequential baseline.
    Sequential,
}

impl FlowChoice {
    fn parse(s: &str) -> Result<FlowChoice, ArgError> {
        match s {
            "sim" | "simultaneous" => Ok(FlowChoice::Simultaneous),
            "seq" | "sequential" => Ok(FlowChoice::Sequential),
            other => Err(bad_value("--flow", other, "sim|seq")),
        }
    }
}

/// How many parallel annealing replicas to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadsChoice {
    /// One replica per host core, capped at the host's parallelism.
    Auto,
    /// An explicit replica count (always honored; oversubscription is
    /// warned about, not rejected).
    Count(usize),
}

impl ThreadsChoice {
    fn parse(s: &str) -> Result<ThreadsChoice, ArgError> {
        if s == "auto" {
            return Ok(ThreadsChoice::Auto);
        }
        match s.parse() {
            Ok(0) => Err(bad_value(
                "--threads",
                "0",
                "at least one replica (or `auto`)",
            )),
            Ok(n) => Ok(ThreadsChoice::Count(n)),
            Err(_) => Err(bad_value("--threads", s, "a number")),
        }
    }

    /// The replica count to run with on a host with `host_cores` cores.
    pub fn resolve(self, host_cores: usize) -> usize {
        match self {
            ThreadsChoice::Auto => host_cores.max(1),
            ThreadsChoice::Count(n) => n.max(1),
        }
    }

    /// Whether this choice can produce more than one replica (`auto` may,
    /// depending on the host).
    pub fn may_be_parallel(self) -> bool {
        match self {
            ThreadsChoice::Auto => true,
            ThreadsChoice::Count(n) => n > 1,
        }
    }
}

/// Options shared by the layout-running subcommands.
#[derive(Clone, Debug, PartialEq)]
pub struct CommonOpts {
    /// Which flow to run.
    pub flow: FlowChoice,
    /// Smoke-effort annealing (quick, lower quality).
    pub fast: bool,
    /// Seed for placement and annealing.
    pub seed: u64,
    /// Override tracks per channel (None = sizing default).
    pub tracks: Option<usize>,
    /// Architecture description file (None = auto-size for the design).
    pub arch: Option<String>,
    /// Write an SVG layout plot here.
    pub svg: Option<String>,
    /// Print the ASCII floorplan.
    pub ascii: bool,
    /// Print the critical-path report.
    pub report: bool,
    /// Write a structured JSONL run journal here.
    pub journal: Option<String>,
    /// Print the metrics / phase-profile report after the run.
    pub metrics: bool,
    /// Write periodic checkpoints here.
    pub checkpoint: Option<String>,
    /// Checkpoint cadence in temperature steps.
    pub checkpoint_every: usize,
    /// Checkpoint generations to retain alongside the base file
    /// (0 = base file only, no generation history).
    pub checkpoint_keep: usize,
    /// Resume from this checkpoint file.
    pub resume: Option<String>,
    /// Wall-clock budget in seconds (graceful stop at the next
    /// temperature boundary).
    pub deadline: Option<f64>,
    /// Self-audit cadence in temperature steps (0 = off).
    pub audit_every: usize,
    /// Stop after this many temperature steps (deterministic deadline).
    pub temp_budget: Option<usize>,
    /// Parallel annealing replicas (1 = sequential engine, `auto` = one
    /// per host core).
    pub threads: ThreadsChoice,
}

impl CommonOpts {
    /// The first resilience flag present, if any — these are only
    /// meaningful for the simultaneous flow's single-run subcommands.
    fn resilience_flag(&self) -> Option<&'static str> {
        if self.checkpoint.is_some() {
            Some("--checkpoint")
        } else if self.resume.is_some() {
            Some("--resume")
        } else if self.deadline.is_some() {
            Some("--deadline")
        } else if self.audit_every != 0 {
            Some("--audit-every")
        } else if self.temp_budget.is_some() {
            Some("--temp-budget")
        } else {
            None
        }
    }
}

impl Default for CommonOpts {
    fn default() -> Self {
        Self {
            flow: FlowChoice::Simultaneous,
            fast: false,
            seed: 1,
            tracks: None,
            arch: None,
            svg: None,
            ascii: false,
            report: false,
            journal: None,
            metrics: false,
            checkpoint: None,
            checkpoint_every: 5,
            checkpoint_keep: 3,
            resume: None,
            deadline: None,
            audit_every: 0,
            temp_budget: None,
            threads: ThreadsChoice::Count(1),
        }
    }
}

/// A parsed invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Emit a synthetic netlist.
    Generate {
        /// Total cells.
        cells: usize,
        /// Primary inputs.
        inputs: usize,
        /// Primary outputs.
        outputs: usize,
        /// Sequential cells.
        seq: usize,
        /// Generator seed.
        seed: u64,
        /// Output file (`-` = stdout).
        output: String,
    },
    /// Lay out a netlist file.
    Layout {
        /// Input netlist path.
        input: String,
        /// Parse as BLIF instead of the native format.
        blif: bool,
        /// Shared layout options.
        opts: CommonOpts,
    },
    /// Find minimum tracks/channel for 100 % wirability.
    MinTracks {
        /// Input netlist path.
        input: String,
        /// Parse as BLIF instead of the native format.
        blif: bool,
        /// Scan start (tracks).
        start: usize,
        /// Shared layout options.
        opts: CommonOpts,
    },
    /// Run a paper preset benchmark by name.
    Bench {
        /// Benchmark name (s1, cse, ex1, bw, s1a, big529).
        name: String,
        /// Shared layout options.
        opts: CommonOpts,
    },
    /// Fuzz the incremental engine against the differential oracles.
    Fuzz {
        /// Wall-clock budget in seconds (checked between iterations).
        seconds: Option<u64>,
        /// Iteration budget.
        iters: Option<u64>,
        /// Base seed for case and script generation.
        seed: u64,
        /// Directory receiving shrunk repros (`.arch`, `.net` and
        /// `.repro.json` files).
        corpus: Option<String>,
        /// Smallest generated netlist, in cells.
        min_cells: usize,
        /// Largest generated netlist, in cells.
        max_cells: usize,
        /// Replay one saved repro instead of fuzzing.
        replay: Option<String>,
    },
    /// Follow a run journal (file or Unix socket) and render live
    /// progress.
    Tail {
        /// A journal file path, or a `unix:PATH` socket spec.
        source: String,
        /// For `unix:` sources: bind and accept instead of connecting
        /// (pair with a run started with `--journal unix:PATH`).
        listen: bool,
        /// For file sources: keep polling for new lines after EOF.
        follow: bool,
    },
    /// Fold a run journal into a convergence-analytics report.
    Analyze {
        /// Journal path (JSONL, as written by `--journal`).
        journal: String,
        /// Directory receiving the JSON / text / folded-stack reports.
        out_dir: String,
        /// Suppress the text report on stdout.
        quiet: bool,
    },
    /// Run the layout-as-a-service job daemon.
    Serve {
        /// Unix socket to listen on.
        socket: String,
        /// Spool directory for durable job state.
        spool: String,
        /// Concurrent layout workers.
        workers: usize,
        /// Bounded queue capacity (full = reject with a retry hint).
        queue: usize,
        /// Checkpoint cadence for jobs, in temperature steps.
        checkpoint_every: usize,
        /// Checkpoint generations retained per job.
        checkpoint_keep: usize,
    },
    /// Submit a netlist to a running daemon.
    Submit {
        /// Input netlist path (native format).
        input: String,
        /// The daemon's unix socket.
        socket: String,
        /// Placement seed.
        seed: u64,
        /// Scheduling priority (higher runs first, may evict lower).
        priority: i64,
        /// Execution budget in seconds (expiry completes with
        /// best-so-far).
        deadline: Option<f64>,
        /// Low-effort annealing profile.
        fast: bool,
        /// Tracks-per-channel override.
        tracks: Option<usize>,
        /// Architecture description file (read and embedded in the job).
        arch: Option<String>,
        /// Per-job journal sink spec (file path or `unix:PATH`).
        journal: Option<String>,
        /// Block until the job finishes and print its result.
        wait: bool,
        /// Give up waiting after this many seconds.
        timeout: f64,
    },
    /// List a daemon's jobs, or show one job in detail.
    Jobs {
        /// The daemon's unix socket.
        socket: String,
        /// A job id to show in detail (absent = list all).
        job: Option<String>,
    },
    /// Cancel a queued or running job.
    CancelJob {
        /// The daemon's unix socket.
        socket: String,
        /// The job to cancel.
        job: String,
    },
    /// Run the domain lint engine over the workspace.
    Lint {
        /// Emit the machine-readable JSON report instead of text.
        json: bool,
        /// Rewrite `lint-budget.toml` with the observed (never higher)
        /// panic counts.
        fix_budget: bool,
        /// Print the rationale for one lint family and exit.
        explain: Option<String>,
        /// Workspace root to lint (default: current directory).
        root: Option<String>,
    },
    /// Print usage.
    Help,
}

/// Argument errors with actionable messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Unknown flag for the subcommand.
    UnknownFlag(String),
    /// A flag was given without its value.
    MissingValue(String),
    /// A flag value failed to parse.
    BadValue {
        /// The flag.
        flag: String,
        /// The offending value.
        value: String,
        /// What was expected.
        expected: String,
    },
    /// A required positional argument is missing.
    MissingInput,
    /// A required flag was not given.
    MissingFlag(String),
    /// Two flags contradict each other.
    Conflict {
        /// What contradicts what, and why.
        detail: String,
    },
    /// A positional argument beyond the one the subcommand takes.
    ExtraArgument(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => {
                write!(f, "missing subcommand; try `rowfpga help`")
            }
            ArgError::UnknownCommand(c) => {
                write!(f, "unknown subcommand `{c}`; try `rowfpga help`")
            }
            ArgError::UnknownFlag(x) => write!(f, "unknown flag `{x}`"),
            ArgError::MissingValue(x) => write!(f, "flag `{x}` needs a value"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "bad value `{value}` for `{flag}` (expected {expected})"),
            ArgError::MissingInput => write!(f, "missing input netlist path"),
            ArgError::MissingFlag(x) => write!(f, "required flag `{x}` is missing"),
            ArgError::Conflict { detail } => write!(f, "conflicting flags: {detail}"),
            ArgError::ExtraArgument(x) => write!(f, "unexpected extra argument `{x}`"),
        }
    }
}

impl Error for ArgError {}

/// Usage text printed by `rowfpga help`.
pub const USAGE: &str = "\
rowfpga — simultaneous place and route for row-based FPGAs (DAC 1994)

USAGE:
  rowfpga generate [--cells N] [--inputs N] [--outputs N] [--seq N]
                   [--seed N] [-o FILE]
  rowfpga layout   <netlist> [--blif] [--flow sim|seq] [--fast] [--seed N]
                   [--tracks N] [--arch FILE] [--svg FILE] [--ascii]
                   [--report] [--journal FILE] [--metrics]
                   [--checkpoint FILE] [--checkpoint-every N]
                   [--checkpoint-keep N] [--resume FILE] [--deadline SECS]
                   [--audit-every N] [--temp-budget N] [--threads N]
  rowfpga mintracks <netlist> [--blif] [--flow sim|seq] [--fast] [--seed N]
                   [--start N] [--arch FILE] [--threads N]
  rowfpga bench    <s1|cse|ex1|bw|s1a|big529> [--flow sim|seq] [--fast]
                   [--seed N] [--tracks N] [--arch FILE] [--svg FILE]
                   [--ascii] [--report] [--journal FILE] [--metrics]
                   [--checkpoint FILE] [--checkpoint-every N]
                   [--checkpoint-keep N] [--resume FILE] [--deadline SECS]
                   [--audit-every N] [--temp-budget N] [--threads N]
  rowfpga fuzz     [--seconds N] [--iters N] [--seed N] [--corpus DIR]
                   [--min-cells N] [--max-cells N]
  rowfpga fuzz     --replay FILE.repro.json
  rowfpga serve    --socket PATH --spool DIR [--workers N] [--queue N]
                   [--checkpoint-every N] [--checkpoint-keep N]
  rowfpga submit   <netlist> --socket PATH [--seed N] [--priority N]
                   [--deadline SECS] [--fast] [--tracks N] [--arch FILE]
                   [--journal DEST] [--wait] [--timeout SECS]
  rowfpga jobs     --socket PATH [JOB]
  rowfpga cancel   --socket PATH JOB
  rowfpga tail     <journal.jsonl | unix:PATH> [--listen] [--no-follow]
  rowfpga analyze  <journal.jsonl> [--out DIR] [--quiet]
  rowfpga lint     [--json] [--fix-budget] [--explain LINT] [--root DIR]
  rowfpga help

PARALLELISM (simultaneous flow only):
  --threads N|auto anneal N independent replicas on N threads, exchanging
                   the best layout at temperature boundaries; deterministic
                   for a fixed (seed, N), and N=1 is the sequential engine.
                   Works with every resilience flag: checkpoints hold all N
                   replicas, and a resume needs the same N. `auto` caps the
                   replica count at the host's cores; an explicit N above
                   that runs anyway with a journaled `oversubscribed`
                   warning

OBSERVABILITY:
  --journal DEST   write a structured JSONL run journal (schema header,
                   run_start, causal span_start/span_end tree, one line
                   per temperature, dynamics samples, reroute / exchange
                   events, run_end with a metrics snapshot). DEST is a
                   file path, or `unix:PATH` to stream to a listening
                   `rowfpga tail unix:PATH --listen`
  --metrics        print the phase/counter/histogram report after the run
  rowfpga tail     renders live progress (temperature, cost, acceptance,
                   per-replica best, ETA) from a journal file or socket
  rowfpga analyze  folds a finished journal into per-temperature
                   acceptance, delta-cost histograms, plateau and
                   replica-exchange analytics plus a folded-stack span
                   profile (flamegraph-ready), written under --out

SERVICE (layout-as-a-service; see DESIGN.md \u{a7}13):
  rowfpga serve runs a crash-safe job daemon on a unix socket: a bounded
  queue feeds a worker pool, every accepted job is durable in the spool
  before it is acknowledged, higher-priority submissions evict running
  jobs at a checkpoint (they resume later, bit-identically), deadline
  expiry completes with best-so-far, and a full queue rejects with a
  `retry_after_sec` hint. SIGTERM/SIGINT (or a client `shutdown`) drains:
  running jobs checkpoint, the queue persists, and the daemon exits 0; a
  restart on the same spool resumes where it left off — even after a
  SIGKILL. `submit` sends a job (embedding the netlist and any `--arch`
  file, so the daemon never reads the client's paths), `jobs` lists or
  inspects them, `cancel` stops one.

RESILIENCE (simultaneous flow only; `layout` and `bench`):
  --checkpoint FILE     atomically snapshot the full annealer state here
  --checkpoint-every N  snapshot cadence in temperature steps (default 5)
  --checkpoint-keep N   retained checkpoint generations besides the base
                        file (default 3; 0 = base file only); pruning
                        never removes the only valid snapshot
  --resume FILE         restart from a checkpoint; the file must match the
                        current architecture, netlist and seed
  --deadline SECS       wall-clock budget; the run finishes the current
                        temperature, checkpoints, and returns best-so-far
  --audit-every N       re-verify incremental state against ground truth
                        every N temperatures, repairing on divergence
  --temp-budget N       stop after N temperatures (deterministic deadline)

SIGINT (ctrl-c) is handled like a deadline: the current temperature
finishes, a final checkpoint is written, and the best layout so far is
returned with `stop: interrupted`.

FUZZING:
  rowfpga fuzz draws random architectures and netlists, replays random
  move scripts through the incremental engine, and cross-checks every
  iteration against from-scratch rebuilds (routing occupancy, detailed
  routes, Elmore timing bit for bit), rollback identity, checkpoint
  round trips and crash windows, and K-replica determinism. Failures are
  reduced to 1-minimal scripts with delta debugging and written to
  `--corpus` as `.arch`, `.net` and `.repro.json` files; `--replay`
  re-runs one such repro. With neither `--seconds` nor `--iters`, 20
  iterations run. Exit status is non-zero when any violation is found
  (or reproduced).

LINTING:
  rowfpga lint runs the workspace's domain lints (see DESIGN.md \u{a7}11
  and \u{a7}14): allocation-freedom in `rowfpga-lint: hot-path` modules,
  the per-crate panic budget ratchet against lint-budget.toml,
  feature-gating of fault hooks, `#![forbid(unsafe_code)]` in every lib
  crate, and the interprocedural analyses (determinism taint, panic
  reachability, durability ordering, lock discipline) over the
  workspace call graph. The direct HashMap/clock bans are clippy's,
  through clippy.toml. `--json` writes the CI artifact report to
  stdout; `--fix-budget` re-records the panics / reachability budgets
  (downward only); `--explain LINT` prints the rationale for one lint
  family (e.g. `--explain taint`) and exits. Exit status is non-zero
  when any violation is found.
";

fn bad_value(flag: &str, value: &str, expected: &str) -> ArgError {
    ArgError::BadValue {
        flag: flag.into(),
        value: value.into(),
        expected: expected.into(),
    }
}

/// A cursor over one subcommand's arguments. The subcommand matches each
/// flag that [`Cursor::next`] yields and reads its value with
/// [`Cursor::value`], [`Cursor::num`] or [`Cursor::secs`]; any other
/// argument goes to [`Cursor::positional`], which keeps at most one.
struct Cursor<'a> {
    rest: &'a [String],
    positional: Option<String>,
}

impl<'a> Cursor<'a> {
    fn new(rest: &'a [String]) -> Self {
        Cursor {
            rest,
            positional: None,
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        let (first, rest) = self.rest.split_first()?;
        self.rest = rest;
        Some(first)
    }

    /// The argument after `flag`, verbatim.
    fn value(&mut self, flag: &str) -> Result<String, ArgError> {
        self.next()
            .map(str::to_owned)
            .ok_or_else(|| ArgError::MissingValue(flag.into()))
    }

    /// The argument after `flag`, parsed as a number.
    fn num<T: FromStr>(&mut self, flag: &str) -> Result<T, ArgError> {
        let v = self.value(flag)?;
        v.parse().map_err(|_| bad_value(flag, &v, "a number"))
    }

    /// The argument after `flag` as a finite number of seconds: above zero
    /// when `positive`, else at least zero.
    fn secs(&mut self, flag: &str, positive: bool) -> Result<f64, ArgError> {
        let v = self.value(flag)?;
        match v.parse::<f64>() {
            Ok(s) if s.is_finite() && (s > 0.0 || s == 0.0 && !positive) => Ok(s),
            Ok(_) if positive => Err(bad_value(flag, &v, "a positive number of seconds")),
            Ok(_) => Err(bad_value(flag, &v, "a non-negative number of seconds")),
            Err(_) => Err(bad_value(flag, &v, "a number")),
        }
    }

    /// Keeps `arg` as the subcommand's one positional argument.
    fn positional(&mut self, arg: &str) -> Result<(), ArgError> {
        if arg.starts_with("--") {
            return Err(ArgError::UnknownFlag(arg.into()));
        }
        if self.positional.is_some() {
            return Err(ArgError::ExtraArgument(arg.into()));
        }
        self.positional = Some(arg.into());
        Ok(())
    }
}

/// Parses the layout flags shared by `layout`, `mintracks` and `bench`,
/// offering every other flag to `own` (which returns whether it took it),
/// and returns the options with the positional argument.
fn parse_common<'a>(
    mut c: Cursor<'a>,
    mut own: impl FnMut(&str, &mut Cursor<'a>) -> Result<bool, ArgError>,
) -> Result<(CommonOpts, Option<String>), ArgError> {
    let mut opts = CommonOpts::default();
    let mut cadence_given = false;
    let mut keep_given = false;
    while let Some(flag) = c.next() {
        match flag {
            "--flow" => opts.flow = FlowChoice::parse(&c.value(flag)?)?,
            "--fast" => opts.fast = true,
            "--seed" => opts.seed = c.num(flag)?,
            "--tracks" => opts.tracks = Some(c.num(flag)?),
            "--svg" => opts.svg = Some(c.value(flag)?),
            "--arch" => opts.arch = Some(c.value(flag)?),
            "--ascii" => opts.ascii = true,
            "--report" => opts.report = true,
            "--journal" => opts.journal = Some(c.value(flag)?),
            "--metrics" => opts.metrics = true,
            "--checkpoint" => opts.checkpoint = Some(c.value(flag)?),
            "--checkpoint-every" => {
                opts.checkpoint_every = c.num(flag)?;
                cadence_given = true;
            }
            "--checkpoint-keep" => {
                opts.checkpoint_keep = c.num(flag)?;
                keep_given = true;
            }
            "--resume" => opts.resume = Some(c.value(flag)?),
            "--deadline" => opts.deadline = Some(c.secs(flag, false)?),
            "--audit-every" => opts.audit_every = c.num(flag)?,
            "--temp-budget" => opts.temp_budget = Some(c.num(flag)?),
            "--threads" => opts.threads = ThreadsChoice::parse(&c.value(flag)?)?,
            _ if own(flag, &mut c)? => {}
            _ => c.positional(flag)?,
        }
    }
    for (given, flag) in [
        (cadence_given, "--checkpoint-every"),
        (keep_given, "--checkpoint-keep"),
    ] {
        if given && opts.checkpoint.is_none() && opts.resume.is_none() {
            return Err(ArgError::Conflict {
                detail: format!("`{flag}` has no effect without `--checkpoint`"),
            });
        }
    }
    if opts.checkpoint_every == 0 {
        return Err(bad_value(
            "--checkpoint-every",
            "0",
            "a cadence of at least 1 temperature step",
        ));
    }
    if opts.flow == FlowChoice::Sequential {
        if let Some(flag) = opts.resilience_flag() {
            return Err(ArgError::Conflict {
                detail: format!(
                    "`{flag}` requires the simultaneous flow; the sequential \
                     baseline has no checkpoint/audit support (drop `--flow seq`)"
                ),
            });
        }
        if opts.threads.may_be_parallel() {
            return Err(ArgError::Conflict {
                detail: "`--threads` requires the simultaneous flow; the sequential \
                         baseline anneals placement only (drop `--flow seq`)"
                    .into(),
            });
        }
    }
    Ok((opts, c.positional))
}

/// Parses a full argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, ArgError> {
    let Some(cmd) = args.first() else {
        return Err(ArgError::MissingCommand);
    };
    let mut c = Cursor::new(&args[1..]);
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => {
            let mut cells = 100usize;
            let mut inputs = 8usize;
            let mut outputs = 8usize;
            let mut seq = 6usize;
            let mut seed = 1u64;
            let mut output = "-".to_owned();
            while let Some(flag) = c.next() {
                match flag {
                    "--cells" => cells = c.num(flag)?,
                    "--inputs" => inputs = c.num(flag)?,
                    "--outputs" => outputs = c.num(flag)?,
                    "--seq" => seq = c.num(flag)?,
                    "--seed" => seed = c.num(flag)?,
                    "-o" | "--output" => output = c.value("-o")?,
                    _ => return Err(ArgError::UnknownFlag(flag.into())),
                }
            }
            Ok(Command::Generate {
                cells,
                inputs,
                outputs,
                seq,
                seed,
                output,
            })
        }
        "layout" => {
            let mut blif = false;
            let (opts, input) = parse_common(c, |flag, _| {
                blif |= flag == "--blif";
                Ok(flag == "--blif")
            })?;
            let input = input.ok_or(ArgError::MissingInput)?;
            Ok(Command::Layout { input, blif, opts })
        }
        "mintracks" => {
            let mut blif = false;
            let mut start = 36usize;
            let (opts, input) = parse_common(c, |flag, c| {
                match flag {
                    "--blif" => blif = true,
                    "--start" => start = c.num(flag)?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            if let Some(flag) = opts.resilience_flag() {
                return Err(ArgError::Conflict {
                    detail: format!(
                        "`{flag}` does not apply to `mintracks`, which runs \
                         one layout per track count"
                    ),
                });
            }
            Ok(Command::MinTracks {
                input: input.ok_or(ArgError::MissingInput)?,
                blif,
                start,
                opts,
            })
        }
        "bench" => {
            let (opts, name) = parse_common(c, |_, _| Ok(false))?;
            let name = name.ok_or(ArgError::MissingInput)?;
            Ok(Command::Bench { name, opts })
        }
        "fuzz" => {
            let mut seconds = None;
            let mut iters = None;
            let mut seed = 1u64;
            let mut corpus = None;
            let mut min_cells = 20usize;
            let mut max_cells = 400usize;
            let mut replay = None;
            while let Some(flag) = c.next() {
                match flag {
                    "--seconds" => seconds = Some(c.num(flag)?),
                    "--iters" => iters = Some(c.num(flag)?),
                    "--seed" => seed = c.num(flag)?,
                    "--corpus" => corpus = Some(c.value(flag)?),
                    "--min-cells" => min_cells = c.num(flag)?,
                    "--max-cells" => max_cells = c.num(flag)?,
                    "--replay" => replay = Some(c.value(flag)?),
                    _ => return Err(ArgError::UnknownFlag(flag.into())),
                }
            }
            if min_cells > max_cells {
                return Err(ArgError::Conflict {
                    detail: format!("`--min-cells {min_cells}` exceeds `--max-cells {max_cells}`"),
                });
            }
            if replay.is_some() && (seconds.is_some() || iters.is_some() || corpus.is_some()) {
                return Err(ArgError::Conflict {
                    detail: "`--replay` re-runs one saved repro; the campaign flags \
                             `--seconds`/`--iters`/`--corpus` do not apply"
                        .into(),
                });
            }
            Ok(Command::Fuzz {
                seconds,
                iters,
                seed,
                corpus,
                min_cells,
                max_cells,
                replay,
            })
        }
        "tail" => {
            let mut listen = false;
            let mut follow = true;
            while let Some(flag) = c.next() {
                match flag {
                    "--listen" => listen = true,
                    "--no-follow" => follow = false,
                    _ => c.positional(flag)?,
                }
            }
            let source = c.positional.ok_or(ArgError::MissingInput)?;
            if listen && !source.starts_with("unix:") {
                return Err(ArgError::Conflict {
                    detail: "`--listen` needs a `unix:PATH` source to bind".into(),
                });
            }
            Ok(Command::Tail {
                source,
                listen,
                follow,
            })
        }
        "analyze" => {
            let mut out_dir = "results".to_owned();
            let mut quiet = false;
            while let Some(flag) = c.next() {
                match flag {
                    "--out" => out_dir = c.value(flag)?,
                    "--quiet" => quiet = true,
                    _ => c.positional(flag)?,
                }
            }
            Ok(Command::Analyze {
                journal: c.positional.ok_or(ArgError::MissingInput)?,
                out_dir,
                quiet,
            })
        }
        "lint" => {
            let mut json = false;
            let mut fix_budget = false;
            let mut explain = None;
            let mut root = None;
            while let Some(flag) = c.next() {
                match flag {
                    "--json" => json = true,
                    "--fix-budget" => fix_budget = true,
                    "--explain" => explain = Some(c.value(flag)?),
                    "--root" => root = Some(c.value(flag)?),
                    _ => return Err(ArgError::UnknownFlag(flag.into())),
                }
            }
            Ok(Command::Lint {
                json,
                fix_budget,
                explain,
                root,
            })
        }
        "serve" => {
            let mut socket = None;
            let mut spool = None;
            let mut workers = 1usize;
            let mut queue = 16usize;
            let mut checkpoint_every = 1usize;
            let mut checkpoint_keep = 3usize;
            while let Some(flag) = c.next() {
                match flag {
                    "--socket" => socket = Some(c.value(flag)?),
                    "--spool" => spool = Some(c.value(flag)?),
                    "--workers" => workers = c.num(flag)?,
                    "--queue" => queue = c.num(flag)?,
                    "--checkpoint-every" => checkpoint_every = c.num(flag)?,
                    "--checkpoint-keep" => checkpoint_keep = c.num(flag)?,
                    _ => return Err(ArgError::UnknownFlag(flag.into())),
                }
            }
            for (flag, value) in [
                ("--workers", workers),
                ("--queue", queue),
                ("--checkpoint-every", checkpoint_every),
            ] {
                if value == 0 {
                    return Err(bad_value(flag, "0", "at least 1"));
                }
            }
            Ok(Command::Serve {
                socket: socket.ok_or_else(|| ArgError::MissingFlag("--socket".into()))?,
                spool: spool.ok_or_else(|| ArgError::MissingFlag("--spool".into()))?,
                workers,
                queue,
                checkpoint_every,
                checkpoint_keep,
            })
        }
        "submit" => {
            let mut socket = None;
            let mut seed = 1u64;
            let mut priority = 0i64;
            let mut deadline = None;
            let mut fast = false;
            let mut tracks = None;
            let mut arch = None;
            let mut journal = None;
            let mut wait = false;
            let mut timeout = 600.0f64;
            while let Some(flag) = c.next() {
                match flag {
                    "--socket" => socket = Some(c.value(flag)?),
                    "--seed" => seed = c.num(flag)?,
                    "--priority" => priority = c.num(flag)?,
                    "--deadline" => deadline = Some(c.secs(flag, true)?),
                    "--fast" => fast = true,
                    "--tracks" => tracks = Some(c.num(flag)?),
                    "--arch" => arch = Some(c.value(flag)?),
                    "--journal" => journal = Some(c.value(flag)?),
                    "--wait" => wait = true,
                    "--timeout" => timeout = c.secs(flag, true)?,
                    _ => c.positional(flag)?,
                }
            }
            Ok(Command::Submit {
                input: c.positional.ok_or(ArgError::MissingInput)?,
                socket: socket.ok_or_else(|| ArgError::MissingFlag("--socket".into()))?,
                seed,
                priority,
                deadline,
                fast,
                tracks,
                arch,
                journal,
                wait,
                timeout,
            })
        }
        "jobs" | "cancel" => {
            let mut socket = None;
            while let Some(flag) = c.next() {
                match flag {
                    "--socket" => socket = Some(c.value(flag)?),
                    _ => c.positional(flag)?,
                }
            }
            let socket = socket.ok_or_else(|| ArgError::MissingFlag("--socket".into()))?;
            if cmd == "jobs" {
                return Ok(Command::Jobs {
                    socket,
                    job: c.positional,
                });
            }
            Ok(Command::CancelJob {
                socket,
                job: c.positional.ok_or(ArgError::MissingInput)?,
            })
        }
        other => Err(ArgError::UnknownCommand(other.into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_generate_defaults_and_overrides() {
        let c = parse_args(&v(&["generate"])).unwrap();
        assert!(matches!(c, Command::Generate { cells: 100, .. }));
        let c = parse_args(&v(&[
            "generate", "--cells", "200", "--seq", "12", "-o", "x.net",
        ]))
        .unwrap();
        match c {
            Command::Generate {
                cells, seq, output, ..
            } => {
                assert_eq!(cells, 200);
                assert_eq!(seq, 12);
                assert_eq!(output, "x.net");
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parses_layout_with_options() {
        let c = parse_args(&v(&[
            "layout", "d.net", "--flow", "seq", "--fast", "--tracks", "20", "--svg", "o.svg",
            "--report",
        ]))
        .unwrap();
        match c {
            Command::Layout { input, blif, opts } => {
                assert_eq!(input, "d.net");
                assert!(!blif);
                assert_eq!(opts.flow, FlowChoice::Sequential);
                assert!(opts.fast);
                assert_eq!(opts.tracks, Some(20));
                assert_eq!(opts.svg.as_deref(), Some("o.svg"));
                assert!(opts.report);
                assert_eq!(opts.journal, None);
                assert!(!opts.metrics);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parses_observability_flags() {
        let c = parse_args(&v(&[
            "bench",
            "s1",
            "--fast",
            "--journal",
            "run.jsonl",
            "--metrics",
        ]))
        .unwrap();
        match c {
            Command::Bench { opts, .. } => {
                assert_eq!(opts.journal.as_deref(), Some("run.jsonl"));
                assert!(opts.metrics);
            }
            _ => panic!("wrong command"),
        }
        assert!(matches!(
            parse_args(&v(&["layout", "d.net", "--journal"])).unwrap_err(),
            ArgError::MissingValue(_)
        ));
        assert!(USAGE.contains("--journal"));
    }

    #[test]
    fn parses_blif_flag() {
        let c = parse_args(&v(&["layout", "d.blif", "--blif"])).unwrap();
        assert!(matches!(c, Command::Layout { blif: true, .. }));
    }

    #[test]
    fn parses_mintracks_with_start() {
        let c = parse_args(&v(&["mintracks", "d.net", "--start", "24"])).unwrap();
        match c {
            Command::MinTracks { input, start, .. } => {
                assert_eq!(input, "d.net");
                assert_eq!(start, 24);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parses_bench() {
        let c = parse_args(&v(&["bench", "cse", "--fast"])).unwrap();
        match c {
            Command::Bench { name, opts } => {
                assert_eq!(name, "cse");
                assert!(opts.fast);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn bench_usage_lists_the_shared_flags_it_parses() {
        let entry = USAGE
            .split("\n  rowfpga ")
            .find(|e| e.starts_with("bench "))
            .unwrap();
        let cases: [&[&str]; 8] = [
            &["--arch", "chip.arch"],
            &["--audit-every", "1"],
            &["--deadline", "5"],
            &["--temp-budget", "3"],
            &["--checkpoint", "ck.json"],
            &["--checkpoint-every", "2", "--checkpoint", "ck.json"],
            &["--checkpoint-keep", "1", "--checkpoint", "ck.json"],
            &["--resume", "ck.json"],
        ];
        for flags in cases {
            let flag = flags[0];
            assert!(
                entry.contains(&format!("[{flag} ")),
                "`{flag}` missing from the bench usage entry"
            );
            let mut argv = vec!["bench", "cse"];
            argv.extend(flags);
            assert!(
                matches!(parse_args(&v(&argv)), Ok(Command::Bench { .. })),
                "`bench cse {flags:?}` does not parse"
            );
        }
    }

    #[test]
    fn reports_errors_helpfully() {
        assert_eq!(parse_args(&[]).unwrap_err(), ArgError::MissingCommand);
        assert!(matches!(
            parse_args(&v(&["frobnicate"])).unwrap_err(),
            ArgError::UnknownCommand(_)
        ));
        assert!(matches!(
            parse_args(&v(&["layout"])).unwrap_err(),
            ArgError::MissingInput
        ));
        assert!(matches!(
            parse_args(&v(&["layout", "d.net", "--bogus"])).unwrap_err(),
            ArgError::UnknownFlag(_)
        ));
        assert!(matches!(
            parse_args(&v(&["layout", "d.net", "--seed"])).unwrap_err(),
            ArgError::MissingValue(_)
        ));
        assert!(matches!(
            parse_args(&v(&["layout", "d.net", "--flow", "magic"])).unwrap_err(),
            ArgError::BadValue { .. }
        ));
        assert!(matches!(
            parse_args(&v(&["generate", "--cells", "many"])).unwrap_err(),
            ArgError::BadValue { .. }
        ));
    }

    #[test]
    fn parses_resilience_flags() {
        let c = parse_args(&v(&[
            "layout",
            "d.net",
            "--checkpoint",
            "ck.json",
            "--checkpoint-every",
            "3",
            "--deadline",
            "2.5",
            "--audit-every",
            "4",
            "--temp-budget",
            "10",
        ]))
        .unwrap();
        match c {
            Command::Layout { opts, .. } => {
                assert_eq!(opts.checkpoint.as_deref(), Some("ck.json"));
                assert_eq!(opts.checkpoint_every, 3);
                assert_eq!(opts.deadline, Some(2.5));
                assert_eq!(opts.audit_every, 4);
                assert_eq!(opts.temp_budget, Some(10));
                assert_eq!(opts.resume, None);
            }
            _ => panic!("wrong command"),
        }
        let c = parse_args(&v(&["layout", "d.net", "--resume", "ck.json"])).unwrap();
        match c {
            Command::Layout { opts, .. } => assert_eq!(opts.resume.as_deref(), Some("ck.json")),
            _ => panic!("wrong command"),
        }
        assert!(USAGE.contains("--checkpoint"));
        assert!(USAGE.contains("--resume"));
    }

    #[test]
    fn parses_threads() {
        let c = parse_args(&v(&["layout", "d.net", "--threads", "4"])).unwrap();
        match c {
            Command::Layout { opts, .. } => assert_eq!(opts.threads, ThreadsChoice::Count(4)),
            _ => panic!("wrong command"),
        }
        // Default is a single (sequential) replica.
        match parse_args(&v(&["layout", "d.net"])).unwrap() {
            Command::Layout { opts, .. } => assert_eq!(opts.threads, ThreadsChoice::Count(1)),
            _ => panic!("wrong command"),
        }
        // `auto` defers the count to the host's parallelism.
        match parse_args(&v(&["layout", "d.net", "--threads", "auto"])).unwrap() {
            Command::Layout { opts, .. } => {
                assert_eq!(opts.threads, ThreadsChoice::Auto);
                assert_eq!(opts.threads.resolve(8), 8);
                assert_eq!(opts.threads.resolve(0), 1);
            }
            _ => panic!("wrong command"),
        }
        assert_eq!(ThreadsChoice::Count(4).resolve(1), 4, "explicit N wins");
        assert!(USAGE.contains("--threads"));
    }

    #[test]
    fn rejects_bad_threads_combos() {
        // Zero replicas is meaningless.
        assert!(matches!(
            parse_args(&v(&["layout", "d.net", "--threads", "0"])).unwrap_err(),
            ArgError::BadValue { .. }
        ));
        // The sequential baseline has no parallel mode.
        assert!(matches!(
            parse_args(&v(&["layout", "d.net", "--flow", "seq", "--threads", "2"])).unwrap_err(),
            ArgError::Conflict { .. }
        ));
        // Every resilience flag combines with any replica count.
        for flag in [
            &["--checkpoint", "ck.json"][..],
            &["--resume", "ck.json"][..],
            &["--deadline", "5"][..],
            &["--audit-every", "2"][..],
            &["--temp-budget", "9"][..],
        ] {
            for threads in ["1", "2", "auto"] {
                let mut args = v(&["layout", "d.net", "--threads", threads]);
                args.extend(flag.iter().map(|s| s.to_string()));
                assert!(
                    parse_args(&args).is_ok(),
                    "{flag:?} with --threads {threads}"
                );
            }
        }
        assert!(matches!(
            parse_args(&v(&[
                "layout",
                "d.net",
                "--flow",
                "seq",
                "--threads",
                "auto"
            ]))
            .unwrap_err(),
            ArgError::Conflict { .. }
        ));
    }

    #[test]
    fn parses_tail_and_analyze() {
        match parse_args(&v(&["tail", "run.jsonl", "--no-follow"])).unwrap() {
            Command::Tail {
                source,
                listen,
                follow,
            } => {
                assert_eq!(source, "run.jsonl");
                assert!(!listen);
                assert!(!follow);
            }
            _ => panic!("wrong command"),
        }
        match parse_args(&v(&["tail", "unix:/tmp/r.sock", "--listen"])).unwrap() {
            Command::Tail { source, listen, .. } => {
                assert_eq!(source, "unix:/tmp/r.sock");
                assert!(listen);
            }
            _ => panic!("wrong command"),
        }
        assert!(matches!(
            parse_args(&v(&["tail", "run.jsonl", "--listen"])).unwrap_err(),
            ArgError::Conflict { .. }
        ));
        assert!(matches!(
            parse_args(&v(&["tail"])).unwrap_err(),
            ArgError::MissingInput
        ));
        match parse_args(&v(&["analyze", "run.jsonl"])).unwrap() {
            Command::Analyze {
                journal,
                out_dir,
                quiet,
            } => {
                assert_eq!(journal, "run.jsonl");
                assert_eq!(out_dir, "results");
                assert!(!quiet);
            }
            _ => panic!("wrong command"),
        }
        match parse_args(&v(&["analyze", "run.jsonl", "--out", "rep", "--quiet"])).unwrap() {
            Command::Analyze { out_dir, quiet, .. } => {
                assert_eq!(out_dir, "rep");
                assert!(quiet);
            }
            _ => panic!("wrong command"),
        }
        assert!(USAGE.contains("rowfpga tail"));
        assert!(USAGE.contains("rowfpga analyze"));
    }

    #[test]
    fn rejects_contradictory_resilience_combos() {
        // Cadence without a checkpoint destination is a no-op the user
        // almost certainly did not intend.
        assert!(matches!(
            parse_args(&v(&["layout", "d.net", "--checkpoint-every", "3"])).unwrap_err(),
            ArgError::Conflict { .. }
        ));
        // ... but it is fine when resuming (the resumed run checkpoints on).
        assert!(parse_args(&v(&[
            "layout",
            "d.net",
            "--resume",
            "ck.json",
            "--checkpoint",
            "ck.json",
            "--checkpoint-every",
            "2",
        ]))
        .is_ok());
        // The sequential baseline has no resilience support.
        for flag in [
            &["--checkpoint", "ck.json"][..],
            &["--resume", "ck.json"][..],
            &["--deadline", "5"][..],
            &["--audit-every", "2"][..],
            &["--temp-budget", "9"][..],
        ] {
            let mut args = v(&["layout", "d.net", "--flow", "seq"]);
            args.extend(flag.iter().map(|s| s.to_string()));
            let err = parse_args(&args).unwrap_err();
            assert!(
                matches!(&err, ArgError::Conflict { detail } if detail.contains(flag[0])),
                "{flag:?} with --flow seq must conflict, got {err:?}"
            );
        }
        // mintracks runs many layouts; a single checkpoint is meaningless.
        assert!(matches!(
            parse_args(&v(&["mintracks", "d.net", "--checkpoint", "ck.json"])).unwrap_err(),
            ArgError::Conflict { .. }
        ));
        // Degenerate values get value errors, not silent clamping.
        assert!(matches!(
            parse_args(&v(&[
                "layout",
                "d.net",
                "--checkpoint",
                "ck.json",
                "--checkpoint-every",
                "0"
            ]))
            .unwrap_err(),
            ArgError::BadValue { .. }
        ));
        assert!(matches!(
            parse_args(&v(&["layout", "d.net", "--deadline", "-1"])).unwrap_err(),
            ArgError::BadValue { .. }
        ));
    }

    #[test]
    fn parses_fuzz() {
        match parse_args(&v(&["fuzz"])).unwrap() {
            Command::Fuzz {
                seconds,
                iters,
                seed,
                corpus,
                min_cells,
                max_cells,
                replay,
            } => {
                assert_eq!(seconds, None);
                assert_eq!(iters, None);
                assert_eq!(seed, 1);
                assert_eq!(corpus, None);
                assert_eq!(min_cells, 20);
                assert_eq!(max_cells, 400);
                assert_eq!(replay, None);
            }
            _ => panic!("wrong command"),
        }
        match parse_args(&v(&[
            "fuzz",
            "--seconds",
            "60",
            "--seed",
            "7",
            "--corpus",
            "corpus/",
            "--min-cells",
            "30",
            "--max-cells",
            "90",
        ]))
        .unwrap()
        {
            Command::Fuzz {
                seconds,
                seed,
                corpus,
                min_cells,
                max_cells,
                ..
            } => {
                assert_eq!(seconds, Some(60));
                assert_eq!(seed, 7);
                assert_eq!(corpus.as_deref(), Some("corpus/"));
                assert_eq!(min_cells, 30);
                assert_eq!(max_cells, 90);
            }
            _ => panic!("wrong command"),
        }
        match parse_args(&v(&["fuzz", "--replay", "x.repro.json"])).unwrap() {
            Command::Fuzz { replay, .. } => {
                assert_eq!(replay.as_deref(), Some("x.repro.json"));
            }
            _ => panic!("wrong command"),
        }
        assert!(matches!(
            parse_args(&v(&["fuzz", "--replay", "x.json", "--iters", "3"])).unwrap_err(),
            ArgError::Conflict { .. }
        ));
        assert!(matches!(
            parse_args(&v(&["fuzz", "--min-cells", "50", "--max-cells", "20"])).unwrap_err(),
            ArgError::Conflict { .. }
        ));
        assert!(matches!(
            parse_args(&v(&["fuzz", "--bogus"])).unwrap_err(),
            ArgError::UnknownFlag(_)
        ));
        assert!(USAGE.contains("rowfpga fuzz"));
    }

    #[test]
    fn parses_checkpoint_keep() {
        match parse_args(&v(&[
            "layout",
            "d.net",
            "--checkpoint",
            "ck.json",
            "--checkpoint-keep",
            "5",
        ]))
        .unwrap()
        {
            Command::Layout { opts, .. } => assert_eq!(opts.checkpoint_keep, 5),
            _ => panic!("wrong command"),
        }
        // Default retention is three generations.
        match parse_args(&v(&["layout", "d.net", "--checkpoint", "ck.json"])).unwrap() {
            Command::Layout { opts, .. } => assert_eq!(opts.checkpoint_keep, 3),
            _ => panic!("wrong command"),
        }
        // Retention without a checkpoint destination is a silent no-op.
        assert!(matches!(
            parse_args(&v(&["layout", "d.net", "--checkpoint-keep", "2"])).unwrap_err(),
            ArgError::Conflict { .. }
        ));
        assert!(USAGE.contains("--checkpoint-keep"));
    }

    #[test]
    fn parses_serve() {
        match parse_args(&v(&["serve", "--socket", "/tmp/s", "--spool", "/tmp/d"])).unwrap() {
            Command::Serve {
                socket,
                spool,
                workers,
                queue,
                checkpoint_every,
                checkpoint_keep,
            } => {
                assert_eq!(socket, "/tmp/s");
                assert_eq!(spool, "/tmp/d");
                assert_eq!(workers, 1);
                assert_eq!(queue, 16);
                assert_eq!(checkpoint_every, 1);
                assert_eq!(checkpoint_keep, 3);
            }
            _ => panic!("wrong command"),
        }
        match parse_args(&v(&[
            "serve",
            "--socket",
            "s",
            "--spool",
            "d",
            "--workers",
            "2",
            "--queue",
            "4",
        ]))
        .unwrap()
        {
            Command::Serve { workers, queue, .. } => {
                assert_eq!(workers, 2);
                assert_eq!(queue, 4);
            }
            _ => panic!("wrong command"),
        }
        assert!(matches!(
            parse_args(&v(&["serve", "--spool", "d"])).unwrap_err(),
            ArgError::MissingFlag(f) if f == "--socket"
        ));
        assert!(matches!(
            parse_args(&v(&["serve", "--socket", "s"])).unwrap_err(),
            ArgError::MissingFlag(f) if f == "--spool"
        ));
        assert!(matches!(
            parse_args(&v(&[
                "serve", "--socket", "s", "--spool", "d", "--queue", "0"
            ]))
            .unwrap_err(),
            ArgError::BadValue { .. }
        ));
        assert!(USAGE.contains("rowfpga serve"));
    }

    #[test]
    fn parses_submit_jobs_and_cancel() {
        match parse_args(&v(&[
            "submit",
            "d.net",
            "--socket",
            "s",
            "--seed",
            "7",
            "--priority",
            "-2",
            "--deadline",
            "3.5",
            "--fast",
            "--wait",
            "--timeout",
            "30",
        ]))
        .unwrap()
        {
            Command::Submit {
                input,
                socket,
                seed,
                priority,
                deadline,
                fast,
                wait,
                timeout,
                ..
            } => {
                assert_eq!(input, "d.net");
                assert_eq!(socket, "s");
                assert_eq!(seed, 7);
                assert_eq!(priority, -2);
                assert_eq!(deadline, Some(3.5));
                assert!(fast);
                assert!(wait);
                assert_eq!(timeout, 30.0);
            }
            _ => panic!("wrong command"),
        }
        assert!(matches!(
            parse_args(&v(&["submit", "d.net"])).unwrap_err(),
            ArgError::MissingFlag(_)
        ));
        assert!(matches!(
            parse_args(&v(&["submit", "--socket", "s"])).unwrap_err(),
            ArgError::MissingInput
        ));
        assert!(matches!(
            parse_args(&v(&["submit", "d.net", "--socket", "s", "--deadline", "0"])).unwrap_err(),
            ArgError::BadValue { .. }
        ));
        match parse_args(&v(&["jobs", "--socket", "s"])).unwrap() {
            Command::Jobs { socket, job } => {
                assert_eq!(socket, "s");
                assert_eq!(job, None);
            }
            _ => panic!("wrong command"),
        }
        match parse_args(&v(&["jobs", "--socket", "s", "job-000001"])).unwrap() {
            Command::Jobs { job, .. } => assert_eq!(job.as_deref(), Some("job-000001")),
            _ => panic!("wrong command"),
        }
        match parse_args(&v(&["cancel", "--socket", "s", "job-000001"])).unwrap() {
            Command::CancelJob { socket, job } => {
                assert_eq!(socket, "s");
                assert_eq!(job, "job-000001");
            }
            _ => panic!("wrong command"),
        }
        assert!(matches!(
            parse_args(&v(&["cancel", "--socket", "s"])).unwrap_err(),
            ArgError::MissingInput
        ));
        assert!(USAGE.contains("rowfpga submit"));
    }

    #[test]
    fn own_flags_do_not_leak_into_other_subcommands() {
        // `--start` belongs to mintracks and `--blif` to the subcommands
        // that read a netlist file; neither is a positional elsewhere.
        for args in [
            &["layout", "--start", "24", "d.net"][..],
            &["layout", "d.net", "--start", "24"][..],
            &["bench", "cse", "--blif"][..],
            &["bench", "cse", "--start", "3"][..],
        ] {
            let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
            assert_eq!(
                parse_args(&v(args)).unwrap_err(),
                ArgError::UnknownFlag(flag.to_string()),
                "{args:?}"
            );
        }
        // mintracks takes both, in any position, and never reads the
        // `--start` value as its input.
        match parse_args(&v(&["mintracks", "--start", "24", "--blif", "d.blif"])).unwrap() {
            Command::MinTracks {
                input, blif, start, ..
            } => {
                assert_eq!(input, "d.blif");
                assert!(blif);
                assert_eq!(start, 24);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn a_second_positional_is_rejected() {
        for (args, extra) in [
            (&["layout", "a.net", "b.net"][..], "b.net"),
            (
                &["mintracks", "a.net", "--start", "24", "b.net"][..],
                "b.net",
            ),
            (&["bench", "cse", "s1"][..], "s1"),
            (&["tail", "a.jsonl", "b.jsonl"][..], "b.jsonl"),
            (&["analyze", "a.jsonl", "b.jsonl"][..], "b.jsonl"),
            (&["submit", "a.net", "b.net", "--socket", "s"][..], "b.net"),
            (&["jobs", "--socket", "s", "a", "b"][..], "b"),
            (&["cancel", "--socket", "s", "a", "b"][..], "b"),
        ] {
            assert_eq!(
                parse_args(&v(args)).unwrap_err(),
                ArgError::ExtraArgument(extra.to_string()),
                "{args:?}"
            );
        }
    }

    #[test]
    fn help_is_recognized() {
        for h in ["help", "--help", "-h"] {
            assert_eq!(parse_args(&v(&[h])).unwrap(), Command::Help);
        }
        assert!(USAGE.contains("rowfpga layout"));
    }
}
