//! Service load benchmark: drives an in-process `rowfpga-serve` daemon
//! with a burst of concurrent jobs — mixed sizes, mixed priorities, a
//! single worker — and measures what a client of the service actually
//! feels: per-job turnaround (submit → terminal state), the p95 under
//! queueing and preemption, and how long an eviction takes from the
//! stop request to the worker being free for the urgent job.
//!
//! Emits `results/BENCH_service.json`. The interesting numbers inside:
//!
//! * `turnaround_sec.p95` — tail latency under load, the service-level
//!   headline;
//! * `urgent_turnaround_sec` — what priority buys: high-priority jobs
//!   preempt the running work instead of waiting out the whole queue;
//! * `eviction_latency_sec` — preemption responsiveness, bounded by the
//!   engine's temperature-boundary stop granularity.
//!
//! Usage: `serve [--quick] [--jobs N] [--workers N] [--out PATH]`

#![allow(
    clippy::disallowed_methods,
    reason = "a benchmark times wall-clock turnaround by nature"
)]

#[cfg(unix)]
mod run {
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    use rowfpga_netlist::{generate, write_netlist, GenerateConfig};
    use rowfpga_obs::Json;
    use rowfpga_serve::{client, Daemon, JobSpec, ServeConfig};

    /// Reports a fatal setup/protocol failure and exits non-zero. A
    /// bench bin has no caller to hand a typed error to; what matters
    /// is a clear message and a failing exit code for the gate.
    fn die(msg: String) -> ! {
        eprintln!("bench/serve: {msg}");
        std::process::exit(2);
    }

    fn arg_value(args: &[String], flag: &str) -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    }

    fn netlist_text(cells: usize) -> String {
        write_netlist(&generate(&GenerateConfig {
            num_cells: cells,
            num_inputs: 8,
            num_outputs: 6,
            num_seq: 4,
            ..GenerateConfig::default()
        }))
    }

    /// One client's view of its job.
    struct Turnaround {
        label: String,
        priority: i64,
        state: String,
        turnaround_sec: f64,
    }

    fn percentile(sorted: &[f64], p: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = (p * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    fn stats_json(values: &[f64]) -> Json {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Json::obj(vec![
            ("count", Json::Num(sorted.len() as f64)),
            ("p50", Json::Num(percentile(&sorted, 0.50))),
            ("p95", Json::Num(percentile(&sorted, 0.95))),
            ("max", Json::Num(sorted.last().copied().unwrap_or(0.0))),
            (
                "mean",
                Json::Num(if sorted.is_empty() {
                    0.0
                } else {
                    sorted.iter().sum::<f64>() / sorted.len() as f64
                }),
            ),
        ])
    }

    pub fn main() {
        let args: Vec<String> = std::env::args().collect();
        let quick = args.iter().any(|a| a == "--quick");
        let jobs: usize = arg_value(&args, "--jobs")
            .and_then(|s| s.parse().ok())
            .unwrap_or(if quick { 6 } else { 12 });
        let workers: usize = arg_value(&args, "--workers")
            .and_then(|s| s.parse().ok())
            .unwrap_or(1);
        let out = arg_value(&args, "--out").unwrap_or_else(|| "results/BENCH_service.json".into());

        let root: PathBuf =
            std::env::temp_dir().join(format!("rowfpga-bench-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap_or_else(|e| die(format!("scratch dir: {e}")));
        let socket = root.join("sock");
        let mut cfg = ServeConfig::new(socket.clone(), root.join("spool"));
        cfg.workers = workers;
        // The load is a burst: size the queue so backpressure is not what
        // this benchmark measures (bench/serve measures latency, not the
        // reject path).
        cfg.queue_capacity = jobs + 4;
        let handle = Daemon::start(cfg).unwrap_or_else(|e| die(format!("daemon start: {e}")));

        // The job mix: long and medium jobs fill the queue; every fourth
        // submission is a small high-priority job that preempts whatever
        // is running, so eviction latency shows up under realistic load.
        let long = netlist_text(140);
        let medium = netlist_text(60);
        let small = netlist_text(24);
        let started = Instant::now();
        let clients: Vec<std::thread::JoinHandle<Turnaround>> = (0..jobs)
            .map(|i| {
                let urgent = i % 4 == 3;
                let (label, netlist, priority) = if urgent {
                    (format!("urgent-{i}"), small.clone(), 10)
                } else if i % 2 == 0 {
                    (format!("long-{i}"), long.clone(), 0)
                } else {
                    (format!("medium-{i}"), medium.clone(), 0)
                };
                let socket = socket.clone();
                std::thread::spawn(move || {
                    // Stagger the arrivals so urgent jobs land while lower
                    // priority work is mid-anneal.
                    std::thread::sleep(Duration::from_millis(100 * i as u64));
                    let spec = JobSpec {
                        netlist,
                        fast: true,
                        priority,
                        seed: i as u64 + 1,
                        ..JobSpec::default()
                    };
                    let begin = Instant::now();
                    let id = client::submit(&socket, &spec)
                        .unwrap_or_else(|e| die(format!("submit {label}: {e}")));
                    let done = client::wait(&socket, &id, Duration::from_secs(600))
                        .unwrap_or_else(|e| die(format!("wait {label}: {e}")));
                    Turnaround {
                        label,
                        priority,
                        state: client::state_of(&done).unwrap_or("?").to_string(),
                        turnaround_sec: begin.elapsed().as_secs_f64(),
                    }
                })
            })
            .collect();
        let results: Vec<Turnaround> = clients
            .into_iter()
            .map(|c| {
                c.join()
                    .unwrap_or_else(|_| die("client thread panicked".into()))
            })
            .collect();
        let wall = started.elapsed().as_secs_f64();
        let stats = handle.shutdown();
        let _ = std::fs::remove_dir_all(&root);

        for r in &results {
            println!(
                "{:>10}  priority {:>2}  {:>7.2}s  {}",
                r.label, r.priority, r.turnaround_sec, r.state
            );
        }
        let all: Vec<f64> = results.iter().map(|r| r.turnaround_sec).collect();
        let urgent: Vec<f64> = results
            .iter()
            .filter(|r| r.priority > 0)
            .map(|r| r.turnaround_sec)
            .collect();
        let done = results.iter().filter(|r| r.state == "done").count();
        println!(
            "{jobs} jobs on {workers} worker(s) in {wall:.2}s: {done} done, \
             {} evictions, p95 turnaround {:.2}s",
            stats.evictions,
            percentile(
                &{
                    let mut s = all.clone();
                    s.sort_by(|a, b| a.total_cmp(b));
                    s
                },
                0.95
            )
        );

        assert_eq!(done, jobs, "every job must finish with a layout");
        let host_cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let json = Json::obj(vec![
            ("schema", Json::Str("bench.service/v1".into())),
            (
                "profile",
                Json::Str(if quick { "quick" } else { "default" }.into()),
            ),
            ("host_cores", Json::Num(host_cores as f64)),
            ("workers", Json::Num(workers as f64)),
            ("jobs", Json::Num(jobs as f64)),
            ("wall_sec", Json::Num(wall)),
            ("jobs_per_sec", Json::Num(jobs as f64 / wall.max(1e-9))),
            ("turnaround_sec", stats_json(&all)),
            ("urgent_turnaround_sec", stats_json(&urgent)),
            (
                "eviction_latency_sec",
                stats_json(&stats.eviction_latency_sec),
            ),
            ("evictions", Json::Num(stats.evictions as f64)),
            ("completed", Json::Num(stats.completed as f64)),
            ("rejected", Json::Num(stats.rejected as f64)),
        ]);
        if let Some(parent) = std::path::Path::new(&out).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .unwrap_or_else(|e| die(format!("results dir: {e}")));
            }
        }
        std::fs::write(&out, json.to_string_pretty() + "\n")
            .unwrap_or_else(|e| die(format!("write {out}: {e}")));
        println!("wrote {out}");
    }
}

#[cfg(unix)]
fn main() {
    run::main();
}

#[cfg(not(unix))]
fn main() {
    eprintln!("bench/serve needs unix domain sockets; skipping");
}
