//! `rowfpga tail`: live rendering of a run journal.
//!
//! Two sources are supported:
//!
//! * a journal **file** being written by `--journal FILE` — read what is
//!   there, then poll for appended lines until the run ends (or
//!   immediately stop with `--no-follow`);
//! * a Unix **socket** (`unix:PATH`) — bind, wait for the run started
//!   with `--journal unix:PATH` to connect, and render each event as it
//!   arrives.
//!
//! The renderer itself ([`rowfpga_obs::LiveStatus`]) is clock-free; this
//! module supplies the only wall-clock input (seconds per temperature,
//! for the ETA) and the poll pacing.

use std::io::{BufRead, BufReader, Write};
use std::time::Duration;
use std::time::Instant;

use rowfpga_obs::{LiveStatus, SOCKET_SPEC_PREFIX};

use crate::commands::CliError;

/// How often a following tail re-checks a quiet file.
const POLL: Duration = Duration::from_millis(200);

/// Measures seconds-per-temperature from the caller's clock as
/// temperature records stream past.
struct TempClock {
    started: Instant,
    last_temps: usize,
    last_at: f64,
    per_temp: Option<f64>,
}

impl TempClock {
    #[expect(
        clippy::disallowed_methods,
        reason = "tail measures wall-clock pacing for the ETA display only; nothing feeds back into any solver"
    )]
    fn new() -> TempClock {
        TempClock {
            started: Instant::now(),
            last_temps: 0,
            last_at: 0.0,
            per_temp: None,
        }
    }

    /// Updates the pace estimate; call after every ingested line.
    fn observe(&mut self, temps_seen: usize) {
        if temps_seen > self.last_temps {
            let now = self.started.elapsed().as_secs_f64();
            let dt = (now - self.last_at) / (temps_seen - self.last_temps) as f64;
            // EMA so one slow temperature does not swing the ETA.
            self.per_temp = Some(match self.per_temp {
                Some(prev) => 0.7 * prev + 0.3 * dt,
                None => dt,
            });
            self.last_temps = temps_seen;
            self.last_at = now;
        }
    }
}

/// Entry point for `rowfpga tail`.
///
/// # Errors
///
/// Returns [`CliError`] on I/O failures or a journal with an unsupported
/// (newer) schema.
pub fn run_tail(
    source: &str,
    listen: bool,
    follow: bool,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let _ = listen; // `unix:` sources always listen; the flag is explicit intent
    if let Some(path) = source.strip_prefix(SOCKET_SPEC_PREFIX) {
        tail_socket(path, out)
    } else {
        tail_file(source, follow, out)
    }
}

/// Renders one ingested line's effect; prints a fresh status line only
/// when it changed, so file tails don't repeat themselves.
fn render_step(
    status: &LiveStatus,
    clock: &mut TempClock,
    last_line: &mut String,
    out: &mut impl Write,
) -> Result<(), CliError> {
    clock.observe(status.temps_seen);
    for w in &status.warnings[status.warnings.len().saturating_sub(1)..] {
        if !last_line.starts_with("warned") {
            writeln!(out, "warning: {w}")?;
            *last_line = format!("warned {w}");
        }
    }
    let line = status.status_line(clock.per_temp);
    if line != *last_line {
        writeln!(out, "{line}")?;
        out.flush()?;
        *last_line = line;
    }
    Ok(())
}

fn ingest(status: &mut LiveStatus, line: &str) -> Result<(), CliError> {
    status
        .ingest_line(line)
        .map_err(|e| CliError::Parse(e.to_string()))
}

fn tail_file(path: &str, follow: bool, out: &mut impl Write) -> Result<(), CliError> {
    let file = std::fs::File::open(path)?;
    let mut reader = BufReader::new(file);
    let mut status = LiveStatus::new();
    let mut clock = TempClock::new();
    let mut last_line = String::new();
    let mut buf = String::new();
    loop {
        buf.clear();
        let n = reader.read_line(&mut buf)?;
        if n == 0 {
            if status.done() || !follow {
                break;
            }
            std::thread::sleep(POLL);
            continue;
        }
        if !buf.ends_with('\n') && follow && !status.done() {
            // A partial line is mid-write; wait for the rest. BufReader
            // consumed it, so stitch the remainder on next pass.
            let mut rest = String::new();
            while !buf.ends_with('\n') {
                std::thread::sleep(POLL);
                rest.clear();
                if reader.read_line(&mut rest)? == 0 && status.done() {
                    break;
                }
                buf.push_str(&rest);
            }
        }
        ingest(&mut status, &buf)?;
        render_step(&status, &mut clock, &mut last_line, out)?;
    }
    finish(&status, &mut last_line, out)
}

#[cfg(unix)]
fn tail_socket(path: &str, out: &mut impl Write) -> Result<(), CliError> {
    use std::os::unix::net::UnixListener;

    // A stale socket file from a previous tail blocks the bind.
    if std::fs::metadata(path).is_ok() {
        let _ = std::fs::remove_file(path);
    }
    let listener = UnixListener::bind(path)?;
    writeln!(
        out,
        "listening on unix:{path} — start a run with --journal unix:{path}"
    )?;
    out.flush()?;
    let (stream, _addr) = listener.accept()?;
    let mut reader = BufReader::new(stream);
    let mut status = LiveStatus::new();
    let mut clock = TempClock::new();
    let mut last_line = String::new();
    let mut buf = String::new();
    loop {
        buf.clear();
        // A zero read means the writer hung up (run ended or crashed).
        if reader.read_line(&mut buf)? == 0 {
            break;
        }
        ingest(&mut status, &buf)?;
        render_step(&status, &mut clock, &mut last_line, out)?;
    }
    let _ = std::fs::remove_file(path);
    finish(&status, &mut last_line, out)
}

#[cfg(not(unix))]
fn tail_socket(_path: &str, _out: &mut impl Write) -> Result<(), CliError> {
    Err(CliError::Parse(
        "unix: sources are only supported on Unix platforms".into(),
    ))
}

fn finish(
    status: &LiveStatus,
    last_line: &mut String,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let line = status.status_line(None);
    if line != *last_line {
        writeln!(out, "{line}")?;
    }
    if !status.done() {
        writeln!(out, "journal ended without a stop record")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowfpga_obs::{Event, EventMeta, TemperatureRecord};

    fn temp_line(index: usize, seq: u64) -> String {
        Event::Temperature(TemperatureRecord {
            index,
            temperature: 10.0 / (index + 1) as f64,
            moves: 100,
            accepted: 100usize.saturating_sub(index * 20),
            mean_cost: 10.0,
            std_cost: 1.0,
            current_cost: 10.0 - index as f64,
            best_cost: 10.0 - index as f64,
        })
        .to_json_with(&EventMeta {
            seq,
            span: 0,
            parent_span: 0,
            replica: 0,
        })
        .to_string_compact()
    }

    fn journal_text() -> String {
        let mut lines = vec![
            format!(
                "{{\"event\":\"journal_header\",\"schema\":{},\"generator\":\"test\"}}",
                rowfpga_obs::SCHEMA_VERSION
            ),
            "{\"event\":\"run_start\",\"flow\":\"simultaneous\",\"benchmark\":\"s1\",\"seed\":1,\"config\":{}}".to_owned(),
        ];
        for i in 0..3 {
            lines.push(temp_line(i, i as u64 + 3));
        }
        lines.push(
            "{\"event\":\"stop\",\"reason\":\"converged\",\"temps\":3,\"repairs\":0}".to_owned(),
        );
        lines.join("\n") + "\n"
    }

    #[test]
    fn file_tail_renders_progress_and_completion() {
        let path = std::env::temp_dir().join("rowfpga_tail_file_test.jsonl");
        std::fs::write(&path, journal_text()).unwrap();
        let mut out = Vec::new();
        run_tail(path.to_str().unwrap(), false, false, &mut out).unwrap();
        let _ = std::fs::remove_file(&path);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("temp "), "{text}");
        assert!(text.contains("done (converged)"), "{text}");
    }

    #[test]
    fn newer_schema_is_rejected() {
        let path = std::env::temp_dir().join("rowfpga_tail_schema_test.jsonl");
        std::fs::write(
            &path,
            format!(
                "{{\"event\":\"journal_header\",\"schema\":{},\"generator\":\"future\"}}\n",
                rowfpga_obs::SCHEMA_VERSION + 1
            ),
        )
        .unwrap();
        let mut out = Vec::new();
        let err = run_tail(path.to_str().unwrap(), false, false, &mut out).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(format!("{err}").contains("newer"), "{err}");
    }

    #[cfg(unix)]
    #[test]
    fn socket_tail_streams_a_live_run() {
        let sock = std::env::temp_dir().join("rowfpga_tail_sock_test.sock");
        let sock_str = sock.to_str().unwrap().to_owned();
        let _ = std::fs::remove_file(&sock);
        let spec = format!("unix:{sock_str}");
        let writer = std::thread::spawn(move || {
            // Wait for the listener, then stream a short run through the
            // same client sink the engine uses.
            for _ in 0..100 {
                if std::fs::metadata(&sock_str).is_ok() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            let sink = rowfpga_obs::SocketSink::connect(&sock_str).expect("connect");
            let obs = rowfpga_obs::Obs::with_sink(Box::new(sink));
            obs.emit(Event::Temperature(TemperatureRecord {
                index: 0,
                temperature: 5.0,
                moves: 10,
                accepted: 5,
                mean_cost: 4.0,
                std_cost: 0.5,
                current_cost: 4.0,
                best_cost: 3.5,
            }));
            obs.emit(Event::Stop {
                reason: "converged".into(),
                temps: 1,
                repairs: 0,
            });
            obs.flush();
        });
        let mut out = Vec::new();
        run_tail(&spec, true, true, &mut out).unwrap();
        writer.join().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("listening on"), "{text}");
        assert!(text.contains("done (converged)"), "{text}");
    }
}
