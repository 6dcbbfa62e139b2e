//! Journal sinks beyond the plain file: in-memory ring buffer, replica
//! replay buffer, and a Unix-domain-socket stream for live tailing.
//!
//! All sinks speak the same JSONL event schema (see [`crate::record`]);
//! [`open_sink`] picks one from a `--journal` spec string: `unix:PATH`
//! connects a [`SocketSink`] to a listener (typically `rowfpga tail
//! --listen PATH`), anything else creates a buffered [`RunJournal`] file.

use std::collections::VecDeque;
use std::io::{BufWriter, Write};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::record::{Event, EventMeta, Recorder, RunJournal};

/// Locks `m`, poisoned or not. Journals are telemetry: the panic that
/// poisoned the lock propagates on its own, and the update it cut short
/// can at worst leave a span open or an event unrecorded.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bounded in-memory sink keeping the most recent journal lines.
///
/// Cloning the handle before boxing it into a session lets the owner read
/// the buffer back after (or during) the run — the sink and the handle
/// share one ring, behind a lock like the session itself.
#[derive(Clone, Debug, Default)]
pub struct RingSink {
    shared: Arc<Mutex<Ring>>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct Ring {
    lines: VecDeque<String>,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring keeping at most `capacity` lines (older lines are
    /// dropped, counted in [`RingSink::dropped`]).
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            shared: Arc::default(),
            capacity: capacity.max(1),
        }
    }

    /// The buffered lines, oldest first.
    pub fn snapshot(&self) -> Vec<String> {
        lock(&self.shared).lines.iter().cloned().collect()
    }

    /// Lines evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        lock(&self.shared).dropped
    }
}

impl Recorder for RingSink {
    fn record(&mut self, event: &Event) {
        self.push(event.to_json().to_string_compact());
    }

    fn record_with(&mut self, event: &Event, meta: &EventMeta) {
        self.push(event.to_json_with(meta).to_string_compact());
    }
}

impl RingSink {
    fn push(&mut self, line: String) {
        let mut ring = lock(&self.shared);
        if ring.lines.len() == self.capacity {
            ring.lines.pop_front();
            ring.dropped += 1;
        }
        ring.lines.push_back(line);
    }
}

/// An unbounded sink keeping events *structured* (event + meta), so a
/// parallel replica's journal can be replayed into the driver's session
/// at a temperature boundary with attribution intact.
#[derive(Clone, Debug, Default)]
pub struct ReplaySink {
    shared: Arc<Mutex<Vec<(Event, EventMeta)>>>,
}

impl ReplaySink {
    /// Creates an empty buffer.
    pub fn new() -> ReplaySink {
        ReplaySink::default()
    }

    /// Takes every buffered `(event, meta)` pair, oldest first.
    pub fn drain(&self) -> Vec<(Event, EventMeta)> {
        std::mem::take(&mut *lock(&self.shared))
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        lock(&self.shared).len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        lock(&self.shared).is_empty()
    }
}

impl Recorder for ReplaySink {
    fn record(&mut self, event: &Event) {
        self.record_with(event, &EventMeta::default());
    }

    fn record_with(&mut self, event: &Event, meta: &EventMeta) {
        lock(&self.shared).push((event.clone(), *meta));
    }
}

/// Streams journal lines over a Unix-domain socket to a live listener
/// (`rowfpga tail --listen PATH`).
///
/// A journal is telemetry; the layout run must never die for it. A peer
/// that is absent at connect time (`ECONNREFUSED`) or disappears mid-run
/// (`EPIPE`) therefore does not error: lines are buffered in a bounded
/// ring (oldest dropped first, counted) and reconnection is retried with
/// capped exponential backoff. Backoff is paced by *record count*, not
/// wall clock, so the sink stays deterministic relative to the event
/// stream. After [`SocketSink::RETRY_ATTEMPTS`] failed reconnects the
/// sink gives up for good: a single `warning` event
/// (`journal.socket_lost`) is appended to the backlog — inspectable via
/// [`SocketSink::backlog`] — and every later record is counted as
/// dropped.
#[cfg(unix)]
pub struct SocketSink {
    path: String,
    out: Option<BufWriter<std::os::unix::net::UnixStream>>,
    ring: VecDeque<String>,
    dropped: u64,
    records_until_retry: u64,
    next_backoff: u64,
    attempts_left: u32,
    gave_up: bool,
}

/// Delivery state of a [`SocketSink`], for tests and operators.
#[cfg(unix)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketSinkState {
    /// The stream is up; lines are delivered as they happen.
    Connected,
    /// The peer is away; lines accumulate in the ring while reconnects
    /// back off.
    Buffering {
        /// Lines currently held in the ring.
        buffered: usize,
        /// Lines evicted because the ring was full.
        dropped: u64,
    },
    /// Reconnection was abandoned after the retry budget; one
    /// `journal.socket_lost` warning closes the backlog.
    GaveUp,
}

#[cfg(unix)]
impl std::fmt::Debug for SocketSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketSink")
            .field("path", &self.path)
            .field("state", &self.state())
            .finish()
    }
}

#[cfg(unix)]
impl SocketSink {
    /// Lines held while the peer is away; older lines are dropped first.
    pub const RING_CAPACITY: usize = 1024;
    /// Reconnect attempts before the sink gives up for good.
    pub const RETRY_ATTEMPTS: u32 = 8;
    /// Records between the first disconnect and the first retry; doubles
    /// per failed attempt up to [`SocketSink::BACKOFF_CAP`].
    pub const BACKOFF_START: u64 = 1;
    /// Ceiling of the record-count backoff.
    pub const BACKOFF_CAP: u64 = 256;

    /// Opens a sink towards a listening socket at `path`.
    ///
    /// Never fails: when the listener is not (yet) accepting, the sink
    /// starts in the buffering state and connects on a later record.
    ///
    /// # Errors
    ///
    /// None today; the `Result` is kept so callers are ready for
    /// platforms where even deferred opens can fail.
    pub fn connect(path: &str) -> std::io::Result<SocketSink> {
        let mut sink = SocketSink {
            path: path.to_string(),
            out: None,
            ring: VecDeque::new(),
            dropped: 0,
            records_until_retry: 0,
            next_backoff: Self::BACKOFF_START,
            attempts_left: Self::RETRY_ATTEMPTS,
            gave_up: false,
        };
        match std::os::unix::net::UnixStream::connect(path) {
            Ok(stream) => sink.out = Some(BufWriter::new(stream)),
            Err(_) => sink.arm_retry(),
        }
        Ok(sink)
    }

    /// The sink's delivery state.
    pub fn state(&self) -> SocketSinkState {
        if self.gave_up {
            SocketSinkState::GaveUp
        } else if self.out.is_some() {
            SocketSinkState::Connected
        } else {
            SocketSinkState::Buffering {
                buffered: self.ring.len(),
                dropped: self.dropped,
            }
        }
    }

    /// Undelivered lines, oldest first (after give-up, the last line is
    /// the `journal.socket_lost` warning).
    pub fn backlog(&self) -> Vec<String> {
        self.ring.iter().cloned().collect()
    }

    /// Lines lost to ring eviction or recorded after give-up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn arm_retry(&mut self) {
        self.records_until_retry = self.next_backoff;
        self.next_backoff = (self.next_backoff * 2).min(Self::BACKOFF_CAP);
    }

    fn buffer(&mut self, line: String) {
        if self.ring.len() == Self::RING_CAPACITY {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(line);
    }

    fn warning_line(code: &str, detail: String) -> String {
        let mut line = Event::Warning {
            code: code.to_string(),
            detail,
        }
        .to_json()
        .to_string_compact();
        line.push('\n');
        line
    }

    fn give_up(&mut self) {
        self.gave_up = true;
        let (buffered, dropped) = (self.ring.len(), self.dropped);
        self.buffer(Self::warning_line(
            "journal.socket_lost",
            format!(
                "gave up reconnecting to {} after {} attempts; {buffered} lines buffered, {dropped} dropped",
                self.path,
                Self::RETRY_ATTEMPTS,
            ),
        ));
    }

    /// One reconnect attempt; on success the backlog drains through the
    /// fresh stream, led by a warning line accounting for the gap.
    fn try_reconnect(&mut self) {
        let Ok(stream) = std::os::unix::net::UnixStream::connect(&self.path) else {
            self.attempts_left = self.attempts_left.saturating_sub(1);
            if self.attempts_left == 0 {
                self.give_up();
            } else {
                self.arm_retry();
            }
            return;
        };
        let mut out = BufWriter::new(stream);
        let notice = Self::warning_line(
            "journal.socket_reconnected",
            format!(
                "stream to {} restored; {} buffered lines follow, {} dropped",
                self.path,
                self.ring.len(),
                self.dropped
            ),
        );
        let mut delivered = out.write_all(notice.as_bytes()).is_ok();
        while delivered {
            let Some(line) = self.ring.pop_front() else {
                break;
            };
            if out.write_all(line.as_bytes()).is_err() {
                self.ring.push_front(line);
                delivered = false;
            }
        }
        if delivered && out.flush().is_ok() {
            self.out = Some(out);
            self.next_backoff = Self::BACKOFF_START;
            self.attempts_left = Self::RETRY_ATTEMPTS;
        } else {
            // The peer vanished again mid-drain; burn the attempt.
            self.attempts_left = self.attempts_left.saturating_sub(1);
            if self.attempts_left == 0 {
                self.give_up();
            } else {
                self.arm_retry();
            }
        }
    }

    fn send(&mut self, mut line: String) {
        line.push('\n');
        if self.gave_up {
            self.dropped += 1;
            return;
        }
        if let Some(out) = &mut self.out {
            // Flush per event: tailers want lines as they happen, not
            // when a 8 KiB buffer fills.
            if out
                .write_all(line.as_bytes())
                .and_then(|()| out.flush())
                .is_ok()
            {
                return;
            }
            self.out = None;
            self.arm_retry();
        }
        self.buffer(line);
        self.records_until_retry = self.records_until_retry.saturating_sub(1);
        if self.records_until_retry == 0 {
            self.try_reconnect();
        }
    }
}

#[cfg(unix)]
impl Recorder for SocketSink {
    fn record(&mut self, event: &Event) {
        self.send(event.to_json().to_string_compact());
    }

    fn record_with(&mut self, event: &Event, meta: &EventMeta) {
        self.send(event.to_json_with(meta).to_string_compact());
    }

    fn flush(&mut self) {
        if let Some(out) = &mut self.out {
            let _ = out.flush();
        }
    }
}

/// Prefix selecting a [`SocketSink`] in a `--journal` spec.
pub const SOCKET_SPEC_PREFIX: &str = "unix:";

/// Opens a journal sink from a spec string: `unix:PATH` connects to a
/// listening socket, anything else creates (truncates) a JSONL file.
pub fn open_sink(spec: &str) -> std::io::Result<Box<dyn Recorder + Send>> {
    #[cfg(unix)]
    if let Some(path) = spec.strip_prefix(SOCKET_SPEC_PREFIX) {
        return Ok(Box::new(SocketSink::connect(path)?));
    }
    let file = std::fs::File::create(spec)?;
    Ok(Box::new(RunJournal::new(BufWriter::new(file))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn warning(n: u64) -> (Event, EventMeta) {
        (
            Event::Warning {
                code: format!("w{n}"),
                detail: String::new(),
            },
            EventMeta {
                seq: n,
                span: 0,
                parent_span: 0,
                replica: 1,
            },
        )
    }

    #[test]
    fn ring_keeps_the_most_recent_lines() {
        let handle = RingSink::new(2);
        let mut sink = handle.clone();
        for n in 0..5 {
            let (e, m) = warning(n);
            sink.record_with(&e, &m);
        }
        let lines = handle.snapshot();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"w3\""), "{lines:?}");
        assert!(lines[1].contains("\"w4\""), "{lines:?}");
        assert_eq!(handle.dropped(), 3);
        let doc = json::parse(&lines[1]).unwrap();
        assert_eq!(EventMeta::from_json(&doc).seq, 4);
    }

    #[test]
    fn replay_buffer_preserves_events_and_meta() {
        let handle = ReplaySink::new();
        let mut sink = handle.clone();
        for n in 0..3 {
            let (e, m) = warning(n);
            sink.record_with(&e, &m);
        }
        assert_eq!(handle.len(), 3);
        let drained = handle.drain();
        assert_eq!(drained.len(), 3);
        assert_eq!(drained[2].1.seq, 2);
        assert_eq!(drained[2].1.replica, 1);
        assert!(handle.is_empty());
    }

    #[cfg(unix)]
    #[test]
    fn socket_sink_streams_lines_to_a_listener() {
        use std::io::{BufRead, BufReader};

        let dir = std::env::temp_dir().join(format!("rowfpga-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tail.sock");
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();

        let path_str = path.to_str().unwrap().to_string();
        let reader = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut lines = Vec::new();
            for line in BufReader::new(stream).lines() {
                lines.push(line.unwrap());
            }
            lines
        });

        let mut sink = SocketSink::connect(&path_str).unwrap();
        for n in 0..3 {
            let (e, m) = warning(n);
            sink.record_with(&e, &m);
        }
        sink.flush();
        drop(sink);

        let lines = reader.join().unwrap();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"warning\""), "{lines:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    fn read_all_lines(
        listener: std::os::unix::net::UnixListener,
    ) -> std::thread::JoinHandle<Vec<String>> {
        use std::io::{BufRead, BufReader};
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            BufReader::new(stream).lines().map(|l| l.unwrap()).collect()
        })
    }

    #[cfg(unix)]
    #[test]
    fn socket_sink_opens_without_a_listener_and_delivers_once_one_appears() {
        let dir = std::env::temp_dir().join(format!("rowfpga-sink-late-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("late.sock");
        let _ = std::fs::remove_file(&path);
        let path_str = path.to_str().unwrap().to_string();

        // ECONNREFUSED at open must not error: the sink starts buffering.
        let mut sink = SocketSink::connect(&path_str).unwrap();
        assert!(matches!(sink.state(), SocketSinkState::Buffering { .. }));
        let (e, m) = warning(0);
        sink.record_with(&e, &m); // first retry fails too — still no peer
        assert!(matches!(
            sink.state(),
            SocketSinkState::Buffering { buffered: 1, .. }
        ));

        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        let reader = read_all_lines(listener);
        // Backoff is now 2 records; the second of these reconnects and
        // drains the backlog.
        for n in 1..3 {
            let (e, m) = warning(n);
            sink.record_with(&e, &m);
        }
        assert_eq!(sink.state(), SocketSinkState::Connected);
        sink.flush();
        drop(sink);

        let lines = reader.join().unwrap();
        assert!(
            lines[0].contains("journal.socket_reconnected"),
            "gap is accounted for first: {lines:?}"
        );
        assert_eq!(lines.len(), 4, "3 events + 1 reconnect notice: {lines:?}");
        assert!(
            lines[1].contains("\"w0\"") && lines[3].contains("\"w2\""),
            "{lines:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn socket_sink_survives_a_peer_restart_and_redelivers_the_backlog() {
        let dir = std::env::temp_dir().join(format!("rowfpga-sink-re-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("restart.sock");
        let _ = std::fs::remove_file(&path);
        let path_str = path.to_str().unwrap().to_string();

        // First peer reads one line and hangs up.
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        let first = std::thread::spawn(move || {
            use std::io::{BufRead, BufReader};
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        });
        let mut sink = SocketSink::connect(&path_str).unwrap();
        let (e, m) = warning(0);
        sink.record_with(&e, &m);
        assert!(first.join().unwrap().contains("\"w0\""));

        // The peer is gone; records buffer instead of erroring. (The
        // kernel may accept a write or two into a dead socket before
        // EPIPE surfaces — those lines are legitimately lost — so drive
        // records until the sink notices.)
        let mut first_buffered = 1u64;
        while !matches!(sink.state(), SocketSinkState::Buffering { .. }) && first_buffered < 50 {
            let (e, m) = warning(first_buffered);
            sink.record_with(&e, &m);
            first_buffered += 1;
        }
        assert!(
            matches!(sink.state(), SocketSinkState::Buffering { .. }),
            "{:?}",
            sink.state()
        );
        // The record that tripped the error is itself buffered.
        first_buffered -= 1;

        // A fresh peer binds the same path; the sink reconnects within
        // its backoff and redelivers everything it held.
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        let reader = read_all_lines(listener);
        let mut n = first_buffered + 1;
        while sink.state() != SocketSinkState::Connected && n < 300 {
            let (e, m) = warning(n);
            sink.record_with(&e, &m);
            n += 1;
        }
        assert_eq!(sink.state(), SocketSinkState::Connected);
        sink.flush();
        drop(sink);

        let lines = reader.join().unwrap();
        assert!(lines[0].contains("journal.socket_reconnected"), "{lines:?}");
        // No line the sink buffered while the peer was away went missing.
        for missing in first_buffered..n {
            assert!(
                lines.iter().any(|l| l.contains(&format!("\"w{missing}\""))),
                "w{missing} lost across the restart: {lines:?}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn socket_sink_gives_up_after_its_retry_budget_with_one_warning() {
        let dir = std::env::temp_dir().join(format!("rowfpga-sink-gu-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("never.sock");
        let _ = std::fs::remove_file(&path);

        let mut sink = SocketSink::connect(path.to_str().unwrap()).unwrap();
        for n in 0..300 {
            let (e, m) = warning(n);
            sink.record_with(&e, &m);
        }
        assert_eq!(sink.state(), SocketSinkState::GaveUp);
        let backlog = sink.backlog();
        let warnings: Vec<&String> = backlog
            .iter()
            .filter(|l| l.contains("journal.socket_lost"))
            .collect();
        assert_eq!(warnings.len(), 1, "exactly one give-up warning");
        assert!(
            backlog.last().unwrap().contains("journal.socket_lost"),
            "the warning closes the backlog"
        );
        assert!(sink.dropped() > 0, "post-give-up records are counted");
        // Giving up is terminal: no further reconnect attempts, no panic.
        let (e, m) = warning(999);
        sink.record_with(&e, &m);
        assert_eq!(sink.state(), SocketSinkState::GaveUp);
    }

    #[test]
    fn open_sink_writes_a_file_journal() {
        let dir = std::env::temp_dir().join(format!("rowfpga-sink-f-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        {
            let mut sink = open_sink(path.to_str().unwrap()).unwrap();
            let (e, m) = warning(7);
            sink.record_with(&e, &m);
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"w7\""));
        let _ = std::fs::remove_file(&path);
    }
}
