//! The shared observability handle threaded through the layout engine.
//!
//! [`Obs`] is a cheaply clonable handle that is either *disabled* (the
//! default — every call is a no-op on an `Option::None`, no allocation, no
//! locking) or *enabled*, in which case it shares one [`ObsSession`]
//! holding the metrics registry, the phase profiler, and the event sink.
//!
//! Annealing replicas move between threads, so the session lives behind
//! `Arc<Mutex<…>>` and its sink is `Send`. The lock is confined to
//! individual method calls and never held across user code (the
//! [`Obs::span`] closure runs with the session released), and a lock
//! poisoned by a panicking thread is still used.

use std::sync::{Arc, Mutex};

use crate::metrics::MetricsRegistry;
use crate::profile::PhaseProfiler;
use crate::record::{Event, EventMeta, NoopRecorder, Recorder, SCHEMA_VERSION};
use crate::report;
use crate::sink::lock;

/// The state behind an enabled [`Obs`] handle.
pub struct ObsSession {
    /// Named counters and histograms.
    pub metrics: MetricsRegistry,
    /// Nested span timers.
    pub profiler: PhaseProfiler,
    sink: Box<dyn Recorder + Send>,
    seq: u64,
    replica: u32,
    emit_spans: bool,
}

impl std::fmt::Debug for ObsSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsSession")
            .field("metrics", &self.metrics)
            .field("profiler", &self.profiler)
            .finish_non_exhaustive()
    }
}

impl ObsSession {
    /// Creates a session draining events into `sink`.
    pub fn new(sink: Box<dyn Recorder + Send>) -> ObsSession {
        ObsSession {
            metrics: MetricsRegistry::new(),
            profiler: PhaseProfiler::new(),
            sink,
            seq: 0,
            replica: 0,
            emit_spans: true,
        }
    }

    fn stamp(&mut self) -> EventMeta {
        let (span, parent_span) = self.profiler.current();
        self.seq += 1;
        EventMeta {
            seq: self.seq,
            span,
            parent_span,
            replica: self.replica,
        }
    }

    /// Sends one event to the sink, stamped with the current causal
    /// envelope (sequence number, enclosing span, replica).
    pub fn emit(&mut self, event: &Event) {
        let meta = self.stamp();
        self.sink.record_with(event, &meta);
    }

    /// Re-emits an event recorded elsewhere (a replica's buffered journal),
    /// preserving its span and replica attribution but re-stamping the
    /// sequence number so the merged journal stays monotonic.
    pub fn emit_replayed(&mut self, event: &Event, recorded: &EventMeta) {
        self.seq += 1;
        let meta = EventMeta {
            seq: self.seq,
            ..*recorded
        };
        self.sink.record_with(event, &meta);
    }

    /// Opens a profiling span and journals its `span_start` edge.
    pub fn span_start(&mut self, name: &'static str) {
        let (id, parent) = self.profiler.start(name);
        if self.emit_spans {
            self.seq += 1;
            let meta = EventMeta {
                seq: self.seq,
                span: id,
                parent_span: parent,
                replica: self.replica,
            };
            let event = Event::SpanStart {
                id,
                parent,
                name: name.to_string(),
            };
            self.sink.record_with(&event, &meta);
        }
    }

    /// Opens a profiling span without journaling a `span_start` event —
    /// the per-move variant (§7: per-move data is aggregated, never
    /// journaled, so journal size stays bounded by temperature count).
    pub fn span_start_quiet(&mut self, name: &'static str) {
        self.profiler.start(name);
    }

    /// Closes a span opened by [`Session::span_start_quiet`].
    pub fn span_end_quiet(&mut self, name: &'static str) {
        self.profiler.end(name);
    }

    /// Closes the innermost profiling span and journals its `span_end`
    /// edge.
    pub fn span_end(&mut self, name: &'static str) {
        let closed = self.profiler.end(name);
        if self.emit_spans {
            self.seq += 1;
            let meta = EventMeta {
                seq: self.seq,
                span: closed.id,
                parent_span: closed.parent,
                replica: self.replica,
            };
            let event = Event::SpanEnd {
                id: closed.id,
                name: name.to_string(),
                elapsed_us: u64::try_from(closed.elapsed.as_micros()).unwrap_or(u64::MAX),
            };
            self.sink.record_with(&event, &meta);
        }
    }

    /// Which replica this session attributes events to (0 = driver).
    pub fn replica(&self) -> u32 {
        self.replica
    }

    /// Flushes the sink.
    pub fn flush(&mut self) {
        self.sink.flush();
    }
}

/// Handle to an optional observability session. `Clone` is a pointer copy.
#[derive(Clone, Default)]
pub struct Obs(Option<Arc<Mutex<ObsSession>>>);

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Obs")
            .field(if self.0.is_some() {
                &"enabled"
            } else {
                &"disabled"
            })
            .finish()
    }
}

impl Obs {
    /// The disabled handle: every operation is a no-op.
    pub fn disabled() -> Obs {
        Obs(None)
    }

    /// An enabled handle recording into `sink`. A `journal_header` event
    /// (schema version + generator) is emitted first, so every sink-backed
    /// journal is self-describing.
    pub fn with_sink(sink: Box<dyn Recorder + Send>) -> Obs {
        let obs = Obs::session(sink);
        obs.emit(Event::JournalHeader {
            schema: SCHEMA_VERSION,
            generator: format!("rowfpga-obs {}", env!("CARGO_PKG_VERSION")),
        });
        obs
    }

    /// An enabled handle that keeps metrics and spans but drops events
    /// (no journal header, no per-span event allocation).
    pub fn metrics_only() -> Obs {
        let obs = Obs::session(Box::new(NoopRecorder));
        obs.with_session(|s| s.emit_spans = false);
        obs
    }

    /// An enabled handle for parallel-annealing replica `replica` (1-based;
    /// 0 is the driver). Events carry the replica id and span ids are
    /// namespaced by `(replica as u64) << 32`; no journal header is
    /// emitted — the driver's journal already has one.
    pub fn for_replica(replica: u32, sink: Box<dyn Recorder + Send>) -> Obs {
        let obs = Obs::session(sink);
        obs.with_session(|s| {
            s.replica = replica;
            s.profiler.set_id_base(u64::from(replica) << 32);
        });
        obs
    }

    fn session(sink: Box<dyn Recorder + Send>) -> Obs {
        Obs(Some(Arc::new(Mutex::new(ObsSession::new(sink)))))
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `f` against the session, if enabled. The session stays locked
    /// while `f` runs, so `f` must not call back into the handle.
    pub fn with_session<T>(&self, f: impl FnOnce(&mut ObsSession) -> T) -> Option<T> {
        self.0.as_ref().map(|session| f(&mut lock(session)))
    }

    /// Increments a counter.
    pub fn inc(&self, name: &'static str) {
        self.with_session(|s| s.metrics.inc(name));
    }

    /// Adds `n` to a counter.
    pub fn add(&self, name: &'static str, n: u64) {
        self.with_session(|s| s.metrics.add(name, n));
    }

    /// Records a histogram observation.
    pub fn observe(&self, name: &'static str, value: f64) {
        self.with_session(|s| s.metrics.observe(name, value));
    }

    /// Emits an event to the sink.
    pub fn emit(&self, event: Event) {
        self.with_session(|s| s.emit(&event));
    }

    /// Opens a profiling span (pair with [`Obs::span_end`]). Besides the
    /// aggregate timer, this journals a `span_start` event carrying the
    /// span's id and parent so readers can rebuild the span tree.
    pub fn span_start(&self, name: &'static str) {
        self.with_session(|s| s.span_start(name));
    }

    /// Closes a profiling span and journals its `span_end` event.
    pub fn span_end(&self, name: &'static str) {
        self.with_session(|s| s.span_end(name));
    }

    /// Times `f` under a named span. The session lock is released while
    /// `f` runs, so `f` may use this (or a cloned) handle freely.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_start(name);
        let value = f();
        self.span_end(name);
        value
    }

    /// Times `f` under a named span without journaling its edges — for
    /// per-move instrumentation (§7's rule: per-move data goes to the
    /// aggregate profiler/metrics, only per-temperature and per-run data
    /// is journaled, so journal size never scales with move count).
    pub fn span_quiet<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.with_session(|s| s.span_start_quiet(name));
        let value = f();
        self.with_session(|s| s.span_end_quiet(name));
        value
    }

    /// Flushes the sink (call at run end).
    pub fn flush(&self) {
        self.with_session(|s| s.flush());
    }

    /// Renders the final counters / histogram / phase breakdown, or `None`
    /// when disabled.
    pub fn render_report(&self) -> Option<String> {
        self.with_session(report::render)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::record::RunJournal;
    use crate::sink::{ReplaySink, RingSink};

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        obs.inc("x");
        obs.observe("h", 1.0);
        obs.emit(Event::Dynamics(crate::record::DynamicsRecord {
            index: 0,
            temperature: 1.0,
            cells_perturbed: 0,
            nets_globally_unrouted: 0,
            nets_unrouted: 0,
            worst_delay: 0.0,
            cost: 0.0,
        }));
        let out = obs.span("phase", || 41 + 1);
        assert_eq!(out, 42);
        assert!(obs.render_report().is_none());
    }

    #[test]
    fn clones_share_one_session() {
        let obs = Obs::metrics_only();
        let alias = obs.clone();
        obs.inc("moves");
        alias.inc("moves");
        let count = obs.with_session(|s| s.metrics.counter("moves")).unwrap();
        assert_eq!(count, 2);
    }

    #[test]
    fn span_closure_may_reenter_the_handle() {
        let obs = Obs::metrics_only();
        obs.span("outer", || {
            obs.inc("inside");
            obs.span("inner", || {});
        });
        let (outer, inner, inside) = obs
            .with_session(|s| {
                (
                    s.profiler.total("outer").unwrap().calls,
                    s.profiler.total("inner").unwrap().calls,
                    s.metrics.counter("inside"),
                )
            })
            .unwrap();
        assert_eq!((outer, inner, inside), (1, 1, 1));
    }

    #[test]
    fn events_reach_the_sink() {
        struct Counting {
            inner: RunJournal<Vec<u8>>,
        }
        impl Recorder for Counting {
            fn record(&mut self, event: &Event) {
                self.inner.record(event);
            }
        }
        let obs = Obs::with_sink(Box::new(Counting {
            inner: RunJournal::new(Vec::new()),
        }));
        obs.emit(Event::Reroute {
            scope: "test".into(),
            stats: crate::record::RerouteRecord {
                globally_routed: 1,
                detail_routed: 2,
                detail_failures: 0,
            },
        });
        assert!(obs.enabled());
    }

    #[test]
    fn spans_and_events_carry_causal_meta() {
        let ring = RingSink::new(64);
        let obs = Obs::with_sink(Box::new(ring.clone()));
        obs.span("outer", || {
            obs.emit(Event::Warning {
                code: "w".into(),
                detail: String::new(),
            });
            obs.span("inner", || {});
        });
        let docs: Vec<_> = ring
            .snapshot()
            .iter()
            .map(|l| json::parse(l).unwrap())
            .collect();
        let kinds: Vec<String> = docs
            .iter()
            .map(|d| d.get("event").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(
            kinds,
            vec![
                "journal_header",
                "span_start",
                "warning",
                "span_start",
                "span_end",
                "span_end"
            ]
        );
        let metas: Vec<EventMeta> = docs.iter().map(EventMeta::from_json).collect();
        for (i, m) in metas.iter().enumerate() {
            assert_eq!(m.seq, i as u64 + 1, "seq is monotonic from 1");
            assert_eq!(m.replica, 0, "driver session attributes replica 0");
        }
        let outer_id = docs[1].get("id").unwrap().as_u64().unwrap();
        let inner_id = docs[3].get("id").unwrap().as_u64().unwrap();
        assert_eq!(metas[2].span, outer_id, "warning fired inside outer");
        assert_eq!(docs[3].get("parent").unwrap().as_u64(), Some(outer_id));
        assert_eq!(metas[4].span, inner_id);
        assert_eq!(metas[4].parent_span, outer_id);
    }

    #[test]
    fn replica_sessions_namespace_ids_and_replay_restamps_seq() {
        let buf = ReplaySink::new();
        let replica = Obs::for_replica(2, Box::new(buf.clone()));
        replica.span("anneal", || {});
        let recorded = buf.drain();
        assert_eq!(recorded.len(), 2, "span_start + span_end, no header");
        for (event, meta) in &recorded {
            assert_eq!(meta.replica, 2);
            let id = match event {
                Event::SpanStart { id, .. } | Event::SpanEnd { id, .. } => *id,
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(id >> 32, 2, "span ids are namespaced by replica");
        }

        let ring = RingSink::new(8);
        let main = Obs::with_sink(Box::new(ring.clone()));
        main.with_session(|s| {
            for (event, meta) in &recorded {
                s.emit_replayed(event, meta);
            }
        });
        let docs: Vec<_> = ring
            .snapshot()
            .iter()
            .map(|l| json::parse(l).unwrap())
            .collect();
        let metas: Vec<EventMeta> = docs.iter().map(EventMeta::from_json).collect();
        // Header is seq 1; the replayed events continue the driver's
        // sequence but keep their replica and span attribution.
        assert_eq!(metas[1].seq, 2);
        assert_eq!(metas[2].seq, 3);
        assert_eq!(metas[1].replica, 2);
        assert_eq!(metas[1].span >> 32, 2);
    }
}
