//! Nestable monotonic span timers for phase profiling.
//!
//! Spans are identified by static names and may nest (e.g. a
//! `temperature` span containing many `delay_update` spans). Each span's
//! inclusive time, call count, and self time (inclusive minus time spent in
//! child spans) are accumulated; the final report renders totals in first-
//! started order.
//!
//! Beyond the aggregate totals, every span instance is also assigned a
//! session-unique id so the journal can reconstruct the full span *tree*
//! (`span_start` / `span_end` events, see [`crate::record`]). Ids are
//! assigned by a deterministic counter, not the clock; parallel replicas
//! namespace theirs via [`PhaseProfiler::set_id_base`] so merged journals
//! never collide.

use std::collections::BTreeMap;
// rowfpga-lint: begin-allow(determinism) reason=span timing is observability wall-clock by design; durations are reported, never fed back into the search
use std::time::{Duration, Instant};

/// Accumulated timing for one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTotal {
    /// Number of times the span was entered.
    pub calls: u64,
    /// Total wall time with the span open (includes children).
    pub total: Duration,
    /// Total wall time spent in child spans while this span was open.
    pub child: Duration,
}

impl PhaseTotal {
    /// Time attributable to this span alone.
    pub fn self_time(&self) -> Duration {
        self.total.saturating_sub(self.child)
    }
}

/// A closed span instance, as returned by [`PhaseProfiler::end`].
#[derive(Clone, Copy, Debug)]
pub struct ClosedSpan {
    /// The id [`PhaseProfiler::start`] assigned.
    pub id: u64,
    /// The enclosing span's id (0 = root).
    pub parent: u64,
    /// Wall time the span was open.
    pub elapsed: Duration,
}

#[derive(Debug)]
struct OpenSpan {
    name: &'static str,
    id: u64,
    started: Instant,
    child: Duration,
}

/// Records nested, named spans against a monotonic clock.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    stack: Vec<OpenSpan>,
    totals: BTreeMap<&'static str, PhaseTotal>,
    order: Vec<&'static str>,
    next_id: u64,
    id_base: u64,
}

impl PhaseProfiler {
    /// Creates an empty profiler.
    pub fn new() -> PhaseProfiler {
        PhaseProfiler::default()
    }

    /// Namespaces all ids this profiler assigns from here on (replica `r`
    /// uses `(r as u64) << 32`). The default base is 0.
    pub fn set_id_base(&mut self, base: u64) {
        self.id_base = base;
    }

    /// Opens a span and returns `(id, parent_id)`. Must be balanced by
    /// [`PhaseProfiler::end`] with the same name, in LIFO order.
    #[expect(
        clippy::disallowed_methods,
        reason = "span timing is observability wall-clock by design; durations are reported, never fed back into the search"
    )]
    pub fn start(&mut self, name: &'static str) -> (u64, u64) {
        self.next_id += 1;
        let id = self.id_base + self.next_id;
        let parent = self.stack.last().map_or(0, |s| s.id);
        self.stack.push(OpenSpan {
            name,
            id,
            started: Instant::now(),
            child: Duration::ZERO,
        });
        (id, parent)
    }

    /// Closes the innermost span and returns its identity and elapsed
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if no span is open or the innermost open span has a
    /// different name (mismatched nesting is a bug in the caller).
    pub fn end(&mut self, name: &'static str) -> ClosedSpan {
        let span = self.stack.pop().unwrap_or_else(|| {
            panic!("span `{name}` ended with no span open");
        });
        assert_eq!(
            span.name, name,
            "span `{name}` ended while `{}` was innermost",
            span.name
        );
        let elapsed = span.started.elapsed();
        if !self.totals.contains_key(name) {
            self.order.push(name);
        }
        let entry = self.totals.entry(name).or_default();
        entry.calls += 1;
        entry.total += elapsed;
        entry.child += span.child;
        if let Some(parent) = self.stack.last_mut() {
            parent.child += elapsed;
        }
        ClosedSpan {
            id: span.id,
            parent: self.stack.last().map_or(0, |s| s.id),
            elapsed,
        }
    }

    /// `(id, parent_id)` of the innermost open span, or `(0, 0)` when no
    /// span is open.
    pub fn current(&self) -> (u64, u64) {
        match self.stack.len() {
            0 => (0, 0),
            1 => (self.stack[0].id, 0),
            n => (self.stack[n - 1].id, self.stack[n - 2].id),
        }
    }

    /// Number of spans currently open.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Accumulated totals for one span name, if it ever closed.
    pub fn total(&self, name: &str) -> Option<PhaseTotal> {
        self.totals.get(name).copied()
    }

    /// `(name, totals)` pairs in first-started order.
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, PhaseTotal)> + '_ {
        self.order.iter().map(|n| (*n, self.totals[n]))
    }

    /// Folds another profiler's closed-span totals into this one (used to
    /// merge parallel replicas' profiles into the driver's report). Open
    /// spans on `other` are ignored; names unseen here keep `other`'s
    /// relative order.
    pub fn absorb(&mut self, other: &PhaseProfiler) {
        for (name, t) in other.phases() {
            if !self.totals.contains_key(name) {
                self.order.push(name);
            }
            let entry = self.totals.entry(name).or_default();
            entry.calls += t.calls;
            entry.total += t.total;
            entry.child += t.child;
        }
    }
}
// rowfpga-lint: end-allow(determinism)

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_attribute_child_time() {
        let mut p = PhaseProfiler::new();
        p.start("outer");
        p.start("inner");
        std::thread::sleep(Duration::from_millis(2));
        p.end("inner");
        p.end("outer");

        let outer = p.total("outer").unwrap();
        let inner = p.total("inner").unwrap();
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(outer.total >= inner.total, "outer includes inner");
        assert!(outer.child >= inner.total - Duration::from_micros(1));
        assert!(inner.self_time() <= inner.total);
        assert_eq!(p.depth(), 0);
    }

    #[test]
    fn repeated_spans_accumulate_calls() {
        let mut p = PhaseProfiler::new();
        for _ in 0..5 {
            p.start("temperature");
            p.end("temperature");
        }
        assert_eq!(p.total("temperature").unwrap().calls, 5);
    }

    #[test]
    fn phases_keep_first_started_order() {
        let mut p = PhaseProfiler::new();
        p.start("warmup");
        p.end("warmup");
        p.start("anneal");
        p.start("warmup");
        p.end("warmup");
        p.end("anneal");
        let names: Vec<_> = p.phases().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["warmup", "anneal"]);
    }

    #[test]
    fn span_ids_form_a_tree() {
        let mut p = PhaseProfiler::new();
        let (outer_id, outer_parent) = p.start("outer");
        assert_eq!(outer_parent, 0);
        assert_eq!(p.current(), (outer_id, 0));
        let (inner_id, inner_parent) = p.start("inner");
        assert_eq!(inner_parent, outer_id);
        assert_eq!(p.current(), (inner_id, outer_id));
        let closed = p.end("inner");
        assert_eq!(closed.id, inner_id);
        assert_eq!(closed.parent, outer_id);
        let closed = p.end("outer");
        assert_eq!(closed.id, outer_id);
        assert_eq!(closed.parent, 0);
        assert_eq!(p.current(), (0, 0));
        // Ids are fresh per instance even for a repeated name.
        let (again, _) = p.start("outer");
        assert_ne!(again, outer_id);
        p.end("outer");
    }

    #[test]
    fn id_base_namespaces_replica_spans() {
        let mut p = PhaseProfiler::new();
        p.set_id_base(2u64 << 32);
        let (id, parent) = p.start("anneal");
        assert_eq!(id, (2u64 << 32) + 1);
        assert_eq!(parent, 0);
        p.end("anneal");
    }

    #[test]
    fn absorb_merges_totals_and_preserves_order() {
        let mut main = PhaseProfiler::new();
        main.start("anneal");
        main.end("anneal");
        let mut replica = PhaseProfiler::new();
        replica.start("anneal");
        replica.end("anneal");
        replica.start("sta");
        replica.end("sta");
        main.absorb(&replica);
        assert_eq!(main.total("anneal").unwrap().calls, 2);
        assert_eq!(main.total("sta").unwrap().calls, 1);
        let names: Vec<_> = main.phases().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["anneal", "sta"]);
    }

    #[test]
    #[should_panic(expected = "ended while")]
    fn mismatched_end_panics() {
        let mut p = PhaseProfiler::new();
        p.start("a");
        p.end("b");
    }

    #[test]
    #[should_panic(expected = "no span open")]
    fn end_without_start_panics() {
        let mut p = PhaseProfiler::new();
        p.end("a");
    }
}
