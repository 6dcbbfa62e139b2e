//! Interprocedural determinism taint and panic reachability.
//!
//! **Taint** finds wall-clock / entropy / hash-order *sources* anywhere
//! in the workspace and walks the call graph backwards: any function
//! that can reach a source is tainted. A finding is reported at the
//! *boundary* — a function in the sink domain (solver crates, digest
//! code) whose call edge crosses into tainted territory — so one leak
//! produces one finding at its entry point, not a cascade up every
//! caller. Each finding is a violation; nothing budgets them. A source
//! suppressed by `allow(determinism)` is asserted benign and does not
//! taint; a boundary call can be blessed with `allow(taint) reason=…`.
//! A source read directly in a sink function is left to clippy's bans
//! (`clippy.toml`), so taint reports only the calls that reach one.
//!
//! **Reachability** turns the panic budget into a path-aware guarantee:
//! from every non-test function in a `hot-path` or `no-panic` file, walk
//! the call graph forward and count the distinct panic sites (unwrap /
//! expect / panic! / unreachable! / slice indexing) any path can reach.
//! The per-crate counts gate via the `[reachability]` budget table;
//! there is deliberately no inline allow — like panic counts, the only
//! way a site becomes acceptable is the committed, two-way ratchet.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{chain_to, reach_forward, reach_reverse, Graph};
use crate::lexer::TokenKind;
use crate::lints::{panic_pattern, seq};
use crate::report::Violation;
use crate::Unit;

/// A determinism source pattern at token `i`, if any.
fn source_pattern(src: &str, unit: &Unit, i: usize) -> Option<&'static str> {
    let lx = &unit.lx;
    if seq(src, lx, i, &["Instant", ":", ":", "now"]) {
        return Some("Instant::now");
    }
    if seq(src, lx, i, &["thread", ":", ":", "current"]) {
        return Some("thread::current");
    }
    if lx.tokens[i].kind != TokenKind::Ident {
        return None;
    }
    match lx.text(src, i) {
        "SystemTime" => Some("SystemTime"),
        "thread_rng" => Some("thread_rng"),
        "HashMap" => Some("HashMap"),
        "HashSet" => Some("HashSet"),
        "RandomState" => Some("RandomState"),
        "DefaultHasher" => Some("DefaultHasher"),
        "ThreadId" => Some("ThreadId"),
        _ => None,
    }
}

/// Finds the first unsuppressed determinism source in a function body.
fn direct_source(unit: &Unit, body: (usize, usize)) -> Option<(&'static str, u32)> {
    for i in body.0..=body.1.min(unit.lx.tokens.len().saturating_sub(1)) {
        if unit.test_mask[i] {
            continue;
        }
        if let Some(what) = source_pattern(&unit.src, unit, i) {
            let line = unit.lx.tokens[i].line;
            if !unit.allows.permits("determinism", line) {
                return Some((what, line));
            }
        }
    }
    None
}

/// Whether a function belongs to the taint sink domain.
fn in_sink_domain(krate: &str, fn_name: &str, sink_crates: &[&str]) -> bool {
    sink_crates.contains(&krate) || fn_name.contains("digest")
}

/// Runs the determinism taint analysis: one violation per boundary
/// call, with the chain down to the source.
pub fn taint(g: &Graph, units: &[Unit], sink_crates: &[&str]) -> Vec<Violation> {
    let mut out = Vec::new();
    // Seed functions: those containing an unsuppressed source.
    let mut seed: Vec<Option<(&'static str, u32)>> = Vec::with_capacity(g.fns.len());
    let mut seeds = Vec::new();
    for (fi, info) in g.fns.iter().enumerate() {
        let s = direct_source(&units[info.file], info.def.body);
        if s.is_some() {
            seeds.push(fi);
        }
        seed.push(s);
    }
    // next[f] = hop toward the nearest source (reverse reachability).
    let next = reach_reverse(g, &seeds);
    let tainted = |f: usize| seed[f].is_some() || next[f].is_some();
    let mut reported: BTreeSet<(String, u32, String)> = BTreeSet::new();

    for (fi, info) in g.fns.iter().enumerate() {
        if info.is_test || !in_sink_domain(&info.krate, &info.def.name, sink_crates) {
            continue;
        }
        if seed[fi].is_some() {
            continue; // direct reads are left to clippy's bans
        }
        for e in &g.edges[fi] {
            let gi = e.callee;
            if !tainted(gi) {
                continue;
            }
            // Boundary: the callee is itself a source, or sits outside
            // the sink domain (interior sink-domain callees get reported
            // at their own boundary edge instead).
            let callee = &g.fns[gi];
            if seed[gi].is_none() && in_sink_domain(&callee.krate, &callee.def.name, sink_crates) {
                continue;
            }
            if units[info.file].allows.permits("taint", e.line) {
                continue;
            }
            let (hops, cur) = chain_to(g, gi, &next, |f| seed[f].is_some());
            let (what, src_line) = seed[cur].unwrap_or(("a determinism source", 0));
            let message = format!(
                "`{}` transitively reaches `{}` ({}:{}); thread the value \
                 in from the caller or add `allow(taint) reason=…` here",
                info.display(),
                what,
                g.fns[cur].file_label,
                src_line,
            );
            // A call that resolves to several tainted impls reaching the
            // same source is one finding; the first chain stands for all.
            if !reported.insert((info.file_label.clone(), e.line, message.clone())) {
                continue;
            }
            // Chain: this call edge, then hops toward the source.
            let mut chain = vec![
                format!("{} ({}:{})", info.display(), info.file_label, info.def.line),
                format!(
                    "{} (called at {}:{})",
                    callee.display(),
                    info.file_label,
                    e.line
                ),
            ];
            chain.extend(hops.into_iter().skip(1));
            out.push(Violation {
                lint: "taint".to_string(),
                file: info.file_label.clone(),
                line: e.line,
                message,
                chain,
            });
        }
    }
    out
}

/// A panic-site pattern at token `i` of `unit`, if any: the four panic
/// forms plus `x[i]` slice/array indexing (a `[` whose previous token
/// ends an expression).
fn panic_site(src: &str, unit: &Unit, i: usize) -> Option<&'static str> {
    let lx = &unit.lx;
    if let Some(what) = panic_pattern(src, lx, i) {
        return Some(what);
    }
    if lx.text(src, i) == "[" && i > 0 {
        let prev = &lx.tokens[i - 1];
        let expr_end = match prev.kind {
            TokenKind::Ident => true,
            _ => {
                let t = lx.text(src, i - 1);
                t == ")" || t == "]"
            }
        };
        if expr_end {
            return Some("[idx]");
        }
    }
    None
}

/// The panic sites inside one function body, as (file, line, what).
fn sites_in(g: &Graph, units: &[Unit], fi: usize) -> Vec<(String, u32, &'static str)> {
    let info = &g.fns[fi];
    let unit = &units[info.file];
    let mut out = Vec::new();
    let hi = info.def.body.1.min(unit.lx.tokens.len().saturating_sub(1));
    for i in info.def.body.0..=hi {
        if unit.test_mask[i] {
            continue;
        }
        if let Some(what) = panic_site(&unit.src, unit, i) {
            out.push((info.file_label.clone(), unit.lx.tokens[i].line, what));
        }
    }
    out
}

/// Entry functions (non-test fns in `hot-path` / `no-panic` files),
/// grouped by crate.
fn entries_by_crate(g: &Graph, units: &[Unit]) -> BTreeMap<String, Vec<usize>> {
    let mut map: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (fi, info) in g.fns.iter().enumerate() {
        if !info.is_test && units[info.file].entry {
            map.entry(info.krate.clone()).or_default().push(fi);
        }
    }
    map
}

/// Counts distinct reachable panic sites per entry crate.
pub fn reachability_counts(g: &Graph, units: &[Unit]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for (krate, entries) in entries_by_crate(g, units) {
        let from = reach_forward(g, &entries);
        let mut sites: BTreeSet<(String, u32)> = BTreeSet::new();
        let reached = |fi: usize| entries.contains(&fi) || from[fi].is_some();
        for fi in 0..g.fns.len() {
            if g.fns[fi].is_test || !reached(fi) {
                continue;
            }
            for (file, line, _) in sites_in(g, units, fi) {
                sites.insert((file, line));
            }
        }
        counts.insert(krate, sites.len());
    }
    counts
}

/// Builds up to `limit` detailed reachability violations (with call
/// chains) for one over-budget entry crate.
pub fn reachability_details(
    g: &Graph,
    units: &[Unit],
    krate: &str,
    limit: usize,
) -> Vec<Violation> {
    let entries = entries_by_crate(g, units).remove(krate).unwrap_or_default();
    if entries.is_empty() {
        return Vec::new();
    }
    let from = reach_forward(g, &entries);
    let mut out = Vec::new();
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    for (fi, hop) in from.iter().enumerate() {
        if out.len() >= limit {
            break;
        }
        let reached = entries.contains(&fi) || hop.is_some();
        if g.fns[fi].is_test || !reached {
            continue;
        }
        for (file, line, what) in sites_in(g, units, fi) {
            if out.len() >= limit || !seen.insert((file.clone(), line)) {
                continue;
            }
            // Chain from some entry down to the panicking function.
            let next = reach_reverse(g, &[fi]);
            let entry = entries
                .iter()
                .copied()
                .find(|&e| e == fi || next[e].is_some())
                .unwrap_or(fi);
            let (chain, _) = chain_to(g, entry, &next, |f| f == fi);
            out.push(Violation {
                lint: "reachability".to_string(),
                file: file.clone(),
                line,
                message: format!(
                    "`{what}` is reachable from {krate} entry `{}`; convert the \
                     call path to typed errors or let-else",
                    g.fns[entry].display()
                ),
                chain,
            });
        }
    }
    out
}
