//! Lock discipline: consistent acquisition order and no blocking calls
//! while a lock is held.
//!
//! Acquisitions are found syntactically (`x.lock()` and
//! `lock_ignoring_poison(&x)`-style helpers — any `*lock*` function
//! taking `&receiver`), named by the receiver's last path segment, and
//! given a hold range: a `let`-bound guard is held until `drop(guard)`
//! or the end of the function; an unbound temporary until the end of its
//! statement. Within a hold range the pass records
//!
//! * **order edges** — acquiring `b` while `a` is held (directly, or by
//!   calling a function whose transitive acquire-set contains `b`). A
//!   cycle in the resulting graph means two call paths take the same
//!   pair of locks in opposite orders: a deadlock waiting for the right
//!   interleaving.
//! * **blocking-under-lock** — fsync, socket I/O, thread join, sleep, or
//!   barrier waits (directly, or via a call to a transitively-blocking
//!   function) while any lock is held. `Condvar::wait(guard)` is exempt:
//!   it releases the lock while parked.
//!
//! Deliberate sites (the daemon persists state transitions to the spool
//! *before* acknowledging, by design) carry `allow(locks)` regions.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{chain_to, reach_reverse, Graph};
use crate::lexer::TokenKind;
use crate::lints::seq;
use crate::report::Violation;
use crate::Unit;

/// One lock acquisition inside a function body.
struct Acquire {
    /// Lock name (receiver's last path segment).
    name: String,
    /// Token index of the acquisition.
    tok: usize,
    /// 1-based line.
    line: u32,
    /// Last token index of the hold range.
    end: usize,
}

/// Blocking-call patterns; returns a display label.
fn blocking_at(src: &str, unit: &Unit, i: usize) -> Option<&'static str> {
    let lx = &unit.lx;
    for (pat, label) in [
        (&[".", "sync_all", "("][..], ".sync_all()"),
        (&[".", "sync_data", "("][..], ".sync_data()"),
        (&[".", "accept", "("][..], ".accept()"),
        (&[".", "read_line", "("][..], ".read_line()"),
        (&[".", "recv", "("][..], ".recv()"),
        (&["sleep", "("][..], "thread::sleep"),
    ] {
        if seq(src, lx, i, pat) {
            return Some(label);
        }
    }
    // Zero-argument `.join()` / `.wait()`: thread join and barrier wait
    // block; `join(sep)` on slices and `wait(guard)` on condvars do not.
    for (name, label) in [("join", ".join()"), ("wait", ".wait()")] {
        if seq(src, lx, i, &[".", name, "(", ")"]) {
            return Some(label);
        }
    }
    None
}

/// Whether a function body contains a direct blocking call.
fn directly_blocks(g: &Graph, units: &[Unit], fi: usize) -> Option<&'static str> {
    let info = &g.fns[fi];
    let unit = &units[info.file];
    let hi = info.def.body.1.min(unit.lx.tokens.len().saturating_sub(1));
    (info.def.body.0..=hi)
        .filter(|&i| !unit.test_mask[i])
        .find_map(|i| blocking_at(&unit.src, unit, i))
}

/// Whether an identifier names a lock-helper function. `lock` must be a
/// word of its own (`lock_ignoring_poison`, `try_lock`) — `clock` and
/// `Block` are everywhere in an FPGA codebase and must not match.
fn is_lock_helper(name: &str) -> bool {
    name == "lock" || name.starts_with("lock_") || name.contains("_lock")
}

/// Finds the acquisitions in one function body.
fn acquisitions(g: &Graph, units: &[Unit], fi: usize) -> Vec<Acquire> {
    let info = &g.fns[fi];
    let unit = &units[info.file];
    let lx = &unit.lx;
    let src = unit.src.as_str();
    let (lo, hi0) = info.def.body;
    let hi = hi0.min(lx.tokens.len().saturating_sub(1));
    let mut out = Vec::new();
    for i in lo..=hi {
        if unit.test_mask[i] {
            continue;
        }
        // `recv.lock()` — name is the ident before `.lock`; for
        // `stdout().lock()` walk back over the call to the callee name.
        let name = if seq(src, lx, i, &[".", "lock", "("]) && i > lo {
            match lx.tokens[i - 1].kind {
                TokenKind::Ident => Some(lx.text(src, i - 1).to_string()),
                _ if lx.text(src, i - 1) == ")" => {
                    let mut depth = 1i32;
                    let mut j = i - 1;
                    while j > lo && depth > 0 {
                        j -= 1;
                        match lx.text(src, j) {
                            ")" => depth += 1,
                            "(" => depth -= 1,
                            _ => {}
                        }
                    }
                    (j > lo && lx.tokens[j - 1].kind == TokenKind::Ident)
                        .then(|| lx.text(src, j - 1).to_string())
                        .or(Some("<expr>".to_string()))
                }
                _ => Some("<expr>".to_string()),
            }
        } else if lx.tokens[i].kind == TokenKind::Ident
            && is_lock_helper(lx.text(src, i))
            && seq(src, lx, i + 1, &["(", "&"])
        {
            // `lock_ignoring_poison(&self.published)` — last ident of the
            // borrowed expression.
            let mut j = i + 3;
            let mut last = None;
            while j <= hi {
                match lx.tokens[j].kind {
                    TokenKind::Ident => last = Some(lx.text(src, j).to_string()),
                    _ if lx.text(src, j) == "." => {}
                    _ => break,
                }
                j += 1;
            }
            last
        } else {
            None
        };
        let Some(name) = name else { continue };
        // stdout/stderr/stdin locks serialize *output*, and holding one
        // across a command is the idiomatic way to batch writes.
        if matches!(name.as_str(), "stdout" | "stderr" | "stdin") {
            continue;
        }

        // Guard binding: statement begins `let [mut] g =`.
        let mut k = i;
        while k > lo && !matches!(lx.text(src, k - 1), ";" | "{" | "}") {
            k -= 1;
        }
        let guard = if lx.text(src, k) == "let" {
            let mut m = k + 1;
            if lx.text(src, m) == "mut" {
                m += 1;
            }
            (lx.tokens[m].kind == TokenKind::Ident).then(|| lx.text(src, m).to_string())
        } else {
            None
        };
        // A guard lives at most to the end of its enclosing block.
        let block_end = {
            let mut depth = 0i32;
            let mut e = hi;
            for j in i..=hi {
                match lx.text(src, j) {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth < 0 {
                            e = j;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            e
        };
        let end = match &guard {
            Some(gname) => (i..=block_end)
                .find(|&j| seq(src, lx, j, &["drop", "("]) && lx.text(src, j + 2) == gname.as_str())
                .map(|j| j + 3)
                .unwrap_or(block_end),
            // Temporary guard: held to the end of the statement.
            None => (i..=block_end)
                .find(|&j| lx.text(src, j) == ";")
                .unwrap_or(block_end),
        };
        out.push(Acquire {
            name,
            tok: i,
            line: lx.tokens[i].line,
            end,
        });
    }
    out
}

/// Runs the lock-discipline analysis workspace-wide.
pub fn check(g: &Graph, units: &[Unit]) -> Vec<Violation> {
    let n = g.fns.len();
    let per_fn: Vec<Vec<Acquire>> = (0..n).map(|fi| acquisitions(g, units, fi)).collect();

    // Transitive blocking: reverse reachability from direct blockers.
    let blockers: Vec<usize> = (0..n)
        .filter(|&fi| directly_blocks(g, units, fi).is_some())
        .collect();
    let toward_block = reach_reverse(g, &blockers);
    let may_block = |fi: usize| blockers.contains(&fi) || toward_block[fi].is_some();

    // Transitive acquire-sets, to a fixpoint (the graph may have cycles).
    let mut acq_sets: Vec<BTreeSet<String>> = per_fn
        .iter()
        .map(|acqs| acqs.iter().map(|a| a.name.clone()).collect())
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for fi in 0..n {
            for e in &g.edges[fi] {
                let add: Vec<String> = acq_sets[e.callee]
                    .iter()
                    .filter(|l| !acq_sets[fi].contains(*l))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    changed = true;
                    acq_sets[fi].extend(add);
                }
            }
        }
    }

    let mut out = Vec::new();
    // Order edges: (from, to) → first witness site.
    let mut order: BTreeMap<(String, String), (String, u32, String)> = BTreeMap::new();

    for (fi, info) in g.fns.iter().enumerate() {
        if info.is_test {
            continue;
        }
        let unit = &units[info.file];
        let lx = &unit.lx;
        let src = unit.src.as_str();
        for a in &per_fn[fi] {
            let held = (a.tok + 3).min(a.end)..=a.end;
            // Nested direct acquisitions.
            for b in &per_fn[fi] {
                if b.tok > a.tok && held.contains(&b.tok) && b.name != a.name {
                    order.entry((a.name.clone(), b.name.clone())).or_insert((
                        info.file_label.clone(),
                        b.line,
                        info.display(),
                    ));
                }
            }
            for i in held.clone() {
                if unit.test_mask[i] {
                    continue;
                }
                // Direct blocking call while held.
                if let Some(label) = blocking_at(src, unit, i) {
                    let line = lx.tokens[i].line;
                    if !unit.allows.permits("locks", line) {
                        out.push(Violation {
                            lint: "locks".to_string(),
                            file: info.file_label.clone(),
                            line,
                            message: format!(
                                "`{label}` while lock `{}` (acquired line {}) is held \
                                 blocks every other thread contending for it",
                                a.name, a.line
                            ),
                            chain: Vec::new(),
                        });
                    }
                }
            }
            // Calls inside the hold range.
            for e in &g.edges[fi] {
                if !held.contains(&e.tok) {
                    continue;
                }
                for l in &acq_sets[e.callee] {
                    if *l != a.name {
                        order.entry((a.name.clone(), l.clone())).or_insert((
                            info.file_label.clone(),
                            e.line,
                            info.display(),
                        ));
                    }
                }
                if may_block(e.callee) && !unit.allows.permits("locks", e.line) {
                    let callee = &g.fns[e.callee];
                    let (hops, cur) = chain_to(g, e.callee, &toward_block, |f| {
                        directly_blocks(g, units, f).is_some()
                    });
                    let mut chain = vec![format!(
                        "{} (called at {}:{})",
                        callee.display(),
                        info.file_label,
                        e.line
                    )];
                    chain.extend(hops.into_iter().skip(1));
                    let what = directly_blocks(g, units, cur).unwrap_or("a blocking call");
                    out.push(Violation {
                        lint: "locks".to_string(),
                        file: info.file_label.clone(),
                        line: e.line,
                        message: format!(
                            "lock `{}` (acquired line {}) is held across a call that \
                             transitively reaches `{what}`; release it first or add \
                             `allow(locks) reason=…`",
                            a.name, a.line
                        ),
                        chain,
                    });
                }
            }
        }
    }

    // Inversions: a→…→b and b→…→a in the order graph.
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from.to_string()];
        while let Some(cur) = stack.pop() {
            for ((s, d), _) in order.range((cur.clone(), String::new())..) {
                if *s != cur {
                    break;
                }
                if d == to {
                    return true;
                }
                if seen.insert(d.clone()) {
                    stack.push(d.clone());
                }
            }
        }
        false
    };
    let mut flagged: BTreeSet<(String, String)> = BTreeSet::new();
    for ((a, b), (file, line, holder)) in &order {
        if a >= b || !reaches(b, a) || !flagged.insert((a.clone(), b.clone())) {
            continue;
        }
        let back = order
            .iter()
            .find(|((s, d), _)| s == b && (d == a || reaches(d, a)))
            .map(|(_, w)| w.clone());
        let mut v = Violation {
            lint: "locks".to_string(),
            file: file.clone(),
            line: *line,
            message: format!(
                "lock order inversion: `{a}` → `{b}` here (in `{holder}`) but another \
                 path acquires them in the opposite order — a deadlock under the \
                 right interleaving"
            ),
            chain: Vec::new(),
        };
        if let Some((bfile, bline, bholder)) = back {
            v.chain
                .push(format!("opposite order in {bholder} ({bfile}:{bline})"));
        }
        out.push(v);
    }
    out
}
