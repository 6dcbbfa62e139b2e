//! The cross-crate call graph: resolution of the calls [`crate::items`]
//! extracted, plus the traversal helpers the interprocedural analyses
//! share.
//!
//! Resolution is name-based and deliberately over-approximate where the
//! tokens underdetermine the callee (method calls resolve to every
//! workspace impl bearing the name that the caller's crate can reach,
//! minus a deny-list of std-shadowing names that would connect everything
//! to everything; `self.m(…)` resolves to the caller's own impl when that
//! defines `m`). An
//! over-approximate edge can only create a false *finding*, which a
//! reasoned allow region answers; a missed edge is a soundness gap, so
//! the resolver prefers linking too much over too little. See DESIGN.md
//! §14 for the exact rules.

use std::collections::BTreeMap;

use crate::items::{Call, FnDef, ParsedFile};

/// One function in the global table.
#[derive(Clone, Debug)]
pub struct FnInfo {
    /// Index of the file (into the engine's file list).
    pub file: usize,
    /// Workspace-relative file path label.
    pub file_label: String,
    /// Package name of the owning crate.
    pub krate: String,
    /// The parsed definition.
    pub def: FnDef,
    /// Whether the definition sits inside a `#[cfg(test)]` region.
    pub is_test: bool,
}

impl FnInfo {
    /// `crate::module::Type::name`, the display form used in chains.
    pub fn display(&self) -> String {
        let mut out = self.krate.replace('-', "_");
        for m in &self.def.module {
            out.push_str("::");
            out.push_str(m);
        }
        if let Some(ty) = &self.def.impl_type {
            out.push_str("::");
            out.push_str(ty);
        }
        out.push_str("::");
        out.push_str(&self.def.name);
        out
    }
}

/// A resolved call edge (stored forward on the caller).
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Callee function index.
    pub callee: usize,
    /// 1-based line of the call, in the caller's file.
    pub line: u32,
    /// Token index of the call name, in the caller's file.
    pub tok: usize,
}

/// The resolved workspace call graph.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// All functions, in (crate, file, source) order.
    pub fns: Vec<FnInfo>,
    /// Forward adjacency: `edges[f]` are the calls `f` makes.
    pub edges: Vec<Vec<Edge>>,
    /// Reverse adjacency: `redges[g]` holds `(caller, line)` pairs, the
    /// line being the call site in the caller.
    pub redges: Vec<Vec<(usize, u32)>>,
}

/// Method names too generic to resolve across crates: each shadows a
/// std/primitive method, so a bare `.len()` says nothing about which
/// workspace impl (if any) is meant. These resolve within the caller's
/// crate only.
const COMMON_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "push",
    "pop",
    "get",
    "get_mut",
    "insert",
    "remove",
    "clear",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "next",
    "clone",
    "cmp",
    "eq",
    "hash",
    "fmt",
    "default",
    "from",
    "into",
    "new",
    "as_str",
    "as_ref",
    "as_mut",
    "to_string",
    "write",
    "read",
    "flush",
    "drop",
    "extend",
    "min",
    "max",
    "abs",
    "start",
    "end",
    "index",
    "source",
    "name",
    "id",
    "kind",
    "state",
    "reset",
    "join",
    "wait",
];

/// One file's contribution to [`build`].
#[derive(Debug)]
pub struct FileFns<'a> {
    /// Index of the file in the engine's file list.
    pub file: usize,
    /// Workspace-relative path label.
    pub label: &'a str,
    /// Owning crate's package name.
    pub krate: &'a str,
    /// The parsed items.
    pub parsed: &'a ParsedFile,
    /// Per-token `#[cfg(test)]` mask for the file.
    pub test_mask: &'a [bool],
    /// The workspace crates the owning crate depends on, directly or
    /// transitively (see [`crate::model::Workspace::dependency_closure`]).
    pub deps: &'a [String],
}

/// Builds the workspace call graph from every file's parsed items.
pub fn build(files: &[FileFns<'_>]) -> Graph {
    let mut g = Graph::default();
    // Global function table + per-file alias tables.
    let mut aliases: Vec<BTreeMap<&str, &[String]>> = Vec::new();
    let mut file_of_entry: Vec<usize> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        let mut table = BTreeMap::new();
        for u in &f.parsed.uses {
            table.insert(u.leaf.as_str(), u.path.as_slice());
        }
        aliases.push(table);
        for def in &f.parsed.fns {
            let is_test = f.test_mask.get(def.body.0).copied().unwrap_or(false);
            g.fns.push(FnInfo {
                file: f.file,
                file_label: f.label.to_string(),
                krate: f.krate.to_string(),
                def: def.clone(),
                is_test,
            });
            file_of_entry.push(fi);
        }
    }
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, info) in g.fns.iter().enumerate() {
        by_name.entry(&info.def.name).or_default().push(i);
    }
    let crate_names: Vec<String> = {
        let mut v: Vec<String> = files.iter().map(|f| f.krate.replace('-', "_")).collect();
        v.sort();
        v.dedup();
        v
    };

    g.edges = vec![Vec::new(); g.fns.len()];
    g.redges = vec![Vec::new(); g.fns.len()];
    for (caller, &fi) in file_of_entry.iter().enumerate() {
        let calls = g.fns[caller].def.calls.clone();
        for call in &calls {
            let deps = files[fi].deps;
            for callee in resolve(&g, &by_name, &crate_names, &aliases[fi], deps, caller, call) {
                if callee == caller {
                    continue; // self-recursion adds nothing to reachability
                }
                if g.fns[callee].is_test && !g.fns[caller].is_test {
                    // `cfg(test)` items do not exist in production builds;
                    // a non-test caller can never actually reach them.
                    continue;
                }
                g.edges[caller].push(Edge {
                    callee,
                    line: call.line,
                    tok: call.tok,
                });
                g.redges[callee].push((caller, call.line));
            }
        }
    }
    g
}

/// Resolves one call to zero or more function indices. `deps` are the
/// caller's crate's workspace dependencies.
fn resolve(
    g: &Graph,
    by_name: &BTreeMap<&str, Vec<usize>>,
    crate_names: &[String],
    aliases: &BTreeMap<&str, &[String]>,
    deps: &[String],
    caller: usize,
    call: &Call,
) -> Vec<usize> {
    let caller_info = &g.fns[caller];
    let name = call.path.last().map(String::as_str).unwrap_or_default();
    let Some(candidates) = by_name.get(name) else {
        return Vec::new();
    };

    if call.method {
        // `.join(sep)` / `.wait(guard)` are Path/slice/Condvar calls, not
        // the blocking zero-argument thread-join / barrier-wait; never
        // link them to workspace impls of the same name.
        if !call.empty_args && (name == "join" || name == "wait") {
            return Vec::new();
        }
        // An inherent method is callable only from its own crate and the
        // crates depending on it. A trait method may run anywhere: generic
        // code dispatches to impls in crates it cannot name. Test code may
        // also use dev-dependencies, so it keeps every candidate.
        let reachable = |c: usize| {
            let callee = &g.fns[c];
            callee.def.trait_method
                || caller_info.is_test
                || callee.krate == caller_info.krate
                || deps.contains(&callee.krate)
        };
        let impls: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&c| g.fns[c].def.impl_type.is_some() && reachable(c))
            .collect();
        // `self.m(…)` is the caller's own method whenever its impl
        // defines one.
        let own = |&c: &usize| {
            g.fns[c].krate == caller_info.krate
                && g.fns[c].def.impl_type == caller_info.def.impl_type
        };
        if call.self_receiver && impls.iter().any(own) {
            return impls.into_iter().filter(own).collect();
        }
        if COMMON_METHODS.contains(&name) {
            // Same-crate only: across crates these names mean std types.
            return impls
                .into_iter()
                .filter(|&c| g.fns[c].krate == caller_info.krate)
                .collect();
        }
        return impls;
    }

    // Path call: expand a leading alias, then strip crate/self/super
    // qualifiers into a crate restriction.
    let mut segs: Vec<String> = call.path.clone();
    if let Some(expansion) = aliases.get(segs[0].as_str()) {
        let mut full: Vec<String> = expansion.to_vec();
        full.extend(segs.into_iter().skip(1));
        segs = full;
    }
    let mut krate: Option<String> = None;
    while segs.len() > 1 {
        let head = segs[0].as_str();
        if head == "crate" || head == "self" || head == "super" {
            krate = Some(caller_info.krate.clone());
            segs.remove(0);
        } else if crate_names.iter().any(|c| c == head) {
            krate = Some(head.replace('_', "-"));
            segs.remove(0);
        } else if head == "std" || head == "core" || head == "alloc" {
            return Vec::new(); // external
        } else {
            break;
        }
    }

    let in_crate = |c: usize| match &krate {
        Some(k) => g.fns[c].krate == *k,
        None => true,
    };

    if segs.len() == 1 {
        // Bare name: same file first, then unique within the crate.
        let same_file: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&c| g.fns[c].file == caller_info.file && in_crate(c))
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let same_crate: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&c| {
                g.fns[c].krate == *krate.as_deref().unwrap_or(&caller_info.krate)
                    && g.fns[c].def.impl_type.is_none()
            })
            .collect();
        return same_crate;
    }

    // Qualified: `Type::name` when the qualifier is type-like, else a
    // module-path suffix match.
    let qual = &segs[..segs.len() - 1];
    let last_qual = qual.last().map(String::as_str).unwrap_or_default();
    let type_like = last_qual
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_uppercase());
    if type_like {
        let want_type = if last_qual == "Self" {
            match &caller_info.def.impl_type {
                Some(t) => t.clone(),
                None => return Vec::new(),
            }
        } else {
            last_qual.to_string()
        };
        return candidates
            .iter()
            .copied()
            .filter(|&c| {
                g.fns[c].def.impl_type.as_deref() == Some(want_type.as_str()) && in_crate(c)
            })
            .collect();
    }
    candidates
        .iter()
        .copied()
        .filter(|&c| {
            in_crate(c)
                && g.fns[c].def.impl_type.is_none()
                && g.fns[c].def.module.len() >= qual.len()
                && g.fns[c].def.module[g.fns[c].def.module.len() - qual.len()..]
                    .iter()
                    .zip(qual)
                    .all(|(a, b)| a == b)
        })
        .collect()
}

/// Breadth-first forward reachability from `seeds`. Returns, per
/// function, the hop that first reached it: `Some((caller, line))` where
/// `line` is the call site in the caller — `None` for unreached functions
/// and for the seeds themselves.
pub fn reach_forward(g: &Graph, seeds: &[usize]) -> Vec<Option<(usize, u32)>> {
    let mut from: Vec<Option<(usize, u32)>> = vec![None; g.fns.len()];
    let mut seen = vec![false; g.fns.len()];
    let mut queue: std::collections::VecDeque<usize> = seeds.iter().copied().collect();
    for &s in seeds {
        seen[s] = true;
    }
    while let Some(f) = queue.pop_front() {
        for e in &g.edges[f] {
            if !seen[e.callee] {
                seen[e.callee] = true;
                from[e.callee] = Some((f, e.line));
                queue.push_back(e.callee);
            }
        }
    }
    from
}

/// Breadth-first *reverse* reachability from `seeds` (the functions that
/// can reach a seed through calls). Returns, per function, the next hop
/// *toward* the seed: `Some((callee, line))` where `line` is the call
/// site in this function — `None` for functions that cannot reach a seed
/// and for the seeds themselves.
pub fn reach_reverse(g: &Graph, seeds: &[usize]) -> Vec<Option<(usize, u32)>> {
    let mut next: Vec<Option<(usize, u32)>> = vec![None; g.fns.len()];
    let mut seen = vec![false; g.fns.len()];
    let mut queue: std::collections::VecDeque<usize> = seeds.iter().copied().collect();
    for &s in seeds {
        seen[s] = true;
    }
    while let Some(gi) = queue.pop_front() {
        for &(caller, line) in &g.redges[gi] {
            if !seen[caller] {
                seen[caller] = true;
                next[caller] = Some((gi, line));
                queue.push_back(caller);
            }
        }
    }
    next
}

/// Renders the call chain from `start` by following `next` hops until a
/// function satisfying `stop` (typically "has the direct property") is
/// reached, and returns it with the function the walk ended at. Frames are
/// `display (file:line)` strings; the first frame is `start` itself.
pub fn chain_to(
    g: &Graph,
    start: usize,
    next: &[Option<(usize, u32)>],
    stop: impl Fn(usize) -> bool,
) -> (Vec<String>, usize) {
    let mut frames = Vec::new();
    let mut cur = start;
    frames.push(format!(
        "{} ({}:{})",
        g.fns[cur].display(),
        g.fns[cur].file_label,
        g.fns[cur].def.line
    ));
    let mut guard = 0usize;
    while !stop(cur) && guard < g.fns.len() {
        guard += 1;
        let Some((hop, line)) = next[cur] else {
            break;
        };
        frames.push(format!(
            "{} (called at {}:{})",
            g.fns[hop].display(),
            g.fns[cur].file_label,
            line
        ));
        cur = hop;
    }
    (frames, cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;
    use crate::lexer::lex;

    /// The graph of `files` (`(krate, label, src)`), each crate depending
    /// on every other one.
    fn graph_of(files: &[(&str, &str, &str)]) -> Graph {
        let all: Vec<&str> = files.iter().map(|f| f.0).collect();
        graph_with_deps(files, &all)
    }

    /// The graph of `files` (`(krate, label, src)`), each crate depending
    /// on the crates of `deps` other than itself.
    fn graph_with_deps(files: &[(&str, &str, &str)], deps: &[&str]) -> Graph {
        let deps_of: Vec<Vec<String>> = files
            .iter()
            .map(|f| {
                (deps.iter().filter(|d| **d != f.0))
                    .map(|d| d.to_string())
                    .collect()
            })
            .collect();
        let parsed: Vec<_> = files
            .iter()
            .map(|(_, label, src)| {
                let lx = lex(src);
                let rel = label.rsplit("src/").next().unwrap_or(label);
                (
                    parse_file(src, &lx, &crate::items::file_module_path(rel)),
                    lx,
                )
            })
            .collect();
        let masks: Vec<Vec<bool>> = parsed
            .iter()
            .map(|(_, lx)| vec![false; lx.tokens.len()])
            .collect();
        let ffns: Vec<FileFns<'_>> = files
            .iter()
            .enumerate()
            .map(|(i, (krate, label, _))| FileFns {
                file: i,
                label,
                krate,
                parsed: &parsed[i].0,
                test_mask: &masks[i],
                deps: &deps_of[i],
            })
            .collect();
        build(&ffns)
    }

    fn idx(g: &Graph, name: &str) -> usize {
        g.fns.iter().position(|f| f.def.name == name).unwrap()
    }

    #[test]
    fn same_file_and_cross_crate_paths_resolve() {
        let g = graph_of(&[
            (
                "app",
                "crates/app/src/lib.rs",
                "fn top() { helper(); rowfpga_core::probe(); }\nfn helper() {}",
            ),
            (
                "rowfpga-core",
                "crates/core/src/lib.rs",
                "pub fn probe() {}",
            ),
        ]);
        let top = idx(&g, "top");
        let callees: Vec<&str> = g.edges[top]
            .iter()
            .map(|e| g.fns[e.callee].def.name.as_str())
            .collect();
        assert_eq!(callees, vec!["helper", "probe"]);
    }

    #[test]
    fn alias_expansion_and_type_methods_resolve() {
        let g = graph_of(&[
            (
                "app",
                "crates/app/src/main.rs",
                "use rowfpga_core::Engine;\nfn top() { Engine::run(); x.step(); }",
            ),
            (
                "rowfpga-core",
                "crates/core/src/lib.rs",
                "impl Engine { pub fn run() {} pub fn step(&self) {} }",
            ),
        ]);
        let top = idx(&g, "top");
        let mut callees: Vec<&str> = g.edges[top]
            .iter()
            .map(|e| g.fns[e.callee].def.name.as_str())
            .collect();
        callees.sort_unstable();
        assert_eq!(callees, vec!["run", "step"]);
    }

    #[test]
    fn inherent_methods_resolve_only_within_the_dependency_closure() {
        let files = [
            (
                "a",
                "crates/a/src/lib.rs",
                "pub trait Run { fn run(&self); }\n\
                 fn top<R: Run>(x: &X, r: &R) { x.build(); r.run(); }",
            ),
            (
                "b",
                "crates/b/src/lib.rs",
                "impl W { pub fn build(&self) {} }\nimpl a::Run for W { fn run(&self) {} }",
            ),
        ];
        let callees = |g: &Graph| {
            let top = idx(g, "top");
            let mut names: Vec<&str> = (g.edges[top].iter())
                .map(|e| g.fns[e.callee].def.name.as_str())
                .collect();
            names.sort_unstable();
            names.join(",")
        };
        // `b` depends on `a`, so `a` reaches only `b`'s trait impl.
        assert_eq!(callees(&graph_with_deps(&files, &["a"])), "run");
        // Were `a` to depend on `b` too, the inherent `build` would link.
        assert_eq!(callees(&graph_with_deps(&files, &["a", "b"])), "build,run");
    }

    #[test]
    fn common_method_names_stay_within_the_crate() {
        let g = graph_of(&[
            ("app", "crates/app/src/lib.rs", "fn top(v: &V) { v.len(); }"),
            (
                "other",
                "crates/other/src/lib.rs",
                "impl V { pub fn len(&self) -> usize { 0 } }",
            ),
        ]);
        let top = idx(&g, "top");
        assert!(g.edges[top].is_empty(), "cross-crate .len() must not link");
    }

    #[test]
    fn reachability_and_chains() {
        let g = graph_of(&[(
            "app",
            "crates/app/src/lib.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}",
        )]);
        let (a, c) = (idx(&g, "a"), idx(&g, "c"));
        let from = reach_forward(&g, &[a]);
        assert!(from[c].is_some());
        let next = reach_reverse(&g, &[c]);
        let (chain, end) = chain_to(&g, a, &next, |f| f == c);
        assert_eq!(end, c);
        assert_eq!(chain.len(), 3, "{chain:?}");
        assert!(chain[0].starts_with("app::a"));
        assert!(chain[2].starts_with("app::c"));
    }

    #[test]
    fn self_receiver_calls_stay_on_the_callers_impl() {
        let g = graph_of(&[
            (
                "rowfpga-core",
                "crates/core/src/lib.rs",
                "impl S { fn a(&self) { self.run(); } fn run(&self) {} }",
            ),
            (
                "rowfpga-baseline",
                "crates/baseline/src/lib.rs",
                "impl T { fn run(&self) {} }",
            ),
        ]);
        let a = idx(&g, "a");
        let edges: Vec<(&str, Option<&str>)> = g.edges[a]
            .iter()
            .map(|e| {
                let callee = &g.fns[e.callee].def;
                (callee.name.as_str(), callee.impl_type.as_deref())
            })
            .collect();
        assert_eq!(edges, vec![("run", Some("S"))]);
    }

    #[test]
    fn self_calls_resolve_via_the_impl_type() {
        let g = graph_of(&[(
            "app",
            "crates/app/src/lib.rs",
            "impl S { fn a(&self) { Self::b(); } fn b() {} }",
        )]);
        let a = idx(&g, "a");
        assert_eq!(g.edges[a].len(), 1);
        assert_eq!(g.fns[g.edges[a][0].callee].def.name, "b");
    }
}
