//! A lightweight item parser over the token stream: functions, impl
//! blocks, inline modules and `use` imports.
//!
//! This is the front half of the interprocedural engine (DESIGN.md §14):
//! [`parse_file`] turns one lexed file into a list of [`FnDef`]s — each
//! with its module path, enclosing impl type, body token range and the
//! call expressions found in the body — plus the file's flattened `use`
//! imports. [`crate::callgraph`] then resolves calls across the whole
//! workspace.
//!
//! Like the lexer, the parser is deliberately *token-shaped*, not a
//! grammar: it recognizes exactly the item forms the workspace uses
//! (`mod x { … }`, `impl [Trait for] Type { … }`, `trait T { … }`,
//! `fn name<…>(…) -> … { … }`, `use a::b::{c, d as e};`) and skips
//! everything else. Unrecognized shapes degrade to "no functions seen
//! here", which under-approximates the call graph — the analyses built on
//! top are ratcheted budgets and reasoned allows, so a missed edge is a
//! soundness gap to shrink, never a hard failure.

use crate::lexer::{Lexed, TokenKind};

/// One call expression found inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Call {
    /// Path segments as written (`["proto", "parse_request"]`,
    /// `["f"]`); a method call carries just the method name.
    pub path: Vec<String>,
    /// Whether this was a `.method(…)` call.
    pub method: bool,
    /// Whether the method's receiver is `self` itself (`self.m(…)`).
    pub self_receiver: bool,
    /// 1-based source line of the call name.
    pub line: u32,
    /// Token index of the call name (for intra-body ordering).
    pub tok: usize,
    /// Whether the argument list is empty (`f()`), which disambiguates
    /// thread `.join()` from `Path::join(sep)`.
    pub empty_args: bool,
}

/// One parsed function definition.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Module path within the file's crate (file modules + inline mods).
    pub module: Vec<String>,
    /// Self type when defined inside `impl Type { … }` or a trait's
    /// default method inside `trait Type { … }`.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` name.
    pub line: u32,
    /// Token index range of the body, inclusive of both braces.
    pub body: (usize, usize),
    /// Calls made directly by this body (nested fns excluded — they own
    /// their calls).
    pub calls: Vec<Call>,
}

/// One `use` import, flattened: the name it binds locally plus the full
/// path it stands for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UseImport {
    /// Local binding (the alias after `as`, or the path's last segment).
    pub leaf: String,
    /// Full path segments, including the leaf.
    pub path: Vec<String>,
}

/// Everything [`parse_file`] extracts from one file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Function definitions in source order.
    pub fns: Vec<FnDef>,
    /// Flattened `use` imports.
    pub uses: Vec<UseImport>,
}

/// Module path a file contributes by its location: `src/lib.rs` and
/// `src/main.rs` are the crate root, `src/a.rs` is `a`, `src/a/mod.rs` is
/// `a`, `src/a/b.rs` is `a::b`. `rel` is the path below `src/`.
pub fn file_module_path(rel: &str) -> Vec<String> {
    let mut parts: Vec<&str> = rel.split('/').collect();
    let Some(last) = parts.pop() else {
        return Vec::new();
    };
    let mut out: Vec<String> = parts.iter().map(|s| (*s).to_string()).collect();
    match last.strip_suffix(".rs") {
        Some("lib") | Some("main") | Some("mod") | None => {}
        Some(stem) => out.push(stem.to_string()),
    }
    out
}

/// Rust keywords that can precede `(` without being calls.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "const", "static", "move", "ref", "mut", "in", "as", "where", "impl", "dyn", "pub", "unsafe",
    "use", "mod", "struct", "enum", "trait", "type", "async", "await", "box",
];

struct Parser<'a> {
    src: &'a str,
    lx: &'a Lexed,
    out: ParsedFile,
}

/// Parses one lexed file. `file_mods` is the module path the file's
/// location contributes (see [`file_module_path`]).
pub fn parse_file(src: &str, lx: &Lexed, file_mods: &[String]) -> ParsedFile {
    let mut p = Parser {
        src,
        lx,
        out: ParsedFile::default(),
    };
    let n = lx.tokens.len();
    let mut mods: Vec<String> = file_mods.to_vec();
    p.region(0, n, &mut mods, None, None);
    p.out
}

impl<'a> Parser<'a> {
    fn text(&self, i: usize) -> &'a str {
        self.lx.text(self.src, i)
    }

    fn is_ident(&self, i: usize) -> bool {
        self.lx
            .tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident)
    }

    fn is_punct(&self, i: usize, what: &str) -> bool {
        self.lx
            .tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Punct)
            && self.text(i) == what
    }

    /// Index of the `}` matching the `{` at `open` (brace kinds only —
    /// strings and comments are already stripped by the lexer).
    fn match_brace(&self, open: usize) -> usize {
        let n = self.lx.tokens.len();
        let mut depth = 0i64;
        let mut i = open;
        while i < n {
            if self.lx.tokens[i].kind == TokenKind::Punct {
                match self.text(i) {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            return i;
                        }
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        n.saturating_sub(1)
    }

    /// Skips a generics list if `i` sits on `<`; returns the index one
    /// past the closing `>`. `->` never closes a list.
    fn skip_generics(&self, i: usize) -> usize {
        if !self.is_punct(i, "<") {
            return i;
        }
        let n = self.lx.tokens.len();
        let mut depth = 0i64;
        let mut k = i;
        while k < n {
            if self.lx.tokens[k].kind == TokenKind::Punct {
                match self.text(k) {
                    "<" => depth += 1,
                    ">" if k > 0 && self.text(k - 1) != "-" => {
                        depth -= 1;
                        if depth == 0 {
                            return k + 1;
                        }
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        n
    }

    /// Walks one region `[from, to)`, collecting items. `current_fn`
    /// indexes `self.out.fns` when inside a function body: plain tokens
    /// are then also scanned as potential calls.
    fn region(
        &mut self,
        from: usize,
        to: usize,
        mods: &mut Vec<String>,
        impl_type: Option<&str>,
        current_fn: Option<usize>,
    ) {
        let mut i = from;
        while i < to {
            if !self.is_ident(i) {
                i += 1;
                continue;
            }
            match self.text(i) {
                "mod" if self.is_ident(i + 1) && self.is_punct(i + 2, "{") => {
                    let name = self.text(i + 1).to_string();
                    let close = self.match_brace(i + 2);
                    mods.push(name);
                    self.region(i + 3, close, mods, impl_type, current_fn);
                    mods.pop();
                    i = close + 1;
                }
                "impl" => {
                    let (ty, open) = self.impl_header(i + 1, to);
                    let Some(open) = open else {
                        i += 1;
                        continue;
                    };
                    let close = self.match_brace(open);
                    self.region(open + 1, close, mods, ty.as_deref(), None);
                    i = close + 1;
                }
                "trait" if self.is_ident(i + 1) => {
                    // Default method bodies belong to the trait's name.
                    let name = self.text(i + 1).to_string();
                    let mut k = self.skip_generics(i + 2);
                    while k < to && !self.is_punct(k, "{") && !self.is_punct(k, ";") {
                        k += 1;
                    }
                    if self.is_punct(k, "{") {
                        let close = self.match_brace(k);
                        self.region(k + 1, close, mods, Some(&name), None);
                        i = close + 1;
                    } else {
                        i = k + 1;
                    }
                }
                "fn" if self.is_ident(i + 1) => {
                    i = self.fn_def(i, to, mods, impl_type);
                }
                "use" => {
                    let mut end = i + 1;
                    while end < to && !self.is_punct(end, ";") {
                        end += 1;
                    }
                    self.use_tree(i + 1, end, &mut Vec::new());
                    i = end + 1;
                }
                _ => {
                    if let Some(f) = current_fn {
                        i = self.maybe_call(i, f);
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }

    /// Parses an impl header starting after the `impl` keyword. Returns
    /// the self type (last path ident before the body, after the last
    /// top-level `for`) and the index of the opening `{`.
    fn impl_header(&self, mut i: usize, to: usize) -> (Option<String>, Option<usize>) {
        i = self.skip_generics(i);
        let mut last_ident: Option<String> = None;
        let mut frozen = false;
        while i < to {
            if self.is_punct(i, "{") {
                return (last_ident, Some(i));
            }
            if self.is_punct(i, ";") {
                return (last_ident, None);
            }
            if self.is_punct(i, "<") {
                i = self.skip_generics(i);
                continue;
            }
            if self.is_ident(i) {
                match self.text(i) {
                    "for" => last_ident = None,
                    "where" => frozen = true,
                    t if !frozen => last_ident = Some(t.to_string()),
                    _ => {}
                }
            }
            i += 1;
        }
        (last_ident, None)
    }

    /// Parses `fn name …` at `i`; records a [`FnDef`] if a body follows
    /// and walks the body. Returns the index to continue from.
    fn fn_def(
        &mut self,
        i: usize,
        to: usize,
        mods: &mut Vec<String>,
        impl_type: Option<&str>,
    ) -> usize {
        let name = self.text(i + 1).to_string();
        let line = self.lx.tokens[i + 1].line;
        let mut k = self.skip_generics(i + 2);
        // Parameter list.
        if !self.is_punct(k, "(") {
            return i + 2;
        }
        let mut depth = 0i64;
        while k < to {
            if self.lx.tokens[k].kind == TokenKind::Punct {
                match self.text(k) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        // Return type / where clause, up to the body or `;`.
        while k < to && !self.is_punct(k, "{") && !self.is_punct(k, ";") {
            if self.is_punct(k, "<") {
                k = self.skip_generics(k);
            } else {
                k += 1;
            }
        }
        if !self.is_punct(k, "{") {
            return k + 1; // bodyless declaration (trait signature)
        }
        let close = self.match_brace(k);
        let idx = self.out.fns.len();
        self.out.fns.push(FnDef {
            name,
            module: mods.clone(),
            impl_type: impl_type.map(str::to_string),
            line,
            body: (k, close),
            calls: Vec::new(),
        });
        self.region(k + 1, close, mods, impl_type, Some(idx));
        close + 1
    }

    /// Records a call if token `i` starts one; returns the index to
    /// continue from.
    fn maybe_call(&mut self, i: usize, f: usize) -> usize {
        if !self.is_punct(i + 1, "(") || KEYWORDS.contains(&self.text(i)) {
            return i + 1;
        }
        let method = i > 0 && self.is_punct(i - 1, ".");
        let self_receiver = method && i > 1 && self.text(i - 2) == "self";
        let mut path = vec![self.text(i).to_string()];
        if !method {
            // Walk back through `a::b::` chains.
            let mut k = i;
            while k >= 3
                && self.is_punct(k - 1, ":")
                && self.is_punct(k - 2, ":")
                && self.is_ident(k - 3)
                && !KEYWORDS.contains(&self.text(k - 3))
            {
                path.insert(0, self.text(k - 3).to_string());
                k -= 3;
            }
        }
        let empty_args = self.is_punct(i + 2, ")");
        self.out.fns[f].calls.push(Call {
            path,
            method,
            self_receiver,
            line: self.lx.tokens[i].line,
            tok: i,
            empty_args,
        });
        i + 1
    }

    /// Flattens one `use` tree in `[i, end)` with `prefix` already
    /// consumed.
    fn use_tree(&mut self, mut i: usize, end: usize, prefix: &mut Vec<String>) {
        let base = prefix.len();
        while i < end {
            if self.is_ident(i) && self.text(i) == "as" && self.is_ident(i + 1) {
                // `path as alias`
                self.out.uses.push(UseImport {
                    leaf: self.text(i + 1).to_string(),
                    path: prefix.clone(),
                });
                prefix.truncate(base);
                i += 2;
                continue;
            }
            if self.is_ident(i) {
                prefix.push(self.text(i).to_string());
                i += 1;
                continue;
            }
            if self.is_punct(i, "{") {
                // Group: recurse per comma-separated branch, restoring the
                // shared prefix between branches.
                let close = self.match_brace(i);
                let keep = prefix.len();
                let mut start = i + 1;
                let mut depth = 0i64;
                for k in i + 1..close {
                    if self.lx.tokens[k].kind != TokenKind::Punct {
                        continue;
                    }
                    match self.text(k) {
                        "{" => depth += 1,
                        "}" => depth -= 1,
                        "," if depth == 0 => {
                            self.use_tree(start, k, prefix);
                            prefix.truncate(keep);
                            start = k + 1;
                        }
                        _ => {}
                    }
                }
                self.use_tree(start, close, prefix);
                prefix.truncate(base);
                i = close + 1;
                continue;
            }
            if self.is_punct(i, ",") {
                self.flush_use(prefix, base);
                i += 1;
                continue;
            }
            // `::`, `*`, and anything else: globs are ignored wholesale.
            if self.is_punct(i, "*") {
                prefix.truncate(base);
                return;
            }
            i += 1;
        }
        self.flush_use(prefix, base);
    }

    /// Emits the import accumulated beyond `base`, if any.
    fn flush_use(&mut self, prefix: &mut Vec<String>, base: usize) {
        if prefix.len() > base {
            self.out.uses.push(UseImport {
                leaf: prefix.last().cloned().unwrap_or_default(),
                path: prefix.clone(),
            });
        }
        prefix.truncate(base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        let lx = lex(src);
        parse_file(src, &lx, &[])
    }

    #[test]
    fn file_module_paths() {
        assert!(file_module_path("lib.rs").is_empty());
        assert_eq!(file_module_path("spool.rs"), vec!["spool"]);
        assert_eq!(file_module_path("a/mod.rs"), vec!["a"]);
        assert_eq!(file_module_path("a/b.rs"), vec!["a", "b"]);
    }

    #[test]
    fn fns_carry_module_and_impl_context() {
        let src = "
mod outer {
    struct S;
    impl S {
        fn method(&self) { helper(); }
    }
    fn helper() {}
}
impl std::fmt::Display for Wide<'_> {
    fn fmt(&self) { inner(); }
}
";
        let p = parse(src);
        let names: Vec<_> = p
            .fns
            .iter()
            .map(|f| {
                (
                    f.name.as_str(),
                    f.module.join("::"),
                    f.impl_type.as_deref().unwrap_or("-"),
                )
            })
            .collect();
        assert_eq!(
            names,
            vec![
                ("method", "outer".to_string(), "S"),
                ("helper", "outer".to_string(), "-"),
                ("fmt", String::new(), "Wide"),
            ]
        );
    }

    #[test]
    fn impl_trait_for_type_resolves_the_type() {
        let src = "impl<P: Problem> Replica for Runner<P> where P: Send { fn go(&self) {} }";
        let p = parse(src);
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Runner"));
    }

    #[test]
    fn calls_are_collected_with_paths_and_methods() {
        let src = "
fn top() {
    plain();
    a::b::qualified(1, 2);
    value.method(x);
    macro_like!(ignored);
    if cond() { nested_call(); }
}
";
        let p = parse(src);
        let calls: Vec<_> = p.fns[0]
            .calls
            .iter()
            .map(|c| (c.path.join("::"), c.method))
            .collect();
        assert_eq!(
            calls,
            vec![
                ("plain".to_string(), false),
                ("a::b::qualified".to_string(), false),
                ("method".to_string(), true),
                ("cond".to_string(), false),
                ("nested_call".to_string(), false),
            ]
        );
    }

    #[test]
    fn nested_fns_own_their_calls() {
        let src = "fn outer() { fn inner() { deep(); } shallow(); }";
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].path, vec!["shallow"]);
        assert_eq!(inner.calls[0].path, vec!["deep"]);
    }

    #[test]
    fn use_trees_flatten_groups_aliases_and_globs() {
        let src = "
use std::collections::BTreeMap;
use crate::spool::{Spool, ScanReport as Report};
use rowfpga_core::*;
";
        let p = parse(src);
        let uses: Vec<_> = p
            .uses
            .iter()
            .map(|u| (u.leaf.as_str(), u.path.join("::")))
            .collect();
        assert_eq!(
            uses,
            vec![
                ("BTreeMap", "std::collections::BTreeMap".to_string()),
                ("Spool", "crate::spool::Spool".to_string()),
                ("Report", "crate::spool::ScanReport".to_string()),
            ]
        );
    }

    #[test]
    fn bodyless_trait_signatures_are_skipped() {
        let src = "trait T { fn sig(&self); fn with_default(&self) { call(); } }";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "with_default");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("T"));
    }

    #[test]
    fn generic_fn_signatures_do_not_derail() {
        let src = "fn pair<T: Fn() -> u32, U>(a: T, b: U) -> Option<(T, U)> { work(a, b) }";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].calls[0].path, vec!["work"]);
    }
}
