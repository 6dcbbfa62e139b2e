//! Workspace discovery: which crates exist and which source files each
//! one owns.
//!
//! The walker is deliberately simple and deterministic: the workspace
//! manifest pins `members = ["crates/*"]`, so crates are the directories
//! under `crates/` that carry a `Cargo.toml`, plus the root facade
//! package. Within a crate only the `src/` tree is linted — `tests/`,
//! `benches/` and `examples/` are test code by definition, and lint
//! fixtures under `tests/fixtures/` contain deliberate violations.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One workspace member.
#[derive(Clone, Debug)]
pub struct CrateInfo {
    /// Package name from `Cargo.toml` (`rowfpga-route`, `rand`, …).
    pub name: String,
    /// Crate directory relative to the workspace root.
    pub dir: PathBuf,
    /// All `.rs` files under `src/`, sorted, relative to the workspace
    /// root.
    pub src_files: Vec<PathBuf>,
    /// Whether the crate has a `src/lib.rs`.
    pub has_lib: bool,
    /// Package names of the crate's build dependencies (`[dependencies]`,
    /// `[build-dependencies]` and their per-target forms; not
    /// `[dev-dependencies]`), workspace members or not.
    pub deps: Vec<String>,
}

/// The discovered workspace.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    /// Members sorted by name.
    pub crates: Vec<CrateInfo>,
}

impl Workspace {
    /// Every member's transitive dependencies among the workspace
    /// members, by package name (itself excluded), each list sorted.
    pub fn dependency_closure(&self) -> BTreeMap<String, Vec<String>> {
        let direct: BTreeMap<&str, &[String]> = self
            .crates
            .iter()
            .map(|c| (c.name.as_str(), c.deps.as_slice()))
            .collect();
        let mut closure = BTreeMap::new();
        for krate in &self.crates {
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            let mut stack: Vec<&str> = krate.deps.iter().map(String::as_str).collect();
            while let Some(dep) = stack.pop() {
                let Some(next) = direct.get(dep) else {
                    continue; // not a workspace member
                };
                if dep != krate.name && seen.insert(dep) {
                    stack.extend(next.iter().map(String::as_str));
                }
            }
            closure.insert(
                krate.name.clone(),
                seen.into_iter().map(str::to_string).collect(),
            );
        }
        closure
    }
}

/// Discovery failures, tagged with the path that failed.
#[derive(Debug)]
pub struct WalkError {
    /// The path being read.
    pub path: PathBuf,
    /// The underlying error.
    pub source: io::Error,
}

impl std::fmt::Display for WalkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for WalkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

fn walk_err(path: &Path) -> impl FnOnce(io::Error) -> WalkError + '_ {
    move |source| WalkError {
        path: path.to_path_buf(),
        source,
    }
}

/// Discovers the workspace under `root`.
///
/// # Errors
///
/// Returns a [`WalkError`] if a directory or manifest cannot be read.
pub fn discover(root: &Path) -> Result<Workspace, WalkError> {
    let mut ws = Workspace::default();
    let crates_dir = root.join("crates");
    let mut dirs: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(&crates_dir).map_err(walk_err(&crates_dir))? {
        let entry = entry.map_err(walk_err(&crates_dir))?;
        let path = entry.path();
        if path.is_dir() && path.join("Cargo.toml").is_file() {
            dirs.push(path);
        }
    }
    // The root facade package (`rowfpga`, src/ at the workspace root).
    if root.join("Cargo.toml").is_file() && root.join("src").is_dir() {
        dirs.push(root.to_path_buf());
    }
    for dir in dirs {
        let manifest_path = dir.join("Cargo.toml");
        let manifest = fs::read_to_string(&manifest_path).map_err(walk_err(&manifest_path))?;
        let Some(name) = package_name(&manifest) else {
            continue; // a virtual manifest — nothing to lint directly
        };
        let src = dir.join("src");
        let mut src_files = Vec::new();
        if src.is_dir() {
            collect_rs(&src, &mut src_files)?;
        }
        src_files.sort();
        let src_files = src_files
            .into_iter()
            .map(|p| p.strip_prefix(root).unwrap_or(&p).to_path_buf())
            .collect::<Vec<_>>();
        ws.crates.push(CrateInfo {
            deps: dependency_names(&manifest),
            name,
            has_lib: src.join("lib.rs").is_file(),
            dir: dir.strip_prefix(root).unwrap_or(&dir).to_path_buf(),
            src_files,
        });
    }
    ws.crates.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(ws)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), WalkError> {
    for entry in fs::read_dir(dir).map_err(walk_err(dir))? {
        let entry = entry.map_err(walk_err(dir))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Extracts `name = "…"` from a manifest's `[package]` table.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for raw in manifest.lines() {
        let line = raw.trim();
        if let Some(section) = line.strip_prefix('[') {
            in_package = section.trim_end_matches(']').trim() == "package";
            continue;
        }
        if in_package {
            if let Some(value) = line.strip_prefix("name") {
                let value = value.trim_start();
                if let Some(value) = value.strip_prefix('=') {
                    return Some(value.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// The dependency names a manifest declares for its library code: the
/// `[dependencies]` table, its per-target forms and `[dependencies.name]`
/// sub-tables. Dev- and build-dependencies and a workspace's
/// `[workspace.dependencies]` are left out.
fn dependency_names(manifest: &str) -> Vec<String> {
    let is_deps = |table: &str| {
        table == "dependencies"
            || (table.ends_with(".dependencies") && !table.starts_with("workspace"))
    };
    let mut names = Vec::new();
    let mut in_deps = false;
    for raw in manifest.lines() {
        let line = raw.trim();
        if let Some(section) = line.strip_prefix('[') {
            let section = section.trim_end_matches(']').trim();
            in_deps = is_deps(section);
            if let Some((_, name)) = section.rsplit_once('.').filter(|(t, _)| is_deps(t)) {
                names.push(name.trim_matches('"').to_string());
            }
            continue;
        }
        let key = line.split(['=', '.']).next().unwrap_or_default().trim();
        if in_deps && !key.is_empty() && !key.starts_with('#') {
            names.push(key.trim_matches('"').to_string());
        }
    }
    names.sort();
    names.dedup();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dependency_names_cover_library_dependencies_only() {
        let manifest = "[package]\nname = \"x\"\n[dependencies]\n# a comment\n\
                        rowfpga-arch.workspace = true\nrand = { path = \"../rand\" }\n\
                        [dev-dependencies]\nproptest.workspace = true\n\
                        [build-dependencies]\ncc = \"1\"\n\
                        [target.'cfg(unix)'.dependencies]\nlibc = \"0.2\"\n\
                        [dependencies.serde]\nversion = \"1\"\n[features]\nx = []\n\
                        [workspace.dependencies]\nunused = \"1\"\n";
        assert_eq!(
            dependency_names(manifest),
            vec!["libc", "rand", "rowfpga-arch", "serde"]
        );
    }

    #[test]
    fn dependency_closure_is_transitive_and_workspace_only() {
        let member = |name: &str, deps: &[&str]| CrateInfo {
            name: name.to_string(),
            dir: PathBuf::new(),
            src_files: Vec::new(),
            has_lib: true,
            deps: deps.iter().map(|d| d.to_string()).collect(),
        };
        let ws = Workspace {
            crates: vec![
                member("a", &["b", "external"]),
                member("b", &["c"]),
                member("c", &["b"]),
                member("d", &[]),
            ],
        };
        let closure = ws.dependency_closure();
        assert_eq!(closure["a"], vec!["b", "c"]);
        assert_eq!(closure["b"], vec!["c"]);
        assert_eq!(closure["c"], vec!["b"]);
        assert!(closure["d"].is_empty());
    }

    #[test]
    fn package_name_parses_the_package_table_only() {
        let manifest = "\n[dependencies]\nname-like = \"1\"\n[package]\nname = \"rowfpga-x\"\n";
        assert_eq!(package_name(manifest).as_deref(), Some("rowfpga-x"));
        assert_eq!(package_name("[workspace]\nmembers = []\n"), None);
    }
}
