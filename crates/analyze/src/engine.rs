//! The lint engine: file discovery, pass orchestration, waivers, report.
//!
//! `run` walks the workspace tree, lexes every `.rs` file once, feeds the
//! token stream to each lint pass and applies inline waivers; every
//! surviving finding fails the gate. The engine is hermetic: filesystem
//! reads under `Config::root` are its only effect.

use crate::diag::Finding;
use crate::lexer::{lex, Tok};
use crate::lints::{self, numerical_class, FileCtx};
use crate::structure::test_regions;
use crate::waiver::{self, Waiver};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// What to scan and which policies to enforce. Construct via
/// [`Config::for_workspace`] for the real tree, or field-by-field for
/// fixture corpora.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root; all reported paths are relative to it.
    pub root: PathBuf,
    /// Crates whose `src/` trees must be panic-free (`panic-freedom`).
    pub panic_crates: Vec<String>,
    /// Root-relative modules where every non-test `fn` must declare a
    /// `Numerical class:` marker (`numerical-class`).
    pub kernel_modules: Vec<String>,
    /// Root-relative files whose text documents the `VPEC_*` environment
    /// variables (`env-var-registry`).
    pub registry_files: Vec<String>,
    /// Root-relative path prefixes to skip entirely (fixture corpora,
    /// build output).
    pub exclude_prefixes: Vec<String>,
}

impl Config {
    /// The policy for this workspace. Changes here are policy changes:
    /// the registry list stays in lockstep with where `USAGE` lives.
    pub fn for_workspace(root: PathBuf) -> Config {
        let owned = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
        Config {
            root,
            panic_crates: owned(&[
                "numerics", "core", "circuit", "extract", "engine", "metrics", "geometry", "trace",
            ]),
            kernel_modules: owned(&["crates/numerics/src/kernel.rs"]),
            registry_files: owned(&["crates/cli/src/lib.rs"]),
            exclude_prefixes: owned(&["crates/analyze/fixtures", "target"]),
        }
    }
}

/// The outcome of one engine run.
#[derive(Debug)]
pub struct Report {
    /// Findings that survived the waivers, sorted by (file, line, col).
    /// Any finding fails the gate.
    pub findings: Vec<Finding>,
    /// How many findings inline waivers suppressed.
    pub waived: usize,
    /// `.rs` files scanned.
    pub files_scanned: usize,
    /// Source lines scanned.
    pub lines_scanned: usize,
}

/// Per-file state carried between pass 1 (per-file lints) and pass 2
/// (cross-file numerical-class call check).
struct FileData {
    file: String,
    src: String,
    toks: Vec<Tok>,
    regions: Vec<(usize, usize)>,
    fns: Vec<numerical_class::ClassifiedFn>,
    findings: Vec<Finding>,
    waivers: Vec<Waiver>,
}

/// Runs every lint over the tree under `cfg.root`.
pub fn run(cfg: &Config) -> io::Result<Report> {
    let mut paths = Vec::new();
    discover(&cfg.root, &cfg.root, &cfg.exclude_prefixes, &mut paths)?;
    paths.sort();

    let registry = load_registry(cfg);

    let mut files = Vec::with_capacity(paths.len());
    let mut lines_scanned = 0usize;
    for path in &paths {
        let rel = rel_path(&cfg.root, path);
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            // Non-UTF-8 bytes cannot be Rust source; skip defensively.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => continue,
            Err(e) => return Err(io::Error::new(e.kind(), format!("{}: {e}", path.display()))),
        };
        lines_scanned += src.lines().count();
        let toks = lex(&src);
        let regions = test_regions(&src, &toks);
        let ctx = FileCtx {
            src: &src,
            toks: &toks,
            file: &rel,
            test_regions: &regions,
        };

        let mut findings = Vec::new();
        findings.extend(lints::nan_ordering::run(&ctx));
        if lints::panic_freedom::applies(&rel, &cfg.panic_crates) {
            findings.extend(lints::panic_freedom::run(&ctx));
        }
        findings.extend(lints::unsafe_audit::run(&ctx));
        findings.extend(lints::env_registry::run(&ctx, &registry));
        let (fns, class_findings) =
            numerical_class::collect(&ctx, cfg.kernel_modules.contains(&rel));
        findings.extend(class_findings);

        let (waivers, waiver_findings) = waiver::collect(&src, &toks, &rel);
        findings.extend(waiver_findings);

        files.push(FileData {
            file: rel,
            src,
            toks,
            regions,
            fns,
            findings,
            waivers,
        });
    }

    // Pass 2: the workspace-wide class map, then the lexical call check.
    let mut classes: BTreeMap<String, numerical_class::Class> = BTreeMap::new();
    for fd in &files {
        for f in &fd.fns {
            classes.insert(f.name.clone(), f.class);
        }
    }
    let mut findings = Vec::new();
    let mut waived_total = 0usize;
    for fd in &mut files {
        let ctx = FileCtx {
            src: &fd.src,
            toks: &fd.toks,
            file: &fd.file,
            test_regions: &fd.regions,
        };
        let cross = numerical_class::check(&ctx, &fd.fns, &classes);
        fd.findings.extend(cross);
        let (kept, waived) =
            waiver::apply(std::mem::take(&mut fd.findings), &fd.waivers, &fd.src, &fd.file);
        waived_total += waived;
        findings.extend(kept);
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.lint).cmp(&(&b.file, b.line, b.col, b.lint))
    });

    Ok(Report {
        findings,
        waived: waived_total,
        files_scanned: files.len(),
        lines_scanned,
    })
}

/// Recursively collects `.rs` files under `dir`, skipping hidden
/// directories, `target/`, and configured prefixes.
fn discover(
    dir: &Path,
    root: &Path,
    exclude_prefixes: &[String],
    out: &mut Vec<PathBuf>,
) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') {
            continue;
        }
        let rel = rel_path(root, &path);
        if exclude_prefixes
            .iter()
            .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
        {
            continue;
        }
        let ty = entry.file_type()?;
        if ty.is_dir() {
            if name == "target" {
                continue;
            }
            discover(&path, root, exclude_prefixes, out)?;
        } else if ty.is_file() && name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Root-relative path with `/` separators.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Union of the documented `VPEC_*` names over every registry file.
/// Missing registry files contribute nothing (fixture configs may name
/// none at all).
fn load_registry(cfg: &Config) -> std::collections::BTreeSet<String> {
    let mut reg = std::collections::BTreeSet::new();
    for rf in &cfg.registry_files {
        if let Ok(text) = std::fs::read_to_string(cfg.root.join(rf)) {
            reg.extend(lints::env_registry::registry_from(&text));
        }
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_config_is_internally_consistent() {
        let cfg = Config::for_workspace(PathBuf::from("."));
        // Fixture corpora must be excluded, or the engine lints its own
        // seeded positives.
        assert!(cfg
            .exclude_prefixes
            .iter()
            .any(|p| p.contains("fixtures")));
    }
}
