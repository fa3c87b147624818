//! The parts of the lint policy (DESIGN.md §14) that live in files
//! rather than in rustc or clippy: every package inherits the workspace
//! lints, the engine-boundary crates keep their panic-freedom attribute,
//! and every `VPEC_*` environment read is documented in the CLI usage
//! text.

use std::fs;
use std::path::{Path, PathBuf};

/// The crates whose library code must not panic: the engine's request
/// boundary and everything beneath it.
const PANIC_FREE: [&str; 8] = [
    "numerics", "core", "circuit", "extract", "engine", "metrics", "geometry", "trace",
];

/// Where the `VPEC_*` variables are documented (the `USAGE` text).
const ENV_REGISTRY: &str = "crates/cli/src/lib.rs";

/// Trees whose sources may read `VPEC_*` variables.
const SOURCE_TREES: [&str; 5] = ["crates", "src", "tests", "examples", "workload-bench/src"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `true` when `manifest` has a `[lints]` table whose body is exactly
/// `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut lines = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[lints]");
    lines.next().is_some()
        && lines
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty())
            .eq(["workspace = true"])
}

fn member_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

#[test]
fn every_package_inherits_the_workspace_lints() {
    let root_manifest = read(&root().join("Cargo.toml"));
    for line in [
        "[workspace.lints.rust]",
        "unsafe_code = \"forbid\"",
        "[workspace.lints.clippy]",
        "allow_attributes = \"deny\"",
        "allow_attributes_without_reason = \"deny\"",
    ] {
        assert!(
            root_manifest.lines().any(|l| l.trim() == line),
            "Cargo.toml lost `{line}`"
        );
    }
    // The root package's lints also cover tests/ and examples/.
    assert!(
        inherits_workspace_lints(&root_manifest),
        "Cargo.toml: the root package lacks `[lints] workspace = true`"
    );
    let members = member_dirs();
    assert!(
        members.len() >= PANIC_FREE.len(),
        "only {} members found",
        members.len()
    );
    for dir in members {
        let manifest = dir.join("Cargo.toml");
        assert!(
            inherits_workspace_lints(&read(&manifest)),
            "{}: lacks `[lints] workspace = true`",
            manifest.display()
        );
    }
}

#[test]
fn engine_boundary_crates_deny_panics_outside_tests() {
    let wanted =
        "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used,clippy::panic,\
                  clippy::unreachable,clippy::todo,clippy::unimplemented))]";
    for krate in PANIC_FREE {
        let path = root().join("crates").join(krate).join("src/lib.rs");
        let compact: String = read(&path).chars().filter(|c| !c.is_whitespace()).collect();
        assert!(
            compact.contains(wanted),
            "{}: lacks the panic-freedom attribute",
            path.display()
        );
    }
}

/// The `VPEC_*` names read through `env::var(…)` or `env::var_os(…)`
/// with a string literal in `src`.
fn env_reads(src: &str) -> Vec<String> {
    let mut names = Vec::new();
    for (at, _) in src.match_indices("env::var") {
        let after = &src[at + "env::var".len()..];
        let rest = after.strip_prefix("_os").unwrap_or(after);
        let Some(arg) = rest.trim_start().strip_prefix('(') else {
            continue;
        };
        let Some(lit) = arg.trim_start().strip_prefix('"') else {
            continue;
        };
        let name: String = lit.chars().take_while(|&c| c != '"').collect();
        if name.starts_with("VPEC_") {
            names.push(name);
        }
    }
    names
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn env_reader_sees_plain_and_os_reads() {
    let src = concat!(
        "std::env::var(\"VPEC",
        "_A\"); env::var_os( \"VPEC",
        "_B\"); env::var(\"HOME\"); env::vars()"
    );
    assert_eq!(env_reads(src), ["VPEC_A", "VPEC_B"]);
}

#[test]
fn every_vpec_env_read_is_documented_in_the_usage_text() {
    let registry = read(&root().join(ENV_REGISTRY));
    let mut files = Vec::new();
    for tree in SOURCE_TREES {
        rust_files(&root().join(tree), &mut files);
    }
    assert!(files.len() > 50, "only {} source files found", files.len());
    let mut read_names = 0;
    for file in files {
        for name in env_reads(&read(&file)) {
            read_names += 1;
            // A documented name appears in the registry as a whole word.
            let documented = registry.match_indices(&name).any(|(at, _)| {
                !registry[at + name.len()..]
                    .starts_with(|c: char| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
            });
            assert!(
                documented,
                "{}: reads `{name}`, which {ENV_REGISTRY}'s usage text does not document",
                file.display()
            );
        }
    }
    assert!(
        read_names >= 4,
        "the scan must see the VPEC_THREADS/AUDIT/TRACE/LEDGER reads"
    );
}
