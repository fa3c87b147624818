//! Expected-findings snapshots over the fixture mini-workspace.
//!
//! Every seeded positive must be detected at its exact position, and every
//! trap (strings, comments, test regions, excluded trees) must stay
//! silent.

use std::path::PathBuf;
use vpec_analyze::{engine, Config, LintId};

fn fixture_config() -> Config {
    let owned = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
    Config {
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/ws"),
        panic_crates: owned(&["core"]),
        kernel_modules: owned(&["crates/numerics/src/kernel.rs"]),
        registry_files: owned(&["crates/cli/src/lib.rs"]),
        exclude_prefixes: owned(&["skipped"]),
    }
}

#[test]
fn fixture_findings_match_snapshot_exactly() {
    let report = engine::run(&fixture_config()).unwrap();
    let got: Vec<(String, String, u32)> = report
        .findings
        .iter()
        .map(|f| (f.lint.name().to_string(), f.file.clone(), f.line))
        .collect();
    // Sorted by (file, line): the complete expected corpus — any extra
    // entry is a false positive, any missing entry a false negative.
    let expected: Vec<(&str, &str, u32)> = vec![
        ("panic-freedom", "crates/core/src/panics.rs", 4),
        ("panic-freedom", "crates/core/src/panics.rs", 8),
        ("waiver", "crates/core/src/waivers.rs", 3),
        ("waiver", "crates/core/src/waivers.rs", 6),
        ("nan-ordering", "crates/model/src/sorting.rs", 4),
        ("nan-ordering", "crates/model/src/sorting.rs", 18),
        ("numerical-class", "crates/numerics/src/kernel.rs", 20),
        ("numerical-class", "crates/numerics/src/kernel.rs", 23),
        ("unsafe-audit", "crates/numerics/src/pool.rs", 3),
        ("unsafe-audit", "crates/numerics/src/pool.rs", 10),
        ("unsafe-audit", "crates/numerics/src/pool.rs", 12),
        ("unsafe-audit", "crates/numerics/src/pool.rs", 19),
        ("unsafe-audit", "crates/other/src/lib.rs", 8),
        ("env-var-registry", "crates/other/src/lib.rs", 12),
    ];
    let expected: Vec<(String, String, u32)> = expected
        .into_iter()
        .map(|(l, f, n)| (l.to_string(), f.to_string(), n))
        .collect();
    assert_eq!(got, expected, "full findings:\n{:#?}", report.findings);
    // The deliberate NaN-propagation check was waived, nothing else.
    assert_eq!(report.waived, 1);
}

#[test]
fn waiver_hygiene_findings() {
    let report = engine::run(&fixture_config()).unwrap();
    let waiver_findings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == LintId::Waiver)
        .collect();
    assert_eq!(waiver_findings.len(), 2);
    // A malformed (missing reason) and an unused waiver both fail the gate.
    assert_eq!(waiver_findings[0].line, 3);
    assert!(waiver_findings[0].message.contains("mandatory reason"));
    assert_eq!(waiver_findings[1].line, 6);
    assert!(waiver_findings[1].message.contains("suppressed nothing"));
}

#[test]
fn excluded_trees_are_not_scanned() {
    let report = engine::run(&fixture_config()).unwrap();
    assert!(
        report.findings.iter().all(|f| !f.file.starts_with("skipped")),
        "excluded tree leaked into findings"
    );
    // 7 fixture files scanned: the excluded one does not count.
    assert_eq!(report.files_scanned, 7);
}
