//! Meta-test: the workspace itself is lint-clean. This is the same gate
//! `scripts/check.sh` runs via the `vpec-analyze` binary, enforced from
//! `cargo test` too so a finding can never hide behind a skipped script.

use std::path::PathBuf;
use vpec_analyze::{engine, Config};

#[test]
fn workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = engine::run(&Config::for_workspace(root)).unwrap();
    assert!(
        report.findings.is_empty(),
        "workspace has lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the run actually scanned the tree.
    assert!(
        report.files_scanned > 50,
        "only {} files",
        report.files_scanned
    );
    assert!(report.lines_scanned > 10_000);
}
