//! `vpec-analyze` — the workspace lint gate.
//!
//! Exit codes: 0 = clean, 1 = findings (any finding that survives the
//! inline waivers fails the gate), 2 = usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use vpec_analyze::{engine, Config};

const USAGE: &str = "\
vpec-analyze — static analysis over the vpec workspace sources

USAGE:
    vpec-analyze [--root DIR]

OPTIONS:
    --root DIR         workspace root to scan (default: .)
    -h, --help         print this help

Any finding fails the gate. Fix it, or waive it inline with its reason:
`// vpec-allow: <lint> -- <why this is sound>`.
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("vpec-analyze: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let mut root = PathBuf::from(".");
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--root needs a value".to_string())?,
                );
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }

    let report = engine::run(&Config::for_workspace(root)).map_err(|e| e.to_string())?;
    for f in &report.findings {
        println!("{}", f.render());
    }
    println!(
        "vpec-analyze: {} files, {} lines scanned; {} finding(s), {} waived",
        report.files_scanned,
        report.lines_scanned,
        report.findings.len(),
        report.waived,
    );
    if report.findings.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "vpec-analyze: FAIL — fix the finding, or waive it inline with a reason \
             (`// vpec-allow: <lint> -- <why>`)"
        );
        Ok(ExitCode::FAILURE)
    }
}
