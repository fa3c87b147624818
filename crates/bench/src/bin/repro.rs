//! `repro` — regenerate every table and figure of the VPEC paper.
//!
//! ```text
//! repro <experiment> [--full]
//!
//! experiments:
//!   fig2     5-bit bus: PEEC vs full VPEC vs localized VPEC (TD + FD)
//!   table2   32-bit x 8-segment bus, geometric truncation windows
//!   table3   128-bit non-aligned bus, numerical truncation (also Fig. 3)
//!   fig4     extraction-time scaling, truncation vs windowing
//!   table4   128-bit bus, gtVPEC vs gwVPEC accuracy (also Fig. 5)
//!   spiral   three-turn spiral on lossy substrate (Figs. 6-7)
//!   fig8     runtime & netlist-size scaling
//!   baselines  prior-art baselines: shift truncation \[9\] + return-limited \[8\]
//!   csv      write the waveform series of Figs. 2/3/5/7 to target/repro/
//!   all      everything above
//!
//! --full runs the paper-scale sizes everywhere (fig4 to 2048 bits,
//! fig8 dense models to 256 bits); without it, moderately reduced sizes
//! keep the full suite to a few minutes.
//! ```

use std::time::Instant;
use vpec_bench::{baselines, fig2, fig4, fig8, spiral, table2, table3, table4, waveforms};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());

    let run_one = |name: &str| {
        let t0 = Instant::now();
        let report = match name {
            "fig2" => fig2::run().report,
            "table2" => table2::run_paper().report,
            "table3" => {
                if full {
                    table3::run_paper().report
                } else {
                    table3::run(64).report
                }
            }
            "fig4" => fig4::run_paper(if full { 2048 } else { 512 }).report,
            "table4" | "fig5" => {
                if full {
                    table4::run_paper().report
                } else {
                    table4::run(64, &[32, 16, 8]).report
                }
            }
            "spiral" | "fig6" | "fig7" => spiral::run_paper().report,
            "csv" => {
                let dir = std::path::Path::new("target/repro");
                let files = waveforms::dump_figures(dir, full).expect("write CSVs");
                let mut out = String::from("waveform CSVs written:\n");
                for f in files {
                    out.push_str("  ");
                    out.push_str(&f);
                    out.push('\n');
                }
                out
            }
            "baselines" => {
                if full {
                    baselines::run(64).report
                } else {
                    baselines::run(32).report
                }
            }
            "fig8" => {
                if full {
                    fig8::run_paper(256, 1024).report
                } else {
                    fig8::run_paper(128, 512).report
                }
            }
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        };
        println!("{report}");
        println!("[{name} completed in {:.1} s]\n", t0.elapsed().as_secs_f64());
    };

    match which.as_str() {
        "all" => {
            for name in [
                "fig2", "table2", "table3", "fig4", "table4", "spiral", "fig8", "baselines",
            ] {
                run_one(name);
            }
        }
        name => run_one(name),
    }
}
