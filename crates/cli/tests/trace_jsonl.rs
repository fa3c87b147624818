//! The `--trace=jsonl:<path>` sink, end to end through the CLI commands.
//!
//! Trace state is process-wide, so this is the only test in its binary:
//! a span that a concurrent test opened before a sink switch and closed
//! after it would reach the new stream as a close without an open.

use vpec_cli::commands::run;
use vpec_cli::parse_args;

#[test]
fn jsonl_stream_validates_and_covers_each_commands_phases() {
    let tmp = std::env::temp_dir().join(format!("vpec_cli_trace_{}.jsonl", std::process::id()));
    let cases: [(&str, &[&str]); 2] = [
        (
            "simulate --bits 3 --kind vpec-full --tstop 0.05n --probe 0",
            &["extract", "model.invert", "factor", "transient"],
        ),
        (
            "model --bits 4 --kind vpec-full",
            &["extract", "model.invert", "model.build"],
        ),
    ];
    for (command, phases) in cases {
        let line = format!("{command} --trace=jsonl:{}", tmp.display());
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        run(&parse_args(&argv).unwrap()).unwrap();
        let content = std::fs::read_to_string(&tmp).unwrap();
        let summary = vpec_trace::validate_jsonl(&content).unwrap();
        assert!(summary.opens > 0 && summary.closes > 0, "{command}");
        for phase in phases {
            assert!(
                summary.span_names.iter().any(|n| n == phase),
                "`{command}` jsonl stream must cover {phase}: {:?}",
                summary.span_names
            );
        }
    }
    let _ = std::fs::remove_file(&tmp);
    vpec_trace::reset("off").unwrap();
}
