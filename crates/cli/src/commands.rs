//! Command implementations: each returns the text to print.

use crate::args::ParsedArgs;
use crate::CliError;
use std::fmt::Write as _;
use vpec_circuit::metrics::peak_abs;
use vpec_circuit::spice_out::to_spice;
use vpec_circuit::TransientSpec;
use vpec_core::harness::Experiment;
use vpec_core::noise::noise_scan;
use vpec_core::repair::DEFAULT_MARGIN;
use vpec_core::repair_passivity;
use vpec_engine::StructureSpec;
use vpec_numerics::audit;

fn build_experiment(args: &ParsedArgs) -> Result<Experiment, CliError> {
    match args.structure {
        StructureSpec::Bus { bits: 0, .. } => Err(CliError::usage("--bits must be at least 1")),
        StructureSpec::Spiral { turns: 0 } => Err(CliError::usage("--turns must be at least 1")),
        ref structure => {
            let (layout, cfg, drive) = structure.build();
            Ok(Experiment::new(layout, &cfg, drive))
        }
    }
}

fn runtime(e: impl std::fmt::Display) -> CliError {
    CliError::runtime(e.to_string())
}

/// `vpec extract`: parasitic summary.
///
/// # Errors
///
/// Usage errors for bad structure parameters.
pub fn extract(args: &ParsedArgs) -> Result<String, CliError> {
    let exp = build_experiment(args)?;
    let p = &exp.parasitics;
    let n = p.len();
    let l = p.inductance();
    let mut out = String::new();
    let _ = writeln!(out, "filaments: {n} in {} nets", exp.layout.nets().len());
    let _ = writeln!(
        out,
        "series resistance: {:.3} .. {:.3} Ω",
        p.resistance.iter().cloned().fold(f64::MAX, f64::min),
        p.resistance.iter().cloned().fold(0.0, f64::max)
    );
    let _ = writeln!(
        out,
        "self inductance: {:.4} .. {:.4} nH",
        (0..n).map(|i| l[(i, i)]).fold(f64::MAX, f64::min) * 1e9,
        (0..n).map(|i| l[(i, i)]).fold(0.0, f64::max) * 1e9
    );
    let mut max_coupling: f64 = 0.0;
    for i in 0..n {
        for j in 0..i {
            max_coupling = max_coupling.max(l[(i, j)].abs());
        }
    }
    let _ = writeln!(out, "strongest mutual: {:.4} nH", max_coupling * 1e9);
    let _ = writeln!(
        out,
        "ground capacitance per filament: {:.2} .. {:.2} fF",
        p.cap_ground.iter().cloned().fold(f64::MAX, f64::min) * 1e15,
        p.cap_ground.iter().cloned().fold(0.0, f64::max) * 1e15
    );
    let _ = writeln!(out, "coupling capacitances: {}", p.cap_coupling.len());
    Ok(out)
}

/// `vpec model`: passivity/sparsity report for a VPEC-family kind.
///
/// # Errors
///
/// Usage error when `--kind peec`/`shift` is requested (no Ĝ to report).
pub fn model(args: &ParsedArgs) -> Result<String, CliError> {
    let exp = build_experiment(args)?;
    let (model, secs) = exp.vpec_model(args.kind).map_err(runtime)?;
    let rep = model.passivity_report();
    let mut out = String::new();
    let _ = writeln!(out, "kind: {}", args.kind.label());
    let _ = writeln!(out, "threads: {}", vpec_numerics::pool::max_threads());
    let _ = writeln!(out, "built in {:.2} ms", secs * 1e3);
    let _ = writeln!(
        out,
        "elements: {} (sparse factor {:.2}%)",
        model.element_count(),
        100.0 * model.sparse_factor()
    );
    let _ = writeln!(
        out,
        "positive definite (passive): {}",
        rep.positive_definite
    );
    let _ = writeln!(
        out,
        "strictly diagonally dominant: {}",
        rep.strictly_diag_dominant
    );
    if let Ok(margin) = model.passivity_margin() {
        let _ = writeln!(
            out,
            "eigenvalue margin: min {:.4e}, max {:.4e} (condition {:.2e})",
            margin.min,
            margin.max,
            margin.condition()
        );
    }
    // Sparsified kinds run through the passivity-repair pass at build
    // time; report what that pass would do so accuracy cost is visible.
    if args.kind.is_sparsified() {
        let (_, rep) = repair_passivity(&model, DEFAULT_MARGIN);
        let _ = writeln!(out, "passivity repair: {}", rep.summary());
    }
    // The model command is a *report*, so the audit here never aborts —
    // it prints what the enforcing pipeline (simulate/export) would say.
    if audit::enabled() {
        let audit_rep =
            vpec_core::invariants::audit_model(&format!("{} Ĝ", args.kind.label()), &model);
        let _ = writeln!(out, "audit: {}", audit_rep.summary());
        for v in &audit_rep.violations {
            let _ = writeln!(out, "  {v}");
        }
    }
    Ok(out)
}

/// `vpec simulate`: crosstalk transient; optionally writes CSV.
///
/// # Errors
///
/// Runtime errors from the model build or simulation; I/O errors writing
/// the CSV.
pub fn simulate(args: &ParsedArgs) -> Result<String, CliError> {
    let exp = build_experiment(args)?;
    let built = exp.build(args.kind).map_err(runtime)?;
    let spec = TransientSpec::new(args.t_stop, args.dt);
    let (res, report, secs) = built.run_transient_with_report(&spec).map_err(runtime)?;
    let nets: Vec<usize> = if args.probes.is_empty() {
        (0..exp.layout.nets().len()).collect()
    } else {
        for &p in &args.probes {
            if p >= exp.layout.nets().len() {
                return Err(CliError::usage(format!("--probe {p}: no such net")));
            }
        }
        args.probes.clone()
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} | {} time points | sim {:.1} ms",
        args.kind.label(),
        res.len(),
        secs * 1e3
    );
    let _ = writeln!(out, "threads: {}", vpec_numerics::pool::max_threads());
    let _ = writeln!(out, "build phase: {:.3} ms", built.build_seconds * 1e3);
    for p in vpec_trace::phase_totals_since(built.trace_mark) {
        let _ = writeln!(
            out,
            "phase {}: {:.3} ms over {} span{}",
            p.name,
            p.seconds * 1e3,
            p.count,
            if p.count == 1 { "" } else { "s" },
        );
    }
    for line in report.audit_lines() {
        let _ = writeln!(out, "{line}");
    }
    for line in report.lines() {
        let _ = writeln!(out, "{line}");
    }
    for &k in &nets {
        let w = built.far_voltage(&res, k).map_err(runtime)?;
        let _ = writeln!(
            out,
            "net {k}: far-end peak |V| = {:.3} mV, final = {:+.4} V",
            peak_abs(&w) * 1e3,
            w.last().copied().unwrap_or(0.0)
        );
    }

    if let Some(path) = &args.output {
        let mut csv = String::from("time_s");
        for &k in &nets {
            let _ = write!(csv, ",net{k}_far_v");
        }
        csv.push('\n');
        let waves: Vec<Vec<f64>> = nets
            .iter()
            .map(|&k| built.far_voltage(&res, k))
            .collect::<Result<Vec<_>, _>>()
            .map_err(runtime)?;
        for (i, &t) in res.time().iter().enumerate() {
            let _ = write!(csv, "{t:.6e}");
            for w in &waves {
                let _ = write!(csv, ",{:.6e}", w[i]);
            }
            csv.push('\n');
        }
        std::fs::write(path, csv).map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
        let _ = writeln!(out, "waveforms written to {path}");
    }
    Ok(out)
}

/// `vpec noise`: noise scan with margin check.
///
/// # Errors
///
/// Runtime errors from the scan.
pub fn noise(args: &ParsedArgs) -> Result<String, CliError> {
    let exp = build_experiment(args)?;
    let spec = TransientSpec::new(args.t_stop, args.dt);
    let report = noise_scan(&exp, args.kind, &spec).map_err(runtime)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} | aggressors {:?} | scan {:.1} ms",
        args.kind.label(),
        report.aggressors,
        report.seconds * 1e3
    );
    for v in &report.victims {
        let _ = writeln!(
            out,
            "net {:>3}: peak {:>8.3} mV at {:>6.1} ps",
            v.net,
            v.peak * 1e3,
            v.peak_time * 1e12
        );
    }
    let offenders = report.above(args.threshold);
    if offenders.is_empty() {
        let _ = writeln!(
            out,
            "all victims within the {:.1} mV margin",
            args.threshold * 1e3
        );
    } else {
        let _ = writeln!(
            out,
            "{} victim(s) exceed the {:.1} mV margin:",
            offenders.len(),
            args.threshold * 1e3
        );
        for v in offenders {
            let _ = writeln!(out, "  net {} at {:.3} mV", v.net, v.peak * 1e3);
        }
    }
    Ok(out)
}

/// `vpec export`: write the SPICE deck.
///
/// # Errors
///
/// Usage error if `-o` is missing; runtime/I/O errors otherwise.
pub fn export(args: &ParsedArgs) -> Result<String, CliError> {
    let path = args
        .output
        .as_ref()
        .ok_or_else(|| CliError::usage("export needs -o <file>"))?;
    let exp = build_experiment(args)?;
    let built = exp.build(args.kind).map_err(runtime)?;
    let deck = to_spice(
        &built.model.circuit,
        &format!("{} model exported by vpec-cli", args.kind.label()),
    );
    std::fs::write(path, &deck).map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
    Ok(format!(
        "{} deck: {} bytes, {} elements -> {path}\n",
        args.kind.label(),
        deck.len(),
        built.model.circuit.element_count()
    ))
}

fn engine_summary(s: &vpec_engine::StreamSummary) -> String {
    format!(
        "batch: {} requests, {} ok ({} degraded), {} failed, {} retries; \
         cache {} hits / {} misses\n",
        s.total, s.ok, s.degraded, s.failed, s.retries, s.cache_hits, s.cache_misses
    )
}

/// Builds the telemetry bundle for `batch`/`serve` from the parsed flags,
/// falling back to the `VPEC_LEDGER` environment variable for the ledger
/// path. With nothing configured the bundle is inert.
fn stream_telemetry(args: &ParsedArgs) -> Result<vpec_engine::StreamTelemetry, CliError> {
    let env_ledger = std::env::var("VPEC_LEDGER").ok().filter(|p| !p.is_empty());
    let ledger = args.ledger.clone().or(env_ledger);
    vpec_engine::StreamTelemetry::new(ledger.as_deref(), args.metrics_out.as_deref())
        .map_err(|e| CliError::runtime(format!("cannot open telemetry sink: {e}")))
}

/// Runs one JSONL request stream through a fresh engine built from the
/// parsed resilience flags. Shared by `batch` and `serve`.
fn run_engine_stream<R: std::io::BufRead, W: std::io::Write>(
    args: &ParsedArgs,
    reader: R,
    writer: &mut W,
) -> Result<vpec_engine::StreamSummary, CliError> {
    let mut telemetry = stream_telemetry(args)?;
    vpec_engine::Engine::new(args.engine)
        .run_stream_with(reader, writer, &mut telemetry)
        .map_err(runtime)
}

/// `vpec batch`: run a JSONL scenario file through the resilient engine.
///
/// With `-o`, responses go to the file and the summary to stdout; without,
/// responses stream to stdout and the summary to stderr, so the stdout
/// stream stays machine-parseable either way.
///
/// # Errors
///
/// Usage error if `--in` is missing; runtime errors for I/O failures.
/// Individual request failures are *responses*, never command errors.
pub fn batch(args: &ParsedArgs) -> Result<String, CliError> {
    let input = args
        .input
        .as_ref()
        .ok_or_else(|| CliError::usage("batch needs --in <file> (JSONL scenario requests)"))?;
    let file =
        std::fs::File::open(input).map_err(|e| CliError::runtime(format!("{input}: {e}")))?;
    let reader = std::io::BufReader::new(file);
    match &args.output {
        Some(path) => {
            let out = std::fs::File::create(path)
                .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
            let mut w = std::io::BufWriter::new(out);
            let summary = run_engine_stream(args, reader, &mut w)?;
            use std::io::Write as _;
            w.flush()
                .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
            Ok(format!(
                "responses written to {path}\n{}",
                engine_summary(&summary)
            ))
        }
        None => {
            let stdout = std::io::stdout();
            let mut w = stdout.lock();
            let summary = run_engine_stream(args, reader, &mut w)?;
            eprint!("{}", engine_summary(&summary));
            Ok(String::new())
        }
    }
}

/// `vpec serve`: JSONL requests on stdin, JSONL responses on stdout,
/// summary on stderr when the stream closes.
///
/// # Errors
///
/// Runtime errors only if the stdio transport itself breaks.
pub fn serve(args: &ParsedArgs) -> Result<String, CliError> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    let summary = run_engine_stream(args, stdin.lock(), &mut w)?;
    eprint!("{}", engine_summary(&summary));
    Ok(String::new())
}

/// `vpec stats`: aggregate one or more run ledgers into a fleet report.
///
/// Every positional argument is a ledger file written by `vpec batch
/// --ledger` / `vpec serve --ledger` (or `VPEC_LEDGER`). Each file is
/// schema-validated (contiguous `seq` from 1) before aggregation;
/// `--format json` emits one JSON object instead of the text report, and
/// repeatable `--fail-if METRIC>VALUE` thresholds turn the report into a
/// CI gate.
///
/// # Errors
///
/// Usage error when no ledger is given; runtime errors for unreadable or
/// schema-invalid ledgers, and when any `--fail-if` threshold is
/// breached (the report plus the breaches are in the message).
pub fn stats(args: &ParsedArgs) -> Result<String, CliError> {
    if args.stats_inputs.is_empty() {
        return Err(CliError::usage(
            "stats needs at least one LEDGER file (from batch/serve --ledger)",
        ));
    }
    let mut records = Vec::new();
    for path in &args.stats_inputs {
        let content =
            std::fs::read_to_string(path).map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
        // Each ledger file carries its own contiguous seq, so files are
        // validated independently and then aggregated together.
        let mut recs = vpec_metrics::parse_ledger(&content)
            .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
        records.append(&mut recs);
    }
    let stats = vpec_metrics::aggregate(&records, 0);
    let report = if args.stats_json {
        let mut json = stats.render_json();
        json.push('\n');
        json
    } else {
        stats.render_text()
    };
    let breaches: Vec<String> = args
        .fail_if
        .iter()
        .filter_map(|c| c.check(&stats))
        .collect();
    if breaches.is_empty() {
        Ok(report)
    } else {
        let mut msg = report;
        for b in &breaches {
            let _ = writeln!(msg, "fail-if breached — {b}");
        }
        Err(CliError::runtime(msg))
    }
}

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Propagates the per-command errors.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    if let Some(n) = args.threads {
        vpec_numerics::pool::set_threads(n);
    }
    if let Some(on) = args.audit {
        audit::set_enabled(on);
    }
    if let Some(spec) = &args.trace {
        // `reset` rather than `set_mode_spec`: repeated invocations in one
        // process (tests) must not leak spans across runs. The spec itself
        // was validated at parse time, so a failure here is a sink-open
        // failure (e.g. an unwritable jsonl path) — a runtime error, not
        // a usage error.
        vpec_trace::reset(spec).map_err(CliError::runtime)?;
    }
    let result = match args.command {
        crate::Command::Extract => extract(args),
        crate::Command::Model => model(args),
        crate::Command::Simulate => simulate(args),
        crate::Command::Noise => noise(args),
        crate::Command::Export => export(args),
        crate::Command::Batch => batch(args),
        crate::Command::Serve => serve(args),
        crate::Command::Stats => stats(args),
        crate::Command::Help => Ok(crate::USAGE.to_string()),
    };
    match (result, vpec_trace::mode()) {
        (Ok(mut out), vpec_trace::TraceMode::Summary) => {
            let tree = vpec_trace::summary_tree();
            if !tree.is_empty() {
                out.push_str("\n--- trace summary ---\n");
                out.push_str(&tree);
            }
            Ok(out)
        }
        (res, vpec_trace::TraceMode::Jsonl) => {
            // Flush the counter/stat/finish tail even on error so the
            // stream on disk is always schema-complete.
            vpec_trace::finish();
            res
        }
        (res, _) => res,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Held by every test that sets or resets the process-wide trace
    /// mode: a reset while another test runs traced would empty that
    /// run's summary tree.
    static TRACE_MODE: Mutex<()> = Mutex::new(());

    fn trace_mode_lock() -> MutexGuard<'static, ()> {
        TRACE_MODE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    fn run_line(line: &str) -> Result<String, CliError> {
        run(&parse_args(&argv(line))?)
    }

    #[test]
    fn extract_summarizes() {
        let out = run_line("extract --bits 4").unwrap();
        assert!(out.contains("filaments: 4"));
        assert!(out.contains("nH"));
        let out = run_line("extract --spiral").unwrap();
        assert!(out.contains("filaments: 92"));
    }

    #[test]
    fn model_reports_passivity() {
        let out = run_line("model --bits 6 --kind wvpec-g:3").unwrap();
        assert!(out.contains("positive definite (passive): true"));
        assert!(out.contains("sparse factor"));
        // Sparsified kinds report what the repair pass did (here: nothing).
        assert!(out.contains("passivity repair: passive, no repair needed"));
        // Non-sparsified kinds skip the repair line entirely.
        let full = run_line("model --bits 6 --kind vpec-full").unwrap();
        assert!(!full.contains("passivity repair"));
        // PEEC has no Ĝ.
        assert!(run_line("model --bits 4 --kind peec").is_err());
    }

    #[test]
    fn simulate_reports_and_writes_csv() {
        let tmp = std::env::temp_dir().join("vpec_cli_test_wave.csv");
        let line = format!(
            "simulate --bits 3 --kind peec --tstop 0.1n --dt 1p --probe 0,1 -o {}",
            tmp.display()
        );
        let out = run(&parse_args(&argv(&line)).unwrap()).unwrap();
        assert!(out.contains("net 0"));
        assert!(out.contains("net 1"));
        let csv = std::fs::read_to_string(&tmp).unwrap();
        assert!(csv.starts_with("time_s,net0_far_v,net1_far_v"));
        assert!(csv.lines().count() > 50);
        let _ = std::fs::remove_file(&tmp);
    }

    #[test]
    fn noise_scan_flags_offenders() {
        let out = run_line("noise --bits 6 --kind vpec-full --tstop 0.2n --threshold 1m").unwrap();
        assert!(out.contains("exceed the 1.0 mV margin"));
        let quiet =
            run_line("noise --bits 6 --kind vpec-full --tstop 0.2n --threshold 1k").unwrap();
        assert!(quiet.contains("within the"));
    }

    #[test]
    fn export_round_trips_through_parser() {
        let tmp = std::env::temp_dir().join("vpec_cli_test_deck.sp");
        let line = format!("export --bits 3 --kind vpec-full -o {}", tmp.display());
        let out = run(&parse_args(&argv(&line)).unwrap()).unwrap();
        assert!(out.contains("bytes"));
        let deck = std::fs::read_to_string(&tmp).unwrap();
        let parsed = vpec_circuit::spice_in::from_spice(&deck).unwrap();
        assert!(parsed.element_count() > 10);
        let _ = std::fs::remove_file(&tmp);
        // Missing -o is a usage error.
        assert!(run_line("export --bits 3").is_err());
    }

    #[test]
    fn threads_flag_is_applied_and_reported() {
        let out = run_line("simulate --bits 3 --threads 1 --tstop 0.05n --probe 0").unwrap();
        assert!(out.contains("threads: 1"));
        assert!(out.contains("build phase"));
        let model = run_line("model --bits 4 --kind vpec-full --threads 1").unwrap();
        assert!(model.contains("threads: 1"));
    }

    #[test]
    fn audit_flag_enables_reporting() {
        let out = run_line("model --bits 4 --kind wvpec-g:2 --audit").unwrap();
        assert!(out.contains("audit: "), "model audit line: {out}");
        let sim =
            run_line("simulate --bits 3 --kind vpec-full --tstop 0.05n --probe 0 --audit").unwrap();
        assert!(
            sim.contains("audit: solve residual"),
            "simulate audit telemetry: {sim}"
        );
    }

    #[test]
    fn trace_flag_drives_sinks() {
        let _mode = trace_mode_lock();
        // Summary sink: the report gains a span tree with pipeline phases.
        let out =
            run_line("simulate --bits 3 --kind vpec-full --tstop 0.05n --probe 0 --trace").unwrap();
        assert!(out.contains("--- trace summary ---"), "summary tree: {out}");
        assert!(out.contains("extract"), "extract phase traced: {out}");
        assert!(out.contains("transient"), "transient phase traced: {out}");
        assert!(out.contains("model.invert"), "inversion traced: {out}");

        // The JSONL sink is checked in tests/trace_jsonl.rs, a test binary
        // of its own: trace state is process-wide, so a span another test
        // here opens before a sink switch and closes after it would reach
        // the new stream as a close without an open.

        // Off again so later tests in this process run untraced.
        vpec_trace::reset("off").unwrap();

        // Bad specs are parse-time usage errors.
        assert!(parse_args(&argv("simulate --trace=wat")).is_err());
        assert!(parse_args(&argv("simulate --trace=jsonl")).is_err());
    }

    #[test]
    fn unwritable_trace_sink_is_a_runtime_error() {
        let _mode = trace_mode_lock();
        // The spec is syntactically fine, so it survives parsing; opening
        // the sink fails at run time and must exit 1 (runtime), not 2
        // (usage) — and must not panic.
        let args = parse_args(&argv(
            "extract --bits 3 --trace=jsonl:/nonexistent-dir/t.jsonl",
        ))
        .unwrap();
        let err = run(&args).unwrap_err();
        assert_eq!(err.code, 1, "sink-open failure is runtime: {}", err.message);
        assert!(
            err.message.contains("cannot open trace file"),
            "{}",
            err.message
        );
        // An empty path never reaches run(): it dies at parse time.
        let err = parse_args(&argv("extract --trace=jsonl:")).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn batch_runs_a_scenario_file() {
        let dir = std::env::temp_dir();
        let input = dir.join("vpec_cli_test_batch.jsonl");
        let output = dir.join("vpec_cli_test_batch_out.jsonl");
        std::fs::write(
            &input,
            "# comment lines and blanks are skipped\n\n\
             {\"id\":\"good\",\"bits\":3,\"kind\":\"wvpec-g:2\",\"t_stop\":5e-11}\n\
             {\"id\":\"boom\",\"bits\":3,\"kind\":\"wvpec-g:2\",\"t_stop\":5e-11,\
              \"faults\":{\"panic_engine\":true}}\n\
             not json at all\n",
        )
        .unwrap();
        let line = format!(
            "batch --in {} --retries 0 -o {}",
            input.display(),
            output.display()
        );
        let summary = run(&parse_args(&argv(&line)).unwrap()).unwrap();
        assert!(summary.contains("3 requests"), "{summary}");
        assert!(summary.contains("1 ok"), "{summary}");
        assert!(summary.contains("2 failed"), "{summary}");
        let body = std::fs::read_to_string(&output).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 3);
        for l in &lines {
            vpec_trace::json::parse(l).expect("every response line is valid JSON");
        }
        assert!(lines[0].contains("\"id\":\"good\"") && lines[0].contains("\"status\":\"ok\""));
        assert!(lines[1].contains("\"id\":\"boom\"") && lines[1].contains("\"panic\""));
        assert!(lines[2].contains("\"status\":\"failed\""));
        let _ = std::fs::remove_file(&input);
        let _ = std::fs::remove_file(&output);
        // Missing --in is a usage error; a missing file is a runtime error.
        assert_eq!(run_line("batch").unwrap_err().code, 2);
        assert_eq!(
            run_line("batch --in /nonexistent-dir/none.jsonl")
                .unwrap_err()
                .code,
            1
        );
    }

    #[test]
    fn batch_summary_reports_retries_and_degradations() {
        let dir = std::env::temp_dir();
        let input = dir.join("vpec_cli_test_summary.jsonl");
        let output = dir.join("vpec_cli_test_summary_out.jsonl");
        // One clean request, one fault-armed request that burns its retry
        // budget, one over-budget request that degrades to wVPEC.
        std::fs::write(
            &input,
            "{\"id\":\"ok\",\"bits\":3,\"kind\":\"wvpec-g:2\",\"t_stop\":5e-11}\n\
             {\"id\":\"boom\",\"bits\":3,\"kind\":\"wvpec-g:2\",\"t_stop\":5e-11,\
              \"faults\":{\"panic_engine\":true}}\n\
             {\"id\":\"big\",\"bits\":8,\"kind\":\"vpec-full\",\"t_stop\":5e-11}\n",
        )
        .unwrap();
        let line = format!(
            "batch --in {} --retries 2 --backoff-ms 1 --max-dim 6 --degrade-window 2 -o {}",
            input.display(),
            output.display()
        );
        let summary = run(&parse_args(&argv(&line)).unwrap()).unwrap();
        // boom: 3 attempts = 2 retries; big: degraded. Both counts must
        // surface in the one-line summary.
        assert!(summary.contains("3 requests"), "{summary}");
        assert!(summary.contains("2 ok (1 degraded)"), "{summary}");
        assert!(summary.contains("1 failed"), "{summary}");
        assert!(summary.contains("2 retries"), "{summary}");
        let _ = std::fs::remove_file(&input);
        let _ = std::fs::remove_file(&output);
    }

    #[test]
    fn ledger_round_trips_through_stats() {
        let dir = std::env::temp_dir();
        let input = dir.join("vpec_cli_test_ledger_in.jsonl");
        let output = dir.join("vpec_cli_test_ledger_out.jsonl");
        let ledger = dir.join("vpec_cli_test_ledger.jsonl");
        // Known composition: 2 ok (1 model-cache hit), 1 unparseable line,
        // 1 degraded (over budget).
        std::fs::write(
            &input,
            "{\"id\":\"a\",\"bits\":3,\"kind\":\"wvpec-g:2\",\"t_stop\":5e-11}\n\
             {\"id\":\"b\",\"bits\":3,\"kind\":\"wvpec-g:2\",\"t_stop\":5e-11}\n\
             garbage\n\
             {\"id\":\"big\",\"bits\":8,\"kind\":\"vpec-full\",\"t_stop\":5e-11}\n",
        )
        .unwrap();
        let line = format!(
            "batch --in {} --retries 0 --max-dim 6 --degrade-window 2 --ledger {} -o {}",
            input.display(),
            ledger.display(),
            output.display()
        );
        run(&parse_args(&argv(&line)).unwrap()).unwrap();

        // One schema-valid record per request, seq contiguous from 1.
        let content = std::fs::read_to_string(&ledger).unwrap();
        let records = vpec_metrics::parse_ledger(&content).unwrap();
        assert_eq!(records.len(), 4);

        // The offline aggregate reproduces the batch's composition.
        let stats_line = format!("stats {} --format json", ledger.display());
        let json = run(&parse_args(&argv(&stats_line)).unwrap()).unwrap();
        let v = vpec_trace::json::parse(json.trim()).unwrap();
        use vpec_trace::json::JsonValue;
        let count = |key: &str| v.get(key).and_then(JsonValue::as_u64).unwrap();
        assert_eq!(count("total"), 4);
        assert_eq!(count("ok"), 3);
        assert_eq!(count("failed"), 1);
        assert_eq!(count("degraded"), 1);
        let model = v.get("cache").and_then(|c| c.get("model")).unwrap();
        assert_eq!(model.get("hits").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(model.get("misses").and_then(JsonValue::as_u64), Some(2));
        assert!(v.get("errors").and_then(|e| e.get("bad-request")).is_some());
        assert!(
            v.get("degraded_reasons")
                .and_then(|d| d.get("budget"))
                .is_some(),
            "{json}"
        );

        // fail-if thresholds drive the exit code both ways.
        let pass = format!("stats {} --fail-if p99>60s", ledger.display());
        assert!(run(&parse_args(&argv(&pass)).unwrap()).is_ok());
        let fail = format!("stats {} --fail-if degraded>0%", ledger.display());
        let err = run(&parse_args(&argv(&fail)).unwrap()).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("fail-if breached"), "{}", err.message);

        // Missing positional ledgers are usage errors; unreadable and
        // schema-invalid ledgers are runtime errors.
        assert_eq!(run_line("stats").unwrap_err().code, 2);
        assert_eq!(
            run_line("stats /nonexistent-dir/none.jsonl")
                .unwrap_err()
                .code,
            1
        );
        let broken = dir.join("vpec_cli_test_ledger_broken.jsonl");
        std::fs::write(&broken, content.replace("\"seq\":2", "\"seq\":9")).unwrap();
        let err =
            run(&parse_args(&argv(&format!("stats {}", broken.display()))).unwrap()).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("expected seq 2"), "{}", err.message);

        let _ = std::fs::remove_file(&input);
        let _ = std::fs::remove_file(&output);
        let _ = std::fs::remove_file(&ledger);
        let _ = std::fs::remove_file(&broken);
    }

    #[test]
    fn probe_validation() {
        assert!(run_line("simulate --bits 3 --probe 9 --tstop 0.1n").is_err());
        assert!(run_line("simulate --bits 0").is_err());
    }

    #[test]
    fn help_text() {
        let out = run_line("help").unwrap();
        assert!(out.contains("USAGE"));
    }
}
