//! Argument parsing (hand-rolled; values accept SPICE suffixes).

use crate::CliError;
use vpec_circuit::spice_in::parse_value;
use vpec_circuit::SolverKind;
use vpec_core::harness::ModelKind;
use vpec_engine::EngineConfig;
use vpec_metrics::{parse_fail_if, FailCondition};
use vpec_numerics::audit::AuditLevel;

/// Which subcommand was requested.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `vpec extract`
    Extract,
    /// `vpec model`
    Model,
    /// `vpec simulate`
    Simulate,
    /// `vpec noise`
    Noise,
    /// `vpec export`
    Export,
    /// `vpec batch` — run a JSONL scenario file through the engine.
    Batch,
    /// `vpec serve` — stream JSONL scenarios stdin → stdout.
    Serve,
    /// `vpec tune` — measure machine-specific kernel dispatch thresholds.
    Tune,
    /// `vpec lint` — run the workspace static-analysis gate.
    Lint,
    /// `vpec stats` — aggregate run ledgers into a fleet report.
    Stats,
    /// `vpec help`
    Help,
}

/// The structure under test.
#[derive(Debug, Clone, PartialEq)]
pub enum Structure {
    /// A parallel bus.
    Bus {
        /// Line count.
        bits: usize,
        /// Segments per line.
        segments: usize,
        /// Misalignment fraction.
        misalign: f64,
        /// Shield (P/G) wire every `k` signals, if set.
        shield_every: Option<usize>,
    },
    /// The three-turn spiral (or `turns` turns).
    Spiral {
        /// Number of turns.
        turns: usize,
    },
}

/// Fully parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedArgs {
    /// The subcommand.
    pub command: Command,
    /// The structure to build.
    pub structure: Structure,
    /// Model kind.
    pub kind: ModelKind,
    /// Transient window (seconds).
    pub t_stop: f64,
    /// Time step (seconds).
    pub dt: f64,
    /// Probed net indices (empty = all).
    pub probes: Vec<usize>,
    /// Noise threshold (volts).
    pub threshold: f64,
    /// Output path.
    pub output: Option<String>,
    /// Worker-thread override for the parallel numerics layer
    /// (`--threads N`; `None` = resolve from `VPEC_THREADS` / hardware).
    pub threads: Option<usize>,
    /// Numerical-audit level override (`--audit[=LEVEL]`; `None` =
    /// resolve from `VPEC_AUDIT` / the build profile).
    pub audit: Option<AuditLevel>,
    /// Tracing-sink spec (`--trace[=off|summary|jsonl:PATH]`; `None` =
    /// resolve from `VPEC_TRACE`).
    pub trace: Option<String>,
    /// Linear-solver override for transient analyses
    /// (`--solver=auto|dense|sparse`; `None` = the
    /// spec default, `Auto`).
    pub solver: Option<SolverKind>,
    /// Input path for `batch` (`--in FILE`).
    pub input: Option<String>,
    /// `tune --quick`: fewer repetitions, coarser (but faster) profile.
    pub quick: bool,
    /// `lint --write-baseline`: regenerate the grandfathered-findings
    /// file instead of gating.
    pub write_baseline: bool,
    /// `lint --strict`: warnings also fail the gate.
    pub strict: bool,
    /// `lint --root DIR`: workspace root to scan (default `.`).
    pub lint_root: Option<String>,
    /// Resilience policy for `batch`/`serve`: deadline, admission
    /// budgets, retry/backoff, wVPEC degradation.
    pub engine: EngineConfig,
    /// Run-ledger path for `batch`/`serve` (`--ledger PATH`; `None` =
    /// resolve from `VPEC_LEDGER`, then off).
    pub ledger: Option<String>,
    /// Prometheus-style exposition file for `batch`/`serve`
    /// (`--metrics-out PATH`), rewritten atomically.
    pub metrics_out: Option<String>,
    /// In-stream snapshot cadence for long streams
    /// (`--stats-interval-ms N`; `None`/0 = no periodic snapshots).
    pub stats_interval_ms: Option<u64>,
    /// `stats` CI thresholds (repeatable `--fail-if METRIC>VALUE`),
    /// parsed eagerly so a typo is a usage error.
    pub fail_if: Vec<FailCondition>,
    /// `stats --format json`: machine-readable report instead of text.
    pub stats_json: bool,
    /// Positional ledger paths for `stats`.
    pub stats_inputs: Vec<String>,
}

impl Default for ParsedArgs {
    fn default() -> Self {
        ParsedArgs {
            command: Command::Help,
            structure: Structure::Bus {
                bits: 8,
                segments: 1,
                misalign: 0.0,
                shield_every: None,
            },
            kind: ModelKind::VpecFull,
            t_stop: 0.5e-9,
            dt: 1e-12,
            probes: Vec::new(),
            threshold: 10e-3,
            output: None,
            threads: None,
            audit: None,
            trace: None,
            solver: None,
            input: None,
            quick: false,
            write_baseline: false,
            strict: false,
            lint_root: None,
            engine: EngineConfig::default(),
            ledger: None,
            metrics_out: None,
            stats_interval_ms: None,
            fail_if: Vec::new(),
            stats_json: false,
            stats_inputs: Vec::new(),
        }
    }
}

/// Parses a model-kind token. The grammar lives in [`ModelKind::parse`]
/// (shared with the batch engine's request schema); this wrapper only
/// classifies failures as usage errors.
///
/// # Errors
///
/// [`CliError::usage`] for unknown kinds or malformed parameters.
pub fn parse_kind(tok: &str) -> Result<ModelKind, CliError> {
    ModelKind::parse(tok).map_err(CliError::usage)
}

/// Parses a strictly positive integer flag value.
fn positive(flag: &str, tok: &str) -> Result<usize, CliError> {
    match tok.parse::<usize>() {
        Ok(0) | Err(_) => Err(CliError::usage(format!(
            "{flag} must be a positive integer"
        ))),
        Ok(n) => Ok(n),
    }
}

/// Parses the full argument vector (without the program name).
///
/// # Errors
///
/// [`CliError::usage`] for unknown commands/flags or malformed values.
pub fn parse_args(argv: &[String]) -> Result<ParsedArgs, CliError> {
    let mut out = ParsedArgs::default();
    let mut it = argv.iter().peekable();
    let cmd = it
        .next()
        .ok_or_else(|| CliError::usage("missing command (see `vpec help`)"))?;
    out.command = match cmd.as_str() {
        "extract" => Command::Extract,
        "model" => Command::Model,
        "simulate" | "sim" => Command::Simulate,
        "noise" => Command::Noise,
        "export" => Command::Export,
        "batch" => Command::Batch,
        "serve" => Command::Serve,
        "tune" => Command::Tune,
        "lint" => Command::Lint,
        "stats" => Command::Stats,
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(CliError::usage(format!("unknown command: {other}"))),
    };

    let mut bits = 8usize;
    let mut segments = 1usize;
    let mut misalign = 0.0f64;
    let mut shield_every: Option<usize> = None;
    let mut spiral = false;
    let mut turns = 3usize;

    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError::usage(format!("{flag} needs a value ({what})")))
        };
        match flag.as_str() {
            "--bits" => {
                bits = value("line count")?
                    .parse()
                    .map_err(|_| CliError::usage("--bits must be an integer"))?;
            }
            "--segments" => {
                segments = value("segment count")?
                    .parse()
                    .map_err(|_| CliError::usage("--segments must be an integer"))?;
            }
            "--misalign" => {
                misalign = parse_value(value("fraction")?).map_err(CliError::usage)?;
            }
            "--shield" => {
                let k = value("signals per shield bay")?
                    .parse()
                    .map_err(|_| CliError::usage("--shield must be an integer"))?;
                if k == 0 {
                    return Err(CliError::usage("--shield must be at least 1"));
                }
                shield_every = Some(k);
            }
            "--spiral" => spiral = true,
            "--turns" => {
                turns = value("turn count")?
                    .parse()
                    .map_err(|_| CliError::usage("--turns must be an integer"))?;
            }
            "--kind" => out.kind = parse_kind(value("model kind")?)?,
            "--tstop" => {
                out.t_stop = parse_value(value("seconds")?).map_err(CliError::usage)?;
            }
            "--dt" => out.dt = parse_value(value("seconds")?).map_err(CliError::usage)?,
            "--probe" => {
                out.probes = value("net list")?
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| CliError::usage("--probe must be net indices"))?;
            }
            "--threshold" => {
                out.threshold = parse_value(value("volts")?).map_err(CliError::usage)?;
            }
            "--threads" => {
                let n: usize = value("worker count")?
                    .parse()
                    .map_err(|_| CliError::usage("--threads must be an integer"))?;
                if n == 0 {
                    return Err(CliError::usage("--threads must be at least 1"));
                }
                // The pool would silently clamp; reject instead so a typo
                // like `--threads 100000` is caught where it was made.
                if n > vpec_numerics::pool::MAX_WORKERS {
                    return Err(CliError::usage(format!(
                        "--threads {n} exceeds the worker cap of {} \
                         (the pool never spawns more)",
                        vpec_numerics::pool::MAX_WORKERS
                    )));
                }
                out.threads = Some(n);
            }
            "--in" => out.input = Some(value("path")?.clone()),
            "--quick" => out.quick = true,
            "--write-baseline" => out.write_baseline = true,
            "--strict" => out.strict = true,
            "--root" => out.lint_root = Some(value("directory")?.clone()),
            "--deadline-ms" => {
                let ms: u64 = value("milliseconds")?
                    .parse()
                    .map_err(|_| CliError::usage("--deadline-ms must be an integer"))?;
                // 0 = explicitly unbounded (the engine default).
                out.engine.deadline_ms = if ms == 0 { None } else { Some(ms) };
            }
            "--max-filaments" => {
                out.engine.budget.max_filaments =
                    Some(positive(flag, value("filament budget")?)?);
            }
            "--max-dim" => {
                out.engine.budget.max_matrix_dim =
                    Some(positive(flag, value("matrix-dimension budget")?)?);
            }
            "--max-steps" => {
                out.engine.budget.max_steps = Some(positive(flag, value("step budget")?)?);
            }
            "--retries" => {
                out.engine.retries = value("retry count")?
                    .parse()
                    .map_err(|_| CliError::usage("--retries must be an integer"))?;
            }
            "--backoff-ms" => {
                out.engine.backoff_ms = value("milliseconds")?
                    .parse()
                    .map_err(|_| CliError::usage("--backoff-ms must be an integer"))?;
            }
            "--no-degrade" => out.engine.degrade = false,
            "--degrade-window" => {
                out.engine.degrade_window = positive(flag, value("window size")?)?;
            }
            "--ledger" => out.ledger = Some(value("path")?.clone()),
            "--metrics-out" => out.metrics_out = Some(value("path")?.clone()),
            "--stats-interval-ms" => {
                let ms: u64 = value("milliseconds")?
                    .parse()
                    .map_err(|_| CliError::usage("--stats-interval-ms must be an integer"))?;
                // 0 = explicitly no periodic snapshots.
                out.stats_interval_ms = if ms == 0 { None } else { Some(ms) };
            }
            "--fail-if" => {
                out.fail_if
                    .push(parse_fail_if(value("METRIC>VALUE")?).map_err(CliError::usage)?);
            }
            "--format" => {
                out.stats_json = match value("text or json")?.as_str() {
                    "text" => false,
                    "json" => true,
                    other => {
                        return Err(CliError::usage(format!(
                            "unknown format: {other} (use text or json)"
                        )))
                    }
                };
            }
            "-o" | "--output" => out.output = Some(value("path")?.clone()),
            "--solver" => {
                out.solver =
                    Some(SolverKind::parse(value("solver kind")?).map_err(CliError::usage)?);
            }
            "--audit" => out.audit = Some(AuditLevel::Full),
            "--trace" => out.trace = Some("summary".to_string()),
            other => {
                if let Some(level) = other.strip_prefix("--audit=") {
                    out.audit = Some(AuditLevel::parse(level).ok_or_else(|| {
                        CliError::usage(format!(
                            "unknown audit level: {level} (use off, basic or full)"
                        ))
                    })?);
                } else if let Some(tok) = other.strip_prefix("--solver=") {
                    out.solver = Some(SolverKind::parse(tok).map_err(CliError::usage)?);
                } else if let Some(spec) = other.strip_prefix("--trace=") {
                    // Validate eagerly so a typo fails at parse time, but
                    // store the raw spec — it is applied process-globally
                    // by the command runner, not here.
                    vpec_trace::parse_mode_spec(spec).map_err(CliError::usage)?;
                    out.trace = Some(spec.to_string());
                } else if let Some(expr) = other.strip_prefix("--fail-if=") {
                    out.fail_if.push(parse_fail_if(expr).map_err(CliError::usage)?);
                } else if !other.starts_with('-') && out.command == Command::Stats {
                    // `stats` takes its ledger files as positional paths.
                    out.stats_inputs.push(other.to_string());
                } else {
                    return Err(CliError::usage(format!("unknown option: {other}")));
                }
            }
        }
    }

    out.structure = if spiral {
        Structure::Spiral { turns }
    } else {
        Structure::Bus {
            bits,
            segments,
            misalign,
            shield_every,
        }
    };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_kinds() {
        assert_eq!(parse_kind("peec").unwrap(), ModelKind::Peec);
        assert_eq!(parse_kind("vpec-full").unwrap(), ModelKind::VpecFull);
        assert_eq!(parse_kind("localized").unwrap(), ModelKind::VpecLocalized);
        assert_eq!(
            parse_kind("tvpec-g:8,2").unwrap(),
            ModelKind::TVpecGeometric { nw: 8, nl: 2 }
        );
        assert_eq!(
            parse_kind("tvpec-g:16").unwrap(),
            ModelKind::TVpecGeometric { nw: 16, nl: 1 }
        );
        assert!(matches!(
            parse_kind("tvpec-n:0.01").unwrap(),
            ModelKind::TVpecNumerical { .. }
        ));
        assert_eq!(
            parse_kind("wvpec-g:8").unwrap(),
            ModelKind::WVpecGeometric { b: 8 }
        );
        assert!(matches!(
            parse_kind("shift:10u").unwrap(),
            ModelKind::ShiftTruncated { .. }
        ));
        assert!(parse_kind("nope").is_err());
        assert!(parse_kind("tvpec-g").is_err());
        assert!(parse_kind("wvpec-g:x").is_err());
    }

    #[test]
    fn parses_simulate_line() {
        let a = parse_args(&argv(
            "simulate --bits 32 --kind wvpec-g:8 --tstop 0.5n --dt 1p --probe 1,2 -o w.csv",
        ))
        .unwrap();
        assert_eq!(a.command, Command::Simulate);
        assert_eq!(
            a.structure,
            Structure::Bus {
                bits: 32,
                segments: 1,
                misalign: 0.0,
                shield_every: None,
            }
        );
        assert_eq!(a.kind, ModelKind::WVpecGeometric { b: 8 });
        assert!((a.t_stop - 0.5e-9).abs() < 1e-20);
        assert!((a.dt - 1e-12).abs() < 1e-22);
        assert_eq!(a.probes, vec![1, 2]);
        assert_eq!(a.output.as_deref(), Some("w.csv"));
    }

    #[test]
    fn parses_spiral_and_noise() {
        let a = parse_args(&argv("noise --spiral --turns 2 --threshold 10m")).unwrap();
        assert_eq!(a.command, Command::Noise);
        assert_eq!(a.structure, Structure::Spiral { turns: 2 });
        assert!((a.threshold - 10e-3).abs() < 1e-15);
    }

    #[test]
    fn parses_threads_flag() {
        let a = parse_args(&argv("simulate --threads 4")).unwrap();
        assert_eq!(a.threads, Some(4));
        assert_eq!(parse_args(&argv("simulate")).unwrap().threads, None);
        assert!(parse_args(&argv("simulate --threads 0")).is_err());
        assert!(parse_args(&argv("simulate --threads x")).is_err());
        // Absurd counts are rejected at parse time with the cap named,
        // not silently clamped deep inside the pool.
        let cap = vpec_numerics::pool::MAX_WORKERS;
        let err = parse_args(&argv("simulate --threads 100000")).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains(&cap.to_string()), "{}", err.message);
        assert_eq!(
            parse_args(&argv(&format!("simulate --threads {cap}")))
                .unwrap()
                .threads,
            Some(cap)
        );
    }

    #[test]
    fn parses_engine_flags() {
        let a = parse_args(&argv(
            "batch --in reqs.jsonl --deadline-ms 250 --max-filaments 64 --max-dim 32 \
             --max-steps 5000 --retries 3 --backoff-ms 5 --degrade-window 6",
        ))
        .unwrap();
        assert_eq!(a.command, Command::Batch);
        assert_eq!(a.input.as_deref(), Some("reqs.jsonl"));
        assert_eq!(a.engine.deadline_ms, Some(250));
        assert_eq!(a.engine.budget.max_filaments, Some(64));
        assert_eq!(a.engine.budget.max_matrix_dim, Some(32));
        assert_eq!(a.engine.budget.max_steps, Some(5000));
        assert_eq!(a.engine.retries, 3);
        assert_eq!(a.engine.backoff_ms, 5);
        assert!(a.engine.degrade);
        assert_eq!(a.engine.degrade_window, 6);

        let s = parse_args(&argv("serve --no-degrade --deadline-ms 0")).unwrap();
        assert_eq!(s.command, Command::Serve);
        assert!(!s.engine.degrade);
        assert_eq!(s.engine.deadline_ms, None);

        assert!(parse_args(&argv("batch --max-dim 0")).is_err());
        assert!(parse_args(&argv("batch --degrade-window 0")).is_err());
        assert!(parse_args(&argv("batch --deadline-ms soon")).is_err());
    }

    #[test]
    fn parses_audit_flag() {
        assert_eq!(parse_args(&argv("simulate")).unwrap().audit, None);
        assert_eq!(
            parse_args(&argv("simulate --audit")).unwrap().audit,
            Some(AuditLevel::Full)
        );
        assert_eq!(
            parse_args(&argv("simulate --audit=basic")).unwrap().audit,
            Some(AuditLevel::Basic)
        );
        assert_eq!(
            parse_args(&argv("simulate --audit=off")).unwrap().audit,
            Some(AuditLevel::Off)
        );
        assert_eq!(
            parse_args(&argv("simulate --audit=full")).unwrap().audit,
            Some(AuditLevel::Full)
        );
        assert!(parse_args(&argv("simulate --audit=wat")).is_err());
    }

    #[test]
    fn parses_solver_flag() {
        assert_eq!(parse_args(&argv("simulate")).unwrap().solver, None);
        assert_eq!(
            parse_args(&argv("simulate --solver=dense")).unwrap().solver,
            Some(SolverKind::Dense)
        );
        assert_eq!(
            parse_args(&argv("simulate --solver sparse")).unwrap().solver,
            Some(SolverKind::Sparse)
        );
        assert_eq!(
            parse_args(&argv("noise --solver=auto")).unwrap().solver,
            Some(SolverKind::Auto)
        );
        for removed in ["qr", "iterative", "direct", "sparse-no-ordering"] {
            let err = parse_args(&argv(&format!("simulate --solver={removed}"))).unwrap_err();
            assert_eq!(err.code, 2);
            assert!(err.message.contains("unknown solver"), "{}", err.message);
            assert!(
                err.message.contains("(use auto, dense, sparse)"),
                "{}",
                err.message
            );
        }
        assert!(parse_args(&argv("simulate --solver")).is_err());
    }

    #[test]
    fn parses_lint_flags() {
        let a = parse_args(&argv("lint")).unwrap();
        assert_eq!(a.command, Command::Lint);
        assert!(!a.write_baseline);
        assert!(!a.strict);
        assert_eq!(a.lint_root, None);
        let a = parse_args(&argv("lint --strict --root sub/dir --write-baseline")).unwrap();
        assert!(a.write_baseline);
        assert!(a.strict);
        assert_eq!(a.lint_root.as_deref(), Some("sub/dir"));
        assert!(parse_args(&argv("lint --root")).is_err());
    }

    #[test]
    fn parses_telemetry_flags() {
        let a = parse_args(&argv(
            "batch --in r.jsonl --ledger run.jsonl --metrics-out m.prom \
             --stats-interval-ms 5000",
        ))
        .unwrap();
        assert_eq!(a.ledger.as_deref(), Some("run.jsonl"));
        assert_eq!(a.metrics_out.as_deref(), Some("m.prom"));
        assert_eq!(a.stats_interval_ms, Some(5000));
        // 0 = explicitly off.
        let a = parse_args(&argv("serve --stats-interval-ms 0")).unwrap();
        assert_eq!(a.stats_interval_ms, None);
        assert!(parse_args(&argv("batch --ledger")).is_err());
        assert!(parse_args(&argv("serve --stats-interval-ms soon")).is_err());
    }

    #[test]
    fn parses_stats_command() {
        let a = parse_args(&argv("stats a.jsonl b.jsonl --format json --fail-if p99>250ms"))
            .unwrap();
        assert_eq!(a.command, Command::Stats);
        assert_eq!(a.stats_inputs, vec!["a.jsonl", "b.jsonl"]);
        assert!(a.stats_json);
        assert_eq!(a.fail_if.len(), 1);
        // --fail-if=EXPR also works, and the conditions accumulate.
        let a = parse_args(&argv("stats l.jsonl --fail-if=p99>1s --fail-if degraded>5%"))
            .unwrap();
        assert_eq!(a.fail_if.len(), 2);
        assert!(!a.stats_json);
        // A malformed expression or format is a parse-time usage error.
        assert_eq!(parse_args(&argv("stats l.jsonl --fail-if p17>1ms")).unwrap_err().code, 2);
        assert_eq!(parse_args(&argv("stats l.jsonl --format yaml")).unwrap_err().code, 2);
        // Positional arguments belong to stats only.
        assert!(parse_args(&argv("batch extra.jsonl")).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&argv("frobnicate")).is_err());
        assert!(parse_args(&argv("simulate --bits")).is_err());
        assert!(parse_args(&argv("simulate --bits x")).is_err());
        assert!(parse_args(&argv("simulate --wat 3")).is_err());
        assert!(parse_args(&argv("simulate --probe a,b")).is_err());
    }

    #[test]
    fn defaults_are_sane() {
        let a = parse_args(&argv("extract")).unwrap();
        assert_eq!(a.command, Command::Extract);
        assert_eq!(
            a.structure,
            Structure::Bus {
                bits: 8,
                segments: 1,
                misalign: 0.0,
                shield_every: None,
            }
        );
        assert_eq!(a.kind, ModelKind::VpecFull);
        let sh = parse_args(&argv("extract --bits 8 --shield 4")).unwrap();
        assert_eq!(
            sh.structure,
            Structure::Bus {
                bits: 8,
                segments: 1,
                misalign: 0.0,
                shield_every: Some(4),
            }
        );
        assert!(parse_args(&argv("extract --shield 0")).is_err());
    }
}
