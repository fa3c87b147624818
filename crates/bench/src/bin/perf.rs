//! `perf` — tracked benchmark for the parallel numerics layer.
//!
//! ```text
//! perf [--quick] [--out <path>]
//!
//! --quick   smallest layout only (CI smoke run, well under 30 s)
//! --out     JSON destination (default BENCH_perf.json)
//! ```
//!
//! Times six phases — extraction, S = L⁻¹ inversion, dense LU
//! factorization, dense matmul, transient, AC sweep — on three fixed bus
//! layouts, once with the pool pinned to 1 worker and once at the
//! parallel worker count, and records the wall times plus the max-abs
//! difference of the serial and parallel results. The parallel numerics
//! layer is designed to be bit-compatible, so every `max_abs_diff` is
//! expected to be 0.
//!
//! Numbers are honest: on a single-core machine the "parallel" column
//! still runs the striped/chunked code paths, it just cannot be faster.
//! `available_parallelism` is recorded, and every phase carries
//! `hw_limited: true` when the machine granted fewer workers than the
//! bench requested — downstream gates skip speedup assertions for those
//! rows instead of failing on hardware the bench cannot control.
//!
//! A `factor_reuse` section times the factor-once/solve-many split:
//! `prepare_transient` (assemble + factor + DC solve, the cold cost)
//! against `TransientFactor::validate` (assemble + exact compare, the
//! per-reuse cost), plus the engine factor-cache hit counters.
//!
//! A `lint` section times one full `vpec-analyze` pass over the workspace
//! sources against the committed baseline — the same gate `scripts/check.sh`
//! runs — and records the wall time plus files/lines scanned, so the
//! static-analysis budget is a tracked number rather than a feeling.
//!
//! A `service_levels` section runs a canned 50-request batch (repeated
//! geometry, AC sweeps, build-only, over-budget degradations, two
//! guaranteed failures) through the engine's recorded path and aggregates
//! the run-ledger records with `vpec_metrics::aggregate` — the same
//! analytics `vpec stats` computes offline — so fleet-facing numbers
//! (exact latency percentiles, cache hit ratios per level, degraded and
//! failure rates) are tracked alongside the kernel timings.

use std::time::Instant;
use vpec_bench::report::{secs, speedup, Table};
use vpec_circuit::ac::AcSpec;
use vpec_circuit::TransientSpec;
use vpec_core::harness::{BuildBudget, Experiment, ModelKind};
use vpec_core::DriveConfig;
use vpec_engine::{Engine, EngineConfig, ModelCache, ScenarioRequest};
use vpec_metrics::{aggregate, LedgerRecord, LedgerStats};
use vpec_extract::{extract, ExtractionConfig, Parasitics};
use vpec_geometry::BusSpec;
use vpec_numerics::{pool, CancelToken, Cholesky, LuFactor};

/// Requested worker count for the "parallel" column. The count actually
/// used (and recorded in the JSON) is clamped to `available_parallelism`:
/// oversubscribing a smaller machine measures scheduler thrash, not the
/// parallel numerics layer, and reporting `parallel_threads: 4` from a
/// 1-core box misrepresents the speedup columns.
const PARALLEL_THREADS: usize = 4;

/// Best-of-N repetitions for the cheap linear-algebra phases.
const REPS: usize = 3;

/// A fixed benchmark layout.
struct SizeSpec {
    name: &'static str,
    bits: usize,
    segments: usize,
}

const SIZES: [SizeSpec; 3] = [
    SizeSpec {
        name: "small",
        bits: 8,
        segments: 4,
    },
    SizeSpec {
        name: "medium",
        bits: 16,
        segments: 6,
    },
    SizeSpec {
        name: "large",
        bits: 28,
        segments: 8,
    },
];

/// One timed phase: serial vs parallel wall time and result difference.
struct PhaseRow {
    phase: &'static str,
    serial_s: f64,
    parallel_s: f64,
    max_abs_diff: f64,
}

/// One benchmarked layout with its phase rows.
struct SizeReport {
    name: &'static str,
    bits: usize,
    segments: usize,
    filaments: usize,
    phases: Vec<PhaseRow>,
}

/// Cold model build vs geometry-keyed cache hit for a repeated-geometry
/// batch (what the engine's [`ModelCache`] buys `vpec batch`/`serve`).
struct CacheReport {
    bits: usize,
    segments: usize,
    hit_requests: usize,
    cold_build_s: f64,
    cache_hit_s: f64,
}

/// Factor-once/solve-many: the cold preparation cost against the
/// per-reuse validation cost, plus proof the engine cache actually hits.
struct FactorReuseReport {
    bits: usize,
    segments: usize,
    dim: usize,
    prepare_s: f64,
    validate_s: f64,
    engine_factor_hits: u64,
    engine_factor_misses: u64,
}

/// One timed `vpec-analyze` pass over the workspace's own sources.
struct LintReport {
    wall_s: f64,
    files_scanned: usize,
    lines_scanned: usize,
    new_findings: usize,
    baselined: usize,
    waived: usize,
}

/// Times the workspace static-analysis gate: lex + lint every Rust source
/// against the committed `lint.baseline` (missing baseline = empty, so the
/// bench still runs on a fresh checkout). Best-of-`reps` wall time; the
/// counts come from the last run and are identical across runs.
fn bench_lint(reps: usize) -> LintReport {
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let baseline = std::fs::read_to_string(root.join("lint.baseline"))
        .ok()
        .and_then(|t| vpec_analyze::Baseline::parse(&t).ok())
        .unwrap_or_default();
    let cfg = vpec_analyze::Config::for_workspace(root);
    let (report, wall_s) = best_of(reps, || {
        vpec_analyze::engine::run(&cfg, &baseline).expect("workspace sources are readable")
    });
    LintReport {
        wall_s,
        files_scanned: report.files_scanned,
        lines_scanned: report.lines_scanned,
        new_findings: report.findings.len(),
        baselined: report.baselined,
        waived: report.waived,
    }
}

/// Fleet service levels of a canned batch run through the engine's
/// recorded path ([`Engine::run_request_recorded`]) and aggregated with
/// the same `vpec_metrics::aggregate` that backs `vpec stats`.
struct ServiceLevelReport {
    requests: usize,
    wall_s: f64,
    stats: LedgerStats,
}

/// Runs a fixed 50-request batch with a known composition — 24 repeated
/// transients (cache hits), 10 AC sweeps, 8 windowed builds, 6 over-
/// dimension full-inversion transients (degrade to wVPEC) and 2 over-step-budget
/// PEEC transients (fail: PEEC is not degradable) — collecting the run
/// ledger in memory. The timestamps are synthetic and deterministic; the
/// latencies are real wall times of this machine.
fn bench_service_levels() -> ServiceLevelReport {
    let mut lines: Vec<String> = Vec::new();
    for i in 0..24 {
        lines.push(format!(
            r#"{{"id":"tr{i}","structure":"bus","bits":8,"segments":2,"kind":"vpec-full","analysis":"transient","t_stop":5e-11,"dt":1e-12}}"#
        ));
    }
    for i in 0..10 {
        lines.push(format!(
            r#"{{"id":"ac{i}","structure":"bus","bits":8,"segments":2,"kind":"vpec-full","analysis":"ac","f_start":1e8,"f_stop":1e10,"points_per_decade":3}}"#
        ));
    }
    for i in 0..8 {
        lines.push(format!(
            r#"{{"id":"bld{i}","structure":"bus","bits":12,"kind":"wvpec-g:4","analysis":"none"}}"#
        ));
    }
    for i in 0..6 {
        lines.push(format!(
            r#"{{"id":"big{i}","structure":"bus","bits":24,"kind":"vpec-full","analysis":"transient","t_stop":5e-11,"dt":1e-12}}"#
        ));
    }
    for i in 0..2 {
        lines.push(format!(
            r#"{{"id":"deep{i}","structure":"bus","bits":8,"segments":2,"kind":"peec","analysis":"transient","t_stop":5e-9,"dt":1e-12}}"#
        ));
    }
    let requests: Vec<ScenarioRequest> = lines
        .iter()
        .enumerate()
        .map(|(i, l)| ScenarioRequest::parse_line(l, i).expect("canned request parses"))
        .collect();

    let mut engine = Engine::new(EngineConfig {
        budget: BuildBudget {
            max_matrix_dim: Some(20),
            max_steps: Some(1000),
            ..BuildBudget::unlimited()
        },
        backoff_ms: 1,
        ..EngineConfig::default()
    });

    let t0 = Instant::now();
    let records: Vec<LedgerRecord> = requests
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let (_, run) = engine.run_request_recorded(req, 0.0);
            LedgerRecord::Request {
                seq: i as u64 + 1,
                ts_ms: i as u64 * 125,
                run: Box::new(run),
            }
        })
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();

    ServiceLevelReport {
        requests: records.len(),
        wall_s,
        stats: aggregate(&records, 0),
    }
}

/// Times `prepare_transient` (assemble + factor + DC) against
/// `TransientFactor::validate` (assemble + exact compare) on a built
/// model, then drives the engine's factor cache once cold + once warm to
/// record its hit counters.
fn bench_factor_reuse(bits: usize, segments: usize, reps: usize) -> FactorReuseReport {
    let cfg = ExtractionConfig::paper_default();
    let layout = BusSpec::new(bits).segments(segments).build();
    let first_signal = layout.signal_nets().first().copied().unwrap_or(0);
    let drive = DriveConfig::paper_default().aggressors(vec![first_signal]);
    let exp = Experiment::new(layout, &cfg, drive);
    let built = exp.build(ModelKind::VpecFull).expect("model builds");
    let spec = TransientSpec::new(0.2e-9, 1e-12);

    let (pf, prepare_s) = best_of(reps, || {
        built.prepare_transient(&spec).expect("factor prepares")
    });
    let (_, validate_s) = best_of(reps, || {
        pf.validate(&built.model.circuit, &spec)
            .expect("handle matches its own circuit")
    });

    // Engine wiring: the same key must miss once and hit afterwards.
    let mut cache = ModelCache::new();
    let cancel = CancelToken::none();
    let layout = BusSpec::new(bits).segments(segments).build();
    let first_signal = layout.signal_nets().first().copied().unwrap_or(0);
    let drive = DriveConfig::paper_default().aggressors(vec![first_signal]);
    let (hash, exp, _) = cache.experiment_for(layout, &cfg, drive);
    let (model, _) = cache
        .model_for(hash, &exp, ModelKind::VpecFull, &cancel)
        .expect("model builds");
    for _ in 0..3 {
        cache
            .factor_for(hash, ModelKind::VpecFull, &model, &spec)
            .expect("factor prepares");
    }

    FactorReuseReport {
        bits,
        segments,
        dim: pf.dim(),
        prepare_s,
        validate_s,
        engine_factor_hits: cache.factor_hits(),
        engine_factor_misses: cache.factor_misses(),
    }
}

/// Times one cold extraction+build and `hits` repeated-geometry lookups
/// against the same cache. The hit column rebuilds the layout each time —
/// exactly what `run_stream` does per request — so it includes the
/// geometry construction and content-hash cost the cache cannot avoid.
fn bench_model_cache(bits: usize, segments: usize, hits: usize) -> CacheReport {
    let cfg = ExtractionConfig::paper_default();
    let cancel = CancelToken::none();
    let mut cache = ModelCache::new();
    let build = |cache: &mut ModelCache| {
        let layout = BusSpec::new(bits).segments(segments).build();
        let first_signal = layout.signal_nets().first().copied().unwrap_or(0);
        let drive = vpec_core::DriveConfig::paper_default().aggressors(vec![first_signal]);
        let (hash, exp, _) = cache.experiment_for(layout, &cfg, drive);
        cache
            .model_for(hash, &exp, ModelKind::VpecFull, &cancel)
            .expect("model builds")
    };

    let t0 = Instant::now();
    let (_, hit) = build(&mut cache);
    let cold_build_s = t0.elapsed().as_secs_f64();
    assert!(!hit, "first build is a miss");

    let t0 = Instant::now();
    for _ in 0..hits {
        let (_, hit) = build(&mut cache);
        assert!(hit, "repeated geometry is served from the cache");
    }
    let cache_hit_s = t0.elapsed().as_secs_f64() / hits.max(1) as f64;

    CacheReport {
        bits,
        segments,
        hit_requests: hits,
        cold_build_s,
        cache_hit_s,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_perf.json".to_string());

    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let par_workers = PARALLEL_THREADS.min(hw).max(1);
    println!(
        "perf bench | available_parallelism = {hw} | parallel column = {par_workers} workers \
         (requested {PARALLEL_THREADS})"
    );

    let sizes: &[SizeSpec] = if quick { &SIZES[..1] } else { &SIZES[..] };
    let t0 = Instant::now();
    let reports: Vec<SizeReport> = sizes.iter().map(|s| bench_size(s, par_workers)).collect();
    let cache = bench_model_cache(
        SIZES[0].bits,
        SIZES[0].segments,
        if quick { 3 } else { 10 },
    );
    // Factor reuse pays off most where factorization dominates — measure
    // on the largest layout (smallest in quick mode, to stay under CI
    // smoke budgets).
    let fr_size = if quick { &SIZES[0] } else { &SIZES[2] };
    let factor_reuse = bench_factor_reuse(fr_size.bits, fr_size.segments, if quick { 2 } else { 3 });
    let lint = bench_lint(if quick { 2 } else { 3 });
    // Leave the pool in its default (auto) state.
    pool::set_threads(0);
    // Service-level batch runs at the auto thread count — the engine's
    // operating point, not a pinned kernel measurement.
    let service = bench_service_levels();

    for rep in &reports {
        let mut table = Table::new(&["phase", "serial", "parallel", "speedup", "max |Δ|"]);
        for p in &rep.phases {
            table.row(&[
                p.phase.to_string(),
                secs(p.serial_s),
                secs(p.parallel_s),
                speedup(p.serial_s, p.parallel_s),
                format!("{:.1e}", p.max_abs_diff),
            ]);
        }
        println!(
            "\n{} ({} bits x {} segments = {} filaments)",
            rep.name, rep.bits, rep.segments, rep.filaments
        );
        print!("{}", table.render());
    }

    println!(
        "\nmodel cache ({} bits x {} segments, full VPEC): cold build {} vs cache hit {} \
         over {} repeated requests ({})",
        cache.bits,
        cache.segments,
        secs(cache.cold_build_s),
        secs(cache.cache_hit_s),
        cache.hit_requests,
        speedup(cache.cold_build_s, cache.cache_hit_s),
    );

    println!(
        "factor reuse ({} bits x {} segments, dim {}): prepare {} vs validate {} \
         per reuse ({}); engine factor cache {} hits / {} misses",
        factor_reuse.bits,
        factor_reuse.segments,
        factor_reuse.dim,
        secs(factor_reuse.prepare_s),
        secs(factor_reuse.validate_s),
        speedup(factor_reuse.prepare_s, factor_reuse.validate_s),
        factor_reuse.engine_factor_hits,
        factor_reuse.engine_factor_misses,
    );

    println!(
        "\nlint (vpec-analyze, workspace): {} over {} files / {} lines; \
         {} new finding(s), {} baselined, {} waived",
        secs(lint.wall_s),
        lint.files_scanned,
        lint.lines_scanned,
        lint.new_findings,
        lint.baselined,
        lint.waived,
    );

    let lat = service.stats.latency();
    let pct = |r: Option<f64>| r.map_or_else(|| "-".to_string(), |x| format!("{:.0}%", x * 100.0));
    let ms = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.2} ms"));
    println!(
        "\nservice levels (canned {}-request batch): {} ok / {} failed / {} degraded in {}; \
         p50 {} p90 {} p99 {} max {}; cache hits: experiment {} model {} factor {}",
        service.requests,
        service.stats.ok,
        service.stats.failed,
        service.stats.degraded,
        secs(service.wall_s),
        ms(lat.p50),
        ms(lat.p90),
        ms(lat.p99),
        ms(lat.max),
        pct(service.stats.experiment_cache.hit_ratio()),
        pct(service.stats.model_cache.hit_ratio()),
        pct(service.stats.factor_cache.hit_ratio()),
    );

    let json = render_json(
        &reports,
        &cache,
        &factor_reuse,
        &lint,
        &service,
        hw,
        par_workers,
        quick,
    );
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => {
            eprintln!("cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    println!("[perf completed in {:.1} s]", t0.elapsed().as_secs_f64());
}

/// Runs `f` with the pool pinned to `n` workers, restoring auto after.
fn at_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    pool::set_threads(n);
    let r = f();
    pool::set_threads(0);
    r
}

/// Best-of-`REPS` wall time plus the last result.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::MAX;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (out.expect("reps >= 1"), best)
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "result shape mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn parasitics_diff(a: &Parasitics, b: &Parasitics) -> f64 {
    max_abs_diff(a.inductance.as_slice(), b.inductance.as_slice())
        .max(max_abs_diff(&a.resistance, &b.resistance))
        .max(max_abs_diff(&a.cap_ground, &b.cap_ground))
}

fn bench_size(size: &SizeSpec, par_workers: usize) -> SizeReport {
    let layout = BusSpec::new(size.bits).segments(size.segments).build();
    let cfg = ExtractionConfig::paper_default();
    let mut phases = Vec::new();

    // Phase 1: parasitic extraction (inductance + capacitance tables).
    let ((para_s, para_p), (ts, tp)) = bench_pair(REPS, par_workers, || extract(&layout, &cfg));
    let n = para_s.len();
    phases.push(PhaseRow {
        phase: "extract",
        serial_s: ts,
        parallel_s: tp,
        max_abs_diff: parasitics_diff(&para_s, &para_p),
    });

    // Phase 2: S = L⁻¹ (Cholesky factor + inverse of the SPD L matrix).
    let l = &para_s.inductance;
    let invert = || {
        Cholesky::new(l)
            .expect("L is SPD")
            .inverse()
            .expect("inverse of SPD factor")
    };
    let ((inv_s, inv_p), (ts, tp)) = bench_pair(REPS, par_workers, invert);
    phases.push(PhaseRow {
        phase: "invert S=L^-1",
        serial_s: ts,
        parallel_s: tp,
        max_abs_diff: max_abs_diff(inv_s.as_slice(), inv_p.as_slice()),
    });

    // Phase 3: dense LU factorization (+ one solve so results compare).
    let rhs: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 / n as f64).collect();
    let factor_solve = || {
        let lu = LuFactor::new(l).expect("L is nonsingular");
        lu.solve(&rhs).expect("solve succeeds")
    };
    let ((x_s, x_p), (ts, tp)) = bench_pair(REPS, par_workers, factor_solve);
    phases.push(PhaseRow {
        phase: "lu factor",
        serial_s: ts,
        parallel_s: tp,
        max_abs_diff: max_abs_diff(&x_s, &x_p),
    });

    // Phase 4: dense matmul (the register-blocked axpy4 kernel) — L·L is
    // the same O(n³) shape as the window-product steps of the extraction.
    let multiply = || l.matmul(l).expect("square product");
    let ((c_s, c_p), (ts, tp)) = bench_pair(REPS, par_workers, multiply);
    phases.push(PhaseRow {
        phase: "matmul",
        serial_s: ts,
        parallel_s: tp,
        max_abs_diff: max_abs_diff(c_s.as_slice(), c_p.as_slice()),
    });

    // Phases 5 and 6 run the full model pipeline; build once per column.
    let first_signal = layout.signal_nets().first().copied().unwrap_or(0);
    let exp = Experiment::new(
        layout,
        &cfg,
        DriveConfig::paper_default().aggressors(vec![first_signal]),
    );
    let tspec = TransientSpec::new(0.2e-9, 1e-12);
    let acspec = AcSpec::log_sweep(1e8, 1e10, 4).expect("valid sweep");

    let transient = || {
        let built = exp.build(ModelKind::VpecFull).expect("model builds");
        let (res, _) = built.run_transient(&tspec).expect("transient runs");
        built.far_voltage(&res, 0).expect("net 0 recorded")
    };
    let ((w_s, w_p), (ts, tp)) = bench_pair(1, par_workers, transient);
    phases.push(PhaseRow {
        phase: "transient",
        serial_s: ts,
        parallel_s: tp,
        max_abs_diff: max_abs_diff(&w_s, &w_p),
    });

    let ac = || {
        let built = exp.build(ModelKind::VpecFull).expect("model builds");
        let (res, _) = built.run_ac(&acspec).expect("AC sweep runs");
        res.magnitude(built.model.far_nodes[0]).expect("far node")
    };
    let ((m_s, m_p), (ts, tp)) = bench_pair(1, par_workers, ac);
    phases.push(PhaseRow {
        phase: "ac sweep",
        serial_s: ts,
        parallel_s: tp,
        max_abs_diff: max_abs_diff(&m_s, &m_p),
    });

    SizeReport {
        name: size.name,
        bits: size.bits,
        segments: size.segments,
        filaments: n,
        phases,
    }
}

/// Runs `f` at 1 worker and at `par_workers` workers, returning both
/// results and both best-of-`reps` wall times.
fn bench_pair<R>(reps: usize, par_workers: usize, f: impl Fn() -> R) -> ((R, R), (f64, f64)) {
    let (r1, t1) = at_threads(1, || best_of(reps, &f));
    let (rp, tp) = at_threads(par_workers, || best_of(reps, &f));
    ((r1, rp), (t1, tp))
}

#[allow(clippy::too_many_arguments)] // one flat call site; a params struct would only rename the problem
fn render_json(
    reports: &[SizeReport],
    cache: &CacheReport,
    factor_reuse: &FactorReuseReport,
    lint: &LintReport,
    service: &ServiceLevelReport,
    hw: usize,
    par_workers: usize,
    quick: bool,
) -> String {
    // The machine granted fewer workers than the bench requested: the
    // parallel columns cannot show speedups, through no fault of the code.
    let hw_limited = par_workers < PARALLEL_THREADS;
    use std::fmt::Write as _;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"perf\",");
    let _ = writeln!(out, "  \"available_parallelism\": {hw},");
    let _ = writeln!(out, "  \"parallel_threads\": {par_workers},");
    let _ = writeln!(out, "  \"parallel_threads_requested\": {PARALLEL_THREADS},");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"sizes\": [");
    for (i, rep) in reports.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", rep.name);
        let _ = writeln!(out, "      \"bits\": {},", rep.bits);
        let _ = writeln!(out, "      \"segments\": {},", rep.segments);
        let _ = writeln!(out, "      \"filaments\": {},", rep.filaments);
        let _ = writeln!(out, "      \"phases\": [");
        for (j, p) in rep.phases.iter().enumerate() {
            let ratio = if p.parallel_s > 0.0 {
                p.serial_s / p.parallel_s
            } else {
                0.0
            };
            let _ = writeln!(out, "        {{");
            let _ = writeln!(out, "          \"phase\": \"{}\",", p.phase);
            let _ = writeln!(out, "          \"serial_seconds\": {:.6e},", p.serial_s);
            let _ = writeln!(out, "          \"parallel_seconds\": {:.6e},", p.parallel_s);
            let _ = writeln!(out, "          \"speedup\": {ratio:.3},");
            let _ = writeln!(out, "          \"hw_limited\": {hw_limited},");
            let _ = writeln!(out, "          \"max_abs_diff\": {:.3e}", p.max_abs_diff);
            let comma = if j + 1 < rep.phases.len() { "," } else { "" };
            let _ = writeln!(out, "        }}{comma}");
        }
        let _ = writeln!(out, "      ]");
        let comma = if i + 1 < reports.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    // NB: key names deliberately avoid the "serial_seconds" substring the
    // CI overhead check greps for inside the sizes array.
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"model_cache\": {{");
    let _ = writeln!(out, "    \"bits\": {},", cache.bits);
    let _ = writeln!(out, "    \"segments\": {},", cache.segments);
    let _ = writeln!(out, "    \"kind\": \"vpec-full\",");
    let _ = writeln!(out, "    \"hit_requests\": {},", cache.hit_requests);
    let _ = writeln!(
        out,
        "    \"cold_build_seconds\": {:.6e},",
        cache.cold_build_s
    );
    let _ = writeln!(out, "    \"cache_hit_seconds\": {:.6e},", cache.cache_hit_s);
    let hit_speedup = if cache.cache_hit_s > 0.0 {
        cache.cold_build_s / cache.cache_hit_s
    } else {
        0.0
    };
    let _ = writeln!(out, "    \"hit_speedup\": {hit_speedup:.3}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"factor_reuse\": {{");
    let _ = writeln!(out, "    \"bits\": {},", factor_reuse.bits);
    let _ = writeln!(out, "    \"segments\": {},", factor_reuse.segments);
    let _ = writeln!(out, "    \"dim\": {},", factor_reuse.dim);
    let _ = writeln!(
        out,
        "    \"prepare_seconds\": {:.6e},",
        factor_reuse.prepare_s
    );
    let _ = writeln!(
        out,
        "    \"validate_seconds\": {:.6e},",
        factor_reuse.validate_s
    );
    let reuse_speedup = if factor_reuse.validate_s > 0.0 {
        factor_reuse.prepare_s / factor_reuse.validate_s
    } else {
        0.0
    };
    let _ = writeln!(out, "    \"reuse_speedup\": {reuse_speedup:.3},");
    let _ = writeln!(
        out,
        "    \"engine_factor_hits\": {},",
        factor_reuse.engine_factor_hits
    );
    let _ = writeln!(
        out,
        "    \"engine_factor_misses\": {}",
        factor_reuse.engine_factor_misses
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"lint\": {{");
    let _ = writeln!(out, "    \"wall_seconds\": {:.6e},", lint.wall_s);
    let _ = writeln!(out, "    \"files_scanned\": {},", lint.files_scanned);
    let _ = writeln!(out, "    \"lines_scanned\": {},", lint.lines_scanned);
    let _ = writeln!(out, "    \"new_findings\": {},", lint.new_findings);
    let _ = writeln!(out, "    \"baselined\": {},", lint.baselined);
    let _ = writeln!(out, "    \"waived\": {}", lint.waived);
    let _ = writeln!(out, "  }},");
    let jnum = |v: Option<f64>| match v {
        Some(x) if x.is_finite() => format!("{x:.6}"),
        _ => "null".to_string(),
    };
    let lat = service.stats.latency();
    let _ = writeln!(out, "  \"service_levels\": {{");
    let _ = writeln!(out, "    \"requests\": {},", service.requests);
    let _ = writeln!(out, "    \"ok\": {},", service.stats.ok);
    let _ = writeln!(out, "    \"failed\": {},", service.stats.failed);
    let _ = writeln!(out, "    \"degraded\": {},", service.stats.degraded);
    let _ = writeln!(out, "    \"retries\": {},", service.stats.retries);
    let _ = writeln!(out, "    \"wall_seconds\": {:.6e},", service.wall_s);
    let _ = writeln!(out, "    \"p50_ms\": {},", jnum(lat.p50));
    let _ = writeln!(out, "    \"p90_ms\": {},", jnum(lat.p90));
    let _ = writeln!(out, "    \"p99_ms\": {},", jnum(lat.p99));
    let _ = writeln!(out, "    \"max_ms\": {},", jnum(lat.max));
    let _ = writeln!(
        out,
        "    \"experiment_hit_ratio\": {},",
        jnum(service.stats.experiment_cache.hit_ratio())
    );
    let _ = writeln!(
        out,
        "    \"model_hit_ratio\": {},",
        jnum(service.stats.model_cache.hit_ratio())
    );
    let _ = writeln!(
        out,
        "    \"factor_hit_ratio\": {},",
        jnum(service.stats.factor_cache.hit_ratio())
    );
    let _ = writeln!(
        out,
        "    \"degraded_pct\": {:.3},",
        service.stats.degraded_pct()
    );
    let _ = writeln!(out, "    \"failed_pct\": {:.3}", service.stats.failed_pct());
    out.push_str("  }\n}\n");
    out
}
