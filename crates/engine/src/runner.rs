//! The batch runner: request in, response out, nothing escapes.
//!
//! [`Engine::run_request`] is the request lifecycle:
//!
//! 1. **Admission** — the budget ([`vpec_core::harness::BuildBudget`]) is
//!    checked against the raw layout before extraction, so an over-budget
//!    request costs O(N) rather than O(N³).
//! 2. **Isolation** — the work runs inside
//!    [`crate::boundary::run_guarded`]: panics become typed errors, the
//!    deadline watchdog fires a [`CancelToken`] polled throughout the
//!    numerics/circuit layers.
//! 3. **Retry** — retryable failures get bounded retries with exponential
//!    backoff.
//! 4. **Degradation** — when the terminal failure says "the full build is
//!    too expensive" (deadline, matrix-dimension budget) and the request
//!    asked for a full-inversion kind, the engine re-runs it as a
//!    windowed wVPEC model (provably passive, O(N·b³)) and marks the
//!    response `degraded: true` instead of failing it.
//!
//! [`Engine::run_stream`] maps a JSONL request stream through that
//! lifecycle, flushing one response line per request so downstream
//! consumers see progress in real time.

use crate::boundary::run_guarded;
use crate::cache::ModelCache;
use crate::request::{AnalysisSpec, ScenarioRequest, ScenarioResponse};
use crate::telemetry::StreamTelemetry;
use crate::EngineError;
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Instant;
use vpec_circuit::ac::AcSpec;
use vpec_circuit::metrics::peak_abs;
use vpec_circuit::TransientSpec;
use vpec_core::harness::{BuildBudget, BuiltModel, Experiment, ModelKind};
use vpec_metrics::RunRecord;
use vpec_numerics::fault::FaultInjection;
use vpec_numerics::CancelToken;

/// Engine-wide resilience policy. Per-request `deadline_ms` overrides the
/// engine default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Default wall-clock deadline per request, milliseconds (`None` =
    /// unbounded).
    pub deadline_ms: Option<u64>,
    /// Admission budget, checked before any heavy work.
    pub budget: BuildBudget,
    /// Retries after the first attempt for retryable failures.
    pub retries: usize,
    /// Base backoff before retry `k` (doubled each retry), milliseconds.
    pub backoff_ms: u64,
    /// Permit the graceful wVPEC fallback for over-budget / over-deadline
    /// full-inversion requests.
    pub degrade: bool,
    /// Window size `b` of the fallback wVPEC model.
    pub degrade_window: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            deadline_ms: None,
            budget: BuildBudget::unlimited(),
            retries: 1,
            backoff_ms: 10,
            degrade: true,
            degrade_window: 4,
        }
    }
}

/// Aggregate counters for one [`Engine::run_stream`] run, tallied from
/// its run records, as the ledger and the exposition are.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Requests seen (blank/comment lines excluded).
    pub total: usize,
    /// Requests answered with `status: "ok"` (including degraded ones).
    pub ok: usize,
    /// Requests answered with `status: "failed"`.
    pub failed: usize,
    /// Requests marked `degraded: true`.
    pub degraded: usize,
    /// Retries consumed across the stream (attempts beyond each
    /// request's first).
    pub retries: usize,
    /// Requests answered from the model cache: the records' `model_hit`.
    pub cache_hits: u64,
    /// Requests answered OK with a model built for them, as `vpec stats`
    /// counts model-cache misses. Failed requests count toward neither.
    pub cache_misses: u64,
}

/// Solver/cache attribution of one successful attempt, mirrored into the
/// run-ledger record.
#[derive(Debug, Clone, Copy, Default)]
struct SolveAttribution {
    /// Accepted factorization strategy label, when a transient or an AC
    /// sweep ran (for a sweep, that of its largest factor).
    strategy: Option<&'static str>,
    /// MNA matrix dimension of the transient or AC system.
    dim: Option<usize>,
    /// Stored entries of the accepted transient factor, or of the AC
    /// sweep's largest factor (`dim²` for a dense recovery).
    factor_nnz: Option<usize>,
    /// Bytes per stored factor entry: 8 (real) or 16 (complex).
    entry_bytes: u64,
    /// Model-build phase wall time, ms.
    build_ms: Option<f64>,
    /// Solve phase wall time, ms.
    solve_ms: Option<f64>,
    /// The geometry-keyed extraction cache answered.
    experiment_hit: bool,
    /// The prepared-factorization cache answered.
    factor_hit: bool,
}

/// What one successful attempt produced.
struct AttemptOutput {
    elements: usize,
    cache_hit: bool,
    /// Peak |V| over the probed far ends, volts.
    peak: Option<f64>,
    /// The solve itself reported degraded operation.
    degraded_solve: bool,
    notes: Vec<String>,
    attr: SolveAttribution,
}

/// The ledger's analysis-class label for a request.
fn analysis_label(spec: &AnalysisSpec) -> &'static str {
    match spec {
        AnalysisSpec::Transient { .. } => "transient",
        AnalysisSpec::Ac { .. } => "ac",
        AnalysisSpec::BuildOnly => "build",
    }
}

/// Assembles the run-ledger record from a finished response plus the
/// solver/cache attribution of the attempt that produced it.
fn ledger_record(
    analysis: &AnalysisSpec,
    resp: &ScenarioResponse,
    attr: &SolveAttribution,
    queue_ms: f64,
) -> RunRecord {
    RunRecord {
        id: resp.id.clone(),
        ok: resp.ok,
        error: resp.error.as_ref().map(|e| e.category().to_string()),
        kind: resp.requested.clone(),
        ran: resp.ran.clone(),
        analysis: analysis_label(analysis).to_string(),
        retries: resp.attempts.saturating_sub(1),
        degraded: resp.degraded,
        degraded_reason: resp.degraded_reason.clone(),
        experiment_hit: attr.experiment_hit,
        model_hit: resp.cache_hit,
        factor_hit: attr.factor_hit,
        strategy: attr.strategy.map(str::to_string),
        dim: attr.dim,
        elements: resp.elements,
        queue_ms,
        build_ms: attr.build_ms,
        solve_ms: attr.solve_ms,
        total_ms: resp.elapsed_ms,
        // The accepted factor's stored entries, one scalar each.
        peak_scratch_bytes: attr.factor_nnz.map(|nnz| attr.entry_bytes * nnz as u64),
    }
}

/// The resilient batch engine: a policy plus a model cache.
#[derive(Debug, Default)]
pub struct Engine {
    config: EngineConfig,
    cache: ModelCache,
}

impl Engine {
    /// An engine with the given policy and an empty cache.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            cache: ModelCache::new(),
        }
    }

    /// The engine's policy.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The model cache (its factor-cache counters are read by tests).
    pub fn cache(&self) -> &ModelCache {
        &self.cache
    }

    /// One isolated attempt at `req` with an explicit kind and fault set
    /// (the degraded fallback re-enters here with a windowed kind and
    /// faults stripped).
    fn attempt(
        &mut self,
        req: &ScenarioRequest,
        kind: ModelKind,
        faults: FaultInjection,
        deadline_ms: Option<u64>,
    ) -> Result<AttemptOutput, EngineError> {
        let token = CancelToken::new();
        let work_token = token.clone();
        let budget = self.config.budget;
        let cache = &mut self.cache;
        let analysis = req.analysis.clone();
        let structure = req.structure.clone();
        run_guarded(deadline_ms, &token, move || {
            assert!(
                !faults.panic_engine,
                "injected engine panic (FaultInjection::panic_engine)"
            );
            let (layout, cfg, drive) = structure.build();
            budget
                .check(layout.filaments().len(), kind, analysis.steps())
                .map_err(EngineError::from_build)?;

            // Fault-injected requests bypass the cache in both directions:
            // they must not be answered from it, and their (possibly
            // half-poisoned) artifacts must not enter it.
            let (model, cache_hit, prefactor, experiment_hit, factor_hit): (
                Arc<BuiltModel>,
                bool,
                Option<Arc<vpec_circuit::TransientFactor>>,
                bool,
                bool,
            ) = if faults.is_armed() {
                let cfg = cfg.with_faults(faults);
                let exp = Experiment::new(layout, &cfg, drive);
                let built = exp
                    .build_cancel(kind, &work_token)
                    .map_err(EngineError::from_build)?;
                (Arc::new(built), false, None, false, false)
            } else {
                let (hash, exp, exp_hit) = cache.experiment_for(layout, &cfg, drive);
                let (model, hit) = cache
                    .model_for(hash, &exp, kind, &work_token)
                    .map_err(EngineError::from_build)?;
                // Factor-once/solve-many: transient requests also fetch the
                // prepared MNA factorization, cached alongside the model so
                // repeats skip the factor + DC phases.
                let (prefactor, f_hit) = match &analysis {
                    AnalysisSpec::Transient { t_stop, dt } => {
                        let (factor, f_hit) = cache
                            .factor_for(hash, kind, &model, &TransientSpec::new(*t_stop, *dt))
                            .map_err(|e| EngineError::AnalysisFailed {
                                message: e.to_string(),
                            })?;
                        (Some(factor), f_hit)
                    }
                    _ => (None, false),
                };
                (model, hit, prefactor, exp_hit, f_hit)
            };

            let analysis_err = |e: vpec_core::CoreError| EngineError::AnalysisFailed {
                message: e.to_string(),
            };
            match analysis {
                AnalysisSpec::Transient { t_stop, dt } => {
                    let spec = TransientSpec::new(t_stop, dt)
                        .fault_injection(faults)
                        .cancel_token(work_token.clone());
                    let (res, report, solve_seconds) = match &prefactor {
                        Some(pf) => model
                            .run_transient_with_report_prefactored(&spec, pf)
                            .map_err(analysis_err)?,
                        None => model
                            .run_transient_with_report(&spec)
                            .map_err(analysis_err)?,
                    };
                    let mut peak: f64 = 0.0;
                    for k in 0..model.model.far_nodes.len() {
                        let w = model.far_voltage(&res, k).map_err(analysis_err)?;
                        peak = peak.max(peak_abs(&w));
                    }
                    let attr = SolveAttribution {
                        strategy: report
                            .transient
                            .as_ref()
                            .and_then(|t| t.factor.accepted())
                            .map(|s| s.label()),
                        dim: report.transient.as_ref().map(|t| t.dim).filter(|&d| d > 0),
                        factor_nnz: report
                            .transient
                            .as_ref()
                            .map(|t| t.factor.factor_nnz)
                            .filter(|&nnz| nnz > 0),
                        entry_bytes: 8,
                        build_ms: Some(model.build_seconds * 1e3),
                        solve_ms: Some(solve_seconds * 1e3),
                        experiment_hit,
                        factor_hit,
                    };
                    Ok(AttemptOutput {
                        elements: model.element_count(),
                        cache_hit,
                        peak: Some(peak),
                        degraded_solve: report.degraded(),
                        notes: report.lines(),
                        attr,
                    })
                }
                AnalysisSpec::Ac {
                    f_start,
                    f_stop,
                    points_per_decade,
                } => {
                    let spec = AcSpec::log_sweep(f_start, f_stop, points_per_decade)
                        .map_err(|e| EngineError::AnalysisFailed {
                            message: e.to_string(),
                        })?
                        .cancel_token(work_token.clone());
                    let t_solve = Instant::now();
                    let (res, _) = model.run_ac(&spec).map_err(analysis_err)?;
                    let solve_ms = t_solve.elapsed().as_secs_f64() * 1e3;
                    let mut peak: f64 = 0.0;
                    for &node in &model.model.far_nodes {
                        let mag = res
                            .magnitude(node)
                            .map_err(|e| EngineError::AnalysisFailed {
                                message: e.to_string(),
                            })?;
                        peak = mag.iter().fold(peak, |a, &m| a.max(m));
                    }
                    Ok(AttemptOutput {
                        elements: model.element_count(),
                        cache_hit,
                        peak: Some(peak),
                        degraded_solve: false,
                        notes: Vec::new(),
                        attr: SolveAttribution {
                            strategy: res.factor_diagnostics().accepted().map(|s| s.label()),
                            dim: Some(res.dim()).filter(|&d| d > 0),
                            factor_nnz: Some(res.factor_diagnostics().factor_nnz)
                                .filter(|&nnz| nnz > 0),
                            entry_bytes: 16,
                            build_ms: Some(model.build_seconds * 1e3),
                            solve_ms: Some(solve_ms),
                            experiment_hit,
                            factor_hit,
                        },
                    })
                }
                AnalysisSpec::BuildOnly => Ok(AttemptOutput {
                    elements: model.element_count(),
                    cache_hit,
                    peak: None,
                    degraded_solve: model.repair.as_ref().is_some_and(|r| r.repaired()),
                    notes: Vec::new(),
                    attr: SolveAttribution {
                        build_ms: Some(model.build_seconds * 1e3),
                        experiment_hit,
                        factor_hit,
                        ..SolveAttribution::default()
                    },
                }),
            }
        })
    }

    /// Runs one request through the full resilience lifecycle. Never
    /// panics and never blocks past the deadline (plus one unit of
    /// cooperative work): every outcome is a [`ScenarioResponse`].
    pub fn run_request(&mut self, req: &ScenarioRequest) -> ScenarioResponse {
        self.run_request_recorded(req, 0.0).0
    }

    /// [`Engine::run_request`] plus the matching run-ledger record.
    /// `queue_ms` is how long the request waited before the engine picked
    /// it up (stream read + idle time); it is passed through verbatim.
    pub fn run_request_recorded(
        &mut self,
        req: &ScenarioRequest,
        queue_ms: f64,
    ) -> (ScenarioResponse, RunRecord) {
        let _sp = vpec_trace::span!("engine.request", "id" => req.id.clone());
        let t0 = Instant::now();
        let deadline = req.deadline_ms.or(self.config.deadline_ms);
        let requested = req.kind.label();

        let mut attempts = 0;
        let (response, attr) = 'outcome: {
            let terminal = loop {
                attempts += 1;
                match self.attempt(req, req.kind, req.faults, deadline) {
                    Ok(out) => {
                        break 'outcome (
                            ScenarioResponse {
                                id: req.id.clone(),
                                ok: true,
                                requested: requested.clone(),
                                ran: Some(requested),
                                degraded: out.degraded_solve,
                                degraded_reason: None,
                                attempts,
                                cache_hit: out.cache_hit,
                                elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
                                elements: Some(out.elements),
                                peak_mv: out.peak.map(|p| p * 1e3),
                                notes: out.notes,
                                error: None,
                            },
                            out.attr,
                        )
                    }
                    Err(e) => {
                        if e.retryable() && attempts <= self.config.retries {
                            let backoff = self.config.backoff_ms << (attempts - 1).min(6);
                            std::thread::sleep(std::time::Duration::from_millis(backoff));
                            continue;
                        }
                        break e;
                    }
                }
            };

            // Graceful degradation: answer "too expensive" with the windowed
            // model instead of a failure. Faults are stripped — the fallback
            // exists to produce a usable answer, not to re-run the fault.
            if self.config.degrade && terminal.degradable() && req.kind.needs_full_inversion() {
                let b = self.config.degrade_window.max(1);
                let wkind = ModelKind::WVpecGeometric { b };
                match self.attempt(req, wkind, FaultInjection::none(), deadline) {
                    Ok(out) => {
                        let mut notes = out.notes;
                        notes.push(format!("degraded to {} after: {terminal}", wkind.label()));
                        break 'outcome (
                            ScenarioResponse {
                                id: req.id.clone(),
                                ok: true,
                                requested,
                                ran: Some(wkind.label()),
                                degraded: true,
                                degraded_reason: Some(terminal.category().to_string()),
                                attempts,
                                cache_hit: out.cache_hit,
                                elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
                                elements: Some(out.elements),
                                peak_mv: out.peak.map(|p| p * 1e3),
                                notes,
                                error: None,
                            },
                            out.attr,
                        );
                    }
                    Err(fallback_err) => {
                        break 'outcome (
                            ScenarioResponse {
                                id: req.id.clone(),
                                ok: false,
                                requested,
                                ran: None,
                                degraded: false,
                                degraded_reason: None,
                                attempts,
                                cache_hit: false,
                                elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
                                elements: None,
                                peak_mv: None,
                                notes: vec![format!(
                                    "degraded fallback also failed: {fallback_err}"
                                )],
                                error: Some(terminal),
                            },
                            SolveAttribution::default(),
                        )
                    }
                }
            }

            (
                ScenarioResponse {
                    id: req.id.clone(),
                    ok: false,
                    requested,
                    ran: None,
                    degraded: false,
                    degraded_reason: None,
                    attempts,
                    cache_hit: false,
                    elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
                    elements: None,
                    peak_mv: None,
                    notes: Vec::new(),
                    error: Some(terminal),
                },
                SolveAttribution::default(),
            )
        };

        let record = ledger_record(&req.analysis, &response, &attr, queue_ms);
        (response, record)
    }

    /// Streams JSONL requests from `reader` to JSONL responses on
    /// `writer`, one line per request, flushed per line. Unparseable
    /// lines produce `failed` responses; blank lines and `#` comments are
    /// skipped; the stream itself never aborts a batch.
    ///
    /// # Errors
    ///
    /// [`EngineError::Io`] only — a request can fail, the stream cannot,
    /// short of the transport itself breaking.
    pub fn run_stream<R: BufRead, W: Write>(
        &mut self,
        reader: R,
        writer: &mut W,
    ) -> Result<StreamSummary, EngineError> {
        self.run_stream_with(reader, writer, &mut StreamTelemetry::disabled())
    }

    /// [`Engine::run_stream`] with per-request telemetry: each request
    /// appends one run-ledger record (unparseable lines included) and
    /// feeds the exposition's request counters and histograms. A disabled
    /// [`StreamTelemetry`] makes this identical to [`Engine::run_stream`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Io`] — from the transport or the telemetry sinks.
    pub fn run_stream_with<R: BufRead, W: Write>(
        &mut self,
        reader: R,
        writer: &mut W,
        telemetry: &mut StreamTelemetry,
    ) -> Result<StreamSummary, EngineError> {
        let io_err = |e: std::io::Error| EngineError::Io {
            message: e.to_string(),
        };
        let mut summary = StreamSummary::default();
        // Queue time = wall clock between finishing the previous response
        // and the engine picking up the next request (stream read + idle).
        let mut idle_since = Instant::now();
        for (index, line) in reader.lines().enumerate() {
            let line = line.map_err(io_err)?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let queue_ms = idle_since.elapsed().as_secs_f64() * 1e3;
            let (response, record) = match ScenarioRequest::parse_line(trimmed, index) {
                Ok(req) => self.run_request_recorded(&req, queue_ms),
                Err(e) => {
                    let record = RunRecord {
                        id: format!("line{}", index + 1),
                        ok: false,
                        error: Some(e.category().to_string()),
                        analysis: "unknown".to_string(),
                        queue_ms,
                        ..RunRecord::default()
                    };
                    let response = ScenarioResponse {
                        id: format!("line{}", index + 1),
                        ok: false,
                        requested: String::new(),
                        ran: None,
                        degraded: false,
                        degraded_reason: None,
                        attempts: 0,
                        cache_hit: false,
                        elapsed_ms: 0.0,
                        elements: None,
                        peak_mv: None,
                        notes: Vec::new(),
                        error: Some(e),
                    };
                    (response, record)
                }
            };
            summary.total += 1;
            if record.ok {
                summary.ok += 1;
            } else {
                summary.failed += 1;
            }
            if record.degraded {
                summary.degraded += 1;
            }
            summary.retries += record.retries;
            summary.cache_hits += u64::from(record.model_hit);
            summary.cache_misses += u64::from(record.ok && !record.model_hit);
            telemetry.observe(&record).map_err(io_err)?;
            writeln!(writer, "{}", response.to_json_line()).map_err(io_err)?;
            writer.flush().map_err(io_err)?;
            idle_since = Instant::now();
        }
        telemetry.finish().map_err(io_err)?;
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(line: &str) -> ScenarioRequest {
        ScenarioRequest::parse_line(line, 0).unwrap()
    }

    #[test]
    fn happy_path_reuses_cache() {
        let mut engine = Engine::new(EngineConfig::default());
        let r = req(r#"{"id":"a","bits":3,"kind":"wvpec-g:2","t_stop":5e-11}"#);
        let first = engine.run_request(&r);
        assert!(first.ok, "{:?}", first.error);
        assert!(!first.cache_hit);
        assert!(first.elements.unwrap() > 0);
        assert!(first.peak_mv.unwrap() > 0.0);
        let second = engine.run_request(&r);
        assert!(second.ok && second.cache_hit);
    }

    #[test]
    fn stream_summary_counts_cache_hits_per_request() {
        // `bad` builds its model, fails its analysis (dt past t_stop),
        // and retries: the retry finds the model the first attempt
        // cached, and fails again. `ok` is then answered from the cache.
        // Per request, as the ledger and the exposition count them, that
        // is one hit and no miss; the cache's own look-ups were two hits
        // and one miss.
        let mut engine = Engine::new(EngineConfig {
            retries: 1,
            backoff_ms: 0,
            ..EngineConfig::default()
        });
        let input = concat!(
            r#"{"id":"bad","bits":3,"kind":"wvpec-g:2","t_stop":1e-12,"dt":1e-11}"#,
            "\n",
            r#"{"id":"ok","bits":3,"kind":"wvpec-g:2","t_stop":5e-11}"#,
            "\n",
        );
        let mut out = Vec::new();
        let summary = engine.run_stream(input.as_bytes(), &mut out).unwrap();
        assert_eq!((summary.ok, summary.failed, summary.retries), (1, 1, 1));
        assert_eq!((summary.cache_hits, summary.cache_misses), (1, 0));
    }

    #[test]
    fn transient_repeats_reuse_the_factorization() {
        let mut engine = Engine::new(EngineConfig::default());
        let r = req(r#"{"id":"a","bits":3,"kind":"wvpec-g:2","t_stop":5e-11}"#);
        let first = engine.run_request(&r);
        assert!(first.ok, "{:?}", first.error);
        assert_eq!(
            (engine.cache().factor_hits(), engine.cache().factor_misses()),
            (0, 1),
            "first transient prepares the factorization"
        );
        let second = engine.run_request(&r);
        assert!(second.ok, "{:?}", second.error);
        assert_eq!(
            (engine.cache().factor_hits(), engine.cache().factor_misses()),
            (1, 1),
            "repeat reuses the prepared factorization"
        );
        // Factor reuse must be invisible in the answer: bit-equal peaks.
        assert_eq!(first.peak_mv, second.peak_mv);
        // A longer t_stop at the same dt keeps the matrix unchanged — the
        // factor is still reusable (that's the whole point of the cache).
        let longer = req(r#"{"id":"b","bits":3,"kind":"wvpec-g:2","t_stop":1e-10}"#);
        let third = engine.run_request(&longer);
        assert!(third.ok, "{:?}", third.error);
        assert_eq!(engine.cache().factor_hits(), 2);
        // A different dt over the same model is a different matrix: miss.
        let other_dt = req(r#"{"id":"c","bits":3,"kind":"wvpec-g:2","t_stop":5e-11,"dt":2e-12}"#);
        let fourth = engine.run_request(&other_dt);
        assert!(fourth.ok, "{:?}", fourth.error);
        assert_eq!(
            (engine.cache().factor_hits(), engine.cache().factor_misses()),
            (2, 2)
        );
        // AC and build-only requests never touch the factor cache.
        let ac = req(r#"{"id":"c","bits":3,"kind":"wvpec-g:2","analysis":"ac"}"#);
        let misses_before = engine.cache().factor_misses();
        let resp = engine.run_request(&ac);
        if resp.ok {
            assert_eq!(engine.cache().factor_misses(), misses_before);
        }
    }

    #[test]
    fn ledger_scratch_is_the_sparse_factor_not_a_dense_matrix() {
        // Every accepted MNA factor is sparse, so the record's scratch
        // estimate is 8 bytes per stored factor entry, well under the
        // 8·dim² a dense factor would hold — on a fresh factorization and
        // on a factor-cache hit alike.
        let mut engine = Engine::new(EngineConfig::default());
        let r = req(r#"{"id":"a","bits":8,"kind":"vpec-full","t_stop":5e-11}"#);
        for _ in 0..2 {
            let (resp, rec) = engine.run_request_recorded(&r, 0.0);
            assert!(resp.ok, "{:?}", resp.error);
            assert_eq!(rec.strategy.as_deref(), Some("sparse-lu"));
            let dim = rec.dim.expect("a transient records its dimension") as u64;
            let scratch = rec.peak_scratch_bytes.expect("a transient records scratch");
            assert!(scratch > 0 && scratch % 8 == 0, "{scratch}");
            assert!(
                scratch < 8 * dim * dim,
                "scratch {scratch} B must be under the dense 8·{dim}² B"
            );
        }
        assert_eq!(engine.cache().factor_hits(), 1);
    }

    #[test]
    fn ac_records_carry_factor_evidence() {
        // An AC sweep factors a complex sparse LU per point; its record
        // names the strategy, the system's dimension and the largest
        // factor's scratch, 16 bytes per stored complex entry.
        let mut engine = Engine::new(EngineConfig::default());
        let r = req(
            r#"{"id":"ac","bits":4,"kind":"vpec-full","analysis":"ac","f_start":1e8,"f_stop":1e10,"points_per_decade":3}"#,
        );
        let (resp, rec) = engine.run_request_recorded(&r, 0.0);
        assert!(resp.ok, "{:?}", resp.error);
        assert_eq!(rec.analysis, "ac");
        assert_eq!(rec.strategy.as_deref(), Some("sparse-lu"));
        let dim = rec.dim.expect("an AC sweep records its dimension") as u64;
        let scratch = rec.peak_scratch_bytes.expect("an AC sweep records scratch");
        assert!(scratch > 0 && scratch % 16 == 0, "{scratch}");
        assert!(scratch <= 16 * dim * dim, "{scratch} B over dense {dim}²");
    }

    #[test]
    fn panicking_request_is_contained() {
        let mut engine = Engine::new(EngineConfig {
            retries: 2,
            backoff_ms: 1,
            ..EngineConfig::default()
        });
        let boom = req(r#"{"id":"boom","bits":2,"faults":{"panic_extraction":true}}"#);
        let resp = engine.run_request(&boom);
        assert!(!resp.ok);
        assert_eq!(resp.attempts, 3, "panic retries its full bounded budget");
        match &resp.error {
            Some(EngineError::RequestPanicked { message }) => {
                assert!(message.contains("injected extraction panic"), "{message}");
            }
            other => panic!("expected RequestPanicked, got {other:?}"),
        }
        // The engine survives: the next request runs normally.
        let ok = engine.run_request(&req(
            r#"{"id":"next","bits":2,"kind":"peec","t_stop":5e-11}"#,
        ));
        assert!(ok.ok, "{:?}", ok.error);
    }

    #[test]
    fn budget_rejection_degrades_full_kinds() {
        let mut engine = Engine::new(EngineConfig {
            budget: BuildBudget {
                max_matrix_dim: Some(4),
                ..BuildBudget::default()
            },
            degrade_window: 2,
            ..EngineConfig::default()
        });
        // 8 filaments > max dim 4, full inversion kind → degraded wVPEC.
        let r = req(r#"{"id":"big","bits":8,"kind":"vpec-full","t_stop":5e-11}"#);
        let resp = engine.run_request(&r);
        assert!(resp.ok, "{:?}", resp.error);
        assert!(resp.degraded);
        assert_eq!(resp.degraded_reason.as_deref(), Some("budget"));
        assert_eq!(resp.ran.as_deref(), Some("gwVPEC(b=2)"));
        assert_eq!(resp.requested, "full VPEC");
        assert!(resp.notes.iter().any(|n| n.contains("degraded to")));
    }

    #[test]
    fn budget_rejection_is_hard_for_windowed_kinds() {
        let mut engine = Engine::new(EngineConfig {
            budget: BuildBudget {
                max_filaments: Some(4),
                ..BuildBudget::default()
            },
            ..EngineConfig::default()
        });
        // Filament budget is a hard rejection even with degrade on.
        let r = req(r#"{"id":"big","bits":8,"kind":"wvpec-g:2"}"#);
        let resp = engine.run_request(&r);
        assert!(!resp.ok);
        assert!(matches!(
            resp.error,
            Some(EngineError::BudgetExceeded {
                what: "filament count",
                ..
            })
        ));
    }

    #[test]
    fn no_degrade_flag_fails_hard() {
        let mut engine = Engine::new(EngineConfig {
            budget: BuildBudget {
                max_matrix_dim: Some(2),
                ..BuildBudget::default()
            },
            degrade: false,
            ..EngineConfig::default()
        });
        let r = req(r#"{"id":"x","bits":4,"kind":"vpec-full"}"#);
        let resp = engine.run_request(&r);
        assert!(!resp.ok);
        assert!(matches!(
            resp.error,
            Some(EngineError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn stalled_request_hits_deadline_and_degrades() {
        let mut engine = Engine::new(EngineConfig {
            deadline_ms: Some(60),
            degrade_window: 2,
            ..EngineConfig::default()
        });
        // The stall burns the deadline before the transient starts; the
        // cancel token aborts the step loop; the fallback (faults
        // stripped) answers.
        let r = req(
            r#"{"id":"slow","bits":3,"kind":"vpec-full","t_stop":1e-10,"faults":{"stall_ms":500}}"#,
        );
        let t0 = Instant::now();
        let resp = engine.run_request(&r);
        assert!(resp.ok, "{:?}", resp.error);
        assert!(resp.degraded);
        assert_eq!(resp.degraded_reason.as_deref(), Some("deadline"));
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "deadline must bound the request"
        );
    }

    #[test]
    fn stream_isolates_bad_lines() {
        let mut engine = Engine::new(EngineConfig {
            retries: 0,
            ..EngineConfig::default()
        });
        let input = "\n# comment\n{\"id\":\"good\",\"bits\":2,\"kind\":\"peec\",\"t_stop\":5e-11}\nnot json\n{\"id\":\"bad-kind\",\"kind\":\"nope\"}\n";
        let mut out = Vec::new();
        let summary = engine
            .run_stream(std::io::Cursor::new(input), &mut out)
            .unwrap();
        assert_eq!(summary.total, 3);
        assert_eq!(summary.ok, 1);
        assert_eq!(summary.failed, 2);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let v = vpec_trace::json::parse(line).expect("every response line is valid JSON");
            assert!(v.get("status").is_some());
        }
        assert!(lines[1].contains("bad-request"));
    }
}
