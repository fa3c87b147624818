//! High-level experiment harness: build any model variant over a layout,
//! time the build, simulate, and collect the statistics the paper reports
//! (build time, simulation time, sparse factor, netlist size, waveforms).

use crate::lower::build_vpec;
use crate::peec::{build_peec, ModelCircuit};
use crate::repair::{repair_passivity, RepairReport, DEFAULT_MARGIN};
use crate::truncation::{geometric_window, truncate_numerical};
use crate::windowed::{windowed_geometric, windowed_numerical};
use crate::{adjacent_pairs, CoreError, DriveConfig, VpecModel};
use std::time::Instant;
use vpec_circuit::ac::{run_ac, AcSpec};
use vpec_circuit::spice_in::parse_value;
use vpec_circuit::spice_out::netlist_size;
use vpec_circuit::transient::{
    prepare_transient, run_transient, run_transient_with_report,
    run_transient_with_report_prefactored,
};
use vpec_circuit::{
    AcResult, SolveAudit, TransientDiagnostics, TransientFactor, TransientResult, TransientSpec,
};
use vpec_extract::{extract, ExtractionConfig, Parasitics};
use vpec_geometry::Layout;
use vpec_numerics::CancelToken;

/// Which interconnect model to build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelKind {
    /// Full PEEC (dense RLCM) — the accuracy and runtime baseline.
    Peec,
    /// Full VPEC via complete inversion.
    VpecFull,
    /// Localized VPEC (adjacent couplings of the full model) — the
    /// inaccurate baseline of Fig. 2.
    VpecLocalized,
    /// Geometrically truncated VPEC with window `(nw, nl)`.
    TVpecGeometric {
        /// Width-direction window (bits).
        nw: usize,
        /// Length-direction window (segments).
        nl: usize,
    },
    /// Numerically truncated VPEC with per-row coupling-strength threshold.
    TVpecNumerical {
        /// Minimum kept `|Ĝᵢⱼ|/Ĝᵢᵢ`.
        threshold: f64,
    },
    /// Geometrically windowed VPEC with uniform window size `b`.
    WVpecGeometric {
        /// Coupling-window size.
        b: usize,
    },
    /// Numerically windowed VPEC with `|Lₘⱼ|/Lₘₘ` threshold.
    WVpecNumerical {
        /// Minimum coupling strength that joins a window.
        threshold: f64,
    },
    /// Shift-truncation baseline (Krauter–Pileggi shell model): PEEC with
    /// the partial-inductance matrix sparsified by a return shell of
    /// radius `r0` (meters). One of the prior methods the paper's intro
    /// critiques.
    ShiftTruncated {
        /// Shell radius in meters.
        r0: f64,
    },
}

impl ModelKind {
    /// Short human-readable label (used in experiment tables).
    pub fn label(&self) -> String {
        match self {
            ModelKind::Peec => "PEEC".to_string(),
            ModelKind::VpecFull => "full VPEC".to_string(),
            ModelKind::VpecLocalized => "localized VPEC".to_string(),
            ModelKind::TVpecGeometric { nw, nl } => format!("gtVPEC({nw},{nl})"),
            ModelKind::TVpecNumerical { threshold } => format!("ntVPEC({threshold:.1e})"),
            ModelKind::WVpecGeometric { b } => format!("gwVPEC(b={b})"),
            ModelKind::WVpecNumerical { threshold } => format!("nwVPEC({threshold:.1e})"),
            ModelKind::ShiftTruncated { r0 } => format!("shift(r0={:.0}um)", r0 * 1e6),
        }
    }

    /// Parses a model-kind token (the CLI's `--kind` grammar and the batch
    /// engine's `"kind"` request field): `peec`, `vpec-full`/`full`,
    /// `vpec-localized`/`localized`, `tvpec-g:NW[,NL]`, `tvpec-n:THRESH`,
    /// `wvpec-g:B`, `wvpec-n:THRESH`, `shift:R0`. Numeric parameters accept
    /// SPICE suffixes (`10u`, `1.5e-4`).
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown kinds or malformed parameters.
    pub fn parse(tok: &str) -> Result<ModelKind, String> {
        let (name, param) = match tok.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (tok, None),
        };
        let num = |p: Option<&str>, what: &str| -> Result<f64, String> {
            let p = p.ok_or_else(|| format!("{name} needs a parameter ({what})"))?;
            parse_value(p)
        };
        match name {
            "peec" => Ok(ModelKind::Peec),
            "vpec-full" | "full" => Ok(ModelKind::VpecFull),
            "vpec-localized" | "localized" => Ok(ModelKind::VpecLocalized),
            "tvpec-g" => {
                let p =
                    param.ok_or_else(|| "tvpec-g needs a window, e.g. tvpec-g:8,2".to_string())?;
                let mut it = p.split(',');
                let nw = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or_else(|| "tvpec-g window must be integers".to_string())?;
                let nl = match it.next() {
                    Some(s) => s
                        .parse::<usize>()
                        .map_err(|_| "tvpec-g window must be integers".to_string())?,
                    None => 1,
                };
                Ok(ModelKind::TVpecGeometric { nw, nl })
            }
            "tvpec-n" => Ok(ModelKind::TVpecNumerical {
                threshold: num(param, "threshold")?,
            }),
            "wvpec-g" => {
                let p = param.ok_or_else(|| "wvpec-g needs a window size".to_string())?;
                let b = p
                    .parse::<usize>()
                    .map_err(|_| "wvpec-g window must be an integer".to_string())?;
                Ok(ModelKind::WVpecGeometric { b })
            }
            "wvpec-n" => Ok(ModelKind::WVpecNumerical {
                threshold: num(param, "threshold")?,
            }),
            "shift" => Ok(ModelKind::ShiftTruncated {
                r0: num(param, "shell radius in meters")?,
            }),
            other => Err(format!("unknown model kind: {other} (see `vpec help`)")),
        }
    }

    /// `true` for kinds whose construction inverts the full N×N inductance
    /// matrix (O(N³)): full/localized VPEC and both tVPEC truncations. The
    /// windowed (wVPEC) kinds invert b×b blocks only, and the PEEC family
    /// never inverts — those stay cheap at any N, which is exactly why the
    /// batch engine can degrade an over-budget full build to wVPEC.
    pub fn needs_full_inversion(&self) -> bool {
        matches!(
            self,
            ModelKind::VpecFull
                | ModelKind::VpecLocalized
                | ModelKind::TVpecGeometric { .. }
                | ModelKind::TVpecNumerical { .. }
        )
    }

    /// `true` for the sparsified VPEC kinds (tVPEC and wVPEC): their
    /// builds run through passivity repair, since dropping couplings can
    /// leave Ĝ outside Theorem 2's domain.
    pub fn is_sparsified(&self) -> bool {
        matches!(
            self,
            ModelKind::TVpecGeometric { .. }
                | ModelKind::TVpecNumerical { .. }
                | ModelKind::WVpecGeometric { .. }
                | ModelKind::WVpecNumerical { .. }
        )
    }
}

/// Admission-control budgets for one model build, checked by
/// [`Experiment::check_budget`] *before* any O(N²)/O(N³) work starts.
/// `None` fields are unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildBudget {
    /// Maximum filament count in the layout (caps extraction and every
    /// downstream matrix).
    pub max_filaments: Option<usize>,
    /// Maximum dense matrix dimension allowed through a **full inversion**
    /// ([`ModelKind::needs_full_inversion`]). Windowed and PEEC kinds are
    /// exempt — exceeding this on a full-inversion kind is the engine's
    /// "degradable" overrun: the request can be re-run as wVPEC.
    pub max_matrix_dim: Option<usize>,
    /// Maximum transient step count (`t_stop / dt`).
    pub max_steps: Option<usize>,
}

impl BuildBudget {
    /// A budget with every limit disabled.
    pub fn unlimited() -> Self {
        BuildBudget::default()
    }

    /// `true` when no limit is set.
    pub fn is_unlimited(&self) -> bool {
        *self == BuildBudget::default()
    }

    /// Checks a request shape (`n_filaments` geometry, model `kind`,
    /// planned transient `steps`) against this budget. Callable before
    /// extraction — the batch engine gates on the raw layout so an
    /// over-budget request never pays the O(N²) extraction either.
    ///
    /// # Errors
    ///
    /// See [`Experiment::check_budget`].
    pub fn check(
        &self,
        n_filaments: usize,
        kind: ModelKind,
        steps: Option<usize>,
    ) -> Result<(), CoreError> {
        if let Some(limit) = self.max_filaments {
            if n_filaments > limit {
                return Err(CoreError::BudgetExceeded {
                    what: "filament count",
                    limit,
                    actual: n_filaments,
                });
            }
        }
        if let Some(limit) = self.max_matrix_dim {
            if kind.needs_full_inversion() && n_filaments > limit {
                return Err(CoreError::BudgetExceeded {
                    what: "matrix dimension",
                    limit,
                    actual: n_filaments,
                });
            }
        }
        if let (Some(limit), Some(actual)) = (self.max_steps, steps) {
            if actual > limit {
                return Err(CoreError::BudgetExceeded {
                    what: "step count",
                    limit,
                    actual,
                });
            }
        }
        Ok(())
    }
}

/// A prepared experiment: layout + extracted parasitics + drive.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The layout under test.
    pub layout: Layout,
    /// Extracted parasitics.
    pub parasitics: Parasitics,
    /// Driver/receiver configuration.
    pub drive: DriveConfig,
}

impl Experiment {
    /// Extracts parasitics for `layout` and prepares the experiment.
    pub fn new(layout: Layout, config: &ExtractionConfig, drive: DriveConfig) -> Self {
        let parasitics = extract(&layout, config);
        Experiment {
            layout,
            parasitics,
            drive,
        }
    }

    /// Builds the VPEC model for a (VPEC-family) model kind, timing the
    /// model construction — this is the "extraction time" of Fig. 4.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when called with
    /// [`ModelKind::Peec`], or any model-construction failure.
    pub fn vpec_model(&self, kind: ModelKind) -> Result<(VpecModel, f64), CoreError> {
        self.vpec_model_cancel(kind, &CancelToken::none())
    }

    /// [`Experiment::vpec_model`] with cooperative cancellation threaded
    /// through the full-inversion hot path (the O(N³) part of every
    /// full/localized/truncated build).
    ///
    /// # Errors
    ///
    /// As [`Experiment::vpec_model`]; a fired token surfaces as
    /// [`CoreError::BadInductanceMatrix`] wrapping a cancellation.
    pub fn vpec_model_cancel(
        &self,
        kind: ModelKind,
        cancel: &CancelToken,
    ) -> Result<(VpecModel, f64), CoreError> {
        let _sp = vpec_trace::span!("model.build", "kind" => kind.label());
        let t0 = Instant::now();
        let model = match kind {
            ModelKind::Peec | ModelKind::ShiftTruncated { .. } => {
                return Err(CoreError::InvalidParameter {
                    reason: "PEEC-family kinds are not VPEC models",
                })
            }
            ModelKind::VpecFull => VpecModel::full_cancel(&self.parasitics, |_, _| true, cancel)?,
            ModelKind::VpecLocalized => {
                VpecModel::full_cancel(&self.parasitics, adjacent_pairs(&self.layout), cancel)?
            }
            ModelKind::TVpecGeometric { nw, nl } => {
                let window = geometric_window(&self.layout, self.parasitics.len(), nw, nl)?;
                VpecModel::full_cancel(&self.parasitics, window, cancel)?
            }
            ModelKind::TVpecNumerical { threshold } => {
                let full = VpecModel::full_cancel(&self.parasitics, |_, _| true, cancel)?;
                truncate_numerical(&full, threshold)?
            }
            ModelKind::WVpecGeometric { b } => windowed_geometric(&self.parasitics, b)?,
            ModelKind::WVpecNumerical { threshold } => {
                windowed_numerical(&self.parasitics, threshold)?
            }
        };
        Ok((model, t0.elapsed().as_secs_f64()))
    }

    /// Checks one request against its admission budget **before** any
    /// expensive work. `steps` is the planned transient step count
    /// (`None` for AC-only requests).
    ///
    /// # Errors
    ///
    /// [`CoreError::BudgetExceeded`] naming the first violated limit:
    /// `"filament count"` and `"step count"` overruns are hard rejections;
    /// a `"matrix dimension"` overrun only fires for full-inversion kinds
    /// ([`ModelKind::needs_full_inversion`]) and is the case the batch
    /// engine degrades to a windowed (wVPEC) build instead of failing.
    pub fn check_budget(
        &self,
        kind: ModelKind,
        steps: Option<usize>,
        budget: &BuildBudget,
    ) -> Result<(), CoreError> {
        budget.check(self.layout.filaments().len(), kind, steps)
    }

    /// Builds the netlist for any model kind, with statistics.
    ///
    /// Sparsified VPEC kinds (tVPEC/wVPEC) run through a passivity check:
    /// a model that lost strict diagonal dominance is repaired by diagonal
    /// compensation ([`crate::repair`]) before lowering, and the repair
    /// magnitude is recorded on the returned [`BuiltModel`].
    ///
    /// # Errors
    ///
    /// Any model- or netlist-construction failure.
    pub fn build(&self, kind: ModelKind) -> Result<BuiltModel, CoreError> {
        self.build_cancel(kind, &CancelToken::none())
    }

    /// [`Experiment::build`] with cooperative cancellation threaded into
    /// the model-construction hot path. The netlist lowering itself is
    /// O(nnz) and not polled.
    ///
    /// # Errors
    ///
    /// As [`Experiment::build`]; a fired token aborts the build with a
    /// [`CoreError::BadInductanceMatrix`]-wrapped cancellation.
    pub fn build_cancel(
        &self,
        kind: ModelKind,
        cancel: &CancelToken,
    ) -> Result<BuiltModel, CoreError> {
        let trace_mark = vpec_trace::mark();
        let _sp = vpec_trace::span!("build", "kind" => kind.label());
        let t0 = Instant::now();
        // Extraction-boundary audit: gated, no-op when auditing is off.
        crate::invariants::enforce_parasitics(&self.parasitics)?;
        let mut repair: Option<RepairReport> = None;
        let (circuit, sparse_factor) = match kind {
            ModelKind::Peec => (
                build_peec(&self.layout, &self.parasitics, &self.drive)?,
                None,
            ),
            ModelKind::ShiftTruncated { r0 } => {
                let sparsified =
                    crate::baselines::shift_truncate(&self.parasitics, &self.layout, r0)?;
                let full_nnz = crate::baselines::inductance_nnz(&self.parasitics);
                let nnz = crate::baselines::inductance_nnz(&sparsified);
                (
                    build_peec(&self.layout, &sparsified, &self.drive)?,
                    Some(nnz as f64 / full_nnz as f64),
                )
            }
            _ => {
                let (mut model, _) = self.vpec_model_cancel(kind, cancel)?;
                if kind.is_sparsified() {
                    let (repaired, report) = repair_passivity(&model, DEFAULT_MARGIN);
                    model = repaired;
                    repair = Some(report);
                }
                // Model-boundary audit AFTER repair: a freshly sparsified
                // model may legitimately be non-SPD until repair restores
                // dominance; what reaches the netlist must be passive.
                crate::invariants::enforce_model(&format!("{} Ĝ", kind.label()), &model)?;
                let sf = model.sparse_factor();
                (
                    build_vpec(&self.layout, &self.parasitics, &model, &self.drive)?,
                    Some(sf),
                )
            }
        };
        let build_seconds = t0.elapsed().as_secs_f64();
        Ok(BuiltModel {
            kind,
            model: circuit,
            build_seconds,
            sparse_factor,
            repair,
            trace_mark,
        })
    }
}

/// Everything the pipeline wants to tell the user about how a solve went:
/// whether the model needed passivity repair and how the guarded transient
/// behaved (factorization fallbacks, checkpointed retries).
#[derive(Debug, Clone, Default)]
pub struct SolveReport {
    /// Passivity-repair record (`None` for kinds that never need repair:
    /// PEEC, full/localized VPEC, shift-truncated).
    pub repair: Option<RepairReport>,
    /// Guarded-transient diagnostics (`None` until a transient ran),
    /// including the solve-time audit telemetry.
    pub transient: Option<TransientDiagnostics>,
}

impl SolveReport {
    /// `true` if anything beyond the happy path happened.
    pub fn degraded(&self) -> bool {
        self.repair.as_ref().is_some_and(|r| r.repaired())
            || self.transient.as_ref().is_some_and(|t| t.degraded())
    }

    /// Human-readable report lines (empty for a clean, no-repair run).
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(r) = &self.repair {
            if r.repaired() {
                out.push(format!("passivity repair: {}", r.summary()));
            }
        }
        if let Some(t) = &self.transient {
            if t.factor.used_fallback() {
                out.push(format!("factorization: {}", t.factor.summary()));
            }
            if t.retries > 0 {
                out.push(format!(
                    "transient recovery: {} retr{}, final dt {:.3e} s",
                    t.retries,
                    if t.retries == 1 { "y" } else { "ies" },
                    t.final_dt
                ));
            }
            for v in t.audit.iter().flat_map(|a| &a.violations) {
                out.push(format!("audit violation: {v}"));
            }
        }
        out
    }

    /// Routine audit telemetry lines (residual magnitude, backend
    /// cross-check) — informational, not a degradation signal, so kept
    /// apart from [`SolveReport::lines`].
    pub fn audit_lines(&self) -> Vec<String> {
        self.transient
            .as_ref()
            .and_then(|t| t.audit.as_ref())
            .map(SolveAudit::lines)
            .unwrap_or_default()
    }
}

/// A built model netlist with its construction statistics.
#[derive(Debug, Clone)]
pub struct BuiltModel {
    /// Which model this is.
    pub kind: ModelKind,
    /// The netlist and probe nodes.
    pub model: ModelCircuit,
    /// Seconds spent building (model construction + netlist lowering).
    pub build_seconds: f64,
    /// Sparse factor for VPEC models (`None` for PEEC).
    pub sparse_factor: Option<f64>,
    /// Passivity-repair record for sparsified VPEC kinds (`None` when the
    /// kind never needs repair).
    pub repair: Option<RepairReport>,
    /// Trace position taken when the build started: pass it to
    /// [`vpec_trace::phase_totals_since`] after a solve for the build +
    /// solve phase breakdown.
    pub trace_mark: vpec_trace::Mark,
}

impl BuiltModel {
    /// Runs a transient analysis, returning the result and wall-clock
    /// seconds (the paper's "simulation time").
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn run_transient(&self, spec: &TransientSpec) -> Result<(TransientResult, f64), CoreError> {
        let t0 = Instant::now();
        let res = run_transient(&self.model.circuit, spec)?;
        Ok((res, t0.elapsed().as_secs_f64()))
    }

    /// Runs a transient analysis and aggregates a [`SolveReport`]: the
    /// build-time passivity repair plus the guarded integrator's
    /// diagnostics.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn run_transient_with_report(
        &self,
        spec: &TransientSpec,
    ) -> Result<(TransientResult, SolveReport, f64), CoreError> {
        let t0 = Instant::now();
        let (res, diag) = run_transient_with_report(&self.model.circuit, spec)?;
        let solve_seconds = t0.elapsed().as_secs_f64();
        Ok((res, self.report(diag), solve_seconds))
    }

    /// Factors this model's transient MNA system ahead of time — the
    /// expensive half of factor-once/solve-many. The handle feeds
    /// [`BuiltModel::run_transient_with_report_prefactored`] and the
    /// engine's factor cache.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures from assembly, factorization and the
    /// DC initial-condition solve.
    pub fn prepare_transient(&self, spec: &TransientSpec) -> Result<TransientFactor, CoreError> {
        Ok(prepare_transient(&self.model.circuit, spec)?)
    }

    /// [`BuiltModel::run_transient_with_report`] against a factorization
    /// prepared by [`BuiltModel::prepare_transient`] — skips the factor
    /// and DC phases after an exact (and loud-on-mismatch) validation.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures, including the
    /// validation failure when `spec` or the circuit doesn't match what
    /// the factor was prepared for.
    pub fn run_transient_with_report_prefactored(
        &self,
        spec: &TransientSpec,
        factor: &TransientFactor,
    ) -> Result<(TransientResult, SolveReport, f64), CoreError> {
        let t0 = Instant::now();
        let (res, diag) = run_transient_with_report_prefactored(&self.model.circuit, spec, factor)?;
        let solve_seconds = t0.elapsed().as_secs_f64();
        Ok((res, self.report(diag), solve_seconds))
    }

    /// The [`SolveReport`] of this model's repair and a transient run's
    /// diagnostics.
    fn report(&self, diag: TransientDiagnostics) -> SolveReport {
        SolveReport {
            repair: self.repair.clone(),
            transient: Some(diag),
        }
    }

    /// Runs an AC sweep, returning the result and wall-clock seconds.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn run_ac(&self, spec: &AcSpec) -> Result<(AcResult, f64), CoreError> {
        let t0 = Instant::now();
        let res = run_ac(&self.model.circuit, spec)?;
        Ok((res, t0.elapsed().as_secs_f64()))
    }

    /// Far-end voltage waveform of net `k` from a transient result.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for a net index out of range;
    /// propagates [`vpec_circuit::CircuitError::NodeNotRecorded`] when the
    /// far node was excluded from the probe list.
    pub fn far_voltage(&self, res: &TransientResult, k: usize) -> Result<Vec<f64>, CoreError> {
        let node = self
            .model
            .far_nodes
            .get(k)
            .copied()
            .ok_or(CoreError::InvalidParameter {
                reason: "net index out of range for this model",
            })?;
        Ok(res.voltage(node)?)
    }

    /// SPICE netlist size in bytes — Fig. 8(b)'s model-size metric.
    pub fn netlist_bytes(&self) -> usize {
        netlist_size(&self.model.circuit, &self.kind.label())
    }

    /// Total circuit element count.
    pub fn element_count(&self) -> usize {
        self.model.circuit.element_count()
    }
}

/// The paper's default transient window for bus crosstalk: 0.5 ns at
/// 0.5 ps steps (the 10 ps edge is well resolved and victims settle).
pub fn paper_transient_spec() -> TransientSpec {
    TransientSpec::new(0.5e-9, 0.5e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpec_geometry::BusSpec;

    fn experiment(bits: usize) -> Experiment {
        Experiment::new(
            BusSpec::new(bits).build(),
            &ExtractionConfig::paper_default(),
            DriveConfig::paper_default(),
        )
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            ModelKind::Peec,
            ModelKind::VpecFull,
            ModelKind::VpecLocalized,
            ModelKind::TVpecGeometric { nw: 8, nl: 2 },
            ModelKind::TVpecNumerical { threshold: 1e-3 },
            ModelKind::WVpecGeometric { b: 8 },
            ModelKind::WVpecNumerical { threshold: 1.5e-4 },
        ];
        let labels: std::collections::BTreeSet<String> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn build_and_run_all_kinds() {
        let exp = experiment(4);
        let spec = TransientSpec::new(0.1e-9, 1e-12);
        for kind in [
            ModelKind::Peec,
            ModelKind::VpecFull,
            ModelKind::VpecLocalized,
            ModelKind::TVpecGeometric { nw: 2, nl: 1 },
            ModelKind::TVpecNumerical { threshold: 0.05 },
            ModelKind::WVpecGeometric { b: 2 },
            ModelKind::WVpecNumerical { threshold: 1e-2 },
        ] {
            let built = exp.build(kind).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert!(built.build_seconds >= 0.0);
            assert!(built.element_count() > 0);
            assert!(built.netlist_bytes() > 0);
            let (res, secs) = built.run_transient(&spec).unwrap();
            assert!(secs >= 0.0);
            let v = built.far_voltage(&res, 0).unwrap();
            assert!(
                v.iter().all(|x| x.is_finite()),
                "{kind:?} produced non-finite output"
            );
            if kind == ModelKind::Peec {
                assert!(built.sparse_factor.is_none());
            } else {
                assert!(built.sparse_factor.is_some());
            }
        }
    }

    #[test]
    fn vpec_model_rejects_peec_kind() {
        let exp = experiment(2);
        assert!(exp.vpec_model(ModelKind::Peec).is_err());
    }

    #[test]
    fn parse_matches_cli_grammar() {
        assert_eq!(ModelKind::parse("peec").unwrap(), ModelKind::Peec);
        assert_eq!(ModelKind::parse("full").unwrap(), ModelKind::VpecFull);
        assert_eq!(ModelKind::parse("vpec-full").unwrap(), ModelKind::VpecFull);
        assert_eq!(
            ModelKind::parse("localized").unwrap(),
            ModelKind::VpecLocalized
        );
        assert_eq!(
            ModelKind::parse("tvpec-g:8,2").unwrap(),
            ModelKind::TVpecGeometric { nw: 8, nl: 2 }
        );
        assert_eq!(
            ModelKind::parse("tvpec-g:16").unwrap(),
            ModelKind::TVpecGeometric { nw: 16, nl: 1 }
        );
        assert!(matches!(
            ModelKind::parse("tvpec-n:0.01").unwrap(),
            ModelKind::TVpecNumerical { .. }
        ));
        assert_eq!(
            ModelKind::parse("wvpec-g:8").unwrap(),
            ModelKind::WVpecGeometric { b: 8 }
        );
        assert!(matches!(
            ModelKind::parse("wvpec-n:1.5e-4").unwrap(),
            ModelKind::WVpecNumerical { .. }
        ));
        assert!(matches!(
            ModelKind::parse("shift:10u").unwrap(),
            ModelKind::ShiftTruncated { .. }
        ));
        assert!(ModelKind::parse("nope").is_err());
        assert!(ModelKind::parse("tvpec-g").is_err());
        assert!(ModelKind::parse("wvpec-g:x").is_err());
        assert!(ModelKind::parse("tvpec-n").is_err());
    }

    #[test]
    fn full_inversion_kinds_flagged() {
        assert!(ModelKind::VpecFull.needs_full_inversion());
        assert!(ModelKind::TVpecGeometric { nw: 2, nl: 1 }.needs_full_inversion());
        assert!(ModelKind::TVpecNumerical { threshold: 0.1 }.needs_full_inversion());
        assert!(!ModelKind::WVpecGeometric { b: 2 }.needs_full_inversion());
        assert!(!ModelKind::Peec.needs_full_inversion());
        assert!(!ModelKind::ShiftTruncated { r0: 1e-5 }.needs_full_inversion());
    }

    #[test]
    fn budget_checks_gate_requests() {
        let exp = experiment(4); // 4 filaments
        let unlimited = BuildBudget::unlimited();
        assert!(unlimited.is_unlimited());
        assert!(exp
            .check_budget(ModelKind::VpecFull, Some(1000), &unlimited)
            .is_ok());

        let tight = BuildBudget {
            max_filaments: Some(3),
            ..BuildBudget::default()
        };
        match exp.check_budget(ModelKind::Peec, None, &tight) {
            Err(CoreError::BudgetExceeded {
                what,
                limit,
                actual,
            }) => {
                assert_eq!(what, "filament count");
                assert_eq!((limit, actual), (3, 4));
            }
            other => panic!("expected filament budget rejection, got {other:?}"),
        }

        // Matrix-dim budget bites full-inversion kinds only.
        let dim = BuildBudget {
            max_matrix_dim: Some(3),
            ..BuildBudget::default()
        };
        assert!(matches!(
            exp.check_budget(ModelKind::VpecFull, None, &dim),
            Err(CoreError::BudgetExceeded {
                what: "matrix dimension",
                ..
            })
        ));
        assert!(exp
            .check_budget(ModelKind::WVpecGeometric { b: 2 }, None, &dim)
            .is_ok());
        assert!(exp.check_budget(ModelKind::Peec, None, &dim).is_ok());

        let steps = BuildBudget {
            max_steps: Some(100),
            ..BuildBudget::default()
        };
        assert!(matches!(
            exp.check_budget(ModelKind::VpecFull, Some(101), &steps),
            Err(CoreError::BudgetExceeded {
                what: "step count",
                ..
            })
        ));
        assert!(exp
            .check_budget(ModelKind::VpecFull, Some(100), &steps)
            .is_ok());
        assert!(exp.check_budget(ModelKind::VpecFull, None, &steps).is_ok());
    }

    #[test]
    fn cancelled_token_aborts_model_build() {
        let exp = experiment(4);
        let token = vpec_numerics::CancelToken::new();
        token.cancel();
        let err = exp.build_cancel(ModelKind::VpecFull, &token).unwrap_err();
        assert!(
            err.to_string().contains("cancelled"),
            "expected a cancellation, got: {err}"
        );
        // Windowed builds never hit the polled inversion path — they
        // complete even with a fired token (the engine cancels those via
        // the transient/AC loop instead).
        assert!(exp
            .build_cancel(ModelKind::WVpecGeometric { b: 2 }, &token)
            .is_ok());
        // A disarmed token builds identically to the plain path.
        let plain = exp.build(ModelKind::VpecFull).unwrap();
        let with_none = exp
            .build_cancel(ModelKind::VpecFull, &vpec_numerics::CancelToken::none())
            .unwrap();
        assert_eq!(plain.element_count(), with_none.element_count());
    }

    #[test]
    fn sparse_models_have_smaller_factor() {
        let exp = experiment(12);
        let full = exp.build(ModelKind::VpecFull).unwrap();
        let sparse = exp.build(ModelKind::WVpecGeometric { b: 4 }).unwrap();
        assert!(sparse.sparse_factor.unwrap() < full.sparse_factor.unwrap());
        assert!((full.sparse_factor.unwrap() - 1.0).abs() < 1e-12);
        assert!(sparse.element_count() < full.element_count());
    }

    #[test]
    fn ac_run_works() {
        let exp = experiment(2);
        let built = exp.build(ModelKind::VpecFull).unwrap();
        let (res, _) = built.run_ac(&AcSpec::points(vec![1e6, 1e9])).unwrap();
        let mag = res.magnitude(built.model.far_nodes[0]).unwrap();
        assert_eq!(mag.len(), 2);
        assert!(mag.iter().all(|m| m.is_finite()));
    }

    #[test]
    fn solve_report_is_clean_for_healthy_models() {
        let exp = experiment(4);
        let built = exp.build(ModelKind::WVpecGeometric { b: 2 }).unwrap();
        // Windowed models carry a repair record (usually a no-op: the max
        // merge heuristic preserves dominance).
        assert!(built.repair.is_some());
        let (_, report, _) = built
            .run_transient_with_report(&TransientSpec::new(0.1e-9, 1e-12))
            .unwrap();
        assert!(report.transient.is_some());
        assert!(!report.degraded(), "healthy run must not be degraded");
        assert!(report.lines().is_empty());
    }

    #[test]
    fn far_voltage_out_of_range_is_typed_error() {
        let exp = experiment(2);
        let built = exp.build(ModelKind::VpecFull).unwrap();
        let (res, _) = built
            .run_transient(&TransientSpec::new(0.05e-9, 1e-12))
            .unwrap();
        assert!(built.far_voltage(&res, 99).is_err());
    }
}
