//! Fixed-step transient analysis with companion models and **guarded
//! stepping**.
//!
//! The circuits produced by the PEEC/VPEC builders are linear, so the MNA
//! matrix is constant across the run: it is factored **once** and each time
//! step costs one RHS rebuild plus one back-substitution. This is exactly
//! the regime where the paper's sparsification pays off — the factorization
//! and each back-substitution scale with the factor's nonzero count.
//!
//! Integration methods: Backward Euler (robust, first order) and the
//! trapezoidal rule (second order, SPICE's default — used for all paper
//! reproductions).
//!
//! Robustness: every solved step is checked for non-finite values *before*
//! element state is mutated. A NaN/∞ solution triggers a checkpointed
//! retry — the step size halves (bounded number of times), the system is
//! re-assembled and re-factored, and the step is re-taken from the last
//! accepted state. The factorization itself runs through the bounded
//! fallback chain in [`crate::diagnostics`].

use crate::dc::solve_dc_report;
use crate::diagnostics::{FactorDiagnostics, FaultInjection, SolveAudit, TransientDiagnostics};
use vpec_numerics::cancel::CancelToken;
use crate::elements::Element;
use crate::error::CircuitError;
use crate::mna::{add_source_rhs, assemble, MnaLayout};
use crate::netlist::{Circuit, NodeId};
use crate::result::{ResultMapping, TransientResult};
use crate::solver::Factored;
use std::collections::HashMap;
use vpec_numerics::audit;

/// Time-integration method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// First-order implicit Euler; strongly damped.
    BackwardEuler,
    /// Second-order trapezoidal rule (SPICE default).
    #[default]
    Trapezoidal,
}

/// Most halvings of `dt` the non-finite recovery will attempt before
/// giving up with [`CircuitError::NonFiniteSolution`].
const MAX_HALVINGS: usize = 6;

/// Relative-residual bound enforced by the solve audit. A backward-stable
/// factorization of the well-scaled MNA systems built here lands around
/// `n·ε`; exceeding this by orders of magnitude means the factor does not
/// match the assembled system.
const AUDIT_RESIDUAL_TOL: f64 = 1e-8;

/// Bound on the relative disagreement between the production factorization
/// and the independent dense-LU cross-check (forward errors of two
/// backward-stable solvers differ by at most ~cond·ε each).
const AUDIT_BACKEND_TOL: f64 = 1e-6;

/// Largest MNA dimension for which the Full-level audit pays for an
/// independent dense-LU re-solve of the final step.
const AUDIT_BACKEND_DIM_CAP: usize = 512;

/// Scans assembled MNA triplets for non-finite stamps (audit layer).
fn audit_stamps(a: &vpec_numerics::CooMatrix<f64>) -> Result<(), CircuitError> {
    for &(i, j, v) in a.entries() {
        if !v.is_finite() {
            return Err(CircuitError::AuditViolation {
                stage: "mna-stamp",
                detail: format!("transient MNA stamp at ({i}, {j}) is {v}"),
            });
        }
    }
    Ok(())
}

/// Transient analysis specification.
#[derive(Debug, Clone)]
pub struct TransientSpec {
    /// End time, seconds.
    pub t_stop: f64,
    /// Fixed step size, seconds.
    pub dt: f64,
    /// Integration method.
    pub method: Integrator,
    /// If set, record only these node voltages (memory saver for large
    /// circuits); otherwise every MNA unknown is recorded.
    pub probes: Option<Vec<NodeId>>,
    /// Test-only fault injection at pipeline stage boundaries.
    pub faults: FaultInjection,
    /// Cooperative cancellation, polled once per time step. Disarmed by
    /// default; the engine's deadline watchdog arms it.
    pub cancel: CancelToken,
}

impl TransientSpec {
    /// A trapezoidal run to `t_stop` with step `dt`.
    pub fn new(t_stop: f64, dt: f64) -> Self {
        TransientSpec {
            t_stop,
            dt,
            method: Integrator::Trapezoidal,
            probes: None,
            faults: FaultInjection::none(),
            cancel: CancelToken::none(),
        }
    }

    /// Selects the integration method.
    #[must_use]
    pub fn integrator(mut self, m: Integrator) -> Self {
        self.method = m;
        self
    }

    /// Restricts recording to the given nodes.
    #[must_use]
    pub fn probes(mut self, nodes: Vec<NodeId>) -> Self {
        self.probes = Some(nodes);
        self
    }

    /// Arms fault injection (tests and the engine's `"faults"` request
    /// field).
    #[must_use]
    pub fn fault_injection(mut self, f: FaultInjection) -> Self {
        self.faults = f;
        self
    }

    /// Attaches a cancellation token, polled once per time step.
    #[must_use]
    pub fn cancel_token(mut self, t: CancelToken) -> Self {
        self.cancel = t;
        self
    }
}

struct CapState {
    ia: Option<usize>,
    ib: Option<usize>,
    /// Capacitance — `Geq = coef·c` is recomputed from the *current* step
    /// size so a recovery halving keeps the companion model consistent.
    c: f64,
    v_prev: f64,
    i_prev: f64,
}

struct IndState {
    br: usize,
    ia: Option<usize>,
    ib: Option<usize>,
    /// `(branch column, inductance)` couplings including the self term.
    couplings: Vec<(usize, f64)>,
    v_prev: f64,
}

fn coef_for(method: Integrator, dt: f64) -> f64 {
    match method {
        Integrator::BackwardEuler => 1.0 / dt,
        Integrator::Trapezoidal => 2.0 / dt,
    }
}

/// Spec sanity checks shared by every transient entry point.
fn validate_spec(spec: &TransientSpec) -> Result<(), CircuitError> {
    if !spec.t_stop.is_finite() || spec.t_stop <= 0.0 {
        return Err(CircuitError::InvalidSpec {
            reason: "t_stop must be positive and finite",
        });
    }
    if !spec.dt.is_finite() || spec.dt <= 0.0 || spec.dt > spec.t_stop {
        return Err(CircuitError::InvalidSpec {
            reason: "dt must be positive, finite and no larger than t_stop",
        });
    }
    Ok(())
}

/// Source waveform values at `t = 0`, in element order. The MNA triplets
/// don't cover RHS-only waveform changes, so the cached DC operating point
/// in a [`TransientFactor`] is only valid while these stay bit-identical.
fn source_values_at_zero(ckt: &Circuit) -> Vec<f64> {
    ckt.elements()
        .iter()
        .filter_map(|e| match e {
            Element::VSource { wave, .. } | Element::ISource { wave, .. } => {
                Some(wave.value(0.0))
            }
            _ => None,
        })
        .collect()
}

/// A factorization of the transient MNA system prepared ahead of time —
/// the **factor-once/solve-many** handle.
///
/// The circuits produced by the PEEC/VPEC builders are linear, so the
/// companion-model MNA matrix depends only on the circuit stamps, the
/// integration method and the step size. Repeated transient runs of the
/// same geometry (batch scenarios, drive sweeps that only change waveform
/// *timing* parameters the engine re-models anyway, deadline re-runs)
/// therefore re-pay the `O(N³)`-ish factorization for an identical matrix.
/// [`prepare_transient`] factors once; [`run_transient_with_report_prefactored`]
/// re-validates cheaply (`O(nnz)` stamp comparison) and skips straight to
/// the step loop.
///
/// Safety model: the handle snapshots the assembled triplets, the spec
/// parameters that shape the matrix, and the `t = 0` source values backing
/// the cached DC operating point. A prefactored run re-assembles and
/// compares **exactly** — any mismatch is a loud
/// [`CircuitError::InvalidSpec`], never a silently wrong answer.
#[derive(Debug)]
pub struct TransientFactor {
    dim: usize,
    dt: f64,
    method: Integrator,
    /// Assembled companion-model triplets the factor was computed from.
    a: vpec_numerics::CooMatrix<f64>,
    factored: Factored<f64>,
    factor_diag: FactorDiagnostics,
    /// DC operating point (sources at `t = 0`) — the initial condition.
    dc_x: Vec<f64>,
    /// Source values at `t = 0` when the DC point was computed.
    src0: Vec<f64>,
}

impl TransientFactor {
    /// Dimension of the factored MNA system.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Fallback-chain record of the preparation factorization.
    pub fn factor_diagnostics(&self) -> &FactorDiagnostics {
        &self.factor_diag
    }

    /// The assembled companion-model matrix the factor was computed from,
    /// for analyses that want to weigh the factor against another one.
    pub fn matrix(&self) -> &vpec_numerics::CooMatrix<f64> {
        &self.a
    }

    /// Checks that this factorization matches `(ckt, spec)` without
    /// running anything — exactly the validation a prefactored run
    /// performs before reusing the factor. This is the cheap
    /// (assemble + compare, `O(nnz)`) side of factor-once/solve-many.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidSpec`] when the spec or circuit differs
    /// from the one this factor was prepared for.
    pub fn validate(&self, ckt: &Circuit, spec: &TransientSpec) -> Result<(), CircuitError> {
        validate_spec(spec)?;
        let layout = MnaLayout::new(ckt);
        let coef = coef_for(spec.method, spec.dt);
        let a = assemble::<f64>(ckt, &layout, |c| coef * c, |l| coef * l)?;
        self.check(ckt, spec, &layout, &a)
    }

    /// Core comparison against an already-assembled system (shared by
    /// [`TransientFactor::validate`] and the prefactored run, which has
    /// the assembly in hand anyway).
    fn check(
        &self,
        ckt: &Circuit,
        spec: &TransientSpec,
        layout: &MnaLayout,
        a: &vpec_numerics::CooMatrix<f64>,
    ) -> Result<(), CircuitError> {
        if spec.dt.to_bits() != self.dt.to_bits() || spec.method != self.method {
            return Err(CircuitError::InvalidSpec {
                reason: "prefactored transient: spec differs from the prepared factorization",
            });
        }
        if layout.dim != self.dim || a.entries() != self.a.entries() {
            return Err(CircuitError::InvalidSpec {
                reason: "prefactored transient: circuit differs from the prepared factorization",
            });
        }
        let src0 = source_values_at_zero(ckt);
        if src0.len() != self.src0.len()
            || src0
                .iter()
                .zip(self.src0.iter())
                .any(|(u, v)| u.to_bits() != v.to_bits())
        {
            return Err(CircuitError::InvalidSpec {
                reason: "prefactored transient: source values at t = 0 differ from the \
                         prepared factorization",
            });
        }
        Ok(())
    }
}

/// Factors the transient MNA system (and solves the DC initial condition)
/// without stepping — the expensive half of **factor-once/solve-many**.
///
/// The returned [`TransientFactor`] can back any number of
/// [`run_transient_with_report_prefactored`] calls for the same circuit
/// and spec parameters, each skipping the factorization and DC solve.
///
/// # Errors
///
/// Same conditions as [`run_transient`] up to (and including) the initial
/// factorization and DC solve.
pub fn prepare_transient(
    ckt: &Circuit,
    spec: &TransientSpec,
) -> Result<TransientFactor, CircuitError> {
    validate_spec(spec)?;
    let layout = MnaLayout::new(ckt);
    let _sp = vpec_trace::span!("transient.prepare", "dim" => layout.dim);
    let coef = coef_for(spec.method, spec.dt);
    let a = assemble::<f64>(ckt, &layout, |c| coef * c, |l| coef * l)?;
    if audit::enabled(audit::AuditLevel::Basic) {
        audit_stamps(&a)?;
    }
    let (factored, factor_diag, dc_x) = factor_and_dc(ckt, spec, &a)?;
    let src0 = source_values_at_zero(ckt);
    Ok(TransientFactor {
        dim: layout.dim,
        dt: spec.dt,
        method: spec.method,
        a,
        factored,
        factor_diag,
        dc_x,
        src0,
    })
}

/// The factor and DC phases a cold run and [`prepare_transient`] share:
/// factors the companion matrix `a` (the `transient.factor` span) and
/// solves the DC operating point with sources at `t = 0` (the
/// `transient.dc` span), the initial condition. The fault injection
/// targets the transient factor, never the operating point.
fn factor_and_dc(
    ckt: &Circuit,
    spec: &TransientSpec,
    a: &vpec_numerics::CooMatrix<f64>,
) -> Result<(Factored<f64>, FactorDiagnostics, Vec<f64>), CircuitError> {
    let (factored, diag) = {
        let _fs = vpec_trace::span("transient.factor");
        Factored::factor_with(a, spec.faults.fail_primary_factor).map_err(transient_singular)?
    };
    let (dc, _) = {
        let _ds = vpec_trace::span("transient.dc");
        solve_dc_report(ckt)?
    };
    Ok((factored, diag, dc.x))
}

/// Names the transient analysis in a singular-system error.
fn transient_singular(e: CircuitError) -> CircuitError {
    match e {
        CircuitError::SingularSystem { .. } => CircuitError::SingularSystem {
            analysis: "transient",
        },
        other => other,
    }
}

/// Runs a fixed-step transient analysis from the DC operating point.
///
/// Convenience wrapper around [`run_transient_with_report`] that discards
/// the diagnostics.
///
/// # Errors
///
/// * [`CircuitError::InvalidSpec`] for non-positive `t_stop`/`dt`.
/// * [`CircuitError::SingularSystem`] if the DC or transient MNA system is
///   singular even after the fallback chain.
/// * [`CircuitError::NonFiniteSolution`] if a step stays non-finite after
///   the bounded step-halving retries.
pub fn run_transient(ckt: &Circuit, spec: &TransientSpec) -> Result<TransientResult, CircuitError> {
    run_transient_with_report(ckt, spec).map(|(res, _)| res)
}

/// Runs a fixed-step transient analysis and reports how it went.
///
/// In addition to the waveforms this returns [`TransientDiagnostics`]:
/// the factorization fallback record, the number of checkpointed retries
/// after non-finite solutions, and the final (possibly halved) step size.
///
/// # Errors
///
/// Same conditions as [`run_transient`].
pub fn run_transient_with_report(
    ckt: &Circuit,
    spec: &TransientSpec,
) -> Result<(TransientResult, TransientDiagnostics), CircuitError> {
    run_transient_guarded(ckt, spec, None)
}

/// Runs a fixed-step transient analysis against a factorization prepared
/// by [`prepare_transient`] — the cheap half of **factor-once/solve-many**.
///
/// The run re-assembles the MNA system and compares it exactly against
/// the snapshot inside `factor` before reusing it; the factorization and
/// DC solve are then skipped. The result is bit-identical to a cold
/// [`run_transient_with_report`] of the same `(ckt, spec)` — the reused
/// factor *is* the factor a cold run would compute, and the step loop is
/// unchanged. [`TransientDiagnostics::reused_factor`] is set so reports
/// can tell the two apart.
///
/// # Errors
///
/// Same conditions as [`run_transient`], plus
/// [`CircuitError::InvalidSpec`] when `(ckt, spec)` doesn't match what
/// `factor` was prepared for.
pub fn run_transient_with_report_prefactored(
    ckt: &Circuit,
    spec: &TransientSpec,
    factor: &TransientFactor,
) -> Result<(TransientResult, TransientDiagnostics), CircuitError> {
    run_transient_guarded(ckt, spec, Some(factor))
}

/// Shared guarded step loop. `prefactored == None` is the classic cold
/// run; `Some` validates and reuses the prepared factor + DC point.
fn run_transient_guarded(
    ckt: &Circuit,
    spec: &TransientSpec,
    prefactored: Option<&TransientFactor>,
) -> Result<(TransientResult, TransientDiagnostics), CircuitError> {
    validate_spec(spec)?;

    let layout = MnaLayout::new(ckt);
    let mut tr_span = vpec_trace::span!("transient", "dim" => layout.dim);
    let mut dt = spec.dt;
    let mut coef = coef_for(spec.method, dt);
    let trap = spec.method == Integrator::Trapezoidal;

    let mut a = assemble::<f64>(ckt, &layout, |c| coef * c, |l| coef * l)?;
    let auditing = audit::enabled(audit::AuditLevel::Basic);
    if auditing {
        audit_stamps(&a)?;
    }
    // The factor every step solves with: the borrowed prefactored handle
    // or a cold run's own factor. A retry (which re-factors at the halved
    // dt) moves its fresh factor into `retry_factor` and re-points this.
    let cold_factor: Factored<f64>;
    let mut retry_factor: Option<Factored<f64>> = None;
    let mut factored: &Factored<f64>;
    let mut diag = TransientDiagnostics {
        final_dt: dt,
        reused_factor: prefactored.is_some(),
        dim: layout.dim,
        ..TransientDiagnostics::default()
    };
    let mut x: Vec<f64>;
    match prefactored {
        Some(pf) => {
            // Loud exact validation: a stale handle is an error, never a
            // silently wrong answer. Skips the factor + DC spans entirely.
            pf.check(ckt, spec, &layout, &a)?;
            factored = &pf.factored;
            diag.factor = pf.factor_diag.clone();
            x = pf.dc_x.clone();
        }
        None => {
            let (f, factor_diag, dc_x) = factor_and_dc(ckt, spec, &a)?;
            cold_factor = f;
            factored = &cold_factor;
            diag.factor = factor_diag;
            x = dc_x;
        }
    }
    debug_assert_eq!(x.len(), layout.dim);

    // Element state trackers.
    let mut caps: Vec<CapState> = Vec::new();
    let mut inds: Vec<IndState> = Vec::new();
    // First pass: self terms and node indices.
    for (idx, e) in ckt.elements().iter().enumerate() {
        match e {
            Element::Capacitor { a: na, b: nb, c, .. } => {
                let ia = layout.node_idx(*na);
                let ib = layout.node_idx(*nb);
                let va = ia.map_or(0.0, |i| x[i]);
                let vb = ib.map_or(0.0, |i| x[i]);
                caps.push(CapState {
                    ia,
                    ib,
                    c: *c,
                    v_prev: va - vb,
                    i_prev: 0.0, // steady state: no capacitor current
                });
            }
            Element::Inductor { a: na, b: nb, l, .. } => {
                let Some(br) = layout.branch_idx(idx) else {
                    continue;
                };
                inds.push(IndState {
                    br,
                    ia: layout.node_idx(*na),
                    ib: layout.node_idx(*nb),
                    couplings: vec![(br, *l)],
                    v_prev: 0.0, // DC: inductor is a short
                });
            }
            _ => {}
        }
    }
    // Second pass: mutual couplings (element ids refer to inductors).
    let br_to_ind: HashMap<usize, usize> = inds
        .iter()
        .enumerate()
        .map(|(k, s)| (s.br, k))
        .collect();
    for e in ckt.elements() {
        if let Element::Mutual { la, lb, m, .. } = e {
            if let (Some(ba), Some(bb)) = (layout.branch_idx(la.0), layout.branch_idx(lb.0)) {
                inds[br_to_ind[&ba]].couplings.push((bb, *m));
                inds[br_to_ind[&bb]].couplings.push((ba, *m));
            }
        }
    }

    // Probe bookkeeping.
    let (mapping, record_cols): (ResultMapping, Option<Vec<usize>>) = match &spec.probes {
        None => (
            ResultMapping::Full {
                n_nodes: layout.n_nodes,
                branch_of: layout.branch_of.clone(),
            },
            None,
        ),
        Some(nodes) => {
            let mut map = HashMap::new();
            let mut cols = Vec::new();
            for (k, n) in nodes.iter().enumerate() {
                let col = layout.node_idx(*n).ok_or(CircuitError::InvalidSpec {
                    reason: "cannot probe the ground node",
                })?;
                map.insert(n.0, k);
                cols.push(col);
            }
            (ResultMapping::Probes(map), Some(cols))
        }
    };
    let record = |x: &[f64]| -> Vec<f64> {
        match &record_cols {
            None => x.to_vec(),
            Some(cols) => cols.iter().map(|&c| x[c]).collect(),
        }
    };

    let n_steps = (spec.t_stop / spec.dt).round() as usize;
    let mut times = Vec::with_capacity(n_steps + 1);
    let mut data = Vec::with_capacity(n_steps + 1);
    times.push(0.0);
    data.push(record(&x));

    let mut poison = spec.faults.poison_step;
    let mut halvings = 0usize;
    let mut accepted = 0usize;
    let mut t = 0.0f64;
    // Per-step scratch, allocated once: the RHS, the solution buffer and
    // the solver's permutation scratch are all reused across steps.
    let mut rhs = vec![0.0f64; layout.dim];
    let mut x_new: Vec<f64> = Vec::with_capacity(layout.dim);
    let mut scratch: Vec<f64> = Vec::new();
    // Independent sources don't change identity across steps — resolve
    // them once instead of scanning every element per step.
    let source_idxs: Vec<usize> = ckt
        .elements()
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, Element::VSource { .. } | Element::ISource { .. }))
        .map(|(idx, _)| idx)
        .collect();

    // Injected stall: sleep once before the first step — a deterministic
    // way for tests to trip the engine's wall-clock deadline.
    if let Some(ms) = spec.faults.stall_ms {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    // Step while more than half a step of simulated time remains — for an
    // un-retried run this reproduces exactly `round(t_stop/dt)` steps.
    while t + 0.5 * dt < spec.t_stop {
        if spec.cancel.is_cancelled() {
            return Err(CircuitError::Cancelled {
                analysis: "transient",
            });
        }
        let t_new = t + dt;
        rhs.iter_mut().for_each(|v| *v = 0.0);

        // Independent sources at the new time point.
        for &idx in &source_idxs {
            let e = &ckt.elements()[idx];
            if let Element::VSource { wave, .. } | Element::ISource { wave, .. } = e {
                add_source_rhs(&mut rhs, &layout, idx, e, wave.value(t_new));
            }
        }
        // Capacitor companion history: current source Geq·v_prev (+ i_prev
        // for trapezoidal) injected from b into a.
        for s in &caps {
            let hist = coef * s.c * s.v_prev + if trap { s.i_prev } else { 0.0 };
            if let Some(ia) = s.ia {
                rhs[ia] += hist;
            }
            if let Some(ib) = s.ib {
                rhs[ib] -= hist;
            }
        }
        // Inductor branch history: −v_prev (trap) − coef·Σ L·i_prev.
        for s in &inds {
            let mut flux = 0.0;
            for &(col, l) in &s.couplings {
                flux += l * x[col];
            }
            rhs[s.br] = -(if trap { s.v_prev } else { 0.0 }) - coef * flux;
        }

        factored.solve_into(&rhs, &mut x_new, &mut scratch)?;
        if poison == Some(accepted) && !x_new.is_empty() {
            x_new[0] = f64::NAN; // injected fault, consumed once
            poison = None;
        }

        // Guard: never commit a non-finite state. Halve dt, re-assemble and
        // re-factor, and re-take the step from the last accepted checkpoint
        // (element states have not been touched yet).
        if x_new.iter().any(|v| !v.is_finite()) {
            if halvings >= MAX_HALVINGS {
                return Err(CircuitError::NonFiniteSolution {
                    analysis: "transient",
                    step: accepted + 1,
                });
            }
            halvings += 1;
            dt /= 2.0;
            coef = coef_for(spec.method, dt);
            if vpec_trace::enabled() {
                vpec_trace::instant_event(
                    "transient.retry",
                    &format!("non-finite at step {}, dt halved to {dt:.3e}", accepted + 1),
                );
                vpec_trace::counter_add("transient.retries", 1);
                vpec_trace::counter_add("transient.dt_halvings", 1);
            }
            // Re-assign (not shadow) so the post-loop solve audit checks
            // the residual against the system the factor actually solves.
            a = assemble::<f64>(ckt, &layout, |c| coef * c, |l| coef * l)?;
            let (f, _) = {
                let _fs = vpec_trace::span("transient.factor");
                Factored::factor_with(&a, false).map_err(transient_singular)?
            };
            // A halved dt changes the matrix, so neither the borrowed
            // prefactored handle nor the cold factor can serve any more.
            factored = &*retry_factor.insert(f);
            diag.retries += 1;
            diag.refactorizations += 1;
            continue;
        }

        // Update element states.
        for s in &mut caps {
            let va = s.ia.map_or(0.0, |i| x_new[i]);
            let vb = s.ib.map_or(0.0, |i| x_new[i]);
            let v_new = va - vb;
            let i_new = coef * s.c * (v_new - s.v_prev) - if trap { s.i_prev } else { 0.0 };
            s.v_prev = v_new;
            s.i_prev = i_new;
        }
        for s in &mut inds {
            let va = s.ia.map_or(0.0, |i| x_new[i]);
            let vb = s.ib.map_or(0.0, |i| x_new[i]);
            s.v_prev = va - vb;
        }

        // Swap rather than move so x_new's buffer survives for the next
        // step's solve_into.
        std::mem::swap(&mut x, &mut x_new);
        t = t_new;
        accepted += 1;
        times.push(t);
        data.push(record(&x));
    }

    // Solve audit: check the factor against the system it claims to solve
    // (factor → solve boundary). `x` holds the last accepted solution and
    // `rhs` the RHS it was solved from; `a` matches the current factor
    // even after retries (re-assigned, not shadowed, above).
    if auditing && accepted > 0 {
        let mut sa = SolveAudit::default();
        let (rel, violation) =
            audit::check_residual("transient MNA", &a, &x, &rhs, AUDIT_RESIDUAL_TOL);
        sa.residual = Some(rel);
        if let Some(v) = violation {
            sa.violations.push(v.to_string());
        }
        if audit::enabled(audit::AuditLevel::Full) && layout.dim <= AUDIT_BACKEND_DIM_CAP {
            // Independent dense-LU re-solve of the final step; two
            // backward-stable backends must agree on a well-posed system.
            let dense = a.to_csr().to_dense();
            if let Ok(x_ref) = vpec_numerics::LuFactor::new(&dense).and_then(|lu| lu.solve(&rhs)) {
                let scale = x_ref
                    .iter()
                    .fold(0.0f64, |m, v| m.max(v.abs()))
                    .max(f64::MIN_POSITIVE);
                let mut worst = 0.0f64;
                for (xo, xr) in x.iter().zip(&x_ref) {
                    let d = (xo - xr).abs() / scale;
                    if d > worst || !d.is_finite() {
                        worst = d;
                    }
                }
                sa.backend_max_diff = Some(worst);
                if worst > AUDIT_BACKEND_TOL || !worst.is_finite() {
                    sa.violations.push(format!(
                        "transient MNA failed backend consistency: production factor and \
                         dense LU disagree by {worst:.3e} (tol {AUDIT_BACKEND_TOL:.1e})"
                    ));
                }
            }
        }
        diag.audit = Some(sa);
    }

    diag.final_dt = dt;
    diag.steps = accepted;
    if tr_span.is_active() {
        vpec_trace::counter_add("transient.steps", accepted as u64);
        tr_span.set_attr("steps", accepted);
        tr_span.set_attr("retries", diag.retries);
    }
    Ok((
        TransientResult {
            times,
            data,
            mapping,
        },
        diag,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::FactorStrategy;
    use crate::waveform::Waveform;

    /// RC low-pass step response: v(t) = V·(1 − e^{−t/RC}).
    fn rc_circuit() -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("V1", inp, Circuit::GROUND, Waveform::dc(1.0))
            .unwrap();
        c.add_resistor("R1", inp, out, 1000.0).unwrap();
        c.add_capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
        (c, out)
    }

    #[test]
    fn rc_charges_with_correct_time_constant() {
        // Start the source at 0 and step it so the DC point is v=0.
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource(
            "V1",
            inp,
            Circuit::GROUND,
            Waveform::Step {
                v0: 0.0,
                v1: 1.0,
                delay: 0.0,
                rise: 1e-12,
            },
        )
        .unwrap();
        c.add_resistor("R1", inp, out, 1000.0).unwrap();
        c.add_capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
        let tau = 1e-6;
        let res = run_transient(&c, &TransientSpec::new(3.0 * tau, tau / 1000.0)).unwrap();
        let v = res.voltage(out).unwrap();
        let t = res.time();
        // Compare a few points against the analytic solution.
        for &frac in &[0.5, 1.0, 2.0, 2.5] {
            let idx = t
                .iter()
                .position(|&tt| tt >= frac * tau)
                .expect("time point exists");
            let expected = 1.0 - (-t[idx] / tau).exp();
            assert!(
                (v[idx] - expected).abs() < 2e-3,
                "at {} tau: {} vs {}",
                frac,
                v[idx],
                expected
            );
        }
    }

    #[test]
    fn dc_source_starts_settled() {
        // With Waveform::dc the DC op point already has the cap charged.
        let (c, out) = rc_circuit();
        let res = run_transient(&c, &TransientSpec::new(1e-6, 1e-9)).unwrap();
        let v = res.voltage(out).unwrap();
        assert!((v[0] - 1.0).abs() < 1e-9, "cap pre-charged at t=0");
        assert!((v.last().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rl_current_rises_exponentially() {
        // Series R-L driven by a step: i(t) = (V/R)(1 − e^{−tR/L}).
        let mut c = Circuit::new();
        let inp = c.node("in");
        let mid = c.node("mid");
        c.add_vsource("V1", inp, Circuit::GROUND, Waveform::step(1.0, 1e-15))
            .unwrap();
        c.add_resistor("R1", inp, mid, 10.0).unwrap();
        let l1 = c.add_inductor("L1", mid, Circuit::GROUND, 1e-6).unwrap();
        let tau = 1e-6 / 10.0;
        let res = run_transient(&c, &TransientSpec::new(10.0 * tau, tau / 500.0)).unwrap();
        let i = res.branch_current(l1).expect("inductor is a branch");
        let t = res.time();
        let idx = t.iter().position(|&tt| tt >= tau).unwrap();
        let expected = 0.1 * (1.0 - (-t[idx] / tau).exp());
        assert!(
            (i[idx] - expected).abs() < 1e-3 * 0.1,
            "{} vs {}",
            i[idx],
            expected
        );
        // Settles to V/R.
        assert!((i.last().unwrap() - 0.1).abs() < 1e-4);
    }

    #[test]
    fn lc_tank_rings_after_source_release() {
        // DC establishes i_L = 1 mA through the inductor (source at 1 V
        // over 1 kΩ, L shorts the tank node). The source then steps to 0
        // and the stored magnetic energy rings in the high-Q parallel RLC
        // (Q ≈ R/√(L/C) ≈ 31), swinging ±i_L·√(L/C) ≈ ±31 mV.
        let mut c = Circuit::new();
        let top = c.node("top");
        let drive = c.node("drive");
        c.add_vsource(
            "V1",
            drive,
            Circuit::GROUND,
            Waveform::Step {
                v0: 1.0,
                v1: 0.0,
                delay: 0.0,
                rise: 1e-12,
            },
        )
        .unwrap();
        c.add_resistor("R1", drive, top, 1000.0).unwrap();
        c.add_capacitor("C1", top, Circuit::GROUND, 1e-12).unwrap();
        let _l = c.add_inductor("L1", top, Circuit::GROUND, 1e-9).unwrap();
        let omega = 1.0 / (1e-9f64 * 1e-12).sqrt();
        let period = 2.0 * std::f64::consts::PI / omega;
        let res = run_transient(
            &c,
            &TransientSpec::new(3.0 * period, period / 400.0)
                .integrator(Integrator::Trapezoidal),
        )
        .unwrap();
        let v = res.voltage(top).unwrap();
        let vmax = v.iter().cloned().fold(f64::MIN, f64::max);
        let vmin = v.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            vmax > 0.01 && vmin < -0.01,
            "should ring: {vmax} / {vmin}"
        );
    }

    #[test]
    fn coupled_inductors_transfer_energy() {
        // Transformer action: step into L1 induces voltage across L2.
        let mut c = Circuit::new();
        let inp = c.node("in");
        let mid = c.node("mid");
        let sec = c.node("sec");
        c.add_vsource("V1", inp, Circuit::GROUND, Waveform::step(1.0, 1e-12))
            .unwrap();
        c.add_resistor("R1", inp, mid, 50.0).unwrap();
        let l1 = c.add_inductor("L1", mid, Circuit::GROUND, 1e-9).unwrap();
        let l2 = c.add_inductor("L2", sec, Circuit::GROUND, 1e-9).unwrap();
        c.add_mutual("K1", l1, l2, 0.8e-9).unwrap();
        c.add_resistor("RL", sec, Circuit::GROUND, 50.0).unwrap();
        let res = run_transient(&c, &TransientSpec::new(2e-10, 1e-13)).unwrap();
        let v_sec = res.voltage(sec).unwrap();
        let peak = v_sec.iter().cloned().fold(0.0f64, |a, b| a.max(b.abs()));
        assert!(peak > 1e-3, "mutual coupling must induce secondary voltage, got {peak}");
    }

    #[test]
    fn probes_restrict_recording() {
        let (c, out) = rc_circuit();
        let res = run_transient(
            &c,
            &TransientSpec::new(1e-7, 1e-9).probes(vec![out]),
        )
        .unwrap();
        assert_eq!(res.voltage(out).unwrap().len(), res.len());
        assert!(res.branch_current(crate::ElementId(0)).is_none());
    }

    #[test]
    fn bad_specs_rejected() {
        let (c, _) = rc_circuit();
        assert!(run_transient(&c, &TransientSpec::new(-1.0, 1e-9)).is_err());
        assert!(run_transient(&c, &TransientSpec::new(1e-9, 0.0)).is_err());
        assert!(run_transient(&c, &TransientSpec::new(1e-9, 1.0)).is_err());
        let bad_probe = TransientSpec::new(1e-7, 1e-9).probes(vec![Circuit::GROUND]);
        assert!(run_transient(&c, &bad_probe).is_err());
    }

    #[test]
    fn backward_euler_also_converges() {
        let (c, out) = rc_circuit();
        let res = run_transient(
            &c,
            &TransientSpec::new(1e-6, 1e-9).integrator(Integrator::BackwardEuler),
        )
        .unwrap();
        assert!((res.voltage(out).unwrap().last().unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clean_run_reports_clean_diagnostics() {
        let (c, _) = rc_circuit();
        let (res, diag) =
            run_transient_with_report(&c, &TransientSpec::new(1e-7, 1e-9)).unwrap();
        assert_eq!(diag.retries, 0);
        assert_eq!(diag.refactorizations, 0);
        assert_eq!(diag.final_dt, 1e-9);
        assert_eq!(diag.steps, res.len() - 1);
        assert!(!diag.degraded());
    }

    #[test]
    fn poisoned_step_recovers_via_halving() {
        let (c, out) = rc_circuit();
        let spec = TransientSpec::new(1e-7, 1e-9).fault_injection(FaultInjection {
            poison_step: Some(10),
            ..FaultInjection::none()
        });
        let (res, diag) = run_transient_with_report(&c, &spec).unwrap();
        assert_eq!(diag.retries, 1, "one NaN, one halving");
        assert_eq!(diag.refactorizations, 1);
        assert!((diag.final_dt - 0.5e-9).abs() < 1e-20);
        assert!(diag.degraded());
        // The waveform stays physical despite the injected fault.
        let v = res.voltage(out).unwrap();
        assert!(v.iter().all(|x| x.is_finite()));
        assert!((v.last().unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn audit_telemetry_is_clean_on_healthy_run() {
        let (c, _) = rc_circuit();
        let (_, diag) =
            run_transient_with_report(&c, &TransientSpec::new(1e-7, 1e-9)).unwrap();
        // Debug test builds default to AuditLevel::Full; respect an
        // explicit VPEC_AUDIT=off override (release-profile CI runs).
        if audit::enabled(audit::AuditLevel::Basic) {
            let sa = diag.audit.as_ref().expect("audit telemetry expected");
            assert!(sa.is_clean(), "unexpected violations: {:?}", sa.violations);
            let r = sa.residual.expect("residual recorded");
            assert!(r < AUDIT_RESIDUAL_TOL, "residual {r} too large");
            if audit::enabled(audit::AuditLevel::Full) {
                let d = sa.backend_max_diff.expect("backend cross-check recorded");
                assert!(d < AUDIT_BACKEND_TOL, "backend diff {d} too large");
            }
            assert!(!diag.degraded(), "clean audit must not degrade the run");
        } else {
            assert!(diag.audit.is_none());
        }
    }

    #[test]
    fn audit_still_clean_after_checkpointed_retry() {
        // The retry path re-assembles the system at the halved dt; the
        // post-loop residual must be checked against *that* matrix.
        let (c, _) = rc_circuit();
        let spec = TransientSpec::new(1e-7, 1e-9).fault_injection(FaultInjection {
            poison_step: Some(3),
            ..FaultInjection::none()
        });
        let (_, diag) = run_transient_with_report(&c, &spec).unwrap();
        assert_eq!(diag.retries, 1);
        if audit::enabled(audit::AuditLevel::Basic) {
            let sa = diag.audit.as_ref().expect("audit telemetry expected");
            assert!(sa.is_clean(), "unexpected violations: {:?}", sa.violations);
            assert!(sa.residual.expect("residual recorded") < AUDIT_RESIDUAL_TOL);
        }
    }

    #[test]
    fn cancelled_token_aborts_step_loop() {
        let (c, _) = rc_circuit();
        let token = CancelToken::new();
        token.cancel();
        let spec = TransientSpec::new(1e-7, 1e-9).cancel_token(token);
        assert!(matches!(
            run_transient(&c, &spec),
            Err(CircuitError::Cancelled {
                analysis: "transient"
            })
        ));
        // A disarmed token changes nothing.
        let spec = TransientSpec::new(1e-7, 1e-9).cancel_token(CancelToken::none());
        assert!(run_transient(&c, &spec).is_ok());
    }

    #[test]
    fn injected_stall_delays_but_completes() {
        let (c, out) = rc_circuit();
        let spec = TransientSpec::new(1e-8, 1e-9).fault_injection(FaultInjection {
            stall_ms: Some(30),
            ..FaultInjection::none()
        });
        let start = std::time::Instant::now();
        let res = run_transient(&c, &spec).unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(30));
        assert!(res.voltage(out).unwrap().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn injected_factor_failure_engages_fallback() {
        // 100 sections go sparse, so the injected failure walks the chain
        // to dense LU. From the 1 V DC point the ladder stays at 1 V.
        let (c, near) = long_rc_ladder(100, Waveform::dc(1.0));
        let spec = TransientSpec::new(1e-7, 1e-9);
        let (_, clean) = run_transient_with_report(&c, &spec).unwrap();
        assert_eq!(clean.factor.accepted(), Some(FactorStrategy::SparseLu));
        let spec = spec.fault_injection(FaultInjection {
            fail_primary_factor: true,
            ..FaultInjection::none()
        });
        let (res, diag) = run_transient_with_report(&c, &spec).unwrap();
        assert!(diag.factor.used_fallback());
        assert_eq!(diag.factor.accepted(), Some(FactorStrategy::DenseLu));
        assert!(diag.degraded());
        let v = res.voltage(near).unwrap();
        assert!((v.last().unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn prefactored_run_is_bit_identical_to_cold() {
        let (c, _) = rc_circuit();
        let spec = TransientSpec::new(1e-7, 1e-9);
        let (cold, cold_diag) = run_transient_with_report(&c, &spec).unwrap();
        let pf = prepare_transient(&c, &spec).unwrap();
        pf.validate(&c, &spec).expect("handle matches what it was prepared for");
        let (warm, warm_diag) = run_transient_with_report_prefactored(&c, &spec, &pf).unwrap();
        // The reused factor IS the factor a cold run computes, so every
        // sample must agree bit-for-bit — not just to tolerance.
        assert_eq!(cold.times, warm.times);
        assert_eq!(cold.data, warm.data);
        assert!(!cold_diag.reused_factor);
        assert!(warm_diag.reused_factor);
        assert_eq!(cold_diag.steps, warm_diag.steps);
        assert_eq!(cold_diag.factor, warm_diag.factor);
        // The handle keeps serving: a second reuse is equally identical.
        let (warm2, _) = run_transient_with_report_prefactored(&c, &spec, &pf).unwrap();
        assert_eq!(cold.data, warm2.data);
    }

    /// A long RC ladder (1 Ω, 1 nF sections) driven by `drive`; returns
    /// the node nearest the source. Under a fast step, dt/RC = 1e-3 makes
    /// each section attenuate a 20-step response by orders of magnitude,
    /// so the far nodes fall far below the subnormal range.
    fn long_rc_ladder(sections: usize, drive: Waveform) -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let inp = c.node("in");
        c.add_vsource("V1", inp, Circuit::GROUND, drive).unwrap();
        let mut prev = inp;
        let mut near = inp;
        for k in 0..sections {
            let n = c.node(&format!("n{k}"));
            c.add_resistor(&format!("R{k}"), prev, n, 1.0).unwrap();
            c.add_capacitor(&format!("C{k}"), n, Circuit::GROUND, 1e-9)
                .unwrap();
            if k == 0 {
                near = n;
            }
            prev = n;
        }
        (c, near)
    }

    #[test]
    fn sparse_transient_records_no_subnormals() {
        let (c, near) = long_rc_ladder(300, Waveform::step(1.0, 1e-12));
        // The dense reference is the chain's stage 2, reached by failing
        // the sparse primary.
        let spec = TransientSpec::new(2e-11, 1e-12);
        let faulted = spec.clone().fault_injection(FaultInjection {
            fail_primary_factor: true,
            ..FaultInjection::none()
        });
        let (sparse, ds) = run_transient_with_report(&c, &spec).unwrap();
        let (dense, dd) = run_transient_with_report(&c, &faulted).unwrap();
        assert_eq!(ds.factor.accepted(), Some(FactorStrategy::SparseLu));
        assert_eq!(dd.factor.accepted(), Some(FactorStrategy::DenseLu));
        let subnormal = |r: &TransientResult| {
            r.data.iter().flatten().filter(|v| v.is_subnormal()).count()
        };
        assert!(subnormal(&dense) > 0, "the ladder must reach the subnormal range");
        assert_eq!(subnormal(&sparse), 0);
        let (vs, vd) = (sparse.voltage(near).unwrap(), dense.voltage(near).unwrap());
        let peak = vd.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(peak > 0.0);
        for (s, d) in vs.iter().zip(&vd) {
            assert!((s - d).abs() <= 1e-12 * peak, "near end: sparse {s} vs dense {d}");
        }
    }

    #[test]
    fn prefactored_run_rejects_spec_mismatch() {
        let (c, _) = rc_circuit();
        let spec = TransientSpec::new(1e-7, 1e-9);
        let pf = prepare_transient(&c, &spec).unwrap();
        // dt shapes the companion matrix — reuse must refuse.
        let other_dt = TransientSpec::new(1e-7, 2e-9);
        assert!(matches!(
            run_transient_with_report_prefactored(&c, &other_dt, &pf),
            Err(CircuitError::InvalidSpec { .. })
        ));
        assert!(pf.validate(&c, &other_dt).is_err());
        // So does the integration method.
        let other_method = TransientSpec::new(1e-7, 1e-9).integrator(Integrator::BackwardEuler);
        assert!(matches!(
            run_transient_with_report_prefactored(&c, &other_method, &pf),
            Err(CircuitError::InvalidSpec { .. })
        ));
        // A longer t_stop with the same dt keeps the matrix unchanged —
        // that reuse is legitimate and must be accepted.
        let longer = TransientSpec::new(2e-7, 1e-9);
        let (res, diag) = run_transient_with_report_prefactored(&c, &longer, &pf).unwrap();
        assert!(diag.reused_factor);
        assert_eq!(diag.steps, 200);
        assert!(res.time().last().unwrap() > &1.9e-7);
    }

    #[test]
    fn prefactored_run_rejects_circuit_mismatch() {
        let (c, _) = rc_circuit();
        let spec = TransientSpec::new(1e-7, 1e-9);
        let pf = prepare_transient(&c, &spec).unwrap();
        // Same topology, different resistor value: stamps differ.
        let mut c2 = Circuit::new();
        let inp = c2.node("in");
        let out = c2.node("out");
        c2.add_vsource("V1", inp, Circuit::GROUND, Waveform::dc(1.0))
            .unwrap();
        c2.add_resistor("R1", inp, out, 2000.0).unwrap();
        c2.add_capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
        assert!(matches!(
            run_transient_with_report_prefactored(&c2, &spec, &pf),
            Err(CircuitError::InvalidSpec { .. })
        ));
        // Same stamps, different source amplitude: the matrix matches but
        // the cached DC point would be wrong — the t=0 snapshot catches it.
        let mut c3 = Circuit::new();
        let inp = c3.node("in");
        let out = c3.node("out");
        c3.add_vsource("V1", inp, Circuit::GROUND, Waveform::dc(2.0))
            .unwrap();
        c3.add_resistor("R1", inp, out, 1000.0).unwrap();
        c3.add_capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
        assert!(matches!(
            run_transient_with_report_prefactored(&c3, &spec, &pf),
            Err(CircuitError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn prefactored_run_still_recovers_via_halving() {
        // A poisoned step under a borrowed factor must drop into an owned
        // re-factorization at the halved dt and finish cleanly.
        let (c, out) = rc_circuit();
        let clean = TransientSpec::new(1e-7, 1e-9);
        let pf = prepare_transient(&c, &clean).unwrap();
        let spec = TransientSpec::new(1e-7, 1e-9).fault_injection(FaultInjection {
            poison_step: Some(10),
            ..FaultInjection::none()
        });
        // Fault injection doesn't shape the matrix, so reuse is legal.
        let (res, diag) = run_transient_with_report_prefactored(&c, &spec, &pf).unwrap();
        assert!(diag.reused_factor);
        assert_eq!(diag.retries, 1);
        assert_eq!(diag.refactorizations, 1);
        let v = res.voltage(out).unwrap();
        assert!(v.iter().all(|x| x.is_finite()));
        assert!((v.last().unwrap() - 1.0).abs() < 1e-6);
    }
}
