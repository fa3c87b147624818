//! Structured diagnostics for the fault-tolerant solve pipeline.
//!
//! Every analysis can report *how* it obtained its answer: the size and
//! pivoting of its sparse factor, how ill-conditioned that factor looked,
//! and how many checkpointed retries the transient integrator needed.
//! The harness aggregates these into the `SolveReport` surfaced by the
//! CLI, so a degraded-but-successful run is visible instead of silent.
//!
//! [`FaultInjection`] is the test hook that exercises the recovery
//! branches, for example by poisoning the transient solution with NaN at
//! a chosen step.

/// One factorization of an MNA system. Every system gets exactly one,
/// sparse LU; a system it cannot factor is an error, so a recorded
/// attempt always succeeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FactorAttempt {
    /// Whether the factorization succeeded.
    pub succeeded: bool,
}

/// Diagnostics of one sparse factorization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FactorDiagnostics {
    /// The factorizations run: the one sparse factor (empty until a
    /// factor is accepted). Kept as a list so that a reader counting
    /// `attempts.len() − 1` fallbacks reads 0.
    pub attempts: Vec<FactorAttempt>,
    /// Cheap condition estimate of the factor (`max|uᵢᵢ| / min|uᵢᵢ|`
    /// over the U diagonal); `None` until a factor is accepted.
    pub condition_estimate: Option<f64>,
    /// Stored nonzeros of the factor, L and U with their diagonals (0
    /// until a factor is accepted).
    pub factor_nnz: usize,
    /// Columns of the factor pivoted off the diagonal of the ordered
    /// matrix.
    pub off_diagonal_pivots: usize,
}

/// Solve-time audit telemetry, populated when the runtime numerical audit
/// layer is enabled (debug builds, `VPEC_AUDIT`, or the CLI `--audit`
/// flag). `None` fields mean the corresponding check did not run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveAudit {
    /// Relative residual `‖Ax−b‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)` of the last
    /// accepted solve.
    pub residual: Option<f64>,
    /// Worst relative disagreement between the production factorization
    /// and an independent dense-LU re-solve of the final step (systems of
    /// at most 512 unknowns).
    pub backend_max_diff: Option<f64>,
    /// Human-readable violations found by the solve audits (empty =
    /// clean).
    pub violations: Vec<String>,
}

impl SolveAudit {
    /// `true` when no solve-audit violations were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Telemetry lines for reports (what was measured, clean or not).
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(r) = self.residual {
            out.push(format!("audit: solve residual {r:.3e}"));
        }
        if let Some(d) = self.backend_max_diff {
            out.push(format!("audit: backend cross-check max diff {d:.3e}"));
        }
        out
    }
}

/// Diagnostics of a guarded transient run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransientDiagnostics {
    /// Record of the initial factorization.
    pub factor: FactorDiagnostics,
    /// Checkpointed retries: times a non-finite solution forced the step
    /// size to halve and the step to be re-taken, each with a factor of
    /// its own.
    pub retries: usize,
    /// The step size in effect when the run finished (== the spec's `dt`
    /// when no retry occurred).
    pub final_dt: f64,
    /// Accepted time steps.
    pub steps: usize,
    /// Solve-audit telemetry (`None` when the audit layer is off).
    pub audit: Option<SolveAudit>,
    /// Dimension of the MNA system that was solved (0 when unknown, e.g.
    /// a default-constructed diagnostics value).
    pub dim: usize,
}

impl TransientDiagnostics {
    /// `true` if the run needed any recovery action or failed an audit.
    pub fn degraded(&self) -> bool {
        self.retries > 0 || self.audit.as_ref().is_some_and(|a| !a.is_clean())
    }
}

// The struct itself now lives in `vpec_numerics::fault` (the bottom of
// the crate stack) so extraction and the engine can consume it too; this
// re-export keeps the original `vpec_circuit::diagnostics` path working.
pub use vpec_numerics::fault::FaultInjection;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_clean() {
        let d = FactorDiagnostics::default();
        assert!(d.attempts.is_empty());
        assert_eq!(d.condition_estimate, None);
        let t = TransientDiagnostics::default();
        assert!(!t.degraded());
        assert!(!FaultInjection::none().is_armed());
    }

    #[test]
    fn armed_detection() {
        assert!(FaultInjection {
            poison_step: Some(3),
            ..FaultInjection::default()
        }
        .is_armed());
    }
}
