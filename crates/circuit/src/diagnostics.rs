//! Structured diagnostics for the fault-tolerant solve pipeline.
//!
//! Every analysis can report *how* it obtained its answer: which
//! factorization backends were attempted, how ill-conditioned the
//! accepted factor looked, and how many checkpointed retries the transient integrator needed.
//! The harness aggregates these into the `SolveReport` surfaced by the
//! CLI, so a degraded-but-successful run is visible instead of silent.
//!
//! [`FaultInjection`] is the test hook that exercises the recovery
//! branches: it can force the primary factorization to fail and poison
//! the transient solution with NaN at a chosen step.

/// A factorization backend attempted by the fallback chain: stage 1 is
/// always [`FactorStrategy::SparseLu`], and [`FactorStrategy::DenseLu`]
/// labels the recovery stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorStrategy {
    /// Sparse Gilbert–Peierls LU under the fill-reducing ordering
    /// (maximum transversal + AMD) with threshold pivoting.
    SparseLu,
    /// Dense LU with partial pivoting.
    DenseLu,
}

impl FactorStrategy {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FactorStrategy::SparseLu => "sparse-lu",
            FactorStrategy::DenseLu => "dense-lu",
        }
    }
}

/// One entry of the fallback chain: what was tried and whether it stuck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FactorAttempt {
    /// Backend attempted.
    pub strategy: FactorStrategy,
    /// Whether the factorization succeeded.
    pub succeeded: bool,
}

/// Diagnostics of one factorization through the fallback chain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FactorDiagnostics {
    /// Every backend attempted, in order; the last entry is the one that
    /// produced the factor (when any succeeded).
    pub attempts: Vec<FactorAttempt>,
    /// Cheap condition estimate of the accepted factor
    /// (`max|uᵢᵢ| / min|uᵢᵢ|` over the U diagonal, dense or sparse);
    /// `None` until a factor is accepted.
    pub condition_estimate: Option<f64>,
    /// Stored nonzeros of the accepted factor: L and U with their
    /// diagonals for sparse LU, `dim²` for dense LU (0 until a factor is
    /// accepted).
    pub factor_nnz: usize,
    /// Columns of the accepted sparse factor pivoted off the diagonal of
    /// the ordered matrix (0 for dense LU).
    pub off_diagonal_pivots: usize,
}

impl FactorDiagnostics {
    /// `true` when anything beyond the sparse primary was needed.
    pub fn used_fallback(&self) -> bool {
        self.attempts.len() > 1
    }

    /// The backend that produced the factor, if any succeeded.
    pub fn accepted(&self) -> Option<FactorStrategy> {
        self.attempts
            .iter()
            .rev()
            .find(|a| a.succeeded)
            .map(|a| a.strategy)
    }

    /// One-line human-readable summary, e.g.
    /// `"sparse-lu failed -> dense-lu ok (cond ~ 1.2e3)"`.
    pub fn summary(&self) -> String {
        let mut s = self
            .attempts
            .iter()
            .map(|a| {
                format!(
                    "{} {}",
                    a.strategy.label(),
                    if a.succeeded { "ok" } else { "failed" }
                )
            })
            .collect::<Vec<_>>()
            .join(" -> ");
        if let Some(c) = self.condition_estimate {
            s.push_str(&format!(" (cond ~ {c:.1e})"));
        }
        s
    }
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
    /// and an independent dense-LU re-solve of the final step (Full audit
    /// level, small systems only).
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
    /// Fallback-chain record of the initial factorization.
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
        self.retries > 0
            || self.factor.used_fallback()
            || self.audit.as_ref().is_some_and(|a| !a.is_clean())
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
    fn summary_mentions_every_stage() {
        let d = FactorDiagnostics {
            attempts: vec![
                FactorAttempt {
                    strategy: FactorStrategy::SparseLu,
                    succeeded: false,
                },
                FactorAttempt {
                    strategy: FactorStrategy::DenseLu,
                    succeeded: true,
                },
            ],
            condition_estimate: Some(1234.0),
            factor_nnz: 9,
            off_diagonal_pivots: 0,
        };
        let s = d.summary();
        assert!(s.contains("sparse-lu failed"));
        assert!(s.contains("dense-lu ok"));
        assert!(s.contains("cond"));
        assert!(d.used_fallback());
        assert_eq!(d.accepted(), Some(FactorStrategy::DenseLu));
    }

    #[test]
    fn default_is_clean() {
        let d = FactorDiagnostics::default();
        assert!(!d.used_fallback());
        assert_eq!(d.accepted(), None);
        let t = TransientDiagnostics::default();
        assert!(!t.degraded());
        assert!(!FaultInjection::none().is_armed());
    }

    #[test]
    fn armed_detection() {
        assert!(FaultInjection {
            fail_primary_factor: true,
            ..FaultInjection::default()
        }
        .is_armed());
        assert!(FaultInjection {
            poison_step: Some(3),
            ..FaultInjection::default()
        }
        .is_armed());
    }
}
