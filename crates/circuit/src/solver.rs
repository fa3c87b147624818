//! Linear-solver selection and the factorization **fallback chain**:
//! dense LU for small/dense MNA systems, sparse Gilbert–Peierls LU
//! otherwise — and when the chosen backend fails, a bounded chain of
//! recovery stages (sparse LU → dense LU with partial pivoting →
//! optional Tikhonov-regularized dense LU with escalating `ε`).
//!
//! The backend split mirrors the behaviour the paper attributes to
//! SPICE: "its internal sparse solver is more efficient for a less dense
//! matrix" — sparsified VPEC models get the sparse path and profit,
//! dense PEEC stamps fall back to dense elimination. The recovery chain
//! is this workspace's production hardening: a near-singular MNA system
//! degrades through the chain and is reported in [`FactorDiagnostics`]
//! instead of panicking or silently emitting garbage.

use crate::diagnostics::{FactorAttempt, FactorDiagnostics, FactorStrategy};
use crate::error::CircuitError;
use vpec_numerics::ordering::rcm_ordering;
use vpec_numerics::{CooMatrix, CsrMatrix, LuFactor, Scalar, SparseLu};

/// Which factorization backend to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverKind {
    /// Choose dense or sparse LU from dimension and density.
    #[default]
    Auto,
    /// Force dense LU.
    Dense,
    /// Force sparse LU (with RCM ordering).
    Sparse,
    /// Sparse LU **without** the fill-reducing ordering — exists for the
    /// ablation benches; expect catastrophic fill on netlist-ordered MNA
    /// systems.
    SparseNoOrdering,
}

/// The `--solver=` / batch `"solver"` grammar: every accepted token and
/// the kind it selects.
const SOLVER_TOKENS: [(&str, SolverKind); 4] = [
    ("auto", SolverKind::Auto),
    ("dense", SolverKind::Dense),
    ("sparse", SolverKind::Sparse),
    ("sparse-no-ordering", SolverKind::SparseNoOrdering),
];

impl SolverKind {
    /// Parses the CLI/engine grammar (`--solver=`, the batch `"solver"`
    /// field): `auto`, or a forced backend (`dense`, `sparse`,
    /// `sparse-no-ordering`) so ablation scripts can pin one.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the accepted tokens.
    pub fn parse(tok: &str) -> Result<Self, String> {
        SOLVER_TOKENS
            .iter()
            .find(|(t, _)| *t == tok)
            .map(|&(_, kind)| kind)
            .ok_or_else(|| format!("unknown solver: {tok} (use {})", Self::accepted_tokens()))
    }

    /// The accepted tokens as one comma-separated list, for error
    /// messages that must name the grammar.
    pub fn accepted_tokens() -> String {
        SOLVER_TOKENS.map(|(t, _)| t).join(", ")
    }
}

/// How the fallback chain is allowed to recover, plus test-only fault
/// injection.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FactorOptions {
    /// Requested backend.
    pub kind: SolverKind,
    /// Permit the final Tikhonov-regularized stage. Off by default so a
    /// genuinely singular system (floating node, source loop) stays a
    /// typed error rather than a silently biased solution.
    pub regularize: bool,
    /// Fault injection: report the primary backend as failed.
    pub fail_primary: bool,
}

impl FactorOptions {
    pub fn new(kind: SolverKind) -> Self {
        FactorOptions {
            kind,
            ..FactorOptions::default()
        }
    }
}

/// Escalation schedule of the regularized stage: `ε = scale·10⁻¹⁰·100ᵏ`
/// for `k = 0..4`, where `scale` is the largest matrix entry.
const REGULARIZATION_STEPS: u32 = 4;
const REGULARIZATION_BASE: f64 = 1e-10;

/// A factored MNA matrix ready for repeated solves.
#[derive(Debug)]
pub(crate) enum Factored<T: Scalar> {
    Dense(LuFactor<T>),
    /// Sparse LU with any fill-reducing ordering folded into its index
    /// maps.
    Sparse(SparseLu<T>),
}

impl<T: Scalar> Factored<T> {
    /// Factors the assembled system with the requested backend. The sparse
    /// path applies a reverse Cuthill–McKee ordering first — netlist-order
    /// MNA unknowns factor with catastrophic fill otherwise. On failure
    /// the bounded fallback chain engages; see [`Factored::factor_with`].
    pub fn factor(coo: &CooMatrix<T>, kind: SolverKind) -> Result<Self, CircuitError> {
        Self::factor_with(coo, FactorOptions::new(kind)).map(|(f, _)| f)
    }

    /// Factors with the full fallback chain and returns what happened.
    ///
    /// Stages, in order (each bounded, no retry loops besides the fixed
    /// `ε` escalation):
    ///
    /// 1. the primary backend chosen by `opts.kind` (dense or sparse);
    /// 2. dense LU with partial pivoting, when the primary was sparse —
    ///    partial pivoting handles zero diagonals the no-pivot sparse
    ///    kernel cannot;
    /// 3. if `opts.regularize`: dense LU of `A + ε·I` with `ε` escalating
    ///    over [`REGULARIZATION_STEPS`] decades-of-100 from
    ///    `max|Aᵢⱼ|·1e-10`.
    ///
    /// The returned [`FactorDiagnostics`] records every attempt, the
    /// condition estimate and stored nonzeros of the accepted factor and
    /// the final `ε`.
    pub fn factor_with(
        coo: &CooMatrix<T>,
        opts: FactorOptions,
    ) -> Result<(Self, FactorDiagnostics), CircuitError> {
        let csr = coo.to_csr();
        let dim = csr.rows();
        let mut sp = vpec_trace::span!("factor", "dim" => dim);
        let primary_strategy = match opts.kind {
            SolverKind::Dense => FactorStrategy::DenseLu,
            SolverKind::Sparse => FactorStrategy::SparseLu,
            SolverKind::SparseNoOrdering => FactorStrategy::SparseLuNoOrdering,
            SolverKind::Auto => {
                if dim <= 64 || (csr.density() > 0.15 && dim <= 2048) {
                    FactorStrategy::DenseLu
                } else {
                    FactorStrategy::SparseLu
                }
            }
        };

        let mut diag = FactorDiagnostics::default();
        let mut last_err: Option<CircuitError> = None;

        // Stage 1: the primary backend.
        let mut factor: Option<Factored<T>> = if opts.fail_primary {
            last_err = Some(CircuitError::SingularSystem { analysis: "solve" });
            diag.attempts.push(FactorAttempt {
                strategy: primary_strategy,
                succeeded: false,
            });
            None
        } else {
            let (outcome, err) = match Self::try_primary(&csr, primary_strategy) {
                Ok(f) => (Some(f), None),
                Err(e) => (None, Some(e)),
            };
            diag.attempts.push(FactorAttempt {
                strategy: primary_strategy,
                succeeded: outcome.is_some(),
            });
            if let Some(e) = err {
                last_err = Some(e);
            }
            outcome
        };

        // Stage 2: dense LU with partial pivoting (pointless to repeat if
        // the primary already was dense).
        if factor.is_none() && primary_strategy != FactorStrategy::DenseLu {
            match LuFactor::new(&csr.to_dense()) {
                Ok(lu) => {
                    diag.attempts.push(FactorAttempt {
                        strategy: FactorStrategy::DenseLu,
                        succeeded: true,
                    });
                    factor = Some(Factored::Dense(lu));
                }
                Err(e) => {
                    diag.attempts.push(FactorAttempt {
                        strategy: FactorStrategy::DenseLu,
                        succeeded: false,
                    });
                    last_err = Some(e.into());
                }
            }
        }

        // Stage 3: Tikhonov-regularized dense LU with escalating ε.
        if factor.is_none() && opts.regularize {
            let dense = csr.to_dense();
            let scale = dense.max_abs();
            let base = if scale > 0.0 {
                scale * REGULARIZATION_BASE
            } else {
                REGULARIZATION_BASE
            };
            for k in 0..REGULARIZATION_STEPS {
                let eps = base * 100f64.powi(k as i32);
                let mut shifted = dense.clone();
                for i in 0..dim {
                    shifted[(i, i)] += T::from_f64(eps);
                }
                match LuFactor::new(&shifted) {
                    Ok(lu) => {
                        diag.attempts.push(FactorAttempt {
                            strategy: FactorStrategy::RegularizedDenseLu,
                            succeeded: true,
                        });
                        diag.regularization = Some(eps);
                        factor = Some(Factored::Dense(lu));
                        break;
                    }
                    Err(e) => {
                        diag.attempts.push(FactorAttempt {
                            strategy: FactorStrategy::RegularizedDenseLu,
                            succeeded: false,
                        });
                        last_err = Some(e.into());
                    }
                }
            }
        }

        if vpec_trace::enabled() {
            for a in &diag.attempts {
                let tag = if a.succeeded { "ok" } else { "failed" };
                vpec_trace::counter_add(
                    &format!("factor.attempt.{}.{tag}", a.strategy.label()),
                    1,
                );
            }
            if let Some(s) = diag.accepted() {
                sp.set_attr("strategy", s.label());
                sp.set_attr("fallback", diag.used_fallback());
            }
        }
        match factor {
            Some(f) => {
                let (cond, nnz) = match &f {
                    Factored::Dense(lu) => (lu.diag_condition_estimate(), dim * dim),
                    Factored::Sparse(lu) => (lu.diag_condition_estimate(), lu.factor_nnz()),
                };
                diag.condition_estimate = Some(cond);
                diag.factor_nnz = nnz;
                sp.set_attr("factor_nnz", nnz);
                Ok((f, diag))
            }
            None => Err(last_err.unwrap_or(CircuitError::SingularSystem { analysis: "solve" })),
        }
    }

    fn try_primary(
        csr: &CsrMatrix<T>,
        strategy: FactorStrategy,
    ) -> Result<Self, CircuitError> {
        match strategy {
            FactorStrategy::DenseLu | FactorStrategy::RegularizedDenseLu => {
                Ok(Factored::Dense(LuFactor::new(&csr.to_dense())?))
            }
            FactorStrategy::SparseLuNoOrdering => Ok(Factored::Sparse(SparseLu::new(csr)?)),
            FactorStrategy::SparseLu => Ok(Factored::Sparse(SparseLu::new_ordered(
                csr,
                &rcm_ordering(csr),
            )?)),
        }
    }

    /// Solves `A·x = b`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, CircuitError> {
        let mut x = Vec::with_capacity(b.len());
        let mut scratch = Vec::new();
        self.solve_into(b, &mut x, &mut scratch)?;
        Ok(x)
    }

    /// Solves `A·x = b` into caller-owned buffers. `x` receives the
    /// solution; `scratch` is the sparse sweeps' pivot-order working
    /// vector. Both reuse their capacity across calls — the transient
    /// loop calls this once per step, allocation-free once warm.
    pub fn solve_into(
        &self,
        b: &[T],
        x: &mut Vec<T>,
        scratch: &mut Vec<T>,
    ) -> Result<(), CircuitError> {
        match self {
            Factored::Dense(lu) => Ok(lu.solve_into(b, x)?),
            Factored::Sparse(lu) => Ok(lu.solve_into(b, x, scratch)?),
        }
    }

    /// `true` if the sparse backend was chosen.
    #[cfg(test)]
    pub fn is_sparse(&self) -> bool {
        matches!(self, Factored::Sparse(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag_coo(n: usize) -> CooMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
        }
        coo
    }

    #[test]
    fn solver_kind_grammar_round_trips() {
        assert_eq!(SolverKind::parse("auto").unwrap(), SolverKind::Auto);
        assert_eq!(SolverKind::parse("dense").unwrap(), SolverKind::Dense);
        assert_eq!(SolverKind::parse("sparse").unwrap(), SolverKind::Sparse);
        assert_eq!(
            SolverKind::parse("sparse-no-ordering").unwrap(),
            SolverKind::SparseNoOrdering
        );
        for removed in ["qr", "direct", "iterative"] {
            let err = SolverKind::parse(removed).unwrap_err();
            assert!(err.contains("unknown solver"), "{err}");
            assert!(err.contains("auto, dense, sparse, sparse-no-ordering"), "{err}");
        }
    }

    #[test]
    fn auto_uses_dense_for_small() {
        let f = Factored::factor(&diag_coo(8), SolverKind::Auto).unwrap();
        assert!(!f.is_sparse());
    }

    #[test]
    fn auto_uses_sparse_for_large_sparse() {
        let f = Factored::factor(&diag_coo(500), SolverKind::Auto).unwrap();
        assert!(f.is_sparse());
    }

    #[test]
    fn forced_kinds_respected() {
        assert!(Factored::factor(&diag_coo(8), SolverKind::Sparse)
            .unwrap()
            .is_sparse());
        assert!(!Factored::factor(&diag_coo(500), SolverKind::Dense)
            .unwrap()
            .is_sparse());
    }

    #[test]
    fn both_backends_agree() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        coo.push(2, 2, 1.0).unwrap();
        let b = [1.0, 2.0, 3.0];
        let xd = Factored::factor(&coo, SolverKind::Dense)
            .unwrap()
            .solve(&b)
            .unwrap();
        let xs = Factored::factor(&coo, SolverKind::Sparse)
            .unwrap()
            .solve(&b)
            .unwrap();
        for (u, v) in xd.iter().zip(xs.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn no_ordering_variant_agrees() {
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 3.0).unwrap();
        }
        coo.push(0, 3, 1.0).unwrap();
        coo.push(3, 0, 1.0).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0];
        let x1 = Factored::factor(&coo, SolverKind::Sparse)
            .unwrap()
            .solve(&b)
            .unwrap();
        let x2 = Factored::factor(&coo, SolverKind::SparseNoOrdering)
            .unwrap()
            .solve(&b)
            .unwrap();
        for (u, v) in x1.iter().zip(x2.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn every_accepted_factor_reports_its_evidence() {
        // Condition estimate and factor nnz come from the accepted factor,
        // whichever backend produced it.
        for (kind, nnz) in [
            (SolverKind::Dense, 25),
            (SolverKind::Sparse, 10),
            (SolverKind::SparseNoOrdering, 10),
        ] {
            let (_, diag) = Factored::factor_with(&diag_coo(5), FactorOptions::new(kind)).unwrap();
            assert_eq!(diag.condition_estimate, Some(1.0), "{kind:?}");
            assert_eq!(diag.factor_nnz, nnz, "{kind:?}");
        }
    }

    #[test]
    fn singular_maps_to_circuit_error() {
        let coo = CooMatrix::<f64>::new(2, 2); // all-zero matrix
        let err = Factored::factor(&coo, SolverKind::Dense).unwrap_err();
        assert!(matches!(err, CircuitError::SingularSystem { .. }));
    }

    #[test]
    fn sparse_failure_falls_back_to_dense() {
        // The sparse kernel does threshold pivoting, so genuine sparse-only
        // failures are rare; inject one to prove the chain recovers and
        // still produces the right answer.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        let opts = FactorOptions {
            kind: SolverKind::SparseNoOrdering,
            regularize: false,
            fail_primary: true,
        };
        let (f, diag) = Factored::factor_with(&coo, opts).unwrap();
        assert!(!f.is_sparse(), "fell back to dense");
        assert!(diag.used_fallback());
        assert_eq!(diag.accepted(), Some(FactorStrategy::DenseLu));
        let x = f.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn injected_primary_failure_engages_chain() {
        let opts = FactorOptions {
            kind: SolverKind::Sparse,
            regularize: false,
            fail_primary: true,
        };
        let (f, diag) = Factored::factor_with(&diag_coo(3), opts).unwrap();
        assert!(!f.is_sparse());
        assert_eq!(diag.attempts.len(), 2);
        assert!(!diag.attempts[0].succeeded);
        assert!(diag.attempts[1].succeeded);
        assert!(diag.condition_estimate.is_some());
    }

    #[test]
    fn singular_without_regularization_is_typed_error() {
        let coo = CooMatrix::<f64>::new(3, 3);
        let opts = FactorOptions::new(SolverKind::Sparse);
        let err = Factored::factor_with(&coo, opts).unwrap_err();
        assert!(matches!(err, CircuitError::SingularSystem { .. }));
    }

    #[test]
    fn singular_with_regularization_yields_solution() {
        let coo = CooMatrix::<f64>::new(3, 3); // exactly singular
        let opts = FactorOptions {
            kind: SolverKind::Dense,
            regularize: true,
            fail_primary: false,
        };
        let (f, diag) = Factored::factor_with(&coo, opts).unwrap();
        let eps = diag.regularization.expect("regularized stage used");
        assert!(eps > 0.0);
        let x = f.solve(&[1.0, 2.0, 3.0]).unwrap();
        // (0 + εI)·x = b → x = b/ε: finite, energy-bounded.
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x[0] * eps - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chain_is_bounded() {
        // Singular even after every stage with regularization disabled:
        // attempts must stay finite and terminate with an error.
        let coo = CooMatrix::<f64>::new(4, 4);
        let opts = FactorOptions {
            kind: SolverKind::Sparse,
            regularize: true,
            fail_primary: true,
        };
        // The all-zero matrix *is* regularizable, so this one succeeds —
        // but only after the bounded number of attempts.
        let (_, diag) = Factored::factor_with(&coo, opts).unwrap();
        assert!(diag.attempts.len() <= 2 + REGULARIZATION_STEPS as usize);
    }
}
