//! Linear-solver selection and the factorization **fallback chain**:
//! dense LU for small/dense MNA systems, sparse Gilbert–Peierls LU
//! otherwise — ordered by maximum transversal + AMD for real-valued
//! systems, by RCM for the complex AC ones — and when the sparse backend
//! fails, dense LU with partial pivoting. The choice is the code's, from
//! dimension, density and scalar type; no caller picks it.
//!
//! The backend split mirrors the behaviour the paper attributes to
//! SPICE: "its internal sparse solver is more efficient for a less dense
//! matrix" — sparsified VPEC models get the sparse path and profit,
//! dense PEEC stamps fall back to dense elimination. The recovery chain
//! is this workspace's production hardening: a near-singular MNA system
//! degrades through the chain and is reported in [`FactorDiagnostics`]
//! instead of panicking or silently emitting garbage.

use crate::diagnostics::{FactorAttempt, FactorDiagnostics, FactorStrategy, SparseOrdering};
use crate::error::CircuitError;
use vpec_numerics::{CooMatrix, CsrMatrix, LuFactor, Scalar, SparseLu};

/// A factored MNA matrix ready for repeated solves.
#[derive(Debug)]
pub(crate) enum Factored<T: Scalar> {
    Dense(LuFactor<T>),
    /// Sparse LU with any fill-reducing ordering folded into its index
    /// maps.
    Sparse(SparseLu<T>),
}

impl<T: Scalar> Factored<T> {
    /// Factors the assembled system with the bounded fallback chain; see
    /// [`Factored::factor_with`].
    pub fn factor(coo: &CooMatrix<T>) -> Result<Self, CircuitError> {
        Self::factor_with(coo, false).map(|(f, _)| f)
    }

    /// The primary backend for `csr`: dense LU for small or dense
    /// systems, sparse LU otherwise.
    pub(crate) fn primary_strategy(csr: &CsrMatrix<T>) -> FactorStrategy {
        let dim = csr.rows();
        if dim <= 64 || (csr.density() > 0.15 && dim <= 2048) {
            FactorStrategy::DenseLu
        } else {
            FactorStrategy::SparseLu
        }
    }

    /// Factors with the full fallback chain and returns what happened.
    ///
    /// Stages, in order (each runs at most once):
    ///
    /// 1. the primary backend of [`Factored::primary_strategy`]. A
    ///    sparse primary is [`SparseLu::new_fill_reducing`]: maximum
    ///    transversal + AMD with diagonal-preferring threshold pivoting;
    /// 2. dense LU with partial pivoting, when the primary was sparse —
    ///    dense partial pivoting survives pivot sequences the sparse
    ///    kernel's pattern cannot reach.
    ///
    /// `fail_primary` is fault injection
    /// ([`crate::FaultInjection::fail_primary_factor`]): it reports stage 1
    /// as failed without running it. The returned [`FactorDiagnostics`]
    /// records every attempt and the condition estimate, stored nonzeros,
    /// ordering and off-diagonal pivots of the accepted factor.
    pub fn factor_with(
        coo: &CooMatrix<T>,
        fail_primary: bool,
    ) -> Result<(Self, FactorDiagnostics), CircuitError> {
        Self::factor_csr(&coo.to_csr(), fail_primary, None)
    }

    /// [`Factored::factor_with`] on a compressed matrix. `rcm: Some(perm)`
    /// orders a sparse primary by that RCM ordering of `csr`'s pattern,
    /// with full partial pivoting, as the complex AC factors do; `None`
    /// takes transversal + AMD.
    pub(crate) fn factor_csr(
        csr: &CsrMatrix<T>,
        fail_primary: bool,
        rcm: Option<&[usize]>,
    ) -> Result<(Self, FactorDiagnostics), CircuitError> {
        let dim = csr.rows();
        let mut sp = vpec_trace::span!("factor", "dim" => dim);
        let primary_strategy = Self::primary_strategy(csr);

        let mut diag = FactorDiagnostics::default();
        let mut last_err: Option<CircuitError> = None;

        // Stage 1: the primary backend.
        let mut factor: Option<Factored<T>> = if fail_primary {
            last_err = Some(CircuitError::SingularSystem { analysis: "solve" });
            diag.attempts.push(FactorAttempt {
                strategy: primary_strategy,
                succeeded: false,
            });
            None
        } else {
            let (outcome, err) = match Self::try_primary(csr, primary_strategy, rcm) {
                Ok((f, ordering)) => {
                    diag.ordering = ordering;
                    (Some(f), None)
                }
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
                let (cond, nnz, off_diagonal) = match &f {
                    Factored::Dense(lu) => (lu.diag_condition_estimate(), dim * dim, 0),
                    Factored::Sparse(lu) => (
                        lu.diag_condition_estimate(),
                        lu.factor_nnz(),
                        lu.off_diagonal_pivots(),
                    ),
                };
                diag.condition_estimate = Some(cond);
                diag.factor_nnz = nnz;
                diag.off_diagonal_pivots = off_diagonal;
                sp.set_attr("factor_nnz", nnz);
                if let Some(o) = diag.ordering {
                    sp.set_attr("ordering", o.label());
                    sp.set_attr("off_diagonal_pivots", off_diagonal);
                }
                Ok((f, diag))
            }
            None => Err(last_err.unwrap_or(CircuitError::SingularSystem { analysis: "solve" })),
        }
    }

    fn try_primary(
        csr: &CsrMatrix<T>,
        strategy: FactorStrategy,
        rcm: Option<&[usize]>,
    ) -> Result<(Self, Option<SparseOrdering>), CircuitError> {
        match strategy {
            FactorStrategy::DenseLu => Ok((Factored::Dense(LuFactor::new(&csr.to_dense())?), None)),
            FactorStrategy::SparseLu => {
                let (lu, ordering) = match rcm {
                    None => (SparseLu::new_fill_reducing(csr)?, SparseOrdering::Amd),
                    Some(perm) => (SparseLu::new_ordered(csr, perm)?, SparseOrdering::Rcm),
                };
                Ok((Factored::Sparse(lu), Some(ordering)))
            }
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

    /// `n` (even) unknowns coupled in swapped pairs: every diagonal entry
    /// is zero, so each pivot sits off the diagonal.
    fn swapped_pairs(n: usize) -> CooMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in (0..n).step_by(2) {
            coo.push(i, i + 1, 1.0).unwrap();
            coo.push(i + 1, i, 1.0).unwrap();
        }
        coo
    }

    #[test]
    fn auto_uses_dense_for_small() {
        let f = Factored::factor(&diag_coo(8)).unwrap();
        assert!(!f.is_sparse());
    }

    #[test]
    fn auto_uses_sparse_for_large_sparse() {
        let f = Factored::factor(&diag_coo(500)).unwrap();
        assert!(f.is_sparse());
    }

    #[test]
    fn both_backends_agree() {
        // The 10 × 10 grid (dim 100) goes sparse; the injected primary
        // failure gives the dense-LU reference for the same system.
        let coo = grid(10, 10);
        let b: Vec<f64> = (0..100).map(|i| 1.0 + i as f64).collect();
        let (sparse, ds) = Factored::factor_with(&coo, false).unwrap();
        let (dense, dd) = Factored::factor_with(&coo, true).unwrap();
        assert_eq!(ds.accepted(), Some(FactorStrategy::SparseLu));
        assert_eq!(dd.accepted(), Some(FactorStrategy::DenseLu));
        let xs = sparse.solve(&b).unwrap();
        let xd = dense.solve(&b).unwrap();
        for (u, v) in xd.iter().zip(xs.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn every_accepted_factor_reports_its_evidence() {
        // Condition estimate and factor nnz come from the accepted factor,
        // whichever backend produced it.
        for (dim, strategy, nnz, ordering) in [
            (5, FactorStrategy::DenseLu, 25, None),
            (100, FactorStrategy::SparseLu, 200, Some(SparseOrdering::Amd)),
        ] {
            let (_, diag) = Factored::factor_with(&diag_coo(dim), false).unwrap();
            assert_eq!(diag.accepted(), Some(strategy), "{dim}");
            assert_eq!(diag.condition_estimate, Some(1.0), "{dim}");
            assert_eq!(diag.factor_nnz, nnz, "{dim}");
            assert_eq!(diag.ordering, ordering, "{dim}");
            assert_eq!(diag.off_diagonal_pivots, 0, "{dim}");
        }
    }

    /// The 5-point Laplacian of a `rows × cols` grid, numbered row-major.
    fn grid(rows: usize, cols: usize) -> CooMatrix<f64> {
        let mut coo = CooMatrix::new(rows * cols, rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                coo.push(v, v, 4.0).unwrap();
                for u in [(c + 1 < cols).then(|| v + 1), (r + 1 < rows).then(|| v + cols)]
                    .into_iter()
                    .flatten()
                {
                    coo.push(v, u, -1.0).unwrap();
                    coo.push(u, v, -1.0).unwrap();
                }
            }
        }
        coo
    }

    #[test]
    fn singular_maps_to_circuit_error() {
        let coo = CooMatrix::<f64>::new(2, 2); // all-zero matrix
        assert_eq!(Factored::primary_strategy(&coo.to_csr()), FactorStrategy::DenseLu);
        let err = Factored::factor(&coo).unwrap_err();
        assert!(matches!(err, CircuitError::SingularSystem { .. }));
    }

    #[test]
    fn sparse_failure_falls_back_to_dense() {
        // The sparse kernel does threshold pivoting, so genuine sparse-only
        // failures are rare; inject one to prove the chain recovers and
        // still produces the right answer.
        let coo = swapped_pairs(100);
        let (f, diag) = Factored::factor_with(&coo, true).unwrap();
        assert!(!f.is_sparse(), "fell back to dense");
        assert!(diag.used_fallback());
        assert_eq!(diag.accepted(), Some(FactorStrategy::DenseLu));
        let b: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let x = f.solve(&b).unwrap();
        for i in (0..100).step_by(2) {
            assert!((x[i] - b[i + 1]).abs() < 1e-12 && (x[i + 1] - b[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn injected_primary_failure_engages_chain() {
        let (f, diag) = Factored::factor_with(&diag_coo(100), true).unwrap();
        assert!(!f.is_sparse());
        assert_eq!(diag.attempts.len(), 2);
        assert_eq!(diag.attempts[0].strategy, FactorStrategy::SparseLu);
        assert!(!diag.attempts[0].succeeded);
        assert!(diag.attempts[1].succeeded);
        assert!(diag.condition_estimate.is_some());
    }

    #[test]
    fn singular_system_is_typed_error_after_the_whole_chain() {
        // All-zero and dim 100: sparse LU fails, then dense LU does.
        let coo = CooMatrix::<f64>::new(100, 100);
        assert_eq!(Factored::primary_strategy(&coo.to_csr()), FactorStrategy::SparseLu);
        let err = Factored::factor_with(&coo, false).unwrap_err();
        assert!(matches!(err, CircuitError::SingularSystem { .. }));
    }
}
