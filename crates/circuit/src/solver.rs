//! The factorization **fallback chain** of every MNA system: stage 1 is
//! sparse Gilbert–Peierls LU, ordered by maximum transversal + AMD with
//! threshold pivoting, real and complex systems alike; when it fails,
//! stage 2 is dense LU with partial pivoting. Every system has both
//! stages, whatever its size or density; no caller picks a backend.
//!
//! The sparse primary mirrors the behaviour the paper attributes to
//! SPICE: "its internal sparse solver is more efficient for a less dense
//! matrix" — sparsified VPEC models profit from it, and dense PEEC
//! stamps end in a fully stored trailing block the sparse kernel
//! eliminates as slices. The recovery stage is this workspace's
//! production hardening: a near-singular MNA system degrades through the
//! chain and is reported in [`FactorDiagnostics`] instead of panicking or
//! silently emitting garbage.

use crate::diagnostics::{FactorAttempt, FactorDiagnostics, FactorStrategy};
use crate::error::CircuitError;
use vpec_numerics::ordering::FillOrdering;
use vpec_numerics::{CooMatrix, CsrMatrix, LuFactor, Scalar, SparseLu};

/// A factored MNA matrix ready for repeated solves.
#[derive(Debug)]
pub(crate) enum Factored<T: Scalar> {
    Dense(LuFactor<T>),
    /// Sparse LU with its fill-reducing ordering folded into its index
    /// maps.
    Sparse(SparseLu<T>),
}

impl<T: Scalar> Factored<T> {
    /// Factors the assembled system with the bounded fallback chain; see
    /// [`Factored::factor_with`].
    pub fn factor(coo: &CooMatrix<T>) -> Result<Self, CircuitError> {
        Self::factor_with(coo, false).map(|(f, _)| f)
    }

    /// Factors with the full fallback chain and returns what happened.
    ///
    /// Stages, in order (each runs at most once):
    ///
    /// 1. sparse LU, [`SparseLu::new_fill_reducing`]: a maximum
    ///    transversal and AMD, with diagonal-preferring threshold pivoting;
    /// 2. dense LU with partial pivoting, when stage 1 failed — dense
    ///    partial pivoting survives pivot sequences the sparse kernel's
    ///    pattern cannot reach.
    ///
    /// `fail_primary` is fault injection
    /// ([`crate::FaultInjection::fail_primary_factor`]): it reports stage 1
    /// as failed without running it. The returned [`FactorDiagnostics`]
    /// records every attempt and the condition estimate, stored nonzeros
    /// and off-diagonal pivots of the accepted factor.
    pub fn factor_with(
        coo: &CooMatrix<T>,
        fail_primary: bool,
    ) -> Result<(Self, FactorDiagnostics), CircuitError> {
        Self::factor_csr(&coo.to_csr(), fail_primary, None)
    }

    /// [`Factored::factor_with`] on a compressed matrix. `ordering` is a
    /// [`FillOrdering`] of `csr`'s pattern made beforehand (an AC sweep
    /// orders its pattern once for every point); `None` orders it here.
    /// Either way it is the same factor, bit for bit.
    pub(crate) fn factor_csr(
        csr: &CsrMatrix<T>,
        fail_primary: bool,
        ordering: Option<&FillOrdering>,
    ) -> Result<(Self, FactorDiagnostics), CircuitError> {
        let dim = csr.rows();
        let mut sp = vpec_trace::span!("factor", "dim" => dim);

        let mut diag = FactorDiagnostics::default();
        // Stage 1: sparse LU.
        let sparse = if fail_primary {
            Err(CircuitError::SingularSystem { analysis: "solve" })
        } else {
            match ordering {
                None => SparseLu::new_fill_reducing(csr),
                Some(o) => SparseLu::with_ordering(csr, o),
            }
            .map_err(CircuitError::from)
        };
        diag.attempts.push(FactorAttempt {
            strategy: FactorStrategy::SparseLu,
            succeeded: sparse.is_ok(),
        });
        // Stage 2, only when stage 1 failed: dense LU with partial
        // pivoting. Its error is the one reported when both fail.
        let factored = sparse.map(Factored::Sparse).or_else(|_| {
            let dense = LuFactor::new(&csr.to_dense());
            diag.attempts.push(FactorAttempt {
                strategy: FactorStrategy::DenseLu,
                succeeded: dense.is_ok(),
            });
            Ok::<_, CircuitError>(Factored::Dense(dense?))
        });

        if let Some(s) = diag.accepted() {
            sp.set_attr("strategy", s.label());
            sp.set_attr("fallback", diag.used_fallback());
        }
        let f = factored?;
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
        if let Factored::Sparse(lu) = &f {
            sp.set_attr("off_diagonal_pivots", off_diagonal);
            sp.set_attr("dense_block", lu.dense_block());
        }
        Ok((f, diag))
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
    fn every_size_factors_sparse_first() {
        // Stage 1 is sparse LU at every size, small systems included, and
        // the accepted factor reports its evidence.
        for dim in [5, 8, 64, 65, 100, 500] {
            let (f, diag) = Factored::factor_with(&diag_coo(dim), false).unwrap();
            assert!(f.is_sparse(), "{dim}");
            assert_eq!(diag.attempts.len(), 1, "{dim}");
            assert_eq!(diag.accepted(), Some(FactorStrategy::SparseLu), "{dim}");
            assert_eq!(diag.condition_estimate, Some(1.0), "{dim}");
            assert_eq!(diag.factor_nnz, 2 * dim, "{dim}");
            assert_eq!(diag.off_diagonal_pivots, 0, "{dim}");
        }
    }

    #[test]
    fn both_backends_agree() {
        // The 10 × 10 grid (dim 100) factors sparse; the injected primary
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

    /// The 5-point Laplacian of a `rows × cols` grid, numbered row-major.
    fn grid(rows: usize, cols: usize) -> CooMatrix<f64> {
        let mut coo = CooMatrix::new(rows * cols, rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                coo.push(v, v, 4.0).unwrap();
                for u in [
                    (c + 1 < cols).then(|| v + 1),
                    (r + 1 < rows).then(|| v + cols),
                ]
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
    fn injected_primary_failure_recovers_through_dense_lu_at_any_size() {
        // The sparse kernel does threshold pivoting, so genuine sparse-only
        // failures are rare; inject one to prove the chain recovers, on
        // small systems as on large ones, with the right answer.
        for dim in [2, 8, 64, 100] {
            let (f, diag) = Factored::factor_with(&swapped_pairs(dim), true).unwrap();
            assert!(!f.is_sparse(), "{dim}");
            assert_eq!(diag.attempts.len(), 2, "{dim}");
            assert_eq!(diag.attempts[0].strategy, FactorStrategy::SparseLu);
            assert!(!diag.attempts[0].succeeded, "{dim}");
            assert_eq!(diag.accepted(), Some(FactorStrategy::DenseLu), "{dim}");
            assert_eq!(diag.factor_nnz, dim * dim, "{dim}");
            let b: Vec<f64> = (0..dim).map(|i| i as f64).collect();
            let x = f.solve(&b).unwrap();
            for i in (0..dim).step_by(2) {
                assert_eq!((x[i], x[i + 1]), (b[i + 1], b[i]), "{dim}");
            }
        }
    }

    #[test]
    fn singular_system_is_typed_error_after_the_whole_chain() {
        // All-zero: sparse LU fails, then dense LU does, at any size.
        for dim in [2, 100] {
            let coo = CooMatrix::<f64>::new(dim, dim);
            let err = Factored::factor_with(&coo, false).unwrap_err();
            assert!(matches!(err, CircuitError::SingularSystem { .. }), "{dim}");
        }
    }
}
