//! Dense Cholesky factorization for symmetric positive-definite matrices.
//!
//! Plays two roles in the VPEC flow:
//!
//! * **Extraction** — the partial-inductance matrix `L` and the coupling-
//!   window submatrices `L⁽ᵐ⁾` are s.p.d., so Cholesky is the natural (and
//!   2× cheaper) factorization for the inversion and windowed solves.
//! * **Passivity verification** — a matrix is positive definite iff its
//!   Cholesky factorization succeeds, which is exactly how the passivity
//!   checker certifies Theorem 1 (`Ĝ` positive definite) on concrete models.

use crate::cancel::CancelToken;
use crate::kernel;
use crate::pool::{self, Pool};
use crate::{DenseMatrix, NumericsError};

/// Cholesky factorization `A = G·Gᵀ` of a symmetric positive-definite real
/// matrix (G lower-triangular).
///
/// # Example
///
/// ```
/// use vpec_numerics::{Cholesky, DenseMatrix};
///
/// # fn main() -> Result<(), vpec_numerics::NumericsError> {
/// let a = DenseMatrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let ch = Cholesky::new(&a)?;
/// let x = ch.solve(&[1.0, 0.0])?;
/// assert!((4.0 * x[0] + 2.0 * x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored densely (upper part zero).
    g: DenseMatrix<f64>,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the input is the
    /// caller's responsibility (use [`DenseMatrix::is_symmetric`] to check).
    ///
    /// # Errors
    ///
    /// * [`NumericsError::NotSquare`] if `a` is not square.
    /// * [`NumericsError::NotPositiveDefinite`] if a diagonal pivot is not
    ///   strictly positive — i.e. the matrix fails the passivity criterion.
    pub fn new(a: &DenseMatrix<f64>) -> Result<Self, NumericsError> {
        Self::with_threads(a, pool::max_threads())
    }

    /// Factors with an explicit worker count (`1` forces the serial
    /// left-looking elimination). Results are bit-identical for any thread
    /// count — the blocked path distributes trailing-submatrix rows over
    /// workers without changing per-row arithmetic order.
    ///
    /// # Errors
    ///
    /// Same as [`Cholesky::new`].
    pub fn with_threads(a: &DenseMatrix<f64>, threads: usize) -> Result<Self, NumericsError> {
        Self::with_threads_cancel(a, threads, &CancelToken::none())
    }

    /// [`Cholesky::with_threads`] with cooperative cancellation: the token
    /// is polled once per elimination column and a set token aborts with
    /// [`NumericsError::Cancelled`]. This is the engine's deadline hook
    /// into the `O(N³)` factor phase.
    ///
    /// # Errors
    ///
    /// Same as [`Cholesky::new`], plus [`NumericsError::Cancelled`].
    pub fn with_threads_cancel(
        a: &DenseMatrix<f64>,
        threads: usize,
        cancel: &CancelToken,
    ) -> Result<Self, NumericsError> {
        if !a.is_square() {
            return Err(NumericsError::NotSquare {
                found: (a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let _sp = vpec_trace::span!(
            "cholesky.factor",
            "dim" => n,
            "mode" => pool::elim_mode(n),
        );
        let mut g = DenseMatrix::<f64>::zeros(n, n);
        pool::cholesky_eliminate_cancel(a.as_slice(), g.as_mut_slice(), n, threads, cancel)?;
        Ok(Cholesky { g })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.g.rows()
    }

    /// The lower-triangular factor `G`.
    pub fn factor(&self) -> &DenseMatrix<f64> {
        &self.g
    }

    /// Solves `A·x = b` via `G·y = b`, `Gᵀ·x = y`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b.len() != dim()`.
    ///
    /// Numerical class: audited-close (the forward sweep reduces rows
    /// with the four-accumulator `kernel::dot4`).
    #[expect(
        clippy::disallowed_methods,
        reason = "Numerical class: audited-close (the forward sweep reduces rows with four accumulators)"
    )]
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        let n = self.dim();
        if b.len() != n {
            return Err(NumericsError::DimensionMismatch {
                op: "cholesky solve",
                expected: (n, 1),
                found: (b.len(), 1),
            });
        }
        let mut x = b.to_vec();
        // Forward sweep G·y = b, reducing each row slice against the
        // solved prefix of x with the four-accumulator `kernel::dot4`
        // (audited-close reassociation, deterministic per input).
        for i in 0..n {
            let (solved, rest) = x.split_at_mut(i);
            let row = self.g.row(i);
            rest[0] = (rest[0] - kernel::dot4(&row[..i], solved)) / row[i];
        }
        // Back sweep Gᵀ·x = y in saxpy form: as each xⱼ finalizes, its
        // contribution is swept into the remaining prefix using row j of G
        // as a contiguous slice (instead of striding down column j).
        for j in (0..n).rev() {
            let row = self.g.row(j);
            let xj = x[j] / row[j];
            x[j] = xj;
            for (xi, &gji) in x[..j].iter_mut().zip(row[..j].iter()) {
                *xi -= gji * xj;
            }
        }
        Ok(x)
    }

    /// Computes `A⁻¹` column by column.
    ///
    /// # Errors
    ///
    /// Cannot fail for a successfully constructed factorization; the
    /// `Result` mirrors [`Cholesky::solve`].
    pub fn inverse(&self) -> Result<DenseMatrix<f64>, NumericsError> {
        self.inverse_cancel(&CancelToken::none())
    }

    /// [`Cholesky::inverse`] with cooperative cancellation: the token is
    /// polled once per inverse column and a set token aborts with
    /// [`NumericsError::Cancelled`] — the deadline hook into the
    /// `S = L⁻¹` hot path of the full VPEC extraction.
    ///
    /// # Errors
    ///
    /// [`NumericsError::Cancelled`] when the token fires; otherwise cannot
    /// fail for a successfully constructed factorization.
    pub fn inverse_cancel(&self, cancel: &CancelToken) -> Result<DenseMatrix<f64>, NumericsError> {
        let n = self.dim();
        // Columns of the inverse are independent unit-vector solves — the
        // `S = L⁻¹` hot path of the full VPEC extraction. par_map_index is
        // order-preserving, so the result matches the serial loop exactly.
        // A cancelled column returns empty and the flag is re-checked
        // below, so late cancellation skips the remaining O(n²) solves.
        let nt = pool::threads_for(n, pool::PAR_MIN_COLS);
        let _sp = vpec_trace::span!(
            "cholesky.inverse",
            "dim" => n,
            "mode" => if nt > 1 { "parallel" } else { "serial" },
            "workers" => nt,
        );
        let cols = Pool::with_threads(nt).par_map_index(n, |j| {
            if cancel.is_cancelled() {
                return Ok(Vec::new());
            }
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            self.solve(&e)
        });
        if cancel.is_cancelled() {
            return Err(NumericsError::Cancelled {
                op: "cholesky inverse",
            });
        }
        let mut inv = DenseMatrix::zeros(n, n);
        for (j, col) in cols.into_iter().enumerate() {
            for (i, v) in col?.into_iter().enumerate() {
                inv[(i, j)] = v;
            }
        }
        Ok(inv)
    }

    /// Log-determinant of `A` (numerically robust for large matrices).
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.g[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Convenience: `true` iff `a` is symmetric (to `sym_tol`) and positive
    /// definite. This is the concrete passivity test used throughout the
    /// VPEC crates.
    pub fn is_spd(a: &DenseMatrix<f64>, sym_tol: f64) -> bool {
        a.is_symmetric(sym_tol) && Cholesky::new(a).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> DenseMatrix<f64> {
        DenseMatrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ])
        .unwrap()
    }

    #[test]
    fn factors_known_matrix() {
        // Classic example: G = [[2,0,0],[6,1,0],[-8,5,3]].
        let ch = Cholesky::new(&spd3()).unwrap();
        let g = ch.factor();
        assert!((g[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((g[(1, 0)] - 6.0).abs() < 1e-12);
        assert!((g[(1, 1)] - 1.0).abs() < 1e-12);
        assert!((g[(2, 0)] + 8.0).abs() < 1e-12);
        assert!((g[(2, 1)] - 5.0).abs() < 1e-12);
        assert!((g[(2, 2)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_reconstructs_rhs() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let b = [1.0, -2.0, 3.5];
        let x = ch.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (u, v) in back.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(NumericsError::NotPositiveDefinite { row: 1 })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = DenseMatrix::<f64>::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&a),
            Err(NumericsError::NotSquare { .. })
        ));
    }

    #[test]
    fn inverse_is_correct() {
        let a = spd3();
        let inv = Cholesky::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&DenseMatrix::identity(3)).unwrap() < 1e-9);
    }

    #[test]
    fn log_det_matches_lu_det() {
        let a = spd3();
        let ld = Cholesky::new(&a).unwrap().log_det();
        let det = crate::LuFactor::new(&a).unwrap().det();
        assert!((ld - det.ln()).abs() < 1e-9);
    }

    #[test]
    fn spd_predicate() {
        assert!(Cholesky::is_spd(&spd3(), 1e-12));
        let asym = DenseMatrix::from_rows(&[&[2.0, 1.0], &[0.0, 2.0]]).unwrap();
        assert!(!Cholesky::is_spd(&asym, 1e-12));
        let indef = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!(!Cholesky::is_spd(&indef, 1e-12));
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let ch = Cholesky::new(&DenseMatrix::identity(3)).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
    }

    #[test]
    fn cancelled_token_aborts_factor_and_inverse() {
        let t = CancelToken::new();
        t.cancel();
        assert!(matches!(
            Cholesky::with_threads_cancel(&spd3(), 1, &t),
            Err(NumericsError::Cancelled { .. })
        ));
        let ch = Cholesky::new(&spd3()).unwrap();
        assert!(matches!(
            ch.inverse_cancel(&t),
            Err(NumericsError::Cancelled { .. })
        ));
        // A disarmed token changes nothing.
        let inv = ch.inverse_cancel(&CancelToken::none()).unwrap();
        assert_eq!(inv, ch.inverse().unwrap());
    }
}
