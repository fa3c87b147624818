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

    /// Computes `A⁻¹`.
    ///
    /// Numerical class: audited-close. On and below the diagonal, column
    /// `j` of the result is [`Cholesky::solve`] of the unit vector `e_j`,
    /// bit for bit; the upper triangle mirrors the lower, so the result
    /// is exactly symmetric.
    ///
    /// # Errors
    ///
    /// Cannot fail for a successfully constructed factorization; the
    /// `Result` mirrors [`Cholesky::solve`].
    pub fn inverse(&self) -> Result<DenseMatrix<f64>, NumericsError> {
        self.inverse_cancel(&CancelToken::none())
    }

    /// [`Cholesky::inverse`] with cooperative cancellation: the token is
    /// polled once per block of four inverse columns and a set token
    /// aborts with [`NumericsError::Cancelled`] — the deadline hook into
    /// the `S = L⁻¹` hot path of the full VPEC extraction.
    ///
    /// # Errors
    ///
    /// [`NumericsError::Cancelled`] when the token fires; otherwise cannot
    /// fail for a successfully constructed factorization.
    pub fn inverse_cancel(&self, cancel: &CancelToken) -> Result<DenseMatrix<f64>, NumericsError> {
        let n = self.dim();
        // Column j of A⁻¹ is needed from row j down only; symmetry gives
        // the rest. Columns 4b..4b+3 share one trailing solve over rows
        // 4b.. and are stored transposed, as rows 4b..4b+3 of the result,
        // so each block owns four contiguous rows and any worker count
        // gives the same bits. A skipped block leaves the flag set, and
        // the check below turns it into an error.
        let nt = pool::threads_for(n, pool::PAR_MIN_COLS);
        let _sp = vpec_trace::span!(
            "cholesky.inverse",
            "dim" => n,
            "mode" => if nt > 1 { "parallel" } else { "serial" },
            "workers" => nt,
        );
        let mut inv = DenseMatrix::zeros(n, n);
        Pool::with_threads(nt).par_chunks_mut(inv.as_mut_slice(), (4 * n).max(1), |off, rows| {
            if !cancel.is_cancelled() {
                self.trailing_block(off / n, rows);
            }
        });
        if cancel.is_cancelled() {
            return Err(NumericsError::Cancelled {
                op: "cholesky inverse",
            });
        }
        for i in 1..n {
            for j in 0..i {
                inv[(i, j)] = inv[(j, i)];
            }
        }
        Ok(inv)
    }

    /// Fills `rows` — rows `j0..` of the inverse, at most four — with
    /// columns `j0..` of `A⁻¹` from row `j0` down.
    fn trailing_block(&self, j0: usize, rows: &mut [f64]) {
        let mut it = rows.chunks_exact_mut(self.dim());
        match (it.next(), it.next(), it.next(), it.next()) {
            (Some(a), Some(b), Some(c), Some(d)) => self.trailing_solve(j0, [a, b, c, d]),
            (Some(a), Some(b), Some(c), None) => self.trailing_solve(j0, [a, b, c]),
            (Some(a), Some(b), None, _) => self.trailing_solve(j0, [a, b]),
            (Some(a), None, ..) => self.trailing_solve(j0, [a]),
            (None, ..) => {}
        }
    }

    /// Solves `A·x_c = e_{j0+c}` for each of the `R` vectors of `x`,
    /// computing entries `j0..` only. Entries above `j0` of `e_{j0+c}`'s
    /// solution play no part in those below: the forward sweep's are
    /// zero, and the back sweep of `Gᵀ·x = y` over rows `j0..` is a
    /// closed system. Every kept entry therefore takes exactly the
    /// operation sequence of [`Cholesky::solve`]; the `dot4` slices start
    /// at `j0`, a multiple of four, so the skipped terms were exact
    /// zeros in the same accumulator lanes.
    #[expect(
        clippy::disallowed_methods,
        reason = "Numerical class: audited-close (the forward sweep is Cholesky::solve's four-accumulator reduction)"
    )]
    fn trailing_solve<const R: usize>(&self, j0: usize, mut x: [&mut [f64]; R]) {
        let n = self.dim();
        for (c, xc) in x.iter_mut().enumerate() {
            xc[j0 + c] = 1.0;
        }
        for i in j0..n {
            let row = self.g.row(i);
            for xc in x.iter_mut() {
                let (solved, rest) = xc.split_at_mut(i);
                rest[0] = (rest[0] - kernel::dot4(&row[j0..i], &solved[j0..])) / row[i];
            }
        }
        for k in (j0..n).rev() {
            let row = self.g.row(k);
            for xc in x.iter_mut() {
                let xk = xc[k] / row[k];
                xc[k] = xk;
                for (xi, &gki) in xc[j0..k].iter_mut().zip(&row[j0..k]) {
                    *xi -= gki * xk;
                }
            }
        }
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

    #[test]
    fn token_cancelled_mid_inverse_aborts_it() {
        // Diagonally dominant, hence SPD. The barrier starts both threads
        // together and the token fires 2 ms in, while a 1024-column
        // inverse (tens of milliseconds even optimized) is still running.
        // Wherever the cancel lands before the end, the call must fail: a
        // block skipped by the poll would otherwise leave zeros behind.
        let n = 1024;
        let a = DenseMatrix::from_fn(n, n, |i, j| {
            1.0 / (1.0 + i.abs_diff(j) as f64) + if i == j { n as f64 } else { 0.0 }
        });
        let ch = Cholesky::new(&a).unwrap();
        let token = CancelToken::new();
        let started = std::sync::Barrier::new(2);
        let result = std::thread::scope(|s| {
            s.spawn(|| {
                started.wait();
                std::thread::sleep(std::time::Duration::from_millis(2));
                token.cancel();
            });
            started.wait();
            ch.inverse_cancel(&token)
        });
        assert!(token.is_cancelled());
        assert!(
            matches!(
                result,
                Err(NumericsError::Cancelled {
                    op: "cholesky inverse"
                })
            ),
            "a token fired mid-flight must abort the inverse, not return a partial S"
        );
    }
}
