//! Dense LU factorization with partial pivoting.
//!
//! The full-VPEC extraction inverts the partial-inductance matrix `L`
//! (paper §II-B: "the major computation effort is the inversion of the L
//! matrix"); this factorization is the `O(N³)` workhorse whose cost the
//! windowed wVPEC extraction is designed to avoid.

use crate::cancel::CancelToken;
use crate::kernel;
use crate::pool::{self, Pool};
use crate::{DenseMatrix, NumericsError, Scalar};

/// An LU factorization `P·A = L·U` with partial (row) pivoting.
///
/// # Example
///
/// ```
/// use vpec_numerics::{DenseMatrix, LuFactor};
///
/// # fn main() -> Result<(), vpec_numerics::NumericsError> {
/// let a = DenseMatrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]])?;
/// let lu = LuFactor::new(&a)?;
/// let x = lu.solve(&[2.0, 3.0])?;
/// assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct LuFactor<T = f64> {
    /// Packed L (unit lower, below diagonal) and U (upper incl. diagonal).
    lu: DenseMatrix<T>,
    /// Row permutation: `perm[k]` is the original row now in position `k`.
    perm: Vec<usize>,
    /// Sign of the permutation (`+1` or `-1`), for determinants.
    perm_sign: f64,
}

impl<T: Scalar> std::fmt::Debug for LuFactor<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LuFactor")
            .field("dim", &self.lu.rows())
            .field("perm", &self.perm)
            .field("perm_sign", &self.perm_sign)
            .finish()
    }
}

impl<T: Scalar> LuFactor<T> {
    /// Factors `A` in-place-on-a-copy with partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::NotSquare`] if `A` is not square.
    /// * [`NumericsError::Singular`] if a pivot column is exactly zero below
    ///   the diagonal.
    pub fn new(a: &DenseMatrix<T>) -> Result<Self, NumericsError> {
        Self::with_threads(a, pool::max_threads())
    }

    /// Factors `A` with an explicit worker count (`1` forces the serial
    /// elimination). Results are bit-identical for any thread count — the
    /// blocked path distributes trailing-submatrix rows over workers
    /// without changing per-row arithmetic order.
    ///
    /// # Errors
    ///
    /// Same as [`LuFactor::new`].
    pub fn with_threads(a: &DenseMatrix<T>, threads: usize) -> Result<Self, NumericsError> {
        Self::with_threads_cancel(a, threads, &CancelToken::none())
    }

    /// [`LuFactor::with_threads`] with cooperative cancellation: the token
    /// is polled once per elimination column and a set token aborts with
    /// [`NumericsError::Cancelled`]. This is the engine's deadline hook
    /// into the `O(N³)` factor phase.
    ///
    /// # Errors
    ///
    /// Same as [`LuFactor::new`], plus [`NumericsError::Cancelled`].
    pub fn with_threads_cancel(
        a: &DenseMatrix<T>,
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
            "lu.factor",
            "dim" => n,
            "mode" => pool::elim_mode(n),
        );
        let mut lu = a.clone();
        let (perm, perm_sign) = pool::lu_eliminate_cancel(lu.as_mut_slice(), n, threads, cancel)?;
        Ok(LuFactor { lu, perm, perm_sign })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, NumericsError> {
        let mut x = Vec::with_capacity(self.dim());
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` into a caller-owned buffer, reusing its capacity.
    ///
    /// The transient inner loop calls this once per time step; reusing the
    /// buffer avoids a per-step allocation.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve_into(&self, b: &[T], x: &mut Vec<T>) -> Result<(), NumericsError> {
        let n = self.dim();
        if b.len() != n {
            return Err(NumericsError::DimensionMismatch {
                op: "lu solve",
                expected: (n, 1),
                found: (b.len(), 1),
            });
        }
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        self.substitute_in_place(x);
        vpec_trace::counter_add("lu.solve.count", 1);
        Ok(())
    }

    /// Forward/back substitution on an already-permuted right-hand side.
    /// Both sweeps reduce a row slice against the solved prefix/suffix of
    /// `x` with the four-accumulator [`kernel::dot4`] — an audited-close
    /// reassociation of the serial sum, deterministic for a given input.
    ///
    /// Numerical class: audited-close.
    #[expect(
        clippy::disallowed_methods,
        reason = "Numerical class: audited-close (both sweeps reduce rows with four accumulators)"
    )]
    fn substitute_in_place(&self, x: &mut [T]) {
        let n = x.len();
        for i in 1..n {
            let (solved, rest) = x.split_at_mut(i);
            let row = self.lu.row(i);
            rest[0] -= kernel::dot4(&row[..i], solved);
        }
        for i in (0..n).rev() {
            let (head, solved) = x.split_at_mut(i + 1);
            let row = self.lu.row(i);
            head[i] = (head[i] - kernel::dot4(&row[i + 1..], solved)) / row[i];
        }
    }

    /// Solves for several right-hand sides given as columns of `B`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `B.rows() != dim()`.
    pub fn solve_matrix(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>, NumericsError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(NumericsError::DimensionMismatch {
                op: "lu solve_matrix",
                expected: (n, b.cols()),
                found: (b.rows(), b.cols()),
            });
        }
        self.solve_columns(b, &CancelToken::none())
    }

    /// The column loop behind [`LuFactor::solve_matrix`] and
    /// [`LuFactor::inverse_cancel`]. Columns are independent solves; map
    /// them in parallel (order-preserving, so results match the serial
    /// column-by-column loop exactly) and gather into the output. `cancel`
    /// is polled once per column: a cancelled column returns empty and the
    /// flag is re-checked below, so late cancellation skips the remaining
    /// O(n²) substitutions.
    fn solve_columns(
        &self,
        b: &DenseMatrix<T>,
        cancel: &CancelToken,
    ) -> Result<DenseMatrix<T>, NumericsError> {
        let nt = pool::threads_for(b.cols(), pool::PAR_MIN_COLS);
        let _sp = vpec_trace::span!(
            "lu.solve_matrix",
            "cols" => b.cols(),
            "mode" => if nt > 1 { "parallel" } else { "serial" },
            "workers" => nt,
        );
        let cols = Pool::with_threads(nt).par_map_index(b.cols(), |j| {
            if cancel.is_cancelled() {
                return Vec::new();
            }
            let mut x: Vec<T> = self.perm.iter().map(|&p| b[(p, j)]).collect();
            self.substitute_in_place(&mut x);
            x
        });
        if cancel.is_cancelled() {
            return Err(NumericsError::Cancelled { op: "lu inverse" });
        }
        let mut out = DenseMatrix::zeros(b.rows(), b.cols());
        for (j, x) in cols.iter().enumerate() {
            for (i, v) in x.iter().enumerate() {
                out[(i, j)] = *v;
            }
        }
        Ok(out)
    }

    /// Computes `A⁻¹` by solving against the identity.
    ///
    /// This is the paper's "inversion-based VPEC" step: `S = L⁻¹`.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (cannot occur for a successfully factored
    /// matrix of matching dimension).
    pub fn inverse(&self) -> Result<DenseMatrix<T>, NumericsError> {
        self.solve_matrix(&DenseMatrix::identity(self.dim()))
    }

    /// [`LuFactor::inverse`] with cooperative cancellation: the token is
    /// polled once per inverse column and a set token aborts with
    /// [`NumericsError::Cancelled`].
    ///
    /// # Errors
    ///
    /// [`NumericsError::Cancelled`] when the token fires; otherwise same
    /// as [`LuFactor::inverse`].
    pub fn inverse_cancel(&self, cancel: &CancelToken) -> Result<DenseMatrix<T>, NumericsError> {
        self.solve_columns(&DenseMatrix::identity(self.dim()), cancel)
    }

    /// Determinant of `A` (product of U's diagonal times permutation sign).
    pub fn det(&self) -> T {
        let mut d = T::from_f64(self.perm_sign);
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// A cheap condition estimate: `max|uᵢᵢ| / min|uᵢᵢ|` over U's diagonal.
    ///
    /// Not a rigorous condition number, but a useful smell test for the
    /// near-singular inductance matrices produced by degenerate geometry.
    pub fn diag_condition_estimate(&self) -> f64 {
        diag_ratio((0..self.dim()).map(|i| self.lu[(i, i)]))
    }
}

/// `max|dᵢ| / min|dᵢ|` over a factor's U diagonal (∞ when some `dᵢ` is
/// zero) — the condition estimate both LU kernels report.
pub(crate) fn diag_ratio<T: Scalar>(diag: impl Iterator<Item = T>) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for d in diag {
        let m = d.modulus();
        lo = lo.min(m);
        hi = hi.max(m);
    }
    if lo == 0.0 {
        f64::INFINITY
    } else {
        hi / lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn solves_known_system() {
        let a = DenseMatrix::from_rows(&[
            &[2.0, 1.0, -1.0],
            &[-3.0, -1.0, 2.0],
            &[-2.0, 1.0, 2.0],
        ])
        .unwrap();
        let lu = LuFactor::new(&a).unwrap();
        let x = lu.solve(&[8.0, -11.0, -3.0]).unwrap();
        // Classic system with solution (2, 3, -1).
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = LuFactor::new(&a).unwrap();
        let x = lu.solve(&[5.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 5.0]);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            LuFactor::new(&a),
            Err(NumericsError::Singular { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a = DenseMatrix::<f64>::zeros(2, 3);
        assert!(matches!(
            LuFactor::new(&a),
            Err(NumericsError::NotSquare { .. })
        ));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = DenseMatrix::from_rows(&[
            &[4.0, -2.0, 1.0],
            &[-2.0, 4.0, -2.0],
            &[1.0, -2.0, 4.0],
        ])
        .unwrap();
        let inv = LuFactor::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let eye = DenseMatrix::identity(3);
        assert!(prod.max_abs_diff(&eye).unwrap() < 1e-12);
    }

    #[test]
    fn determinant_matches_hand_computation() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let lu = LuFactor::new(&a).unwrap();
        assert!((lu.det() + 2.0).abs() < 1e-12);
    }

    #[test]
    fn complex_solve() {
        let a = DenseMatrix::from_rows(&[
            &[Complex64::new(1.0, 1.0), Complex64::ZERO],
            &[Complex64::ONE, Complex64::I],
        ])
        .unwrap();
        let lu = LuFactor::new(&a).unwrap();
        let b = [Complex64::new(2.0, 2.0), Complex64::new(1.0, 1.0)];
        let x = lu.solve(&b).unwrap();
        // x0 = (2+2i)/(1+i) = 2; x1 = (1+i-2)/i = (-1+i)/i = 1+i... check:
        // i*x1 = b1 - x0 = (1+i) - 2 = -1+i => x1 = (-1+i)/i = (−1+i)(−i)/1 = i+1.
        assert!((x[0] - Complex64::new(2.0, 0.0)).abs() < 1e-12);
        assert!((x[1] - Complex64::new(1.0, 1.0)).abs() < 1e-12);
    }

    #[test]
    fn solve_rejects_wrong_rhs_length() {
        let a = DenseMatrix::<f64>::identity(2);
        let lu = LuFactor::new(&a).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
    }

    #[test]
    fn cancelled_token_aborts_factor_and_inverse() {
        let a = DenseMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let t = CancelToken::new();
        t.cancel();
        assert!(matches!(
            LuFactor::with_threads_cancel(&a, 1, &t),
            Err(NumericsError::Cancelled { .. })
        ));
        let lu = LuFactor::new(&a).unwrap();
        assert!(matches!(
            lu.inverse_cancel(&t),
            Err(NumericsError::Cancelled { .. })
        ));
        // A disarmed token reproduces the plain inverse exactly.
        let inv = lu.inverse_cancel(&CancelToken::none()).unwrap();
        assert_eq!(inv.as_slice(), lu.inverse().unwrap().as_slice());
    }

    #[test]
    fn condition_estimate_flags_near_singular() {
        let nice = DenseMatrix::<f64>::identity(3);
        assert!(LuFactor::new(&nice).unwrap().diag_condition_estimate() < 10.0);
        let nasty =
            DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1e-14]]).unwrap();
        assert!(LuFactor::new(&nasty).unwrap().diag_condition_estimate() > 1e12);
    }
}
