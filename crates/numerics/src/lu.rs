//! Dense LU factorization with partial pivoting.
//!
//! Every MNA system is factored by [`crate::SparseLu`] alone, and the
//! SPD inversion behind full VPEC is [`crate::Cholesky`]. This dense
//! factor serves the small dense systems around them: the inversion of
//! a partial-inductance matrix `L` that is not positive definite, a
//! window solve whose block is not, the condition estimate
//! ([`crate::probe`]), the frequency-dependent impedance and K-element
//! solves, model-order reduction, and the reference the runtime audits
//! and the tests cross-check sparse solves against. The elimination is
//! one serial right-looking loop, and a multi-column solve is a serial
//! column loop.

use crate::cancel::CancelToken;
use crate::kernel;
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
        Self::new_cancel(a, &CancelToken::none())
    }

    /// [`LuFactor::new`] with cooperative cancellation: the token is
    /// polled once per elimination column and a set token aborts with
    /// [`NumericsError::Cancelled`]. This is the engine's deadline hook
    /// into the `O(N³)` factor phase.
    ///
    /// # Errors
    ///
    /// Same as [`LuFactor::new`], plus [`NumericsError::Cancelled`].
    pub fn new_cancel(a: &DenseMatrix<T>, cancel: &CancelToken) -> Result<Self, NumericsError> {
        if !a.is_square() {
            return Err(NumericsError::NotSquare {
                found: (a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let _sp = vpec_trace::span!("lu.factor", "dim" => n);
        let mut lu = a.clone();
        let (perm, perm_sign) = eliminate(lu.as_mut_slice(), n, cancel)?;
        Ok(LuFactor {
            lu,
            perm,
            perm_sign,
        })
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
    /// [`LuFactor::inverse_cancel`]: one solve per column of `B`, in
    /// column order. `cancel` is polled once per column, so late
    /// cancellation skips the remaining O(n²) substitutions.
    fn solve_columns(
        &self,
        b: &DenseMatrix<T>,
        cancel: &CancelToken,
    ) -> Result<DenseMatrix<T>, NumericsError> {
        let _sp = vpec_trace::span!("lu.solve_matrix", "cols" => b.cols());
        let mut out = DenseMatrix::zeros(b.rows(), b.cols());
        let mut x = Vec::with_capacity(self.dim());
        for j in 0..b.cols() {
            if cancel.is_cancelled() {
                return Err(NumericsError::Cancelled { op: "lu inverse" });
            }
            x.clear();
            x.extend(self.perm.iter().map(|&p| b[(p, j)]));
            self.substitute_in_place(&mut x);
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

/// In-place LU elimination with partial pivoting over a row-major
/// `n × n` slice: the plain right-looking loop, one rounded
/// `c -= factor·u` per element and elimination step. Returns the row
/// permutation (`perm[k]` = the original row now in position `k`) and
/// its sign. The token is polled once per column; a set token aborts
/// with [`NumericsError::Cancelled`], leaving `data` partially
/// eliminated.
///
/// # Errors
///
/// [`NumericsError::Singular`] if a pivot column is exactly zero at or
/// below the diagonal; [`NumericsError::Cancelled`] on cancellation.
fn eliminate<T: Scalar>(
    data: &mut [T],
    n: usize,
    cancel: &CancelToken,
) -> Result<(Vec<usize>, f64), NumericsError> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut perm_sign = 1.0f64;
    for k in 0..n {
        if cancel.is_cancelled() {
            return Err(NumericsError::Cancelled { op: "lu factor" });
        }
        // Partial pivoting: largest modulus in column k at or below row k.
        let mut pivot_row = k;
        let mut pivot_mag = data[k * n + k].modulus();
        for i in (k + 1)..n {
            let mag = data[i * n + k].modulus();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = i;
            }
        }
        if pivot_mag == 0.0 {
            return Err(NumericsError::Singular { step: k });
        }
        if pivot_row != k {
            perm.swap(k, pivot_row);
            perm_sign = -perm_sign;
            let (a, b) = data.split_at_mut(pivot_row * n);
            a[k * n..k * n + n].swap_with_slice(&mut b[..n]);
        }
        let (top, trailing) = data.split_at_mut((k + 1) * n);
        let urow = &top[k * n..];
        let pivot = urow[k];
        for row in trailing.chunks_mut(n) {
            let factor = row[k] / pivot;
            row[k] = factor;
            if factor.is_zero() {
                continue;
            }
            for (rj, &uj) in row[k + 1..].iter_mut().zip(&urow[k + 1..]) {
                *rj -= factor * uj;
            }
        }
    }
    Ok((perm, perm_sign))
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
    use crate::rng::XorShift64;
    use crate::Complex64;

    /// `max|A·x − b| / (max|A|·max|x|)` for a solve of `A·x = b`.
    fn relative_residual<T: Scalar>(a: &DenseMatrix<T>, x: &[T], b: &[T]) -> f64 {
        let ax = a.matvec(x).unwrap();
        let r = ax
            .iter()
            .zip(b)
            .fold(0.0f64, |m, (&p, &q)| m.max((p - q).modulus()));
        let xmax = x.iter().fold(0.0f64, |m, v| m.max(v.modulus()));
        r / (a.max_abs() * xmax)
    }

    #[test]
    fn solves_large_real_and_complex_systems_to_a_small_residual() {
        // Large enough that rounding growth would show: 64, a size that
        // is no multiple of four, and 300.
        for n in [64, 97, 300] {
            let mut rng = XorShift64::new(0x4100 + n as u64);
            let a = DenseMatrix::from_fn(n, n, |_, _| rng.range_f64(-1.0, 1.0));
            let b: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let x = LuFactor::new(&a).unwrap().solve(&b).unwrap();
            let res = relative_residual(&a, &x, &b);
            assert!(res < 1e-12, "real n = {n}: residual {res:e}");

            let mut c = || Complex64::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0));
            let a = DenseMatrix::from_fn(n, n, |_, _| c());
            let b: Vec<Complex64> = (0..n).map(|_| c()).collect();
            let x = LuFactor::new(&a).unwrap().solve(&b).unwrap();
            let res = relative_residual(&a, &x, &b);
            assert!(res < 1e-12, "complex n = {n}: residual {res:e}");
        }
    }

    #[test]
    fn singular_column_is_reported_at_a_late_step() {
        // [[B, C], [0, D]] with B a dense 70 × 70 block and D's first
        // column zero: the elimination pivots through all of B, then finds
        // column 70 exactly zero on and below the diagonal.
        let (n, k) = (100, 70);
        let mut rng = XorShift64::new(0x4200);
        let a = DenseMatrix::from_fn(n, n, |i, j| {
            if i >= k && j <= k {
                0.0
            } else {
                rng.range_f64(-1.0, 1.0)
            }
        });
        match LuFactor::new(&a) {
            Err(NumericsError::Singular { step }) => assert_eq!(step, k),
            other => panic!("expected Singular at step {k}, got {other:?}"),
        }
    }

    #[test]
    fn solves_known_system() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]])
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
        let a = DenseMatrix::from_rows(&[&[4.0, -2.0, 1.0], &[-2.0, 4.0, -2.0], &[1.0, -2.0, 4.0]])
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
            LuFactor::new_cancel(&a, &t),
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
        let nasty = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1e-14]]).unwrap();
        assert!(LuFactor::new(&nasty).unwrap().diag_condition_estimate() > 1e12);
    }
}
