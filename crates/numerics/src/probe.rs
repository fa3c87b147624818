//! Numerical guardrails: SPD probing and condition estimation.
//!
//! The model layer uses [`spd_probe`] to detect sparsified VPEC models
//! that have numerically lost the passivity guarantees of Theorems 1–2
//! before they reach a simulator.

use crate::{Cholesky, DenseMatrix, LuFactor, NumericsError};

/// Structural verdict on a (nominally symmetric) matrix, produced by
/// [`spd_probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpdProbe {
    /// `A = Aᵀ` within the symmetry tolerance.
    pub symmetric: bool,
    /// Cholesky factorization succeeded, i.e. `A ≻ 0`.
    pub positive_definite: bool,
    /// `Aᵢᵢ > Σ_{j≠i} |Aᵢⱼ|` for every row.
    pub strictly_diagonally_dominant: bool,
    /// First row violating strict diagonal dominance (or the Cholesky
    /// pivot row that failed), if any — pinpoints where a repair pass
    /// must act.
    pub first_bad_row: Option<usize>,
}

impl SpdProbe {
    /// `true` iff the matrix is symmetric positive definite — the paper's
    /// passivity criterion (Theorem 1).
    pub fn is_spd(&self) -> bool {
        self.symmetric && self.positive_definite
    }
}

/// Probes `a` for symmetry (within `sym_tol`), positive definiteness
/// (via a Cholesky attempt) and strict diagonal dominance.
///
/// Non-square matrices are reported as failing every property rather
/// than erroring: the probe is a diagnostic, not a validator.
pub fn spd_probe(a: &DenseMatrix<f64>, sym_tol: f64) -> SpdProbe {
    if !a.is_square() {
        return SpdProbe {
            symmetric: false,
            positive_definite: false,
            strictly_diagonally_dominant: false,
            first_bad_row: Some(0),
        };
    }
    let symmetric = a.is_symmetric(sym_tol);
    let n = a.rows();
    let mut first_bad_row = None;
    let mut sdd = true;
    for i in 0..n {
        let off: f64 = (0..n).filter(|&j| j != i).map(|j| a[(i, j)].abs()).sum();
        // NaN-safe: a NaN diagonal must count as not dominant.
        #[expect(
            clippy::disallowed_methods,
            reason = "partial order is the point: NaN must compare not-Greater and mark the row not dominant"
        )]
        if a[(i, i)].partial_cmp(&off) != Some(std::cmp::Ordering::Greater) {
            sdd = false;
            first_bad_row = Some(i);
            break;
        }
    }
    let positive_definite = match Cholesky::new(a) {
        Ok(_) => true,
        Err(NumericsError::NotPositiveDefinite { row }) => {
            if first_bad_row.is_none() {
                first_bad_row = Some(row);
            }
            false
        }
        Err(_) => false,
    };
    SpdProbe {
        symmetric,
        positive_definite,
        strictly_diagonally_dominant: sdd,
        first_bad_row,
    }
}

/// Cheap 1-norm condition estimate `κ₁(A) ≈ ‖A‖₁·‖A⁻¹‖₁` using Hager's
/// power iteration on `A⁻¹` (at most five solve pairs). Returns
/// `f64::INFINITY` when the factorization fails (singular matrix) and
/// `0.0` for an empty matrix.
///
/// The estimate is a lower bound on the true condition number but is
/// almost always within a small factor of it — exactly what the solver
/// fallback chain needs to decide whether a "successful" factorization
/// is trustworthy.
pub fn condition_estimate(a: &DenseMatrix<f64>) -> f64 {
    if !a.is_square() || a.rows() == 0 {
        return 0.0;
    }
    let n = a.rows();
    let norm_a = one_norm(a);
    let (lu, lu_t) = match (LuFactor::new(a), LuFactor::new(&a.transpose())) {
        (Ok(f), Ok(ft)) => (f, ft),
        _ => return f64::INFINITY,
    };
    // Hager's estimator for ‖A⁻¹‖₁.
    let mut x = vec![1.0 / n as f64; n];
    let mut est = 0.0f64;
    for _ in 0..5 {
        let y = match lu.solve(&x) {
            Ok(y) => y,
            Err(_) => return f64::INFINITY,
        };
        let y_norm: f64 = y.iter().map(|v| v.abs()).sum();
        if !y_norm.is_finite() {
            return f64::INFINITY;
        }
        est = est.max(y_norm);
        let xi: Vec<f64> = y
            .iter()
            .map(|&v| if v >= 0.0 { 1.0 } else { -1.0 })
            .collect();
        let z = match lu_t.solve(&xi) {
            Ok(z) => z,
            Err(_) => return f64::INFINITY,
        };
        let (j, z_max) = z
            .iter()
            .enumerate()
            .fold((0usize, 0.0f64), |(bj, bv), (k, &v)| {
                if v.abs() > bv {
                    (k, v.abs())
                } else {
                    (bj, bv)
                }
            });
        let zx: f64 = z.iter().zip(x.iter()).map(|(u, v)| u * v).sum();
        if z_max <= zx {
            break; // converged: the current estimate is Hager's answer
        }
        x = vec![0.0; n];
        x[j] = 1.0;
    }
    norm_a * est
}

fn one_norm(a: &DenseMatrix<f64>) -> f64 {
    let (n, m) = (a.rows(), a.cols());
    (0..m)
        .map(|j| (0..n).map(|i| a[(i, j)].abs()).sum::<f64>())
        .fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize) -> DenseMatrix<f64> {
        DenseMatrix::from_fn(n, n, |i, j| {
            if i == j {
                2.0 + i as f64
            } else {
                -0.5 / (1.0 + (i as f64 - j as f64).abs())
            }
        })
    }

    #[test]
    fn probe_confirms_spd() {
        let p = spd_probe(&spd(6), 1e-12);
        assert!(p.symmetric && p.positive_definite && p.strictly_diagonally_dominant);
        assert!(p.is_spd());
        assert_eq!(p.first_bad_row, None);
    }

    #[test]
    fn probe_flags_indefinite_row() {
        let mut a = spd(4);
        a[(2, 2)] = -5.0; // break both dominance and definiteness at row 2
        let p = spd_probe(&a, 1e-12);
        assert!(!p.positive_definite);
        assert!(!p.strictly_diagonally_dominant);
        assert!(!p.is_spd());
        assert_eq!(p.first_bad_row, Some(2));
    }

    #[test]
    fn probe_flags_asymmetry() {
        let mut a = spd(3);
        a[(0, 1)] += 1.0;
        let p = spd_probe(&a, 1e-12);
        assert!(!p.symmetric);
        assert!(!p.is_spd());
    }

    #[test]
    fn probe_rejects_non_square() {
        let a = DenseMatrix::<f64>::zeros(2, 3);
        assert!(!spd_probe(&a, 1e-12).is_spd());
    }

    #[test]
    fn condition_of_identity_is_one() {
        let est = condition_estimate(&DenseMatrix::identity(8));
        assert!((est - 1.0).abs() < 1e-12, "got {est}");
    }

    #[test]
    fn condition_tracks_diagonal_spread() {
        let a = DenseMatrix::from_fn(4, 4, |i, j| if i == j { 10f64.powi(i as i32) } else { 0.0 });
        let est = condition_estimate(&a);
        assert!(
            (est - 1e3).abs() / 1e3 < 1e-9,
            "diag matrix κ₁ = 10³, got {est}"
        );
    }

    #[test]
    fn condition_of_singular_is_infinite() {
        let a = DenseMatrix::<f64>::zeros(3, 3);
        assert_eq!(condition_estimate(&a), f64::INFINITY);
    }
}
