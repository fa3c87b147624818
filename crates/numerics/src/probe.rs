//! Numerical guardrails: condition estimation.

use crate::{DenseMatrix, LuFactor};

/// Cheap 1-norm condition estimate `κ₁(A) ≈ ‖A‖₁·‖A⁻¹‖₁` using Hager's
/// power iteration on `A⁻¹` (at most five solve pairs). Returns
/// `f64::INFINITY` when the factorization fails (singular matrix) and
/// `0.0` for an empty matrix.
///
/// The estimate is a lower bound on the true condition number but is
/// almost always within a small factor of it — enough to tell whether a
/// "successful" factorization is trustworthy.
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
