//! Extreme-eigenvalue estimation for symmetric matrices (power iteration
//! with spectral shifting).
//!
//! Used to turn the binary passivity verdict (Cholesky succeeds/fails)
//! into a quantitative **passivity margin**: the smallest eigenvalue of
//! the VPEC circuit matrix `Ĝ` measures how far a sparsified model sits
//! from the passivity boundary, and how much additional truncation it
//! could tolerate.

use crate::{CsrMatrix, NumericsError};

/// Result of an extreme-eigenvalue estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EigenExtremes {
    /// Smallest eigenvalue.
    pub min: f64,
    /// Largest eigenvalue.
    pub max: f64,
    /// Power-iteration sweeps used.
    pub iterations: usize,
}

impl EigenExtremes {
    /// Spectral condition number `max/min` (∞ if `min ≤ 0`).
    pub fn condition(&self) -> f64 {
        if self.min <= 0.0 {
            f64::INFINITY
        } else {
            self.max / self.min
        }
    }
}

/// Largest-magnitude eigenvalue of the symmetric `n × n` operator
/// `matvec` by power iteration (deterministic start vector with a
/// fallback restart for unlucky orthogonality).
fn dominant_eigenvalue(
    n: usize,
    matvec: impl Fn(&[f64]) -> Result<Vec<f64>, NumericsError>,
    max_iters: usize,
    tol: f64,
) -> Result<(f64, usize), NumericsError> {
    let mut best = (0.0f64, 0usize);
    for attempt in 0..2 {
        // Deterministic pseudo-random start, different per attempt.
        let mut v: Vec<f64> = (0..n)
            .map(|i| ((i * 2654435761 + attempt * 97 + 1) % 1000) as f64 / 1000.0 + 0.1)
            .collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        v.iter_mut().for_each(|x| *x /= norm);
        let mut lambda = 0.0f64;
        let mut iters = 0;
        for k in 0..max_iters {
            iters = k + 1;
            let w = matvec(&v)?;
            let new_lambda: f64 = v.iter().zip(w.iter()).map(|(x, y)| x * y).sum();
            let wn = w.iter().map(|x| x * x).sum::<f64>().sqrt();
            if wn < f64::MIN_POSITIVE {
                lambda = 0.0;
                break;
            }
            v = w.into_iter().map(|x| x / wn).collect();
            if (new_lambda - lambda).abs() <= tol * new_lambda.abs().max(1e-300) {
                lambda = new_lambda;
                break;
            }
            lambda = new_lambda;
        }
        if lambda.abs() > best.0.abs() {
            best = (lambda, iters);
        }
    }
    Ok(best)
}

/// Estimates the smallest and largest eigenvalues of a **symmetric**
/// sparse matrix, in O(nnz) per iteration.
///
/// Method: power iteration gives the largest-magnitude eigenvalue `μ`;
/// shifting by it (`μ·I − A` or `A − μ·I`) and iterating again reaches the
/// opposite end of the spectrum. Both shifts are applied in the matvec,
/// so no shifted copy of `A` is made. Accuracy is `tol`-limited and
/// adequate for margins/conditioning, not for tight clustered spectra.
///
/// # Errors
///
/// [`NumericsError::NotSquare`] for non-square input.
pub fn symmetric_extremes(
    a: &CsrMatrix<f64>,
    max_iters: usize,
    tol: f64,
) -> Result<EigenExtremes, NumericsError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(NumericsError::NotSquare {
            found: (n, a.cols()),
        });
    }
    if n == 0 {
        return Ok(EigenExtremes {
            min: 0.0,
            max: 0.0,
            iterations: 0,
        });
    }
    // Gershgorin shift: c bounds |λ|, so A + c·I has a nonnegative
    // spectrum and its dominant eigenvalue is unambiguously λ_max + c —
    // this sidesteps the ±λ tie that defeats plain power iteration on
    // indefinite matrices.
    let c = (0..n)
        .map(|i| a.row(i).1.iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0f64, f64::max)
        + 1.0;
    // `shift·v + sign·A·v`.
    let shifted = |shift: f64, sign: f64| {
        move |v: &[f64]| -> Result<Vec<f64>, NumericsError> {
            let mut w = a.matvec(v)?;
            for (wi, vi) in w.iter_mut().zip(v) {
                *wi = shift * vi + sign * *wi;
            }
            Ok(w)
        }
    };
    let (mu_lifted, it1) = dominant_eigenvalue(n, shifted(c, 1.0), max_iters, tol)?;
    let lam_max = mu_lifted - c;
    // Second stage: (λ_max·I − A) has spectrum λ_max − λᵢ ≥ 0; its
    // dominant eigenvalue is λ_max − λ_min.
    let (nu, it2) = dominant_eigenvalue(n, shifted(lam_max, -1.0), max_iters, tol)?;
    let lam_min = lam_max - nu;
    Ok(EigenExtremes {
        min: lam_min,
        max: lam_max,
        iterations: it1 + it2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CooMatrix, DenseMatrix};

    fn diag(vals: &[f64]) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(vals.len(), vals.len());
        for (i, &v) in vals.iter().enumerate() {
            coo.push(i, i, v).unwrap();
        }
        coo.to_csr()
    }

    fn sparse(a: &DenseMatrix<f64>) -> CsrMatrix<f64> {
        CsrMatrix::from_dense(a, 0.0)
    }

    #[test]
    fn diagonal_matrix_extremes() {
        let e = symmetric_extremes(&diag(&[3.0, -1.0, 7.0, 2.0]), 500, 1e-12).unwrap();
        assert!((e.max - 7.0).abs() < 1e-6, "max {}", e.max);
        assert!((e.min + 1.0).abs() < 1e-6, "min {}", e.min);
        assert_eq!(e.condition(), f64::INFINITY);
    }

    #[test]
    fn spd_matrix_has_positive_margin() {
        // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let e = symmetric_extremes(&sparse(&a), 500, 1e-12).unwrap();
        assert!((e.min - 1.0).abs() < 1e-6);
        assert!((e.max - 3.0).abs() < 1e-6);
        assert!((e.condition() - 3.0).abs() < 1e-5);
    }

    #[test]
    fn indefinite_matrix_detected() {
        // [[0,1],[1,0]]: eigenvalues ±1.
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let e = symmetric_extremes(&sparse(&a), 500, 1e-12).unwrap();
        assert!((e.max - 1.0).abs() < 1e-6);
        assert!((e.min + 1.0).abs() < 1e-6);
    }

    #[test]
    fn negative_definite_matrix() {
        let e = symmetric_extremes(&diag(&[-2.0, -5.0]), 500, 1e-12).unwrap();
        assert!((e.max + 2.0).abs() < 1e-6);
        assert!((e.min + 5.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_non_square_and_handles_empty() {
        assert!(symmetric_extremes(&sparse(&DenseMatrix::zeros(2, 3)), 10, 1e-6).is_err());
        let e = symmetric_extremes(&sparse(&DenseMatrix::zeros(0, 0)), 10, 1e-6).unwrap();
        assert_eq!(e.min, 0.0);
        assert_eq!(e.max, 0.0);
    }

    #[test]
    fn agrees_with_cholesky_on_definiteness() {
        // A borderline matrix: eigenvalues ~ {eps, 2}.
        let eps = 1e-6;
        let a =
            DenseMatrix::from_rows(&[&[1.0 + eps / 2.0, -1.0], &[-1.0, 1.0 + eps / 2.0]]).unwrap();
        let e = symmetric_extremes(&sparse(&a), 5000, 1e-14).unwrap();
        assert!(
            e.min > 0.0 && e.min < 1e-3,
            "tiny positive margin: {}",
            e.min
        );
        assert!(crate::Cholesky::new(&a).is_ok());
    }
}
