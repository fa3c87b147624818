//! Row-major dense matrix used for partial-inductance matrices and their
//! inverses.

use crate::kernel;
use crate::{NumericsError, Scalar};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A row-major dense matrix over a [`Scalar`] type.
///
/// This is the carrier for the partial-inductance matrix `L`, its inverse
/// `S = L⁻¹`, and the VPEC circuit matrix `Ĝ`. All hot loops in the
/// factorizations index the backing slice directly.
///
/// # Example
///
/// ```
/// use vpec_numerics::DenseMatrix;
///
/// let mut m = DenseMatrix::<f64>::zeros(2, 2);
/// m[(0, 0)] = 1.0;
/// m[(1, 1)] = 2.0;
/// assert_eq!(m.trace(), 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct DenseMatrix<T = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::RaggedRows`] if the rows have different
    /// lengths.
    pub fn from_rows(rows: &[&[T]]) -> Result<Self, NumericsError> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        if rows.iter().any(|r| r.len() != ncols) {
            return Err(NumericsError::RaggedRows);
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(DenseMatrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Builds a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Bounds-checked element access.
    pub fn get(&self, i: usize, j: usize) -> Option<&T> {
        if i < self.rows && j < self.cols {
            Some(&self.data[i * self.cols + j])
        } else {
            None
        }
    }

    /// The underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Matrix–vector product `y = A·x`.
    ///
    /// Numerical class: audited-close (each output element is a
    /// four-accumulator `kernel::dot4` reassociation of the serial dot).
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `x.len() != cols()`.
    #[expect(
        clippy::disallowed_methods,
        reason = "Numerical class: audited-close (each output element is a four-accumulator dot)"
    )]
    pub fn matvec(&self, x: &[T]) -> Result<Vec<T>, NumericsError> {
        if x.len() != self.cols {
            return Err(NumericsError::DimensionMismatch {
                op: "matvec",
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        let mut y = vec![T::zero(); self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = kernel::dot4(self.row(i), x);
        }
        Ok(y)
    }

    /// Matrix–matrix product `A·B`: the plain ascending-k loop, which
    /// adds `aᵢₖ·bₖⱼ` into each output row one rounded operation per term.
    /// Only tests call it, so it is neither tiled nor parallel.
    ///
    /// Numerical class: bit-identical (to the naive triple loop).
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if inner dimensions
    /// disagree.
    pub fn matmul(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>, NumericsError> {
        if self.cols != b.rows {
            return Err(NumericsError::DimensionMismatch {
                op: "matmul",
                expected: (self.cols, self.cols),
                found: (b.rows, b.cols),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            let orow = &mut out.data[i * b.cols..(i + 1) * b.cols];
            for (k, &aik) in self.row(i).iter().enumerate() {
                for (o, &bv) in orow.iter_mut().zip(b.row(k)) {
                    *o += aik * bv;
                }
            }
        }
        Ok(out)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseMatrix<T> {
        DenseMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Sum of diagonal entries.
    pub fn trace(&self) -> T {
        let n = self.rows.min(self.cols);
        let mut t = T::zero();
        for i in 0..n {
            t += self[(i, i)];
        }
        t
    }

    /// Maximum `modulus` over all entries.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|v| v.modulus()).fold(0.0, f64::max)
    }

    /// `‖A − B‖∞` over entries — convenience for tests and accuracy checks.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if shapes differ.
    pub fn max_abs_diff(&self, other: &DenseMatrix<T>) -> Result<f64, NumericsError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(NumericsError::DimensionMismatch {
                op: "max_abs_diff",
                expected: (self.rows, self.cols),
                found: (other.rows, other.cols),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (*a - *b).modulus())
            .fold(0.0, f64::max))
    }

    /// `true` if `|A[i][j] − A[j][i]| ≤ tol · max_abs()` for all pairs.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let scale = self.max_abs().max(f64::MIN_POSITIVE);
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).modulus() > tol * scale {
                    return false;
                }
            }
        }
        true
    }

    /// `true` if the matrix is strictly diagonally dominant by rows:
    /// `|aᵢᵢ| > Σ_{j≠i} |aᵢⱼ|` for every row.
    pub fn is_strictly_diagonally_dominant(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            let mut off = 0.0;
            for j in 0..self.cols {
                if i != j {
                    off += self[(i, j)].modulus();
                }
            }
            if self[(i, i)].modulus() <= off {
                return false;
            }
        }
        true
    }

    /// Count of entries with `modulus() > threshold`.
    pub fn count_above(&self, threshold: f64) -> usize {
        self.data.iter().filter(|v| v.modulus() > threshold).count()
    }
}

impl DenseMatrix<f64> {
    /// Extracts the principal submatrix over `idx × idx`.
    ///
    /// Used by the windowed (wVPEC) extraction, which inverts many small
    /// coupling-window submatrices of `L` instead of the full matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn principal_submatrix(&self, idx: &[usize]) -> DenseMatrix<f64> {
        DenseMatrix::from_fn(idx.len(), idx.len(), |i, j| self[(idx[i], idx[j])])
    }
}

impl<T: Scalar> Index<(usize, usize)> for DenseMatrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for DenseMatrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl<T: Scalar> fmt::Debug for DenseMatrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>12.4e} ", self[(i, j)].modulus())?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn zeros_and_identity() {
        let z = DenseMatrix::<f64>::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(!z.is_square());
        let i = DenseMatrix::<f64>::identity(3);
        assert_eq!(i.trace(), 3.0);
        assert!(i.is_square());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = DenseMatrix::from_rows(&[&[1.0, 2.0][..], &[3.0][..]]).unwrap_err();
        assert_eq!(err, NumericsError::RaggedRows);
    }

    #[test]
    fn matvec_matches_manual() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let y = a.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn matmul_matches_manual() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], 2.0);
        assert_eq!(c[(0, 1)], 1.0);
        assert_eq!(c[(1, 0)], 4.0);
        assert_eq!(c[(1, 1)], 3.0);
    }

    #[test]
    fn matmul_dimension_check() {
        let a = DenseMatrix::<f64>::zeros(2, 3);
        let b = DenseMatrix::<f64>::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn symmetry_and_dominance_checks() {
        let sym = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        assert!(sym.is_symmetric(1e-12));
        assert!(sym.is_strictly_diagonally_dominant());
        let asym = DenseMatrix::from_rows(&[&[2.0, 1.0], &[0.5, 3.0]]).unwrap();
        assert!(!asym.is_symmetric(1e-12));
        let weak = DenseMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert!(!weak.is_strictly_diagonally_dominant());
    }

    #[test]
    fn principal_submatrix_extracts_window() {
        let a = DenseMatrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = a.principal_submatrix(&[1, 3]);
        assert_eq!(s[(0, 0)], 5.0);
        assert_eq!(s[(0, 1)], 7.0);
        assert_eq!(s[(1, 0)], 13.0);
        assert_eq!(s[(1, 1)], 15.0);
    }

    #[test]
    fn complex_matvec() {
        let a = DenseMatrix::from_rows(&[
            &[Complex64::ONE, Complex64::I],
            &[Complex64::ZERO, Complex64::new(2.0, 0.0)],
        ])
        .unwrap();
        let y = a.matvec(&[Complex64::ONE, Complex64::ONE]).unwrap();
        assert_eq!(y[0], Complex64::new(1.0, 1.0));
        assert_eq!(y[1], Complex64::new(2.0, 0.0));
    }

    #[test]
    fn get_bounds() {
        let a = DenseMatrix::<f64>::identity(2);
        assert_eq!(a.get(1, 1), Some(&1.0));
        assert_eq!(a.get(2, 0), None);
    }

    #[test]
    fn max_abs_diff_and_count() {
        let a = DenseMatrix::<f64>::identity(2);
        let b = DenseMatrix::<f64>::zeros(2, 2);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 1.0);
        assert_eq!(a.count_above(0.5), 2);
        assert!(a.max_abs_diff(&DenseMatrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn debug_not_empty() {
        let a = DenseMatrix::<f64>::identity(2);
        assert!(!format!("{a:?}").is_empty());
    }
}
