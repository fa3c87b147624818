//! Triplet (COO) and compressed-sparse-row matrices.
//!
//! MNA assembly stamps elements as `(row, col, value)` triplets into a
//! [`CooMatrix`]; duplicate entries are summed on conversion to
//! [`CsrMatrix`], which is the format consumed by the sparse LU solver and
//! the sparsity accounting (the paper's "sparse factor" metric is an nnz
//! ratio over the VPEC circuit matrix).

use crate::{DenseMatrix, NumericsError, Scalar};

/// A coordinate-format (triplet) sparse matrix builder.
///
/// Duplicate `(row, col)` entries are allowed and are summed when the matrix
/// is compressed — exactly the semantics of SPICE-style MNA stamping.
#[derive(Debug, Clone)]
pub struct CooMatrix<T = f64> {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Scalar> CooMatrix<T> {
    /// Creates an empty `rows × cols` triplet matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of raw (pre-compression) triplets.
    pub fn nnz_raw(&self) -> usize {
        self.entries.len()
    }

    /// Raw `(row, col, value)` triplets in insertion order (duplicates not
    /// yet summed). Used by the audit layer to scan stamps and to compute
    /// residuals without compressing first.
    pub fn entries(&self) -> &[(usize, usize, T)] {
        &self.entries
    }

    /// Adds `value` at `(row, col)`; duplicates accumulate.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::IndexOutOfBounds`] if the index is outside
    /// the matrix shape.
    pub fn push(&mut self, row: usize, col: usize, value: T) -> Result<(), NumericsError> {
        if row >= self.rows || col >= self.cols {
            return Err(NumericsError::IndexOutOfBounds {
                index: (row, col),
                shape: (self.rows, self.cols),
            });
        }
        if !value.is_zero() {
            self.entries.push((row, col, value));
        }
        Ok(())
    }

    /// Compresses to CSR, summing duplicates in push order and dropping
    /// exact zeros.
    ///
    /// Two stable counting passes, by column and then by row, put the
    /// triplets in `(row, col)` order in linear time, with duplicates
    /// still in push order: the result is that of a stable sort, bit for
    /// bit.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let (_, by_col) = stable_buckets(0..self.entries.len(), self.cols, |e| self.entries[e].1);
        let (starts, by_row) =
            stable_buckets(by_col.iter().copied(), self.rows, |e| self.entries[e].0);
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0);
        let mut col_idx: Vec<usize> = Vec::with_capacity(by_row.len());
        let mut values: Vec<T> = Vec::with_capacity(by_row.len());
        for r in 0..self.rows {
            let mut run = by_row[starts[r]..starts[r + 1]]
                .iter()
                .map(|&e| (self.entries[e].1, self.entries[e].2))
                .peekable();
            while let Some((c, mut v)) = run.next() {
                while let Some((_, v2)) = run.next_if(|&(c2, _)| c2 == c) {
                    v += v2;
                }
                if !v.is_zero() {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// Orders `items` stably by `key`, which maps each into `0..buckets`
/// (one counting-sort pass). Returns the bucket starts (`buckets + 1`
/// offsets) and the ordered items.
fn stable_buckets(
    items: impl Iterator<Item = usize> + Clone,
    buckets: usize,
    key: impl Fn(usize) -> usize,
) -> (Vec<usize>, Vec<usize>) {
    let mut starts = vec![0usize; buckets + 1];
    for e in items.clone() {
        starts[key(e) + 1] += 1;
    }
    for b in 0..buckets {
        starts[b + 1] += starts[b];
    }
    let mut next = starts.clone();
    let mut ordered = vec![0usize; starts[buckets]];
    for e in items {
        let b = key(e);
        ordered[next[b]] = e;
        next[b] += 1;
    }
    (starts, ordered)
}

/// A compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T = f64> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Assembles a matrix from CSR arrays the caller built sorted and
    /// duplicate-free (the permutations in [`crate::ordering`]).
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<T>,
    ) -> Self {
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// `true` when `other` has the same shape and stores exactly the same
    /// positions, whatever their values — checked in O(nnz).
    pub fn same_pattern<U: Scalar>(&self, other: &CsrMatrix<U>) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
    }

    /// Number of stored (structural) nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(col_indices, values)` slice pair for row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    pub fn row(&self, i: usize) -> (&[usize], &[T]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// The stored values in row order, to refill a matrix of the same
    /// pattern in place. An exact zero written here stays stored, unlike
    /// one [`CooMatrix::to_csr`] compresses.
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Value at `(i, j)`, or zero if the entry is not stored.
    pub fn get(&self, i: usize, j: usize) -> T {
        if i >= self.rows {
            return T::zero();
        }
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => T::zero(),
        }
    }

    /// Matrix–vector product `y = A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `x.len() != cols()`.
    pub fn matvec(&self, x: &[T]) -> Result<Vec<T>, NumericsError> {
        if x.len() != self.cols {
            return Err(NumericsError::DimensionMismatch {
                op: "csr matvec",
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        let mut y = vec![T::zero(); self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = T::zero();
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                acc += v * x[c];
            }
            *yi = acc;
        }
        Ok(y)
    }

    /// Expands to a dense matrix (for small problems and tests).
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                d[(i, c)] = v;
            }
        }
        d
    }

    /// Transposed copy (also serves as CSR→CSC conversion).
    pub fn transpose(&self) -> CsrMatrix<T> {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for j in 0..self.cols {
            counts[j + 1] += counts[j];
        }
        let mut row_ptr = counts.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![T::zero(); self.nnz()];
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                let dst = row_ptr[c];
                col_idx[dst] = i;
                values[dst] = v;
                row_ptr[c] += 1;
            }
        }
        // `counts` still holds the unadvanced pointer array (the clone was
        // used as insertion cursors), so it is the transpose's row_ptr.
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr: counts,
            col_idx,
            values,
        }
    }

    /// Builds a CSR matrix from a dense one, keeping entries with
    /// `modulus() > drop_tol`.
    pub fn from_dense(d: &DenseMatrix<T>, drop_tol: f64) -> CsrMatrix<T> {
        let mut coo = CooMatrix::new(d.rows(), d.cols());
        for i in 0..d.rows() {
            for j in 0..d.cols() {
                let v = d[(i, j)];
                if v.modulus() > drop_tol {
                    // In-bounds by construction.
                    let _ = coo.push(i, j, v);
                }
            }
        }
        coo.to_csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(0, 2, 1.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        coo.push(2, 0, 4.0).unwrap();
        coo.push(2, 2, 5.0).unwrap();
        coo.to_csr()
    }

    #[test]
    fn duplicates_accumulate() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 0, 2.5).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 0), 3.5);
    }

    #[test]
    fn cancelling_duplicates_are_dropped() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 0, -1.0).unwrap();
        assert_eq!(coo.to_csr().nnz(), 0);
    }

    #[test]
    fn out_of_bounds_push_rejected() {
        let mut coo = CooMatrix::<f64>::new(2, 2);
        assert!(coo.push(2, 0, 1.0).is_err());
        assert!(coo.push(0, 5, 1.0).is_err());
    }

    #[test]
    fn zero_push_is_ignored() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 0.0).unwrap();
        assert_eq!(coo.nnz_raw(), 0);
    }

    #[test]
    fn get_and_nnz() {
        let m = sample();
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(9, 9), 0.0);
        assert_eq!(m.nnz(), 5);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let y = m.matvec(&x).unwrap();
        let yd = m.to_dense().matvec(&x).unwrap();
        assert_eq!(y, yd);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
        assert_eq!(m.transpose().get(2, 0), 1.0);
        assert_eq!(m.transpose().get(0, 2), 4.0);
    }

    #[test]
    fn from_dense_with_drop_tolerance() {
        let d = DenseMatrix::from_rows(&[&[1.0, 1e-12], &[0.0, 2.0]]).unwrap();
        let s = CsrMatrix::from_dense(&d, 1e-9);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(1, 1), 2.0);
    }
}
