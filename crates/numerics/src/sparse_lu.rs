//! Sparse LU factorization (left-looking Gilbert–Peierls with threshold
//! partial pivoting).
//!
//! This is the "internal sparse solver" role that HSPICE plays in the paper:
//! the whole point of VPEC sparsification is that the MNA matrix of a
//! sparsified model factors dramatically faster than the dense inductively
//! coupled PEEC stamp. The factorization cost here is proportional to
//! floating-point work on *structural* nonzeros plus fill, so a 30 % sparse
//! factor translates directly into the orders-of-magnitude simulation
//! speedups of Tables II–III and Fig. 8.
//!
//! Two pivoting rules serve two orderings:
//!
//! * [`SparseLu::new_fill_reducing`] orders by maximum transversal + AMD
//!   (see [`crate::ordering`]) and keeps the diagonal entry as pivot
//!   whenever it is at least 10⁻³ times the column's largest candidate, as
//!   KLU does — so the elimination follows the ordering that was chosen
//!   for low fill. A factor whose elimination grew entries more than
//!   tenfold is redone at 10⁻¹;
//! * [`SparseLu::new`] and [`SparseLu::new_ordered`] (the RCM path) take
//!   the largest candidate in every column (full partial pivoting).

use crate::ordering::{amd, max_transversal, permuted_transpose, Adjacency};
use crate::{CsrMatrix, NumericsError, Scalar};

/// Magnitude below which the triangular solves flush a value to zero:
/// 2⁻⁹⁷⁰ = `f64::MIN_POSITIVE / f64::EPSILON` ≈ 1.0e-292.
///
/// A solution that decays geometrically along a long chain (a bus's
/// far-end noise) otherwise fills up with subnormals, and every operation
/// on one is a slow microcode assist on x86. At this bound a surviving
/// value times any factor entry of magnitude ≥ ε = 2⁻⁵² is still a normal
/// number. The larger 2⁻⁵¹¹ = √`f64::MIN_POSITIVE` is no faster and does
/// change results: the 256-bit gwVPEC(8) transient amplifies a 1e-151
/// change at its far lines by about 1e140 over 490 steps.
const FLUSH_BELOW: f64 = f64::MIN_POSITIVE / f64::EPSILON;

/// Threshold of the diagonal-preferring pivot rule: the diagonal entry is
/// kept when `|x_jj| ≥ DIAG_PIVOT_TOL · max_i |x_ij|` over the column's
/// unpivoted rows. KLU's default.
const DIAG_PIVOT_TOL: f64 = 1e-3;

/// The stricter threshold a factor is redone with when the first one's
/// reciprocal pivot growth falls below [`MIN_PIVOT_GROWTH`].
const STRICT_DIAG_PIVOT_TOL: f64 = 1e-1;

/// Smallest acceptable reciprocal pivot growth
/// (`min_j max|B[:,j]| / max|U[:,j]|`, KLU's `rgrowth`) of a
/// diagonal-preferring factor at [`DIAG_PIVOT_TOL`].
///
/// A tolerance of 1e-3 keeps PEEC's diagonal everywhere with no growth
/// (0.99), but lets the controlled-source rows of gwVPEC, ntVPEC and full
/// VPEC grow U entries up to 3e5 times their column's largest entry: their
/// transients then drift 1e-8 of the noise peak from a dense-LU solve.
/// Redone at [`STRICT_DIAG_PIVOT_TOL`] the growth stays below 7× and the
/// drift below 1e-9, for a few percent more fill.
const MIN_PIVOT_GROWTH: f64 = 1e-1;

/// Which candidate becomes a column's pivot.
#[derive(Debug, Clone, Copy)]
enum Pivoting {
    /// The largest magnitude (the first one met, on ties).
    Partial,
    /// The diagonal when its magnitude is at least this share of the
    /// largest, else the largest.
    PreferDiagonal(f64),
}

/// Sparse LU factors of a square matrix, `P·A·Q = L·U`, stored flat
/// (compressed columns) with every permutation folded into two index
/// maps, so a solve is one gather, two sweeps and one scatter.
///
/// # Example
///
/// ```
/// use vpec_numerics::{CooMatrix, SparseLu};
///
/// # fn main() -> Result<(), vpec_numerics::NumericsError> {
/// let mut a = CooMatrix::new(2, 2);
/// a.push(0, 0, 2.0)?;
/// a.push(0, 1, 1.0)?;
/// a.push(1, 1, 4.0)?;
/// let lu = SparseLu::new(&a.to_csr())?;
/// let x = lu.solve(&[3.0, 4.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu<T = f64> {
    n: usize,
    /// L below the (implicit unit) diagonal by column: column `k` holds
    /// rows `l_idx[l_ptr[k]..l_ptr[k + 1]]`, in pivot-position numbering.
    l_ptr: Vec<usize>,
    l_idx: Vec<u32>,
    l_val: Vec<T>,
    /// U strictly above the diagonal by column, pivot-position numbering.
    u_ptr: Vec<usize>,
    u_idx: Vec<u32>,
    u_val: Vec<T>,
    /// U diagonal by column.
    u_diag: Vec<T>,
    /// `row_src[k]`: the right-hand-side entry that lands at pivot
    /// position `k` (row pivoting composed with any symmetric ordering).
    row_src: Vec<u32>,
    /// `col_dst[j]`: the solution entry that factor column `j` solves for.
    col_dst: Vec<u32>,
    /// Columns whose pivot is not the diagonal of the ordered matrix.
    off_diagonal_pivots: usize,
    /// `min_j max|B[:,j]| / max|U[:,j]|` over the ordered matrix `B`.
    reciprocal_pivot_growth: f64,
}

const UNPIVOTED: usize = usize::MAX;

/// Rejects non-square matrices and dimensions past the factor's 32-bit
/// indices.
fn check_dim<T: Scalar>(a: &CsrMatrix<T>) -> Result<(), NumericsError> {
    if a.rows() != a.cols() {
        return Err(NumericsError::NotSquare {
            found: (a.rows(), a.cols()),
        });
    }
    let n = a.rows();
    if u32::try_from(n).is_err() {
        return Err(NumericsError::DimensionMismatch {
            op: "sparse lu (32-bit indices)",
            expected: (u32::MAX as usize, u32::MAX as usize),
            found: (n, n),
        });
    }
    Ok(())
}

impl<T: Scalar> SparseLu<T> {
    /// Factors a square CSR matrix in its given order with full partial
    /// pivoting.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::NotSquare`] if the matrix is not square.
    /// * [`NumericsError::DimensionMismatch`] if the dimension does not fit
    ///   the factor's 32-bit indices.
    /// * [`NumericsError::Singular`] if some column has no usable pivot.
    pub fn new(a: &CsrMatrix<T>) -> Result<Self, NumericsError> {
        check_dim(a)?;
        Self::factor_columns(&a.transpose(), Pivoting::Partial)
    }

    /// Factors `A` under a symmetric ordering — the LU of `B = Pᵀ·A·P`
    /// with `B[i][j] = A[perm[i]][perm[j]]` (`perm[new] = old`, e.g. from
    /// [`crate::ordering::rcm_ordering`]) with full partial pivoting — and
    /// folds the ordering into the factor's index maps, so
    /// [`SparseLu::solve`] still solves `A·x = b` in the original
    /// numbering.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::DimensionMismatch`] if `perm` is not a
    ///   permutation of `0..dim`.
    /// * Everything [`SparseLu::new`] returns.
    pub fn new_ordered(a: &CsrMatrix<T>, perm: &[usize]) -> Result<Self, NumericsError> {
        Self::permuted(a, perm, perm, Pivoting::Partial)
    }

    /// Factors `A` under KLU's fill-reducing recipe: a maximum transversal
    /// `row_of` (so `A[row_of[j]][j]` is a structural nonzero), then an
    /// AMD ordering `q` of the symmetrized pattern of that row-matched
    /// matrix, then the LU of `B[i][j] = A[row_of[q[i]]][q[j]]` with
    /// threshold pivoting that keeps the diagonal when
    /// `|b_jj| ≥ 10⁻³·max_i |b_ij|` (KLU's default). Both permutations are
    /// folded into the index maps, as in [`SparseLu::new_ordered`].
    ///
    /// When that factor's reciprocal pivot growth
    /// `min_j max|B[:,j]| / max|U[:,j]|` is below 0.1 (or it fails), `B` is
    /// factored again with the threshold at 10⁻¹ and that factor is
    /// returned.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::Singular`] for a structurally singular pattern
    ///   (no transversal) or a column with no usable pivot.
    /// * Everything [`SparseLu::new`] returns.
    pub fn new_fill_reducing(a: &CsrMatrix<T>) -> Result<Self, NumericsError> {
        check_dim(a)?;
        let row_of = max_transversal(a)?;
        let mut col_of = vec![0usize; row_of.len()];
        for (j, &r) in row_of.iter().enumerate() {
            col_of[r] = j;
        }
        let q = amd(&Adjacency::of(a, Some(&col_of)));
        let rows: Vec<usize> = q.iter().map(|&j| row_of[j]).collect();
        let columns = permuted_transpose(a, &rows, &q)?;
        let lu = match Self::factor_columns(&columns, Pivoting::PreferDiagonal(DIAG_PIVOT_TOL)) {
            Ok(lu) if lu.reciprocal_pivot_growth >= MIN_PIVOT_GROWTH => lu,
            _ => Self::factor_columns(&columns, Pivoting::PreferDiagonal(STRICT_DIAG_PIVOT_TOL))?,
        };
        Ok(lu.unpermuted(&rows, &q))
    }

    /// The LU of `B[i][j] = A[rows[i]][cols[j]]`, with both permutations
    /// folded into the index maps.
    fn permuted(
        a: &CsrMatrix<T>,
        rows: &[usize],
        cols: &[usize],
        pivoting: Pivoting,
    ) -> Result<Self, NumericsError> {
        check_dim(a)?;
        let columns = permuted_transpose(a, rows, cols)?;
        Ok(Self::factor_columns(&columns, pivoting)?.unpermuted(rows, cols))
    }

    /// Folds the permutations `B` was built with into the index maps, so
    /// the factor of `B` solves `A·x = b`.
    fn unpermuted(mut self, rows: &[usize], cols: &[usize]) -> Self {
        for i in &mut self.row_src {
            *i = rows[*i as usize] as u32;
        }
        for j in &mut self.col_dst {
            *j = cols[*j as usize] as u32;
        }
        self
    }

    /// The Gilbert–Peierls kernel on a square matrix given by columns
    /// (`at.row(j)` is column `j`, rows ascending). Under
    /// [`Pivoting::PreferDiagonal`] row `j` is column `j`'s diagonal.
    fn factor_columns(at: &CsrMatrix<T>, pivoting: Pivoting) -> Result<Self, NumericsError> {
        let n = at.rows();

        // While factoring, L's row indices are original row numbers (the
        // reach DFS walks them); they are remapped to pivot positions once
        // every row is pivoted.
        let mut l_ptr: Vec<usize> = Vec::with_capacity(n + 1);
        let mut l_idx: Vec<u32> = Vec::new();
        let mut l_val: Vec<T> = Vec::new();
        let mut u_ptr: Vec<usize> = Vec::with_capacity(n + 1);
        let mut u_idx: Vec<u32> = Vec::new();
        let mut u_val: Vec<T> = Vec::new();
        let mut u_diag: Vec<T> = Vec::with_capacity(n);
        let mut pinv = vec![UNPIVOTED; n];
        let mut off_diagonal_pivots = 0;
        l_ptr.push(0);
        u_ptr.push(0);

        // Dense workspaces reused across columns.
        let mut x = vec![T::zero(); n];
        let mut mark = vec![usize::MAX; n];
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        // DFS stack of (node, next-child-cursor).
        let mut stack: Vec<(usize, usize)> = Vec::with_capacity(n);

        for j in 0..n {
            // ---- Symbolic: reach of A[:,j]'s pattern through L's graph ----
            topo.clear();
            let (a_rows, a_vals) = at.row(j);
            for &r0 in a_rows {
                if mark[r0] == j {
                    continue;
                }
                stack.push((r0, 0));
                mark[r0] = j;
                while let Some(top) = stack.last_mut() {
                    let (r, mut c) = *top;
                    let k = pinv[r];
                    let children = if k == UNPIVOTED {
                        &l_idx[..0]
                    } else {
                        &l_idx[l_ptr[k]..l_ptr[k + 1]]
                    };
                    let mut next = None;
                    while c < children.len() {
                        let child = children[c] as usize;
                        c += 1;
                        if mark[child] != j {
                            mark[child] = j;
                            next = Some(child);
                            break;
                        }
                    }
                    top.1 = c;
                    match next {
                        Some(child) => stack.push((child, 0)),
                        None => {
                            // All children visited: pop to post-order.
                            topo.push(r);
                            stack.pop();
                        }
                    }
                }
            }
            // `topo` lists the reach in DFS post-order, each node after
            // every node it updates, so walking it in reverse applies each
            // pivot column before the rows it updates are read.
            //
            // ---- Numeric: scatter and eliminate ----
            for (&r, &v) in a_rows.iter().zip(a_vals.iter()) {
                x[r] = v;
            }
            for &r in topo.iter().rev() {
                let k = pinv[r];
                if k == UNPIVOTED {
                    continue;
                }
                let xr = x[r];
                if xr.is_zero() {
                    continue;
                }
                let col = l_ptr[k]..l_ptr[k + 1];
                for (&i, &lv) in l_idx[col.clone()].iter().zip(&l_val[col]) {
                    x[i as usize] -= lv * xr;
                }
            }

            // ---- Pivot selection among unpivoted rows in the pattern ----
            let mut pivot_row = UNPIVOTED;
            let mut pivot_mag = 0.0f64;
            for &r in &topo {
                if pinv[r] == UNPIVOTED {
                    let mag = x[r].modulus();
                    if mag > pivot_mag {
                        pivot_mag = mag;
                        pivot_row = r;
                    }
                }
            }
            if pivot_row == UNPIVOTED || pivot_mag == 0.0 {
                return Err(NumericsError::Singular { step: j });
            }
            if let Pivoting::PreferDiagonal(tol) = pivoting {
                if pivot_row != j
                    && pinv[j] == UNPIVOTED
                    && mark[j] == j
                    && x[j].modulus() >= tol * pivot_mag
                {
                    pivot_row = j;
                }
            }
            if pivot_row != j {
                off_diagonal_pivots += 1;
            }
            let pivot_val = x[pivot_row];
            pinv[pivot_row] = j;

            // ---- Gather U (pivoted rows) and L (unpivoted rows) ----
            for &r in &topo {
                let v = x[r];
                x[r] = T::zero();
                if v.is_zero() {
                    continue;
                }
                let k = pinv[r];
                if r == pivot_row {
                    // Diagonal handled separately.
                } else if k == UNPIVOTED {
                    l_idx.push(r as u32);
                    l_val.push(v / pivot_val);
                } else {
                    u_idx.push(k as u32);
                    u_val.push(v);
                }
            }
            u_diag.push(pivot_val);
            l_ptr.push(l_idx.len());
            u_ptr.push(u_idx.len());
        }

        let mut reciprocal_pivot_growth = f64::INFINITY;
        for j in 0..n {
            let a_max = at.row(j).1.iter().fold(0.0f64, |m, v| m.max(v.modulus()));
            let u_max = u_val[u_ptr[j]..u_ptr[j + 1]]
                .iter()
                .fold(u_diag[j].modulus(), |m, v| m.max(v.modulus()));
            reciprocal_pivot_growth = reciprocal_pivot_growth.min(a_max / u_max);
        }

        // Every row is pivoted now: renumber L's rows by pivot position so
        // the forward sweep indexes its vector directly.
        for i in &mut l_idx {
            *i = pinv[*i as usize] as u32;
        }
        let mut row_src = vec![0u32; n];
        for (r, &k) in pinv.iter().enumerate() {
            row_src[k] = r as u32;
        }
        Ok(SparseLu {
            n,
            l_ptr,
            l_idx,
            l_val,
            u_ptr,
            u_idx,
            u_val,
            u_diag,
            row_src,
            col_dst: (0..n as u32).collect(),
            off_diagonal_pivots,
            reciprocal_pivot_growth,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Columns whose pivot left the diagonal of the ordered matrix: every
    /// column a pivot row other than its own was chosen for.
    pub fn off_diagonal_pivots(&self) -> usize {
        self.off_diagonal_pivots
    }

    /// Total stored nonzeros in L and U (including diagonals) — the fill-in
    /// measure used by the complexity-scaling experiment.
    pub fn factor_nnz(&self) -> usize {
        self.n + self.n + self.l_idx.len() + self.u_idx.len()
    }

    /// A cheap condition estimate: `max|uᵢᵢ| / min|uᵢᵢ|` over U's
    /// diagonal, defined as [`crate::LuFactor::diag_condition_estimate`].
    pub fn diag_condition_estimate(&self) -> f64 {
        crate::lu::diag_ratio(self.u_diag.iter().copied())
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, NumericsError> {
        let mut x = Vec::with_capacity(self.n);
        self.solve_into(b, &mut x, &mut Vec::with_capacity(self.n))?;
        Ok(x)
    }

    /// Solves `A·x = b` into caller-owned buffers, reusing their capacity
    /// (the transient loop's per-step path — no allocation once warm).
    /// `x` receives the solution; `work` holds it in pivot order while the
    /// sweeps run.
    ///
    /// Each value is flushed to a zero of its sign when its magnitude is
    /// below 2⁻⁹⁷⁰ ≈ 1.0e-292: in the forward sweep as it is read as a
    /// pivot value, in the back sweep as it is finalized. The sweeps then
    /// skip its whole column, so decaying solutions stay out of slow
    /// subnormal arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve_into(
        &self,
        b: &[T],
        x: &mut Vec<T>,
        work: &mut Vec<T>,
    ) -> Result<(), NumericsError> {
        if b.len() != self.n {
            return Err(NumericsError::DimensionMismatch {
                op: "sparse lu solve",
                expected: (self.n, 1),
                found: (b.len(), 1),
            });
        }
        let y = work;
        y.clear();
        y.extend(self.row_src.iter().map(|&r| b[r as usize]));
        // Forward: L·z = y (unit diagonal).
        for k in 0..self.n {
            let yk = y[k].flush_below(FLUSH_BELOW);
            y[k] = yk;
            if yk.is_zero() {
                continue;
            }
            let col = self.l_ptr[k]..self.l_ptr[k + 1];
            for (&i, &lv) in self.l_idx[col.clone()].iter().zip(&self.l_val[col]) {
                y[i as usize] -= lv * yk;
            }
        }
        // Backward: U·x = z, U stored by column.
        for j in (0..self.n).rev() {
            let xj = (y[j] / self.u_diag[j]).flush_below(FLUSH_BELOW);
            y[j] = xj;
            if xj.is_zero() {
                continue;
            }
            let col = self.u_ptr[j]..self.u_ptr[j + 1];
            for (&k, &uv) in self.u_idx[col.clone()].iter().zip(&self.u_val[col]) {
                y[k as usize] -= uv * xj;
            }
        }
        x.clear();
        x.resize(self.n, T::zero());
        for (&dst, &v) in self.col_dst.iter().zip(y.iter()) {
            x[dst as usize] = v;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CooMatrix, DenseMatrix, LuFactor};

    fn csr_from_dense(d: &DenseMatrix<f64>) -> CsrMatrix<f64> {
        CsrMatrix::from_dense(d, 0.0)
    }

    #[test]
    fn solves_small_sparse_system() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 4.0).unwrap();
        coo.push(0, 1, -1.0).unwrap();
        coo.push(1, 0, -1.0).unwrap();
        coo.push(1, 1, 4.0).unwrap();
        coo.push(1, 2, -1.0).unwrap();
        coo.push(2, 1, -1.0).unwrap();
        coo.push(2, 2, 4.0).unwrap();
        let a = coo.to_csr();
        let lu = SparseLu::new(&a).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = lu.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (u, v) in back.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_dense_lu_on_random_band_matrix() {
        // Deterministic pseudo-random band matrix with dominant diagonal.
        let n = 40;
        let mut seed = 12345u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut d = DenseMatrix::<f64>::zeros(n, n);
        for i in 0..n {
            for j in i.saturating_sub(3)..(i + 4).min(n) {
                d[(i, j)] = rng();
            }
            d[(i, i)] += 8.0;
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let xd = LuFactor::new(&d).unwrap().solve(&b).unwrap();
        let xs = SparseLu::new(&csr_from_dense(&d)).unwrap().solve(&b).unwrap();
        for (u, v) in xd.iter().zip(xs.iter()) {
            assert!((u - v).abs() < 1e-10, "dense {u} vs sparse {v}");
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // MNA matrices routinely have structural zeros on the diagonal
        // (voltage-source branch rows); partial pivoting must cope.
        let d = DenseMatrix::from_rows(&[
            &[0.0, 1.0, 0.0],
            &[1.0, 0.0, 2.0],
            &[0.0, 2.0, 1.0],
        ])
        .unwrap();
        let lu = SparseLu::new(&csr_from_dense(&d)).unwrap();
        let b = [1.0, 3.0, 3.0];
        let x = lu.solve(&b).unwrap();
        let back = d.matvec(&x).unwrap();
        for (u, v) in back.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_detected() {
        let d = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            SparseLu::new(&csr_from_dense(&d)),
            Err(NumericsError::Singular { .. })
        ));
    }

    #[test]
    fn structurally_singular_detected() {
        // Column 1 completely empty.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        assert!(matches!(
            SparseLu::new(&coo.to_csr()),
            Err(NumericsError::Singular { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let coo = CooMatrix::<f64>::new(2, 3);
        assert!(matches!(
            SparseLu::new(&coo.to_csr()),
            Err(NumericsError::NotSquare { .. })
        ));
    }

    #[test]
    fn rhs_length_checked() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 1.0).unwrap();
        let lu = SparseLu::new(&coo.to_csr()).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn fill_in_is_tracked() {
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 2.0).unwrap();
        }
        coo.push(0, 2, 1.0).unwrap();
        coo.push(2, 0, 1.0).unwrap();
        let lu = SparseLu::new(&coo.to_csr()).unwrap();
        assert!(lu.factor_nnz() >= 5 + 3); // at least structure + diagonals
        assert_eq!(lu.dim(), 3);
    }

    #[test]
    fn complex_sparse_solve() {
        use crate::Complex64;
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, Complex64::new(1.0, 1.0)).unwrap();
        coo.push(0, 1, Complex64::I).unwrap();
        coo.push(1, 1, Complex64::new(2.0, 0.0)).unwrap();
        let a = coo.to_csr();
        let lu = SparseLu::new(&a).unwrap();
        let b = [Complex64::new(1.0, 2.0), Complex64::new(4.0, 0.0)];
        let x = lu.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (u, v) in back.iter().zip(b.iter()) {
            assert!((*u - *v).abs() < 1e-12);
        }
    }

    /// A 400-node chain whose exact solution decays by about 1e-3 per
    /// node: `tri(−1, d, −1)·x = e₀` with `d = 1/r + r`, `r = 1e-3·rot`.
    fn decaying_chain<T: Scalar>(rot: T) -> (CsrMatrix<T>, DenseMatrix<T>, Vec<T>) {
        let n = 400;
        let r = rot * T::from_f64(1e-3);
        let d = T::one() / r + r;
        let mut coo = CooMatrix::new(n, n);
        let mut dense = DenseMatrix::<T>::zeros(n, n);
        for i in 0..n {
            coo.push(i, i, d).unwrap();
            dense[(i, i)] = d;
            if i + 1 < n {
                coo.push(i, i + 1, -T::one()).unwrap();
                coo.push(i + 1, i, -T::one()).unwrap();
                dense[(i, i + 1)] = -T::one();
                dense[(i + 1, i)] = -T::one();
            }
        }
        let mut b = vec![T::zero(); n];
        b[0] = T::one();
        (coo.to_csr(), dense, b)
    }

    /// Every entry is 0 or at least [`FLUSH_BELOW`]; entries above 1e-100
    /// match dense LU to 1e-12 relative; past the bound the tail is 0,
    /// where dense LU keeps values below it.
    fn check_flushed_chain<T: Scalar>(rot: T) {
        let (a, dense, b) = decaying_chain(rot);
        let xs = SparseLu::new(&a).unwrap().solve(&b).unwrap();
        let xd = LuFactor::new(&dense).unwrap().solve(&b).unwrap();
        let mut compared = 0;
        for (i, (s, d)) in xs.iter().zip(&xd).enumerate() {
            let m = s.modulus();
            assert!(m == 0.0 || m >= FLUSH_BELOW, "entry {i} = {s} is below the flush bound");
            if d.modulus() > 1e-100 {
                assert!((*s - *d).modulus() <= 1e-12 * d.modulus(), "entry {i}: {s} vs {d}");
                compared += 1;
            }
        }
        assert!(compared >= 30, "only {compared} entries above 1e-100");
        let tail = xs.iter().position(|v| v.is_zero()).unwrap();
        assert!(tail < 110, "the chain must decay past the bound by node {tail}");
        assert!(xs[tail..].iter().all(|v| v.is_zero()), "the far end must flush to zero");
        assert!(
            xd.iter().any(|v| !v.is_zero() && v.modulus() < FLUSH_BELOW),
            "dense LU keeps values below the bound"
        );
    }

    #[test]
    fn flush_bound_is_min_positive_over_epsilon() {
        assert_eq!(FLUSH_BELOW, 2f64.powi(-970));
        assert_eq!(FLUSH_BELOW * f64::EPSILON, f64::MIN_POSITIVE);
    }

    #[test]
    fn decaying_solution_flushes_tiny_values_real() {
        check_flushed_chain(1.0f64);
    }

    #[test]
    fn decaying_solution_flushes_tiny_values_complex() {
        use crate::Complex64;
        check_flushed_chain(Complex64::new(0.6, 0.8));
    }

    #[test]
    fn ordered_factor_solves_in_original_numbering() {
        // The ordering folded into the factor must give the same answer,
        // bit for bit, as permuting b and un-permuting x by hand.
        let (a, _, _) = decaying_chain(1.0f64);
        let n = a.rows();
        let perm: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % n).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
        let ordered = SparseLu::new_ordered(&a, &perm).unwrap();
        let plain = SparseLu::new(&crate::ordering::permute_symmetric(&a, &perm).unwrap()).unwrap();
        let pb: Vec<f64> = perm.iter().map(|&old| b[old]).collect();
        let px = plain.solve(&pb).unwrap();
        let x = ordered.solve(&b).unwrap();
        for (new, &old) in perm.iter().enumerate() {
            assert_eq!(x[old].to_bits(), px[new].to_bits());
        }
        assert_eq!(ordered.factor_nnz(), plain.factor_nnz());
    }

    #[test]
    fn bad_ordering_rejected() {
        let (a, _, _) = decaying_chain(1.0f64);
        let n = a.rows();
        let short: Vec<usize> = (0..n - 1).collect();
        let repeated: Vec<usize> = (0..n).map(|i| i / 2).collect();
        for perm in [short, repeated] {
            assert!(matches!(
                SparseLu::new_ordered(&a, &perm),
                Err(NumericsError::DimensionMismatch { .. })
            ));
        }
    }

    #[test]
    fn threshold_pivoting_keeps_a_diagonal_within_tolerance() {
        // Column 0 holds 2e-3 on the diagonal and 1 below it: the diagonal
        // passes 1e-3 · 1 and stays; partial pivoting swaps the rows.
        let d = DenseMatrix::from_rows(&[&[2e-3, 1.0], &[1.0, 1.0]]).unwrap();
        let a = csr_from_dense(&d);
        let id = [0, 1];
        let prefer = Pivoting::PreferDiagonal(DIAG_PIVOT_TOL);
        let kept = SparseLu::permuted(&a, &id, &id, prefer).unwrap();
        assert_eq!(kept.off_diagonal_pivots(), 0);
        assert_eq!(kept.row_src, vec![0, 1]);
        let partial = SparseLu::new(&a).unwrap();
        assert_eq!(partial.off_diagonal_pivots(), 2);
        // At 5e-4 the diagonal fails the threshold and is left.
        let d = DenseMatrix::from_rows(&[&[5e-4, 1.0], &[1.0, 1.0]]).unwrap();
        let left = SparseLu::permuted(&csr_from_dense(&d), &id, &id, prefer).unwrap();
        assert_eq!(left.off_diagonal_pivots(), 2);
        assert_eq!(left.row_src, vec![1, 0]);
        const { assert!(DIAG_PIVOT_TOL > 5e-4 && DIAG_PIVOT_TOL <= 2e-3) };
    }

    #[test]
    fn pivot_growth_past_the_bound_redoes_the_factor_strictly() {
        // Keeping the 2e-3 diagonal turns U's last entry into 1 − 1/2e-3:
        // growth 499, reciprocal 2e-3. The strict threshold swaps rows.
        let d = DenseMatrix::from_rows(&[&[2e-3, 1.0], &[1.0, 1.0]]).unwrap();
        let a = csr_from_dense(&d);
        let id = [0, 1];
        let loose = Pivoting::PreferDiagonal(DIAG_PIVOT_TOL);
        let loose = SparseLu::permuted(&a, &id, &id, loose).unwrap();
        assert!((loose.reciprocal_pivot_growth - 1.0 / 499.0).abs() < 1e-12);
        let strict = Pivoting::PreferDiagonal(STRICT_DIAG_PIVOT_TOL);
        let strict = SparseLu::permuted(&a, &id, &id, strict).unwrap();
        assert!(strict.reciprocal_pivot_growth >= MIN_PIVOT_GROWTH);
        let lu = SparseLu::new_fill_reducing(&a).unwrap();
        assert!(lu.reciprocal_pivot_growth >= MIN_PIVOT_GROWTH);
        let x = lu.solve(&[1.0, 2.0]).unwrap();
        let back = d.matvec(&x).unwrap();
        assert!((back[0] - 1.0).abs() < 1e-14 && (back[1] - 2.0).abs() < 1e-14);
    }

    /// A random MNA-shaped system: a weighted graph Laplacian over
    /// `nodes` nodes (with a small leak to ground), plus `branches` branch
    /// rows tied to nodes by ±1 incidence. Half the branches are grounded
    /// voltage sources (zero diagonal), half inductors (diagonal −z).
    fn random_mna<T: Scalar>(
        seed: u64,
        nodes: usize,
        branches: usize,
        val: impl Fn(f64) -> T,
    ) -> DenseMatrix<T> {
        let mut rng = crate::rng::XorShift64::new(seed);
        let n = nodes + branches;
        let mut d = DenseMatrix::<T>::zeros(n, n);
        for i in 0..nodes {
            d[(i, i)] += val(1e-3);
            for _ in 0..2 {
                let j = rng.range_usize(0, nodes);
                if j != i {
                    let g = val(rng.range_f64(0.1, 10.0));
                    d[(i, i)] += g;
                    d[(j, j)] += g;
                    d[(i, j)] -= g;
                    d[(j, i)] -= g;
                }
            }
        }
        for k in 0..branches {
            let row = nodes + k;
            // Sources go to ground from distinct nodes, so they form no
            // loop; inductors may join two nodes.
            let p = if k % 2 == 0 { (7 * k + 3) % nodes } else { rng.range_usize(0, nodes) };
            d[(p, row)] += T::one();
            d[(row, p)] += T::one();
            if k % 2 == 1 {
                let q = rng.range_usize(0, nodes);
                if q != p {
                    d[(q, row)] -= T::one();
                    d[(row, q)] -= T::one();
                }
                d[(row, row)] = val(-rng.range_f64(0.5, 2.0));
            }
        }
        d
    }

    fn check_fill_reducing_matches_dense<T: Scalar>(val: impl Fn(f64) -> T + Copy) {
        for seed in 1..=20u64 {
            let d = random_mna(seed, 40, 12, val);
            let b: Vec<T> = (0..52).map(|i| val(((i as f64) * 0.7).cos())).collect();
            let xd = LuFactor::new(&d).unwrap().solve(&b).unwrap();
            let lu = SparseLu::new_fill_reducing(&CsrMatrix::from_dense(&d, 0.0)).unwrap();
            let xs = lu.solve(&b).unwrap();
            let scale = xd.iter().map(|v| v.modulus()).fold(0.0, f64::max);
            for (u, v) in xs.iter().zip(&xd) {
                assert!(
                    (*u - *v).modulus() <= 1e-10 * scale,
                    "seed {seed}: sparse {u} vs dense {v}"
                );
            }
        }
    }

    #[test]
    fn fill_reducing_solves_match_dense_real() {
        check_fill_reducing_matches_dense(|x| x);
    }

    #[test]
    fn fill_reducing_solves_match_dense_complex() {
        use crate::Complex64;
        check_fill_reducing_matches_dense(|x| Complex64::new(x, 0.5 * x));
    }

    #[test]
    fn fill_reducing_handles_zero_diagonal_mna() {
        // The voltage-source pattern of `pivoting_handles_zero_diagonal`,
        // plus a structurally singular one that must be a typed error.
        let d = DenseMatrix::from_rows(&[
            &[0.0, 1.0, 0.0],
            &[1.0, 0.0, 2.0],
            &[0.0, 2.0, 1.0],
        ])
        .unwrap();
        let lu = SparseLu::new_fill_reducing(&csr_from_dense(&d)).unwrap();
        let b = [1.0, 3.0, 3.0];
        let back = d.matvec(&lu.solve(&b).unwrap()).unwrap();
        for (u, v) in back.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        assert!(matches!(
            SparseLu::new_fill_reducing(&coo.to_csr()),
            Err(NumericsError::Singular { .. })
        ));
    }

    #[test]
    fn condition_estimate_matches_dense() {
        let d = DenseMatrix::from_rows(&[&[4.0, 1.0], &[4.0, 1.0 + 1e-6]]).unwrap();
        let sparse = SparseLu::new(&csr_from_dense(&d)).unwrap();
        let dense = LuFactor::new(&d).unwrap();
        assert_eq!(sparse.diag_condition_estimate(), dense.diag_condition_estimate());
        assert!(sparse.diag_condition_estimate() > 1e6);
    }
}
