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
//! Every factor of the circuit analyses — DC, transient and each AC
//! point — is [`SparseLu::with_ordering`] under a [`FillOrdering`]
//! (maximum transversal + AMD, see [`crate::ordering`]): it keeps the
//! diagonal entry as pivot whenever it is at least 10⁻³ times the column's
//! largest candidate, as KLU does — so the elimination follows the
//! ordering that was chosen for low fill. A factor whose elimination grew
//! entries more than tenfold is redone at 10⁻¹. [`SparseLu::new`] factors
//! in the given order and takes the largest candidate in every column
//! (full partial pivoting).
//!
//! Both rules share one kernel, which prunes L's column graph symmetrically
//! (Eisenstat & Liu, as KLU does), so each column's reach DFS walks only
//! the part of L that can still reach unpivoted rows. Pruning is valid
//! over L's structural pattern, so exact-zero L entries stay stored.
//!
//! A factor of an inductively coupled system ends in a trailing block
//! whose columns are stored in full (PEEC's last 257 columns hold 85 % of
//! its L and U entries). The solves sweep that block's columns as contiguous
//! slices, with no index reads; see [`SparseLu::solve_into`].

use crate::ordering::{permuted_transpose, FillOrdering};
use crate::{CsrMatrix, NumericsError, Scalar};
use std::ops::Range;

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
    /// First column of the dense trailing block `[tail, n)`: every L
    /// column `k ≥ tail` stores rows `k+1..n` in order, and every U column
    /// `j ≥ tail` ends with rows `tail..j` in order (its rows below `tail`
    /// come first, in any order).
    tail: usize,
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

    /// Factors `A` under KLU's fill-reducing recipe: orders its pattern
    /// by [`FillOrdering::of`], then factors under that ordering with
    /// [`SparseLu::with_ordering`].
    ///
    /// # Errors
    ///
    /// * [`NumericsError::Singular`] for a structurally singular pattern
    ///   (no transversal) or a column with no usable pivot.
    /// * Everything [`SparseLu::new`] returns.
    pub fn new_fill_reducing(a: &CsrMatrix<T>) -> Result<Self, NumericsError> {
        Self::with_ordering(a, &FillOrdering::of(a)?)
    }

    /// Factors `A` under an ordering of its pattern: the LU of
    /// `B[i][j] = A[rows[i]][cols[j]]` with threshold pivoting that keeps
    /// the diagonal when `|b_jj| ≥ 10⁻³·max_i |b_ij|` (KLU's default). Both
    /// permutations are folded into the index maps, so
    /// [`SparseLu::solve`] still solves `A·x = b` in the original
    /// numbering.
    ///
    /// When that factor's reciprocal pivot growth
    /// `min_j max|B[:,j]| / max|U[:,j]|` is below 0.1 (or it fails), `B` is
    /// factored again with the threshold at 10⁻¹ and that factor is
    /// returned. The first attempt stops at its first column below 0.1.
    ///
    /// The ordering depends on the pattern alone, so one
    /// [`FillOrdering::of`] serves every matrix with `A`'s pattern; the
    /// factor is the one [`SparseLu::new_fill_reducing`] gives, bit for
    /// bit.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::DimensionMismatch`] if `ordering` orders another
    ///   dimension.
    /// * [`NumericsError::Singular`] for a column with no usable pivot.
    /// * Everything [`SparseLu::new`] returns.
    pub fn with_ordering(a: &CsrMatrix<T>, ordering: &FillOrdering) -> Result<Self, NumericsError> {
        check_dim(a)?;
        let (rows, cols) = (&ordering.rows, &ordering.cols);
        let columns = permuted_transpose(a, rows, cols)?;
        let lu = match Self::threshold_attempt(&columns) {
            Some(lu) => lu,
            None => {
                Self::factor_columns(&columns, Pivoting::PreferDiagonal(STRICT_DIAG_PIVOT_TOL))?
            }
        };
        Ok(lu.unpermuted(rows, cols))
    }

    /// The factor of `B` (given by columns) at [`DIAG_PIVOT_TOL`], or
    /// `None` at the first column with no usable pivot or with a
    /// reciprocal growth `max|B[:,j]| / max|U[:,j]|` below
    /// [`MIN_PIVOT_GROWTH`]. U column `j` is final once column `j`
    /// pivots, so stopping there decides what factoring to the end and
    /// then checking the minimum would.
    fn threshold_attempt(columns: &CsrMatrix<T>) -> Option<Self> {
        let mut elim = Elimination::new(columns, Pivoting::PreferDiagonal(DIAG_PIVOT_TOL));
        for j in 0..columns.rows() {
            if elim.column(j).ok()? < MIN_PIVOT_GROWTH {
                return None;
            }
        }
        Some(elim.finish())
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
        let mut elim = Elimination::new(at, pivoting);
        for j in 0..at.rows() {
            elim.column(j)?;
        }
        Ok(elim.finish())
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

    /// Stored entries of L and U (diagonals included, as in
    /// [`SparseLu::factor_nnz`]) inside the dense trailing block that the
    /// solves sweep without index reads: `m² + m` for an `m`-column block.
    pub fn dense_tail_nnz(&self) -> usize {
        let m = self.n - self.tail;
        m * m + m
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
    /// The columns of the dense trailing block are swept as contiguous
    /// slices. That is bit-identical to walking their row indices: each
    /// entry of a column updates a distinct `y[i]`, and every `y[i]` still
    /// receives its updates in column order.
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
        // Forward: L·z = y (unit diagonal); backward: U·x = z, U stored
        // by column. A dense column's rows `t..j` are its last `j − t`
        // entries.
        let (n, t) = (self.n, self.tail);
        self.forward_indexed(y, 0..t);
        for k in t..n {
            let yk = y[k].flush_below(FLUSH_BELOW);
            y[k] = yk;
            if yk.is_zero() {
                continue;
            }
            let col = self.l_ptr[k]..self.l_ptr[k + 1];
            for (yi, &lv) in y[k + 1..].iter_mut().zip(&self.l_val[col]) {
                *yi -= lv * yk;
            }
        }
        for j in (t..n).rev() {
            let xj = (y[j] / self.u_diag[j]).flush_below(FLUSH_BELOW);
            y[j] = xj;
            if xj.is_zero() {
                continue;
            }
            let (lo, hi) = (self.u_ptr[j], self.u_ptr[j + 1]);
            let mid = hi - (j - t);
            for (&k, &uv) in self.u_idx[lo..mid].iter().zip(&self.u_val[lo..mid]) {
                y[k as usize] -= uv * xj;
            }
            for (yk, &uv) in y[t..j].iter_mut().zip(&self.u_val[mid..hi]) {
                *yk -= uv * xj;
            }
        }
        self.backward_indexed(y, 0..t);
        x.clear();
        x.resize(self.n, T::zero());
        for (&dst, &v) in self.col_dst.iter().zip(y.iter()) {
            x[dst as usize] = v;
        }
        Ok(())
    }

    /// [`SparseLu::solve`] with every column swept through its row
    /// indices, the dense trailing block included: the reference the
    /// slice sweep is checked against, bit for bit. Built for tests only
    /// (the crate's own, and those that enable the `indexed-sweep`
    /// feature).
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b.len() != dim()`.
    #[cfg(any(test, feature = "indexed-sweep"))]
    pub fn solve_indexed(&self, b: &[T]) -> Result<Vec<T>, NumericsError> {
        if b.len() != self.n {
            return Err(NumericsError::DimensionMismatch {
                op: "sparse lu solve",
                expected: (self.n, 1),
                found: (b.len(), 1),
            });
        }
        let mut y: Vec<T> = self.row_src.iter().map(|&r| b[r as usize]).collect();
        self.forward_indexed(&mut y, 0..self.n);
        self.backward_indexed(&mut y, 0..self.n);
        let mut x = vec![T::zero(); self.n];
        for (&dst, &v) in self.col_dst.iter().zip(&y) {
            x[dst as usize] = v;
        }
        Ok(x)
    }

    /// The forward sweep over L columns `cols`, through their row indices.
    fn forward_indexed(&self, y: &mut [T], cols: Range<usize>) {
        for k in cols {
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
    }

    /// The back sweep over U columns `cols`, last first, through their row
    /// indices.
    fn backward_indexed(&self, y: &mut [T], cols: Range<usize>) {
        for j in cols.rev() {
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
    }
}

/// A left-looking elimination between columns: L and U so far, and the
/// dense workspaces every column reuses. Until [`Elimination::finish`],
/// L's row indices are original row numbers, because the reach DFS walks
/// them.
struct Elimination<'a, T> {
    /// The matrix by columns: `at.row(j)` is column `j`, rows ascending.
    at: &'a CsrMatrix<T>,
    pivoting: Pivoting,
    l_ptr: Vec<usize>,
    l_idx: Vec<u32>,
    l_val: Vec<T>,
    /// `l_head[k]`: end of the part of L column `k` that the reach DFS
    /// walks. It is `l_ptr[k + 1]` until the column is pruned.
    l_head: Vec<usize>,
    pruned: Vec<bool>,
    u_ptr: Vec<usize>,
    u_idx: Vec<u32>,
    u_val: Vec<T>,
    u_diag: Vec<T>,
    /// `pinv[r]`: the column row `r` pivoted in, or [`UNPIVOTED`].
    pinv: Vec<usize>,
    off_diagonal_pivots: usize,
    x: Vec<T>,
    /// `mark[r] == j` once column `j`'s DFS has visited row `r`.
    mark: Vec<usize>,
    /// Column `j`'s reach in DFS post-order.
    topo: Vec<usize>,
    /// DFS stack of (row, next-child cursor).
    stack: Vec<(usize, usize)>,
}

impl<'a, T: Scalar> Elimination<'a, T> {
    fn new(at: &'a CsrMatrix<T>, pivoting: Pivoting) -> Self {
        let n = at.rows();
        Elimination {
            at,
            pivoting,
            l_ptr: vec![0],
            l_idx: Vec::new(),
            l_val: Vec::new(),
            l_head: Vec::with_capacity(n),
            pruned: Vec::with_capacity(n),
            u_ptr: vec![0],
            u_idx: Vec::new(),
            u_val: Vec::new(),
            u_diag: Vec::with_capacity(n),
            pinv: vec![UNPIVOTED; n],
            off_diagonal_pivots: 0,
            x: vec![T::zero(); n],
            mark: vec![usize::MAX; n],
            topo: Vec::with_capacity(n),
            stack: Vec::with_capacity(n),
        }
    }

    /// Factors column `j` (every earlier column is done) and returns its
    /// reciprocal pivot growth `max|B[:,j]| / max|U[:,j]|`.
    fn column(&mut self, j: usize) -> Result<f64, NumericsError> {
        self.reach(j);
        let (a_rows, a_vals) = self.at.row(j);

        // ---- Numeric: scatter and eliminate ----
        // `topo` lists each row after every row it updates, so walking it
        // in reverse applies each pivot column before the rows it updates
        // are read. The update walks the whole L column, pruned or not.
        let x = &mut self.x;
        for (&r, &v) in a_rows.iter().zip(a_vals) {
            x[r] = v;
        }
        for &r in self.topo.iter().rev() {
            let k = self.pinv[r];
            if k == UNPIVOTED {
                continue;
            }
            let xr = x[r];
            if xr.is_zero() {
                continue;
            }
            let col = self.l_ptr[k]..self.l_ptr[k + 1];
            for (&i, &lv) in self.l_idx[col.clone()].iter().zip(&self.l_val[col]) {
                x[i as usize] -= lv * xr;
            }
        }

        // ---- Pivot selection among unpivoted rows in the pattern ----
        let mut pivot_row = UNPIVOTED;
        let mut pivot_mag = 0.0f64;
        for &r in &self.topo {
            if self.pinv[r] == UNPIVOTED {
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
        if let Pivoting::PreferDiagonal(tol) = self.pivoting {
            if pivot_row != j
                && self.pinv[j] == UNPIVOTED
                && self.mark[j] == j
                && x[j].modulus() >= tol * pivot_mag
            {
                pivot_row = j;
            }
        }
        if pivot_row != j {
            self.off_diagonal_pivots += 1;
        }
        let pivot_val = x[pivot_row];
        self.pinv[pivot_row] = j;

        // ---- Gather U (pivoted rows) and L (unpivoted rows) ----
        // Exact zeros are dropped from U but kept in L: pruning is valid
        // only over L's structural pattern (see `prune`).
        for &r in &self.topo {
            let v = x[r];
            x[r] = T::zero();
            let k = self.pinv[r];
            if r == pivot_row {
                // Diagonal handled separately.
            } else if k == UNPIVOTED {
                self.l_idx.push(r as u32);
                self.l_val.push(v / pivot_val);
            } else if !v.is_zero() {
                self.u_idx.push(k as u32);
                self.u_val.push(v);
            }
        }
        self.u_diag.push(pivot_val);
        self.l_ptr.push(self.l_idx.len());
        self.l_head.push(self.l_idx.len());
        self.pruned.push(false);
        let u_col = self.u_ptr[j]..self.u_idx.len();
        self.u_ptr.push(self.u_idx.len());

        let a_max = a_vals.iter().fold(0.0f64, |m, v| m.max(v.modulus()));
        let u_max = self.u_val[u_col]
            .iter()
            .fold(pivot_val.modulus(), |m, v| m.max(v.modulus()));
        self.prune(j, pivot_row);
        Ok(a_max / u_max)
    }

    /// Fills `topo` with the reach of column `j`'s pattern through L's
    /// graph, in DFS post-order. A row pivoted in column `k` leads to the
    /// rows of L column `k` up to `l_head[k]`.
    fn reach(&mut self, j: usize) {
        self.topo.clear();
        let (mark, stack) = (&mut self.mark, &mut self.stack);
        for &r0 in self.at.row(j).0 {
            if mark[r0] == j {
                continue;
            }
            stack.push((r0, 0));
            mark[r0] = j;
            while let Some(top) = stack.last_mut() {
                let (r, mut c) = *top;
                let k = self.pinv[r];
                let children = if k == UNPIVOTED {
                    &self.l_idx[..0]
                } else {
                    &self.l_idx[self.l_ptr[k]..self.l_head[k]]
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
                        self.topo.push(r);
                        stack.pop();
                    }
                }
            }
        }
    }

    /// Symmetric pruning (Eisenstat & Liu, as in KLU): every unpruned L
    /// column `k` with a stored U(k, j) that holds column `j`'s pivot row
    /// is partitioned with its pivoted rows first, and the reach DFS stops
    /// where they end. Each unpivoted row left in the tail of column `k`
    /// is in column `j`'s reach, so L column `j` stores it, zero or not,
    /// and the DFS still finds it through the pivot row in the head.
    fn prune(&mut self, j: usize, pivot_row: usize) {
        let pivot_row = pivot_row as u32;
        for &k in &self.u_idx[self.u_ptr[j]..self.u_ptr[j + 1]] {
            let k = k as usize;
            let (lo, hi) = (self.l_ptr[k], self.l_ptr[k + 1]);
            if self.pruned[k] || !self.l_idx[lo..hi].contains(&pivot_row) {
                continue;
            }
            let (mut head, mut tail) = (lo, hi);
            while head < tail {
                if self.pinv[self.l_idx[head] as usize] == UNPIVOTED {
                    tail -= 1;
                    self.l_idx.swap(head, tail);
                    self.l_val.swap(head, tail);
                } else {
                    head += 1;
                }
            }
            self.l_head[k] = head;
            self.pruned[k] = true;
        }
    }

    /// The factor, once every column is done: L's rows are renumbered by
    /// pivot position so the forward sweep indexes its vector directly,
    /// and the dense trailing block's entries are put in row order.
    fn finish(self) -> SparseLu<T> {
        let Elimination {
            l_ptr,
            mut l_idx,
            mut l_val,
            u_ptr,
            mut u_idx,
            mut u_val,
            u_diag,
            mut pinv,
            off_diagonal_pivots,
            ..
        } = self;
        let n = pinv.len();
        for i in &mut l_idx {
            *i = pinv[*i as usize] as u32;
        }
        let mut row_src = vec![0u32; n];
        for (r, &k) in pinv.iter().enumerate() {
            row_src[k] = r as u32;
        }
        // `pinv` is spent; it marks rows while the tail is measured.
        let tail = dense_tail(&l_ptr, &u_ptr, &u_idx, &mut pinv);
        for k in tail..n {
            let col = l_ptr[k]..l_ptr[k + 1];
            place_in_row_order(&mut l_idx[col.clone()], &mut l_val[col], k + 1, n - 1 - k);
        }
        for j in tail..n {
            let col = u_ptr[j]..u_ptr[j + 1];
            place_in_row_order(&mut u_idx[col.clone()], &mut u_val[col], tail, j - tail);
        }
        SparseLu {
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
            tail,
        }
    }
}

/// The first column `t` of the largest fully stored trailing block of a
/// factor in pivot-position numbering: every L column `k ≥ t` holds all
/// `n − 1 − k` rows below its diagonal, and every U column `j ≥ t` holds
/// rows `t..j`. `mark` is scratch of length `n`.
///
/// Columns are taken from the last one down. U column `j` holds the rows
/// `f(j)..j` for the smallest such `f(j)`, and `[k, n)` qualifies when
/// every column from `k` on has a full L column and `f(j) ≤ k`. Once a
/// column fails, every block reaching past it fails too, so the walk reads
/// the tail's U entries and those of one more column.
fn dense_tail(l_ptr: &[usize], u_ptr: &[usize], u_idx: &[u32], mark: &mut [usize]) -> usize {
    let n = mark.len();
    mark.fill(usize::MAX);
    let mut run_start = 0;
    for k in (0..n).rev() {
        if l_ptr[k + 1] - l_ptr[k] != n - 1 - k {
            return k + 1;
        }
        for &r in &u_idx[u_ptr[k]..u_ptr[k + 1]] {
            mark[r as usize] = k;
        }
        let mut f = k;
        while f > 0 && mark[f - 1] == k {
            f -= 1;
        }
        run_start = run_start.max(f);
        if run_start > k {
            return k + 1;
        }
    }
    0
}

/// Moves a column's `m` entries with rows `first..first + m` (all of them
/// stored) to its last `m` slots in row order; its rows below `first`
/// fill the slots before them. Each swap puts one entry in its final
/// slot, so this is one linear pass with no sort.
fn place_in_row_order<T>(idx: &mut [u32], val: &mut [T], first: usize, m: usize) {
    let base = idx.len() - m;
    for p in 0..idx.len() {
        loop {
            let r = idx[p] as usize;
            if r < first {
                break;
            }
            let dst = base + (r - first);
            if dst == p {
                break;
            }
            idx.swap(p, dst);
            val.swap(p, dst);
        }
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
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
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
        let xs = SparseLu::new(&csr_from_dense(&d))
            .unwrap()
            .solve(&b)
            .unwrap();
        for (u, v) in xd.iter().zip(xs.iter()) {
            assert!((u - v).abs() < 1e-10, "dense {u} vs sparse {v}");
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // MNA matrices routinely have structural zeros on the diagonal
        // (voltage-source branch rows); partial pivoting must cope.
        let d = DenseMatrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 2.0], &[0.0, 2.0, 1.0]])
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
            assert!(
                m == 0.0 || m >= FLUSH_BELOW,
                "entry {i} = {s} is below the flush bound"
            );
            if d.modulus() > 1e-100 {
                assert!(
                    (*s - *d).modulus() <= 1e-12 * d.modulus(),
                    "entry {i}: {s} vs {d}"
                );
                compared += 1;
            }
        }
        assert!(compared >= 30, "only {compared} entries above 1e-100");
        let tail = xs.iter().position(|v| v.is_zero()).unwrap();
        assert!(
            tail < 110,
            "the chain must decay past the bound by node {tail}"
        );
        assert!(
            xs[tail..].iter().all(|v| v.is_zero()),
            "the far end must flush to zero"
        );
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
    fn one_ordering_serves_every_matrix_with_its_pattern() {
        // Ordered once from the pattern, a matrix with other values
        // factors bit for bit as ordering it afresh would.
        for seed in 1..=10u64 {
            let d = random_mna(seed, 40, 12, |x| x);
            let a = CsrMatrix::from_dense(&d, 0.0);
            let ordering = FillOrdering::of(&a).unwrap();
            let mut other = a.clone();
            for (k, v) in other.values_mut().iter_mut().enumerate() {
                *v *= 1.0 + 0.37 * ((k as f64) * 0.11).sin();
            }
            assert_same_bits(
                &SparseLu::with_ordering(&other, &ordering).unwrap(),
                &SparseLu::new_fill_reducing(&other).unwrap(),
            );
        }
    }

    #[test]
    fn ordering_of_another_dimension_rejected() {
        let (a, _, _) = decaying_chain(1.0f64);
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 1.0).unwrap();
        }
        let ordering = FillOrdering::of(&coo.to_csr()).unwrap();
        assert!(matches!(
            SparseLu::with_ordering(&a, &ordering),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn threshold_pivoting_keeps_a_diagonal_within_tolerance() {
        // Column 0 holds 2e-3 on the diagonal and 1 below it: the diagonal
        // passes 1e-3 · 1 and stays; partial pivoting swaps the rows.
        let d = DenseMatrix::from_rows(&[&[2e-3, 1.0], &[1.0, 1.0]]).unwrap();
        let a = csr_from_dense(&d);
        let prefer = Pivoting::PreferDiagonal(DIAG_PIVOT_TOL);
        let kept = SparseLu::factor_columns(&a.transpose(), prefer).unwrap();
        assert_eq!(kept.off_diagonal_pivots(), 0);
        assert_eq!(kept.row_src, vec![0, 1]);
        let partial = SparseLu::new(&a).unwrap();
        assert_eq!(partial.off_diagonal_pivots(), 2);
        // At 5e-4 the diagonal fails the threshold and is left.
        let d = DenseMatrix::from_rows(&[&[5e-4, 1.0], &[1.0, 1.0]]).unwrap();
        let left = SparseLu::factor_columns(&csr_from_dense(&d).transpose(), prefer).unwrap();
        assert_eq!(left.off_diagonal_pivots(), 2);
        assert_eq!(left.row_src, vec![1, 0]);
        const { assert!(DIAG_PIVOT_TOL > 5e-4 && DIAG_PIVOT_TOL <= 2e-3) };
    }

    /// `min_j max|B[:,j]| / max|U[:,j]|` of factoring `at` (by columns)
    /// to the end.
    fn reciprocal_pivot_growth(at: &CsrMatrix<f64>, pivoting: Pivoting) -> f64 {
        let mut elim = Elimination::new(at, pivoting);
        (0..at.rows())
            .map(|j| elim.column(j).unwrap())
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn pivot_growth_past_the_bound_redoes_the_factor_strictly() {
        // Keeping the 2e-3 diagonal turns U's last entry into 1 − 1/2e-3:
        // growth 499, reciprocal 2e-3. The strict threshold swaps rows.
        let d = DenseMatrix::from_rows(&[&[2e-3, 1.0], &[1.0, 1.0]]).unwrap();
        let a = csr_from_dense(&d);
        let loose =
            reciprocal_pivot_growth(&a.transpose(), Pivoting::PreferDiagonal(DIAG_PIVOT_TOL));
        assert!((loose - 1.0 / 499.0).abs() < 1e-12);
        let strict = Pivoting::PreferDiagonal(STRICT_DIAG_PIVOT_TOL);
        assert!(reciprocal_pivot_growth(&a.transpose(), strict) >= MIN_PIVOT_GROWTH);
        let lu = SparseLu::new_fill_reducing(&a).unwrap();
        assert_eq!(lu.off_diagonal_pivots(), 2);
        let x = lu.solve(&[1.0, 2.0]).unwrap();
        let back = d.matvec(&x).unwrap();
        assert!((back[0] - 1.0).abs() < 1e-14 && (back[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn exact_zero_l_entry_stays_in_the_reach() {
        // Column 1 cancels row 3 exactly: 0.5 − (2/4)·1 = 0, so L(3, 1) is
        // a stored zero. Pivoting row 1 prunes L column 0 ({1, 3}) to its
        // head {1}, and column 2 then reaches row 3 only through row 1 and
        // that zero. Dropping it would lose L(3, 2) = −0.125.
        let d = DenseMatrix::from_rows(&[
            &[4.0, 1.0, 1.0, 0.0],
            &[1.0, 4.0, 0.0, 0.0],
            &[0.0, 0.0, 4.0, 1.0],
            &[2.0, 0.5, 0.0, 4.0],
        ])
        .unwrap();
        let lu = SparseLu::new(&csr_from_dense(&d)).unwrap();
        assert_eq!(lu.off_diagonal_pivots(), 0);
        assert!(lu.l_val.contains(&0.0), "L keeps the zero");
        assert!(lu.l_val.contains(&-0.125), "column 2 reaches row 3");
        let b = [1.0, -2.0, 3.0, 0.5];
        let xs = lu.solve(&b).unwrap();
        let xd = LuFactor::new(&d).unwrap().solve(&b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-14, "sparse {s} vs dense {d}");
        }
    }

    /// `new_fill_reducing` as it was before the threshold attempt could
    /// stop early: factor at 10⁻³ to the end, then check the growth.
    fn factor_to_the_end_then_check(a: &CsrMatrix<f64>) -> (SparseLu<f64>, bool) {
        let FillOrdering { rows, cols: q } = FillOrdering::of(a).unwrap();
        let columns = permuted_transpose(a, &rows, &q).unwrap();
        let loose = Pivoting::PreferDiagonal(DIAG_PIVOT_TOL);
        let mut elim = Elimination::new(&columns, loose);
        let growth: Result<Vec<f64>, _> = (0..columns.rows()).map(|j| elim.column(j)).collect();
        let passed =
            growth.is_ok_and(|g| g.into_iter().fold(f64::INFINITY, f64::min) >= MIN_PIVOT_GROWTH);
        let lu = if passed {
            elim.finish()
        } else {
            let strict = Pivoting::PreferDiagonal(STRICT_DIAG_PIVOT_TOL);
            SparseLu::factor_columns(&columns, strict).unwrap()
        };
        (lu.unpermuted(&rows, &q), passed)
    }

    fn assert_same_bits(a: &SparseLu<f64>, b: &SparseLu<f64>) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!((a.n, &a.row_src, &a.col_dst), (b.n, &b.row_src, &b.col_dst));
        assert_eq!((&a.l_ptr, &a.l_idx), (&b.l_ptr, &b.l_idx));
        assert_eq!((&a.u_ptr, &a.u_idx), (&b.u_ptr, &b.u_idx));
        assert_eq!(bits(&a.l_val), bits(&b.l_val));
        assert_eq!(bits(&a.u_val), bits(&b.u_val));
        assert_eq!(bits(&a.u_diag), bits(&b.u_diag));
        assert_eq!(a.off_diagonal_pivots, b.off_diagonal_pivots);
    }

    #[test]
    fn early_growth_exit_returns_the_factor_a_full_attempt_would() {
        // Scaling a node's diagonal down makes the 10⁻³ attempt keep a
        // small pivot and grow U past the bound at some seeds.
        let (mut failed, mut passed) = (0, 0);
        for seed in 1..=40u64 {
            let mut d = random_mna(seed, 40, 12, |x| x);
            if seed % 2 == 0 {
                for i in (seed as usize % 5..40).step_by(5) {
                    d[(i, i)] *= 2e-3;
                }
            }
            let a = CsrMatrix::from_dense(&d, 0.0);
            let (expected, attempt_passed) = factor_to_the_end_then_check(&a);
            assert_same_bits(&SparseLu::new_fill_reducing(&a).unwrap(), &expected);
            if attempt_passed {
                passed += 1;
            } else {
                failed += 1;
            }
        }
        assert!(failed > 0 && passed > 0, "{failed} failed, {passed} passed");
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
            let p = if k % 2 == 0 {
                (7 * k + 3) % nodes
            } else {
                rng.range_usize(0, nodes)
            };
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
        let d = DenseMatrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 2.0], &[0.0, 2.0, 1.0]])
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

    /// [`random_mna`] with every pair of branch rows coupled, as mutual
    /// inductance couples PEEC's branches: the factor ends in a dense
    /// trailing block.
    fn coupled_mna<T: Scalar>(seed: u64, val: impl Fn(f64) -> T) -> DenseMatrix<T> {
        let (nodes, branches) = (30, 16);
        let mut d = random_mna(seed, nodes, branches, &val);
        let mut rng = crate::rng::XorShift64::new(seed ^ 0x7a11);
        for p in 0..branches {
            for q in 0..p {
                let m = val(-rng.range_f64(0.01, 0.2));
                d[(nodes + p, nodes + q)] += m;
                d[(nodes + q, nodes + p)] += m;
            }
        }
        d
    }

    /// Debug text is the shortest round-trip form of every part, so two
    /// vectors print alike exactly when their bits agree (signed zeros
    /// included).
    fn bits<T: Scalar>(v: &[T]) -> Vec<String> {
        v.iter().map(|x| format!("{x:?}")).collect()
    }

    fn check_tail_sweep_is_bit_identical<T: Scalar>(val: impl Fn(f64) -> T + Copy) {
        for seed in 1..=20u64 {
            let a = CsrMatrix::from_dense(&coupled_mna(seed, val), 0.0);
            let n = a.rows();
            for lu in [
                SparseLu::new_fill_reducing(&a).unwrap(),
                SparseLu::new(&a).unwrap(),
            ] {
                assert!(n - lu.tail >= 8, "seed {seed}: tail of {}", n - lu.tail);
                let m = n - lu.tail;
                assert_eq!(lu.dense_tail_nnz(), m * m + m);
                // A general right-hand side, one that is zero except
                // for a single entry (the sweeps skip zero columns) and one
                // whose entries start below the flush bound.
                let mut one_hot = vec![T::zero(); n];
                one_hot[seed as usize % n] = T::one();
                for b in [
                    (0..n).map(|i| val(((i as f64) * 0.37).sin())).collect(),
                    one_hot,
                    (0..n).map(|i| val(1e-295 * (i as f64 - 20.0))).collect(),
                ] {
                    let mut x = Vec::new();
                    lu.solve_into(&b, &mut x, &mut Vec::new()).unwrap();
                    assert_eq!(
                        bits(&x),
                        bits(&lu.solve_indexed(&b).unwrap()),
                        "seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn dense_tail_sweep_matches_the_indexed_sweep_real() {
        check_tail_sweep_is_bit_identical(|x| x);
    }

    #[test]
    fn dense_tail_sweep_matches_the_indexed_sweep_complex() {
        use crate::Complex64;
        check_tail_sweep_is_bit_identical(|x| Complex64::new(x, -0.3 * x));
    }

    #[test]
    fn dense_tail_is_the_largest_fully_stored_trailing_block() {
        // An arrow whose hub is row and column 0, factored in that order,
        // fills in completely: the whole factor is one dense block. A
        // diagonal matrix has only its last column (empty L and U).
        let n = 6;
        let mut arrow = DenseMatrix::<f64>::zeros(n, n);
        let mut diagonal = DenseMatrix::<f64>::zeros(n, n);
        for i in 0..n {
            arrow[(i, i)] = 4.0;
            diagonal[(i, i)] = 4.0;
            arrow[(0, i)] += 1.0;
            arrow[(i, 0)] += 1.0;
        }
        let lu = SparseLu::new(&csr_from_dense(&diagonal)).unwrap();
        assert_eq!(lu.tail, n - 1);
        assert_eq!(lu.dense_tail_nnz(), 2);
        let lu = SparseLu::new(&csr_from_dense(&arrow)).unwrap();
        assert_eq!(lu.tail, 0, "the arrow's first column fills everything");
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();
        assert_eq!(
            bits(&lu.solve(&b).unwrap()),
            bits(&lu.solve_indexed(&b).unwrap())
        );
        let back = arrow.matvec(&lu.solve(&b).unwrap()).unwrap();
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn condition_estimate_matches_dense() {
        let d = DenseMatrix::from_rows(&[&[4.0, 1.0], &[4.0, 1.0 + 1e-6]]).unwrap();
        let sparse = SparseLu::new(&csr_from_dense(&d)).unwrap();
        let dense = LuFactor::new(&d).unwrap();
        assert_eq!(
            sparse.diag_condition_estimate(),
            dense.diag_condition_estimate()
        );
        assert!(sparse.diag_condition_estimate() > 1e6);
    }
}
