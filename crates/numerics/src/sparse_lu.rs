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
//! entries more than tenfold is redone at 10⁻¹. That is the kernel's one
//! pivot rule.
//!
//! The kernel prunes L's column graph symmetrically (Eisenstat & Liu, as
//! KLU does), so each column's reach DFS walks only the part of L that can
//! still reach unpivoted rows. Pruning is valid over L's structural
//! pattern, so exact-zero L entries stay stored.
//!
//! A factor of an inductively coupled system ends in a trailing block
//! whose columns are stored in full (PEEC's last 257 columns hold 85 % of
//! its L and U entries). From the first column whose L column stores every
//! unpivoted row, with at least 32 columns left, the elimination gives
//! those rows contiguous positions and stores each such L column in
//! position order, as dense LU with row interchanges does, its real and
//! imaginary parts apart. An update from it is then one slice loop, four
//! columns per pass where the reach lists them in a run
//! ([`crate::kernel::sub4`] and its complex twin). Each entry still
//! receives the same rounded operations in the same order, so the factor
//! is bit for bit the one that scattering every update through row
//! indices gives. The pivot search and the growth check take a complex
//! modulus only where a cheap bound says it can raise the maximum. The
//! solves sweep the block's columns as contiguous slices too, with no
//! index reads; see [`SparseLu::solve_into`].

use crate::kernel::{sub4, sub4_complex};
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
/// (0.99). On the VPEC models' Fig. 1 stamp it let the controlled-source
/// rows grow U entries up to 3e5 times their column's largest entry, and
/// their transients then drifted 1e-8 of the noise peak from a dense-LU
/// solve; redone at [`STRICT_DIAG_PIVOT_TOL`] the growth stayed below 7×
/// and the drift below 1e-9, for a few percent more fill. The (I, A)
/// stamp still needs the redo: the 256-bit full-VPEC and gwVPEC(8)
/// transient factors fail the check at columns 14 and 280 of 1,282 (their
/// DC factors pass), and every AC point of the 28 × 8 bus is factored
/// twice, PEEC from column 519 of 702, full VPEC from 177 and gwVPEC(8)
/// from 150 of 926.
const MIN_PIVOT_GROWTH: f64 = 1e-1;

/// Fewest columns left, pivot included, at which the elimination
/// starts its block kernel. Below it the slice loops are too short to
/// repay the switch and each column's gather into positions: factors of
/// 138–274 columns whose blocks are 15–20 wide took 1–6 % longer with
/// the kernel, blocks of 33–40 broke even and one of 75 gained 2–3 %
/// (DESIGN §12.2).
const MIN_BLOCK_COLS: usize = 32;

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
/// let lu = SparseLu::new_fill_reducing(&a.to_csr())?;
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
    /// Columns the elimination stored in position order and updated from
    /// as slices (see [`SparseLu::dense_block`]).
    dense_block: usize,
    /// Column where the attempt at [`DIAG_PIVOT_TOL`] stopped, when this
    /// factor is the redo at [`STRICT_DIAG_PIVOT_TOL`].
    redo_from: Option<usize>,
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
    /// Factors `A` under KLU's fill-reducing recipe: orders its pattern
    /// by [`FillOrdering::of`], then factors under that ordering with
    /// [`SparseLu::with_ordering`].
    ///
    /// # Errors
    ///
    /// * [`NumericsError::Singular`] for a structurally singular pattern
    ///   (no transversal) or a column with no usable pivot.
    /// * Everything [`SparseLu::with_ordering`] returns.
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
    /// * [`NumericsError::NotSquare`] if the matrix is not square.
    /// * [`NumericsError::DimensionMismatch`] if the dimension does not fit
    ///   the factor's 32-bit indices, or `ordering` orders another
    ///   dimension.
    /// * [`NumericsError::Singular`] for a column with no usable pivot.
    pub fn with_ordering(a: &CsrMatrix<T>, ordering: &FillOrdering) -> Result<Self, NumericsError> {
        Self::factor_ordered(a, ordering, true)
    }

    /// [`SparseLu::with_ordering`] with every update scattered through
    /// row indices, the dense trailing block included: the reference the
    /// block kernel is checked against, pivots and entries bit for bit.
    /// Built for tests only (the crate's own, and those that enable the
    /// `indexed-sweep` feature).
    ///
    /// # Errors
    ///
    /// Everything [`SparseLu::with_ordering`] returns.
    #[cfg(any(test, feature = "indexed-sweep"))]
    pub fn with_ordering_indexed(
        a: &CsrMatrix<T>,
        ordering: &FillOrdering,
    ) -> Result<Self, NumericsError> {
        Self::factor_ordered(a, ordering, false)
    }

    /// The factor of [`SparseLu::with_ordering`], with the block kernel
    /// when `slices` holds and through row indices only when not.
    fn factor_ordered(
        a: &CsrMatrix<T>,
        ordering: &FillOrdering,
        slices: bool,
    ) -> Result<Self, NumericsError> {
        check_dim(a)?;
        let (rows, cols) = (&ordering.rows, &ordering.cols);
        let columns = permuted_transpose(a, rows, cols)?;
        let lu = match Self::threshold_attempt(&columns, slices) {
            Ok(lu) => lu,
            Err(j) => SparseLu {
                redo_from: Some(j),
                ..Self::factor_columns(&columns, STRICT_DIAG_PIVOT_TOL, slices)?
            },
        };
        Ok(lu.unpermuted(rows, cols))
    }

    /// The factor of `B` (given by columns) at [`DIAG_PIVOT_TOL`], or
    /// `Err(j)` at the first column `j` with no usable pivot or with a
    /// reciprocal growth `max|B[:,j]| / max|U[:,j]|` below
    /// [`MIN_PIVOT_GROWTH`]. U column `j` is final once column `j`
    /// pivots, so stopping there decides what factoring to the end and
    /// then checking the minimum would.
    fn threshold_attempt(columns: &CsrMatrix<T>, slices: bool) -> Result<Self, usize> {
        let mut elim = Elimination::new(columns, DIAG_PIVOT_TOL, slices);
        for j in 0..columns.rows() {
            if elim.column(j).map_err(|_| j)? < MIN_PIVOT_GROWTH {
                return Err(j);
            }
        }
        Ok(elim.finish())
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
    /// (`at.row(j)` is column `j`, rows ascending, row `j` its diagonal)
    /// at pivot threshold `tol`.
    fn factor_columns(at: &CsrMatrix<T>, tol: f64, slices: bool) -> Result<Self, NumericsError> {
        let mut elim = Elimination::new(at, tol, slices);
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

    /// Columns the elimination stored in position order and updated from
    /// as slices: from the first column whose L column holds every
    /// unpivoted row with at least 32 columns left, every column whose L
    /// column does. On a factor whose L columns are full from its dense
    /// trailing block on, and not before it, this is the block's width,
    /// or 0 for a block narrower than 32 columns.
    pub fn dense_block(&self) -> usize {
        self.dense_block
    }

    /// The column, in elimination order, where the first attempt at
    /// threshold 10⁻³ stopped (no usable pivot, or reciprocal growth below
    /// 0.1) when this factor is the redo at 10⁻¹; `None` when the first
    /// attempt was accepted.
    pub fn redo_from(&self) -> Option<usize> {
        self.redo_from
    }

    /// Where `self` and `other` differ, or `None` when their pivots, index
    /// maps, patterns, trailing blocks and every L and U entry agree bit
    /// for bit (signed zeros included). Built for tests only, with
    /// [`SparseLu::with_ordering_indexed`].
    #[cfg(any(test, feature = "indexed-sweep"))]
    pub fn first_difference(&self, other: &Self) -> Option<String> {
        // Debug text is the shortest round-trip form of every part, so two
        // values print alike exactly when their bits agree.
        let bits = |v: &[T]| v.iter().map(|x| format!("{x:?}")).collect::<Vec<_>>();
        let parts = [
            ("dim", vec![self.n], vec![other.n]),
            ("tail", vec![self.tail], vec![other.tail]),
            (
                "off-diagonal pivots",
                vec![self.off_diagonal_pivots],
                vec![other.off_diagonal_pivots],
            ),
            ("l_ptr", self.l_ptr.clone(), other.l_ptr.clone()),
            ("u_ptr", self.u_ptr.clone(), other.u_ptr.clone()),
        ];
        let indices = [
            ("row_src", &self.row_src, &other.row_src),
            ("col_dst", &self.col_dst, &other.col_dst),
            ("l_idx", &self.l_idx, &other.l_idx),
            ("u_idx", &self.u_idx, &other.u_idx),
        ];
        let values = [
            ("l_val", &self.l_val, &other.l_val),
            ("u_val", &self.u_val, &other.u_val),
            ("u_diag", &self.u_diag, &other.u_diag),
        ];
        parts
            .into_iter()
            .find(|(_, a, b)| a != b)
            .map(|(what, ..)| what)
            .or_else(|| {
                indices
                    .into_iter()
                    .find(|(_, a, b)| a != b)
                    .map(|(w, ..)| w)
            })
            .or_else(|| {
                values
                    .into_iter()
                    .find(|(_, a, b)| bits(a) != bits(b))
                    .map(|(w, ..)| w)
            })
            .map(|what| format!("the factors differ in {what}"))
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
///
/// The block kernel starts at the first column whose L column stores
/// every unpivoted row. From there each row has a position: a pivoted row
/// its pivot column, the unpivoted rows the positions after the pivoted
/// ones. An L column that stores every unpivoted row (a *dense* one) is
/// kept in `panel` in position order (its entry `e` is position
/// `k + 1 + e`), and a pivot found at another position is swapped to its
/// column's, in the positions and in those columns.
///
/// `panel` and `xs` keep the real and imaginary parts of their values in
/// separate runs of `f64`, so that the slice loops over them vectorize
/// for complex values too.
struct Elimination<'a, T> {
    /// The matrix by columns: `at.row(j)` is column `j`, rows ascending.
    at: &'a CsrMatrix<T>,
    /// Pivot threshold: column `j` keeps its diagonal when
    /// `|x_jj| ≥ tol · max_i |x_ij|`.
    tol: f64,
    /// Whether the block kernel may start: `false` only for the
    /// row-indexed reference the tests compare it with.
    slices: bool,
    l_ptr: Vec<usize>,
    l_idx: Vec<u32>,
    /// L's values in the order of `l_idx`; a dense column holds zeros
    /// here until [`Elimination::finish`] and its values in `panel`.
    l_val: Vec<T>,
    /// `l_head[k]`: end of the part of L column `k` that the reach DFS
    /// walks. It is `l_ptr[k + 1]` until the column is pruned.
    l_head: Vec<usize>,
    pruned: Vec<bool>,
    /// `dense[k]`: L column `k` stores every row unpivoted before column
    /// `k + 1`, and `panel` holds its values.
    dense: Vec<bool>,
    /// The values of the dense L columns by position: column `k`'s
    /// `n − 1 − k` real parts from `panel_at[k]` on, then, for complex
    /// `T`, as many imaginary parts.
    panel: Vec<f64>,
    panel_at: Vec<usize>,
    u_ptr: Vec<usize>,
    u_idx: Vec<u32>,
    u_val: Vec<T>,
    u_diag: Vec<T>,
    /// `pinv[r]`: the column row `r` pivoted in, or [`UNPIVOTED`].
    pinv: Vec<usize>,
    off_diagonal_pivots: usize,
    x: Vec<T>,
    /// Column the block kernel started at, or [`UNPIVOTED`] before.
    block_start: usize,
    /// `loc[r]`: the position of row `r` once the block kernel has
    /// started; `row_at` is its inverse.
    loc: Vec<usize>,
    row_at: Vec<usize>,
    /// The values of `x` by position while dense L columns update them:
    /// `n` real parts, then, for complex `T`, `n` imaginary parts.
    xs: Vec<f64>,
    /// `mark[r] == j` once column `j`'s DFS has visited row `r`.
    mark: Vec<usize>,
    /// Column `j`'s reach in DFS post-order.
    topo: Vec<usize>,
    /// DFS stack of (row, next-child cursor).
    stack: Vec<(usize, usize)>,
    /// Dense L columns to update from, in order.
    updates: Vec<usize>,
}

impl<'a, T: Scalar> Elimination<'a, T> {
    fn new(at: &'a CsrMatrix<T>, tol: f64, slices: bool) -> Self {
        let n = at.rows();
        Elimination {
            at,
            tol,
            slices,
            l_ptr: vec![0],
            l_idx: Vec::new(),
            l_val: Vec::new(),
            l_head: Vec::with_capacity(n),
            pruned: Vec::with_capacity(n),
            dense: Vec::with_capacity(n),
            panel: Vec::new(),
            panel_at: Vec::with_capacity(n),
            u_ptr: vec![0],
            u_idx: Vec::new(),
            u_val: Vec::new(),
            u_diag: Vec::with_capacity(n),
            pinv: vec![UNPIVOTED; n],
            off_diagonal_pivots: 0,
            x: vec![T::zero(); n],
            block_start: UNPIVOTED,
            loc: Vec::new(),
            row_at: Vec::new(),
            xs: Vec::new(),
            mark: vec![usize::MAX; n],
            topo: Vec::with_capacity(n),
            stack: Vec::with_capacity(n),
            updates: Vec::new(),
        }
    }

    /// Factors column `j` (every earlier column is done) and returns its
    /// reciprocal pivot growth `max|B[:,j]| / max|U[:,j]|`.
    fn column(&mut self, j: usize) -> Result<f64, NumericsError> {
        // L column `j` stores every unpivoted row exactly when the reach
        // holds all `n − j` of them.
        let left = self.pinv.len() - j;
        let full = self.reach(j) == left;
        if full && self.slices && self.block_start == UNPIVOTED && left >= MIN_BLOCK_COLS {
            self.start_block(j);
        }
        let dense = full && self.block_start != UNPIVOTED;
        let panel_start = self.panel.len();
        let (pivot_row, pivot_val) = self.eliminate(j, dense)?;
        self.panel_at.push(panel_start);
        if pivot_row != j {
            self.off_diagonal_pivots += 1;
        }
        self.u_diag.push(pivot_val);
        self.l_ptr.push(self.l_idx.len());
        self.l_head.push(self.l_idx.len());
        self.pruned.push(false);
        self.dense.push(dense);
        let u_col = self.u_ptr[j]..self.u_idx.len();
        self.u_ptr.push(self.u_idx.len());

        let a_max = max_modulus(0.0, self.at.row(j).1);
        let u_max = max_modulus(pivot_val.modulus(), &self.u_val[u_col]);
        self.prune(j, pivot_row);
        Ok(a_max / u_max)
    }

    /// Scatters, updates and gathers column `j`, and returns its pivot
    /// row and value. A `dense` column is gathered into the panel.
    ///
    /// `topo` lists each row after every row it updates, so walking it in
    /// reverse applies each pivot column before the rows it updates are
    /// read. The update walks the whole L column, pruned or not. Exact
    /// zeros are dropped from U but kept in L: pruning is valid only over
    /// L's structural pattern (see `prune`).
    fn eliminate(&mut self, j: usize, dense: bool) -> Result<(usize, T), NumericsError> {
        let (a_rows, a_vals) = self.at.row(j);
        for (&r, &v) in a_rows.iter().zip(a_vals) {
            self.x[r] = v;
        }
        let mut t = self.topo.len();
        while t > 0 {
            t -= 1;
            let r = self.topo[t];
            let k = self.pinv[r];
            if k == UNPIVOTED {
                continue;
            }
            if k >= self.block_start && self.dense[k] {
                t = self.dense_updates(t);
                continue;
            }
            let xr = self.x[r];
            if xr.is_zero() {
                continue;
            }
            let col = self.l_ptr[k]..self.l_ptr[k + 1];
            for (&i, &lv) in self.l_idx[col.clone()].iter().zip(&self.l_val[col]) {
                self.x[i as usize] -= lv * xr;
            }
        }

        let x = &mut self.x;
        let pivot_row = choose_pivot(&self.topo, &self.pinv, &self.mark, j, self.tol, |r| x[r])?;
        let pivot_val = x[pivot_row];
        self.pinv[pivot_row] = j;
        if self.block_start != UNPIVOTED && self.loc[pivot_row] != j {
            self.interchange(j, self.loc[pivot_row]);
        }
        let x = &mut self.x;
        for &r in &self.topo {
            let k = self.pinv[r];
            if r == pivot_row {
                // Diagonal handled separately.
            } else if k == UNPIVOTED {
                self.l_idx.push(r as u32);
                if !dense {
                    self.l_val
                        .push(std::mem::replace(&mut x[r], T::zero()) / pivot_val);
                }
            } else {
                let v = std::mem::replace(&mut x[r], T::zero());
                if !v.is_zero() {
                    self.u_idx.push(k as u32);
                    self.u_val.push(v);
                }
            }
        }
        x[pivot_row] = T::zero();
        if dense {
            // The unpivoted rows hold the positions after `j`: L column
            // `j` stores them in that order, while `l_idx` keeps the
            // reach's order for the DFS.
            let len = x.len() - 1 - j;
            let start = self.panel.len();
            self.panel.resize(start + len * parts::<T>(), 0.0);
            let (re, im) = self.panel[start..].split_at_mut(len);
            for (e, &r) in self.row_at[j + 1..].iter().enumerate() {
                let [a, b] = (std::mem::replace(&mut x[r], T::zero()) / pivot_val).parts();
                re[e] = a;
                if T::IS_COMPLEX {
                    im[e] = b;
                }
            }
            self.l_val.resize(self.l_val.len() + len, T::zero());
        }
        Ok((pivot_row, pivot_val))
    }

    /// Applies the dense L columns that `topo` lists from index `t` down
    /// until the next other pivoted row, in that order, and returns the
    /// index after the last one. The block's values are gathered by
    /// position first and put back after, so each column's update is a
    /// slice of `xs` — four at a time where the columns follow each other.
    fn dense_updates(&mut self, t: usize) -> usize {
        self.updates.clear();
        let mut t = t + 1;
        while t > 0 {
            let k = self.pinv[self.topo[t - 1]];
            if k != UNPIVOTED {
                if k < self.block_start || !self.dense[k] {
                    break;
                }
                self.updates.push(k);
            }
            t -= 1;
        }
        let first = self
            .updates
            .iter()
            .copied()
            .min()
            .unwrap_or(self.block_start);
        let n = self.x.len();
        let (x, row_at) = (&mut self.x, &self.row_at);
        let (xr, xi) = self.xs.split_at_mut(n);
        for (p, &r) in row_at.iter().enumerate().skip(first) {
            let [a, b] = x[r].parts();
            xr[p] = a;
            if T::IS_COMPLEX {
                xi[p] = b;
            }
        }
        let (panel, panel_at) = (&self.panel, &self.panel_at);
        let col = |k: usize| &panel[panel_at[k]..panel_at[k] + (n - 1 - k) * parts::<T>()];
        let mut c = 0;
        while c < self.updates.len() {
            let k = self.updates[c];
            let run = self.updates[c..].iter().zip(k..).take(4);
            if run.filter(|&(&kk, want)| kk == want).count() == 4 {
                update_run::<T>(xr, xi, k, [col(k), col(k + 1), col(k + 2), col(k + 3)]);
                c += 4;
            } else {
                update_slice::<T>(xr, xi, k, col(k));
                c += 1;
            }
        }
        for (p, &r) in row_at.iter().enumerate().skip(first) {
            x[r] = value_at(xr, xi, p);
        }
        t
    }

    /// Starts the block kernel at column `j`: the pivoted rows take their
    /// pivot columns as positions and the unpivoted ones, ascending, the
    /// positions `j..n`.
    fn start_block(&mut self, j: usize) {
        let n = self.pinv.len();
        self.loc = vec![0; n];
        self.row_at = vec![0; n];
        self.xs = vec![0.0; n * parts::<T>()];
        // Room for every remaining column to be dense, so the panel never
        // grows by doubling.
        let left = n - j;
        self.panel
            .reserve_exact(left * (left - 1) / 2 * parts::<T>());
        let mut next = j;
        for (r, &k) in self.pinv.iter().enumerate() {
            let p = if k == UNPIVOTED {
                next += 1;
                next - 1
            } else {
                k
            };
            self.loc[r] = p;
            self.row_at[p] = r;
        }
        self.block_start = j;
    }

    /// Swaps positions `j` and `q > j`: the rows there and their entries
    /// in every dense L column before `j`.
    fn interchange(&mut self, j: usize, q: usize) {
        let (rj, rq) = (self.row_at[j], self.row_at[q]);
        self.row_at.swap(j, q);
        self.loc[rj] = q;
        self.loc[rq] = j;
        let n = self.x.len();
        for k in self.block_start..j {
            if self.dense[k] {
                // Entry `e` of the column's parts is position `k + 1 + e`.
                let len = n - 1 - k;
                for part in 0..parts::<T>() {
                    let first = self.panel_at[k] + part * len;
                    self.panel.swap(first + (j - k - 1), first + (q - k - 1));
                }
            }
        }
    }

    /// Fills `topo` with the reach of column `j`'s pattern through L's
    /// graph, in DFS post-order, and returns how many of its rows are
    /// unpivoted. A row pivoted in column `k` leads to the rows of L
    /// column `k` up to `l_head[k]`.
    fn reach(&mut self, j: usize) -> usize {
        self.topo.clear();
        let mut unpivoted = 0;
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
                        unpivoted += usize::from(k == UNPIVOTED);
                        self.topo.push(r);
                        stack.pop();
                    }
                }
            }
        }
        unpivoted
    }

    /// Symmetric pruning (Eisenstat & Liu, as in KLU): every unpruned L
    /// column `k` with a stored U(k, j) that holds column `j`'s pivot row
    /// is partitioned with its pivoted rows first, and the reach DFS stops
    /// where they end. Each unpivoted row left in the tail of column `k`
    /// is in column `j`'s reach, so L column `j` stores it, zero or not,
    /// and the DFS still finds it through the pivot row in the head. A
    /// dense column's values stay in position order.
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
                    if !self.dense[k] {
                        self.l_val.swap(head, tail);
                    }
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
    /// and the dense trailing block's entries are put in row order. A
    /// dense L column's values are already in that order; one before the
    /// trailing block takes the order of its indices.
    fn finish(self) -> SparseLu<T> {
        let Elimination {
            l_ptr,
            mut l_idx,
            mut l_val,
            dense,
            panel,
            panel_at,
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
        for (k, &dense) in dense.iter().enumerate() {
            let col = l_ptr[k]..l_ptr[k + 1];
            let (idx, val) = (&mut l_idx[col.clone()], &mut l_val[col]);
            if dense {
                // Entry `e` of the panel column is the row at position
                // `k + 1 + e`, which is its pivot position now.
                let (re, im) = panel[panel_at[k]..].split_at(n - 1 - k);
                if k >= tail {
                    for (e, (i, v)) in idx.iter_mut().zip(val).enumerate() {
                        *i = (k + 1 + e) as u32;
                        *v = value_at(re, im, e);
                    }
                } else {
                    for (&i, v) in idx.iter().zip(val) {
                        *v = value_at(re, im, i as usize - (k + 1));
                    }
                }
            } else if k >= tail {
                place_in_row_order(idx, val, k + 1, n - 1 - k);
            }
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
            dense_block: dense.iter().filter(|&&d| d).count(),
            redo_from: None,
        }
    }
}

/// An upper bound on `v.modulus()` that needs no square root: the
/// modulus itself for a real value, `(|re| + |im|)·(1 + 4ε)` for a complex
/// one. `|re| + |im|` bounds the exact modulus, and the margin covers the
/// rounding of the sum and of the modulus (within an ulp), so a value
/// whose bound is at most `m` has a modulus below `m`.
fn modulus_bound<T: Scalar>(v: T) -> f64 {
    if T::IS_COMPLEX {
        let [re, im] = v.parts();
        (re.abs() + im.abs()) * (1.0 + 4.0 * f64::EPSILON)
    } else {
        v.modulus()
    }
}

/// `values.fold(init, |m, v| m.max(v.modulus()))`, taking the modulus
/// (a `hypot` for complex values) only of values whose
/// [`modulus_bound`] exceeds the running maximum: the others cannot
/// raise it.
fn max_modulus<T: Scalar>(init: f64, values: &[T]) -> f64 {
    values.iter().fold(init, |m, &v| {
        if modulus_bound(v) > m {
            m.max(v.modulus())
        } else {
            m
        }
    })
}

/// Column `j`'s pivot row among the unpivoted rows of its reach `topo`,
/// whose values `value` reads: the largest magnitude (the first met on
/// ties), unless row `j` is in the reach, unpivoted and at least `tol`
/// times that large.
///
/// # Errors
///
/// [`NumericsError::Singular`] when every candidate is zero or there is
/// none.
fn choose_pivot<T: Scalar>(
    topo: &[usize],
    pinv: &[usize],
    mark: &[usize],
    j: usize,
    tol: f64,
    value: impl Fn(usize) -> T,
) -> Result<usize, NumericsError> {
    let mut pivot_row = UNPIVOTED;
    let mut pivot_mag = 0.0f64;
    for &r in topo {
        if pinv[r] == UNPIVOTED {
            let v = value(r);
            if modulus_bound(v) > pivot_mag {
                let mag = v.modulus();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
        }
    }
    if pivot_row == UNPIVOTED || pivot_mag == 0.0 {
        return Err(NumericsError::Singular { step: j });
    }
    if pivot_row != j
        && pinv[j] == UNPIVOTED
        && mark[j] == j
        && value(j).modulus() >= tol * pivot_mag
    {
        pivot_row = j;
    }
    Ok(pivot_row)
}

/// How many `f64` parts a value of `T` keeps in `panel` and `xs`: 2 for
/// complex, 1 for real.
const fn parts<T: Scalar>() -> usize {
    if T::IS_COMPLEX {
        2
    } else {
        1
    }
}

/// The value at `p` of a vector kept as real parts `re` and, for complex
/// `T`, imaginary parts `im`.
fn value_at<T: Scalar>(re: &[f64], im: &[f64], p: usize) -> T {
    T::from_parts([re[p], if T::IS_COMPLEX { im[p] } else { 0.0 }])
}

/// `x[i] -= l[i]·f` over the parts of `x` and `l`, each product and
/// difference rounded as `T`'s arithmetic rounds `x − l·f`.
fn sub_scaled<T: Scalar>(xr: &mut [f64], xi: &mut [f64], lr: &[f64], li: &[f64], f: T) {
    let [fr, fi] = f.parts();
    if T::IS_COMPLEX {
        let rows = xr.iter_mut().zip(xi.iter_mut());
        for ((vr, vi), (&ar, &ai)) in rows.zip(lr.iter().zip(li)) {
            *vr -= ar * fr - ai * fi;
            *vi -= ar * fi + ai * fr;
        }
    } else {
        for (v, &a) in xr.iter_mut().zip(lr) {
            *v -= a * fr;
        }
    }
}

/// The parts of positions `range` of a vector kept as `n` real parts
/// `xr` and, for complex `T`, `n` imaginary parts `xi`.
fn part_range<'a, T: Scalar>(
    xr: &'a mut [f64],
    xi: &'a mut [f64],
    range: Range<usize>,
) -> (&'a mut [f64], &'a mut [f64]) {
    let xi = if T::IS_COMPLEX {
        &mut xi[range.clone()]
    } else {
        xi
    };
    (&mut xr[range], xi)
}

/// The update from the dense L column `k` whose parts `l` hold
/// positions `k + 1..`: `x[i] -= l[i]·x[k]`, unless `x[k]` is zero.
fn update_slice<T: Scalar>(xr: &mut [f64], xi: &mut [f64], k: usize, l: &[f64]) {
    let f: T = value_at(xr, xi, k);
    if !f.is_zero() {
        let (lr, li) = l.split_at(xr.len() - 1 - k);
        let n = xr.len();
        let (xr, xi) = part_range::<T>(xr, xi, k + 1..n);
        sub_scaled(xr, xi, lr, li, f);
    }
}

/// The updates from dense L columns `k..k + 4`, in that order, as
/// [`update_slice`] applies them one after another: each column first
/// updates the multipliers of the ones after it, then all four sweep the
/// positions from `k + 4` on together. A zero multiplier skips its column.
fn update_run<T: Scalar>(xr: &mut [f64], xi: &mut [f64], k: usize, l: [&[f64]; 4]) {
    let n = xr.len();
    // Column `k + s` holds positions `k + s + 1..`: its real parts, then
    // its imaginary ones.
    let cols: [(&[f64], &[f64]); 4] = std::array::from_fn(|s| l[s].split_at(n - 1 - (k + s)));
    let mut f = [T::zero(); 4];
    for s in 0..4 {
        f[s] = value_at(xr, xi, k + s);
        if !f[s].is_zero() {
            let (lr, li) = cols[s];
            let (lr, li) = (&lr[..3 - s], if T::IS_COMPLEX { &li[..3 - s] } else { li });
            let (vr, vi) = part_range::<T>(xr, xi, k + s + 1..k + 4);
            sub_scaled(vr, vi, lr, li, f[s]);
        }
    }
    let tails: [(&[f64], &[f64]); 4] = std::array::from_fn(|s| {
        let (lr, li) = cols[s];
        (&lr[3 - s..], if T::IS_COMPLEX { &li[3 - s..] } else { li })
    });
    let (xr, xi) = part_range::<T>(xr, xi, k + 4..n);
    if f.iter().all(|v| !v.is_zero()) {
        if T::IS_COMPLEX {
            sub4_complex(
                xr,
                xi,
                f.map(Scalar::parts),
                tails.map(|t| t.0),
                tails.map(|t| t.1),
            );
        } else {
            let f = f.map(|v| v.parts()[0]);
            sub4(xr, f, tails[0].0, tails[1].0, tails[2].0, tails[3].0);
        }
    } else {
        for (fs, (lr, li)) in f.into_iter().zip(tails) {
            if !fs.is_zero() {
                sub_scaled(xr, xi, lr, li, fs);
            }
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
    use crate::{Complex64, CooMatrix, DenseMatrix, LuFactor};

    fn csr_from_dense(d: &DenseMatrix<f64>) -> CsrMatrix<f64> {
        CsrMatrix::from_dense(d, 0.0)
    }

    /// The factor of `a` in its given order, each column's diagonal its
    /// own row.
    fn natural<T: Scalar>(a: &CsrMatrix<T>) -> Result<SparseLu<T>, NumericsError> {
        SparseLu::with_ordering(a, &FillOrdering::natural(a.rows()))
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
        let lu = SparseLu::new_fill_reducing(&a).unwrap();
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
        let xs = SparseLu::new_fill_reducing(&csr_from_dense(&d))
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
        // (voltage-source branch rows); in their given order the pivots
        // must leave the diagonal.
        let d = DenseMatrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 2.0], &[0.0, 2.0, 1.0]])
            .unwrap();
        let lu = natural(&csr_from_dense(&d)).unwrap();
        assert!(lu.off_diagonal_pivots() > 0);
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
            SparseLu::new_fill_reducing(&csr_from_dense(&d)),
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
            SparseLu::new_fill_reducing(&coo.to_csr()),
            Err(NumericsError::Singular { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let coo = CooMatrix::<f64>::new(2, 3);
        assert!(matches!(
            SparseLu::new_fill_reducing(&coo.to_csr()),
            Err(NumericsError::NotSquare { .. })
        ));
    }

    #[test]
    fn rhs_length_checked() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 1.0).unwrap();
        let lu = SparseLu::new_fill_reducing(&coo.to_csr()).unwrap();
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
        let lu = SparseLu::new_fill_reducing(&coo.to_csr()).unwrap();
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
        let lu = SparseLu::new_fill_reducing(&a).unwrap();
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
        let xs = natural(&a).unwrap().solve(&b).unwrap();
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
            assert_eq!(
                SparseLu::with_ordering(&other, &ordering)
                    .unwrap()
                    .first_difference(&SparseLu::new_fill_reducing(&other).unwrap()),
                None
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
        // passes 1e-3 · 1 and stays.
        let d = DenseMatrix::from_rows(&[&[2e-3, 1.0], &[1.0, 1.0]]).unwrap();
        let a = csr_from_dense(&d);
        let kept = SparseLu::factor_columns(&a.transpose(), DIAG_PIVOT_TOL, true).unwrap();
        assert_eq!(kept.off_diagonal_pivots(), 0);
        assert_eq!(kept.row_src, vec![0, 1]);
        // At 5e-4 the diagonal fails the threshold and is left.
        let d = DenseMatrix::from_rows(&[&[5e-4, 1.0], &[1.0, 1.0]]).unwrap();
        let left = SparseLu::factor_columns(&csr_from_dense(&d).transpose(), DIAG_PIVOT_TOL, true)
            .unwrap();
        assert_eq!(left.off_diagonal_pivots(), 2);
        assert_eq!(left.row_src, vec![1, 0]);
        const { assert!(DIAG_PIVOT_TOL > 5e-4 && DIAG_PIVOT_TOL <= 2e-3) };
    }

    /// `min_j max|B[:,j]| / max|U[:,j]|` of factoring `at` (by columns)
    /// to the end.
    fn reciprocal_pivot_growth(at: &CsrMatrix<f64>, tol: f64) -> f64 {
        let mut elim = Elimination::new(at, tol, true);
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
        let loose = reciprocal_pivot_growth(&a.transpose(), DIAG_PIVOT_TOL);
        assert!((loose - 1.0 / 499.0).abs() < 1e-12);
        let strict = reciprocal_pivot_growth(&a.transpose(), STRICT_DIAG_PIVOT_TOL);
        assert!(strict >= MIN_PIVOT_GROWTH);
        let lu = SparseLu::new_fill_reducing(&a).unwrap();
        assert_eq!(lu.off_diagonal_pivots(), 2);
        // The loose attempt stopped at the last column, where U grew.
        assert_eq!(lu.redo_from(), Some(1));
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
        let lu = natural(&csr_from_dense(&d)).unwrap();
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
        let mut elim = Elimination::new(&columns, DIAG_PIVOT_TOL, true);
        let growth: Result<Vec<f64>, _> = (0..columns.rows()).map(|j| elim.column(j)).collect();
        let passed =
            growth.is_ok_and(|g| g.into_iter().fold(f64::INFINITY, f64::min) >= MIN_PIVOT_GROWTH);
        let lu = if passed {
            elim.finish()
        } else {
            SparseLu::factor_columns(&columns, STRICT_DIAG_PIVOT_TOL, true).unwrap()
        };
        (lu.unpermuted(&rows, &q), passed)
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
            let lu = SparseLu::new_fill_reducing(&a).unwrap();
            assert_eq!(lu.first_difference(&expected), None, "seed {seed}");
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
                natural(&a).unwrap(),
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
        let lu = natural(&csr_from_dense(&diagonal)).unwrap();
        assert_eq!(lu.tail, n - 1);
        assert_eq!(lu.dense_tail_nnz(), 2);
        let lu = natural(&csr_from_dense(&arrow)).unwrap();
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
        let sparse = natural(&csr_from_dense(&d)).unwrap();
        let dense = LuFactor::new(&d).unwrap();
        assert_eq!(
            sparse.diag_condition_estimate(),
            dense.diag_condition_estimate()
        );
        assert!(sparse.diag_condition_estimate() > 1e6);
    }

    /// Complex values over the whole exponent range, with parts of every
    /// ratio, and edge cases: one part zero, parts far apart, subnormal
    /// and near-overflow parts.
    fn awkward_complex_values(seed: u64, count: usize) -> Vec<Complex64> {
        let mut rng = crate::rng::XorShift64::new(seed);
        let mut values = vec![
            Complex64::new(1.0, 1.5e-16),
            Complex64::new(1.0, 1.1e-16),
            Complex64::new(5e-324, 5e-324),
            Complex64::new(1e-323, -5e-324),
            Complex64::new(-3.0, 0.0),
            Complex64::new(0.0, -0.0),
            Complex64::new(1e308, 1e308),
            Complex64::new(f64::MIN_POSITIVE, 1e-300),
        ];
        for _ in 0..count {
            let scale = 10f64.powf(rng.range_f64(-310.0, 300.0));
            let ratio = 10f64.powf(rng.range_f64(-20.0, 0.0));
            let (a, b) = (
                rng.range_f64(-1.0, 1.0) * scale,
                rng.range_f64(-1.0, 1.0) * scale * ratio,
            );
            values.push(if rng.range_usize(0, 2) == 0 {
                Complex64::new(a, b)
            } else {
                Complex64::new(b, a)
            });
        }
        values
    }

    #[test]
    fn modulus_bound_is_never_below_the_modulus() {
        for v in awkward_complex_values(0x6d6f, 200_000) {
            assert!(v.modulus() <= modulus_bound(v), "{v:?}");
        }
        assert_eq!(modulus_bound(-2.5f64), 2.5);
    }

    #[test]
    fn bounded_searches_find_what_the_plain_ones_find() {
        // Runs of equal and nearly equal moduli, so ties and near-ties
        // decide both the maximum and the pivot.
        let mut rng = crate::rng::XorShift64::new(0x7069);
        for case in 0..2_000 {
            let mut values = awkward_complex_values(case, 40);
            let pick =
                |rng: &mut crate::rng::XorShift64, v: &[Complex64]| v[rng.range_usize(0, v.len())];
            for _ in 0..20 {
                let z = pick(&mut rng, &values);
                let near = Complex64::new(z.re * (1.0 + f64::EPSILON), z.im);
                values.extend([z, Complex64::new(z.im, z.re), near]);
            }
            let n = values.len();
            let init = [0.0, pick(&mut rng, &values).modulus()][case as usize % 2];
            let plain = values.iter().fold(init, |m, v| m.max(v.modulus()));
            assert_eq!(
                max_modulus(init, &values).to_bits(),
                plain.to_bits(),
                "case {case}"
            );

            let topo: Vec<usize> = (0..n).map(|i| (i * 7 + case as usize) % n).collect();
            let pinv: Vec<usize> = (0..n)
                .map(|r| {
                    if rng.range_usize(0, 4) == 0 {
                        r
                    } else {
                        UNPIVOTED
                    }
                })
                .collect();
            let (j, mark) = (rng.range_usize(0, n), vec![rng.range_usize(0, n); n]);
            let mut expected = UNPIVOTED;
            let mut expected_mag = 0.0f64;
            for &r in &topo {
                if pinv[r] == UNPIVOTED && values[r].modulus() > expected_mag {
                    expected_mag = values[r].modulus();
                    expected = r;
                }
            }
            let got = choose_pivot(&topo, &pinv, &mark, j, 1e-3, |r| values[r]);
            if expected == UNPIVOTED {
                assert!(got.is_err(), "case {case}");
            } else if expected != j
                && pinv[j] == UNPIVOTED
                && mark[j] == j
                && values[j].modulus() >= 1e-3 * expected_mag
            {
                assert_eq!(got, Ok(j), "case {case}");
            } else {
                assert_eq!(got, Ok(expected), "case {case}");
            }
        }
    }

    /// A bordered system, its parts kept as complex values: a chain of
    /// `chain` nodes (tridiagonal, dominant), then a dense clique of
    /// `width` rows and columns with parts in [−1, 1] and a diagonal of
    /// `width / 4 + 2`. Every other clique row, the first included, is
    /// coupled both ways to two chain nodes, so in the given order the
    /// last chain column's L column misses the other clique rows and the
    /// dense trailing block is exactly the clique.
    fn bordered(seed: u64, chain: usize, width: usize) -> DenseMatrix<Complex64> {
        let n = chain + width;
        let mut rng = crate::rng::XorShift64::new(seed);
        let mut random = || Complex64::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0));
        let mut d = DenseMatrix::<Complex64>::zeros(n, n);
        for i in 0..chain {
            d[(i, i)] = Complex64::new(4.0, 1.0);
            if i + 1 < chain {
                d[(i, i + 1)] = Complex64::new(-1.0, 0.5);
                d[(i + 1, i)] = Complex64::new(-1.0, -0.5);
            }
        }
        for i in chain..n {
            for j in chain..n {
                d[(i, j)] = random();
            }
            d[(i, i)] += Complex64::from_real((width / 4 + 2) as f64);
        }
        let mut rng = crate::rng::XorShift64::new(seed ^ 0xb0de);
        for r in (chain..n).step_by(2) {
            for _ in 0..2 {
                let c = rng.range_usize(0, chain);
                d[(r, c)] = Complex64::new(rng.range_f64(-1.0, 1.0), 0.25);
                d[(c, r)] = Complex64::new(rng.range_f64(-1.0, 1.0), -0.25);
            }
        }
        d
    }

    /// `d`'s values in `T`: a real `T` keeps the real parts.
    fn in_scalar<T: Scalar>(d: &DenseMatrix<Complex64>) -> CsrMatrix<T> {
        let n = d.rows();
        CsrMatrix::from_dense(
            &DenseMatrix::from_fn(n, n, |i, j| T::from_parts(d[(i, j)].parts())),
            0.0,
        )
    }

    /// Factors `d` in its given order and under transversal + AMD, each
    /// with the block kernel and with the row-indexed reference, asserts
    /// that both give the same factor bit for bit (or fail at the same
    /// step), and returns the block kernel's factor in the given order.
    fn check_block_kernel<T: Scalar>(
        what: &str,
        d: &DenseMatrix<Complex64>,
    ) -> Result<SparseLu<T>, NumericsError> {
        let a = in_scalar::<T>(d);
        let mut natural = None;
        for ordering in [
            FillOrdering::natural(a.rows()),
            FillOrdering::of(&a).unwrap(),
        ] {
            let lu = SparseLu::with_ordering(&a, &ordering);
            match (&lu, &SparseLu::with_ordering_indexed(&a, &ordering)) {
                (Ok(lu), Ok(reference)) => {
                    assert_eq!(lu.first_difference(reference), None, "{what}");
                }
                (lu, reference) => {
                    assert_eq!(lu.as_ref().err(), reference.as_ref().err(), "{what}");
                }
            }
            natural.get_or_insert(lu);
        }
        natural.unwrap()
    }

    /// The width of a factor's dense trailing block.
    fn tail_width<T: Scalar>(lu: &SparseLu<T>) -> usize {
        lu.n - lu.tail
    }

    fn check_bordered_cliques<T: Scalar>() {
        for width in [2, 40, 200] {
            for seed in 1..=2 {
                let what = format!("width {width}, seed {seed}");
                let lu = check_block_kernel::<T>(&what, &bordered(seed, 30, width)).unwrap();
                let eliminated = if width >= MIN_BLOCK_COLS { width } else { 0 };
                assert_eq!(lu.dense_block(), eliminated, "{what}");
                assert_eq!(tail_width(&lu), width, "{what}");
                assert_eq!(lu.dense_tail_nnz(), width * width + width, "{what}");
            }
        }
    }

    #[test]
    fn block_kernel_matches_the_row_indexed_update_on_bordered_cliques_real() {
        check_bordered_cliques::<f64>();
    }

    #[test]
    fn block_kernel_matches_the_row_indexed_update_on_bordered_cliques_complex() {
        check_bordered_cliques::<Complex64>();
    }

    /// Clique columns whose diagonal stays below the threshold pivot off
    /// it: their rows hold 10⁻⁹ before the diagonal and 10⁻⁶ on it, so
    /// no update lifts it. Each of three pairs of clique rows, equal
    /// everywhere but in their own two columns, holds the largest entry
    /// of such a column, so the two tie exactly; the rows of the other
    /// two such columns come after the pairs' columns, so no pair row is
    /// taken before its tie.
    fn check_off_diagonal_pivots_and_ties<T: Scalar>() {
        let (chain, width) = (30, 40);
        let n = chain + width;
        for seed in 1..=3 {
            let mut d = bordered(seed, chain, width);
            let pairs = [(30, 10), (33, 15), (36, 20)];
            let small = [23, 27].into_iter().chain(pairs.map(|(_, c)| c));
            for c in small.map(|c| chain + c) {
                for k in 0..c {
                    d[(c, k)] = Complex64::new(1e-9, 0.0);
                }
                d[(c, c)] = Complex64::new(1e-6, 0.0);
            }
            for &(a, c) in &pairs {
                let (a, b) = (chain + a, chain + a + 1);
                d[(a, chain + c)] = Complex64::new(1e3, 1e3);
                for j in (0..n).filter(|&j| j != a && j != b) {
                    d[(b, j)] = d[(a, j)];
                }
            }
            let what = format!("seed {seed}");
            let lu = check_block_kernel::<T>(&what, &d).unwrap();
            assert!(lu.off_diagonal_pivots() >= 5, "{what}");
            assert_eq!(lu.dense_block(), width, "{what}");
            for &(a, c) in &pairs {
                let pivot = lu.row_src[chain + c] as usize - chain;
                assert!(
                    [a, a + 1].contains(&pivot),
                    "{what}: column {c} pivots on {pivot}"
                );
            }
        }
    }

    #[test]
    fn block_kernel_pivots_off_the_diagonal_and_breaks_ties_as_the_reference_real() {
        check_off_diagonal_pivots_and_ties::<f64>();
    }

    #[test]
    fn block_kernel_pivots_off_the_diagonal_and_breaks_ties_as_the_reference_complex() {
        check_off_diagonal_pivots_and_ties::<Complex64>();
    }

    /// Clique rows 0 and 1 are coupled to no chain node, so U(1, 5) of
    /// the clique is `2 − (1/2)·4`, exactly zero, and U drops it: the
    /// trailing block starts two columns into the clique, and the dense
    /// update of column 5 meets a zero multiplier inside a run of four.
    fn check_exact_zero_u_entry<T: Scalar>() {
        let (chain, width) = (30, 40);
        for seed in 1..=3 {
            let mut d = bordered(seed, chain, width);
            for c in 0..chain {
                d[(chain, c)] = Complex64::ZERO;
                d[(c, chain)] = Complex64::ZERO;
            }
            let set = |d: &mut DenseMatrix<Complex64>, i: usize, j: usize, v: f64| {
                d[(chain + i, chain + j)] = Complex64::new(v, v);
            };
            set(&mut d, 0, 0, 2.0);
            set(&mut d, 1, 0, 1.0);
            set(&mut d, 0, 5, 4.0);
            set(&mut d, 1, 5, 2.0);
            let what = format!("seed {seed}");
            let lu = check_block_kernel::<T>(&what, &d).unwrap();
            assert_eq!(lu.dense_block(), width, "{what}");
            assert_eq!(tail_width(&lu), width - 2, "{what}");
        }
    }

    #[test]
    fn block_kernel_drops_an_exact_zero_u_entry_as_the_reference_real() {
        check_exact_zero_u_entry::<f64>();
    }

    #[test]
    fn block_kernel_drops_an_exact_zero_u_entry_as_the_reference_complex() {
        check_exact_zero_u_entry::<Complex64>();
    }

    /// Clique column 10 keeps a 2·10⁻³ diagonal at the 10⁻³ threshold, so
    /// its L entries and the U entries after it grow past the bound and
    /// the attempt stops inside the block; the redo at 0.1 pivots off it.
    fn check_threshold_attempt_aborts_in_the_block<T: Scalar>() {
        let (chain, width) = (30, 40);
        let c = chain + 10;
        for seed in 1..=3 {
            let mut d = bordered(seed, chain, width);
            for j in 0..chain + width {
                d[(c, j)] = if j < c {
                    Complex64::new(1e-9, 0.0)
                } else {
                    Complex64::new(3.0, 0.0)
                };
            }
            for k in 0..chain {
                d[(c, k)] = Complex64::ZERO;
            }
            d[(c, c)] = Complex64::new(2e-3, 0.0);
            let what = format!("seed {seed}");
            let columns = in_scalar::<T>(&d).transpose();
            let mut elim = Elimination::new(&columns, DIAG_PIVOT_TOL, true);
            let stop = (0..chain + width)
                .find(|&j| elim.column(j).map_or(true, |g| g < MIN_PIVOT_GROWTH))
                .unwrap();
            assert!(elim.block_start <= c && c < stop, "{what}: stops at {stop}");
            let lu = check_block_kernel::<T>(&what, &d).unwrap();
            assert!(lu.off_diagonal_pivots() > 0, "{what}");
        }
    }

    #[test]
    fn threshold_attempt_aborting_in_the_block_redoes_as_the_reference_real() {
        check_threshold_attempt_aborts_in_the_block::<f64>();
    }

    #[test]
    fn threshold_attempt_aborting_in_the_block_redoes_as_the_reference_complex() {
        check_threshold_attempt_aborts_in_the_block::<Complex64>();
    }

    /// Ten clique rows copy clique row 5 exactly, so the block runs out of
    /// candidates after the first of the eleven pivots: in real
    /// arithmetic the others are then exactly zero, and the block fails
    /// ten columns before its end.
    fn check_block_turns_singular<T: Scalar>() {
        let (chain, width) = (30, 40);
        let n = chain + width;
        for seed in 1..=3 {
            let mut d = bordered(seed, chain, width);
            for r in chain + 20..chain + 30 {
                for j in 0..n {
                    d[(r, j)] = d[(chain + 5, j)];
                }
            }
            let what = format!("seed {seed}");
            let err = check_block_kernel::<T>(&what, &d).unwrap_err();
            let NumericsError::Singular { step } = err else {
                panic!("{what}: {err:?}");
            };
            assert!(step > chain + 20, "{what}: step {step}");
            if !T::IS_COMPLEX {
                assert_eq!(step, n - 10, "{what}");
            }
        }
    }

    #[test]
    fn block_turning_singular_fails_at_the_reference_step_real() {
        check_block_turns_singular::<f64>();
    }

    #[test]
    fn block_turning_singular_fails_at_the_reference_step_complex() {
        check_block_turns_singular::<Complex64>();
    }

    /// Clique column 20 holds only its diagonal and the row three below:
    /// its reach misses the other unpivoted rows, so inside the block it
    /// is eliminated through row indices, and later columns update from
    /// it that way. Its empty U column ends the trailing block after it.
    fn check_sparse_column_in_the_block<T: Scalar>() {
        let (chain, width) = (30, 40);
        let c = chain + 20;
        for seed in 1..=3 {
            let mut d = bordered(seed, chain, width);
            for i in (0..chain + width).filter(|&i| i != c && i != c + 3) {
                d[(i, c)] = Complex64::ZERO;
            }
            let what = format!("seed {seed}");
            let lu = check_block_kernel::<T>(&what, &d).unwrap();
            assert_eq!(lu.dense_block(), width - 1, "{what}");
            assert!(tail_width(&lu) < width - 20, "{what}");
        }
    }

    #[test]
    fn sparse_column_inside_the_block_matches_the_reference_real() {
        check_sparse_column_in_the_block::<f64>();
    }

    #[test]
    fn sparse_column_inside_the_block_matches_the_reference_complex() {
        check_sparse_column_in_the_block::<Complex64>();
    }
}
