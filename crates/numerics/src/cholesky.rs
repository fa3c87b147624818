//! Dense Cholesky factorization for symmetric positive-definite matrices.
//!
//! Plays two roles in the VPEC flow:
//!
//! * **Extraction** — the partial-inductance matrix `L` and the coupling-
//!   window submatrices `L⁽ᵐ⁾` are s.p.d., so Cholesky is the natural (and
//!   2× cheaper) factorization for the inversion and windowed solves.
//! * **Passivity verification** — a matrix is positive definite iff its
//!   Cholesky factorization succeeds, which is exactly how the passivity
//!   checker certifies Theorem 1 (`Ĝ` positive definite) on concrete models.

use crate::cancel::CancelToken;
use crate::kernel;
use crate::pool::{self, Pool};
use crate::{DenseMatrix, NumericsError};

/// Cholesky factorization `A = G·Gᵀ` of a symmetric positive-definite real
/// matrix (G lower-triangular).
///
/// # Example
///
/// ```
/// use vpec_numerics::{Cholesky, DenseMatrix};
///
/// # fn main() -> Result<(), vpec_numerics::NumericsError> {
/// let a = DenseMatrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let ch = Cholesky::new(&a)?;
/// let x = ch.solve(&[1.0, 0.0])?;
/// assert!((4.0 * x[0] + 2.0 * x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored densely (upper part zero).
    g: DenseMatrix<f64>,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the input is the
    /// caller's responsibility (use [`DenseMatrix::is_symmetric`] to check).
    ///
    /// # Errors
    ///
    /// * [`NumericsError::NotSquare`] if `a` is not square.
    /// * [`NumericsError::NotPositiveDefinite`] if a diagonal pivot is not
    ///   strictly positive — i.e. the matrix fails the passivity criterion.
    pub fn new(a: &DenseMatrix<f64>) -> Result<Self, NumericsError> {
        Self::with_threads(a, pool::max_threads())
    }

    /// Factors with an explicit worker count (`1` forces the serial
    /// left-looking elimination). Results are bit-identical for any thread
    /// count — the blocked path distributes trailing-submatrix rows over
    /// workers without changing per-row arithmetic order.
    ///
    /// # Errors
    ///
    /// Same as [`Cholesky::new`].
    pub fn with_threads(a: &DenseMatrix<f64>, threads: usize) -> Result<Self, NumericsError> {
        Self::with_threads_cancel(a, threads, &CancelToken::none())
    }

    /// [`Cholesky::with_threads`] with cooperative cancellation: the token
    /// is polled once per elimination column and a set token aborts with
    /// [`NumericsError::Cancelled`]. This is the engine's deadline hook
    /// into the `O(N³)` factor phase.
    ///
    /// # Errors
    ///
    /// Same as [`Cholesky::new`], plus [`NumericsError::Cancelled`].
    pub fn with_threads_cancel(
        a: &DenseMatrix<f64>,
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
            "cholesky.factor",
            "dim" => n,
            "mode" => pool::elim_mode(n),
        );
        let mut g = DenseMatrix::<f64>::zeros(n, n);
        pool::cholesky_eliminate_cancel(a.as_slice(), g.as_mut_slice(), n, threads, cancel)?;
        Ok(Cholesky { g })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.g.rows()
    }

    /// The lower-triangular factor `G`.
    pub fn factor(&self) -> &DenseMatrix<f64> {
        &self.g
    }

    /// Solves `A·x = b` via `G·y = b`, `Gᵀ·x = y`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b.len() != dim()`.
    ///
    /// Numerical class: audited-close (the forward sweep reduces rows
    /// with the four-accumulator `kernel::dot4`).
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        let n = self.dim();
        if b.len() != n {
            return Err(NumericsError::DimensionMismatch {
                op: "cholesky solve",
                expected: (n, 1),
                found: (b.len(), 1),
            });
        }
        let mut x = b.to_vec();
        self.forward(&mut x);
        // Back sweep Gᵀ·x = y in saxpy form: as each xⱼ finalizes, its
        // contribution is swept into the remaining prefix using row j of G
        // as a contiguous slice (instead of striding down column j).
        for j in (0..n).rev() {
            let row = self.g.row(j);
            let xj = x[j] / row[j];
            x[j] = xj;
            for (xi, &gji) in x[..j].iter_mut().zip(row[..j].iter()) {
                *xi -= gji * xj;
            }
        }
        Ok(x)
    }

    /// Forward sweep `G·y = b` in place, reducing each row slice against
    /// the solved prefix of `x` with the four-accumulator `kernel::dot4`
    /// (audited-close reassociation, deterministic per input).
    #[expect(
        clippy::disallowed_methods,
        reason = "Numerical class: audited-close (the forward sweep reduces rows with four accumulators)"
    )]
    fn forward(&self, x: &mut [f64]) {
        for i in 0..x.len() {
            let (solved, rest) = x.split_at_mut(i);
            let row = self.g.row(i);
            rest[0] = (rest[0] - kernel::dot4(&row[..i], solved)) / row[i];
        }
    }

    /// Computes `A⁻¹` from every entry [`Cholesky::inverse_entries`]
    /// forms when it keeps all pairs.
    ///
    /// Numerical class: audited-close. Entries `(i, j)` and `(j, i)` are
    /// one computed value, so the result is exactly symmetric.
    ///
    /// # Errors
    ///
    /// Cannot fail for a successfully constructed factorization; the
    /// `Result` mirrors [`Cholesky::inverse_cancel`].
    pub fn inverse(&self) -> Result<DenseMatrix<f64>, NumericsError> {
        self.inverse_cancel(&CancelToken::none())
    }

    /// [`Cholesky::inverse`] with cooperative cancellation, polled as
    /// [`Cholesky::inverse_entries`] polls it.
    ///
    /// # Errors
    ///
    /// [`NumericsError::Cancelled`] when the token fires; otherwise cannot
    /// fail for a successfully constructed factorization.
    pub fn inverse_cancel(&self, cancel: &CancelToken) -> Result<DenseMatrix<f64>, NumericsError> {
        let s = self.inverse_entries(|_, _| true, cancel)?;
        let mut inv = DenseMatrix::zeros(self.dim(), self.dim());
        for (i, &d) in s.diag.iter().enumerate() {
            inv[(i, i)] = d;
        }
        for &(i, j, v) in &s.upper {
            inv[(i, j)] = v;
            inv[(j, i)] = v;
        }
        Ok(inv)
    }

    /// The diagonal of `A⁻¹` and the entries `(i, j)`, `i < j`, for which
    /// `keep(i, j)` holds, and no other entry: no `n × n` inverse is
    /// formed.
    ///
    /// With `W = G⁻¹`, `A⁻¹ = Wᵀ·W`, so `(A⁻¹)ᵢⱼ = Σ_{k ≥ max(i,j)}
    /// W_ki·W_kj`. Column `j` of `W` is the forward sweep of `solve(e_j)`
    /// from row `j` down, bit for bit; all of `W` costs `n³/6`
    /// multiply-adds. Each formed entry is then one dot product of two
    /// columns of `W`, summed as `kernel::dot4` sums it from the multiple
    /// of four at or below `max(i, j)`; the all-pairs product is another
    /// `n³/6`, tiled so that chunks of the columns of `W` are reused from
    /// the L1 cache (DESIGN §12.1).
    ///
    /// Numerical class: audited-close. An entry's value does not depend
    /// on `keep`, on which other entries are formed, or on the worker
    /// count.
    ///
    /// # Errors
    ///
    /// [`NumericsError::Cancelled`] when the token fires. It is polled
    /// once per block of four columns of `W` and once per tile of the
    /// product, and a token that fired at any point fails the whole call,
    /// so no partial result escapes.
    pub fn inverse_entries<F>(
        &self,
        keep: F,
        cancel: &CancelToken,
    ) -> Result<InverseEntries, NumericsError>
    where
        F: Fn(usize, usize) -> bool + Sync,
    {
        let n = self.dim();
        let nt = pool::threads_for(n, pool::PAR_MIN_COLS);
        let _sp = vpec_trace::span!(
            "cholesky.inverse",
            "dim" => n,
            "mode" => if nt > 1 { "parallel" } else { "serial" },
            "workers" => nt,
        );
        let cancelled = || NumericsError::Cancelled {
            op: "cholesky inverse",
        };
        let pool = Pool::with_threads(nt);
        let wt = self.inverse_factor(pool, cancel);
        if cancel.is_cancelled() {
            return Err(cancelled());
        }
        // Panels near the top cost the most; `par_map` hands them out
        // one at a time, first come first served.
        let panels: Vec<usize> = (0..n).step_by(PANEL_ROWS).collect();
        let parts = pool.par_map(&panels, |_, &p0| panel_entries(&wt, p0, &keep, cancel));
        if cancel.is_cancelled() {
            return Err(cancelled());
        }
        let mut out = InverseEntries {
            diag: Vec::with_capacity(n),
            upper: Vec::with_capacity(parts.iter().map(|p| p.1.len()).sum()),
        };
        for (diag, upper) in parts {
            out.diag.extend(diag);
            out.upper.extend(upper);
        }
        Ok(out)
    }

    /// `Wᵀ` for `W = G⁻¹`: row `j` is column `j` of `W` from entry `j`
    /// on, zero before it. Columns `4b…4b+3` share one forward sweep from
    /// row `4b`, and each block owns four contiguous rows, so any worker
    /// count gives the same bits. The token is polled once per block; a
    /// skipped block stays zero.
    fn inverse_factor(&self, pool: Pool, cancel: &CancelToken) -> DenseMatrix<f64> {
        let n = self.dim();
        let mut wt = DenseMatrix::zeros(n, n);
        pool.par_chunks_mut(wt.as_mut_slice(), (4 * n).max(1), |off, rows| {
            if !cancel.is_cancelled() {
                self.forward_block(off / n, rows);
            }
        });
        wt
    }

    /// Fills `rows` — rows `j0..` of `Wᵀ`, at most four — with columns
    /// `j0..` of `W = G⁻¹` from row `j0` down.
    fn forward_block(&self, j0: usize, rows: &mut [f64]) {
        let mut it = rows.chunks_exact_mut(self.dim());
        match (it.next(), it.next(), it.next(), it.next()) {
            (Some(a), Some(b), Some(c), Some(d)) => self.forward_sweeps(j0, [a, b, c, d]),
            (Some(a), Some(b), Some(c), None) => self.forward_sweeps(j0, [a, b, c]),
            (Some(a), Some(b), None, _) => self.forward_sweeps(j0, [a, b]),
            (Some(a), None, ..) => self.forward_sweeps(j0, [a]),
            (None, ..) => {}
        }
    }

    /// Forward sweeps `G·w_c = e_{j0+c}` for each of the `R` vectors of
    /// `w`, computing entries `j0..` only. The entries above `j0` are
    /// zero, and the `dot4` slices start at `j0`, a multiple of four, so
    /// the skipped terms were exact zeros in the same accumulator lanes:
    /// every entry is the forward sweep of [`Cholesky::solve`] on
    /// `e_{j0+c}`, bit for bit.
    #[expect(
        clippy::disallowed_methods,
        reason = "Numerical class: audited-close (the forward sweep is Cholesky::solve's four-accumulator reduction)"
    )]
    fn forward_sweeps<const R: usize>(&self, j0: usize, mut w: [&mut [f64]; R]) {
        let n = self.dim();
        for (c, wc) in w.iter_mut().enumerate() {
            wc[j0 + c] = 1.0;
        }
        for i in j0..n {
            let row = self.g.row(i);
            for wc in w.iter_mut() {
                let (solved, rest) = wc.split_at_mut(i);
                rest[0] = (rest[0] - kernel::dot4(&row[j0..i], &solved[j0..])) / row[i];
            }
        }
    }

    /// Log-determinant of `A` (numerically robust for large matrices).
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.g[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Convenience: `true` iff `a` is symmetric (to `sym_tol`) and positive
    /// definite. This is the concrete passivity test used throughout the
    /// VPEC crates.
    pub fn is_spd(a: &DenseMatrix<f64>, sym_tol: f64) -> bool {
        a.is_symmetric(sym_tol) && Cholesky::new(a).is_ok()
    }
}

/// Entries of an SPD inverse formed by [`Cholesky::inverse_entries`].
#[derive(Debug, Clone, PartialEq)]
pub struct InverseEntries {
    /// `(A⁻¹)ᵢᵢ` for every `i`.
    pub diag: Vec<f64>,
    /// `(i, j, (A⁻¹)ᵢⱼ)` for every kept pair `i < j`, in row-major order.
    pub upper: Vec<(usize, usize, f64)>,
}

/// Rows of `A⁻¹` per task of the product `Wᵀ·W` (DESIGN §12.2).
const PANEL_ROWS: usize = 32;
/// Columns of `A⁻¹` per tile of a panel (DESIGN §12.2).
const TILE_COLS: usize = 32;
/// Entries of each column of `W` per pass over a tile, a multiple of
/// four (DESIGN §12.2): one pass's chunks of the tile's rows and columns
/// stay in the L1 cache while every block of the tile reads them.
const K_CHUNK: usize = 64;

/// The diagonal and the kept upper entries of rows `p0..p0 + PANEL_ROWS`
/// of `A⁻¹ = Wᵀ·W`, in row-major order, from `wt = Wᵀ` (zero left of its
/// diagonal).
///
/// The panel is cut into tiles of [`TILE_COLS`] columns and each tile
/// into 4 × 4 blocks. A block none of whose upper entries is kept, and
/// which holds no diagonal entry, is skipped. The others accumulate in
/// [`kernel::dot4_lanes`] over the columns of `W` from the tile's first
/// column `jt`, a multiple of four, in chunks of [`K_CHUNK`]; the terms
/// below `max(i, j)` are exact zeros, so for a pair `i ≤ j` the result
/// is `dot4` from the multiple of four at or below `j`, whichever other
/// entries are formed. Stops early, with a partial result, once `cancel`
/// fires.
fn panel_entries<F: Fn(usize, usize) -> bool>(
    wt: &DenseMatrix<f64>,
    p0: usize,
    keep: &F,
    cancel: &CancelToken,
) -> (Vec<f64>, Vec<(usize, usize, f64)>) {
    const QUADS: usize = PANEL_ROWS / 4;
    const COL_QUADS: usize = TILE_COLS / 4;
    let n = wt.rows();
    let p1 = (p0 + PANEL_ROWS).min(n);
    let n4 = n - n % 4;
    // Stands in for the rows past `n` of the last quads.
    let zero = vec![0.0; n];
    let row = |i: usize| if i < n { wt.row(i) } else { zero.as_slice() };
    // Row `i - p0` of `vals` holds the formed entries of row `i`, and
    // bit `4r + c` of `formed[(i - p0) / 4 · n/4 + j / 4]` marks entry
    // `(i, j)`, `r = i % 4`, `c = j % 4`, as formed.
    let col_quads = n.div_ceil(4);
    let mut vals = vec![0.0; (p1 - p0) * n];
    let mut formed = vec![0u16; QUADS * col_quads];
    let mut acc = [[[[0.0f64; 4]; 4]; 4]; QUADS * COL_QUADS];
    let mut active: Vec<(usize, usize, u16)> = Vec::with_capacity(QUADS * COL_QUADS);
    for jt in (p0..n).step_by(TILE_COLS) {
        if cancel.is_cancelled() {
            break;
        }
        active.clear();
        for q in 0..QUADS {
            for cq in 0..COL_QUADS {
                let (i0, j0) = (p0 + 4 * q, jt + 4 * cq);
                let mut mask = 0u16;
                for r in 0..4 {
                    for c in 0..4 {
                        let (i, j) = (i0 + r, j0 + c);
                        if i < p1 && j < n && (i == j || (i < j && keep(i, j))) {
                            mask |= 1 << (4 * r + c);
                        }
                    }
                }
                if mask != 0 {
                    active.push((q, cq, mask));
                }
            }
        }
        for &(q, cq, _) in &active {
            acc[q * COL_QUADS + cq] = [[[0.0; 4]; 4]; 4];
        }
        let quad = |i0: usize, k0: usize, k1: usize| [0, 1, 2, 3].map(|r| &row(i0 + r)[k0..k1]);
        for k0 in (jt..n4).step_by(K_CHUNK) {
            let k1 = (k0 + K_CHUNK).min(n4);
            for &(q, cq, _) in &active {
                let x = quad(p0 + 4 * q, k0, k1);
                let y = quad(jt + 4 * cq, k0, k1);
                kernel::dot4_lanes(&mut acc[q * COL_QUADS + cq], x, y);
            }
        }
        for &(q, cq, mask) in &active {
            let (i0, j0) = (p0 + 4 * q, jt + 4 * cq);
            let s = kernel::dot4_close(&acc[q * COL_QUADS + cq], quad(i0, n4, n), quad(j0, n4, n));
            for (r, sr) in s.iter().enumerate() {
                for (c, &v) in sr.iter().enumerate() {
                    if mask >> (4 * r + c) & 1 == 1 {
                        vals[(i0 + r - p0) * n + j0 + c] = v;
                    }
                }
            }
            formed[q * col_quads + j0 / 4] = mask;
        }
    }
    let mut diag = Vec::with_capacity(p1 - p0);
    let mut upper = Vec::new();
    for (i, v) in (p0..p1).zip(vals.chunks_exact(n.max(1))) {
        let (q, r) = ((i - p0) / 4, (i - p0) % 4);
        diag.push(v[i]);
        for j in i + 1..n {
            if formed[q * col_quads + j / 4] >> (4 * r + j % 4) & 1 == 1 {
                upper.push((i, j, v[j]));
            }
        }
    }
    (diag, upper)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> DenseMatrix<f64> {
        DenseMatrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ])
        .unwrap()
    }

    #[test]
    fn factors_known_matrix() {
        // Classic example: G = [[2,0,0],[6,1,0],[-8,5,3]].
        let ch = Cholesky::new(&spd3()).unwrap();
        let g = ch.factor();
        assert!((g[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((g[(1, 0)] - 6.0).abs() < 1e-12);
        assert!((g[(1, 1)] - 1.0).abs() < 1e-12);
        assert!((g[(2, 0)] + 8.0).abs() < 1e-12);
        assert!((g[(2, 1)] - 5.0).abs() < 1e-12);
        assert!((g[(2, 2)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_reconstructs_rhs() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let b = [1.0, -2.0, 3.5];
        let x = ch.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (u, v) in back.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(NumericsError::NotPositiveDefinite { row: 1 })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = DenseMatrix::<f64>::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&a),
            Err(NumericsError::NotSquare { .. })
        ));
    }

    #[test]
    fn inverse_is_correct() {
        let a = spd3();
        let inv = Cholesky::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&DenseMatrix::identity(3)).unwrap() < 1e-9);
    }

    /// `BᵀB + (n + 1)·I` for a seeded uniform `B`: SPD and well
    /// conditioned.
    fn random_spd(n: usize, seed: u64) -> DenseMatrix<f64> {
        let mut rng = crate::rng::XorShift64::new(seed);
        let b = DenseMatrix::from_fn(n, n, |_, _| rng.range_f64(-1.0, 1.0));
        let mut a = b.transpose().matmul(&b).unwrap();
        for i in 0..n {
            a[(i, i)] += n as f64 + 1.0;
        }
        a
    }

    #[test]
    fn inverse_factor_columns_are_the_forward_sweeps() {
        // Row j of Wᵀ is the forward sweep of `solve(e_j)`, bit for bit
        // and zero before entry j, at every worker count. The sizes cover
        // every remainder mod 4.
        for n in [1, 2, 3, 5, 6, 7, 48, 130, 131] {
            let ch = Cholesky::new(&random_spd(n, 0x3001 + n as u64)).unwrap();
            for nt in [1, 2, 8] {
                let wt = ch.inverse_factor(Pool::with_threads(nt), &CancelToken::none());
                for j in 0..n {
                    let mut e = vec![0.0; n];
                    e[j] = 1.0;
                    ch.forward(&mut e);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(wt.row(j)),
                        bits(&e),
                        "n = {n}, {nt} workers, column {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn kept_entries_are_the_all_pairs_entries() {
        // A band, a scattered set and nothing: the kept pairs, in
        // row-major order, with the all-pairs values bit for bit, and
        // the whole diagonal every time.
        for n in [5, 67, 130] {
            let ch = Cholesky::new(&random_spd(n, 0x3002 + n as u64)).unwrap();
            let none = CancelToken::none();
            let all = ch.inverse_entries(|_, _| true, &none).unwrap();
            assert_eq!(all.upper.len(), n * (n - 1) / 2);
            let keeps: [&(dyn Fn(usize, usize) -> bool + Sync); 3] = [
                &|i, j| j - i <= 4,
                &|i, j| (i * 7 + j * 3) % 5 == 0,
                &|_, _| false,
            ];
            for keep in keeps {
                let kept = ch.inverse_entries(keep, &none).unwrap();
                let expected: Vec<_> = all
                    .upper
                    .iter()
                    .filter(|&&(i, j, _)| keep(i, j))
                    .map(|&(i, j, v)| (i, j, v.to_bits()))
                    .collect();
                let got: Vec<_> = kept
                    .upper
                    .iter()
                    .map(|&(i, j, v)| (i, j, v.to_bits()))
                    .collect();
                assert_eq!(got, expected, "n = {n}");
                assert_eq!(kept.diag, all.diag, "n = {n}");
            }
        }
    }

    #[test]
    fn log_det_matches_lu_det() {
        let a = spd3();
        let ld = Cholesky::new(&a).unwrap().log_det();
        let det = crate::LuFactor::new(&a).unwrap().det();
        assert!((ld - det.ln()).abs() < 1e-9);
    }

    #[test]
    fn spd_predicate() {
        assert!(Cholesky::is_spd(&spd3(), 1e-12));
        let asym = DenseMatrix::from_rows(&[&[2.0, 1.0], &[0.0, 2.0]]).unwrap();
        assert!(!Cholesky::is_spd(&asym, 1e-12));
        let indef = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!(!Cholesky::is_spd(&indef, 1e-12));
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let ch = Cholesky::new(&DenseMatrix::identity(3)).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
    }

    #[test]
    fn cancelled_token_aborts_factor_and_inverse() {
        let t = CancelToken::new();
        t.cancel();
        assert!(matches!(
            Cholesky::with_threads_cancel(&spd3(), 1, &t),
            Err(NumericsError::Cancelled { .. })
        ));
        let ch = Cholesky::new(&spd3()).unwrap();
        assert!(matches!(
            ch.inverse_cancel(&t),
            Err(NumericsError::Cancelled { .. })
        ));
        // A disarmed token changes nothing.
        let inv = ch.inverse_cancel(&CancelToken::none()).unwrap();
        assert_eq!(inv, ch.inverse().unwrap());
    }

    #[test]
    fn token_cancelled_mid_inverse_aborts_it() {
        // Diagonally dominant, hence SPD. The barrier starts both threads
        // together and the token fires 2 ms in, while a 1024-column
        // inverse (tens of milliseconds even optimized) is still running.
        // Wherever the cancel lands before the end, the call must fail: a
        // block skipped by the poll would otherwise leave zeros behind.
        let n = 1024;
        let a = DenseMatrix::from_fn(n, n, |i, j| {
            1.0 / (1.0 + i.abs_diff(j) as f64) + if i == j { n as f64 } else { 0.0 }
        });
        let ch = Cholesky::new(&a).unwrap();
        let token = CancelToken::new();
        let started = std::sync::Barrier::new(2);
        let result = std::thread::scope(|s| {
            s.spawn(|| {
                started.wait();
                std::thread::sleep(std::time::Duration::from_millis(2));
                token.cancel();
            });
            started.wait();
            ch.inverse_cancel(&token)
        });
        assert!(token.is_cancelled());
        assert!(
            matches!(
                result,
                Err(NumericsError::Cancelled {
                    op: "cholesky inverse"
                })
            ),
            "a token fired mid-flight must abort the inverse, not return a partial S"
        );
    }
}
