//! Property-style tests for the linear-algebra kernels.
//!
//! Strategy: generate random diagonally dominant (hence nonsingular) or
//! random-SPD matrices and verify algebraic invariants that must hold for
//! *any* input, not just hand-picked examples. Inputs come from the
//! workspace's deterministic [`XorShift64`] generator so the suite is
//! reproducible and needs no external crates.

use vpec_numerics::rng::XorShift64;
use vpec_numerics::{
    Cholesky, Complex64, CooMatrix, CsrMatrix, DenseMatrix, LuFactor, Scalar, SparseLu,
};

const CASES: usize = 64;

/// An `n×n` strictly diagonally dominant matrix (always nonsingular)
/// plus a right-hand side.
fn dominant_system(rng: &mut XorShift64, n: usize) -> (DenseMatrix<f64>, Vec<f64>) {
    let mut m = DenseMatrix::from_fn(n, n, |_, _| 0.0);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = rng.range_f64(-1.0, 1.0);
        }
    }
    for i in 0..n {
        let off: f64 = (0..n).filter(|&j| j != i).map(|j| m[(i, j)].abs()).sum();
        m[(i, i)] = off + 1.0; // strictly dominant
    }
    let b = (0..n).map(|_| rng.range_f64(-10.0, 10.0)).collect();
    (m, b)
}

/// A random SPD matrix `A = Bᵀ·B + I`.
fn spd_matrix(rng: &mut XorShift64, n: usize) -> DenseMatrix<f64> {
    let mut b = DenseMatrix::from_fn(n, n, |_, _| 0.0);
    for i in 0..n {
        for j in 0..n {
            b[(i, j)] = rng.range_f64(-1.0, 1.0);
        }
    }
    let mut a = b.transpose().matmul(&b).expect("square");
    for i in 0..n {
        a[(i, i)] += 1.0;
    }
    a
}

/// A VPEC-shaped conductance matrix `Ĝ`: symmetric, couplings in
/// `(−1, 0]` dropped at random as a truncation would, and a positive
/// diagonal that strictly dominates its row, so Theorem 2 makes it
/// s.p.d. The right-hand side is all ones.
fn conductance_system(rng: &mut XorShift64, n: usize) -> (DenseMatrix<f64>, Vec<f64>) {
    let mut g = DenseMatrix::from_fn(n, n, |_, _| 0.0);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.chance(0.6) {
                let v = -rng.range_f64(0.0, 1.0);
                g[(i, j)] = v;
                g[(j, i)] = v;
            }
        }
    }
    for i in 0..n {
        let off: f64 = (0..n).filter(|&j| j != i).map(|j| g[(i, j)].abs()).sum();
        g[(i, i)] = off * rng.range_f64(1.001, 2.0) + 1e-3;
    }
    (g, vec![1.0; n])
}

#[test]
fn lu_solve_satisfies_system() {
    let mut rng = XorShift64::new(0x1001);
    for _ in 0..CASES {
        let (a, b) = dominant_system(&mut rng, 8);
        let lu = LuFactor::new(&a).expect("dominant matrices are nonsingular");
        let x = lu.solve(&b).expect("dim matches");
        let back = a.matvec(&x).expect("dim matches");
        for (u, v) in back.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-8, "residual too large: {u} vs {v}");
        }
    }
}

#[test]
fn lu_inverse_is_two_sided() {
    let mut rng = XorShift64::new(0x1002);
    for _ in 0..CASES {
        let (a, _b) = dominant_system(&mut rng, 6);
        let inv = LuFactor::new(&a)
            .expect("nonsingular")
            .inverse()
            .expect("ok");
        let eye = DenseMatrix::identity(6);
        assert!(a.matmul(&inv).expect("ok").max_abs_diff(&eye).expect("ok") < 1e-8);
        assert!(inv.matmul(&a).expect("ok").max_abs_diff(&eye).expect("ok") < 1e-8);
    }
}

#[test]
fn cholesky_succeeds_on_spd_and_matches_lu() {
    let mut rng = XorShift64::new(0x1003);
    for _ in 0..CASES {
        let a = spd_matrix(&mut rng, 7);
        let ch = Cholesky::new(&a).expect("SPD by construction");
        let b: Vec<f64> = (0..7).map(|i| (i as f64) - 3.0).collect();
        let x_ch = ch.solve(&b).expect("ok");
        let x_lu = LuFactor::new(&a).expect("ok").solve(&b).expect("ok");
        for (u, v) in x_ch.iter().zip(x_lu.iter()) {
            assert!((u - v).abs() < 1e-7);
        }
    }
    // VPEC's Ĝ, solved against ones: Cholesky and dense LU agree within
    // 1e-6 of max|x|.
    let mut rng = XorShift64::new(0x100b);
    for _ in 0..CASES {
        let n = rng.range_usize(2, 40);
        let (g, b) = conductance_system(&mut rng, n);
        let x_ch = Cholesky::new(&g).expect("Theorem 2").solve(&b).expect("ok");
        let x_lu = LuFactor::new(&g).expect("ok").solve(&b).expect("ok");
        let scale = x_lu.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (u, v) in x_ch.iter().zip(&x_lu) {
            assert!((u - v).abs() <= 1e-6 * scale, "Cholesky {u} vs LU {v}");
        }
    }
}

#[test]
fn cholesky_inverse_of_spd_is_spd() {
    let mut rng = XorShift64::new(0x1004);
    for _ in 0..CASES {
        let a = spd_matrix(&mut rng, 5);
        let inv = Cholesky::new(&a).expect("SPD").inverse().expect("ok");
        assert_eq!(inv, inv.transpose(), "inverse must be exactly symmetric");
        assert!(Cholesky::new(&inv).is_ok(), "inverse of SPD must be SPD");
    }
}

#[test]
fn sparse_lu_agrees_with_dense() {
    let mut rng = XorShift64::new(0x1005);
    for _ in 0..CASES {
        let (a, b) = dominant_system(&mut rng, 10);
        let csr = CsrMatrix::from_dense(&a, 0.0);
        let xs = SparseLu::new_fill_reducing(&csr)
            .expect("nonsingular")
            .solve(&b)
            .expect("ok");
        let xd = LuFactor::new(&a)
            .expect("nonsingular")
            .solve(&b)
            .expect("ok");
        for (u, v) in xs.iter().zip(xd.iter()) {
            assert!((u - v).abs() < 1e-8, "sparse {u} vs dense {v}");
        }
    }
    // VPEC's Ĝ, solved against ones: the fill-reducing sparse LU every
    // analysis factors with agrees with dense LU within 1e-6 of max|x|.
    let mut rng = XorShift64::new(0x100c);
    for _ in 0..CASES {
        let n = rng.range_usize(2, 40);
        let (g, b) = conductance_system(&mut rng, n);
        let xs = SparseLu::new_fill_reducing(&CsrMatrix::from_dense(&g, 0.0))
            .expect("Theorem 2")
            .solve(&b)
            .expect("ok");
        let xd = LuFactor::new(&g).expect("ok").solve(&b).expect("ok");
        let scale = xd.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (u, v) in xs.iter().zip(&xd) {
            assert!((u - v).abs() <= 1e-6 * scale, "sparse {u} vs dense {v}");
        }
    }
}

/// An `n×n` sparse, strictly row-dominant matrix whose elimination
/// cancels exactly. Off-diagonal entries are ±½, ±1 or ±2, so sums and
/// multiples stay exact. Every third row `r` copies twice row `r − 1`
/// everywhere but its own diagonal; eliminating either row against the
/// other then leaves exact zeros wherever the pattern predicts fill.
fn cancelling_system(rng: &mut XorShift64, n: usize) -> DenseMatrix<f64> {
    const VALUES: [f64; 6] = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0];
    let mut m = DenseMatrix::from_fn(n, n, |_, _| 0.0);
    for i in 0..n {
        for _ in 0..3 {
            let j = rng.range_usize(0, n);
            if j != i {
                m[(i, j)] = VALUES[rng.range_usize(0, VALUES.len())];
            }
        }
    }
    let copied = |i: usize| i % 3 == 2;
    for i in (0..n).filter(|&i| !copied(i)) {
        let off: f64 = (0..n).filter(|&j| j != i).map(|j| m[(i, j)].abs()).sum();
        m[(i, i)] = off + 1.0;
    }
    for r in (0..n).filter(|&r| copied(r)) {
        for j in (0..n).filter(|&j| j != r) {
            m[(r, j)] = 2.0 * m[(r - 1, j)];
        }
        let off: f64 = (0..n).filter(|&j| j != r).map(|j| m[(r, j)].abs()).sum();
        m[(r, r)] = off + 1.0;
    }
    m
}

/// Sparse LU under transversal + AMD with diagonal-preferring threshold
/// pivoting, against dense LU, on [`cancelling_system`] matrices mapped
/// into `T` by `val`.
fn check_sparse_lu_with_cancellations<T: Scalar>(seed: u64, val: impl Fn(f64) -> T) {
    let mut rng = XorShift64::new(seed);
    for case in 0..CASES {
        let n = rng.range_usize(6, 40);
        let m = cancelling_system(&mut rng, n);
        let a = DenseMatrix::from_fn(n, n, |i, j| val(m[(i, j)]));
        let b: Vec<T> = (0..n).map(|_| val(rng.range_f64(-10.0, 10.0))).collect();
        let csr = CsrMatrix::from_dense(&a, 0.0);
        let xd = LuFactor::new(&a).expect("dominant").solve(&b).expect("ok");
        let scale = xd.iter().map(|v| v.modulus()).fold(0.0, f64::max);
        let lu = SparseLu::new_fill_reducing(&csr).expect("dominant");
        let xs = lu.solve(&b).expect("ok");
        for (u, v) in xs.iter().zip(&xd) {
            assert!(
                (*u - *v).modulus() <= 1e-12 * scale,
                "case {case} (n = {n}): sparse {u} vs dense {v}"
            );
        }
    }
}

#[test]
fn sparse_lu_with_exact_cancellations_agrees_with_dense_real() {
    check_sparse_lu_with_cancellations(0x1009, |x| x);
}

#[test]
fn sparse_lu_with_exact_cancellations_agrees_with_dense_complex() {
    check_sparse_lu_with_cancellations(0x100a, |x| Complex64::new(x, 0.5 * x));
}

#[test]
fn csr_matvec_matches_dense() {
    let mut rng = XorShift64::new(0x1006);
    for _ in 0..CASES {
        let (a, x) = dominant_system(&mut rng, 9);
        let csr = CsrMatrix::from_dense(&a, 0.0);
        let ys = csr.matvec(&x).expect("ok");
        let yd = a.matvec(&x).expect("ok");
        for (u, v) in ys.iter().zip(yd.iter()) {
            assert!((u - v).abs() < 1e-10);
        }
    }
}

#[test]
fn transpose_is_involution() {
    let mut rng = XorShift64::new(0x1007);
    for _ in 0..CASES {
        let mut coo = CooMatrix::new(12, 12);
        for _ in 0..rng.range_usize(0, 40) {
            let r = rng.range_usize(0, 12);
            let c = rng.range_usize(0, 12);
            let v = rng.range_f64(-5.0, 5.0);
            coo.push(r, c, v).expect("in bounds");
        }
        let m = coo.to_csr();
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
    }
}

#[test]
fn determinant_sign_consistent_with_cholesky() {
    let mut rng = XorShift64::new(0x1008);
    for _ in 0..CASES {
        // det of an SPD matrix must be positive.
        let a = spd_matrix(&mut rng, 6);
        let det = LuFactor::new(&a).expect("ok").det();
        assert!(det > 0.0, "SPD determinant must be positive, got {det}");
    }
}

/// `CooMatrix::to_csr` as a comparison sort: a stable sort by
/// `(row, col)`, duplicates summed in push order, exact zeros dropped.
/// Returns each row's `(col, value)` list.
fn sorted_csr_oracle(coo: &CooMatrix<f64>) -> Vec<Vec<(usize, f64)>> {
    let mut sorted = coo.entries().to_vec();
    sorted.sort_by_key(|&(r, c, _)| (r, c));
    let mut rows = vec![Vec::new(); coo.rows()];
    let mut iter = sorted.into_iter().peekable();
    while let Some((r, c, mut v)) = iter.next() {
        while let Some((_, _, v2)) = iter.next_if(|&(r2, c2, _)| (r2, c2) == (r, c)) {
            v += v2;
        }
        if v != 0.0 {
            rows[r].push((c, v));
        }
    }
    rows
}

#[test]
fn coo_to_csr_matches_a_stable_sort_bit_for_bit() {
    let mut rng = XorShift64::new(0xC5A1);
    // Values whose sums depend on their order (0.1 + 0.2 + 0.3 differs
    // from 0.3 + 0.2 + 0.1 in the last bit), plus ±1 pairs that cancel
    // to an exact zero.
    let values = [0.1, 0.2, 0.3, 1.0, -1.0, 1e-17, -0.3, 7.5];
    let mut cancelled = 0;
    for case in 0..2000 {
        let (rows, cols) = match case {
            0 => (0, 0),
            1 => (1, 1),
            2 => (3, 0),
            _ => (rng.range_usize(1, 9), rng.range_usize(1, 9)),
        };
        let mut coo = CooMatrix::new(rows, cols);
        if rows > 0 && cols > 0 {
            // Rows past `rows / 2 + 1` stay empty in half the cases.
            let used_rows = if case % 2 == 0 { rows } else { rows / 2 + 1 };
            for _ in 0..rng.range_usize(0, 40) {
                let (r, c) = (rng.range_usize(0, used_rows), rng.range_usize(0, cols));
                let v = values[rng.range_usize(0, values.len())];
                coo.push(r, c, v).expect("in bounds");
                if rng.chance(0.2) {
                    coo.push(r, c, -v).expect("in bounds");
                }
            }
        }
        let csr = coo.to_csr();
        let oracle = sorted_csr_oracle(&coo);
        assert_eq!((csr.rows(), csr.cols()), (rows, cols), "case {case}");
        assert_eq!(csr.nnz(), oracle.iter().map(Vec::len).sum::<usize>());
        for (r, want) in oracle.iter().enumerate() {
            let (got_cols, got_vals) = csr.row(r);
            let got: Vec<(usize, u64)> = got_cols
                .iter()
                .zip(got_vals)
                .map(|(&c, v)| (c, v.to_bits()))
                .collect();
            let want: Vec<(usize, u64)> = want.iter().map(|&(c, v)| (c, v.to_bits())).collect();
            assert_eq!(got, want, "case {case}, row {r}");
        }
        let positions: std::collections::HashSet<(usize, usize)> =
            coo.entries().iter().map(|&(r, c, _)| (r, c)).collect();
        cancelled += usize::from(csr.nnz() < positions.len());
    }
    assert!(cancelled > 100, "only {cancelled} cases dropped a zero sum");
}
