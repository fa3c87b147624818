//! Property-style serial/parallel equivalence tests for the pool layer.
//!
//! The parallel numerics layer promises *bit-compatible* results at any
//! worker count: chunk distribution is round-robin but per-element
//! arithmetic order never changes. These tests drive the public kernels
//! at 1, 2 and 8 workers over randomized inputs (deterministic
//! [`XorShift64`] seeds) and require bit-identical results.

use vpec_numerics::rng::XorShift64;
use vpec_numerics::{pool, Cholesky, DenseMatrix, LuFactor, Pool};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
/// Relative gap allowed between the four-accumulator matvec and a plain
/// reference loop. This is not a worker-count comparison: the two sum in
/// a different order, which gives a 1-ulp difference at k = 4.
const UNROLL_REL_TOL: f64 = 1e-12;

fn random_matrix(rng: &mut XorShift64, rows: usize, cols: usize) -> DenseMatrix<f64> {
    let mut m = DenseMatrix::from_fn(rows, cols, |_, _| 0.0);
    for i in 0..rows {
        for j in 0..cols {
            m[(i, j)] = rng.range_f64(-1.0, 1.0);
        }
    }
    m
}

fn spd_matrix(rng: &mut XorShift64, n: usize) -> DenseMatrix<f64> {
    let b = random_matrix(rng, n, n);
    let mut a = b.transpose().matmul(&b).expect("square");
    for i in 0..n {
        a[(i, i)] += (n as f64) + 1.0;
    }
    a
}

#[test]
fn par_chunks_mut_matches_serial_fill() {
    let n = 1003;
    let mut serial = vec![0.0f64; n];
    Pool::serial().par_chunks_mut(&mut serial, 7, |off, chunk| {
        for (k, x) in chunk.iter_mut().enumerate() {
            *x = ((off + k) as f64).sin();
        }
    });
    for nt in THREAD_COUNTS {
        let mut par = vec![0.0f64; n];
        Pool::with_threads(nt).par_chunks_mut(&mut par, 7, |off, chunk| {
            for (k, x) in chunk.iter_mut().enumerate() {
                *x = ((off + k) as f64).sin();
            }
        });
        assert_eq!(serial, par, "par_chunks_mut");
    }
}

#[test]
fn par_map_preserves_item_order() {
    let mut rng = XorShift64::new(0x2001);
    let items: Vec<f64> = (0..517).map(|_| rng.range_f64(-5.0, 5.0)).collect();
    let serial: Vec<f64> = items.iter().enumerate().map(|(i, x)| x * i as f64).collect();
    for nt in THREAD_COUNTS {
        let par = Pool::with_threads(nt).par_map(&items, |i, x| x * i as f64);
        assert_eq!(serial, par, "par_map");
    }
}

#[test]
fn par_map_index_preserves_index_order() {
    let serial: Vec<f64> = (0..711).map(|i| (i as f64).sqrt().cos()).collect();
    for nt in THREAD_COUNTS {
        let par = Pool::with_threads(nt).par_map_index(711, |i| (i as f64).sqrt().cos());
        assert_eq!(serial, par, "par_map_index");
    }
}

#[test]
fn par_join_returns_both_results() {
    for nt in THREAD_COUNTS {
        let (a, b) = Pool::with_threads(nt).par_join(|| 6 * 7, || "right".len());
        assert_eq!(a, 42);
        assert_eq!(b, 5);
    }
}

#[test]
fn matmul_matches_serial_at_any_thread_count() {
    let mut rng = XorShift64::new(0x2002);
    for &(r, k, c) in &[(5, 7, 3), (64, 64, 64), (130, 97, 41)] {
        let a = random_matrix(&mut rng, r, k);
        let b = random_matrix(&mut rng, k, c);
        pool::set_threads(1);
        let serial = a.matmul(&b).expect("conforming");
        for nt in THREAD_COUNTS {
            pool::set_threads(nt);
            let par = a.matmul(&b).expect("conforming");
            assert_eq!(serial.as_slice(), par.as_slice(), "matmul");
        }
        pool::set_threads(0);
    }
}

#[test]
fn lu_factor_and_inverse_match_serial() {
    let mut rng = XorShift64::new(0x2003);
    for &n in &[6, 48, 120] {
        let mut a = random_matrix(&mut rng, n, n);
        for i in 0..n {
            a[(i, i)] += n as f64; // dominant, hence nonsingular
        }
        let rhs: Vec<f64> = (0..n).map(|_| rng.range_f64(-2.0, 2.0)).collect();
        let serial = LuFactor::with_threads(&a, 1).expect("nonsingular");
        let x_serial = serial.solve(&rhs).expect("solve");
        let inv_serial = serial.inverse().expect("inverse");
        for nt in THREAD_COUNTS {
            let par = LuFactor::with_threads(&a, nt).expect("nonsingular");
            assert_eq!(x_serial, par.solve(&rhs).expect("solve"), "lu solve");
            assert_eq!(
                inv_serial.as_slice(),
                par.inverse().expect("inverse").as_slice(),
                "lu inverse"
            );
        }
    }
}

#[test]
fn cholesky_factor_and_inverse_match_serial() {
    let mut rng = XorShift64::new(0x2004);
    for &n in &[6, 48, 120] {
        let a = spd_matrix(&mut rng, n);
        let rhs: Vec<f64> = (0..n).map(|_| rng.range_f64(-2.0, 2.0)).collect();
        let serial = Cholesky::with_threads(&a, 1).expect("SPD");
        let x_serial = serial.solve(&rhs).expect("solve");
        let inv_serial = serial.inverse().expect("inverse");
        for nt in THREAD_COUNTS {
            let par = Cholesky::with_threads(&a, nt).expect("SPD");
            assert_eq!(x_serial, par.solve(&rhs).expect("solve"), "chol solve");
            assert_eq!(
                inv_serial.as_slice(),
                par.inverse().expect("inverse").as_slice(),
                "chol inverse"
            );
        }
    }
}

#[test]
fn blocked_dispatch_boundaries_are_thread_invariant() {
    // The eliminations switch from serial to blocked at
    // `pool::BLOCK_MIN_DIM` (64) and split the blocked trailing update
    // across workers from `pool::ELIM_PAR_MIN_DIM` (256). The kernel choice
    // depends only on the dimension — never on the worker count — so sizes
    // straddling each boundary must give *bit-identical* answers at every
    // thread count.
    let mut rng = XorShift64::new(0x2006);
    for &n in &[63, 64, 65, 96, 160, 255, 256, 300] {
        let mut a = random_matrix(&mut rng, n, n);
        for i in 0..n {
            a[(i, i)] += n as f64; // dominant, hence nonsingular
        }
        let rhs: Vec<f64> = (0..n).map(|_| rng.range_f64(-2.0, 2.0)).collect();
        let x1 = LuFactor::with_threads(&a, 1)
            .expect("nonsingular")
            .solve(&rhs)
            .expect("solve");
        for nt in THREAD_COUNTS {
            let xn = LuFactor::with_threads(&a, nt)
                .expect("nonsingular")
                .solve(&rhs)
                .expect("solve");
            assert_eq!(x1, xn, "LU at n={n} must be bit-identical at {nt} workers");
        }
        let s = spd_matrix(&mut rng, n);
        let y1 = Cholesky::with_threads(&s, 1)
            .expect("SPD")
            .solve(&rhs)
            .expect("solve");
        for nt in THREAD_COUNTS {
            let yn = Cholesky::with_threads(&s, nt)
                .expect("SPD")
                .solve(&rhs)
                .expect("solve");
            assert_eq!(y1, yn, "Cholesky at n={n} must be bit-identical at {nt} workers");
        }
    }
}

#[test]
fn matvec_and_matmul_cover_the_unroll_tail() {
    // The register-blocked kernels unroll over four columns/terms; shapes
    // with every remainder mod 4 must agree with a plain reference loop:
    // matvec (audited-close) within a tolerance, matmul (bit-identical)
    // exactly. The last shape spans several inner-dimension tiles and,
    // with more than one worker, the parallel path.
    let mut rng = XorShift64::new(0x2007);
    let shapes = [4, 5, 6, 7, 64, 65].map(|k| (9, k, 11));
    for (m, k, n) in shapes.into_iter().chain([(130, 257, 90)]) {
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        let x: Vec<f64> = (0..k).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let y = a.matvec(&x).expect("conforming");
        for i in 0..m {
            let reference: f64 = (0..k).map(|j| a[(i, j)] * x[j]).sum();
            assert!(
                (y[i] - reference).abs() <= UNROLL_REL_TOL * (1.0 + reference.abs()),
                "matvec tail at k={k}, row {i}: {} vs {reference}",
                y[i]
            );
        }
        let c = a.matmul(&b).expect("conforming");
        for i in 0..m {
            for j in 0..n {
                let mut reference = 0.0f64;
                for p in 0..k {
                    reference += a[(i, p)] * b[(p, j)];
                }
                assert_eq!(
                    c[(i, j)].to_bits(),
                    reference.to_bits(),
                    "matmul at {m}x{k}x{n}, ({i},{j}) must equal the ascending-k loop"
                );
            }
        }
    }
}

#[test]
fn env_variable_drives_thread_resolution() {
    // With no override, `VPEC_THREADS` decides — and whatever it decides,
    // the kernels must agree with the serial result.
    let mut rng = XorShift64::new(0x2005);
    let a = random_matrix(&mut rng, 100, 100);
    let b = random_matrix(&mut rng, 100, 100);
    pool::set_threads(1);
    let serial = a.matmul(&b).expect("conforming");
    pool::set_threads(0);
    for nt in THREAD_COUNTS {
        std::env::set_var("VPEC_THREADS", nt.to_string());
        let par = a.matmul(&b).expect("conforming");
        assert_eq!(serial.as_slice(), par.as_slice(), "matmul via VPEC_THREADS");
    }
    std::env::remove_var("VPEC_THREADS");
}
