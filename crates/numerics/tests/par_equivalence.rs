//! Property-style serial/parallel equivalence tests for the pool layer.
//!
//! The parallel numerics layer promises *bit-compatible* results at any
//! worker count: chunk distribution is round-robin but per-element
//! arithmetic order never changes. These tests drive the public kernels
//! at 1, 2 and 8 workers over randomized inputs (deterministic
//! [`XorShift64`] seeds) and require bit-identical results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use vpec_numerics::rng::XorShift64;
use vpec_numerics::{pool, Cholesky, DenseMatrix, Pool};

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
    let serial: Vec<f64> = items
        .iter()
        .enumerate()
        .map(|(i, x)| x * i as f64)
        .collect();
    for nt in THREAD_COUNTS {
        let par = Pool::with_threads(nt).par_map(&items, |i, x| x * i as f64);
        assert_eq!(serial, par, "par_map");
    }
}

/// A result type without `Clone`: `par_map` must move each result into
/// place.
#[derive(Debug, PartialEq)]
struct Owned(usize);

#[test]
fn par_map_with_uneven_costs_calls_each_item_once_in_index_order() {
    // The first three items cost 20 ms and every seventh 2 ms; the rest
    // return at once. Claimed one at a time, they must still come back
    // once each and in index order.
    let items: Vec<usize> = (0..57).map(|i| 3 * i + 1).collect();
    for nt in THREAD_COUNTS {
        let calls: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
        let out = Pool::with_threads(nt).par_map(&items, |i, &x| {
            calls[i].fetch_add(1, Ordering::Relaxed);
            let ms = match i {
                0..=2 => 20,
                _ if i % 7 == 0 => 2,
                _ => 0,
            };
            std::thread::sleep(Duration::from_millis(ms));
            Owned(x * x + i)
        });
        let expected: Vec<Owned> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| Owned(x * x + i))
            .collect();
        assert_eq!(out, expected, "{nt} workers");
        for (i, c) in calls.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {i} at {nt} workers");
        }
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
fn cholesky_factor_and_inverse_match_serial() {
    let mut rng = XorShift64::new(0x2004);
    for &n in &[6, 48, 120, 129, 130, 131] {
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
fn cholesky_inverse_is_the_column_solves_mirrored() {
    // The inverse computes column j from row j down only, four columns per
    // block, and mirrors the upper triangle from the lower. Its lower
    // triangle must equal the unit-vector solves bit for bit and the whole
    // matrix must be exactly symmetric, at every worker count. The sizes
    // cover every remainder mod 4 and both sides of `pool::PAR_MIN_COLS`.
    let mut rng = XorShift64::new(0x2007);
    for &n in &[1, 2, 3, 5, 6, 7, 48, 129, 130, 131, 258] {
        let ch = Cholesky::new(&spd_matrix(&mut rng, n)).expect("SPD");
        let cols: Vec<Vec<f64>> = (0..n)
            .map(|j| {
                let mut e = vec![0.0; n];
                e[j] = 1.0;
                ch.solve(&e).expect("solve")
            })
            .collect();
        for nt in THREAD_COUNTS {
            pool::set_threads(nt);
            let inv = ch.inverse().expect("inverse");
            for (j, col) in cols.iter().enumerate() {
                for i in j..n {
                    assert_eq!(
                        inv[(i, j)].to_bits(),
                        col[i].to_bits(),
                        "n = {n}, {nt} workers: entry ({i}, {j}) is not solve(e_{j})[{i}]"
                    );
                    assert_eq!(
                        inv[(i, j)].to_bits(),
                        inv[(j, i)].to_bits(),
                        "n = {n}, {nt} workers: entry ({i}, {j}) is not mirrored"
                    );
                }
            }
        }
        pool::set_threads(0);
    }
}

#[test]
fn blocked_dispatch_boundaries_are_thread_invariant() {
    // Cholesky switches from serial to blocked at `pool::BLOCK_MIN_DIM`
    // (64) and splits the blocked trailing update across workers from
    // `pool::ELIM_PAR_MIN_DIM` (256). The kernel choice depends only on the
    // dimension — never on the worker count — so sizes straddling each
    // boundary must give *bit-identical* answers at every thread count.
    let mut rng = XorShift64::new(0x2006);
    for &n in &[63, 64, 65, 96, 160, 255, 256, 300] {
        let rhs: Vec<f64> = (0..n).map(|_| rng.range_f64(-2.0, 2.0)).collect();
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
            assert_eq!(
                y1, yn,
                "Cholesky at n={n} must be bit-identical at {nt} workers"
            );
        }
    }
}

#[test]
fn matvec_covers_the_unroll_tail() {
    // The four-accumulator matvec unrolls over four columns; shapes with
    // every remainder mod 4 must agree with a plain reference loop within
    // a tolerance (the class is audited-close).
    let mut rng = XorShift64::new(0x2007);
    for k in [4, 5, 6, 7, 64, 65, 257] {
        let m = 9;
        let a = random_matrix(&mut rng, m, k);
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
    }
}

#[test]
fn env_variable_drives_thread_resolution() {
    // With no override, `VPEC_THREADS` decides — and whatever it decides,
    // the SPD inverse (parallel from 2·`pool::PAR_MIN_COLS` columns on
    // two workers) must agree with the serial result.
    let mut rng = XorShift64::new(0x2005);
    let ch = Cholesky::new(&spd_matrix(&mut rng, 130)).expect("SPD");
    pool::set_threads(1);
    let serial = ch.inverse().expect("inverse");
    pool::set_threads(0);
    for nt in THREAD_COUNTS {
        std::env::set_var("VPEC_THREADS", nt.to_string());
        let par = ch.inverse().expect("inverse");
        assert_eq!(
            serial.as_slice(),
            par.as_slice(),
            "SPD inverse via VPEC_THREADS"
        );
    }
    std::env::remove_var("VPEC_THREADS");
}
