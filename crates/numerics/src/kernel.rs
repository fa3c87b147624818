//! Register-blocked inner kernels shared by the dense and sparse
//! factorizations.
//!
//! Four-wide unrolled loops over contiguous row slices: four independent
//! accumulators (dot products) or four fused row updates per sweep. The
//! shapes are chosen so LLVM autovectorizes them to packed f64 vector
//! code without `unsafe` or explicit SIMD types, and they split into two
//! numerical classes:
//!
//! * [`dot4`] reassociates the sum into four partial accumulators —
//!   callers are *audited-close* paths (triangular solves, matvec, the
//!   blocked Cholesky) where the audit tolerance machinery covers the
//!   reordering;
//! * [`sub4`] / [`sub4_complex`] keep the per-element operation sequence
//!   of the unblocked loop (ascending elimination step, one rounded
//!   multiply-subtract per term), so the sparse LU's dense trailing block
//!   stays bit-identical to the row-indexed update.

use crate::Scalar;

/// Four-accumulator dot product of the common prefix of `a` and `b`.
///
/// The partial sums combine as `((s0 + s1) + (s2 + s3)) + tail`, a fixed
/// reassociation of the serial left-to-right sum: deterministic for a
/// given input, but *not* bit-identical to a single-accumulator loop.
///
/// Numerical class: audited-close.
#[inline]
pub(crate) fn dot4<T: Scalar>(a: &[T], b: &[T]) -> T {
    let m = a.len().min(b.len());
    let (a, b) = (&a[..m], &b[..m]);
    let mut s0 = T::zero();
    let mut s1 = T::zero();
    let mut s2 = T::zero();
    let mut s3 = T::zero();
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in (&mut ca).zip(&mut cb) {
        s0 += x[0] * y[0];
        s1 += x[1] * y[1];
        s2 += x[2] * y[2];
        s3 += x[3] * y[3];
    }
    let mut tail = T::zero();
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += *x * *y;
    }
    ((s0 + s1) + (s2 + s3)) + tail
}

/// `c[j] -= f[0]·b0[j]; c[j] -= f[1]·b1[j]; …` — four ascending
/// elimination steps per element, each its own rounded operation,
/// exactly the sequence the unblocked step-at-a-time loop performs. One
/// load/store of `c` covers four steps.
///
/// Numerical class: bit-identical.
#[inline]
pub(crate) fn sub4<T: Scalar>(c: &mut [T], f: [T; 4], b0: &[T], b1: &[T], b2: &[T], b3: &[T]) {
    for ((((cj, &x0), &x1), &x2), &x3) in c.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
        let mut v = *cj;
        v -= f[0] * x0;
        v -= f[1] * x1;
        v -= f[2] * x2;
        v -= f[3] * x3;
        *cj = v;
    }
}

/// [`sub4`] on complex values kept as separate real parts `cr` and
/// imaginary parts `ci`: `c[j] -= b_s[j]·f[s]` for four ascending steps,
/// each product and difference rounded as `Complex64` arithmetic rounds
/// them — real part `c_r − (b_r·f_r − b_i·f_i)`, imaginary part
/// `c_i − (b_r·f_i + b_i·f_r)`. Kept apart, the parts pack into vector
/// lanes that interleaved complex values do not.
///
/// Numerical class: bit-identical.
#[inline]
pub(crate) fn sub4_complex(
    cr: &mut [f64],
    ci: &mut [f64],
    f: [[f64; 2]; 4],
    br: [&[f64]; 4],
    bi: [&[f64]; 4],
) {
    let n = cr.len();
    let ci = &mut ci[..n];
    let (br, bi) = (br.map(|b| &b[..n]), bi.map(|b| &b[..n]));
    for j in 0..n {
        let (mut vr, mut vi) = (cr[j], ci[j]);
        for s in 0..4 {
            let ([fr, fi], ar, ai) = (f[s], br[s][j], bi[s][j]);
            vr -= ar * fr - ai * fi;
            vi -= ar * fi + ai * fr;
        }
        cr[j] = vr;
        ci[j] = vi;
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests measure dot4 against naive sums"
)]
mod tests {
    use super::*;

    #[test]
    fn dot4_matches_naive_on_exact_values() {
        // Small integers: every grouping is exact, so equality is exact.
        let a: Vec<f64> = (0..11).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..11).map(|i| (i * 2) as f64).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot4(&a, &b), naive);
        assert_eq!(dot4(&a[..3], &b[..3]), 10.0);
        assert_eq!(dot4(&a[..0], &b[..0]), 0.0);
    }

    #[test]
    fn dot4_is_close_to_naive_on_irrational_values() {
        let a: Vec<f64> = (0..57).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..57).map(|i| (i as f64 * 0.71).cos()).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot4(&a, &b) - naive).abs() < 1e-12);
    }

    #[test]
    fn sub4_matches_sequential_updates_exactly() {
        let f = [0.3, -1.7, 2.2, 0.9];
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|r| (0..9).map(|j| ((r * 9 + j) as f64 * 0.13).sin()).collect())
            .collect();
        let base: Vec<f64> = (0..9).map(|j| (j as f64 * 0.41).cos()).collect();

        let mut reference = base.clone();
        for (j, c) in reference.iter_mut().enumerate() {
            for s in 0..4 {
                *c -= f[s] * rows[s][j];
            }
        }
        let mut c = base;
        sub4(&mut c, f, &rows[0], &rows[1], &rows[2], &rows[3]);
        assert_eq!(
            c, reference,
            "sub4 must match per-element ascending-k updates"
        );
    }

    #[test]
    fn every_kernel_declares_its_numerical_class() {
        // The doc block above each non-test `fn` must carry the marker;
        // clippy.toml keeps the audited-close `dot4` out of bit-identical
        // callers, and this keeps the class of a new kernel stated.
        let src = include_str!("kernel.rs");
        let src = &src[..src.find("#[cfg(test)]").expect("test module")];
        let lines: Vec<&str> = src.lines().map(str::trim_start).collect();
        let mut kernels = 0;
        for (i, line) in lines.iter().enumerate() {
            if !(line.starts_with("fn ") || line.contains(" fn ")) || line.starts_with("//") {
                continue;
            }
            kernels += 1;
            let mut doc = lines[..i]
                .iter()
                .rev()
                .take_while(|l| l.starts_with("///") || l.starts_with("#["));
            assert!(
                doc.any(|l| l.contains("Numerical class: bit-identical")
                    || l.contains("Numerical class: audited-close")),
                "kernel.rs:{}: `{line}` lacks a `Numerical class:` doc marker",
                i + 1
            );
        }
        assert!(
            kernels >= 3,
            "the scan must see dot4, sub4 and sub4_complex"
        );
    }
}
