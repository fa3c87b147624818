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

/// Sixteen [`dot4`] products at once, four slices `x[r]` against four
/// slices `y[c]`, accumulated in `dot4`'s lanes: for every `k` below the
/// common length rounded down to a multiple of four,
/// `acc[r][c][k % 4] += x[r][k]·y[c][k]`, in ascending `k`. Each loaded
/// chunk of four serves four products. Run over consecutive chunks
/// whose lengths are multiples of four and closed by [`dot4_close`],
/// every entry is `dot4(x[r], y[c])` over the whole length, bit for bit.
///
/// Numerical class: audited-close.
#[inline]
pub(crate) fn dot4_lanes(acc: &mut [[[f64; 4]; 4]; 4], x: [&[f64]; 4], y: [&[f64]; 4]) {
    /// `a + x·y`, lane by lane. Written on four-element arrays, it
    /// compiles to one packed multiply and one packed add; the same
    /// arithmetic written as loops over the slices compiled to
    /// broadcasts and shuffles that ran several times slower.
    ///
    /// Numerical class: bit-identical (one rounded product and one
    /// rounded sum per lane).
    #[inline(always)]
    fn madd(a: [f64; 4], x: [f64; 4], y: [f64; 4]) -> [f64; 4] {
        [
            a[0] + x[0] * y[0],
            a[1] + x[1] * y[1],
            a[2] + x[2] * y[2],
            a[3] + x[3] * y[3],
        ]
    }
    /// The four lanes `s[k..k + 4]`.
    ///
    /// Numerical class: bit-identical (a copy).
    #[inline(always)]
    fn lanes(s: &[f64], k: usize) -> [f64; 4] {
        [s[k], s[k + 1], s[k + 2], s[k + 3]]
    }
    let m = x.iter().chain(&y).map(|s| s.len()).min().unwrap_or(0);
    let m4 = m - m % 4;
    let [x0, x1, x2, x3] = x.map(|s| &s[..m4]);
    let [y0, y1, y2, y3] = y.map(|s| &s[..m4]);
    // Accumulating in a local copy keeps the sixteen lanes in registers.
    let mut a = *acc;
    for k4 in 0..m4 / 4 {
        let k = 4 * k4;
        let xv = [lanes(x0, k), lanes(x1, k), lanes(x2, k), lanes(x3, k)];
        let yv = [lanes(y0, k), lanes(y1, k), lanes(y2, k), lanes(y3, k)];
        for (ar, &xr) in a.iter_mut().zip(&xv) {
            ar[0] = madd(ar[0], xr, yv[0]);
            ar[1] = madd(ar[1], xr, yv[1]);
            ar[2] = madd(ar[2], xr, yv[2]);
            ar[3] = madd(ar[3], xr, yv[3]);
        }
    }
    *acc = a;
}

/// Closes [`dot4_lanes`]' accumulators as [`dot4`] closes its own: the
/// tail `x[r]·y[c]` over the slices given (the terms past the last
/// multiple of four, in ascending order) is added last, as
/// `((s0 + s1) + (s2 + s3)) + tail`.
///
/// Numerical class: audited-close.
#[inline]
pub(crate) fn dot4_close(
    acc: &[[[f64; 4]; 4]; 4],
    x: [&[f64]; 4],
    y: [&[f64]; 4],
) -> [[f64; 4]; 4] {
    let mut out = [[0.0f64; 4]; 4];
    for r in 0..4 {
        for c in 0..4 {
            let mut tail = 0.0;
            for (a, b) in x[r].iter().zip(y[c]) {
                tail += a * b;
            }
            let s = acc[r][c];
            out[r][c] = ((s[0] + s[1]) + (s[2] + s[3])) + tail;
        }
    }
    out
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
    fn dot4_lanes_in_chunks_then_closed_is_dot4() {
        // Every length remainder, chunk boundaries at multiples of four,
        // and leading exact zeros (the inverse's padding) in one operand.
        let v = |r: usize, m: usize| -> Vec<f64> {
            (0..m)
                .map(|k| {
                    ((r * 97 + k) as f64 * 0.37).sin() * if r == 5 && k < 6 { 0.0 } else { 1.0 }
                })
                .collect()
        };
        for m in [0, 1, 3, 4, 5, 8, 13, 31, 64, 67] {
            let rows: Vec<Vec<f64>> = (0..8).map(|r| v(r, m)).collect();
            let x = [0, 1, 2, 3].map(|r| rows[r].as_slice());
            let y = [4, 5, 6, 7].map(|r| rows[r].as_slice());
            let m4 = m - m % 4;
            for chunk in [4, 8, 64] {
                let mut acc = [[[0.0; 4]; 4]; 4];
                for k0 in (0..m4).step_by(chunk) {
                    let k1 = (k0 + chunk).min(m4);
                    dot4_lanes(&mut acc, x.map(|s| &s[k0..k1]), y.map(|s| &s[k0..k1]));
                }
                let out = dot4_close(&acc, x.map(|s| &s[m4..]), y.map(|s| &s[m4..]));
                for r in 0..4 {
                    for c in 0..4 {
                        assert_eq!(
                            out[r][c].to_bits(),
                            dot4(x[r], y[c]).to_bits(),
                            "m = {m}, chunk {chunk}, entry ({r}, {c})"
                        );
                    }
                }
            }
        }
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
