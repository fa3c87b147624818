//! A minimal double-precision complex number for AC (frequency-domain)
//! analysis.
//!
//! The circuit engine factors the same MNA matrix in real arithmetic for
//! transient analysis and in complex arithmetic for AC sweeps; implementing
//! [`Complex64`] here (rather than pulling a dependency) keeps the solver
//! stack self-contained.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// # Example
///
/// ```
/// use vpec_numerics::Complex64;
///
/// let z = Complex64::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// assert_eq!((z * z.conj()).re, 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates (magnitude, phase in
    /// radians).
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64::new(r * theta.cos(), r * theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64::new(self.re, -self.im)
    }

    /// Magnitude `|z|`, computed with `hypot` for robustness against
    /// overflow/underflow.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Uses Smith's algorithm to avoid intermediate overflow.
    #[inline]
    pub fn recip(self) -> Self {
        if self.re.abs() >= self.im.abs() {
            let r = self.im / self.re;
            let d = self.re + self.im * r;
            Complex64::new(1.0 / d, -r / d)
        } else {
            let r = self.re / self.im;
            let d = self.re * r + self.im;
            Complex64::new(r / d, -1.0 / d)
        }
    }

    /// Returns `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Complex square root (principal branch).
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        if r == 0.0 {
            return Complex64::ZERO;
        }
        let re = ((r + self.re) / 2.0).sqrt();
        let im_mag = ((r - self.re) / 2.0).sqrt();
        Complex64::new(re, if self.im >= 0.0 { im_mag } else { -im_mag })
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    #[expect(
        clippy::suspicious_arithmetic_impl,
        reason = "z/w = z·w⁻¹ by definition"
    )]
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.recip()
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re * rhs, self.im * rhs)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn construction_and_constants() {
        assert_eq!(Complex64::ZERO + Complex64::ONE, Complex64::new(1.0, 0.0));
        assert_eq!(Complex64::I * Complex64::I, Complex64::new(-1.0, 0.0));
        assert_eq!(Complex64::from(2.5).re, 2.5);
        assert_eq!(Complex64::from(2.5).im, 0.0);
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(1.5, -2.5);
        let w = Complex64::new(-0.25, 3.0);
        assert_eq!(z + w - w, z);
        let prod = z * w;
        let back = prod / w;
        assert!((back - z).abs() < EPS);
    }

    #[test]
    fn division_matches_manual_formula() {
        let z = Complex64::new(3.0, 4.0);
        let w = Complex64::new(1.0, -2.0);
        let q = z / w;
        // (3+4i)/(1-2i) = (3+4i)(1+2i)/5 = (3+6i+4i-8)/5 = (-5+10i)/5 = -1+2i
        assert!((q - Complex64::new(-1.0, 2.0)).abs() < EPS);
    }

    #[test]
    fn recip_handles_component_dominance_both_ways() {
        for z in [Complex64::new(1e10, 1.0), Complex64::new(1.0, 1e10)] {
            let r = z.recip();
            assert!((z * r - Complex64::ONE).abs() < 1e-10);
        }
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_3);
        assert!((z.abs() - 2.0).abs() < EPS);
        assert!((z.arg() - std::f64::consts::FRAC_PI_3).abs() < EPS);
    }

    #[test]
    fn sqrt_squares_back() {
        for z in [
            Complex64::new(-4.0, 0.0),
            Complex64::new(3.0, -4.0),
            Complex64::new(0.0, 2.0),
            Complex64::ZERO,
        ] {
            let s = z.sqrt();
            assert!((s * s - z).abs() < 1e-10, "sqrt failed for {z}");
        }
    }

    #[test]
    fn conjugate_properties() {
        let z = Complex64::new(1.0, 2.0);
        assert_eq!(z.conj().conj(), z);
        assert!((z * z.conj()).im.abs() < EPS);
        assert!(((z * z.conj()).re - z.norm_sqr()).abs() < EPS);
    }

    #[test]
    fn assign_ops() {
        let mut z = Complex64::new(1.0, 1.0);
        z += Complex64::ONE;
        z -= Complex64::I;
        z *= Complex64::new(2.0, 0.0);
        z /= Complex64::new(2.0, 0.0);
        assert!((z - Complex64::new(2.0, 0.0)).abs() < EPS);
    }

    #[test]
    fn sum_of_iterator() {
        let total: Complex64 = (0..4).map(|k| Complex64::new(k as f64, 1.0)).sum();
        assert_eq!(total, Complex64::new(6.0, 4.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn nan_and_finite_checks() {
        assert!(Complex64::new(f64::NAN, 0.0).is_nan());
        assert!(!Complex64::ONE.is_nan());
        assert!(Complex64::ONE.is_finite());
        assert!(!Complex64::new(f64::INFINITY, 0.0).is_finite());
    }
}
