//! The [`Scalar`] abstraction that lets the dense/sparse solvers run in both
//! real (`f64`, transient analysis) and complex ([`Complex64`], AC analysis)
//! arithmetic.

use crate::Complex64;
use std::fmt::{Debug, Display};
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A field element usable by the factorization kernels.
///
/// Implemented for `f64` and [`Complex64`]. The trait is sealed in spirit —
/// the solvers only need these two instantiations — but is left open so
/// downstream experiments (e.g. interval or extended-precision scalars) can
/// reuse the kernels.
pub trait Scalar:
    Copy
    + Debug
    + Display
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Embeds a real number.
    fn from_f64(x: f64) -> Self;
    /// Magnitude (absolute value / modulus) used for pivot selection.
    fn modulus(self) -> f64;
    /// `true` if the value is exactly zero.
    fn is_zero(self) -> bool {
        self == Self::zero()
    }
    /// `true` if any component is NaN.
    fn is_nan(self) -> bool;
    /// `self` with every component of magnitude below `bound` replaced by
    /// a zero of the same sign (the sparse solves' flush-to-zero).
    fn flush_below(self, bound: f64) -> Self;
    /// Whether values have an imaginary part. Kernels that keep the
    /// parts of values in separate arrays (so that the arithmetic on them
    /// vectorizes) keep the second one only then.
    const IS_COMPLEX: bool;
    /// The real and imaginary parts (the imaginary part of a real scalar
    /// is 0).
    fn parts(self) -> [f64; 2];
    /// The value with these parts, exactly; a real scalar drops the
    /// imaginary one.
    fn from_parts(parts: [f64; 2]) -> Self;
}

impl Scalar for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
    #[inline]
    fn flush_below(self, bound: f64) -> Self {
        if self.abs() < bound {
            0.0f64.copysign(self)
        } else {
            self
        }
    }
    const IS_COMPLEX: bool = false;
    #[inline]
    fn parts(self) -> [f64; 2] {
        [self, 0.0]
    }
    #[inline]
    fn from_parts(parts: [f64; 2]) -> Self {
        parts[0]
    }
}

impl Scalar for Complex64 {
    #[inline]
    fn zero() -> Self {
        Complex64::ZERO
    }
    #[inline]
    fn one() -> Self {
        Complex64::ONE
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        Complex64::from_real(x)
    }
    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn is_nan(self) -> bool {
        Complex64::is_nan(self)
    }
    #[inline]
    fn flush_below(self, bound: f64) -> Self {
        Complex64::new(self.re.flush_below(bound), self.im.flush_below(bound))
    }
    const IS_COMPLEX: bool = true;
    #[inline]
    fn parts(self) -> [f64; 2] {
        [self.re, self.im]
    }
    #[inline]
    fn from_parts(parts: [f64; 2]) -> Self {
        Complex64::new(parts[0], parts[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Scalar>() {
        let two = T::from_f64(2.0);
        assert_eq!(two + T::zero(), two);
        assert_eq!(two * T::one(), two);
        assert!((two.modulus() - 2.0).abs() < 1e-15);
        assert!(T::zero().is_zero());
        assert!(!two.is_zero());
        assert!(!two.is_nan());
        assert_eq!(two.flush_below(1e-300), two);
        assert!(T::from_f64(1e-310).flush_below(1e-300).is_zero());
    }

    #[test]
    fn f64_scalar() {
        roundtrip::<f64>();
    }

    #[test]
    fn complex_scalar() {
        roundtrip::<Complex64>();
        let z = Complex64::new(3.0, 4.0);
        assert!((Scalar::modulus(z) - 5.0).abs() < 1e-15);
        // Components flush independently and keep their sign.
        let w = Complex64::new(-1e-310, 2.0).flush_below(1e-300);
        assert_eq!(w, Complex64::new(0.0, 2.0));
        assert!(w.re.is_sign_negative());
    }
}
