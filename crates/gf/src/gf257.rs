//! GF(257) — a small prime field of odd characteristic.
//!
//! The paper's §3.3 worked example builds redundant blocks `a+b` and `a−b`,
//! and footnotes that "+ and − must be taken over a field with
//! characteristic ≠ 2". GF(257) is the smallest prime field that embeds all
//! byte values, so it is the natural home for that example; the
//! `examples/toy_code.rs` binary and several tests use it. Production codes
//! use [`crate::Gf256`].

use crate::field::Field;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

const P: u32 = 257;

/// An element of the prime field GF(257), stored canonically in `0..257`.
///
/// # Example
///
/// ```
/// use ajx_gf::{Field, Gf257};
/// let a = Gf257::from_u64(200);
/// let b = Gf257::from_u64(100);
/// // a + b wraps modulo 257, and subtraction genuinely differs from
/// // addition (characteristic != 2):
/// assert_eq!((a + b).to_u64(), 43);
/// assert_eq!((a - b).to_u64(), 100);
/// assert_ne!(a + b, a - b);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf257(u16);

impl Gf257 {
    /// Wraps `v`, reducing modulo 257.
    pub const fn new(v: u16) -> Self {
        Gf257(v % 257)
    }

    /// The canonical representative in `0..257`.
    pub const fn value(self) -> u16 {
        self.0
    }
}

impl fmt::Debug for Gf257 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf257({})", self.0)
    }
}

impl fmt::Display for Gf257 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Add for Gf257 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Gf257(((self.0 as u32 + rhs.0 as u32) % P) as u16)
    }
}

impl AddAssign for Gf257 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for Gf257 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Gf257(((self.0 as u32 + P - rhs.0 as u32) % P) as u16)
    }
}

impl SubAssign for Gf257 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl Neg for Gf257 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Gf257(((P - self.0 as u32) % P) as u16)
    }
}

impl Mul for Gf257 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Gf257(((self.0 as u32 * rhs.0 as u32) % P) as u16)
    }
}

impl MulAssign for Gf257 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

#[allow(clippy::suspicious_arithmetic_impl, reason = "divides by the inverse")]
impl Div for Gf257 {
    type Output = Self;
    /// # Panics
    ///
    /// Panics on division by zero.
    #[inline]
    fn div(self, rhs: Self) -> Self {
        rhs.inv().expect("division by zero in GF(257)") * self
    }
}

impl Field for Gf257 {
    const ZERO: Self = Gf257(0);
    const ONE: Self = Gf257(1);
    const ORDER: usize = 257;

    fn from_u64(n: u64) -> Self {
        Gf257((n % P as u64) as u16)
    }

    fn to_u64(self) -> u64 {
        self.0 as u64
    }

    fn inv(self) -> Option<Self> {
        if self.0 == 0 {
            None
        } else {
            // Fermat: a^(p-2) = a^-1 in GF(p).
            Some(self.pow(P as u64 - 2))
        }
    }

    fn generator() -> Self {
        // 3 is a primitive root modulo 257.
        Gf257(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn characteristic_is_not_two() {
        let one = Gf257::ONE;
        assert_ne!(one + one, Gf257::ZERO);
        // a - b differs from a + b whenever b != 0 (and 2b != 0).
        let a = Gf257::from_u64(10);
        let b = Gf257::from_u64(3);
        assert_ne!(a + b, a - b);
    }

    #[test]
    fn paper_toy_example_recovers_a_from_sum_and_b() {
        // Stripe (a, b, a+b, a-b): given a+b and b we obtain a by
        // subtraction, exactly the §3.3 walk-through.
        let a = Gf257::from_u64(77);
        let b = Gf257::from_u64(200);
        let sum = a + b;
        assert_eq!(sum - b, a);
        // And from (a+b, a-b) alone: a = (s + d)/2, b = (s - d)/2.
        let diff = a - b;
        let two_inv = Gf257::from_u64(2).inv().unwrap();
        assert_eq!((sum + diff) * two_inv, a);
        assert_eq!((sum - diff) * two_inv, b);
    }

    #[test]
    fn all_inverses_correct_exhaustively() {
        for v in 1..257u64 {
            let x = Gf257::from_u64(v);
            assert_eq!(x * x.inv().unwrap(), Gf257::ONE, "inverse of {v}");
        }
        assert!(Gf257::ZERO.inv().is_none());
    }

    #[test]
    fn new_reduces_modulo_p() {
        assert_eq!(Gf257::new(257).value(), 0);
        assert_eq!(Gf257::new(258).value(), 1);
        assert_eq!(Gf257::from_u64(u64::MAX).value() as u64, u64::MAX % 257);
    }

    proptest! {
        #[test]
        fn prop_axioms(a in 0..257u64, b in 0..257u64, c in 0..257u64) {
            let (a, b, c) = (Gf257::from_u64(a), Gf257::from_u64(b), Gf257::from_u64(c));
            prop_assert_eq!(a * (b + c), a * b + a * c);
            prop_assert_eq!((a - b) + b, a);
            prop_assert_eq!(a + (-a), Gf257::ZERO);
        }
    }
}
