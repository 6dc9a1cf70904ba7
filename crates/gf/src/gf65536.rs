//! GF(2¹⁶) — a larger binary field for very wide codes.
//!
//! The paper's arithmetic is "over some finite field, usually GF(2^h)"
//! (§3.3); its implementation uses h = 8, which caps a Reed-Solomon code
//! at n = 256 distinct evaluation points. This field raises the cap to
//! 65 536 nodes — relevant to the paper's closing vision of
//! "industrial-strength distributed disk array[s]" built from very many
//! cheap adapters.
//!
//! Elements are `u16`; reduction is modulo the primitive polynomial
//! x¹⁶ + x¹² + x³ + x + 1 (0x1100B). The 512 KiB log/exp tables are built
//! once at first use.

use crate::field::{Field, KernelField};
use crate::kernel;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::OnceLock;

/// The primitive polynomial x¹⁶ + x¹² + x³ + x + 1.
pub const PRIMITIVE_POLY_16: u32 = 0x1100B;

struct Tables {
    exp: Vec<u16>, // length 2·65535: doubled to skip the mod
    log: Vec<u16>, // length 65536; log[0] unused
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = vec![0u16; 2 * 65535];
        let mut log = vec![0u16; 65536];
        let mut x: u32 = 1;
        for i in 0..65535usize {
            exp[i] = x as u16;
            exp[i + 65535] = x as u16;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & 0x1_0000 != 0 {
                x ^= PRIMITIVE_POLY_16;
            }
        }
        Tables { exp, log }
    })
}

/// An element of GF(2¹⁶).
///
/// # Example
///
/// ```
/// use ajx_gf::{Field, Gf65536};
/// let a = Gf65536::new(0xABCD);
/// assert_eq!(a + a, Gf65536::ZERO); // characteristic 2
/// assert_eq!(a * a.inv().unwrap(), Gf65536::ONE);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf65536(u16);

impl Gf65536 {
    /// Wraps a `u16` as a field element.
    pub const fn new(v: u16) -> Self {
        Gf65536(v)
    }

    /// The underlying representation.
    pub const fn to_u16(self) -> u16 {
        self.0
    }

    /// Table-driven product of raw `u16` values.
    #[inline]
    pub fn mul_raw(a: u16, b: u16) -> u16 {
        if a == 0 || b == 0 {
            return 0;
        }
        let t = tables();
        t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
    }
}

impl fmt::Debug for Gf65536 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf65536(0x{:04x})", self.0)
    }
}

impl fmt::Display for Gf65536 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04x}", self.0)
    }
}

#[allow(clippy::suspicious_arithmetic_impl)] // GF(2^16): addition IS xor
impl Add for Gf65536 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Gf65536(self.0 ^ rhs.0)
    }
}

#[allow(clippy::suspicious_op_assign_impl)]
impl AddAssign for Gf65536 {
    fn add_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

#[allow(clippy::suspicious_arithmetic_impl)]
impl Sub for Gf65536 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Gf65536(self.0 ^ rhs.0)
    }
}

#[allow(clippy::suspicious_op_assign_impl)]
impl SubAssign for Gf65536 {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf65536 {
    type Output = Self;
    fn neg(self) -> Self {
        self
    }
}

impl Mul for Gf65536 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Gf65536(Self::mul_raw(self.0, rhs.0))
    }
}

impl MulAssign for Gf65536 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

#[allow(clippy::suspicious_arithmetic_impl)] // division via inverse-multiply
impl Div for Gf65536 {
    type Output = Self;
    /// # Panics
    ///
    /// Panics on division by zero.
    #[inline]
    fn div(self, rhs: Self) -> Self {
        rhs.inv().expect("division by zero in GF(2^16)") * self
    }
}

impl Field for Gf65536 {
    const ZERO: Self = Gf65536(0);
    const ONE: Self = Gf65536(1);
    const ORDER: usize = 65536;

    fn from_u64(n: u64) -> Self {
        Gf65536((n % 65536) as u16)
    }

    fn to_u64(self) -> u64 {
        self.0 as u64
    }

    fn inv(self) -> Option<Self> {
        if self.0 == 0 {
            None
        } else {
            let t = tables();
            Some(Gf65536(t.exp[65535 - t.log[self.0 as usize] as usize]))
        }
    }

    fn generator() -> Self {
        Gf65536(2)
    }
}

impl KernelField for Gf65536 {
    type Symbol = u16;

    #[inline]
    fn symbol(self) -> u16 {
        self.0
    }

    #[inline]
    fn mul_add_multi(dsts: &mut [&mut [u8]], cs: &[u16], src: &[u8]) {
        kernel::mul_add_multi16(dsts, cs, src);
    }

    #[inline]
    fn delta_into(out: &mut [u8], c: u16, a: &[u8], b: &[u8]) {
        kernel::delta_into16(out, c, a, b);
    }

    #[inline]
    fn mul_assign(dst: &mut [u8], c: u16) {
        kernel::mul_assign16(dst, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Shift-and-add oracle.
    fn textbook16(mut a: u16, mut b: u16) -> u16 {
        let mut acc = 0u16;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            let carry = a & 0x8000 != 0;
            a <<= 1;
            if carry {
                a ^= (PRIMITIVE_POLY_16 & 0xFFFF) as u16;
            }
            b >>= 1;
        }
        acc
    }

    #[test]
    fn table_mul_matches_textbook_on_sample() {
        let samples = [0u16, 1, 2, 3, 0x1B, 0x100, 0x8001, 0xFFFF, 0xABCD, 500];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(Gf65536::mul_raw(a, b), textbook16(a, b), "{a:#x} * {b:#x}");
            }
        }
    }

    #[test]
    fn identity_and_zero() {
        for v in [1u16, 2, 0xFFFF, 0x8000] {
            let x = Gf65536::new(v);
            assert_eq!(x * Gf65536::ONE, x);
            assert_eq!(x * Gf65536::ZERO, Gf65536::ZERO);
            assert_eq!(x + x, Gf65536::ZERO);
        }
        assert!(Gf65536::ZERO.inv().is_none());
    }

    #[test]
    fn generator_reaches_sample_elements() {
        // Full-order check is expensive (65535 steps) but still fast.
        let g = Gf65536::generator();
        let mut x = Gf65536::ONE;
        let mut count = 0u32;
        loop {
            x *= g;
            count += 1;
            if x == Gf65536::ONE {
                break;
            }
            assert!(count <= 65535, "order exceeded field size");
        }
        assert_eq!(count, 65535, "2 must generate the full multiplicative group");
    }

    proptest! {
        #[test]
        fn prop_mul_matches_textbook(a in any::<u16>(), b in any::<u16>()) {
            prop_assert_eq!(Gf65536::mul_raw(a, b), textbook16(a, b));
        }

        #[test]
        fn prop_inverse(a in 1..=u16::MAX) {
            let x = Gf65536::new(a);
            prop_assert_eq!(x * x.inv().unwrap(), Gf65536::ONE);
        }

        #[test]
        fn prop_distributive(a in any::<u16>(), b in any::<u16>(), c in any::<u16>()) {
            let (a, b, c) = (Gf65536::new(a), Gf65536::new(b), Gf65536::new(c));
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }
    }
}
