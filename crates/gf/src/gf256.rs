//! GF(2⁸) — the byte field used by the Reed-Solomon implementation.
//!
//! Elements are bytes; addition is XOR; multiplication is carried out in
//! GF(2)[x] modulo the primitive polynomial x⁸ + x⁴ + x³ + x² + 1 (0x11D).
//! Multiplication and inversion go through logarithm/antilogarithm tables
//! generated at compile time, the standard "optimized" implementation the
//! paper contrasts with textbook shift-and-add (§6.1).

use crate::field::{Field, KernelField};
use crate::kernel;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// The primitive polynomial x⁸ + x⁴ + x³ + x² + 1 used for reduction.
pub const PRIMITIVE_POLY: u16 = 0x11D;

/// The multiplicative generator whose powers fill the exp/log tables.
const GENERATOR: u8 = 0x02;

/// Compile-time generated tables: `EXP[i] = g^i` for `i in 0..510` (doubled
/// so `EXP[log a + log b]` needs no `% 255`), and `LOG[x] = log_g x` for
/// nonzero `x` (`LOG[0]` is a sentinel that is never read).
const TABLES: ([u8; 510], [u8; 256]) = generate_tables();

const fn generate_tables() -> ([u8; 510], [u8; 256]) {
    let mut exp = [0u8; 510];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8;
        log[x as usize] = i as u8;
        // multiply x by the generator (0x02) with polynomial reduction
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= PRIMITIVE_POLY;
        }
        let _ = GENERATOR; // generator is 2: the shift above *is* the multiply
        i += 1;
    }
    (exp, log)
}

pub(crate) const EXP: [u8; 510] = TABLES.0;
pub(crate) const LOG: [u8; 256] = TABLES.1;

/// An element of GF(2⁸).
///
/// # Example
///
/// ```
/// use ajx_gf::{Field, Gf256};
/// let x = Gf256::new(0x1D);
/// assert_eq!(x + x, Gf256::ZERO); // characteristic 2
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf256(u8);

impl Gf256 {
    /// Wraps a byte as a field element (every byte is a valid element).
    #[inline]
    pub const fn new(byte: u8) -> Self {
        Gf256(byte)
    }

    /// The underlying byte.
    #[inline]
    pub const fn as_byte(self) -> u8 {
        self.0
    }

    /// Table-driven product of two raw bytes; the scalar kernel behind
    /// [`crate::slice`].
    #[inline]
    pub fn mul_bytes(a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
        }
    }

    /// Fills `table` with the 256 products `c·x` for `x = 0..=255`.
    ///
    /// Bulk slice kernels build this once per (coefficient, slice) pair and
    /// then reduce each byte multiply to a single indexed load — the paper's
    /// §6.1 "carefully optimized erasure code functions".
    #[inline]
    pub fn build_mul_table(c: u8, table: &mut [u8; 256]) {
        if c == 0 {
            table.fill(0);
            return;
        }
        let log_c = LOG[c as usize] as usize;
        table[0] = 0;
        for x in 1..256usize {
            table[x] = EXP[log_c + LOG[x] as usize];
        }
    }

    /// Discrete logarithm base the field generator.
    ///
    /// Returns `None` for zero, which has no logarithm.
    #[inline]
    pub fn log(self) -> Option<u8> {
        if self.0 == 0 {
            None
        } else {
            Some(LOG[self.0 as usize])
        }
    }

    /// `g^e` for the field generator g = 2.
    #[inline]
    pub fn exp(e: u8) -> Self {
        Gf256(EXP[e as usize])
    }
}

impl fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf256(0x{:02x})", self.0)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}", self.0)
    }
}

impl fmt::LowerHex for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u8> for Gf256 {
    fn from(b: u8) -> Self {
        Gf256(b)
    }
}

impl From<Gf256> for u8 {
    fn from(g: Gf256) -> u8 {
        g.0
    }
}

#[allow(clippy::suspicious_arithmetic_impl, reason = "addition is xor")]
impl Add for Gf256 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Gf256(self.0 ^ rhs.0)
    }
}

#[allow(clippy::suspicious_op_assign_impl, reason = "addition is xor")]
impl AddAssign for Gf256 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

#[allow(clippy::suspicious_arithmetic_impl, reason = "subtraction is xor")]
impl Sub for Gf256 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        // In characteristic 2, subtraction coincides with addition.
        Gf256(self.0 ^ rhs.0)
    }
}

#[allow(clippy::suspicious_op_assign_impl, reason = "subtraction is xor")]
impl SubAssign for Gf256 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf256 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        self
    }
}

impl Mul for Gf256 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Gf256(Self::mul_bytes(self.0, rhs.0))
    }
}

impl MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

#[allow(clippy::suspicious_arithmetic_impl, reason = "divides by the inverse")]
impl Div for Gf256 {
    type Output = Self;
    /// # Panics
    ///
    /// Panics on division by zero, mirroring integer division.
    #[inline]
    fn div(self, rhs: Self) -> Self {
        rhs.inv().expect("division by zero in GF(2^8)") * self
    }
}

impl Field for Gf256 {
    const ZERO: Self = Gf256(0);
    const ONE: Self = Gf256(1);
    const ORDER: usize = 256;

    #[inline]
    fn from_u64(n: u64) -> Self {
        Gf256((n % 256) as u8)
    }

    #[inline]
    fn to_u64(self) -> u64 {
        self.0 as u64
    }

    #[inline]
    fn inv(self) -> Option<Self> {
        if self.0 == 0 {
            None
        } else {
            Some(Gf256(EXP[255 - LOG[self.0 as usize] as usize]))
        }
    }

    fn generator() -> Self {
        Gf256(GENERATOR)
    }
}

impl KernelField for Gf256 {
    type Symbol = u8;

    #[inline]
    fn symbol(self) -> u8 {
        self.0
    }

    #[inline]
    fn combine<R: AsRef<[u8]>, B: AsRef<[u8]>>(out: &mut [&mut [u8]], rows: &[R], srcs: &[B]) {
        kernel::combine(out, rows, srcs);
    }

    #[inline]
    fn delta_into(out: &mut [u8], c: u8, a: &[u8], b: &[u8]) {
        kernel::delta_into(out, c, a, b);
    }

    #[inline]
    fn mul_assign(dst: &mut [u8], c: u8) {
        kernel::mul_assign(dst, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textbook;
    use proptest::prelude::*;

    #[test]
    fn tables_are_consistent() {
        // exp and log are mutually inverse on the nonzero range.
        for i in 0..255u16 {
            let x = EXP[i as usize];
            assert_ne!(x, 0, "generator powers never hit zero");
            assert_eq!(LOG[x as usize] as u16, i);
        }
        // The doubled upper half mirrors the lower half.
        for i in 0..255usize {
            assert_eq!(EXP[i], EXP[i + 255]);
        }
    }

    #[test]
    fn mul_matches_textbook_exhaustively() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(
                    Gf256::mul_bytes(a, b),
                    textbook::mul(a, b),
                    "mismatch at {a} * {b}"
                );
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1..=255u8 {
            let x = Gf256::new(a);
            let i = x.inv().unwrap();
            assert_eq!(x * i, Gf256::ONE, "inverse of {a}");
        }
        assert!(Gf256::ZERO.inv().is_none());
    }

    #[test]
    fn mul_table_matches_scalar() {
        let mut table = [0u8; 256];
        for c in [0u8, 1, 2, 0x1d, 0x80, 0xff] {
            Gf256::build_mul_table(c, &mut table);
            for x in 0..=255u8 {
                assert_eq!(table[x as usize], Gf256::mul_bytes(c, x));
            }
        }
    }

    #[test]
    fn known_products() {
        // Hand-checked values for poly 0x11D.
        assert_eq!(Gf256::mul_bytes(0x02, 0x80), 0x1D); // x^8 ≡ x^4+x^3+x^2+1
        assert_eq!(Gf256::exp(0), Gf256::ONE);
        assert_eq!(Gf256::exp(1), Gf256::new(0x02));
        assert_eq!(Gf256::exp(8), Gf256::new(0x1D));
        assert_eq!(Gf256::new(0x02).log(), Some(1));
        assert_eq!(Gf256::ZERO.log(), None);
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        assert_eq!(format!("{}", Gf256::new(0xAB)), "ab");
        assert_eq!(format!("{:?}", Gf256::ZERO), "Gf256(0x00)");
        assert_eq!(format!("{:x}", Gf256::new(0xAB)), "ab");
    }

    proptest! {
        #[test]
        fn prop_field_axioms(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
            let (a, b, c) = (Gf256::new(a), Gf256::new(b), Gf256::new(c));
            prop_assert_eq!(a + b, b + a);
            prop_assert_eq!(a * b, b * a);
            prop_assert_eq!((a + b) + c, a + (b + c));
            prop_assert_eq!((a * b) * c, a * (b * c));
            prop_assert_eq!(a * (b + c), a * b + a * c);
            prop_assert_eq!(a - b + b, a);
        }

        #[test]
        fn prop_division_undoes_multiplication(a in any::<u8>(), b in 1..=255u8) {
            let (a, b) = (Gf256::new(a), Gf256::new(b));
            prop_assert_eq!((a * b) / b, a);
        }

        #[test]
        fn prop_pow_adds_exponents(a in 1..=255u8, e1 in 0..64u64, e2 in 0..64u64) {
            let a = Gf256::new(a);
            prop_assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
        }
    }
}
