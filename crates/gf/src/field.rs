//! The [`Field`] trait: the minimal algebraic interface the erasure-code
//! layer needs from a coefficient field.

use core::fmt::Debug;
use core::ops::{Add, Div, Mul, Neg, Sub};

/// A finite field, as required by linear MDS erasure codes.
///
/// The paper's codes (§3.3) work over any finite field; the implementation
/// uses GF(2⁸) while the worked 2-of-4 example needs characteristic ≠ 2.
/// This trait lets the generic linear-algebra code (generator matrices,
/// Gaussian elimination, delta coefficients) be written once and
/// property-tested over both.
///
/// # Contract
///
/// Implementations must satisfy the field axioms: `(F, +)` is an abelian
/// group with identity [`Field::ZERO`], `(F \ {0}, ×)` is an abelian group
/// with identity [`Field::ONE`], and multiplication distributes over
/// addition. The unit tests in this crate check these axioms exhaustively or
/// by property testing for every implementation.
pub trait Field:
    Copy
    + Eq
    + Debug
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + Div<Output = Self>
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Number of elements in the field.
    const ORDER: usize;

    /// Builds the element canonically associated with `n`, reducing modulo
    /// the field order. For GF(2⁸) this is the byte `n % 256`; for GF(257)
    /// it is `n % 257`.
    fn from_u64(n: u64) -> Self;

    /// A canonical integer representation in `0..Self::ORDER`, the inverse
    /// of [`Field::from_u64`] on canonical inputs.
    fn to_u64(self) -> u64;

    /// The multiplicative inverse, or `None` for zero.
    fn inv(self) -> Option<Self>;

    /// Raises `self` to the power `e` by square-and-multiply.
    ///
    /// `pow(0)` is [`Field::ONE`] for every element, including zero (the
    /// empty product), matching the convention used by Vandermonde matrix
    /// construction where `x⁰ = 1`.
    fn pow(self, mut e: u64) -> Self {
        let mut base = self;
        let mut acc = Self::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * base;
            }
            base = base * base;
            e >>= 1;
        }
        acc
    }

    /// True if this is the additive identity.
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// A generator of the multiplicative group, used to build Vandermonde
    /// evaluation points that are pairwise distinct.
    fn generator() -> Self;
}

/// A binary field whose whole-block arithmetic runs on the tiered
/// [`kernel`](crate::kernel) engine — what a byte-streaming erasure code
/// needs beyond [`Field`], so that one code implementation serves every
/// symbol width.
///
/// Blocks are plain byte slices holding little-endian symbols of
/// [`SYMBOL_BYTES`](KernelField::SYMBOL_BYTES) bytes each, and
/// coefficients cross into the kernels as raw [`Symbol`](KernelField::Symbol)s
/// (no per-symbol field-element wrapping). The widest stripe such a code
/// supports is [`Field::ORDER`] blocks: one evaluation point per block.
///
/// The three functions forward, statically dispatched, to the width's own
/// `kernel::*` entry points. The kernels themselves are **not** generic:
/// GF(2⁸) reads compile-time product tables, GF(2¹⁶) builds split-nibble
/// tables per call — different algorithms that only share a signature.
///
/// # Panics
///
/// Every function panics on mismatched slice lengths or a length that is
/// not a whole number of symbols; callers validate first.
pub trait KernelField: Field {
    /// The raw symbol: `u8` for GF(2⁸), `u16` for GF(2¹⁶).
    type Symbol: Copy + Debug + Send + Sync + 'static;

    /// Bytes per symbol; every block length must be a multiple of it.
    const SYMBOL_BYTES: usize = core::mem::size_of::<Self::Symbol>();

    /// This element as the raw symbol the kernels take.
    fn symbol(self) -> Self::Symbol;

    /// `dsts[j] ^= cs[j]·src` for every destination row `j`, streaming
    /// `src` once — the inner step of encode and decode.
    fn mul_add_multi(dsts: &mut [&mut [u8]], cs: &[Self::Symbol], src: &[u8]);

    /// `out = c·(a ^ b)` — the client's *Delta* step `α·(v − w)`.
    fn delta_into(out: &mut [u8], c: Self::Symbol, a: &[u8], b: &[u8]);

    /// `dst = c·dst` — the node-side multiply of a broadcast difference.
    fn mul_assign(dst: &mut [u8], c: Self::Symbol);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gf256, Gf257};

    #[allow(clippy::eq_op)] // the axioms deliberately test a − a and a / a
    fn axioms_sample<F: Field>(elems: &[F]) {
        for &a in elems {
            assert_eq!(a + F::ZERO, a, "additive identity");
            assert_eq!(a * F::ONE, a, "multiplicative identity");
            assert_eq!(a - a, F::ZERO, "self subtraction");
            assert_eq!(a + (-a), F::ZERO, "negation");
            assert_eq!(a * F::ZERO, F::ZERO, "mul by zero");
            if !a.is_zero() {
                let i = a.inv().expect("nonzero invertible");
                assert_eq!(a * i, F::ONE, "inverse");
                assert_eq!(a / a, F::ONE, "self division");
            } else {
                assert!(a.inv().is_none(), "zero has no inverse");
            }
            for &b in elems {
                assert_eq!(a + b, b + a, "commutative +");
                assert_eq!(a * b, b * a, "commutative *");
                assert_eq!((a - b) + b, a, "sub round-trips");
                for &c in elems {
                    assert_eq!((a + b) + c, a + (b + c), "associative +");
                    assert_eq!((a * b) * c, a * (b * c), "associative *");
                    assert_eq!(a * (b + c), a * b + a * c, "distributive");
                }
            }
        }
    }

    #[test]
    fn gf256_axioms_on_sample() {
        let elems: Vec<Gf256> = [0u8, 1, 2, 3, 5, 7, 85, 170, 254, 255]
            .iter()
            .map(|&b| Gf256::new(b))
            .collect();
        axioms_sample(&elems);
    }

    #[test]
    fn gf257_axioms_on_sample() {
        let elems: Vec<Gf257> = [0u64, 1, 2, 3, 128, 255, 256]
            .iter()
            .map(|&b| Gf257::from_u64(b))
            .collect();
        axioms_sample(&elems);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for f in [Gf256::new(3), Gf256::new(29), Gf256::new(255)] {
            let mut acc = Gf256::ONE;
            for e in 0..20u64 {
                assert_eq!(f.pow(e), acc);
                acc *= f;
            }
        }
    }

    #[test]
    fn pow_zero_of_zero_is_one() {
        assert_eq!(Gf256::ZERO.pow(0), Gf256::ONE);
        assert_eq!(Gf257::ZERO.pow(0), Gf257::ONE);
    }

    #[test]
    fn generator_has_full_order() {
        // The generator's powers must enumerate every nonzero element.
        let g = Gf256::generator();
        let mut seen = [false; 256];
        let mut x = Gf256::ONE;
        for _ in 0..255 {
            assert!(!seen[x.to_u64() as usize], "generator order too small");
            seen[x.to_u64() as usize] = true;
            x *= g;
        }
        assert_eq!(x, Gf256::ONE);

        let g = Gf257::generator();
        let mut seen = [false; 257];
        let mut x = Gf257::ONE;
        for _ in 0..256 {
            assert!(!seen[x.to_u64() as usize], "generator order too small");
            seen[x.to_u64() as usize] = true;
            x *= g;
        }
        assert_eq!(x, Gf257::ONE);
    }
}
