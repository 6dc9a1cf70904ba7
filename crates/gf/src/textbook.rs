//! Textbook GF(2⁸) multiplication: shift-and-add with on-the-fly reduction.
//!
//! This module exists for two reasons:
//!
//! 1. It is the *baseline* for the paper's §6.1 claim that their optimized
//!    field arithmetic "runs 10-20 times faster than textbook
//!    implementations" — `benches/ec_kernels.rs` measures both paths.
//! 2. It is an independent oracle: the table-driven [`crate::Gf256`] is
//!    verified against it exhaustively (all 65 536 products) in tests.
//!
//! [`crc32c`] is here for the second reason: the checksum kernel's tiers
//! are tested against this bit-at-a-time definition.

use crate::gf256::PRIMITIVE_POLY;

/// Multiplies two GF(2⁸) elements by Russian-peasant shift-and-add.
///
/// Each of the 8 iterations conditionally XORs the multiplicand and reduces
/// by the primitive polynomial — no tables, no precomputation.
#[inline]
pub fn mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc: u8 = 0;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let carry = a & 0x80 != 0;
        a <<= 1;
        if carry {
            a ^= (PRIMITIVE_POLY & 0xFF) as u8;
        }
        b >>= 1;
    }
    acc
}

/// `dst[i] ^= c · src[i]` computed with [`mul`] per byte — the slow path the
/// optimized kernels in [`crate::slice`] are benchmarked against.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_add_assign(dst: &mut [u8], c: u8, src: &[u8]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "mul_add_assign requires equal-length blocks"
    );
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= mul(c, s);
    }
}

/// CRC-32C (Castagnoli) one bit at a time, straight from the definition:
/// XOR the next byte into the low end of the state, then eight conditional
/// shift-and-reduce steps by the reflected generator. The oracle every
/// [`kernel::crc32c`](crate::kernel::crc32c) tier is tested against.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0x82F6_3B78 } else { crc >> 1 };
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_by_zero_and_one() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
        }
    }

    #[test]
    fn mul_is_commutative_exhaustively() {
        for a in 0..=255u8 {
            for b in a..=255u8 {
                assert_eq!(mul(a, b), mul(b, a));
            }
        }
    }

    #[test]
    fn slice_form_matches_scalar() {
        let src: Vec<u8> = (0..=255u8).collect();
        let mut dst = vec![0u8; 256];
        mul_add_assign(&mut dst, 0x1D, &src);
        for (i, &d) in dst.iter().enumerate() {
            assert_eq!(d, mul(0x1D, i as u8));
        }
    }
}
