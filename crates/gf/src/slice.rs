//! Bulk GF(2⁸) kernels over byte slices.
//!
//! Every block operation in the protocol reduces to one of these kernels:
//!
//! * [`add_assign`] — `dst ^= src`, the storage node's *Add* (Fig. 5 line 40);
//! * [`mul_assign`] — `dst = c·dst`, used during decode back-substitution;
//! * [`mul_add_assign`] — `dst ^= c·src`, the client's *Delta* step
//!   (α_ji·(v−w) in Fig. 5 line 10); full encode and decode are one
//!   weighted sum, [`kernel::combine`];
//! * [`add_assign_multi`] — the fused multi-source form of `add_assign`: a
//!   node's batch of adds to one block in one pass.
//!
//! These are thin façades over the tiered [`kernel`](crate::kernel) engine:
//! coefficient tables are precomputed at compile time (no per-call table
//! builds — the "hand optimized code for field arithmetic" of §5.1 taken one
//! step further), and the byte loop runs on the widest backend the CPU
//! supports (GFNI / AVX2 / SSSE3 / SWAR / scalar), selected once at startup and
//! overridable with `GF_BACKEND`. See [`kernel`](crate::kernel) for the tier
//! table and the Fig. 8(a) speedup measurements in `benches/ec_kernels.rs`.
//!
//! All kernels operate on plain `&[u8]`/`&mut [u8]` so callers never pay for
//! a `Gf256` wrapper per byte. [`add_assign`] is field addition in every
//! GF(2^h); the GF(2¹⁶) multiplies have no façade here — call the
//! `kernel::*16` entry points, or go through
//! [`KernelField`](crate::KernelField) to stay width-generic.

use crate::kernel;

/// `dst[i] ^= src[i]` for all `i` — field addition of two blocks.
///
/// This is the entire work a storage node does to apply an `add` RPC, which
/// is why the paper can use "thin" storage nodes.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn add_assign(dst: &mut [u8], src: &[u8]) {
    kernel::add_assign(dst, src);
}

/// `dst[i] ^= srcs[0][i] ^ srcs[1][i] ^ …` — several blocks added into one
/// in a single tiled pass over `dst`: a storage node's batched *Add*.
///
/// # Panics
///
/// Panics if any source length differs from `dst`.
#[inline]
pub fn add_assign_multi<'s>(dst: &mut [u8], srcs: impl Iterator<Item = &'s [u8]> + Clone) {
    kernel::add_assign_multi(dst, srcs);
}

/// `dst[i] = c · dst[i]` — scales a block by a field constant.
///
/// # Panics
///
/// Never panics; `c = 0` zeroes the block, `c = 1` is a no-op.
#[inline]
pub fn mul_assign(dst: &mut [u8], c: u8) {
    kernel::mul_assign(dst, c);
}

/// `dst[i] ^= c · src[i]` — the multiply-accumulate at the heart of encode,
/// decode and delta updates.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn mul_add_assign(dst: &mut [u8], c: u8, src: &[u8]) {
    kernel::mul_add_assign(dst, c, src);
}

/// `out[i] = c · (a[i] ^ b[i])` — fused "subtract then scale", the client's
/// *Delta* computation `α·(v − w)` done in one pass without a temporary.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn delta_into(out: &mut [u8], c: u8, a: &[u8], b: &[u8]) {
    kernel::delta_into(out, c, a, b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textbook;
    use proptest::prelude::*;

    #[test]
    fn add_assign_is_xor() {
        let mut a = vec![0xF0u8; 20];
        let b = vec![0x0Fu8; 20];
        add_assign(&mut a, &b);
        assert!(a.iter().all(|&x| x == 0xFF));
        // Adding twice cancels (characteristic 2).
        add_assign(&mut a, &b);
        assert!(a.iter().all(|&x| x == 0xF0));
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn add_assign_rejects_length_mismatch() {
        let mut a = vec![0u8; 4];
        add_assign(&mut a, &[0u8; 5]);
    }

    #[test]
    fn mul_assign_special_cases() {
        let mut a = vec![7u8, 8, 9];
        mul_assign(&mut a, 1);
        assert_eq!(a, vec![7, 8, 9]);
        mul_assign(&mut a, 0);
        assert_eq!(a, vec![0, 0, 0]);
    }

    #[test]
    fn add_assign_multi_equals_one_add_assign_per_source() {
        // Lengths around the tile: inside one, exactly one, and a partial
        // last tile; no sources at all leaves `dst` alone.
        for len in [0, 1, 100, kernel::TILE, 3 * kernel::TILE + 5] {
            for count in [0usize, 1, 2, 5] {
                let srcs: Vec<Vec<u8>> = (0..count)
                    .map(|s| (0..len).map(|i| (i * 31 + s * 7 + 1) as u8).collect())
                    .collect();
                let start: Vec<u8> = (0..len).map(|i| (i * 13) as u8).collect();
                let mut one_by_one = start.clone();
                for src in &srcs {
                    add_assign(&mut one_by_one, src);
                }
                let mut fused = start;
                add_assign_multi(&mut fused, srcs.iter().map(Vec::as_slice));
                assert_eq!(fused, one_by_one, "{count} sources of {len} bytes");
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn add_assign_multi_rejects_length_mismatch() {
        let mut a = vec![0u8; 4];
        add_assign_multi(&mut a, [&[0u8; 4][..], &[0u8; 5]].into_iter());
    }

    proptest! {
        #[test]
        fn prop_mul_add_matches_scalar(
            c in any::<u8>(),
            data in proptest::collection::vec(any::<u8>(), 0..100),
            src in proptest::collection::vec(any::<u8>(), 0..100),
        ) {
            let n = data.len().min(src.len());
            let mut dst = data[..n].to_vec();
            mul_add_assign(&mut dst, c, &src[..n]);
            for i in 0..n {
                prop_assert_eq!(dst[i], data[i] ^ textbook::mul(c, src[i]));
            }
        }

        #[test]
        fn prop_delta_fused_equals_two_step(
            c in any::<u8>(),
            a in proptest::collection::vec(any::<u8>(), 1..64),
        ) {
            let b: Vec<u8> = a.iter().map(|x| x.wrapping_mul(31).wrapping_add(7)).collect();
            let mut fused = vec![0u8; a.len()];
            delta_into(&mut fused, c, &a, &b);

            let mut two_step: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            mul_assign(&mut two_step, c);
            prop_assert_eq!(fused, two_step);
        }

        #[test]
        fn prop_mul_assign_then_inverse_round_trips(
            c in 1..=255u8,
            mut data in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            use crate::{Field, Gf256};
            let original = data.clone();
            mul_assign(&mut data, c);
            let inv = Gf256::new(c).inv().unwrap().as_byte();
            mul_assign(&mut data, inv);
            prop_assert_eq!(data, original);
        }
    }
}
