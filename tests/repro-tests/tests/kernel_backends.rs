//! Differential tests of the tiered GF(2⁸) kernel engine.
//!
//! Every backend the running CPU supports must compute exactly what the
//! textbook shift-and-add field does, on random inputs including unaligned
//! lengths, and the erasure code built on top must round-trip under
//! whichever backend is active. The CRC-32C checksum kernel that shares the
//! engine's tier selection is held to its bit-at-a-time definition the
//! same way. `tools/kernel_matrix.sh` re-runs this file
//! once per backend with the `GF_BACKEND` override set, so the dispatched
//! paths here are exercised on every tier, not just the widest one.

use ajx_erasure::{CodeError, PlanCache, ReedSolomon, WideReedSolomon};
use ajx_gf::{kernel, slice, textbook, Gf65536};
use proptest::prelude::*;
use std::sync::OnceLock;

/// When `GF_BACKEND` is set (as the kernel-matrix script does), dispatch
/// must resolve to exactly that backend; otherwise to some supported one.
#[test]
fn active_backend_honors_env_override() {
    let active = kernel::active_backend();
    assert!(active.is_supported(), "active backend must be supported");
    if let Ok(name) = std::env::var("GF_BACKEND") {
        let requested = kernel::Backend::from_name(&name)
            .unwrap_or_else(|| panic!("GF_BACKEND={name} is not a known backend"));
        assert_eq!(active, requested, "GF_BACKEND={name} override not honored");
    }
}

#[test]
fn every_supported_backend_is_listed() {
    let avail = kernel::available_backends();
    assert!(avail.contains(&kernel::Backend::Scalar));
    assert!(avail.contains(&kernel::Backend::Swar));
    assert!(avail.contains(&kernel::active_backend()));
    for backend in avail {
        assert!(backend.is_supported());
        assert_eq!(kernel::Backend::from_name(backend.name()), Some(backend));
    }
}

/// The dispatching entry points must agree with the explicit `_with` form
/// for the active backend — i.e. dispatch adds selection, not semantics.
#[test]
fn dispatch_equals_explicit_active_backend() {
    let active = kernel::active_backend();
    let src: Vec<u8> = (0..777u32).map(|i| (i * 31 + 7) as u8).collect();
    let mut via_dispatch: Vec<u8> = (0..777u32).map(|i| (i * 13) as u8).collect();
    let mut via_explicit = via_dispatch.clone();
    slice::mul_add_assign(&mut via_dispatch, 0xA7, &src);
    kernel::mul_add_assign_with(active, &mut via_explicit, 0xA7, &src);
    assert_eq!(via_dispatch, via_explicit);
}

/// The checksum's tier follows `GF_BACKEND`: a portable GF backend pins
/// the portable checksum, so the matrix run covers both tiers through the
/// dispatching entry point the WAL calls.
#[test]
fn crc32c_tier_follows_env_override_and_known_answers_hold() {
    let tier = kernel::active_crc32c_tier();
    assert!(kernel::available_crc32c_tiers().contains(&tier));
    if matches!(kernel::active_backend(), kernel::Backend::Scalar | kernel::Backend::Swar) {
        assert_eq!(tier, kernel::Crc32cTier::Portable);
    }
    // The CRC catalogue's check value, then RFC 3720 B.4.
    assert_eq!(kernel::crc32c(b"123456789"), 0xE306_9283);
    assert_eq!(kernel::crc32c(&[0x00; 32]), 0x8A91_36AA);
    assert_eq!(kernel::crc32c(&[0xFF; 32]), 0x62A8_AB43);
}

fn oracle_mul_add(dst: &mut [u8], c: u8, src: &[u8]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= textbook::mul(c, s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All backends equal the textbook oracle on random (length, c, data),
    /// with lengths chosen to straddle the small-slice threshold, SIMD
    /// widths, and unaligned tails.
    #[test]
    fn backends_match_textbook_oracle(
        len in 0usize..300,
        c in proptest::arbitrary::any::<u8>(),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let src: Vec<u8> = (0..len).map(|i| (seed >> (i % 57)) as u8 ^ (i as u8)).collect();
        let dst0: Vec<u8> = (0..len).map(|i| (seed >> (i % 31)) as u8).collect();

        let mut expect = dst0.clone();
        oracle_mul_add(&mut expect, c, &src);

        for backend in kernel::available_backends() {
            let mut dst = dst0.clone();
            kernel::mul_add_assign_with(backend, &mut dst, c, &src);
            prop_assert_eq!(&dst, &expect, "mul_add mismatch on {}", backend.name());

            let mut scaled = src.clone();
            kernel::mul_assign_with(backend, &mut scaled, c);
            let expect_scaled: Vec<u8> =
                src.iter().map(|&s| textbook::mul(c, s)).collect();
            prop_assert_eq!(&scaled, &expect_scaled, "mul mismatch on {}", backend.name());

            let mut delta = vec![0u8; len];
            kernel::delta_into_with(backend, &mut delta, c, &src, &dst0);
            let expect_delta: Vec<u8> = src
                .iter()
                .zip(&dst0)
                .map(|(&a, &b)| textbook::mul(c, a ^ b))
                .collect();
            prop_assert_eq!(&delta, &expect_delta, "delta mismatch on {}", backend.name());
        }
    }

    /// Every checksum tier, and the dispatching entry point, equal the
    /// bit-at-a-time definition at every length up to 1 KiB and all eight
    /// start alignments.
    #[test]
    fn crc32c_tiers_match_bitwise_reference(
        len in 0usize..=1024,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let buf: Vec<u8> = (0..len + 8).map(|i| (seed >> (i % 57)) as u8 ^ (i as u8)).collect();
        for align in 0..8 {
            let data = &buf[align..align + len];
            let expect = textbook::crc32c(data);
            prop_assert_eq!(kernel::crc32c(data), expect, "dispatch, len {} align {}", len, align);
            for tier in kernel::available_crc32c_tiers() {
                prop_assert_eq!(
                    kernel::crc32c_with(tier, data), expect,
                    "{}, len {} align {}", tier.name(), len, align
                );
            }
        }
    }

    /// The fused multi-destination kernel equals p independent row updates
    /// on every backend.
    #[test]
    fn fused_multi_matches_row_by_row(
        len in 1usize..2000,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let src: Vec<u8> = (0..len).map(|i| (seed >> (i % 43)) as u8 ^ (i as u8)).collect();
        let cs = [0x01u8, 0x53, 0x00, 0xFF];
        let rows0: Vec<Vec<u8>> = (0..cs.len())
            .map(|j| (0..len).map(|i| (seed >> ((i + j) % 29)) as u8).collect())
            .collect();

        let mut expect = rows0.clone();
        for (row, &c) in expect.iter_mut().zip(&cs) {
            oracle_mul_add(row, c, &src);
        }

        for backend in kernel::available_backends() {
            let mut rows = rows0.clone();
            let mut dsts: Vec<&mut [u8]> =
                rows.iter_mut().map(|r| r.as_mut_slice()).collect();
            kernel::mul_add_multi_with(backend, &mut dsts, &cs, &src);
            prop_assert_eq!(&rows, &expect, "multi mismatch on {}", backend.name());
        }
    }

    /// Full erasure-code round trip under the *active* backend (whatever
    /// GF_BACKEND selected): encode_into, then decode_into from a random
    /// k-subset of shares, must reproduce the data bit-for-bit.
    #[test]
    fn erasure_roundtrip_under_active_backend(
        len in 1usize..600,
        drop in 0usize..6,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let (k, n) = (4usize, 6usize);
        let rs = ReedSolomon::new(k, n).unwrap();
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..len).map(|b| (seed >> ((b + i) % 51)) as u8).collect())
            .collect();
        let stripe = rs.encode_stripe(&data).unwrap();

        let kept: Vec<usize> = (0..n).filter(|&i| i != drop % n && i != (drop + 2) % n).collect();
        let indices: Vec<usize> = kept.iter().copied().take(k).collect();
        let plan = rs.plan_decode(&indices).unwrap();
        let shares: Vec<&[u8]> = indices.iter().map(|&i| &stripe[i][..]).collect();
        let mut out: Vec<Vec<u8>> = vec![vec![0u8; len]; k];
        {
            let mut outs: Vec<&mut [u8]> = out.iter_mut().map(|o| o.as_mut_slice()).collect();
            plan.decode_into(&shares, &mut outs).unwrap();
        }
        prop_assert_eq!(&out, &data);
    }

    /// All backends' GF(2¹⁶) kernels equal the log/exp-table field on
    /// random (word count, c, data) — the 16-bit twin of
    /// `backends_match_textbook_oracle`, with word counts straddling the
    /// small-slice threshold, every SIMD step width, and ragged tails.
    #[test]
    fn backends_match_gf65536_oracle16(
        words in 0usize..200,
        c in proptest::arbitrary::any::<u16>(),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let len = 2 * words;
        let src: Vec<u8> = (0..len).map(|i| (seed >> (i % 57)) as u8 ^ (i as u8)).collect();
        let dst0: Vec<u8> = (0..len).map(|i| (seed >> (i % 31)) as u8).collect();

        let expect = oracle_mul_add16(&dst0, c, &src);

        for backend in kernel::available_backends() {
            let mut dst = dst0.clone();
            kernel::mul_add_assign16_with(backend, &mut dst, c, &src);
            prop_assert_eq!(&dst, &expect, "mul_add16 mismatch on {}", backend.name());

            let mut scaled = src.clone();
            kernel::mul_assign16_with(backend, &mut scaled, c);
            let expect_scaled = oracle_mul_add16(&vec![0u8; len], c, &src);
            prop_assert_eq!(&scaled, &expect_scaled, "mul16 mismatch on {}", backend.name());

            let mut delta = vec![0u8; len];
            kernel::delta_into16_with(backend, &mut delta, c, &src, &dst0);
            let diff: Vec<u8> = src.iter().zip(&dst0).map(|(&a, &b)| a ^ b).collect();
            let expect_delta = oracle_mul_add16(&vec![0u8; len], c, &diff);
            prop_assert_eq!(&delta, &expect_delta, "delta16 mismatch on {}", backend.name());
        }
    }

    /// The fused multi-destination GF(2¹⁶) kernel equals p independent row
    /// updates on every backend, including row counts past one table batch.
    #[test]
    fn fused_multi16_matches_row_by_row(
        words in 1usize..1000,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let len = 2 * words;
        let src: Vec<u8> = (0..len).map(|i| (seed >> (i % 43)) as u8 ^ (i as u8)).collect();
        let cs = [0x0001u16, 0x53AB, 0x0000, 0xFFFF, 0x0002, 0x8000, 0x100B, 0xCAFE, 0x1234];
        let rows0: Vec<Vec<u8>> = (0..cs.len())
            .map(|j| (0..len).map(|i| (seed >> ((i + j) % 29)) as u8).collect())
            .collect();

        let expect: Vec<Vec<u8>> = rows0
            .iter()
            .zip(&cs)
            .map(|(row, &c)| oracle_mul_add16(row, c, &src))
            .collect();

        for backend in kernel::available_backends() {
            let mut rows = rows0.clone();
            let mut dsts: Vec<&mut [u8]> =
                rows.iter_mut().map(|r| r.as_mut_slice()).collect();
            kernel::mul_add_multi16_with(backend, &mut dsts, &cs, &src);
            prop_assert_eq!(&rows, &expect, "multi16 mismatch on {}", backend.name());
        }
    }

    /// Wide-code round trip at n > 256 through the allocation-free paths,
    /// under whatever backend GF_BACKEND selected: encode_into must equal
    /// encode_stripe's redundancy, and decoding a random erasure pattern
    /// through the memoized plan cache must reproduce the data.
    #[test]
    fn wide_roundtrip_beyond_gf256_under_active_backend(
        words in 1usize..40,
        drop in 0usize..8,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let (wide, cache) = wide_code_and_cache();
        let (k, n) = (wide.k(), wide.n());
        let len = 2 * words;
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..len).map(|b| (seed >> ((b + i) % 51)) as u8).collect())
            .collect();
        let stripe = wide.encode_stripe(&data).unwrap();

        // encode_into agrees with encode_stripe's redundant tail.
        let mut red = vec![vec![0u8; len]; wide.p()];
        {
            let mut views: Vec<&mut [u8]> = red.iter_mut().map(|b| b.as_mut_slice()).collect();
            wide.encode_into(&data, &mut views).unwrap();
        }
        prop_assert_eq!(&red[..], &stripe[k..]);

        // Drop p blocks (a rotating pattern), decode via the cached plan.
        let dropped: Vec<usize> = (0..wide.p()).map(|j| (drop + 67 * j) % n).collect();
        let indices: Vec<usize> = (0..n).filter(|i| !dropped.contains(i)).take(k).collect();
        let plan = cache.plan_wide(wide, &indices).unwrap();
        let shares: Vec<&[u8]> = indices.iter().map(|&i| &stripe[i][..]).collect();
        let mut out: Vec<Vec<u8>> = vec![vec![0u8; len]; k];
        {
            let mut outs: Vec<&mut [u8]> = out.iter_mut().map(|o| o.as_mut_slice()).collect();
            plan.decode_into(&shares, &mut outs).unwrap();
        }
        prop_assert_eq!(&out, &data);
    }
}

/// `dst[w] ^ c·src[w]` per little-endian u16 word, via the log/exp field.
fn oracle_mul_add16(dst: &[u8], c: u16, src: &[u8]) -> Vec<u8> {
    dst.chunks_exact(2)
        .zip(src.chunks_exact(2))
        .flat_map(|(d, s)| {
            let p = Gf65536::mul_raw(c, u16::from_le_bytes([s[0], s[1]]));
            (p ^ u16::from_le_bytes([d[0], d[1]])).to_le_bytes()
        })
        .collect()
}

/// One shared n > 256 wide code plus plan cache: construction inverts a
/// k×k GF(2¹⁶) system, so build it once for every proptest case, and let
/// the cache dedupe the handful of erasure patterns the cases cycle
/// through.
fn wide_code_and_cache() -> (&'static WideReedSolomon, &'static PlanCache) {
    static CODE: OnceLock<(WideReedSolomon, PlanCache)> = OnceLock::new();
    let (code, cache) = CODE.get_or_init(|| {
        (WideReedSolomon::new(258, 262).unwrap(), PlanCache::new())
    });
    (code, cache)
}

/// Regression (ISSUE 10 satellite): odd-length blocks must surface as the
/// typed `OddBlockLength` error from every wide-code entry point, not as a
/// generic mismatch and not as a kernel panic.
#[test]
fn wide_code_rejects_odd_block_lengths_with_typed_error() {
    let rs = WideReedSolomon::new(2, 4).unwrap();
    let odd = vec![0u8; 9];
    assert!(matches!(
        rs.encode(&[odd.clone(), odd.clone()]),
        Err(CodeError::OddBlockLength { len: 9 })
    ));
    assert!(matches!(
        rs.decode(&[(0, &odd[..]), (1, &odd[..])]),
        Err(CodeError::OddBlockLength { len: 9 })
    ));
    assert!(matches!(
        rs.delta(0, 0, &odd, &odd),
        Err(CodeError::OddBlockLength { len: 9 })
    ));
    // Even lengths sail through the same entry points.
    let even = vec![0u8; 10];
    assert!(rs.encode(&[even.clone(), even.clone()]).is_ok());
}

/// A cached wide plan and a freshly inverted one decode identically at
/// n > 256 (the cache must be a pure memo, never a semantic change).
#[test]
fn wide_cached_plan_equals_fresh_beyond_gf256() {
    let (wide, cache) = wide_code_and_cache();
    let (k, n) = (wide.k(), wide.n());
    let len = 16;
    let data: Vec<Vec<u8>> = (0..k).map(|i| vec![(i % 251) as u8 + 1; len]).collect();
    let stripe = wide.encode_stripe(&data).unwrap();
    // Drop the first p blocks; decode from the rest.
    let indices: Vec<usize> = (wide.p()..n).take(k).collect();
    let cached = cache.plan_wide(wide, &indices).unwrap();
    let again = cache.plan_wide(wide, &indices).unwrap();
    assert!(std::sync::Arc::ptr_eq(&cached, &again), "memoized");
    let fresh = wide.plan_decode(&indices).unwrap();
    let shares: Vec<&[u8]> = indices.iter().map(|&i| &stripe[i][..]).collect();
    let mut a = vec![vec![0u8; len]; k];
    let mut b = vec![vec![0u8; len]; k];
    let mut va: Vec<&mut [u8]> = a.iter_mut().map(|x| x.as_mut_slice()).collect();
    let mut vb: Vec<&mut [u8]> = b.iter_mut().map(|x| x.as_mut_slice()).collect();
    cached.decode_into(&shares, &mut va).unwrap();
    fresh.decode_into(&shares, &mut vb).unwrap();
    assert_eq!(a, b);
    assert_eq!(a, data);
}
