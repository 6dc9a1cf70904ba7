//! x86-64 SIMD tier: split-nibble product tables applied with byte shuffles.
//!
//! A GF(2⁸) multiply by a fixed `c` is linear over XOR, so
//! `c·x = c·(x & 0x0F) ⊕ c·(x & 0xF0)`: two 16-entry lookups. PSHUFB
//! (`_mm_shuffle_epi8`) performs sixteen such lookups at once — the standard
//! technique from Plank et al., "Screaming Fast Galois Field Arithmetic
//! Using Intel SIMD Instructions" (FAST'13) and ISA-L. The AVX2 variant
//! doubles the width by broadcasting each 16-entry table into both 128-bit
//! lanes (PSHUFB never crosses lanes, so the lane copies behave like two
//! independent SSSE3 units).
//!
//! The GFNI tier needs no tables in registers: `vgf2p8affineqb` multiplies
//! every byte of a vector by an 8×8 GF(2) bit matrix, and "multiply by `c`"
//! is such a matrix for any field polynomial ([`AFFINE_TABLES`]), so one
//! instruction replaces the two shuffles, shift, two masks and XOR of the
//! nibble form.
//!
//! The weighted sum ([`combine`](super::combine)) has a pass kernel on both
//! 256-bit tiers that keeps up to four outputs in registers while it walks
//! up to sixteen sources; see `combine_avx2` below.
//!
//! This is the **only** module in the crate allowed to use `unsafe`: raw
//! loads/stores and `#[target_feature]` calls. Safety rests on two
//! invariants, both enforced by the safe wrappers below:
//!
//! 1. every pointer dereference stays inside the bounds of the argument
//!    slices (the loops advance in exact step-width multiples and delegate
//!    ragged tails to safe scalar code);
//! 2. a `#[target_feature]` kernel is only reached through the dispatcher
//!    after `is_x86_feature_detected!` confirmed the feature (debug-asserted
//!    again here).
#![allow(unsafe_code, reason = "raw SIMD intrinsics and target features")]

use super::{Backend, Split16, AFFINE_TABLES, COMBINE_ROWS, COMBINE_SRCS, NIB_TABLES};

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

// ---- SSSE3: 16 bytes per step ----

pub(crate) fn mul_add_assign_ssse3(dst: &mut [u8], c: u8, src: &[u8]) {
    debug_assert!(std::arch::is_x86_feature_detected!("ssse3"));
    // SAFETY: dispatcher (or the debug_assert above) has verified SSSE3.
    unsafe { mul_add_ssse3_impl(dst, c, src) }
}

pub(crate) fn mul_assign_ssse3(dst: &mut [u8], c: u8) {
    debug_assert!(std::arch::is_x86_feature_detected!("ssse3"));
    // SAFETY: as above.
    unsafe { mul_ssse3_impl(dst, c) }
}

pub(crate) fn delta_into_ssse3(out: &mut [u8], c: u8, a: &[u8], b: &[u8]) {
    debug_assert!(std::arch::is_x86_feature_detected!("ssse3"));
    // SAFETY: as above.
    unsafe { delta_ssse3_impl(out, c, a, b) }
}

/// # Safety
///
/// Caller must ensure SSSE3 is available (the safe wrappers above
/// check it); every dereference below stays inside `dst`/`src` bounds.
#[target_feature(enable = "ssse3")]
unsafe fn mul_add_ssse3_impl(dst: &mut [u8], c: u8, src: &[u8]) {
    let nib = &NIB_TABLES[c as usize];
    // SAFETY: NIB_TABLES rows are 32 bytes: lo table at +0, hi at +16.
    let (tlo, thi) = unsafe {
        (
            _mm_loadu_si128(nib.as_ptr().cast()),
            _mm_loadu_si128(nib.as_ptr().add(16).cast()),
        )
    };
    let mask = _mm_set1_epi8(0x0f);
    let n = dst.len() / 16 * 16;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 16 <= n <= len for both slices (equal lengths checked
        // by the public entry point); unaligned load/store intrinsics.
        unsafe {
            let s = _mm_loadu_si128(src.as_ptr().add(i).cast());
            let d = _mm_loadu_si128(dst.as_ptr().add(i).cast());
            let lo = _mm_shuffle_epi8(tlo, _mm_and_si128(s, mask));
            let hi = _mm_shuffle_epi8(thi, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
            let prod = _mm_xor_si128(lo, hi);
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), _mm_xor_si128(d, prod));
        }
        i += 16;
    }
    super::small_mul_add(&mut dst[n..], c, &src[n..]);
}

/// # Safety
///
/// Caller must ensure SSSE3 is available (the safe wrappers above
/// check it); every dereference below stays inside `dst` bounds.
#[target_feature(enable = "ssse3")]
unsafe fn mul_ssse3_impl(dst: &mut [u8], c: u8) {
    let nib = &NIB_TABLES[c as usize];
    // SAFETY: see mul_add_ssse3_impl.
    let (tlo, thi) = unsafe {
        (
            _mm_loadu_si128(nib.as_ptr().cast()),
            _mm_loadu_si128(nib.as_ptr().add(16).cast()),
        )
    };
    let mask = _mm_set1_epi8(0x0f);
    let n = dst.len() / 16 * 16;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 16 <= n <= dst.len().
        unsafe {
            let d = _mm_loadu_si128(dst.as_ptr().add(i).cast());
            let lo = _mm_shuffle_epi8(tlo, _mm_and_si128(d, mask));
            let hi = _mm_shuffle_epi8(thi, _mm_and_si128(_mm_srli_epi64(d, 4), mask));
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), _mm_xor_si128(lo, hi));
        }
        i += 16;
    }
    super::small_mul(&mut dst[n..], c);
}

/// # Safety
///
/// Caller must ensure SSSE3 is available (the safe wrappers above
/// check it); every dereference stays inside the three equal-length slices.
#[target_feature(enable = "ssse3")]
unsafe fn delta_ssse3_impl(out: &mut [u8], c: u8, a: &[u8], b: &[u8]) {
    let nib = &NIB_TABLES[c as usize];
    // SAFETY: see mul_add_ssse3_impl.
    let (tlo, thi) = unsafe {
        (
            _mm_loadu_si128(nib.as_ptr().cast()),
            _mm_loadu_si128(nib.as_ptr().add(16).cast()),
        )
    };
    let mask = _mm_set1_epi8(0x0f);
    let n = out.len() / 16 * 16;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 16 <= n <= len of all three equal-length slices.
        unsafe {
            let x = _mm_loadu_si128(a.as_ptr().add(i).cast());
            let y = _mm_loadu_si128(b.as_ptr().add(i).cast());
            let s = _mm_xor_si128(x, y);
            let lo = _mm_shuffle_epi8(tlo, _mm_and_si128(s, mask));
            let hi = _mm_shuffle_epi8(thi, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
            _mm_storeu_si128(out.as_mut_ptr().add(i).cast(), _mm_xor_si128(lo, hi));
        }
        i += 16;
    }
    super::small_delta(&mut out[n..], c, &a[n..], &b[n..]);
}

// ---- AVX2: 32 bytes per step ----

pub(crate) fn mul_add_assign_avx2(dst: &mut [u8], c: u8, src: &[u8]) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    // SAFETY: dispatcher (or the debug_assert above) has verified AVX2.
    unsafe { mul_add_avx2_impl(dst, c, src) }
}

pub(crate) fn mul_assign_avx2(dst: &mut [u8], c: u8) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    // SAFETY: as above.
    unsafe { mul_avx2_impl(dst, c) }
}

pub(crate) fn delta_into_avx2(out: &mut [u8], c: u8, a: &[u8], b: &[u8]) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    // SAFETY: as above.
    unsafe { delta_avx2_impl(out, c, a, b) }
}

/// # Safety
///
/// Caller must ensure AVX2 is available; the loads stay inside the
/// 32-byte NIB_TABLES row.
#[target_feature(enable = "avx2")]
unsafe fn load_nib_tables_avx2(c: u8) -> (__m256i, __m256i) {
    let nib = &NIB_TABLES[c as usize];
    // SAFETY: rows are 32 bytes; broadcast copies the 16-entry table into
    // both 128-bit lanes because VPSHUFB indexes within its own lane only.
    unsafe {
        let tlo = _mm256_broadcastsi128_si256(_mm_loadu_si128(nib.as_ptr().cast()));
        let thi = _mm256_broadcastsi128_si256(_mm_loadu_si128(nib.as_ptr().add(16).cast()));
        (tlo, thi)
    }
}

/// # Safety
///
/// Caller must ensure AVX2 is available (the safe wrappers above
/// check it); every dereference below stays inside `dst`/`src` bounds.
#[target_feature(enable = "avx2")]
unsafe fn mul_add_avx2_impl(dst: &mut [u8], c: u8, src: &[u8]) {
    // SAFETY: this fn's AVX2 target-feature satisfies the callee's only
    // requirement.
    let (tlo, thi) = unsafe { load_nib_tables_avx2(c) };
    let mask = _mm256_set1_epi8(0x0f);
    let n = dst.len() / 32 * 32;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 32 <= n <= len for both equal-length slices.
        unsafe {
            let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            let lo = _mm256_shuffle_epi8(tlo, _mm256_and_si256(s, mask));
            let hi = _mm256_shuffle_epi8(thi, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask));
            let prod = _mm256_xor_si256(lo, hi);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(d, prod));
        }
        i += 32;
    }
    if n < dst.len() {
        mul_add_assign_ssse3(&mut dst[n..], c, &src[n..]);
    }
}

/// # Safety
///
/// Caller must ensure AVX2 is available (the safe wrappers above
/// check it); every dereference below stays inside `dst` bounds.
#[target_feature(enable = "avx2")]
unsafe fn mul_avx2_impl(dst: &mut [u8], c: u8) {
    // SAFETY: this fn's AVX2 target-feature satisfies the callee's only
    // requirement.
    let (tlo, thi) = unsafe { load_nib_tables_avx2(c) };
    let mask = _mm256_set1_epi8(0x0f);
    let n = dst.len() / 32 * 32;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 32 <= n <= dst.len().
        unsafe {
            let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            let lo = _mm256_shuffle_epi8(tlo, _mm256_and_si256(d, mask));
            let hi = _mm256_shuffle_epi8(thi, _mm256_and_si256(_mm256_srli_epi64(d, 4), mask));
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(lo, hi));
        }
        i += 32;
    }
    if n < dst.len() {
        mul_assign_ssse3(&mut dst[n..], c);
    }
}

/// # Safety
///
/// Caller must ensure AVX2 is available (the safe wrappers above
/// check it); every dereference stays inside the three equal-length slices.
#[target_feature(enable = "avx2")]
unsafe fn delta_avx2_impl(out: &mut [u8], c: u8, a: &[u8], b: &[u8]) {
    // SAFETY: this fn's AVX2 target-feature satisfies the callee's only
    // requirement.
    let (tlo, thi) = unsafe { load_nib_tables_avx2(c) };
    let mask = _mm256_set1_epi8(0x0f);
    let n = out.len() / 32 * 32;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 32 <= n <= len of all three equal-length slices.
        unsafe {
            let x = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let y = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            let s = _mm256_xor_si256(x, y);
            let lo = _mm256_shuffle_epi8(tlo, _mm256_and_si256(s, mask));
            let hi = _mm256_shuffle_epi8(thi, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask));
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), _mm256_xor_si256(lo, hi));
        }
        i += 32;
    }
    if n < out.len() {
        delta_into_ssse3(&mut out[n..], c, &a[n..], &b[n..]);
    }
}

// ---- GFNI: one affine bit-matrix multiply per 32 bytes ----

/// Whether the CPU runs the GFNI tier. Its wrappers check this with a real
/// `assert!`: one cached load per call, and `Backend::Gfni` is a public
/// value any safe caller can pass.
fn has_gfni() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("gfni")
}

pub(crate) fn mul_add_assign_gfni(dst: &mut [u8], c: u8, src: &[u8]) {
    assert!(has_gfni(), "the gfni backend needs a CPU with AVX2 and GFNI");
    assert_eq!(dst.len(), src.len(), "mul_add_assign requires equal-length blocks");
    // SAFETY: the asserts above verified AVX2 + GFNI and equal lengths.
    unsafe { mul_add_gfni_impl(dst, c, src) }
}

pub(crate) fn mul_assign_gfni(dst: &mut [u8], c: u8) {
    assert!(has_gfni(), "the gfni backend needs a CPU with AVX2 and GFNI");
    // SAFETY: the assert above verified AVX2 + GFNI.
    unsafe { mul_gfni_impl(dst, c) }
}

pub(crate) fn delta_into_gfni(out: &mut [u8], c: u8, a: &[u8], b: &[u8]) {
    assert!(has_gfni(), "the gfni backend needs a CPU with AVX2 and GFNI");
    assert!(
        a.len() == out.len() && b.len() == out.len(),
        "delta_into requires equal-length blocks"
    );
    // SAFETY: the asserts above verified AVX2 + GFNI and equal lengths.
    unsafe { delta_gfni_impl(out, c, a, b) }
}

/// `AFFINE_TABLES[c]` in every 64-bit lane.
///
/// # Safety
///
/// Caller must ensure AVX2 and GFNI are available; no memory is
/// dereferenced.
#[target_feature(enable = "avx2,gfni")]
unsafe fn affine_matrix(c: u8) -> __m256i {
    _mm256_set1_epi64x(AFFINE_TABLES[c as usize] as i64)
}

/// # Safety
///
/// Caller must ensure AVX2 and GFNI are available and `dst` and `src` have
/// equal lengths (the safe wrapper asserts all three); every dereference
/// below stays inside them.
#[target_feature(enable = "avx2,gfni")]
unsafe fn mul_add_gfni_impl(dst: &mut [u8], c: u8, src: &[u8]) {
    // SAFETY: this fn's AVX2 + GFNI target features satisfy the callee's
    // only requirement.
    let a = unsafe { affine_matrix(c) };
    let n = dst.len() / 32 * 32;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 32 <= n <= len of both equal-length slices.
        unsafe {
            let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            let prod = _mm256_gf2p8affine_epi64_epi8::<0>(s, a);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(d, prod));
        }
        i += 32;
    }
    super::mul_add_assign_with(Backend::Scalar, &mut dst[n..], c, &src[n..]);
}

/// # Safety
///
/// Caller must ensure AVX2 and GFNI are available (the safe wrapper asserts
/// it); every dereference below stays inside `dst`.
#[target_feature(enable = "avx2,gfni")]
unsafe fn mul_gfni_impl(dst: &mut [u8], c: u8) {
    // SAFETY: as in mul_add_gfni_impl.
    let a = unsafe { affine_matrix(c) };
    let n = dst.len() / 32 * 32;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 32 <= n <= dst.len().
        unsafe {
            let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            let prod = _mm256_gf2p8affine_epi64_epi8::<0>(d, a);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), prod);
        }
        i += 32;
    }
    super::mul_assign_with(Backend::Scalar, &mut dst[n..], c);
}

/// # Safety
///
/// Caller must ensure AVX2 and GFNI are available and the three slices have
/// equal lengths (the safe wrapper asserts all of it); every dereference
/// stays inside them.
#[target_feature(enable = "avx2,gfni")]
unsafe fn delta_gfni_impl(out: &mut [u8], c: u8, a: &[u8], b: &[u8]) {
    // SAFETY: as in mul_add_gfni_impl.
    let m = unsafe { affine_matrix(c) };
    let n = out.len() / 32 * 32;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 32 <= n <= len of all three equal-length slices.
        unsafe {
            let x = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let y = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            let prod = _mm256_gf2p8affine_epi64_epi8::<0>(_mm256_xor_si256(x, y), m);
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), prod);
        }
        i += 32;
    }
    super::delta_into_with(Backend::Scalar, &mut out[n..], c, &a[n..], &b[n..]);
}

// ---- The weighted sum: one pass of `combine`, output-major ----
//
// A pass holds its G ≤ 4 outputs in G accumulators and walks its m ≤ 16
// sources 32 bytes at a time: each source vector is loaded once and
// multiplied into every accumulator whose row weighs it, and each output
// vector is stored once (after loading it first when the pass adds to an
// earlier one). The multipliers of the G × m pairs — nibble tables on AVX2,
// bit matrices on GFNI — sit in a stack array built once per pass. On AVX2
// a source that some of the rows weigh 0 skips those rows, so a pass does
// the multiplies of the source-major loop and no more. On GFNI a multiply
// is one instruction, cheaper than the branch that would skip it: a zero
// weight's matrix is zero, and an LRC(12,3,1) encode, whose local rows
// weigh two thirds of the sources 0, ran 50 µs per 64 KiB stripe
// multiplying them against 70 µs skipping them. Tails shorter than a
// vector go through the public scalar entry, which takes c = 0 and c = 1
// itself.

/// Asserts the shape the pass kernels index by: 1 to 4 outputs with one
/// coefficient row each, at most 16 sources, all of one length.
fn check_pass(outs: &[&mut [u8]], cs: &[[u8; COMBINE_SRCS]], srcs: &[&[u8]]) {
    assert!(
        (1..=COMBINE_ROWS).contains(&outs.len())
            && cs.len() == outs.len()
            && srcs.len() <= COMBINE_SRCS,
        "a combine pass takes 1 to {COMBINE_ROWS} rows and at most {COMBINE_SRCS} sources"
    );
    let len = outs[0].len();
    assert!(
        outs.iter().all(|o| o.len() == len) && srcs.iter().all(|s| s.len() == len),
        "combine requires equal-length blocks"
    );
}

/// Bit `r` of entry `s`: row `r` weighs source `s` nonzero.
fn row_masks(cs: &[[u8; COMBINE_SRCS]]) -> [u8; COMBINE_SRCS] {
    let mut masks = [0u8; COMBINE_SRCS];
    for (r, row) in cs.iter().enumerate() {
        for (m, &c) in masks.iter_mut().zip(row) {
            if c != 0 {
                *m |= 1 << r;
            }
        }
    }
    masks
}

/// The tail of a pass, bytes `n..` of every output, through the scalar
/// tier's public entry.
fn combine_tail(
    outs: &mut [&mut [u8]],
    cs: &[[u8; COMBINE_SRCS]],
    srcs: &[&[u8]],
    accumulate: bool,
    n: usize,
) {
    for (o, row) in outs.iter_mut().zip(cs) {
        let tail = &mut o[n..];
        if !accumulate {
            tail.fill(0);
        }
        for (&c, src) in row.iter().zip(srcs) {
            super::mul_add_assign_with(Backend::Scalar, tail, c, &src[n..]);
        }
    }
}

pub(crate) fn combine_avx2(
    outs: &mut [&mut [u8]],
    cs: &[[u8; COMBINE_SRCS]],
    srcs: &[&[u8]],
    accumulate: bool,
) {
    assert!(
        std::arch::is_x86_feature_detected!("avx2"),
        "the avx2 backend needs a CPU with AVX2"
    );
    check_pass(outs, cs, srcs);
    // SAFETY: the asserts above verified AVX2 and the pass's shape.
    unsafe {
        match outs.len() {
            1 => combine_avx2_impl::<1>(outs, cs, srcs, accumulate),
            2 => combine_avx2_impl::<2>(outs, cs, srcs, accumulate),
            3 => combine_avx2_impl::<3>(outs, cs, srcs, accumulate),
            _ => combine_avx2_impl::<4>(outs, cs, srcs, accumulate),
        }
    }
}

/// # Safety
///
/// Caller must ensure AVX2 is available, `outs.len() == cs.len() == G`,
/// `srcs.len() <= COMBINE_SRCS` and every output and source has one length
/// (`combine_avx2` asserts all of it); every dereference stays inside them.
#[target_feature(enable = "avx2")]
unsafe fn combine_avx2_impl<const G: usize>(
    outs: &mut [&mut [u8]],
    cs: &[[u8; COMBINE_SRCS]],
    srcs: &[&[u8]],
    accumulate: bool,
) {
    let m = srcs.len();
    let mut tlo = [[_mm256_setzero_si256(); COMBINE_SRCS]; G];
    let mut thi = [[_mm256_setzero_si256(); COMBINE_SRCS]; G];
    for r in 0..G {
        for s in 0..m {
            // SAFETY: this fn's AVX2 target-feature satisfies the callee's
            // only requirement.
            (tlo[r][s], thi[r][s]) = unsafe { load_nib_tables_avx2(cs[r][s]) };
        }
    }
    let masks = row_masks(cs);
    let all = (1u8 << G) - 1;
    let nib = _mm256_set1_epi8(0x0f);
    let len = outs[0].len();
    let dst: [*mut u8; G] = std::array::from_fn(|r| outs[r].as_mut_ptr());
    let n = len / 32 * 32;
    let mut i = 0;
    while i < n {
        let mut acc = [_mm256_setzero_si256(); G];
        if accumulate {
            for r in 0..G {
                // SAFETY: i + 32 <= n <= len of output r.
                acc[r] = unsafe { _mm256_loadu_si256(dst[r].add(i).cast()) };
            }
        }
        for s in 0..m {
            // SAFETY: i + 32 <= n <= len of source s.
            let v = unsafe { _mm256_loadu_si256(srcs[s].as_ptr().add(i).cast()) };
            let lo = _mm256_and_si256(v, nib);
            let hi = _mm256_and_si256(_mm256_srli_epi64(v, 4), nib);
            for r in 0..G {
                if masks[s] == all || masks[s] & (1 << r) != 0 {
                    let prod = _mm256_xor_si256(
                        _mm256_shuffle_epi8(tlo[r][s], lo),
                        _mm256_shuffle_epi8(thi[r][s], hi),
                    );
                    acc[r] = _mm256_xor_si256(acc[r], prod);
                }
            }
        }
        for r in 0..G {
            // SAFETY: i + 32 <= n <= len of output r.
            unsafe { _mm256_storeu_si256(dst[r].add(i).cast(), acc[r]) };
        }
        i += 32;
    }
    combine_tail(outs, cs, srcs, accumulate, n);
}

pub(crate) fn combine_gfni(
    outs: &mut [&mut [u8]],
    cs: &[[u8; COMBINE_SRCS]],
    srcs: &[&[u8]],
    accumulate: bool,
) {
    assert!(has_gfni(), "the gfni backend needs a CPU with AVX2 and GFNI");
    check_pass(outs, cs, srcs);
    // SAFETY: the asserts above verified AVX2 + GFNI and the pass's shape.
    unsafe {
        match outs.len() {
            1 => combine_gfni_impl::<1>(outs, cs, srcs, accumulate),
            2 => combine_gfni_impl::<2>(outs, cs, srcs, accumulate),
            3 => combine_gfni_impl::<3>(outs, cs, srcs, accumulate),
            _ => combine_gfni_impl::<4>(outs, cs, srcs, accumulate),
        }
    }
}

/// # Safety
///
/// Caller must ensure AVX2 and GFNI are available, `outs.len() == cs.len()
/// == G`, `srcs.len() <= COMBINE_SRCS` and every output and source has one
/// length (`combine_gfni` asserts all of it); every dereference stays
/// inside them.
#[target_feature(enable = "avx2,gfni")]
unsafe fn combine_gfni_impl<const G: usize>(
    outs: &mut [&mut [u8]],
    cs: &[[u8; COMBINE_SRCS]],
    srcs: &[&[u8]],
    accumulate: bool,
) {
    let m = srcs.len();
    let mut mats = [[_mm256_setzero_si256(); COMBINE_SRCS]; G];
    for r in 0..G {
        for s in 0..m {
            // SAFETY: as in mul_add_gfni_impl.
            mats[r][s] = unsafe { affine_matrix(cs[r][s]) };
        }
    }
    let len = outs[0].len();
    let dst: [*mut u8; G] = std::array::from_fn(|r| outs[r].as_mut_ptr());
    let n = len / 32 * 32;
    let mut i = 0;
    while i < n {
        let mut acc = [_mm256_setzero_si256(); G];
        if accumulate {
            for r in 0..G {
                // SAFETY: i + 32 <= n <= len of output r.
                acc[r] = unsafe { _mm256_loadu_si256(dst[r].add(i).cast()) };
            }
        }
        for s in 0..m {
            // SAFETY: i + 32 <= n <= len of source s.
            let v = unsafe { _mm256_loadu_si256(srcs[s].as_ptr().add(i).cast()) };
            for r in 0..G {
                let prod = _mm256_gf2p8affine_epi64_epi8::<0>(v, mats[r][s]);
                acc[r] = _mm256_xor_si256(acc[r], prod);
            }
        }
        for r in 0..G {
            // SAFETY: i + 32 <= n <= len of output r.
            unsafe { _mm256_storeu_si256(dst[r].add(i).cast(), acc[r]) };
        }
        i += 32;
    }
    combine_tail(outs, cs, srcs, accumulate, n);
}

// ---- GF(2¹⁶): split-nibble tables over the lo/hi byte planes ----
//
// A 16-bit symbol has four nibbles; `c·x` is the XOR of four 16-entry
// lookups (see `Split16`). Each lookup yields a 16-bit partial product, so
// the tables are kept as separate low-byte and high-byte planes — eight
// PSHUFB registers total. Per step the interleaved little-endian words are
// **deinterleaved** into a lo-byte vector and a hi-byte vector with
// PACKUSWB (the 16-bit lanes hold 0..255, so saturation never triggers),
// the eight shuffles run on the four nibble vectors, and PUNPCKLBW/HBW
// re-interleave the product planes — an exact inverse of the pack because
// both operate lane-locally. Ragged tails (fewer than a full step of
// words) fall back to the scalar 16-bit tier with the same tables.

// ---- SSSE3: 32 bytes (16 words) per step ----

pub(crate) fn mul_add_assign16_ssse3(dst: &mut [u8], t: &Split16, src: &[u8]) {
    debug_assert!(std::arch::is_x86_feature_detected!("ssse3"));
    // SAFETY: dispatcher (or the debug_assert above) has verified SSSE3.
    unsafe { mul_add16_ssse3_impl(dst, t, src) }
}

pub(crate) fn mul_assign16_ssse3(dst: &mut [u8], t: &Split16) {
    debug_assert!(std::arch::is_x86_feature_detected!("ssse3"));
    // SAFETY: as above.
    unsafe { mul16_ssse3_impl(dst, t) }
}

pub(crate) fn delta_into16_ssse3(out: &mut [u8], t: &Split16, a: &[u8], b: &[u8]) {
    debug_assert!(std::arch::is_x86_feature_detected!("ssse3"));
    // SAFETY: as above.
    unsafe { delta16_ssse3_impl(out, t, a, b) }
}

/// # Safety
///
/// Caller must ensure SSSE3 is available; the loads stay inside the
/// 16-byte rows of the Split16 byte planes.
#[target_feature(enable = "ssse3")]
unsafe fn load_tables16_sse(t: &Split16) -> ([__m128i; 4], [__m128i; 4]) {
    let mut tl = [_mm_setzero_si128(); 4];
    let mut th = [_mm_setzero_si128(); 4];
    for ((tlk, thk), (lok, hik)) in tl.iter_mut().zip(&mut th).zip(t.lo.iter().zip(&t.hi)) {
        // SAFETY: `lo[k]`/`hi[k]` are [u8; 16] — exactly one 128-bit load.
        unsafe {
            *tlk = _mm_loadu_si128(lok.as_ptr().cast());
            *thk = _mm_loadu_si128(hik.as_ptr().cast());
        }
    }
    (tl, th)
}

/// # Safety
///
/// Caller must ensure SSSE3 is available; no memory is dereferenced
/// (register-only arithmetic on the two loaded word vectors).
#[target_feature(enable = "ssse3")]
unsafe fn split_nibbles16_sse(v0: __m128i, v1: __m128i) -> [__m128i; 4] {
    let mask = _mm_set1_epi8(0x0f);
    let m00ff = _mm_set1_epi16(0x00ff);
    // Deinterleave the LE words into byte planes: lanes hold 0..255, so
    // the unsigned-saturating pack is exact.
    let lo = _mm_packus_epi16(_mm_and_si128(v0, m00ff), _mm_and_si128(v1, m00ff));
    let hi = _mm_packus_epi16(_mm_srli_epi16(v0, 8), _mm_srli_epi16(v1, 8));
    [
        _mm_and_si128(lo, mask),
        _mm_and_si128(_mm_srli_epi64(lo, 4), mask),
        _mm_and_si128(hi, mask),
        _mm_and_si128(_mm_srli_epi64(hi, 4), mask),
    ]
}

/// # Safety
///
/// Caller must ensure SSSE3 is available; no memory is dereferenced
/// (register-only arithmetic on the four nibble vectors).
#[target_feature(enable = "ssse3")]
unsafe fn product16_from_nibbles_sse(
    tl: &[__m128i; 4],
    th: &[__m128i; 4],
    nib: &[__m128i; 4],
) -> (__m128i, __m128i) {
    let rlo = _mm_xor_si128(
        _mm_xor_si128(_mm_shuffle_epi8(tl[0], nib[0]), _mm_shuffle_epi8(tl[1], nib[1])),
        _mm_xor_si128(_mm_shuffle_epi8(tl[2], nib[2]), _mm_shuffle_epi8(tl[3], nib[3])),
    );
    let rhi = _mm_xor_si128(
        _mm_xor_si128(_mm_shuffle_epi8(th[0], nib[0]), _mm_shuffle_epi8(th[1], nib[1])),
        _mm_xor_si128(_mm_shuffle_epi8(th[2], nib[2]), _mm_shuffle_epi8(th[3], nib[3])),
    );
    // Re-interleave the product planes; unpack is the exact lane-local
    // inverse of the pack in `split_nibbles16_sse`, restoring word order.
    (_mm_unpacklo_epi8(rlo, rhi), _mm_unpackhi_epi8(rlo, rhi))
}

/// # Safety
///
/// Caller must ensure SSSE3 is available; no memory is dereferenced
/// (register-only arithmetic on the two loaded word vectors).
#[target_feature(enable = "ssse3")]
unsafe fn product16_sse(
    tl: &[__m128i; 4],
    th: &[__m128i; 4],
    v0: __m128i,
    v1: __m128i,
) -> (__m128i, __m128i) {
    // SAFETY: this fn's SSSE3 target-feature satisfies the callees' only
    // requirement.
    unsafe {
        let nib = split_nibbles16_sse(v0, v1);
        product16_from_nibbles_sse(tl, th, &nib)
    }
}

/// # Safety
///
/// Caller must ensure SSSE3 is available (the safe wrappers above
/// check it); every dereference below stays inside `dst`/`src` bounds.
#[target_feature(enable = "ssse3")]
unsafe fn mul_add16_ssse3_impl(dst: &mut [u8], t: &Split16, src: &[u8]) {
    // SAFETY: this fn's SSSE3 target-feature satisfies the callees' only
    // requirement.
    let (tl, th) = unsafe { load_tables16_sse(t) };
    let n = dst.len() / 32 * 32;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 32 <= n <= len of both equal-length slices.
        unsafe {
            let v0 = _mm_loadu_si128(src.as_ptr().add(i).cast());
            let v1 = _mm_loadu_si128(src.as_ptr().add(i + 16).cast());
            let (p0, p1) = product16_sse(&tl, &th, v0, v1);
            let d0 = _mm_loadu_si128(dst.as_ptr().add(i).cast());
            let d1 = _mm_loadu_si128(dst.as_ptr().add(i + 16).cast());
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), _mm_xor_si128(d0, p0));
            _mm_storeu_si128(dst.as_mut_ptr().add(i + 16).cast(), _mm_xor_si128(d1, p1));
        }
        i += 32;
    }
    super::scalar::mul_add_assign16(&mut dst[n..], t, &src[n..]);
}

pub(crate) fn mul_add_pair16_ssse3(
    d0: &mut [u8],
    t0: &Split16,
    d1: &mut [u8],
    t1: &Split16,
    src: &[u8],
) {
    debug_assert!(std::arch::is_x86_feature_detected!("ssse3"));
    // SAFETY: dispatcher (or the debug_assert above) has verified SSSE3.
    unsafe { mul_add_pair16_ssse3_impl(d0, t0, d1, t1, src) }
}

/// # Safety
///
/// Caller must ensure SSSE3 is available (the safe wrapper above
/// checks it); every dereference below stays inside the equal-length
/// `d0`/`d1`/`src` slices.
#[target_feature(enable = "ssse3")]
unsafe fn mul_add_pair16_ssse3_impl(
    d0: &mut [u8],
    t0: &Split16,
    d1: &mut [u8],
    t1: &Split16,
    src: &[u8],
) {
    // Two destination rows share one source walk: the deinterleave and
    // nibble extraction of each 32-byte chunk runs once, then each row
    // applies its own tables — the dominant shuffle work — to the shared
    // nibbles. Cuts both the shuffle-port traffic and the source reads of
    // a p=2 encode versus two independent passes.
    // SAFETY: this fn's SSSE3 target-feature satisfies the callees' only requirement.
    let ((tl0, th0), (tl1, th1)) = unsafe { (load_tables16_sse(t0), load_tables16_sse(t1)) };
    let n = src.len() / 32 * 32;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 32 <= n <= len of the three equal-length slices.
        unsafe {
            let v0 = _mm_loadu_si128(src.as_ptr().add(i).cast());
            let v1 = _mm_loadu_si128(src.as_ptr().add(i + 16).cast());
            let nib = split_nibbles16_sse(v0, v1);
            let (p0, p1) = product16_from_nibbles_sse(&tl0, &th0, &nib);
            let a0 = _mm_loadu_si128(d0.as_ptr().add(i).cast());
            let a1 = _mm_loadu_si128(d0.as_ptr().add(i + 16).cast());
            _mm_storeu_si128(d0.as_mut_ptr().add(i).cast(), _mm_xor_si128(a0, p0));
            _mm_storeu_si128(d0.as_mut_ptr().add(i + 16).cast(), _mm_xor_si128(a1, p1));
            let (q0, q1) = product16_from_nibbles_sse(&tl1, &th1, &nib);
            let b0 = _mm_loadu_si128(d1.as_ptr().add(i).cast());
            let b1 = _mm_loadu_si128(d1.as_ptr().add(i + 16).cast());
            _mm_storeu_si128(d1.as_mut_ptr().add(i).cast(), _mm_xor_si128(b0, q0));
            _mm_storeu_si128(d1.as_mut_ptr().add(i + 16).cast(), _mm_xor_si128(b1, q1));
        }
        i += 32;
    }
    super::scalar::mul_add_assign16(&mut d0[n..], t0, &src[n..]);
    super::scalar::mul_add_assign16(&mut d1[n..], t1, &src[n..]);
}

/// # Safety
///
/// Caller must ensure SSSE3 is available (the safe wrappers above
/// check it); every dereference below stays inside `dst` bounds.
#[target_feature(enable = "ssse3")]
unsafe fn mul16_ssse3_impl(dst: &mut [u8], t: &Split16) {
    // SAFETY: see mul_add16_ssse3_impl.
    let (tl, th) = unsafe { load_tables16_sse(t) };
    let n = dst.len() / 32 * 32;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 32 <= n <= dst.len().
        unsafe {
            let v0 = _mm_loadu_si128(dst.as_ptr().add(i).cast());
            let v1 = _mm_loadu_si128(dst.as_ptr().add(i + 16).cast());
            let (p0, p1) = product16_sse(&tl, &th, v0, v1);
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), p0);
            _mm_storeu_si128(dst.as_mut_ptr().add(i + 16).cast(), p1);
        }
        i += 32;
    }
    super::scalar::mul_assign16(&mut dst[n..], t);
}

/// # Safety
///
/// Caller must ensure SSSE3 is available (the safe wrappers above
/// check it); every dereference stays inside the three equal-length slices.
#[target_feature(enable = "ssse3")]
unsafe fn delta16_ssse3_impl(out: &mut [u8], t: &Split16, a: &[u8], b: &[u8]) {
    // SAFETY: see mul_add16_ssse3_impl.
    let (tl, th) = unsafe { load_tables16_sse(t) };
    let n = out.len() / 32 * 32;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 32 <= n <= len of all three equal-length slices.
        unsafe {
            let x0 = _mm_loadu_si128(a.as_ptr().add(i).cast());
            let x1 = _mm_loadu_si128(a.as_ptr().add(i + 16).cast());
            let y0 = _mm_loadu_si128(b.as_ptr().add(i).cast());
            let y1 = _mm_loadu_si128(b.as_ptr().add(i + 16).cast());
            let (p0, p1) =
                product16_sse(&tl, &th, _mm_xor_si128(x0, y0), _mm_xor_si128(x1, y1));
            _mm_storeu_si128(out.as_mut_ptr().add(i).cast(), p0);
            _mm_storeu_si128(out.as_mut_ptr().add(i + 16).cast(), p1);
        }
        i += 32;
    }
    super::scalar::delta_into16(&mut out[n..], t, &a[n..], &b[n..]);
}

// ---- AVX2: 64 bytes (32 words) per step ----

pub(crate) fn mul_add_assign16_avx2(dst: &mut [u8], t: &Split16, src: &[u8]) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    // SAFETY: dispatcher (or the debug_assert above) has verified AVX2.
    unsafe { mul_add16_avx2_impl(dst, t, src) }
}

pub(crate) fn mul_assign16_avx2(dst: &mut [u8], t: &Split16) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    // SAFETY: as above.
    unsafe { mul16_avx2_impl(dst, t) }
}

pub(crate) fn delta_into16_avx2(out: &mut [u8], t: &Split16, a: &[u8], b: &[u8]) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    // SAFETY: as above.
    unsafe { delta16_avx2_impl(out, t, a, b) }
}

/// # Safety
///
/// Caller must ensure AVX2 is available; the loads stay inside the
/// 16-byte rows of the Split16 byte planes.
#[target_feature(enable = "avx2")]
unsafe fn load_tables16_avx2(t: &Split16) -> ([__m256i; 4], [__m256i; 4]) {
    let mut tl = [_mm256_setzero_si256(); 4];
    let mut th = [_mm256_setzero_si256(); 4];
    for ((tlk, thk), (lok, hik)) in tl.iter_mut().zip(&mut th).zip(t.lo.iter().zip(&t.hi)) {
        // SAFETY: `lo[k]`/`hi[k]` are [u8; 16]; broadcast copies each
        // 16-entry table into both 128-bit lanes because VPSHUFB indexes
        // within its own lane only.
        unsafe {
            *tlk = _mm256_broadcastsi128_si256(_mm_loadu_si128(lok.as_ptr().cast()));
            *thk = _mm256_broadcastsi128_si256(_mm_loadu_si128(hik.as_ptr().cast()));
        }
    }
    (tl, th)
}

/// # Safety
///
/// Caller must ensure AVX2 is available; no memory is dereferenced
/// (register-only arithmetic on the two loaded word vectors).
#[target_feature(enable = "avx2")]
unsafe fn split_nibbles16_avx2(v0: __m256i, v1: __m256i) -> [__m256i; 4] {
    let mask = _mm256_set1_epi8(0x0f);
    let m00ff = _mm256_set1_epi16(0x00ff);
    let lo = _mm256_packus_epi16(_mm256_and_si256(v0, m00ff), _mm256_and_si256(v1, m00ff));
    let hi = _mm256_packus_epi16(_mm256_srli_epi16(v0, 8), _mm256_srli_epi16(v1, 8));
    [
        _mm256_and_si256(lo, mask),
        _mm256_and_si256(_mm256_srli_epi64(lo, 4), mask),
        _mm256_and_si256(hi, mask),
        _mm256_and_si256(_mm256_srli_epi64(hi, 4), mask),
    ]
}

/// # Safety
///
/// Caller must ensure AVX2 is available; no memory is dereferenced
/// (register-only arithmetic). VPACKUSWB/VPUNPCK{L,H}BW operate per
/// 128-bit lane, so the final unpack exactly inverts the pack lane by lane
/// and word order is preserved end to end.
#[target_feature(enable = "avx2")]
unsafe fn product16_from_nibbles_avx2(
    tl: &[__m256i; 4],
    th: &[__m256i; 4],
    nib: &[__m256i; 4],
) -> (__m256i, __m256i) {
    let rlo = _mm256_xor_si256(
        _mm256_xor_si256(
            _mm256_shuffle_epi8(tl[0], nib[0]),
            _mm256_shuffle_epi8(tl[1], nib[1]),
        ),
        _mm256_xor_si256(
            _mm256_shuffle_epi8(tl[2], nib[2]),
            _mm256_shuffle_epi8(tl[3], nib[3]),
        ),
    );
    let rhi = _mm256_xor_si256(
        _mm256_xor_si256(
            _mm256_shuffle_epi8(th[0], nib[0]),
            _mm256_shuffle_epi8(th[1], nib[1]),
        ),
        _mm256_xor_si256(
            _mm256_shuffle_epi8(th[2], nib[2]),
            _mm256_shuffle_epi8(th[3], nib[3]),
        ),
    );
    (_mm256_unpacklo_epi8(rlo, rhi), _mm256_unpackhi_epi8(rlo, rhi))
}

/// # Safety
///
/// Caller must ensure AVX2 is available; no memory is dereferenced
/// (register-only arithmetic on the two loaded word vectors).
#[target_feature(enable = "avx2")]
unsafe fn product16_avx2(
    tl: &[__m256i; 4],
    th: &[__m256i; 4],
    v0: __m256i,
    v1: __m256i,
) -> (__m256i, __m256i) {
    // SAFETY: this fn's AVX2 target-feature satisfies the callees' only
    // requirement.
    unsafe {
        let nib = split_nibbles16_avx2(v0, v1);
        product16_from_nibbles_avx2(tl, th, &nib)
    }
}

/// # Safety
///
/// Caller must ensure AVX2 is available (the safe wrappers above
/// check it); every dereference below stays inside `dst`/`src` bounds.
#[target_feature(enable = "avx2")]
unsafe fn mul_add16_avx2_impl(dst: &mut [u8], t: &Split16, src: &[u8]) {
    // SAFETY: this fn's AVX2 target-feature satisfies the callees' only
    // requirement.
    let (tl, th) = unsafe { load_tables16_avx2(t) };
    let n = dst.len() / 64 * 64;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 64 <= n <= len of both equal-length slices.
        unsafe {
            let v0 = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let v1 = _mm256_loadu_si256(src.as_ptr().add(i + 32).cast());
            let (p0, p1) = product16_avx2(&tl, &th, v0, v1);
            let d0 = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            let d1 = _mm256_loadu_si256(dst.as_ptr().add(i + 32).cast());
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(d0, p0));
            _mm256_storeu_si256(dst.as_mut_ptr().add(i + 32).cast(), _mm256_xor_si256(d1, p1));
        }
        i += 64;
    }
    if n < dst.len() {
        mul_add_assign16_ssse3(&mut dst[n..], t, &src[n..]);
    }
}

pub(crate) fn mul_add_pair16_avx2(
    d0: &mut [u8],
    t0: &Split16,
    d1: &mut [u8],
    t1: &Split16,
    src: &[u8],
) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    // SAFETY: dispatcher (or the debug_assert above) has verified AVX2.
    unsafe { mul_add_pair16_avx2_impl(d0, t0, d1, t1, src) }
}

/// # Safety
///
/// Caller must ensure AVX2 is available (the safe wrapper above
/// checks it); every dereference below stays inside the equal-length
/// `d0`/`d1`/`src` slices.
#[target_feature(enable = "avx2")]
unsafe fn mul_add_pair16_avx2_impl(
    d0: &mut [u8],
    t0: &Split16,
    d1: &mut [u8],
    t1: &Split16,
    src: &[u8],
) {
    // Two destination rows share one source walk: each 64-byte chunk is
    // deinterleaved and nibble-split once, then both rows apply their own
    // tables to the shared nibbles — saving the pack/shift/mask prologue
    // and the second set of source loads that two independent passes pay.
    // SAFETY: this fn's AVX2 target-feature satisfies the callees' only requirement.
    let ((tl0, th0), (tl1, th1)) = unsafe { (load_tables16_avx2(t0), load_tables16_avx2(t1)) };
    let n = src.len() / 64 * 64;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 64 <= n <= len of the three equal-length slices.
        unsafe {
            let v0 = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let v1 = _mm256_loadu_si256(src.as_ptr().add(i + 32).cast());
            let nib = split_nibbles16_avx2(v0, v1);
            let (p0, p1) = product16_from_nibbles_avx2(&tl0, &th0, &nib);
            let a0 = _mm256_loadu_si256(d0.as_ptr().add(i).cast());
            let a1 = _mm256_loadu_si256(d0.as_ptr().add(i + 32).cast());
            _mm256_storeu_si256(d0.as_mut_ptr().add(i).cast(), _mm256_xor_si256(a0, p0));
            _mm256_storeu_si256(d0.as_mut_ptr().add(i + 32).cast(), _mm256_xor_si256(a1, p1));
            let (q0, q1) = product16_from_nibbles_avx2(&tl1, &th1, &nib);
            let b0 = _mm256_loadu_si256(d1.as_ptr().add(i).cast());
            let b1 = _mm256_loadu_si256(d1.as_ptr().add(i + 32).cast());
            _mm256_storeu_si256(d1.as_mut_ptr().add(i).cast(), _mm256_xor_si256(b0, q0));
            _mm256_storeu_si256(d1.as_mut_ptr().add(i + 32).cast(), _mm256_xor_si256(b1, q1));
        }
        i += 64;
    }
    if n < src.len() {
        mul_add_pair16_ssse3(&mut d0[n..], t0, &mut d1[n..], t1, &src[n..]);
    }
}

/// # Safety
///
/// Caller must ensure AVX2 is available (the safe wrappers above
/// check it); every dereference below stays inside `dst` bounds.
#[target_feature(enable = "avx2")]
unsafe fn mul16_avx2_impl(dst: &mut [u8], t: &Split16) {
    // SAFETY: see mul_add16_avx2_impl.
    let (tl, th) = unsafe { load_tables16_avx2(t) };
    let n = dst.len() / 64 * 64;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 64 <= n <= dst.len().
        unsafe {
            let v0 = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            let v1 = _mm256_loadu_si256(dst.as_ptr().add(i + 32).cast());
            let (p0, p1) = product16_avx2(&tl, &th, v0, v1);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), p0);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i + 32).cast(), p1);
        }
        i += 64;
    }
    if n < dst.len() {
        mul_assign16_ssse3(&mut dst[n..], t);
    }
}

/// # Safety
///
/// Caller must ensure AVX2 is available (the safe wrappers above
/// check it); every dereference stays inside the three equal-length slices.
#[target_feature(enable = "avx2")]
unsafe fn delta16_avx2_impl(out: &mut [u8], t: &Split16, a: &[u8], b: &[u8]) {
    // SAFETY: see mul_add16_avx2_impl.
    let (tl, th) = unsafe { load_tables16_avx2(t) };
    let n = out.len() / 64 * 64;
    let mut i = 0;
    while i < n {
        // SAFETY: i + 64 <= n <= len of all three equal-length slices.
        unsafe {
            let x0 = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let x1 = _mm256_loadu_si256(a.as_ptr().add(i + 32).cast());
            let y0 = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            let y1 = _mm256_loadu_si256(b.as_ptr().add(i + 32).cast());
            let (p0, p1) =
                product16_avx2(&tl, &th, _mm256_xor_si256(x0, y0), _mm256_xor_si256(x1, y1));
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), p0);
            _mm256_storeu_si256(out.as_mut_ptr().add(i + 32).cast(), p1);
        }
        i += 64;
    }
    if n < out.len() {
        delta_into16_ssse3(&mut out[n..], t, &a[n..], &b[n..]);
    }
}

// ---- CRC-32C: the SSE4.2 `crc32` instruction, 8 bytes per step ----

pub(crate) fn crc32c_sse42(data: &[u8]) -> u32 {
    // A checked assert, not a debug one: `Crc32cTier::Sse42` is a public
    // value any safe caller can pass, and the check is one cached load.
    assert!(
        std::arch::is_x86_feature_detected!("sse4.2"),
        "the SSE4.2 CRC-32C tier needs a CPU with SSE4.2"
    );
    // SAFETY: the assert above has verified SSE4.2.
    unsafe { crc32c_sse42_impl(data) }
}

/// # Safety
///
/// Caller must ensure SSE4.2 is available (the safe wrapper above
/// asserts it); no pointer is dereferenced — the bytes arrive through safe
/// slice iterators and both intrinsics are register-only.
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_sse42_impl(data: &[u8]) -> u32 {
    let mut steps = data.chunks_exact(8);
    let mut wide = u64::from(!0u32);
    for s in &mut steps {
        let word = u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]);
        wide = _mm_crc32_u64(wide, word);
    }
    // The instruction zero-extends its 32-bit result into the 64-bit
    // destination, so the narrowing cast drops nothing.
    let mut crc = wide as u32;
    for &b in steps.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}
