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

use super::{Split16, NIB_TABLES};

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
