//! Tiered GF(2⁸) **and GF(2¹⁶)** bulk-multiply kernel engine.
//!
//! The protocol's hot path is `dst ^= c·src` over whole blocks (encode rows,
//! delta updates, decode back-substitution). This module provides that kernel
//! at four implementation tiers, selected **once** per process:
//!
//! | backend  | technique                                   | width      |
//! |----------|---------------------------------------------|------------|
//! | `scalar` | per-coefficient 256-entry product table     | 1 B/step   |
//! | `swar`   | branchless lanewise shift-add on `u64`      | 8 B/step   |
//! | `ssse3`  | split-nibble tables via `_mm_shuffle_epi8`  | 16 B/step  |
//! | `avx2`   | same tables via `_mm256_shuffle_epi8`       | 32 B/step  |
//!
//! All GF(2⁸) coefficient tables — the full 256-entry product table per
//! coefficient used by the scalar tier, and the 16+16-entry low/high-nibble
//! tables used by the SIMD tiers — are **generated at compile time** for all
//! 255 nontrivial coefficients ([`MUL_TABLES`], [`NIB_TABLES`]). No GF(2⁸)
//! kernel call ever builds a table at runtime; the old per-call
//! [`Gf256::build_mul_table`](crate::Gf256::build_mul_table) cost is gone
//! entirely.
//!
//! # The GF(2¹⁶) family
//!
//! Wide codes ([`Gf65536`](crate::Gf65536), stripes past 256 blocks) get the
//! same four tiers through the `*16` kernels ([`mul_add_assign16`],
//! [`mul_assign16`], [`delta_into16`], [`mul_add_multi16`]). Blocks stay
//! plain byte slices interpreted as **little-endian `u16` words**, so every
//! `*16` kernel requires even slice lengths (odd lengths panic here; the
//! erasure layer rejects them with a typed error first). Compile-time tables
//! are infeasible at 2¹⁶ coefficients, so each call decomposes its constant
//! `c` into four 4-bit × 16-bit partial-product tables ([`Split16`]) —
//! `c·n`, `c·(n<<4)`, `c·(n<<8)`, `c·(n<<12)` for `n` in `0..16` — built
//! once per call (64 log/exp multiplies) and amortized over the block; the
//! SIMD tiers consume the same tables split into low/high byte planes via
//! PSHUFB, the scalar tier reads the `u16` entries directly. Sub-step
//! ("odd") tails always fall back to the scalar 16-bit path, never to a
//! byte-field kernel.
//!
//! # The CRC-32C checksum
//!
//! The workspace's one checksum routine lives here too, because it is the
//! same kind of code — a GF(2) polynomial kernel with a portable tier and
//! an instruction-backed one, chosen once per process. [`crc32c`] runs
//! slicing-by-8 over compile-time tables ([`Crc32cTier::Portable`]) or the
//! SSE4.2 `crc32` instruction ([`Crc32cTier::Sse42`]); the storage node's
//! write-ahead log frames every record with it.
//!
//! # Backend selection
//!
//! [`active_backend`] picks the widest backend the CPU supports (via
//! `is_x86_feature_detected!`) the first time any kernel runs, and caches the
//! choice in a `OnceLock`. The `GF_BACKEND` environment variable
//! (`scalar`|`swar`|`ssse3`|`avx2`) overrides detection — requesting a
//! backend the CPU cannot run panics at startup rather than faulting later.
//! Per-backend entry points (`*_with`) bypass dispatch for differential
//! testing and benchmarking. The checksum follows the same choice:
//! `GF_BACKEND=scalar|swar` pins its portable tier, anything else takes the
//! SSE4.2 tier where the CPU has it.
//!
//! # Safety
//!
//! `unsafe` is confined to [`x86`] (raw SIMD intrinsics behind
//! `#[target_feature]`); every other module in this crate remains
//! `#![deny(unsafe_code)]`-clean, and the dispatcher guarantees an x86 kernel
//! is only ever invoked after the corresponding CPUID feature check.

use std::sync::OnceLock;

pub(crate) mod crc;
pub(crate) mod scalar;
pub(crate) mod swar;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

use crate::gf256::{EXP, LOG};
use crate::gf65536::Gf65536;

/// Slices shorter than this skip table lookups entirely and multiply each
/// byte directly through the log/exp tables: for a handful of bytes the
/// 768-byte log/exp working set is cheaper to touch than a cold 256-byte
/// product-table row, and the SIMD setup (broadcasts, masks) never pays for
/// itself.
pub const SMALL_SLICE_LEN: usize = 16;

/// GF(2¹⁶) slices shorter than this (in bytes) skip the [`Split16`] build —
/// 64 log/exp multiplies — and multiply each `u16` word directly through
/// the GF(2¹⁶) log/exp tables instead. At 32 words the table build starts
/// paying for itself.
pub const SMALL_SLICE_LEN16: usize = 64;

const fn build_full_tables() -> [[u8; 256]; 256] {
    let mut t = [[0u8; 256]; 256];
    let mut c = 1usize;
    while c < 256 {
        let log_c = LOG[c] as usize;
        let mut x = 1usize;
        while x < 256 {
            t[c][x] = EXP[log_c + LOG[x] as usize];
            x += 1;
        }
        c += 1;
    }
    t
}

const fn build_nib_tables() -> [[u8; 32]; 256] {
    let mut t = [[0u8; 32]; 256];
    let mut c = 1usize;
    while c < 256 {
        let log_c = LOG[c] as usize;
        let mut n = 1usize;
        while n < 16 {
            // low-nibble products c·n and high-nibble products c·(n<<4);
            // byte product = lo ^ hi by linearity of · over XOR.
            t[c][n] = EXP[log_c + LOG[n] as usize];
            t[c][16 + n] = EXP[log_c + LOG[n << 4] as usize];
            n += 1;
        }
        c += 1;
    }
    t
}

/// `MUL_TABLES[c][x] = c·x` — full product tables for every coefficient,
/// generated at compile time (64 KiB of read-only data).
pub static MUL_TABLES: [[u8; 256]; 256] = build_full_tables();

/// `NIB_TABLES[c][0..16] = c·n`, `NIB_TABLES[c][16..32] = c·(n<<4)` — the
/// split-nibble tables consumed by PSHUFB-style SIMD kernels (8 KiB).
pub static NIB_TABLES: [[u8; 32]; 256] = build_nib_tables();

/// One implementation tier of the multiply kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Per-coefficient 256-entry table, one byte per step.
    Scalar,
    /// Portable branchless shift-add over `u64` lanes, 8 bytes per step.
    Swar,
    /// SSSE3 `_mm_shuffle_epi8` nibble tables, 16 bytes per step.
    #[cfg(target_arch = "x86_64")]
    Ssse3,
    /// AVX2 `_mm256_shuffle_epi8` nibble tables, 32 bytes per step.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Backend {
    /// The backend's `GF_BACKEND` name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Swar => "swar",
            #[cfg(target_arch = "x86_64")]
            Backend::Ssse3 => "ssse3",
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => "avx2",
        }
    }

    /// Parses a `GF_BACKEND` value. Unknown names return `None`.
    pub fn from_name(name: &str) -> Option<Backend> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" | "table" => Some(Backend::Scalar),
            "swar" => Some(Backend::Swar),
            #[cfg(target_arch = "x86_64")]
            "ssse3" => Some(Backend::Ssse3),
            #[cfg(target_arch = "x86_64")]
            "avx2" => Some(Backend::Avx2),
            _ => None,
        }
    }

    /// Whether this CPU can execute the backend.
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Scalar | Backend::Swar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Ssse3 => std::arch::is_x86_feature_detected!("ssse3"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        }
    }
}

/// Every backend this CPU supports, widest last.
pub fn available_backends() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar, Backend::Swar];
    #[cfg(target_arch = "x86_64")]
    {
        if Backend::Ssse3.is_supported() {
            v.push(Backend::Ssse3);
        }
        if Backend::Avx2.is_supported() {
            v.push(Backend::Avx2);
        }
    }
    v
}

static ACTIVE: OnceLock<Backend> = OnceLock::new();

/// The backend used by the dispatching kernels, chosen once per process.
///
/// Honors `GF_BACKEND` (`scalar`|`swar`|`ssse3`|`avx2`) if set, otherwise
/// picks the widest supported tier.
///
/// # Panics
///
/// Panics on the first call if `GF_BACKEND` names an unknown backend or one
/// this CPU cannot execute — failing fast beats faulting in a SIMD kernel.
pub fn active_backend() -> Backend {
    *ACTIVE.get_or_init(|| match std::env::var("GF_BACKEND") {
        Ok(name) => {
            let b = Backend::from_name(&name)
                .unwrap_or_else(|| panic!("GF_BACKEND={name:?} is not a known backend"));
            assert!(
                b.is_supported(),
                "GF_BACKEND={name:?} is not supported by this CPU"
            );
            b
        }
        Err(_) => *available_backends().last().expect("scalar always present"),
    })
}

/// `dst[i] ^= c·src[i]` on the active backend.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn mul_add_assign(dst: &mut [u8], c: u8, src: &[u8]) {
    mul_add_assign_with(active_backend(), dst, c, src);
}

/// `dst[i] ^= c·src[i]` on an explicit backend (differential tests, benches).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_add_assign_with(backend: Backend, dst: &mut [u8], c: u8, src: &[u8]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "mul_add_assign requires equal-length blocks"
    );
    match c {
        0 => {}
        1 => add_assign(dst, src),
        _ => {
            if dst.len() < SMALL_SLICE_LEN {
                return small_mul_add(dst, c, src);
            }
            match backend {
                Backend::Scalar => scalar::mul_add_assign(dst, c, src),
                Backend::Swar => swar::mul_add_assign(dst, c, src),
                #[cfg(target_arch = "x86_64")]
                Backend::Ssse3 => x86::mul_add_assign_ssse3(dst, c, src),
                #[cfg(target_arch = "x86_64")]
                Backend::Avx2 => x86::mul_add_assign_avx2(dst, c, src),
            }
        }
    }
}

/// `dst[i] = c·dst[i]` on the active backend.
#[inline]
pub fn mul_assign(dst: &mut [u8], c: u8) {
    mul_assign_with(active_backend(), dst, c);
}

/// `dst[i] = c·dst[i]` on an explicit backend.
pub fn mul_assign_with(backend: Backend, dst: &mut [u8], c: u8) {
    match c {
        0 => dst.fill(0),
        1 => {}
        _ => {
            if dst.len() < SMALL_SLICE_LEN {
                return small_mul(dst, c);
            }
            match backend {
                Backend::Scalar => scalar::mul_assign(dst, c),
                Backend::Swar => swar::mul_assign(dst, c),
                #[cfg(target_arch = "x86_64")]
                Backend::Ssse3 => x86::mul_assign_ssse3(dst, c),
                #[cfg(target_arch = "x86_64")]
                Backend::Avx2 => x86::mul_assign_avx2(dst, c),
            }
        }
    }
}

/// `out[i] = c·(a[i] ^ b[i])` on the active backend — fused subtract-scale.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn delta_into(out: &mut [u8], c: u8, a: &[u8], b: &[u8]) {
    delta_into_with(active_backend(), out, c, a, b);
}

/// `out[i] = c·(a[i] ^ b[i])` on an explicit backend.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn delta_into_with(backend: Backend, out: &mut [u8], c: u8, a: &[u8], b: &[u8]) {
    assert_eq!(a.len(), b.len(), "delta_into requires equal-length blocks");
    assert_eq!(out.len(), a.len(), "delta_into requires equal-length blocks");
    match c {
        0 => out.fill(0),
        1 => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x ^ y;
            }
        }
        _ => {
            if out.len() < SMALL_SLICE_LEN {
                return small_delta(out, c, a, b);
            }
            match backend {
                Backend::Scalar => scalar::delta_into(out, c, a, b),
                Backend::Swar => swar::delta_into(out, c, a, b),
                #[cfg(target_arch = "x86_64")]
                Backend::Ssse3 => x86::delta_into_ssse3(out, c, a, b),
                #[cfg(target_arch = "x86_64")]
                Backend::Avx2 => x86::delta_into_avx2(out, c, a, b),
            }
        }
    }
}

/// `dsts[j][i] ^= cs[j]·src[i]` for all rows `j` — the fused multi-
/// destination kernel behind full encode. Streams `src` once, tile by tile,
/// through all destination rows while the tile is hot in L1, instead of
/// re-reading `src` from L2/DRAM once per row.
///
/// # Panics
///
/// Panics if `dsts` and `cs` lengths differ, or any row length differs from
/// `src`.
#[inline]
pub fn mul_add_multi(dsts: &mut [&mut [u8]], cs: &[u8], src: &[u8]) {
    mul_add_multi_with(active_backend(), dsts, cs, src);
}

/// Tile size of the multi-block passes ([`mul_add_multi`],
/// [`add_assign_multi`], [`mul_add_multi16`]) and of the client's
/// per-block increments, one page. The increments of a 64 KiB RS 12-of-16
/// block keep six tiles live at once (`v`, `w` and four outputs): 24 KiB,
/// inside a 32 KiB L1d. At 8 KiB they filled it, and a `seq_large` block
/// write measured about 10 % slower. Even, so a tile boundary never splits
/// a GF(2¹⁶) word.
pub const TILE: usize = 4 * 1024;

/// [`mul_add_multi`] on an explicit backend.
///
/// # Panics
///
/// Panics if `dsts` and `cs` lengths differ, or any row length differs from
/// `src`.
pub fn mul_add_multi_with(backend: Backend, dsts: &mut [&mut [u8]], cs: &[u8], src: &[u8]) {
    assert_eq!(
        dsts.len(),
        cs.len(),
        "mul_add_multi requires one coefficient per destination row"
    );
    for d in dsts.iter() {
        assert_eq!(
            d.len(),
            src.len(),
            "mul_add_multi requires equal-length blocks"
        );
    }
    let len = src.len();
    let mut start = 0;
    while start < len {
        let end = (start + TILE).min(len);
        for (d, &c) in dsts.iter_mut().zip(cs) {
            mul_add_assign_with(backend, &mut d[start..end], c, &src[start..end]);
        }
        start = end;
    }
}

/// `dst[i] ^= srcs[0][i] ^ srcs[1][i] ^ …` — every source added into `dst`
/// in one pass: tile by tile, so each `dst` tile is read and written once
/// while hot instead of once per source. A storage node applies a batch's
/// adds to one block this way. `srcs` is walked once per tile, so a caller
/// can filter its sources without collecting them.
///
/// # Panics
///
/// Panics if any source length differs from `dst`.
pub fn add_assign_multi<'s>(dst: &mut [u8], srcs: impl Iterator<Item = &'s [u8]> + Clone) {
    for s in srcs.clone() {
        assert_eq!(
            s.len(),
            dst.len(),
            "add_assign_multi requires equal-length blocks"
        );
    }
    for (at, tile) in (0..).step_by(TILE).zip(dst.chunks_mut(TILE)) {
        for s in srcs.clone() {
            add_assign(tile, &s[at..at + tile.len()]);
        }
    }
}

/// `dst[i] ^= src[i]` — plain XOR; backend-independent because LLVM already
/// vectorizes it optimally.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn add_assign(dst: &mut [u8], src: &[u8]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "add_assign requires equal-length blocks"
    );
    let mid = dst.len() - dst.len() % 8;
    let (dh, dt) = dst.split_at_mut(mid);
    let (sh, st) = src.split_at(mid);
    for (d, s) in dh.iter_mut().zip(sh) {
        *d ^= *s;
    }
    for (d, s) in dt.iter_mut().zip(st) {
        *d ^= *s;
    }
}

// ---- GF(2¹⁶) kernel family ----

/// The four 4-bit × 16-bit partial-product tables of one GF(2¹⁶) constant.
///
/// A 16-bit symbol splits into four nibbles, `x = n₀ ⊕ n₁·2⁴ ⊕ n₂·2⁸ ⊕
/// n₃·2¹²`, and multiplication by a fixed `c` is linear over XOR, so
/// `c·x = t₀[n₀] ⊕ t₁[n₁] ⊕ t₂[n₂] ⊕ t₃[n₃]` with `tᵢ[n] = c·(n·2⁴ⁱ)`.
/// Each table has 16 `u16` entries; [`Split16::new`] builds all four (64
/// log/exp multiplies), once per kernel call, amortized over the block —
/// compile-time tables are infeasible for 65 535 constants. The entries are
/// also kept pre-split into low/high **byte planes** so the PSHUFB tiers
/// can load them straight into shuffle registers.
#[derive(Clone, Copy)]
pub struct Split16 {
    /// `w[t][n] = c·(n << 4t)` as raw `u16`.
    pub(crate) w: [[u16; 16]; 4],
    /// Low byte of each `w` entry — the PSHUFB table for the result's
    /// low-byte plane.
    pub(crate) lo: [[u8; 16]; 4],
    /// High byte of each `w` entry — the table for the high-byte plane.
    pub(crate) hi: [[u8; 16]; 4],
}

impl Split16 {
    const ZERO: Split16 = Split16 {
        w: [[0; 16]; 4],
        lo: [[0; 16]; 4],
        hi: [[0; 16]; 4],
    };

    /// Builds the partial-product tables of `c`.
    pub fn new(c: u16) -> Split16 {
        let mut t = Split16::ZERO;
        for shift in 0..4 {
            for n in 1..16u16 {
                let p = Gf65536::mul_raw(c, n << (4 * shift));
                t.w[shift][n as usize] = p;
                t.lo[shift][n as usize] = p as u8;
                t.hi[shift][n as usize] = (p >> 8) as u8;
            }
        }
        t
    }
}

#[inline]
fn assert_even(len: usize) {
    assert!(
        len.is_multiple_of(2),
        "GF(2^16) kernels require even-length blocks (little-endian u16 words)"
    );
}

/// `dst ^= c·src` over little-endian `u16` words, on the active backend.
///
/// # Panics
///
/// Panics if the slices have different lengths or an odd length.
#[inline]
pub fn mul_add_assign16(dst: &mut [u8], c: u16, src: &[u8]) {
    mul_add_assign16_with(active_backend(), dst, c, src);
}

/// [`mul_add_assign16`] on an explicit backend (differential tests, benches).
///
/// # Panics
///
/// Panics if the slices have different lengths or an odd length.
pub fn mul_add_assign16_with(backend: Backend, dst: &mut [u8], c: u16, src: &[u8]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "mul_add_assign16 requires equal-length blocks"
    );
    assert_even(dst.len());
    match c {
        0 => {}
        1 => add_assign(dst, src),
        _ => {
            if dst.len() < SMALL_SLICE_LEN16 {
                return small_mul_add16(dst, c, src);
            }
            let t = Split16::new(c);
            mul_add16_tier(backend, dst, c, &t, src);
        }
    }
}

/// `dst = c·dst` over little-endian `u16` words, on the active backend.
///
/// # Panics
///
/// Panics on an odd slice length.
#[inline]
pub fn mul_assign16(dst: &mut [u8], c: u16) {
    mul_assign16_with(active_backend(), dst, c);
}

/// [`mul_assign16`] on an explicit backend.
///
/// # Panics
///
/// Panics on an odd slice length.
pub fn mul_assign16_with(backend: Backend, dst: &mut [u8], c: u16) {
    assert_even(dst.len());
    match c {
        0 => dst.fill(0),
        1 => {}
        _ => {
            if dst.len() < SMALL_SLICE_LEN16 {
                return small_mul16(dst, c);
            }
            let t = Split16::new(c);
            match backend {
                Backend::Scalar => scalar::mul_assign16(dst, &t),
                Backend::Swar => swar::mul_assign16(dst, c, &t),
                #[cfg(target_arch = "x86_64")]
                Backend::Ssse3 => x86::mul_assign16_ssse3(dst, &t),
                #[cfg(target_arch = "x86_64")]
                Backend::Avx2 => x86::mul_assign16_avx2(dst, &t),
            }
        }
    }
}

/// `out = c·(a ^ b)` over little-endian `u16` words — fused subtract-scale
/// on the active backend.
///
/// # Panics
///
/// Panics if the slice lengths differ or are odd.
#[inline]
pub fn delta_into16(out: &mut [u8], c: u16, a: &[u8], b: &[u8]) {
    delta_into16_with(active_backend(), out, c, a, b);
}

/// [`delta_into16`] on an explicit backend.
///
/// # Panics
///
/// Panics if the slice lengths differ or are odd.
pub fn delta_into16_with(backend: Backend, out: &mut [u8], c: u16, a: &[u8], b: &[u8]) {
    assert_eq!(a.len(), b.len(), "delta_into16 requires equal-length blocks");
    assert_eq!(
        out.len(),
        a.len(),
        "delta_into16 requires equal-length blocks"
    );
    assert_even(out.len());
    match c {
        0 => out.fill(0),
        1 => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x ^ y;
            }
        }
        _ => {
            if out.len() < SMALL_SLICE_LEN16 {
                return small_delta16(out, c, a, b);
            }
            let t = Split16::new(c);
            match backend {
                Backend::Scalar => scalar::delta_into16(out, &t, a, b),
                Backend::Swar => swar::delta_into16(out, c, &t, a, b),
                #[cfg(target_arch = "x86_64")]
                Backend::Ssse3 => x86::delta_into16_ssse3(out, &t, a, b),
                #[cfg(target_arch = "x86_64")]
                Backend::Avx2 => x86::delta_into16_avx2(out, &t, a, b),
            }
        }
    }
}

/// `dsts[j] ^= cs[j]·src` over little-endian `u16` words for all rows `j` —
/// the fused multi-destination kernel behind wide-code encode and decode.
///
/// Rows are processed in batches of [`ROW_BATCH16`]: the batch's
/// [`Split16`] tables are built once on the stack (no heap allocation),
/// then `src` is streamed tile by tile through every row of the batch while
/// the tile is hot in L1.
///
/// # Panics
///
/// Panics if `dsts` and `cs` lengths differ, any row length differs from
/// `src`, or the length is odd.
#[inline]
pub fn mul_add_multi16(dsts: &mut [&mut [u8]], cs: &[u16], src: &[u8]) {
    mul_add_multi16_with(active_backend(), dsts, cs, src);
}

/// Rows per table-build batch in [`mul_add_multi16`]: 8 × 256-byte
/// [`Split16`] tables fit comfortably on the stack and in L1 next to the
/// source tile.
pub const ROW_BATCH16: usize = 8;

/// [`mul_add_multi16`] on an explicit backend.
///
/// # Panics
///
/// Panics if `dsts` and `cs` lengths differ, any row length differs from
/// `src`, or the length is odd.
pub fn mul_add_multi16_with(backend: Backend, dsts: &mut [&mut [u8]], cs: &[u16], src: &[u8]) {
    assert_eq!(
        dsts.len(),
        cs.len(),
        "mul_add_multi16 requires one coefficient per destination row"
    );
    for d in dsts.iter() {
        assert_eq!(
            d.len(),
            src.len(),
            "mul_add_multi16 requires equal-length blocks"
        );
    }
    assert_even(src.len());
    let len = src.len();
    for (rows, row_cs) in dsts.chunks_mut(ROW_BATCH16).zip(cs.chunks(ROW_BATCH16)) {
        let mut tabs = [Split16::ZERO; ROW_BATCH16];
        for (t, &c) in tabs.iter_mut().zip(row_cs) {
            if c > 1 && len >= SMALL_SLICE_LEN16 {
                *t = Split16::new(c);
            }
        }
        let mut start = 0;
        while start < len {
            // TILE is even, so tile boundaries never split a word.
            let end = (start + TILE).min(len);
            let s = &src[start..end];
            let mut j = 0;
            while j < rows.len() {
                let c = row_cs[j];
                // Two consecutive general rows share one source walk: the
                // pair kernel deinterleaves and nibble-splits each chunk
                // once and applies both rows' tables to it (a measurable
                // win on the shuffle tiers, where that prologue competes
                // with the table lookups for the same execution ports).
                if c > 1 && len >= SMALL_SLICE_LEN16 && j + 1 < rows.len() && row_cs[j + 1] > 1 {
                    let (head, tail) = rows.split_at_mut(j + 1);
                    mul_add16_pair_tier(
                        backend,
                        (&mut head[j][start..end], c, &tabs[j]),
                        (&mut tail[0][start..end], row_cs[j + 1], &tabs[j + 1]),
                        s,
                    );
                    j += 2;
                    continue;
                }
                let d = &mut rows[j][start..end];
                match c {
                    0 => {}
                    1 => add_assign(d, s),
                    _ if len < SMALL_SLICE_LEN16 => small_mul_add16(d, c, s),
                    _ => mul_add16_tier(backend, d, c, &tabs[j], s),
                }
                j += 1;
            }
            start = end;
        }
    }
}

/// Dispatches a `d ^= c·src` tile **pair** sharing one source walk. The
/// shuffle tiers split each source chunk into nibble vectors once and run
/// both rows' table lookups on them; scalar and SWAR tiers have no shared
/// prologue worth hoisting and simply run row by row.
fn mul_add16_pair_tier(
    backend: Backend,
    r0: (&mut [u8], u16, &Split16),
    r1: (&mut [u8], u16, &Split16),
    src: &[u8],
) {
    let (d0, c0, t0) = r0;
    let (d1, c1, t1) = r1;
    match backend {
        Backend::Scalar => {
            scalar::mul_add_assign16(d0, t0, src);
            scalar::mul_add_assign16(d1, t1, src);
        }
        Backend::Swar => {
            swar::mul_add_assign16(d0, c0, t0, src);
            swar::mul_add_assign16(d1, c1, t1, src);
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Ssse3 => x86::mul_add_pair16_ssse3(d0, t0, d1, t1, src),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => x86::mul_add_pair16_avx2(d0, t0, d1, t1, src),
    }
}

/// Dispatches one `dst ^= c·src` tile to the backend's 16-bit kernel with
/// prebuilt tables (`c` itself is only needed by the SWAR shift-add loop).
fn mul_add16_tier(backend: Backend, dst: &mut [u8], c: u16, t: &Split16, src: &[u8]) {
    match backend {
        Backend::Scalar => scalar::mul_add_assign16(dst, t, src),
        Backend::Swar => swar::mul_add_assign16(dst, c, t, src),
        #[cfg(target_arch = "x86_64")]
        Backend::Ssse3 => x86::mul_add_assign16_ssse3(dst, t, src),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => x86::mul_add_assign16_avx2(dst, t, src),
    }
}

// ---- GF(2¹⁶) small-slice fast path: direct log/exp, no table build ----

fn small_mul_add16(dst: &mut [u8], c: u16, src: &[u8]) {
    for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
        let x = u16::from_le_bytes([s[0], s[1]]);
        if x != 0 {
            let p = Gf65536::mul_raw(c, x) ^ u16::from_le_bytes([d[0], d[1]]);
            d.copy_from_slice(&p.to_le_bytes());
        }
    }
}

fn small_mul16(dst: &mut [u8], c: u16) {
    for d in dst.chunks_exact_mut(2) {
        let x = u16::from_le_bytes([d[0], d[1]]);
        if x != 0 {
            d.copy_from_slice(&Gf65536::mul_raw(c, x).to_le_bytes());
        }
    }
}

fn small_delta16(out: &mut [u8], c: u16, a: &[u8], b: &[u8]) {
    for ((o, x), y) in out
        .chunks_exact_mut(2)
        .zip(a.chunks_exact(2))
        .zip(b.chunks_exact(2))
    {
        let s = u16::from_le_bytes([x[0], x[1]]) ^ u16::from_le_bytes([y[0], y[1]]);
        o.copy_from_slice(&Gf65536::mul_raw(c, s).to_le_bytes());
    }
}

// ---- small-slice fast path (satellite: direct log/exp, no table row) ----

#[inline]
fn small_mul_add(dst: &mut [u8], c: u8, src: &[u8]) {
    let log_c = LOG[c as usize] as usize;
    for (d, &s) in dst.iter_mut().zip(src) {
        if s != 0 {
            *d ^= EXP[log_c + LOG[s as usize] as usize];
        }
    }
}

#[inline]
fn small_mul(dst: &mut [u8], c: u8) {
    let log_c = LOG[c as usize] as usize;
    for d in dst.iter_mut() {
        if *d != 0 {
            *d = EXP[log_c + LOG[*d as usize] as usize];
        }
    }
}

#[inline]
fn small_delta(out: &mut [u8], c: u8, a: &[u8], b: &[u8]) {
    let log_c = LOG[c as usize] as usize;
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        let s = x ^ y;
        *o = if s == 0 {
            0
        } else {
            EXP[log_c + LOG[s as usize] as usize]
        };
    }
}

// ---- CRC-32C checksum kernel ----

/// One implementation tier of [`crc32c`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crc32cTier {
    /// Slicing-by-8 over compile-time tables; runs anywhere.
    Portable,
    /// The SSE4.2 `crc32` instruction, 8 bytes per step.
    #[cfg(target_arch = "x86_64")]
    Sse42,
}

impl Crc32cTier {
    /// The tier's name in bench artifacts and test messages.
    pub fn name(self) -> &'static str {
        match self {
            Crc32cTier::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Crc32cTier::Sse42 => "sse4.2",
        }
    }
}

/// Every CRC-32C tier this CPU supports, fastest last.
pub fn available_crc32c_tiers() -> Vec<Crc32cTier> {
    let mut v = vec![Crc32cTier::Portable];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        v.push(Crc32cTier::Sse42);
    }
    v
}

/// The tier [`crc32c`] dispatches to, chosen once per process: the fastest
/// supported one, unless `GF_BACKEND` pins a portable GF backend
/// (`scalar`|`swar`), which pins the portable checksum with it.
pub fn active_crc32c_tier() -> Crc32cTier {
    static ACTIVE_CRC: OnceLock<Crc32cTier> = OnceLock::new();
    *ACTIVE_CRC.get_or_init(|| match active_backend() {
        Backend::Scalar | Backend::Swar => Crc32cTier::Portable,
        #[cfg(target_arch = "x86_64")]
        _ => *available_crc32c_tiers().last().expect("portable always present"),
    })
}

/// CRC-32C (Castagnoli; iSCSI, RFC 3720) of `data` on the active tier —
/// the workspace's one checksum: the WAL frames its records with it.
#[inline]
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_with(active_crc32c_tier(), data)
}

/// [`crc32c`] on an explicit tier (differential tests, benches). The tier
/// must come from [`available_crc32c_tiers`].
pub fn crc32c_with(tier: Crc32cTier, data: &[u8]) -> u32 {
    match tier {
        Crc32cTier::Portable => crc::crc32c(data),
        #[cfg(target_arch = "x86_64")]
        Crc32cTier::Sse42 => x86::crc32c_sse42(data),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textbook;
    use proptest::prelude::*;

    fn oracle_mul_add(dst: &[u8], c: u8, src: &[u8]) -> Vec<u8> {
        dst.iter()
            .zip(src)
            .map(|(&d, &s)| d ^ textbook::mul(c, s))
            .collect()
    }

    #[test]
    fn static_tables_match_textbook() {
        for c in 0..=255usize {
            for (x, &entry) in MUL_TABLES[c].iter().enumerate() {
                assert_eq!(entry, textbook::mul(c as u8, x as u8));
            }
            for n in 0..16usize {
                assert_eq!(NIB_TABLES[c][n], textbook::mul(c as u8, n as u8));
                assert_eq!(NIB_TABLES[c][16 + n], textbook::mul(c as u8, (n << 4) as u8));
            }
        }
    }

    #[test]
    fn nibble_split_reconstructs_full_product() {
        for c in 1..=255usize {
            for x in 0..=255usize {
                let lo = NIB_TABLES[c][x & 0x0f];
                let hi = NIB_TABLES[c][16 + (x >> 4)];
                assert_eq!(lo ^ hi, MUL_TABLES[c][x], "c={c} x={x}");
            }
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for b in available_backends() {
            assert_eq!(Backend::from_name(b.name()), Some(b));
            assert!(b.is_supported());
        }
        assert_eq!(Backend::from_name("no-such-backend"), None);
    }

    #[test]
    fn active_backend_is_supported() {
        assert!(active_backend().is_supported());
    }

    #[test]
    fn every_backend_handles_all_lengths_and_coefficients() {
        // Deliberately covers lengths straddling every kernel's step width
        // (1, 8, 16, 32) and the small-slice threshold.
        let lens = [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 100, 255, 1024];
        for backend in available_backends() {
            for &len in &lens {
                let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
                let dst0: Vec<u8> = (0..len).map(|i| (i * 101 + 5) as u8).collect();
                for c in [0u8, 1, 2, 3, 0x1d, 0x80, 0xfe, 0xff] {
                    let mut dst = dst0.clone();
                    mul_add_assign_with(backend, &mut dst, c, &src);
                    assert_eq!(
                        dst,
                        oracle_mul_add(&dst0, c, &src),
                        "mul_add backend={} len={len} c={c}",
                        backend.name()
                    );

                    let mut d2 = dst0.clone();
                    mul_assign_with(backend, &mut d2, c);
                    let want: Vec<u8> = dst0.iter().map(|&x| textbook::mul(c, x)).collect();
                    assert_eq!(d2, want, "mul backend={} len={len} c={c}", backend.name());

                    let mut out = vec![0xA5u8; len];
                    delta_into_with(backend, &mut out, c, &dst0, &src);
                    let want: Vec<u8> = dst0
                        .iter()
                        .zip(&src)
                        .map(|(&x, &y)| textbook::mul(c, x ^ y))
                        .collect();
                    assert_eq!(out, want, "delta backend={} len={len} c={c}", backend.name());
                }
            }
        }
    }

    #[test]
    fn mul_add_multi_matches_row_by_row() {
        let len = 10_000; // several tiles plus a ragged tail
        let src: Vec<u8> = (0..len).map(|i| (i * 13 + 7) as u8).collect();
        let cs = [0u8, 1, 0x53, 0xCA];
        for backend in available_backends() {
            let mut rows: Vec<Vec<u8>> = (0..cs.len())
                .map(|j| (0..len).map(|i| (i * 3 + j) as u8).collect())
                .collect();
            let want: Vec<Vec<u8>> = rows
                .iter()
                .zip(&cs)
                .map(|(row, &c)| oracle_mul_add(row, c, &src))
                .collect();
            let mut views: Vec<&mut [u8]> = rows.iter_mut().map(|r| r.as_mut_slice()).collect();
            mul_add_multi_with(backend, &mut views, &cs, &src);
            assert_eq!(rows, want, "backend={}", backend.name());
        }
    }

    // ---- GF(2¹⁶) family ----

    /// Per-word oracle: `dst[i] ^= c·src[i]` through the log/exp tables.
    fn oracle_mul_add16(dst: &[u8], c: u16, src: &[u8]) -> Vec<u8> {
        dst.chunks_exact(2)
            .zip(src.chunks_exact(2))
            .flat_map(|(d, s)| {
                let p = Gf65536::mul_raw(c, u16::from_le_bytes([s[0], s[1]]));
                (p ^ u16::from_le_bytes([d[0], d[1]])).to_le_bytes()
            })
            .collect()
    }

    fn words16(len: usize, mul: usize, add: usize) -> Vec<u8> {
        (0..len / 2)
            .flat_map(|i| ((i * mul + add) as u16).to_le_bytes())
            .collect()
    }

    const TEST_CS16: [u16; 8] = [0, 1, 2, 3, 0x100B, 0x8000, 0xABCD, 0xFFFF];

    #[test]
    fn every_backend_handles_all_even_lengths16() {
        // Even lengths straddling every 16-bit kernel's step width (2, 32,
        // 32, 64 bytes) and the SMALL_SLICE_LEN16 threshold.
        let lens = [0usize, 2, 6, 14, 30, 32, 34, 62, 64, 66, 126, 128, 254, 2048];
        for backend in available_backends() {
            for &len in &lens {
                let src = words16(len, 0x1357, 0x0101);
                let dst0 = words16(len, 0x4243, 0x00FF);
                for c in TEST_CS16 {
                    let mut dst = dst0.clone();
                    mul_add_assign16_with(backend, &mut dst, c, &src);
                    assert_eq!(
                        dst,
                        oracle_mul_add16(&dst0, c, &src),
                        "mul_add16 backend={} len={len} c={c:#x}",
                        backend.name()
                    );

                    let mut d2 = dst0.clone();
                    mul_assign16_with(backend, &mut d2, c);
                    let want: Vec<u8> = dst0
                        .chunks_exact(2)
                        .flat_map(|d| {
                            Gf65536::mul_raw(c, u16::from_le_bytes([d[0], d[1]])).to_le_bytes()
                        })
                        .collect();
                    assert_eq!(d2, want, "mul16 backend={} len={len} c={c:#x}", backend.name());

                    let mut out = vec![0xA5u8; len];
                    delta_into16_with(backend, &mut out, c, &dst0, &src);
                    let want: Vec<u8> = dst0
                        .chunks_exact(2)
                        .zip(src.chunks_exact(2))
                        .flat_map(|(x, y)| {
                            let s = u16::from_le_bytes([x[0], x[1]])
                                ^ u16::from_le_bytes([y[0], y[1]]);
                            Gf65536::mul_raw(c, s).to_le_bytes()
                        })
                        .collect();
                    assert_eq!(
                        out,
                        want,
                        "delta16 backend={} len={len} c={c:#x}",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn mul_add_multi16_matches_row_by_row() {
        let len = 20_002; // several tiles plus a ragged (even) tail
        let src = words16(len, 13, 7);
        // More rows than ROW_BATCH16 so the batch loop runs twice.
        let cs = [0u16, 1, 0x53AB, 0xCAFE, 2, 0x8000, 0xFFFF, 3, 0x1234, 0x100B];
        for backend in available_backends() {
            let mut rows: Vec<Vec<u8>> = (0..cs.len()).map(|j| words16(len, 3, j)).collect();
            let want: Vec<Vec<u8>> = rows
                .iter()
                .zip(&cs)
                .map(|(row, &c)| oracle_mul_add16(row, c, &src))
                .collect();
            let mut views: Vec<&mut [u8]> = rows.iter_mut().map(|r| r.as_mut_slice()).collect();
            mul_add_multi16_with(backend, &mut views, &cs, &src);
            assert_eq!(rows, want, "backend={}", backend.name());
        }
    }

    #[test]
    #[should_panic(expected = "even-length")]
    fn mul_add_assign16_rejects_odd_length() {
        let mut dst = vec![0u8; 7];
        mul_add_assign16(&mut dst, 0xABCD, &[0u8; 7]);
    }

    #[test]
    #[should_panic(expected = "even-length")]
    fn mul_assign16_rejects_odd_length() {
        let mut dst = vec![0u8; 3];
        mul_assign16(&mut dst, 0xABCD);
    }

    #[test]
    #[should_panic(expected = "even-length")]
    fn mul_add_multi16_rejects_odd_length() {
        let mut row = vec![0u8; 5];
        let mut views: Vec<&mut [u8]> = vec![row.as_mut_slice()];
        mul_add_multi16(&mut views, &[0xABCD], &[0u8; 5]);
    }

    // ---- CRC-32C ----

    #[test]
    fn crc32c_known_answers_on_every_tier() {
        // The check value of the CRC catalogue, then RFC 3720 B.4.
        let vectors: [(&[u8], u32); 4] = [
            (b"", 0),
            (b"123456789", 0xE306_9283),
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
        ];
        for (data, want) in vectors {
            assert_eq!(textbook::crc32c(data), want, "oracle on {data:?}");
            assert_eq!(crc32c(data), want, "dispatch on {data:?}");
            for tier in available_crc32c_tiers() {
                assert_eq!(crc32c_with(tier, data), want, "{} on {data:?}", tier.name());
            }
        }
    }

    #[test]
    fn active_crc32c_tier_follows_the_gf_backend() {
        let tier = active_crc32c_tier();
        assert!(available_crc32c_tiers().contains(&tier));
        if matches!(active_backend(), Backend::Scalar | Backend::Swar) {
            assert_eq!(tier, Crc32cTier::Portable);
        } else {
            assert_eq!(Some(&tier), available_crc32c_tiers().last());
        }
    }

    proptest! {
        /// Every tier equals the bit-at-a-time definition at every length
        /// up to 1 KiB and all eight start alignments (the 8-byte step of
        /// both tiers makes alignment and tail length the edge cases).
        #[test]
        fn prop_crc32c_tiers_agree_with_bitwise_reference(
            len in 0usize..=1024,
            seed in any::<u64>(),
        ) {
            let buf: Vec<u8> = (0..len + 8)
                .map(|i| (seed >> (i % 57)) as u8 ^ (i as u8).wrapping_mul(31))
                .collect();
            for align in 0..8 {
                let data = &buf[align..align + len];
                let want = textbook::crc32c(data);
                for tier in available_crc32c_tiers() {
                    prop_assert_eq!(
                        crc32c_with(tier, data), want,
                        "tier={} len={} align={}", tier.name(), len, align
                    );
                }
            }
        }

        #[test]
        fn prop_all_backends_agree_with_textbook(
            c in any::<u8>(),
            data in proptest::collection::vec(any::<u8>(), 0..300),
            seed in any::<u8>(),
        ) {
            let src: Vec<u8> = data.iter().map(|&x| x.wrapping_add(seed)).collect();
            let want = oracle_mul_add(&data, c, &src);
            for backend in available_backends() {
                let mut dst = data.clone();
                mul_add_assign_with(backend, &mut dst, c, &src);
                prop_assert_eq!(&dst, &want, "backend={}", backend.name());
            }
        }

        #[test]
        fn prop_all_backends_agree_with_gf65536_tables(
            c in any::<u16>(),
            words in proptest::collection::vec(any::<u16>(), 0..200),
            seed in any::<u16>(),
        ) {
            let data: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let src: Vec<u8> = words
                .iter()
                .flat_map(|w| w.wrapping_add(seed).to_le_bytes())
                .collect();
            let want = oracle_mul_add16(&data, c, &src);
            for backend in available_backends() {
                let mut dst = data.clone();
                mul_add_assign16_with(backend, &mut dst, c, &src);
                prop_assert_eq!(&dst, &want, "backend={}", backend.name());
            }
        }
    }
}
