//! Per-backend GF(2⁸) **and GF(2¹⁶)** kernel throughput, machine-readable.
//!
//! Measures `mul_add_assign` (byte field) and `mul_add_assign16` (wide
//! field) MB/s for every kernel tier this CPU supports, each against its
//! pre-engine baseline — the seed's table-per-call scalar kernel for
//! GF(2⁸), a word-at-a-time log/exp multiply loop for GF(2¹⁶) — and prints
//! a JSON document on stdout. `tools/kernel_matrix.sh` redirects it to
//! `BENCH_kernels.json` at the repo root.
//!
//! The binary **asserts the wide-kernel acceptance floor in-process**: on
//! AVX2-capable hosts the AVX2 GF(2¹⁶) tier must run ≥ 4× the scalar
//! split-table tier at 4 KiB blocks, else it exits nonzero.
//! `tools/check.sh` re-asserts the same floor from the emitted artifact.
//!
//! A `crc32c` section reports the checksum kernel the WAL frames its
//! records with: GB/s per tier at 4 KiB and 64 KiB against the byte-at-a-
//! time table loop the journal used before, with its own floor — the
//! SSE4.2 tier must run ≥ 3× the portable slicing-by-8 tier at 4 KiB.
//!
//! A `combine` section times the weighted sum behind encode and decode on
//! every tier: µs per 12-of-16 × 64 KiB stripe for the encode (4 dense
//! rows over 12 sources) and the decode with 4 data blocks lost (8 unit
//! rows, 4 dense ones), output-major ([`kernel::combine_with`]) against the
//! source-major loop it replaced (zero-fill, then `mul_add_multi_with` per
//! source). Its floor: on the `avx2` and `gfni` tiers the output-major
//! encode must run ≥ 1.25× the source-major one.
//!
//! Flags:
//!
//! * `--list` — print the supported backend names, one per line, and exit
//!   (used by the shell script to drive the `GF_BACKEND` test matrix).
//! * `--list-crc32c` — the same for the checksum tiers.

#![expect(clippy::disallowed_methods, reason = "experiments time real work")]

use ajx_gf::{kernel, Gf256, Gf65536};
use std::sync::LazyLock;
use std::time::Instant;

/// Block sizes reported: the protocol's 1 KB block, the 4 KiB acceptance
/// floor, and a streaming 64 KiB block.
const SIZES: [usize; 3] = [1024, 4 * 1024, 64 * 1024];

/// The acceptance floor: AVX2 `mul_add_assign16` vs the scalar split-table
/// tier at this block size must be at least this ratio.
const FLOOR_BLOCK: usize = 4 * 1024;
const FLOOR_RATIO: f64 = 4.0;

/// The seed's kernel: rebuild the 256-entry product table on every call.
fn seed_mul_add_assign(dst: &mut [u8], c: u8, src: &[u8]) {
    let mut table = [0u8; 256];
    Gf256::build_mul_table(c, &mut table);
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= table[s as usize];
    }
}

/// The pre-engine wide-code kernel: one log/exp multiply per u16 word,
/// exactly what `WideReedSolomon` paid before the tiered `*16` family.
fn word_at_a_time_mul_add16(dst: &mut [u8], c: u16, src: &[u8]) {
    for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
        let p = Gf65536::mul_raw(c, u16::from_le_bytes([s[0], s[1]]));
        d.copy_from_slice(&(p ^ u16::from_le_bytes([d[0], d[1]])).to_le_bytes());
    }
}

/// Block sizes of the `crc32c` section: a journaled 4 KiB block and one
/// member of a batched 64 KiB write.
const CRC_SIZES: [usize; 2] = [4 * 1024, 64 * 1024];

/// The checksum floor: SSE4.2 vs the portable tier at [`FLOOR_BLOCK`].
const CRC_FLOOR_RATIO: f64 = 3.0;

/// The `combine` section's shape: RS 12-of-16 at 64 KiB, cycling over
/// enough stripes (12 MiB of data) to leave the private caches.
const COMBINE_K: usize = 12;
const COMBINE_P: usize = 4;
const COMBINE_BLOCK: usize = 64 * 1024;
const COMBINE_STRIPES: usize = 16;
/// Data blocks the decode shape has lost.
const COMBINE_LOST: [usize; 4] = [0, 3, 5, 9];

/// The combine floor: output-major encode vs source-major on the 256-bit
/// tiers.
const COMBINE_FLOOR_RATIO: f64 = 1.25;

/// The loop `combine` replaced: zero-fill every output, then stream each
/// source through all of them.
fn source_major(backend: kernel::Backend, out: &mut [&mut [u8]], rows: &[Vec<u8>], srcs: &[Vec<u8>]) {
    for o in out.iter_mut() {
        o.fill(0);
    }
    let mut col = [0u8; COMBINE_K];
    for (s, src) in srcs.iter().enumerate() {
        for (c, row) in col.iter_mut().zip(rows) {
            *c = row[s];
        }
        kernel::mul_add_multi_with(backend, out, &col[..rows.len()], src);
    }
}

/// Best µs per stripe of `combine_with` and of [`source_major`] on `rows`,
/// over seven sweeps of `stripes` each, the two forms taking turns so that
/// a slow second of the host falls on both.
fn us_per_stripe(backend: kernel::Backend, stripes: &[Vec<Vec<u8>>], rows: &[Vec<u8>]) -> (f64, f64) {
    let mut out = vec![vec![0u8; COMBINE_BLOCK]; rows.len()];
    let mut views: Vec<&mut [u8]> = out.iter_mut().map(Vec::as_mut_slice).collect();
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        let start = Instant::now();
        for srcs in stripes {
            kernel::combine_with(backend, &mut views, rows, srcs);
        }
        best.0 = best.0.min(start.elapsed().as_secs_f64() * 1e6 / stripes.len() as f64);
        let start = Instant::now();
        for srcs in stripes {
            source_major(backend, &mut views, rows, srcs);
        }
        best.1 = best.1.min(start.elapsed().as_secs_f64() * 1e6 / stripes.len() as f64);
    }
    best
}

/// The `"combine"` object of the artifact; asserts the combine floor.
fn combine_section() -> String {
    let stripes: Vec<Vec<Vec<u8>>> = (0..COMBINE_STRIPES)
        .map(|t| (0..COMBINE_K).map(|s| fill(COMBINE_BLOCK, (t * COMBINE_K + s) as u8)).collect())
        .collect();
    let weight = |r: usize, s: usize| ((r * 53 + s * 19) % 254 + 2) as u8;
    let encode: Vec<Vec<u8>> = (0..COMBINE_P)
        .map(|r| (0..COMBINE_K).map(|s| weight(r, s)).collect())
        .collect();
    // Survivors first, as a decode plan orders them: each kept data block
    // is a unit row, each lost one a dense row over all twelve shares.
    let kept: Vec<usize> = (0..COMBINE_K).filter(|i| !COMBINE_LOST.contains(i)).collect();
    let decode: Vec<Vec<u8>> = (0..COMBINE_K)
        .map(|r| match kept.iter().position(|&i| i == r) {
            Some(s) => (0..COMBINE_K).map(|t| u8::from(t == s)).collect(),
            None => (0..COMBINE_K).map(|s| weight(r + COMBINE_P, s)).collect(),
        })
        .collect();
    let mut entries = Vec::new();
    let mut floors = Vec::new();
    for backend in kernel::available_backends() {
        let (enc, enc_old) = us_per_stripe(backend, &stripes, &encode);
        let (dec, dec_old) = us_per_stripe(backend, &stripes, &decode);
        if matches!(backend.name(), "avx2" | "gfni") {
            floors.push((backend.name(), enc_old / enc));
        }
        entries.push(format!(
            "      {{\"name\":\"{}\",\"encode_us\":{enc:.1},\"encode_source_major_us\":{enc_old:.1},\
             \"decode_us\":{dec:.1},\"decode_source_major_us\":{dec_old:.1}}}",
            backend.name()
        ));
    }
    let floor_json = if floors.is_empty() {
        "    \"combine_floor_skipped\": \"no avx2 on this host\",".to_string()
    } else {
        let pass = floors.iter().all(|&(_, ratio)| ratio >= COMBINE_FLOOR_RATIO);
        assert!(
            pass,
            "combine floor violated: output-major encode over source-major is {floors:?} \
             (need >= {COMBINE_FLOOR_RATIO}x on avx2 and gfni)"
        );
        let measured: Vec<String> = floors
            .iter()
            .map(|(name, ratio)| format!("\"{name}\":{ratio:.2}"))
            .collect();
        format!(
            "    \"combine_floor\": {{\"required_vs_source_major\":{COMBINE_FLOOR_RATIO:.2},\
             \"measured\":{{{}}},\"combine_floor_pass\":{pass}}},",
            measured.join(",")
        )
    };
    format!(
        "  \"combine\": {{\n    \"shape\": \"RS {COMBINE_K}-of-{} x {} KiB, decode with {} data blocks lost, {COMBINE_STRIPES} stripes\",\n{floor_json}\n    \"backends\": [\n{}\n    ]\n  }},",
        COMBINE_K + COMBINE_P,
        COMBINE_BLOCK / 1024,
        COMBINE_LOST.len(),
        entries.join(",\n")
    )
}

/// The journal's checksum loop before the kernel existed: one dependent
/// table load per byte.
fn bytewise_crc32c(data: &[u8]) -> u32 {
    static TABLE: LazyLock<[u32; 256]> = LazyLock::new(|| {
        std::array::from_fn(|i| (0..8).fold(i as u32, |c, _| (c >> 1) ^ (0x82F6_3B78 * (c & 1))))
    });
    let table = &*TABLE;
    !data.iter().fold(!0u32, |c, &b| (c >> 8) ^ table[((c ^ b as u32) & 0xFF) as usize])
}

/// The `"crc32c"` object of the artifact; asserts the SSE4.2 floor.
fn crc32c_section() -> String {
    let gb_per_s = |len: usize, crc: &dyn Fn(&[u8]) -> u32| {
        let data = fill(len, 3);
        mb_per_s(len, || {
            std::hint::black_box(crc(std::hint::black_box(&data)));
        }) / 1e3
    };
    let mut sizes = Vec::new();
    let mut at_floor = Vec::new();
    for len in CRC_SIZES {
        let base = gb_per_s(len, &bytewise_crc32c);
        assert_eq!(bytewise_crc32c(&fill(len, 3)), kernel::crc32c(&fill(len, 3)));
        let mut tiers = Vec::new();
        for tier in kernel::available_crc32c_tiers() {
            let rate = gb_per_s(len, &|d| kernel::crc32c_with(tier, d));
            if len == FLOOR_BLOCK {
                at_floor.push(rate);
            }
            tiers.push(format!(
                "{{\"name\":\"{}\",\"gb_s\":{rate:.2},\"speedup_vs_bytewise\":{:.2}}}",
                tier.name(),
                rate / base
            ));
        }
        sizes.push(format!(
            "      {{\"block_bytes\":{len},\"bytewise_gb_s\":{base:.2},\"tiers\":[{}]}}",
            tiers.join(",")
        ));
    }
    // `available_crc32c_tiers` lists the portable tier first and the
    // SSE4.2 tier, where the CPU has it, second.
    let floor_json = match at_floor[..] {
        [portable, sse42] => {
            let ratio = sse42 / portable;
            let pass = ratio >= CRC_FLOOR_RATIO;
            assert!(
                pass,
                "checksum floor violated: SSE4.2 crc32c is only {ratio:.2}x the portable \
                 slicing-by-8 tier at {FLOOR_BLOCK} B (need >= {CRC_FLOOR_RATIO}x)"
            );
            format!(
                "    \"sse42_floor_at_{FLOOR_BLOCK}\": {{\"required_vs_portable\":{CRC_FLOOR_RATIO:.1},\
                 \"measured\":{ratio:.2},\"sse42_floor_pass\":{pass}}},"
            )
        }
        _ => "    \"sse42_floor_skipped\": \"no sse4.2 on this host\",".to_string(),
    };
    format!(
        "  \"crc32c\": {{\n    \"active_tier\": \"{}\",\n{floor_json}\n    \"sizes\": [\n{}\n    ]\n  }},",
        kernel::active_crc32c_tier().name(),
        sizes.join(",\n")
    )
}

/// Mean MB/s (decimal megabytes) of `op` over enough iterations to run
/// ~50 ms, after a short warm-up.
fn mb_per_s<F: FnMut()>(len: usize, mut op: F) -> f64 {
    let mut iters = 16usize;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        let secs = start.elapsed().as_secs_f64();
        if secs >= 0.05 || iters >= 1 << 22 {
            return (iters * len) as f64 / secs / 1e6;
        }
        iters *= 4;
    }
}

fn fill(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
}

/// One `"sizes"` array: per block size, the baseline rate plus every
/// backend's rate and speedup, with a caller-supplied measurement hook.
fn size_entries(
    baseline_field: &str,
    mut baseline: impl FnMut(usize) -> f64,
    mut tier: impl FnMut(kernel::Backend, usize) -> f64,
) -> (String, Vec<(kernel::Backend, f64)>) {
    let mut entries = Vec::new();
    let mut at_floor = Vec::new();
    for len in SIZES {
        let base_rate = baseline(len);
        let mut backends = Vec::new();
        for backend in kernel::available_backends() {
            let rate = tier(backend, len);
            if len == FLOOR_BLOCK {
                at_floor.push((backend, rate));
            }
            backends.push(format!(
                "{{\"name\":\"{}\",\"mb_s\":{:.1},\"speedup_vs_baseline\":{:.2}}}",
                backend.name(),
                rate,
                rate / base_rate
            ));
        }
        entries.push(format!(
            "      {{\"block_bytes\":{len},\"{baseline_field}\":{base_rate:.1},\"backends\":[{}]}}",
            backends.join(",")
        ));
    }
    (entries.join(",\n"), at_floor)
}

fn main() {
    if std::env::args().any(|a| a == "--list") {
        for backend in kernel::available_backends() {
            println!("{}", backend.name());
        }
        return;
    }
    if std::env::args().any(|a| a == "--list-crc32c") {
        for tier in kernel::available_crc32c_tiers() {
            println!("{}", tier.name());
        }
        return;
    }

    let (gf256_sizes, _) = size_entries(
        "seed_table_per_call_mb_s",
        |len| {
            let src = fill(len, 1);
            let mut dst = fill(len, 2);
            mb_per_s(len, || {
                seed_mul_add_assign(std::hint::black_box(&mut dst), 0x57, &src)
            })
        },
        |backend, len| {
            let src = fill(len, 1);
            let mut dst = fill(len, 2);
            mb_per_s(len, || {
                kernel::mul_add_assign_with(backend, std::hint::black_box(&mut dst), 0x57, &src)
            })
        },
    );

    let (gf65536_sizes, wide_at_floor) = size_entries(
        "word_at_a_time_mb_s",
        |len| {
            let src = fill(len, 1);
            let mut dst = fill(len, 2);
            mb_per_s(len, || {
                word_at_a_time_mul_add16(std::hint::black_box(&mut dst), 0xA57B, &src)
            })
        },
        |backend, len| {
            let src = fill(len, 1);
            let mut dst = fill(len, 2);
            mb_per_s(len, || {
                kernel::mul_add_assign16_with(backend, std::hint::black_box(&mut dst), 0xA57B, &src)
            })
        },
    );

    // Acceptance floor (in-binary half): AVX2 16-bit tier >= 4x the scalar
    // split-table tier at 4 KiB, asserted only where AVX2 exists.
    let scalar_floor = wide_at_floor
        .iter()
        .find(|(b, _)| *b == kernel::Backend::Scalar)
        .map(|&(_, r)| r)
        .expect("scalar tier always present");
    let avx2_floor = wide_at_floor
        .iter()
        .find(|(b, _)| b.name() == "avx2")
        .map(|&(_, r)| r);
    let floor_json = match avx2_floor {
        Some(avx2) => {
            let ratio = avx2 / scalar_floor;
            let pass = ratio >= FLOOR_RATIO;
            let json = format!(
                "    \"avx2_floor_at_{FLOOR_BLOCK}\": {{\"required_vs_scalar_table\":{FLOOR_RATIO:.1},\
                 \"measured\":{ratio:.2},\"avx2_floor_pass\":{pass}}},"
            );
            assert!(
                pass,
                "acceptance floor violated: AVX2 mul_add_assign16 is only {ratio:.2}x the \
                 scalar split-table tier at {FLOOR_BLOCK} B (need >= {FLOOR_RATIO}x)"
            );
            json
        }
        None => "    \"avx2_floor_skipped\": \"no avx2 on this host\",".to_string(),
    };

    println!("{{");
    println!("  \"active_backend\": \"{}\",", kernel::active_backend().name());
    println!("{}", crc32c_section());
    println!("{}", combine_section());
    println!("  \"kernels\": [");
    println!("    {{");
    println!("    \"kernel\": \"gf256_mul_add_assign\",");
    println!("    \"sizes\": [");
    println!("{gf256_sizes}");
    println!("    ]");
    println!("    }},");
    println!("    {{");
    println!("    \"kernel\": \"gf65536_mul_add_assign16\",");
    println!("{floor_json}");
    println!("    \"sizes\": [");
    println!("{gf65536_sizes}");
    println!("    ]");
    println!("    }}");
    println!("  ]");
    println!("}}");
}
