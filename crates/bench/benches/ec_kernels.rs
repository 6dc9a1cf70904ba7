//! Criterion microbenchmarks of the erasure-code kernels.
//!
//! Backs two claims from §6.1: the optimized field arithmetic runs
//! "10-20 times faster than textbook implementations", and Delta/Add stay
//! cheap ("approximately constant") even as k grows while full
//! encode/decode scale with k.

use ajx_erasure::ReedSolomon;
use ajx_gf::{kernel, slice, textbook, Gf256, Gf65536};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const BLOCK: usize = 1024;

fn block(seed: u8) -> Vec<u8> {
    (0..BLOCK).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
}

fn block_of(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
}

/// The seed's kernel: build the 256-entry product table for `c` on every
/// call, then apply it byte by byte. Kept as the bench baseline so the gain
/// from compile-time tables + wide kernels is measured, not assumed.
fn seed_mul_add_assign(dst: &mut [u8], c: u8, src: &[u8]) {
    let mut table = [0u8; 256];
    Gf256::build_mul_table(c, &mut table);
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= table[s as usize];
    }
}

fn bench_backend_tiers(c: &mut Criterion) {
    // The tentpole claim: per-backend mul_add_assign throughput on blocks
    // large enough to stream (>= 4 KiB), against the seed's
    // table-per-call scalar kernel.
    for len in [4 * 1024usize, 64 * 1024] {
        let mut group = c.benchmark_group(format!("gf256_mul_add_{}KB_backends", len / 1024));
        group.throughput(Throughput::Bytes(len as u64));
        let src = block_of(len, 1);
        let mut dst = block_of(len, 2);
        group.bench_function("seed_table_per_call", |b| {
            b.iter(|| seed_mul_add_assign(black_box(&mut dst), black_box(0x57), black_box(&src)));
        });
        for backend in kernel::available_backends() {
            group.bench_function(backend.name(), |b| {
                b.iter(|| {
                    kernel::mul_add_assign_with(
                        backend,
                        black_box(&mut dst),
                        black_box(0x57),
                        black_box(&src),
                    )
                });
            });
        }
        group.bench_function(format!("dispatch({})", kernel::active_backend().name()), |b| {
            b.iter(|| slice::mul_add_assign(black_box(&mut dst), black_box(0x57), black_box(&src)));
        });
        group.finish();
    }
}

/// The pre-engine wide-code kernel: one log/exp multiply per u16 word —
/// what `WideReedSolomon` paid before the tiered `*16` family. Kept as the
/// GF(2¹⁶) bench baseline.
fn word_at_a_time_mul_add16(dst: &mut [u8], c: u16, src: &[u8]) {
    for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
        let p = Gf65536::mul_raw(c, u16::from_le_bytes([s[0], s[1]]));
        d.copy_from_slice(&(p ^ u16::from_le_bytes([d[0], d[1]])).to_le_bytes());
    }
}

fn bench_backend_tiers16(c: &mut Criterion) {
    // The GF(2^16) half of the tentpole claim: per-backend
    // mul_add_assign16 throughput at the 4 KiB acceptance block and a
    // streaming block, against the word-at-a-time log/exp baseline. This
    // group feeds the `gf65536_mul_add_assign16` section of
    // BENCH_kernels.json (written by the kernel_matrix binary).
    for len in [4 * 1024usize, 64 * 1024] {
        let mut group = c.benchmark_group(format!("gf65536_mul_add_{}KB_backends", len / 1024));
        group.throughput(Throughput::Bytes(len as u64));
        let src = block_of(len, 1);
        let mut dst = block_of(len, 2);
        group.bench_function("word_at_a_time", |b| {
            b.iter(|| {
                word_at_a_time_mul_add16(black_box(&mut dst), black_box(0xA57B), black_box(&src))
            });
        });
        for backend in kernel::available_backends() {
            group.bench_function(backend.name(), |b| {
                b.iter(|| {
                    kernel::mul_add_assign16_with(
                        backend,
                        black_box(&mut dst),
                        black_box(0xA57B),
                        black_box(&src),
                    )
                });
            });
        }
        group.bench_function(format!("dispatch({})", kernel::active_backend().name()), |b| {
            b.iter(|| {
                kernel::mul_add_assign16(black_box(&mut dst), black_box(0xA57B), black_box(&src))
            });
        });
        group.finish();
    }
}

fn bench_fused_multi16(c: &mut Criterion) {
    // Wide-code encode inner loop: stream one 64 KiB data block through p
    // redundant rows with one split-table build per row, vs p separate
    // mul_add_assign16 calls (p table builds and p source re-reads).
    let len = 64 * 1024;
    let p = 4;
    let mut group = c.benchmark_group("gf65536_mul_add_multi_64KB_p4");
    group.throughput(Throughput::Bytes((len * p) as u64));
    let src = block_of(len, 1);
    let cs: Vec<u16> = (0..p as u16).map(|j| 0x53AB ^ j).collect();
    let mut rows: Vec<Vec<u8>> = (0..p).map(|j| block_of(len, j as u8)).collect();
    group.bench_function("fused_multi_row", |b| {
        b.iter(|| {
            let mut dsts: Vec<&mut [u8]> = rows.iter_mut().map(|r| r.as_mut_slice()).collect();
            kernel::mul_add_multi16(black_box(&mut dsts), black_box(&cs), black_box(&src));
        });
    });
    group.bench_function("row_by_row", |b| {
        b.iter(|| {
            for (row, &cc) in rows.iter_mut().zip(&cs) {
                kernel::mul_add_assign16(black_box(row), black_box(cc), black_box(&src));
            }
        });
    });
    group.finish();
}

fn bench_fused_multi(c: &mut Criterion) {
    // Fused encode inner loop: stream one 64 KiB data block through p
    // redundant rows at once vs p separate passes.
    let len = 64 * 1024;
    let p = 4;
    let mut group = c.benchmark_group("gf256_mul_add_multi_64KB_p4");
    group.throughput(Throughput::Bytes((len * p) as u64));
    let src = block_of(len, 1);
    let cs: Vec<u8> = (0..p as u8).map(|j| 0x53 ^ j).collect();
    let mut rows: Vec<Vec<u8>> = (0..p).map(|j| block_of(len, j as u8)).collect();
    group.bench_function("fused_multi_row", |b| {
        b.iter(|| {
            let mut dsts: Vec<&mut [u8]> = rows.iter_mut().map(|r| r.as_mut_slice()).collect();
            kernel::mul_add_multi(black_box(&mut dsts), black_box(&cs), black_box(&src));
        });
    });
    group.bench_function("row_by_row", |b| {
        b.iter(|| {
            for (row, &cc) in rows.iter_mut().zip(&cs) {
                kernel::mul_add_assign(black_box(row), black_box(cc), black_box(&src));
            }
        });
    });
    group.finish();
}

fn bench_mul_add_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf256_mul_add_1KB");
    group.throughput(Throughput::Bytes(BLOCK as u64));
    let src = block(1);
    let mut dst = block(2);
    group.bench_function("optimized_table", |b| {
        b.iter(|| slice::mul_add_assign(black_box(&mut dst), black_box(0x57), black_box(&src)));
    });
    group.bench_function("textbook_shift_add", |b| {
        b.iter(|| textbook::mul_add_assign(black_box(&mut dst), black_box(0x57), black_box(&src)));
    });
    group.bench_function("xor_add_only", |b| {
        b.iter(|| slice::add_assign(black_box(&mut dst), black_box(&src)));
    });
    group.finish();
}

fn bench_delta_vs_k(c: &mut Criterion) {
    // The common-case write computation must not grow with k.
    let mut group = c.benchmark_group("delta_1KB_vs_k");
    for k in [2usize, 4, 8, 16] {
        let rs = ReedSolomon::new(k, k + 2).unwrap();
        let old = block(3);
        let new = block(4);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(rs.delta(0, 0, black_box(&new), black_box(&old)).unwrap()));
        });
    }
    group.finish();
}

fn bench_encode_vs_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_encode_1KB_vs_k");
    for k in [2usize, 4, 8, 16] {
        let rs = ReedSolomon::new(k, k + 2).unwrap();
        let data: Vec<Vec<u8>> = (0..k).map(|i| block(i as u8)).collect();
        group.throughput(Throughput::Bytes((k * BLOCK) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(rs.encode(black_box(&data)).unwrap()));
        });
    }
    group.finish();
}

fn bench_decode_vs_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_decode_1KB_vs_k");
    for k in [2usize, 4, 8, 16] {
        let rs = ReedSolomon::new(k, k + 2).unwrap();
        let data: Vec<Vec<u8>> = (0..k).map(|i| block(i as u8)).collect();
        let stripe = rs.encode_stripe(&data).unwrap();
        // Worst case: both data losses, decode from a mixed share set.
        let shares: Vec<(usize, &[u8])> = (2..k + 2).map(|i| (i, &stripe[i][..])).collect();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(rs.decode(black_box(&shares)).unwrap()));
        });
    }
    group.finish();
}

fn bench_wide_field(c: &mut Criterion) {
    // GF(2^16) extension: what the wider field costs per block.
    use ajx_erasure::WideReedSolomon;
    let mut group = c.benchmark_group("wide_field_1KB");
    group.throughput(Throughput::Bytes(BLOCK as u64));
    let rs8 = ReedSolomon::new(8, 10).unwrap();
    let rs16 = WideReedSolomon::new(8, 10).unwrap();
    let old = block(5);
    let new = block(6);
    group.bench_function("delta_gf256", |b| {
        b.iter(|| black_box(rs8.delta(0, 0, black_box(&new), black_box(&old)).unwrap()));
    });
    group.bench_function("delta_gf65536", |b| {
        b.iter(|| black_box(rs16.delta(0, 0, black_box(&new), black_box(&old)).unwrap()));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mul_add_kernels,
    bench_backend_tiers,
    bench_backend_tiers16,
    bench_fused_multi,
    bench_fused_multi16,
    bench_delta_vs_k,
    bench_encode_vs_k,
    bench_decode_vs_k,
    bench_wide_field
);
criterion_main!(benches);
