#!/usr/bin/env bash
# Kernel backend matrix: run the gf + erasure test suites once per kernel
# tier this CPU supports (selected via the GF_BACKEND override, covering
# both the GF(2^8) and GF(2^16) kernel families, and the CRC-32C checksum
# whose tier follows the same override), smoke the byte- and wide-field
# criterion benches, and write per-backend throughput numbers for both
# fields and the checksum to BENCH_kernels.json at the repo root. The
# kernel_matrix binary asserts the GF(2^16) acceptance floor (AVX2 >= 4x
# the scalar split-table tier at 4 KiB), the CRC-32C one (SSE4.2 >= 3x
# the portable tier at 4 KiB) and the weighted sum's (output-major encode
# >= 1.25x the source-major loop on the avx2 and gfni tiers) while
# producing the artifact; tools/check.sh re-asserts all three from the
# committed JSON.
#
# Usage: tools/kernel_matrix.sh [--quick]
#   --quick   cap property-test cases and bench iterations for a fast pass
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
    QUICK=1
fi
if [[ "$QUICK" == 1 ]]; then
    export PROPTEST_CASES="${PROPTEST_CASES:-16}"
    export CRITERION_ITERS="${CRITERION_ITERS:-20}"
fi

echo "== building =="
cargo build --release -q -p ajx-bench --bins

backends=$(./target/release/kernel_matrix --list)
echo "== supported kernel backends: $(echo "$backends" | tr '\n' ' ')=="

for b in $backends; do
    echo "== GF_BACKEND=$b: gf + erasure test suites =="
    GF_BACKEND="$b" cargo test -q -p ajx-gf -p ajx-erasure
done

echo "== GF_BACKEND matrix over the cross-crate kernel tests =="
for b in $backends; do
    GF_BACKEND="$b" cargo test -q -p repro-tests --test kernel_backends
done

echo "== criterion smoke: ec_kernels (gf256 + gf65536) =="
CRITERION_ITERS="${CRITERION_ITERS:-50}" \
    cargo bench -p ajx-bench --bench ec_kernels -- gf256_mul_add
CRITERION_ITERS="${CRITERION_ITERS:-50}" \
    cargo bench -p ajx-bench --bench ec_kernels -- gf65536_mul_add

echo "== writing BENCH_kernels.json =="
./target/release/kernel_matrix > BENCH_kernels.json
cat BENCH_kernels.json
