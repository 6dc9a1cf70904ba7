#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to the
# binary (`--workload NAME --seed N --seconds S --trace 0|1`, see README.md).
# Only the first call in a checkout builds; later calls find nothing to do.
# Build output goes to standard error, so the last line of standard output
# is the run's JSON result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ajx-benchmark" "$@"
