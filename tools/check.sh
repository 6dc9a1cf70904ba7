#!/usr/bin/env bash
# Repo check entry point: line-count inventory (tools/loc.sh), release
# build, lint gate (clippy, the crate-root policy grep, the pinned
# exception count), a grep that keeps core's blocking rounds in core::rpc,
# full workspace test
# suite, the §5.2 simulators' tables diffed against experiments_output.txt,
# a seeded chaos smoke run, the seeded power-loss smoke (three
# seeds, both flush policies, byte-identical traces), the GF(2^8) +
# GF(2^16) kernel backend matrix (per-backend test runs +
# BENCH_kernels.json, re-asserting the wide-kernel AVX2 floor, the
# CRC-32C SSE4.2 floor and the output-major weighted-sum floor), the
# batched data-path throughput smoke, the degraded-read/rebuild smoke
# (asserts the >=4x rebuild speedup and zero-lock degraded reads
# internally; both smokes' width-8 message counts and the degraded reads'
# counts are pinned exactly),
# the many-client scale-out smoke (asserts 1k-client IOPS
# >= 5x the 8-client figure with zero failed ops), the durability
# smoke (asserts restart-with-disk beats wipe-and-rebuild), and the repo
# benchmark's contract (benchmark/ builds offline, all six of its workloads
# run correct with zero failed operations,
# a traced small_rw run shows garbage collection still batched per node and
# still collecting everything, and the node's media-write and metadata
# accounts where they were, and its blocking rounds served without a
# thread hop, a traced seq_large run shows a bulk write
# putting the same bytes and round trips on the wire, a traced
# degraded_rebuild run shows the widest fan-out's protocol counts unmoved,
# and a traced many_clients run shows the largest rounds shedding nothing
# and booking every message).
#
# Smoke artifacts land in BENCH_<name>.smoke.json — never in the
# committed full-run BENCH_<name>.json files, which only a full (no
# --smoke) bench run may produce. The guard below refuses any full-run
# artifact tagged "smoke": true unless AJX_ALLOW_SMOKE=1 is set
# explicitly, so a smoke run can no longer masquerade as real numbers.
#
# `--deep` additionally runs the unsafe-kernel and lock-layer tests
# under Miri / the sanitizers when the nightly toolchain provides them,
# and skips each gracefully when it doesn't (offline containers).
set -euo pipefail
cd "$(dirname "$0")/.."

DEEP=0
for arg in "$@"; do
  case "$arg" in
    --deep) DEEP=1 ;;
    *) echo "usage: tools/check.sh [--deep]"; exit 2 ;;
  esac
done

echo "== lines of code (tools/loc.sh; ROADMAP's gates read the non-test column) =="
sh tools/loc.sh

echo "== cargo build --workspace --release =="
cargo build --workspace --release

echo "== lint gate: cargo clippy --workspace --all-targets -D warnings =="
# The repo's static rules (DESIGN.md §11) are lint levels and types:
# `[workspace.lints]` in Cargo.toml, `clippy.toml`, and the
# `#![cfg_attr(not(test), deny(...))]` heads of the node's request and
# replay files. The grep below keeps the two parts clippy cannot see:
# every crate root pins its unsafe policy and inherits the workspace lints.
cargo clippy --workspace --all-targets -- -D warnings
for c in crates/*/; do
  grep -qE '^#!\[(forbid|deny)\(unsafe_code\)\]' "${c}src/lib.rs" \
    || { echo "FAIL: ${c}src/lib.rs pins no unsafe policy (#![forbid(unsafe_code)])" >&2; exit 1; }
  grep -qx 'workspace = true' "${c}Cargo.toml" \
    || { echo "FAIL: ${c}Cargo.toml does not inherit the workspace lints ([lints] workspace = true)" >&2; exit 1; }
done
# Every lint exception is an `#[expect(lint, reason = ...)]`, which rustc
# reports once it no longer fires. Their number is pinned, so one that
# comes or goes is a one-line diff here: 7 on the node's panic-free paths,
# 14 files that read the clock by design.
expects=$(grep -rhE '#!?\[expect\(' crates/*/src --include=*.rs | wc -l)
[ "$expects" -eq 21 ] \
  || { echo "FAIL: $expects #[expect] lint exceptions under crates/*/src, pinned at 21" >&2; exit 1; }
echo "lint gate holds (21 lint exceptions)"

echo "== blocking rounds only through core::rpc =="
# Which members share a message, in what order, and what a failed message
# does to them is decided in one place: `core::rpc` (`call`, `pfor`,
# `multicast`). No other file of crates/core/src may call the transport's
# blocking round itself, and the mux, which runs its fleet as windows of
# the client's READ/WRITE engine, builds and sends no message of its own:
# `mux.rs` names no completion-queue call, request, reply or
# `BlockWrite`. In-file test modules are not scanned.
direct=$(for f in crates/core/src/*.rs; do
  [ "$(basename "$f")" = rpc.rs ] && continue
  awk -v f="$f" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
    /\.(call_many|broadcast|call)\(/ { print f ":" FNR ": " $0 }' "$f"
done)
own=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
  /(^|[^A-Za-z_])(submit_call|poll_call|PendingCall|Request|Reply|BlockWrite)([^A-Za-z_]|$)/ {
    print "crates/core/src/mux.rs:" FNR ": " $0 }' \
  crates/core/src/mux.rs)
if [ -n "$direct" ]; then
  echo "$direct"
  echo "FAIL: a blocking transport round outside core::rpc" >&2
  exit 1
fi
if [ -n "$own" ]; then
  echo "$own"
  echo "FAIL: mux.rs sends messages of its own instead of engine windows" >&2
  exit 1
fi

echo "== cargo test --workspace =="
cargo test --workspace -q

echo "== the §5.2 simulators print their committed tables (fig10a-d, ext_baseline_throughput) =="
# Both simulators are deterministic, so each binary's stdout must equal its
# section of experiments_output.txt: the lines between its
# `################ <name> ################` banner and its `exit=` line.
# A change that moves the model on purpose regenerates the section and
# says which numbers moved and why.
sim_out=$(mktemp -d)
for b in fig10a_sim_write fig10b_sim_read fig10c_sim_max fig10d_sim_bcast ext_baseline_throughput; do
  awk -v h="################ $b ################" \
    '$0 == h { f = 1; next } f && /^exit=/ { exit } f' experiments_output.txt > "$sim_out/want"
  cargo run --release -q -p ajx-bench --bin "$b" > "$sim_out/got"
  diff "$sim_out/want" "$sim_out/got" \
    || { echo "FAIL: $b no longer prints its section of experiments_output.txt" >&2; exit 1; }
  echo "$b matches experiments_output.txt"
done
rm -r "$sim_out"

echo "== chaos smoke (seeded fault injection) =="
cargo test -p repro-tests --test chaos_soak --release -q

echo "== power-loss smoke (3 seeds, byte-identical traces) =="
cargo test -p ajx-cluster --release -q \
  three_seeds_reproduce_byte_identically_under_both_policies

tools/kernel_matrix.sh --quick

echo "== GF(2^16) AVX2 kernel floor (from BENCH_kernels.json) =="
# The kernel_matrix binary asserts this in-process while writing the
# artifact; the grep re-asserts it from the JSON so a stale or
# hand-edited artifact can't pass. Hosts without AVX2 record an explicit
# skip marker instead.
if ./target/release/kernel_matrix --list | grep -q '^avx2$'; then
  grep -q '"avx2_floor_pass":true' BENCH_kernels.json \
    || { echo "GF(2^16) floor violated (AVX2 mul_add_assign16 < 4x scalar split-table at 4 KiB)"; exit 1; }
  echo "GF(2^16) kernel floor holds (AVX2 >= 4x scalar split-table at 4 KiB)"
else
  grep -q '"avx2_floor_skipped"' BENCH_kernels.json \
    || { echo "BENCH_kernels.json missing the avx2 floor verdict"; exit 1; }
  echo "no AVX2 on this host; floor skip recorded in the artifact"
fi

echo "== CRC-32C SSE4.2 kernel floor (from BENCH_kernels.json) =="
# Same shape as the AVX2 floor above: asserted in-process by
# kernel_matrix, re-asserted here from the artifact, explicit skip marker
# on hosts without the instruction.
if ./target/release/kernel_matrix --list-crc32c | grep -q '^sse4.2$'; then
  grep -q '"sse42_floor_pass":true' BENCH_kernels.json \
    || { echo "CRC-32C floor violated (SSE4.2 crc32c < 3x portable slicing-by-8 at 4 KiB)"; exit 1; }
  echo "CRC-32C kernel floor holds (SSE4.2 >= 3x portable at 4 KiB)"
else
  grep -q '"sse42_floor_skipped"' BENCH_kernels.json \
    || { echo "BENCH_kernels.json missing the sse4.2 floor verdict"; exit 1; }
  echo "no SSE4.2 on this host; floor skip recorded in the artifact"
fi

echo "== output-major weighted sum floor (from BENCH_kernels.json) =="
# Same shape again: kernel_matrix asserts that combine's output-major
# encode runs >= 1.25x the source-major loop it replaced on the avx2 and
# gfni tiers, and records a skip marker on hosts without AVX2.
if ./target/release/kernel_matrix --list | grep -q '^avx2$'; then
  grep -q '"combine_floor_pass":true' BENCH_kernels.json \
    || { echo "combine floor violated (output-major encode < 1.25x source-major on avx2/gfni)"; exit 1; }
  echo "combine floor holds (output-major encode >= 1.25x source-major on avx2/gfni)"
else
  grep -q '"combine_floor_skipped"' BENCH_kernels.json \
    || { echo "BENCH_kernels.json missing the combine floor verdict"; exit 1; }
  echo "no AVX2 on this host; combine floor skip recorded in the artifact"
fi

echo "== batched data path (ext_seq_throughput --smoke) =="
cargo run --release -p ajx-bench --bin ext_seq_throughput -- --smoke \
  > BENCH_datapath.smoke.json
cat BENCH_datapath.smoke.json
# The smoke writes at the default pipeline_width 8: a window of stripes
# sends exactly the union of its stripes' messages, so the 4-of-8 x 64
# batched write's counts are those of one stripe at a time.
grep -A1 '"k":4,"n":8,"run_blocks":64' BENCH_datapath.smoke.json \
  | grep -q '"batched":{"micros":[0-9.]*,"round_trips":128,"bytes_sent":1314816}' \
  || { echo "4-of-8 x 64 batched write no longer 128 round trips / 1314816 bytes"; exit 1; }
echo "batched write counts hold (128 round trips, 1314816 bytes at width 8)"

echo "== degraded reads + rebuild engine + LRC repair bandwidth (ext_rebuild --smoke) =="
# The binary asserts the >=4x engine speedup, zero-lock degraded reads,
# and the LRC <= 0.5x RS repair-bytes floor itself; the grep re-asserts
# the LRC floor from the artifact.
cargo run --release -p ajx-bench --bin ext_rebuild -- --smoke \
  > BENCH_recovery.smoke.json
cat BENCH_recovery.smoke.json
grep -q '"lrc_repair_ratio_pass":true' BENCH_recovery.smoke.json \
  || { echo "LRC repair-bandwidth floor violated (needs <= 0.5x RS bytes)"; exit 1; }
echo "LRC repair floor holds (<= 0.5x RS bytes per lost block)"
# Same rule for the rebuild engine at the default rebuild_width 8: one
# message per chunk and node, all eight chunks' messages in each round.
grep -A4 '"k":4,"n":8,"stripes":256' BENCH_recovery.smoke.json \
  | grep -q '"engine":{"micros":[0-9.]*,"round_trips":768,"bytes_sent":1073152}' \
  || { echo "4-of-8 rebuild engine no longer 768 round trips / 1073152 bytes"; exit 1; }
echo "rebuild engine counts hold (768 round trips, 1073152 bytes at width 8)"
# The serial arm is a loop of one-stripe `recover_stripe` calls: the same
# engine over windows of one, 8 TryLock + 8 GetMeta + 4 GetState + 1
# Reconstruct + 8 Finalize = 29 round trips per stripe.
grep -A4 '"k":4,"n":8,"stripes":256' BENCH_recovery.smoke.json \
  | grep -q '"serial":{"micros":[0-9.]*,"round_trips":7424,' \
  || { echo "4-of-8 one-stripe recovery loop no longer 7424 round trips"; exit 1; }
echo "one-stripe recovery counts hold (7424 round trips, 29 per stripe)"
# A degraded read_block is a READ window of one: one Read to the lost data
# node, then one GetState or GetMeta to each of the 7 peers, 8 round trips
# per read.
grep -A1 '"k":4,"n":8,"stripes":256' BENCH_recovery.smoke.json \
  | grep -q '"reads":128,"round_trips":1024,"bytes_sent":32768}' \
  || { echo "4-of-8 degraded reads no longer 128 reads / 1024 round trips / 32768 bytes"; exit 1; }
echo "degraded-read counts hold (128 reads, 1024 round trips, 32768 bytes)"

echo "== many-client scale-out (ext_many_clients --smoke) =="
# The binary exits nonzero itself if the 5x floor or zero-failure
# invariant is violated; the greps below re-assert from the artifact so
# a stale or hand-edited artifact can't pass.
cargo run --release -p ajx-bench --bin ext_many_clients -- --smoke \
  > BENCH_scaleout.smoke.json
cat BENCH_scaleout.smoke.json
grep -q '"pass":true' BENCH_scaleout.smoke.json \
  || { echo "scale-out floor violated (no passing verdict)"; exit 1; }
! grep -q '"pass":false' BENCH_scaleout.smoke.json \
  || { echo "scale-out floor violated"; exit 1; }
echo "scale-out floor holds (1k clients >= 5x 8-client IOPS)"

echo "== durable nodes (ext_durability --smoke) =="
# The binary asserts the floor itself; the grep re-asserts from the
# artifact.
cargo run --release -p ajx-bench --bin ext_durability -- --smoke \
  > BENCH_durability.smoke.json
cat BENCH_durability.smoke.json
grep -q '"recovery_floor_pass": true' BENCH_durability.smoke.json \
  || { echo "durability floor violated (WAL recovery not faster than rebuild)"; exit 1; }
echo "durability floor holds (restart-with-disk beats wipe-and-rebuild)"

echo "== benchmark contract (benchmark/run.sh, all six workloads) =="
# Building benchmark/ rewrites its tracked Cargo.lock, which still pins
# shims and edges the workspace dropped and which only a benchmark change
# may touch: put it back when the script exits, however it exits.
trap 'git checkout -q -- benchmark/Cargo.lock 2>/dev/null || true' EXIT
# BENCHMARK.json's driver calls benchmark/run.sh, which builds benchmark/
# offline into .bench_build and prints the run's JSON result as the last
# stdout line. A short run of every workload must build, exit 0, produce
# correct output and fail no operation: codec, the one workload that
# drives both fields of the erasure engine end to end, durable_write, the
# one that goes journal -> crash -> restart_with_disk -> a rebuild that
# must find nothing to do, small_rw, the paper's common case, seq_large,
# the bulk write path, degraded_rebuild, the widest blocking fan-out (n-1
# ways, plus the rebuild engine), and many_clients, the submit_call /
# poll_call pair the blocking calls wait on.
for workload in codec durable_write small_rw seq_large degraded_rebuild many_clients; do
  bench_result=$(bash benchmark/run.sh --workload "$workload" --seed 1 --slices 2 --trace 0 | tail -n 1)
  echo "$bench_result"
  case "$bench_result" in
    *'"correct": true'*'"failed": 0,'*) echo "benchmark contract holds ($workload)" ;;
    *) echo "benchmark contract violated ($workload run incorrect or with failed operations)"; exit 1 ;;
  esac
done

echo "== garbage collection is O(nodes) messages and collects everything (traced small_rw) =="
# With --slices the counts repeat exactly. Reads take 1 round trip and
# writes 5, so an even mix sits at 3.0 plus Fig. 7's batched share; the
# per-entry collection this replaced sat at 7.4. The nodes must still
# handle the same members (7.40 per op): fewer means a cycle silently
# collected less.
traced=$(bash benchmark/run.sh --workload small_rw --seed 1 --slices 2 --trace 1 | tail -n 1)
metric() { printf '%s' "$traced" | sed -n "s/.*\"$1\": {\"value\": \([0-9.e+-]*\).*/\1/p"; }
round_trips=$(metric transport.round_trips_per_op)
ops_handled=$(metric storage.ops_handled_per_op)
echo "transport.round_trips_per_op $round_trips, storage.ops_handled_per_op $ops_handled"
awk -v r="$round_trips" -v h="$ops_handled" \
  'BEGIN { exit !(r > 0 && r < 3.5 && h > 7.3 && h < 7.6) }' \
  || { echo "garbage collection left its message or work envelope (want round trips < 3.5, ops handled in 7.3..7.6)"; exit 1; }
echo "garbage-collection envelope holds"
# The two accounts the node keeps for itself, from the same run: RS 4-of-8
# puts one swap and four adds on a medium per write, and after the run's
# last collection a resident block carries 25.75 bytes of protocol
# metadata. Both are exact with --slices; a slip in the node's accounting
# fails here instead of at a later re-anchor.
media_writes=$(metric storage.media_writes_per_write)
metadata_bytes=$(metric storage.metadata_bytes_per_block)
echo "storage.media_writes_per_write $media_writes, storage.metadata_bytes_per_block $metadata_bytes"
awk -v m="$media_writes" -v b="$metadata_bytes" 'BEGIN { exit !(m == 5 && b == 25.75) }' \
  || { echo "node-level accounting moved (want 5 media writes per write, 25.75 metadata bytes per block)"; exit 1; }
echo "node-level accounting holds"
# At zero latency a blocking round's waiting client serves the round itself
# and wakes no worker unless it leaves a job behind: 0.14-0.23 context
# switches per operation, against 3.2 when every round woke a worker.
ctx_switches=$(metric transport.ctx_switches_per_op)
echo "transport.ctx_switches_per_op $ctx_switches"
awk -v c="$ctx_switches" 'BEGIN { exit !(c != "" && c < 0.5) }' \
  || { echo "a blocking round went back to a thread hop (want transport.ctx_switches_per_op < 0.5)"; exit 1; }
echo "a round trip costs no thread hop"

echo "== a bulk write puts the same bytes on the wire (traced seq_large) =="
# PR 22 took the client's copies out of the 64 KiB write path; the wire
# must not have noticed. RS 12-of-16 sends one value and four increments
# per block (3.5008 wire bytes per user byte with headers), a 48-block
# write_blocks is 48 swaps + 4 stripes x 4 add batches = 64 round trips
# (1.3333 per block), and each block lands on a medium 5 times. Exact with
# --slices; the literals are the PR 21 binary's.
# The node applies a batch's adds to one block in one pass but must still
# handle every member: the messages (1.6840 per op) and the leaves the
# nodes count (4.2222 per op) are those of a node that applied each member
# alone.
traced=$(bash benchmark/run.sh --workload seq_large --seed 1 --slices 2 --trace 1 | tail -n 1)
wire_bytes=$(metric transport.wire_bytes_per_user_byte)
write_trips=$(metric transport.write_round_trips_per_op)
media_writes=$(metric storage.media_writes_per_write)
msgs=$(metric transport.msgs_per_op)
ops_handled=$(metric storage.ops_handled_per_op)
echo "transport.wire_bytes_per_user_byte $wire_bytes, transport.write_round_trips_per_op $write_trips, storage.media_writes_per_write $media_writes, transport.msgs_per_op $msgs, storage.ops_handled_per_op $ops_handled"
awk -v w="$wire_bytes" -v r="$write_trips" -v m="$media_writes" -v g="$msgs" -v h="$ops_handled" \
  'BEGIN { exit !(sprintf("%.4f", w) == "3.5008" && sprintf("%.4f", r) == "1.3333" && m == 5 && sprintf("%.4f", g) == "1.6840" && sprintf("%.4f", h) == "4.2222") }' \
  || { echo "the bulk write's wire or node work moved (want 3.5008 wire bytes per user byte, 1.3333 write round trips per op, 5 media writes per write, 1.6840 msgs per op, 4.2222 ops handled per op)"; exit 1; }
echo "bulk-write wire and node counts hold"

echo "== the widest fan-out keeps its protocol (traced degraded_rebuild) =="
# Degraded reads and the rebuild engine are the n-1-way fan-outs every node
# serves at once; how the transport schedules them must change no count.
# Exact with --slices; the literals are those of the transport that gave
# every node its own worker threads.
traced=$(bash benchmark/run.sh --workload degraded_rebuild --seed 1 --slices 2 --trace 1 | tail -n 1)
msgs=$(metric transport.msgs_per_op)
round_trips=$(metric transport.round_trips_per_op)
wire_bytes=$(metric transport.wire_bytes_per_user_byte)
ops_handled=$(metric storage.ops_handled_per_op)
lock_ops=$(metric storage.lock_ops)
echo "transport.msgs_per_op $msgs, transport.round_trips_per_op $round_trips, transport.wire_bytes_per_user_byte $wire_bytes, storage.ops_handled_per_op $ops_handled, storage.lock_ops $lock_ops"
awk -v m="$msgs" -v r="$round_trips" -v w="$wire_bytes" -v h="$ops_handled" -v l="$lock_ops" \
  'BEGIN { exit !(sprintf("%.4f", m) == "25.1429" && sprintf("%.4f", r) == "12.5714" && sprintf("%.4f", w) == "4.9062" && sprintf("%.4f", h) == "46.5714" && l == 0) }' \
  || { echo "the degraded_rebuild fan-out moved (want 25.1429 msgs, 12.5714 round trips, 4.9062 wire bytes per user byte, 46.5714 ops handled per op, 0 lock ops)"; exit 1; }
echo "degraded_rebuild protocol counts hold"
# The rebuild's own bytes, from the same run: LRC(12,3,1) fetches 4.5
# shares per lost block on average (its local group's four; all twelve data
# blocks for the global parity) and writes one back, 5.5 x 16 KiB; the
# metadata-only GetMeta rounds carry no block. Exact with --slices.
repair_bytes=$(metric core.repair_bytes_per_lost_block)
rebuild_trips=$(metric core.rebuild_round_trips_per_lost_block)
echo "core.repair_bytes_per_lost_block $repair_bytes, core.rebuild_round_trips_per_lost_block $rebuild_trips"
awk -v b="$repair_bytes" -v r="$rebuild_trips" 'BEGIN { exit !(b == 90112 && r == 10) }' \
  || { echo "the rebuild's bytes moved (want 90112 repair bytes and 10 round trips per lost block)"; exit 1; }
echo "rebuild byte counts hold"

echo "== the largest rounds enqueue whole and book every send (traced many_clients) =="
# The mux's window steps are the largest rounds any client sends: 1024 to
# 4096 members, enqueued under the pool lock in bounded runs. Queues of
# 4096 must shed none of them, and the books must count every message.
# Exact with --slices; the literals are those of the transport that
# enqueued and booked each call on its own.
traced=$(bash benchmark/run.sh --workload many_clients --seed 1 --slices 2 --trace 1 | tail -n 1)
msgs=$(metric transport.msgs_per_op)
busy_shed=$(metric transport.busy_shed)
echo "transport.msgs_per_op $msgs, transport.busy_shed $busy_shed"
awk -v m="$msgs" -v b="$busy_shed" 'BEGIN { exit !(sprintf("%.4f", m) == "4.8631" && b == 0) }' \
  || { echo "the mux's rounds moved (want 4.8631 msgs per op and 0 busy sheds)"; exit 1; }
echo "many_clients round counts hold"

echo "== full-run artifacts are not smoke runs =="
if [ "${AJX_ALLOW_SMOKE:-0}" != "1" ]; then
  for f in BENCH_*.json; do
    case "$f" in *.smoke.json) continue ;; esac
    [ -e "$f" ] || continue
    if grep -q '"smoke": *true' "$f"; then
      echo "$f is a smoke artifact masquerading as a full run;"
      echo "regenerate it without --smoke (or set AJX_ALLOW_SMOKE=1)."
      exit 1
    fi
  done
fi
echo "ok"

echo "== committed durability artifact holds the recovery floor =="
grep -q '"recovery_floor_pass": true' BENCH_durability.json \
  || { echo "committed BENCH_durability.json fails the recovery floor"; exit 1; }
echo "ok"

echo "== committed recovery artifact holds the LRC repair floor =="
grep -q '"lrc_repair_ratio_pass":true' BENCH_recovery.json \
  || { echo "committed BENCH_recovery.json fails the LRC repair-bandwidth floor"; exit 1; }
echo "ok"

if [ "$DEEP" = "1" ]; then
  # Deep gate: dynamic checks of what the lint gate cannot see statically
  # (memory safety inside the documented unsafe kernels, data races).
  # Miri exercises the unsafe GF kernels and the buffer pool for UB;
  # ASan/TSan re-run the shard-lock and WAL layers for memory errors
  # and data races. Each tool probes its own availability first and
  # skips with a message when the toolchain can't provide it, so the
  # deep arm degrades gracefully in offline containers.
  echo "== deep: miri (unsafe kernels + pool) =="
  if cargo +nightly miri --version >/dev/null 2>&1; then
    # Scalar/SWAR kernels and the aligned buffer pool are the only
    # unsafe code Miri can reach (SIMD paths need host CPU features
    # Miri doesn't model); MIRIFLAGS keeps provenance checks strict.
    MIRIFLAGS="-Zmiri-strict-provenance" \
      cargo +nightly miri test -p ajx-gf --lib -q
    MIRIFLAGS="-Zmiri-strict-provenance" \
      cargo +nightly miri test -p ajx-core --lib -q
  else
    echo "skip: nightly miri not installed (offline container?)"
  fi

  echo "== deep: AddressSanitizer (storage shard + WAL) =="
  if cargo +nightly --version >/dev/null 2>&1 \
     && rustup component list --toolchain nightly 2>/dev/null \
        | grep -q 'rust-src.*(installed)'; then
    RUSTFLAGS="-Zsanitizer=address" \
      cargo +nightly test -Zbuild-std -p ajx-storage --lib -q \
        --target "$(rustc -vV | sed -n 's/^host: //p')"
  else
    echo "skip: nightly rust-src not installed (offline container?)"
  fi

  echo "== deep: ThreadSanitizer (lock-order watchdog under races) =="
  if cargo +nightly --version >/dev/null 2>&1 \
     && rustup component list --toolchain nightly 2>/dev/null \
        | grep -q 'rust-src.*(installed)'; then
    RUSTFLAGS="-Zsanitizer=thread" \
      cargo +nightly test -Zbuild-std -p ajx-storage --lib -q \
        --target "$(rustc -vV | sed -n 's/^host: //p')"
  else
    echo "skip: nightly rust-src not installed (offline container?)"
  fi
fi
