#!/usr/bin/env bash
# Makes one result set: RUNS untraced runs of every workload, each with
# another seed, and one traced run of every workload, into OUTDIR.
#
#   benchmark/runset.sh OUTDIR [RUNS]        (RUNS defaults to 10)
#
# OUTDIR/<workload>.jsonl gets one JSON result line per untraced run,
# OUTDIR/<workload>.layers.jsonl the traced run's, OUTDIR/header.txt the
# host line. Run length and workloads come from BENCHMARK.json. Seeds go
# round the workloads (all workloads at seed 1, then at seed 2, ...), so
# that a slow minute of the machine spreads over all of them.
# `benchmark/compare.sh` reads the result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="${1:?usage: benchmark/runset.sh OUTDIR [RUNS]}"
runs="${2:-10}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
mkdir -p "$out"
rm -f "$out"/*.jsonl
for seed in $(seq 1 "$runs"); do
    for w in $workloads; do
        echo "seed $seed $w" >&2
        benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$out/last.txt"
        head -1 "$out/last.txt" >"$out/header.txt"
        tail -1 "$out/last.txt" >>"$out/$w.jsonl"
    done
done
for w in $workloads; do
    echo "traced $w" >&2
    benchmark/run.sh --workload "$w" --seed 1 --seconds "$seconds" --trace 1 | tail -1 >>"$out/$w.layers.jsonl"
done
rm -f "$out/last.txt"
