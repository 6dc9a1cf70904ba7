#!/usr/bin/env bash
# Summarises one result set, or compares two (made by benchmark/runset.sh).
#
#   benchmark/compare.sh A        one row per end-to-end metric x workload:
#                                 median, spread, runs
#   benchmark/compare.sh A B      the same for both, and B against A:
#                                 better / same / worse / unresolved
#
# A set needs at least 3 runs per workload. The value of a metric is the
# median of its runs; its spread is the distance between their first and
# third quartile as a share of the median — the rule the driver applies.
# Direction and bound come from BENCHMARK.json.
#   worse       B's median is worse than A's by more than the bound
#   unresolved  either set's spread is wider than the bound
#   better      B's median is better than A's by more than A's spread
#   same        none of these
# Exits 1 on any `worse` row or if B has more failed operations than A,
# 2 on a set it cannot read.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec python3 - "$@" <<'PY'
import json, statistics, sys
from pathlib import Path

if len(sys.argv) not in (2, 3):
    sys.exit("usage: benchmark/compare.sh A [B]")
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]


def load(directory):
    """{workload: {"failed": n, "runs": n, metric: [values]}}"""
    result = {}
    for w in workloads:
        path = Path(directory) / f"{w}.jsonl"
        if not path.is_file():
            sys.exit(f"{path}: missing")
        runs = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
        if len(runs) < 3:
            print(f"{path}: {len(runs)} runs, a set needs at least 3", file=sys.stderr)
            sys.exit(2)
        entry = {"failed": sum(r["failed"] for r in runs), "runs": len(runs)}
        for m in spec["end_to_end"]:
            entry[m["name"]] = [r["metrics"][m["name"]]["value"] for r in runs]
        result[w] = entry
    return result


def summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


sets = [load(d) for d in sys.argv[1:]]
worse = False
header = f"{'workload':<18}{'metric':<12}{'unit':<5}"
for name in sys.argv[1:]:
    header += f"{'median ' + name[-12:]:>22}{'spread':>8}{'runs':>5}"
print(header + ("  verdict (B against A)" if len(sets) == 2 else ""))
for w in workloads:
    for m in spec["end_to_end"]:
        row = f"{w:<18}{m['name']:<12}{m['unit']:<5}"
        stats = [summary(s[w][m["name"]]) for s in sets]
        for s, (median, spread) in zip(sets, stats):
            row += f"{median:>22.4f}{spread:>8.3f}{s[w]['runs']:>5}"
        if len(sets) == 2:
            (a, spread_a), (b, spread_b) = stats
            # Positive = B is worse, as a share of A.
            change = (b - a) / a if m["better"] == "lower" else (a - b) / a
            if max(spread_a, spread_b) > m["bound"]:
                verdict = "unresolved"
            elif change > m["bound"]:
                verdict = "worse"
                worse = True
            elif -change > spread_a:
                verdict = "better"
            else:
                verdict = "same"
            row += f"  {verdict} ({-change:+.1%})"
        print(row)
if len(sets) == 2:
    for w in workloads:
        a, b = sets[0][w]["failed"], sets[1][w]["failed"]
        if b > a:
            print(f"{w}: failed operations rose from {a} to {b}")
            worse = True
sys.exit(1 if worse else 0)
PY
