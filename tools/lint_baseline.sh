#!/usr/bin/env bash
# Record / diff the ajx-lint per-rule summary against a committed
# baseline, so lint drift (new findings OR new allows) shows up as a
# one-line diff in review rather than as silent counter creep.
#
#   tools/lint_baseline.sh            diff current summary vs baseline
#   tools/lint_baseline.sh --update   rewrite tools/lint_baseline.txt
#
# The baseline holds the stable `--summary` output: one
# `rule <name> findings <n> allows <n>` line per rule plus a total.
# `--update` is the only way to change it; tools/check.sh runs the diff
# right after its zero-findings gate, so a finding, an allow or a rule
# that came or went without the baseline being regenerated fails the
# check.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=tools/lint_baseline.txt

if [ "${1:-}" = "--update" ]; then
  cargo run -q -p ajx-lint -- --summary > "$BASELINE"
  echo "wrote $BASELINE:"
  cat "$BASELINE"
  exit 0
fi

if [ ! -f "$BASELINE" ]; then
  echo "no $BASELINE; run tools/lint_baseline.sh --update first"
  exit 2
fi

CURRENT="$(mktemp)"
trap 'rm -f "$CURRENT"' EXIT
# Capture the summary even when findings make ajx-lint exit nonzero —
# the diff below is the verdict here, not the tool's exit code.
cargo run -q -p ajx-lint -- --summary > "$CURRENT" || true

if diff -u "$BASELINE" "$CURRENT"; then
  echo "lint summary matches baseline"
else
  echo
  echo "lint summary drifted from $BASELINE;"
  echo "fix the findings/allows or run tools/lint_baseline.sh --update"
  exit 1
fi
