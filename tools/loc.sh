#!/bin/sh
# Lines-of-code inventory (§6.4 analogue). Usage: tools/loc.sh
#
# "non-test" is what ROADMAP's line-count gates are stated in: per crate,
# the lines of each src/*.rs file before its first `#[cfg(test)]` (the
# in-file test module sits at the bottom of every file here). Integration
# tests, benches and examples count zero.
set -e
cd "$(dirname "$0")/.."

all() { find "$@" -name '*.rs' -exec cat {} + | wc -l; }
non_test() {
  find "$@" -name '*.rs' -exec awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests { n++ }
    END { print n + 0 }' {} +
}

echo "crate                 lines  non-test"
echo "------------------------------------"
for c in crates/*/; do
  printf "%-20s %6d %9d\n" "$(basename "$c")" "$(all "$c")" "$(non_test "${c}src")"
done
printf "%-20s %6d %9d\n" "integration tests" "$(all tests)" 0
printf "%-20s %6d %9d\n" "examples" "$(all examples)" 0
echo "------------------------------------"
printf "%-20s %6d %9d\n" "total" "$(all crates tests examples)" "$(non_test crates/*/src)"
