#!/usr/bin/env bash
# Non-test line count per crate: for every `.rs` file under
# crates/<crate>/src, the lines before its first `#[cfg(test)]` (the whole
# file when it has none). A report only; it gates nothing.
#
#   scripts/loc.sh            # one line per crate, then the total
set -euo pipefail

cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
  crate=$(basename "$dir")
  [ -d "$dir/src" ] || continue
  # xargs may split a long file list over several awk runs; each prints
  # its own subtotal, and the last awk adds them up.
  n=$(find "$dir/src" -name '*.rs' -print0 \
    | xargs -0 -r awk 'FNR == 1 { on = 1 } /^[[:space:]]*#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }' \
    | awk '{ s += $1 } END { print s + 0 }')
  printf '%-10s %6d\n' "$crate" "$n"
  total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
