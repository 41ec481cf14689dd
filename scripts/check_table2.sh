#!/usr/bin/env bash
# Table II bit-identity check: builds bench_table2 (Release, native flags),
# runs it at full scale in a temporary directory and compares the
# table2_results.csv it writes byte for byte against the tracked file. Also
# prints the seconds each Table II column took (the sum of its runs'
# wall-clock seconds).
#
# The tracked table was recorded on an AVX-512 host with the default
# Release flags; FMA contraction differs across ISAs and flags, so other
# builds may move bits.
#
# Usage: scripts/check_table2.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
root="$(pwd)"
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_table2 >/dev/null
bench="$(cd "$BUILD_DIR" && pwd)/bench/bench_table2"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
(cd "$tmp" && env -u HFL_BENCH_SCALE "$bench" >"$tmp/output.txt")

# Column headers look like "[ResNet/ImageNet] T=240", run lines like
# "  HierAdMo     2.4%  (4.6s)".
awk '/^\[/ { col = substr($1, 2, length($1) - 2); order[++n] = col }
     /\([0-9.]+s\)$/ { s = $NF; gsub(/[()s]/, "", s); secs[col] += s }
     END { for (i = 1; i <= n; ++i) printf "%-16s %7.1f s\n", order[i], secs[order[i]] }' \
  "$tmp/output.txt"

if cmp "$root/table2_results.csv" "$tmp/table2_results.csv"; then
  echo "table2_results.csv: bit-identical to the tracked file"
else
  echo "table2_results.csv: DIFFERS from the tracked file" >&2
  diff "$root/table2_results.csv" "$tmp/table2_results.csv" >&2 || true
  exit 1
fi
