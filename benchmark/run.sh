#!/usr/bin/env bash
# The repository benchmark. Run from the root of a checkout:
#
#   bash benchmark/run.sh [--seed N]           every workload, end to end
#   bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   bash benchmark/run.sh --self-test          probe transparency + statistics
#   bash benchmark/run.sh --smoke              self-test + every workload at
#                                              ~1/20 horizon, output checked
#                                              against BENCHMARK.json
#
# Builds hfl_bench into build-bench/ first (incremental after the first
# run). Build output goes to stderr; the last line of stdout of a single
# workload run is its JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-bench"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: $root is not a checkout of the repository (no CMakeLists.txt" \
       "or src/ next to benchmark/)" >&2
  exit 2
fi

nproc_host="$(nproc 2>/dev/null || echo 1)"
jobs=$(( nproc_host < 4 ? nproc_host : 4 ))

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$root/benchmark" -B "$build" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target hfl_bench -j "$jobs" >&2
bench="$build/hfl_bench"

# Source revision for the provenance header; "unknown" outside a git work
# tree (git is not asked to look above the checkout).
rev="unknown"
if [[ -e "$root/.git" ]] && command -v git >/dev/null 2>&1; then
  if sha="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
            git -C "$root" rev-parse --short=12 HEAD 2>/dev/null)"; then
    rev="$sha"
    if [[ -n "$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
                git -C "$root" status --porcelain --untracked-files=no \
                2>/dev/null)" ]]; then
      rev="$rev-dirty"
    fi
  fi
fi

workloads=(cnn_sync wide_mlp_sync pop_1m async_stragglers)

case "${1:-}" in
  --self-test)
    exec "$bench" --self-test
    ;;
  --smoke)
    # Structural check in well under a minute: the self-tests, then every
    # workload at ~1/20 horizon (pop_1m at 10k workers), traced and not,
    # with every metric BENCHMARK.json names present in each result.
    "$bench" --self-test
    python3 "$root/benchmark/spread.py" --self-test
    for w in "${workloads[@]}"; do
      for trace in 0 1; do
        out="$("$bench" --workload "$w" --seed 1 --seconds 0 --trace "$trace" \
               --smoke --git-rev "$rev")"
        printf '%s\n' "$out" | tail -n 1 |
          python3 "$root/benchmark/check_result.py" "$root/BENCHMARK.json" \
                  "$w" "$trace"
      done
    done
    echo "smoke: ok"
    ;;
  *)
    if [[ " $* " == *" --workload "* ]]; then
      exec "$bench" --git-rev "$rev" "$@"
    fi
    # No workload named: every workload in its own process.
    for w in "${workloads[@]}"; do
      "$bench" --git-rev "$rev" --workload "$w" "$@"
    done
    ;;
esac
