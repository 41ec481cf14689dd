#!/usr/bin/env bash
# Run the test suite under sanitizer-instrumented builds. Any sanitizer
# report is fatal (-fno-sanitize-recover=all), so a green run means the
# suite is clean.
#
# Two passes, each in its own build tree:
#   1. ASan+UBSan — full ctest suite plus one telemetry-enabled example.
#   2. TSan       — the concurrency surface: thread pool, engine (parallel
#      local steps, parallel edge barrier, sweep), the element-partitioned
#      reductions (parallel_sync_test drives them at 2^18 elements on a
#      4-thread pool; the engine tests' models sit below their cutoff), the
#      obs subsystem that records from pool threads, the compiled cohort
#      plan (tile-parallel execution, and unbatched local steps and eval
#      blocks checking per-thread scratch out of one shared plan, +
#      the batched GEMM driver and the convolutions' thread_local
#      scratch), the
#      event-driven engine (serial event loop
#      over the pool-parallel eval/reduction paths at 4 threads), and the
#      virtualized-population path (cohort sampling + parallel
#      spill/restore with absent-policy replay under the 4-thread engine,
#      pop_test / pop_parity_test / param_plane_test), the compression
#      path (compression_test: back-to-back pool dispatches around the
#      serialized stochastic quantizer), and hieradmo_test (a recording
#      wrapper called from the concurrent edge barrier).
#      TSan and ASan cannot share a process, hence the
#      separate tree; the TSan pass runs the thread-touching tests rather
#      than the full suite to keep its ~10x slowdown in budget.
#
# Usage: scripts/run_sanitized_tests.sh [asan-build-dir] [tsan-build-dir]
#        (defaults: build-asan build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
ASAN_DIR="${1:-build-asan}"
TSAN_DIR="${2:-build-tsan}"

# --- pass 1: ASan + UBSan -------------------------------------------------
cmake -B "$ASAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHFL_SANITIZE=address \
  -DHFL_WERROR=ON
cmake --build "$ASAN_DIR" -j "$(nproc)"

# halt_on_error: make ASan findings fail the test rather than just print.
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
ctest --test-dir "$ASAN_DIR" --output-on-failure

# Telemetry-enabled end-to-end pass: the obs subsystem records from pool
# threads, algorithm hooks and kernels concurrently, so run one full
# instrumented example under the sanitizers too (it enables obs itself and
# writes its artifacts into the build tree).
(cd "$ASAN_DIR" && ./examples/telemetry_report)

# --- pass 2: TSan ---------------------------------------------------------
cmake -B "$TSAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHFL_SANITIZE=thread \
  -DHFL_WERROR=ON
cmake --build "$TSAN_DIR" -j "$(nproc)"

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
ctest --test-dir "$TSAN_DIR" --output-on-failure -R \
  '^(thread_pool_test|obs_test|parallel_sync_test|engine_schedule_test|engine_weights_test|integration_test|property_sweep_test|gemm_batched_test|batched_parity_test|pop_test|pop_parity_test|param_plane_test|async_engine_test|evt_versioning_test|compression_test|hieradmo_test)$'

# Same telemetry-enabled example under TSan: obs recording + engine pools.
(cd "$TSAN_DIR" && ./examples/telemetry_report)

echo "sanitized test passes complete: $ASAN_DIR (ASan+UBSan), $TSAN_DIR (TSan)"
