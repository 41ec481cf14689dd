#!/usr/bin/env bash
# One-command CI gate: the checks a change must pass before merging.
#
#   1. Release build + full ctest suite (tier-1): unit, parity and golden
#      tests, among them the fused kernel ≡ fma reference and cohort roster
#      ≡ closed form (param_plane_test), compiled plan ≡ per-model path
#      (batched_parity_test) and the pool-parallel reduction ≡ serial
#      (parallel_sync_test) — then the concurrency tests 20 times over
#      (batched_parity_test among them: unbatched local steps and eval
#      blocks share the plan's scratch across pool threads).
#   2. Portable-kernel build (HFL_MARCH_NATIVE=OFF): the golden digests of
#      the event engine and of the fault paths, pinned on this build, the
#      population suites (spill-record codec, absent-policy replay,
#      attached store ≡ the engine's own store, sampled ≡ full cohort on the
#      induced schedule) and the compiled-plan parity suite (plan ≡ model
#      gradients and predictions, Engine::evaluate ≡ per-batch
#      Model::evaluate) on the portable kernels and their contraction
#      choices.
#   3. Repository benchmark smoke run (benchmark/run.sh --smoke): the
#      hfl_bench self-tests plus every workload at a short horizon, output
#      checked against BENCHMARK.json. It compiles against the public
#      headers of src/, so a header change that breaks it fails here.
#   4. ASan+UBSan pass: full suite + telemetry-enabled example in an
#      instrumented tree (reports are fatal).
#
# The TSan pass is NOT run here — its ~10x slowdown puts it over a CI
# budget on this host; run scripts/run_sanitized_tests.sh for the full
# two-sanitizer sweep before cutting a release.
#
# Usage: scripts/ci_checks.sh [release-build-dir] [asan-build-dir]
#                             [portable-build-dir]
#        (defaults: build build-asan build-portable)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
ASAN_DIR="${2:-build-asan}"
PORTABLE_DIR="${3:-build-portable}"

# --- gate 1: Release build + full suite ----------------------------------
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DHFL_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# The event-engine contracts gate merges by name (they are part of the full
# suite above; the explicit invocation keeps a red bisect pointed at them):
# golden digests of every semi_async/async setting, causal download
# versioning (no retroactive refresh), and charge-exactly-once comm
# accounting. The sync policy needs no gate of its own: it is fl::Engine::run.
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R '^(async_engine_test|evt_versioning_test)$'

# Concurrency repeat gate: the TSan list of scripts/run_sanitized_tests.sh,
# 20 times over on the Release tree, so a 1-in-50 race cannot slip back in.
# The timeout turns a lost-wakeup hang into a failure.
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  --repeat until-fail:20 --timeout 120 -R \
  '^(thread_pool_test|obs_test|parallel_sync_test|engine_schedule_test|engine_weights_test|integration_test|property_sweep_test|gemm_batched_test|batched_parity_test|pop_test|pop_parity_test|param_plane_test|async_engine_test|evt_versioning_test|compression_test|hieradmo_test)$'

# --- gate 2: portable kernels + golden digests ----------------------------
# With FMA enabled the compiler's contraction choices move bits between
# optimization levels, so the digests are authoritative on this build. The
# population suites run here too: the spill-record codec and the restore
# replay must hold on both kernel configs. So does plan ≡ model
# bit-identity (batched_parity_test): the plan's native stages and the
# layers must agree under this build's contraction choices as well.
cmake -B "$PORTABLE_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
  -DHFL_MARCH_NATIVE=OFF -DHFL_WERROR=ON
cmake --build "$PORTABLE_DIR" -j "$(nproc)" \
  --target async_engine_test fault_golden_test pop_test pop_parity_test \
  batched_parity_test
ctest --test-dir "$PORTABLE_DIR" --output-on-failure \
  -R '^(async_engine_test|fault_golden_test|pop_test|pop_parity_test|batched_parity_test)$'

# --- gate 3: repository benchmark smoke run -------------------------------
bash benchmark/run.sh --smoke

# --- gate 4: ASan + UBSan -------------------------------------------------
cmake -B "$ASAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHFL_SANITIZE=address \
  -DHFL_WERROR=ON
cmake --build "$ASAN_DIR" -j "$(nproc)"

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
ctest --test-dir "$ASAN_DIR" --output-on-failure

# Telemetry-enabled end-to-end pass: obs records from pool threads,
# algorithm hooks and kernels concurrently.
(cd "$ASAN_DIR" && ./examples/telemetry_report)

echo "ci checks complete: $BUILD_DIR (Release + full ctest)," \
  "$PORTABLE_DIR (portable digests), benchmark smoke, $ASAN_DIR (ASan+UBSan);" \
  "src/ lines: $(git ls-files src | xargs cat | wc -l)"
