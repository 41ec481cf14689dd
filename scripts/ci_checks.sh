#!/usr/bin/env bash
# One-command CI gate: the checks a change must pass before merging.
#
#   1. Three lints — layering (src/fl, src/net, src/evt and src/pop include
#      no src/sim header: they read fault plans through
#      fl::AvailabilityOracle), per-tier state (no file under src/
#      declares a string-keyed Vec map: worker state is one fixed
#      fl::WorkerSlice — x, y, the loss and the interval accumulators; the
#      mini-batch gradient is per-step scratch outside it — whose size a
#      static_assert beside the spill codec pins, and the cloud's algorithm
#      vectors are index-addressed slots) and one model path (no file under
#      src/ declares a Tensor-valued forward or backward: the compiled
#      cohort plan is the only one) — then the src/ line count
#      (ROADMAP aim 2's size metric; printed, not gated), then Release
#      build + full ctest suite (tier-1): unit, parity and golden
#      tests, among them every GEMM entry point ≡ the per-element FMA chain
#      (gemm_contract_test), the fused kernel ≡ fma reference and cohort
#      roster ≡ closed form (param_plane_test), the compiled plan's
#      invariances — batched ≡ singleton ≡ 1 vs 4 threads ≡ row chunks —
#      and its finite-difference checks (batched_parity_test) and the
#      pool-parallel reduction ≡ serial
#      (parallel_sync_test) — then the concurrency tests 20 times over
#      (batched_parity_test among them: unbatched local steps and eval
#      blocks share the plan's scratch across pool threads).
#   2. Portable-kernel build (HFL_MARCH_NATIVE=OFF): the golden digests of
#      the event engine and of the fault paths, pinned on this build, the
#      population suites (spill-record codec, the slab's shared-vector
#      store — bitwise-only sharing, storage reuse, both backends, 1 vs 4
#      host threads — absent-policy replay, attached store ≡ the engine's
#      own store, sampled ≡ full cohort on the induced schedule), the
#      compiled-plan invariance suite (batched ≡ singleton gradients,
#      predict ≡ predict row by row, Engine::evaluate ≡ a serial per-batch
#      reference) and the tile-swept HierAdMo rounds (one-pass cosine
#      ≡ three-pass reference, edge/cloud sweep ≡ the composed passes) on
#      the portable kernels and their contraction choices, the GEMM
#      contract on the portable 4×4 scalar tile, the implicit-GEMM
#      convolutions ≡ the explicit im2col lowering (conv_lowering_test) on
#      the scalar instantiation of the offset-table path, and the NAG and
#      cosine kernels ≡ their scalar references (nag_test, vec_ops_test),
#      which without -march run only their scalar loops.
#   3. AVX2-only build (-mavx2 -mfma, no -march=native): the GEMM suites,
#      the implicit-GEMM convolutions, the compiled-plan invariance suite and
#      the event engine's AVX2 golden digests on the 6×8 ymm tile. On an AVX-512 host gate 1 runs only the
#      8×16 zmm tile, so without this gate the ymm instantiation would go
#      untested.
#   4. Repository benchmark smoke run (benchmark/run.sh --smoke): the
#      hfl_bench self-tests plus every workload at a short horizon, output
#      checked against BENCHMARK.json. It compiles against the public
#      headers of src/, so a header change that breaks it fails here.
#   5. ASan+UBSan pass: full suite + telemetry-enabled example in an
#      instrumented tree (reports are fatal).
#
# The TSan pass is NOT run here — its ~10x slowdown puts it over a CI
# budget on this host; run scripts/run_sanitized_tests.sh for the full
# two-sanitizer sweep before cutting a release.
#
# Usage: scripts/ci_checks.sh [release-build-dir] [asan-build-dir]
#                             [portable-build-dir] [avx2-build-dir]
#        (defaults: build build-asan build-portable build-avx2)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
ASAN_DIR="${2:-build-asan}"
PORTABLE_DIR="${3:-build-portable}"
AVX2_DIR="${4:-build-avx2}"

# --- gate 1: lints, Release build + full suite ---------------------------
# The engines and the modeled clock see a fault plan only as an
# fl::AvailabilityOracle; a sim header included below src/sim would
# re-couple them to one implementation.
if git grep -n '#include "src/sim/' -- src/fl src/net src/evt src/pop; then
  echo "layering: src/fl, src/net, src/evt and src/pop must not include" \
    "src/sim headers (use fl::AvailabilityOracle)" >&2
  exit 1
fi
# Per-tier state stays index-addressed: a string-keyed Vec map is state
# that every snapshot, swap, download diff and spill record must carry by
# name.
if git grep -nE 'std::map<std::string, *Vec>' -- src; then
  echo "state: src/ must not declare a std::map<std::string, Vec>" \
    "(extend fl::WorkerSlice or use index slots)" >&2
  exit 1
fi
# One model path: every forward and backward pass is a stage of the compiled
# nn::CohortModel plan. A Tensor-valued forward/backward would be a second
# implementation of the same math, held to the plan only by parity tests.
if git grep -nE 'Tensor (forward|backward)\(' -- src; then
  echo "model path: src/ must not declare a Tensor forward/backward" \
    "(add a stage to the compiled plan in src/nn/cohort.cpp)" >&2
  exit 1
fi
# The size metric ROADMAP aim 2 tracks: lines in the tracked src/ files.
echo "src/ lines: $(git ls-files src | xargs cat | wc -l)"
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
# replay must hold on both kernel configs. So do the compiled plan's
# invariances (batched_parity_test): batched ≡ singleton gradients and
# predict ≡ predict row by row under this build's contraction choices as
# well. So must HierAdMo's tile-swept edge and cloud rounds and the
# one-pass cosine (hieradmo_test, param_plane_test) on the scalar kernel
# path, the GEMM contract on the scalar tile (gemm_contract_test), the
# implicit-GEMM convolutions against the explicit lowering on it
# (conv_lowering_test), and the fused NAG step and clearing cosine pass,
# whose scalar loops are the whole kernel here (nag_test, vec_ops_test).
cmake -B "$PORTABLE_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
  -DHFL_MARCH_NATIVE=OFF -DHFL_WERROR=ON
cmake --build "$PORTABLE_DIR" -j "$(nproc)" \
  --target async_engine_test fault_golden_test pop_test pop_parity_test \
  batched_parity_test hieradmo_test param_plane_test gemm_contract_test \
  conv_lowering_test nag_test vec_ops_test
ctest --test-dir "$PORTABLE_DIR" --output-on-failure \
  -R '^(async_engine_test|fault_golden_test|pop_test|pop_parity_test|batched_parity_test|hieradmo_test|param_plane_test|gemm_contract_test|conv_lowering_test|nag_test|vec_ops_test)$'

# --- gate 3: AVX2-only kernels ---------------------------------------------
# The GEMM picks its register tile from the target ISA: 8×16 zmm with
# AVX-512F, 6×8 ymm with AVX2+FMA. This tree pins the AVX2 target so the ymm
# tile keeps its bit contract and the plan its invariances on any CI host;
# async_engine_test checks its AVX2 golden table here.
cmake -B "$AVX2_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
  -DHFL_MARCH_NATIVE=OFF -DCMAKE_CXX_FLAGS="-mavx2 -mfma" -DHFL_WERROR=ON
cmake --build "$AVX2_DIR" -j "$(nproc)" \
  --target gemm_parity_test gemm_batched_test gemm_contract_test \
  conv_lowering_test batched_parity_test async_engine_test
ctest --test-dir "$AVX2_DIR" --output-on-failure \
  -R '^(gemm_parity_test|gemm_batched_test|gemm_contract_test|conv_lowering_test|batched_parity_test|async_engine_test)$'

# --- gate 4: repository benchmark smoke run -------------------------------
bash benchmark/run.sh --smoke

# --- gate 5: ASan + UBSan -------------------------------------------------
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
  "$PORTABLE_DIR (portable digests), $AVX2_DIR (ymm tile)," \
  "benchmark smoke, $ASAN_DIR (ASan+UBSan);" \
  "src/ lines: $(git ls-files src | xargs cat | wc -l)"
