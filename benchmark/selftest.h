// hfl_bench --self-test: checks the benchmark's own machinery.
#pragma once

namespace hfl::bench {

// Probe transparency (every registry algorithm, wrapped vs unwrapped, on
// both engines, with and without a cohort store and fault oracle) and the
// statistics helpers against hand-computed cases. Prints one line per
// failure and a summary; returns the number of failures.
int run_self_test();

}  // namespace hfl::bench
