// Run configuration shared by all algorithms (Table I hyper-parameters).
#pragma once

#include <cstdint>

#include "src/common/types.h"

namespace hfl::fl {

// Execution policy of a run (DESIGN.md §12). `kSync` is the paper's barrier
// schedule and the only policy `fl::Engine` executes; the event-driven
// `evt::AsyncEngine` runs all three (its sync policy is bit-identical to
// `fl::Engine` and serves as the correctness anchor).
enum class ExecPolicy {
  kSync,       // barrier per tier: every worker makes every synchronization
  kSemiAsync,  // deadline-based cohort admission per aggregator; late updates
               // are folded in at later rounds with staleness-scaled weights
  kAsync,      // fully event-ordered: every update arrival triggers its
               // aggregator, with bounded staleness
};

const char* to_string(ExecPolicy policy);

struct RunConfig {
  // T — total local (worker) iterations. Must be a multiple of tau * pi.
  std::size_t total_iterations = 200;
  // τ — worker–edge aggregation period (three-tier) or the global
  // aggregation period (two-tier, where pi must be 1).
  std::size_t tau = 10;
  // π — edge–cloud aggregation period. Two-tier algorithms require pi == 1;
  // the paper matches the two-tier τ to the three-tier τ·π for fairness.
  std::size_t pi = 2;

  Scalar eta = 0.01;         // η — worker learning rate
  Scalar gamma = 0.5;        // γ — worker momentum factor
  Scalar gamma_edge = 0.5;   // γℓ — edge/server momentum factor (fixed value;
                             // HierAdMo adapts it online per edge)

  std::size_t batch_size = 16;

  // Evaluation cadence: the engine always evaluates at t = 0 and at every
  // cloud synchronization; eval_every adds intermediate points (0 disables).
  std::size_t eval_every = 0;
  // Cap on test samples per evaluation (0 = full test set).
  std::size_t eval_max_samples = 0;

  std::uint64_t seed = 1;
  std::size_t num_threads = 0;  // 0 = hardware concurrency

  // Fused cohort execution (src/nn/cohort.h): compute the cohort's local
  // gradients through one batched pass of the compiled plan instead of one
  // plan call per worker. Results are bit-identical either way;
  // algorithms that opt out of the prefetch
  // (Algorithm::local_gradient_prefetchable) keep the per-worker calls.
  bool batched = true;

  // ---- Event-driven execution (src/evt/async_engine.h) ----
  //
  // `kSync` runs on either engine; the other policies need evt::AsyncEngine
  // and reject the batched cohort path (it is barrier-shaped: it draws the
  // whole cohort's batches at one instant, which has no meaning when workers
  // progress at their own pace). Set `batched = false` for them explicitly.
  ExecPolicy policy = ExecPolicy::kSync;
  // Semi-async only: how long (modeled seconds) each aggregator round waits
  // before aggregating whatever updates have arrived. Must be > 0 under
  // kSemiAsync and 0 otherwise.
  Scalar semi_async_deadline_s = 0.0;
  // Staleness bound (in aggregator versions): an update more than this many
  // versions behind the aggregator is dropped and its worker force-refreshed.
  // Signed so a negative bound is a loud config error, not a huge unsigned.
  std::int64_t max_staleness = 4;
  // Staleness weight s(τ) = staleness_decay^τ applied multiplicatively to a
  // stale update's data-size weight before renormalization. In (0, 1]; 1
  // disables down-weighting.
  Scalar staleness_decay = 0.5;
  // Default Algorithm::stale_sync policy: per staleness step, shrink the
  // worker's momentum state toward its model by this factor. 1 = hold
  // (keep momentum as-is), 0 = full reset. Mirrors AbsentPolicy::kDecay.
  Scalar stale_momentum_decay = 1.0;
  // Semi-async only: tune each aggregator's admission deadline against the
  // arrival spread it actually observes, instead of holding
  // semi_async_deadline_s fixed. Per fired round the aggregator folds the
  // spread (last − first arrival of the admitted cohort) into an EWMA and
  // arms the next deadline at deadline_margin × EWMA, clamped to
  // [0.25, 4] × semi_async_deadline_s (which also seeds the EWMA).
  bool adaptive_deadline = false;
  // Safety margin over the EWMA'd arrival spread; > 0. Larger admits more
  // of the tail per round (fewer, bigger cohorts), smaller turns rounds
  // around faster at the cost of more stale folds.
  Scalar deadline_margin = 1.5;
  // Mime/MimeLite under cohort sampling: estimate the server statistic ĝ
  // from the materialized cohort with weights renormalized over that cohort,
  // instead of probing every worker's gradient (which requires the full
  // population materialized — the default, bit-identical behavior). Ignored
  // by every other algorithm.
  bool mime_cohort_stats = false;

  // Throws hfl::Error with an actionable message on any inconsistency
  // (non-positive periods, T not a multiple of τ·π, bad hyper-parameters).
  // The engine calls this at construction; call it directly to fail fast
  // when assembling configs programmatically.
  void validate() const;
};

}  // namespace hfl::fl
