// Cohort executor: the one compiled execution path for every architecture it
// supports — worker gradients, batched or one at a time, and evaluation.
//
// The generic path evaluates a gradient through a Model instance: set_params
// copies the flat vector into layer tensors, zero_grads clears them,
// forward/backward run through layer-owned tensors (ReLU and Flatten copy
// their whole input, Dense caches a copy of its input), get_grads copies the
// result back out. A compiled plan does the same arithmetic with none of the
// staging: dense/conv products read parameters straight from the caller's
// flat vector and accumulate straight into its flat gradient.
//
// Three entry points share one plan:
//   * run      — the batched cohort pass. Worker i's mini-batch occupies the
//                contiguous row segment [row_off[i], row_off[i+1]) of every
//                activation; conv stages run their per-sample im2col products
//                as strided-batch GEMMs with the worker's weights as a shared
//                packed operand (src/tensor/gemm_batched.h), dense stages run
//                one product per worker in place (cross-worker dense products
//                share no operand, so for them the win is the eliminated
//                staging, not GEMM fusion). Execution is TILED: items are
//                grouped so a tile's widest concatenated activation stays
//                within ~2 MB, each tile runs its full forward+backward before
//                the next, and tiles are the parallel unit (one pool task per
//                tile, no intra-stage barriers).
//   * gradient — the same tile code for a few items on the calling thread at
//                full precision: one worker's draw, or a paired evaluation of
//                two parameter points on one draw (WorkerState's unbatched
//                gradients — every sync algorithm that opts out of prefetch
//                and every evt::AsyncEngine policy).
//   * predict  — forward only, one shared parameter vector over n contiguous
//                sample rows (an evaluation batch read in place from the
//                dataset), run in cache-sized row chunks. No loss, no backward,
//                no gradient buffers; the caller scores the logits with the
//                model's own loss (nn::evaluate_predictions).
//
// Stages. Dense and Conv2d read their parameters by offset into the flat
// vector. ReLU, MaxPool2d and Flatten are native stages over the plan's
// reused activation and gradient buffers: ReLU runs in place and masks its
// backward by its own output (out ≤ 0 ⇔ in ≤ 0, NaN passing both ways, so
// the mask is the layer's); MaxPool records its argmax only when training;
// Flatten is a reshape that moves no data. Tanh, Sigmoid and AvgPool2d are
// fallback stages that call the layer's own forward/backward on a copy of the
// tile's rows. Everything else (Residual, nested Sequential, unknown layer
// kinds or losses) makes `create` return nullptr, and the caller keeps the
// per-model path (fl::Engine then builds per-worker models and per-thread
// eval models).
//
// The plan also skips work the generic layer chain cannot see:
//   * Dead input gradients — backward stops at the model's FIRST parametric
//     stage: every stage before it is parameter-free, so that stage's dX has
//     no consumer. For a logistic/MLP front layer this removes the widest
//     backward GEMM; for a conv front layer, the dCol product and col2im.
//   * Direct input — when everything before the first parametric stage is a
//     Flatten, dense/conv products read each item's mini-batch in place
//     (contiguous rows, or dataset row pointers for a dense-first plan), so
//     the concatenated input is never materialized.
//
// State. The stage list is immutable after `create`. Activation, gradient
// and argmax buffers live in per-thread scratch: every call checks one out of
// the plan's free list and returns it, so at most one scratch exists per
// concurrently calling thread and all three entry points may run
// concurrently from pool threads (parallel local steps, parallel eval
// blocks). Which scratch a call gets never shows in its results.
//
// FP contract: with `mixed == false`, every item's loss and gradient are
// bit-identical to Model::loss_and_gradient on the same (params, batch), and
// predict's logits to Model::predict on the same rows, at any thread count,
// tiling and row chunking: work is partitioned by item (gradients) or by
// sample row (predict), every product's per-element accumulation order is
// independent of its row count, and the native stages run the layers'
// arithmetic in the layers' order. ReLU, MaxPool and Flatten only compare
// and move values, and the loss stage repeats loss.cpp expression for
// expression, so the compiler's FMA contraction treats plan and layer code
// alike: the identity holds on the native (FMA) and the portable build
// (scripts/ci_checks.sh runs tests/batched_parity_test.cpp on both).
// `mixed == true` (batched run only) switches dense/conv products to the
// FP32-compute / FP64-accumulate kernels (src/tensor/gemm_mixed.h): ≤1e-6
// relative error, NOT bit-identical, opt-in via RunConfig::mixed_precision.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/nn/model.h"

namespace hfl {

class ThreadPool;  // src/common/thread_pool.h

}  // namespace hfl

namespace hfl::nn {

// One worker's slot in a gradient pass. `params` and `grad` are flat vectors
// of the model's num_params(); `grad` is overwritten (not accumulated). The
// mini-batch holds y->size() samples of sample_elems() scalars each, given
// either contiguously at `x` or — zero-copy — as one row pointer per sample
// at `x_rows` (dataset rows drawn by Batcher::next_rows; only when the plan
// reports supports_row_gather() and `mixed` is off — the dense products then
// read the rows in place through the row-gathered GEMM entry points,
// bit-identical to a gathered copy). Batch sizes may differ between items.
struct CohortItem {
  const Scalar* params = nullptr;
  const Scalar* x = nullptr;
  const Scalar* const* x_rows = nullptr;
  const std::vector<std::size_t>* y = nullptr;
  Scalar* grad = nullptr;
  Scalar loss = 0;  // out: mean batch loss
};

class CohortModel {
 public:
  // Compiles an execution plan for the factory's architecture, or returns
  // nullptr if any layer/loss is unsupported (caller keeps the model path).
  static std::unique_ptr<CohortModel> create(const ModelFactory& factory);

  ~CohortModel();

  std::size_t num_params() const { return num_params_; }
  // Scalars per input sample (the product of the model's sample shape).
  std::size_t sample_elems() const { return sample_elems_; }
  // The model's loss; clone it to score predict's logits.
  const Loss& loss_fn() const { return *loss_; }

  // True when items may carry `x_rows` instead of contiguous `x`: the plan
  // is direct-input (flatten-only prefix) and its first parametric stage is
  // dense, so every read of the input consumes flat sample rows.
  bool supports_row_gather() const;

  // Loss + flat gradient for every item, tile-parallel on `pool` (null =
  // serial). See the FP contract above.
  void run(std::span<CohortItem> items, ThreadPool* pool, bool mixed);

  // Loss + flat gradient for a few items (one draw, or two parameter points
  // on one draw) on the calling thread, at full precision.
  void gradient(std::span<CohortItem> items);

  // Logits (n, K) of the n contiguous samples at `x` under `params`, written
  // to `out` (resized only when its shape differs).
  void predict(const Scalar* params, const Scalar* x, std::size_t n,
               Tensor& out);

 private:
  struct Stage;
  struct Scratch;
  class Lease;  // checks a scratch out of free_scratch_ for one call
  CohortModel();

  std::unique_ptr<Scratch> acquire();
  void release(std::unique_ptr<Scratch> scratch);

  // Validates the items and fills `row_off` with the prefix sums of their
  // batch sizes.
  void index_items(std::span<const CohortItem> items, bool mixed,
                   std::vector<std::size_t>& row_off) const;

  // Forward pass of items [ilo, ihi) (rows row_off[ilo]..row_off[ihi]);
  // returns the tile's logits. `train` records what backward needs.
  const Scalar* forward(Scratch& sc, const std::size_t* row_off,
                        std::span<CohortItem> items, std::size_t ilo,
                        std::size_t ihi, bool mixed, bool train);
  // Full forward+backward for items [ilo, ihi) on one thread.
  void run_tile(Scratch& sc, const std::size_t* row_off,
                std::span<CohortItem> items, std::size_t ilo,
                std::size_t ihi, bool mixed);

  // Stage helpers. `in == nullptr` selects direct-input mode (read each
  // item's own mini-batch in place); `gin == nullptr` skips the dead input
  // gradient of the first parametric stage.
  void dense_forward(const Stage& st, const Scalar* in, Scalar* out,
                     std::span<CohortItem> items, const std::size_t* row_off,
                     std::size_t ilo, std::size_t ihi, bool mixed) const;
  void dense_backward(Scratch& sc, const Stage& st, const Scalar* in,
                      const Scalar* gout, Scalar* gin,
                      std::span<CohortItem> items, const std::size_t* row_off,
                      std::size_t ilo, std::size_t ihi, bool mixed) const;
  void conv_forward(const Stage& st, const Scalar* in, Scalar* out,
                    std::span<CohortItem> items, const std::size_t* row_off,
                    std::size_t ilo, std::size_t ihi, bool mixed) const;
  void conv_backward(const Stage& st, const Scalar* in, const Scalar* gout,
                     Scalar* gin, std::span<CohortItem> items,
                     const std::size_t* row_off, std::size_t ilo,
                     std::size_t ihi, bool mixed) const;
  void loss_stage(const Scalar* logits, Scalar* grad,
                  std::span<CohortItem> items, const std::size_t* row_off,
                  std::size_t ilo, std::size_t ihi) const;

  ModelFactory factory_;  // builds fallback-stage layer instances
  LossPtr loss_;
  std::vector<Stage> stages_;
  std::size_t num_params_ = 0;
  std::size_t num_slots_ = 1;      // activation buffers (slot 0 = input)
  std::size_t num_pools_ = 0;      // MaxPool argmax buffers
  bool has_layer_stages_ = false;  // any fallback stage
  bool softmax_loss_ = false;
  std::size_t first_param_ = 0;    // backward stops here (dead dX above)
  bool direct_input_ = false;      // read items' inputs in place
  std::size_t sample_elems_ = 1;   // elements per sample (flattened)
  std::size_t max_row_elems_ = 1;  // widest activation, elems per sample row

  std::mutex scratch_mu_;
  std::vector<std::unique_ptr<Scratch>> free_scratch_;
};

}  // namespace hfl::nn
