// Cohort executor: the one compiled execution path for every architecture —
// worker gradients, batched or one at a time, and evaluation.
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
//                activation; conv stages run each worker's samples through
//                one implicit-GEMM call with the worker's weights packed
//                once as the shared operand (src/tensor/conv_gemm.h), dense
//                stages run one product per worker in place (cross-worker
//                dense products share no operand, so for them the win is the
//                eliminated staging, not GEMM fusion). Execution is TILED:
//                items are grouped so a tile's widest concatenated
//                activation stays within ~2 MB, each tile runs its full
//                forward+backward before the next, and tiles are the
//                parallel unit (one pool task per tile, no intra-stage
//                barriers).
//   * gradient — the same tile code for a few items on the calling thread:
//                one worker's draw, or a paired evaluation of
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
// Flatten is a reshape that moves no data. A Residual block is one native
// stage holding two compiled stage lists, the inner branch and the shortcut
// (empty for the identity), with its parameters laid out as
// Residual::params() does: inner, then shortcut. Forward runs both lists on
// the block input and writes branch + skip into a fresh slot; backward feeds
// the incoming gradient down both lists (the skip path on the block's own
// buffer pair) and sums grad_branch + grad_skip, Residual::backward's order.
// No stage writes a block's input slot in place, since its skip path still
// reads it: a ReLU there gets a fresh slot. Nested Sequentials are flattened
// into the list that holds them. Tanh, Sigmoid and AvgPool2d are fallback
// stages that call the layer's own forward/backward on a copy of the tile's
// rows. Any other layer kind or loss makes `create` throw hfl::Error naming
// it.
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
// FP contract: every item's loss and gradient are bit-identical to Model::loss_and_gradient on the same (params, batch), and
// predict's logits to Model::predict on the same rows, at any thread count,
// tiling and row chunking: work is partitioned by item (gradients) or by
// sample row (predict), every product's per-element accumulation order is
// independent of its row count, and the native stages run the layers'
// arithmetic in the layers' order. ReLU, MaxPool and Flatten only compare
// and move values, a residual sum is one addition per element (and addition
// commutes exactly), and the loss stage repeats loss.cpp expression for
// expression, so the compiler's FMA contraction treats plan and layer code
// alike: the identity holds on the native (FMA) and the portable build
// (scripts/ci_checks.sh runs tests/batched_parity_test.cpp on both).
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
// reports supports_row_gather() — the dense products then read the rows in
// place through the row-gathered GEMM entry points, bit-identical to a
// gathered copy). Batch sizes may differ between items.
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
  // Compiles an execution plan for the factory's architecture. Throws
  // hfl::Error naming the first unsupported layer or loss.
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
  void run(std::span<CohortItem> items, ThreadPool* pool);

  // Loss + flat gradient for a few items (one draw, or two parameter points
  // on one draw) on the calling thread.
  void gradient(std::span<CohortItem> items);

  // Logits (n, K) of the n contiguous samples at `x` under `params`, written
  // to `out` (resized only when its shape differs).
  void predict(const Scalar* params, const Scalar* x, std::size_t n,
               Tensor& out);

 private:
  struct Stage;
  struct Tile;      // the items of one call and their row offsets
  struct Scratch;
  struct Compiler;  // builds the stage list in `create`
  class Lease;      // checks a scratch out of free_scratch_ for one call
  CohortModel();

  std::unique_ptr<Scratch> acquire();
  void release(std::unique_ptr<Scratch> scratch);

  // Validates the items and fills `row_off` with the prefix sums of their
  // batch sizes.
  void index_items(std::span<const CohortItem> items,
                   std::vector<std::size_t>& row_off) const;

  // Forward pass of a tile; returns its logits. `train` records what
  // backward needs.
  const Scalar* forward(Scratch& sc, const Tile& t, bool train);
  // Full forward+backward of a tile on one thread.
  void run_tile(Scratch& sc, const Tile& t);
  // One stage of either pass. `direct` reads the items' inputs in place;
  // `dead` skips the input gradient. On entry *g holds the gradient w.r.t.
  // the stage output, on return w.r.t. its input (a stage that writes the
  // other buffer swaps the two).
  void forward_stage(Scratch& sc, const Stage& st, const Tile& t, bool direct,
                     bool train);
  void backward_stage(Scratch& sc, const Stage& st, const Tile& t,
                      bool direct, bool dead, Vec*& g, Vec*& gin);

  // Stage helpers. `in == nullptr` selects direct-input mode (read each
  // item's own mini-batch in place); `gin == nullptr` skips the dead input
  // gradient of the first parametric stage.
  void dense_forward(const Stage& st, const Scalar* in, Scalar* out,
                     const Tile& t) const;
  void dense_backward(Scratch& sc, const Stage& st, const Scalar* in,
                      const Scalar* gout, Scalar* gin, const Tile& t) const;
  void conv_forward(const Stage& st, const Scalar* in, Scalar* out,
                    const Tile& t) const;
  void conv_backward(const Stage& st, const Scalar* in, const Scalar* gout,
                     Scalar* gin, const Tile& t) const;
  void loss_stage(const Scalar* logits, Scalar* grad, const Tile& t) const;

  ModelFactory factory_;  // builds fallback-stage layer instances
  LossPtr loss_;
  std::vector<Stage> stages_;
  std::size_t num_params_ = 0;
  std::size_t num_slots_ = 1;      // activation buffers (slot 0 = input)
  std::size_t num_pools_ = 0;      // MaxPool argmax buffers
  std::size_t num_blocks_ = 0;     // Residual blocks (skip-path buffers)
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
