#include "src/nn/cohort.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/errors.h"
#include "src/common/thread_pool.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/pool2d.h"
#include "src/nn/residual.h"
#include "src/tensor/gemm.h"

namespace hfl::nn {
namespace {

// Tile activation budget: the largest concatenated activation of a tile (or
// of a predict row chunk) stays within ~2 MB of Scalar so its working set is
// cache-resident. Purely a performance knob — results do not depend on
// tiling or chunking (see cohort.h).
constexpr std::size_t kTileElems = std::size_t{1} << 18;

// Buffers only grow: a smaller tile reuses the front of a larger one, and no
// call pays for re-zeroing storage it overwrites anyway.
template <typename T>
T* grow(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

std::vector<std::size_t> with_rows(std::size_t rows,
                                   const std::vector<std::size_t>& shape) {
  std::vector<std::size_t> out{rows};
  out.insert(out.end(), shape.begin(), shape.end());
  return out;
}

// The leaf layers of `layer` in compilation order: a Sequential's layers in
// turn, a Residual's inner branch and then its shortcut. A fallback stage
// finds its layer instance in a scratch model by this order.
void collect_leaves(Layer& layer, std::vector<Layer*>& out) {
  if (auto* seq = dynamic_cast<Sequential*>(&layer)) {
    for (std::size_t i = 0; i < seq->num_layers(); ++i) {
      collect_leaves(seq->layer(i), out);
    }
  } else if (auto* res = dynamic_cast<Residual*>(&layer)) {
    collect_leaves(res->inner(), out);
    if (res->shortcut() != nullptr) collect_leaves(*res->shortcut(), out);
  } else {
    out.push_back(&layer);
  }
}

}  // namespace

struct CohortModel::Stage {
  enum class Kind {
    kDense, kConv, kRelu, kMaxPool, kFlatten, kLayer, kResidual
  };
  Kind kind = Kind::kLayer;
  // Activation buffers read and written; equal for the in-place stages
  // (ReLU, Flatten).
  std::size_t in_slot = 0, out_slot = 0;
  // Per-sample shapes and element counts of the stage input and output.
  std::vector<std::size_t> in_shape, out_shape;
  std::size_t in_row = 0, out_row = 0;
  Conv2d::Spec conv;                 // kConv
  std::size_t window = 0, pool = 0;  // kMaxPool: window, argmax buffer
  std::size_t layer = 0;             // kLayer: index into Scratch::leaves
  std::size_t w_off = 0, b_off = 0;  // offsets into the flat param/grad vecs
  // kResidual: the inner branch and the shortcut (empty = identity), both
  // reading in_slot, the slots holding their outputs, and the index of the
  // block's skip-path gradient buffers in Scratch.
  std::vector<Stage> inner, shortcut;
  std::size_t branch_slot = 0, skip_slot = 0, block = 0;
};

// The items [ilo, ihi) of one call and their row offsets.
struct CohortModel::Tile {
  std::span<CohortItem> items;
  const std::size_t* row_off;
  std::size_t ilo, ihi;
  std::size_t rows() const { return row_off[ihi] - row_off[ilo]; }
};

// One caller's buffers. Activation slots, the two backward ping-pong
// buffers, each residual block's skip-path pair and the argmax tables are
// sized by the largest tile seen and reused; `model` owns the fallback
// stages' layer instances (which cache forward state for backward), indexed
// by `leaves`, and exists only for plans that have any.
struct CohortModel::Scratch {
  std::vector<Vec> acts;
  Vec g, gin;
  std::vector<Vec> skip_g, skip_gin;
  std::vector<std::vector<std::size_t>> argmax;
  Vec db;
  std::vector<std::size_t> row_off;
  std::unique_ptr<Model> model;
  std::vector<Layer*> leaves;
};

// Compiles layers into stages. The counters run across nesting levels in
// compilation order — a Sequential's layers in turn, a Residual's inner
// branch before its shortcut — which is also Residual::params()' order, so
// parameter offsets follow the model's flat layout.
struct CohortModel::Compiler {
  std::size_t num_slots = 1, num_pools = 0, num_blocks = 0, num_leaves = 0;
  std::size_t off = 0;
  std::size_t max_row_elems = 1;
  bool has_layer_stages = false;
  // Input slots of the enclosing residual blocks: their skip paths read
  // them after the inner stages ran, so no stage may write them in place.
  std::vector<std::size_t> guarded;

  // Appends the stages of `layer` (a Sequential's layers, or the layer
  // itself) reading activation `slot` of per-sample `shape`, and advances
  // both to the output of the chain.
  void chain(Layer& layer, std::vector<std::size_t>& shape, std::size_t& slot,
             std::vector<Stage>& out) {
    if (auto* seq = dynamic_cast<Sequential*>(&layer)) {
      for (std::size_t i = 0; i < seq->num_layers(); ++i) {
        chain(seq->layer(i), shape, slot, out);
      }
      return;
    }
    out.push_back(stage(layer, shape, slot));
    shape = out.back().out_shape;
    slot = out.back().out_slot;
  }

  Stage stage(Layer& layer, const std::vector<std::size_t>& shape,
              std::size_t slot);
  Stage residual(Residual& res, Stage st);

  static bool has_params(const Stage& st) {
    const auto any = [](const std::vector<Stage>& chain) {
      return std::any_of(chain.begin(), chain.end(), has_params);
    };
    return st.kind == Stage::Kind::kDense || st.kind == Stage::Kind::kConv ||
           any(st.inner) || any(st.shortcut);
  }
};

CohortModel::Stage CohortModel::Compiler::stage(
    Layer& layer, const std::vector<std::size_t>& in_shape,
    std::size_t slot) {
  Stage st;
  st.in_shape = in_shape;
  st.in_row = Tensor::shape_size(in_shape);
  st.in_slot = slot;
  if (auto* r = dynamic_cast<Residual*>(&layer)) {
    return residual(*r, std::move(st));
  }
  const std::string kind = layer.kind();
  const auto fits = [&](bool ok) {
    HFL_CHECK(ok, "nn::CohortModel: " + kind +
                      " layer does not fit its input shape");
  };
  st.layer = num_leaves++;
  std::vector<std::size_t> shape = in_shape;
  bool in_place = false;
  if (auto* d = dynamic_cast<Dense*>(&layer)) {
    fits(shape.size() == 1 && shape[0] == d->in_features());
    st.kind = Stage::Kind::kDense;
    st.w_off = off;
    st.b_off = off + d->out_features() * d->in_features();
    off = st.b_off + d->out_features();
    shape = {d->out_features()};
  } else if (auto* c = dynamic_cast<Conv2d*>(&layer)) {
    st.kind = Stage::Kind::kConv;
    st.conv = {c->in_channels(), c->out_channels(), c->kernel(),
               c->padding()};
    const Conv2d::Spec& s = st.conv;
    fits(shape.size() == 3 && shape[0] == s.in_ch &&
         shape[1] + 2 * s.pad >= s.k && shape[2] + 2 * s.pad >= s.k);
    st.w_off = off;
    st.b_off = off + s.out_ch * s.kk();
    off = st.b_off + s.out_ch;
    shape = {s.out_ch, shape[1] + 2 * s.pad - s.k + 1,
             shape[2] + 2 * s.pad - s.k + 1};
  } else if (auto* p = dynamic_cast<MaxPool2d*>(&layer)) {
    fits(shape.size() == 3 && shape[1] % p->window() == 0 &&
         shape[2] % p->window() == 0);
    st.kind = Stage::Kind::kMaxPool;
    st.window = p->window();
    st.pool = num_pools++;
    shape = {shape[0], shape[1] / st.window, shape[2] / st.window};
  } else if (kind == "relu") {
    // In place, unless a skip path still reads the slot.
    st.kind = Stage::Kind::kRelu;
    in_place = std::find(guarded.begin(), guarded.end(), slot) == guarded.end();
  } else if (kind == "flatten") {
    st.kind = Stage::Kind::kFlatten;  // a reshape: never writes its slot
    in_place = true;
    shape = {st.in_row};
  } else {
    // Fallback stages run the layer itself; they treat batch rows (or
    // NCHW planes) independently, so a tile's row segments come out
    // bit-identical to per-model calls. A one-sample dry forward gives
    // the output shape.
    HFL_CHECK(kind == "tanh" || kind == "sigmoid" || kind == "avgpool2d",
              "nn::CohortModel: unsupported layer '" + kind + "'");
    st.kind = Stage::Kind::kLayer;
    has_layer_stages = true;
    const Tensor y = layer.forward(Tensor(with_rows(1, shape)), false);
    shape.assign(y.shape().begin() + 1, y.shape().end());
  }
  st.out_shape = shape;
  st.out_row = Tensor::shape_size(shape);
  st.out_slot = in_place ? slot : num_slots++;
  max_row_elems = std::max(max_row_elems, st.out_row);
  return st;
}

CohortModel::Stage CohortModel::Compiler::residual(Residual& res, Stage st) {
  st.kind = Stage::Kind::kResidual;
  st.block = num_blocks++;
  guarded.push_back(st.in_slot);
  std::vector<std::size_t> branch = st.in_shape, skip = st.in_shape;
  st.branch_slot = st.skip_slot = st.in_slot;
  chain(res.inner(), branch, st.branch_slot, st.inner);
  if (res.shortcut() != nullptr) {
    chain(*res.shortcut(), skip, st.skip_slot, st.shortcut);
  }
  guarded.pop_back();
  HFL_CHECK(branch == skip,
            "nn::CohortModel: residual branch/shortcut shape mismatch");
  st.out_shape = branch;
  st.out_row = Tensor::shape_size(branch);
  // A fresh slot: backward still reads the branch's last output (a ReLU
  // masks by its own) and the block input.
  st.out_slot = num_slots++;
  max_row_elems = std::max(max_row_elems, st.out_row);
  return st;
}

class CohortModel::Lease {
 public:
  explicit Lease(CohortModel& plan) : plan_(plan), sc_(plan.acquire()) {}
  ~Lease() { plan_.release(std::move(sc_)); }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  Scratch& operator*() { return *sc_; }
  Scratch* operator->() { return sc_.get(); }

 private:
  CohortModel& plan_;
  std::unique_ptr<Scratch> sc_;
};

CohortModel::CohortModel() = default;

CohortModel::~CohortModel() = default;

std::unique_ptr<CohortModel::Scratch> CohortModel::acquire() {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  if (!free_scratch_.empty()) {
    std::unique_ptr<Scratch> sc = std::move(free_scratch_.back());
    free_scratch_.pop_back();
    return sc;
  }
  auto sc = std::make_unique<Scratch>();
  sc->acts.resize(num_slots_);
  sc->skip_g.resize(num_blocks_);
  sc->skip_gin.resize(num_blocks_);
  sc->argmax.resize(num_pools_);
  // Under the lock: model factories are not required to be thread-safe.
  if (has_layer_stages_) {
    sc->model = factory_();
    collect_leaves(sc->model->net(), sc->leaves);
  }
  return sc;
}

void CohortModel::release(std::unique_ptr<Scratch> scratch) {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  free_scratch_.push_back(std::move(scratch));
}

bool CohortModel::supports_row_gather() const {
  return direct_input_ && stages_[first_param_].kind == Stage::Kind::kDense;
}

std::unique_ptr<CohortModel> CohortModel::create(const ModelFactory& factory) {
  auto probe = factory();
  Compiler c;
  std::vector<std::size_t> shape = probe->sample_shape();
  std::size_t slot = 0;
  c.max_row_elems = Tensor::shape_size(shape);
  std::vector<Stage> stages;
  c.chain(probe->net(), shape, slot, stages);
  HFL_CHECK(c.off == probe->num_params(),
            "nn::CohortModel: unexpected parameter layout");
  HFL_CHECK(shape.size() == 1, "nn::CohortModel: the loss needs (B, K) logits");
  const std::string loss_kind = probe->loss_fn().kind();
  HFL_CHECK(loss_kind == "softmax_ce" || loss_kind == "mse_onehot",
            "nn::CohortModel: unsupported loss '" + loss_kind + "'");

  // First parametric stage: its input gradient has no consumer (the stages
  // before it are parameter-free), so the backward pass stops there. When
  // it is a dense or conv stage and every stage before it is a Flatten — a
  // pure reshape — the executor reads each item's mini-batch in place and
  // never materializes the concatenated input at all.
  std::size_t first_param = 0;
  while (first_param < stages.size() &&
         !Compiler::has_params(stages[first_param])) {
    ++first_param;
  }
  HFL_CHECK(first_param < stages.size(),
            "nn::CohortModel: the model has no parameters to train");
  bool direct_input = stages[first_param].kind != Stage::Kind::kResidual;
  for (std::size_t i = 0; i < first_param; ++i) {
    if (stages[i].kind != Stage::Kind::kFlatten) direct_input = false;
  }

  auto plan = std::unique_ptr<CohortModel>(new CohortModel());
  plan->factory_ = factory;
  plan->loss_ = probe->loss_fn().clone();
  plan->stages_ = std::move(stages);
  plan->num_params_ = probe->num_params();
  plan->num_slots_ = c.num_slots;
  plan->num_pools_ = c.num_pools;
  plan->num_blocks_ = c.num_blocks;
  plan->has_layer_stages_ = c.has_layer_stages;
  plan->softmax_loss_ = loss_kind == "softmax_ce";
  plan->first_param_ = first_param;
  plan->direct_input_ = direct_input;
  plan->sample_elems_ = Tensor::shape_size(probe->sample_shape());
  plan->max_row_elems_ = c.max_row_elems;
  return plan;
}

// Dense forward: per item, y_seg = x_seg · W_iᵀ + b_i — the exact
// matmul_transpose_b + add_row_bias sequence of Dense::forward, evaluated on
// the item's row segment and reading the worker's parameters in place.
// (Conv stages are different: within one worker the weight operand is
// shared across samples, and the conv spans batch those products — see
// conv2d.h.)
void CohortModel::dense_forward(const Stage& st, const Scalar* in,
                                Scalar* out, const Tile& t) const {
  const auto& [items, row_off, ilo, ihi] = t;
  const std::size_t nin = st.in_row, nout = st.out_row;
  const std::size_t base = row_off[ilo];
  for (std::size_t i = ilo; i < ihi; ++i) {
    const std::size_t row = row_off[i] - base;
    const std::size_t b = row_off[i + 1] - row_off[i];
    Scalar* py = out + row * nout;
    if (in == nullptr && items[i].x_rows != nullptr) {
      // Row-gather mode: the A operand is read row-by-row straight from the
      // dataset — bit-identical to the gathered-tensor product below.
      ops::gemm_rows_a(b, nout, nin, items[i].x_rows, /*trans_b=*/true,
                       items[i].params + st.w_off, nin, 0.0, py, nout);
    } else {
      const Scalar* a = in != nullptr ? in + row * nin : items[i].x;
      ops::gemm(false, true, b, nout, nin, a, nin, items[i].params + st.w_off,
                nin, 0.0, py, nout);
    }
    // Bias rows, replicating ops::add_row_bias on the segment.
    const Scalar* pb = items[i].params + st.b_off;
    for (std::size_t r = 0; r < b; ++r) {
      for (std::size_t j = 0; j < nout; ++j) py[r * nout + j] += pb[j];
    }
  }
}

// Dense backward, replicating Dense::backward per item: dW accumulated by
// the GEMM with β = 1 straight into the (zeroed) flat grad, db via the
// sum_rows loop, and grad_in = g_seg · W_i. Dense::backward computes dW into
// a scratch tensor and adds it to the zeroed gradient; β = 1 has the same
// bits: the GEMM folds β = 1 as a no-op and accumulates every k panel into
// C, so each element is the same chain started from the +0.0 already there,
// which is also how a β = 0 product starts. A nonzero sum is unchanged by
// the extra +0.0, and a zero sum started from +0.0 is +0.0, as the add into
// the zeroed gradient makes it. `gin == nullptr` skips the grad_in product (first
// parametric stage: dX is dead); `in == nullptr` is direct-input mode as in
// dense_forward.
void CohortModel::dense_backward(Scratch& sc, const Stage& st,
                                 const Scalar* in, const Scalar* gout,
                                 Scalar* gin, const Tile& t) const {
  const auto& [items, row_off, ilo, ihi] = t;
  const std::size_t nin = st.in_row, nout = st.out_row;
  const std::size_t base = row_off[ilo];
  Scalar* db = grow(sc.db, nout);
  for (std::size_t i = ilo; i < ihi; ++i) {
    const std::size_t row = row_off[i] - base;
    const std::size_t b = row_off[i + 1] - row_off[i];
    const Scalar* pg = gout + row * nout;
    // dW_i = g_segᵀ · x_seg (matmul_transpose_a shape conventions). In
    // row-gather mode the B operand (the mini-batch) is read row-by-row from
    // the dataset — bit-identical to the gathered-tensor product.
    Scalar* gw = items[i].grad + st.w_off;
    if (in == nullptr && items[i].x_rows != nullptr) {
      ops::gemm_rows_b(/*trans_a=*/true, nout, nin, b, pg, nout,
                       items[i].x_rows, 1.0, gw, nin);
    } else {
      const Scalar* a = in != nullptr ? in + row * nin : items[i].x;
      ops::gemm(true, false, nout, nin, b, pg, nout, a, nin, 1.0, gw, nin);
    }

    // db: sum_rows into scratch, then += — same loops, same order.
    std::fill(db, db + nout, 0.0);
    for (std::size_t r = 0; r < b; ++r) {
      for (std::size_t j = 0; j < nout; ++j) db[j] += pg[r * nout + j];
    }
    Scalar* gb = items[i].grad + st.b_off;
    for (std::size_t j = 0; j < nout; ++j) gb[j] += db[j];

    // grad_in = g_seg · W_i, reading the worker's weights in place.
    if (gin != nullptr) {
      ops::gemm(false, false, b, nin, nout, pg, nout,
                items[i].params + st.w_off, nin, 0.0, gin + row * nin, nin);
    }
  }
}

// `in == nullptr`: direct-input mode, each item's mini-batch is the conv
// input (first parametric stage of a conv-first model).
void CohortModel::conv_forward(const Stage& st, const Scalar* in, Scalar* out,
                               const Tile& t) const {
  const auto& [items, row_off, ilo, ihi] = t;
  const std::size_t H = st.in_shape[1], W = st.in_shape[2];
  const std::size_t base = row_off[ilo];
  for (std::size_t i = ilo; i < ihi; ++i) {
    const std::size_t row = row_off[i] - base;
    const Scalar* x0 = in != nullptr ? in + row * st.in_row : items[i].x;
    Conv2d::forward_span(st.conv, H, W, items[i].params + st.w_off,
                         items[i].params + st.b_off, x0,
                         row_off[i + 1] - row_off[i], out + row * st.out_row);
  }
}

// `gin == nullptr` skips dX (first parametric stage); `in == nullptr` is
// direct-input mode.
void CohortModel::conv_backward(const Stage& st, const Scalar* in,
                                const Scalar* gout, Scalar* gin,
                                const Tile& t) const {
  const auto& [items, row_off, ilo, ihi] = t;
  const std::size_t H = st.in_shape[1], W = st.in_shape[2];
  const std::size_t base = row_off[ilo];
  if (gin != nullptr) {
    // col2im scatter-adds into it.
    std::fill(gin, gin + (row_off[ihi] - base) * st.in_row, 0.0);
  }
  for (std::size_t i = ilo; i < ihi; ++i) {
    const std::size_t row = row_off[i] - base;
    const Scalar* x0 = in != nullptr ? in + row * st.in_row : items[i].x;
    Conv2d::backward_span(st.conv, H, W, items[i].params + st.w_off, x0,
                          row_off[i + 1] - row_off[i],
                          gout + row * st.out_row, items[i].grad + st.w_off,
                          items[i].grad + st.b_off,
                          gin != nullptr ? gin + row * st.in_row : nullptr);
  }
}

// Loss forward + backward fused per item, replicating loss.cpp on each row
// segment with the item's own batch size in the 1/B mean. `grad` receives
// the gradient w.r.t. the logits.
void CohortModel::loss_stage(const Scalar* logits, Scalar* grad,
                             const Tile& t) const {
  const auto& [items, row_off, ilo, ihi] = t;
  const std::size_t K = stages_.back().out_row;
  const std::size_t base = row_off[ilo];
  std::copy(logits, logits + (row_off[ihi] - base) * K, grad);
  const bool softmax = softmax_loss_;

  for (std::size_t i = ilo; i < ihi; ++i) {
    const std::size_t b = row_off[i + 1] - row_off[i];
    const std::vector<std::size_t>& labels = *items[i].y;
    for (const std::size_t y : labels) {
      HFL_CHECK(y < K, "label out of class range");
    }
    Scalar* pp = grad + (row_off[i] - base) * K;
    Scalar total = 0;
    if (softmax) {
      for (std::size_t r = 0; r < b; ++r) {
        Scalar* row = pp + r * K;
        Scalar mx = row[0];
        for (std::size_t j = 1; j < K; ++j) mx = std::max(mx, row[j]);
        Scalar denom = 0;
        for (std::size_t j = 0; j < K; ++j) {
          row[j] = std::exp(row[j] - mx);
          denom += row[j];
        }
        const Scalar inv = 1.0 / denom;
        for (std::size_t j = 0; j < K; ++j) row[j] *= inv;
        // Clamp to avoid -inf when a probability underflows to zero.
        total += -std::log(std::max(row[labels[r]], Scalar{1e-300}));
      }
    } else {
      for (std::size_t r = 0; r < b; ++r) {
        for (std::size_t j = 0; j < K; ++j) {
          const Scalar target = (j == labels[r]) ? 1.0 : 0.0;
          const Scalar d = pp[r * K + j] - target;
          total += 0.5 * d * d;
        }
      }
    }
    items[i].loss = total / static_cast<Scalar>(b);

    // Backward: grad rows are the (softmax probs | predictions) with 1
    // subtracted at the label, scaled by the item's 1/B.
    const Scalar inv_b = 1.0 / static_cast<Scalar>(b);
    for (std::size_t r = 0; r < b; ++r) {
      pp[r * K + labels[r]] -= 1.0;
      for (std::size_t j = 0; j < K; ++j) pp[r * K + j] *= inv_b;
    }
  }
}

const Scalar* CohortModel::forward(Scratch& sc, const Tile& t, bool train) {
  const std::size_t base = t.row_off[t.ilo];

  // Tile input: concatenate the tile's mini-batches — skipped entirely in
  // direct-input mode, where the first parametric stage reads each item's
  // rows in place (any leading Flatten is a pure reshape).
  if (!direct_input_) {
    Scalar* in0 = grow(sc.acts[0], t.rows() * sample_elems_);
    for (std::size_t i = t.ilo; i < t.ihi; ++i) {
      std::memcpy(in0 + (t.row_off[i] - base) * sample_elems_, t.items[i].x,
                  (t.row_off[i + 1] - t.row_off[i]) * sample_elems_ *
                      sizeof(Scalar));
    }
  }
  for (std::size_t s = direct_input_ ? first_param_ : 0; s < stages_.size();
       ++s) {
    forward_stage(sc, stages_[s], t, direct_input_ && s == first_param_,
                  train);
  }
  return sc.acts[stages_.back().out_slot].data();
}

void CohortModel::forward_stage(Scratch& sc, const Stage& st, const Tile& t,
                                bool direct, bool train) {
  const std::size_t rows = t.rows();
  Scalar* out = grow(sc.acts[st.out_slot], rows * st.out_row);
  const Scalar* in = direct ? nullptr : sc.acts[st.in_slot].data();
  switch (st.kind) {
    case Stage::Kind::kDense:
      dense_forward(st, in, out, t);
      break;
    case Stage::Kind::kConv:
      conv_forward(st, in, out, t);
      break;
    case Stage::Kind::kRelu:  // out aliases in unless the slot is guarded
      for (std::size_t e = 0; e < rows * st.out_row; ++e) {
        out[e] = in[e] < 0 ? 0 : in[e];
      }
      break;
    case Stage::Kind::kFlatten:  // a reshape: out aliases in
      break;
    case Stage::Kind::kMaxPool:
      // The argmax table is recorded only for a backward pass.
      MaxPool2d::forward_planes(
          st.window, rows * st.in_shape[0], st.in_shape[1], st.in_shape[2],
          in, out,
          train ? grow(sc.argmax[st.pool], rows * st.out_row) : nullptr);
      break;
    case Stage::Kind::kLayer: {
      Tensor x(with_rows(rows, st.in_shape));
      std::copy(in, in + rows * st.in_row, x.raw());
      const Tensor y = sc.leaves[st.layer]->forward(x, train);
      std::copy(y.raw(), y.raw() + rows * st.out_row, out);
      break;
    }
    case Stage::Kind::kResidual: {
      // Residual::forward: branch + skip, both read from the block input.
      for (const Stage& s : st.inner) forward_stage(sc, s, t, false, train);
      for (const Stage& s : st.shortcut) forward_stage(sc, s, t, false, train);
      const Scalar* branch = sc.acts[st.branch_slot].data();
      const Scalar* skip = sc.acts[st.skip_slot].data();
      for (std::size_t e = 0; e < rows * st.out_row; ++e) {
        out[e] = branch[e] + skip[e];
      }
      break;
    }
  }
}

void CohortModel::run_tile(Scratch& sc, const Tile& t) {
  for (std::size_t i = t.ilo; i < t.ihi; ++i) {
    std::fill(t.items[i].grad, t.items[i].grad + num_params_, 0.0);
  }

  const Scalar* logits = forward(sc, t, /*train=*/true);
  Vec* g = &sc.g;
  Vec* gin = &sc.gin;
  loss_stage(logits, grow(*g, t.rows() * stages_.back().out_row), t);

  // Backward stops at the first parametric stage: everything before it is
  // parameter-free, so its input gradient is dead work (nn::Model's
  // generic layer chain cannot know this and computes it anyway).
  for (std::size_t s = stages_.size(); s-- > first_param_;) {
    const bool last = s == first_param_;
    backward_stage(sc, stages_[s], t, direct_input_ && last, last, g, gin);
  }
}

void CohortModel::backward_stage(Scratch& sc, const Stage& st, const Tile& t,
                                 bool direct, bool dead, Vec*& g,
                                 Vec*& gin) {
  const std::size_t rows = t.rows();
  const Scalar* in = direct ? nullptr : sc.acts[st.in_slot].data();
  Scalar* gout = g->data();
  switch (st.kind) {
    case Stage::Kind::kDense:
      dense_backward(sc, st, in, gout,
                     dead ? nullptr : grow(*gin, rows * st.in_row), t);
      break;
    case Stage::Kind::kConv:
      conv_backward(st, in, gout,
                    dead ? nullptr : grow(*gin, rows * st.in_row), t);
      break;
    case Stage::Kind::kRelu: {
      // Masked by the stage's own output, still in its slot.
      const Scalar* act = sc.acts[st.out_slot].data();
      for (std::size_t e = 0; e < rows * st.out_row; ++e) {
        if (act[e] <= 0) gout[e] = 0;
      }
      return;
    }
    case Stage::Kind::kFlatten:
      return;
    case Stage::Kind::kMaxPool: {
      // MaxPool2d::backward: a zeroed input gradient, scatter-added
      // through the argmax table.
      Scalar* pgi = grow(*gin, rows * st.in_row);
      std::fill(pgi, pgi + rows * st.in_row, 0.0);
      const std::size_t* argmax = sc.argmax[st.pool].data();
      for (std::size_t o = 0; o < rows * st.out_row; ++o) {
        pgi[argmax[o]] += gout[o];
      }
      break;
    }
    case Stage::Kind::kLayer: {
      Tensor go(with_rows(rows, st.out_shape));
      std::copy(gout, gout + rows * st.out_row, go.raw());
      const Tensor gi = sc.leaves[st.layer]->backward(go);
      std::copy(gi.raw(), gi.raw() + rows * st.in_row,
                grow(*gin, rows * st.in_row));
      break;
    }
    case Stage::Kind::kResidual: {
      // Residual::backward: grad_branch + grad_skip, each path fed the
      // incoming gradient. The skip path runs on the block's own buffer
      // pair, since the inner stages consume g's. A `dead` block (the
      // model's first parametric stage) still forms its input gradient.
      Vec* skip = &sc.skip_g[st.block];
      Vec* skip_in = &sc.skip_gin[st.block];
      std::copy(gout, gout + rows * st.out_row, grow(*skip, rows * st.out_row));
      for (std::size_t s = st.inner.size(); s-- > 0;) {
        backward_stage(sc, st.inner[s], t, false, false, g, gin);
      }
      for (std::size_t s = st.shortcut.size(); s-- > 0;) {
        backward_stage(sc, st.shortcut[s], t, false, false, skip, skip_in);
      }
      Scalar* grad = g->data();
      const Scalar* pskip = skip->data();
      for (std::size_t e = 0; e < rows * st.in_row; ++e) {
        grad[e] = grad[e] + pskip[e];
      }
      return;
    }
  }
  std::swap(g, gin);
}

void CohortModel::index_items(std::span<const CohortItem> items,
                              std::vector<std::size_t>& row_off) const {
  row_off.assign(items.size() + 1, 0);
  const bool rows_ok = supports_row_gather();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const CohortItem& item = items[i];
    HFL_CHECK(item.y != nullptr && item.params != nullptr &&
                  item.grad != nullptr &&
                  (item.x != nullptr || item.x_rows != nullptr),
              "cohort item not fully wired");
    HFL_CHECK(item.x_rows == nullptr || rows_ok,
              "row-gather cohort items require a dense-first direct-input "
              "plan");
    HFL_CHECK(!item.y->empty(), "cohort item with empty batch");
    row_off[i + 1] = row_off[i] + item.y->size();
  }
}

void CohortModel::run(std::span<CohortItem> items, ThreadPool* pool) {
  if (items.empty()) return;
  std::vector<std::size_t> row_off;
  index_items(items, row_off);

  // Tile boundaries: greedily group consecutive items until the tile's
  // widest activation would exceed the cache budget — additionally capped so
  // there are at least as many tiles as pool threads (small models would
  // otherwise collapse into one tile and run serial). FP results are
  // independent of tiling: every loss/gradient is per-item exact.
  const std::size_t threads = pool != nullptr ? pool->size() : 1;
  const std::size_t rows_total = row_off.back();
  const std::size_t rows_per_tile = std::max<std::size_t>(
      1, std::min(kTileElems / max_row_elems_,
                  (rows_total + threads - 1) / threads));
  std::vector<std::pair<std::size_t, std::size_t>> tiles;
  std::size_t lo = 0;
  for (std::size_t i = 1; i <= items.size(); ++i) {
    if (i == items.size() || row_off[i + 1] - row_off[lo] > rows_per_tile) {
      tiles.emplace_back(lo, i);
      lo = i;
    }
  }

  if (pool == nullptr || pool->size() <= 1 || tiles.size() <= 1) {
    Lease sc(*this);
    for (const auto& [ilo, ihi] : tiles) {
      run_tile(*sc, {items, row_off.data(), ilo, ihi});
    }
  } else {
    pool->parallel_for(tiles.size(), [&](std::size_t t) {
      Lease sc(*this);
      run_tile(*sc, {items, row_off.data(), tiles[t].first, tiles[t].second});
    });
  }
}

void CohortModel::gradient(std::span<CohortItem> items) {
  if (items.empty()) return;
  Lease sc(*this);
  index_items(items, sc->row_off);
  run_tile(*sc, {items, sc->row_off.data(), 0, items.size()});
}

void CohortModel::predict(const Scalar* params, const Scalar* x,
                          std::size_t n, Tensor& out) {
  HFL_CHECK(params != nullptr && x != nullptr && n > 0,
            "predict needs parameters and at least one sample");
  const std::size_t K = stages_.back().out_row;
  if (out.rank() != 2 || out.dim(0) != n || out.dim(1) != K) {
    out = Tensor({n, K});
  }
  Lease sc(*this);
  CohortItem item;
  item.params = params;
  const std::size_t chunk =
      std::max<std::size_t>(1, kTileElems / max_row_elems_);
  for (std::size_t lo = 0; lo < n; lo += chunk) {
    const std::size_t rows = std::min(chunk, n - lo);
    item.x = x + lo * sample_elems_;
    sc->row_off.assign({0, rows});
    const Scalar* logits =
        forward(*sc, {{&item, 1}, sc->row_off.data(), 0, 1}, /*train=*/false);
    std::copy(logits, logits + rows * K, out.raw() + lo * K);
  }
}

}  // namespace hfl::nn
