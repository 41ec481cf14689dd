#include "src/nn/cohort.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/errors.h"
#include "src/common/thread_pool.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/pool2d.h"
#include "src/tensor/gemm.h"
#include "src/tensor/gemm_mixed.h"

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

}  // namespace

struct CohortModel::Stage {
  enum class Kind { kDense, kConv, kRelu, kMaxPool, kFlatten, kLayer };
  Kind kind = Kind::kLayer;
  // Activation buffers read and written; equal for the in-place stages
  // (ReLU, Flatten).
  std::size_t in_slot = 0, out_slot = 0;
  // Per-sample shapes and element counts of the stage input and output.
  std::vector<std::size_t> in_shape, out_shape;
  std::size_t in_row = 0, out_row = 0;
  Conv2d::Spec conv;                 // kConv
  std::size_t window = 0, pool = 0;  // kMaxPool: window, argmax buffer
  std::size_t layer = 0;             // kLayer: index into the Sequential
  std::size_t w_off = 0, b_off = 0;  // offsets into the flat param/grad vecs
};

// One caller's buffers. Activation slots, the two backward ping-pong
// buffers and the argmax tables are sized by the largest tile seen and
// reused; `layers` holds the fallback stages' layer instances (which cache
// forward state for backward) and exists only for plans that have any.
struct CohortModel::Scratch {
  std::vector<Vec> acts;
  Vec g, gin;
  std::vector<std::vector<std::size_t>> argmax;
  Vec dw, db;
  std::vector<std::size_t> row_off;
  std::unique_ptr<Model> layers;
};

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
  sc->argmax.resize(num_pools_);
  // Under the lock: model factories are not required to be thread-safe.
  if (has_layer_stages_) sc->layers = factory_();
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
  Sequential& net = probe->net();
  std::vector<Stage> stages;
  std::vector<std::size_t> shape = probe->sample_shape();
  std::size_t slot = 0, num_slots = 1, num_pools = 0, off = 0;
  std::size_t max_row_elems = Tensor::shape_size(shape);
  bool has_layer_stages = false;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    Layer& layer = net.layer(i);
    Stage st;
    st.in_shape = shape;
    st.in_row = Tensor::shape_size(shape);
    st.in_slot = slot;
    bool in_place = false;
    if (auto* d = dynamic_cast<Dense*>(&layer)) {
      if (shape.size() != 1 || shape[0] != d->in_features()) return nullptr;
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
      if (shape.size() != 3 || shape[0] != s.in_ch ||
          shape[1] + 2 * s.pad < s.k || shape[2] + 2 * s.pad < s.k) {
        return nullptr;
      }
      st.w_off = off;
      st.b_off = off + s.out_ch * s.kk();
      off = st.b_off + s.out_ch;
      shape = {s.out_ch, shape[1] + 2 * s.pad - s.k + 1,
               shape[2] + 2 * s.pad - s.k + 1};
    } else if (auto* p = dynamic_cast<MaxPool2d*>(&layer)) {
      if (shape.size() != 3 || shape[1] % p->window() != 0 ||
          shape[2] % p->window() != 0) {
        return nullptr;
      }
      st.kind = Stage::Kind::kMaxPool;
      st.window = p->window();
      st.pool = num_pools++;
      shape = {shape[0], shape[1] / st.window, shape[2] / st.window};
    } else if (layer.kind() == "relu") {
      st.kind = Stage::Kind::kRelu;
      in_place = true;
    } else if (layer.kind() == "flatten") {
      st.kind = Stage::Kind::kFlatten;
      in_place = true;
      shape = {st.in_row};
    } else {
      // Fallback stages run the layer itself; they treat batch rows (or
      // NCHW planes) independently, so a tile's row segments come out
      // bit-identical to per-model calls. A one-sample dry forward gives
      // the output shape.
      const std::string kind = layer.kind();
      if (kind != "tanh" && kind != "sigmoid" && kind != "avgpool2d") {
        return nullptr;  // Residual, nested Sequential, Dropout, ...
      }
      st.kind = Stage::Kind::kLayer;
      st.layer = i;
      has_layer_stages = true;
      const Tensor y = layer.forward(Tensor(with_rows(1, shape)), false);
      shape.assign(y.shape().begin() + 1, y.shape().end());
    }
    st.out_shape = shape;
    st.out_row = Tensor::shape_size(shape);
    st.out_slot = in_place ? slot : num_slots++;
    slot = st.out_slot;
    max_row_elems = std::max(max_row_elems, st.out_row);
    stages.push_back(std::move(st));
  }
  if (off != probe->num_params()) return nullptr;  // unexpected param layout
  if (shape.size() != 1) return nullptr;           // loss needs (B, K)

  const std::string loss_kind = probe->loss_fn().kind();
  if (loss_kind != "softmax_ce" && loss_kind != "mse_onehot") return nullptr;

  // First parametric stage: its input gradient has no consumer (the stages
  // before it are parameter-free), so the backward pass stops there. When
  // additionally every stage before it is a Flatten — a pure reshape — the
  // executor reads each item's mini-batch in place and never materializes
  // the concatenated input at all.
  std::size_t first_param = stages.size();
  bool direct_input = true;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const Stage::Kind kind = stages[i].kind;
    if (kind == Stage::Kind::kDense || kind == Stage::Kind::kConv) {
      first_param = i;
      break;
    }
    if (kind != Stage::Kind::kFlatten) direct_input = false;
  }
  if (first_param == stages.size()) return nullptr;  // nothing to train

  auto plan = std::unique_ptr<CohortModel>(new CohortModel());
  plan->factory_ = factory;
  plan->loss_ = probe->loss_fn().clone();
  plan->stages_ = std::move(stages);
  plan->num_params_ = probe->num_params();
  plan->num_slots_ = num_slots;
  plan->num_pools_ = num_pools;
  plan->has_layer_stages_ = has_layer_stages;
  plan->softmax_loss_ = loss_kind == "softmax_ce";
  plan->first_param_ = first_param;
  plan->direct_input_ = direct_input;
  plan->sample_elems_ = Tensor::shape_size(probe->sample_shape());
  plan->max_row_elems_ = max_row_elems;
  return plan;
}

// Dense forward: per item, y_seg = x_seg · W_iᵀ + b_i — the exact
// matmul_transpose_b + add_row_bias sequence of Dense::forward, evaluated on
// the item's row segment and reading the worker's parameters in place.
// (Conv stages are different: within one worker the weight operand is
// shared across samples, and the conv spans batch those products — see
// conv2d.h.)
void CohortModel::dense_forward(const Stage& st, const Scalar* in,
                                Scalar* out, std::span<CohortItem> items,
                                const std::size_t* row_off, std::size_t ilo,
                                std::size_t ihi, bool mixed) const {
  const std::size_t nin = st.in_row, nout = st.out_row;
  const std::size_t base = row_off[ilo];
  const auto gemm1 = mixed ? ops::gemm_mixed : ops::gemm;
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
      gemm1(false, true, b, nout, nin, a, nin, items[i].params + st.w_off, nin,
            0.0, py, nout);
    }
    // Bias rows, replicating ops::add_row_bias on the segment.
    const Scalar* pb = items[i].params + st.b_off;
    for (std::size_t r = 0; r < b; ++r) {
      for (std::size_t j = 0; j < nout; ++j) py[r * nout + j] += pb[j];
    }
  }
}

// Dense backward, replicating Dense::backward per item: dW into scratch then
// added into the (zeroed) flat grad — the scratch-then-add order is part of
// the bit-identity contract (the final += through 0.0 normalizes signed
// zeros exactly like the per-model path) — db via the sum_rows loop, and
// grad_in = g_seg · W_i. `gin == nullptr` skips the grad_in product (first
// parametric stage: dX is dead); `in == nullptr` is direct-input mode as in
// dense_forward.
void CohortModel::dense_backward(Scratch& sc, const Stage& st,
                                 const Scalar* in, const Scalar* gout,
                                 Scalar* gin, std::span<CohortItem> items,
                                 const std::size_t* row_off, std::size_t ilo,
                                 std::size_t ihi, bool mixed) const {
  const std::size_t nin = st.in_row, nout = st.out_row;
  const std::size_t base = row_off[ilo];
  const auto gemm1 = mixed ? ops::gemm_mixed : ops::gemm;
  Scalar* dw = grow(sc.dw, nout * nin);
  Scalar* db = grow(sc.db, nout);
  for (std::size_t i = ilo; i < ihi; ++i) {
    const std::size_t row = row_off[i] - base;
    const std::size_t b = row_off[i + 1] - row_off[i];
    const Scalar* pg = gout + row * nout;
    // dW_i = g_segᵀ · x_seg (matmul_transpose_a shape conventions) into
    // scratch, then += into the zeroed flat grad. In row-gather mode the B
    // operand (the mini-batch) is read row-by-row from the dataset —
    // bit-identical to the gathered-tensor product.
    if (in == nullptr && items[i].x_rows != nullptr) {
      ops::gemm_rows_b(/*trans_a=*/true, nout, nin, b, pg, nout,
                       items[i].x_rows, 0.0, dw, nin);
    } else {
      const Scalar* a = in != nullptr ? in + row * nin : items[i].x;
      gemm1(true, false, nout, nin, b, pg, nout, a, nin, 0.0, dw, nin);
    }
    Scalar* gw = items[i].grad + st.w_off;
    for (std::size_t e = 0; e < nout * nin; ++e) gw[e] += dw[e];

    // db: sum_rows into scratch, then += — same loops, same order.
    std::fill(db, db + nout, 0.0);
    for (std::size_t r = 0; r < b; ++r) {
      for (std::size_t j = 0; j < nout; ++j) db[j] += pg[r * nout + j];
    }
    Scalar* gb = items[i].grad + st.b_off;
    for (std::size_t j = 0; j < nout; ++j) gb[j] += db[j];

    // grad_in = g_seg · W_i, reading the worker's weights in place.
    if (gin != nullptr) {
      gemm1(false, false, b, nin, nout, pg, nout, items[i].params + st.w_off,
            nin, 0.0, gin + row * nin, nin);
    }
  }
}

// `in == nullptr`: direct-input mode, each item's mini-batch is the conv
// input (first parametric stage of a conv-first model).
void CohortModel::conv_forward(const Stage& st, const Scalar* in, Scalar* out,
                               std::span<CohortItem> items,
                               const std::size_t* row_off, std::size_t ilo,
                               std::size_t ihi, bool mixed) const {
  const std::size_t H = st.in_shape[1], W = st.in_shape[2];
  const std::size_t base = row_off[ilo];
  for (std::size_t i = ilo; i < ihi; ++i) {
    const std::size_t row = row_off[i] - base;
    const Scalar* x0 = in != nullptr ? in + row * st.in_row : items[i].x;
    Conv2d::forward_span(st.conv, H, W, items[i].params + st.w_off,
                         items[i].params + st.b_off, x0,
                         row_off[i + 1] - row_off[i], out + row * st.out_row,
                         mixed);
  }
}

// `gin == nullptr` skips dX (first parametric stage); `in == nullptr` is
// direct-input mode.
void CohortModel::conv_backward(const Stage& st, const Scalar* in,
                                const Scalar* gout, Scalar* gin,
                                std::span<CohortItem> items,
                                const std::size_t* row_off, std::size_t ilo,
                                std::size_t ihi, bool mixed) const {
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
                          gin != nullptr ? gin + row * st.in_row : nullptr,
                          mixed);
  }
}

// Loss forward + backward fused per item, replicating loss.cpp on each row
// segment with the item's own batch size in the 1/B mean. `grad` receives
// the gradient w.r.t. the logits.
void CohortModel::loss_stage(const Scalar* logits, Scalar* grad,
                             std::span<CohortItem> items,
                             const std::size_t* row_off, std::size_t ilo,
                             std::size_t ihi) const {
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

const Scalar* CohortModel::forward(Scratch& sc, const std::size_t* row_off,
                                   std::span<CohortItem> items,
                                   std::size_t ilo, std::size_t ihi,
                                   bool mixed, bool train) {
  const std::size_t base = row_off[ilo];
  const std::size_t rows = row_off[ihi] - base;

  // Tile input: concatenate the tile's mini-batches — skipped entirely in
  // direct-input mode, where the first parametric stage reads each item's
  // rows in place (any leading Flatten is a pure reshape).
  if (!direct_input_) {
    Scalar* in0 = grow(sc.acts[0], rows * sample_elems_);
    for (std::size_t i = ilo; i < ihi; ++i) {
      std::memcpy(in0 + (row_off[i] - base) * sample_elems_, items[i].x,
                  (row_off[i + 1] - row_off[i]) * sample_elems_ *
                      sizeof(Scalar));
    }
  }

  for (std::size_t s = direct_input_ ? first_param_ : 0; s < stages_.size();
       ++s) {
    const Stage& st = stages_[s];
    Scalar* out = grow(sc.acts[st.out_slot], rows * st.out_row);
    const Scalar* in = direct_input_ && s == first_param_
                           ? nullptr
                           : sc.acts[st.in_slot].data();
    switch (st.kind) {
      case Stage::Kind::kDense:
        dense_forward(st, in, out, items, row_off, ilo, ihi, mixed);
        break;
      case Stage::Kind::kConv:
        conv_forward(st, in, out, items, row_off, ilo, ihi, mixed);
        break;
      case Stage::Kind::kRelu:  // in place: out aliases in
        for (std::size_t e = 0; e < rows * st.out_row; ++e) {
          if (out[e] < 0) out[e] = 0;
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
        const Tensor y = sc.layers->net().layer(st.layer).forward(x, train);
        std::copy(y.raw(), y.raw() + rows * st.out_row, out);
        break;
      }
    }
  }
  return sc.acts[stages_.back().out_slot].data();
}

void CohortModel::run_tile(Scratch& sc, const std::size_t* row_off,
                           std::span<CohortItem> items, std::size_t ilo,
                           std::size_t ihi, bool mixed) {
  const std::size_t rows = row_off[ihi] - row_off[ilo];
  for (std::size_t i = ilo; i < ihi; ++i) {
    std::fill(items[i].grad, items[i].grad + num_params_, 0.0);
  }

  const Scalar* logits =
      forward(sc, row_off, items, ilo, ihi, mixed, /*train=*/true);
  Vec* g = &sc.g;
  Vec* gin = &sc.gin;
  loss_stage(logits, grow(*g, rows * stages_.back().out_row), items, row_off,
             ilo, ihi);

  // Backward stops at the first parametric stage: everything before it is
  // parameter-free, so its input gradient is dead work (the generic
  // per-model layer chain cannot know this and computes it anyway). Stages
  // that cannot work in place write the input gradient into the other
  // ping-pong buffer.
  for (std::size_t s = stages_.size(); s-- > first_param_;) {
    const Stage& st = stages_[s];
    const bool last = s == first_param_;
    const Scalar* in =
        direct_input_ && last ? nullptr : sc.acts[st.in_slot].data();
    Scalar* gout = g->data();
    switch (st.kind) {
      case Stage::Kind::kDense:
        dense_backward(sc, st, in, gout,
                       last ? nullptr : grow(*gin, rows * st.in_row), items,
                       row_off, ilo, ihi, mixed);
        break;
      case Stage::Kind::kConv:
        conv_backward(st, in, gout,
                      last ? nullptr : grow(*gin, rows * st.in_row), items,
                      row_off, ilo, ihi, mixed);
        break;
      case Stage::Kind::kRelu: {
        // Masked by the stage's own output, which the in-place forward left
        // in its slot.
        const Scalar* act = sc.acts[st.out_slot].data();
        for (std::size_t e = 0; e < rows * st.out_row; ++e) {
          if (act[e] <= 0) gout[e] = 0;
        }
        continue;
      }
      case Stage::Kind::kFlatten:
        continue;
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
        const Tensor gi = sc.layers->net().layer(st.layer).backward(go);
        std::copy(gi.raw(), gi.raw() + rows * st.in_row,
                  grow(*gin, rows * st.in_row));
        break;
      }
    }
    std::swap(g, gin);
  }
}

void CohortModel::index_items(std::span<const CohortItem> items, bool mixed,
                              std::vector<std::size_t>& row_off) const {
  row_off.assign(items.size() + 1, 0);
  const bool rows_ok = supports_row_gather() && !mixed;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const CohortItem& item = items[i];
    HFL_CHECK(item.y != nullptr && item.params != nullptr &&
                  item.grad != nullptr &&
                  (item.x != nullptr || item.x_rows != nullptr),
              "cohort item not fully wired");
    HFL_CHECK(item.x_rows == nullptr || rows_ok,
              "row-gather cohort items require a dense-first direct-input "
              "plan and full precision");
    HFL_CHECK(!item.y->empty(), "cohort item with empty batch");
    row_off[i + 1] = row_off[i] + item.y->size();
  }
}

void CohortModel::run(std::span<CohortItem> items, ThreadPool* pool,
                      bool mixed) {
  if (items.empty()) return;
  std::vector<std::size_t> row_off;
  index_items(items, mixed, row_off);

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
      run_tile(*sc, row_off.data(), items, ilo, ihi, mixed);
    }
  } else {
    pool->parallel_for(tiles.size(), [&](std::size_t t) {
      Lease sc(*this);
      run_tile(*sc, row_off.data(), items, tiles[t].first, tiles[t].second,
               mixed);
    });
  }
}

void CohortModel::gradient(std::span<CohortItem> items) {
  if (items.empty()) return;
  Lease sc(*this);
  index_items(items, /*mixed=*/false, sc->row_off);
  run_tile(*sc, sc->row_off.data(), items, 0, items.size(), /*mixed=*/false);
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
    const Scalar* logits = forward(*sc, sc->row_off.data(), {&item, 1}, 0, 1,
                                   /*mixed=*/false, /*train=*/false);
    std::copy(logits, logits + rows * K, out.raw() + lo * K);
  }
}

}  // namespace hfl::nn
