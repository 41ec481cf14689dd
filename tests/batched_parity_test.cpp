// The compiled cohort plan's invariances: bit-identity across the ways one
// result can be computed.
//
// Every worker gradient and every evaluation runs through nn::CohortModel
// (src/nn/cohort.h): the batched prefetch when RunConfig::batched is on, the
// singleton/paired gradient otherwise, and the forward-only predict in
// Engine::evaluate. The contract is that how the work is grouped never
// shows in FP64:
//   * engine level — for every registry algorithm (plus both Mime variants),
//     with and without a fault schedule, at 1 and 4 threads, a batched run
//     reproduces an unbatched one exactly (curve and final parameters,
//     EXPECT_EQ not NEAR), and Engine::evaluate equals per-batch
//     predictions scored by nn::evaluate_predictions and merged in batch
//     order, at 1 and 4 threads;
//   * plan level — run (serial and on 4 threads, so tiled differently) ≡
//     paired gradient ≡ singleton gradient ≡ row-gathered input, predict ≡
//     predict row by row, and predict's scored loss ≡ the gradient pass's
//     loss, bit for bit, for every registry architecture and for hand-built
//     chains of every stage kind, which also pass a finite-difference check.
// Also covered: an unsupported layer failing plan compilation and engine
// construction loudly, and the fused-gradient and conv telemetry counters.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/algs/registry.h"
#include "src/common/thread_pool.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/fl/engine.h"
#include "src/nn/activations.h"
#include "src/nn/cohort.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/flatten.h"
#include "src/nn/gradcheck.h"
#include "src/nn/models.h"
#include "src/nn/pool2d.h"
#include "src/nn/residual.h"
#include "src/obs/registry.h"
#include "src/sim/fault_plan.h"
#include "src/tensor/conv_gemm.h"

namespace hfl::fl {
namespace {

struct Fixture {
  data::TrainTest dataset;
  Topology topo{Topology::uniform(3, 3)};  // 3 edges × 3 workers
  data::Partition partition;
  nn::ModelFactory factory;
  RunConfig cfg3;  // three-tier
  RunConfig cfg2;  // two-tier (π = 1, matched period)

  explicit Fixture(const char* model = "logistic") {
    Rng rng(3);
    data::SyntheticSpec spec;
    // H, W divisible by 4 so the pooling conv architectures apply too.
    spec.sample_shape = {1, 8, 8};
    spec.num_classes = 3;
    spec.train_size = 90;
    spec.test_size = 30;
    dataset = data::make_synthetic(rng, spec);
    partition = data::partition_iid(dataset.train, topo.num_workers(), rng);
    if (std::string(model) == "cnn") {
      factory = nn::cnn({1, 8, 8}, 3);
    } else if (std::string(model) == "mlp") {
      factory = nn::mlp({1, 8, 8}, 16, 3);
    } else if (std::string(model) == "mini_resnet") {
      factory = nn::mini_resnet({1, 8, 8}, 3);
    } else {
      factory = nn::logistic_regression({1, 8, 8}, 3);
    }

    cfg3.total_iterations = 8;
    cfg3.tau = 2;
    cfg3.pi = 2;
    cfg3.batch_size = 4;
    cfg3.seed = 5;
    cfg2 = cfg3;
    cfg2.tau = 4;
    cfg2.pi = 1;
  }

  RunConfig config_for(const Algorithm& alg) const {
    return alg.three_tier() ? cfg3 : cfg2;
  }
};

RunResult run_once(const Fixture& f, Algorithm& alg, bool batched,
                   std::size_t threads, const AvailabilityOracle* oracle) {
  RunConfig cfg = f.config_for(alg);
  cfg.batched = batched;
  cfg.num_threads = threads;
  Engine engine(f.factory, f.dataset, f.partition, f.topo, cfg);
  return engine.run_with_oracle(alg, oracle);
}

void expect_identical(const RunResult& ref, const RunResult& got) {
  ASSERT_EQ(ref.curve.size(), got.curve.size());
  for (std::size_t i = 0; i < ref.curve.size(); ++i) {
    EXPECT_EQ(ref.curve[i].iteration, got.curve[i].iteration);
    // EXPECT_EQ, not NEAR: the contract is bit-identity, not tolerance.
    EXPECT_EQ(ref.curve[i].test_loss, got.curve[i].test_loss);
    EXPECT_EQ(ref.curve[i].test_accuracy, got.curve[i].test_accuracy);
  }
  EXPECT_EQ(ref.final_params, got.final_params);
  EXPECT_EQ(ref.final_loss, got.final_loss);
  EXPECT_EQ(ref.final_accuracy, got.final_accuracy);
}

std::vector<std::string> all_algorithms() {
  std::vector<std::string> names = algs::table2_algorithms();
  names.push_back("MimeLite");
  return names;
}

class BatchedParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BatchedParityTest, FusedRunBitIdenticalToPerWorker) {
  Fixture f;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    auto ref_alg = algs::make_algorithm(GetParam());
    auto fused_alg = algs::make_algorithm(GetParam());
    const RunResult ref =
        run_once(f, *ref_alg, /*batched=*/false, threads, nullptr);
    const RunResult fused =
        run_once(f, *fused_alg, /*batched=*/true, threads, nullptr);
    expect_identical(ref, fused);
  }
}

TEST_P(BatchedParityTest, FusedRunBitIdenticalUnderFaultSchedule) {
  Fixture f;
  sim::FaultConfig fc;
  fc.seed = 42;
  fc.dropout.prob = 0.3;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    auto ref_alg = algs::make_algorithm(GetParam());
    auto fused_alg = algs::make_algorithm(GetParam());
    const sim::FaultPlan plan(f.topo, f.config_for(*ref_alg), fc);
    const RunResult ref =
        run_once(f, *ref_alg, /*batched=*/false, threads, &plan);
    const RunResult fused =
        run_once(f, *fused_alg, /*batched=*/true, threads, &plan);
    expect_identical(ref, fused);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, BatchedParityTest, ::testing::ValuesIn(all_algorithms()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Architectures beyond one dense layer: a dense hidden layer + activation
// (mlp) and conv + pool + dense through the batched conv spans (cnn).
TEST(BatchedParityModelTest, MlpAndCnnBitIdentical) {
  for (const char* model : {"mlp", "cnn"}) {
    SCOPED_TRACE(model);
    Fixture f(model);
    for (const char* name : {"HierAdMo", "FedAvg"}) {
      auto ref_alg = algs::make_algorithm(name);
      auto fused_alg = algs::make_algorithm(name);
      const RunResult ref =
          run_once(f, *ref_alg, /*batched=*/false, 4, nullptr);
      const RunResult fused =
          run_once(f, *fused_alg, /*batched=*/true, 4, nullptr);
      expect_identical(ref, fused);
    }
  }
}

// mini_resnet's Residual blocks compile into the plan like every other
// architecture: every gradient of both runs goes through it (8 iterations ×
// 9 workers each), and the batched run matches the unbatched one exactly.
TEST(BatchedParityModelTest, ResidualBitIdentical) {
  Fixture f("mini_resnet");
  obs::set_enabled(true);
  obs::Registry::global().reset();
  auto ref_alg = algs::make_algorithm("HierAdMo");
  auto fused_alg = algs::make_algorithm("HierAdMo");
  const RunResult ref = run_once(f, *ref_alg, /*batched=*/false, 4, nullptr);
  const RunResult fused = run_once(f, *fused_alg, /*batched=*/true, 4, nullptr);
  EXPECT_EQ(obs::Registry::global().counter("engine.cohort.fused_grads").value(),
            2u * 8 * 9);
  obs::set_enabled(false);
  expect_identical(ref, fused);
}

// A layer kind the plan has no stage for.
class Softsign final : public nn::Layer {
 public:
  std::string kind() const override { return "softsign"; }
};

nn::ModelFactory softsign_net() {
  return [] {
    auto net = std::make_unique<nn::Sequential>();
    net->emplace<nn::Flatten>();
    net->emplace<nn::Dense>(64, 3, nn::InitScheme::kXavier);
    net->emplace<Softsign>();
    return std::make_unique<nn::Model>(
        std::move(net), std::make_unique<nn::SoftmaxCrossEntropy>(),
        std::vector<std::size_t>{1, 8, 8});
  };
}

// A layer the plan cannot compile fails loudly, naming the layer.
TEST(CohortPlanCompileTest, UnsupportedLayerThrowsNamingIt) {
  try {
    nn::CohortModel::create(*softsign_net()());
    ADD_FAILURE() << "create accepted a Softsign layer";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'softsign'"), std::string::npos)
        << e.what();
  }
}

// ...and so does an engine built on that architecture, before it runs.
TEST(CohortPlanCompileTest, EngineRejectsUnsupportedArchitecture) {
  Fixture f;
  EXPECT_THROW(Engine(softsign_net(), f.dataset, f.partition, f.topo, f.cfg3),
               Error);
}

// Gradients are counted where they are computed: an unbatched run computes
// every gradient through the plan (singleton draws; Mime's SVRG pairs count
// two each), counted like the batched prefetch's.
TEST(BatchedParityFallbackTest, UnbatchedGradientsCountAsPlanGradients) {
  Fixture f;
  for (const char* name : {"HierAdMo", "Mime"}) {
    SCOPED_TRACE(name);
    obs::set_enabled(true);
    obs::Registry::global().reset();
    auto alg = algs::make_algorithm(name);
    run_once(f, *alg, /*batched=*/false, 4, nullptr);
    auto& reg = obs::Registry::global();
    EXPECT_GE(reg.counter("engine.cohort.fused_grads").value(), 8u * 9);
    obs::set_enabled(false);
  }
}

// Mime's paired SVRG evaluation opts out of prefetch; a batched=true run must
// silently use the per-worker path and still match bitwise.
TEST(BatchedParityFallbackTest, MimeSvrgFallsBack) {
  Fixture f;
  auto ref_alg = algs::make_algorithm("Mime");
  auto fused_alg = algs::make_algorithm("Mime");
  ASSERT_FALSE(fused_alg->local_gradient_prefetchable());
  const RunResult ref = run_once(f, *ref_alg, /*batched=*/false, 4, nullptr);
  const RunResult fused = run_once(f, *fused_alg, /*batched=*/true, 4, nullptr);
  expect_identical(ref, fused);
}

// ---- plan level --------------------------------------------------------

constexpr std::size_t kClasses = 3;

// Bitwise equality (distinguishes signed zeros, matches NaN payloads).
bool same_bits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Scalar)) == 0;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.size() * sizeof(Scalar)) == 0;
}

struct Batch {
  Tensor x;
  std::vector<std::size_t> y;
  std::vector<const Scalar*> rows;  // per-sample pointers into x
};

Batch random_batch(const std::vector<std::size_t>& sample_shape,
                   std::size_t b, Rng& rng) {
  Batch batch;
  std::vector<std::size_t> shape{b};
  shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
  batch.x = Tensor::randn(shape, rng);
  const std::size_t elems = batch.x.size() / b;
  for (std::size_t i = 0; i < b; ++i) {
    batch.y.push_back(rng.uniform_index(kClasses));
    batch.rows.push_back(batch.x.raw() + i * elems);
  }
  return batch;
}

// Random parameters (not the factory init: linear/logistic start at zero,
// which would hide sign and ordering mistakes).
Vec random_params(const nn::ModelFactory& factory, Rng& rng) {
  Vec p(factory()->num_params());
  for (Scalar& v : p) v = rng.normal(0.0, 0.3);
  return p;
}

nn::CohortItem item_for(const Vec& params, const Batch& batch, Vec& grad,
                        bool row_gather) {
  nn::CohortItem item;
  item.params = params.data();
  item.y = &batch.y;
  item.grad = grad.data();
  if (row_gather) {
    item.x_rows = batch.rows.data();
  } else {
    item.x = batch.x.raw();
  }
  return item;
}

// Every entry point of the plan on `factory` against its own singleton
// gradient: paired gradients and, where supported, row-gathered input; a
// tile-parallel batched run over items of mixed batch sizes, serially and on
// 4 threads; predict over a batch against predict row by row, and its scored
// loss against the gradient pass's.
void expect_plan_invariant(const nn::ModelFactory& factory,
                           const std::vector<std::size_t>& sample_shape,
                           std::uint64_t seed) {
  auto plan = nn::CohortModel::create(*factory());
  Rng rng(seed);
  const Vec p0 = random_params(factory, rng);
  const Vec p1 = random_params(factory, rng);
  const std::size_t np = p0.size();
  ThreadPool pool(4);

  // The reference: one item alone, contiguous input, into a zeroed buffer.
  const auto single = [&](const Vec& p, const Batch& batch, Vec& grad) {
    grad.assign(np, 0.0);
    nn::CohortItem item = item_for(p, batch, grad, false);
    plan->gradient({&item, 1});
    return item.loss;
  };
  // predict over all of `batch` ≡ one predict call per row.
  const auto expect_rows_match = [&](const Vec& p, const Batch& batch,
                                     Tensor& pred) {
    const std::size_t n = batch.y.size();
    plan->predict(p.data(), batch.x.raw(), n, pred);
    const std::size_t K = pred.dim(1);
    Tensor row_pred;
    for (std::size_t r = 0; r < n; ++r) {
      plan->predict(p.data(), batch.rows[r], 1, row_pred);
      ASSERT_EQ(std::memcmp(row_pred.raw(), pred.raw() + r * K,
                            K * sizeof(Scalar)),
                0)
          << "row " << r;
    }
  };

  for (const std::size_t b : {std::size_t{1}, std::size_t{4}, std::size_t{128}}) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const Batch batch = random_batch(sample_shape, b, rng);
    const Tensor x_before = batch.x;
    Vec ref0, ref1;
    const Scalar loss0 = single(p0, batch, ref0);
    const Scalar loss1 = single(p1, batch, ref1);

    std::vector<bool> forms{false};
    if (plan->supports_row_gather()) forms.push_back(true);
    for (const bool rows : forms) {
      SCOPED_TRACE(rows ? "row-gathered input" : "contiguous input");
      Vec g0(np, 7.0), g1(np, 7.0);  // stale contents must be overwritten
      nn::CohortItem one = item_for(p0, batch, g0, rows);
      plan->gradient({&one, 1});
      EXPECT_EQ(one.loss, loss0);
      EXPECT_TRUE(same_bits(g0, ref0));

      nn::CohortItem pair[2] = {item_for(p1, batch, g1, rows),
                                item_for(p0, batch, g0, rows)};
      plan->gradient(pair);
      EXPECT_EQ(pair[0].loss, loss1);
      EXPECT_EQ(pair[1].loss, loss0);
      EXPECT_TRUE(same_bits(g1, ref1));
      EXPECT_TRUE(same_bits(g0, ref0));
    }
    // The caller's batch is read, never written (in-place stages work on
    // the plan's own buffers).
    EXPECT_TRUE(same_bits(batch.x, x_before));

    // The training forward and predict's agree: scoring predict's logits
    // reproduces the gradient pass's loss.
    Tensor pred;
    expect_rows_match(p1, batch, pred);
    EXPECT_EQ(nn::evaluate_predictions(plan->loss(), pred, batch.y).loss,
              loss1);
  }

  // More rows than one predict chunk for the conv models (512 rows).
  {
    SCOPED_TRACE("predict in chunks");
    Tensor pred;
    expect_rows_match(p0, random_batch(sample_shape, 600, rng), pred);
  }

  // Batched run: items of batch 1..7 at alternating parameter points, on a
  // 4-thread pool and serially.
  std::vector<Batch> batches;
  for (std::size_t i = 0; i < 9; ++i) {
    batches.push_back(random_batch(sample_shape, 1 + i % 7, rng));
  }
  for (ThreadPool* tp : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<Vec> grads(batches.size(), Vec(np, 0.0));
    std::vector<nn::CohortItem> items;
    for (std::size_t i = 0; i < batches.size(); ++i) {
      items.push_back(item_for(i % 2 ? p1 : p0, batches[i], grads[i],
                               plan->supports_row_gather() && i % 3 == 0));
    }
    plan->run(items, tp);
    for (std::size_t i = 0; i < batches.size(); ++i) {
      Vec ref;
      const Scalar loss = single(i % 2 ? p1 : p0, batches[i], ref);
      EXPECT_EQ(items[i].loss, loss) << "item " << i;
      EXPECT_TRUE(same_bits(grads[i], ref)) << "item " << i;
    }
  }
}

// The plan's gradient of `factory`'s architecture against finite
// differences at random parameters. The bound is absolute: some entries are
// ~1e-6, where finite-difference rounding alone gives a relative error
// above 1e-4, while a wrong stage errs by the size of the gradient.
void expect_gradcheck(const nn::ModelFactory& factory,
                      const std::vector<std::size_t>& sample_shape,
                      std::uint64_t seed) {
  Rng rng(seed);
  const Vec params = random_params(factory, rng);
  const Batch batch = random_batch(sample_shape, 3, rng);
  const nn::GradCheckResult r =
      nn::check_gradients(*factory(), params, batch.x, batch.y, 1e-5, 150);
  EXPECT_LT(r.max_abs_error, 1e-7) << "rel " << r.max_rel_error;
}

const std::vector<std::size_t> kImage = {1, 8, 8};

TEST(CohortPlanParityTest, RegistryArchitectures) {
  for (const nn::ModelKind kind :
       {nn::ModelKind::kLinearRegression, nn::ModelKind::kLogisticRegression,
        nn::ModelKind::kMlp, nn::ModelKind::kCnn, nn::ModelKind::kMiniVgg,
        nn::ModelKind::kMiniResNet}) {
    SCOPED_TRACE(nn::to_string(kind));
    expect_plan_invariant(nn::make_model_factory(kind, kImage, kClasses),
                          kImage, 11 + static_cast<std::uint64_t>(kind));
  }
}

// Stage chains no registry model has, where in-place buffers alias: ReLU
// behind MaxPool and behind ReLU, a ReLU → Flatten → Dense run, an input-side
// ReLU on the plan's own input copy, AvgPool windows of 1 and 2 between
// them. The residual chains open and close a block's inner branch with a
// ReLU (the first must not overwrite the block input the skip path reads,
// the last masks its backward by its own output, which the block sum must
// not overwrite), add a projection block, follow a block with ReLU, MaxPool
// and AvgPool, and — at the model input — nest a parameter-free block
// inside a block that is the first parametric stage. Each chain passes the
// invariance checks and a finite-difference check of its gradient.
TEST(CohortPlanParityTest, HandBuiltStageChains) {
  const std::vector<std::size_t> shape = {2, 8, 8};
  const nn::ModelFactory conv_chain = [shape] {
    auto net = std::make_unique<nn::Sequential>();
    net->emplace<nn::Conv2d>(2, 4, 3, 1);
    net->emplace<nn::MaxPool2d>(2);
    net->emplace<nn::ReLU>();
    net->emplace<nn::ReLU>();
    net->emplace<nn::AvgPool2d>(1);
    net->emplace<nn::ReLU>();
    net->emplace<nn::AvgPool2d>(2);
    net->emplace<nn::AvgPool2d>(1);
    net->emplace<nn::ReLU>();
    net->emplace<nn::Flatten>();
    net->emplace<nn::Dense>(4 * 2 * 2, 8, nn::InitScheme::kHe);
    net->emplace<nn::ReLU>();
    net->emplace<nn::Dense>(8, kClasses, nn::InitScheme::kXavier);
    return std::make_unique<nn::Model>(
        std::move(net), std::make_unique<nn::SoftmaxCrossEntropy>(), shape);
  };
  const nn::ModelFactory input_relu = [shape] {
    auto net = std::make_unique<nn::Sequential>();
    net->emplace<nn::ReLU>();
    net->emplace<nn::Flatten>();
    net->emplace<nn::Dense>(2 * 8 * 8, 6, nn::InitScheme::kHe);
    net->emplace<nn::ReLU>();
    net->emplace<nn::Dense>(6, kClasses, nn::InitScheme::kXavier);
    return std::make_unique<nn::Model>(
        std::move(net), std::make_unique<nn::MseOnOneHot>(), shape);
  };
  const nn::ModelFactory residual_chain = [shape] {
    auto net = std::make_unique<nn::Sequential>();
    net->emplace<nn::Conv2d>(2, 4, 3, 1);
    {
      auto inner = std::make_unique<nn::Sequential>();
      inner->emplace<nn::ReLU>();
      inner->emplace<nn::Conv2d>(4, 4, 3, 1);
      inner->emplace<nn::ReLU>();
      net->add(std::make_unique<nn::Residual>(std::move(inner)));
    }
    {
      auto inner = std::make_unique<nn::Sequential>();
      inner->emplace<nn::Conv2d>(4, 6, 3, 1);
      inner->emplace<nn::AvgPool2d>(1);
      inner->emplace<nn::Conv2d>(6, 6, 3, 1);
      net->add(std::make_unique<nn::Residual>(
          std::move(inner), std::make_unique<nn::Conv2d>(4, 6, 1, 0)));
    }
    net->emplace<nn::ReLU>();
    net->emplace<nn::MaxPool2d>(2);
    net->emplace<nn::AvgPool2d>(2);
    net->emplace<nn::Flatten>();
    net->emplace<nn::Dense>(6 * 2 * 2, kClasses, nn::InitScheme::kXavier);
    return std::make_unique<nn::Model>(
        std::move(net), std::make_unique<nn::SoftmaxCrossEntropy>(), shape);
  };
  const nn::ModelFactory input_residual = [shape] {
    auto nested = std::make_unique<nn::Sequential>();
    nested->emplace<nn::ReLU>();
    nested->emplace<nn::AvgPool2d>(1);
    auto inner = std::make_unique<nn::Sequential>();
    inner->emplace<nn::ReLU>();
    inner->emplace<nn::Conv2d>(2, 2, 3, 1);
    inner->add(std::make_unique<nn::Residual>(std::move(nested)));
    auto net = std::make_unique<nn::Sequential>();
    net->add(std::make_unique<nn::Residual>(std::move(inner)));
    net->emplace<nn::Flatten>();
    net->emplace<nn::Dense>(2 * 8 * 8, kClasses, nn::InitScheme::kXavier);
    return std::make_unique<nn::Model>(
        std::move(net), std::make_unique<nn::MseOnOneHot>(), shape);
  };
  {
    SCOPED_TRACE("conv chain");
    expect_plan_invariant(conv_chain, shape, 21);
    expect_gradcheck(conv_chain, shape, 31);
  }
  {
    SCOPED_TRACE("residual chain");
    expect_plan_invariant(residual_chain, shape, 23);
    expect_gradcheck(residual_chain, shape, 33);
  }
  {
    SCOPED_TRACE("input-side residual");
    EXPECT_FALSE(
        nn::CohortModel::create(*input_residual())->supports_row_gather());
    expect_plan_invariant(input_residual, shape, 24);
    expect_gradcheck(input_residual, shape, 34);
  }
  {
    SCOPED_TRACE("input-side relu");
    EXPECT_FALSE(nn::CohortModel::create(*input_relu())->supports_row_gather());
    expect_plan_invariant(input_relu, shape, 22);
    expect_gradcheck(input_relu, shape, 32);
  }
}

// The geometry of every Conv2d in `factory`'s model, in layer order, for
// (in_ch, h, w) = `shape` samples (a chain of convolutions and max pools).
std::vector<ops::ConvShape> conv_shapes(const nn::ModelFactory& factory,
                                        const std::vector<std::size_t>& shape) {
  auto model = factory();
  const nn::Sequential& net = model->net();
  std::size_t h = shape[1], w = shape[2];
  std::vector<ops::ConvShape> convs;
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    if (const auto* c = dynamic_cast<const nn::Conv2d*>(&net.layer(l))) {
      convs.push_back({c->in_channels(), c->out_channels(), c->kernel(),
                       c->padding(), h, w});
      h = h + 2 * c->padding() - c->kernel() + 1;
      w = w + 2 * c->padding() - c->kernel() + 1;
    } else if (const auto* p =
                   dynamic_cast<const nn::MaxPool2d*>(&net.layer(l))) {
      h /= p->window();
      w /= p->window();
    }
  }
  return convs;
}

// A traced plan run on the CNN counts its convolutions: the conv counters
// live in the spans the plan calls.
TEST(CohortPlanParityTest, ConvCountersSeePlanConvs) {
  const nn::ModelFactory factory = nn::cnn(kImage, kClasses);
  auto plan = nn::CohortModel::create(*factory());
  Rng rng(31);
  const Vec params = random_params(factory, rng);
  constexpr std::size_t kSamples = 4;
  const Batch batch = random_batch(kImage, kSamples, rng);
  Vec grad(params.size());
  nn::CohortItem item = item_for(params, batch, grad, false);

  // conv.im2col_bytes: every forward (gradient and predict) and every dW
  // writes one zero-padded plane per sample; only the backward that computes
  // dX (not the first conv's: its input gradient is dead) writes dcol,
  // kk × oh·ow scalars per sample.
  const std::vector<ops::ConvShape> convs = conv_shapes(factory, kImage);
  ASSERT_EQ(convs.size(), 2u);
  std::size_t scalars = 0;
  for (std::size_t c = 0; c < convs.size(); ++c) {
    const ops::ConvShape& s = convs[c];
    scalars += 3 * kSamples * s.padded_plane_size();
    if (c > 0) scalars += kSamples * s.kk() * s.oh() * s.ow();
  }

  obs::set_enabled(true);
  obs::Registry::global().reset();
  plan->gradient({&item, 1});
  Tensor pred;
  plan->predict(params.data(), batch.x.raw(), kSamples, pred);
  auto& reg = obs::Registry::global();
  // Two convs forward per pass (gradient + predict), two backward.
  EXPECT_EQ(reg.counter("conv.fwd_calls").value(), 4u);
  EXPECT_EQ(reg.counter("conv.bwd_calls").value(), 2u);
  EXPECT_EQ(reg.counter("conv.im2col_bytes").value(),
            scalars * sizeof(Scalar));
  obs::set_enabled(false);
}

// ---- evaluation ----------------------------------------------------------

// Engine::evaluate ≡ a serial reference: per-128-sample batches gathered
// from the test set, predicted on one thread, scored by
// nn::evaluate_predictions, partials (mean × count) stored, then summed in
// batch order. Fusing the scale into the merge (total += r.loss * n) lets
// the compiler contract it into an FMA and moves the last bit, so this pins
// the merge as well as the engine's in-place, pool-parallel forward.
nn::EvalResult reference_evaluate(const nn::ModelFactory& factory,
                                  const data::Dataset& test, std::size_t n,
                                  const Vec& params) {
  const auto plan = nn::CohortModel::create(*factory());
  std::vector<Scalar> losses, correct;
  std::vector<std::size_t> counts;
  Tensor x, pred;
  std::vector<std::size_t> y, idx;
  for (std::size_t lo = 0; lo < n; lo += 128) {
    const std::size_t hi = std::min(n, lo + 128);
    idx.clear();
    for (std::size_t i = lo; i < hi; ++i) idx.push_back(i);
    test.gather(idx, x, y);
    plan->predict(params.data(), x.raw(), hi - lo, pred);
    const nn::EvalResult r = nn::evaluate_predictions(plan->loss(), pred, y);
    losses.push_back(r.loss * static_cast<Scalar>(hi - lo));
    correct.push_back(r.accuracy * static_cast<Scalar>(hi - lo));
    counts.push_back(hi - lo);
  }
  nn::EvalResult total;
  std::size_t count = 0;
  for (std::size_t b = 0; b < losses.size(); ++b) {
    total.loss += losses[b];
    total.accuracy += correct[b];
    count += counts[b];
  }
  total.loss /= static_cast<Scalar>(count);
  total.accuracy /= static_cast<Scalar>(count);
  return total;
}

TEST(EvalParityTest, EvaluateMatchesSerialPerBatchReference) {
  Rng rng(41);
  data::SyntheticSpec spec;
  spec.sample_shape = kImage;
  spec.num_classes = kClasses;
  spec.train_size = 36;
  spec.test_size = 300;
  const data::TrainTest dataset = data::make_synthetic(rng, spec);
  const Topology topo = Topology::uniform(2, 2);
  const data::Partition partition =
      data::partition_iid(dataset.train, topo.num_workers(), rng);

  for (const nn::ModelKind kind :
       {nn::ModelKind::kLinearRegression, nn::ModelKind::kLogisticRegression,
        nn::ModelKind::kMlp, nn::ModelKind::kCnn, nn::ModelKind::kMiniVgg,
        nn::ModelKind::kMiniResNet}) {
    SCOPED_TRACE(nn::to_string(kind));
    const nn::ModelFactory factory =
        nn::make_model_factory(kind, kImage, kClasses);
    std::vector<Vec> draws;
    for (int d = 0; d < 3; ++d) draws.push_back(random_params(factory, rng));
    // All 300 samples (a last batch of 44), or a cap leaving a ragged last
    // batch of 34 or 77. Full batches scale their partials by a power of
    // two, exactly; the ragged one is where a contracted merge would round
    // differently.
    for (const std::size_t max_samples :
         {std::size_t{0}, std::size_t{290}, std::size_t{205}}) {
      const std::size_t n = max_samples == 0 ? spec.test_size : max_samples;
      std::vector<nn::EvalResult> refs;
      for (const Vec& params : draws) {
        refs.push_back(reference_evaluate(factory, dataset.test, n, params));
      }
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("threads " + std::to_string(threads) + ", samples " +
                     std::to_string(n));
        RunConfig cfg;
        cfg.num_threads = threads;
        cfg.eval_max_samples = max_samples;
        Engine engine(factory, dataset, partition, topo, cfg);
        for (std::size_t d = 0; d < draws.size(); ++d) {
          const nn::EvalResult got = engine.evaluate(draws[d]);
          EXPECT_EQ(got.loss, refs[d].loss);
          EXPECT_EQ(got.accuracy, refs[d].accuracy);
        }
      }
    }
  }
}

}  // namespace
}  // namespace hfl::fl
