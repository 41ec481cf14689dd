// Observability subsystem tests: registry correctness under concurrency,
// Chrome-trace export validity, communication accounting against
// hand-computed byte counts, and the telemetry-off fast path (enabled and
// disabled runs must be bit-identical).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/common/thread_pool.h"
#include "src/core/hieradmo.h"
#include "src/data/partitioner.h"
#include "src/data/synthetic.h"
#include "src/fl/comm_model.h"
#include "src/fl/engine.h"
#include "src/nn/models.h"
#include "src/obs/comm.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/pop/cohort_store.h"
#include "src/sim/fault_plan.h"

namespace hfl {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---- Minimal JSON syntax validator (enough to certify trace exports) ----

class JsonValidator {
 public:
  static bool valid(const std::string& s) {
    JsonValidator v(s);
    v.skip_ws();
    if (!v.value()) return false;
    v.skip_ws();
    return v.pos_ == s.size();
  }

 private:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  const std::string& s_;
  std::size_t pos_ = 0;

  bool eof() const { return pos_ >= s_.size(); }
  char peek() const { return s_[pos_]; }
  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }
  bool literal(const char* lit) {
    const std::size_t len = std::string(lit).size();
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  bool string() {
    if (eof() || peek() != '"') return false;
    ++pos_;
    while (!eof() && peek() != '"') {
      if (peek() == '\\') {
        ++pos_;
        if (eof()) return false;
      }
      ++pos_;
    }
    if (eof()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    while (!eof() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                      peek() == '.' || peek() == 'e' || peek() == 'E' ||
                      peek() == '+' || peek() == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool value() {
    skip_ws();
    if (eof()) return false;
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (eof() || peek() != ':') return false;
      ++pos_;
      if (!value()) return false;
      skip_ws();
      if (eof()) return false;
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (!eof() && peek() == ']') return ++pos_, true;
    for (;;) {
      if (!value()) return false;
      skip_ws();
      if (eof()) return false;
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }
};

// Telemetry tests toggle process-global state; this fixture gives each test a
// clean enabled registry and guarantees the switch ends up off again.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::global().reset();
    obs::Tracer::global().reset();
    obs::CommAccountant::global().reset();
    obs::set_enabled(true);
  }
  void TearDown() override { obs::set_enabled(false); }
};

TEST_F(ObsTest, CountersAreExactUnderConcurrentIncrements) {
  obs::Counter& c = obs::Registry::global().counter("test.concurrent");
  ThreadPool pool(4);
  constexpr std::size_t kN = 200000;
  pool.parallel_for(kN, [&c](std::size_t i) { c.add(i % 3 + 1); });
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < kN; ++i) expected += i % 3 + 1;
  EXPECT_EQ(c.value(), expected);
}

TEST_F(ObsTest, HistogramBucketsAndSumAreExactUnderConcurrency) {
  obs::Histogram& h =
      obs::Registry::global().histogram("test.hist", "", {1.0, 2.0, 5.0});
  ThreadPool pool(4);
  // Values 0..9, 1000 each: <=1 → {0,1}, <=2 → {2}, <=5 → {3,4,5}, rest over.
  pool.parallel_for(10000, [&h](std::size_t i) {
    h.observe(static_cast<double>(i % 10));
  });
  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2000u);
  EXPECT_EQ(counts[1], 1000u);
  EXPECT_EQ(counts[2], 3000u);
  EXPECT_EQ(counts[3], 4000u);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_DOUBLE_EQ(h.sum(), 1000.0 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9));
}

TEST_F(ObsTest, DisabledRecordingChangesNothing) {
  obs::Counter& c = obs::Registry::global().counter("test.disabled");
  obs::set_enabled(false);
  c.add(7);
  EXPECT_EQ(c.value(), 0u);
  obs::set_enabled(true);
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST_F(ObsTest, RegistryHandlesSurviveReset) {
  obs::Counter& c = obs::Registry::global().counter("test.reset");
  c.add(3);
  obs::Registry::global().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);  // the same handle keeps working
  EXPECT_EQ(c.value(), 2u);
}

TEST_F(ObsTest, RegistryExportsCsvAndValidJsonl) {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("export.count", "tier=edge").add(5);
  reg.gauge("export.gauge").set(0.25);
  reg.histogram("export.hist", "", {1.0, 10.0}).observe(3.0);

  const std::string csv_path = ::testing::TempDir() + "obs_metrics.csv";
  const std::string jsonl_path = ::testing::TempDir() + "obs_metrics.jsonl";
  reg.write_csv(csv_path);
  reg.write_jsonl(jsonl_path);

  const std::string csv = read_file(csv_path);
  EXPECT_NE(csv.find("counter,export.count,tier=edge,count,5"),
            std::string::npos);
  EXPECT_NE(csv.find("gauge,export.gauge,,value,0.25"), std::string::npos);
  EXPECT_NE(csv.find("histogram,export.hist,,le_10,1"), std::string::npos);

  std::istringstream jsonl(read_file(jsonl_path));
  std::string line;
  std::size_t lines = 0;
  while (std::getline(jsonl, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(JsonValidator::valid(line)) << line;
    ++lines;
  }
  EXPECT_GE(lines, 3u);
  std::remove(csv_path.c_str());
  std::remove(jsonl_path.c_str());
}

// ---- Engine integration ----

struct EngineFixture {
  data::TrainTest dataset;
  fl::Topology topo{fl::Topology::uniform(2, 2)};
  data::Partition partition;
  nn::ModelFactory factory;
  fl::RunConfig cfg;

  EngineFixture() {
    Rng rng(3);
    data::SyntheticSpec spec;
    spec.sample_shape = {1, 2, 2};
    spec.num_classes = 2;
    spec.train_size = 40;
    spec.test_size = 20;
    dataset = data::make_synthetic(rng, spec);
    partition = data::partition_iid(dataset.train, 4, rng);
    factory = nn::logistic_regression({1, 2, 2}, 2);

    cfg.total_iterations = 8;
    cfg.tau = 2;
    cfg.pi = 2;
    cfg.batch_size = 4;
    cfg.num_threads = 2;
    cfg.seed = 11;
  }

  std::size_t model_dim() const {
    auto model = factory();
    Rng rng(1);
    model->init_params(rng);
    return model->get_params().size();
  }
};

TEST_F(ObsTest, ChromeTraceFromEngineRunIsValidJsonWithOneSpanPerTier) {
  EngineFixture f;
  fl::Engine engine(f.factory, f.dataset, f.partition, f.topo, f.cfg);
  core::HierAdMo alg;
  engine.run(alg);

  const std::string path = ::testing::TempDir() + "obs_trace.json";
  obs::Tracer::global().write_chrome_json(path);
  const std::string json = read_file(path);
  EXPECT_TRUE(JsonValidator::valid(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"worker\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"edge\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"cloud\""), std::string::npos);
  std::remove(path.c_str());

  const std::string flame = obs::Tracer::global().flame_summary();
  EXPECT_NE(flame.find("local_steps"), std::string::npos);
  EXPECT_NE(flame.find("cloud_sync"), std::string::npos);
}

TEST_F(ObsTest, CommBytesMatchHandComputation) {
  EngineFixture f;
  fl::Engine engine(f.factory, f.dataset, f.partition, f.topo, f.cfg);
  core::HierAdMo alg;
  engine.run(alg);

  const std::uint64_t n = f.model_dim();
  const fl::CommProfile profile = fl::comm_profile_for("HierAdMo");
  const std::size_t intervals = f.cfg.total_iterations / f.cfg.tau;   // 4
  const std::size_t cloud_syncs =
      f.cfg.total_iterations / (f.cfg.tau * f.cfg.pi);                // 2
  obs::CommAccountant& comm = obs::CommAccountant::global();

  // One uncompressed cloud sync ships num_edges × edge_upload_vectors
  // model-sized vectors of sizeof(Scalar) bytes each.
  const obs::LinkTotals up = comm.totals(obs::Link::kEdgeToCloud);
  EXPECT_EQ(up.messages, cloud_syncs * f.topo.num_edges());
  EXPECT_EQ(up.logical_bytes,
            cloud_syncs * f.topo.num_edges() *
                static_cast<std::uint64_t>(profile.edge_upload_vectors) * n *
                sizeof(Scalar));
  EXPECT_EQ(up.wire_bytes(), up.logical_bytes);  // lossless

  const obs::LinkTotals wup = comm.totals(obs::Link::kWorkerToEdge);
  EXPECT_EQ(wup.messages, intervals * f.topo.num_workers());
  EXPECT_EQ(wup.logical_bytes,
            intervals * f.topo.num_workers() *
                static_cast<std::uint64_t>(profile.worker_upload_vectors) *
                n * sizeof(Scalar));

  // No two-tier traffic in a three-tier run.
  EXPECT_EQ(comm.totals(obs::Link::kWorkerToCloud).messages, 0u);
}

TEST_F(ObsTest, CompressionSavingsShrinkWireBytesByHandComputedAmount) {
  EngineFixture f;
  fl::Engine engine(f.factory, f.dataset, f.partition, f.topo, f.cfg);
  core::HierAdMoOptions opt;
  opt.upload_compressor = std::make_shared<fl::TopKCompressor>(0.25);
  core::HierAdMo alg(opt);
  engine.run(alg);

  const std::uint64_t n = f.model_dim();
  // TopK keeps ceil(0.25 n) coordinates of each of the 4 uploaded vectors.
  const std::uint64_t kept = (n + 3) / 4;
  const std::size_t uploads =
      (f.cfg.total_iterations / f.cfg.tau) * f.topo.num_workers();
  const obs::LinkTotals wup =
      obs::CommAccountant::global().totals(obs::Link::kWorkerToEdge);
  EXPECT_EQ(wup.logical_bytes, uploads * 4 * n * sizeof(Scalar));
  EXPECT_EQ(wup.saved_bytes, uploads * 4 * (n - kept) * sizeof(Scalar));
  EXPECT_EQ(wup.wire_bytes(), uploads * 4 * kept * sizeof(Scalar));
  EXPECT_LT(wup.wire_bytes(), wup.logical_bytes);
}

TEST_F(ObsTest, EnabledAndDisabledRunsAreBitIdentical) {
  EngineFixture f;
  // A fault schedule exercises the participation trace as well.
  sim::FaultConfig fc;
  fc.seed = 5;
  fc.dropout.prob = 0.3;
  const sim::FaultPlan plan(f.topo, f.cfg, fc);

  fl::Engine engine(f.factory, f.dataset, f.partition, f.topo, f.cfg);

  obs::set_enabled(true);
  core::HierAdMo alg_on;
  const fl::RunResult on = engine.run_with_oracle(alg_on, &plan);

  obs::set_enabled(false);
  core::HierAdMo alg_off;
  const fl::RunResult off = engine.run_with_oracle(alg_off, &plan);

  ASSERT_EQ(on.curve.size(), off.curve.size());
  for (std::size_t i = 0; i < on.curve.size(); ++i) {
    EXPECT_EQ(on.curve[i].iteration, off.curve[i].iteration);
    EXPECT_EQ(on.curve[i].test_loss, off.curve[i].test_loss);          // bitwise
    EXPECT_EQ(on.curve[i].test_accuracy, off.curve[i].test_accuracy);  // bitwise
  }
  ASSERT_EQ(on.participation.size(), off.participation.size());
  for (std::size_t i = 0; i < on.participation.size(); ++i) {
    EXPECT_EQ(on.participation[i].interval, off.participation[i].interval);
    EXPECT_EQ(on.participation[i].active_workers,
              off.participation[i].active_workers);
    EXPECT_EQ(on.participation[i].active_edges,
              off.participation[i].active_edges);
    EXPECT_EQ(on.participation[i].rate, off.participation[i].rate);
  }
  EXPECT_EQ(on.worker_miss_counts, off.worker_miss_counts);
  EXPECT_EQ(on.mean_participation_rate, off.mean_participation_rate);
}

// The per-owner live-byte gauges: fl.participation.bytes (the engine's
// participation view, set once the first roster is in) and
// pop.descriptors.bytes (the cohort store's descriptors, sampler and
// id → slot table). Both are telemetry only: a disabled run leaves them 0.
TEST_F(ObsTest, PerOwnerByteGaugesMeasureTheRosterAndTheDescriptors) {
  EngineFixture f;
  f.topo = fl::Topology::uniform(4, 16);
  Rng rng(5);
  data::SyntheticSpec spec;
  spec.sample_shape = {1, 2, 2};
  spec.num_classes = 2;
  spec.train_size = 256;
  spec.test_size = 20;
  f.dataset = data::make_synthetic(rng, spec);
  f.partition = data::partition_iid(f.dataset.train, 64, rng);
  const std::size_t n = 64, edges = 4, cohort = 8;
  obs::Registry& reg = obs::Registry::global();

  // A fault-free run on the engine's own full-cohort store has no
  // participation view, and its store no sampler: the descriptors are the
  // 32-bit sample counts, the per-edge sums and the id → slot table.
  {
    fl::Engine engine(f.factory, f.dataset, f.partition, f.topo, f.cfg);
    core::HierAdMo alg;
    engine.run(alg);
    EXPECT_EQ(reg.gauge("fl.participation.bytes").value(), 0.0);
    EXPECT_EQ(reg.gauge("pop.descriptors.bytes").value(),
              static_cast<double>(4 * n + 8 * edges + 4 * n));
  }

  // A sampled run: the view is the u32 position table plus O(cohort +
  // edges), and the descriptors gain the Fenwick tree and its drawn set.
  fl::Engine engine(f.factory, f.dataset, f.partition, f.topo, f.cfg);
  pop::VirtConfig virt;
  virt.cohort_size = cohort;
  pop::CohortStore store(f.factory, f.dataset, f.partition, f.topo, f.cfg,
                         virt);
  engine.set_cohort_provider(&store);
  core::HierAdMo alg;
  engine.run(alg);
  const double part_bytes = reg.gauge("fl.participation.bytes").value();
  EXPECT_GE(part_bytes, static_cast<double>(4 * n));
  EXPECT_LE(part_bytes, static_cast<double>(4 * n + 64 * (cohort + edges)));
  const double base = static_cast<double>(store.descriptors().bytes() +
                                          8 * (n + 1) + 4 * n);
  EXPECT_EQ(store.descriptors().bytes(), 4 * n + 8 * edges);
  EXPECT_GE(reg.gauge("pop.descriptors.bytes").value(), base);
  EXPECT_LE(reg.gauge("pop.descriptors.bytes").value(),
            base + static_cast<double>(4 * 2 * cohort));

  // Telemetry off: nothing is measured.
  reg.reset();
  obs::set_enabled(false);
  core::HierAdMo alg_off;
  engine.run(alg_off);
  EXPECT_EQ(reg.gauge("fl.participation.bytes").value(), 0.0);
  EXPECT_EQ(reg.gauge("pop.descriptors.bytes").value(), 0.0);
}

TEST_F(ObsTest, CommAccountantWritesCsvAndRendersTable) {
  obs::CommAccountant& comm = obs::CommAccountant::global();
  comm.record(obs::Link::kWorkerToEdge, 0, 100);
  comm.record(obs::Link::kWorkerToEdge, 1, 50);
  comm.record_savings(obs::Link::kWorkerToEdge, 0, 40);

  const obs::LinkTotals t = comm.totals(obs::Link::kWorkerToEdge);
  EXPECT_EQ(t.messages, 2u);
  EXPECT_EQ(t.logical_bytes, 150u);
  EXPECT_EQ(t.wire_bytes(), 110u);

  const auto entities = comm.by_entity(obs::Link::kWorkerToEdge);
  ASSERT_EQ(entities.size(), 2u);
  EXPECT_EQ(entities[0].first, 0u);
  EXPECT_EQ(entities[0].second.wire_bytes(), 60u);

  const std::string path = ::testing::TempDir() + "obs_comm.csv";
  comm.write_csv(path);
  const std::string csv = read_file(path);
  EXPECT_NE(csv.find("worker_to_edge,0,1,100,60"), std::string::npos);
  EXPECT_NE(csv.find("worker_to_edge,all,2,150,110"), std::string::npos);
  EXPECT_NE(comm.table().find("worker_to_edge"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hfl
