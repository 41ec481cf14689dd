// Tests for model checkpointing (nn/serialize).
#include "src/nn/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>

#include "src/nn/models.h"

namespace hfl::nn {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "hfl_ckpt_test.bin";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(SerializeTest, ParamsRoundTrip) {
  Vec params{1.5, -2.25, 0.0, 1e-12, 3.14159265358979};
  save_params(params, path_);
  EXPECT_EQ(load_params(path_), params);
}

TEST_F(SerializeTest, EmptyVectorRoundTrips) {
  save_params({}, path_);
  EXPECT_TRUE(load_params(path_).empty());
}

TEST_F(SerializeTest, ModelRoundTrip) {
  auto factory = mlp({1, 4, 4}, 8, 3);
  auto model = factory();
  Rng rng(1);
  model->init_params(rng);
  save_model(*model, path_);

  auto fresh = factory();
  Rng rng2(99);
  fresh->init_params(rng2);  // different params
  load_model(*fresh, path_);
  EXPECT_EQ(fresh->get_params(), model->get_params());
}

TEST_F(SerializeTest, RejectsWrongArchitecture) {
  auto model = mlp({1, 4, 4}, 8, 3)();
  Rng rng(1);
  model->init_params(rng);
  save_model(*model, path_);
  auto other = logistic_regression({1, 4, 4}, 3)();
  EXPECT_THROW(load_model(*other, path_), Error);
}

TEST_F(SerializeTest, RejectsBadMagic) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "NOTACKPTxxxxxxxxxxxxxxxx";
  }
  EXPECT_THROW(load_params(path_), Error);
}

TEST_F(SerializeTest, RejectsTruncatedPayload) {
  Vec params(16, 1.0);
  save_params(params, path_);
  // Truncate the file mid-payload.
  std::ofstream out(path_, std::ios::binary | std::ios::in);
  out.seekp(8 + 8 + 5 * sizeof(Scalar));
  out.close();
  std::ifstream in(path_, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  content.resize(8 + 8 + 5 * sizeof(Scalar));
  std::ofstream rewrite(path_, std::ios::binary | std::ios::trunc);
  rewrite << content;
  rewrite.close();
  EXPECT_THROW(load_params(path_), Error);
}

// A corrupt header claiming 2^62 scalars in a 16-byte file is reported as a
// truncated checkpoint before anything is allocated for it.
TEST_F(SerializeTest, RejectsHeaderCountBeyondFileSize) {
  {
    std::ofstream out(path_, std::ios::binary);
    out.write("HFLCKPT1", 8);
    const std::uint64_t n = std::uint64_t{1} << 62;
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  }
  EXPECT_THROW(load_params(path_), Error);
}

TEST_F(SerializeTest, MissingFileThrows) {
  EXPECT_THROW(load_params("/nonexistent/ckpt.bin"), Error);
}

}  // namespace
}  // namespace hfl::nn
