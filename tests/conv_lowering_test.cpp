// Conv2d's FP64 spans against the explicit lowering, bit for bit.
//
// The reference is composed here from an explicit im2col matrix, the GEMM
// entry points (ops::gemm_batched for the output and dW, ops::gemm for
// dCol) and a col2im scatter, with the bias gradient as one serial add chain
// per channel: the lowering Conv2d ran before its forward and weight
// gradient read zero-padded planes through a row-offset table. Outputs, dW,
// db and dX must match it byte for byte (memcmp, no tolerance).
//
// The grid covers pad 0/1/2 × k 1/3/5, H ≠ W with OW on both sides of a
// 16-lane tile, out_ch off every tile's row count, in_ch·k² > 256 (more
// than one k panel), several samples per call, and the first stage's mode
// (input read in place from a caller's buffer, dX skipped).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/conv2d.h"
#include "src/tensor/gemm.h"
#include "src/tensor/gemm_batched.h"

namespace hfl {
namespace {

using nn::Conv2d;

struct Case {
  std::size_t in_ch, out_ch, k, pad, h, w, bn;
  std::size_t oh() const { return h + 2 * pad - k + 1; }
  std::size_t ow() const { return w + 2 * pad - k + 1; }
  std::size_t cols() const { return oh() * ow(); }
  std::size_t kk() const { return in_ch * k * k; }
  Conv2d::Spec spec() const { return {in_ch, out_ch, k, pad}; }
  std::string name() const {
    return "in_ch=" + std::to_string(in_ch) + " out_ch=" +
           std::to_string(out_ch) + " k=" + std::to_string(k) + " pad=" +
           std::to_string(pad) + " " + std::to_string(h) + "x" +
           std::to_string(w) + " bn=" + std::to_string(bn);
  }
};

Vec random_vec(std::size_t n, Rng& rng) {
  Vec v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

// col(r, b·cols + c) for r = (ic, kh, kw), c = (oh, ow); +0.0 where the
// window hangs over the padding.
Vec im2col(const Case& t, const Scalar* x) {
  const std::size_t total = t.bn * t.cols();
  Vec col(t.kk() * total);
  std::size_t r = 0;
  for (std::size_t ic = 0; ic < t.in_ch; ++ic) {
    for (std::size_t kh = 0; kh < t.k; ++kh) {
      for (std::size_t kw = 0; kw < t.k; ++kw, ++r) {
        for (std::size_t b = 0; b < t.bn; ++b) {
          const Scalar* plane = x + (b * t.in_ch + ic) * t.h * t.w;
          for (std::size_t oh = 0; oh < t.oh(); ++oh) {
            for (std::size_t ow = 0; ow < t.ow(); ++ow) {
              const auto ih = static_cast<std::ptrdiff_t>(oh + kh) -
                              static_cast<std::ptrdiff_t>(t.pad);
              const auto iw = static_cast<std::ptrdiff_t>(ow + kw) -
                              static_cast<std::ptrdiff_t>(t.pad);
              const bool inside =
                  ih >= 0 && iw >= 0 &&
                  ih < static_cast<std::ptrdiff_t>(t.h) &&
                  iw < static_cast<std::ptrdiff_t>(t.w);
              col[r * total + b * t.cols() + oh * t.ow() + ow] =
                  inside ? plane[ih * static_cast<std::ptrdiff_t>(t.w) + iw]
                         : 0.0;
            }
          }
        }
      }
    }
  }
  return col;
}

::testing::AssertionResult same_bits(const Vec& want, const Vec& got) {
  if (want.size() == got.size() &&
      std::memcmp(want.data(), got.data(), want.size() * sizeof(Scalar)) ==
          0) {
    return ::testing::AssertionSuccess();
  }
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure() << "sizes differ";
  }
  std::size_t e = 0;
  while (std::memcmp(&want[e], &got[e], sizeof(Scalar)) == 0) ++e;
  return ::testing::AssertionFailure()
         << "element " << e << ": reference " << want[e] << ", got " << got[e];
}

// Runs both spans on one case and compares every output with the explicit
// lowering. `skip_dx` runs the backward as the first stage does.
void check_case(const Case& t, bool skip_dx, Rng& rng) {
  SCOPED_TRACE(t.name() + (skip_dx ? " (dX skipped)" : ""));
  const std::size_t kk = t.kk(), cols = t.cols(), total = t.bn * cols;
  const std::size_t in_size = t.bn * t.in_ch * t.h * t.w;
  const std::size_t out_size = t.bn * t.out_ch * cols;
  // The input sits at an odd offset inside a larger buffer, as a dataset
  // row read in place does.
  const Vec xbuf = random_vec(in_size + 3, rng);
  const Scalar* x = xbuf.data() + 3;
  const Vec weight = random_vec(t.out_ch * kk, rng);
  const Vec bias = random_vec(t.out_ch, rng);
  const Vec gout = random_vec(out_size, rng);
  // Partially accumulated gradients: the spans add into them.
  const Vec gw0 = random_vec(t.out_ch * kk, rng);
  const Vec gb0 = random_vec(t.out_ch, rng);

  const Vec col = im2col(t, x);

  // Forward reference: bias-filled planes, += W·col per sample.
  Vec want_out(out_size);
  for (std::size_t b = 0; b < t.bn; ++b) {
    for (std::size_t oc = 0; oc < t.out_ch; ++oc) {
      Scalar* row = want_out.data() + (b * t.out_ch + oc) * cols;
      std::fill(row, row + cols, bias[oc]);
    }
  }
  ops::gemm_batched(false, false, t.out_ch, cols, kk, t.bn, weight.data(), kk,
                    0, col.data(), total, cols, 1.0, want_out.data(), cols,
                    t.out_ch * cols);
  Vec got_out(out_size, -7.0);
  Conv2d::forward_span(t.spec(), t.h, t.w, weight.data(), bias.data(), x,
                       t.bn, got_out.data(), /*mixed=*/false);
  EXPECT_TRUE(same_bits(want_out, got_out)) << "forward output";

  // dW reference: G·colᵀ per sample into one accumulator, in sample order.
  Vec want_gw = gw0;
  ops::gemm_batched(false, true, t.out_ch, kk, cols, t.bn, gout.data(), cols,
                    t.out_ch * cols, col.data(), total, cols, 1.0,
                    want_gw.data(), kk, 0);
  // db reference: one serial chain per (sample, channel).
  Vec want_gb = gb0;
  for (std::size_t b = 0; b < t.bn; ++b) {
    for (std::size_t oc = 0; oc < t.out_ch; ++oc) {
      const Scalar* g = gout.data() + (b * t.out_ch + oc) * cols;
      Scalar sum = 0;
      for (std::size_t c = 0; c < cols; ++c) sum += g[c];
      want_gb[oc] += sum;
    }
  }
  // dX reference: dCol = Wᵀ·G per sample, scattered back by col2im.
  Vec want_gi(in_size, 0.0);
  Vec dcol(kk * cols);
  for (std::size_t b = 0; b < t.bn; ++b) {
    ops::gemm(true, false, kk, cols, t.out_ch, weight.data(), kk,
              gout.data() + b * t.out_ch * cols, cols, 0.0, dcol.data(),
              cols);
    std::size_t r = 0;
    for (std::size_t ic = 0; ic < t.in_ch; ++ic) {
      Scalar* plane = want_gi.data() + (b * t.in_ch + ic) * t.h * t.w;
      for (std::size_t kh = 0; kh < t.k; ++kh) {
        for (std::size_t kw = 0; kw < t.k; ++kw, ++r) {
          for (std::size_t oh = 0; oh < t.oh(); ++oh) {
            for (std::size_t ow = 0; ow < t.ow(); ++ow) {
              const auto ih = static_cast<std::ptrdiff_t>(oh + kh) -
                              static_cast<std::ptrdiff_t>(t.pad);
              const auto iw = static_cast<std::ptrdiff_t>(ow + kw) -
                              static_cast<std::ptrdiff_t>(t.pad);
              if (ih < 0 || iw < 0 || ih >= static_cast<std::ptrdiff_t>(t.h) ||
                  iw >= static_cast<std::ptrdiff_t>(t.w)) {
                continue;
              }
              plane[ih * static_cast<std::ptrdiff_t>(t.w) + iw] +=
                  dcol[r * cols + oh * t.ow() + ow];
            }
          }
        }
      }
    }
  }

  Vec got_gw = gw0, got_gb = gb0;
  Vec got_gi(in_size, 0.0);
  Conv2d::backward_span(t.spec(), t.h, t.w, weight.data(), x, t.bn,
                        gout.data(), got_gw.data(), got_gb.data(),
                        skip_dx ? nullptr : got_gi.data(), /*mixed=*/false);
  EXPECT_TRUE(same_bits(want_gw, got_gw)) << "dW";
  EXPECT_TRUE(same_bits(want_gb, got_gb)) << "db";
  if (!skip_dx) {
    EXPECT_TRUE(same_bits(want_gi, got_gi)) << "dX";
  }
}

TEST(ConvLoweringTest, PadAndKernelGridMatchesExplicitLoweringBitwise) {
  Rng rng(23);
  // Two H ≠ W planes: OW below 16 (13×6 input) and above it (9×20).
  const std::size_t planes[][2] = {{13, 6}, {9, 20}};
  for (const std::size_t k : {1, 3, 5}) {
    for (const std::size_t pad : {0, 1, 2}) {
      for (const auto& hw : planes) {
        if (hw[0] + 2 * pad < k || hw[1] + 2 * pad < k) continue;
        // out_ch 5 and 13 sit off the 4-, 6- and 8-row tiles.
        check_case({2, 5, k, pad, hw[0], hw[1], 3}, false, rng);
        check_case({3, 13, k, pad, hw[0], hw[1], 2}, false, rng);
        if (HasFailure()) return;
      }
    }
  }
}

TEST(ConvLoweringTest, MultiPanelDepthMatchesExplicitLoweringBitwise) {
  Rng rng(24);
  // kk = 32·3·3 = 288 > 256: two k panels, each added to C in order.
  check_case({32, 10, 3, 1, 8, 11, 2}, false, rng);
  // kk = 16·5·5 = 400, a wide plane with OW = 24.
  check_case({16, 7, 5, 2, 6, 24, 2}, false, rng);
}

TEST(ConvLoweringTest, TableTwoShapesMatchExplicitLoweringBitwise) {
  Rng rng(25);
  // The Table II CNN's two convolutions, the MiniVGG and MiniResNet
  // layers (3×3 same convs, the 1×1 projection) at their plane sizes.
  const Case cases[] = {{1, 8, 5, 2, 28, 28, 4},  {8, 16, 5, 2, 14, 14, 4},
                        {3, 8, 3, 1, 32, 32, 2},  {8, 16, 3, 1, 16, 16, 2},
                        {16, 32, 3, 1, 8, 8, 3},  {8, 16, 1, 0, 16, 16, 2}};
  for (const Case& t : cases) check_case(t, false, rng);
}

TEST(ConvLoweringTest, FirstStageReadsInputInPlaceAndSkipsDx) {
  Rng rng(26);
  check_case({1, 8, 5, 2, 28, 28, 3}, true, rng);
  check_case({3, 5, 3, 1, 10, 7, 2}, true, rng);
}

}  // namespace
}  // namespace hfl
