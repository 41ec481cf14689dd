// 2-D convolution over NCHW tensors.
//
// Stride-1 convolution with symmetric zero padding, lowered to GEMM against
// the (out_ch × in_ch·k²) weight matrix, whose columns r = (ic, kh, kw)
// index the patch matrix rows. In FP64 the forward and the weight gradient
// are implicit GEMMs (src/tensor/conv_gemm.h): each sample is copied once
// into a zero-padded plane and the GEMM's register-tile kernel reads patch
// row r through a row-offset table, so the im2col matrix is never written.
// The input gradient is a transposed GEMM per sample (ops::gemm_batched,
// weight operand shared across a cache-sized chunk of samples) into a dcol
// buffer that col2im scatters back. Weight layout is (out_ch, in_ch, kh,
// kw), one bias per output channel.
//
// The heavy lifting lives in static `forward_span` / `backward_span` helpers
// that take raw parameter/gradient pointers and a sample range, so the cohort
// executor (src/nn/cohort.cpp) can run many workers' convolutions over one
// concatenated activation tensor without staging parameters through layer
// tensors. The layer methods call the same spans — one code path, one FP
// behaviour. Span results are bit-identical to the explicit im2col +
// ops::gemm_batched lowering (tests/conv_lowering_test.cpp).
//
// The padded-plane and dcol scratch is thread-local and
// shared by every Conv2d instance on a thread, so peak scratch memory scales
// with the thread count and the chunk size, not with the simulated fleet
// size.
#pragma once

#include "src/nn/layer.h"

namespace hfl::nn {

class Conv2d final : public Layer {
 public:
  // Geometry bundle for the static span helpers.
  struct Spec {
    std::size_t in_ch = 0, out_ch = 0, k = 0, pad = 0;
    std::size_t kk() const { return in_ch * k * k; }
  };

  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t padding);

  std::string kind() const override { return "conv2d"; }
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&grad_weight_, &grad_bias_}; }
  void init_params(Rng& rng) override;

  std::size_t in_channels() const { return in_ch_; }
  std::size_t out_channels() const { return out_ch_; }
  std::size_t kernel() const { return k_; }
  std::size_t padding() const { return pad_; }

  // Forward for `bn` consecutive (in_ch, H, W) samples starting at `x0`.
  // `out0` points at the first sample's (out_ch, OH·OW) output plane;
  // consecutive samples' planes follow contiguously (the cohort executor
  // passes offsets into its concatenated activation buffers). `weight` is
  // (out_ch, in_ch·k²) row-major, `bias` is (out_ch).
  //
  // Both spans bump the conv telemetry (conv.fwd_calls / conv.bwd_calls /
  // conv.im2col_bytes, the bytes the lowering writes: padded planes and
  // dcol), so the layer methods and the cohort plan are counted alike.
  static void forward_span(const Spec& s, std::size_t H, std::size_t W,
                           const Scalar* weight, const Scalar* bias,
                           const Scalar* x0, std::size_t bn, Scalar* out0);

  // Backward for the same `bn` samples: accumulates into grad_weight /
  // grad_bias (in sample order — callers pass zeroed or partially
  // accumulated buffers) and scatter-adds dX into `grad_in0`, the first
  // sample's pre-zeroed (in_ch, H·W) input-gradient plane. `gout0` points
  // at the first sample's upstream-gradient plane. Pass grad_in0 == nullptr
  // to skip the dX computation entirely (dCol product + col2im) — the
  // cohort executor does this for the model's first parametric layer,
  // whose input gradient has no consumer.
  static void backward_span(const Spec& s, std::size_t H, std::size_t W,
                            const Scalar* weight, const Scalar* x0,
                            std::size_t bn, const Scalar* gout0,
                            Scalar* grad_weight, Scalar* grad_bias,
                            Scalar* grad_in0);

 private:
  Spec spec() const { return {in_ch_, out_ch_, k_, pad_}; }

  std::size_t in_ch_, out_ch_, k_, pad_;
  Tensor weight_, bias_;
  Tensor grad_weight_, grad_bias_;
  Tensor input_;
};

}  // namespace hfl::nn
