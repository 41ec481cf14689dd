// Flat-vector math.
//
// Federated-learning algorithms manipulate model parameters as flat vectors:
// aggregation is a weighted average, momentum updates are axpy operations, and
// the adaptive-momentum angle of HierAdMo (paper eq. (6)) is a cosine between
// two accumulated vectors. These helpers are the shared vocabulary for all of
// that. All binary operations require equal sizes (checked).
//
// Two entry points serve callers that sweep many vectors per round and want
// each vector read once: the cosines sum ‖x‖², ‖y‖² and x·y in one pass
// (each sum in dot's order; cosines_clear also zeroes what it read), and
// weighted_sum_tile computes one output tile of the fused weighted sum, so a
// caller can aggregate, update and write back a tile before reading the next
// (HierAdMo's edge and cloud rounds, src/core/hieradmo.cpp). Neither moves a
// bit relative to the multi-pass form. Both take raw row pointers with a
// stated length; their sizes are the caller's contract.
#pragma once

#include <span>

#include "src/common/types.h"

namespace hfl::vec {

// y += a * x
void axpy(Scalar a, std::span<const Scalar> x, std::span<Scalar> y);

// x *= a
void scale(std::span<Scalar> x, Scalar a);

// out = a*x + b*y (out may alias x or y)
void linear_combination(Scalar a, std::span<const Scalar> x, Scalar b,
                        std::span<const Scalar> y, std::span<Scalar> out);

Scalar dot(std::span<const Scalar> x, std::span<const Scalar> y);

// Euclidean norm.
Scalar norm(std::span<const Scalar> x);

// ||x - y||
Scalar distance(std::span<const Scalar> x, std::span<const Scalar> y);

// Cosine of the angle between x and y. Returns 0 when either vector has
// (near-)zero norm — the natural neutral value for HierAdMo's adaptation,
// where cosθ ≤ 0 maps to momentum weight 0.
Scalar cosine(std::span<const Scalar> x, std::span<const Scalar> y);

// cosine(-x, y) without materializing the negated vector. Bit-identical to
// negating x first: IEEE multiplication and addition are sign-symmetric, so
// dot(-x, y) == -dot(x, y) and norm(-x) == norm(x) exactly.
Scalar cosine_neg(std::span<const Scalar> x, std::span<const Scalar> y);

// Batched cosines over pairs of length-n rows: out[k] = cosine(xs[k], ys[k])
// — cosine_neg when `negate`. Every cosine reads its two rows once: ‖x‖²,
// ‖y‖² and x·y are summed in one pass, each in dot's index order, so out[k]
// has the bits of three separate dot calls (cosine and cosine_neg are this
// kernel on one pair). Two pairs share each pass, overlapping their serial
// summation chains.
void cosines(std::span<const Scalar* const> xs,
             std::span<const Scalar* const> ys, std::size_t n, bool negate,
             std::span<Scalar> out);

// cosines that restarts the rows it reads: each element of xs[k] — and of
// ys[k] when `clear_ys` — is left +0.0 right behind its read. The sums are
// cosines' own, in the same order, so out[k] has cosines' bits, and a caller
// that zeroes accumulators after correlating them (HierAdMo's γ pass) saves
// a second stream over them. A cleared row must not appear anywhere else in
// the call; a row that is not cleared may repeat.
void cosines_clear(std::span<Scalar* const> xs, std::span<Scalar* const> ys,
                   std::size_t n, bool negate, bool clear_ys,
                   std::span<Scalar> out);

// out = Σ_i weights[i] * vecs[i]. Weights need not sum to one (callers that
// want a weighted mean pass normalized weights). All vectors must share the
// output's size, and vecs.size() == weights.size() >= 1. Fused single pass:
// the output is accumulated tile-by-tile across all inputs, so cost stays
// one stream per input plus one cache-resident output tile even at large
// fleet sizes. `out` must not alias any input.
void weighted_sum(std::span<const Vec* const> vecs,
                  std::span<const Scalar> weights, Vec& out);

// Overload over a vector of Vec values (no pointer-array indirection).
void weighted_sum(const std::vector<Vec>& vecs,
                  std::span<const Scalar> weights, Vec& out);

// Partial-range weighted sum: writes only out[lo, hi), which must already be
// sized to the input length. Each output element is accumulated across the
// inputs in fixed input-index order, so splitting [0, n) into any set of
// ranges — one per thread of a parallel reduction — produces bit-identical
// results to one full-range call. This is the engine's deterministic
// aggregation primitive: FP summation order depends only on the input count,
// never on the thread count or partition shape.
void weighted_sum_range(std::span<const Vec* const> vecs,
                        std::span<const Scalar> weights, Vec& out,
                        std::size_t lo, std::size_t hi);

// One output tile over raw input rows: out[j] = Σ_v weights[v]·rows[v][lo + j]
// for j ∈ [0, out.size()). It runs weighted_sum_range's per-element code
// (same input order, same 4-way grouping, same tail), so a caller sweeping
// [0, n) tile by tile — at any tile width — gets weighted_sum's bits while
// it does other work on each tile before moving on. `rows` holds each
// input's base pointer; `out` must not overlap any input.
void weighted_sum_tile(std::span<const Scalar* const> rows,
                       std::span<const Scalar> weights, std::size_t lo,
                       std::span<Scalar> out);

// Fill with a constant.
void fill(std::span<Scalar> x, Scalar value);

// max_i |x_i - y_i|
Scalar max_abs_diff(std::span<const Scalar> x, std::span<const Scalar> y);

// ---------------------------------------------------------------------------
// Fused parameter-plane kernels.
//
// Each kernel below collapses a sequence of axpy/scale/copy passes that the
// momentum algebra used to run as separate loops into ONE pass over the
// vectors, with an AVX2+FMA body and a scalar tail that computes the exact
// same per-element expression (std::fma mirrors the vector fmadd, so the
// tail and the SIMD body agree bitwise).
//
// Contract: element i's result depends only on index-i inputs — no cross-
// element reductions — so the kernels are trivially invariant to any thread
// partition of the index range. Per-element values may differ from the
// previously composed loops by the usual FMA-contraction rounding (≤1 ulp
// per fused multiply-add); every caller was moved in the same change, so the
// within-binary parity oracles (serial-vs-parallel, batched-vs-per-worker,
// virtualized-vs-dense) compare paths running identical kernels.
// ---------------------------------------------------------------------------

// y = a*x + b*y (extended BLAS axpby).
void axpby(Scalar a, std::span<const Scalar> x, Scalar b, std::span<Scalar> y);

// x = a*x + b*y — axpby with the in-place operand first. Same per-element
// expression (FP addition is commutative bitwise), kept as a named entry
// point for callers whose natural reading is "scale, then add scaled".
void scale_add_scale(std::span<Scalar> x, Scalar a,
                     std::span<const Scalar> y, Scalar b);

// Classical momentum step, fused: m = gamma*m + g; p -= eta*m.
void momentum_step(std::span<Scalar> m, std::span<const Scalar> g,
                   Scalar gamma, std::span<Scalar> p, Scalar eta);

// Pull y toward x: y = x + d*(y - x). This is the absent-worker momentum
// decay algebra (fl::Participation kDecay) — d = 1 holds, d = 0 resets.
void decay_toward(std::span<Scalar> y, std::span<const Scalar> x, Scalar d);

// Momentum extrapolation with state update, fused:
//   out = cur + gamma*(cur - prev);  prev = cur.
// This is the aggregator-Nesterov pattern shared by HierAdMo's edge blend
// (x_plus from the fresh edge average vs. the previous round's) and FedMom's
// server step. `out` may alias neither input; `cur` and `prev` must differ.
void extrapolate_update(std::span<const Scalar> cur, std::span<Scalar> prev,
                        Scalar gamma, std::span<Scalar> out);

// Fused NAG local step (core/nag.cpp algebra), one pass:
//   y_new = x - eta*grad;  x = y_new + gamma*(y_new - y);  y = y_new.
// The velocity y_new - y is a register temporary; no vector holds it.
void nag_step(std::span<Scalar> x, std::span<Scalar> y,
              std::span<const Scalar> grad, Scalar eta, Scalar gamma);

// nag_step plus the HierAdMo accumulators, still one pass:
//   sum_grad += grad;  sum_y += y (pre-update);  ...step...;
//   sum_v += y_new - y_old.
// An empty sum_v is skipped: it is neither read nor written, so a run that
// never reads Σv streams only x, y, grad, sum_grad and sum_y.
void nag_step_accumulate(std::span<Scalar> x, std::span<Scalar> y,
                         std::span<const Scalar> grad, Scalar eta,
                         Scalar gamma, std::span<Scalar> sum_grad,
                         std::span<Scalar> sum_y, std::span<Scalar> sum_v);

// SlowMo-style server fold, fused: m = beta*m + (x - agg); x -= lr*m.
void slowmo_step(std::span<Scalar> x, std::span<const Scalar> agg,
                 std::span<Scalar> m, Scalar beta, Scalar lr);

// Drift-corrected descent (FedADC local step): x -= eta*(g + beta*u).
void descent_drift(std::span<Scalar> x, std::span<const Scalar> g,
                   std::span<const Scalar> u, Scalar eta, Scalar beta);

// Mime's blended descent: x -= eta*((1-beta)*g + beta*m).
void descent_blend(std::span<Scalar> x, std::span<const Scalar> g,
                   std::span<const Scalar> m, Scalar eta, Scalar beta);

// Mime's SVRG-corrected descent: the blended step with the paired correction
// g_b - g_a + ghat in place of g, evaluated inline (no corrected-gradient
// temporary): x -= eta*((1-beta)*(gb - ga + ghat) + beta*m).
void descent_svrg(std::span<Scalar> x, std::span<const Scalar> gb,
                  std::span<const Scalar> ga, std::span<const Scalar> ghat,
                  std::span<const Scalar> m, Scalar eta, Scalar beta);

// FedADC server update, fused:
//   u = beta*u + (1-beta)*((x - agg)*inv_step);  x = agg.
void adc_server_update(std::span<Scalar> x, std::span<const Scalar> agg,
                       std::span<Scalar> u, Scalar beta, Scalar inv_step);

}  // namespace hfl::vec
