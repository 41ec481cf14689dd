#include "src/common/vec_ops.h"

#include <algorithm>
#include <cmath>

#include "src/common/errors.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define HFL_VEC_AVX2 1
#endif

namespace hfl::vec {

void axpy(Scalar a, std::span<const Scalar> x, std::span<Scalar> y) {
  HFL_CHECK(x.size() == y.size(), "axpy size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += a * x[i];
}

void scale(std::span<Scalar> x, Scalar a) {
  for (auto& v : x) v *= a;
}

void linear_combination(Scalar a, std::span<const Scalar> x, Scalar b,
                        std::span<const Scalar> y, std::span<Scalar> out) {
  HFL_CHECK(x.size() == y.size() && x.size() == out.size(),
            "linear_combination size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = a * x[i] + b * y[i];
}

Scalar dot(std::span<const Scalar> x, std::span<const Scalar> y) {
  HFL_CHECK(x.size() == y.size(), "dot size mismatch");
  Scalar acc = 0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

Scalar norm(std::span<const Scalar> x) { return std::sqrt(dot(x, x)); }

Scalar distance(std::span<const Scalar> x, std::span<const Scalar> y) {
  HFL_CHECK(x.size() == y.size(), "distance size mismatch");
  Scalar acc = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const Scalar d = x[i] - y[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

namespace {

// x·y / (‖x‖‖y‖) from one pass's sums, or 0 for a (near-)zero norm.
Scalar cosine_from(Scalar xx, Scalar yy, Scalar xy, bool negate) {
  const Scalar nx = std::sqrt(xx);
  const Scalar ny = std::sqrt(yy);
  constexpr Scalar kEps = 1e-12;
  if (nx < kEps || ny < kEps) return 0.0;
  const Scalar c = xy / (nx * ny);
  return std::clamp(negate ? -c : c, Scalar{-1}, Scalar{1});
}

// The batched cosine pass; kClearX / kClearY leave +0.0 behind every
// element read of that side's rows. A pass loads all four elements before it
// writes any zero, so a pair's own rows may alias.
template <bool kClearX, bool kClearY, class X, class Y>
void cosines_pass(std::span<X* const> xs, std::span<Y* const> ys,
                  std::size_t n, bool negate, std::span<Scalar> out) {
  HFL_CHECK(xs.size() == ys.size() && xs.size() == out.size(),
            "cosines needs one x, one y and one output per pair");
  // Each sum runs in index order with dot's exact per-element expression,
  // so it has dot's bits. Two pairs share a pass: their six independent
  // dependency chains overlap instead of running one serial chain at a time.
  std::size_t k = 0;
  for (; k + 2 <= xs.size(); k += 2) {
    X *x0 = xs[k], *x1 = xs[k + 1];
    Y *y0 = ys[k], *y1 = ys[k + 1];
    Scalar xx0 = 0, yy0 = 0, xy0 = 0, xx1 = 0, yy1 = 0, xy1 = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Scalar a0 = x0[i], b0 = y0[i], a1 = x1[i], b1 = y1[i];
      xx0 += a0 * a0;
      yy0 += b0 * b0;
      xy0 += a0 * b0;
      xx1 += a1 * a1;
      yy1 += b1 * b1;
      xy1 += a1 * b1;
      if constexpr (kClearX) x0[i] = x1[i] = 0.0;
      if constexpr (kClearY) y0[i] = y1[i] = 0.0;
    }
    out[k] = cosine_from(xx0, yy0, xy0, negate);
    out[k + 1] = cosine_from(xx1, yy1, xy1, negate);
  }
  if (k < xs.size()) {
    X* x = xs[k];
    Y* y = ys[k];
    Scalar xx = 0, yy = 0, xy = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Scalar a = x[i], b = y[i];
      xx += a * a;
      yy += b * b;
      xy += a * b;
      if constexpr (kClearX) x[i] = 0.0;
      if constexpr (kClearY) y[i] = 0.0;
    }
    out[k] = cosine_from(xx, yy, xy, negate);
  }
}

}  // namespace

void cosines(std::span<const Scalar* const> xs,
             std::span<const Scalar* const> ys, std::size_t n, bool negate,
             std::span<Scalar> out) {
  cosines_pass<false, false>(xs, ys, n, negate, out);
}

void cosines_clear(std::span<Scalar* const> xs, std::span<Scalar* const> ys,
                   std::size_t n, bool negate, bool clear_ys,
                   std::span<Scalar> out) {
  if (clear_ys) {
    cosines_pass<true, true>(xs, ys, n, negate, out);
  } else {
    cosines_pass<true, false>(xs, ys, n, negate, out);
  }
}

namespace {

Scalar one_cosine(std::span<const Scalar> x, std::span<const Scalar> y,
                  bool negate) {
  HFL_CHECK(x.size() == y.size(), "cosine size mismatch");
  const Scalar* xs[] = {x.data()};
  const Scalar* ys[] = {y.data()};
  Scalar c = 0;
  cosines(xs, ys, x.size(), negate, {&c, 1});
  return c;
}

}  // namespace

Scalar cosine(std::span<const Scalar> x, std::span<const Scalar> y) {
  return one_cosine(x, y, /*negate=*/false);
}

Scalar cosine_neg(std::span<const Scalar> x, std::span<const Scalar> y) {
  return one_cosine(x, y, /*negate=*/true);
}

namespace {

constexpr std::size_t kSumTile = 4096;

// One output tile of the fused weighted sum: out[j] = Σ_v w[v]·at(v)[lo + j]
// for j ∈ [0, len). Each element is accumulated over the inputs in index
// order with a fixed 4-way grouping that depends only on `count`, so every
// tiling of [0, n) — any tile width, any range split — yields bit-identical
// element values. Four inputs fold per pass, quartering the
// read-modify-write traffic on the cache-resident output tile. This is the
// one copy of the per-element code: weighted_sum*, weighted_sum_range and
// weighted_sum_tile all run it.
template <class RowAt>
void sum_tile(std::size_t count, const Scalar* w, RowAt&& at, std::size_t lo,
              std::size_t len, Scalar* out) {
  std::fill(out, out + len, 0.0);
  std::size_t v = 0;
  for (; v + 4 <= count; v += 4) {
    const Scalar w0 = w[v], w1 = w[v + 1], w2 = w[v + 2], w3 = w[v + 3];
    const Scalar* x0 = at(v) + lo;
    const Scalar* x1 = at(v + 1) + lo;
    const Scalar* x2 = at(v + 2) + lo;
    const Scalar* x3 = at(v + 3) + lo;
    for (std::size_t j = 0; j < len; ++j) {
      out[j] += w0 * x0[j] + w1 * x1[j] + w2 * x2[j] + w3 * x3[j];
    }
  }
  for (; v < count; ++v) {
    const Scalar wv = w[v];
    const Scalar* x = at(v) + lo;
    for (std::size_t j = 0; j < len; ++j) out[j] += wv * x[j];
  }
}

// Fused single-pass weighted sum over out[range_lo, range_hi): each output
// tile stays cache-resident while every input vector streams through it,
// instead of one full memory pass over `out` per input (which is what an
// axpy-per-worker loop costs at fleet scale).
template <class VecAt>
void weighted_sum_tiled(std::size_t count, std::span<const Scalar> weights,
                        Vec& out, std::size_t range_lo, std::size_t range_hi,
                        VecAt&& vec_at) {
  HFL_CHECK(count > 0, "weighted_sum needs at least one vector");
  HFL_CHECK(count == weights.size(), "weighted_sum weight count");
  const std::size_t n = vec_at(0).size();
  for (std::size_t v = 1; v < count; ++v) {
    HFL_CHECK(vec_at(v).size() == n, "weighted_sum vector size mismatch");
  }
  HFL_CHECK(out.size() == n, "weighted_sum output size mismatch");
  HFL_CHECK(range_lo <= range_hi && range_hi <= n,
            "weighted_sum range out of bounds");
  const auto at = [&](std::size_t v) { return vec_at(v).data(); };
  for (std::size_t lo = range_lo; lo < range_hi; lo += kSumTile) {
    const std::size_t len = std::min(range_hi - lo, kSumTile);
    sum_tile(count, weights.data(), at, lo, len, out.data() + lo);
  }
}

}  // namespace

void weighted_sum(std::span<const Vec* const> vecs,
                  std::span<const Scalar> weights, Vec& out) {
  HFL_CHECK(!vecs.empty(), "weighted_sum needs at least one vector");
  out.resize(vecs[0]->size());
  weighted_sum_tiled(vecs.size(), weights, out, 0, out.size(),
                     [&](std::size_t v) -> const Vec& { return *vecs[v]; });
}

void weighted_sum(const std::vector<Vec>& vecs,
                  std::span<const Scalar> weights, Vec& out) {
  // Indexes the vectors directly — no per-call pointer-array rebuild.
  HFL_CHECK(!vecs.empty(), "weighted_sum needs at least one vector");
  out.resize(vecs[0].size());
  weighted_sum_tiled(vecs.size(), weights, out, 0, out.size(),
                     [&](std::size_t v) -> const Vec& { return vecs[v]; });
}

void weighted_sum_range(std::span<const Vec* const> vecs,
                        std::span<const Scalar> weights, Vec& out,
                        std::size_t lo, std::size_t hi) {
  weighted_sum_tiled(vecs.size(), weights, out, lo, hi,
                     [&](std::size_t v) -> const Vec& { return *vecs[v]; });
}

void weighted_sum_tile(std::span<const Scalar* const> rows,
                       std::span<const Scalar> weights, std::size_t lo,
                       std::span<Scalar> out) {
  HFL_CHECK(!rows.empty() && rows.size() == weights.size(),
            "weighted_sum_tile needs one weight per input row");
  sum_tile(rows.size(), weights.data(),
           [&](std::size_t v) { return rows[v]; }, lo, out.size(),
           out.data());
}

void fill(std::span<Scalar> x, Scalar value) {
  std::fill(x.begin(), x.end(), value);
}

Scalar max_abs_diff(std::span<const Scalar> x, std::span<const Scalar> y) {
  HFL_CHECK(x.size() == y.size(), "max_abs_diff size mismatch");
  Scalar m = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    m = std::max(m, std::abs(x[i] - y[i]));
  }
  return m;
}

// ---------------------------------------------------------------------------
// Fused parameter-plane kernels. Every kernel pairs a 4-wide AVX2+FMA body
// with a scalar tail built from std::fma so the tail reproduces the vector
// lanes' rounding exactly; without AVX2 the std::fma loop is the whole
// kernel. All are elementwise (no reductions), hence partition-invariant.
// ---------------------------------------------------------------------------

void axpby(Scalar a, std::span<const Scalar> x, Scalar b,
           std::span<Scalar> y) {
  HFL_CHECK(x.size() == y.size(), "axpby size mismatch");
  std::size_t i = 0;
#ifdef HFL_VEC_AVX2
  const __m256d va = _mm256_set1_pd(a);
  const __m256d vb = _mm256_set1_pd(b);
  for (; i + 4 <= x.size(); i += 4) {
    const __m256d vx = _mm256_loadu_pd(x.data() + i);
    const __m256d vy = _mm256_loadu_pd(y.data() + i);
    _mm256_storeu_pd(y.data() + i,
                     _mm256_fmadd_pd(va, vx, _mm256_mul_pd(vb, vy)));
  }
#endif
  for (; i < x.size(); ++i) y[i] = std::fma(a, x[i], b * y[i]);
}

void scale_add_scale(std::span<Scalar> x, Scalar a,
                     std::span<const Scalar> y, Scalar b) {
  // FP addition is commutative bitwise, so b*y + a*x == a*x + b*y.
  axpby(b, y, a, x);
}

void momentum_step(std::span<Scalar> m, std::span<const Scalar> g,
                   Scalar gamma, std::span<Scalar> p, Scalar eta) {
  HFL_CHECK(m.size() == g.size() && m.size() == p.size(),
            "momentum_step size mismatch");
  std::size_t i = 0;
#ifdef HFL_VEC_AVX2
  const __m256d vgamma = _mm256_set1_pd(gamma);
  const __m256d vneta = _mm256_set1_pd(-eta);
  for (; i + 4 <= m.size(); i += 4) {
    const __m256d vm = _mm256_fmadd_pd(vgamma, _mm256_loadu_pd(m.data() + i),
                                       _mm256_loadu_pd(g.data() + i));
    _mm256_storeu_pd(m.data() + i, vm);
    _mm256_storeu_pd(p.data() + i,
                     _mm256_fmadd_pd(vneta, vm, _mm256_loadu_pd(p.data() + i)));
  }
#endif
  for (; i < m.size(); ++i) {
    const Scalar mi = std::fma(gamma, m[i], g[i]);
    m[i] = mi;
    p[i] = std::fma(-eta, mi, p[i]);
  }
}

void decay_toward(std::span<Scalar> y, std::span<const Scalar> x, Scalar d) {
  HFL_CHECK(x.size() == y.size(), "decay_toward size mismatch");
  std::size_t i = 0;
#ifdef HFL_VEC_AVX2
  const __m256d vd = _mm256_set1_pd(d);
  for (; i + 4 <= y.size(); i += 4) {
    const __m256d vx = _mm256_loadu_pd(x.data() + i);
    const __m256d vy = _mm256_loadu_pd(y.data() + i);
    _mm256_storeu_pd(y.data() + i,
                     _mm256_fmadd_pd(vd, _mm256_sub_pd(vy, vx), vx));
  }
#endif
  for (; i < y.size(); ++i) y[i] = std::fma(d, y[i] - x[i], x[i]);
}

void extrapolate_update(std::span<const Scalar> cur, std::span<Scalar> prev,
                        Scalar gamma, std::span<Scalar> out) {
  HFL_CHECK(cur.size() == prev.size() && cur.size() == out.size(),
            "extrapolate_update size mismatch");
  std::size_t i = 0;
#ifdef HFL_VEC_AVX2
  const __m256d vgamma = _mm256_set1_pd(gamma);
  for (; i + 4 <= cur.size(); i += 4) {
    const __m256d vc = _mm256_loadu_pd(cur.data() + i);
    const __m256d vp = _mm256_loadu_pd(prev.data() + i);
    _mm256_storeu_pd(out.data() + i,
                     _mm256_fmadd_pd(vgamma, _mm256_sub_pd(vc, vp), vc));
    _mm256_storeu_pd(prev.data() + i, vc);
  }
#endif
  for (; i < cur.size(); ++i) {
    const Scalar c = cur[i];
    out[i] = std::fma(gamma, c - prev[i], c);
    prev[i] = c;
  }
}

namespace {

// The NAG step over x, y, grad and optionally the HierAdMo accumulators:
// sum_grad += grad; sum_y += y (pre-update);
// y_new = x - eta*grad;  v = y_new - y;  y = y_new;  x = y_new + gamma*v;
// sum_v += v. The velocity v lives in a register only, and a vector the
// instantiation does not keep is neither read nor written — not even in the
// scalar tail.
template <bool kSums, bool kVelocity>
void nag_kernel(Scalar* x, Scalar* y, const Scalar* grad, std::size_t n,
                Scalar eta, Scalar gamma, Scalar* sum_grad, Scalar* sum_y,
                Scalar* sum_v) {
  std::size_t i = 0;
#ifdef HFL_VEC_AVX2
  const __m256d vneta = _mm256_set1_pd(-eta);
  const __m256d vgamma = _mm256_set1_pd(gamma);
  for (; i + 4 <= n; i += 4) {
    const __m256d vg = _mm256_loadu_pd(grad + i);
    const __m256d vy = _mm256_loadu_pd(y + i);
    if constexpr (kSums) {
      _mm256_storeu_pd(sum_grad + i,
                       _mm256_add_pd(_mm256_loadu_pd(sum_grad + i), vg));
      _mm256_storeu_pd(sum_y + i, _mm256_add_pd(_mm256_loadu_pd(sum_y + i), vy));
    }
    const __m256d vyn = _mm256_fmadd_pd(vneta, vg, _mm256_loadu_pd(x + i));
    const __m256d vvn = _mm256_sub_pd(vyn, vy);
    _mm256_storeu_pd(y + i, vyn);
    _mm256_storeu_pd(x + i, _mm256_fmadd_pd(vgamma, vvn, vyn));
    if constexpr (kVelocity) {
      _mm256_storeu_pd(sum_v + i, _mm256_add_pd(_mm256_loadu_pd(sum_v + i), vvn));
    }
  }
#endif
  for (; i < n; ++i) {
    if constexpr (kSums) {
      sum_grad[i] += grad[i];
      sum_y[i] += y[i];  // pre-update y, matching the unfused pass order
    }
    const Scalar y_new = std::fma(-eta, grad[i], x[i]);
    const Scalar v_new = y_new - y[i];
    y[i] = y_new;
    x[i] = std::fma(gamma, v_new, y_new);
    if constexpr (kVelocity) sum_v[i] += v_new;
  }
}

}  // namespace

void nag_step(std::span<Scalar> x, std::span<Scalar> y,
              std::span<const Scalar> grad, Scalar eta, Scalar gamma) {
  HFL_CHECK(x.size() == y.size() && x.size() == grad.size(),
            "nag_step size mismatch");
  nag_kernel<false, false>(x.data(), y.data(), grad.data(), x.size(), eta,
                           gamma, nullptr, nullptr, nullptr);
}

void nag_step_accumulate(std::span<Scalar> x, std::span<Scalar> y,
                         std::span<const Scalar> grad, Scalar eta,
                         Scalar gamma, std::span<Scalar> sum_grad,
                         std::span<Scalar> sum_y, std::span<Scalar> sum_v) {
  const std::size_t n = x.size();
  HFL_CHECK(y.size() == n && grad.size() == n && sum_grad.size() == n &&
                sum_y.size() == n && (sum_v.empty() || sum_v.size() == n),
            "nag_step_accumulate size mismatch");
  if (sum_v.empty()) {
    nag_kernel<true, false>(x.data(), y.data(), grad.data(), n, eta, gamma,
                            sum_grad.data(), sum_y.data(), nullptr);
  } else {
    nag_kernel<true, true>(x.data(), y.data(), grad.data(), n, eta, gamma,
                           sum_grad.data(), sum_y.data(), sum_v.data());
  }
}

void slowmo_step(std::span<Scalar> x, std::span<const Scalar> agg,
                 std::span<Scalar> m, Scalar beta, Scalar lr) {
  HFL_CHECK(x.size() == agg.size() && x.size() == m.size(),
            "slowmo_step size mismatch");
  std::size_t i = 0;
#ifdef HFL_VEC_AVX2
  const __m256d vbeta = _mm256_set1_pd(beta);
  const __m256d vnlr = _mm256_set1_pd(-lr);
  for (; i + 4 <= x.size(); i += 4) {
    const __m256d vx = _mm256_loadu_pd(x.data() + i);
    const __m256d vdelta = _mm256_sub_pd(vx, _mm256_loadu_pd(agg.data() + i));
    const __m256d vm =
        _mm256_fmadd_pd(vbeta, _mm256_loadu_pd(m.data() + i), vdelta);
    _mm256_storeu_pd(m.data() + i, vm);
    _mm256_storeu_pd(x.data() + i, _mm256_fmadd_pd(vnlr, vm, vx));
  }
#endif
  for (; i < x.size(); ++i) {
    const Scalar mi = std::fma(beta, m[i], x[i] - agg[i]);
    m[i] = mi;
    x[i] = std::fma(-lr, mi, x[i]);
  }
}

void descent_drift(std::span<Scalar> x, std::span<const Scalar> g,
                   std::span<const Scalar> u, Scalar eta, Scalar beta) {
  HFL_CHECK(x.size() == g.size() && x.size() == u.size(),
            "descent_drift size mismatch");
  std::size_t i = 0;
#ifdef HFL_VEC_AVX2
  const __m256d vbeta = _mm256_set1_pd(beta);
  const __m256d vneta = _mm256_set1_pd(-eta);
  for (; i + 4 <= x.size(); i += 4) {
    const __m256d vd = _mm256_fmadd_pd(vbeta, _mm256_loadu_pd(u.data() + i),
                                       _mm256_loadu_pd(g.data() + i));
    _mm256_storeu_pd(x.data() + i,
                     _mm256_fmadd_pd(vneta, vd, _mm256_loadu_pd(x.data() + i)));
  }
#endif
  for (; i < x.size(); ++i) {
    const Scalar d = std::fma(beta, u[i], g[i]);
    x[i] = std::fma(-eta, d, x[i]);
  }
}

void descent_blend(std::span<Scalar> x, std::span<const Scalar> g,
                   std::span<const Scalar> m, Scalar eta, Scalar beta) {
  HFL_CHECK(x.size() == g.size() && x.size() == m.size(),
            "descent_blend size mismatch");
  const Scalar keep = 1.0 - beta;
  std::size_t i = 0;
#ifdef HFL_VEC_AVX2
  const __m256d vkeep = _mm256_set1_pd(keep);
  const __m256d vbeta = _mm256_set1_pd(beta);
  const __m256d vneta = _mm256_set1_pd(-eta);
  for (; i + 4 <= x.size(); i += 4) {
    const __m256d vd = _mm256_fmadd_pd(
        vbeta, _mm256_loadu_pd(m.data() + i),
        _mm256_mul_pd(vkeep, _mm256_loadu_pd(g.data() + i)));
    _mm256_storeu_pd(x.data() + i,
                     _mm256_fmadd_pd(vneta, vd, _mm256_loadu_pd(x.data() + i)));
  }
#endif
  for (; i < x.size(); ++i) {
    const Scalar d = std::fma(beta, m[i], keep * g[i]);
    x[i] = std::fma(-eta, d, x[i]);
  }
}

void descent_svrg(std::span<Scalar> x, std::span<const Scalar> gb,
                  std::span<const Scalar> ga, std::span<const Scalar> ghat,
                  std::span<const Scalar> m, Scalar eta, Scalar beta) {
  HFL_CHECK(x.size() == gb.size() && x.size() == ga.size() &&
                x.size() == ghat.size() && x.size() == m.size(),
            "descent_svrg size mismatch");
  const Scalar keep = 1.0 - beta;
  std::size_t i = 0;
#ifdef HFL_VEC_AVX2
  const __m256d vkeep = _mm256_set1_pd(keep);
  const __m256d vbeta = _mm256_set1_pd(beta);
  const __m256d vneta = _mm256_set1_pd(-eta);
  for (; i + 4 <= x.size(); i += 4) {
    const __m256d vc = _mm256_add_pd(
        _mm256_sub_pd(_mm256_loadu_pd(gb.data() + i),
                      _mm256_loadu_pd(ga.data() + i)),
        _mm256_loadu_pd(ghat.data() + i));
    const __m256d vd = _mm256_fmadd_pd(vbeta, _mm256_loadu_pd(m.data() + i),
                                       _mm256_mul_pd(vkeep, vc));
    _mm256_storeu_pd(x.data() + i,
                     _mm256_fmadd_pd(vneta, vd, _mm256_loadu_pd(x.data() + i)));
  }
#endif
  for (; i < x.size(); ++i) {
    const Scalar c = gb[i] - ga[i] + ghat[i];
    const Scalar d = std::fma(beta, m[i], keep * c);
    x[i] = std::fma(-eta, d, x[i]);
  }
}

void adc_server_update(std::span<Scalar> x, std::span<const Scalar> agg,
                       std::span<Scalar> u, Scalar beta, Scalar inv_step) {
  HFL_CHECK(x.size() == agg.size() && x.size() == u.size(),
            "adc_server_update size mismatch");
  const Scalar keep = 1.0 - beta;
  std::size_t i = 0;
#ifdef HFL_VEC_AVX2
  const __m256d vbeta = _mm256_set1_pd(beta);
  const __m256d vkeep = _mm256_set1_pd(keep);
  const __m256d vinv = _mm256_set1_pd(inv_step);
  for (; i + 4 <= x.size(); i += 4) {
    const __m256d vagg = _mm256_loadu_pd(agg.data() + i);
    const __m256d vpseudo = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_loadu_pd(x.data() + i), vagg), vinv);
    _mm256_storeu_pd(
        u.data() + i,
        _mm256_fmadd_pd(vbeta, _mm256_loadu_pd(u.data() + i),
                        _mm256_mul_pd(vkeep, vpseudo)));
    _mm256_storeu_pd(x.data() + i, vagg);
  }
#endif
  for (; i < x.size(); ++i) {
    const Scalar pseudo = (x[i] - agg[i]) * inv_step;
    u[i] = std::fma(beta, u[i], keep * pseudo);
    x[i] = agg[i];
  }
}

}  // namespace hfl::vec
