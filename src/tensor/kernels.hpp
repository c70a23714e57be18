// Shared forward compute kernels: the single implementation behind both the
// eager ops (ops.cpp) and the static-plan executor (plan.cpp). The bitwise
// policy of PRs 3/5 — explicit __FMA__-gated MACs, ascending-k accumulation,
// lane-split max only, sequential FP sums, polynomial expf/tanhf — lives
// here once, so the planned and eager paths cannot drift apart: they call
// the very same inline functions, compiled with the same flags.
//
// Stride-generalized GEMM row kernels (lda/ldb/ldo) exist so plan-fused
// attention can read head tiles directly out of the [B, S, H*Dh] projection
// buffers: per output element the accumulation chain (one rounded MAC per k,
// ascending) is identical to the contiguous form, so strided addressing
// changes where operands are loaded from, never the arithmetic.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace metadse::tensor::kern {

constexpr float kGeluC = 0.7978845608028654F;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715F;

/// Reduction-axis tile: K-slices of B this wide stay resident in L1/L2
/// while a row block streams over them.
constexpr size_t kGemmKTile = 64;

/// Minimum multiply-adds worth shipping to a worker; below this a block is
/// not worth the handoff and the grain forces the inline path.
constexpr size_t kGemmGrainFlops = 1 << 14;

inline size_t gemm_row_grain(size_t flops_per_row) {
  return std::max<size_t>(1,
                          kGemmGrainFlops / std::max<size_t>(1, flops_per_row));
}

/// One multiply-accumulate step of the forward GEMM kernels. When the target
/// has hardware FMA the kernels opt into it explicitly: every forward path
/// (panel widths, scalar tails, both kernels) fuses the same way, so all the
/// within-binary bitwise-equivalence guarantees (grad vs no-grad, batched vs
/// scalar, matmul_nt vs matmul∘transpose, any thread count) hold unchanged.
/// Without hardware FMA this is a plain rounded mul+add — never the libm
/// soft-fma path.
inline float gemm_mac(float acc, float a, float b) {
#if defined(__FMA__)
  return __builtin_fmaf(a, b, acc);
#else
  return acc + a * b;
#endif
}

/// Width-T panel of one output row kept in registers while a K-slice streams
/// over it. Each output element still receives one rounded MAC per k in
/// ascending order — bitwise identical to the saxpy form this replaces; only
/// where the running float32 partial lives (registers vs. the output row)
/// changes. Init: this is the first K-slice, so start the accumulators at
/// zero instead of loading the (then never pre-zeroed) output row.
/// @p ldb is the row stride of B (= N for a packed row-major operand).
template <size_t T, bool Init>
void gemm_row_panel(const float* pam, const float* pb, float* pom, size_t k0,
                    size_t k1, size_t ldb) {
  float acc[T];
  for (size_t j = 0; j < T; ++j) acc[j] = Init ? 0.0F : pom[j];
  for (size_t k = k0; k < k1; ++k) {
    const float av = pam[k];
    const float* pbk = pb + k * ldb;
    for (size_t j = 0; j < T; ++j) acc[j] = gemm_mac(acc[j], av, pbk[j]);
  }
  for (size_t j = 0; j < T; ++j) pom[j] = acc[j];
}

/// R-row x width-T register tile: R output rows advance through the same
/// K-slice together, so each B panel row is loaded once and reused R times,
/// and the tile holds R x T independent accumulator chains — enough to cover
/// FMA latency, where a single row's T chains leave the units idle. Each
/// output element still receives one rounded MAC per k in ascending order
/// (the per-row inner loops run row 0, then row 1, ... for every k, which
/// never reorders any single element's chain) — bitwise identical to the
/// one-row-at-a-time sweep.
template <size_t R, size_t T, bool Init>
void gemm_row_tile(const float* pa, size_t lda, const float* pb, float* po,
                   size_t ldo, size_t k0, size_t k1, size_t ldb) {
  float acc[R][T];
  for (size_t r = 0; r < R; ++r) {
    for (size_t j = 0; j < T; ++j) acc[r][j] = Init ? 0.0F : po[r * ldo + j];
  }
  for (size_t k = k0; k < k1; ++k) {
    const float* pbk = pb + k * ldb;
    for (size_t r = 0; r < R; ++r) {
      const float av = pa[r * lda + k];
      float* ar = acc[r];
      for (size_t j = 0; j < T; ++j) ar[j] = gemm_mac(ar[j], av, pbk[j]);
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t j = 0; j < T; ++j) po[r * ldo + j] = acc[r][j];
  }
}

/// Row [m0, m1) x column-panel sweep of one C tile for K-slice [k0, k1) with
/// explicit row strides for A (lda), B (ldb) and C (ldo); Init as in
/// gemm_row_panel. Rows advance four at a time through register tiles
/// (gemm_row_tile) with single-row panels mopping up the remainder. Tile and
/// panel widths only change which independent accumulators share registers —
/// every output element's MAC chain is unchanged, so any (R, T) blocking is
/// bitwise identical.
template <bool Init>
void gemm_rows_ld(const float* pa, size_t lda, const float* pb, size_t ldb,
                  float* po, size_t ldo, size_t m0, size_t m1, size_t k0,
                  size_t k1, size_t N) {
  constexpr size_t R = 4;
  size_t m = m0;
  // Narrow outputs (attention-sized: N < 32, so the wide tile never engages)
  // run the single-row panel sweep directly — the R-row narrow tile spills
  // and measures ~6x slower there, while both orders keep every element's
  // ascending-k chain.
  if (N >= 32) {
    for (; m + R <= m1; m += R) {
      const float* pam = pa + m * lda;
      float* pom = po + m * ldo;
      size_t n0 = 0;
      for (; n0 + 32 <= N; n0 += 32) {
        gemm_row_tile<R, 32, Init>(pam, lda, pb + n0, pom + n0, ldo, k0, k1,
                                   ldb);
      }
      for (; n0 + 8 <= N; n0 += 8) {
        gemm_row_tile<R, 8, Init>(pam, lda, pb + n0, pom + n0, ldo, k0, k1,
                                  ldb);
      }
      for (; n0 < N; ++n0) {
        for (size_t r = 0; r < R; ++r) {
          float acc = Init ? 0.0F : pom[r * ldo + n0];
          for (size_t k = k0; k < k1; ++k) {
            acc = gemm_mac(acc, pam[r * lda + k], pb[k * ldb + n0]);
          }
          pom[r * ldo + n0] = acc;
        }
      }
    }
  }
  for (; m < m1; ++m) {
    const float* pam = pa + m * lda;
    float* pom = po + m * ldo;
    size_t n0 = 0;
    for (; n0 + 32 <= N; n0 += 32) {
      gemm_row_panel<32, Init>(pam, pb + n0, pom + n0, k0, k1, ldb);
    }
    for (; n0 + 8 <= N; n0 += 8) {
      gemm_row_panel<8, Init>(pam, pb + n0, pom + n0, k0, k1, ldb);
    }
    for (; n0 < N; ++n0) {
      float acc = Init ? 0.0F : pom[n0];
      for (size_t k = k0; k < k1; ++k) {
        acc = gemm_mac(acc, pam[k], pb[k * ldb + n0]);
      }
      pom[n0] = acc;
    }
  }
}

/// Contiguous row-major form: A rows stride K, B rows stride N, C rows
/// stride N (the layout every eager op uses).
template <bool Init>
void gemm_rows(const float* pa, const float* pb, float* po, size_t m0,
               size_t m1, size_t k0, size_t k1, size_t K, size_t N) {
  gemm_rows_ld<Init>(pa, K, pb, N, po, N, m0, m1, k0, k1, N);
}

/// Branch-free Cephes-style expf (range-reduced degree-5 polynomial, ~2 ulp
/// vs. libm). softmax spends essentially its whole budget in exp, and the
/// libm call blocks vectorization; this form auto-vectorizes. Only pure
/// rounded float ops, so results are identical at any vector width.
inline float fast_expf(float x) {
  constexpr float kLog2e = 1.442695040888963F;
  constexpr float kLn2Hi = 0.693359375F;
  constexpr float kLn2Lo = -2.12194440e-4F;
  // Round to nearest via the 1.5*2^23 magic constant: exact for |z| < 2^22
  // and, unlike std::floor, it auto-vectorizes.
  constexpr float kRound = 12582912.0F;
  x = std::min(88.3762626647949F, std::max(-87.3365478515625F, x));
  const float n = (x * kLog2e + kRound) - kRound;
  x -= n * kLn2Hi;
  x -= n * kLn2Lo;
  float p = 1.9875691500e-4F;
  p = p * x + 1.3981999507e-3F;
  p = p * x + 8.3334519073e-3F;
  p = p * x + 4.1665795894e-2F;
  p = p * x + 1.6666665459e-1F;
  p = p * x + 5.0000001201e-1F;
  const float r = p * x * x + x + 1.0F;
  const auto ni = static_cast<int32_t>(n);
  return r * std::bit_cast<float>((ni + 127) << 23);
}

/// tanh through fast_expf: tanh(u) = 1 - 2/(exp(2u) + 1). Saturates cleanly
/// to ±1 at the exp clamp. Used by the hot gelu path, where the libm tanh
/// call dominated the whole activation and blocked vectorization.
inline float fast_tanhf(float u) {
  return 1.0F - 2.0F / (fast_expf(2.0F * u) + 1.0F);
}

/// GELU value/derivative shared by gelu(), the fused bias_gelu, and the plan
/// executor so every path evaluates the identical expression tree.
inline float gelu_fwd(float x) {
  const float t = fast_tanhf(kGeluC * (x + kGeluA * x * x * x));
  return 0.5F * x * (1.0F + t);
}

inline float gelu_dfn(float x) {
  const float u = kGeluC * (x + kGeluA * x * x * x);
  const float t = fast_tanhf(u);
  const float du = kGeluC * (1.0F + 3.0F * kGeluA * x * x);
  return 0.5F * (1.0F + t) + 0.5F * x * (1.0F - t * t) * du;
}

/// Row max with the lane-split reduction softmax uses: max is exact and
/// associative, so splitting across 8 lanes (which vectorizes) returns the
/// identical value to the sequential scan.
inline float row_max(const float* x, size_t L) {
  float mx = x[0];
  if (L >= 16) {
    float lane[8];
    for (size_t j = 0; j < 8; ++j) lane[j] = x[j];
    size_t i = 8;
    for (; i + 8 <= L; i += 8) {
      for (size_t j = 0; j < 8; ++j) lane[j] = std::max(lane[j], x[i + j]);
    }
    mx = lane[0];
    for (size_t j = 1; j < 8; ++j) mx = std::max(mx, lane[j]);
    for (; i < L; ++i) mx = std::max(mx, x[i]);
  } else {
    for (size_t i = 1; i < L; ++i) mx = std::max(mx, x[i]);
  }
  return mx;
}

/// One softmax row: y = softmax(x) over L entries, exactly the rounding
/// sequence of softmax_lastdim (lane-split max, fast_expf, sequential denom
/// sum, per-element divide). Safe with y == x (each pass element-local).
inline void softmax_row(const float* x, float* y, size_t L) {
  const float mx = row_max(x, L);
  for (size_t i = 0; i < L; ++i) y[i] = fast_expf(x[i] - mx);
  float denom = 0.0F;
  for (size_t i = 0; i < L; ++i) denom += y[i];
  for (size_t i = 0; i < L; ++i) y[i] /= denom;
}

/// Masked, renormalized tail applied to an already-softmaxed row @p y:
/// out[i] = (y[i] * mk[i]) / (sum_i y[i]*mk[i] + eps), the exact float ops
/// of softmax_masked_lastdim. In-place safe when y aliases out (each element
/// is read before written). Returns the regularized mass s2 (the backward
/// stash value).
inline float masked_renorm_row(const float* y, const float* mk, float* out,
                               size_t L, float eps) {
  float srow = 0.0F;
  for (size_t i = 0; i < L; ++i) srow += y[i] * mk[i];
  const float s2 = srow + eps;
  for (size_t i = 0; i < L; ++i) out[i] = (y[i] * mk[i]) / s2;
  return s2;
}

/// One affine layer-norm row: po = (x - mean)/std * gamma + beta with the
/// exact reduction and rounding order of layer_norm_affine. When @p normed
/// is non-null the normalized activations are stashed there (the backward
/// stash); returns the row's 1/std.
inline float layer_norm_affine_row(const float* px, const float* pg,
                                   const float* pbeta, float* po,
                                   float* normed, size_t L, float eps) {
  float mu = 0.0F;
  for (size_t i = 0; i < L; ++i) mu += px[i];
  mu /= static_cast<float>(L);
  float var = 0.0F;
  for (size_t i = 0; i < L; ++i) var += (px[i] - mu) * (px[i] - mu);
  var /= static_cast<float>(L);
  const float is = 1.0F / std::sqrt(var + eps);
  if (normed != nullptr) {
    for (size_t i = 0; i < L; ++i) {
      const float y = (px[i] - mu) * is;
      normed[i] = y;
      const float m = y * pg[i];
      po[i] = m + pbeta[i];
    }
  } else {
    for (size_t i = 0; i < L; ++i) {
      const float y = (px[i] - mu) * is;
      const float m = y * pg[i];
      po[i] = m + pbeta[i];
    }
  }
  return is;
}

/// Affine layer norm over @p rows rows of length @p L, bitwise identical to
/// layer_norm_affine_row (without the stash) applied row by row. Rows go
/// through in blocks of 16, one row per lane: each row's mean and variance
/// stay sequential ascending-i chains in layer_norm_affine_row's order, but
/// the block's 16 independent chains advance together instead of one
/// add-latency-bound chain at a time. The block is read through a
/// lane-major tile of up to 32 columns (transposed once when L <= 32, once
/// per pass otherwise), so each step of every chain is one vector op. A
/// partial last block runs the same code, its spare lanes re-reading the
/// block's last row (computed, never stored). The affine pass is row-wise,
/// as in the row kernel.
inline void layer_norm_affine_rows(const float* x, const float* gamma,
                                   const float* beta, float* o, size_t rows,
                                   size_t L, float eps) {
  constexpr size_t kB = 16;  // rows per block, one per lane
  constexpr size_t kC = 32;  // columns per transposed chunk
  const float n = static_cast<float>(L);
  float xt[kC * kB];  // xt[i*kB + r] = row r, column i0 + i
  for (size_t r0 = 0; r0 < rows; r0 += kB) {
    const size_t nb = std::min(kB, rows - r0);
    const float* px[kB];
    for (size_t r = 0; r < kB; ++r) px[r] = x + (r0 + std::min(r, nb - 1)) * L;
    auto load = [&](size_t i0, size_t w) {
      for (size_t i = 0; i < w; ++i) {
        for (size_t r = 0; r < kB; ++r) xt[i * kB + r] = px[r][i0 + i];
      }
    };
    float mu[kB];
    float var[kB];
    float is[kB];
    for (size_t r = 0; r < kB; ++r) mu[r] = 0.0F;
    for (size_t i0 = 0; i0 < L; i0 += kC) {
      const size_t w = std::min(kC, L - i0);
      load(i0, w);
      for (size_t i = 0; i < w; ++i) {
        for (size_t r = 0; r < kB; ++r) mu[r] += xt[i * kB + r];
      }
    }
    for (size_t r = 0; r < kB; ++r) mu[r] /= n;
    for (size_t r = 0; r < kB; ++r) var[r] = 0.0F;
    for (size_t i0 = 0; i0 < L; i0 += kC) {
      const size_t w = std::min(kC, L - i0);
      if (L > kC) load(i0, w);
      for (size_t i = 0; i < w; ++i) {
        for (size_t r = 0; r < kB; ++r) {
          const float d = xt[i * kB + r] - mu[r];
          var[r] += d * d;
        }
      }
    }
    for (size_t r = 0; r < kB; ++r) {
      var[r] /= n;
      is[r] = 1.0F / std::sqrt(var[r] + eps);
    }
    for (size_t r = 0; r < nb; ++r) {
      const float* pr = px[r];
      float* po = o + (r0 + r) * L;
      for (size_t i = 0; i < L; ++i) {
        const float y = (pr[i] - mu[r]) * is[r];
        const float m = y * gamma[i];
        po[i] = m + beta[i];
      }
    }
  }
}

/// One plain layer-norm row (no affine): y = (x - mean)/std; returns 1/std.
inline float layer_norm_row(const float* x, float* y, size_t L, float eps) {
  float mu = 0.0F;
  for (size_t i = 0; i < L; ++i) mu += x[i];
  mu /= static_cast<float>(L);
  float var = 0.0F;
  for (size_t i = 0; i < L; ++i) var += (x[i] - mu) * (x[i] - mu);
  var /= static_cast<float>(L);
  const float is = 1.0F / std::sqrt(var + eps);
  for (size_t i = 0; i < L; ++i) y[i] = (x[i] - mu) * is;
  return is;
}

/// Bias + GELU over rows of length L: po[j] = gelu(px[j] + b[j]), the exact
/// expression of bias_gelu's forward.
inline void bias_gelu_rows(const float* px, const float* b, float* po,
                           size_t n, size_t L) {
  for (size_t i0 = 0; i0 < n; i0 += L) {
    const float* pr = px + i0;
    float* pw = po + i0;
    for (size_t j = 0; j < L; ++j) pw[j] = gelu_fwd(pr[j] + b[j]);
  }
}

}  // namespace metadse::tensor::kern
