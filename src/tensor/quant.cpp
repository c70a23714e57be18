#include "tensor/quant.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)
#include <immintrin.h>
#define METADSE_QUANT_AVX512 1
#if defined(__AVX512VNNI__)
#define METADSE_QUANT_VNNI 1
#endif
#endif

namespace metadse::tensor::quant {

#if defined(METADSE_QUANT_AVX512)
namespace {

// GCC 12 expands the unmasked forms of several AVX-512 intrinsics with an
// _mm512_undefined_*() merge source, which -Wmaybe-uninitialized reports.
// The kernels below use the maskz forms under an all-ones mask instead: the
// same instructions, with a zero merge source that no lane ever selects.
constexpr __mmask16 kAll16 = 0xFFFF;

/// _mm512_reduce_add_ps with GCC's exact reduction tree (upper + lower 256,
/// then upper + lower 128, then the {2,3,0,1} swap, then lanes 0 + 1), its
/// 256-bit extracts in maskz form for the reason above.
inline float reduce_add512(__m512 v) {
  const __m512d vd = _mm512_castps_pd(v);
  const __m256 t3 =
      _mm256_add_ps(_mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xF, vd, 1)),
                    _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xF, vd, 0)));
  const __m128 t6 =
      _mm_add_ps(_mm256_extractf128_ps(t3, 1), _mm256_extractf128_ps(t3, 0));
  const __m128 t8 =
      _mm_add_ps(t6, _mm_shuffle_ps(t6, t6, _MM_SHUFFLE(1, 0, 3, 2)));
  return _mm_cvtss_f32(t8) + _mm_cvtss_f32(_mm_shuffle_ps(t8, t8, 1));
}

}  // namespace
#endif  // METADSE_QUANT_AVX512

const char* to_string(Precision p) {
  switch (p) {
    case Precision::kFp32: return "fp32";
    case Precision::kBf16: return "bf16";
    case Precision::kInt8: return "int8";
  }
  return "?";
}

bool parse_precision(const std::string& s, Precision* out) {
  if (s == "fp32") {
    *out = Precision::kFp32;
  } else if (s == "bf16") {
    *out = Precision::kBf16;
  } else if (s == "int8") {
    *out = Precision::kInt8;
  } else {
    return false;
  }
  return true;
}

namespace {
thread_local constinit Precision g_precision = Precision::kFp32;
}  // namespace

Precision PrecisionMode::mode() { return g_precision; }
void PrecisionMode::set_mode(Precision p) { g_precision = p; }

// -- bf16 --------------------------------------------------------------------

void bf16_encode(const float* src, size_t n, uint16_t* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = bf16_from_f32(src[i]);
}

void bf16_decode(const uint16_t* src, size_t n, float* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = f32_from_bf16(src[i]);
}

void bf16_pack_weight(const float* w, size_t K, size_t N, Bf16Weight* out) {
  out->K = K;
  out->N = N;
  out->w.resize(K * N);
  bf16_encode(w, K * N, out->w.data());
}

// -- int8 --------------------------------------------------------------------

float absmax(const float* x, size_t n) {
  float m = 0.0F;
  for (size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

void quantize_weight_kn(const float* w, size_t K, size_t N,
                        QuantizedWeight* out) {
  out->K = K;
  out->N = N;
  out->K4 = (K + 3) / 4;
  out->scale = scale_for(absmax(w, K * N));
  out->packed.assign(out->K4 * N * 4, 0);
  out->col_comp.assign(N, 0);
  const float inv = 1.0F / out->scale;
  for (size_t k = 0; k < K; ++k) {
    for (size_t n = 0; n < N; ++n) {
      const long q = std::lrintf(w[k * N + n] * inv);
      const int8_t qc =
          static_cast<int8_t>(std::clamp<long>(q, -127, 127));
      out->packed[(k / 4) * N * 4 + n * 4 + (k % 4)] = qc;
      out->col_comp[n] += 128 * static_cast<int32_t>(qc);
    }
  }
}

void quantize_act_u8(const float* a, size_t M, size_t K, float scale,
                     uint8_t* out, size_t ldq) {
  const float inv = 1.0F / scale;
#if defined(METADSE_QUANT_AVX512)
  // 16 floats/iteration: scale, round-to-nearest-even (vcvtps2dq default
  // mode, same result as lrintf under the default rounding mode), clamp,
  // +128 offset, narrow to u8.
  const __m512 vinv = _mm512_set1_ps(inv);
  const __m512i vlo = _mm512_set1_epi32(-127);
  const __m512i vhi = _mm512_set1_epi32(127);
  const __m512i voff = _mm512_set1_epi32(128);
  for (size_t m = 0; m < M; ++m) {
    const float* row = a + m * K;
    uint8_t* qrow = out + m * ldq;
    size_t k = 0;
    for (; k + 16 <= K; k += 16) {
      const __m512 x = _mm512_mul_ps(_mm512_loadu_ps(row + k), vinv);
      __m512i q = _mm512_maskz_cvtps_epi32(kAll16, x);
      q = _mm512_maskz_max_epi32(kAll16, q, vlo);
      q = _mm512_add_epi32(_mm512_maskz_min_epi32(kAll16, q, vhi), voff);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(qrow + k),
                       _mm512_maskz_cvtepi32_epi8(kAll16, q));
    }
    for (; k < K; ++k) {
      const long q = std::lrintf(row[k] * inv);
      qrow[k] = static_cast<uint8_t>(std::clamp<long>(q, -127, 127) + 128);
    }
    for (k = K; k < ldq; ++k) qrow[k] = 128;  // zero after offset
  }
#else
  for (size_t m = 0; m < M; ++m) {
    const float* row = a + m * K;
    uint8_t* qrow = out + m * ldq;
    for (size_t k = 0; k < K; ++k) {
      const long q = std::lrintf(row[k] * inv);
      qrow[k] = static_cast<uint8_t>(std::clamp<long>(q, -127, 127) + 128);
    }
    for (size_t k = K; k < ldq; ++k) qrow[k] = 128;  // zero after offset
  }
#endif
}

namespace {

/// Applies run_gemm's per-row epilogue rounding steps to one output row.
inline void epilogue_row(float* prow, const float* bias, const float* rrow,
                         int epi, size_t N) {
  if (epi == 1) {
    for (size_t j = 0; j < N; ++j) prow[j] = prow[j] + bias[j];
  } else if (epi == 2) {
    for (size_t j = 0; j < N; ++j) {
      const float t = prow[j] + bias[j];
      prow[j] = rrow[j] + t;
    }
  } else if (epi == 3) {
    gelu_bias_row_fast(prow, bias, N);
  }
}

#if defined(METADSE_QUANT_AVX512)

/// kern::fast_expf, one vector at a time: range-reduced degree-5 polynomial
/// with the same coefficients; vroundps replaces the magic-constant round
/// (both are round-to-nearest-even).
inline __m512 vexp512(__m512 x) {
  const __m512 log2e = _mm512_set1_ps(1.442695040888963F);
  const __m512 ln2hi = _mm512_set1_ps(0.693359375F);
  const __m512 ln2lo = _mm512_set1_ps(-2.12194440e-4F);
  x = _mm512_maskz_max_ps(kAll16, _mm512_set1_ps(-87.3365478515625F), x);
  x = _mm512_maskz_min_ps(kAll16, _mm512_set1_ps(88.3762626647949F), x);
  const __m512 n = _mm512_maskz_roundscale_ps(
      kAll16, _mm512_mul_ps(x, log2e),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  x = _mm512_fnmadd_ps(n, ln2hi, x);
  x = _mm512_fnmadd_ps(n, ln2lo, x);
  __m512 p = _mm512_set1_ps(1.9875691500e-4F);
  p = _mm512_fmadd_ps(p, x, _mm512_set1_ps(1.3981999507e-3F));
  p = _mm512_fmadd_ps(p, x, _mm512_set1_ps(8.3334519073e-3F));
  p = _mm512_fmadd_ps(p, x, _mm512_set1_ps(4.1665795894e-2F));
  p = _mm512_fmadd_ps(p, x, _mm512_set1_ps(1.6666665459e-1F));
  p = _mm512_fmadd_ps(p, x, _mm512_set1_ps(5.0000001201e-1F));
  const __m512 r =
      _mm512_add_ps(_mm512_fmadd_ps(p, _mm512_mul_ps(x, x), x),
                    _mm512_set1_ps(1.0F));
  const __m512i ni = _mm512_maskz_cvtps_epi32(kAll16, n);
  const __m512i pow2 = _mm512_maskz_slli_epi32(
      kAll16, _mm512_add_epi32(ni, _mm512_set1_epi32(127)), 23);
  return _mm512_mul_ps(r, _mm512_castsi512_ps(pow2));
}

/// 1/x via rcp14 plus one Newton-Raphson step (~0.5 ulp): vdivps has ~10x
/// worse throughput and would dominate the GELU/softmax epilogues.
inline __m512 vrecip512(__m512 x) {
  const __m512 r = _mm512_maskz_rcp14_ps(kAll16, x);
  return _mm512_fmadd_ps(_mm512_fnmadd_ps(x, r, _mm512_set1_ps(1.0F)), r, r);
}

/// kern::gelu_fwd vectorized: 0.5x(1 + tanh(c(x + a x^3))) with tanh through
/// vexp512, matching the scalar expression tree (the divide becomes a
/// refined-reciprocal multiply).
inline __m512 vgelu512(__m512 x) {
  const __m512 c = _mm512_set1_ps(kern::kGeluC);
  const __m512 aa = _mm512_set1_ps(kern::kGeluA);
  const __m512 one = _mm512_set1_ps(1.0F);
  const __m512 two = _mm512_set1_ps(2.0F);
  const __m512 half = _mm512_set1_ps(0.5F);
  const __m512 x2 = _mm512_mul_ps(x, x);
  const __m512 u =
      _mm512_mul_ps(c, _mm512_fmadd_ps(_mm512_mul_ps(aa, x2), x, x));
  const __m512 e = vexp512(_mm512_mul_ps(two, u));
  const __m512 t = _mm512_sub_ps(
      one, _mm512_mul_ps(two, vrecip512(_mm512_add_ps(e, one))));
  return _mm512_mul_ps(_mm512_mul_ps(half, x), _mm512_add_ps(one, t));
}

#endif  // METADSE_QUANT_AVX512

}  // namespace

void gelu_bias_row_fast(float* row, const float* bias, size_t n) {
#if defined(METADSE_QUANT_AVX512)
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m512 x =
        _mm512_add_ps(_mm512_loadu_ps(row + j), _mm512_loadu_ps(bias + j));
    _mm512_storeu_ps(row + j, vgelu512(x));
  }
  if (j < n) {
    const __mmask16 mk = static_cast<__mmask16>((1U << (n - j)) - 1U);
    const __m512 x = _mm512_add_ps(_mm512_maskz_loadu_ps(mk, row + j),
                                   _mm512_maskz_loadu_ps(mk, bias + j));
    _mm512_mask_storeu_ps(row + j, mk, vgelu512(x));
  }
#else
  for (size_t j = 0; j < n; ++j) row[j] = kern::gelu_fwd(row[j] + bias[j]);
#endif
}

void layer_norm_affine_rows_fast(const float* x, const float* gamma,
                                 const float* beta, float* o, size_t rows,
                                 size_t n, float eps) {
#if defined(METADSE_QUANT_AVX512)
  const float invn = 1.0F / static_cast<float>(n);
  for (size_t r = 0; r < rows; ++r) {
    const float* px = x + r * n;
    float* po = o + r * n;
    __m512 vsum = _mm512_setzero_ps();
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      vsum = _mm512_add_ps(vsum, _mm512_loadu_ps(px + j));
    }
    __mmask16 tail = 0;
    if (j < n) {
      tail = static_cast<__mmask16>((1U << (n - j)) - 1U);
      vsum = _mm512_add_ps(vsum, _mm512_maskz_loadu_ps(tail, px + j));
    }
    const float mu = reduce_add512(vsum) * invn;
    const __m512 vmu = _mm512_set1_ps(mu);
    __m512 vvar = _mm512_setzero_ps();
    for (j = 0; j + 16 <= n; j += 16) {
      const __m512 d = _mm512_sub_ps(_mm512_loadu_ps(px + j), vmu);
      vvar = _mm512_fmadd_ps(d, d, vvar);
    }
    if (j < n) {
      const __m512 d = _mm512_maskz_sub_ps(tail, _mm512_maskz_loadu_ps(
                                                     tail, px + j), vmu);
      vvar = _mm512_fmadd_ps(d, d, vvar);
    }
    const float var = reduce_add512(vvar) * invn;
    const __m512 vis = _mm512_set1_ps(1.0F / std::sqrt(var + eps));
    for (j = 0; j + 16 <= n; j += 16) {
      const __m512 y = _mm512_mul_ps(
          _mm512_sub_ps(_mm512_loadu_ps(px + j), vmu), vis);
      _mm512_storeu_ps(
          po + j, _mm512_fmadd_ps(y, _mm512_loadu_ps(gamma + j),
                                  _mm512_loadu_ps(beta + j)));
    }
    if (j < n) {
      const __m512 y = _mm512_mul_ps(
          _mm512_sub_ps(_mm512_maskz_loadu_ps(tail, px + j), vmu), vis);
      _mm512_mask_storeu_ps(
          po + j, tail,
          _mm512_fmadd_ps(y, _mm512_maskz_loadu_ps(tail, gamma + j),
                          _mm512_maskz_loadu_ps(tail, beta + j)));
    }
  }
#else
  for (size_t r = 0; r < rows; ++r) {
    kern::layer_norm_affine_row(x + r * n, gamma, beta, o + r * n, nullptr,
                                n, eps);
  }
#endif
}

namespace {

constexpr size_t kFattnMaxS = 64;   // mirrors the planner's kAttnMaxS
constexpr size_t kFattnMaxDh = 32;  // mirrors the planner's kAttnMaxDh

#if defined(METADSE_QUANT_AVX512)

constexpr size_t kLaneW = 64;  // tile row stride: kFattnMaxS lanes

/// One attention group in lane-transposed form, MV = compile-time count of
/// 16-query-row vectors (ceil(S/16)). Putting the m dimension in vector
/// lanes turns every softmax reduction (row max, denominator, mask mass)
/// into an elementwise vector op across the s loop — no horizontal
/// reductions, no per-row serial chains — and the normalizations fold into
/// one refined-reciprocal multiply applied by the ctx epilogue. Tail lanes
/// beyond S are zero-packed so they stay finite, and nothing reads them
/// back. All accumulation orders are fixed per element, so the result is
/// identical at any thread count; rounding differs from the eager kernels,
/// which the tier's rank-correlation contract covers.
template <int MV, int DB>
void fattn_lanes_group(size_t S, size_t Dh, size_t D, float inv_scale,
                       float eps, const float* qs, const float* ks,
                       const float* vs, const float* mt, float* os,
                       float* qt, float* et, float* ot) {
  const size_t lanes = MV * 16;
  for (size_t d = 0; d < Dh; ++d) {
    float* row = qt + d * kLaneW;
    for (size_t m = 0; m < S; ++m) row[m] = qs[m * D + d];
    for (size_t m = S; m < lanes; ++m) row[m] = 0.0F;
  }
  // scores columns: et[s][m] = (q[m] . k[s]) / scale, tracking the lanewise
  // running max
  const __m512 vinv = _mm512_set1_ps(inv_scale);
  __m512 vmax[MV];
  for (int i = 0; i < MV; ++i) {
    vmax[i] = _mm512_set1_ps(-std::numeric_limits<float>::infinity());
  }
  for (size_t s = 0; s < S; ++s) {
    __m512 acc[MV];
    for (int i = 0; i < MV; ++i) acc[i] = _mm512_setzero_ps();
    const float* kr = ks + s * D;
    for (size_t d = 0; d < Dh; ++d) {
      const __m512 kb = _mm512_set1_ps(kr[d]);
      for (int i = 0; i < MV; ++i) {
        acc[i] = _mm512_fmadd_ps(kb, _mm512_load_ps(qt + d * kLaneW + i * 16),
                                 acc[i]);
      }
    }
    float* er = et + s * kLaneW;
    for (int i = 0; i < MV; ++i) {
      acc[i] = _mm512_mul_ps(acc[i], vinv);
      vmax[i] = _mm512_maskz_max_ps(kAll16, vmax[i], acc[i]);
      _mm512_store_ps(er + i * 16, acc[i]);
    }
  }
  // exp tile + normalizer: unmasked out = e/den; masked out =
  // (e*mk/den)/(mass+eps) with mass = sum(e*mk)/den — both collapse into a
  // single per-lane factor rnorm applied after ctx.
  __m512 rnorm[MV];
  {
    __m512 vden[MV];
    for (int i = 0; i < MV; ++i) vden[i] = _mm512_setzero_ps();
    if (mt == nullptr) {
      for (size_t s = 0; s < S; ++s) {
        float* er = et + s * kLaneW;
        for (int i = 0; i < MV; ++i) {
          const __m512 e =
              vexp512(_mm512_sub_ps(_mm512_load_ps(er + i * 16), vmax[i]));
          _mm512_store_ps(er + i * 16, e);
          vden[i] = _mm512_add_ps(vden[i], e);
        }
      }
      for (int i = 0; i < MV; ++i) rnorm[i] = vrecip512(vden[i]);
    } else {
      __m512 vmass[MV];
      for (int i = 0; i < MV; ++i) vmass[i] = _mm512_setzero_ps();
      for (size_t s = 0; s < S; ++s) {
        float* er = et + s * kLaneW;
        const float* mr = mt + s * kLaneW;
        for (int i = 0; i < MV; ++i) {
          const __m512 e =
              vexp512(_mm512_sub_ps(_mm512_load_ps(er + i * 16), vmax[i]));
          const __m512 em = _mm512_mul_ps(e, _mm512_load_ps(mr + i * 16));
          _mm512_store_ps(er + i * 16, em);
          vden[i] = _mm512_add_ps(vden[i], e);
          vmass[i] = _mm512_add_ps(vmass[i], em);
        }
      }
      for (int i = 0; i < MV; ++i) {
        const __m512 rden = vrecip512(vden[i]);
        const __m512 mass = _mm512_mul_ps(vmass[i], rden);
        rnorm[i] = _mm512_mul_ps(
            rden, vrecip512(_mm512_add_ps(mass, _mm512_set1_ps(eps))));
      }
    }
  }
  // ctx columns, head-dim blocked by DB: ot[d][m] = rnorm[m] * sum_s
  // et[s][m] * v[s][d]. DB=8 covers the paper head dim in one pass over the
  // exp tile; wider MV counts drop to DB=4 to stay inside the register file.
  for (size_t d0 = 0; d0 < Dh; d0 += DB) {
    __m512 cacc[DB][MV];
    for (int j = 0; j < DB; ++j) {
      for (int i = 0; i < MV; ++i) cacc[j][i] = _mm512_setzero_ps();
    }
    for (size_t s = 0; s < S; ++s) {
      const float* er = et + s * kLaneW;
      const float* vr = vs + s * D + d0;
      __m512 pv[MV];
      for (int i = 0; i < MV; ++i) pv[i] = _mm512_load_ps(er + i * 16);
      for (int j = 0; j < DB; ++j) {
        // zero feed for the (rare) Dh % DB tail keeps the block loop branch-
        // free in registers without reading past the head's columns
        const __m512 vb =
            _mm512_set1_ps(d0 + j < Dh ? vr[j] : 0.0F);
        for (int i = 0; i < MV; ++i) {
          cacc[j][i] = _mm512_fmadd_ps(vb, pv[i], cacc[j][i]);
        }
      }
    }
    for (int j = 0; j < DB && d0 + j < Dh; ++j) {
      float* orow = ot + (d0 + j) * kLaneW;
      for (int i = 0; i < MV; ++i) {
        _mm512_store_ps(orow + i * 16, _mm512_mul_ps(cacc[j][i], rnorm[i]));
      }
    }
  }
  for (size_t m = 0; m < S; ++m) {
    float* orow = os + m * D;
    for (size_t d = 0; d < Dh; ++d) orow[d] = ot[d * kLaneW + m];
  }
}

#endif  // METADSE_QUANT_AVX512

}  // namespace

void fattn_rows_fast(size_t S, size_t Dh, size_t D, size_t H, float scale,
                     float eps, const float* q, const float* k,
                     const float* v, const float* mask, float* o, size_t g0,
                     size_t g1) {
  const float inv_scale = 1.0F / scale;
#if defined(METADSE_QUANT_AVX512)
  alignas(64) float qt[kFattnMaxDh * kLaneW];
  alignas(64) float et[kFattnMaxS * kLaneW];
  alignas(64) float ot[kFattnMaxDh * kLaneW];
  alignas(64) float mt[kFattnMaxS * kLaneW];
  const size_t mv = (S + 15) / 16;
  const size_t lanes = mv * 16;
  if (mask != nullptr) {
    // the mask is shared by every group: transpose it into lane layout once
    for (size_t s = 0; s < S; ++s) {
      float* row = mt + s * kLaneW;
      for (size_t m = 0; m < S; ++m) row[m] = mask[m * S + s];
      for (size_t m = S; m < lanes; ++m) row[m] = 0.0F;
    }
  }
  const float* mtp = mask != nullptr ? mt : nullptr;
  for (size_t g = g0; g < g1; ++g) {
    const size_t bb = g / H;
    const size_t h = g % H;
    const float* qs = q + bb * S * D + h * Dh;
    const float* ks = k + bb * S * D + h * Dh;
    const float* vs = v + bb * S * D + h * Dh;
    float* os = o + bb * S * D + h * Dh;
    switch (mv) {
      case 1:
        fattn_lanes_group<1, 8>(S, Dh, D, inv_scale, eps, qs, ks, vs, mtp,
                                os, qt, et, ot);
        break;
      case 2:
        fattn_lanes_group<2, 8>(S, Dh, D, inv_scale, eps, qs, ks, vs, mtp,
                                os, qt, et, ot);
        break;
      case 3:
        fattn_lanes_group<3, 4>(S, Dh, D, inv_scale, eps, qs, ks, vs, mtp,
                                os, qt, et, ot);
        break;
      default:
        fattn_lanes_group<4, 4>(S, Dh, D, inv_scale, eps, qs, ks, vs, mtp,
                                os, qt, et, ot);
        break;
    }
  }
#else
  float kt[kFattnMaxDh * kFattnMaxS];
  float sc[kFattnMaxS * kFattnMaxS];
  for (size_t g = g0; g < g1; ++g) {
    const size_t bb = g / H;
    const size_t h = g % H;
    const float* qs = q + bb * S * D + h * Dh;
    const float* ks = k + bb * S * D + h * Dh;
    const float* vs = v + bb * S * D + h * Dh;
    float* os = o + bb * S * D + h * Dh;
    for (size_t s = 0; s < S; ++s) {
      for (size_t d = 0; d < Dh; ++d) kt[d * S + s] = ks[s * D + d];
    }
    for (size_t m = 0; m < S; ++m) {
      const float* qr = qs + m * D;
      float* pom = sc + m * S;
      for (size_t n = 0; n < S; ++n) {
        float acc = 0.0F;
        for (size_t d = 0; d < Dh; ++d) acc += qr[d] * kt[d * S + n];
        pom[n] = acc * inv_scale;
      }
      kern::softmax_row(pom, pom, S);
      if (mask != nullptr) {
        kern::masked_renorm_row(pom, mask + m * S, pom, S, eps);
      }
    }
    for (size_t m = 0; m < S; ++m) {
      const float* pr = sc + m * S;
      float* orow = os + m * D;
      for (size_t d = 0; d < Dh; ++d) {
        float acc = 0.0F;
        for (size_t s = 0; s < S; ++s) acc += pr[s] * vs[s * D + d];
        orow[d] = acc;
      }
    }
  }
#endif
}

void gemm_u8s8(const uint8_t* aq, size_t ldq, const QuantizedWeight& w,
               float dq, const float* bias, const float* res, size_t ldr,
               int epi, float* o, size_t m0, size_t m1) {
  const size_t N = w.N;
  const size_t K4 = w.K4;
  size_t m = m0;
#if defined(METADSE_QUANT_VNNI)
  // 4-row blocks per 16-column tile: one weight load feeds four independent
  // dpbusd accumulator chains, hiding the VNNI latency that bounds the
  // single-row form.
  for (; m + 4 <= m1; m += 4) {
    const uint8_t* ar0 = aq + m * ldq;
    const uint8_t* ar1 = ar0 + ldq;
    const uint8_t* ar2 = ar1 + ldq;
    const uint8_t* ar3 = ar2 + ldq;
    float* pr0 = o + m * N;
    size_t n = 0;
    for (; n + 16 <= N; n += 16) {
      __m512i a0 = _mm512_setzero_si512();
      __m512i a1 = _mm512_setzero_si512();
      __m512i a2 = _mm512_setzero_si512();
      __m512i a3 = _mm512_setzero_si512();
      const int8_t* wp = w.packed.data() + n * 4;
      for (size_t k4 = 0; k4 < K4; ++k4) {
        const __m512i wv = _mm512_loadu_si512(
            reinterpret_cast<const void*>(wp + k4 * N * 4));
        uint32_t g0v;
        uint32_t g1v;
        uint32_t g2v;
        uint32_t g3v;
        std::memcpy(&g0v, ar0 + k4 * 4, sizeof(g0v));
        std::memcpy(&g1v, ar1 + k4 * 4, sizeof(g1v));
        std::memcpy(&g2v, ar2 + k4 * 4, sizeof(g2v));
        std::memcpy(&g3v, ar3 + k4 * 4, sizeof(g3v));
        a0 = _mm512_dpbusd_epi32(
            a0, _mm512_set1_epi32(static_cast<int32_t>(g0v)), wv);
        a1 = _mm512_dpbusd_epi32(
            a1, _mm512_set1_epi32(static_cast<int32_t>(g1v)), wv);
        a2 = _mm512_dpbusd_epi32(
            a2, _mm512_set1_epi32(static_cast<int32_t>(g2v)), wv);
        a3 = _mm512_dpbusd_epi32(
            a3, _mm512_set1_epi32(static_cast<int32_t>(g3v)), wv);
      }
      const __m512i comp = _mm512_loadu_si512(
          reinterpret_cast<const void*>(w.col_comp.data() + n));
      const __m512 vdq = _mm512_set1_ps(dq);
      _mm512_storeu_ps(pr0 + n,
                       _mm512_mul_ps(_mm512_maskz_cvtepi32_ps(
                                         kAll16, _mm512_sub_epi32(a0, comp)),
                                     vdq));
      _mm512_storeu_ps(pr0 + N + n,
                       _mm512_mul_ps(_mm512_maskz_cvtepi32_ps(
                                         kAll16, _mm512_sub_epi32(a1, comp)),
                                     vdq));
      _mm512_storeu_ps(pr0 + 2 * N + n,
                       _mm512_mul_ps(_mm512_maskz_cvtepi32_ps(
                                         kAll16, _mm512_sub_epi32(a2, comp)),
                                     vdq));
      _mm512_storeu_ps(pr0 + 3 * N + n,
                       _mm512_mul_ps(_mm512_maskz_cvtepi32_ps(
                                         kAll16, _mm512_sub_epi32(a3, comp)),
                                     vdq));
    }
    for (; n < N; ++n) {
      const int8_t* wp = w.packed.data() + n * 4;
      int32_t acc[4] = {0, 0, 0, 0};
      for (size_t k4 = 0; k4 < K4; ++k4) {
        const int8_t* wg = wp + k4 * N * 4;
        const uint8_t* rows[4] = {ar0 + k4 * 4, ar1 + k4 * 4, ar2 + k4 * 4,
                                  ar3 + k4 * 4};
        for (int r = 0; r < 4; ++r) {
          acc[r] += static_cast<int32_t>(rows[r][0]) * wg[0] +
                    static_cast<int32_t>(rows[r][1]) * wg[1] +
                    static_cast<int32_t>(rows[r][2]) * wg[2] +
                    static_cast<int32_t>(rows[r][3]) * wg[3];
        }
      }
      for (int r = 0; r < 4; ++r) {
        pr0[r * N + n] = static_cast<float>(acc[r] - w.col_comp[n]) * dq;
      }
    }
    for (int r = 0; r < 4; ++r) {
      epilogue_row(pr0 + r * N, bias,
                   res != nullptr ? res + (m + r) * ldr : nullptr, epi, N);
    }
  }
#endif
  for (; m < m1; ++m) {
    const uint8_t* arow = aq + m * ldq;
    float* prow = o + m * N;
    size_t n = 0;
#if defined(METADSE_QUANT_VNNI)
    for (; n + 16 <= N; n += 16) {
      __m512i acc = _mm512_setzero_si512();
      const int8_t* wp = w.packed.data() + n * 4;
      for (size_t k4 = 0; k4 < K4; ++k4) {
        uint32_t a4;
        std::memcpy(&a4, arow + k4 * 4, sizeof(a4));
        const __m512i av = _mm512_set1_epi32(static_cast<int32_t>(a4));
        const __m512i wv = _mm512_loadu_si512(
            reinterpret_cast<const void*>(wp + k4 * N * 4));
        acc = _mm512_dpbusd_epi32(acc, av, wv);
      }
      const __m512i comp = _mm512_loadu_si512(
          reinterpret_cast<const void*>(w.col_comp.data() + n));
      const __m512 deq = _mm512_mul_ps(
          _mm512_maskz_cvtepi32_ps(kAll16, _mm512_sub_epi32(acc, comp)),
          _mm512_set1_ps(dq));
      _mm512_storeu_ps(prow + n, deq);
    }
#endif
    for (; n < N; ++n) {
      int32_t acc = 0;
      const int8_t* wp = w.packed.data() + n * 4;
      for (size_t k4 = 0; k4 < K4; ++k4) {
        const uint8_t* ag = arow + k4 * 4;
        const int8_t* wg = wp + k4 * N * 4;
        acc += static_cast<int32_t>(ag[0]) * wg[0] +
               static_cast<int32_t>(ag[1]) * wg[1] +
               static_cast<int32_t>(ag[2]) * wg[2] +
               static_cast<int32_t>(ag[3]) * wg[3];
      }
      prow[n] = static_cast<float>(acc - w.col_comp[n]) * dq;
    }
    epilogue_row(prow, bias, res != nullptr ? res + m * ldr : nullptr, epi, N);
  }
}

void gemm_bf16(const float* a, const Bf16Weight& w, const float* bias,
               const float* res, size_t ldr, int epi, float* o, size_t m0,
               size_t m1) {
  const size_t K = w.K;
  const size_t N = w.N;
  size_t m = m0;
#if defined(METADSE_QUANT_AVX512)
  // 4-row blocks per 16-column tile: each bf16 weight chunk is widened to
  // fp32 once and feeds four FMA chains. Every output element accumulates in
  // ascending-k order, so results are partition-independent.
  const auto widen = [](const uint16_t* p, __mmask16 mk16) {
    const __m512i wide = _mm512_maskz_cvtepu16_epi32(
        kAll16, _mm256_maskz_loadu_epi16(mk16, p));
    return _mm512_castsi512_ps(_mm512_maskz_slli_epi32(kAll16, wide, 16));
  };
  for (; m + 4 <= m1; m += 4) {
    const float* ar0 = a + m * K;
    const float* ar1 = ar0 + K;
    const float* ar2 = ar1 + K;
    const float* ar3 = ar2 + K;
    float* pr0 = o + m * N;
    for (size_t n = 0; n < N; n += 16) {
      const size_t wdt = std::min<size_t>(16, N - n);
      const __mmask16 mk16 =
          static_cast<__mmask16>(wdt == 16 ? 0xFFFFU : (1U << wdt) - 1U);
      __m512 a0 = _mm512_setzero_ps();
      __m512 a1 = _mm512_setzero_ps();
      __m512 a2 = _mm512_setzero_ps();
      __m512 a3 = _mm512_setzero_ps();
      for (size_t k = 0; k < K; ++k) {
        const __m512 wv = widen(w.w.data() + k * N + n, mk16);
        a0 = _mm512_fmadd_ps(_mm512_set1_ps(ar0[k]), wv, a0);
        a1 = _mm512_fmadd_ps(_mm512_set1_ps(ar1[k]), wv, a1);
        a2 = _mm512_fmadd_ps(_mm512_set1_ps(ar2[k]), wv, a2);
        a3 = _mm512_fmadd_ps(_mm512_set1_ps(ar3[k]), wv, a3);
      }
      _mm512_mask_storeu_ps(pr0 + n, mk16, a0);
      _mm512_mask_storeu_ps(pr0 + N + n, mk16, a1);
      _mm512_mask_storeu_ps(pr0 + 2 * N + n, mk16, a2);
      _mm512_mask_storeu_ps(pr0 + 3 * N + n, mk16, a3);
    }
    for (int r = 0; r < 4; ++r) {
      epilogue_row(pr0 + r * N, bias,
                   res != nullptr ? res + (m + r) * ldr : nullptr, epi, N);
    }
  }
  for (; m < m1; ++m) {
    const float* arow = a + m * K;
    float* prow = o + m * N;
    for (size_t n = 0; n < N; n += 16) {
      const size_t wdt = std::min<size_t>(16, N - n);
      const __mmask16 mk16 =
          static_cast<__mmask16>(wdt == 16 ? 0xFFFFU : (1U << wdt) - 1U);
      __m512 acc = _mm512_setzero_ps();
      for (size_t k = 0; k < K; ++k) {
        acc = _mm512_fmadd_ps(_mm512_set1_ps(arow[k]),
                              widen(w.w.data() + k * N + n, mk16), acc);
      }
      _mm512_mask_storeu_ps(prow + n, mk16, acc);
    }
    epilogue_row(prow, bias, res != nullptr ? res + m * ldr : nullptr, epi, N);
  }
#else
  for (; m < m1; ++m) {
    const float* arow = a + m * K;
    float* prow = o + m * N;
    std::fill(prow, prow + N, 0.0F);
    // Each output element accumulates in ascending-k order regardless of
    // this loop nesting, so results are partition-independent.
    for (size_t k = 0; k < K; ++k) {
      const float av = arow[k];
      const uint16_t* wrow = w.w.data() + k * N;
      for (size_t n = 0; n < N; ++n) {
        prow[n] += av * f32_from_bf16(wrow[n]);
      }
    }
    epilogue_row(prow, bias, res != nullptr ? res + m * ldr : nullptr, epi, N);
  }
#endif
}

}  // namespace metadse::tensor::quant
