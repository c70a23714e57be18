#include "tensor/ops.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "tensor/kernels.hpp"
#include "tensor/plan.hpp"
#include "tensor/pool.hpp"

namespace metadse::tensor {

namespace {

// The forward compute kernels (GEMM panels, fast_expf/tanhf, GELU, softmax /
// layer-norm rows) live in tensor/kernels.hpp, shared verbatim with the
// static-plan executor so the two paths cannot drift bitwise.
using kern::gelu_dfn;
using kern::gelu_fwd;

/// Op-output allocation: always drawn from the thread-local BufferPool. In
/// no-grad mode buffers cycle back as soon as the handle dies (inference
/// fast path); in grad mode they ride the tape — finish_op_result_grad marks
/// the node pooled, so the whole tape's storage returns to the pool when the
/// graph dies and the next training step re-acquires it.
std::vector<float> alloc_out(size_t n) { return BufferPool::acquire(n); }

std::vector<float> alloc_out_zero(size_t n) {
  return BufferPool::acquire_zero(n);
}

/// A pooled constant node for the scalar op overloads: same value, same
/// requires_grad=false leaf semantics as Tensor::scalar, but the node block
/// and 1-element buffer recycle instead of hitting the heap per call.
Tensor pooled_scalar(float v) {
  std::vector<float> out = BufferPool::acquire(1);
  out[0] = v;
  Tensor r = detail::make_inference_result({}, std::move(out));
  plan::trace_const(r);
  return r;
}

// -- blocked GEMM kernels ----------------------------------------------------
//
// The kernels below (C = A*B, dA = dC*B^T, dB = A^T*dC and their matmul_nt
// duals) run serially on the calling thread and tile the reduction axis for
// cache reuse. They do not split rows across the pool: every training GEMM
// already runs inline inside a MAML task on a pool worker, and at this model
// size the row split made the one top-level caller (adapt_to) slower. Every
// output element accumulates its reduction terms in ascending order
// regardless of tile size, so results are bitwise identical to the serial
// triple loop. The gradient kernels iterate batches outermost: when a
// broadcast batch maps several batch indices onto the same gradient matrix,
// each element's accumulation runs in bi-major order.

using kern::kGemmKTile;

/// C[bi] = A[bi] * B[bi] for all batches. The first K-slice writes through
/// zero-initialized accumulators, so c does NOT need to be pre-zeroed.
void gemm_forward(const float* a, const float* b, float* c,
                  const std::vector<size_t>& aoff,
                  const std::vector<size_t>& boff, size_t M, size_t K,
                  size_t N) {
  const size_t nb = aoff.size();
  const size_t o_mat = M * N;
  for (size_t bi = 0; bi < nb; ++bi) {
    const float* pa = a + aoff[bi];
    const float* pb = b + boff[bi];
    float* po = c + bi * o_mat;
    kern::gemm_rows<true>(pa, pb, po, 0, M, 0, std::min(K, kGemmKTile), K, N);
    for (size_t k0 = kGemmKTile; k0 < K; k0 += kGemmKTile) {
      kern::gemm_rows<false>(pa, pb, po, 0, M, k0,
                             std::min(K, k0 + kGemmKTile), K, N);
    }
  }
}

/// Width-T block of one gradient row kept in registers while @p n
/// coefficient/row pairs stream over it: acc[j] += coef(i) * row(i)[j] for
/// i ascending. This is the backward-pass dual of gemm_row_panel — each dst
/// element still receives one rounded mul+add per i in ascending order, so
/// results are bitwise equal to the plain saxpy loop it replaces; only where
/// the running partial lives (registers vs. the gradient row) changes. The
/// backward kernels never fuse into FMA (plain += under -ffp-contract=off),
/// matching the composed arithmetic they must reproduce. Returns the next
/// unprocessed column.
template <size_t T, typename CoefFn, typename RowFn>
size_t saxpy_panel(float* __restrict dst, size_t j0, size_t J, size_t n,
                   CoefFn coef, RowFn row) {
  for (; j0 + T <= J; j0 += T) {
    float acc[T];
    for (size_t j = 0; j < T; ++j) acc[j] = dst[j0 + j];
    for (size_t i = 0; i < n; ++i) {
      const float cv = coef(i);
      const float* __restrict r = row(i) + j0;
      for (size_t j = 0; j < T; ++j) acc[j] += cv * r[j];
    }
    for (size_t j = 0; j < T; ++j) dst[j0 + j] = acc[j];
  }
  return j0;
}

/// Gradient row update dst[j] += sum_i coef(i) * row(i)[j] for columns
/// [j0, J) via register panels of descending width plus a scalar tail.
template <typename CoefFn, typename RowFn>
void saxpy_row(float* __restrict dst, size_t j0, size_t J, size_t n,
               CoefFn coef, RowFn row) {
  j0 = saxpy_panel<16>(dst, j0, J, n, coef, row);
  j0 = saxpy_panel<8>(dst, j0, J, n, coef, row);
  j0 = saxpy_panel<4>(dst, j0, J, n, coef, row);
  for (; j0 < J; ++j0) {
    float acc = dst[j0];
    for (size_t i = 0; i < n; ++i) acc += coef(i) * row(i)[j0];
    dst[j0] = acc;
  }
}

/// L floats as one GCC/Clang vector-extension value. Arithmetic on it is
/// lane-wise IEEE single precision — `acc += c * v` is one rounded mul then
/// one rounded add per lane under -ffp-contract=off — so a tile built from
/// it computes exactly what the scalar panels compute. (A plain float
/// acc[R][16] array does not stay in registers at R > 1 and compiles to
/// scalar code.) Spelled as explicit specializations: GCC drops vector_size
/// on a dependent alias template.
template <size_t L>
struct F32xL;
template <>
struct F32xL<4> {
  using type = float __attribute__((vector_size(16)));
};
template <>
struct F32xL<8> {
  using type = float __attribute__((vector_size(32)));
};
template <>
struct F32xL<16> {
  using type = float __attribute__((vector_size(64)));
};

/// Floats per native vector register of the build target. Tiles are built
/// from vectors of this width: a vector wider than the target's registers
/// is lowered piecewise through memory and runs slower than scalar panels.
#if defined(__AVX512F__)
constexpr size_t kLanes = 16;
#elif defined(__AVX__)
constexpr size_t kLanes = 8;
#else
constexpr size_t kLanes = 4;
#endif

/// Gradient rows per register tile: eight accumulator registers for a
/// 16-column tile (8 rows with AVX-512, 4 with AVX, 2 with SSE).
constexpr size_t kTileRows = 8 * kLanes / 16;

/// R-row x W-column register tile of a gradient block: dst row r gets
/// dst[r][j] += coef(i, r) * row(i)[j] for i ascending, j in [j0, j0+W).
/// The R rows advance through the reduction together, so each streamed row
/// is loaded once and reused R times, and the tile holds independent
/// accumulator vectors to cover add latency. Each element still starts from
/// its stored grad and receives one rounded mul+add per i in ascending order
/// — the backward dual of kern::gemm_row_tile, bitwise equal to saxpy_row.
template <size_t R, size_t W, typename CoefFn, typename RowFn>
void saxpy_tile(float* __restrict dst, size_t ldd, size_t j0, size_t n,
                CoefFn coef, RowFn row) {
  constexpr size_t L = std::min(W, kLanes);
  constexpr size_t P = W / L;  // vectors per tile row
  using V = typename F32xL<L>::type;
  static_assert(sizeof(V) == L * sizeof(float));
  V acc[R][P];
  for (size_t r = 0; r < R; ++r) {
    for (size_t p = 0; p < P; ++p) {
      std::memcpy(&acc[r][p], dst + r * ldd + j0 + p * L, sizeof(V));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    V v[P];
    for (size_t p = 0; p < P; ++p) {
      std::memcpy(&v[p], row(i) + j0 + p * L, sizeof(V));
    }
    for (size_t r = 0; r < R; ++r) {
      const float c = coef(i, r);
      for (size_t p = 0; p < P; ++p) acc[r][p] += c * v[p];
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t p = 0; p < P; ++p) {
      std::memcpy(dst + r * ldd + j0 + p * L, &acc[r][p], sizeof(V));
    }
  }
}

/// Gradient block update over @p rows rows of width J (row stride @p ldd):
/// dst[r][j] += sum_i coef(i, r) * row(i)[j], i ascending. Rows go
/// kTileRows at a time through R x 16 register tiles, then one R x 8 tile
/// when at least eight columns remain; the last J % 8 columns of each row
/// group and the last rows % R rows go through the one-row saxpy_row
/// panels. Only which independent chains share registers differs between
/// these, so the split is bitwise invisible.
template <typename CoefFn, typename RowFn>
void saxpy_rows(float* __restrict dst, size_t ldd, size_t rows, size_t J,
                size_t n, CoefFn coef, RowFn row) {
  constexpr size_t R = kTileRows;
  const size_t J16 = J - J % 16;
  const size_t J8 = J - J % 8;
  size_t r0 = 0;
  for (; r0 + R <= rows; r0 += R) {
    float* __restrict d = dst + r0 * ldd;
    const auto tile_coef = [&](size_t i, size_t r) { return coef(i, r0 + r); };
    for (size_t j0 = 0; j0 < J16; j0 += 16) {
      saxpy_tile<R, 16>(d, ldd, j0, n, tile_coef, row);
    }
    if (J8 > J16) saxpy_tile<R, 8>(d, ldd, J16, n, tile_coef, row);
    if (J8 == J) continue;
    for (size_t r = 0; r < R; ++r) {
      saxpy_row(
          d + r * ldd, J8, J, n, [&](size_t i) { return coef(i, r0 + r); },
          row);
    }
  }
  for (; r0 < rows; ++r0) {
    saxpy_row(
        dst + r0 * ldd, 0, J, n, [&](size_t i) { return coef(i, r0); }, row);
  }
}

/// True when a batched product is one plain 2-D product in disguise: the
/// right operand is broadcast (every boff equal, e.g. a Linear weight) and
/// the left operand's batches lie back to back (aoff[bi] = bi * a_mat), as
/// does the output grad. The gradient kernels then treat the batch as one
/// [nb*M, K] x [K, N] product. Each dA row still belongs to one batch and
/// keeps its ascending chain, and dB's reduction over the nb*M rows in row
/// order is exactly the bi-major, ascending-m chain of the per-batch loop —
/// but B is packed once instead of nb times and the dB accumulator tiles
/// stay in registers across batches.
bool flat_batches(const std::vector<size_t>& aoff,
                  const std::vector<size_t>& boff, size_t a_mat) {
  if (aoff.empty()) return false;
  for (size_t bi = 0; bi < aoff.size(); ++bi) {
    if (aoff[bi] != bi * a_mat || boff[bi] != boff[0]) return false;
  }
  return true;
}

/// dA[bi] += dC[bi] * B[bi]^T. B is packed into B^T once (pooled scratch) so
/// the tile's streamed rows read contiguously — same terms, same ascending-n
/// order per element, just a different address pattern. The __restrict
/// qualifiers are sound: go/b/da are always three distinct buffers (an op
/// output's grad, a parent's value, a parent's grad).
void gemm_backward_a(const float* __restrict go, const float* __restrict b,
                     float* __restrict da, const std::vector<size_t>& aoff,
                     const std::vector<size_t>& boff, size_t M, size_t K,
                     size_t N) {
  const bool flat = flat_batches(aoff, boff, M * K);
  const size_t groups = flat ? 1 : aoff.size();
  const size_t rows = flat ? aoff.size() * M : M;
  const size_t o_mat = M * N;
  const size_t b_mat = K * N;
  std::vector<float> btv = BufferPool::acquire(groups * b_mat);
  float* __restrict bt = btv.data();
  for (size_t bi = 0; bi < groups; ++bi) {
    const float* pb = b + boff[bi];
    float* pt = bt + bi * b_mat;
    for (size_t n = 0; n < N; ++n) {
      for (size_t k = 0; k < K; ++k) pt[n * K + k] = pb[k * N + n];
    }
  }
  for (size_t bi = 0; bi < groups; ++bi) {
    const float* __restrict pbt = bt + bi * b_mat;
    const float* __restrict g = go + bi * o_mat;
    saxpy_rows(
        da + aoff[bi], K, rows, K, N,
        [&](size_t n, size_t m) { return g[m * N + n]; },
        [&](size_t n) { return pbt + n * K; });
  }
  BufferPool::release(std::move(btv));
}

/// dB[bi] += A[bi]^T * dC[bi].
void gemm_backward_b(const float* __restrict a, const float* __restrict go,
                     float* __restrict db, const std::vector<size_t>& aoff,
                     const std::vector<size_t>& boff, size_t M, size_t K,
                     size_t N) {
  const bool flat = flat_batches(aoff, boff, M * K);
  const size_t groups = flat ? 1 : aoff.size();
  const size_t red = flat ? aoff.size() * M : M;
  const size_t o_mat = M * N;
  for (size_t bi = 0; bi < groups; ++bi) {
    const float* __restrict pa = a + aoff[bi];
    const float* __restrict g = go + bi * o_mat;
    saxpy_rows(
        db + boff[bi], N, K, N, red,
        [&](size_t m, size_t k) { return pa[m * K + k]; },
        [&](size_t m) { return g + m * N; });
  }
}

// -- transpose-aware GEMM (C = A * B^T with B stored row-major [N, K]) --------

/// C[bi][m,n] = sum_k A[bi][m,k] * B[bi][n,k]. Packs each batch's B into
/// B^T once (O(N*K) moves against O(M*N*K) multiply-adds) and runs the same
/// register-panel kernel as gemm_forward; the ascending-k accumulation makes
/// every output element bitwise equal to matmul(a, transpose_last(b)), which
/// accumulates the same terms in the same order. Like gemm_forward, c does
/// not need to be pre-zeroed.
void gemm_nt_forward(const float* a, const float* b, float* c,
                     const std::vector<size_t>& aoff,
                     const std::vector<size_t>& boff, size_t M, size_t K,
                     size_t N) {
  const size_t nb = aoff.size();
  const size_t o_mat = M * N;
  const size_t b_mat = K * N;
  std::vector<float> bt = alloc_out(nb * b_mat);
  for (size_t bi = 0; bi < nb; ++bi) {
    const float* pb = b + boff[bi];
    float* pt = bt.data() + bi * b_mat;
    for (size_t n = 0; n < N; ++n) {
      for (size_t k = 0; k < K; ++k) pt[k * N + n] = pb[n * K + k];
    }
  }
  for (size_t bi = 0; bi < nb; ++bi) {
    kern::gemm_rows<true>(a + aoff[bi], bt.data() + bi * b_mat,
                          c + bi * o_mat, 0, M, 0, K, K, N);
  }
  // Hand the packed panel back to the pool: the next matmul_nt of this shape
  // (the same attention score product, one inner-loop step later) re-packs
  // into the identical storage instead of allocating.
  BufferPool::release(std::move(bt));
}

/// dA[bi][m,k] += sum_n dC[bi][m,n] * B[bi][n,k] (flat_batches as in
/// gemm_backward_a).
void gemm_nt_backward_a(const float* __restrict go, const float* __restrict b,
                        float* __restrict da, const std::vector<size_t>& aoff,
                        const std::vector<size_t>& boff, size_t M, size_t K,
                        size_t N) {
  const bool flat = flat_batches(aoff, boff, M * K);
  const size_t groups = flat ? 1 : aoff.size();
  const size_t rows = flat ? aoff.size() * M : M;
  const size_t o_mat = M * N;
  for (size_t bi = 0; bi < groups; ++bi) {
    const float* __restrict pb = b + boff[bi];
    const float* __restrict g = go + bi * o_mat;
    saxpy_rows(
        da + aoff[bi], K, rows, K, N,
        [&](size_t n, size_t m) { return g[m * N + n]; },
        [&](size_t n) { return pb + n * K; });
  }
}

/// dB[bi][n,k] += sum_m dC[bi][m,n] * A[bi][m,k].
void gemm_nt_backward_b(const float* __restrict go, const float* __restrict a,
                        float* __restrict db, const std::vector<size_t>& aoff,
                        const std::vector<size_t>& boff, size_t M, size_t K,
                        size_t N) {
  const bool flat = flat_batches(aoff, boff, M * K);
  const size_t groups = flat ? 1 : aoff.size();
  const size_t red = flat ? aoff.size() * M : M;
  const size_t o_mat = M * N;
  for (size_t bi = 0; bi < groups; ++bi) {
    const float* __restrict pa = a + aoff[bi];
    const float* __restrict g = go + bi * o_mat;
    saxpy_rows(
        db + boff[bi], K, N, K, red,
        [&](size_t m, size_t n) { return g[m * N + n]; },
        [&](size_t m) { return pa + m * K; });
  }
}

/// Per-batch base offsets for broadcast batch dims; @p a_mat / @p b_mat are
/// the per-matrix element counts the batch indices scale by. The offset
/// tables come from the index pool (callers hand them back, or park them in
/// a backward closure via PooledIdx). Rank-2 x rank-2 — the Linear layers,
/// i.e. most matmuls — skips the broadcast machinery entirely.
void batch_offsets(const Shape& a_shape, const Shape& b_shape, size_t a_mat,
                   size_t b_mat, std::vector<size_t>& aoff,
                   std::vector<size_t>& boff, Shape& batch) {
  if (a_shape.size() == 2 && b_shape.size() == 2) {
    aoff = BufferPool::acquire_idx(1);
    boff = BufferPool::acquire_idx(1);
    aoff[0] = 0;
    boff[0] = 0;
    batch.clear();
    return;
  }
  const Shape a_batch(a_shape.begin(), a_shape.end() - 2);
  const Shape b_batch(b_shape.begin(), b_shape.end() - 2);
  batch = broadcast_shape(a_batch, b_batch);
  const auto sa = broadcast_strides(a_batch, batch);
  const auto sb = broadcast_strides(b_batch, batch);
  const size_t nb = numel(batch);
  aoff = BufferPool::acquire_idx(nb);
  boff = BufferPool::acquire_idx(nb);
  std::vector<size_t> idx = BufferPool::acquire_idx(batch.size());
  std::fill(idx.begin(), idx.end(), 0);
  for (size_t i = 0; i < nb; ++i) {
    size_t oa = 0;
    size_t ob = 0;
    for (size_t d = 0; d < batch.size(); ++d) {
      oa += idx[d] * sa[d];
      ob += idx[d] * sb[d];
    }
    aoff[i] = oa * a_mat;
    boff[i] = ob * b_mat;
    for (size_t d = batch.size(); d-- > 0;) {
      if (++idx[d] < batch[d]) break;
      idx[d] = 0;
    }
  }
  BufferPool::release_idx(std::move(idx));
}

/// Iterates the linear indices of two inputs broadcast to a common output
/// shape. Offsets are maintained incrementally in advance() — O(1) amortized
/// per element instead of an O(rank) dot product per lookup.
struct BcastIter {
  Shape out;
  std::vector<size_t> sa, sb, idx;
  size_t n;

  BcastIter(const Shape& a, const Shape& b)
      : out(broadcast_shape(a, b)),
        sa(broadcast_strides(a, out)),
        sb(broadcast_strides(b, out)),
        idx(out.size(), 0),
        n(numel(out)) {}

  size_t offset_a() const { return oa_; }
  size_t offset_b() const { return ob_; }

  void advance() {
    for (size_t d = out.size(); d-- > 0;) {
      ++idx[d];
      oa_ += sa[d];
      ob_ += sb[d];
      if (idx[d] < out[d]) return;
      oa_ -= idx[d] * sa[d];
      ob_ -= idx[d] * sb[d];
      idx[d] = 0;
    }
  }

 private:
  size_t oa_ = 0, ob_ = 0;
};

/// True when @p small is exactly the trailing dims of @p big, so broadcasting
/// reduces to `offset_small = i % numel(small)` (covers the scalar case).
bool is_trailing_suffix(const Shape& small, const Shape& big) {
  if (small.size() > big.size()) return false;
  const size_t d0 = big.size() - small.size();
  for (size_t d = 0; d < small.size(); ++d) {
    if (small[d] != big[d0 + d]) return false;
  }
  return true;
}

/// Generic broadcast binary op. fwd(x,y) computes the value; dfa/dfb compute
/// d out/d a and d out/d b given (a_val, b_val, out_val). The same-shape and
/// trailing-suffix fast paths below visit elements in the identical ascending
/// output order as the general BcastIter walk, so values and accumulated
/// gradients are bitwise independent of which path runs.
template <typename Fwd, typename Dfa, typename Dfb>
Tensor binary_bcast(const Tensor& a, const Tensor& b, Fwd fwd, Dfa dfa,
                    Dfb dfb) {
  auto an = a.node();
  auto bn = b.node();
  // Fast path: identical shapes — both offsets equal the output index.
  if (an->shape == bn->shape) {
    const size_t n = an->value.size();
    std::vector<float> out = alloc_out(n);
    for (size_t i = 0; i < n; ++i) out[i] = fwd(an->value[i], bn->value[i]);
    return make_op_result(
        an->shape, std::move(out), {an, bn}, [an, bn, dfa, dfb](Node& self) {
          const bool ga = an->requires_grad;
          const bool gb = bn->requires_grad;
          if (ga) an->ensure_grad();
          if (gb) bn->ensure_grad();
          const size_t len = self.value.size();
          const float* __restrict av = an->value.data();
          const float* __restrict bv = bn->value.data();
          const float* __restrict go = self.grad.data();
          const float* __restrict ov = self.value.data();
          if (ga) {
            float* __restrict g = an->grad.data();
            for (size_t i = 0; i < len; ++i) {
              g[i] += go[i] * dfa(av[i], bv[i], ov[i]);
            }
          }
          if (gb) {
            float* __restrict g = bn->grad.data();
            for (size_t i = 0; i < len; ++i) {
              g[i] += go[i] * dfb(av[i], bv[i], ov[i]);
            }
          }
        });
  }
  // Fast path: b is a right-aligned suffix of a (bias adds, scalar operands).
  // n is an exact multiple of L, so the walk is whole blocks of L; the block
  // loops visit the same ascending output order as the modular-index walk
  // they replace while keeping the inner trip count branch-free.
  if (!bn->value.empty() && is_trailing_suffix(bn->shape, an->shape)) {
    const size_t n = an->value.size();
    const size_t L = bn->value.size();
    std::vector<float> out = alloc_out(n);
    if (L == 1) {
      const float bv = bn->value[0];
      for (size_t i = 0; i < n; ++i) out[i] = fwd(an->value[i], bv);
    } else {
      for (size_t i0 = 0; i0 < n; i0 += L) {
        const float* pa = an->value.data() + i0;
        float* po = out.data() + i0;
        for (size_t j = 0; j < L; ++j) po[j] = fwd(pa[j], bn->value[j]);
      }
    }
    return make_op_result(
        an->shape, std::move(out), {an, bn},
        [an, bn, L, dfa, dfb](Node& self) {
          const bool ga = an->requires_grad;
          const bool gb = bn->requires_grad;
          if (ga) an->ensure_grad();
          if (gb) bn->ensure_grad();
          const size_t len = self.value.size();
          const float* __restrict av = an->value.data();
          const float* __restrict bv = bn->value.data();
          const float* __restrict go = self.grad.data();
          const float* __restrict ov = self.value.data();
          if (ga && L == 1) {
            // Scalar operand: the blocked walk below would run a one-trip
            // inner loop that never vectorizes. One flat loop vectorizes and
            // lets the compiler hoist b-only work such as div's 1 / b (same
            // operation, same operands, same bits); 13 vs 180+ us for the
            // attention-score div backward at [180,24,24].
            float* __restrict g = an->grad.data();
            const float b0 = bv[0];
            for (size_t i = 0; i < len; ++i) {
              g[i] += go[i] * dfa(av[i], b0, ov[i]);
            }
          } else if (ga) {
            float* __restrict g = an->grad.data();
            for (size_t i0 = 0; i0 < len; i0 += L) {
              for (size_t j = 0; j < L; ++j) {
                g[i0 + j] += go[i0 + j] * dfa(av[i0 + j], bv[j], ov[i0 + j]);
              }
            }
          }
          if (gb) {
            float* __restrict g = bn->grad.data();
            for (size_t i0 = 0; i0 < len; i0 += L) {
              for (size_t j = 0; j < L; ++j) {
                g[j] += go[i0 + j] * dfb(av[i0 + j], bv[j], ov[i0 + j]);
              }
            }
          }
        });
  }
  // Mirror fast path: a is a right-aligned suffix of b.
  if (!an->value.empty() && is_trailing_suffix(an->shape, bn->shape)) {
    const size_t n = bn->value.size();
    const size_t L = an->value.size();
    std::vector<float> out = alloc_out(n);
    if (L == 1) {
      const float av = an->value[0];
      for (size_t i = 0; i < n; ++i) out[i] = fwd(av, bn->value[i]);
    } else {
      for (size_t i0 = 0; i0 < n; i0 += L) {
        const float* pb = bn->value.data() + i0;
        float* po = out.data() + i0;
        for (size_t j = 0; j < L; ++j) po[j] = fwd(an->value[j], pb[j]);
      }
    }
    return make_op_result(
        bn->shape, std::move(out), {an, bn},
        [an, bn, L, dfa, dfb](Node& self) {
          const bool ga = an->requires_grad;
          const bool gb = bn->requires_grad;
          if (ga) an->ensure_grad();
          if (gb) bn->ensure_grad();
          const size_t len = self.value.size();
          const float* __restrict av = an->value.data();
          const float* __restrict bv = bn->value.data();
          const float* __restrict go = self.grad.data();
          const float* __restrict ov = self.value.data();
          if (ga) {
            float* __restrict g = an->grad.data();
            for (size_t i0 = 0; i0 < len; i0 += L) {
              for (size_t j = 0; j < L; ++j) {
                g[j] += go[i0 + j] * dfa(av[j], bv[i0 + j], ov[i0 + j]);
              }
            }
          }
          if (gb) {
            float* __restrict g = bn->grad.data();
            for (size_t i0 = 0; i0 < len; i0 += L) {
              for (size_t j = 0; j < L; ++j) {
                g[i0 + j] += go[i0 + j] * dfb(av[j], bv[i0 + j], ov[i0 + j]);
              }
            }
          }
        });
  }
  BcastIter f(an->shape, bn->shape);
  std::vector<float> out = alloc_out(f.n);
  for (size_t i = 0; i < f.n; ++i, f.advance()) {
    out[i] = fwd(an->value[f.offset_a()], bn->value[f.offset_b()]);
  }
  Shape out_shape = f.out;
  return make_op_result(
      out_shape, std::move(out), {an, bn},
      [an, bn, dfa, dfb](Node& self) {
        const bool ga = an->requires_grad;
        const bool gb = bn->requires_grad;
        if (ga) an->ensure_grad();
        if (gb) bn->ensure_grad();
        if (ga) {
          BcastIter g(an->shape, bn->shape);
          for (size_t i = 0; i < g.n; ++i, g.advance()) {
            const float av = an->value[g.offset_a()];
            const float bv = bn->value[g.offset_b()];
            an->grad[g.offset_a()] += self.grad[i] * dfa(av, bv, self.value[i]);
          }
        }
        if (gb) {
          BcastIter g(an->shape, bn->shape);
          for (size_t i = 0; i < g.n; ++i, g.advance()) {
            const float av = an->value[g.offset_a()];
            const float bv = bn->value[g.offset_b()];
            bn->grad[g.offset_b()] += self.grad[i] * dfb(av, bv, self.value[i]);
          }
        }
      });
}

/// Generic elementwise unary op; dfn receives (x, y) and returns dy/dx.
template <typename Fwd, typename Dfn>
Tensor unary(const Tensor& a, Fwd fwd, Dfn dfn) {
  auto an = a.node();
  const size_t n = an->value.size();
  std::vector<float> out = alloc_out(n);
  // Raw noalias pointers: the freshly acquired out buffer cannot alias the
  // input, and spelling that out lets the elementwise loop vectorize.
  const float* __restrict src = an->value.data();
  float* __restrict dst = out.data();
  for (size_t i = 0; i < n; ++i) dst[i] = fwd(src[i]);
  return make_op_result(an->shape, std::move(out), {an},
                        [an, dfn](Node& self) {
                          if (!an->requires_grad) return;
                          an->ensure_grad();
                          for (size_t i = 0; i < self.value.size(); ++i) {
                            an->grad[i] +=
                                self.grad[i] * dfn(an->value[i], self.value[i]);
                          }
                        });
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor r = binary_bcast(
      a, b, [](float x, float y) { return x + y; },
      [](float, float, float) { return 1.0F; },
      [](float, float, float) { return 1.0F; });
  plan::trace_binary(plan::BinFn::kAdd, r, a, b);
  return r;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor r = binary_bcast(
      a, b, [](float x, float y) { return x - y; },
      [](float, float, float) { return 1.0F; },
      [](float, float, float) { return -1.0F; });
  plan::trace_binary(plan::BinFn::kSub, r, a, b);
  return r;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  Tensor r = binary_bcast(
      a, b, [](float x, float y) { return x * y; },
      [](float, float y, float) { return y; },
      [](float x, float, float) { return x; });
  plan::trace_binary(plan::BinFn::kMul, r, a, b);
  return r;
}

Tensor div(const Tensor& a, const Tensor& b) {
  Tensor r = binary_bcast(
      a, b, [](float x, float y) { return x / y; },
      [](float, float y, float) { return 1.0F / y; },
      [](float x, float y, float) { return -x / (y * y); });
  plan::trace_binary(plan::BinFn::kDiv, r, a, b);
  return r;
}

Tensor add(const Tensor& a, float b) { return add(a, pooled_scalar(b)); }
Tensor sub(const Tensor& a, float b) { return sub(a, pooled_scalar(b)); }
Tensor mul(const Tensor& a, float b) { return mul(a, pooled_scalar(b)); }
Tensor div(const Tensor& a, float b) { return div(a, pooled_scalar(b)); }

Tensor neg(const Tensor& a) {
  Tensor r = unary(a, [](float x) { return -x; },
                   [](float, float) { return -1.0F; });
  plan::trace_unary(plan::UnFn::kNeg, r, a);
  return r;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  auto an = a.node();
  auto bn = b.node();
  if (an->shape.size() < 2 || bn->shape.size() < 2) {
    throw std::invalid_argument("matmul: inputs must have rank >= 2");
  }
  const size_t M = an->shape[an->shape.size() - 2];
  const size_t K = an->shape[an->shape.size() - 1];
  const size_t Kb = bn->shape[bn->shape.size() - 2];
  const size_t N = bn->shape[bn->shape.size() - 1];
  if (K != Kb) {
    throw std::invalid_argument("matmul: inner dims differ (" +
                                shape_str(an->shape) + " x " +
                                shape_str(bn->shape) + ")");
  }
  Shape batch;
  std::vector<size_t> aoff, boff;
  batch_offsets(an->shape, bn->shape, M * K, K * N, aoff, boff, batch);
  const size_t nb = aoff.size();
  const size_t o_mat = M * N;

  Shape out_shape = std::move(batch);
  out_shape.push_back(M);
  out_shape.push_back(N);
  std::vector<float> out = alloc_out(nb * o_mat);
  gemm_forward(an->value.data(), bn->value.data(), out.data(), aoff, boff, M,
               K, N);

  Tensor r = make_op_result(
      std::move(out_shape), std::move(out), {an, bn},
      [an, bn, aoff = PooledIdx(std::move(aoff)),
       boff = PooledIdx(std::move(boff)), M, K, N](Node& self) {
        const bool ga = an->requires_grad;
        const bool gb = bn->requires_grad;
        if (ga) an->ensure_grad();
        if (gb) bn->ensure_grad();
        if (ga) {
          // dA = dOut * B^T
          gemm_backward_a(self.grad.data(), bn->value.data(),
                          an->grad.data(), aoff.get(), boff.get(), M, K, N);
        }
        if (gb) {
          // dB = A^T * dOut
          gemm_backward_b(an->value.data(), self.grad.data(),
                          bn->grad.data(), aoff.get(), boff.get(), M, K, N);
        }
      });
  plan::trace_matmul(false, r, a, b);
  return r;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  auto an = a.node();
  auto bn = b.node();
  if (an->shape.size() < 2 || bn->shape.size() < 2) {
    throw std::invalid_argument("matmul_nt: inputs must have rank >= 2");
  }
  const size_t M = an->shape[an->shape.size() - 2];
  const size_t K = an->shape[an->shape.size() - 1];
  const size_t N = bn->shape[bn->shape.size() - 2];
  const size_t Kb = bn->shape[bn->shape.size() - 1];
  if (K != Kb) {
    throw std::invalid_argument("matmul_nt: inner dims differ (" +
                                shape_str(an->shape) + " x " +
                                shape_str(bn->shape) + "^T)");
  }
  Shape batch;
  std::vector<size_t> aoff, boff;
  batch_offsets(an->shape, bn->shape, M * K, N * K, aoff, boff, batch);
  const size_t nb = aoff.size();
  const size_t o_mat = M * N;

  Shape out_shape = std::move(batch);
  out_shape.push_back(M);
  out_shape.push_back(N);
  std::vector<float> out = alloc_out(nb * o_mat);
  gemm_nt_forward(an->value.data(), bn->value.data(), out.data(), aoff, boff,
                  M, K, N);

  Tensor r = make_op_result(
      std::move(out_shape), std::move(out), {an, bn},
      [an, bn, aoff = PooledIdx(std::move(aoff)),
       boff = PooledIdx(std::move(boff)), M, K, N](Node& self) {
        const bool ga = an->requires_grad;
        const bool gb = bn->requires_grad;
        if (ga) an->ensure_grad();
        if (gb) bn->ensure_grad();
        if (ga) {
          // dA = dOut * B
          gemm_nt_backward_a(self.grad.data(), bn->value.data(),
                             an->grad.data(), aoff.get(), boff.get(), M, K, N);
        }
        if (gb) {
          // dB = dOut^T * A
          gemm_nt_backward_b(self.grad.data(), an->value.data(),
                             bn->grad.data(), aoff.get(), boff.get(), M, K, N);
        }
      });
  plan::trace_matmul(true, r, a, b);
  return r;
}

Tensor relu(const Tensor& a) {
  Tensor r = unary(a, [](float x) { return x > 0.0F ? x : 0.0F; },
                   [](float x, float) { return x > 0.0F ? 1.0F : 0.0F; });
  plan::trace_unary(plan::UnFn::kRelu, r, a);
  return r;
}

Tensor gelu(const Tensor& a) {
  Tensor r = unary(a, [](float x) { return gelu_fwd(x); },
                   [](float x, float) { return gelu_dfn(x); });
  plan::trace_unary(plan::UnFn::kGelu, r, a);
  return r;
}

Tensor tanh(const Tensor& a) {
  Tensor r = unary(a, [](float x) { return std::tanh(x); },
                   [](float, float y) { return 1.0F - y * y; });
  plan::trace_unary(plan::UnFn::kTanh, r, a);
  return r;
}

Tensor sigmoid(const Tensor& a) {
  Tensor r = unary(a, [](float x) { return 1.0F / (1.0F + std::exp(-x)); },
                   [](float, float y) { return y * (1.0F - y); });
  plan::trace_unary(plan::UnFn::kSigmoid, r, a);
  return r;
}

Tensor exp(const Tensor& a) {
  Tensor r = unary(a, [](float x) { return std::exp(x); },
                   [](float, float y) { return y; });
  plan::trace_unary(plan::UnFn::kExp, r, a);
  return r;
}

Tensor log(const Tensor& a) {
  Tensor r = unary(a, [](float x) { return std::log(x); },
                   [](float x, float) { return 1.0F / x; });
  plan::trace_unary(plan::UnFn::kLog, r, a);
  return r;
}

Tensor square(const Tensor& a) {
  Tensor r = unary(a, [](float x) { return x * x; },
                   [](float x, float) { return 2.0F * x; });
  plan::trace_unary(plan::UnFn::kSquare, r, a);
  return r;
}

Tensor softmax_lastdim(const Tensor& a) {
  auto an = a.node();
  if (an->shape.empty()) {
    throw std::invalid_argument("softmax_lastdim: rank must be >= 1");
  }
  const size_t L = an->shape.back();
  const size_t rows = an->value.size() / L;
  std::vector<float> out = alloc_out(an->value.size());
  for (size_t r = 0; r < rows; ++r) {
    kern::softmax_row(an->value.data() + r * L, out.data() + r * L, L);
  }
  Tensor res = make_op_result(
      an->shape, std::move(out), {an}, [an, L, rows](Node& self) {
        if (!an->requires_grad) return;
        an->ensure_grad();
        for (size_t r = 0; r < rows; ++r) {
          const float* y = self.value.data() + r * L;
          const float* g = self.grad.data() + r * L;
          float* dx = an->grad.data() + r * L;
          float dot = 0.0F;
          for (size_t i = 0; i < L; ++i) dot += y[i] * g[i];
          for (size_t i = 0; i < L; ++i) dx[i] += y[i] * (g[i] - dot);
        }
      });
  plan::trace_softmax(res, a);
  return res;
}

Tensor layer_norm_lastdim(const Tensor& a, float eps) {
  auto an = a.node();
  if (an->shape.empty()) {
    throw std::invalid_argument("layer_norm_lastdim: rank must be >= 1");
  }
  const size_t L = an->shape.back();
  const size_t rows = an->value.size() / L;
  // inv_std only feeds the backward closure; skip the stash when no graph is
  // being recorded.
  const bool rec = GradMode::enabled() && an->requires_grad;
  std::vector<float> out = alloc_out(an->value.size());
  std::vector<float> inv_std = rec ? BufferPool::acquire(rows)
                                   : std::vector<float>{};
  for (size_t r = 0; r < rows; ++r) {
    const float is =
        kern::layer_norm_row(an->value.data() + r * L, out.data() + r * L, L,
                             eps);
    if (rec) inv_std[r] = is;
  }
  // The stash's heap buffer survives the PooledVec move below, so the traced
  // pointer stays valid for the training-plan replay to refresh in place.
  float* ivp = rec ? inv_std.data() : nullptr;
  Tensor res = make_op_result(
      an->shape, std::move(out), {an},
      [an, L, rows, inv_std = PooledVec(std::move(inv_std))](Node& self) {
        if (!an->requires_grad) return;
        an->ensure_grad();
        const float invL = 1.0F / static_cast<float>(L);
        for (size_t r = 0; r < rows; ++r) {
          const float* y = self.value.data() + r * L;
          const float* g = self.grad.data() + r * L;
          float* dx = an->grad.data() + r * L;
          float gmean = 0.0F;
          float gymean = 0.0F;
          for (size_t i = 0; i < L; ++i) {
            gmean += g[i];
            gymean += g[i] * y[i];
          }
          gmean *= invL;
          gymean *= invL;
          for (size_t i = 0; i < L; ++i) {
            dx[i] += inv_std[r] * (g[i] - gmean - y[i] * gymean);
          }
        }
      });
  plan::trace_layer_norm(res, a, eps, ivp);
  return res;
}

// The fused kernels below replace the hot op chains of the transformer
// forward with single graph nodes. Bitwise equivalence with the composed
// chains is load-bearing (the meta-training equivalence suite asserts it),
// so every kernel reproduces the composed ops' exact rounding steps and the
// exact order in which each gradient accumulator receives its contributions;
// reordering is only applied across *independent* accumulators.

Tensor layer_norm_affine(const Tensor& x, const Tensor& gamma,
                         const Tensor& beta, float eps) {
  auto an = x.node();
  auto gn = gamma.node();
  auto bn = beta.node();
  if (an->shape.empty()) {
    throw std::invalid_argument("layer_norm_affine: rank must be >= 1");
  }
  const size_t L = an->shape.back();
  if (gn->shape != Shape{L} || bn->shape != Shape{L}) {
    throw std::invalid_argument(
        "layer_norm_affine: gamma/beta must have shape [" + std::to_string(L) +
        "]");
  }
  const size_t rows = an->value.size() / L;
  const bool rec = GradMode::enabled() &&
                   (an->requires_grad || gn->requires_grad ||
                    bn->requires_grad);
  std::vector<float> out = alloc_out(an->value.size());
  // Backward needs the normalized activations and each row's 1/std; the
  // composed chain kept them as a whole intermediate node — here they are
  // pooled stashes that die with the closure.
  std::vector<float> normed =
      rec ? BufferPool::acquire(an->value.size()) : std::vector<float>{};
  std::vector<float> inv_std =
      rec ? BufferPool::acquire(rows) : std::vector<float>{};
  if (rec) {
    for (size_t r = 0; r < rows; ++r) {
      inv_std[r] = kern::layer_norm_affine_row(
          an->value.data() + r * L, gn->value.data(), bn->value.data(),
          out.data() + r * L, normed.data() + r * L, L, eps);
    }
  } else {
    kern::layer_norm_affine_rows(an->value.data(), gn->value.data(),
                                 bn->value.data(), out.data(), rows, L, eps);
  }
  float* np = rec ? normed.data() : nullptr;
  float* ivp = rec ? inv_std.data() : nullptr;
  Tensor res = make_op_result(
      an->shape, std::move(out), {an, gn, bn},
      [an, gn, bn, L, rows, normed = PooledVec(std::move(normed)),
       inv_std = PooledVec(std::move(inv_std))](Node& self) {
        const bool ga = an->requires_grad;
        const bool gg = gn->requires_grad;
        const bool gb = bn->requires_grad;
        if (ga) an->ensure_grad();
        if (gg) gn->ensure_grad();
        if (gb) bn->ensure_grad();
        const float invL = 1.0F / static_cast<float>(L);
        for (size_t r = 0; r < rows; ++r) {
          const float* y = normed.data() + r * L;
          const float* go = self.grad.data() + r * L;
          // One pass gathers the row's beta/gamma contributions and the two
          // means the input gradient needs. Per accumulator the contribution
          // order is the composed chain's flat ascending walk.
          float gmean = 0.0F;
          float gymean = 0.0F;
          for (size_t i = 0; i < L; ++i) {
            const float g0 = go[i];
            if (gb) bn->grad[i] += g0 * 1.0F;
            if (gg) gn->grad[i] += g0 * y[i];
            const float gy = g0 * gn->value[i];
            gmean += gy;
            gymean += gy * y[i];
          }
          if (ga) {
            gmean *= invL;
            gymean *= invL;
            float* dx = an->grad.data() + r * L;
            const float is = inv_std[r];
            for (size_t i = 0; i < L; ++i) {
              const float gy = go[i] * gn->value[i];
              dx[i] += is * (gy - gmean - y[i] * gymean);
            }
          }
        }
      });
  plan::trace_layer_norm_affine(res, x, gamma, beta, eps, np, ivp);
  return res;
}

Tensor softmax_masked_lastdim(const Tensor& scores, const Tensor& mask,
                              float eps) {
  auto an = scores.node();
  auto mn = mask.node();
  if (an->shape.size() < 2) {
    throw std::invalid_argument("softmax_masked_lastdim: rank must be >= 2");
  }
  const size_t L = an->shape.back();
  const size_t R = an->shape[an->shape.size() - 2];
  if (mn->shape != Shape{R, L}) {
    throw std::invalid_argument(
        "softmax_masked_lastdim: mask must match the trailing [" +
        std::to_string(R) + ", " + std::to_string(L) + "] of scores");
  }
  const size_t rows = an->value.size() / L;
  const bool rec = GradMode::enabled() &&
                   (an->requires_grad || mn->requires_grad);
  std::vector<float> out = alloc_out(an->value.size());
  // Stash the pre-mask softmax (the composed chain's intermediate node) and
  // each row's regularized mass; backward rebuilds everything else.
  std::vector<float> ystash =
      rec ? BufferPool::acquire(an->value.size()) : std::vector<float>{};
  std::vector<float> s2stash =
      rec ? BufferPool::acquire(rows) : std::vector<float>{};
  for (size_t r = 0; r < rows; ++r) {
    const float* x = an->value.data() + r * L;
    float* po = out.data() + r * L;
    // Softmax exactly as softmax_lastdim; when no graph is recorded the
    // output row doubles as the y scratch (masked_renorm_row is in-place
    // safe).
    float* y = rec ? ystash.data() + r * L : po;
    kern::softmax_row(x, y, L);
    const float s2 = kern::masked_renorm_row(
        y, mn->value.data() + (r % R) * L, po, L, eps);
    if (rec) s2stash[r] = s2;
  }
  float* yp = rec ? ystash.data() : nullptr;
  float* s2p = rec ? s2stash.data() : nullptr;
  Tensor res = make_op_result(
      an->shape, std::move(out), {an, mn},
      [an, mn, L, R, rows, ystash = PooledVec(std::move(ystash)),
       s2stash = PooledVec(std::move(s2stash))](Node& self) {
        const bool ga = an->requires_grad;
        const bool gm = mn->requires_grad;
        if (ga) an->ensure_grad();
        if (gm) mn->ensure_grad();
        std::vector<float> dy = BufferPool::acquire(L);
        for (size_t r = 0; r < rows; ++r) {
          const float* y = ystash.data() + r * L;
          const float* go = self.grad.data() + r * L;
          const size_t mrow = (r % R) * L;
          const float* mk = mn->value.data() + mrow;
          const float s2 = s2stash[r];
          const float s2sq = s2 * s2;
          // d(row mass): the div op's dfb terms in ascending order.
          float drs = 0.0F;
          for (size_t i = 0; i < L; ++i) {
            const float m = y[i] * mk[i];
            drs += go[i] * (-m / s2sq);
          }
          const float inv = 1.0F / s2;
          float dot = 0.0F;
          float* dmk = gm ? mn->grad.data() + mrow : nullptr;
          for (size_t i = 0; i < L; ++i) {
            float dm = go[i] * inv;  // div dfa term ...
            dm += drs;               // ... then the sum_axis broadcast-back
            dy[i] = dm * mk[i];
            if (gm) dmk[i] += dm * y[i];
            dot += y[i] * dy[i];
          }
          if (ga) {
            float* dx = an->grad.data() + r * L;
            for (size_t i = 0; i < L; ++i) dx[i] += y[i] * (dy[i] - dot);
          }
        }
        BufferPool::release(std::move(dy));
      });
  plan::trace_softmax_masked(res, scores, mask, eps, yp, s2p);
  return res;
}

Tensor bias_gelu(const Tensor& x, const Tensor& b) {
  auto an = x.node();
  auto bn = b.node();
  if (an->shape.empty()) {
    throw std::invalid_argument("bias_gelu: rank must be >= 1");
  }
  const size_t L = an->shape.back();
  if (bn->shape != Shape{L}) {
    throw std::invalid_argument("bias_gelu: bias must have shape [" +
                                std::to_string(L) + "]");
  }
  const size_t n = an->value.size();
  std::vector<float> out = alloc_out(n);
  kern::bias_gelu_rows(an->value.data(), bn->value.data(), out.data(), n, L);
  Tensor r = make_op_result(
      an->shape, std::move(out), {an, bn}, [an, bn, L](Node& self) {
        const bool ga = an->requires_grad;
        const bool gb = bn->requires_grad;
        if (ga) an->ensure_grad();
        if (gb) bn->ensure_grad();
        const size_t total = self.value.size();
        // Recompute the pre-activation (float add is deterministic, so it
        // matches the forward's bits) instead of stashing it, and stage the
        // shared d-term in a fresh scratch row so the gelu_dfn polynomial
        // runs in a single-store loop the compiler vectorizes; the pooled
        // scratch cannot alias any node buffer. The accumulation passes then
        // deliver contributions in the same flat ascending order as before.
        std::vector<float> dv = BufferPool::acquire(total);
        float* __restrict d = dv.data();
        const float* __restrict px = an->value.data();
        const float* __restrict pg = self.grad.data();
        for (size_t i0 = 0; i0 < total; i0 += L) {
          const float* pb = bn->value.data();
          for (size_t j = 0; j < L; ++j) {
            const float u = px[i0 + j] + pb[j];
            d[i0 + j] = pg[i0 + j] * gelu_dfn(u);
          }
        }
        if (ga) {
          float* __restrict dx = an->grad.data();
          for (size_t i = 0; i < total; ++i) dx[i] += d[i] * 1.0F;
        }
        if (gb) {
          float* __restrict db = bn->grad.data();
          for (size_t i0 = 0; i0 < total; i0 += L) {
            for (size_t j = 0; j < L; ++j) db[j] += d[i0 + j] * 1.0F;
          }
        }
        BufferPool::release(std::move(dv));
      });
  plan::trace_bias_gelu(r, x, b);
  return r;
}

Tensor sum(const Tensor& a) {
  auto an = a.node();
  float s = 0.0F;
  for (float v : an->value) s += v;
  std::vector<float> out = alloc_out(1);
  out[0] = s;
  Tensor r = make_op_result({}, std::move(out), {an}, [an](Node& self) {
    if (!an->requires_grad) return;
    an->ensure_grad();
    const float g = self.grad[0];
    for (auto& dv : an->grad) dv += g;
  });
  plan::trace_reduce_all(false, r, a);
  return r;
}

Tensor mean(const Tensor& a) {
  // Direct scaled reduction — no div(sum(a), scalar) subgraph. The value
  // (s / n) and the backward contribution (g * (1/n)) reproduce the exact
  // float ops of the old composition, so results are bitwise unchanged.
  auto an = a.node();
  const float n = static_cast<float>(an->value.size());
  float s = 0.0F;
  for (float v : an->value) s += v;
  std::vector<float> out = alloc_out(1);
  out[0] = s / n;
  Tensor r = make_op_result({}, std::move(out), {an}, [an, n](Node& self) {
    if (!an->requires_grad) return;
    an->ensure_grad();
    const float g = self.grad[0] * (1.0F / n);
    for (auto& dv : an->grad) dv += g;
  });
  plan::trace_reduce_all(true, r, a);
  return r;
}

Tensor sum_axis(const Tensor& a, size_t axis, bool keepdim) {
  auto an = a.node();
  const Shape& s = an->shape;
  if (axis >= s.size()) throw std::invalid_argument("sum_axis: bad axis");
  size_t outer = 1;
  size_t inner = 1;
  for (size_t d = 0; d < axis; ++d) outer *= s[d];
  for (size_t d = axis + 1; d < s.size(); ++d) inner *= s[d];
  const size_t ax = s[axis];
  Shape out_shape;
  for (size_t d = 0; d < s.size(); ++d) {
    if (d == axis) {
      if (keepdim) out_shape.push_back(1);
    } else {
      out_shape.push_back(s[d]);
    }
  }
  std::vector<float> out = alloc_out_zero(outer * inner);
  for (size_t o = 0; o < outer; ++o) {
    for (size_t x = 0; x < ax; ++x) {
      const float* src = an->value.data() + (o * ax + x) * inner;
      float* dst = out.data() + o * inner;
      for (size_t i = 0; i < inner; ++i) dst[i] += src[i];
    }
  }
  Tensor r = make_op_result(std::move(out_shape), std::move(out), {an},
                            [an, outer, inner, ax](Node& self) {
                              if (!an->requires_grad) return;
                              an->ensure_grad();
                              for (size_t o = 0; o < outer; ++o) {
                                const float* g = self.grad.data() + o * inner;
                                for (size_t x = 0; x < ax; ++x) {
                                  float* dst =
                                      an->grad.data() + (o * ax + x) * inner;
                                  for (size_t i = 0; i < inner; ++i) {
                                    dst[i] += g[i];
                                  }
                                }
                              }
                            });
  plan::trace_reduce_axis(false, r, a, axis, keepdim);
  return r;
}

Tensor mean_axis(const Tensor& a, size_t axis, bool keepdim) {
  // Direct scaled sum_axis (same bitwise argument as mean()).
  auto an = a.node();
  const Shape& s = an->shape;
  if (axis >= s.size()) throw std::invalid_argument("mean_axis: bad axis");
  size_t outer = 1;
  size_t inner = 1;
  for (size_t d = 0; d < axis; ++d) outer *= s[d];
  for (size_t d = axis + 1; d < s.size(); ++d) inner *= s[d];
  const size_t ax = s[axis];
  const float nax = static_cast<float>(ax);
  Shape out_shape;
  for (size_t d = 0; d < s.size(); ++d) {
    if (d == axis) {
      if (keepdim) out_shape.push_back(1);
    } else {
      out_shape.push_back(s[d]);
    }
  }
  std::vector<float> out = alloc_out_zero(outer * inner);
  for (size_t o = 0; o < outer; ++o) {
    for (size_t x = 0; x < ax; ++x) {
      const float* src = an->value.data() + (o * ax + x) * inner;
      float* dst = out.data() + o * inner;
      for (size_t i = 0; i < inner; ++i) dst[i] += src[i];
    }
  }
  for (auto& v : out) v /= nax;
  Tensor r = make_op_result(std::move(out_shape), std::move(out), {an},
                            [an, outer, inner, ax, nax](Node& self) {
                              if (!an->requires_grad) return;
                              an->ensure_grad();
                              const float inv = 1.0F / nax;
                              for (size_t o = 0; o < outer; ++o) {
                                const float* g = self.grad.data() + o * inner;
                                for (size_t x = 0; x < ax; ++x) {
                                  float* dst =
                                      an->grad.data() + (o * ax + x) * inner;
                                  for (size_t i = 0; i < inner; ++i) {
                                    dst[i] += g[i] * inv;
                                  }
                                }
                              }
                            });
  plan::trace_reduce_axis(true, r, a, axis, keepdim);
  return r;
}

Tensor reshape(const Tensor& a, Shape shape) {
  auto an = a.node();
  if (numel(shape) != an->value.size()) {
    throw std::invalid_argument("reshape: numel mismatch " +
                                shape_str(an->shape) + " -> " +
                                shape_str(shape));
  }
  std::vector<float> out = alloc_out(an->value.size());
  std::copy(an->value.begin(), an->value.end(), out.begin());
  Tensor r = make_op_result(std::move(shape), std::move(out), {an},
                            [an](Node& self) {
                              if (!an->requires_grad) return;
                              an->ensure_grad();
                              for (size_t i = 0; i < self.grad.size(); ++i) {
                                an->grad[i] += self.grad[i];
                              }
                            });
  plan::trace_reshape(r, a);
  return r;
}

Tensor reshape(Tensor&& a, Shape shape) {
  // Alias-style reshape for sole-owner temporaries in no-grad mode: steal the
  // value buffer instead of copying it. Only the rvalue handle references the
  // node (use_count == 1) and no graph edge will point at it, so emptying it
  // is unobservable. Disabled while tracing: the trace must see distinct,
  // live nodes on both sides of every reshape.
  const auto& an = a.node();
  if (an && !GradMode::enabled() && !plan::tracing() && an.use_count() == 1 &&
      numel(shape) == an->value.size()) {
    return detail::make_inference_result(std::move(shape),
                                         std::move(an->value));
  }
  return reshape(static_cast<const Tensor&>(a), std::move(shape));
}

Tensor permute(const Tensor& a, const std::vector<size_t>& perm) {
  auto an = a.node();
  const Shape& s = an->shape;
  if (perm.size() != s.size()) {
    throw std::invalid_argument("permute: perm rank mismatch");
  }
  Shape out_shape(s.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    if (perm[i] >= s.size()) throw std::invalid_argument("permute: bad index");
    out_shape[i] = s[perm[i]];
  }
  const auto in_strides = row_major_strides(s);
  const size_t n = an->value.size();
  // Gather with an incrementally-maintained source offset — no O(n) src_of
  // table in either mode. When the innermost dim stays innermost (every
  // permute the attention head split/merge does), copy whole contiguous runs
  // instead of single elements. The backward walks the identical index
  // sequence, so grads scatter in exactly the ascending-output order the old
  // table-based closure used.
  const bool last_fixed =
      !perm.empty() && perm.back() == s.size() - 1 && s.back() > 1;
  const size_t run = last_fixed ? s.back() : 1;
  const size_t outer_rank =
      last_fixed ? out_shape.size() - 1 : out_shape.size();
  // Source stride of each outer output dim; parked in the closure (pooled).
  std::vector<size_t> ostr = BufferPool::acquire_idx(outer_rank);
  for (size_t d = 0; d < outer_rank; ++d) ostr[d] = in_strides[perm[d]];
  std::vector<float> out = alloc_out(n);
  {
    std::vector<size_t> idx = BufferPool::acquire_idx(outer_rank);
    std::fill(idx.begin(), idx.end(), 0);
    size_t off = 0;
    const float* __restrict src = an->value.data();
    float* __restrict dst = out.data();
    for (size_t i = 0; i < n; i += run) {
      for (size_t j = 0; j < run; ++j) dst[i + j] = src[off + j];
      for (size_t d = outer_rank; d-- > 0;) {
        ++idx[d];
        off += ostr[d];
        if (idx[d] < out_shape[d]) break;
        off -= out_shape[d] * ostr[d];
        idx[d] = 0;
      }
    }
    BufferPool::release_idx(std::move(idx));
  }
  Tensor r = make_op_result(
      std::move(out_shape), std::move(out), {an},
      [an, run, outer_rank, ostr = PooledIdx(std::move(ostr))](Node& self) {
        if (!an->requires_grad) return;
        an->ensure_grad();
        std::vector<size_t> idx = BufferPool::acquire_idx(outer_rank);
        std::fill(idx.begin(), idx.end(), 0);
        size_t off = 0;
        const size_t n2 = self.grad.size();
        for (size_t i = 0; i < n2; i += run) {
          for (size_t j = 0; j < run; ++j) {
            an->grad[off + j] += self.grad[i + j];
          }
          for (size_t d = outer_rank; d-- > 0;) {
            ++idx[d];
            off += ostr[d];
            if (idx[d] < self.shape[d]) break;
            off -= self.shape[d] * ostr[d];
            idx[d] = 0;
          }
        }
        BufferPool::release_idx(std::move(idx));
      });
  plan::trace_permute(r, a, perm);
  return r;
}

Tensor transpose_last(const Tensor& a) {
  const size_t r = a.rank();
  if (r < 2) throw std::invalid_argument("transpose_last: rank must be >= 2");
  std::vector<size_t> perm(r);
  for (size_t i = 0; i < r; ++i) perm[i] = i;
  std::swap(perm[r - 1], perm[r - 2]);
  return permute(a, perm);
}

Tensor concat_rows(const std::vector<Tensor>& parts) {
  if (parts.empty()) throw std::invalid_argument("concat_rows: empty input");
  const Shape& first = parts[0].shape();
  if (first.empty()) throw std::invalid_argument("concat_rows: rank >= 1");
  Shape out_shape = first;
  size_t rows = 0;
  size_t row_elems = numel(first) / first[0];
  NodeList parents;
  for (const auto& p : parts) {
    const Shape& s = p.shape();
    if (s.size() != first.size() || numel(s) / s[0] != row_elems) {
      throw std::invalid_argument("concat_rows: trailing shape mismatch");
    }
    rows += s[0];
    parents.push_back(p.node());
  }
  out_shape[0] = rows;
  // Multi-parent concatenation has no plan instruction; a trace crossing it
  // falls back to eager permanently.
  plan::trace_unplannable("concat_rows");
  std::vector<float> out = alloc_out(rows * row_elems);
  size_t woff = 0;
  for (const auto& p : parents) {
    std::copy(p->value.begin(), p->value.end(), out.begin() + woff);
    woff += p->value.size();
  }
  return make_op_result(std::move(out_shape), std::move(out), parents,
                        [parents](Node& self) {
                          size_t off = 0;
                          for (const auto& p : parents) {
                            if (p->requires_grad) {
                              p->ensure_grad();
                              for (size_t i = 0; i < p->value.size(); ++i) {
                                p->grad[i] += self.grad[off + i];
                              }
                            }
                            off += p->value.size();
                          }
                        });
}

Tensor mse_loss(const Tensor& pred, const Tensor& target) {
  if (pred.shape() != target.shape()) {
    throw std::invalid_argument("mse_loss: shape mismatch " +
                                shape_str(pred.shape()) + " vs " +
                                shape_str(target.shape()));
  }
  return mean(square(sub(pred, target)));
}

Tensor l1_loss(const Tensor& pred, const Tensor& target) {
  if (pred.shape() != target.shape()) {
    throw std::invalid_argument("l1_loss: shape mismatch");
  }
  Tensor d = sub(pred, target);
  Tensor absd = unary(d, [](float x) { return std::fabs(x); },
                      [](float x, float) { return x >= 0.0F ? 1.0F : -1.0F; });
  plan::trace_unary(plan::UnFn::kAbs, absd, d);
  return mean(absd);
}

Tensor dropout(const Tensor& a, float p, Rng& rng, bool train) {
  if (p < 0.0F || p >= 1.0F) {
    throw std::invalid_argument("dropout: p must be in [0, 1)");
  }
  if (!train || p == 0.0F) return a;  // identity: invisible to a trace
  // An active dropout draws fresh randomness per call — not replayable from
  // a static schedule.
  plan::trace_unplannable("dropout");
  auto an = a.node();
  const float scale = 1.0F / (1.0F - p);
  std::vector<float> mask = alloc_out(an->value.size());
  for (auto& m : mask) m = rng.uniform() < p ? 0.0F : scale;
  std::vector<float> out = alloc_out(an->value.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = an->value[i] * mask[i];
  return make_op_result(an->shape, std::move(out), {an},
                        [an, mask = PooledVec(std::move(mask))](Node& self) {
                          if (!an->requires_grad) return;
                          an->ensure_grad();
                          for (size_t i = 0; i < self.grad.size(); ++i) {
                            an->grad[i] += self.grad[i] * mask[i];
                          }
                        });
}

}  // namespace metadse::tensor
