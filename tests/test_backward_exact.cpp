// Bit-exact checks of the eager backward kernels against naive references.
//
// The backward GEMMs (matmul / matmul_nt, dA and dB) run register tiles whose
// shape differs from the plain triple loop, and binary_bcast's backward runs
// one loop per operand. Both promise that every gradient element keeps its
// exact accumulation chain: start from the grad already stored, then one
// rounded mul and one rounded add per term (no FMA, -ffp-contract=off), terms
// in ascending reduction order, broadcast batches in bi-major order. The
// references below spell that chain out as the obvious scalar loop and the
// tests compare bit for bit — a kernel that is deterministic but reorders a
// chain, drops a remainder row or drops a remainder column fails here, which
// a thread-count invariance check cannot see.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tensor/ops.hpp"

namespace mt = metadse::tensor;

namespace {

/// Per-batch matrix offsets of a broadcast batched matmul, in the row-major
/// order of the broadcast batch shape (the order the kernels walk batches).
struct BatchMap {
  std::vector<size_t> a, b;
};

BatchMap batch_map(const mt::Shape& sa, const mt::Shape& sb, size_t a_mat,
                   size_t b_mat) {
  const mt::Shape ab(sa.begin(), sa.end() - 2);
  const mt::Shape bb(sb.begin(), sb.end() - 2);
  const size_t rank = std::max(ab.size(), bb.size());
  // Left-pad both batch shapes with 1s to the common rank.
  mt::Shape pa(rank - ab.size(), 1);
  pa.insert(pa.end(), ab.begin(), ab.end());
  mt::Shape pb(rank - bb.size(), 1);
  pb.insert(pb.end(), bb.begin(), bb.end());
  mt::Shape out(rank);
  for (size_t d = 0; d < rank; ++d) out[d] = std::max(pa[d], pb[d]);
  BatchMap map;
  std::vector<size_t> idx(rank, 0);
  for (size_t i = 0; i < mt::numel(out); ++i) {
    size_t oa = 0;
    size_t ob = 0;
    for (size_t d = 0; d < rank; ++d) {
      oa = oa * pa[d] + (pa[d] == 1 ? 0 : idx[d]);
      ob = ob * pb[d] + (pb[d] == 1 ? 0 : idx[d]);
    }
    map.a.push_back(oa * a_mat);
    map.b.push_back(ob * b_mat);
    for (size_t d = rank; d-- > 0;) {
      if (++idx[d] < out[d]) break;
      idx[d] = 0;
    }
  }
  return map;
}

/// The exact chain every gradient element must follow: acc starts at the
/// stored grad, then acc = acc + x * y per term, terms in ascending order.
/// The build compiles with -ffp-contract=off, so this is one rounded mul and
/// one rounded add.
inline float mac(float acc, float x, float y) {
  const float p = x * y;
  return acc + p;
}

struct GemmGrads {
  std::vector<float> da, db;
};

/// Naive dA/dB of out = a·b (nt = false) or out = a·b^T (nt = true) given
/// the output gradient @p go, accumulated onto @p da0 / @p db0.
GemmGrads naive_gemm_backward(bool nt, const mt::Shape& sa,
                              const mt::Shape& sb,
                              const std::vector<float>& a,
                              const std::vector<float>& b,
                              const std::vector<float>& go,
                              std::vector<float> da0, std::vector<float> db0) {
  const size_t M = sa[sa.size() - 2];
  const size_t K = sa.back();
  const size_t N = nt ? sb[sb.size() - 2] : sb.back();
  const BatchMap map = batch_map(sa, sb, M * K, K * N);
  for (size_t bi = 0; bi < map.a.size(); ++bi) {
    const float* pa = a.data() + map.a[bi];
    const float* pb = b.data() + map.b[bi];
    const float* g = go.data() + bi * M * N;
    float* pda = da0.data() + map.a[bi];
    float* pdb = db0.data() + map.b[bi];
    // B element (k, n) of the logical K x N operand.
    const auto bval = [&](size_t k, size_t n) {
      return nt ? pb[n * K + k] : pb[k * N + n];
    };
    for (size_t m = 0; m < M; ++m) {
      for (size_t k = 0; k < K; ++k) {
        float acc = pda[m * K + k];
        for (size_t n = 0; n < N; ++n) acc = mac(acc, g[m * N + n], bval(k, n));
        pda[m * K + k] = acc;
      }
    }
    for (size_t k = 0; k < K; ++k) {
      for (size_t n = 0; n < N; ++n) {
        float& slot = nt ? pdb[n * K + k] : pdb[k * N + n];
        float acc = slot;
        for (size_t m = 0; m < M; ++m) {
          acc = mac(acc, pa[m * K + k], g[m * N + n]);
        }
        slot = acc;
      }
    }
  }
  return {std::move(da0), std::move(db0)};
}

void expect_bitwise(const std::vector<float>& got,
                    const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " element " << i;
  }
}

/// Runs loss = sum(matmul(a, b) * w) twice (fresh weights w each pass) so
/// the second backward accumulates onto the first pass's grads, and checks
/// both passes against the naive chain. d loss / d out is exactly w.
void check_gemm_backward(bool nt, const mt::Shape& sa, const mt::Shape& sb,
                         uint64_t seed) {
  const std::string what = std::string(nt ? "matmul_nt " : "matmul ") +
                           mt::shape_str(sa) + "x" + mt::shape_str(sb);
  mt::Rng rng(seed);
  auto a = mt::Tensor::randn(sa, rng, 1.0F, /*requires_grad=*/true);
  auto b = mt::Tensor::randn(sb, rng, 1.0F, /*requires_grad=*/true);
  std::vector<float> da(a.size(), 0.0F);
  std::vector<float> db(b.size(), 0.0F);
  for (int pass = 0; pass < 2; ++pass) {
    auto out = nt ? mt::matmul_nt(a, b) : mt::matmul(a, b);
    auto w = mt::Tensor::randn(out.shape(), rng);
    mt::sum(mt::mul(out, w)).backward();
    auto ref = naive_gemm_backward(nt, sa, sb, a.data(), b.data(), w.data(),
                                   std::move(da), std::move(db));
    const std::string tag = what + " pass " + std::to_string(pass);
    expect_bitwise(a.grad(), ref.da, tag + " dA");
    expect_bitwise(b.grad(), ref.db, tag + " dB");
    da = std::move(ref.da);
    db = std::move(ref.db);
  }
}

/// Shapes that hit every tile boundary: row counts off the tile height,
/// reduction lengths around the K tile, batched and broadcast batches, and
/// the meta-trainer's two hot shapes.
std::vector<std::pair<mt::Shape, mt::Shape>> fixed_shapes(bool nt) {
  // For matmul_nt the second operand is given as [.., N, K].
  const auto B = [nt](mt::Shape batch, size_t k, size_t n) {
    if (nt) std::swap(k, n);
    batch.push_back(k);
    batch.push_back(n);
    return batch;
  };
  return {
      {{1, 1}, B({}, 1, 1)},
      {{7, 5}, B({}, 5, 3)},
      {{9, 16}, B({}, 16, 16)},
      {{17, 33}, B({}, 33, 47)},
      {{8, 130}, B({}, 130, 24)},     // reduction spans several K tiles
      {{0, 4}, B({}, 4, 3)},          // no rows
      {{5, 0}, B({}, 0, 2)},          // empty reduction
      {{2, 11, 20}, B({2}, 20, 18)},  // batched
      {{11, 20}, B({3}, 20, 18)},     // a broadcast over b's batch
      {{3, 11, 20}, B({}, 20, 18)},   // b broadcast over a's batch
      {{2, 1, 9, 17}, B({1, 3}, 17, 21)},  // both broadcast
      {{45, 24, 32}, B({}, 32, 64)},        // trainer: Linear d_model->d_ff
      {{180, 24, 24}, B({180}, 24, 8)},     // trainer: attention probs·V
  };
}

TEST(BackwardGemm, MatmulMatchesNaiveChainBitwise) {
  uint64_t seed = 100;
  for (const auto& [sa, sb] : fixed_shapes(false)) {
    check_gemm_backward(false, sa, sb, seed++);
  }
}

TEST(BackwardGemm, MatmulNtMatchesNaiveChainBitwise) {
  uint64_t seed = 200;
  for (const auto& [sa, sb] : fixed_shapes(true)) {
    check_gemm_backward(true, sa, sb, seed++);
  }
}

TEST(BackwardGemm, EveryWidthFromOneToSeventy) {
  // 13 rows = one 8-row tile plus a 5-row remainder; dA has width w, dB
  // has w rows and width w + 3, so widths 1..73 and row counts 1..70 all
  // occur, each on both sides of every 16-column tile boundary.
  for (size_t w = 1; w <= 70; ++w) {
    check_gemm_backward(false, {13, w}, {w, w + 3}, 300 + w);
    check_gemm_backward(true, {13, w}, {w + 3, w}, 400 + w);
  }
}

// -- binary_bcast backward ---------------------------------------------------

enum class Bin { kAdd, kSub, kMul, kDiv };

mt::Tensor apply(Bin op, const mt::Tensor& a, const mt::Tensor& b) {
  switch (op) {
    case Bin::kAdd: return mt::add(a, b);
    case Bin::kSub: return mt::sub(a, b);
    case Bin::kMul: return mt::mul(a, b);
    case Bin::kDiv: return mt::div(a, b);
  }
  return {};
}

/// d out / d a and d out / d b, written as the ops define them.
float dfa(Bin op, float, float y) {
  switch (op) {
    case Bin::kAdd:
    case Bin::kSub: return 1.0F;
    case Bin::kMul: return y;
    case Bin::kDiv: return 1.0F / y;
  }
  return 0.0F;
}

float dfb(Bin op, float x, float y) {
  switch (op) {
    case Bin::kAdd: return 1.0F;
    case Bin::kSub: return -1.0F;
    case Bin::kMul: return x;
    case Bin::kDiv: return -x / (y * y);
  }
  return 0.0F;
}

/// Offset into an operand of shape @p s for output index @p i of shape
/// @p out under numpy broadcasting.
size_t bcast_offset(const mt::Shape& s, const mt::Shape& out, size_t i) {
  size_t off = 0;
  size_t stride = 1;
  size_t rem = i;
  for (size_t d = out.size(); d-- > 0;) {
    const size_t coord = rem % out[d];
    rem /= out[d];
    const size_t sd = d + s.size() >= out.size() ? d + s.size() - out.size()
                                                 : SIZE_MAX;
    if (sd == SIZE_MAX) continue;
    if (s[sd] != 1) off += coord * stride;
    stride *= s[sd];
  }
  return off;
}

const char* name(Bin op) {
  switch (op) {
    case Bin::kAdd: return "add";
    case Bin::kSub: return "sub";
    case Bin::kMul: return "mul";
    case Bin::kDiv: return "div";
  }
  return "?";
}

/// Two backward passes of sum(op(a, b) * w) against the naive chain: each
/// operand element starts from its stored grad and adds go * df in
/// ascending output order. @p ga / @p gb pick which operands require grad.
void check_bcast_backward(Bin op, const mt::Shape& sa, const mt::Shape& sb,
                          bool ga, bool gb, uint64_t seed) {
  const std::string what = std::string(name(op)) + " " + mt::shape_str(sa) +
                           " " + mt::shape_str(sb) + " ga=" +
                           std::to_string(ga) + " gb=" + std::to_string(gb);
  mt::Rng rng(seed);
  // Keep divisors away from zero so div's gradients stay finite.
  auto a = mt::Tensor::uniform(sa, rng, 0.5F, 2.0F, ga);
  auto b = mt::Tensor::uniform(sb, rng, 0.5F, 2.0F, gb);
  std::vector<float> ref_a(a.size(), 0.0F);
  std::vector<float> ref_b(b.size(), 0.0F);
  for (int pass = 0; pass < 2; ++pass) {
    auto out = apply(op, a, b);
    auto w = mt::Tensor::randn(out.shape(), rng, 1.0F, /*requires_grad=*/true);
    mt::sum(mt::mul(out, w)).backward();
    const auto& av = a.data();
    const auto& bv = b.data();
    const auto& go = w.data();
    for (size_t i = 0; i < out.size(); ++i) {
      const size_t ia = bcast_offset(sa, out.shape(), i);
      const size_t ib = bcast_offset(sb, out.shape(), i);
      if (ga) ref_a[ia] += go[i] * dfa(op, av[ia], bv[ib]);
    }
    for (size_t i = 0; i < out.size(); ++i) {
      const size_t ia = bcast_offset(sa, out.shape(), i);
      const size_t ib = bcast_offset(sb, out.shape(), i);
      if (gb) ref_b[ib] += go[i] * dfb(op, av[ia], bv[ib]);
    }
    // An operand that does not require grad keeps an all-zero grad.
    const std::string tag = what + " pass " + std::to_string(pass);
    expect_bitwise(a.grad(), ref_a, tag + " dA");
    expect_bitwise(b.grad(), ref_b, tag + " dB");
  }
}

std::vector<std::pair<mt::Shape, mt::Shape>> bcast_shapes() {
  return {
      {{3, 37}, {3, 37}},        // same shape
      {{4, 5, 19}, {19}},        // b a suffix of a, L > 1
      {{4, 5, 19}, {5, 19}},     // b a two-dim suffix of a
      {{6, 13}, {}},             // b a scalar suffix, L = 1
      {{6, 1}, {1}},             // b a one-element suffix, L = 1
      {{19}, {4, 5, 19}},        // mirror: a a suffix of b, L > 1
      {{}, {6, 13}},             // mirror, L = 1
      {{3, 1, 7}, {1, 4, 7}},    // general broadcast walk
      {{6, 13}, {1}},            // general walk with one broadcast element
  };
}

TEST(BackwardBcast, EveryPathAndGradComboMatchesNaiveChainBitwise) {
  uint64_t seed = 500;
  for (Bin op : {Bin::kAdd, Bin::kSub, Bin::kMul, Bin::kDiv}) {
    for (const auto& [sa, sb] : bcast_shapes()) {
      for (int mask = 0; mask < 4; ++mask) {
        check_bcast_backward(op, sa, sb, (mask & 1) != 0, (mask & 2) != 0,
                             seed++);
      }
    }
  }
}

TEST(BackwardBcast, SquareThroughMulSharesOneGradBuffer) {
  // mul(x, x): both operands are the same node, so the a-term and the
  // b-term of each element are added, one after the other, to one grad
  // buffer.
  mt::Rng rng(600);
  auto x = mt::Tensor::randn({5, 29}, rng, 1.0F, /*requires_grad=*/true);
  std::vector<float> ref(x.size(), 0.0F);
  for (int pass = 0; pass < 2; ++pass) {
    auto w = mt::Tensor::randn({5, 29}, rng);
    mt::sum(mt::mul(mt::mul(x, x), w)).backward();
    const auto& xv = x.data();
    const auto& go = w.data();
    for (size_t i = 0; i < ref.size(); ++i) {
      ref[i] += go[i] * xv[i];
      ref[i] += go[i] * xv[i];
    }
    expect_bitwise(x.grad(), ref, "mul(x, x) pass " + std::to_string(pass));
  }
}

}  // namespace
