// The inference fast path's contract: disabling grad mode changes
// bookkeeping, never arithmetic. Forward values must be bitwise identical to
// grad-mode forwards (transformer, attention with the WAM mask installed,
// ensembles), batched evaluation must be bitwise identical to the per-point
// loop (predict_batch, explorer), for any thread count — and the structural
// shortcuts (matmul_nt, direct mean, buffer-stealing reshape, the buffer
// pool) must preserve values and gradients.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "arch/design_space.hpp"
#include "core/parallel.hpp"
#include "explore/explorer.hpp"
#include "meta/ensemble_adapt.hpp"
#include "nn/plan.hpp"
#include "nn/transformer.hpp"
#include "tensor/gradcheck.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/pool.hpp"

namespace t = metadse::tensor;
namespace nn = metadse::nn;
namespace arch = metadse::arch;
namespace explore = metadse::explore;
namespace meta = metadse::meta;

namespace {

const std::vector<size_t> kThreadSweep = {1, 8};

struct ThreadGuard {
  ~ThreadGuard() { metadse::set_threads(1); }
};

nn::TransformerConfig small_cfg() {
  return {.n_tokens = 24, .d_model = 32, .n_heads = 4,
          .n_layers = 2, .d_ff = 64, .n_outputs = 1};
}

t::Tensor random_input(size_t batch, size_t n_tokens, uint64_t seed) {
  t::Rng rng(seed);
  return t::Tensor::uniform({batch, n_tokens}, rng, 0.0F, 1.0F);
}

// -- grad-vs-no-grad bitwise identity ----------------------------------------

TEST(NoGradEquivalence, TransformerForwardBitwiseAcrossThreads) {
  ThreadGuard guard;
  t::Rng rng(17);
  nn::TransformerRegressor model(small_cfg(), rng);
  auto x = random_input(5, 24, 3);
  for (size_t threads : kThreadSweep) {
    metadse::set_threads(threads);
    t::Rng fwd_a(0);
    auto with_grad = model.forward(x, fwd_a);
    ASSERT_TRUE(with_grad.requires_grad());
    std::vector<float> no_grad_vals;
    {
      t::NoGradGuard no_grad;
      t::Rng fwd_b(0);
      auto y = model.forward(x, fwd_b);
      EXPECT_FALSE(y.requires_grad());
      EXPECT_TRUE(y.node()->parents.empty());
      no_grad_vals = y.data();
    }
    EXPECT_EQ(with_grad.data(), no_grad_vals) << "threads=" << threads;
  }
}

TEST(NoGradEquivalence, AttentionWithWamMaskBitwiseAcrossThreads) {
  ThreadGuard guard;
  t::Rng rng(23);
  nn::TransformerRegressor model(small_cfg(), rng);
  auto mask = t::Tensor::uniform({24, 24}, rng, 0.0F, 1.0F);
  model.install_mask_all_layers(mask);
  auto x = random_input(3, 24, 7);
  for (size_t threads : kThreadSweep) {
    metadse::set_threads(threads);
    t::Rng fwd_a(0);
    auto with_grad = model.forward(x, fwd_a);
    std::vector<float> no_grad_vals;
    {
      t::NoGradGuard no_grad;
      t::Rng fwd_b(0);
      no_grad_vals = model.forward(x, fwd_b).data();
    }
    EXPECT_EQ(with_grad.data(), no_grad_vals) << "threads=" << threads;
  }
}

// The no-grad layer norm runs rows as lanes in blocks of 16; the grad path
// keeps the one-row kernel (it also stashes the normalized rows). Row counts
// around the block size leave partial blocks, and widths past 32 take the
// chunked transpose.
TEST(NoGradEquivalence, LayerNormRowsMatchRowKernelBitwise) {
  t::Rng rng(31);
  for (size_t rows : {1UL, 5UL, 15UL, 16UL, 17UL, 40UL}) {
    for (size_t width : {1UL, 7UL, 32UL, 33UL, 70UL}) {
      std::vector<float> x(rows * width);
      std::vector<float> gamma(width);
      std::vector<float> beta(width);
      for (float& v : x) v = rng.uniform(-3.0F, 3.0F);
      for (float& v : gamma) v = rng.uniform(0.5F, 1.5F);
      for (float& v : beta) v = rng.uniform(-0.5F, 0.5F);
      std::vector<float> want(rows * width);
      std::vector<float> normed(width);
      for (size_t r = 0; r < rows; ++r) {
        t::kern::layer_norm_affine_row(x.data() + r * width, gamma.data(),
                                       beta.data(), want.data() + r * width,
                                       normed.data(), width, 1e-5F);
      }
      std::vector<float> got(rows * width, -1.0F);
      t::kern::layer_norm_affine_rows(x.data(), gamma.data(), beta.data(),
                                      got.data(), rows, width, 1e-5F);
      EXPECT_EQ(want, got) << "rows=" << rows << " width=" << width;
    }
  }
}

TEST(NoGradEquivalence, PredictBatchMatchesPredictOneBitwise) {
  ThreadGuard guard;
  t::Rng rng(29);
  nn::TransformerRegressor model(small_cfg(), rng);
  std::vector<std::vector<float>> rows;
  for (size_t i = 0; i < 9; ++i) {
    std::vector<float> r(24);
    for (auto& v : r) v = rng.uniform();
    rows.push_back(std::move(r));
  }
  for (size_t threads : kThreadSweep) {
    metadse::set_threads(threads);
    const auto batched = model.predict_batch(rows);
    ASSERT_EQ(batched.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(batched[i], model.predict_one(rows[i]))
          << "row " << i << " threads=" << threads;
    }
  }
}

TEST(NoGradEquivalence, EnsemblePredictBatchBitwiseAcrossThreads) {
  ThreadGuard guard;
  t::Rng rng(31);
  nn::TransformerRegressor pretrained(small_cfg(), rng);
  auto sx = t::Tensor::uniform({8, 24}, rng, 0.0F, 1.0F);
  auto sy = t::Tensor::uniform({8, 1}, rng, -1.0F, 1.0F);
  meta::EnsembleAdaptOptions opts;
  opts.n_members = 3;
  opts.adapt.steps = 2;
  opts.adapt.use_wam = false;
  const auto ens =
      meta::AdaptedEnsemble::create(pretrained, t::Tensor(), sx, sy, opts);

  std::vector<std::vector<float>> rows;
  for (size_t i = 0; i < 6; ++i) {
    std::vector<float> r(24);
    for (auto& v : r) v = rng.uniform();
    rows.push_back(std::move(r));
  }
  for (size_t threads : kThreadSweep) {
    metadse::set_threads(threads);
    const auto batched = ens.predict_batch(rows);
    ASSERT_EQ(batched.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      const auto one = ens.predict(rows[i]);
      EXPECT_EQ(batched[i].mean, one.mean) << "row " << i;
      EXPECT_EQ(batched[i].stddev, one.stddev) << "row " << i;
    }
  }
}

// -- batched explorer == per-point loop --------------------------------------

TEST(NoGradEquivalence, ExplorerBatchedVsScalarIdenticalAcrossThreads) {
  ThreadGuard guard;
  const auto& space = arch::DesignSpace::table1();
  t::Rng rng(37);
  nn::TransformerRegressor model(small_cfg(), rng);

  auto power_of = [](const arch::Config& c) {
    double p = 1.0;
    for (size_t v : c) p += static_cast<double>(v);
    return p;
  };
  explore::Evaluator scalar_eval = [&](const arch::Config& c) {
    const float ipc = model.predict_one(space.normalize(c)).front();
    return explore::Objective{static_cast<double>(ipc), power_of(c)};
  };
  explore::BatchEvaluator batch_eval =
      [&](const std::vector<arch::Config>& batch) {
        std::vector<std::vector<float>> feats;
        feats.reserve(batch.size());
        for (const auto& c : batch) feats.push_back(space.normalize(c));
        const auto preds = model.predict_batch(feats);
        std::vector<explore::Objective> objs;
        objs.reserve(batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          objs.push_back({static_cast<double>(preds[i].front()),
                          power_of(batch[i])});
        }
        return objs;
      };

  auto expect_same = [](const explore::ParetoArchive& a,
                        const explore::ParetoArchive& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.entries()[i].config, b.entries()[i].config) << "entry " << i;
      EXPECT_EQ(a.entries()[i].objective.ipc, b.entries()[i].objective.ipc);
      EXPECT_EQ(a.entries()[i].objective.power,
                b.entries()[i].objective.power);
    }
  };

  for (size_t threads : kThreadSweep) {
    metadse::set_threads(threads);
    explore::ExplorerOptions opts{.initial_samples = 16, .iterations = 32,
                                  .seed = 5, .eval_batch = 4};
    explore::EvolutionaryExplorer explorer(opts);
    const auto scalar_front = explorer.explore(space, scalar_eval);
    const auto batch_front = explorer.explore(space, batch_eval);
    expect_same(scalar_front, batch_front);

    t::Rng rs_a(9);
    t::Rng rs_b(9);
    const auto rs_scalar = explore::random_search(space, scalar_eval, 40, rs_a);
    const auto rs_batch =
        explore::random_search(space, batch_eval, 40, rs_b, 6);
    expect_same(rs_scalar, rs_batch);
  }
}

// -- structural shortcuts ----------------------------------------------------

TEST(NoGradEquivalence, MatmulNtMatchesMatmulTransposeBitwise) {
  ThreadGuard guard;
  for (size_t threads : kThreadSweep) {
    metadse::set_threads(threads);
    t::Rng rng(41);
    auto a = t::Tensor::uniform({2, 3, 5, 4}, rng, -1.0F, 1.0F, true);
    auto b = t::Tensor::uniform({2, 3, 6, 4}, rng, -1.0F, 1.0F, true);
    auto a2 = t::Tensor::from_vector(a.shape(), a.data(), true);
    auto b2 = t::Tensor::from_vector(b.shape(), b.data(), true);

    auto nt = t::matmul_nt(a, b);
    auto ref = t::matmul(a2, t::transpose_last(b2));
    ASSERT_EQ(nt.shape(), ref.shape());
    EXPECT_EQ(nt.data(), ref.data()) << "threads=" << threads;

    // Gradients accumulate the same terms in the same order on both routes.
    t::sum(nt).backward();
    t::sum(ref).backward();
    EXPECT_EQ(a.grad(), a2.grad());
    EXPECT_EQ(b.grad(), b2.grad());
  }
}

TEST(NoGradEquivalence, MatmulNtGradcheck) {
  t::Rng rng(43);
  auto a = t::Tensor::uniform({3, 4}, rng, -1.0F, 1.0F, true);
  auto b = t::Tensor::uniform({5, 4}, rng, -1.0F, 1.0F, true);
  auto res = t::grad_check([&] { return t::mean(t::matmul_nt(a, b)); },
                           {a, b});
  EXPECT_TRUE(res.ok()) << "violations=" << res.violations;
}

TEST(NoGradEquivalence, MeanDirectGradcheck) {
  t::Rng rng(47);
  auto a = t::Tensor::uniform({4, 6}, rng, -2.0F, 2.0F, true);
  auto r1 = t::grad_check([&] { return t::mean(a); }, {a});
  EXPECT_TRUE(r1.ok());
  auto r2 = t::grad_check([&] { return t::mean(t::mean_axis(a, 1)); }, {a});
  EXPECT_TRUE(r2.ok());
  auto r3 = t::grad_check(
      [&] { return t::mean(t::mean_axis(a, 0, /*keepdim=*/true)); }, {a});
  EXPECT_TRUE(r3.ok());
}

TEST(NoGradEquivalence, MeanMatchesSumDivComposition) {
  t::Rng rng(53);
  auto a = t::Tensor::uniform({7, 3}, rng, -1.0F, 1.0F);
  EXPECT_EQ(t::mean(a).item(),
            t::div(t::sum(a), static_cast<float>(a.size())).item());
  auto direct = t::mean_axis(a, 1);
  auto composed = t::div(t::sum_axis(a, 1), 3.0F);
  EXPECT_EQ(direct.data(), composed.data());
}

TEST(NoGradEquivalence, ReshapeRvalueStealsBufferInNoGradMode) {
  t::NoGradGuard no_grad;
  t::Rng rng(59);
  auto x = t::Tensor::uniform({4, 6}, rng, 0.0F, 1.0F);
  const std::vector<float> expected = x.data();
  const float* buf = x.data().data();
  auto r = t::reshape(std::move(x), {3, 8});
  EXPECT_EQ(r.data().data(), buf);  // stolen, not copied
  EXPECT_EQ(r.data(), expected);
  EXPECT_EQ(r.shape(), (t::Shape{3, 8}));
}

TEST(NoGradEquivalence, ReshapeRvalueFallsBackWhenShared) {
  t::NoGradGuard no_grad;
  t::Rng rng(61);
  auto x = t::Tensor::uniform({4, 6}, rng, 0.0F, 1.0F);
  auto alias = x;  // second owner: stealing would corrupt it
  auto r = t::reshape(std::move(x), {24});
  EXPECT_NE(r.data().data(), alias.data().data());
  EXPECT_EQ(r.data(), alias.data());
}

TEST(NoGradEquivalence, BufferPoolSteadyStateZeroAllocations) {
  ThreadGuard guard;
  metadse::set_threads(1);
  // This test asserts the *eager* pooled fast path; with planning enabled
  // predict_one is served from a static arena and never touches the pool
  // (that property is asserted in test_plan_equivalence.cpp).
  nn::plan::PlanModeGuard eager_only(false);
  t::Rng rng(67);
  nn::TransformerRegressor model(small_cfg(), rng);
  std::vector<float> features(24);
  for (auto& f : features) f = rng.uniform();
  // Warm the thread-local pool, then demand that further forwards are served
  // entirely from it.
  for (int i = 0; i < 3; ++i) (void)model.predict_one(features);
  t::BufferPool::reset_stats();
  const auto before = model.predict_one(features);
  const auto stats = t::BufferPool::stats();
  EXPECT_EQ(stats.vec_allocated, 0U)
      << "reused=" << stats.vec_reused;
  EXPECT_EQ(stats.block_allocated, 0U)
      << "reused=" << stats.block_reused;
  EXPECT_GT(stats.vec_reused, 0U);
  // And the values keep matching the grad-mode forward.
  auto x = t::Tensor::from_vector({1, 24}, features);
  t::Rng fwd(0);
  EXPECT_EQ(model.forward(x, fwd).data(), before);
}

}  // namespace
