// Engine microbenchmarks (google-benchmark): throughput of the substrates
// the reproduction is built on — tensor ops, attention, the transformer
// predictor, the analytical simulator, and tree fitting. Not a paper
// artifact; used to track performance regressions of the library itself.
#include <benchmark/benchmark.h>

#include <cmath>

#include "arch/design_space.hpp"
#include "baselines/ensembles.hpp"
#include "core/parallel.hpp"
#include "data/dataset.hpp"
#include "explore/explorer.hpp"
#include "meta/maml.hpp"
#include "meta/wam.hpp"
#include "nn/optim.hpp"
#include "nn/plan.hpp"
#include "nn/transformer.hpp"
#include "tensor/guard.hpp"
#include "tensor/ops.hpp"
#include "tensor/quant.hpp"
#include "workload/spec_suite.hpp"

using namespace metadse;

namespace {

void BM_MatmulSquare(benchmark::State& state) {
  const size_t n = state.range(0);
  tensor::Rng rng(1);
  auto a = tensor::Tensor::randn({n, n}, rng);
  auto b = tensor::Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b).data().data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulSquare)->Arg(32)->Arg(64)->Arg(128);

void BM_AttentionForward(benchmark::State& state) {
  tensor::Rng rng(2);
  nn::MultiHeadSelfAttention attn(32, 4, rng);
  auto x = tensor::Tensor::randn({16, 24, 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attn.forward(x).data().data());
  }
}
BENCHMARK(BM_AttentionForward);

void BM_TransformerForwardBackward(benchmark::State& state) {
  tensor::Rng rng(3);
  nn::TransformerConfig cfg{.n_tokens = 24, .d_model = 32, .n_heads = 4,
                            .n_layers = 2, .d_ff = 64, .n_outputs = 1};
  nn::TransformerRegressor model(cfg, rng);
  const size_t batch = state.range(0);
  auto x = tensor::Tensor::randn({batch, 24}, rng);
  auto y = tensor::Tensor::randn({batch, 1}, rng);
  tensor::Rng fwd(0);
  for (auto _ : state) {
    model.zero_grad();
    auto loss = tensor::mse_loss(model.forward(x, fwd, true), y);
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_TransformerForwardBackward)->Arg(5)->Arg(45);

/// One matmul backward (dA and dB) at the meta-trainer's two hot shapes:
/// 0 = [45,24,32]·[32,64] (a broadcast-weight Linear, dW summed over 45
/// batches), 1 = [180,24,24]·[180,24,8] (attention probabilities times
/// values). The graph is built once; each iteration reruns the matmul's
/// backward closure, which accumulates into the same leaf grads.
void BM_MatmulBackward(benchmark::State& state) {
  const bool attn = state.range(0) == 1;
  const tensor::Shape sa = attn ? tensor::Shape{180, 24, 24}
                                : tensor::Shape{45, 24, 32};
  const tensor::Shape sb = attn ? tensor::Shape{180, 24, 8}
                                : tensor::Shape{32, 64};
  tensor::Rng rng(9);
  auto a = tensor::Tensor::randn(sa, rng, 1.0F, /*requires_grad=*/true);
  auto b = tensor::Tensor::randn(sb, rng, 1.0F, /*requires_grad=*/true);
  auto out = tensor::matmul(a, b);
  tensor::Node& node = *out.node();
  node.grad = tensor::Tensor::randn(out.shape(), rng).data();
  a.node()->ensure_grad();
  b.node()->ensure_grad();
  for (auto _ : state) {
    node.backward_fn(node);
    benchmark::DoNotOptimize(a.grad().data());
    benchmark::DoNotOptimize(b.grad().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * tensor::numel(out.shape()) *
                          sa.back());
}
BENCHMARK(BM_MatmulBackward)->Arg(0)->Arg(1);

// -- inference fast path ------------------------------------------------------
//
// BM_TransformerPredictOne is the seed's grad-mode single-point forward (the
// "before" of the fast-path work); the NoGrad/Batch variants are the paths
// the DSE loop actually runs now. tools/bench_report.py turns the JSON output
// into BENCH_engine.json.

nn::TransformerConfig predict_cfg() {
  return {.n_tokens = 24, .d_model = 32, .n_heads = 4,
          .n_layers = 2, .d_ff = 64, .n_outputs = 1};
}

void BM_TransformerPredictOne(benchmark::State& state) {
  tensor::Rng rng(11);
  nn::TransformerRegressor model(predict_cfg(), rng);
  std::vector<float> features(24);
  for (auto& f : features) f = rng.uniform();
  auto x = tensor::Tensor::from_vector({1, 24}, features);
  tensor::Rng fwd(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(x, fwd).data().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransformerPredictOne);

void BM_TransformerPredictOneNoGrad(benchmark::State& state) {
  tensor::Rng rng(11);
  nn::TransformerRegressor model(predict_cfg(), rng);
  std::vector<float> features(24);
  for (auto& f : features) f = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_one(features).front());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransformerPredictOneNoGrad);

void BM_TransformerPredictBatch(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  tensor::Rng rng(12);
  nn::TransformerRegressor model(predict_cfg(), rng);
  tensor::Rng fwd(0);
  auto x = tensor::Tensor::uniform({batch, 24}, rng, 0.0F, 1.0F);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(x, fwd).data().data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_TransformerPredictBatch)->Arg(1)->Arg(16)->Arg(128);

void BM_TransformerPredictBatchNoGrad(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  tensor::Rng rng(12);
  nn::TransformerRegressor model(predict_cfg(), rng);
  std::vector<std::vector<float>> rows(batch);
  for (auto& r : rows) {
    r.resize(24);
    for (auto& v : r) v = rng.uniform();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_batch(rows).front().front());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_TransformerPredictBatchNoGrad)->Arg(1)->Arg(16)->Arg(128);

// -- reduced-precision predict tier ------------------------------------------
//
// The same no-grad batched forward served from the bf16 / int8 plan variants
// (DESIGN.md §15). Calibration is captured once before timing, exactly as
// adapt_to does in production; the timed region is the steady-state quantized
// predict_batch. Names contain "PredictBatch" so the CI benchmark-smoke
// filter picks these up alongside the fp32 arms they are compared against.

void quant_predict_bench(benchmark::State& state,
                         tensor::quant::Precision prec) {
  const size_t batch = static_cast<size_t>(state.range(0));
  tensor::Rng rng(12);
  nn::TransformerRegressor model(predict_cfg(), rng);
  std::vector<std::vector<float>> rows(batch);
  std::vector<float> flat;
  for (auto& r : rows) {
    r.resize(24);
    for (auto& v : r) v = rng.uniform();
    flat.insert(flat.end(), r.begin(), r.end());
  }
  if (!nn::plan::capture_calibration(model, flat.data(), batch)) {
    state.SkipWithError("calibration capture failed (plan not compilable)");
    return;
  }
  tensor::quant::PrecisionModeGuard guard(prec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_batch(rows).front().front());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

void BM_TransformerPredictBatchQuantInt8(benchmark::State& state) {
  quant_predict_bench(state, tensor::quant::Precision::kInt8);
}
BENCHMARK(BM_TransformerPredictBatchQuantInt8)->Arg(1)->Arg(16)->Arg(128);

void BM_TransformerPredictBatchQuantBf16(benchmark::State& state) {
  quant_predict_bench(state, tensor::quant::Precision::kBf16);
}
BENCHMARK(BM_TransformerPredictBatchQuantBf16)->Arg(1)->Arg(16)->Arg(128);

void BM_ExplorerBatchedEval(benchmark::State& state) {
  const size_t eval_batch = static_cast<size_t>(state.range(0));
  const auto& space = arch::DesignSpace::table1();
  tensor::Rng rng(13);
  nn::TransformerRegressor model(predict_cfg(), rng);
  explore::BatchEvaluator eval =
      [&](const std::vector<arch::Config>& batch) {
        std::vector<std::vector<float>> feats;
        feats.reserve(batch.size());
        for (const auto& c : batch) feats.push_back(space.normalize(c));
        const auto preds = model.predict_batch(feats);
        std::vector<explore::Objective> objs;
        objs.reserve(batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          objs.push_back({static_cast<double>(preds[i].front()),
                          static_cast<double>(i)});
        }
        return objs;
      };
  explore::EvolutionaryExplorer explorer({.initial_samples = 32,
                                          .iterations = 96, .seed = 7,
                                          .eval_batch = eval_batch});
  for (auto _ : state) {
    benchmark::DoNotOptimize(explorer.explore(space, eval).size());
  }
  state.SetItemsProcessed(state.iterations() * explorer.budget());
}
BENCHMARK(BM_ExplorerBatchedEval)->Arg(1)->Arg(16)->Arg(128);

void BM_CpuModelSimulate(benchmark::State& state) {
  workload::SpecSuite suite;
  const auto& wl = suite.by_name("605.mcf_s").base();
  sim::CpuModel model;
  arch::CpuConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.simulate(cfg, wl).ipc);
  }
}
BENCHMARK(BM_CpuModelSimulate);

void BM_DatasetPointPhaseWeighted(benchmark::State& state) {
  workload::SpecSuite suite;
  const auto& space = arch::DesignSpace::table1();
  data::DatasetGenerator gen(space);
  const auto& wl = suite.by_name("605.mcf_s");
  tensor::Rng rng(5);
  const auto c = space.random_config(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.evaluate(c, wl).first);
  }
}
BENCHMARK(BM_DatasetPointPhaseWeighted);

void BM_GbrtFit(benchmark::State& state) {
  tensor::Rng rng(6);
  baselines::FeatureMatrix x;
  std::vector<float> y;
  for (int i = 0; i < 400; ++i) {
    std::vector<float> row(24);
    for (auto& v : row) v = rng.uniform();
    y.push_back(row[0] * 2.0F + row[5] - row[9]);
    x.push_back(std::move(row));
  }
  baselines::GbrtOptions opts;
  opts.n_rounds = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    baselines::Gbrt model(opts);
    model.fit(x, y);
    benchmark::DoNotOptimize(model.predict(x[0]));
  }
}
BENCHMARK(BM_GbrtFit)->Arg(30)->Arg(120);

void BM_WamAdaptTenSteps(benchmark::State& state) {
  tensor::Rng rng(7);
  nn::TransformerConfig cfg{.n_tokens = 24, .d_model = 32, .n_heads = 4,
                            .n_layers = 2, .d_ff = 64, .n_outputs = 1};
  nn::TransformerRegressor model(cfg, rng);
  auto x = tensor::Tensor::uniform({10, 24}, rng, 0.0F, 1.0F);
  auto y = tensor::Tensor::randn({10, 1}, rng);
  auto mask = tensor::Tensor::full({24, 24}, 1.0F);
  meta::AdaptOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(meta::wam_adapt(model, mask, x, y, opts));
  }
}
BENCHMARK(BM_WamAdaptTenSteps);

// -- training fast path -------------------------------------------------------
//
// The MAML half of the engine: one inner-loop step (forward + backward +
// clip + SGD), a full K-shot adapt_clone call, and a whole meta-training
// epoch (below, in the threads sweep). tools/bench_report.py pairs these
// against a pre-fast-path baseline binary to report the training speedups
// in BENCH_engine.json.

void BM_MamlInnerStep(benchmark::State& state) {
  metadse::set_threads(static_cast<size_t>(state.range(0)));
  tensor::Rng rng(14);
  nn::TransformerRegressor model(predict_cfg(), rng);
  auto clone = model.clone();
  const auto params = clone->parameters();
  auto x = tensor::Tensor::uniform({5, 24}, rng, 0.0F, 1.0F);
  auto y = tensor::Tensor::randn({5, 1}, rng);
  nn::Sgd inner(params, 1e-2F);
  tensor::Rng fwd(0);
  // The inner-loop fast path: the first iteration captures the step's tape
  // (eager + trace), every later iteration replays it without rebuilding the
  // autodiff graph. Weights stay bitwise identical to the eager loop.
  nn::plan::TapePlan tape;
  for (auto _ : state) {
    inner.zero_grad();
    float lv = 0.0F;
    if (!tape.step(*clone, x, y, fwd, lv)) {
      auto loss = tensor::mse_loss(clone->forward(x, fwd, true), y);
      loss.backward();
      lv = loss.item();
    }
    tensor::clip_global_grad_norm(params, 10.0F);
    inner.step();
    benchmark::DoNotOptimize(lv);
  }
  state.SetItemsProcessed(state.iterations());
  metadse::set_threads(1);
}
BENCHMARK(BM_MamlInnerStep)->Arg(1)->Arg(2)->Arg(8);

void BM_MamlAdaptClone(benchmark::State& state) {
  metadse::set_threads(static_cast<size_t>(state.range(0)));
  tensor::Rng rng(15);
  nn::TransformerRegressor model(predict_cfg(), rng);
  auto sx = tensor::Tensor::uniform({5, 24}, rng, 0.0F, 1.0F);
  auto sy = tensor::Tensor::randn({5, 1}, rng);
  for (auto _ : state) {
    auto adapted = meta::MamlTrainer::adapt_clone(model, sx, sy, 5, 1e-2F);
    benchmark::DoNotOptimize(adapted.get());
  }
  state.SetItemsProcessed(state.iterations());
  metadse::set_threads(1);
}
BENCHMARK(BM_MamlAdaptClone)->Arg(1)->Arg(2)->Arg(8);

// -- thread-pool scaling sweep ----------------------------------------------
//
// The one coarse pool site that scales in training: a MAML epoch at pool
// widths 1/2/4/8, parallel over meta-batch tasks. Results are bitwise
// identical across the sweep (see tests/test_parallel_equivalence.cpp); only
// wall-clock should move. Emit machine-readable numbers with
// --benchmark_format=json.

void BM_MamlEpochThreadsSweep(benchmark::State& state) {
  metadse::set_threads(static_cast<size_t>(state.range(0)));
  constexpr size_t kFeatures = 8;
  std::vector<data::Dataset> train;
  for (uint64_t w = 0; w < 2; ++w) {
    data::Dataset ds;
    ds.workload = "synthetic";
    tensor::Rng rng(w + 1);
    for (size_t i = 0; i < 200; ++i) {
      data::Sample s;
      s.features.resize(kFeatures);
      for (auto& f : s.features) f = rng.uniform();
      s.ipc = std::sin(3.14F * s.features[0]) + 0.5F * s.features[1];
      ds.samples.push_back(std::move(s));
    }
    train.push_back(std::move(ds));
  }
  meta::MamlOptions opts;
  opts.epochs = 1;
  opts.tasks_per_workload = 8;
  opts.support = 5;
  opts.query = 20;
  opts.inner_steps = 3;
  opts.meta_batch = 4;
  opts.val_tasks_per_workload = 0;
  nn::TransformerConfig cfg{.n_tokens = kFeatures, .d_model = 16,
                            .n_heads = 2, .n_layers = 1, .d_ff = 32,
                            .n_outputs = 1};
  for (auto _ : state) {
    meta::MamlTrainer trainer(cfg, opts);
    trainer.train(train, {});
    benchmark::DoNotOptimize(trainer.trace().back().train_meta_loss);
  }
  state.SetItemsProcessed(state.iterations() * opts.tasks_per_workload * 2);
  metadse::set_threads(1);
}
BENCHMARK(BM_MamlEpochThreadsSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
