// Integration tests of the MetaDseFramework facade: the end-to-end pipeline
// at miniature scale, checkpointing, evaluation semantics, and the guarded /
// journaled DSE loop (run_dse).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <tuple>

#include "core/metadse.hpp"
#include "explore/guarded.hpp"
#include "explore/run_report.hpp"
#include "nn/plan.hpp"
#include "sim/fault_injection.hpp"

namespace core = metadse::core;
namespace data = metadse::data;
namespace wl = metadse::workload;
namespace mt = metadse::tensor;

namespace {

core::FrameworkOptions tiny_options() {
  core::FrameworkOptions o;
  o.samples_per_workload = 200;
  o.maml.epochs = 2;
  o.maml.tasks_per_workload = 6;
  o.maml.val_tasks_per_workload = 2;
  o.maml.seed = 3;
  o.seed = 17;
  return o;
}

/// One shared pretrained framework for the whole suite (pretraining is the
/// expensive part; the assertions are independent).
core::MetaDseFramework& shared_framework() {
  static core::MetaDseFramework* fw = [] {
    auto* f = new core::MetaDseFramework(tiny_options());
    f->pretrain();
    return f;
  }();
  return *fw;
}

}  // namespace

TEST(Framework, RejectsMismatchedPredictorWidth) {
  core::FrameworkOptions o = tiny_options();
  o.predictor.n_tokens = 10;  // != 24 design-space parameters
  EXPECT_THROW(core::MetaDseFramework{o}, std::invalid_argument);
}

TEST(Framework, ThrowsBeforePretrain) {
  core::MetaDseFramework fw(tiny_options());
  EXPECT_THROW(fw.model(), std::logic_error);
  EXPECT_THROW(fw.scaler(), std::logic_error);
  EXPECT_THROW(fw.wam_mask(), std::logic_error);
}

TEST(Framework, DatasetCachingReturnsSameObject) {
  core::MetaDseFramework fw(tiny_options());
  const auto& a = fw.dataset("605.mcf_s");
  const auto& b = fw.dataset("605.mcf_s");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.size(), tiny_options().samples_per_workload);
  EXPECT_THROW(fw.dataset("nope"), std::out_of_range);
}

TEST(Framework, PretrainProducesModelScalerMaskTrace) {
  auto& fw = shared_framework();
  EXPECT_TRUE(fw.pretrained());
  EXPECT_EQ(fw.model().config().n_tokens, 24U);
  EXPECT_TRUE(fw.scaler().fitted());
  const auto& mask = fw.wam_mask();
  EXPECT_EQ(mask.shape(), (mt::Shape{24, 24}));
  for (float v : mask.data()) {
    EXPECT_GT(v, 0.0F);
    EXPECT_LE(v, 1.0F);
  }
  EXPECT_EQ(fw.trace().size(), tiny_options().maml.epochs);
}

TEST(Framework, EvaluateReturnsFiniteMetrics) {
  auto& fw = shared_framework();
  mt::Rng rng(5);
  const auto evals = fw.evaluate("620.omnetpp_s", 4, 10, 30, true, rng);
  ASSERT_EQ(evals.size(), 4U);
  for (const auto& e : evals) {
    EXPECT_TRUE(std::isfinite(e.rmse));
    EXPECT_TRUE(std::isfinite(e.mape));
    EXPECT_TRUE(std::isfinite(e.ev));
    EXPECT_GT(e.rmse, 0.0);
    EXPECT_LT(e.rmse, 1.0);  // raw-IPC units; sane scale
  }
}

TEST(Framework, AdaptToPredictsInRawUnits) {
  auto& fw = shared_framework();
  const auto& ds =
      const_cast<core::MetaDseFramework&>(fw).dataset("623.xalancbmk_s");
  data::Dataset support;
  support.workload = ds.workload;
  for (size_t i = 0; i < 10; ++i) support.samples.push_back(ds.samples[i]);
  const auto adapted = fw.adapt_to(support);
  // Predictions on held-out points are in the raw IPC range.
  double err = 0.0;
  for (size_t i = 10; i < 40; ++i) {
    const float p = adapted.predict(ds.samples[i].features);
    EXPECT_GT(p, -0.5F);
    EXPECT_LT(p, 5.0F);
    err += std::fabs(p - ds.samples[i].ipc);
  }
  EXPECT_LT(err / 30.0, 0.5);  // roughly tracks the simulator

  data::Dataset empty;
  EXPECT_THROW(fw.adapt_to(empty), std::invalid_argument);
}

TEST(Framework, CheckpointRoundTripPreservesPredictions) {
  auto& fw = shared_framework();
  const std::string path = ::testing::TempDir() + "metadse_fw.ckpt";
  fw.save_checkpoint(path);

  core::MetaDseFramework fresh(tiny_options());
  EXPECT_FALSE(fresh.load_checkpoint(path + ".missing"));
  ASSERT_TRUE(fresh.load_checkpoint(path));
  EXPECT_TRUE(fresh.pretrained() || true);  // loaded state serves queries

  // Same predictions through the whole adapt pipeline.
  const auto& ds = fw.dataset("605.mcf_s");
  data::Dataset support;
  support.workload = ds.workload;
  for (size_t i = 0; i < 8; ++i) support.samples.push_back(ds.samples[i]);
  const auto a = fw.adapt_to(support);
  const auto b = fresh.adapt_to(support);
  for (size_t i = 20; i < 25; ++i) {
    EXPECT_NEAR(a.predict(ds.samples[i].features),
                b.predict(ds.samples[i].features), 1e-4);
  }
  // Scaler statistics survived.
  for (size_t j = 0; j < fw.scaler().mean().size(); ++j) {
    EXPECT_NEAR(fw.scaler().mean()[j], fresh.scaler().mean()[j], 1e-3);
    EXPECT_NEAR(fw.scaler().stddev()[j], fresh.scaler().stddev()[j], 1e-3);
  }
  std::remove(path.c_str());
}

TEST(Framework, WamOffMatchesPlainAdaptation) {
  auto& fw = shared_framework();
  mt::Rng rng_a(9);
  mt::Rng rng_b(9);
  const auto with = fw.evaluate("600.perlbench_s", 3, 10, 20, true, rng_a);
  const auto without = fw.evaluate("600.perlbench_s", 3, 10, 20, false, rng_b);
  ASSERT_EQ(with.size(), without.size());
  // Same tasks (same rng), different adaptation paths -> results differ.
  bool any_diff = false;
  for (size_t i = 0; i < with.size(); ++i) {
    any_diff = any_diff || with[i].rmse != without[i].rmse;
  }
  EXPECT_TRUE(any_diff);
}

namespace {

bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace

TEST(Framework, AdaptedPredictorCloneMatchesAFreshAdaptation) {
  auto& fw = shared_framework();
  const auto& ds = fw.dataset("605.mcf_s");
  data::Dataset support;
  support.workload = ds.workload;
  for (size_t i = 0; i < 10; ++i) support.samples.push_back(ds.samples[i]);

  metadse::nn::plan::PlanModeGuard planned(true);
  const auto prototype = fw.adapt_to(support);
  const auto clone = prototype.clone();
  const auto fresh = fw.adapt_to(support);
  ASSERT_NE(clone.model.get(), prototype.model.get());

  // Same state, byte for byte: parameters, every layer's WAM mask, the
  // scaler and the int8 calibration table.
  EXPECT_TRUE(same_bytes(clone.model->flatten_parameters(),
                         fresh.model->flatten_parameters()));
  ASSERT_EQ(clone.model->layer_count(), fresh.model->layer_count());
  for (size_t i = 0; i < fresh.model->layer_count(); ++i) {
    const auto& want = fresh.model->attention_layer(i);
    const auto& got = clone.model->attention_layer(i);
    ASSERT_EQ(got.has_mask(), want.has_mask()) << "layer " << i;
    if (want.has_mask()) {
      EXPECT_TRUE(same_bytes(got.mask().data(), want.mask().data()))
          << "layer " << i;
    }
  }
  EXPECT_TRUE(same_bytes(clone.scaler.mean(), fresh.scaler.mean()));
  EXPECT_TRUE(same_bytes(clone.scaler.stddev(), fresh.scaler.stddev()));
  EXPECT_FALSE(fresh.model->quant_calibration().empty());
  EXPECT_TRUE(same_bytes(clone.model->quant_calibration(),
                         fresh.model->quant_calibration()));

  // Same predictions, bitwise, at every serving batch width — and the
  // clone plans on its own: the prototype's planner is never built.
  for (size_t batch : {1U, 16U, 64U}) {
    std::vector<std::vector<float>> rows;
    for (size_t i = 0; i < batch; ++i) {
      rows.push_back(ds.samples[20 + i].features);
    }
    EXPECT_TRUE(same_bytes(clone.predict_batch(rows),
                           fresh.predict_batch(rows)))
        << "batch " << batch;
  }
  EXPECT_TRUE(clone.model->has_predict_planner());
  EXPECT_FALSE(prototype.model->has_predict_planner());
}

// -- run_dse: guarded, journaled exploration ----------------------------------

namespace {

namespace ex = metadse::explore;

data::Dataset small_support(core::MetaDseFramework& fw,
                            const std::string& workload, size_t k) {
  const auto& ds = fw.dataset(workload);
  data::Dataset support;
  support.workload = workload;
  for (size_t i = 0; i < k; ++i) support.samples.push_back(ds.samples[i]);
  return support;
}

core::MetaDseFramework::DseOptions small_dse(const std::string& journal = "") {
  core::MetaDseFramework::DseOptions dse;
  dse.explorer = {.initial_samples = 8, .iterations = 16,
                  .mutations_per_step = 2, .seed = 13, .eval_batch = 4};
  // A tiny meta-trained surrogate can legitimately predict slightly below 0;
  // widen the band so the clean-run tests stay clean.
  dse.guard.ipc_min = -128.0;
  dse.journal_path = journal;
  return dse;
}

void expect_same_front(const ex::ParetoArchive& a, const ex::ParetoArchive& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].config, b.entries()[i].config);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.entries()[i].objective.ipc),
              std::bit_cast<uint64_t>(b.entries()[i].objective.ipc));
    EXPECT_EQ(std::bit_cast<uint64_t>(a.entries()[i].objective.power),
              std::bit_cast<uint64_t>(b.entries()[i].objective.power));
  }
}

}  // namespace

TEST(RunDse, CleanRunEvaluatesEveryPointOnTheSurrogate) {
  auto& fw = shared_framework();
  const auto support = small_support(fw, "605.mcf_s", 10);
  const auto predictor = fw.adapt_to(support);
  const auto front = predictor.model
                         ? fw.run_dse(predictor, support, "605.mcf_s",
                                      small_dse())
                         : ex::ParetoArchive{};
  const auto& rep = fw.run_report();
  EXPECT_GT(front.size(), 0U);
  EXPECT_EQ(rep.evaluated, 24U);  // initial_samples + iterations
  EXPECT_EQ(rep.dropped(), 0U);
  EXPECT_FALSE(rep.degraded());
  EXPECT_EQ(rep.final_level, ex::DegradeLevel::kSurrogate);
}

TEST(RunDse, JournaledRunResumesBitwiseIdentical) {
  auto& fw = shared_framework();
  const auto support = small_support(fw, "605.mcf_s", 10);
  const auto predictor = fw.adapt_to(support);
  const std::string path = ::testing::TempDir() + "mdse_rundse.journal";
  std::remove(path.c_str());
  std::remove((path + ".snapshot").c_str());

  const auto reference =
      fw.run_dse(predictor, support, "605.mcf_s", small_dse(path));
  // Force the record-by-record replay path (no snapshot fast-forward).
  std::remove((path + ".snapshot").c_str());

  auto dse = small_dse(path);
  dse.resume = true;
  const auto resumed = fw.run_dse(predictor, support, "605.mcf_s", dse);
  const auto& rep = fw.run_report();
  expect_same_front(reference, resumed);
  EXPECT_TRUE(rep.resumed);
  EXPECT_EQ(rep.replayed, 24U);
  EXPECT_EQ(rep.evaluated, 0U) << "a completed journal answers every point";
  std::remove(path.c_str());
  std::remove((path + ".snapshot").c_str());
}

TEST(RunDse, RefusesToClobberAnExistingJournal) {
  auto& fw = shared_framework();
  const auto support = small_support(fw, "605.mcf_s", 10);
  const auto predictor = fw.adapt_to(support);
  const std::string path = ::testing::TempDir() + "mdse_rundse_clobber.journal";
  std::remove(path.c_str());
  std::remove((path + ".snapshot").c_str());
  fw.run_dse(predictor, support, "605.mcf_s", small_dse(path));
  // resume defaults to false: re-running onto live records must throw.
  EXPECT_THROW(fw.run_dse(predictor, support, "605.mcf_s", small_dse(path)),
               std::runtime_error);
  std::remove(path.c_str());
  std::remove((path + ".snapshot").c_str());
}

TEST(RunDse, FaultySimulatorDegradesDownTheLadder) {
  auto& fw = shared_framework();
  const auto support = small_support(fw, "605.mcf_s", 10);
  const auto predictor = fw.adapt_to(support);
  // Every simulator call fails persistently: the surrogate rung (whose power
  // leg needs the simulator) collapses, the breaker opens, and the forest
  // baseline — whose generator is never fault-armed — answers the rest.
  metadse::sim::FaultPlan plan;
  plan.fail_rate = 1.0;
  plan.persistent_fraction = 1.0;
  fw.set_fault_plan(plan);
  auto dse = small_dse();
  dse.guard.max_retries = 1;
  dse.guard.breaker_threshold = 2;
  const auto front = fw.run_dse(predictor, support, "605.mcf_s", dse);
  fw.set_fault_plan({});  // disarm for later tests
  const auto& rep = fw.run_report();
  EXPECT_TRUE(rep.degraded());
  EXPECT_EQ(rep.final_level, ex::DegradeLevel::kBaseline);
  EXPECT_GE(rep.breaker_trips, 1U);
  EXPECT_GT(rep.baseline_evals, 0U);
  EXPECT_GT(front.size(), 0U) << "the baseline rung must keep the run alive";
  // Accounting invariant: every point lands in exactly one bucket.
  EXPECT_EQ(rep.evaluated + rep.baseline_evals + rep.dropped() + rep.replayed,
            24U);
}

TEST(RunDse, FailFastPolicyAbortsButJournalPreservesProgress) {
  auto& fw = shared_framework();
  const auto support = small_support(fw, "605.mcf_s", 10);
  const auto predictor = fw.adapt_to(support);
  const std::string path = ::testing::TempDir() + "mdse_rundse_abort.journal";
  std::remove(path.c_str());
  std::remove((path + ".snapshot").c_str());

  const auto reference =
      fw.run_dse(predictor, support, "605.mcf_s", small_dse());

  metadse::sim::FaultPlan plan;
  plan.fail_rate = 1.0;
  plan.persistent_fraction = 1.0;
  fw.set_fault_plan(plan);
  auto dse = small_dse(path);
  dse.guard.max_retries = 0;
  dse.guard.breaker_threshold = 2;
  dse.guard.policy = ex::DegradePolicy::kFailFast;
  EXPECT_THROW(fw.run_dse(predictor, support, "605.mcf_s", dse),
               ex::ExplorationAborted);

  // Fix the farm, resume: the run completes to the clean-run front.
  fw.set_fault_plan({});
  auto resume = small_dse(path);
  resume.resume = true;
  const auto resumed = fw.run_dse(predictor, support, "605.mcf_s", resume);
  expect_same_front(reference, resumed);
  std::remove(path.c_str());
  std::remove((path + ".snapshot").c_str());
}

TEST(RunDse, PredictRowsHookIsBitwiseTransparentAndRowCountChecked) {
  auto& fw = shared_framework();
  const auto support = small_support(fw, "605.mcf_s", 10);
  const auto predictor = fw.adapt_to(support);
  const std::string base = ::testing::TempDir() + "mdse_rundse_rows";
  const auto journal_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };
  const auto run = [&](const std::string& path,
                       decltype(small_dse().predict_rows) hook) {
    std::remove(path.c_str());
    std::remove((path + ".snapshot").c_str());
    auto dse = small_dse(path);
    dse.predict_rows = std::move(hook);
    ex::RunReport report;
    metadse::data::DatasetGenerator generator(fw.space());
    auto front =
        fw.run_dse(predictor, support, "605.mcf_s", dse, generator, report);
    std::string bytes = journal_bytes(path);
    std::remove(path.c_str());
    std::remove((path + ".snapshot").c_str());
    return std::tuple{std::move(front), std::move(bytes), report};
  };

  const auto [ref_front, ref_bytes, ref_rep] = run(base + "_ref.journal", {});
  ASSERT_FALSE(ref_bytes.empty());

  // A hook forwarding to the same predictor changes no bit of the front or
  // the journal.
  using Rows = std::vector<std::vector<float>>;
  size_t calls = 0;
  const auto forward = [&](const Rows& rows) {
    ++calls;
    return predictor.predict_batch(rows);
  };
  const auto [front, bytes, rep] = run(base + "_hook.journal", forward);
  EXPECT_GT(calls, 0U);
  expect_same_front(ref_front, front);
  EXPECT_EQ(bytes, ref_bytes);
  EXPECT_EQ(rep.evaluated, ref_rep.evaluated);
  EXPECT_FALSE(rep.degraded());

  // A hook that answers one row short is an evaluation failure, never an
  // out-of-bounds read: the surrogate rung answers nothing and the forest
  // baseline carries the run.
  const auto one_short = [&](const Rows& rows) {
    auto values = predictor.predict_batch(rows);
    values.pop_back();
    return values;
  };
  const auto [short_front, short_bytes, short_rep] =
      run(base + "_short.journal", one_short);
  EXPECT_GT(short_rep.failures, 0U);
  EXPECT_EQ(short_rep.evaluated, 0U);
  EXPECT_TRUE(short_rep.degraded());
  EXPECT_EQ(short_rep.final_level, ex::DegradeLevel::kBaseline);
  EXPECT_EQ(short_rep.baseline_evals + short_rep.dropped(), 24U);
  EXPECT_GT(short_front.size(), 0U);
}
