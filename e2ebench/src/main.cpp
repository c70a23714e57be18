// End-to-end benchmark program. One process per run:
//
//   e2ebench --workload W --seed N --seconds S --trace 0|1
//            [--work-dir D] [--trace-dir T] [--commit C]
//
// Every run pretrains the serving checkpoint from a fixed seed with the
// code under test (outside every serve metric), builds the simulator-oracle
// reference fronts (outside every timed region), then serves real sessions
// through serve::ServerCore + serve::MetaDseSessionEngine with library
// defaults: replicas = workers = hardware threads, fp32, no coalescing.
// The correctness gate runs in every mode. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer split measured by
// spans around calls into each module, and writes a Chrome trace.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when the gate passed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "baselines/ensembles.hpp"
#include "core/metadse.hpp"
#include "core/parallel.hpp"
#include "nn/plan.hpp"
#include "serve_phase.hpp"
#include "spans.hpp"

namespace {

using namespace e2e;
namespace core = metadse::core;
namespace data = metadse::data;
namespace serve = metadse::serve;
namespace fs = std::filesystem;

// ---------------------------------------------------------------- options --

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string trace_dir = ".bench_build/traces";
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
      have_seconds = a.seconds > 0.0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      a.trace = value == "1";
      have_trace = true;
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else if (key == "--trace-dir") {
      a.trace_dir = value;
    } else if (key == "--commit") {
      a.commit = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "usage: e2ebench --workload W --seed N --seconds S --trace 0|1");
  }
  return a;
}

// -------------------------------------------------------------- workloads --

/// Which suite workloads a benchmark workload registers as targets.
enum class Targets { kTestSplit, kTwoTest, kWholeSuite };

/// One benchmark workload. Every run pretrains once (writing the serving
/// checkpoint), sets the serve stack up `setups` times (the last one
/// serves), serves for --seconds, then repeats pretraining until it has
/// `pretrains` timings. Quality and the front digest cover a fixed prefix
/// of sessions, so they repeat exactly for a given seed however many
/// sessions the time budget admits.
struct WorkloadDef {
  std::string name;
  Targets targets;
  size_t candidates;
  size_t eval_batch;
  size_t pretrains;
  size_t setups;
  size_t quality_sessions;  ///< scored and digested: the first N sessions
  size_t gate_sessions;     ///< recomputed directly: the first N sessions
  size_t traced_sessions;   ///< sessions of the traced run
  /// setup_s is the median datasets() time instead of the serve set-up.
  bool setup_is_datasets;
};

const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = {
      {"sweep_short", Targets::kTestSplit, 200, 16, 1, 5, 40, 10, 200, false},
      {"explore_long", Targets::kTwoTest, 2000, 64, 1, 5, 24, 4, 32, false},
      {"cold_start_wide", Targets::kWholeSuite, 200, 16, 1, 3, 68, 17, 68,
       false},
      {"pretrain", Targets::kTestSplit, 200, 16, 3, 1, 40, 5, 100, true},
  };
  return defs;
}

std::vector<std::string> targets_of(const WorkloadDef& def,
                                    const metadse::workload::SpecSuite& suite,
                                    uint64_t seed) {
  std::vector<std::string> names;
  if (def.targets == Targets::kWholeSuite) {
    for (const auto& wl : suite.workloads()) names.push_back(wl.name());
  } else {
    names = suite.names(metadse::workload::SplitRole::kTest);
    if (def.targets == Targets::kTwoTest) names.resize(2);
  }
  // The submission order derives from the seed.
  metadse::tensor::Rng order(seed ^ 0x0D0E0D0EULL);
  order.shuffle(names);
  return names;
}

// ------------------------------------------------------------- statistics --

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Exact positions skip the interpolation, so an infinite neighbour does
  // not turn the result into NaN.
  return frac == 0.0 ? v[lo] : v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t fnv1a(uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ------------------------------------------------------------------- host --

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

bool cpuid7_bit(int reg, int bit) {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int r[4] = {};
  if (__get_cpuid_max(0, nullptr) < 7) return false;
  __cpuid_count(7, 0, r[0], r[1], r[2], r[3]);
  return ((r[reg] >> bit) & 1U) != 0;
#else
  (void)reg;
  (void)bit;
  return false;
#endif
}

std::string host_block(const Args& args) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"nproc\": %zu, \"core_threads\": %zu, \"cpu\": \"%s\", "
      "\"avx512f\": %s, \"avx512_vnni\": %s, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"commit\": \"%s\"}",
      core::hardware_threads(), core::threads(), cpu_model().c_str(),
      cpuid7_bit(1, 16) ? "true" : "false",
      cpuid7_bit(2, 11) ? "true" : "false",
#if defined(__clang__)
      "clang " __clang_version__,
#elif defined(__GNUC__)
      "gcc " __VERSION__,
#else
      "unknown",
#endif
      E2E_BUILD_TYPE, args.commit.c_str());
  return buf;
}

// ---------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

class Report {
 public:
  void add(const std::string& name, const std::string& unit, double value) {
    metrics_.push_back({name, unit, value});
  }
  void fail(const std::string& why) {
    std::printf("GATE FAILED: %s\n", why.c_str());
    correct_ = false;
  }
  bool correct() const { return correct_; }
  size_t attempted = 0;
  size_t failed = 0;

  void print(const std::string& workload) const {
    std::printf("%s metrics:\n", workload.c_str());
    for (const auto& m : metrics_) {
      std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct_ && failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<size_t>(attempted, 1));
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
      if (i > 0) json += ", ";
      json += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

// --------------------------------------------------------------- pretrain --

/// The reduced but fixed pretraining config: small enough to run in every
/// benchmark run, large enough that meta-training has real work.
core::FrameworkOptions framework_options() {
  core::FrameworkOptions o;
  o.seed = 2025;
  o.samples_per_workload = 1200;
  o.maml.epochs = 4;
  o.maml.tasks_per_workload = 20;
  o.maml.support = 5;
  o.maml.val_tasks_per_workload = 6;
  return o;
}

struct PretrainRun {
  double datasets_s = 0.0;
  double pretrain_s = 0.0;
  std::vector<double> val_losses;
  double best_val() const {
    return *std::min_element(val_losses.begin(), val_losses.end());
  }
};

/// datasets() over the train+validation splits, then pretrain(); saves the
/// checkpoint to @p save_to when non-empty.
PretrainRun pretrain_once(const std::string& save_to, SpanRecorder* rec) {
  core::MetaDseFramework fw(framework_options());
  std::vector<std::string> names =
      fw.suite().names(metadse::workload::SplitRole::kTrain);
  for (auto& n : fw.suite().names(metadse::workload::SplitRole::kValidation)) {
    names.push_back(std::move(n));
  }
  PretrainRun run;
  {
    const SpanRecorder::Scope s(rec, "data.datasets");
    fw.datasets(names);
    run.datasets_s = s.elapsed_ms() / 1e3;
  }
  {
    const SpanRecorder::Scope s(rec, "meta.pretrain");
    fw.pretrain();
    run.pretrain_s = s.elapsed_ms() / 1e3;
  }
  for (const auto& t : fw.trace()) run.val_losses.push_back(t.val_loss);
  if (!save_to.empty()) fw.save_checkpoint(save_to);
  return run;
}

// ----------------------------------------------------------- serve checks --

/// Everything the gate and the quality score need about one serve pass.
struct PassCheck {
  std::vector<double> hv_ratio;
  std::vector<double> adrs;
  uint64_t digest = 0xcbf29ce484222325ULL;
};

/// Correctness gate over one closed-loop pass, plus quality and the front
/// digest over its first def.quality_sessions sessions.
PassCheck check_pass(const WorkloadDef& def, ServeStack& stack,
                     const ServeRun& run,
                     const std::map<std::string, ReferenceFront>& refs,
                     Report& report) {
  PassCheck out;
  report.attempted += run.sessions.size();
  for (const auto& s : run.sessions) {
    if (s.result.status != serve::SessionStatus::kOk || s.result.degraded) {
      ++report.failed;
      std::printf("session %llu: %s%s %s\n",
                  static_cast<unsigned long long>(s.id),
                  serve::to_string(s.result.status),
                  s.result.degraded ? " (degraded)" : "",
                  s.result.detail.c_str());
    }
  }
  const serve::ServerStats& st = run.stats;
  if (st.submitted != st.ok + st.rejected + st.shed + st.deadline +
                          st.stopped + st.failed ||
      st.submitted != run.sessions.size()) {
    report.fail("ServerStats partition does not hold");
  }
  if (run.sessions.size() < def.quality_sessions) {
    report.fail("fewer sessions than the quality prefix");
    return out;
  }
  const data::DatasetGenerator gen(stack.framework().space());
  for (uint64_t id = 0; id < def.quality_sessions; ++id) {
    const std::string published =
        read_file(stack.engine().front_path(id));
    if (id < def.gate_sessions && published != stack.direct_front(id)) {
      ++report.failed;
      report.fail("session " + std::to_string(id) +
                  ": published front differs from the direct run_dse");
    }
    const std::string& wl = run.sessions[id].workload;
    const FrontScore score =
        score_front(published, stack.framework().space(), gen,
                    stack.framework().suite().by_name(wl), refs.at(wl));
    out.hv_ratio.push_back(score.hv_ratio);
    out.adrs.push_back(score.adrs);
    out.digest = fnv1a(out.digest, std::to_string(id) + "\n" + published);
  }
  return out;
}

std::map<std::string, ReferenceFront> reference_fronts(
    const std::vector<std::string>& targets) {
  const core::MetaDseFramework fw(framework_options());
  const data::DatasetGenerator gen(fw.space());
  std::map<std::string, ReferenceFront> refs;
  for (const auto& name : targets) {
    refs.emplace(name, reference_front(gen, fw.suite().by_name(name)));
  }
  return refs;
}

/// The highest of the usual percentiles (p50 .. p99.9) with at least ten of
/// @p n samples beyond it, as a quantile in [0, 1].
double tail_quantile(size_t n) {
  size_t best = 500;  // per mille
  for (const size_t q : {750, 900, 950, 990, 999}) {
    if (n * (1000 - q) >= 10 * 1000) best = q;
  }
  return static_cast<double>(best) / 1000.0;
}

/// Serve metrics over the steady part of a closed loop. Sessions that
/// finish in the first kWarmupS seconds are left out, and the rest of the
/// loop's seconds is cut into one-second windows (at least four). Each
/// metric is the median of its per-window values, so a stall of the shared
/// host that fills a few windows moves it no more than any other window
/// does. Across seeds on a loaded host, the median of per-window p90s
/// spread 0.15 of its median where p90 over all sessions spread 0.26 and
/// p99 0.44.
constexpr double kWarmupS = 2.0;

void serve_metrics(const ServeRun& run, double seconds, Report& report) {
  const double from_ms = 1e3 * std::min(kWarmupS, seconds / 4.0);
  const size_t windows = std::max<size_t>(
      4, static_cast<size_t>(seconds - from_ms / 1e3));
  const double width_ms =
      (1e3 * seconds - from_ms) / static_cast<double>(windows);
  std::vector<std::vector<double>> latency(windows), done(windows);
  for (const auto& s : run.sessions) {
    if (s.result.status != serve::SessionStatus::kOk) continue;
    const double k = std::floor((s.done_ms - from_ms) / width_ms);
    if (k < 0.0 || k >= static_cast<double>(windows)) continue;
    latency[static_cast<size_t>(k)].push_back(s.latency_ms);
    done[static_cast<size_t>(k)].push_back(s.done_ms);
  }
  std::vector<double> rate, p50, p90, all;
  for (size_t k = 0; k < windows; ++k) {
    const std::vector<double>& w = latency[k];
    all.insert(all.end(), w.begin(), w.end());
    if (w.size() < 2) {
      // A window the host stalled through counts as the slowest window.
      rate.push_back(1e3 * static_cast<double>(w.size()) / width_ms);
      p50.push_back(std::numeric_limits<double>::infinity());
      p90.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    // Completions per second between the window's first and last one.
    const auto [first, last] =
        std::minmax_element(done[k].begin(), done[k].end());
    rate.push_back(1e3 * static_cast<double>(w.size() - 1) / (*last - *first));
    p50.push_back(median(w));
    p90.push_back(quantile(w, 0.90));
  }
  if (!std::isfinite(median(p90))) {
    throw std::runtime_error("the host stalled through most serve windows");
  }
  const double q = tail_quantile(all.size());
  const double tail_all = quantile(all, q);
  const auto beyond = std::count_if(all.begin(), all.end(),
                                    [&](double x) { return x > tail_all; });
  std::printf(
      "session latency: %zu steady samples in %zu windows of %.0f ms after "
      "%.0f ms warm-up; over all of them p50 %.2f ms, p%.1f %.2f ms (%zd "
      "beyond), max %.2f ms\n",
      all.size(), windows, width_ms, from_ms, median(all), 100.0 * q,
      tail_all, static_cast<ptrdiff_t>(beyond), quantile(all, 1.0));
  report.add("sessions_per_s", "1/s", median(rate));
  report.add("session_p50_ms", "ms", median(p50));
  report.add("session_tail_ms", "ms", median(p90));
}

// -------------------------------------------------------------- untraced --

void run_untraced(const Args& args, const WorkloadDef& def,
                  const std::string& ckpt, Report& report) {
  std::vector<PretrainRun> pretrains{pretrain_once(ckpt, nullptr)};

  const metadse::workload::SpecSuite suite;
  const ServeShape shape{targets_of(def, suite, args.seed), def.candidates,
                         def.eval_batch};
  const auto refs = reference_fronts(shape.targets);

  std::vector<double> setup_s;
  std::unique_ptr<ServeStack> stack;
  const std::string dir = args.work_dir + "/serve";
  for (size_t rep = 0; rep < def.setups; ++rep) {
    stack.reset();
    fs::remove_all(dir);
    stack = std::make_unique<ServeStack>(framework_options(), ckpt, shape,
                                         args.seed, core::hardware_threads(),
                                         dir, nullptr);
    setup_s.push_back(stack->setup().total_ms / 1e3);
  }
  const ServeRun run = stack->run_closed_loop(
      args.seconds, def.quality_sessions, std::numeric_limits<size_t>::max());
  const PassCheck quality = check_pass(def, *stack, run, refs, report);
  stack.reset();
  fs::remove_all(dir);
  // Repeat pretrains run after serving, so every workload's serve phase
  // starts the same way: one pretrain, then its set-ups.
  while (pretrains.size() < def.pretrains) {
    pretrains.push_back(pretrain_once("", nullptr));
    if (pretrains.back().val_losses != pretrains.front().val_losses) {
      report.fail("pretraining is not reproducible across repeats");
    }
  }

  std::vector<double> latency;
  for (const auto& s : run.sessions) {
    if (s.result.status == serve::SessionStatus::kOk) {
      latency.push_back(s.latency_ms);
    }
  }
  std::vector<double> datasets_s, pretrain_s;
  for (const auto& p : pretrains) {
    datasets_s.push_back(p.datasets_s);
    pretrain_s.push_back(p.pretrain_s);
  }
  std::printf("front digest %016llx over %zu sessions\n",
              static_cast<unsigned long long>(quality.digest),
              quality.hv_ratio.size());
  std::printf("set-ups %zu, pretrain runs %zu, sessions ok %zu\n",
              setup_s.size(), pretrains.size(), latency.size());
  report.add("setup_s", "s",
             def.setup_is_datasets ? median(datasets_s) : median(setup_s));
  serve_metrics(run, args.seconds, report);
  report.add("pretrain_s", "s", median(pretrain_s));
  report.add("peak_rss_mb", "MB", peak_rss_mb());
  report.add("front_hv_ratio", "ratio", mean(quality.hv_ratio));
  report.add("front_adrs", "ratio", mean(quality.adrs));
  report.add("pretrain_val_loss", "loss", pretrains.front().best_val());
}

// ---------------------------------------------------------------- traced --

/// Median wall time (ms) of @p reps calls of @p fn.
template <typename Fn>
double median_ms(size_t reps, Fn&& fn) {
  std::vector<double> t;
  for (size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(ms_between(t0, Clock::now()));
  }
  return median(t);
}

void run_traced(const Args& args, const WorkloadDef& def,
                const std::string& ckpt, Report& report) {
  SpanRecorder rec;
  const size_t replicas = core::hardware_threads();

  // Pretraining at the default width, then at one thread: the bits must
  // match (thread invariance) and the ratio says whether threads pay.
  const PretrainRun p_default = pretrain_once(ckpt, &rec);
  core::set_threads(1);
  const PretrainRun p_one = pretrain_once("", nullptr);
  core::set_threads(0);
  if (p_default.val_losses != p_one.val_losses) {
    report.fail("pretraining differs between threads 1 and the default");
  }

  const metadse::workload::SpecSuite suite;
  ServeShape shape{targets_of(def, suite, args.seed), def.candidates,
                   def.eval_batch};
  const auto refs = reference_fronts(shape.targets);
  const std::string dir = args.work_dir + "/serve";
  fs::remove_all(dir);
  // Plan counters are process-wide and pretraining already moved them:
  // the serve figures are deltas over set-up and the untraced pass.
  const metadse::nn::plan::PlanStats plans_before =
      metadse::nn::plan::PlanRegistry::instance().stats();
  ServeStack stack(framework_options(), ckpt, shape, args.seed, replicas, dir,
                   &rec);
  const SetupTimes& setup = stack.setup();
  const size_t w = shape.targets.size();

  // Untraced engine pass over a fixed session count, then the same
  // sessions traced; the traced fronts must match byte for byte.
  const size_t n = def.traced_sessions;
  const ServeRun run = stack.run_closed_loop(0.0, n, n);
  (void)check_pass(def, stack, run, refs, report);
  const serve::PlanExecStats plans = stack.engine().plan_stats();
  const TracedRun traced = stack.run_traced(n, &rec);
  for (uint64_t id = 0; id < n; ++id) {
    const std::string name = "/front_" + std::to_string(id) + ".txt";
    const std::string engine_front = read_file(dir + name);
    if (engine_front != read_file(traced.dir + name) ||
        engine_front != read_file(traced.plain_dir + name)) {
      report.fail("traced front " + std::to_string(id) +
                  " differs from the engine's");
    }
  }
  if (!report.correct()) return;  // no span is reported off a bad run

  std::vector<double> queued, service;
  for (const auto& s : run.sessions) {
    queued.push_back(static_cast<double>(s.result.queued_ms));
    service.push_back(static_cast<double>(s.result.service_ms));
  }

  // Probes: isolated calls into single modules. Forest fit, simulator and
  // predict run serial, as inside a session; adapt_to runs as add_workload
  // runs it, at the default width and at one thread.
  const core::MetaDseFramework& fw = stack.framework();
  const std::string& first = shape.targets.front();
  const data::Dataset& support = stack.support(first);
  const core::AdaptedPredictor predictor = fw.adapt_to(support);

  const double adapt_ms = median_ms(3, [&] { (void)fw.adapt_to(support); });
  core::set_threads(1);
  const double adapt_one_ms =
      median_ms(3, [&] { (void)fw.adapt_to(support); });
  core::set_threads(0);

  double journal_bytes = 0.0;
  for (const auto& entry : fs::directory_iterator(traced.dir)) {
    const std::string f = entry.path().filename().string();
    if (f.find(".journal") != std::string::npos) {
      journal_bytes += static_cast<double>(entry.file_size());
    }
  }

  metadse::baselines::FeatureMatrix fx;
  std::vector<float> fy;
  for (const auto& s : support.samples) {
    fx.push_back(s.features);
    fy.push_back(s.ipc);
  }
  const core::SerialRegionGuard serial;
  const double forest_ms = median_ms(7, [&] {
    metadse::baselines::RandomForest forest;
    forest.fit(fx, fy);
  });

  // Simulator cost differs by workload (phase count), so it is measured
  // per target and attributed to each session by its workload.
  metadse::tensor::Rng rng(args.seed);
  const auto configs = fw.space().sample_latin_hypercube(400, rng);
  const data::DatasetGenerator gen(fw.space());
  double sink = 0.0;
  std::map<std::string, double> eval_us;
  for (const auto& name : shape.targets) {
    const auto& wl = fw.suite().by_name(name);
    eval_us[name] = 1e3 *
                    median_ms(3, [&] {
                      for (const auto& c : configs) {
                        sink += gen.evaluate(c, wl).first;
                      }
                    }) /
                    static_cast<double>(configs.size());
  }
  double evals = 0.0;
  double sim_ms = 0.0;
  for (uint64_t id = 0; id < n; ++id) {
    const auto e = static_cast<double>(traced.evaluated[id]);
    evals += e;
    sim_ms += e * eval_us.at(stack.request(id).workload) / 1e3;
  }

  std::vector<std::vector<float>> rows;
  for (size_t i = 0; i < def.eval_batch; ++i) {
    rows.push_back(fw.space().normalize(configs[i]));
  }
  (void)predictor.predict_batch(rows);
  const double batch_us =
      1e3 * median_ms(31, [&] { sink += predictor.predict_batch(rows)[0]; });

  if (!std::isfinite(sink)) report.fail("probe produced a non-finite value");

  // Span totals of the traced sessions.
  const double dn = static_cast<double>(n);
  const double session_ms = rec.total_ms("session");
  const double predict_ms = rec.total_ms("nn.predict");
  const double publish_ms = rec.total_ms("serve.front_publish");
  const double journal_per_session =
      (std::accumulate(traced.session_ms.begin(), traced.session_ms.end(),
                       0.0) -
       std::accumulate(traced.plain_session_ms.begin(),
                       traced.plain_session_ms.end(), 0.0)) /
      dn;
  const double covered_session = predict_ms + publish_ms + sim_ms +
                                 dn * forest_ms + dn * journal_per_session;
  const double covered_setup = setup.load_checkpoint_ms +
                               setup.support_generate_ms +
                               setup.add_workload_ms + setup.server_start_ms;
  std::printf(
      "session split (ms/session): predict %.3f, sim %.3f (evaluate_us x "
      "evals), journal %.3f, forest fit %.3f, publish %.3f; uncovered %.3f "
      "= explorer draws, archive inserts, guard bookkeeping, feature "
      "normalisation\n",
      predict_ms / dn, sim_ms / dn, journal_per_session,
      forest_ms, publish_ms / dn, (session_ms - covered_session) / dn);

  report.add("core.load_checkpoint_ms", "ms", setup.load_checkpoint_ms);
  report.add("data.support_generate_ms", "ms", setup.support_generate_ms);
  report.add("data.datasets_s", "s", p_default.datasets_s);
  report.add("data.datasets_thread_ratio", "ratio",
             p_default.datasets_s / p_one.datasets_s);
  report.add("meta.adapt_to_ms", "ms", adapt_ms);
  report.add("meta.adapt_to_thread_ratio", "ratio", adapt_ms / adapt_one_ms);
  report.add("meta.pretrain_thread_ratio", "ratio",
             p_default.pretrain_s / p_one.pretrain_s);
  report.add("serve.add_workload_ms", "ms",
             setup.add_workload_ms / static_cast<double>(w));
  report.add("serve.adapts_per_workload", "ratio",
             setup.add_workload_ms / static_cast<double>(w) / adapt_ms);
  report.add("serve.server_start_ms", "ms", setup.server_start_ms);
  report.add("serve.queue_wait_ms_p50", "ms", median(queued));
  report.add("serve.service_ms_p50", "ms", median(service));
  report.add("serve.front_publish_ms", "ms", publish_ms / dn);
  report.add("explore.run_dse_ms", "ms", rec.total_ms("explore.run_dse") / dn);
  report.add("explore.journal_ms", "ms", journal_per_session);
  report.add("explore.journal_bytes", "count", journal_bytes / dn);
  report.add("nn.predict_ms", "ms", predict_ms / dn);
  report.add("nn.predict_calls", "count",
             static_cast<double>(rec.count("nn.predict")) / dn);
  report.add("nn.predict_share", "ratio", predict_ms / session_ms);
  report.add("nn.predict_batch_us", "us", batch_us);
  report.add("nn.plans_compiled", "count",
             static_cast<double>(plans.plans_compiled -
                                 plans_before.plans_compiled));
  report.add("nn.plan_cache_hits", "count",
             static_cast<double>(plans.cache_hits - plans_before.cache_hits));
  report.add("nn.plan_fallbacks", "count",
             static_cast<double>(plans.fallbacks - plans_before.fallbacks));
  report.add("nn.plan_static_bytes", "bytes",
             static_cast<double>(plans.static_bytes));
  report.add("sim.evaluate_us", "us", 1e3 * sim_ms / evals);
  report.add("sim.evals_per_session", "count", evals / dn);
  report.add("baselines.forest_fit_ms", "ms", forest_ms);
  report.add("bench.setup_coverage", "ratio", covered_setup / setup.total_ms);
  report.add("bench.session_coverage", "ratio", covered_session / session_ms);
  report.add("bench.trace_overhead", "ratio", traced.wall_s / run.wall_s);

  fs::create_directories(args.trace_dir);
  const std::string trace_path = args.trace_dir + "/" + def.name + "_seed" +
                                 std::to_string(args.seed) + ".json";
  rec.write_chrome_trace(trace_path);
  std::printf("chrome trace: %s\n", trace_path.c_str());
  fs::remove_all(dir);
  fs::remove_all(traced.dir);
  fs::remove_all(traced.plain_dir);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const WorkloadDef* def = nullptr;
    for (const auto& d : workload_defs()) {
      if (d.name == args.workload) def = &d;
    }
    if (def == nullptr) {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    std::printf("host %s\n", host_block(args).c_str());
    fs::remove_all(args.work_dir);
    fs::create_directories(args.work_dir);
    const std::string ckpt = args.work_dir + "/pretrained.ckpt";
    Report report;
    if (args.trace) {
      run_traced(args, *def, ckpt, report);
    } else {
      run_untraced(args, *def, ckpt, report);
    }
    fs::remove_all(args.work_dir);
    report.print(def->name);
    return report.correct() && report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }
}
