// Ablation: substrate cross-validation. The repo ships TWO independently
// built gem5 substitutes — the analytical interval model (src/sim/cpu_model)
// and the trace-driven structural pipeline simulator (src/sim/pipeline_sim).
// This bench measures how consistently they rank design points per workload
// (Spearman rank correlation) and compares their absolute IPC scales,
// validating that the learning results do not hinge on one model's quirks.
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "bench_common.hpp"
#include "sim/pipeline_sim.hpp"

using namespace metadse;

namespace {

double spearman(const std::vector<double>& a, const std::vector<double>& b) {
  auto ranks = [](const std::vector<double>& v) {
    std::vector<size_t> idx(v.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&](size_t x, size_t y) { return v[x] < v[y]; });
    std::vector<double> r(v.size());
    for (size_t i = 0; i < idx.size(); ++i) r[idx[i]] = static_cast<double>(i);
    return r;
  };
  const auto ra = ranks(a);
  const auto rb = ranks(b);
  const double n = static_cast<double>(a.size());
  double d2 = 0.0;
  for (size_t i = 0; i < a.size(); ++i) d2 += (ra[i] - rb[i]) * (ra[i] - rb[i]);
  return 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
}

}  // namespace

int main(int argc, char** argv) {
  const auto scale = bench::Scale::parse(argc, argv);
  const size_t n_cfg = scale.paper ? 100 : 30;
  const size_t n_instr = scale.paper ? 200000 : 50000;
  std::printf("== Ablation: analytical vs trace-driven simulator "
              "(%zu configs x %zu-instr traces per workload) ==\n\n",
              n_cfg, n_instr);

  workload::SpecSuite suite;
  const auto& space = arch::DesignSpace::table1();
  sim::CpuModel analytic;

  eval::TextTable t({"workload", "spearman", "analytic IPC range",
                     "pipeline IPC range"});
  std::vector<double> rhos;
  for (const auto& wl : suite.workloads()) {
    tensor::Rng rng(17);
    std::vector<double> a;
    std::vector<double> p;
    for (size_t i = 0; i < n_cfg; ++i) {
      const auto cfg = arch::to_cpu_config(space, space.random_config(rng));
      a.push_back(analytic.simulate(cfg, wl.base()).ipc);
      p.push_back(sim::simulate_trace(cfg, wl.base(), n_instr, 23).ipc);
    }
    const double rho = spearman(a, p);
    rhos.push_back(rho);
    auto rng_of = [](const std::vector<double>& v) {
      std::string out = "[";
      out += eval::fmt(*std::min_element(v.begin(), v.end()), 2);
      out += ", ";
      out += eval::fmt(*std::max_element(v.begin(), v.end()), 2);
      out += "]";
      return out;
    };
    t.add_row({wl.name(), eval::fmt(rho, 3), rng_of(a), rng_of(p)});
    std::printf("  %-18s rho=%.3f\n", wl.name().c_str(), rho);
  }
  std::printf("\n%s\n", t.render().c_str());
  const auto mc = eval::mean_ci(rhos);
  std::printf("mean rank correlation: %.3f (±%.3f) — the two substrates "
              "broadly agree on design-point ordering.\n",
              mc.mean, mc.ci95);
  return 0;
}
