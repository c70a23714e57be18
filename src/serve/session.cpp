#include "serve/session.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/chaos.hpp"
#include "core/io.hpp"
#include "nn/plan.hpp"

namespace metadse::serve {

MetaDseSessionEngine::MetaDseSessionEngine(
    const core::MetaDseFramework& framework, size_t replicas, Options options)
    : framework_(framework), options_(std::move(options)) {
  if (replicas == 0) {
    throw std::invalid_argument(
        "MetaDseSessionEngine: need at least one replica");
  }
  generators_.reserve(replicas);
  for (size_t r = 0; r < replicas; ++r) {
    generators_.emplace_back(framework_.space());
  }
}

void MetaDseSessionEngine::add_workload(const std::string& name,
                                        const data::Dataset& support) {
  WorkloadEntry entry;
  entry.support = &support;
  // The workload's one adaptation. Every serving copy is a deep clone of
  // it: clones carry the same parameters, masks, calibration and scaler,
  // so they predict bitwise-identically to a fresh adapt_to.
  entry.prototype = framework_.adapt_to(support);
  entry.predictors.reserve(generators_.size());
  for (size_t r = 0; r < generators_.size(); ++r) {
    entry.predictors.push_back(entry.prototype.clone());
  }
  workloads_[name] = std::move(entry);
}

void MetaDseSessionEngine::rebuild_replica(size_t replica) {
  if (replica >= generators_.size()) {
    throw std::out_of_range("rebuild_replica: replica id out of range");
  }
  generators_[replica] = data::DatasetGenerator(framework_.space());
  for (auto& [name, entry] : workloads_) {
    entry.predictors[replica] = entry.prototype.clone();
  }
}

SessionExecutor MetaDseSessionEngine::executor() {
  return [this](const SessionRequest& request, const ExecContext& ctx) {
    return run_session(request, ctx);
  };
}

std::string MetaDseSessionEngine::front_path(uint64_t session_id) const {
  if (options_.front_dir.empty()) {
    throw std::logic_error("MetaDseSessionEngine: front_dir not configured");
  }
  return options_.front_dir + "/front_" + std::to_string(session_id) + ".txt";
}

std::string MetaDseSessionEngine::format_front(
    const arch::DesignSpace& space, const explore::ParetoArchive& archive) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& e : archive.entries()) {
    os << space.encode(e.config) << ' ' << e.objective.ipc << ' '
       << e.objective.power << '\n';
  }
  return os.str();
}

ExecResult MetaDseSessionEngine::run_session(const SessionRequest& request,
                                             const ExecContext& ctx) {
  // Everything this session does — predictions, journal writes, plan
  // compiles, front publication — runs under its chaos scope, so a chaos
  // plan can target a deterministic subset of sessions (scope_mod /
  // scope_match) and leave the rest provably untouched.
  const core::chaos::ChaosScope chaos_scope(request.id);
  if (core::chaos::fire("replica.fail")) {
    throw ReplicaFault("injected replica fault (chaos kill of replica " +
                       std::to_string(ctx.replica) + ")");
  }
  const auto it = workloads_.find(request.workload);
  if (it == workloads_.end()) {
    throw std::runtime_error("serve: workload \"" + request.workload +
                             "\" is not registered with the session engine");
  }
  if (ctx.replica >= generators_.size()) {
    throw std::logic_error("serve: replica id " +
                           std::to_string(ctx.replica) +
                           " out of range (engine has " +
                           std::to_string(generators_.size()) + ")");
  }

  core::MetaDseFramework::DseOptions dse = options_.dse;
  dse.journal_path = request.journal_path;
  dse.resume = request.resume;
  dse.budget = ctx.budget;
  dse.guard.start_level = ctx.start_level;
  dse.explorer.seed = request.seed;
  dse.explorer.stop_check = ctx.stop_requested;
  // Chaos wedge: the session stalls inside an evaluation attempt exactly
  // like a hung simulator would, spinning until the watchdog (or shutdown)
  // cancels its budget. Wrapping the template's hook keeps any rehearsal
  // hook the caller installed.
  dse.pre_eval_hook = [base = options_.dse.pre_eval_hook,
                       budget = ctx.budget, stop = ctx.stop_requested] {
    if (base) base();
    if (core::chaos::fire("replica.wedge")) {
      while (!(budget && (budget->cancelled() || budget->exhausted())) &&
             !(stop && stop())) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      throw explore::ExplorationAborted(
          "exploration aborted: injected replica wedge (budget cancelled by "
          "the watchdog; journal preserves progress)");
    }
  };
  explore::RunReport report;
  const explore::ParetoArchive archive = framework_.run_dse(
      it->second.predictors[ctx.replica], *it->second.support,
      request.workload, dse, generators_[ctx.replica], report);

  ExecResult out;
  out.degraded = report.degraded() || report.cancelled > 0;
  out.detail = report.summary();
  out.cancelled_points = report.cancelled;
  if (dse.precision != tensor::quant::Precision::kFp32) {
    out.quant_fallback = report.quant_contract_tripped;
    out.quantized = !report.quant_contract_tripped;
  }

  // Publication is the session's commit point: the front appears atomically
  // and only after the full run (an interrupted session leaves no front, so
  // a resume pass can find and finish it). A publication that fails leaves
  // no torn file behind; the session still ends kOk — its archive is
  // correct, only the published copy is missing — but is reported degraded
  // so the loss is visible.
  if (!options_.front_dir.empty()) {
    try {
      core::io::atomic_write_file(front_path(request.id),
                                  format_front(framework_.space(), archive),
                                  "front.publish");
    } catch (const core::io::IoError& e) {
      out.degraded = true;
      out.detail += "; front publication failed: " + std::string(e.what());
    }
  }
  return out;
}

const std::vector<float>& MetaDseSessionEngine::workload_calibration(
    const std::string& name) const {
  const auto it = workloads_.find(name);
  if (it == workloads_.end()) {
    throw std::runtime_error("workload_calibration: workload \"" + name +
                             "\" is not registered with the session engine");
  }
  return it->second.prototype.model->quant_calibration();
}

PlanExecStats MetaDseSessionEngine::plan_stats() const {
  const nn::plan::PlanStats s = nn::plan::PlanRegistry::instance().stats();
  PlanExecStats out;
  out.plans_compiled = s.plans_compiled;
  out.cache_hits = s.cache_hits;
  out.fallbacks = s.fallbacks;
  out.static_bytes = s.static_bytes;
  return out;
}

}  // namespace metadse::serve
