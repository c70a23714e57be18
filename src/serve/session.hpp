// MetaDseSessionEngine: binds ServerCore's generic SessionExecutor contract
// to the real pipeline. Each registered workload is adapted once; every
// replica gets its own deep clone of that adaptation (the replicated-instance
// pattern: own weights, own predict planner) and its own DatasetGenerator,
// and each session runs the journaled guarded DSE loop through the
// framework's re-entrant run_dse overload. A finished session publishes its
// Pareto front atomically to "<front_dir>/front_<id>.txt" (hexfloat, so a
// resumed run's bitwise-identical archive produces a byte-identical file).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/metadse.hpp"
#include "serve/serve.hpp"

namespace metadse::serve {

class MetaDseSessionEngine {
 public:
  struct Options {
    /// Template for every session's DSE run: explorer budgets, guard knobs,
    /// baseline_fallback. Per-session fields (journal_path, resume, budget,
    /// seed, start_level, stop_check) are overwritten at dispatch.
    core::MetaDseFramework::DseOptions dse;
    /// Directory for published fronts; empty disables publication.
    std::string front_dir;
  };

  /// @p framework must outlive the engine and be pretrained (or loaded).
  MetaDseSessionEngine(const core::MetaDseFramework& framework,
                       size_t replicas, Options options);

  /// Adapts @p support once, gives every replica a clone of the result and
  /// registers the workload. Not thread-safe; call before serving starts.
  void add_workload(const std::string& name, const data::Dataset& support);

  /// Rebuilds one replica slot: a fresh simulator generator and a fresh
  /// clone of every registered workload's adapted prototype (no adaptation,
  /// no checkpoint reload). The rebuilt replica is bitwise-identical to the
  /// original. Intended as the ServerCore replica rebuilder; must only run
  /// while the slot is out of dispatch (the supervisor guarantees this).
  /// Throws std::out_of_range for a slot the engine does not have.
  void rebuild_replica(size_t replica);

  /// The bound executor (captures `this`; the engine must outlive the
  /// ServerCore using it).
  SessionExecutor executor();

  /// Where a session's front is published (front_dir must be non-empty).
  std::string front_path(uint64_t session_id) const;

  /// Serializes an archive in the published-front format (one
  /// "config_id ipc power" hexfloat line per entry, insertion order).
  static std::string format_front(const arch::DesignSpace& space,
                                  const explore::ParetoArchive& archive);

  /// Static-execution-plan counters from the process-wide plan registry
  /// (replicas share compiled programs through it). Thread-safe.
  PlanExecStats plan_stats() const;

  /// The int8 activation-calibration table captured when @p name was
  /// adapted (the prototype's; every replica's clone carries a copy).
  /// Empty when no calibration was captured. Not thread-safe against
  /// add_workload; throws if @p name is unregistered.
  const std::vector<float>& workload_calibration(const std::string& name)
      const;

 private:
  struct WorkloadEntry {
    const data::Dataset* support;
    /// The workload's one adapt_to result. Never predicted on (its planner
    /// is never built); it only seeds the clones below and rebuilds.
    core::AdaptedPredictor prototype;
    /// One clone of the prototype per replica.
    std::vector<core::AdaptedPredictor> predictors;
  };

  ExecResult run_session(const SessionRequest& request,
                         const ExecContext& ctx);

  const core::MetaDseFramework& framework_;
  Options options_;
  std::map<std::string, WorkloadEntry> workloads_;
  /// One simulator generator per replica: a replica serves one session at a
  /// time, so its generator is never used concurrently.
  std::vector<data::DatasetGenerator> generators_;
};

}  // namespace metadse::serve
