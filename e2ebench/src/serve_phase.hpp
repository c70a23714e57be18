// The served part of the benchmark: a real serve stack (checkpoint load,
// K-shot support simulation, MetaDseSessionEngine, ServerCore) driven by a
// closed loop from one thread, the correctness gate over what it published,
// front-quality scoring against a simulator-oracle reference, and the
// traced re-run of the same sessions through the re-entrant run_dse.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/metadse.hpp"
#include "explore/pareto.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "spans.hpp"

namespace e2e {

/// What one serve workload asks of the stack.
struct ServeShape {
  /// Registered target workloads, in registration (= submission) order.
  std::vector<std::string> targets;
  size_t candidates = 200;  ///< explorer budget per session
  size_t eval_batch = 16;   ///< candidates per batched surrogate forward
  size_t support = 10;      ///< K: simulated support samples per target
};

/// Wall time of one stack set-up, split by stage (ms).
struct SetupTimes {
  double total_ms = 0.0;
  double load_checkpoint_ms = 0.0;
  double support_generate_ms = 0.0;  ///< all targets
  double add_workload_ms = 0.0;      ///< all targets
  double server_start_ms = 0.0;
};

/// One finished session of a closed-loop run.
struct SessionRecord {
  uint64_t id = 0;
  std::string workload;
  double latency_ms = 0.0;  ///< submit -> future ready, as the submitting thread saw it
  double done_ms = 0.0;     ///< loop start -> future ready
  metadse::serve::SessionResult result;
};

struct ServeRun {
  std::vector<SessionRecord> sessions;  ///< indexed by session id
  double wall_s = 0.0;  ///< first submit -> last completion
  metadse::serve::ServerStats stats;
};

/// Simulator-oracle reference front of one workload, with the hypervolume
/// reference point the benchmark scores every served front against.
struct ReferenceFront {
  std::vector<metadse::explore::Objective> objectives;
  metadse::explore::Objective hv_ref;
  double hv = 0.0;
};

/// Reference point rule: IPC 0 and 1.1 x the highest power on the
/// reference front. Served points beyond it contribute their clipped area.
ReferenceFront reference_front(const metadse::data::DatasetGenerator& gen,
                               const metadse::workload::Workload& wl);

/// Quality of one served front after re-evaluating its configs with the
/// simulator (the served IPC is the surrogate's, not the simulator's).
struct FrontScore {
  double hv_ratio = 0.0;
  double adrs = 0.0;
};

FrontScore score_front(const std::string& front_text,
                       const metadse::arch::DesignSpace& space,
                       const metadse::data::DatasetGenerator& gen,
                       const metadse::workload::Workload& wl,
                       const ReferenceFront& ref);

/// Reads a whole file; throws when it cannot.
std::string read_file(const std::string& path);

/// What the traced re-run measured.
struct TracedRun {
  double wall_s = 0.0;  ///< journaled, traced pass
  std::vector<size_t> evaluated;  ///< RunReport::evaluated, per session
  std::vector<double> session_ms;  ///< journaled pass, per session
  std::vector<double> plain_session_ms;  ///< unjournaled pass, per session
  std::string dir;        ///< journaled pass: journals and fronts
  std::string plain_dir;  ///< unjournaled pass: fronts
};

/// Session-completion queue fed by a thin executor wrapper, so the
/// submitting thread wakes as soon as any session finishes.
class CompletionQueue {
 public:
  void push(uint64_t id);
  uint64_t pop();

 private:
  std::mutex m_;
  std::condition_variable cv_;
  std::deque<uint64_t> done_;  ///< guarded by m_
};

class ServeStack {
 public:
  /// Set-up, timed stage by stage: load_checkpoint -> support simulation
  /// -> every add_workload -> ServerCore constructed. Spans go to @p rec
  /// when it is non-null. @p dir must not exist yet or be empty.
  ServeStack(const metadse::core::FrameworkOptions& fw_options,
             const std::string& checkpoint, const ServeShape& shape,
             uint64_t seed, size_t replicas, std::string dir,
             SpanRecorder* rec);
  ~ServeStack();
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  const SetupTimes& setup() const { return setup_; }
  const metadse::core::MetaDseFramework& framework() const { return *fw_; }
  const metadse::serve::MetaDseSessionEngine& engine() const {
    return *engine_;
  }
  const metadse::data::Dataset& support(const std::string& name) const {
    return supports_.at(name);
  }

  /// Closed loop from the calling thread: keeps `replicas` sessions
  /// outstanding, submitting session i (workload i mod W, seed base + i)
  /// as soon as one completes, until @p seconds have passed and at least
  /// @p min_sessions were submitted, or @p max_sessions were. Returns once
  /// every submitted session has resolved.
  ServeRun run_closed_loop(double seconds, size_t min_sessions,
                           size_t max_sessions);

  /// The request the closed loop submits as session @p id.
  metadse::serve::SessionRequest request(uint64_t id) const;

  /// DSE options the engine runs session @p id with, minus journaling.
  metadse::core::MetaDseFramework::DseOptions dse_options(uint64_t id) const;

  /// format_front(run_dse(...)) for session @p id, computed directly,
  /// serially and unjournaled through the library.
  std::string direct_front(uint64_t id);

  /// Re-runs sessions [0, n) through the re-entrant run_dse from
  /// `replicas` benchmark threads (one adapted predictor per thread and
  /// target, like the engine's replicas), with the surrogate leg forwarded
  /// through DseOptions::predict_rows to the session's own predictor. The
  /// first pass is journaled and traced (spans: session > explore.run_dse >
  /// nn.predict, and session > serve.front_publish); a second, untraced
  /// pass repeats it unjournaled, so the journal's cost is measured under
  /// the same concurrency. Both passes publish their fronts.
  TracedRun run_traced(size_t n, SpanRecorder* rec);

 private:
  const metadse::core::AdaptedPredictor& direct_predictor(
      const std::string& name);

  ServeShape shape_;
  uint64_t seed_;
  size_t replicas_;
  std::string dir_;
  SetupTimes setup_;
  std::unique_ptr<metadse::core::MetaDseFramework> fw_;
  std::map<std::string, metadse::data::Dataset> supports_;
  std::map<std::string, metadse::core::AdaptedPredictor> direct_;
  std::unique_ptr<metadse::serve::MetaDseSessionEngine> engine_;
  CompletionQueue completions_;
  // Declared last: destroyed (stopped and joined) before what it uses.
  std::unique_ptr<metadse::serve::ServerCore> server_;
};

}  // namespace e2e
