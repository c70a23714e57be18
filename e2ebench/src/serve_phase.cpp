#include "serve_phase.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/io.hpp"
#include "core/parallel.hpp"
#include "explore/explorer.hpp"

namespace e2e {

namespace core = metadse::core;
namespace data = metadse::data;
namespace explore = metadse::explore;
namespace serve = metadse::serve;
namespace fs = std::filesystem;

ReferenceFront reference_front(const data::DatasetGenerator& gen,
                               const metadse::workload::Workload& wl) {
  // Fixed seed and budget, independent of the benchmark seed: one oracle
  // front per workload that every served front is scored against.
  const explore::EvolutionaryExplorer oracle_search(
      {.initial_samples = 500, .iterations = 3500, .seed = 501});
  const explore::ParetoArchive front = oracle_search.explore(
      gen.space(), [&](const metadse::arch::Config& c) {
        const auto [ipc, power] = gen.evaluate(c, wl);
        return explore::Objective{ipc, power};
      });
  ReferenceFront ref;
  ref.objectives = front.objectives();
  double max_power = 0.0;
  for (const auto& o : ref.objectives) max_power = std::max(max_power, o.power);
  ref.hv_ref = {0.0, 1.1 * max_power};
  ref.hv = front.hypervolume(ref.hv_ref);
  return ref;
}

FrontScore score_front(const std::string& front_text,
                       const metadse::arch::DesignSpace& space,
                       const data::DatasetGenerator& gen,
                       const metadse::workload::Workload& wl,
                       const ReferenceFront& ref) {
  // Each published line is "config_id ipc power"; only the config is kept,
  // and its objectives come from the simulator.
  explore::ParetoArchive simulated;
  std::istringstream lines(front_text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const uint64_t id = std::stoull(line.substr(0, line.find(' ')));
    const metadse::arch::Config config = space.decode(id);
    const auto [ipc, power] = gen.evaluate(config, wl);
    simulated.insert(config, {ipc, power});
  }
  if (simulated.empty()) throw std::runtime_error("published front is empty");
  return {simulated.hypervolume(ref.hv_ref) / ref.hv,
          explore::adrs(ref.objectives, simulated.objectives())};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void CompletionQueue::push(uint64_t id) {
  {
    std::lock_guard<std::mutex> lk(m_);
    done_.push_back(id);
  }
  cv_.notify_one();
}

uint64_t CompletionQueue::pop() {
  std::unique_lock<std::mutex> lk(m_);
  // Sessions here take well under a second; a minute without any
  // completion means a session resolved without running (or hung).
  if (!cv_.wait_for(lk, std::chrono::seconds(60),
                    [this] { return !done_.empty(); })) {
    throw std::runtime_error("no session completed within 60 s");
  }
  const uint64_t id = done_.front();
  done_.pop_front();
  return id;
}

ServeStack::ServeStack(const core::FrameworkOptions& fw_options,
                       const std::string& checkpoint, const ServeShape& shape,
                       uint64_t seed, size_t replicas, std::string dir,
                       SpanRecorder* rec)
    : shape_(shape), seed_(seed), replicas_(replicas), dir_(std::move(dir)) {
  fs::create_directories(dir_);
  const auto t0 = Clock::now();
  const SpanRecorder::Scope setup_span(rec, "setup");
  fw_ = std::make_unique<core::MetaDseFramework>(fw_options);
  {
    const SpanRecorder::Scope s(rec, "core.load_checkpoint");
    if (!fw_->load_checkpoint(checkpoint)) {
      throw std::runtime_error("checkpoint " + checkpoint + " not found");
    }
    setup_.load_checkpoint_ms = s.elapsed_ms();
  }
  {
    metadse::tensor::Rng rng(seed_);
    const data::DatasetGenerator gen(fw_->space());
    for (const auto& name : shape_.targets) {
      const SpanRecorder::Scope s(rec, "data.support_generate");
      data::Dataset support =
          gen.generate(fw_->suite().by_name(name), shape_.support, rng);
      support.workload = name;
      supports_[name] = std::move(support);
      setup_.support_generate_ms += s.elapsed_ms();
    }
  }
  serve::MetaDseSessionEngine::Options engine_options;
  engine_options.front_dir = dir_;
  engine_options.dse = dse_options(0);
  engine_ = std::make_unique<serve::MetaDseSessionEngine>(*fw_, replicas_,
                                                          engine_options);
  for (const auto& name : shape_.targets) {
    const SpanRecorder::Scope s(rec, "serve.add_workload");
    engine_->add_workload(name, supports_.at(name));
    setup_.add_workload_ms += s.elapsed_ms();
  }
  {
    const SpanRecorder::Scope s(rec, "serve.server_start");
    serve::ServeOptions options;
    options.replicas = replicas_;
    options.workers = replicas_;
    // The only addition to the engine's executor: tell the submitting
    // thread which session finished, so the closed loop refills without
    // polling.
    serve::SessionExecutor inner = engine_->executor();
    CompletionQueue* done = &completions_;
    server_ = std::make_unique<serve::ServerCore>(
        options, [inner = std::move(inner), done](
                     const serve::SessionRequest& request,
                     const serve::ExecContext& ctx) {
          struct Notify {
            CompletionQueue* queue;
            uint64_t id;
            ~Notify() { queue->push(id); }
          } notify{done, request.id};
          return inner(request, ctx);
        });
    server_->set_plan_stats([engine = engine_.get()] {
      return engine->plan_stats();
    });
    setup_.server_start_ms = s.elapsed_ms();
  }
  setup_.total_ms = ms_between(t0, Clock::now());
}

ServeStack::~ServeStack() {
  if (server_) server_->stop(serve::ServerCore::StopMode::kDrain);
}

serve::SessionRequest ServeStack::request(uint64_t id) const {
  serve::SessionRequest req;
  req.id = id;
  req.workload = shape_.targets[id % shape_.targets.size()];
  req.seed = seed_ + id;
  req.journal_path = dir_ + "/session_" + std::to_string(id) + ".journal";
  return req;
}

core::MetaDseFramework::DseOptions ServeStack::dse_options(
    uint64_t id) const {
  core::MetaDseFramework::DseOptions dse;
  dse.explorer = {.initial_samples = shape_.candidates / 4,
                  .iterations = shape_.candidates * 3 / 4,
                  .seed = seed_ + id,
                  .eval_batch = shape_.eval_batch};
  return dse;
}

ServeRun ServeStack::run_closed_loop(double seconds, size_t min_sessions,
                                     size_t max_sessions) {
  ServeRun out;
  std::map<uint64_t, std::future<serve::SessionResult>> pending;
  std::map<uint64_t, Clock::time_point> submitted_at;
  uint64_t next = 0;
  const auto t0 = Clock::now();
  auto last = t0;
  const auto submit = [&] {
    const uint64_t id = next++;
    submitted_at[id] = Clock::now();
    pending.emplace(id, server_->submit(request(id)));
  };
  const auto want_more = [&] {
    if (next >= max_sessions) return false;
    if (next < min_sessions) return true;
    return ms_between(t0, Clock::now()) < seconds * 1e3;
  };
  while (pending.size() < replicas_ && want_more()) submit();
  std::map<uint64_t, SessionRecord> done;
  while (!pending.empty()) {
    const uint64_t id = completions_.pop();
    const auto it = pending.find(id);
    if (it == pending.end()) {
      throw std::logic_error("completion for unknown session " +
                             std::to_string(id));
    }
    SessionRecord rec;
    rec.result = it->second.get();
    last = Clock::now();
    pending.erase(it);
    rec.id = id;
    rec.workload = request(id).workload;
    rec.latency_ms = ms_between(submitted_at.at(id), last);
    rec.done_ms = ms_between(t0, last);
    done.emplace(id, std::move(rec));
    if (want_more()) submit();
  }
  out.wall_s = ms_between(t0, last) / 1e3;
  for (auto& [id, rec] : done) out.sessions.push_back(std::move(rec));
  out.stats = server_->stats();
  return out;
}

const core::AdaptedPredictor& ServeStack::direct_predictor(
    const std::string& name) {
  auto it = direct_.find(name);
  if (it == direct_.end()) {
    it = direct_.emplace(name, fw_->adapt_to(supports_.at(name))).first;
  }
  return it->second;
}

std::string ServeStack::direct_front(uint64_t id) {
  const serve::SessionRequest req = request(id);
  const core::AdaptedPredictor& predictor = direct_predictor(req.workload);
  const core::SerialRegionGuard serial;
  data::DatasetGenerator gen(fw_->space());
  explore::RunReport report;
  const explore::ParetoArchive archive =
      fw_->run_dse(predictor, supports_.at(req.workload), req.workload,
                   dse_options(id), gen, report);
  return serve::MetaDseSessionEngine::format_front(fw_->space(), archive);
}

TracedRun ServeStack::run_traced(size_t n, SpanRecorder* rec) {
  // One adapted predictor per thread and target, built before the clock
  // starts (the engine's replicas are built during set-up, likewise).
  std::vector<std::map<std::string, core::AdaptedPredictor>> predictors(
      replicas_);
  for (auto& per_thread : predictors) {
    for (const auto& name : shape_.targets) {
      per_thread.emplace(name, fw_->adapt_to(supports_.at(name)));
    }
  }

  TracedRun out;
  out.evaluated.assign(n, 0);
  // One pass over sessions [0, n) from `replicas_` threads; returns its
  // wall time in ms. Spans go to @p spans when it is non-null.
  const auto pass = [&](const std::string& dir, bool journaled,
                        SpanRecorder* spans, std::vector<double>& session_ms) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    session_ms.assign(n, 0.0);
    std::atomic<uint64_t> next{0};
    std::mutex error_m;
    std::exception_ptr error;
    const auto worker = [&](size_t r) {
      try {
        const core::SerialRegionGuard serial;
        data::DatasetGenerator gen(fw_->space());
        for (uint64_t id = next++; id < n; id = next++) {
          const serve::SessionRequest req = request(id);
          const core::AdaptedPredictor& predictor =
              predictors[r].at(req.workload);
          core::MetaDseFramework::DseOptions dse = dse_options(id);
          if (journaled) {
            dse.journal_path =
                dir + "/session_" + std::to_string(id) + ".journal";
          }
          dse.predict_rows = [&predictor, spans](
                                 const std::vector<std::vector<float>>& rows) {
            const SpanRecorder::Scope s(spans, "nn.predict");
            return predictor.predict_batch(rows);
          };
          SpanRecorder::set_thread_session(id);
          explore::RunReport report;
          const SpanRecorder::Scope session(spans, "session");
          explore::ParetoArchive archive;
          {
            const SpanRecorder::Scope s(spans, "explore.run_dse");
            archive = fw_->run_dse(predictor, supports_.at(req.workload),
                                   req.workload, dse, gen, report);
          }
          {
            const SpanRecorder::Scope s(spans, "serve.front_publish");
            core::io::atomic_write_file(
                dir + "/front_" + std::to_string(id) + ".txt",
                serve::MetaDseSessionEngine::format_front(fw_->space(),
                                                          archive),
                "front.publish");
          }
          out.evaluated[id] = report.evaluated;
          session_ms[id] = session.elapsed_ms();
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lk(error_m);
        if (!error) error = std::current_exception();
      }
      SpanRecorder::set_thread_session(kNoSession);
    };
    const auto t0 = Clock::now();
    {
      std::vector<std::jthread> threads;
      for (size_t r = 0; r < replicas_; ++r) threads.emplace_back(worker, r);
    }
    if (error) std::rethrow_exception(error);
    return ms_between(t0, Clock::now());
  };

  out.dir = dir_ + "-traced";
  out.plain_dir = dir_ + "-plain";
  out.wall_s = pass(out.dir, true, rec, out.session_ms) / 1e3;
  (void)pass(out.plain_dir, false, nullptr, out.plain_session_ms);
  return out;
}

}  // namespace e2e
