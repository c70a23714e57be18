// In-memory span recorder for the traced benchmark run. Spans are recorded
// from the benchmark's own code around calls into the library's public
// functions: name, start, end, parent span and session id. They stay in
// memory and are written once, at exit, as Chrome-trace JSON (opens in
// Perfetto or chrome://tracing). A null recorder makes every Scope a no-op,
// so untraced runs share the same code without paying for it.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two time points.
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Session id of spans that belong to no session (setup, probes).
inline constexpr uint64_t kNoSession = ~uint64_t{0};

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;  ///< since the recorder was created
    int64_t end_ns = 0;
    int64_t parent = -1;   ///< index of the enclosing span on this thread
    uint64_t session = kNoSession;
    uint32_t tid = 0;      ///< small per-thread index
  };

  SpanRecorder();

  /// RAII span. With a null recorder it only keeps its own start time, so
  /// callers can still read elapsed_ms().
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

    double elapsed_ms() const { return ms_between(start_, Clock::now()); }

   private:
    SpanRecorder* rec_;
    int64_t index_ = -1;
    Clock::time_point start_;
  };

  /// Sets the session id stamped on spans opened by the calling thread.
  static void set_thread_session(uint64_t session);

  /// Sum of durations (ms) and count of finished spans named @p name.
  double total_ms(const std::string& name) const;
  size_t count(const std::string& name) const;

  /// Writes the spans as Chrome-trace JSON; throws on I/O error.
  void write_chrome_trace(const std::string& path) const;

 private:
  int64_t open(std::string name);
  void close(int64_t index);
  int64_t now_ns() const;

  Clock::time_point origin_;
  mutable std::mutex m_;
  std::vector<Span> spans_;  ///< guarded by m_
  uint32_t next_tid_ = 0;    ///< guarded by m_
};

}  // namespace e2e
