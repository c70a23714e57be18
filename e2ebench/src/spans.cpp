#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace e2e {
namespace {

/// The calling thread's view of one recorder: its small thread index, the
/// stack of spans it has open (for parent links) and its current session.
struct ThreadState {
  const SpanRecorder* owner = nullptr;
  uint32_t tid = 0;
  std::vector<int64_t> open;
  uint64_t session = kNoSession;
};

thread_local ThreadState t_state;

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void SpanRecorder::set_thread_session(uint64_t session) {
  t_state.session = session;
}

int64_t SpanRecorder::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.session = t_state.session;
  std::lock_guard<std::mutex> lk(m_);
  if (t_state.owner != this) {
    t_state.owner = this;
    t_state.tid = next_tid_++;
    t_state.open.clear();
  }
  span.tid = t_state.tid;
  span.parent = t_state.open.empty() ? -1 : t_state.open.back();
  span.start_ns = now_ns();
  span.end_ns = -1;
  spans_.push_back(std::move(span));
  const auto index = static_cast<int64_t>(spans_.size() - 1);
  t_state.open.push_back(index);
  return index;
}

void SpanRecorder::close(int64_t index) {
  const int64_t end = now_ns();
  std::lock_guard<std::mutex> lk(m_);
  spans_[static_cast<size_t>(index)].end_ns = end;
  if (!t_state.open.empty() && t_state.open.back() == index) {
    t_state.open.pop_back();
  }
}

SpanRecorder::Scope::Scope(SpanRecorder* rec, std::string name)
    : rec_(rec), start_(Clock::now()) {
  if (rec_ != nullptr) index_ = rec_->open(std::move(name));
}

SpanRecorder::Scope::~Scope() {
  if (rec_ != nullptr) rec_->close(index_);
}

double SpanRecorder::total_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lk(m_);
  double total = 0.0;
  for (const auto& s : spans_) {
    if (s.end_ns >= 0 && s.name == name) {
      total += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  return total;
}

size_t SpanRecorder::count(const std::string& name) const {
  std::lock_guard<std::mutex> lk(m_);
  return static_cast<size_t>(
      std::count_if(spans_.begin(), spans_.end(), [&](const Span& s) {
        return s.end_ns >= 0 && s.name == name;
      }));
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  std::lock_guard<std::mutex> lk(m_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    if (!first) out += ",\n";
    first = false;
    char buf[256];
    out += "{\"name\":";
    append_json_string(out, s.name);
    std::snprintf(buf, sizeof buf,
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld",
                  s.tid, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  static_cast<long long>(s.parent));
    out += buf;
    if (s.session != kNoSession) {
      std::snprintf(buf, sizeof buf, ",\"session\":%llu",
                    static_cast<unsigned long long>(s.session));
      out += buf;
    }
    out += "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  if (std::fclose(f) != 0 || !ok) {
    throw std::runtime_error("short write to trace " + path);
  }
}

}  // namespace e2e
