#include "spans.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {
namespace {

std::atomic<SpanLog*> g_log{nullptr};
thread_local std::uint64_t t_parent = 0;

std::uint64_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
}

}  // namespace

SpanLog::SpanLog(std::string workload) : workload_(std::move(workload)), t0_(Clock::now()) {}

void SpanLog::install(SpanLog* log) { g_log.store(log, std::memory_order_release); }
SpanLog* SpanLog::current() { return g_log.load(std::memory_order_acquire); }

std::uint64_t SpanLog::open(const std::string& layer, const std::string& name,
                            std::uint64_t parent) {
  Record r;
  r.parent = parent;
  r.layer = layer;
  r.name = name;
  r.start_s = seconds_since(t0_);
  r.thread = thread_tag();
  std::lock_guard<std::mutex> lock(m_);
  r.id = spans_.size() + 1;
  spans_.push_back(std::move(r));
  return spans_.back().id;
}

void SpanLog::close(std::uint64_t id) {
  const double now = seconds_since(t0_);
  std::lock_guard<std::mutex> lock(m_);
  spans_[id - 1].end_s = now;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(m_);
  return spans_.size();
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::lock_guard<std::mutex> lock(m_);
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end_s - spans_[i].start_s;
  for (const Record& r : spans_) {
    if (r.parent != 0) self[r.parent - 1] -= r.end_s - r.start_s;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].layer] += self[i];
  return out;
}

bool SpanLog::write_trace_events(const std::string& path) const {
  std::lock_guard<std::mutex> lock(m_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                  "\"dur\": %.3f, \"pid\": 1, \"tid\": %llu, \"args\": {\"id\": %llu, "
                  "\"parent\": %llu, \"workload\": \"%s\"}}%s\n",
                  r.name.c_str(), r.layer.c_str(), r.start_s * 1e6, (r.end_s - r.start_s) * 1e6,
                  static_cast<unsigned long long>(r.thread),
                  static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent), workload_.c_str(),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* layer, const std::string& name) : log_(SpanLog::current()) {
  if (!log_) return;
  saved_parent_ = t_parent;
  id_ = log_->open(layer, name, t_parent);
  t_parent = id_;
}

Span::~Span() {
  if (!log_) return;
  log_->close(id_);
  t_parent = saved_parent_;
}

}  // namespace perfbench
