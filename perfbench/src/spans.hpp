// Benchmark-side tracing: one span around each public call the benchmark
// makes into a photon layer (geom, hist, engine, par, sim, view, service).
// Spans are kept in memory and written once, at the end of the run, as
// trace-event JSON (opens in Perfetto or chrome://tracing).
//
// Tracing is off unless a SpanLog is installed; a Span then costs one
// pointer test. The parent of a span is the innermost open span on the
// same thread, so a layer's self time is its duration minus its children's.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class SpanLog {
 public:
  explicit SpanLog(std::string workload);

  // Installs / removes the process-wide log Span records into. Only the
  // traced rounds of a run install it.
  static void install(SpanLog* log);
  static SpanLog* current();

  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::string layer;         // "geom", "hist", "engine", "par", ...
    std::string name;          // the public call, e.g. "Scene::build"
    double start_s = 0.0;      // since the log was created
    double end_s = 0.0;
    std::uint64_t thread = 0;
  };

  std::uint64_t open(const std::string& layer, const std::string& name, std::uint64_t parent);
  void close(std::uint64_t id);

  std::size_t size() const;
  // Sum over spans of (duration - direct children's durations), per layer.
  std::map<std::string, double> self_seconds() const;
  bool write_trace_events(const std::string& path) const;

 private:
  std::string workload_;
  Clock::time_point t0_;
  mutable std::mutex m_;
  std::vector<Record> spans_;  // guarded by m_
};

// RAII span around one call; a no-op when no SpanLog is installed.
class Span {
 public:
  Span(const char* layer, const std::string& name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t saved_parent_ = 0;
};

}  // namespace perfbench
