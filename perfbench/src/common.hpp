// Shared plumbing for the perfbench program: clocks, order statistics, the
// metric report, and /proc readings. Nothing here calls into the photon
// library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Median of `values` (the mean of the middle pair for even counts); 0 when
// empty.
double median(std::vector<double> values);

// Nearest-rank quantile q in [0, 1] of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);

// Number of samples strictly above the q-quantile — the count that decides
// whether a percentile is reportable (>= 10 samples beyond it).
std::size_t samples_beyond(const std::vector<double>& values, double q);

// What one workload run reports: named metrics with units, plus the
// operation tally a run is judged by. check() records one attempted
// operation and, when `ok` is false, one failure with its reason on stderr.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  bool check(bool ok, const std::string& what);
  void count(std::uint64_t attempted) { attempted_ += attempted; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool has(const std::string& name) const { return metrics_.count(name) != 0; }

  // The result line: {"correct": ..., "attempted": ..., "failed": ...,
  // "metrics": {name: {"value": v, "unit": u}, ...}} restricted to `names`
  // (in that order).
  std::string json(const std::vector<std::string>& names) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Peak resident set (VmHWM) and current virtual size (VmSize) of this
// process in MB (10^6 bytes); 0 when /proc is unavailable.
double peak_rss_mb();
double vm_size_mb();

// FNV-1a over raw bytes — the render and forest checksums.
std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h = 1469598103934665603ULL);

}  // namespace perfbench
