#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t at = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(at, values.size() - 1)];
}

std::size_t samples_beyond(const std::vector<double>& values, double q) {
  const double cut = quantile(values, q);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(), [cut](double v) { return v > cut; }));
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  return ok;
}

std::string Report::json(const std::vector<std::string>& names) const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false") << ", \"attempted\": "
      << attempted_ << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    const auto it = metrics_.find(name);
    const Metric m = it == metrics_.end() ? Metric{0.0, "?"} : it->second;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

namespace {

double status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return std::strtod(line.c_str() + prefix.size(), nullptr);
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return status_kb("VmHWM") * 1024.0 / 1e6; }
double vm_size_mb() { return status_kb("VmSize") * 1024.0 / 1e6; }

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench
