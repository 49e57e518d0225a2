#include "engine/backend.hpp"

#include <algorithm>
#include <map>
#include <mutex>

#include "par/hybrid.hpp"
#include "par/spatial.hpp"
#include "sim/simulator.hpp"

namespace photon {

namespace {

class SerialBackend final : public Backend {
 public:
  std::string name() const override { return "serial"; }
  bool supports_resume() const override { return true; }
  RunResult run(const Scene& scene, const RunConfig& config,
                const RunResult* resume) override {
    return run_serial(scene, config, resume);
  }
};

class DistSpatialBackend final : public Backend {
 public:
  std::string name() const override { return "dist-spatial"; }
  // Resume folds the checkpoint into the partitioned trees and continues the
  // per-photon id sequence where the checkpoint stopped.
  bool supports_resume() const override { return true; }
  RunResult run(const Scene& scene, const RunConfig& config,
                const RunResult* resume) override {
    return run_spatial(scene, config, resume);
  }
};

// hybrid, and the registry aliases that run it at a fixed shape: `shared` is
// one group of `workers` threads (Fig 5.2), `dist-particle` is `workers`
// groups of one thread each (Fig 5.3). The aliases ignore `groups`.
class HybridBackend final : public Backend {
 public:
  enum class Shape { kConfigured, kOneGroup, kOneWorker };

  HybridBackend(std::string name, Shape shape) : name_(std::move(name)), shape_(shape) {}

  std::string name() const override { return name_; }
  // Resume folds the checkpoint into the partitioned trees and continues the
  // per-photon id sequence: bitwise identical to an uninterrupted run, at
  // any shape.
  bool supports_resume() const override { return true; }
  RunResult run(const Scene& scene, const RunConfig& config,
                const RunResult* resume) override {
    if (shape_ == Shape::kConfigured) return run_hybrid(scene, config, resume);
    RunConfig shaped = config;
    const int width = std::max(config.workers, 1);
    shaped.groups = shape_ == Shape::kOneGroup ? 1 : width;
    shaped.workers = shape_ == Shape::kOneGroup ? width : 1;
    return run_hybrid(scene, shaped, resume);
  }

 private:
  std::string name_;
  Shape shape_;
};

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::map<std::string, BackendFactory>& factory_map() {
  static std::map<std::string, BackendFactory> factories = {
      {"serial", [] { return std::make_unique<SerialBackend>(); }},
      {"shared",
       [] { return std::make_unique<HybridBackend>("shared", HybridBackend::Shape::kOneGroup); }},
      {"dist-particle",
       [] {
         return std::make_unique<HybridBackend>("dist-particle", HybridBackend::Shape::kOneWorker);
       }},
      {"dist-spatial", [] { return std::make_unique<DistSpatialBackend>(); }},
      {"hybrid",
       [] { return std::make_unique<HybridBackend>("hybrid", HybridBackend::Shape::kConfigured); }},
  };
  return factories;
}

}  // namespace

bool register_backend(const std::string& name, BackendFactory factory) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  return factory_map().emplace(name, std::move(factory)).second;
}

std::unique_ptr<Backend> make_backend(const std::string& name) {
  // Copy the factory out before invoking it: a registered factory may itself
  // call back into the registry (e.g. a decorator wrapping another backend),
  // which would deadlock on the non-recursive mutex if still held.
  BackendFactory factory;
  {
    std::lock_guard<std::mutex> lock(registry_mutex());
    const auto it = factory_map().find(name);
    if (it == factory_map().end()) return nullptr;
    factory = it->second;
  }
  return factory();
}

std::vector<std::string> backend_names() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  std::vector<std::string> names;
  names.reserve(factory_map().size());
  for (const auto& [name, factory] : factory_map()) names.push_back(name);
  return names;
}

}  // namespace photon
