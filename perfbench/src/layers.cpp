#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "core/rng.hpp"
#include "engine/recovery.hpp"
#include "sim/checkpoint.hpp"
#include "spans.hpp"
#include "view/viewer.hpp"

namespace perfbench {

using namespace photon;

RunConfig cli_config(std::uint64_t photons, std::uint64_t seed, int workers, int groups) {
  RunConfig config;
  config.photons = photons;
  config.seed = seed;
  config.workers = workers;
  config.groups = groups;
  config.governed = true;
  return config;
}

RunResult governed_run(const std::string& backend, const Scene& scene, const RunConfig& config,
                       const RunResult* resume) {
  const std::unique_ptr<Backend> b = make_backend(backend);
  Span span("engine", "run_elastic " + backend);
  return run_elastic(*b, scene, config, resume);
}

bool conserved(const RunResult& result, std::uint64_t requested) {
  const TraceCounters& c = result.counters;
  return result.status == RunStatus::kComplete && c.emitted == requested &&
         c.absorbed + c.escaped + c.terminated == c.emitted;
}

bool same_forest(const BinForest& a, const BinForest& b) {
  Span span("hist", "BinForest::operator==");
  return a == b;
}

GeomProbe probe_geometry(const Scene& scene, std::uint64_t seed, std::size_t rays) {
  Lcg48 rng(seed * 0x9E3779B97F4AULL + 17);
  const Aabb b = scene.bounds();
  const Vec3 lo = b.lo + (b.hi - b.lo) * 0.05;
  const Vec3 span_box = (b.hi - b.lo) * 0.9;
  std::vector<Ray> set;
  set.reserve(rays);
  for (std::size_t i = 0; i < rays; ++i) {
    const Vec3 o{lo.x + span_box.x * rng.uniform(), lo.y + span_box.y * rng.uniform(),
                 lo.z + span_box.z * rng.uniform()};
    const double z = 2.0 * rng.uniform() - 1.0;
    const double phi = 2.0 * M_PI * rng.uniform();
    const double r = std::sqrt(std::max(0.0, 1.0 - z * z));
    set.emplace_back(o, Vec3{r * std::cos(phi), z, r * std::sin(phi)});
  }

  GeomProbe probe;
  probe.rays = rays;
  {
    Span span("geom", "AccelStructure::intersect_counted");
    TraversalStats stats;
    SceneHit hit;
    for (const Ray& ray : set) scene.accel().intersect_counted(ray, kNoHit, hit, stats);
    probe.nodes = stats.nodes_visited;
    probe.tests = stats.patch_tests;
  }
  // Rate: repeated passes over the set until 0.2 s, median pass.
  std::vector<double> pass_rate;
  const auto t0 = Clock::now();
  while (pass_rate.size() < 3 || seconds_since(t0) < 0.2) {
    Span span("geom", "Scene::intersect");
    const auto p0 = Clock::now();
    SceneHit hit;
    for (const Ray& ray : set) scene.intersect(ray, kNoHit, hit);
    pass_rate.push_back(static_cast<double>(rays) / seconds_since(p0));
  }
  probe.rays_per_s = median(pass_rate);
  return probe;
}

ResumeRun resume_in_legs(const SceneBuilder& build, const std::string& backend,
                         const RunConfig& config, int legs, const std::string& path) {
  ResumeRun out;
  const std::uint64_t leg_photons = config.photons / static_cast<std::uint64_t>(legs);
  std::filesystem::remove(path);
  const auto t0 = Clock::now();
  for (int leg = 0; leg < legs; ++leg) {
    const std::unique_ptr<Scene> scene = build();
    RunResult previous;
    if (leg > 0) {
      Span span("sim", "load_checkpoint");
      const auto l0 = Clock::now();
      out.ok = load_checkpoint(path, previous) && out.ok;
      out.load_s.push_back(seconds_since(l0));
    }
    RunConfig leg_config = config;
    leg_config.photons = leg_photons;
    RunResult result = governed_run(backend, *scene, leg_config, leg > 0 ? &previous : nullptr);
    out.ok = conserved(result, leg_photons * static_cast<std::uint64_t>(leg + 1)) && out.ok;
    {
      Span span("sim", "save_checkpoint");
      const auto s0 = Clock::now();
      out.ok = save_checkpoint(result, path) && out.ok;
      out.save_s.push_back(seconds_since(s0));
    }
    if (leg + 1 == legs) out.result = std::move(result);
  }
  out.wall_s = seconds_since(t0);
  std::error_code ec;
  out.checkpoint_mb = static_cast<double>(std::filesystem::file_size(path, ec)) / 1e6;
  std::filesystem::remove(path, ec);
  return out;
}

ViewRun render_path(const Scene& scene, const BinForest& forest, std::uint64_t seed, int frames,
                    int width, int height) {
  Lcg48 rng(seed * 0xC2B2AE3D27D4ULL + 5);
  const Aabb b = scene.bounds();
  const Vec3 e = b.hi - b.lo;
  ViewOptions options;
  options.threads = 4;
  ViewRun out;
  for (int f = 0; f < frames; ++f) {
    // Eyes in the lower half of the box (inside a room, or at street level
    // to roof height in the city), looking across the middle.
    const Vec3 eye{b.lo.x + e.x * (0.15 + 0.7 * rng.uniform()),
                   b.lo.y + e.y * (0.1 + 0.4 * rng.uniform()),
                   b.lo.z + e.z * (0.15 + 0.7 * rng.uniform())};
    const Vec3 look{b.lo.x + e.x * (0.3 + 0.4 * rng.uniform()), b.lo.y + e.y * 0.3,
                    b.lo.z + e.z * (0.3 + 0.4 * rng.uniform())};
    const Camera camera(eye, look, {0, 1, 0}, 60.0, width, height);
    Span span("view", "render");
    const auto t0 = Clock::now();
    const Image image = render(scene, forest, camera, options);
    out.frame_s.push_back(seconds_since(t0));
    for (int y = 0; y < image.height(); ++y) {
      out.checksum = fnv1a(&image.at(0, y), sizeof(Rgb) * static_cast<std::size_t>(image.width()),
                           out.checksum ^ static_cast<std::uint64_t>(f));
    }
  }
  return out;
}

void report_forest(Report& report, const RunResult& result) {
  Span span("hist", "BinForest::total_tally_all/total_leaves/memory_bytes");
  const double emitted = static_cast<double>(std::max<std::uint64_t>(1, result.counters.emitted));
  report.metric("hist.records_per_photon",
                static_cast<double>(result.forest.total_tally_all()) / emitted, "count");
  report.metric("hist.bins", static_cast<double>(result.forest.total_leaves()), "count");
  report.metric("hist.forest_mb", static_cast<double>(result.forest.memory_bytes()) / 1e6, "MB");
}

WireMeters wire_meters(const RunResult& result) {
  WireMeters m;
  std::uint64_t bytes = 0, messages = 0;
  for (const RankReport& r : result.ranks) {
    bytes += r.sent_bytes;
    messages += r.sent_messages;
    m.wait_s += r.wait_seconds;
  }
  const double emitted = static_cast<double>(std::max<std::uint64_t>(1, result.counters.emitted));
  m.bytes_per_photon = static_cast<double>(bytes) / emitted;
  m.messages_per_photon = static_cast<double>(messages) / emitted;
  return m;
}

PoolMeters pool_meters(const RunResult& result) {
  PoolMeters m;
  const PoolTelemetry& p = result.pool;
  if (p.chunks > 0) {
    m.steals_per_chunk = static_cast<double>(p.steals) / static_cast<double>(p.chunks);
  }
  if (!p.worker_photons.empty()) {
    double sum = 0.0, most = 0.0;
    for (const std::uint64_t w : p.worker_photons) {
      sum += static_cast<double>(w);
      most = std::max(most, static_cast<double>(w));
    }
    if (sum > 0.0) m.imbalance = most / (sum / static_cast<double>(p.worker_photons.size()));
  }
  return m;
}

void report_job_latency(Report& report, const std::vector<double>& latency_s) {
  report.metric("job_p50_s", quantile(latency_s, 0.50), "s");
  report.metric("job_p90_s", quantile(latency_s, 0.90), "s");
  report.metric("jobs.samples", static_cast<double>(latency_s.size()), "count");
  report.check(samples_beyond(latency_s, 0.90) >= 10, "at least 10 job samples beyond p90");
  for (const double q : {0.999, 0.99, 0.9}) {
    if (samples_beyond(latency_s, q) >= 10) {
      std::fprintf(stderr, "perfbench: job latency p%g = %.6f s (%zu samples)\n", q * 100,
                   quantile(latency_s, q), latency_s.size());
      break;
    }
  }
}

void report_self_times(Report& report, const SpanLog& log) {
  const std::map<std::string, double> self = log.self_seconds();
  for (const char* layer : {"geom", "hist", "engine", "par", "sim", "view", "service"}) {
    const auto it = self.find(layer);
    report.metric(std::string("self.") + layer + "_s", it == self.end() ? 0.0 : it->second, "s");
  }
  report.metric("trace.spans", static_cast<double>(log.size()), "count");
}

void write_trace(const SpanLog& log, const Options& options) {
  const std::string path = options.out_dir + "/trace-" + options.workload + ".json";
  if (log.write_trace_events(path)) {
    std::fprintf(stderr, "perfbench: trace events -> %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

}  // namespace perfbench
