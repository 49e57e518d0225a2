// perfbench — the repo benchmark's program (perfbench/README.md).
//
//   perfbench --workload <cornell-drain|scene-scale|service-mix> --seed <n>
//             --seconds <s> --trace <0|1> --out-dir <dir>
//
// Runs one workload in this process and prints, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Everything
// else goes to stderr. Exits 1 when any check failed.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

using Named = std::pair<const char*, const char*>;  // name, unit

const std::vector<Named> kEndToEnd = {
    {"photons_per_s", "1/s"},        {"serial_photons_per_s", "1/s"},
    {"resume_photons_per_s", "1/s"}, {"view_frames_per_s", "1/s"},
    {"jobs_per_s", "1/s"},           {"job_p50_s", "s"},
    {"job_p90_s", "s"},              {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Layers a workload does not exercise report 0 (README: "Per-layer map").
const std::vector<Named> kPerLayer = {
    {"geom.build_s", "s"},
    {"geom.accel_mb", "MB"},
    {"geom.nodes_per_ray", "count"},
    {"geom.tests_per_ray", "count"},
    {"geom.rays_per_s", "1/s"},
    {"hist.records_per_photon", "count"},
    {"hist.bins", "count"},
    {"hist.forest_mb", "MB"},
    {"pool.steals_per_chunk", "count"},
    {"pool.imbalance", "ratio"},
    {"par.run_s", "s"},
    {"par.speedup", "ratio"},
    {"par.shared.photons_per_s", "1/s"},
    {"par.hybrid.photons_per_s", "1/s"},
    {"par.dist-particle.photons_per_s", "1/s"},
    {"par.dist-spatial.photons_per_s", "1/s"},
    {"mp.bytes_per_photon", "B"},
    {"mp.messages_per_photon", "count"},
    {"mp.wait_s", "s"},
    {"checkpoint.save_s", "s"},
    {"checkpoint.load_s", "s"},
    {"checkpoint.mb", "MB"},
    {"resume.overhead", "ratio"},
    {"view.frame_s", "s"},
    {"service.queue_s", "s"},
    {"service.run_s", "s"},
    {"service.rtt_s", "s"},
    {"service.scene_loads", "count"},
    {"service.connections", "count"},
    {"service.vm_mb", "MB"},
    {"service.vm_mb_per_connection", "MB"},
    {"jobs.samples", "count"},
    {"self.geom_s", "s"},
    {"self.hist_s", "s"},
    {"self.engine_s", "s"},
    {"self.par_s", "s"},
    {"self.sim_s", "s"},
    {"self.view_s", "s"},
    {"self.service_s", "s"},
    {"trace.spans", "count"},
    {"trace.overhead", "ratio"},
};

bool parse(int argc, char** argv, Options& options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && options.seconds > 0.0 && !options.out_dir.empty() &&
         (options.workload == "cornell-drain" || options.workload == "scene-scale" ||
          options.workload == "service-mix");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload cornell-drain|scene-scale|service-mix --seed N "
                 "--seconds S --trace 0|1 --out-dir DIR\n");
    return 2;
  }
  std::filesystem::create_directories(options.out_dir);

  // glibc gives threads up to 8 malloc arenas per core. A run here creates
  // hundreds of short-lived threads (hybrid's groups and pools, the daemon's
  // connections), and which arena each lands in decides how much freed memory
  // stays resident: scene-scale's peak RSS flipped between ~215 and ~315 MB
  // from run to run. One arena per core keeps peak_rss_mb a measure of the
  // workload's memory, and measured no slower.
  mallopt(M_ARENA_MAX, static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));

  Report report;
  for (const Named& m : kPerLayer) report.metric(m.first, 0.0, m.second);
  try {
    if (options.workload == "service-mix") {
      perfbench::run_service_mix(options, report);
    } else {
      perfbench::run_scene_workload(options, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }

  std::vector<std::string> names;
  for (const Named& m : options.trace ? kPerLayer : kEndToEnd) {
    names.emplace_back(m.first);
    if (!report.has(m.first)) report.check(false, std::string("metric reported: ") + m.first);
  }
  std::printf("%s\n", report.json(names).c_str());
  return report.failed() == 0 ? 0 : 1;
}
