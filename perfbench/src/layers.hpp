// The benchmark's calls into the photon library, each wrapped in a span
// (spans.hpp) and, where the layer exposes one, the count read back from
// its result. Shared by every workload.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/backend.hpp"
#include "geom/scene.hpp"

namespace perfbench {

// What the run command line asked for.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // checkpoints, sockets and the trace file live here
};

// Builds a workload's scene from scratch: generation or load, validation,
// accel build — what photon_cli does before its first photon.
using SceneBuilder = std::function<std::unique_ptr<photon::Scene>()>;

// A governed run configured the way photon_cli's `simulate` configures it:
// default accel, batch and chunk; `governed` on.
photon::RunConfig cli_config(std::uint64_t photons, std::uint64_t seed, int workers, int groups);

// run_elastic through the named backend.
photon::RunResult governed_run(const std::string& backend, const photon::Scene& scene,
                               const photon::RunConfig& config,
                               const photon::RunResult* resume = nullptr);

// absorbed + escaped + terminated == emitted == requested, and the run
// completed.
bool conserved(const photon::RunResult& result, std::uint64_t requested);

// BinForest::operator==, traced as a hist call.
bool same_forest(const photon::BinForest& a, const photon::BinForest& b);

// Seeded probe rays (origins inside the scene bounds, uniform directions),
// run one thread through intersect_counted for the exact traversal counts
// and through intersect for the rate.
struct GeomProbe {
  std::uint64_t rays = 0;
  std::uint64_t nodes = 0;
  std::uint64_t tests = 0;
  double rays_per_s = 0.0;
};
GeomProbe probe_geometry(const photon::Scene& scene, std::uint64_t seed, std::size_t rays);

// The same photon budget as k legs, each paying what a preempted CLI job
// pays: scene build, load_checkpoint (after the first leg), the governed
// run, and the atomic save_checkpoint.
struct ResumeRun {
  double wall_s = 0.0;
  std::vector<double> save_s;
  std::vector<double> load_s;
  double checkpoint_mb = 0.0;
  bool ok = true;  // every leg loaded, conserved and saved
  photon::RunResult result;
};
ResumeRun resume_in_legs(const SceneBuilder& build, const std::string& backend,
                         const photon::RunConfig& config, int legs, const std::string& path);

// Frames of a seeded camera path rendered from a finished answer with
// view::render at 4 threads; the checksum covers every pixel of every frame.
struct ViewRun {
  std::vector<double> frame_s;
  std::uint64_t checksum = 0;
};
ViewRun render_path(const photon::Scene& scene, const photon::BinForest& forest,
                    std::uint64_t seed, int frames, int width, int height);

// Exact hist meters of one answer: records per photon, bins, forest MB.
void report_forest(Report& report, const photon::RunResult& result);

// Wire meters summed over the rank reports (zero for backends without
// ranks): bytes and messages per photon are exact, wait time is not.
struct WireMeters {
  double bytes_per_photon = 0.0;
  double messages_per_photon = 0.0;
  double wait_s = 0.0;
};
WireMeters wire_meters(const photon::RunResult& result);

// Pool telemetry: steals per chunk and max/mean photons per worker slot.
struct PoolMeters {
  double steals_per_chunk = 0.0;
  double imbalance = 0.0;
};
PoolMeters pool_meters(const photon::RunResult& result);

// job_p50_s, job_p90_s and their sample count (jobs.samples). Fails a check
// unless >= 10 samples lie beyond p90, and names on stderr the highest
// percentile that has 10 samples beyond it.
void report_job_latency(Report& report, const std::vector<double>& latency_s);

// Per-layer self time from the traced rounds, as self.<layer>_s metrics.
class SpanLog;
void report_self_times(Report& report, const SpanLog& log);

// Writes the trace-event JSON for the workload under out_dir and says where
// on stderr.
void write_trace(const SpanLog& log, const Options& options);

}  // namespace perfbench
