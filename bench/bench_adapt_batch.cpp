// bench_adapt_batch — Table 5.3's adaptive batch sizing through the engine
// path (the real backend, not the performance model).
//
// Chapter 5 ("Communication vs. Computation"): "Batch size starts with just
// 500 photons per processor and grows as long as overall speed is increased."
// bench_table_5_3_batchsize replays the controller against the modeled 1997
// platforms; this bench runs the actual BatchController inside the engine —
// RunConfig::adapt_batch, which only the serial backend honors (every other
// backend runs a fixed window schedule) — and compares the adaptive run
// against fixed batch sizes on every bundled scene, reporting photons/s and
// the batch-size sequence the controller chose. Writes BENCH_adapt.json with
// the same envelope as BENCH_hotpath/BENCH_comm so every PR leaves a
// comparable trajectory point:
//
//   bench_adapt_batch [--photons=N] [--reps=N] [--out=FILE] [--label=NAME]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "engine/backend.hpp"

using namespace photon;

namespace {

struct Row {
  std::string scene;
  std::string backend;
  std::string mode;  // "fixed-<N>" or "adaptive"
  std::uint64_t photons = 0;
  double wall_s = 0.0;
  double photons_per_sec = 0.0;
  std::vector<std::uint64_t> batch_sizes;  // adaptive runs: controller history
};

Row run_cell(const Scene& scene, const char* scene_name, const std::string& backend_name,
             std::uint64_t photons, bool adaptive, std::uint64_t fixed_batch, int reps) {
  RunConfig cfg;
  cfg.photons = photons;
  cfg.adapt_batch = adaptive;
  if (!adaptive) cfg.batch = fixed_batch;

  Row best;
  for (int rep = 0; rep < reps; ++rep) {
    const auto backend = make_backend(backend_name);
    const RunResult r = backend->run(scene, cfg);
    Row row;
    row.scene = scene_name;
    row.backend = backend_name;
    row.mode = adaptive ? "adaptive" : "fixed-" + std::to_string(fixed_batch);
    row.photons = r.counters.emitted;
    row.wall_s = r.trace.total_time_s;
    if (!r.ranks.empty()) row.batch_sizes = r.ranks[0].batch_sizes;
    if (row.wall_s > 0.0) {
      row.photons_per_sec = static_cast<double>(row.photons) / row.wall_s;
    }
    if (rep == 0 || row.wall_s < best.wall_s) best = row;
  }
  return best;
}

std::string row_json(const Row& r) {
  std::string sizes = "[";
  // Cap the recorded sequence: the shape (500, growth, hover) is in the first
  // rows, and unbounded runs would bloat the artifact.
  const std::size_t cap = std::min<std::size_t>(r.batch_sizes.size(), 16);
  for (std::size_t i = 0; i < cap; ++i) {
    sizes += std::to_string(r.batch_sizes[i]);
    if (i + 1 < cap) sizes += ", ";
  }
  sizes += "]";
  char buf[768];
  std::snprintf(buf, sizeof(buf),
                "{\"scene\": \"%s\", \"backend\": \"%s\", \"mode\": \"%s\", "
                "\"photons\": %llu, \"wall_s\": %.6f, \"photons_per_sec\": %.1f, "
                "\"batch_steps\": %zu, \"batch_sizes\": %s}",
                r.scene.c_str(), r.backend.c_str(), r.mode.c_str(),
                static_cast<unsigned long long>(r.photons), r.wall_s, r.photons_per_sec,
                r.batch_sizes.size(), sizes.c_str());
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t photons = benchutil::arg_u64(argc, argv, "photons", 40000);
  const int reps = std::max(1, static_cast<int>(benchutil::arg_u64(argc, argv, "reps", 3)));
  const std::string out = benchutil::arg_str(argc, argv, "out", "BENCH_adapt.json");
  const std::string label = benchutil::arg_str(argc, argv, "label", "current");

  benchutil::header("Adaptive batching (Table 5.3) — engine path, serial backend");
  std::printf("%-12s %-8s %-12s %10s %6s  %s\n", "scene", "backend", "mode", "photons/s",
              "steps", "batch sequence (first 8)");
  benchutil::rule();

  const std::uint64_t fixed_sweep[] = {500, 2000, 10000};
  std::vector<std::string> rows;
  for (const benchutil::NamedScene& spec : benchutil::bundled_scenes()) {
    std::vector<Row> cells;
    for (const std::uint64_t batch : fixed_sweep) {
      cells.push_back(run_cell(spec.scene, spec.name, "serial", photons, false, batch, reps));
    }
    cells.push_back(run_cell(spec.scene, spec.name, "serial", photons, true, 0, reps));
    for (const Row& row : cells) {
      std::string seq;
      for (std::size_t i = 0; i < std::min<std::size_t>(row.batch_sizes.size(), 8); ++i) {
        seq += std::to_string(row.batch_sizes[i]) + " ";
      }
      std::printf("%-12s %-8s %-12s %10.0f %6zu  %s\n", row.scene.c_str(), row.backend.c_str(),
                  row.mode.c_str(), row.photons_per_sec, row.batch_sizes.size(), seq.c_str());
      rows.push_back(row_json(row));
    }
  }
  std::printf(
      "\nShape to check: adaptive starts at 500 and grows ~1.5x while the measured\n"
      "rate keeps setting highs (Table 5.3); its throughput should land near the\n"
      "best fixed size without hand-tuning.\n");

  char photons_field[64];
  std::snprintf(photons_field, sizeof(photons_field), "\"photons_requested\": %llu",
                static_cast<unsigned long long>(photons));
  return benchutil::write_json_artifact(out, "adapt", label, {photons_field}, rows) ? 0 : 1;
}
