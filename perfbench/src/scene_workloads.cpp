// cornell-drain and scene-scale: one scene, driven in rounds for the run's
// whole measuring time. Each round runs
//
//   jobs    a closed loop of one in-process client running governed 4-thread
//           runs (run_elastic, as photon_cli configures them) back to back —
//           photons_per_s, jobs_per_s and the per-job latency samples
//   serial  the same scene on the `serial` backend (the paper's baseline)
//   view    a seeded camera path rendered from the job's answer
//   resume  a photon budget as k checkpointed legs, each building its own
//           scene, then a few more timed scene builds for setup_s
//
// Every round repeats the same seeded inputs, so each answer must equal the
// first round's bit for bit; a round's rate is one sample, and the reported
// figure is the median over rounds. Traced runs alternate traced and
// untraced rounds so the tracing overhead is measured in one process.
#include <algorithm>
#include <cstdio>
#include <string>

#include "city.hpp"
#include "engine/pool.hpp"
#include "geom/scenes.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace photon;

namespace {

constexpr int kMinJobSamples = 110;

struct SceneWorkload {
  std::string backend;
  int workers = 4;
  int groups = 1;
  std::uint64_t job_photons = 0;  // photons per job
  int jobs_per_round = 0;
  std::uint64_t serial_photons = 0;
  std::uint64_t resume_photons = 0;  // straight-run budget the resume legs split
  int legs = 2;                      // resume_photons / legs: whole batches
  int frames = 0;
  int width = 320;
  int height = 240;
  SceneBuilder build;
};

SceneWorkload workload_for(const Options& options) {
  SceneWorkload w;
  if (options.workload == "cornell-drain") {
    w.backend = "shared";
    w.workers = 4;
    w.job_photons = 100000;
    w.jobs_per_round = 12;
    w.serial_photons = 200000;
    w.resume_photons = 400000;
    w.legs = 4;
    w.frames = 24;
    w.build = [] {
      Span span("geom", "scenes::cornell_box (+Scene::build)");
      auto scene = std::make_unique<Scene>(scenes::cornell_box());
      validate_scene(*scene);
      return scene;
    };
  } else {
    w.backend = "hybrid";
    w.workers = 2;
    w.groups = 2;
    w.job_photons = 30000;
    w.jobs_per_round = 10;
    w.serial_photons = 40000;
    w.resume_photons = 40000;
    w.legs = 2;
    w.frames = 8;
    const std::uint64_t seed = options.seed;
    w.build = [seed] {
      auto scene = std::make_unique<Scene>();
      {
        Span span("geom", "Scene::add_patch (city)");
        add_city(*scene, seed);
      }
      validate_scene(*scene);
      Span span("geom", "Scene::build");
      scene->build();
      return scene;
    };
  }
  return w;
}

// Samples of one kind, split by whether the round was traced.
struct Samples {
  std::vector<double> untraced, traced;
  void add(bool is_traced, double v) { (is_traced ? traced : untraced).push_back(v); }
};

}  // namespace

void run_scene_workload(const Options& options, Report& report) {
  const SceneWorkload w = workload_for(options);
  const std::string ckpt = options.out_dir + "/resume.ckpt";

  // ---- set-up ---------------------------------------------------------------
  // The process-wide worker pool spawns its helpers once per process, so its
  // warm-up cannot be repeated: it runs first, untimed. setup_s is the median
  // scene build (generation or load, validation, accel build) over a burst
  // here and a few more builds after every round, so its samples span the
  // same stretch of time as every other metric's.
  WorkerPool::instance().run(4, 4, [](std::uint64_t, int) {});
  std::vector<double> setup_s;
  std::unique_ptr<Scene> scene;
  const auto time_builds = [&](double budget_s, std::size_t min_reps) {
    const auto b0 = Clock::now();
    for (std::size_t n = 0; n < min_reps || seconds_since(b0) < budget_s; ++n) {
      scene.reset();  // one scene at a time, as in a photon_cli process
      const auto t0 = Clock::now();
      scene = w.build();
      setup_s.push_back(seconds_since(t0));
    }
  };
  time_builds(0.1, 5);
  std::fprintf(stderr,
               "perfbench: %s scene '%s': %zu patches, %zu luminaires, %s accel %zu nodes\n",
               options.workload.c_str(), scene->name().c_str(), scene->patch_count(),
               scene->luminaires().size(), accel_kind_name(scene->accel_kind()),
               scene->accel().node_count());

  SpanLog log(options.workload);
  const RunConfig job_config = cli_config(w.job_photons, options.seed, w.workers, w.groups);
  const RunConfig serial_config = cli_config(w.serial_photons, options.seed, 1, 1);

  RunResult reference;         // round 0's first job: every later job must equal it
  BinForest serial_reference;  // round 0's serial answer
  const RunConfig resume_config = cli_config(w.resume_photons, options.seed, w.workers, w.groups);
  const BinForest straight = governed_run(w.backend, *scene, resume_config).forest;
  std::uint64_t view_checksum = 0;
  Samples job_s, par_rate, serial_rate, resume_rate, frame_s, frames_per_s, save_s, load_s,
      steals, imbalance, wait_s;
  double checkpoint_mb = 0.0;

  // Enough rounds that >= 10 job samples lie beyond p90, however slow the
  // host; traced runs need twice as many, half of them untraced.
  const int min_rounds =
      (options.trace ? 2 : 1) * ((kMinJobSamples + w.jobs_per_round - 1) / w.jobs_per_round);
  const auto t0 = Clock::now();
  for (int round = 0; round < min_rounds || seconds_since(t0) < options.seconds; ++round) {
    const bool traced = options.trace && round % 2 == 1;
    SpanLog::install(traced ? &log : nullptr);

    double jobs_wall = 0.0;
    for (int j = 0; j < w.jobs_per_round; ++j) {
      const auto j0 = Clock::now();
      RunResult result = governed_run(w.backend, *scene, job_config);
      const double dt = seconds_since(j0);
      jobs_wall += dt;
      job_s.add(traced, dt);
      report.check(conserved(result, w.job_photons), "job conserves photons");
      const PoolMeters pool = pool_meters(result);
      steals.add(traced, pool.steals_per_chunk);
      imbalance.add(traced, pool.imbalance);
      wait_s.add(traced, wire_meters(result).wait_s);
      if (round == 0 && j == 0) {
        reference = std::move(result);
        continue;
      }
      const WireMeters a = wire_meters(result), b = wire_meters(reference);
      report.check(same_forest(result.forest, reference.forest),
                   "job answer repeats bit for bit");
      report.check(a.bytes_per_photon == b.bytes_per_photon &&
                       a.messages_per_photon == b.messages_per_photon &&
                       result.forest.total_tally_all() == reference.forest.total_tally_all(),
                   "exact meters repeat across jobs");
    }
    par_rate.add(traced, static_cast<double>(w.job_photons) * w.jobs_per_round / jobs_wall);
  
    {
      const auto r0 = Clock::now();
      RunResult serial = governed_run("serial", *scene, serial_config);
      serial_rate.add(traced, static_cast<double>(w.serial_photons) / seconds_since(r0));
      report.check(conserved(serial, w.serial_photons), "serial run conserves photons");
      if (round == 0) {
        serial_reference = std::move(serial.forest);
      } else {
        report.check(same_forest(serial.forest, serial_reference),
                     "serial answer repeats bit for bit");
      }
    }

    {
      const ViewRun view =
          render_path(*scene, reference.forest, options.seed, w.frames, w.width, w.height);
      double total = 0.0;
      for (double s : view.frame_s) {
        frame_s.add(traced, s);
        total += s;
      }
      frames_per_s.add(traced, w.frames / total);
      report.count(static_cast<std::uint64_t>(w.frames));
      if (round == 0) {
        view_checksum = view.checksum;
      } else {
        report.check(view.checksum == view_checksum, "render checksum repeats");
      }
    }
    // Each resume leg builds its own scene, as a resumed photon_cli process
    // does, so the round's scene is released first and rebuilt afterwards.
      scene.reset();
    {
      const ResumeRun resumed = resume_in_legs(w.build, w.backend, resume_config, w.legs, ckpt);
      resume_rate.add(traced, static_cast<double>(w.resume_photons) / resumed.wall_s);
      for (double s : resumed.save_s) save_s.add(traced, s);
      for (double s : resumed.load_s) load_s.add(traced, s);
      checkpoint_mb = resumed.checkpoint_mb;
      report.check(resumed.ok, "every resume leg loads, conserves and saves");
      report.check(same_forest(resumed.result.forest, straight),
                   "resumed answer equals the straight run's");
    }

      SpanLog::install(nullptr);
    time_builds(0.02, 1);
    }

  report.metric("photons_per_s", median(par_rate.untraced), "1/s");
  report.metric("serial_photons_per_s", median(serial_rate.untraced), "1/s");
  report.metric("resume_photons_per_s", median(resume_rate.untraced), "1/s");
  report.metric("view_frames_per_s", median(frames_per_s.untraced), "1/s");
  report.metric("jobs_per_s", median(par_rate.untraced) / static_cast<double>(w.job_photons),
                "1/s");
  report_job_latency(report, job_s.untraced);
  report.metric("setup_s", median(setup_s), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");

  if (!options.trace) return;

  // ---- traced-only layer meters ----------------------------------------------
  SpanLog::install(&log);
  std::vector<double> build_s;
  for (int i = 0; i < 3; ++i) {
    Span span("geom", "Scene::build");
    const auto b0 = Clock::now();
    scene->build();
    build_s.push_back(seconds_since(b0));
  }
  report.metric("geom.build_s", median(build_s), "s");
  report.metric("geom.accel_mb", static_cast<double>(scene->accel().memory_bytes()) / 1e6, "MB");
  const GeomProbe probe = probe_geometry(*scene, options.seed, 50000);
  report.metric("geom.nodes_per_ray", static_cast<double>(probe.nodes) / probe.rays, "count");
  report.metric("geom.tests_per_ray", static_cast<double>(probe.tests) / probe.rays, "count");
  report.metric("geom.rays_per_s", probe.rays_per_s, "1/s");

  report_forest(report, reference);
  report.metric("pool.steals_per_chunk", median(steals.traced), "count");
  report.metric("pool.imbalance", median(imbalance.traced), "ratio");
  report.metric("par.run_s", median(job_s.traced), "s");
  report.metric("par.speedup", median(par_rate.traced) / median(serial_rate.traced), "ratio");

  // The 4-thread backend matrix on this scene: Backend::run directly.
  struct Shape {
    const char* backend;
    int workers, groups;
  };
  for (const Shape& s : {Shape{"shared", 4, 1}, Shape{"hybrid", 2, 2}, Shape{"dist-particle", 4, 1},
                         Shape{"dist-spatial", 4, 1}}) {
    const std::unique_ptr<Backend> backend = make_backend(s.backend);
    RunConfig config = cli_config(w.job_photons, options.seed, s.workers, s.groups);
    std::vector<double> rate;
    for (int rep = 0; rep < 3; ++rep) {
      Span span("par", std::string("Backend::run ") + s.backend);
      const auto r0 = Clock::now();
      const RunResult result = backend->run(*scene, config);
      rate.push_back(static_cast<double>(w.job_photons) / seconds_since(r0));
      report.check(conserved(result, w.job_photons), std::string(s.backend) + " conserves photons");
    }
    report.metric(std::string("par.") + s.backend + ".photons_per_s", median(rate), "1/s");
  }

  const WireMeters wire = wire_meters(reference);
  report.metric("mp.bytes_per_photon", wire.bytes_per_photon, "B");
  report.metric("mp.messages_per_photon", wire.messages_per_photon, "count");
  report.metric("mp.wait_s", median(wait_s.traced), "s");
  report.metric("checkpoint.save_s", median(save_s.traced), "s");
  report.metric("checkpoint.load_s", median(load_s.traced), "s");
  report.metric("checkpoint.mb", checkpoint_mb, "MB");
  report.metric("resume.overhead", median(par_rate.traced) / median(resume_rate.traced) - 1.0,
                "ratio");
  report.metric("view.frame_s", median(frame_s.traced), "s");
  SpanLog::install(nullptr);

  report_self_times(report, log);
  report.metric("trace.overhead", median(par_rate.untraced) / median(par_rate.traced) - 1.0,
                "ratio");
  write_trace(log, options);
}

}  // namespace perfbench
