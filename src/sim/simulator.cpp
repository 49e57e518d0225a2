#include "sim/simulator.hpp"

#include "engine/governor.hpp"
#include "sim/emitter.hpp"

namespace photon {

RunResult run_serial(const Scene& scene, const RunConfig& config,
                     const RunResult* resume_from) {
  RunResult result;
  // In photon-stream mode ids index disjoint RNG blocks; a resumed leg simply
  // continues the id sequence, which is inherently a bitwise continuation.
  std::uint64_t next_photon = resume_from ? resume_from->counters.emitted : 0;
  Lcg48 rng(config.seed);
  if (resume_from) {
    result.forest = resume_from->forest;
    result.counters = resume_from->counters;
    if (config.photon_streams) {
      // next_photon carries the whole continuation state.
    } else if (resume_from->rng_mul != 0) {
      rng.set_raw(resume_from->rng_state, resume_from->rng_mul, resume_from->rng_add);
    } else {
      // Checkpoint from a backend with no single generator state (hybrid
      // and its shapes, dist-spatial): adopting raw zeros would degenerate the LCG to a constant
      // stream. Continue on a disjoint block of the global sequence instead,
      // far past anything the first leg can have drawn (same 4096-element
      // blocks as the per-photon streams).
      rng.skip(resume_from->counters.emitted * kPhotonStreamBlock);
    }
  } else {
    result.forest = BinForest(scene.patch_count(), config.policy);
  }

  const Emitter emitter(scene);
  result.forest.set_total_power(emitter.total_power());
  const Tracer tracer(scene, config.limits);
  ForestSink sink(result.forest);

  SpeedSampler sampler(config.trace_path,
                       resume_from ? resume_from->counters.emitted : 0);
  BatchController controller(config.batch_policy);
  std::uint64_t done = 0;
  double prev_t = 0.0;
  while (done < config.photons) {
    std::uint64_t batch = config.adapt_batch ? controller.size() : config.batch;
    if (batch > config.photons - done) batch = config.photons - done;
    if (batch == 0) batch = 1;
    for (std::uint64_t i = 0; i < batch; ++i) {
      if (config.photon_streams) rng = photon_stream(config.seed, next_photon++);
      const EmissionSample emission = emitter.emit(rng);
      result.forest.add_emitted(emission.channel);
      tracer.trace(emission, rng, sink, &result.counters);
    }
    done += batch;

    const double t = sampler.elapsed();
    sampler.sample_at(t, done);
    sampler.sample_memory(done, result.forest.memory_bytes());
    if (config.adapt_batch) {
      const double batch_time = t - prev_t;
      controller.update(batch_time > 0.0 ? static_cast<double>(batch) / batch_time : 0.0);
    }
    prev_t = t;
    progress_tick(config, "serial", done);
    if (config.max_seconds > 0.0 && t >= config.max_seconds) break;
    result.status = governed_stop(config, result.forest);
    if (result.status != RunStatus::kComplete) break;
  }

  result.trace = sampler.finish(done);
  result.memory = sampler.take_memory();
  if (config.adapt_batch) {
    // Surface the controller's size sequence (the Table 5.3 telemetry) as
    // rank 0's report.
    result.ranks.resize(1);
    result.ranks[0].traced = done;
    result.ranks[0].batch_sizes = controller.history();
  }
  result.rng_state = rng.state();
  result.rng_mul = rng.stride_mul();
  result.rng_add = rng.stride_add();
  return result;
}

}  // namespace photon
