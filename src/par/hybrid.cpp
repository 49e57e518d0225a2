#include "par/hybrid.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <span>

#include "engine/governor.hpp"
#include "engine/pool.hpp"
#include "engine/sink.hpp"
#include "engine/wire.hpp"
#include "mp/minimpi.hpp"
#include "par/gather.hpp"
#include "sim/emitter.hpp"

namespace photon {

namespace {

// Message channels: records ride their own tag, the end-of-run tree gather
// another, so gather waits stay out of the record-exchange wait telemetry.
constexpr int kTagRecords = 0;
constexpr int kTagGather = 1;

// Start of part `i` when `n` items are split into `parts` contiguous slices
// (floor partition: slice i is [begin(i), begin(i+1)), sizes differ by at
// most one, concatenation covers [0, n) in order).
std::uint64_t slice_begin(std::uint64_t n, int parts, int i) {
  return n * static_cast<std::uint64_t>(i) / static_cast<std::uint64_t>(parts);
}

// Chunk-private record buffer: traced records accumulate in trace order and
// are read on the group thread in ascending chunk order, so a group's
// window records reassemble in ascending photon-id order no matter which
// worker claimed (or stole) which chunk.
class BufferSink final : public BinSink {
 public:
  explicit BufferSink(std::vector<BounceRecord>& out) : out_(&out) {}
  void record(const BounceRecord& rec) override { out_->push_back(rec); }

 private:
  std::vector<BounceRecord>* out_;
};

}  // namespace

RunResult run_hybrid(const Scene& scene, const RunConfig& config, const RunResult* resume) {
  const int G = std::max(config.groups, 1);
  const int T = std::max(config.workers, 1);
  const std::uint64_t window = std::max<std::uint64_t>(config.batch, 1);
  // Photon ids continue where the checkpoint stopped (ids index disjoint RNG
  // blocks, exactly like dist-spatial): the resumed leg traces the same
  // photons an uninterrupted run would have traced next.
  const std::uint64_t first_photon = resume ? resume->counters.emitted : 0;
  const std::uint64_t last_photon = first_photon + config.photons;

  RunResult result;
  result.ranks.resize(static_cast<std::size_t>(G));
  std::mutex result_mutex;  // harness-side collection only

  // Ownership is a pure function of (scene, config) — computed once and
  // shared (on MPI the G replicated probes run concurrently and cost one
  // probe of wall time). One group owns every tree whatever the loads, so
  // it skips the probe.
  const LoadBalance balance = [&] {
    if (G == 1) return assign_naive(std::vector<std::uint64_t>(scene.patch_count(), 0), 1);
    const std::vector<std::uint64_t> loads =
        measure_patch_loads(scene, config.lb_photons, config.seed ^ 0x9E3779B97F4A7C15ULL);
    return config.bestfit ? assign_bestfit(loads, G) : assign_naive(loads, G);
  }();

  // Fault plan and deadline/heartbeat policy ride in from the config; the
  // defaults are a no-fault, block-forever world (mp/fault.hpp).
  WorldOptions world_options;
  world_options.plan = config.fault_plan.get();
  world_options.policy = config.comm;

  run_world(G, world_options, [&](Comm& comm) {
    const int rank = comm.rank();
    const int P = comm.size();
    SpeedSampler sampler(rank == 0 ? config.trace_path : std::string(), first_photon);

    BinForest forest(scene.patch_count(), config.policy);
    const Emitter emitter(scene);
    forest.set_total_power(emitter.total_power());
    const Tracer tracer(scene, config.limits);
    if (resume) {
      // Fold the checkpoint's owned trees into this group's virgin partition
      // (lossless — virgin trees adopt the checkpoint structure wholesale).
      forest.merge_owned_trees(resume->forest, balance.owner, rank);
    }

    RankReport report;
    WireBuffer wire(P);
    OrderedRouter router(forest, balance.owner, rank, wire, report.processed);

    // This group's worker team, parked between windows and reused for every
    // window of the run. One group runs on the process-wide pool, which
    // spawns no thread per run; several groups get one private pool each,
    // spawned here, so their windows schedule concurrently instead of
    // serializing on the shared pool's job slot.
    const std::uint64_t chunk_size = std::max<std::uint64_t>(config.chunk, 1);
    std::unique_ptr<WorkerPool> group_pool;
    if (P > 1) group_pool = std::make_unique<WorkerPool>(T - 1);
    WorkerPool& pool = group_pool ? *group_pool : WorkerPool::instance();

    // Per-worker hot counters in cache-line-padded slots (workers bump only
    // their own line); per-chunk record buffers are applied (and emptied)
    // every window.
    std::vector<std::vector<BounceRecord>> buffers;
    std::vector<CachePadded<TraceCounters>> counters(static_cast<std::size_t>(T));
    std::vector<CachePadded<ChannelCounts>> emitted(static_cast<std::size_t>(T));
    PoolTelemetry pool_stats;
    pool_stats.chunk_size = chunk_size;
    pool_stats.worker_chunks.assign(static_cast<std::size_t>(T), 0);
    pool_stats.worker_steals.assign(static_cast<std::size_t>(T), 0);
    pool_stats.worker_photons.assign(static_cast<std::size_t>(T), 0);

    RunStatus status = RunStatus::kComplete;
    std::uint64_t window_start = first_photon;
    // Window indices label the whole run, not one leg: a resumed leg
    // continues the numbering, so a scripted fault can name a mid-run window
    // regardless of how the elastic runner cut the checkpoint legs.
    std::uint64_t window_index = first_photon / window;

    while (window_start < last_photon) {
      // Liveness tick (the heartbeat the failure detector reads) and the
      // scripted before-batch kill point. None of the fault hooks touch RNG
      // or record order, so the bitwise shape-invariance contract holds.
      comm.batch_tick(window_index);
      const std::uint64_t window_end = std::min(window_start + window, last_photon);
      const std::uint64_t n = window_end - window_start;
      // This group's contiguous id slice of the window, cut into chunks.
      const std::uint64_t group_lo = window_start + slice_begin(n, P, rank);
      const std::uint64_t group_hi = window_start + slice_begin(n, P, rank + 1);
      const std::uint64_t group_n = group_hi - group_lo;

      const std::uint64_t chunks = chunk_count(group_n, chunk_size);
      if (buffers.size() < chunks) buffers.resize(chunks);
      const std::span<std::vector<BounceRecord>> records(buffers.data(), chunks);

      PoolRunStats stats;
      pool.run(
          chunks, T,
          [&](std::uint64_t c, int slot) {
            const std::uint64_t lo = group_lo + c * chunk_size;
            const std::uint64_t hi = std::min(lo + chunk_size, group_hi);
            BufferSink chunk_sink(records[c]);
            TraceCounters& mine = counters[static_cast<std::size_t>(slot)].value;
            ChannelCounts& mine_emitted = emitted[static_cast<std::size_t>(slot)].value;
            PhotonStreams streams(config.seed, lo);
            for (std::uint64_t id = lo; id < hi; ++id) {
              Lcg48 rng = streams.next();
              const EmissionSample emission = emitter.emit(rng);
              ++mine_emitted[static_cast<std::size_t>(emission.channel)];
              tracer.trace(emission, rng, chunk_sink, &mine);
            }
          },
          &stats);
      pool_stats.chunks += stats.chunks;
      pool_stats.steals += stats.steals;
      for (std::size_t s = 0; s < stats.worker_chunks.size(); ++s) {
        pool_stats.worker_chunks[s] += stats.worker_chunks[s];
        pool_stats.worker_steals[s] += stats.worker_steals[s];
      }
      report.traced += group_n;
      report.batch_sizes.push_back(group_n);

      // The window's exchange, synchronous: foreign records go on the wire
      // in ascending chunk order, every peer's bytes are collected, and the
      // whole window applies in source-group order — global photon-id order
      // — with this group's own records read straight from its buffers.
      if (P > 1) {
        for (const std::vector<BounceRecord>& chunk_records : records) router.route(chunk_records);
      }
      PendingExchange exchange = comm.alltoall_start(wire.take(), kTagRecords);
      // Mid-exchange kill point: sends posted, finish outstanding.
      comm.fault_point(FaultPoint::kMidExchange, window_index);
      router.apply_window(records, exchange.finish());
      for (std::vector<BounceRecord>& chunk_records : records) chunk_records.clear();
      ++report.rounds;

      // One speed point per window on the agreed clock.
      const double agreed = comm.allreduce_max(sampler.elapsed());
      if (rank == 0) sampler.sample_at(agreed, window_end - first_photon);

      comm.fault_point(FaultPoint::kAfterBatch, window_index);
      progress_tick(config, "hybrid", window_index);
      ++window_index;
      window_start = window_end;
      // Every rank runs the same stop check at the same window and gets the
      // same answer, so all ranks break together with nothing in flight.
      status = governed_stop(config, forest, &comm);
      if (status != RunStatus::kComplete) break;
    }
    // One more liveness tick so the gather below is not instantly stale to
    // a peer's failure detector.
    comm.heartbeat(window_index + 1);

    // Fold per-thread state, then gather: owned trees to rank 0 as binary
    // frames, emission totals via allreduce (par/gather.hpp — shared with
    // dist-spatial).
    ChannelCounts rank_emitted{};
    for (int tid = 0; tid < T; ++tid) {
      const auto ti = static_cast<std::size_t>(tid);
      report.counters += counters[ti].value;
      pool_stats.worker_photons[ti] = counters[ti].value.emitted;
      for (int c = 0; c < kNumChannels; ++c) {
        rank_emitted[static_cast<std::size_t>(c)] +=
            emitted[ti].value[static_cast<std::size_t>(c)];
      }
    }
    gather_partitioned_forest(comm, forest, balance.owner, rank_emitted,
                              resume ? &resume->forest : nullptr, kTagGather);

    report.sent_bytes = comm.bytes_sent();
    report.sent_messages = comm.messages_sent();
    report.deadline_retries = comm.deadline_retries();
    report.wait_seconds = comm.wait_seconds(kTagRecords);

    {
      std::lock_guard<std::mutex> lock(result_mutex);
      result.ranks[static_cast<std::size_t>(rank)] = std::move(report);
      // Group-major pool telemetry: slot group*T+tid is thread tid of this
      // group.
      if (result.pool.worker_photons.empty()) {
        result.pool.chunk_size = chunk_size;
        result.pool.worker_photons.assign(static_cast<std::size_t>(G) * T, 0);
        result.pool.worker_chunks.assign(static_cast<std::size_t>(G) * T, 0);
        result.pool.worker_steals.assign(static_cast<std::size_t>(G) * T, 0);
      }
      result.pool.chunks += pool_stats.chunks;
      result.pool.steals += pool_stats.steals;
      for (int tid = 0; tid < T; ++tid) {
        const auto slot = static_cast<std::size_t>(rank) * T + static_cast<std::size_t>(tid);
        const auto ti = static_cast<std::size_t>(tid);
        result.pool.worker_photons[slot] = pool_stats.worker_photons[ti];
        result.pool.worker_chunks[slot] = pool_stats.worker_chunks[ti];
        result.pool.worker_steals[slot] = pool_stats.worker_steals[ti];
      }
      if (rank == 0) {
        result.forest = std::move(forest);
        result.balance = balance;
        result.trace = sampler.finish(window_start - first_photon);
        result.status = status;  // identical on every rank (same sum)
      }
    }
  });

  for (const RankReport& report : result.ranks) result.counters += report.counters;
  if (resume) result.counters += resume->counters;
  return result;
}

}  // namespace photon
