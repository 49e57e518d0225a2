// WorkerPool — the engine's persistent, deterministic work-stealing worker
// pool. Every threaded path in the codebase (each hybrid group's thread
// team, the parallel octree build, the viewer's tile loop) schedules through this service instead of spawning raw std::threads
// per batch.
//
// Two problems with the per-batch spawn/join idiom this replaces:
//
//   1. Spawn overhead on the hot path. hybrid paid a full thread
//      create/destroy cycle per batch WINDOW; at chapter-5 window sizes that
//      is thousands of spawns per run (bench_pool measures the per-batch
//      cost). Pool workers are spawned once and parked on a condition
//      variable between jobs, so dispatching a job costs a wake, not a
//      clone().
//   2. Static splits bake in the Table 5.2 load imbalance. A contiguous
//      ids/T split makes the slowest worker the critical path; the paper
//      measures exactly this skew. The pool schedules CHUNKS dynamically:
//      the index range is cut into fixed-size chunks, each worker owns a
//      contiguous run of them, and an idle worker steals a chunk from the
//      richest victim's tail. The busiest worker sheds work instead of
//      gating the batch.
//
// Determinism contract. The *schedule* (which worker runs which chunk, in
// what order) is wall-clock dependent and unreproducible — but no output may
// depend on it. Callers get a bitwise-deterministic result by construction:
//
//   - each chunk's work is a pure function of the chunk index (per-photon
//     RNG streams, disjoint output rows, private subtree arenas);
//   - each chunk writes only chunk-private state (a per-chunk record
//     buffer, its own image rows, its own arena);
//   - the caller combines chunk outputs in ascending chunk order after
//     run() returns (or writes to disjoint locations needing no combine).
//
// Under that discipline the combined result is bitwise identical for any
// worker count and any steal interleaving — the test hook
// (set_test_schedule) forces adversarial schedules (every worker stealing,
// or a globally shuffled claim order) and the pool unit suite pins that the
// outputs do not move.
//
// Reentrancy: run() called from inside a pool task (e.g. Octree::build
// invoked by a service job that is itself a pool task) executes its chunks
// inline on the calling thread — nested submits cannot deadlock and cannot
// change outputs (the determinism contract is schedule-independent).
// Concurrent run() calls from distinct external threads serialize on the
// job slot; each job still uses the full requested width.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace photon {

// One cache line, the false-sharing quantum for hot per-worker counters.
inline constexpr std::size_t kCacheLineBytes = 64;

// Pads T to a cache line so per-worker slots in a contiguous array never
// share a line — adjacent workers incrementing their own counters must not
// bounce the line between cores (the src/par hot-counter fix).
template <typename T>
struct alignas(kCacheLineBytes) CachePadded {
  T value{};
};
static_assert(alignof(CachePadded<std::uint64_t>) == kCacheLineBytes);

// Per-run() scheduler observability: which worker ran each chunk and how the
// load spread. Imbalance and steal pressure (the Table 5.2 axis) become
// measurable instead of inferred.
struct PoolRunStats {
  std::uint64_t chunks = 0;                    // chunks in this run
  std::uint64_t steals = 0;                    // claims outside the claimer's own range
  std::vector<std::uint64_t> worker_chunks;    // chunks executed, per worker slot
  std::vector<std::uint64_t> worker_steals;    // steals performed, per worker slot
  std::vector<std::int32_t> chunk_worker;      // slot that executed each chunk
};

class WorkerPool {
 public:
  // Test-only schedule perturbation (set_test_schedule): forces adversarial
  // claim orders so the determinism suite can pin that outputs are schedule-
  // independent without waiting for an unlucky preemption.
  enum class TestSchedule {
    kNone,        // production scheduler: own range first, steal from richest
    kForceSteal,  // all chunks start on slot 0's range: every other worker
                  // can only steal, slot 0 fights its thieves for the tail
    kShuffle,     // claim order globally permuted (seeded LCG): chunk->worker
                  // assignment becomes timing noise by design
    kStaticOnly,  // stealing disabled: the pre-pool contiguous static split
                  // (bench_pool's baseline; never use for real work)
  };

  // Spawns `helpers` parked worker threads (the calling thread of run() is
  // always an additional worker). helpers < 0 means hardware_concurrency-1.
  // The pool grows lazily if a later run() asks for more width, so
  // construction cost is paid once per high-water mark, never per batch.
  explicit WorkerPool(int helpers = -1);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Joins every helper. Idempotent: safe to call repeatedly and before/after
  // the destructor's implicit call. run() after shutdown executes inline.
  void shutdown();

  // Helpers currently spawned (not counting callers).
  int helper_count() const;

  // Invokes body(chunk_index, worker_slot) exactly once for every chunk in
  // [0, chunks), on up to `width` concurrent workers: the calling thread
  // claims as slot 0 and up to width-1 parked helpers claim as slots 1+.
  // Blocks until every chunk has run. worker_slot is stable within one
  // chunk's execution and < width — index per-worker accumulators with it.
  //
  // The first exception thrown by any chunk is rethrown here (remaining
  // unclaimed chunks are dropped once a chunk has thrown).
  //
  // `stats`, when non-null, receives the run's schedule telemetry.
  void run(std::uint64_t chunks, int width,
           const std::function<void(std::uint64_t, int)>& body, PoolRunStats* stats = nullptr);

  // The process-lifetime pool every call site shares by default (hybrid at
  // more than one group constructs a private pool per group instead, so G
  // groups can run their windows concurrently). First use spawns it; it
  // parks between runs.
  static WorkerPool& instance();

  // Test-only, process-global: perturbs the claim order of every subsequent
  // run() on every pool. Always restore to kNone (see ScheduleGuard).
  static void set_test_schedule(TestSchedule schedule, std::uint64_t seed = 0);

  // RAII for set_test_schedule in tests.
  struct ScheduleGuard {
    explicit ScheduleGuard(TestSchedule schedule, std::uint64_t seed = 0) {
      set_test_schedule(schedule, seed);
    }
    ~ScheduleGuard() { set_test_schedule(TestSchedule::kNone); }
    ScheduleGuard(const ScheduleGuard&) = delete;
    ScheduleGuard& operator=(const ScheduleGuard&) = delete;
  };

 private:
  struct Impl;
  Impl* impl_;
};

// Serial cut of [0, n) into ceil(n / chunk_size) chunks; chunk c covers
// [c * chunk_size, min((c+1) * chunk_size, n)). One definition so every call
// site and test agrees on the chunk grid.
inline std::uint64_t chunk_count(std::uint64_t n, std::uint64_t chunk_size) {
  if (chunk_size == 0) chunk_size = 1;
  return (n + chunk_size - 1) / chunk_size;
}

}  // namespace photon
