// The unified simulation configuration.
//
// One RunConfig drives every backend (serial, hybrid and its `shared` and
// `dist-particle` shapes, dist-spatial); fields a backend does not use are
// simply ignored. This supersedes the seed's four per-substrate config
// structs, which had drifted copies of the same knobs.
//
// Defaults are backend-independent: fixed 10000-photon batches everywhere.
// The chapter-5 adaptive batching is serial-only (adapt_batch, usually with
// a smaller `batch`). Every backend draws photon i from its own RNG block
// (core/rng.hpp photon_stream), so photon i's path never depends on which
// backend, worker or batch traces it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/stats.hpp"
#include "engine/batch.hpp"
#include "mp/fault.hpp"
#include "sim/tracer.hpp"

namespace photon {

class RunControl;  // engine/governor.hpp

struct RunConfig {
  std::uint64_t photons = 100000;  // total across all workers
  std::uint64_t seed = 0x1234ABCD330EULL;

  // Parallel width: threads per group for `hybrid`, the one group's threads
  // for `shared`, the single-thread groups of `dist-particle`, the ranks of
  // `dist-spatial`. Ignored by `serial`.
  int workers = 2;

  // Message-passing groups for the `hybrid` backend (groups × workers total
  // threads: each MiniMPI rank is one multiprocessor "box" running `workers`
  // shared-memory threads). Ignored by every other backend: `shared` and
  // `dist-particle` fix it from `workers` (engine/backend.hpp).
  int groups = 1;

  // Batching. `batch` is the fixed batch size: photons per batch for serial,
  // per rank per round for dist-spatial, and the GLOBAL ids per window for
  // hybrid and its shapes (shared by all groups — shape-independent, which
  // is what makes hybrid's schedule, and so its result, bitwise invariant).
  // When `adapt_batch` is set, serial's BatchController adapts the size to
  // the measured rate instead (chapter 5, "Communication vs. Computation");
  // every other backend ignores it and photon_cli rejects it for them.
  std::uint64_t batch = 10000;
  bool adapt_batch = false;
  BatchPolicy batch_policy{};

  // Photons per scheduling chunk for the pool-backed hybrid backend and its
  // shapes: the photon-id range is cut into `chunk`-photon chunks that idle
  // workers claim/steal dynamically (engine/pool.hpp). Purely a scheduling
  // grain — per-chunk record buffers apply in ascending chunk order, so the
  // populated forest is bitwise identical for ANY chunk size, worker count,
  // or steal interleaving. Clamped to >= 1.
  std::uint64_t chunk = 64;

  // When non-empty, every speed-trace point — and, for serial, every
  // bin-forest memory point — streams to this file (JSONL, one point per
  // line, appended as it is sampled) instead of accumulating in
  // RunResult::trace.points / RunResult::memory — a multi-hour run's
  // telemetry no longer grows resident memory. Totals
  // (total_photons/total_time_s/final_rate) are still filled in the returned
  // trace.
  std::string trace_path;

  // Hybrid load balancing across groups: probe photons (k) and assignment
  // strategy. Unused at one group, which owns every tree.
  std::uint64_t lb_photons = 2000;
  bool bestfit = true;  // false: naive contiguous ownership

  // Acceleration structure for every index the run builds: the scene's global
  // index (built by the caller via Scene::set_accel) and dist-spatial's
  // per-region local indexes. All structures answer queries bitwise
  // identically, so this is a performance knob, not a semantics one.
  AccelKind accel = AccelKind::kOctree;

  SplitPolicy policy{};
  TraceLimits limits{};

  // --- Fault tolerance (mp/fault.hpp; engine/recovery.hpp) ----------------
  // Scripted fault injection for the MiniMPI world the message-passing
  // backends run in. Shared (not owned per run) so a consumed fault stays consumed
  // across the elastic runner's recovery legs. Null disables injection.
  std::shared_ptr<FaultPlan> fault_plan;
  // Deadline/heartbeat policy for every blocking MiniMPI path. The default
  // (deadline 0) is the historical block-forever behavior; setting a
  // deadline turns hangs into typed CommErrors and, with `heartbeats`,
  // arms the failure detector.
  CommPolicy comm{};
  // Elastic-runner leg size: run_elastic cuts the run into legs of this many
  // photons, holding the last completed leg's RunResult as the in-memory
  // checkpoint a recovery rewinds to. Rounded down to a whole number of
  // `batch` windows, so a governed stop and a leg end fall on the same
  // boundaries.
  // 0 = one leg (no intermediate checkpoints: a failure re-traces the run).
  std::uint64_t checkpoint_photons = 0;
  // World failures tolerated before run_elastic gives up and rethrows.
  int max_recoveries = 8;

  // --- Run governance (engine/governor.hpp) -------------------------------
  // Governed runs poll the preempt flag and the memory budget at window
  // boundaries and stop gracefully with a non-kComplete RunStatus. Off by
  // default: governance adds one allreduce per window on the message-passing
  // backends, and collectives must be unconditional across ranks — so the
  // flag must be identical on every rank of a world (the CLI always sets it;
  // library callers opt in).
  bool governed = false;
  // Watchdog deadline: no Progress tick for this many seconds makes the run
  // suspect; none for a further watchdog_grace_s declares it wedged
  // (emergency checkpoint + typed abort). 0 disables the watchdog.
  double watchdog_s = 0.0;
  double watchdog_grace_s = 0.0;  // 0 = same as watchdog_s
  // Planning + runtime memory budget in bytes (0 = unlimited). Admission
  // coarsens the accel or refuses the run (govern_admission); governed runs also
  // stop with RunStatus::kOverBudget when the summed forest footprint
  // crosses it mid-run.
  std::uint64_t memory_budget = 0;
  // Where the watchdog's emergency callback flushes the last completed leg
  // when a run is declared wedged (empty = no emergency checkpoint).
  std::string emergency_checkpoint_path;
  // Last-resort _Exit(6) when a wedge is unreachable by world poisoning
  // (e.g. a stuck compute loop). CLI-only; never set in library use.
  bool watchdog_exit = false;
  // Per-run governance scope (engine/governor.hpp). When set, the governed
  // loops poll THIS control's preempt flag and tick ITS Progress beacon
  // instead of the process globals — the photon service attaches one per job
  // so cancelling or watching one job never touches another. Null keeps the
  // historical process-global behavior (the CLI path).
  std::shared_ptr<RunControl> control;
};

}  // namespace photon
