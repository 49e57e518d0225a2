// Hybrid decomposition — the engine's `hybrid` backend: message passing
// between groups, shared memory within them. The `shared` and
// `dist-particle` backends are this backend at one group and at one thread
// per group (engine/backend.hpp).
//
// The paper's target machine is a cluster of multiprocessor nodes: MPI
// between boxes, threads inside each box. This backend runs
// `config.groups` MiniMPI ranks ("boxes"), each with `config.workers`
// shared-memory threads: geometry replicated, bin forest partitioned across
// groups by the probe-driven load balancer, foreign records serialized
// through OrderedRouter/WireBuffer into a per-window all-to-all, trees
// gathered to rank 0 as binary frames.
//
// Determinism contract: the populated forest is bitwise identical for
// EVERY (groups × threads) shape, chunk size, and steal interleaving, and
// equal to the serial reference (run_serial).
// Three mechanisms compose to guarantee it:
//
//   1. Per-photon RNG streams (core/rng.hpp photon_stream, stepped through
//      each chunk by PhotonStreams): photon i's path is a pure function of
//      (scene, seed, i), whoever traces it.
//   2. Contiguous id slices, chunked scheduling: each batch window of ids is
//      split contiguously across groups; each group cuts its slice into a
//      `config.chunk`-photon chunk grid that its WorkerPool (engine/pool.hpp:
//      the process-wide pool at one group, else one private pool per group
//      spawned once per run) schedules dynamically —
//      idle workers claim and steal chunks into chunk-private record
//      buffers, read in ascending chunk order, so a group's window records
//      come out in ascending photon-id order regardless of which worker
//      traced which chunk when.
//   3. Canonical window application (OrderedRouter::apply_window): the
//      window's exchange completes before anything is applied, then the
//      window's records apply to the owner trees in source-group order —
//      which, with contiguous slices, IS global photon-id order.
//
// Resume folds a checkpoint into the partitioned trees (BinForest::merge)
// and continues the photon-id sequence — a bitwise continuation of an
// uninterrupted run, at any shape, whenever the first leg ended on a
// batch-window boundary (photons % batch == 0).
//
// `config.adapt_batch` is deliberately ignored: adaptive windows are sized
// from wall-clock rates, which would make the batch schedule — and with it
// the governed stop points and the checkpoint legs — irreproducible. Hybrid
// always uses fixed `config.batch`-photon global windows.
#pragma once

#include "engine/backend.hpp"

namespace photon {

// Runs the hybrid simulation on `config.groups` MiniMPI ranks, each tracing
// its id slices with `config.workers` threads. `config.batch` is the GLOBAL
// ids-per-window size (not per rank), so the batch schedule — and hence the
// bitwise result — is independent of the shape.
RunResult run_hybrid(const Scene& scene, const RunConfig& config,
                     const RunResult* resume = nullptr);

}  // namespace photon
