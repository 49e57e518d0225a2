// Serial Photon simulation driver — the paper's "best serial version" that
// every speedup in chapter 5 is measured against, and the reference
// implementation behind the engine's `serial` backend.
//
// The performance methodology breaks a simulation into batches and reports
// photons-per-second after each batch (the speed trace), sampling bin-forest
// memory per batch (Fig 5.4). Both collections come from engine/telemetry.
#pragma once

#include "engine/backend.hpp"

namespace photon {

// Runs the serial simulation of Fig 4.1 and returns the populated forest.
// Photon i draws from its own RNG block (core/rng.hpp photon_stream), as on
// every backend, so serial is the bitwise reference the others are pinned
// against. When `resume_from` is non-null, continues that run — any
// backend's: its forest and counters are adopted and `config.photons`
// *additional* photons are simulated from id counters.emitted on, bitwise
// identical to having run them in one go.
RunResult run_serial(const Scene& scene, const RunConfig& config,
                     const RunResult* resume_from = nullptr);

}  // namespace photon
