// Checkpoint/restart for long simulations — an engine service that works on
// any backend's RunResult.
//
// The paper's production runs simulated billions of photons over hours; a
// checkpoint captures the bin forest (already the "answer file") and the
// trace counters. No generator state is needed: photon ids index per-photon
// RNG blocks, so counters.emitted is the whole continuation state. Resuming
// through a backend that reports supports_resume() adopts both; the
// `serial` and `hybrid` (with its `shared` and `dist-particle` shapes)
// continuations are bitwise identical to an uninterrupted run of any of
// them (verified by the test suite).
//
// The v4 byte format is [magic][u64 payload length][payload][u64 FNV-1a-64
// of the payload]: a truncated or bit-flipped checkpoint fails the length or
// checksum test and load_checkpoint returns false — a multi-hour run must
// never silently resume from damaged state.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/simulator.hpp"

namespace photon {

// Which check a rejected checkpoint failed — a multi-hour run that refuses
// to resume should say *why* (and photon_cli prints exactly this).
enum class CheckpointStatus {
  kOk,
  kOpenFailed,         // path could not be opened
  kBadMagic,           // not a checkpoint at all
  kOldVersion,         // v1, v2 or v3 magic: superseded format, rejected by design
  kBadLength,          // length field exceeds the payload cap
  kTruncated,          // stream ended before the declared payload length
  kChecksumMismatch,   // payload bytes fail the FNV-1a-64 check
  kBadHeader,          // verified payload too short for the counters
  kBadForest,          // forest section malformed or empty
};

// Stable lower-case name for a status ("ok", "bad-magic", ...).
const char* checkpoint_status_name(CheckpointStatus status);

void save_checkpoint(const RunResult& result, std::ostream& out);
bool save_checkpoint(const RunResult& result, const std::string& path);

// Returns the first failed check (leaving `result` unspecified on failure);
// never throws, never partially adopts state.
CheckpointStatus load_checkpoint_status(std::istream& in, RunResult& result);
CheckpointStatus load_checkpoint_status(const std::string& path, RunResult& result);

// Convenience wrappers: true iff the status is kOk.
bool load_checkpoint(std::istream& in, RunResult& result);
bool load_checkpoint(const std::string& path, RunResult& result);

}  // namespace photon
