// The three workloads (perfbench/README.md says why each exists). Each
// fills `report` with its metrics and one check per verified operation.
#pragma once

#include "common.hpp"
#include "layers.hpp"

namespace perfbench {

// cornell-drain and scene-scale (scene_workloads.cpp).
void run_scene_workload(const Options& options, Report& report);

// service-mix (service_mix.cpp).
void run_service_mix(const Options& options, Report& report);

}  // namespace perfbench
