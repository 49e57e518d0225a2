// The scene-scale workload's geometry: a seeded procedural city built only
// through the public Scene API (add_material / add_patch / add_luminaire).
//
// A square grid of blocks separated by streets, inside a closed hall (sky
// ceiling and far walls). Every block holds four buildings whose facades are
// cut into floor × bay panels (wall or glossy window, so photons both scatter
// diffusely and glance off glass), plus a roof; the ground is a tiled plane
// and the luminaires are street lamps at the intersections. The patch and
// luminaire counts are fixed, so every seed gives the same amount of
// geometry; the seed moves footprints, storey heights and materials, which
// is what changes the traversal work per ray.
#pragma once

#include <cstdint>

#include "geom/scene.hpp"

namespace perfbench {

// Adds the city's materials, patches and luminaires to an empty scene. Does
// not build the acceleration structure.
void add_city(photon::Scene& scene, std::uint64_t seed);

}  // namespace perfbench
