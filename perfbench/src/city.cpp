#include "city.hpp"

#include <array>

#include "core/rng.hpp"

namespace perfbench {
namespace {

using photon::Material;
using photon::Patch;
using photon::Rgb;
using photon::Scene;
using photon::Vec3;

constexpr int kBlocks = 10;       // blocks per side
constexpr int kFloors = 5;        // panels up each facade
constexpr int kBays = 5;          // panels across each facade
constexpr int kGroundTiles = 40;  // ground tiles per side
constexpr double kBlock = 40.0;   // block edge, metres
constexpr double kStreet = 12.0;  // street width
constexpr double kLampHeight = 7.0;

// Splits the parallelogram origin + a*s + b*t into na × nb panels. The panel
// normal is normalize(a × b); callers order (a, b) so it faces outward.
// `pick` chooses each panel's material from its (i, j) index.
template <typename Pick>
void panels(Scene& scene, const Vec3& origin, const Vec3& a, const Vec3& b, int na, int nb,
            Pick pick) {
  const Vec3 da = a / static_cast<double>(na);
  const Vec3 db = b / static_cast<double>(nb);
  for (int i = 0; i < na; ++i) {
    for (int j = 0; j < nb; ++j) {
      scene.add_patch(Patch(origin + da * static_cast<double>(i) + db * static_cast<double>(j),
                            da, db, pick(i, j)));
    }
  }
}

}  // namespace

void add_city(Scene& scene, std::uint64_t seed) {
  photon::Lcg48 rng(seed * 2654435761ULL + 0x5EEDULL);
  scene.set_name("city");

  const std::array<int, 4> walls = {
      scene.add_material(Material::lambertian({0.80, 0.76, 0.70})),
      scene.add_material(Material::lambertian({0.70, 0.66, 0.60})),
      scene.add_material(Material::lambertian({0.85, 0.84, 0.82})),
      scene.add_material(Material::lambertian({0.75, 0.45, 0.35})),
  };
  const int glass =
      scene.add_material(Material::glossy({0.05, 0.06, 0.08}, Rgb::splat(0.5), 0.05));
  const int roof = scene.add_material(Material::lambertian({0.60, 0.60, 0.62}));
  const int pavement = scene.add_material(Material::lambertian({0.70, 0.70, 0.70}));
  const int asphalt = scene.add_material(Material::lambertian({0.45, 0.45, 0.46}));
  const int lamp = scene.add_material(Material::emitter({40.0, 36.0, 28.0}));

  const double pitch = kBlock + kStreet;
  const double extent = kBlocks * pitch + kStreet;

  // Ground: tiles under a block are pavement, the rest asphalt (+y normal).
  const double tile = extent / kGroundTiles;
  panels(scene, {0, 0, 0}, {0, 0, extent}, {extent, 0, 0}, kGroundTiles,
         kGroundTiles, [&](int i, int j) {
           const double z = (i + 0.5) * tile, x = (j + 0.5) * tile;
           const double bx = x - kStreet - pitch * static_cast<int>((x - kStreet) / pitch);
           const double bz = z - kStreet - pitch * static_cast<int>((z - kStreet) / pitch);
           const bool on_block = x > kStreet && z > kStreet && bx < kBlock && bz < kBlock;
           return on_block ? pavement : asphalt;
         });

  // Four buildings per block, one per quadrant, with seeded margins, storey
  // height and window pattern.
  for (int bi = 0; bi < kBlocks; ++bi) {
    for (int bj = 0; bj < kBlocks; ++bj) {
      const double bx = kStreet + bi * pitch, bz = kStreet + bj * pitch;
      for (int q = 0; q < 4; ++q) {
        const double half = kBlock / 2;
        const double x0 = bx + (q % 2) * half + 1.0 + 3.0 * rng.uniform();
        const double z0 = bz + (q / 2) * half + 1.0 + 3.0 * rng.uniform();
        const double x1 = bx + (q % 2) * half + half - 1.0 - 3.0 * rng.uniform();
        const double z1 = bz + (q / 2) * half + half - 1.0 - 3.0 * rng.uniform();
        const double h = kFloors * (3.0 + 3.0 * rng.uniform());
        const int wall = walls[rng.uniform_int(walls.size())];
        const int stride = 2 + static_cast<int>(rng.uniform_int(2));
        const auto facade = [&](int i, int j) { return (i + j) % stride == 0 ? glass : wall; };
        const Vec3 up{0, h, 0}, wx{x1 - x0, 0, 0}, wz{0, 0, z1 - z0};
        panels(scene, {x0, 0, z0}, up, wx, kFloors, kBays, facade);   // -z
        panels(scene, {x0, 0, z1}, wx, up, kBays, kFloors, facade);   // +z
        panels(scene, {x0, 0, z0}, wz, up, kBays, kFloors, facade);   // -x
        panels(scene, {x1, 0, z0}, up, wz, kFloors, kBays, facade);   // +x
        scene.add_patch(Patch({x0, h, z0}, wz, wx, roof));             // +y
      }
    }
  }

  // The city sits in a closed hall: four far walls and a sky ceiling, so
  // photons keep bouncing across the whole city instead of escaping after
  // their first reflection — long rays are what make traversal dominate.
  const double top = kFloors * 12.0;
  const int sky = scene.add_material(Material::lambertian({0.70, 0.75, 0.85}));
  const int far = scene.add_material(Material::lambertian({0.70, 0.70, 0.68}));
  const int n = kGroundTiles / 2;
  const Vec3 ex{extent, 0, 0}, ez{0, 0, extent}, ey{0, top, 0};
  panels(scene, {0, top, 0}, ex, ez, n, n, [&](int, int) { return sky; });  // faces -y
  const auto wall_of = [&](int, int) { return far; };
  panels(scene, {0, 0, 0}, ex, ey, n, 4, wall_of);       // z = 0, faces +z
  panels(scene, {0, 0, extent}, ey, ex, 4, n, wall_of);  // z = extent, faces -z
  panels(scene, {0, 0, 0}, ey, ez, 4, n, wall_of);       // x = 0, faces +x
  panels(scene, {extent, 0, 0}, ez, ey, n, 4, wall_of);  // x = extent, faces -x

  // Street lamps at every intersection, facing down.
  for (int i = 0; i <= kBlocks; ++i) {
    for (int j = 0; j <= kBlocks; ++j) {
      const double cx = kStreet / 2 + i * pitch, cz = kStreet / 2 + j * pitch;
      const int p = scene.add_patch(
          Patch({cx - 0.5, kLampHeight, cz - 0.5}, {1.0, 0, 0}, {0, 0, 1.0}, lamp));
      scene.add_luminaire(p);
    }
  }
}

}  // namespace perfbench
