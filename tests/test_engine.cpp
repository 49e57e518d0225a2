// Engine-level contracts: backend registry lookup, cross-backend determinism
// (the whole point of one pipeline behind pluggable backends), and the
// BatchController clamping pins.
#include "engine/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "geom/scenes.hpp"

namespace photon {
namespace {

TEST(BackendRegistry, BuiltinsAreRegistered) {
  const std::vector<std::string> names = backend_names();
  for (const char* expected :
       {"serial", "shared", "dist-particle", "dist-spatial", "hybrid"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing backend " << expected;
  }
  for (const std::string& name : names) {
    const auto backend = make_backend(name);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_EQ(backend->name(), name);
  }
}

TEST(BackendRegistry, UnknownNameReturnsNull) {
  EXPECT_EQ(make_backend("cuda"), nullptr);
  EXPECT_EQ(make_backend(""), nullptr);
}

TEST(BackendRegistry, RuntimeRegistrationAndCollision) {
  class FakeBackend final : public Backend {
   public:
    std::string name() const override { return "fake"; }
    RunResult run(const Scene&, const RunConfig&, const RunResult*) override { return {}; }
  };
  EXPECT_TRUE(register_backend("fake", [] { return std::make_unique<FakeBackend>(); }));
  EXPECT_NE(make_backend("fake"), nullptr);
  // Names are first-come-first-served; the built-ins cannot be shadowed.
  EXPECT_FALSE(register_backend("serial", [] { return std::make_unique<FakeBackend>(); }));
}

// The per-backend bitwise-vs-serial pins (shared@1, dist-particle@1,
// hybrid@every shape, ...) moved to the cross-backend conformance suite —
// tests/test_conformance.cpp — which runs every registered backend through
// the same matrix on all bundled scenes.

TEST(CrossBackend, SharedMatchesSerial) {
  // Every backend traces photon i from RNG stream i, so the pool-backed
  // shared backend's forest — per-channel emission totals included — is
  // bitwise identical to serial's at any worker count.
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 4000;
  cfg.workers = 4;
  const RunResult shared = make_backend("shared")->run(s, cfg);
  const RunResult ref = make_backend("serial")->run(s, cfg);
  EXPECT_TRUE(ref.forest == shared.forest);
  for (int c = 0; c < kNumChannels; ++c) {
    EXPECT_EQ(shared.forest.emitted(c), ref.forest.emitted(c)) << "channel " << c;
  }
}

// One leg on `first`, a second on `second`, against one straight serial run:
// a checkpoint carries no generator state, so any backend continues any
// other's run from counters.emitted, bit for bit.
void expect_mixed_legs_equal_straight_serial(const char* first, const RunConfig& first_cfg,
                                             const char* second, const RunConfig& second_cfg) {
  const Scene s = scenes::cornell_box();
  const RunResult leg1 = make_backend(first)->run(s, first_cfg);
  const RunResult resumed = make_backend(second)->run(s, second_cfg, &leg1);

  RunConfig straight = second_cfg;
  straight.photons = first_cfg.photons + second_cfg.photons;
  const RunResult serial = make_backend("serial")->run(s, straight);
  EXPECT_TRUE(resumed.forest == serial.forest) << first << " then " << second;
  EXPECT_EQ(resumed.counters.emitted, serial.counters.emitted);
  EXPECT_EQ(resumed.counters.bounces, serial.counters.bounces);
}

TEST(CrossBackend, SerialContinuesASharedCheckpointBitwise) {
  RunConfig cfg;
  cfg.photons = 2000;
  cfg.batch = 500;
  cfg.workers = 2;
  RunConfig leg2 = cfg;
  leg2.photons = 1000;
  expect_mixed_legs_equal_straight_serial("shared", cfg, "serial", leg2);
}

TEST(CrossBackend, HybridContinuesASerialCheckpointBitwise) {
  RunConfig cfg;
  cfg.photons = 2000;
  cfg.batch = 500;
  RunConfig leg2 = cfg;
  leg2.photons = 1000;
  leg2.groups = 2;
  leg2.workers = 2;
  expect_mixed_legs_equal_straight_serial("serial", cfg, "hybrid", leg2);
}

TEST(CrossBackend, SharedResumeDoesNotReplayTheFirstLeg) {
  // A resumed shared leg must draw fresh photons, not re-trace the first
  // leg's streams (which would silently double-count identical samples).
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 2000;
  cfg.workers = 2;
  const RunResult first = make_backend("shared")->run(s, cfg);
  const RunResult resumed = make_backend("shared")->run(s, cfg, &first);

  EXPECT_EQ(resumed.forest.emitted_total(), 2 * cfg.photons);
  // A replayed leg would reproduce the first leg's counters exactly; fresh
  // disjoint streams make that virtually impossible across all five fields.
  const TraceCounters leg2{resumed.counters.emitted - first.counters.emitted,
                           resumed.counters.bounces - first.counters.bounces,
                           resumed.counters.absorbed - first.counters.absorbed,
                           resumed.counters.escaped - first.counters.escaped,
                           resumed.counters.terminated - first.counters.terminated};
  EXPECT_EQ(leg2.emitted, first.counters.emitted);
  EXPECT_FALSE(leg2.bounces == first.counters.bounces &&
               leg2.absorbed == first.counters.absorbed &&
               leg2.escaped == first.counters.escaped)
      << "resumed leg reproduced the first leg's photons";
}

TEST(CrossBackend, ResumeSupportIsAdvertisedCorrectly) {
  // Every built-in backend resumes since BinForest::merge landed: the
  // distributed backends fold a checkpoint into their partitioned trees.
  for (const char* name : {"serial", "shared", "dist-particle", "dist-spatial", "hybrid"}) {
    EXPECT_TRUE(make_backend(name)->supports_resume()) << name;
  }
}

TEST(BatchControllerClamp, GrowthClampsExactlyToMax) {
  BatchPolicy policy;
  policy.initial = 900;
  policy.max_size = 1000;
  BatchController c(policy);
  c.update(100.0);  // 900 * 1.5 = 1350 -> clamped
  EXPECT_EQ(c.size(), 1000u);
  c.update(200.0);  // still improving, still clamped
  EXPECT_EQ(c.size(), 1000u);
}

TEST(BatchControllerClamp, BackoffClampsExactlyToMin) {
  BatchPolicy policy;
  policy.initial = 110;
  policy.min_size = 100;
  BatchController c(policy);
  c.update(100.0);  // grows to 165
  c.update(10.0);   // 165 * 0.9 = 148
  c.update(1.0);    // 133
  c.update(0.1);    // 119
  c.update(0.01);   // 107
  c.update(0.001);  // 96 -> clamped to 100
  EXPECT_EQ(c.size(), 100u);
  c.update(0.0001);  // stays pinned at the floor
  EXPECT_EQ(c.size(), 100u);
}

}  // namespace
}  // namespace photon
