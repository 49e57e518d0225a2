// The `dist-particle` backend (Fig 5.3) — hybrid at `workers` groups of
// one thread each, reached through the registry the way the CLI and the
// service reach it.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "engine/backend.hpp"
#include "geom/scenes.hpp"
#include "sim/simulator.hpp"

namespace photon {
namespace {

RunResult dist_run(const Scene& scene, const RunConfig& config,
                   const RunResult* resume = nullptr) {
  return make_backend("dist-particle")->run(scene, config, resume);
}

class DistSimTest : public ::testing::TestWithParam<int> {};

TEST_P(DistSimTest, TracesTheGlobalBudget) {
  const int P = GetParam();
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 4000;
  cfg.adapt_batch = false;
  cfg.batch = 500;
  cfg.workers = P;
  const RunResult r = dist_run(s, cfg);

  std::uint64_t traced = 0;
  for (const RankReport& rep : r.ranks) traced += rep.traced;
  EXPECT_GE(traced, cfg.photons);
  EXPECT_EQ(r.forest.emitted_total(), traced);
}

TEST_P(DistSimTest, BitwiseMatchesSerialPhotonStreamReference) {
  // The defining correctness property: distributing the bin forest must not
  // change the answer — at every rank count the gathered forest is the
  // serial reference, bit for bit.
  const int P = GetParam();
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 2000 * static_cast<std::uint64_t>(P);
  cfg.batch = 500;
  cfg.workers = P;
  const RunResult dist = dist_run(s, cfg);
  const RunResult ref = run_serial(s, cfg);
  EXPECT_TRUE(dist.forest == ref.forest) << "P=" << P;
  EXPECT_EQ(dist.counters.bounces, ref.counters.bounces);
}

TEST_P(DistSimTest, OwnershipCoversEveryPatch) {
  const int P = GetParam();
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 1000;
  cfg.adapt_batch = false;
  cfg.workers = P;
  const RunResult r = dist_run(s, cfg);
  ASSERT_EQ(r.balance.owner.size(), s.patch_count());
  for (const int o : r.balance.owner) {
    EXPECT_GE(o, 0);
    EXPECT_LT(o, P);
  }
}

TEST_P(DistSimTest, ProcessedSumsToAllRecords) {
  const int P = GetParam();
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 3000;
  cfg.adapt_batch = false;
  cfg.batch = 250;
  cfg.workers = P;
  const RunResult r = dist_run(s, cfg);

  std::uint64_t processed = 0, records = 0;
  for (const RankReport& rep : r.ranks) {
    processed += rep.processed;
    records += rep.counters.emitted + rep.counters.bounces;
  }
  // Every record (emission or reflection) is tallied exactly once by the
  // owner, whether local or forwarded.
  EXPECT_EQ(processed, records);
}

TEST_P(DistSimTest, MessagesFlowWhenDistributed) {
  const int P = GetParam();
  if (P < 2) GTEST_SKIP();
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 2000;
  cfg.adapt_batch = false;
  cfg.workers = P;
  const RunResult r = dist_run(s, cfg);
  std::uint64_t bytes = 0;
  for (const RankReport& rep : r.ranks) bytes += rep.sent_bytes;
  EXPECT_GT(bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistSimTest, ::testing::Values(1, 2, 4));

TEST(DistSim, NaiveAndBestFitBothCorrect) {
  const Scene s = scenes::cornell_box();
  RunConfig best, naive;
  best.photons = naive.photons = 4000;
  best.adapt_batch = naive.adapt_batch = false;
  naive.bestfit = false;
  best.workers = 4;
  const RunResult rb = dist_run(s, best);
  naive.workers = 4;
  const RunResult rn = dist_run(s, naive);

  // Same photons traced either way; only the ownership differs, and the
  // canonical apply order makes the gathered forests identical.
  EXPECT_TRUE(rb.forest == rn.forest);
  EXPECT_NE(rb.balance.owner, rn.balance.owner);
}

TEST(DistSim, BestFitBalancesProcessedCounts) {
  // Table 5.2's claim, on our harpsichord room: bin packing evens out the
  // per-processor photon processing counts relative to naive assignment.
  const Scene s = scenes::harpsichord_room();
  RunConfig best, naive;
  best.photons = naive.photons = 8000;
  best.adapt_batch = naive.adapt_batch = false;
  best.batch = naive.batch = 500;
  naive.bestfit = false;
  best.workers = 8;
  const RunResult rb = dist_run(s, best);
  naive.workers = 8;
  const RunResult rn = dist_run(s, naive);

  auto spread = [](const RunResult& r) {
    std::uint64_t lo = UINT64_MAX, hi = 0;
    for (const RankReport& rep : r.ranks) {
      lo = std::min(lo, rep.processed);
      hi = std::max(hi, rep.processed);
    }
    return static_cast<double>(hi) / static_cast<double>(std::max<std::uint64_t>(lo, 1));
  };
  EXPECT_LT(spread(rb), spread(rn));
}

TEST(DistSim, GatheredForestIsComplete) {
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 6000;
  cfg.adapt_batch = false;
  cfg.workers = 4;
  const RunResult r = dist_run(s, cfg);
  // Every patch that received probe photons must show tallies in the
  // gathered forest (owners were spread across ranks).
  const auto tallies = r.forest.patch_tallies();
  const std::uint64_t nonzero =
      static_cast<std::uint64_t>(std::count_if(tallies.begin(), tallies.end(),
                                               [](std::uint64_t t) { return t > 0; }));
  EXPECT_GT(nonzero, s.patch_count() / 2);
  EXPECT_FALSE(r.trace.points.empty());
}

// Determinism through the OrderedRouter exchange: rank count x batch size
// (the exchange window) must never make a run irreproducible.
class DistDeterminismTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(DistDeterminismTest, RepeatedRunsAreBitwiseIdentical) {
  const auto [P, batch] = GetParam();
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 600;
  cfg.adapt_batch = false;
  cfg.batch = batch;
  cfg.workers = P;
  const RunResult a = dist_run(s, cfg);
  const RunResult b = dist_run(s, cfg);
  EXPECT_TRUE(a.forest == b.forest) << "P=" << P << " batch=" << batch;
  EXPECT_EQ(a.counters.bounces, b.counters.bounces);
}

INSTANTIATE_TEST_SUITE_P(RanksAndBatches, DistDeterminismTest,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1u, 64u, 4096u)));

class DistSerialEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistSerialEquivalenceTest, OneRankIsBitwisePhotonStreamSerialAtAnyBatch) {
  // dist@1 stays bitwise identical to the serial reference at every
  // exchange window.
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 1500;
  cfg.adapt_batch = false;
  cfg.batch = GetParam();
  cfg.workers = 1;
  const RunResult dist = dist_run(s, cfg);
  EXPECT_TRUE(dist.forest == run_serial(s, cfg).forest) << "batch=" << cfg.batch;
}

INSTANTIATE_TEST_SUITE_P(Batches, DistSerialEquivalenceTest,
                         ::testing::Values(1u, 64u, 4096u));

TEST(DistSim, ResumeAtSameShapeIsABitwiseContinuation) {
  // Photon ids continue where the checkpoint stopped and owned records
  // apply in canonical window order, so leg1 + leg2 — with leg1 ending on a
  // window boundary — reproduces an uninterrupted run bit for bit.
  const Scene s = scenes::cornell_box();
  RunConfig leg1_cfg;
  leg1_cfg.photons = 2000;  // 4 windows of 500
  leg1_cfg.adapt_batch = false;
  leg1_cfg.batch = 500;
  leg1_cfg.workers = 2;
  const RunResult leg1 = dist_run(s, leg1_cfg);

  RunConfig leg2_cfg = leg1_cfg;
  leg2_cfg.photons = 1000;
  const RunResult resumed = dist_run(s, leg2_cfg, &leg1);

  RunConfig straight_cfg = leg1_cfg;
  straight_cfg.photons = 3000;
  const RunResult straight = dist_run(s, straight_cfg);

  EXPECT_TRUE(resumed.forest == straight.forest);
  EXPECT_EQ(resumed.counters.emitted, straight.counters.emitted);
  EXPECT_EQ(resumed.counters.bounces, straight.counters.bounces);
}

TEST(DistSim, ResumeAtDifferentShapeIsABitwiseContinuation) {
  // Per-photon streams carry no per-rank state, so a checkpoint taken at 4
  // ranks resumes bitwise at 2.
  const Scene s = scenes::cornell_box();
  RunConfig leg1_cfg;
  leg1_cfg.photons = 2000;
  leg1_cfg.adapt_batch = false;
  leg1_cfg.batch = 500;
  leg1_cfg.workers = 4;
  const RunResult leg1 = dist_run(s, leg1_cfg);

  RunConfig leg2_cfg = leg1_cfg;
  leg2_cfg.workers = 2;
  leg2_cfg.photons = 1000;
  const RunResult resumed = dist_run(s, leg2_cfg, &leg1);
  EXPECT_EQ(resumed.counters.emitted, 3000u);
  EXPECT_EQ(resumed.forest.emitted_total(), 3000u);

  RunConfig straight_cfg = leg2_cfg;
  straight_cfg.photons = 3000;
  EXPECT_TRUE(resumed.forest == dist_run(s, straight_cfg).forest);
}

TEST(DistSim, ResumeConservesAndReproduces) {
  // Distributed resume: the checkpoint's trees fold into the partitions
  // (BinForest/BinTree merge) and the continuation adds exactly
  // config.photons more photons, continuing the photon-id sequence.
  const Scene s = scenes::cornell_box();
  RunConfig leg1_cfg;
  leg1_cfg.photons = 2000;
  leg1_cfg.adapt_batch = false;
  leg1_cfg.batch = 500;
  leg1_cfg.workers = 4;
  const RunResult leg1 = dist_run(s, leg1_cfg);

  RunConfig leg2_cfg = leg1_cfg;
  leg2_cfg.photons = 1000;
  const RunResult resumed = dist_run(s, leg2_cfg, &leg1);
  const RunResult resumed_again = dist_run(s, leg2_cfg, &leg1);

  EXPECT_EQ(resumed.forest.emitted_total(), 3000u);
  EXPECT_EQ(resumed.counters.emitted, 3000u);
  // Every tally of both legs survives the fold (merge conserves counts).
  std::uint64_t leg2_records = 0;
  for (const RankReport& rep : resumed.ranks) leg2_records += rep.processed;
  EXPECT_EQ(resumed.forest.total_tally_all(),
            leg1.forest.total_tally_all() + leg2_records);
  EXPECT_TRUE(resumed.forest == resumed_again.forest);
}

TEST(DistSim, SingleRankPutsNothingOnTheWire) {
  // (dist@1 == the serial reference is pinned, per scene, by
  // the conformance suite; this keeps the traffic claim.)
  const Scene s = scenes::cornell_box();
  RunConfig cfg;
  cfg.photons = 1000;
  cfg.adapt_batch = false;
  cfg.batch = 500;
  cfg.workers = 1;
  const RunResult dist = dist_run(s, cfg);
  EXPECT_EQ(dist.ranks[0].sent_bytes, 0u);
}

}  // namespace
}  // namespace photon
