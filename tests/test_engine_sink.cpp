// Record-router contracts (engine/sink.hpp): OrderedRouter applies a window
// in source-rank order with this rank's own records read in place, and
// routes only foreign records onto the wire; RouterSink tallies owned
// records at once.
#include "engine/sink.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/rng.hpp"

namespace photon {
namespace {

BounceRecord make_record(Lcg48& rng, int n_patches) {
  BounceRecord rec;
  rec.patch = static_cast<std::int32_t>(rng.uniform() * n_patches);
  if (rec.patch >= n_patches) rec.patch = n_patches - 1;
  rec.front = rng.uniform() < 0.7;
  rec.coords = BinCoords::from_local_dir(
      rng.uniform(), rng.uniform(),
      Vec3{rng.uniform() * 2 - 1, rng.uniform() * 2 - 1, 0.2 + rng.uniform()});
  rec.channel = static_cast<std::uint8_t>(rng.uniform() * 3);
  return rec;
}

TEST(OrderedRouter, AppliesOneWindowInSourceRankOrder) {
  // The canonical-order seam of hybrid: this rank's own buffers must apply
  // in its own source slot, between the neighbours' incoming buffers, so
  // per-tree order is a pure function of the window schedule. Reproduce the
  // order by hand against a plain ForestSink.
  const int n_patches = 5;
  const int rank = 1, P = 3;
  std::vector<int> owner(n_patches, rank);  // everything owned here
  Lcg48 rng(7);

  // Source-rank slices of one window, each in its trace order; this rank's
  // slice arrives as three chunk buffers.
  std::vector<std::vector<BounceRecord>> slices(P);
  for (int s = 0; s < P; ++s) {
    for (int i = 0; i < 200; ++i) slices[static_cast<std::size_t>(s)].push_back(make_record(rng, n_patches));
  }
  const std::vector<BounceRecord>& mine = slices[static_cast<std::size_t>(rank)];
  const std::vector<std::vector<BounceRecord>> chunks = {
      {mine.begin(), mine.begin() + 70}, {}, {mine.begin() + 70, mine.end()}};

  BinForest routed(n_patches);
  std::uint64_t applied = 0;
  WireBuffer wire(P);
  OrderedRouter router(routed, owner, rank, wire, applied);
  for (const std::vector<BounceRecord>& chunk : chunks) router.route(chunk);
  EXPECT_TRUE(wire.empty());  // every record is owned here
  std::vector<Bytes> incoming(P);
  for (int s = 0; s < P; ++s) {
    if (s == rank) continue;
    WireBuffer w(P);
    for (const BounceRecord& rec : slices[static_cast<std::size_t>(s)]) w.append(rank, to_wire(rec));
    incoming[static_cast<std::size_t>(s)] = w.take()[static_cast<std::size_t>(rank)];
  }
  router.apply_window(chunks, incoming);

  BinForest expected(n_patches);
  ForestSink direct(expected);
  for (int s = 0; s < P; ++s) {
    for (const BounceRecord& rec : slices[static_cast<std::size_t>(s)]) direct.record(rec);
  }
  EXPECT_TRUE(routed == expected);
  EXPECT_EQ(applied, static_cast<std::uint64_t>(P) * 200u);
}

TEST(OrderedRouter, RoutesOnlyForeignRecordsToTheWire) {
  const int n_patches = 4;
  std::vector<int> owner = {0, 1, 0, 1};
  Lcg48 rng(11);
  std::vector<std::vector<BounceRecord>> chunks(1);
  for (int i = 0; i < 100; ++i) chunks[0].push_back(make_record(rng, n_patches));
  std::size_t owned = 0;
  for (const BounceRecord& rec : chunks[0]) owned += owner[static_cast<std::size_t>(rec.patch)] == 0;

  BinForest forest(n_patches);
  std::uint64_t applied = 0;
  WireBuffer wire(2);
  OrderedRouter router(forest, owner, 0, wire, applied);
  router.route(chunks[0]);
  // Everything foreign went to rank 1's buffer; nothing is tallied until
  // apply_window runs.
  EXPECT_EQ(owned + wire.buffer(1).size() / sizeof(WireRecord), 100u);
  EXPECT_TRUE(wire.buffer(0).empty());
  EXPECT_EQ(applied, 0u);
  EXPECT_EQ(forest.total_tally_all(), 0u);

  // Applying the window with nothing incoming tallies exactly the owned
  // records.
  router.apply_window(chunks, std::vector<Bytes>(2));
  EXPECT_EQ(applied, owned);
  EXPECT_EQ(forest.total_tally_all(), owned);
}

TEST(RouterSink, TalliesOwnedRecordsAtOnceAndSerializesTheRest) {
  const int n_patches = 4;
  std::vector<int> owner = {0, 1, 0, 1};
  Lcg48 rng(13);
  BinForest forest(n_patches);
  std::uint64_t applied = 0;
  WireBuffer wire(2);
  RouterSink sink(forest, owner, 0, wire, applied);
  for (int i = 0; i < 100; ++i) sink.record(make_record(rng, n_patches));
  EXPECT_EQ(forest.total_tally_all(), applied);
  EXPECT_EQ(applied + wire.buffer(1).size() / sizeof(WireRecord), 100u);

  // The owner applies the serialized records unconditionally.
  BinForest remote(n_patches);
  std::uint64_t remote_applied = 0;
  WireBuffer unused(2);
  RouterSink remote_sink(remote, owner, 1, unused, remote_applied);
  remote_sink.apply_incoming(wire.take()[1]);
  EXPECT_EQ(remote_applied + applied, 100u);
  EXPECT_EQ(remote.total_tally_all(), remote_applied);
}

}  // namespace
}  // namespace photon
