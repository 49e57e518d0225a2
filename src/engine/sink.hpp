// Record routers for the partitioned-forest backends (EnQueue of Fig 5.3):
// a record whose patch this rank owns is tallied into the local forest; a
// foreign record is serialized in place into the per-destination WireBuffer
// (one copy, straight into the bytes the exchange will send).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/wire.hpp"
#include "hist/binforest.hpp"
#include "sim/tracer.hpp"

namespace photon {

// RouterSink — dist-spatial's router. Owned records are tallied the instant
// they are traced; WireBuffer::take() surrenders a round's bytes to the
// exchange and leaves the buffer refillable, so the sink keeps serializing
// the next round while this one drains.
class RouterSink final : public BinSink {
 public:
  // `owner[p]` is the rank owning patch p's trees; `applied` counts records
  // tallied locally by this rank (the Table 5.2 "processed" metric).
  RouterSink(BinForest& forest, const std::vector<int>& owner, int rank, WireBuffer& wire,
             std::uint64_t& applied)
      : forest_(&forest), owner_(&owner), rank_(rank), wire_(&wire), applied_(&applied) {}

  void record(const BounceRecord& rec) override {
    const int owner_rank = (*owner_)[static_cast<std::size_t>(rec.patch)];
    if (owner_rank == rank_) {
      forest_->record(rec.patch, rec.front, rec.coords, rec.channel);
      ++(*applied_);
    } else {
      wire_->append(owner_rank, to_wire(rec));
    }
  }

  // Tallies every WireRecord in an incoming exchange buffer. Records arriving
  // here were routed by their producer, so they are applied unconditionally.
  void apply_incoming(const Bytes& buf);

 private:
  BinForest* forest_;
  const std::vector<int>* owner_;
  int rank_;
  WireBuffer* wire_;
  std::uint64_t* applied_;
};

// OrderedRouter — hybrid's router, which promises a reproducible
// interleaving of local and foreign records. A window's records are applied
// to the owner trees in source-rank order: rank 0's slice, rank 1's slice, …
// with this rank's own slice read straight out of its record buffers in
// place of incoming[rank]. Per-tree record order is then a pure function of
// the window schedule and, when ranks trace contiguous id slices, equal to
// global photon-id order.
class OrderedRouter {
 public:
  OrderedRouter(BinForest& forest, const std::vector<int>& owner, int rank, WireBuffer& wire,
                std::uint64_t& applied)
      : forest_(&forest), owner_(&owner), rank_(rank), wire_(&wire), applied_(&applied) {}

  // Serializes the foreign records of `records` into the outgoing wire, in
  // order; owned records stay where they are for apply_window.
  void route(const std::vector<BounceRecord>& records);

  // Applies one window in canonical source order: for each source rank s,
  // incoming[s]'s records — except s == rank, whose slot is the owned
  // records of `own` (this rank's buffers, in order). incoming[rank] is
  // ignored (self-delivery is empty on the record tag).
  void apply_window(std::span<const std::vector<BounceRecord>> own,
                    const std::vector<Bytes>& incoming);

 private:
  BinForest* forest_;
  const std::vector<int>* owner_;
  int rank_;
  WireBuffer* wire_;
  std::uint64_t* applied_;
};

}  // namespace photon
