#include "engine/sink.hpp"

namespace photon {

void RouterSink::apply_incoming(const Bytes& buf) {
  for_each_wire<WireRecord>(buf, [&](const WireRecord& wire) {
    const BounceRecord rec = from_wire(wire);
    forest_->record(rec.patch, rec.front, rec.coords, rec.channel);
    ++(*applied_);
  });
}

void OrderedRouter::route(const std::vector<BounceRecord>& records) {
  for (const BounceRecord& rec : records) {
    const int owner_rank = (*owner_)[static_cast<std::size_t>(rec.patch)];
    if (owner_rank != rank_) wire_->append(owner_rank, to_wire(rec));
  }
}

void OrderedRouter::apply_window(std::span<const std::vector<BounceRecord>> own,
                                 const std::vector<Bytes>& incoming) {
  std::uint64_t applied = 0;
  const auto apply = [&](const BounceRecord& rec) {
    forest_->record(rec.patch, rec.front, rec.coords, rec.channel);
    ++applied;
  };
  const int sources = static_cast<int>(incoming.size());
  for (int s = 0; s < sources; ++s) {
    if (s != rank_) {
      for_each_wire<WireRecord>(incoming[static_cast<std::size_t>(s)],
                                [&](const WireRecord& wire) { apply(from_wire(wire)); });
      continue;
    }
    for (const std::vector<BounceRecord>& records : own) {
      for (const BounceRecord& rec : records) {
        if ((*owner_)[static_cast<std::size_t>(rec.patch)] == rank_) apply(rec);
      }
    }
  }
  *applied_ += applied;
}

}  // namespace photon
