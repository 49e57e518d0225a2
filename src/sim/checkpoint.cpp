#include "sim/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <istream>
#include <sstream>
#include <streambuf>

#include <unistd.h>

namespace photon {

namespace {
// Version 4 ("PHOTNCK4"): the payload is length-prefixed and FNV-1a-64
// checksummed: [counters][forest]. Older files are rejected — v1
// ("PHOTONCK": no length, no checksum) cannot be verified, v2 ("PHOTNCK2")
// carried a per-rank leapfrog RNG section, and v3 ("PHOTNCK3") serial's
// continuous-stream RNG words; no RNG scheme resumes from either any more.
constexpr std::uint64_t kCheckpointMagic = 0x50484F544E434B34ULL;    // "PHOTNCK4"
constexpr std::uint64_t kCheckpointMagicV3 = 0x50484F544E434B33ULL;  // "PHOTNCK3"
constexpr std::uint64_t kCheckpointMagicV2 = 0x50484F544E434B32ULL;  // "PHOTNCK2"
constexpr std::uint64_t kCheckpointMagicV1 = 0x50484F544F4E434BULL;  // "PHOTONCK"

// The cap keeps a corrupt length field from turning into a giant
// allocation before the checksum can reject it.
constexpr std::uint64_t kMaxPayloadBytes = 1ULL << 33;  // 8 GiB

std::uint64_t fnv1a64(const char* data, std::size_t n) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001B3ULL;
  }
  return h;
}

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool read_u64(std::istream& in, std::uint64_t& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return static_cast<bool>(in);
}
}  // namespace

void save_checkpoint(const RunResult& result, std::ostream& out) {
  // Stage the payload so it can be length-prefixed and checksummed; a
  // checkpoint is written once per leg, so the extra copy is irrelevant next
  // to the simulation it protects.
  std::ostringstream payload(std::ios::binary);
  write_u64(payload, result.counters.emitted);
  write_u64(payload, result.counters.bounces);
  write_u64(payload, result.counters.absorbed);
  write_u64(payload, result.counters.escaped);
  write_u64(payload, result.counters.terminated);
  result.forest.save(payload);

  const std::string bytes = payload.str();
  write_u64(out, kCheckpointMagic);
  write_u64(out, bytes.size());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  write_u64(out, fnv1a64(bytes.data(), bytes.size()));
}

// Atomic replace: serialize to <path>.tmp, flush + fsync, then rename over
// the target. The previous checkpoint stays loadable through any crash, kill,
// or watchdog emergency save mid-write — rename is the only step that touches
// the final path, and POSIX rename is atomic. A failure at any step removes
// the tmp file and leaves the target untouched.
bool save_checkpoint(const RunResult& result, const std::string& path) {
  std::ostringstream staged(std::ios::binary);
  save_checkpoint(result, staged);
  const std::string bytes = staged.str();

  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (!out) return false;
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size() &&
      std::fflush(out) == 0 && fsync(fileno(out)) == 0;
  if (std::fclose(out) != 0 || !wrote) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

const char* checkpoint_status_name(CheckpointStatus status) {
  switch (status) {
    case CheckpointStatus::kOk: return "ok";
    case CheckpointStatus::kOpenFailed: return "open-failed";
    case CheckpointStatus::kBadMagic: return "bad-magic";
    case CheckpointStatus::kOldVersion: return "old-version";
    case CheckpointStatus::kBadLength: return "bad-length";
    case CheckpointStatus::kTruncated: return "truncated";
    case CheckpointStatus::kChecksumMismatch: return "checksum-mismatch";
    case CheckpointStatus::kBadHeader: return "bad-header";
    case CheckpointStatus::kBadForest: return "bad-forest";
  }
  return "unknown";
}

CheckpointStatus load_checkpoint_status(std::istream& in, RunResult& result) {
  std::uint64_t magic = 0, length = 0;
  if (!read_u64(in, magic) || magic != kCheckpointMagic) {
    return magic == kCheckpointMagicV1 || magic == kCheckpointMagicV2 ||
                   magic == kCheckpointMagicV3
               ? CheckpointStatus::kOldVersion
               : CheckpointStatus::kBadMagic;
  }
  if (!read_u64(in, length)) return CheckpointStatus::kTruncated;
  if (length > kMaxPayloadBytes) return CheckpointStatus::kBadLength;

  // Read the payload in bounded chunks: the length field is untrusted, so a
  // corrupt value must hit the truncation check after at most one chunk of
  // over-allocation, not commit gigabytes up front.
  constexpr std::uint64_t kChunk = 1ULL << 24;  // 16 MiB
  std::string bytes;
  while (static_cast<std::uint64_t>(bytes.size()) < length) {
    const std::uint64_t want =
        std::min<std::uint64_t>(kChunk, length - static_cast<std::uint64_t>(bytes.size()));
    const std::size_t off = bytes.size();
    bytes.resize(off + static_cast<std::size_t>(want));
    in.read(bytes.data() + off, static_cast<std::streamsize>(want));
    if (static_cast<std::uint64_t>(in.gcount()) != want) {
      return CheckpointStatus::kTruncated;
    }
  }

  std::uint64_t checksum = 0;
  if (!read_u64(in, checksum)) return CheckpointStatus::kTruncated;
  if (checksum != fnv1a64(bytes.data(), bytes.size())) {
    // Corrupt — resuming silently-wrong state is worse than failing.
    return CheckpointStatus::kChecksumMismatch;
  }

  // Parse the verified payload in place (a streambuf view, not an
  // istringstream, which would copy the multi-GiB buffer a second time).
  struct MemBuf : std::streambuf {
    MemBuf(char* data, std::size_t n) { setg(data, data, data + n); }
  } membuf(bytes.data(), bytes.size());
  std::istream payload(&membuf);
  if (!read_u64(payload, result.counters.emitted) ||
      !read_u64(payload, result.counters.bounces) ||
      !read_u64(payload, result.counters.absorbed) ||
      !read_u64(payload, result.counters.escaped) ||
      !read_u64(payload, result.counters.terminated)) {
    return CheckpointStatus::kBadHeader;
  }
  result.forest = BinForest::load(payload);
  if (!payload || result.forest.tree_count() == 0) return CheckpointStatus::kBadForest;
  return CheckpointStatus::kOk;
}

CheckpointStatus load_checkpoint_status(const std::string& path, RunResult& result) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return CheckpointStatus::kOpenFailed;
  return load_checkpoint_status(in, result);
}

bool load_checkpoint(std::istream& in, RunResult& result) {
  return load_checkpoint_status(in, result) == CheckpointStatus::kOk;
}

bool load_checkpoint(const std::string& path, RunResult& result) {
  return load_checkpoint_status(path, result) == CheckpointStatus::kOk;
}

}  // namespace photon
