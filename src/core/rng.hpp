// Parallel pseudo-random number generation (chapter 5, "Random Number
// Generation").
//
// Photon draws from one linear congruential sequence of period 2^48, the
// classic 48-bit drand48 LCG:
//   x_{n+1} = (a x_n + c) mod 2^48,  a = 0x5DEECE66D, c = 0xB.
// The paper splits that sequence across processors by leapfrogging (rank r
// of P takes every P-th element). Every backend here splits it into blocks
// instead: photon i owns the 4096 elements starting at element i * 4096
// (photon_stream below). A photon's path is then a pure function of
// (scene, seed, i) — the same whichever backend, rank, thread or batch
// traces it — so the answer does not depend on P, and a resumed run only
// needs the next photon id.
//
// Jumping k elements uses the closed form
//   x_{n+k} = (A x_n + C) mod 2^48, A = a^k, C = c (a^{k-1} + ... + a + 1).
#pragma once

#include <cstdint>

namespace photon {

class Lcg48 {
 public:
  static constexpr std::uint64_t kModMask = (1ULL << 48) - 1;
  static constexpr std::uint64_t kA = 0x5DEECE66DULL;
  static constexpr std::uint64_t kC = 0xBULL;

  explicit Lcg48(std::uint64_t seed = 0x1234ABCD330EULL) { reset(seed); }

  void reset(std::uint64_t seed) { state_ = seed & kModMask; }

  // Advances the sequence by n elements.
  void skip(std::uint64_t n) {
    std::uint64_t mul = 0;
    std::uint64_t add = 0;
    stride_constants(n, mul, add);
    state_ = (mul * state_ + add) & kModMask;
  }

  // Next raw 48-bit state.
  std::uint64_t next_bits() {
    state_ = (kA * state_ + kC) & kModMask;
    return state_;
  }

  // Uniform double in [0, 1) with 48 bits of resolution.
  double uniform() {
    return static_cast<double>(next_bits()) * 0x1.0p-48;
  }

  // Uniform integer in [0, n).
  std::uint64_t uniform_int(std::uint64_t n) {
    return static_cast<std::uint64_t>(uniform() * static_cast<double>(n));
  }

  std::uint64_t state() const { return state_; }

  // (A, C) such that one application advances the sequence k steps, by
  // square-and-multiply on the pair: composing the affine maps (A1, C1) then
  // (A2, C2) gives (A2*A1, A2*C1 + C2).
  static constexpr void stride_constants(std::uint64_t k, std::uint64_t& mul_out,
                                         std::uint64_t& add_out) {
    std::uint64_t amul = kA;
    std::uint64_t aadd = kC;
    std::uint64_t rmul = 1;
    std::uint64_t radd = 0;
    while (k > 0) {
      if (k & 1) {
        radd = (amul * radd + aadd) & kModMask;
        rmul = (rmul * amul) & kModMask;
      }
      aadd = ((amul + 1) * aadd) & kModMask;  // compose (amul,aadd) with itself
      amul = (amul * amul) & kModMask;
      k >>= 1;
    }
    mul_out = rmul;
    add_out = radd;
  }

 private:
  std::uint64_t state_ = 0;
};

// Sequence elements reserved per photon; exceeds the worst-case draws of one
// photon path (photon_cli caps --max-bounces at 512 to preserve this).
inline constexpr std::uint64_t kPhotonStreamBlock = 4096;

// Photon `photon_index`'s stream: the block starting at element
// photon_index * kPhotonStreamBlock of the sequence `seed` defines. Random
// access costs a square-and-multiply; loops over consecutive ids use
// PhotonStreams instead.
inline Lcg48 photon_stream(std::uint64_t seed, std::uint64_t photon_index) {
  Lcg48 rng(seed);
  rng.skip(photon_index * kPhotonStreamBlock);
  return rng;
}

namespace detail {
// One coefficient of the one-block map (A, C) for k = kPhotonStreamBlock.
constexpr std::uint64_t photon_block_map(bool mul) {
  std::uint64_t m = 0;
  std::uint64_t a = 0;
  Lcg48::stride_constants(kPhotonStreamBlock, m, a);
  return mul ? m : a;
}
}  // namespace detail

// The streams of consecutive photon ids first, first + 1, ...: each next()
// steps the block start by the precomputed one-block map, one multiply-add
// per photon. Bitwise the same streams as photon_stream.
class PhotonStreams {
 public:
  PhotonStreams(std::uint64_t seed, std::uint64_t first_photon)
      : start_(photon_stream(seed, first_photon).state()) {}

  Lcg48 next() {
    const Lcg48 stream(start_);
    start_ = (kBlockMul * start_ + kBlockAdd) & Lcg48::kModMask;
    return stream;
  }

 private:
  static constexpr std::uint64_t kBlockMul = detail::photon_block_map(true);
  static constexpr std::uint64_t kBlockAdd = detail::photon_block_map(false);

  std::uint64_t start_;
};

}  // namespace photon
