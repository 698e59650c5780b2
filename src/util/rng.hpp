#pragma once

/// \file rng.hpp
/// Deterministic random number generation. The library never uses
/// `std::random_device` or global state: every stochastic step (particle
/// generation, level-of-detail shuffling) is seeded explicitly so that
/// datasets, shuffles and tests are bit-reproducible across runs and rank
/// counts.

#include <cstdint>
#include <limits>

namespace spio {

/// SplitMix64: used to expand a user seed into well-distributed stream
/// seeds (one per rank / partition). Reference: Steele, Lea, Flood 2014.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna). Small, fast, and high quality;
/// satisfies the UniformRandomBitGenerator requirements so it can be used
/// with standard distributions, but the helpers below are preferred as they
/// are reproducible across standard library implementations.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seed via SplitMix64 as recommended by the xoshiro authors.
  explicit constexpr Xoshiro256(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() { return next(); }

  constexpr std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  constexpr double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  /// Unbiased uniform integer in [0, bound) by modulo rejection: draws
  /// below `(2^64 - bound) % bound` are rejected. Precondition: bound > 0.
  constexpr std::uint64_t uniform_index(std::uint64_t bound) {
    std::uint64_t r = next();
    // The threshold is below `bound`, so a draw of at least `bound` is
    // always accepted and the threshold's division is needed only for the
    // rare draw below it.
    if (r < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (r < threshold) r = next();
    }
    return r % bound;
  }

  /// Standard normal deviate (Box-Muller, reproducible).
  double normal();

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
};

/// Derive a per-stream seed from a base seed and a stream index (e.g. the
/// rank or the aggregation-partition id). Streams with distinct indices are
/// statistically independent.
constexpr std::uint64_t stream_seed(std::uint64_t base, std::uint64_t stream) {
  SplitMix64 sm(base ^ (0xd1b54a32d192ed03ULL * (stream + 1)));
  sm.next();
  return sm.next();
}

}  // namespace spio
