#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace spio {
namespace {

TEST(SplitMix64, DeterministicSequence) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256, DeterministicSequence) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, UniformInUnitInterval) {
  Xoshiro256 rng(3);
  double sum = 0.0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro256, UniformRangeRespectsBounds) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 5.0);
  }
}

TEST(Xoshiro256, UniformIndexCoversRangeWithoutBias) {
  Xoshiro256 rng(11);
  constexpr std::uint64_t bound = 7;
  std::vector<int> counts(bound, 0);
  constexpr int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(bound)];
  for (std::uint64_t k = 0; k < bound; ++k) {
    EXPECT_NEAR(counts[k], n / static_cast<int>(bound), 600)
        << "bucket " << k;
  }
}

TEST(Xoshiro256, UniformIndexOfOneIsAlwaysZero) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

/// The original formulation of Xoshiro256::uniform_index, which computed
/// the rejection threshold on every call. Counts the draws it rejected.
std::uint64_t uniform_index_always_threshold(Xoshiro256& rng,
                                             std::uint64_t bound,
                                             std::uint64_t& rejected) {
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = rng.next();
    if (r >= threshold) return r % bound;
    ++rejected;
  }
}

TEST(Xoshiro256, UniformIndexMatchesAlwaysThresholdFormula) {
  // Same values and same draws consumed: after every call both generators
  // must still be in step. Bounds just above 2^63 reject almost half of
  // all draws, so the rejection path is exercised, not just reachable.
  constexpr std::uint64_t kHalf = 1ULL << 63;
  constexpr std::uint64_t kMax = ~0ULL;
  std::vector<std::uint64_t> bounds = {1,
                                       2,
                                       3,
                                       1000,
                                       4097,
                                       (1ULL << 32) - 1,
                                       1ULL << 32,
                                       (1ULL << 32) + 1,
                                       kHalf - 1,
                                       kHalf,
                                       kHalf + 1,
                                       kHalf + 3,
                                       kHalf + 12345,
                                       kHalf + (kHalf >> 1),
                                       kMax - 1,
                                       kMax};
  for (std::uint64_t b = 4; b < 300; b += 7) bounds.push_back(b);
  std::uint64_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Xoshiro256 a(seed), b(seed);
    for (const std::uint64_t bound : bounds) {
      for (int k = 0; k < 50; ++k) {
        ASSERT_EQ(a.uniform_index(bound),
                  uniform_index_always_threshold(b, bound, rejected))
            << "seed=" << seed << " bound=" << bound;
        ASSERT_EQ(a.next(), b.next()) << "seed=" << seed << " bound=" << bound;
      }
    }
  }
  EXPECT_GT(rejected, 1000u);
}

TEST(Xoshiro256, NormalHasUnitMoments) {
  Xoshiro256 rng(5);
  double sum = 0.0, sq = 0.0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(StreamSeed, DistinctStreamsGetDistinctSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 1000; ++s)
    seeds.insert(stream_seed(123, s));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(StreamSeed, PureFunctionOfInputs) {
  EXPECT_EQ(stream_seed(1, 2), stream_seed(1, 2));
  EXPECT_NE(stream_seed(1, 2), stream_seed(2, 1));
}

TEST(Xoshiro256, SatisfiesUniformRandomBitGenerator) {
  static_assert(Xoshiro256::min() == 0);
  static_assert(Xoshiro256::max() == ~0ULL);
  Xoshiro256 rng(0);
  EXPECT_NE(rng(), rng());
}

}  // namespace
}  // namespace spio
