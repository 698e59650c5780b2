#include "core/knn.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/read_engine.hpp"
#include "core/writer.hpp"
#include "simmpi/runtime.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

class Knn : public ::testing::Test {
 protected:
  static constexpr int kRanks = 16;
  static constexpr std::uint64_t kPerRank = 400;

  static void SetUpTestSuite() {
    dir_ = new TempDir("spio-knn");
    const PatchDecomposition decomp(Box3::unit(), {4, 4, 1});
    WriterConfig cfg;
    cfg.dir = dir_->path();
    cfg.factor = {1, 1, 1};  // 16 files: pruning has something to skip
    simmpi::run(kRanks, [&](simmpi::Comm& comm) {
      const auto local = workload::uniform(
          Schema::uintah(), decomp.patch(comm.rank()), kPerRank,
          stream_seed(41, static_cast<std::uint64_t>(comm.rank())),
          static_cast<std::uint64_t>(comm.rank()) * kPerRank);
      write_dataset(comm, decomp, local, cfg);
    });
  }

  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }

  /// Brute force reference: distances of all particles, sorted.
  static std::vector<double> brute_force(const Dataset& ds,
                                         const Vec3d& q) {
    const auto all = ds.query_box_scan_all(ds.metadata().domain);
    std::vector<double> d;
    d.reserve(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
      d.push_back(distance(all.position(i), q));
    std::sort(d.begin(), d.end());
    return d;
  }

  static TempDir* dir_;
};

TempDir* Knn::dir_ = nullptr;

TEST(DistanceToBox, InsideOnFaceAndOutside) {
  const Box3 b({0, 0, 0}, {1, 1, 1});
  EXPECT_DOUBLE_EQ(distance_to_box({0.5, 0.5, 0.5}, b), 0.0);
  EXPECT_DOUBLE_EQ(distance_to_box({1.0, 0.5, 0.5}, b), 0.0);
  EXPECT_DOUBLE_EQ(distance_to_box({2.0, 0.5, 0.5}, b), 1.0);
  EXPECT_DOUBLE_EQ(distance_to_box({2.0, 2.0, 0.5}, b),
                   std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(distance_to_box({-1, -1, -1}, b), std::sqrt(3.0));
}

TEST_F(Knn, MatchesBruteForceDistances) {
  const Dataset ds = Dataset::open(dir_->path());
  Xoshiro256 rng(5);
  for (int q = 0; q < 10; ++q) {
    const Vec3d p{rng.uniform(), rng.uniform(), rng.uniform()};
    const auto ref = brute_force(ds, p);
    for (const int k : {1, 5, 32}) {
      const KnnResult res = k_nearest(ds, p, k);
      ASSERT_EQ(res.distances.size(), static_cast<std::size_t>(k));
      ASSERT_EQ(res.particles.size(), static_cast<std::size_t>(k));
      for (int i = 0; i < k; ++i) {
        ASSERT_DOUBLE_EQ(res.distances[static_cast<std::size_t>(i)],
                         ref[static_cast<std::size_t>(i)])
            << "query " << q << " k=" << k << " i=" << i;
        // The returned record really is at the claimed distance.
        ASSERT_DOUBLE_EQ(
            distance(res.particles.position(static_cast<std::size_t>(i)), p),
            res.distances[static_cast<std::size_t>(i)]);
      }
    }
  }
}

TEST_F(Knn, DistancesAreAscending) {
  const Dataset ds = Dataset::open(dir_->path());
  const KnnResult res = k_nearest(ds, {0.3, 0.7, 0.5}, 50);
  EXPECT_TRUE(std::is_sorted(res.distances.begin(), res.distances.end()));
}

TEST_F(Knn, PrunesDistantFiles) {
  const Dataset ds = Dataset::open(dir_->path());
  // Earlier tests in this process warmed the shared prefix cache; a
  // cached file counts as a hit, not an open.
  ReadEngine::instance().clear_cache();
  ReadStats rs;
  // A query deep inside one tile with small k touches few of 16 files.
  k_nearest(ds, {0.125, 0.125, 0.5}, 5, &rs);
  EXPECT_LT(rs.files_opened, 6);
  EXPECT_GE(rs.files_opened, 1);
}

TEST_F(Knn, FarAwayQueryStillWorks) {
  const Dataset ds = Dataset::open(dir_->path());
  const KnnResult res = k_nearest(ds, {50, 50, 50}, 3);
  ASSERT_EQ(res.distances.size(), 3u);
  EXPECT_GT(res.distances[0], 80.0);  // everything is far
}

TEST_F(Knn, KLargerThanDatasetReturnsEverything) {
  const Dataset ds = Dataset::open(dir_->path());
  const KnnResult res =
      k_nearest(ds, {0.5, 0.5, 0.5}, 2 * kRanks * kPerRank);
  EXPECT_EQ(res.particles.size(), kRanks * kPerRank);
}

TEST_F(Knn, RejectsBadInput) {
  const Dataset ds = Dataset::open(dir_->path());
  EXPECT_THROW(k_nearest(ds, {0, 0, 0}, 0), ConfigError);
}

}  // namespace
}  // namespace spio
