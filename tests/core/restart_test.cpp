#include <gtest/gtest.h>

#include <mutex>
#include <set>

#include "core/read_engine.hpp"
#include "core/restart.hpp"
#include "core/writer.hpp"
#include "simmpi/runtime.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

std::set<double> id_set(const ParticleBuffer& buf) {
  const auto id = buf.schema().index_of("id");
  std::set<double> out;
  for (std::size_t i = 0; i < buf.size(); ++i) out.insert(buf.get_f64(i, id));
  return out;
}

class RestartRead : public ::testing::Test {
 protected:
  static constexpr int kWriters = 16;
  static constexpr std::uint64_t kPerRank = 300;
  static constexpr std::uint64_t kTotal = kWriters * kPerRank;

  static void SetUpTestSuite() {
    dir_ = new TempDir("spio-restart");
    const PatchDecomposition decomp(Box3({0, 0, 0}, {2, 2, 2}), {4, 2, 2});
    WriterConfig cfg;
    cfg.dir = dir_->path();
    cfg.factor = {2, 2, 2};
    simmpi::run(kWriters, [&](simmpi::Comm& comm) {
      const auto local = workload::uniform(
          Schema::uintah(), decomp.patch(comm.rank()), kPerRank,
          stream_seed(61, static_cast<std::uint64_t>(comm.rank())),
          static_cast<std::uint64_t>(comm.rank()) * kPerRank);
      write_dataset(comm, decomp, local, cfg);
    });
  }

  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }

  /// Restart with `nranks` readers; returns per-rank particle counts and
  /// checks the census is exactly the written set.
  static std::vector<std::uint64_t> restart_with(int nranks,
                                                 const Vec3i& grid) {
    const PatchDecomposition decomp(Box3({0, 0, 0}, {2, 2, 2}), grid);
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(nranks));
    std::mutex mu;
    std::set<double> seen;
    simmpi::run(nranks, [&](simmpi::Comm& comm) {
      const ParticleBuffer mine =
          restart_read(comm, decomp, dir_->path());
      // Every particle a rank receives lies in its patch.
      const Box3 patch = decomp.patch(comm.rank());
      for (std::size_t i = 0; i < mine.size(); ++i)
        ASSERT_TRUE(patch.contains_closed(mine.position(i)));
      counts[static_cast<std::size_t>(comm.rank())] = mine.size();
      const auto ids = id_set(mine);
      std::lock_guard lk(mu);
      for (double v : ids)
        ASSERT_TRUE(seen.insert(v).second) << "duplicate particle";
    });
    std::uint64_t total = 0;
    for (auto c : counts) total += c;
    EXPECT_EQ(total, kTotal);
    return counts;
  }

  static TempDir* dir_;
};

TempDir* RestartRead::dir_ = nullptr;

TEST_F(RestartRead, SameDecomposition) {
  restart_with(16, {4, 2, 2});
}

TEST_F(RestartRead, FewerRanks) {
  restart_with(4, {2, 2, 1});
  restart_with(2, {2, 1, 1});
  restart_with(1, {1, 1, 1});
}

TEST_F(RestartRead, MoreRanksThanWriters) {
  restart_with(32, {4, 4, 2});
}

TEST_F(RestartRead, MismatchedGridRejected) {
  const PatchDecomposition decomp(Box3({0, 0, 0}, {2, 2, 2}), {2, 2, 2});
  EXPECT_THROW(
      simmpi::run(4, [&](simmpi::Comm& comm) {
        restart_read(comm, decomp, dir_->path());  // 8 patches, 4 ranks
      }),
      ConfigError);
}

TEST_F(RestartRead, DomainMustContainDataset) {
  const PatchDecomposition decomp(Box3({0, 0, 0}, {1, 1, 1}), {2, 2, 1});
  EXPECT_THROW(
      simmpi::run(4, [&](simmpi::Comm& comm) {
        restart_read(comm, decomp, dir_->path());
      }),
      ConfigError);
}

TEST_F(RestartRead, StatsAccumulate) {
  // Earlier tests in this process warmed the shared prefix cache; the
  // byte counts below are for reads that really open the files.
  ReadEngine::instance().clear_cache();
  const PatchDecomposition decomp(Box3({0, 0, 0}, {2, 2, 2}), {1, 1, 1});
  simmpi::run(1, [&](simmpi::Comm& comm) {
    ReadStats rs;
    const auto all = restart_read(comm, decomp, dir_->path(), &rs);
    EXPECT_EQ(all.size(), kTotal);
    EXPECT_GT(rs.files_opened, 0);
    EXPECT_EQ(rs.bytes_read,
              kTotal * Schema::uintah().record_size());
  });
}

}  // namespace
}  // namespace spio
