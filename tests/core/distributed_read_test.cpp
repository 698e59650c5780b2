#include "core/distributed_read.hpp"

#include <gtest/gtest.h>

#include <atomic>
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

class DistributedRead : public ::testing::Test {
 protected:
  static constexpr int kWriters = 16;
  static constexpr std::uint64_t kPerRank = 250;
  static constexpr std::uint64_t kTotal = kWriters * kPerRank;

  static void SetUpTestSuite() {
    dir_ = new TempDir("spio-distread");
    const PatchDecomposition decomp(Box3::unit(), {4, 2, 2});
    WriterConfig cfg;
    cfg.dir = dir_->path();
    cfg.factor = {2, 2, 1};  // 2x1x2 partitions = 4 files
    simmpi::run(kWriters, [&](simmpi::Comm& comm) {
      const auto local = workload::uniform(
          Schema::uintah(), decomp.patch(comm.rank()), kPerRank,
          stream_seed(71, static_cast<std::uint64_t>(comm.rank())),
          static_cast<std::uint64_t>(comm.rank()) * kPerRank);
      write_dataset(comm, decomp, local, cfg);
    });
  }

  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }

  static std::set<double> id_set(const ParticleBuffer& buf) {
    const auto id = buf.schema().index_of("id");
    std::set<double> out;
    for (std::size_t i = 0; i < buf.size(); ++i)
      out.insert(buf.get_f64(i, id));
    return out;
  }

  static TempDir* dir_;
};

TempDir* DistributedRead::dir_ = nullptr;

TEST_F(DistributedRead, CensusAndContainment) {
  for (const int readers : {1, 2, 4, 8}) {
    const PatchDecomposition decomp =
        PatchDecomposition::for_ranks(Box3::unit(), readers);
    std::mutex mu;
    std::set<double> seen;
    std::uint64_t total = 0;
    simmpi::run(readers, [&](simmpi::Comm& comm) {
      const ParticleBuffer mine =
          distributed_read(comm, decomp, dir_->path());
      const Box3 patch = decomp.patch(comm.rank());
      for (std::size_t i = 0; i < mine.size(); ++i)
        ASSERT_TRUE(patch.contains_closed(mine.position(i)));
      const auto ids = id_set(mine);
      std::lock_guard lk(mu);
      total += mine.size();
      for (double v : ids)
        ASSERT_TRUE(seen.insert(v).second) << "duplicate particle";
    });
    EXPECT_EQ(total, kTotal) << readers << " readers";
  }
}

TEST_F(DistributedRead, EachFileOpenedExactlyOnce) {
  constexpr int kReaders = 8;
  const PatchDecomposition decomp =
      PatchDecomposition::for_ranks(Box3::unit(), kReaders);
  // Count files *touched* (disk opens + read-cache hits): an earlier
  // test in this process may have warmed the engine's cache for this
  // dataset, and what this test pins is the access pattern, not where
  // the bytes came from.
  std::atomic<int> opens{0};
  simmpi::run(kReaders, [&](simmpi::Comm& comm) {
    ReadStats rs;
    distributed_read(comm, decomp, dir_->path(), -1, &rs);
    opens += rs.files_opened + static_cast<int>(rs.cache_hits);
  });
  const Dataset ds = Dataset::open(dir_->path());
  EXPECT_EQ(opens.load(), ds.file_count());

  // Independent restart_read touches strictly more in total: boundary
  // files are read by several tiles.
  std::atomic<int> restart_opens{0};
  simmpi::run(kReaders, [&](simmpi::Comm& comm) {
    ReadStats rs;
    restart_read(comm, decomp, dir_->path(), &rs);
    restart_opens += rs.files_opened + static_cast<int>(rs.cache_hits);
  });
  EXPECT_GT(restart_opens.load(), opens.load());
}

TEST_F(DistributedRead, ReadStatsAccountBytesTimesAndAmplification) {
  constexpr int kReaders = 4;
  const PatchDecomposition decomp =
      PatchDecomposition::for_ranks(Box3::unit(), kReaders);
  const Dataset ds = Dataset::open(dir_->path());
  const std::uint64_t record = ds.metadata().schema.record_size();
  // Earlier tests in this process warmed the shared prefix cache; the
  // byte counts below are for reads that really open the files.
  ReadEngine::instance().clear_cache();

  ReadStats sum;
  std::mutex mu;
  simmpi::run(kReaders, [&](simmpi::Comm& comm) {
    ReadStats rs;
    const ParticleBuffer mine =
        distributed_read(comm, decomp, dir_->path(), -1, &rs);
    // particles_returned counts what this rank owns after the exchange.
    EXPECT_EQ(rs.particles_returned, mine.size());
    EXPECT_GE(rs.file_io_seconds, 0.0);
    EXPECT_GE(rs.exchange_seconds, 0.0);
    std::lock_guard lk(mu);
    sum.accumulate(rs);
  });

  // Each file is opened once and read in full, so the job scans exactly
  // the dataset and returns every particle: amplification 1.0.
  EXPECT_EQ(sum.particles_scanned, kTotal);
  EXPECT_EQ(sum.particles_returned, kTotal);
  EXPECT_EQ(sum.bytes_read, kTotal * record);
  EXPECT_DOUBLE_EQ(sum.read_amplification(), 1.0);

  // The job-level reduction sums volumes but maxes times.
  const ReadStats m = ReadStats::max_over(sum, sum);
  EXPECT_EQ(m.bytes_read, 2 * sum.bytes_read);
  EXPECT_DOUBLE_EQ(m.file_io_seconds, sum.file_io_seconds);
}

TEST_F(DistributedRead, AgreesWithRestartReadPerRank) {
  constexpr int kReaders = 4;
  const PatchDecomposition decomp =
      PatchDecomposition::for_ranks(Box3::unit(), kReaders);
  std::vector<std::set<double>> via_distributed(kReaders),
      via_restart(kReaders);
  simmpi::run(kReaders, [&](simmpi::Comm& comm) {
    via_distributed[static_cast<std::size_t>(comm.rank())] =
        id_set(distributed_read(comm, decomp, dir_->path()));
  });
  simmpi::run(kReaders, [&](simmpi::Comm& comm) {
    via_restart[static_cast<std::size_t>(comm.rank())] =
        id_set(restart_read(comm, decomp, dir_->path()));
  });
  for (int r = 0; r < kReaders; ++r)
    EXPECT_EQ(via_distributed[static_cast<std::size_t>(r)],
              via_restart[static_cast<std::size_t>(r)])
        << "rank " << r;
}

TEST_F(DistributedRead, LodBoundedReadsPrefixCounts) {
  constexpr int kReaders = 4;
  const PatchDecomposition decomp =
      PatchDecomposition::for_ranks(Box3::unit(), kReaders);
  const Dataset ds = Dataset::open(dir_->path());
  std::uint64_t expect = 0;
  for (int fi = 0; fi < ds.file_count(); ++fi)
    expect += ds.level_prefix_count(fi, 2, kReaders);

  std::atomic<std::uint64_t> got{0};
  simmpi::run(kReaders, [&](simmpi::Comm& comm) {
    got += distributed_read(comm, decomp, dir_->path(), /*levels=*/2).size();
  });
  EXPECT_EQ(got.load(), expect);
  EXPECT_LT(expect, kTotal);
}

TEST_F(DistributedRead, MoreReadersThanFiles) {
  // 32 readers, 4 files: most ranks read nothing but still receive their
  // tile's particles through the exchange.
  constexpr int kReaders = 32;
  const PatchDecomposition decomp =
      PatchDecomposition::for_ranks(Box3::unit(), kReaders);
  std::atomic<std::uint64_t> total{0};
  simmpi::run(kReaders, [&](simmpi::Comm& comm) {
    total += distributed_read(comm, decomp, dir_->path()).size();
  });
  EXPECT_EQ(total.load(), kTotal);
}

TEST_F(DistributedRead, FileAssignmentIsSpatial) {
  const Dataset ds = Dataset::open(dir_->path());
  const PatchDecomposition decomp =
      PatchDecomposition::for_ranks(Box3::unit(), 4);
  for (int fi = 0; fi < ds.file_count(); ++fi) {
    const int owner = file_reader(ds.metadata(), fi, decomp);
    const Box3& b = ds.metadata().files[static_cast<std::size_t>(fi)].bounds;
    EXPECT_TRUE(decomp.patch(owner).contains(b.center()));
  }
}

TEST_F(DistributedRead, RejectsMismatchedJob) {
  const PatchDecomposition decomp(Box3::unit(), {2, 2, 1});
  EXPECT_THROW(
      simmpi::run(2,
                  [&](simmpi::Comm& comm) {
                    distributed_read(comm, decomp, dir_->path());
                  }),
      ConfigError);
}

}  // namespace
}  // namespace spio
