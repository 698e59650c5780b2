#include "core/validate.hpp"

#include <gtest/gtest.h>

#include "core/journal.hpp"
#include "core/metadata.hpp"
#include "core/writer.hpp"
#include "simmpi/runtime.hpp"
#include "util/serialize.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

TempDir write_sample(std::uint64_t per_rank = 200, bool checksums = true) {
  TempDir dir("spio-validate");
  const PatchDecomposition decomp(Box3::unit(), {2, 2, 1});
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = {2, 1, 1};
  simmpi::run(4, [&](simmpi::Comm& comm) {
    const auto local = workload::uniform(
        Schema::uintah(), decomp.patch(comm.rank()), per_rank,
        stream_seed(55, static_cast<std::uint64_t>(comm.rank())),
        static_cast<std::uint64_t>(comm.rank()) * per_rank);
    write_dataset(comm, decomp, local, cfg);
  });
  // Every write records checksums; dropping the sidecar leaves the state
  // of a dataset written without them.
  if (!checksums)
    std::filesystem::remove(dir.path() / ChecksumTable::kFileName);
  return dir;
}

TEST(Validate, FreshDatasetIsClean) {
  const TempDir dir = write_sample();
  const ValidationReport shallow = validate_dataset(dir.path(), false);
  EXPECT_TRUE(shallow.ok()) << shallow.errors.front();
  EXPECT_TRUE(shallow.warnings.empty());
  const ValidationReport deep = validate_dataset(dir.path(), true);
  EXPECT_TRUE(deep.ok()) << deep.errors.front();
}

TEST(Validate, MissingDataFileDetected) {
  const TempDir dir = write_sample();
  const auto meta = DatasetMetadata::load(dir.path());
  std::filesystem::remove(dir.path() / meta.files[0].file_name());
  const ValidationReport report = validate_dataset(dir.path());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.errors[0].find("missing"), std::string::npos);
}

TEST(Validate, TruncatedDataFileDetected) {
  const TempDir dir = write_sample();
  const auto meta = DatasetMetadata::load(dir.path());
  const auto victim = dir.path() / meta.files[1].file_name();
  auto bytes = read_file(victim);
  bytes.resize(bytes.size() - 100);
  write_file(victim, bytes);
  const ValidationReport report = validate_dataset(dir.path());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.errors[0].find("bytes"), std::string::npos);
}

TEST(Validate, CorruptMetadataReported) {
  const TempDir dir = write_sample();
  auto bytes = read_file(dir.file(DatasetMetadata::kFileName));
  bytes.resize(10);
  write_file(dir.file(DatasetMetadata::kFileName), bytes);
  const ValidationReport report = validate_dataset(dir.path());
  ASSERT_FALSE(report.ok());
}

TEST(Validate, MissingMetadataReported) {
  TempDir dir("spio-validate-empty");
  const ValidationReport report = validate_dataset(dir.path());
  EXPECT_FALSE(report.ok());
}

TEST(Validate, DeepCheckCatchesSwappedFiles) {
  // Swap the contents of two data files: sizes still match (same count),
  // so only the deep check notices particles outside their bounds.
  // Checksums disabled to exercise the per-particle detection path.
  const TempDir dir = write_sample(200, /*checksums=*/false);
  const auto meta = DatasetMetadata::load(dir.path());
  ASSERT_EQ(meta.files.size(), 2u);
  ASSERT_EQ(meta.files[0].particle_count, meta.files[1].particle_count);
  const auto a = dir.path() / meta.files[0].file_name();
  const auto b = dir.path() / meta.files[1].file_name();
  const auto ab = read_file(a);
  const auto bb = read_file(b);
  write_file(a, bb);
  write_file(b, ab);

  EXPECT_TRUE(validate_dataset(dir.path(), false).ok());
  const ValidationReport deep = validate_dataset(dir.path(), true);
  ASSERT_FALSE(deep.ok());
  EXPECT_NE(deep.errors[0].find("outside"), std::string::npos);
}

TEST(Validate, ChecksumCatchesSwappedFiles) {
  // With checksums recorded, the same swap is attributed to corruption by
  // the checksum pass before any particle is inspected.
  const TempDir dir = write_sample();
  const auto meta = DatasetMetadata::load(dir.path());
  ASSERT_EQ(meta.files.size(), 2u);
  const auto a = dir.path() / meta.files[0].file_name();
  const auto b = dir.path() / meta.files[1].file_name();
  const auto ab = read_file(a);
  const auto bb = read_file(b);
  write_file(a, bb);
  write_file(b, ab);

  EXPECT_TRUE(validate_dataset(dir.path(), false).ok());
  const ValidationReport deep = validate_dataset(dir.path(), true);
  ASSERT_FALSE(deep.ok());
  EXPECT_NE(deep.errors[0].find("checksum"), std::string::npos);
}

TEST(Validate, DeepCheckCatchesMutatedValues) {
  // Flip a density value beyond its recorded range. Checksums disabled to
  // exercise the field-range detection path.
  const TempDir dir = write_sample(200, /*checksums=*/false);
  const auto meta = DatasetMetadata::load(dir.path());
  const auto victim = dir.path() / meta.files[0].file_name();
  auto bytes = read_file(victim);
  const std::size_t density_off = meta.schema.offset(
      meta.schema.index_of("density"));
  const double absurd = 1e12;
  std::memcpy(bytes.data() + density_off, &absurd, sizeof(double));
  write_file(victim, bytes);

  const ValidationReport deep = validate_dataset(dir.path(), true);
  ASSERT_FALSE(deep.ok());
  EXPECT_NE(deep.errors[0].find("range"), std::string::npos);
}

TEST(Validate, ZeroParticleFileIsAWarning) {
  // Hand-craft metadata referencing an empty file.
  TempDir dir("spio-validate-zero");
  DatasetMetadata m;
  m.schema = Schema::position_only();
  m.domain = Box3::unit();
  m.has_field_ranges = false;
  m.total_particles = 0;
  FileRecord f;
  f.partition_id = 0;
  f.aggregator_rank = 0;
  f.particle_count = 0;
  f.bounds = Box3::unit();
  m.files.push_back(f);
  m.save(dir.path());
  write_file(dir.path() / f.file_name(), {});
  const ValidationReport report = validate_dataset(dir.path());
  EXPECT_TRUE(report.ok());
  ASSERT_FALSE(report.warnings.empty());
  EXPECT_NE(report.warnings[0].find("no particles"), std::string::npos);
}

}  // namespace
}  // namespace spio
