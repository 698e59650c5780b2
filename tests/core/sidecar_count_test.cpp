/// Corrupt entry counts in the three sidecar/metadata parsers. Each count
/// is checked against the bytes that follow before anything is sized from
/// it, so a huge count is a FormatError, never a huge allocation
/// (`std::bad_alloc`, `std::length_error`). The u32 count fields can only
/// carry 2^32-1; the u64 checksum count also gets 2^40 and 2^64-1. A
/// zone count is also checked against the LOD law in bounded steps.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/journal.hpp"
#include "core/metadata.hpp"
#include "core/query_plan/zone_map.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"
#include "util/temp_dir.hpp"

namespace spio {
namespace {

constexpr std::uint64_t kCounts[] = {0xFFFFFFFFULL, 1ULL << 40, ~0ULL};

TEST(SidecarCounts, ChecksumTableRejectsCountBeyondPayload) {
  TempDir dir("sidecar-count");
  for (const std::uint64_t count : kCounts) {
    BinaryWriter w;  // 16 bytes: header and count, no entries
    w.write<std::uint32_t>(ChecksumTable::kMagic);
    w.write<std::uint32_t>(ChecksumTable::kVersion);
    w.write<std::uint64_t>(count);
    write_file(dir.file(ChecksumTable::kFileName), w.bytes());
    EXPECT_THROW(ChecksumTable::load(dir.path()), FormatError) << count;
  }
}

/// A zones.spio body up to its file count, for a schema of
/// `range_count` components.
BinaryWriter zone_header(std::uint32_t range_count, std::uint32_t files,
                         LodParams lod = {32, 2.0}) {
  BinaryWriter w;
  w.write<std::uint32_t>(ZoneMapTable::kMagic);
  w.write<std::uint32_t>(ZoneMapTable::kVersion);
  w.write<std::uint32_t>(range_count);
  w.write<std::uint64_t>(lod.P);
  w.write<double>(lod.S);
  w.write<std::uint32_t>(files);
  return w;
}

/// Seal a zones.spio body with its CRC-64 trailer, so that the count
/// check, not the trailer check, is what the parser trips on.
std::vector<std::byte> sealed(BinaryWriter w) {
  w.write<std::uint64_t>(crc64(w.bytes()));
  return w.take();
}

TEST(SidecarCounts, ZoneTableRejectsFileCountBeyondPayload) {
  const std::vector<std::byte> bytes =
      sealed(zone_header(16, static_cast<std::uint32_t>(kCounts[0])));
  EXPECT_THROW(ZoneMapTable::deserialize(bytes), FormatError);
}

TEST(SidecarCounts, ZoneTableRejectsRangeCountBeyondPayload) {
  // One 1-record file (one zone) of a schema claiming 2^32-1 components.
  BinaryWriter w = zone_header(static_cast<std::uint32_t>(kCounts[0]), 1);
  w.write<std::uint32_t>(0);  // aggregator rank
  w.write<std::uint64_t>(1);  // particle count
  w.write<std::uint32_t>(zone_file_count(LodParams{32, 2.0}, 1));
  w.write<double>(0.0);
  w.write<double>(1.0);
  EXPECT_THROW(ZoneMapTable::deserialize(sealed(std::move(w))), FormatError);
}

/// A sealed one-file, one-component zones.spio under LOD P = 1, S = 1
/// (level l holds one record, so an n-record file has n zones) whose
/// entry claims `zones` zones for `n` records and carries `ranges` zone
/// ranges.
std::vector<std::byte> unit_law_sidecar(std::uint64_t n, std::uint32_t zones,
                                        std::uint32_t ranges) {
  BinaryWriter w = zone_header(1, 1, LodParams{1, 1.0});
  w.write<std::uint32_t>(0);  // aggregator rank
  w.write<std::uint64_t>(n);
  w.write<std::uint32_t>(zones);
  for (std::uint32_t i = 0; i < ranges; ++i) {
    w.write<double>(0.0);
    w.write<double>(1.0);
  }
  return sealed(std::move(w));
}

TEST(SidecarCounts, ZoneTableChecksTheUnitLawInBoundedSteps) {
  // Under S = 1 the zone-count law has as many levels as records; the
  // parser must reject a wrong claim without walking them all.
  for (const std::uint64_t n : {std::uint64_t{32000}, std::uint64_t{0xFFFFFFFF},
                                std::uint64_t{1} << 63}) {
    const auto t0 = std::chrono::steady_clock::now();
    // One zone claimed, its range present: the law check trips.
    EXPECT_THROW(ZoneMapTable::deserialize(unit_law_sidecar(n, 1, 1)),
                 FormatError)
        << n;
    // 2^32-1 zones claimed, no ranges: the count check trips first.
    EXPECT_THROW(
        ZoneMapTable::deserialize(unit_law_sidecar(n, 0xFFFFFFFF, 0)),
        FormatError)
        << n;
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1))
        << n;
  }
  // The same law accepts an honest claim, and rejects one zone too many
  // or too few.
  EXPECT_EQ(ZoneMapTable::deserialize(unit_law_sidecar(3, 3, 3)).files.size(),
            1u);
  EXPECT_THROW(ZoneMapTable::deserialize(unit_law_sidecar(3, 2, 2)),
               FormatError);
  EXPECT_THROW(ZoneMapTable::deserialize(unit_law_sidecar(3, 4, 4)),
               FormatError);
}

TEST(SidecarCounts, ZoneTableRejectsZeroRangeCount) {
  // No components: every zone count would pass the bytes check.
  BinaryWriter w = zone_header(0, 1);
  w.write<std::uint32_t>(0);  // aggregator rank
  w.write<std::uint64_t>(1);  // particle count
  w.write<std::uint32_t>(zone_file_count(LodParams{32, 2.0}, 1));
  EXPECT_THROW(ZoneMapTable::deserialize(sealed(std::move(w))), FormatError);
}

TEST(SidecarCounts, MetadataRejectsFileCountBeyondPayload) {
  for (const bool bounds : {false, true}) {
    DatasetMetadata m;
    m.schema = Schema::uintah();
    m.domain = Box3({0, 0, 0}, {1, 1, 1});
    m.has_bounds = bounds;
    // No files: the file count is the last field of the payload.
    std::vector<std::byte> bytes = m.serialize();
    const std::uint32_t count = static_cast<std::uint32_t>(kCounts[0]);
    std::memcpy(bytes.data() + bytes.size() - sizeof(count), &count,
                sizeof(count));
    EXPECT_THROW(DatasetMetadata::deserialize(bytes), FormatError) << bounds;
  }
}

TEST(SidecarCounts, LengthPrefixedVectorRejectsWrappingCount) {
  for (const std::uint64_t count : kCounts) {
    BinaryWriter w;
    w.write<std::uint64_t>(count);
    w.write<std::uint64_t>(7);
    BinaryReader r(w.bytes());
    EXPECT_THROW(r.read_vector<std::uint64_t>(), FormatError) << count;
  }
}

}  // namespace
}  // namespace spio
