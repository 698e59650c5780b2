#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/writer.hpp"
#include "obs/obs.hpp"
#include "simmpi/runtime.hpp"
#include "util/checksum.hpp"
#include "util/serialize.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

/// Write-output freeze: a fixed-seed 4-rank write must leave exactly these
/// files, with exactly these fingerprints, in the dataset directory.
/// Covers the data files, `meta.spio`, `zones.spio` and `checksums.spio`,
/// and pins that neither `write.journal` nor a run record survives a write
/// with observability off. A failure here means the writer's output bytes
/// changed: fix the regression, or bump the format version and re-capture.
///
/// Each file carries its `crc64_file` and an FNV-1a 64 hash. The second is
/// needed because `zones.spio` ends in the CRC-64 of its own body, and the
/// CRC-64 of such a file is the same constant (the CRC residue) whatever
/// the body holds.
struct GoldenFile {
  const char* name;
  std::uint64_t crc;
  std::uint64_t fnv;
};

struct Fingerprint {
  std::string name;
  std::uint64_t crc;
  std::uint64_t fnv;
  bool operator<(const Fingerprint& o) const { return name < o.name; }
};

using Listing = std::vector<Fingerprint>;

std::uint64_t fnv1a64(const std::vector<std::byte>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Write 4 ranks on a 2x2x1 decomposition with `cfg` (dir filled in here)
/// and fingerprint every file in the directory, sorted by name.
/// `counts[r]` particles go to rank r.
Listing write_and_list(WriterConfig cfg,
                       const std::vector<std::uint64_t>& counts) {
  obs::disable();
  TempDir dir("spio-writer-golden");
  cfg.dir = dir.path();
  const PatchDecomposition decomp(Box3::unit(), {2, 2, 1});
  simmpi::run(4, [&](simmpi::Comm& comm) {
    const auto r = static_cast<std::uint64_t>(comm.rank());
    const auto local =
        workload::uniform(Schema::uintah(), decomp.patch(comm.rank()),
                          counts[r], stream_seed(1313, r), r * 100000);
    write_dataset(comm, decomp, local, cfg);
  });
  Listing out;
  for (const auto& e : std::filesystem::directory_iterator(dir.path()))
    out.push_back({e.path().filename().string(), crc64_file(e.path()),
                   fnv1a64(read_file(e.path()))});
  std::sort(out.begin(), out.end());
  return out;
}

void expect_listing(const Listing& got, const std::vector<GoldenFile>& want) {
  std::string dump;
  for (const Fingerprint& f : got) {
    char line[128];
    std::snprintf(line, sizeof line,
                  "  {\"%s\", 0x%016llxull, 0x%016llxull},\n",
                  f.name.c_str(), static_cast<unsigned long long>(f.crc),
                  static_cast<unsigned long long>(f.fnv));
    dump += line;
  }
  ASSERT_EQ(got.size(), want.size()) << "directory holds:\n" << dump;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name) << "directory holds:\n" << dump;
    EXPECT_TRUE(got[i].crc == want[i].crc && got[i].fnv == want[i].fnv)
        << got[i].name << " bytes changed; directory holds:\n"
        << dump;
  }
}

// The aligned fast path and the general per-particle exchange must agree
// byte for byte, so both pin the same listing.
const std::vector<GoldenFile> kUniformGolden = {
    {"File_0.bin", 0x66cc4194b66ab90full, 0x00aa28c8d6d0fcd4ull},
    {"File_2.bin", 0x6fce4e9904ef509cull, 0x81126420f7c7a757ull},
    {"checksums.spio", 0x2019717829ccc7edull, 0xc4f9e728e19fcf4full},
    {"meta.spio", 0xb2e4eecbbd3274c3ull, 0xab427c1d0aa32745ull},
    {"zones.spio", 0xb66a73654282cac0ull, 0xbfd58412aaf654ebull},
};

const std::vector<GoldenFile> kAdaptiveRefinedGolden = {
    {"File_0.bin", 0xc0491ac957322ef5ull, 0x2c62f838da681f4full},
    {"File_2.bin", 0x5b8797a4f3fed12cull, 0x903edbd98afe410cull},
    {"checksums.spio", 0xf0d00f6a4c60a657ull, 0xff6069a95045ac78ull},
    {"meta.spio", 0x0dccfc38c95b2c0bull, 0x6700a2ec4fc0a226ull},
    {"zones.spio", 0xb66a73654282cac0ull, 0xe20ded47dc82299eull},
};

WriterConfig factor_2x1x1() {
  WriterConfig cfg;
  cfg.factor = {2, 1, 1};
  return cfg;
}

TEST(WriterGolden, AlignedFastPathIsByteIdentical) {
  const Listing got = write_and_list(factor_2x1x1(), {300, 300, 300, 300});
  expect_listing(got, kUniformGolden);
}

TEST(WriterGolden, GeneralExchangeIsByteIdentical) {
  WriterConfig cfg = factor_2x1x1();
  cfg.force_general_exchange = true;
  const Listing got = write_and_list(cfg, {300, 300, 300, 300});
  expect_listing(got, kUniformGolden);
}

TEST(WriterGolden, AdaptiveRefinedIsByteIdentical) {
  // Skewed load with one empty rank: exercises the extent all-to-all,
  // the k-d refinement and an empty contribution to the commit gather.
  WriterConfig cfg = factor_2x1x1();
  cfg.adaptive = true;
  cfg.adaptive_refine = true;
  const Listing got = write_and_list(cfg, {900, 200, 100, 0});
  expect_listing(got, kAdaptiveRefinedGolden);
}

}  // namespace
}  // namespace spio
