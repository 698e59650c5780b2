#include "util/checksum.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/temp_dir.hpp"

namespace spio {
namespace {

std::vector<std::byte> bytes_of(std::string_view s) {
  std::vector<std::byte> b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

TEST(Crc64, MatchesCrc64XzCheckValue) {
  // The standard CRC-64/XZ check value.
  EXPECT_EQ(crc64(bytes_of("123456789")), 0x995DC9BBDF1939FAULL);
}

TEST(Crc64, EmptyInputIsZero) {
  EXPECT_EQ(crc64({}), 0u);
}

TEST(Crc64, DetectsSingleBitFlip) {
  auto a = bytes_of("the quick brown fox jumps over the lazy dog");
  auto b = a;
  b[17] ^= std::byte{0x01};
  EXPECT_NE(crc64(a), crc64(b));
}

TEST(Crc64, DetectsSwappedBlocks) {
  // Same bytes, different order — a plain sum would miss this.
  auto ab = bytes_of("blockAblockB");
  auto ba = bytes_of("blockBblockA");
  EXPECT_NE(crc64(ab), crc64(ba));
}

TEST(Crc64, IsAPureFunction) {
  const auto data = bytes_of("spio checksum determinism");
  EXPECT_EQ(crc64(data), crc64(data));
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> b(n);
  Xoshiro256 rng(seed);
  for (auto& x : b) x = static_cast<std::byte>(rng.next());
  return b;
}

TEST(Crc64, BytewiseReferenceMatchesKnownVectors) {
  // The reference must independently satisfy the CRC-64/XZ parameters —
  // it is the oracle the sliced tables are checked against.
  EXPECT_EQ(crc64_bytewise(bytes_of("123456789")), 0x995DC9BBDF1939FAULL);
  EXPECT_EQ(crc64_bytewise({}), 0u);
}

TEST(Crc64, SlicedMatchesBytewiseOnRandomBuffers) {
  // Sweep sizes across the kernel's regimes: empty, sub-word tail only,
  // exactly one 8-byte word, one 16-byte block, and lengths exercising
  // every head/body/tail combination around the block boundaries.
  for (const std::size_t n :
       {0u, 1u, 2u, 7u, 8u, 9u, 15u, 16u, 17u, 23u, 24u, 31u, 32u, 33u,
        63u, 64u, 100u, 255u, 256u, 1000u, 4096u, 65537u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto data = random_bytes(n, seed);
      EXPECT_EQ(crc64(data), crc64_bytewise(data))
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(Crc64, SlicedMatchesBytewiseAtEveryAlignment) {
  // The word loop has an alignment head; every offset into a buffer must
  // still agree with the byte-at-a-time reference.
  const auto data = random_bytes(256, 42);
  for (std::size_t off = 0; off < 24; ++off) {
    const std::span<const std::byte> tail{data.data() + off,
                                          data.size() - off};
    EXPECT_EQ(crc64(tail), crc64_bytewise(tail)) << "offset=" << off;
  }
}

TEST(Crc64, StreamingMatchesOneShotAtEverySplitPoint) {
  // Feeding [0, k) then [k, n) must equal one pass for every k — the
  // contract that lets the writer checksum chunk-by-chunk during the
  // file write.
  const auto data = random_bytes(97, 7);
  const std::uint64_t whole = crc64(data);
  for (std::size_t k = 0; k <= data.size(); ++k) {
    Crc64 crc;
    crc.update({data.data(), k});
    crc.update({data.data() + k, data.size() - k});
    EXPECT_EQ(crc.value(), whole) << "split at " << k;
  }
}

TEST(Crc64, StreamingValueIsIdempotentAndResettable) {
  const auto data = random_bytes(1000, 9);
  Crc64 crc;
  crc.update(data);
  const std::uint64_t v = crc.value();
  EXPECT_EQ(crc.value(), v);  // value() must not consume state
  crc.reset();
  EXPECT_EQ(crc.value(), crc64({}));
  crc.update(data);
  EXPECT_EQ(crc.value(), v);
}

TEST(Crc64, StreamingInManySmallChunksMatchesOneShot) {
  const auto data = random_bytes(10000, 13);
  Crc64 crc;
  std::size_t off = 0;
  // Irregular chunk sizes, including zero-length updates.
  const std::size_t chunks[] = {1, 0, 3, 8, 16, 17, 100, 1, 0, 4096};
  std::size_t c = 0;
  while (off < data.size()) {
    const std::size_t n = std::min(chunks[c % std::size(chunks)],
                                   data.size() - off);
    crc.update({data.data() + off, n});
    off += n;
    ++c;
  }
  EXPECT_EQ(crc.value(), crc64(data));
}

TEST(Crc64, WriteFileStreamsTheSameChecksumItWrites) {
  TempDir dir("crc64-write");
  const auto path = dir.path() / "data.bin";
  // Larger than the 1 MiB I/O chunk so the loop runs more than once,
  // with a ragged tail.
  const auto data = random_bytes((1u << 20) * 2 + 12345, 21);

  const std::uint64_t written = crc64_write_file(path, data);
  EXPECT_EQ(written, crc64(data));
  EXPECT_EQ(crc64_file(path), written);

  std::ifstream f(path, std::ios::binary);
  std::vector<std::byte> back(data.size());
  f.read(reinterpret_cast<char*>(back.data()),
         static_cast<std::streamsize>(back.size()));
  ASSERT_TRUE(f.good());
  EXPECT_EQ(back, data);
  EXPECT_EQ(std::filesystem::file_size(path), data.size());
}

TEST(Crc64, WriteFileReplacesExistingContents) {
  TempDir dir("crc64-replace");
  const auto path = dir.path() / "data.bin";
  const auto longer = random_bytes(4096, 1);
  const auto shorter = random_bytes(100, 2);
  crc64_write_file(path, longer);
  const std::uint64_t crc = crc64_write_file(path, shorter);
  EXPECT_EQ(std::filesystem::file_size(path), shorter.size());
  EXPECT_EQ(crc64_file(path), crc);
}

TEST(Crc64, FileChecksumOfMissingFileThrows) {
  TempDir dir("crc64-missing");
  EXPECT_THROW(crc64_file(dir.path() / "nope.bin"), IoError);
}

TEST(Crc64, EmptyFileChecksumIsEmptyBufferChecksum) {
  TempDir dir("crc64-empty");
  const auto path = dir.path() / "empty.bin";
  EXPECT_EQ(crc64_write_file(path, {}), crc64({}));
  EXPECT_EQ(crc64_file(path), crc64({}));
}

// ---- carry-less-multiply fold vs both references -----------------------
// `crc64` takes the PCLMULQDQ fold where the host has it and the slicing
// tables elsewhere; either way it must equal both `crc64_bytewise` and
// `crc64_sliced`. The fold consumes 64-byte steps, then 16-byte blocks,
// then hands the last 16 bytes and the tail to the tables, so the sweeps
// below cross every one of those boundaries. The ctest entry
// crc_suite_scalar_fallback runs this suite again under SPIO_SIMD=off.

TEST(Crc64, FoldMatchesReferencesAtEveryLengthAndAlignment) {
  const auto data = random_bytes(1100 + 16, 21);
  for (std::size_t align = 0; align < 16; ++align) {
    for (std::size_t n = 0; n <= 1100; ++n) {
      const std::span<const std::byte> s{data.data() + align, n};
      const std::uint64_t want = crc64_bytewise(s);
      ASSERT_EQ(crc64_sliced(s), want) << "n=" << n << " align=" << align;
      ASSERT_EQ(crc64(s), want) << "n=" << n << " align=" << align;
    }
  }
}

TEST(Crc64, FoldStreamingMatchesAtRandomSplitPoints) {
  // Splits land inside the 64-byte fold body, inside the 16-byte blocks
  // after it, and inside the sub-16-byte tail of each update.
  const auto data = random_bytes(3000, 22);
  const std::uint64_t want = crc64_bytewise(data);
  Xoshiro256 rng(23);
  for (int trial = 0; trial < 2000; ++trial) {
    Crc64 crc;
    std::size_t off = 0;
    while (off < data.size()) {
      const std::size_t n = std::min<std::size_t>(
          rng.uniform_index(trial % 2 == 0 ? 200 : 1200), data.size() - off);
      crc.update({data.data() + off, n});
      off += n;
    }
    ASSERT_EQ(crc.value(), want) << "trial " << trial;
  }
  for (std::size_t k = 0; k <= 300; ++k) {  // every split of a short head
    Crc64 crc;
    crc.update({data.data(), k});
    crc.update({data.data() + k, data.size() - k});
    ASSERT_EQ(crc.value(), want) << "split at " << k;
  }
}

TEST(Crc64, FoldMatchesReferencesOnAThirtyTwoMegabyteBuffer) {
  const auto data = random_bytes(std::size_t{32} << 20, 24);
  const std::uint64_t want = crc64_bytewise(data);
  EXPECT_EQ(crc64_sliced(data), want);
  EXPECT_EQ(crc64(data), want);
}

TEST(Crc64, SimdOffForcesThePortablePath) {
  // Meaningful under crc_suite_scalar_fallback; elsewhere the fold may or
  // may not run, depending on the host.
  const char* env = std::getenv("SPIO_SIMD");
  if (env != nullptr && std::string(env) == "off") {
    EXPECT_FALSE(crc64_uses_clmul());
  }
}

TEST(Crc64, WriteFileFromAProducerChecksumsEveryChunk) {
  TempDir dir("crc64-producer");
  const auto data = random_bytes(10000, 25);
  const auto path = dir.file("stream.bin");
  const std::uint64_t crc =
      crc64_write_stream(path, [&](const ChunkSink& sink) {
        for (std::size_t off = 0; off < data.size(); off += 777)
          sink({data.data() + off,
                std::min<std::size_t>(777, data.size() - off)});
      });
  EXPECT_EQ(crc, crc64_bytewise(data));
  EXPECT_EQ(crc64_file(path), crc);
  EXPECT_EQ(std::filesystem::file_size(path), data.size());
}

}  // namespace
}  // namespace spio
