#pragma once

/// \file checksum.hpp
/// CRC-64/XZ (reflected ECMA-182 polynomial) over byte spans. Used by the
/// writer's rewrite-and-revalidate recovery path and by the optional
/// `checksums.spio` sidecar that lets readers detect silent data-file
/// corruption (bit rot, torn writes that escaped the writer).
///
/// On x86-64 hosts with PCLMULQDQ, `crc64` and `Crc64` fold the input
/// with carry-less multiplies (four 128-bit lanes, 64 bytes per step; the
/// last 16 bytes and the tail go through the slicing tables). Everywhere
/// else — and under `SPIO_SIMD=off`/`scalar`/`0`/`sse2` — they run the
/// portable slicing-by-16 path (sixteen independent table lookups per
/// pair of 64-bit words), which `crc64_sliced` also exposes directly.
/// `crc64_bytewise` keeps the classic one-table form as the differential
/// testing reference and perf baseline. The streaming entry points
/// (`Crc64`, `crc64_write_stream`, `crc64_file`) let the hot write path fold
/// checksumming into the file pass instead of re-scanning whole buffers.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>

namespace spio {

/// Incremental CRC-64/XZ. Feeding a buffer in any chunking yields the
/// same value as one `crc64` call over the concatenation.
class Crc64 {
 public:
  /// Fold `data` into the running checksum.
  void update(std::span<const std::byte> data);

  /// CRC-64/XZ of every byte fed so far (does not reset the state).
  std::uint64_t value() const { return ~crc_; }

  /// Restart as if freshly constructed.
  void reset() { crc_ = ~0ULL; }

 private:
  std::uint64_t crc_ = ~0ULL;
};

/// CRC-64/XZ of `data`. Matches the widely-used xz/liblzma parameters
/// (poly 0x42F0E1EBA9EA3693 reflected, init/xorout ~0), so values can be
/// cross-checked with external tooling.
std::uint64_t crc64(std::span<const std::byte> data);

/// The same CRC by the portable slicing-by-16 path, whatever the host
/// supports: the second differential oracle for the folding kernel.
std::uint64_t crc64_sliced(std::span<const std::byte> data);

/// True when `crc64` and `Crc64` run the carry-less-multiply fold here.
bool crc64_uses_clmul();

/// Byte-at-a-time reference implementation of the same CRC. Slower than
/// `crc64`; exists so tests can cross-check the fast paths and so the
/// perf baseline can report the speedup against it.
std::uint64_t crc64_bytewise(std::span<const std::byte> data);

/// Receives a byte stream one chunk at a time, in order.
using ChunkSink = std::function<void(std::span<const std::byte>)>;

/// Produces a byte stream by feeding every chunk, in order, to the sink.
/// A producer can be run more than once (a rewrite runs it again)
/// and must produce the same bytes every time; the chunks it passes need
/// only stay valid for the duration of the sink call.
using ChunkProducer = std::function<void(const ChunkSink&)>;

/// Write the stream `produce` yields to `path` (replacing any existing
/// file), checksumming each chunk right after it is written while it is
/// still in cache. Returns the CRC-64. Throws `IoError` on open/write
/// failure.
std::uint64_t crc64_write_stream(const std::filesystem::path& path,
                                 const ChunkProducer& produce);

/// The buffer form: write `bytes` to `path` and return their CRC-64.
std::uint64_t crc64_write_file(const std::filesystem::path& path,
                               std::span<const std::byte> bytes);

/// CRC-64 of a file's contents, streamed in fixed-size chunks without
/// materializing the file in memory. Throws `IoError` if the file cannot
/// be opened or read.
std::uint64_t crc64_file(const std::filesystem::path& path);

}  // namespace spio
