#include "faultsim/checked_io.hpp"

#include <algorithm>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/checksum.hpp"
#include "util/serialize.hpp"

namespace spio::faultsim {

namespace {

/// Write one attempt of the `size`-byte stream to `path`, with `fault`
/// applied: a torn write keeps only the first half, a corrupt byte flips
/// the byte at a third of the file in the chunk that holds it. `crc`,
/// when given, checksums the intended bytes as they stream past.
void write_attempt(const std::filesystem::path& path,
                   const ChunkProducer& produce, FileFaultKind fault,
                   std::uint64_t size, Crc64* crc) {
  std::uint64_t keep = ~std::uint64_t{0};  // bytes that reach the file
  std::uint64_t flip = ~std::uint64_t{0};  // offset of the flipped byte
  if (fault == FileFaultKind::kTornWrite) keep = size / 2;
  if (fault == FileFaultKind::kCorruptByte && size > 0) flip = size / 3;
  std::uint64_t off = 0;
  crc64_write_stream(path, [&](const ChunkSink& sink) {
    produce([&](std::span<const std::byte> chunk) {
      if (crc) crc->update(chunk);
      const std::uint64_t end = off + chunk.size();
      if (off < keep) {
        const std::span<const std::byte> kept =
            chunk.first(static_cast<std::size_t>(std::min(end, keep) - off));
        if (flip >= off && flip < off + kept.size()) {
          const auto at = static_cast<std::size_t>(flip - off);
          const std::byte bad = kept[at] ^ std::byte{0x40};
          sink(kept.first(at));
          sink({&bad, 1});
          sink(kept.subspan(at + 1));
        } else {
          sink(kept);
        }
      }
      off = end;
    });
  });
}

}  // namespace

std::uint64_t checked_write_file(const std::filesystem::path& path,
                                 std::uint64_t size,
                                 const ChunkProducer& produce,
                                 FaultInjector* injector, int rank,
                                 const CheckedIoPolicy& policy) {
  SPIO_EXPECTS(policy.max_attempts > 0);
  Crc64 want;
  if (obs::enabled())
    obs::MetricsRegistry::global().counter("faultsim.checked_writes").add(1);

  for (int attempt = 1;; ++attempt) {
    if (attempt > 1) {
      if (obs::enabled())
        obs::MetricsRegistry::global().counter("faultsim.rewrites").add(1);
      obs::log::Event(obs::log::Level::kWarn, "faultsim.rewrite")
          .kv("rank", rank)
          .kv("file", path.filename().string())
          .kv("attempt", attempt);
    }
    const FileFaultKind fault =
        injector ? injector->next_file_fault(rank, path.filename().string())
                 : FileFaultKind::kNone;

    // The intended bytes' CRC is taken once, on the stream's first run,
    // whatever that attempt writes; later attempts only write.
    write_attempt(path, produce, fault, size, attempt == 1 ? &want : nullptr);
    // A failed flush: the data reached the page cache but the on-disk
    // state is untrustworthy, so the attempt must not count as durable
    // even though a read-back could succeed.
    const bool flush_failed = fault == FileFaultKind::kFailedSync;

    // Read back and revalidate; a torn or corrupted write is caught here
    // and rewritten, up to the budget. The read-back streams through a
    // fixed-size chunk buffer instead of materializing the whole file.
    const bool valid = !flush_failed && crc64_file(path) == want.value();
    if (valid) {
      if (fault == FileFaultKind::kBitRot) {
        // Corrupt *after* validation passed: silent on the write path by
        // construction; only reader-side checksums can detect it.
        std::vector<std::byte> rotted = read_file(path);
        if (!rotted.empty()) rotted[rotted.size() / 2] ^= std::byte{0x01};
        write_file(path, rotted);
      }
      return want.value();
    }

    if (attempt >= policy.max_attempts) {
      obs::flight_record(obs::FlightType::kMark, "checked_write_exhausted",
                         static_cast<std::uint64_t>(attempt));
      obs::log::Event(obs::log::Level::kError, "faultsim.checked_write_failed")
          .kv("rank", rank)
          .kv("file", path.filename().string())
          .kv("attempts", attempt);
    }
    SPIO_CHECK(attempt < policy.max_attempts, FaultError,
               "rank " << rank << " could not produce a valid copy of '"
                       << path.string() << "' after " << attempt
                       << " write attempts");
  }
}

std::uint64_t checked_write_file(const std::filesystem::path& path,
                                 std::span<const std::byte> data,
                                 FaultInjector* injector, int rank,
                                 const CheckedIoPolicy& policy) {
  return checked_write_file(
      path, data.size(), [data](const ChunkSink& sink) { sink(data); },
      injector, rank, policy);
}

}  // namespace spio::faultsim
