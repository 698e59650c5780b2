#pragma once

/// \file checked_io.hpp
/// Rewrite-and-revalidate file writes: the writer's defense against torn
/// writes, corrupted buffers and failed flushes.
///
/// `checked_write_file` writes a payload, reads it back, and compares
/// CRC-64 checksums. A mismatch (or a simulated failed flush) triggers a
/// bounded rewrite; exhausting the budget throws `FaultError`. Under a
/// null injector the function is a plain write + one read-back
/// verification pass. The payload comes from a chunk producer, so a data
/// file streams from its gather without ever being materialized; a
/// rewrite runs the producer again.
///
/// The one fault this cannot catch is `kBitRot`: the injector corrupts
/// the file *after* validation passes, modeling media decay between write
/// and read. Only the reader-side checksum table (`checksums.spio`)
/// detects it — which is exactly the property the chaos suite asserts.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>

#include "faultsim/fault_plan.hpp"
#include "util/checksum.hpp"

namespace spio::faultsim {

/// Validated-write retry budget.
struct CheckedIoPolicy {
  int max_attempts = 4;
};

/// Write the `size`-byte stream `produce` yields to `path` with read-back
/// CRC validation and bounded rewrite on failure. `injector` (may be
/// null) supplies storage faults for `rank`'s write attempts: a torn
/// write keeps the first half of the stream, a corrupt byte flips the
/// byte at a third of it. Returns the CRC-64 of the stream — the value
/// recorded in the dataset's checksum table — taken during its first run.
/// Throws `FaultError` when the retry budget is exhausted and `IoError`
/// on real filesystem failure.
std::uint64_t checked_write_file(const std::filesystem::path& path,
                                 std::uint64_t size,
                                 const ChunkProducer& produce,
                                 FaultInjector* injector, int rank,
                                 const CheckedIoPolicy& policy = {});

/// The one-chunk producer of `data`.
std::uint64_t checked_write_file(const std::filesystem::path& path,
                                 std::span<const std::byte> data,
                                 FaultInjector* injector, int rank,
                                 const CheckedIoPolicy& policy = {});

}  // namespace spio::faultsim
