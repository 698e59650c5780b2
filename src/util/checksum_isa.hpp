#pragma once

/// \file checksum_isa.hpp
/// Internal: the CRC-64 carry-less-multiply kernel, compiled in its own
/// TU (checksum_clmul.cpp, at `-mpclmul`). checksum.cpp calls it only
/// after `clmul_compiled()` and a CPU check both pass, so the abort stub
/// left behind on toolchains without the flag is unreachable.

#include <cstddef>
#include <cstdint>

namespace spio::crc_detail {

/// True when checksum_clmul.cpp was built with PCLMULQDQ enabled.
bool clmul_compiled();

/// Fold the `n` bytes at `p` (n >= 64, a multiple of 16), entered with raw
/// CRC register `crc`, into 16 bytes `out` of equal weight: feeding `out`
/// to the table-driven update from register 0 gives the register that
/// feeding `p[0, n)` from `crc` would.
void fold_clmul(std::uint64_t crc, const std::byte* p, std::size_t n,
                std::byte* out);

}  // namespace spio::crc_detail
