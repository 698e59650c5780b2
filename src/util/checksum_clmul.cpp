/// CRC-64 folding TU — CMake compiles exactly this file with `-mpclmul`
/// (see src/util/CMakeLists.txt) when the toolchain supports the flag;
/// checksum.cpp reaches it only through its runtime CPU check.
///
/// The kernel is the 4-lane PCLMULQDQ fold of Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// (Intel, 2009), for the reflected CRC-64/XZ polynomial. Four 128-bit
/// accumulators each fold 512 bits ahead per 64-byte step, then fold
/// into one 128 bits apart. No Barrett reduction is needed: the last
/// 16 bytes go back through the slicing tables in checksum.cpp.

#include "util/checksum_isa.hpp"

#if defined(__PCLMUL__)

#include <immintrin.h>

namespace spio::crc_detail {

bool clmul_compiled() { return true; }

namespace {

// ECMA-182, normal (unreflected) form; the x^64 term is implicit.
constexpr std::uint64_t kPolyNormal = 0x42F0E1EBA9EA3693ULL;

constexpr std::uint64_t reflect64(std::uint64_t v) {
  std::uint64_t r = 0;
  for (int i = 0; i < 64; ++i)
    if (v & (std::uint64_t{1} << i)) r |= std::uint64_t{1} << (63 - i);
  return r;
}

/// x^k mod P, bit-reflected so that a carry-less product with a reflected
/// register lines up with the message.
constexpr std::uint64_t xpow_mod(int k) {
  std::uint64_t r = 1;  // x^0
  for (int i = 0; i < k; ++i) {
    const bool carry = (r >> 63) != 0;
    r <<= 1;
    if (carry) r ^= kPolyNormal;
  }
  return reflect64(r);
}

// A reflected carry-less product carries one extra factor x, so folding a
// 128-bit lane D bits forward multiplies its message-first (low) half by
// x^(D+63) and its other half by x^(D-1).
constexpr std::uint64_t kFold512Lo = xpow_mod(512 + 63);
constexpr std::uint64_t kFold512Hi = xpow_mod(512 - 1);
constexpr std::uint64_t kFold128Lo = xpow_mod(128 + 63);
constexpr std::uint64_t kFold128Hi = xpow_mod(128 - 1);

/// `acc` moved forward by the distance the constants `k` encode.
__m128i fold(__m128i acc, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                       _mm_clmulepi64_si128(acc, k, 0x11));
}

__m128i load(const std::byte* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

}  // namespace

void fold_clmul(std::uint64_t crc, const std::byte* p, std::size_t n,
                std::byte* out) {
  const __m128i k512 = _mm_set_epi64x(static_cast<long long>(kFold512Hi),
                                      static_cast<long long>(kFold512Lo));
  const __m128i k128 = _mm_set_epi64x(static_cast<long long>(kFold128Hi),
                                      static_cast<long long>(kFold128Lo));
  // The entry register XORs into the first eight message bytes.
  __m128i a0 = _mm_xor_si128(load(p),
                             _mm_cvtsi64_si128(static_cast<long long>(crc)));
  __m128i a1 = load(p + 16);
  __m128i a2 = load(p + 32);
  __m128i a3 = load(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    a0 = _mm_xor_si128(fold(a0, k512), load(p));
    a1 = _mm_xor_si128(fold(a1, k512), load(p + 16));
    a2 = _mm_xor_si128(fold(a2, k512), load(p + 32));
    a3 = _mm_xor_si128(fold(a3, k512), load(p + 48));
    p += 64;
    n -= 64;
  }
  __m128i x = _mm_xor_si128(fold(a0, k128), a1);
  x = _mm_xor_si128(fold(x, k128), a2);
  x = _mm_xor_si128(fold(x, k128), a3);
  for (; n >= 16; p += 16, n -= 16) x = _mm_xor_si128(fold(x, k128), load(p));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), x);
}

}  // namespace spio::crc_detail

#else  // !__PCLMUL__ — toolchain could not build this TU with PCLMULQDQ;
       // checksum.cpp stays on the slicing tables and never calls in.

#include <cstdlib>

namespace spio::crc_detail {

bool clmul_compiled() { return false; }

void fold_clmul(std::uint64_t, const std::byte*, std::size_t, std::byte*) {
  std::abort();
}

}  // namespace spio::crc_detail

#endif  // __PCLMUL__
