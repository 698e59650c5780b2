/// SSE2 kernel TU — compiled at the build's baseline ISA (x86-64
/// implies SSE2). The twin TU, kernels_avx2.cpp, holds the identical
/// bodies instantiated at `-mavx2`; simd_level.cpp picks between them
/// at runtime.

#include "simd/kernels_isa.hpp"

#if defined(__x86_64__) || defined(_M_X64) || defined(__SSE2__)
#define SPIO_SIMD_SSE2 1
#else
#define SPIO_SIMD_SSE2 0
#endif

#if SPIO_SIMD_SSE2

#include <emmintrin.h>

#include <cmath>

#include "simd/kernels_x86_body.hpp"

namespace spio::simd {

bool sse2_compiled() { return true; }

namespace detail {
namespace {

struct TraitsSSE2 {
  static constexpr std::size_t kLanes = 2;
  using Reg = __m128d;
  static Reg load(const double* p) { return _mm_loadu_pd(p); }
  static Reg set1(double v) { return _mm_set1_pd(v); }
  static Reg cmp_ge(Reg a, Reg b) { return _mm_cmpge_pd(a, b); }
  static Reg cmp_lt(Reg a, Reg b) { return _mm_cmplt_pd(a, b); }
  static Reg and_(Reg a, Reg b) { return _mm_and_pd(a, b); }
  static unsigned movemask(Reg m) {
    return static_cast<unsigned>(_mm_movemask_pd(m));
  }
  static Reg add(Reg a, Reg b) { return _mm_add_pd(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm_sub_pd(a, b); }
  static Reg div(Reg a, Reg b) { return _mm_div_pd(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm_mul_pd(a, b); }
  // Packed floor is SSE4.1 (ROUNDPD); per-lane std::floor keeps this TU
  // at the baseline ISA and is bit-identical by definition.
  static Reg floor_(Reg a) {
    alignas(16) double t[2];
    _mm_store_pd(t, a);
    t[0] = std::floor(t[0]);
    t[1] = std::floor(t[1]);
    return _mm_load_pd(t);
  }
  static Reg max_(Reg a, Reg b) { return _mm_max_pd(a, b); }  // NaN -> b
  static Reg min_(Reg a, Reg b) { return _mm_min_pd(a, b); }  // NaN -> b
  static void to_int32(Reg a, std::int32_t* out) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out), _mm_cvttpd_epi32(a));
  }
};

}  // namespace

void select_box_sse2(const PositionMirror& mirror, const Box3& box,
                     Selection& sel) {
  select_box_body<TraitsSSE2>(mirror, box, sel);
}

void select_box_ranges_sse2(const PositionMirror& mirror,
                            const std::byte* base, std::size_t record_size,
                            const Box3& box, std::span<const RangePred> preds,
                            Selection& sel) {
  select_box_ranges_body<TraitsSSE2>(mirror, base, record_size, box, preds, sel);
}

void bin_by_owner_sse2(const PositionMirror& mirror, const std::byte* base,
                       std::size_t record_size,
                       const PatchDecomposition& decomp,
                       std::vector<ParticleBuffer>& outgoing) {
  bin_by_owner_body<TraitsSSE2>(mirror, base, record_size, decomp, outgoing);
}

}  // namespace detail
}  // namespace spio::simd

#else  // !SPIO_SIMD_SSE2 — non-x86 target: dispatch never selects SSE2.

#include <cstdlib>

namespace spio::simd {

bool sse2_compiled() { return false; }

namespace detail {

void select_box_sse2(const PositionMirror&, const Box3&, Selection&) {
  std::abort();
}

void select_box_ranges_sse2(const PositionMirror&, const std::byte*,
                            std::size_t, const Box3&,
                            std::span<const RangePred>, Selection&) {
  std::abort();
}

void bin_by_owner_sse2(const PositionMirror&, const std::byte*, std::size_t,
                       const PatchDecomposition&,
                       std::vector<ParticleBuffer>&) {
  std::abort();
}

}  // namespace detail
}  // namespace spio::simd

#endif  // SPIO_SIMD_SSE2
