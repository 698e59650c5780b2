/// AVX2 kernel TU — CMake compiles exactly this file with `-mavx2`
/// (see src/simd/CMakeLists.txt) when the toolchain supports the flag;
/// the rest of the library stays at the baseline ISA and reaches this
/// code only through runtime dispatch, so a non-AVX2 host never
/// executes an AVX2 instruction.

#include "simd/kernels_isa.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "simd/kernels_x86_body.hpp"

namespace spio::simd {

bool avx2_compiled() { return true; }

namespace detail {
namespace {

struct TraitsAVX2 {
  static constexpr std::size_t kLanes = 4;
  using Reg = __m256d;
  static Reg load(const double* p) { return _mm256_loadu_pd(p); }
  static Reg set1(double v) { return _mm256_set1_pd(v); }
  // Ordered-quiet predicates: NaN compares false, as scalar `>=`/`<`.
  static Reg cmp_ge(Reg a, Reg b) { return _mm256_cmp_pd(a, b, _CMP_GE_OQ); }
  static Reg cmp_lt(Reg a, Reg b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static Reg and_(Reg a, Reg b) { return _mm256_and_pd(a, b); }
  static unsigned movemask(Reg m) {
    return static_cast<unsigned>(_mm256_movemask_pd(m));
  }
  static Reg add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
  static Reg sub(Reg a, Reg b) { return _mm256_sub_pd(a, b); }
  static Reg div(Reg a, Reg b) { return _mm256_div_pd(a, b); }
  static Reg mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
  static Reg floor_(Reg a) { return _mm256_floor_pd(a); }
  static Reg max_(Reg a, Reg b) { return _mm256_max_pd(a, b); }  // NaN -> b
  static Reg min_(Reg a, Reg b) { return _mm256_min_pd(a, b); }  // NaN -> b
  static void to_int32(Reg a, std::int32_t* out) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                     _mm256_cvttpd_epi32(a));
  }
};

}  // namespace

void select_box_avx2(const PositionMirror& mirror, const Box3& box,
                     Selection& sel) {
  select_box_body<TraitsAVX2>(mirror, box, sel);
}

void select_box_ranges_avx2(const PositionMirror& mirror,
                            const std::byte* base, std::size_t record_size,
                            const Box3& box, std::span<const RangePred> preds,
                            Selection& sel) {
  select_box_ranges_body<TraitsAVX2>(mirror, base, record_size, box, preds, sel);
}

void bin_by_owner_avx2(const PositionMirror& mirror, const std::byte* base,
                       std::size_t record_size,
                       const PatchDecomposition& decomp,
                       std::vector<ParticleBuffer>& outgoing) {
  bin_by_owner_body<TraitsAVX2>(mirror, base, record_size, decomp, outgoing);
}

namespace {

/// `minmax_f64x4_avx2` for exactly N quads: one record-major pass keeps
/// every quad's accumulators in registers, so the N dependency chains
/// overlap and the records stream in once.
template <std::size_t N>
void minmax_quads(const std::byte* base, std::size_t record_size,
                  std::size_t count, const std::size_t* offsets, double* lo,
                  double* hi, unsigned* nan_lanes) {
  // MINPD/MAXPD return their second operand unless the first compares
  // strictly less/greater, so min(v, cur) and max(v, cur) are exactly
  // std::min(cur, v) and std::max(cur, v), -0.0/+0.0 and NaN included.
  __m256d vlo[N], vhi[N], nan[N];
#pragma GCC unroll 4
  for (std::size_t q = 0; q < N; ++q) {
    vlo[q] = _mm256_loadu_pd(lo + 4 * q);
    vhi[q] = _mm256_loadu_pd(hi + 4 * q);
    nan[q] = _mm256_setzero_pd();
  }
  for (std::size_t i = 0; i < count; ++i, base += record_size) {
#pragma GCC unroll 4
    for (std::size_t q = 0; q < N; ++q) {
      const __m256d v =
          _mm256_loadu_pd(reinterpret_cast<const double*>(base + offsets[q]));
      vlo[q] = _mm256_min_pd(v, vlo[q]);
      vhi[q] = _mm256_max_pd(v, vhi[q]);
      nan[q] = _mm256_or_pd(nan[q], _mm256_cmp_pd(v, v, _CMP_UNORD_Q));
    }
  }
#pragma GCC unroll 4
  for (std::size_t q = 0; q < N; ++q) {
    _mm256_storeu_pd(lo + 4 * q, vlo[q]);
    _mm256_storeu_pd(hi + 4 * q, vhi[q]);
    *nan_lanes |= static_cast<unsigned>(_mm256_movemask_pd(nan[q])) << (4 * q);
  }
}

}  // namespace

void minmax_f64x4_avx2(const std::byte* base, std::size_t record_size,
                       std::size_t count, const std::size_t* offsets,
                       std::size_t quads, double* lo, double* hi,
                       unsigned* nan_lanes) {
  // The dispatcher passes 1 to 4 quads.
  constexpr decltype(&minmax_quads<1>) kByQuads[] = {
      minmax_quads<1>, minmax_quads<2>, minmax_quads<3>, minmax_quads<4>};
  kByQuads[quads - 1](base, record_size, count, offsets, lo, hi, nan_lanes);
}

}  // namespace detail
}  // namespace spio::simd

#else  // !__AVX2__ — toolchain could not build this TU at AVX2;
       // detected_level() caps at SSE2 and these stubs stay unreachable.

#include <cstdlib>

namespace spio::simd {

bool avx2_compiled() { return false; }

namespace detail {

void select_box_avx2(const PositionMirror&, const Box3&, Selection&) {
  std::abort();
}

void select_box_ranges_avx2(const PositionMirror&, const std::byte*,
                            std::size_t, const Box3&,
                            std::span<const RangePred>, Selection&) {
  std::abort();
}

void bin_by_owner_avx2(const PositionMirror&, const std::byte*, std::size_t,
                       const PatchDecomposition&,
                       std::vector<ParticleBuffer>&) {
  std::abort();
}

void minmax_f64x4_avx2(const std::byte*, std::size_t, std::size_t,
                       const std::size_t*, std::size_t, double*, double*,
                       unsigned*) {
  std::abort();
}

}  // namespace detail
}  // namespace spio::simd

#endif  // __AVX2__
