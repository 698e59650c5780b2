#include "simd/kernels.hpp"

#include "simd/kernels_isa.hpp"
#include "simd/simd_level.hpp"

namespace spio::simd {

namespace {

/// The mirror must describe exactly the records in `bytes`; anything
/// else means the caller paired a stale mirror with fresh bytes (or a
/// zero record size) and the safe answer is the scalar fallback.
bool mirror_matches(const PositionMirror& mirror,
                    std::span<const std::byte> bytes,
                    std::size_t record_size) {
  return record_size > 0 && bytes.size() % record_size == 0 &&
         mirror.size() == bytes.size() / record_size;
}

}  // namespace

bool filter_box(const PositionMirror& mirror, std::span<const std::byte> bytes,
                std::size_t record_size, const Box3& box, ParticleBuffer& out,
                std::uint64_t* kept) {
  const Level level = active_level();
  if (level == Level::kScalar || !mirror_matches(mirror, bytes, record_size))
    return false;
  const std::uint64_t k =
      level == Level::kAVX2
          ? detail::filter_box_avx2(mirror, bytes.data(), record_size, box,
                                    out)
          : detail::filter_box_sse2(mirror, bytes.data(), record_size, box,
                                    out);
  if (kept) *kept = k;
  return true;
}

bool filter_box_ranges(const PositionMirror& mirror,
                       std::span<const std::byte> bytes,
                       std::size_t record_size, const Box3& box,
                       std::span<const RangePred> preds, ParticleBuffer& out,
                       std::uint64_t* kept) {
  const Level level = active_level();
  if (level == Level::kScalar || !mirror_matches(mirror, bytes, record_size))
    return false;
  const std::uint64_t k =
      level == Level::kAVX2
          ? detail::filter_box_ranges_avx2(mirror, bytes.data(), record_size,
                                           box, preds.data(), preds.size(),
                                           out)
          : detail::filter_box_ranges_sse2(mirror, bytes.data(), record_size,
                                           box, preds.data(), preds.size(),
                                           out);
  if (kept) *kept = k;
  return true;
}

bool bin_by_owner(const PositionMirror& mirror,
                  std::span<const std::byte> bytes, std::size_t record_size,
                  const PatchDecomposition& decomp,
                  std::vector<ParticleBuffer>& outgoing) {
  const Level level = active_level();
  if (level == Level::kScalar || !mirror_matches(mirror, bytes, record_size) ||
      outgoing.size() != static_cast<std::size_t>(decomp.rank_count()))
    return false;
  if (level == Level::kAVX2) {
    detail::bin_by_owner_avx2(mirror, bytes.data(), record_size, decomp,
                              outgoing);
  } else {
    detail::bin_by_owner_sse2(mirror, bytes.data(), record_size, decomp,
                              outgoing);
  }
  return true;
}

bool minmax_f64x4(const std::byte* base, std::size_t record_size,
                  std::size_t count, const std::size_t* offsets,
                  std::size_t quads, double* lo, double* hi,
                  unsigned* nan_lanes) {
  if (active_level() != Level::kAVX2 || quads < 1 || quads > 4) return false;
  detail::minmax_f64x4_avx2(base, record_size, count, offsets, quads, lo, hi,
                            nan_lanes);
  return true;
}

}  // namespace spio::simd
