#include "simd/kernels.hpp"

#include <cstring>

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

/// The append half of `filter_box`/`filter_box_ranges`: one exact
/// reserve (the regrowth copies of a large output cost more than the run
/// bookkeeping), then one append per run.
void append_selection(const std::byte* base, std::size_t record_size,
                      const Selection& sel, ParticleBuffer& out,
                      std::uint64_t* kept) {
  out.reserve(out.size() + static_cast<std::size_t>(sel.count));
  for (const Run& r : sel.runs)
    out.append_records(base + r.start * record_size, r.len);
  if (kept) *kept = sel.count;
}

}  // namespace

void copy_runs(const std::byte* base, std::size_t record_size,
               std::span<const Run> runs, std::byte* dst) {
  for (const Run& r : runs) {
    const std::size_t bytes = r.len * record_size;
    std::memcpy(dst, base + r.start * record_size, bytes);
    dst += bytes;
  }
}

bool select_box(const PositionMirror& mirror, std::span<const std::byte> bytes,
                std::size_t record_size, const Box3& box, Selection& sel) {
  const Level level = active_level();
  if (level == Level::kScalar || !mirror_matches(mirror, bytes, record_size))
    return false;
  if (level == Level::kAVX2) {
    detail::select_box_avx2(mirror, box, sel);
  } else {
    detail::select_box_sse2(mirror, box, sel);
  }
  return true;
}

bool select_box_ranges(const PositionMirror& mirror,
                       std::span<const std::byte> bytes,
                       std::size_t record_size, const Box3& box,
                       std::span<const RangePred> preds, Selection& sel) {
  const Level level = active_level();
  if (level == Level::kScalar || !mirror_matches(mirror, bytes, record_size))
    return false;
  if (level == Level::kAVX2) {
    detail::select_box_ranges_avx2(mirror, bytes.data(), record_size, box,
                                   preds, sel);
  } else {
    detail::select_box_ranges_sse2(mirror, bytes.data(), record_size, box,
                                   preds, sel);
  }
  return true;
}

bool filter_box(const PositionMirror& mirror, std::span<const std::byte> bytes,
                std::size_t record_size, const Box3& box, ParticleBuffer& out,
                std::uint64_t* kept) {
  Selection sel;
  if (!select_box(mirror, bytes, record_size, box, sel)) return false;
  append_selection(bytes.data(), record_size, sel, out, kept);
  return true;
}

bool filter_box_ranges(const PositionMirror& mirror,
                       std::span<const std::byte> bytes,
                       std::size_t record_size, const Box3& box,
                       std::span<const RangePred> preds, ParticleBuffer& out,
                       std::uint64_t* kept) {
  Selection sel;
  if (!select_box_ranges(mirror, bytes, record_size, box, preds, sel))
    return false;
  append_selection(bytes.data(), record_size, sel, out, kept);
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
