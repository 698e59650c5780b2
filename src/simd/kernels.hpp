#pragma once

/// \file kernels.hpp
/// Explicitly vectorized read-path kernels over the SoA position mirror
/// (docs/PERF.md "SIMD kernels"), plus one write-side kernel, the zone
/// maps' min/max fold (`minmax_f64x4`, contract at its declaration).
/// Each filter is two halves. A *select* kernel evaluates the predicate
/// as SIMD masks over the mirror's contiguous x/y/z arrays and folds the
/// masks into a `Selection` — the matching runs and their record count —
/// without touching the AoS bytes. `copy_runs` then copies those runs
/// from the *AoS* byte buffer in record order, one `memcpy` per run. The
/// read path runs the two halves on different threads (the scan next to
/// the fetch, the copy straight into the result's final offset);
/// `filter_box`/`filter_box_ranges` run them back to back into a
/// `ParticleBuffer`. Either way the records and their order are those of
/// the fused scalar kernels, so output is byte-identical to the
/// `*_reference` oracles by construction (the differential suite in
/// tests/simd/simd_kernels_test.cpp pins all three paths together).
///
/// Every entry point but `copy_runs` is a *try*: it returns false —
/// leaving its output untouched — when no SIMD path is available (`active_level()` is
/// `kScalar`: non-x86 build, `SPIO_SIMD=off`, or a test cap) or when the
/// mirror does not describe `bytes` (count mismatch). Callers fall back
/// to the fused scalar kernels; `read_detail::*_dispatch` in
/// core/read_engine.hpp does exactly that and counts
/// `kernel.simd_{hits,fallbacks}`.
///
/// Comparison semantics are pinned to the scalar kernels exactly:
/// ordered-quiet SIMD compares, so NaN coordinates match no box (as with
/// scalar `>=`/`<`), range predicates pass NaN attribute values (scalar
/// `!(v < lo || v > hi)`), and owner binning reproduces
/// `PatchDecomposition::cell_of`'s sub/div/mul/floor/clamp sequence
/// operation for operation (IEEE ops are deterministic, so the lanes are
/// bit-identical to the scalar loop).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "simd/position_mirror.hpp"
#include "simd/simd_level.hpp"
#include "util/box.hpp"
#include "workload/decomposition.hpp"
#include "workload/particle_buffer.hpp"

namespace spio::simd {

/// One hoisted range predicate: keep records whose element at byte
/// `offset` (f64, or f32 widened) lies in [lo, hi]; NaN passes. The
/// SIMD-side twin of the read engine's hoisted `RangeFilter`.
struct RangePred {
  std::size_t offset = 0;
  bool is_f64 = true;
  double lo = 0;
  double hi = 0;
};

/// True when the AoS record at `r` passes every predicate of `preds` —
/// the fused scalar kernel's hoisted-filter loop, shared with the SIMD
/// kernels' surviving lanes (NaN passes: `!(v < lo || v > hi)`).
inline bool record_passes_ranges(const std::byte* r,
                                 std::span<const RangePred> preds) {
  for (const RangePred& h : preds) {
    double v;
    if (h.is_f64) {
      std::memcpy(&v, r + h.offset, sizeof(double));
    } else {
      float f;
      std::memcpy(&f, r + h.offset, sizeof(float));
      v = static_cast<double>(f);
    }
    if (v < h.lo || v > h.hi) return false;
  }
  return true;
}

/// `len` consecutive matching records starting at record `start`.
struct Run {
  std::size_t start = 0;
  std::size_t len = 0;
};

/// One buffer's matching records: maximal runs in record order plus
/// their total — what the select kernels (SIMD and scalar) build and
/// `copy_runs` consumes.
struct Selection {
  std::vector<Run> runs;
  std::uint64_t count = 0;
};

/// The copy half of every filter kernel: write the records of `runs`,
/// taken from the AoS buffer at `base` (stride `record_size`), to `dst`
/// back to back, one `memcpy` per run. `dst` must hold every run.
void copy_runs(const std::byte* base, std::size_t record_size,
               std::span<const Run> runs, std::byte* dst);

/// SIMD select: overwrite `sel` with the runs of records of `bytes`
/// whose mirrored position lies in `box` (half-open). Returns false
/// (no-op) when dispatch lands on the scalar level or
/// `mirror.size() != bytes.size() / record_size`.
bool select_box(const PositionMirror& mirror, std::span<const std::byte> bytes,
                std::size_t record_size, const Box3& box, Selection& sel);

/// SIMD select with range predicates: the box predicate runs at full
/// vector width over the mirror; surviving lanes evaluate the (rarely
/// more than one or two) range predicates against the AoS record. Same
/// try contract as `select_box`.
bool select_box_ranges(const PositionMirror& mirror,
                       std::span<const std::byte> bytes,
                       std::size_t record_size, const Box3& box,
                       std::span<const RangePred> preds, Selection& sel);

/// SIMD `filter_box`: `select_box`, then one exact reserve of `out` and
/// one append per run; `*kept` gets the count. Same try contract as
/// `select_box`.
bool filter_box(const PositionMirror& mirror, std::span<const std::byte> bytes,
                std::size_t record_size, const Box3& box, ParticleBuffer& out,
                std::uint64_t* kept);

/// SIMD `filter_box_ranges`: `select_box_ranges`, then the appends of
/// `filter_box`. Same try contract as `select_box`.
bool filter_box_ranges(const PositionMirror& mirror,
                       std::span<const std::byte> bytes,
                       std::size_t record_size, const Box3& box,
                       std::span<const RangePred> preds, ParticleBuffer& out,
                       std::uint64_t* kept);

/// SIMD `bin_by_owner`: vectorized point location (sub/div/mul/floor/
/// clamp per lane, exactly `cell_of`) into per-chunk owner arrays,
/// folded into owner runs and appended with the fused kernel's two-pass
/// reserve+memcpy. `outgoing.size()` must equal `decomp.rank_count()`.
/// Same try contract as `filter_box`.
bool bin_by_owner(const PositionMirror& mirror,
                  std::span<const std::byte> bytes, std::size_t record_size,
                  const PatchDecomposition& decomp,
                  std::vector<ParticleBuffer>& outgoing);

/// Write-side zone kernel: over `count` records at `base` (stride
/// `record_size`), fold `quads` (1 to 4) runs of four consecutive f64 —
/// quad q at byte `offsets[q]` — into `lo[4q..4q+4)`/`hi[4q..4q+4)`
/// exactly as `lo = std::min(lo, v)`, `hi = std::max(hi, v)` would (a NaN
/// leaves both untouched), and set bit 4q+k of `*nan_lanes` when lane k
/// of quad q saw a NaN. One record-major pass serves every quad. AVX2
/// only: returns false (no-op) at any lower level, and the caller runs
/// its scalar loop.
bool minmax_f64x4(const std::byte* base, std::size_t record_size,
                  std::size_t count, const std::size_t* offsets,
                  std::size_t quads, double* lo, double* hi,
                  unsigned* nan_lanes);

}  // namespace spio::simd
